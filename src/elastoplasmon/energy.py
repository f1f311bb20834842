"""Energy pairing, dissipation, and the primal/dual functionals.

The quadratic pairing

    P(u, v) = int [ lambda (div u) conj(div v) + 2 mu  sym grad u : conj(sym grad v) ]

is evaluated per region as (angular integral) x (closed-form radial power
integral).  The term algebra gives every gradient as exact harmonic
coefficients, one (3, 3, 2d+1) array per (radial power, degree), and the
Y_d^m are orthonormal, so the angular integral of two such arrays is a dot
product of their divergence and symmetric-strain coefficients when the
degrees are equal and zero otherwise.  Fields two degrees apart have
gradients of a common degree, so total energies must pair merged fields (see
``dissipation_E``).  Improper exterior integrals are legal only for decaying
strain pairs and raise otherwise.
"""

from __future__ import annotations

import math
from typing import Iterable, Sequence

import numpy as np

from .harmonics import DerivativeTable, ensure_tables
from .lame import LameParams, ModeField, Term, displacement_coeffs, term_derivative

__all__ = [
    "EnergyReport",
    "pairing_P",
    "dissipation_E",
    "functional_I",
    "functional_J",
    "source_pairing",
]

from dataclasses import dataclass


@dataclass
class EnergyReport:
    """One row of a loss sweep; ``sandwich_ok``: J_lower <= E_delta <= I_upper to ``slack * |E_delta|``."""

    delta: float
    E_delta: float
    c_used: float
    I_upper: float | None = None
    J_lower: float | None = None
    n_delta: int | None = None

    def sandwich_ok(self, slack: float = 1e-9) -> bool:
        tol = slack * abs(self.E_delta)
        if self.J_lower is not None and self.J_lower > self.E_delta + tol:
            return False
        if self.I_upper is not None and self.I_upper < self.E_delta - tol:
            return False
        return True


def _radial_integral(s: int, r_lo: float, r_hi: float) -> float:
    """int_{r_lo}^{r_hi} r^s dr for integer s, with the logarithmic case."""
    if math.isinf(r_hi):
        if s >= -1:
            raise ValueError(f"divergent exterior radial integral, power {s}")
        return -(r_lo ** (s + 1)) / (s + 1)
    if s == -1:
        if r_lo <= 0:
            raise ValueError("logarithmic radial integral down to r = 0")
        return math.log(r_hi / r_lo)
    if s + 1 < 0 and r_lo <= 0:
        raise ValueError(f"divergent radial integral at r = 0, power {s}")
    lo = 0.0 if r_lo == 0 else r_lo ** (s + 1)
    return (r_hi ** (s + 1) - lo) / (s + 1)


def _strain_coeffs(terms: Iterable[Term], tables: DerivativeTable) -> list[tuple[int, int, np.ndarray, np.ndarray]]:
    """Divergence and symmetric-strain coefficients grouped by gradient power and degree.

    Returns (p, d, div (2d+1,), sym (3, 3, 2d+1)) entries: the gradient at
    r xhat is the sum over groups of r^p grad[i, j] . Y_d(xhat), with
    [i, j] = d u_i / d x_j.
    """
    grads: dict[tuple[int, int], np.ndarray] = {}
    for t in terms:
        for j in range(3):
            for dt in term_derivative(t, j, tables):
                key = (dt.power, dt.degree)
                if key not in grads:
                    grads[key] = np.zeros((3, 3, 2 * dt.degree + 1), dtype=complex)
                grads[key][:, j] += dt.coef
    return [(p, d, np.trace(g), 0.5 * (g + g.transpose(1, 0, 2))) for (p, d), g in grads.items()]


def pairing_P(u_terms: Iterable[Term], v_terms: Iterable[Term], r_lo: float, r_hi: float,
              params: LameParams, tables: DerivativeTable) -> complex:
    """P over one annulus, from the gradients' harmonic coefficients."""
    same = u_terms is v_terms
    u_terms, v_terms = tuple(u_terms), tuple(v_terms)
    if not u_terms or not v_terms:
        return 0.0
    dmax = max(t.degree for t in u_terms + v_terms)
    tables = ensure_tables(tables, dmax + 2)
    su = _strain_coeffs(u_terms, tables)
    sv = su if same else _strain_coeffs(v_terms, tables)
    lam, mu = params.lam, params.mu
    total = 0.0 + 0.0j
    for p, d, du, eu in su:
        for p2, d2, dv, ev in sv:
            if d2 == d:  # distinct degrees are orthogonal; their radial factor may diverge
                ang = lam * np.vdot(dv, du) + 2.0 * mu * np.vdot(ev, eu)
                total += ang * _radial_integral(p + p2 + 2, r_lo, r_hi)
    return total


def dissipation_E(solutions: Sequence, medium, tables: DerivativeTable) -> float:
    """Dissipation (delta/2) P(u, u) of an exact solve.

    Terms of all degree solutions are merged per region first: solutions two
    degrees apart have gradients of a common degree, so their cross pairing
    does not vanish.  Raises for delta = 0 where dissipation is undefined.
    """
    delta = medium.delta
    if delta <= 0:
        raise ValueError("dissipation needs delta > 0")
    params = medium.base
    merged: dict[tuple[float, float], list] = {}
    for sol in solutions:
        for reg in sol.regions:
            merged.setdefault((reg.r_lo, reg.r_hi), []).extend(reg.terms)
    total = 0.0
    for key, terms in merged.items():
        if not terms:
            continue
        p = pairing_P(terms, terms, key[0], key[1], params, tables)
        total += 0.5 * delta * float(np.real(p))
    return total


def functional_I(v_pieces: Sequence[ModeField], w_pieces: Sequence[ModeField] | None, delta: float,
                 params: LameParams, tables: DerivativeTable) -> float:
    """Primal value (delta/2) P(v,v) + 1/(2 delta) P(w,w)."""
    if delta <= 0:
        raise ValueError("delta must be positive")
    total = 0.0
    for piece in v_pieces:
        total += 0.5 * delta * float(np.real(pairing_P(piece.terms, piece.terms, piece.r_lo, piece.r_hi, params, tables)))
    if w_pieces is not None:
        for piece in w_pieces:
            total += (0.5 / delta) * float(np.real(pairing_P(piece.terms, piece.terms, piece.r_lo, piece.r_hi, params, tables)))
    return total


def source_pairing(psi_pieces: Sequence[ModeField], source, params: LameParams,
                   tables: DerivativeTable) -> float:
    """Surface integral of (density . psi) over the source sphere.

    The integral is bilinear, so Y_n^m pairs with conj(Y_n^m) =
    (-1)^m Y_n^{-m}: the density's degree-n coefficients meet those of psi's
    trace in reversed order, odd orders signed.
    """
    q = source.q
    trace = None
    for piece in psi_pieces:
        if piece.r_lo < q < piece.r_hi or math.isclose(piece.r_hi, q):
            trace = displacement_coeffs(piece.terms, q)
            break
    if trace is None:
        raise ValueError("no piece of psi covers the source sphere")
    val = 0.0 + 0.0j
    for n in source.degrees():
        if n in trace:
            gamma = source.density_matrix(n, params, tables)
            val += np.sum(gamma * trace[n][:, ::-1] * (-1.0) ** (n - np.arange(2 * n + 1)))
    return float(np.real(q**2 * val))


def functional_J(v_pieces: Sequence[ModeField] | None, psi_pieces: Sequence[ModeField], source, delta: float,
                 params: LameParams, tables: DerivativeTable) -> float:
    """Dual value  int f . psi - (delta/2) P(v,v) - (delta/2) P(psi,psi)."""
    if delta <= 0:
        raise ValueError("delta must be positive")
    total = source_pairing(psi_pieces, source, params, tables)
    for pieces in (v_pieces, psi_pieces):
        if pieces is None:
            continue
        for piece in pieces:
            total -= 0.5 * delta * float(np.real(pairing_P(piece.terms, piece.terms, piece.r_lo, piece.r_hi, params, tables)))
    return total
