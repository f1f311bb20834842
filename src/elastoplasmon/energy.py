"""Energy pairing, dissipation, and the primal/dual functionals.

The quadratic pairing

    P(u, v) = int [ lambda (div u) conj(div v) + 2 mu  sym grad u : conj(sym grad v) ]

is evaluated per region as (angular Gram by quadrature) x (closed-form radial
power integral).  Gradients of harmonic terms are homogeneous, so each field
contributes one angular strain profile per radial power; angular
orthogonality kills most cross products, but fields two degrees apart share
a vector-harmonic sector, so total energies must pair merged fields (see
``dissipation_E``).  Improper exterior integrals are legal only for decaying
strain pairs and raise otherwise.
"""

from __future__ import annotations

import math
from typing import Iterable, Sequence

import numpy as np

from .harmonics import DerivativeTable, SphereQuadrature, ensure_tables, shared_quadrature
from .lame import LameParams, Term, term_derivative

__all__ = [
    "EnergyReport",
    "pairing_P",
    "pairing_P_pieces",
    "dissipation_E",
    "functional_I",
    "functional_J",
    "source_pairing",
]

from dataclasses import dataclass


@dataclass
class EnergyReport:
    """One row of a loss sweep."""

    delta: float
    E_delta: float
    c_used: float
    I_upper: float | None = None
    J_lower: float | None = None
    n_delta: int | None = None

    def sandwich_ok(self, slack: float = 1e-9) -> bool:
        scale = max(abs(self.E_delta), 1.0)
        if self.J_lower is not None and self.J_lower > self.E_delta + slack * scale:
            return False
        if self.I_upper is not None and self.I_upper < self.E_delta - slack * scale:
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


def _strain_profiles(terms: Iterable[Term], quad: SphereQuadrature,
                     tables: DerivativeTable) -> dict[int, tuple[np.ndarray, np.ndarray]]:
    """Angular strain/divergence profiles grouped by gradient radial power.

    Returns {power p: (sym grad profile (N,3,3), div profile (N,))} where the
    actual gradient at radius r is sum_p r^p * profile_p.
    """
    groups: dict[int, list[Term]] = {}
    for t in terms:
        for j in range(3):
            for dt in term_derivative(t, j, tables):
                groups.setdefault(dt.power, []).append((j, dt))
    out = {}
    for p, lst in groups.items():
        grad = np.zeros((len(quad.nodes), 3, 3), dtype=complex)
        for j, dt in lst:
            Y = quad.harmonics(dt.degree)
            grad[:, :, j] += Y @ dt.coef.T
        sym = 0.5 * (grad + np.swapaxes(grad, 1, 2))
        div = np.trace(grad, axis1=1, axis2=2)
        out[p] = (sym, div)
    return out


def pairing_P(u_terms: Iterable[Term], v_terms: Iterable[Term], r_lo: float, r_hi: float,
              params: LameParams, tables: DerivativeTable,
              quad: SphereQuadrature | None = None) -> complex:
    """P over one annulus; use :func:`pairing_P_pieces` for piecewise fields."""
    u_terms, v_terms = tuple(u_terms), tuple(v_terms)
    if not u_terms or not v_terms:
        return 0.0
    dmax = max(t.degree for t in list(u_terms) + list(v_terms))
    tables = ensure_tables(tables, dmax + 2)
    if quad is None:
        quad = shared_quadrature(2 * dmax + 6)
    pu = _strain_profiles(u_terms, quad, tables)
    pv = _strain_profiles(v_terms, quad, tables)
    lam, mu = params.lam, params.mu
    total = 0.0 + 0.0j
    for p, (su, du) in pu.items():
        for p2, (sv, dv) in pv.items():
            ang = lam * du * np.conj(dv) + 2.0 * mu * np.einsum("nij,nij->n", su, np.conj(sv))
            ang_int = complex(quad.integrate(ang))
            scale = float(np.max(np.abs(ang))) * 4.0 * math.pi
            if abs(ang_int) <= 1e-13 * max(scale, 1e-300):
                # zero by angular orthogonality; the radial factor may be divergent
                continue
            total += ang_int * _radial_integral(p + p2 + 2, r_lo, r_hi)
    return total


def pairing_P_pieces(u_pieces: Sequence, v_pieces: Sequence, params: LameParams,
                     tables: DerivativeTable, quad: SphereQuadrature | None = None) -> complex:
    """P for piecewise fields given as sequences with .terms/.r_lo/.r_hi."""
    total = 0.0 + 0.0j
    for pu, pv in zip(u_pieces, v_pieces):
        if (pu.r_lo, pu.r_hi) != (pv.r_lo, pv.r_hi):
            raise ValueError("piecewise fields must share the region split")
        total += pairing_P(pu.terms, pv.terms, pu.r_lo, pu.r_hi, params, tables, quad)
    return total


def dissipation_E(solutions: Sequence, medium, tables: DerivativeTable) -> float:
    """Dissipation (delta/2) P(u, u) of an exact solve.

    Terms of all degree solutions are merged per region first: solutions two
    degrees apart share a vector-harmonic sector, so their cross pairing does
    not vanish.  Raises for delta = 0 where dissipation is undefined.
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


def functional_I(v_pieces: Sequence, w_pieces: Sequence | None, delta: float,
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


def source_pairing(psi_pieces: Sequence, source, params: LameParams,
                   tables: DerivativeTable, quad: SphereQuadrature) -> float:
    """Surface integral of (density . psi) over the source sphere."""
    q = source.q
    nodes = quad.nodes
    fvals = np.zeros((len(nodes), 3), dtype=complex)
    for n in source.degrees():
        gamma = source.density_matrix(n, params, tables)
        fvals += quad.harmonics(n) @ gamma.T
    psi = None
    from .lame import eval_terms

    for piece in psi_pieces:
        if piece.r_lo < q < piece.r_hi or math.isclose(piece.r_hi, q):
            psi = eval_terms(piece.terms, q * nodes)
            break
    if psi is None:
        raise ValueError("no piece of psi covers the source sphere")
    val = q**2 * complex(quad.integrate(np.sum(fvals * psi, axis=1)))
    return float(np.real(val))


def functional_J(v_pieces: Sequence | None, psi_pieces: Sequence, source, delta: float,
                 params: LameParams, tables: DerivativeTable, quad: SphereQuadrature) -> float:
    """Dual value  int f . psi - (delta/2) P(v,v) - (delta/2) P(psi,psi)."""
    if delta <= 0:
        raise ValueError("delta must be positive")
    total = source_pairing(psi_pieces, source, params, tables, quad)
    for pieces in (v_pieces, psi_pieces):
        if pieces is None:
            continue
        for piece in pieces:
            total -= 0.5 * delta * float(np.real(pairing_P(piece.terms, piece.terms, piece.r_lo, piece.r_hi, params, tables)))
    return total

