"""Energy pairing, dissipation, and the primal/dual functionals.

The quadratic pairing

    P(u, v) = int [ lambda (div u) conj(div v) + 2 mu  sym grad u : conj(sym grad v) ]

of two general fields is evaluated per region as (angular integral) x
(closed-form radial power integral) by :func:`pairing_P`.  The term algebra
gives every gradient as exact harmonic coefficients, one (3, 3, 2d+1) array
per (radial power, degree), and the Y_d^m are orthonormal, so the angular
integral of two such arrays is a dot product of their divergence and
symmetric-strain coefficients when the degrees are equal and zero otherwise.
Improper exterior integrals are legal only for decaying strain pairs and
raise otherwise.

A field that solves the Lame system in each region needs no volume
integral: by Betti's identity P(u, u) over an annulus is the flux
rho^2 Re <u, t(u)> through its outer sphere minus its inner one.  In a
sector the displacement and traction on a sphere are radial-profile scalars
times unit members and their partner shapes (norm^2 kappa (2n+1)/(2d+1)),
so the dissipation of a solve and the witness bounds of
:mod:`~elastoplasmon.scenarios` are scalar sums over the interface spheres
(:func:`solution_pairing`, :func:`profile_pairing`), and a source enters
through the Gram matrix of its coefficients alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .lame import LameParams, ModeField, Term, displacement_coeffs, gradient_groups
from .transmission import _profile_trace

__all__ = [
    "EnergyReport",
    "pairing_P",
    "dissipation_E",
    "solution_pairing",
    "profile_pairing",
    "functional_I",
    "functional_J",
    "source_pairing",
]


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


def _strain_coeffs(terms: Iterable[Term]) -> list[tuple[int, int, np.ndarray, np.ndarray]]:
    """Divergence and symmetric-strain coefficients grouped by gradient power and degree.

    Returns (p, d, div (2d+1,), sym (3, 3, 2d+1)) entries: the gradient at
    r xhat is the sum over groups of r^p grad[j, i] . Y_d(xhat), with
    [j, i] = d u_i / d x_j; the strain is symmetric, so its layout is either.
    """
    return [(p, d, g[0, 0] + g[1, 1] + g[2, 2], 0.5 * (g + g.transpose(1, 0, 2)))
            for (d, p), g in gradient_groups(terms).items()]


def pairing_P(u_terms: Iterable[Term], v_terms: Iterable[Term], r_lo: float, r_hi: float,
              params: LameParams) -> complex:
    """P over one annulus, from the gradients' harmonic coefficients."""
    same = u_terms is v_terms
    u_terms, v_terms = tuple(u_terms), tuple(v_terms)
    if not u_terms or not v_terms:
        return 0.0
    su = _strain_coeffs(u_terms)
    sv = su if same else _strain_coeffs(v_terms)
    lam, mu = params.lam, params.mu
    total = 0.0 + 0.0j
    for p, d, du, eu in su:
        for p2, d2, dv, ev in sv:
            if d2 == d:  # distinct degrees are orthogonal; their radial factor may diverge
                ang = lam * np.vdot(dv, du) + 2.0 * mu * np.vdot(ev, eu)
                total += ang * _radial_integral(p + p2 + 2, r_lo, r_hi)
    return total


def _flux(annuli: dict) -> float:
    """Sum over annuli of P(u, u) by Betti's identity, for fields that solve the Lame system.

    On an annulus P(u, u) is the flux rho^2 Re <u, t(u)> through its outer
    sphere minus its inner one; the flux vanishes at r = 0 and at infinity.
    ``annuli[(r_lo, r_hi, sector)]`` lists the sector's parts on the annulus
    as (profile, coordinates, gamma, block amplitudes), gamma the part's
    coefficients {member k: gamma_k}: on the sphere rho a part's shape of
    degree d has the coordinate vector ``coordinates[d] * gamma * U_d(rho)``
    on the sector's unit members (traction alike).  So the angular integral
    of two parts' shapes of degree d is the product of their scalars
    ``coordinates[d] * U_d(rho)`` and ``coordinates[d] * T_d(rho)`` times
    the entry <gamma_p, gamma_q> of the Gram matrix of the parts'
    coefficients, formed once per annulus.
    """
    total = 0.0
    for (r_lo, r_hi, _), parts in annuli.items():
        gram = [[sum(g.conjugate() * q[2].get(k, 0.0) for k, g in p[2].items()) for q in parts] for p in parts]
        for rho, sign in ((r_hi, 1.0), (r_lo, -1.0)):
            if not 0.0 < rho < math.inf:
                continue
            traces = [{d: (coords[d] * ud, coords[d] * td) for d, (ud, td) in _profile_trace(prof, amps, rho).items()}
                      for prof, coords, _, amps in parts]
            total += sign * rho**2 * sum(
                (g * sum(u.conjugate() * tq[d][1] for d, (u, _) in tp.items() if d in tq)).real
                for row, tp in zip(gram, traces) for g, tq in zip(row, traces))
    return total


def _coordinates(prof) -> dict[int, float]:
    """Coordinates of a unit member's shapes: 1 at its degree n, -sqrt(kappa (2n+1)/(2d+1)) at the partner d.

    The partner shape of member k of a family-2 sector at n is minus its
    norm times member k of the family-3 sector at n - 2, and the reverse, so
    the two sectors share one member basis (total angular momentum n - 1).
    """
    n = prof.degrees[0]
    return {d: 1.0 if d == n else -math.sqrt(prof.kappa * (2 * n + 1) / (2 * d + 1)) for d in prof.degrees}


def profile_pairing(prof, pieces: Iterable[tuple[float, float, dict]]) -> float:
    """Re P(u, u) of a unit sector member's field, by flux.

    ``pieces`` are (r_lo, r_hi, {(kind, shape): amplitude}) annuli of blocks
    of the profile ``prof`` (:func:`~elastoplasmon.transmission._radial_profile`).
    """
    coords = _coordinates(prof)
    return _flux({(lo, hi, None): [(prof, coords, {1: 1.0}, amps)] for lo, hi, amps in pieces})


def solution_pairing(solutions: Sequence) -> float:
    """Re P(u, u) summed over all regions of the superposed solves, by flux.

    Sectors are orthogonal, except a family-2 density at n and a family-3
    density at n - 2, which share total angular momentum n - 1 and pair
    through their member coordinates.
    """
    annuli: dict = {}
    for sol in solutions:
        for fam, gammas, prof, pieces in sol.sectors:
            J = min(prof.degrees) + (fam != 1)  # total angular momentum: n, n - 1 or n + 1
            coords, gamma = _coordinates(prof), dict(gammas)
            for lo, hi, amps in pieces:
                annuli.setdefault((lo, hi, (fam == 1, J)), []).append((prof, coords, gamma, amps))
    return _flux(annuli)


def dissipation_E(solutions: Sequence, medium) -> float:
    """Dissipation (delta/2) P(u, u) of an exact solve, by the flux of :func:`solution_pairing`.

    Every region's field solves the Lame system, so no volume integral is
    formed: the sum reads only the solutions' sector amplitudes, with no
    field and no ladder degree.  Raises for delta = 0 where dissipation
    is undefined.
    """
    delta = medium.delta
    if delta <= 0:
        raise ValueError("dissipation needs delta > 0")
    return 0.5 * delta * solution_pairing(solutions)


def functional_I(v_pieces: Sequence[ModeField], w_pieces: Sequence[ModeField] | None, delta: float,
                 params: LameParams) -> float:
    """Primal value (delta/2) P(v,v) + 1/(2 delta) P(w,w)."""
    if delta <= 0:
        raise ValueError("delta must be positive")
    total = 0.0
    for piece in v_pieces:
        total += 0.5 * delta * float(np.real(pairing_P(piece.terms, piece.terms, piece.r_lo, piece.r_hi, params)))
    if w_pieces is not None:
        for piece in w_pieces:
            total += (0.5 / delta) * float(np.real(pairing_P(piece.terms, piece.terms, piece.r_lo, piece.r_hi, params)))
    return total


def source_pairing(psi_pieces: Sequence[ModeField], source, params: LameParams) -> float:
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
            gamma = source.density_matrix(n, params)
            val += np.sum(gamma * trace[n][:, ::-1] * (-1.0) ** (n - np.arange(2 * n + 1)))
    return float(np.real(q**2 * val))


def functional_J(v_pieces: Sequence[ModeField] | None, psi_pieces: Sequence[ModeField], source, delta: float,
                 params: LameParams) -> float:
    """Dual value  int f . psi - (delta/2) P(v,v) - (delta/2) P(psi,psi)."""
    if delta <= 0:
        raise ValueError("delta must be positive")
    total = source_pairing(psi_pieces, source, params)
    for pieces in (v_pieces, psi_pieces):
        if pieces is None:
            continue
        for piece in pieces:
            total -= 0.5 * delta * float(np.real(pairing_P(piece.terms, piece.terms, piece.r_lo, piece.r_hi, params)))
    return total
