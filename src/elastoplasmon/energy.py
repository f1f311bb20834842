"""Energy pairing and dissipation, by flux through the interface spheres.

The quadratic pairing P(u, v) of general fields is a volume integral
(:func:`~elastoplasmon.fields.pairing_P`).  A field that solves the Lame
system in each region needs none: by Betti's identity P(u, u) over an annulus is the flux
rho^2 Re <u, t(u)> through its outer sphere minus its inner one.  In a
sector the displacement and traction on a sphere are radial-profile scalars
times unit members and their partner shapes (norm^2 kappa (2n+1)/(2d+1)),
so the dissipation of a solve and the witness bounds of
:mod:`~elastoplasmon.scenarios` are scalar sums over the interface spheres,
and a source enters through the Gram matrix of its coefficients alone.  One
array flux (:func:`_flux`) takes a stack of such fields, a column's rows,
and all their interface spheres at once: the dissipations of a column
(:func:`dissipations`; :func:`dissipation_E` is a column of one), the
pairings of solves (:func:`solution_pairings`, a
:func:`~elastoplasmon.transmission._column` by layout) and of unit-member
fields (:func:`profile_pairings`) are this flux.  Each complex product in it
is formed from real parts as Python's complex product rounds it, so a
column's values are bit for bit those of its rows alone.
"""

from __future__ import annotations

from typing import NamedTuple, Sequence

import numpy as np

from .lame import _served_from_fields
from .transmission import _column, _ok, _pows, _profile_stack

__all__ = [
    "EnergyReport", "dissipation_E", "dissipations", "solution_pairings", "profile_pairings",
]


SANDWICH_SLACK = 1e-9


class EnergyReport(NamedTuple):
    """One row of a loss sweep; ``sandwich_ok``: J_lower <= E_delta <= I_upper to ``SANDWICH_SLACK`` relative,
    else ``sandwich_break`` names the bound that breaks it (``"I_upper = ... below"``)."""

    delta: float
    E_delta: float
    c_used: float
    I_upper: float | None = None
    J_lower: float | None = None
    n_delta: int | None = None

    def sandwich_ok(self) -> bool:
        return self.sandwich_break() is None

    def sandwich_break(self) -> str | None:
        tol = SANDWICH_SLACK * abs(self.E_delta)
        if self.J_lower is not None and self.J_lower > self.E_delta + tol:
            return f"J_lower = {self.J_lower!r} above"
        if self.I_upper is not None and self.I_upper < self.E_delta - tol:
            return f"I_upper = {self.I_upper!r} below"
        return None


def _flux(radii: Sequence, parts: list, gram: np.ndarray, total=0.0) -> np.ndarray:
    """Sum over regions of P(u, u) by Betti's identity, for a stack of k fields that solve the Lame system.

    On a region P(u, u) is the flux rho^2 Re <u, t(u)> through its outer
    sphere minus its inner one; the flux vanishes at r = 0 and at infinity.
    Row i's field lies on the regions between ``radii[i]`` (from 0 to inf)
    and is the sum of the P ``parts`` of one sector, each (degrees, profile
    stack, amplitudes (k, regions, B)) of profile fields
    (:func:`~elastoplasmon.transmission._profile_stack`).  On the sphere rho
    a part's shape of degree d has the coordinate vector ``coordinates[d] *
    gamma * U_d(rho)`` on the sector's unit members (traction alike), gamma
    the part's coefficients and ``coordinates`` the profile's ``coords``.  So the
    angular integral of two parts' shapes of degree d is the product of
    their scalars ``coordinates[d] * U_d(rho)`` and ``coordinates[d] *
    T_d(rho)`` times the entry <gamma_p, gamma_q> of the Gram matrix ``gram``
    (k, P, P) of the parts' coefficients.  The fluxes are added to ``total``
    region by region, outer sphere first.
    """
    rows = [list(r) for r in radii]
    nreg = len(rows[0]) - 1
    # the sides, region by region, outer sphere first: (region, interface sphere 1..nreg-1, sign)
    sides = [(reg, s, sign) for reg in range(nreg) for s, sign in ((reg + 1, 1.0), (reg, -1.0)) if 0 < s < nreg]
    regs, spheres = [reg for reg, _, _ in sides], [s - 1 for _, s, _ in sides]
    rho = [r[1:nreg] for r in rows]
    align = [[None if dp == dq else [dq.index(d) for d in dp] for dq, *_ in parts] for dp, *_ in parts]
    gram_re, gram_im = gram.real[:, :, :, None], gram.imag[:, :, :, None]
    with np.errstate(over="ignore", invalid="ignore"):  # as Python's arithmetic: out of range is inf
        traces = []
        for _, (power, scalars, coords), amps in parts:
            # every block's rho^p and rho^(p-1) on every interface sphere; a region's absent blocks have amplitude 0
            pw = _pows(rho, power)[:, spheres, :, :, None]
            ut = coords[:, None, None, :] * ((amps[:, regs, :, None, None] * scalars[:, None]) * pw).sum(axis=2)
            traces.append((ut[:, :, 0], ut[:, :, 1]))
        value = 0
        for p, (U, _) in enumerate(traces):
            for q, (_, T) in enumerate(traces):
                T = T if align[p][q] is None else T[:, :, align[p][q]]
                # Re(g <U, T>) from real parts, each rounded as Python's complex product rounds it
                re = (U.real * T.real + U.imag * T.imag).sum(axis=2)
                im = (U.real * T.imag - U.imag * T.real).sum(axis=2)
                value = value + (gram_re[:, p, q] * re - gram_im[:, p, q] * im)
        square = np.array([[r**2 for r in rs] for rs in rho])[:, spheres]
        fluxes = (np.array([sign for *_, sign in sides]) * square) * value  # sign rho^2 times the pairing
        for j in range(len(sides)):
            total = total + fluxes[:, j]
    return total


def profile_pairings(stack: tuple, radii, amps) -> np.ndarray:
    """Re P(u, u) of k unit sector members' fields, by one flux: row i the blocks ``amps[i]`` on ``radii[i]``.

    ``stack`` holds the rows' profiles, of one shape
    (:func:`~elastoplasmon.transmission._profile_stack`); ``amps`` is
    (k, regions, B), one row of blocks per region between the radii (from 0
    to inf).
    """
    return _flux(radii, [(None, stack, amps)], np.ones((len(amps), 1, 1), dtype=complex))


def solution_pairings(rows: Sequence) -> list:
    """Re P(u, u) summed over all regions of each row's superposed solves, by flux, or the first error among them.

    Sectors are orthogonal, except a family-2 density at n and a family-3
    density at n - 2, which share total angular momentum n - 1 and pair
    through their member coordinates.  The rows are a
    :func:`~elastoplasmon.transmission._column`: those of one layout (regions,
    and the families of each sector) are one stack of :func:`_flux`, a
    sector at a time in the order the solves first reach it.
    """
    def sectors_of(i):
        solutions, sectors = [_ok(sol) for sol in rows[i]], {}
        for sol in solutions:
            for fam, gammas, prof, amps in sol.sectors:
                J = min(prof.degrees) + (fam != 1)  # total angular momentum: n, n - 1 or n + 1
                sectors.setdefault((fam == 1, J), []).append((fam, prof, gammas, amps))
        parts = list(sectors.values())
        radii = solutions[0].radii if solutions else ()
        return (len(radii), tuple(tuple((fam, len(prof.degrees)) for fam, prof, _, _ in sector) for sector in parts),
                radii, parts)

    def values(idx, states):
        if not states[0][3]:
            return [0.0] * len(idx)  # no solve: no field
        total = 0.0
        for j in range(len(states[0][3])):
            sectors = [parts[j] for *_, parts in states]
            stack = [(sectors[0][p][1].degrees, _profile_stack([sector[p][1] for sector in sectors]),
                      np.array([sector[p][3] for sector in sectors])) for p in range(len(sectors[0]))]
            total = _flux([radii for _, _, radii, _ in states], stack,
                          np.array([_gram(sector) for sector in sectors], dtype=complex), total)
        return total.tolist()
    return _column(len(rows), sectors_of, values, key=lambda state: state[:2])


def _gram(parts: list) -> list[list[complex]]:
    """The Gram matrix <gamma_p, gamma_q> = sum_k conj(gamma_p,k) gamma_q,k of the parts' coefficients."""
    coefficients = [dict(gammas) for _, _, gammas, _ in parts]
    return [[sum(g.conjugate() * gq.get(k, 0.0) for k, g in gp.items()) for gq in coefficients] for gp in coefficients]


def dissipations(rows: Sequence[Sequence], media: Sequence) -> list[float]:
    """Dissipation (delta/2) P(u, u) of each row's exact solves in its medium (or the row's error), by flux.

    Every region's field solves the Lame system, so no volume integral is
    formed: the sum reads only the solutions' sector amplitudes
    (:func:`solution_pairings`), with no field and no ladder degree.  Raises
    for delta = 0 where dissipation is undefined.
    """
    if any(medium.delta <= 0 for medium in media):
        raise ValueError("dissipation needs delta > 0")
    return [p if isinstance(p, Exception) else 0.5 * medium.delta * p
            for medium, p in zip(media, solution_pairings(rows))]


def dissipation_E(solutions: Sequence, medium) -> float:
    """Dissipation (delta/2) P(u, u) of an exact solve, by flux: :func:`dissipations` of one row, its error raised."""
    return _ok(dissipations([solutions], [medium])[0])


__getattr__ = _served_from_fields(globals(), "functional_I functional_J")
