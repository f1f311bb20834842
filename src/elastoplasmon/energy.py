"""Energy pairing and dissipation, by flux through the interface spheres.

The quadratic pairing P(u, v) of general fields is a volume integral
(:func:`~elastoplasmon.fields.pairing_P`).  A field that solves the Lame
system in each region needs none: by Betti's identity P(u, u) over an
annulus is the flux rho^2 Re <u, t(u)> through its outer sphere minus its
inner one.  In a sector the displacement and traction on a sphere are
radial-profile scalars times unit members and their partner shapes (norm^2
kappa (2n+1)/(2d+1)).  The stacked solve forms them once, U and T' = rho t
on every side of the interface spheres, and each sector entry of a solve
carries them (:func:`~elastoplasmon.transmission._solve_systems`), so the
flux is rho Re <U, T'>: with every length times a power of two s, every
energy is s^3 times its value.  So the dissipation of a solve is a scalar
sum over the interface spheres, a source entering through the Gram matrix
of its coefficients alone.  One array flux (:func:`_flux`) takes a column's rows
and all their interface spheres at once: a sweep's lossy solves and the
loss-free ones of its fixed-multiplier witness are one column
(:func:`column_energies`; :func:`dissipation_E` is a column of one).  The
other witness energies of :mod:`~elastoplasmon.scenarios` need no flux:
their fields are perfect waves and single layers, whose energies are
scalars of unit data kept per key.  Each complex product in the flux is
formed from real parts as Python's complex product rounds it, so a
column's values are bit for bit those of its rows alone.
"""

from __future__ import annotations

from typing import NamedTuple, Sequence

import numpy as np

from .lame import _served_from_fields
from .transmission import _column, _ok, _sector_j, _sides

__all__ = [
    "EnergyReport", "dissipation_E", "column_energies", "solution_pairings",
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


def _flux(radii: Sequence, parts: list, gram: np.ndarray, total=0.0) -> tuple[np.ndarray, dict]:
    """Sum over regions of P(u, u) by Betti's identity, for a stack of k fields that solve the Lame system.

    On a region P(u, u) is the flux rho Re <U, T'> through its outer sphere minus its inner one, U the displacement
    and T' rho times the traction; the flux vanishes at r = 0 and at infinity.  Row i's field lies on the regions
    between ``radii[i]`` (from 0 to inf) and is the sum of the P ``parts`` of one sector, each (degrees, coords (k, D),
    the traces of its solve (k, S, 2, D)).  On the sphere rho a part's shape of degree d has the coordinate vector
    ``coords[d] * gamma * U_d(rho)`` on the sector's unit members (T' alike), gamma the part's coefficients, so the
    angular integral of two parts' shapes of degree d is the product of their scalars times the entry <gamma_p,
    gamma_q> of the Gram matrix ``gram`` (k, P, P).  The fluxes are added to ``total`` region by region, outer sphere
    first; returns them and {row: the ``ArithmeticError`` naming its first flux out of the float range}.
    """
    r = np.array(radii)
    regions, spheres = _sides(r.shape[1] - 2)
    order = sorted(range(len(spheres)), key=lambda j: (regions[j], -spheres[j]))  # region by region, outer first
    align = [[None if dp == dq else [dq.index(d) for d in dp] for dq, *_ in parts] for dp, *_ in parts]
    gram_re, gram_im = gram.real[:, :, :, None], gram.imag[:, :, :, None]
    with np.errstate(over="ignore", invalid="ignore"):  # as Python's arithmetic: out of range is inf
        traces = [(coords[:, None, :] * tr[:, :, 0], coords[:, None, :] * tr[:, :, 1]) for _, coords, tr in parts]
        value = 0
        for p, (U, _) in enumerate(traces):
            for q, (_, T) in enumerate(traces):
                T = T if align[p][q] is None else T[:, :, align[p][q]]
                # Re(g <U, T>) from real parts, each rounded as Python's complex product rounds it
                re = (U.real * T.real + U.imag * T.imag).sum(axis=2)
                im = (U.real * T.imag - U.imag * T.real).sum(axis=2)
                value = value + (gram_re[:, p, q] * re - gram_im[:, p, q] * im)
        spheres, signs = [spheres[j] for j in order], [1.0 if regions[j] < spheres[j] else -1.0 for j in order]
        fluxes = (np.array(signs) * r[:, spheres]) * value[:, order]  # sign rho times the pairing, in that order
        errors: dict = {}
        for i, j in np.argwhere(~np.isfinite(fluxes)).tolist():  # refused, not summed (inf - inf is nan)
            errors.setdefault(i, ArithmeticError(f"the flux through the sphere r = {float(r[i, spheres[j]])!r} is "
                                                 f"{float(fluxes[i, j])!r}, out of the float range"))
        for j in range(len(spheres)):
            total = total + fluxes[:, j]
    return total, errors


def solution_pairings(rows: Sequence) -> list:
    """Re P(u, u) summed over all regions of each row's superposed solves, by flux, or the row's first error: that of
    a solve, else that of its first flux out of the float range.

    Sectors are orthogonal, except a family-2 density at n and a family-3
    density at n - 2, which share total angular momentum n - 1 and pair
    through their member coordinates.  The rows of one layout (regions and
    the families of each sector, which fix its shapes) are one stack of :func:`_flux`.
    """
    def check(i):  # the row's stack key, radii and parts per sector
        sectors: dict = {}
        for sol in rows[i]:
            sol = _ok(sol)
            for part in sol.sectors:  # by (toroidal, total angular momentum J)
                sectors.setdefault((part[0] == 1, _sector_j(sol.n, part[0])), []).append(part)
        parts, radii = list(sectors.values()), rows[i][0].radii if rows[i] else ()
        return (len(radii), tuple(tuple(part[0] for part in sector) for sector in parts)), radii, parts

    def values(idx, states):
        if not states[0][2]:
            return [0.0] * len(idx)  # no solve: no field
        total, errors = 0.0, {}
        for j in range(len(states[0][2])):
            sectors = [parts[j] for *_, parts in states]
            stack = [(sectors[0][p][2].degrees, np.array([sector[p][2].coords for sector in sectors]),
                      np.array([sector[p][4] for sector in sectors])) for p in range(len(sectors[0]))]
            total, bad = _flux([radii for _, radii, _ in states], stack,
                               np.array([_gram(sector) for sector in sectors], dtype=complex), total)
            errors = {**bad, **errors}  # a row keeps its first sector's error
        return [errors.get(i, t) for i, t in enumerate(total.tolist())]
    return _column(len(rows), check, values, key=lambda state: state[0])


def _gram(parts: list) -> list[list[complex]]:
    """The Gram matrix <gamma_p, gamma_q> = sum_k conj(gamma_p,k) gamma_q,k of the parts' coefficients."""
    coefficients = [dict(gammas) for _, gammas, *_ in parts]
    return [[sum(g.conjugate() * gq.get(k, 0.0) for k, g in gp.items()) for gq in coefficients] for gp in coefficients]


def column_energies(lossy: Sequence[Sequence], media: Sequence, loss_free: Sequence[Sequence]) -> tuple[list, list]:
    """The dissipations (delta/2) P(u, u) of the ``lossy`` rows' solves in their ``media`` and the pairings Re P(v, v)
    of the ``loss_free`` rows' solves, each a value or the row's error: one :func:`solution_pairings` column.

    Every region's field solves the Lame system, so no volume integral is
    formed.  Raises for delta = 0.
    """
    if any(medium.delta <= 0 for medium in media):
        raise ValueError("dissipation needs delta > 0")
    pairings = solution_pairings([*lossy, *loss_free])
    return ([p if isinstance(p, Exception) else 0.5 * medium.delta * p for medium, p in zip(media, pairings)],
            pairings[len(lossy):])


def dissipation_E(solutions: Sequence, medium) -> float:
    """Dissipation (delta/2) P(u, u) of an exact solve, by flux: a :func:`column_energies` row, its error raised."""
    try:
        return _ok(column_energies([solutions], [medium], [])[0][0])
    finally:
        solutions = None  # the row may hold the error raised, whose traceback holds this frame: a cycle


__getattr__ = _served_from_fields(globals(), "functional_I functional_J")
