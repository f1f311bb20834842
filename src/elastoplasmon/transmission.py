"""Exact per-degree mode matching for the lossy layered sphere problem.

The medium is a concentric stack (optional core | shell | matrix) with a
spherical source surface at radius q > R.  Moduli in each layer are
(A + i delta)(lambda, mu) with A = +1 in core and matrix, c in the shell.

A radially layered medium commutes with rotations, so a degree-n source of
family f excites only its total-angular-momentum sector: J = n for family 1
(toroidal), J = n-1 for family 2 (degree n plus the degree n-2 shape reached
through t3) and J = n+1 for family 3 (degree n plus the degree n+2 shape
reached through t1).  Within a sector every block's displacement and
traction on a sphere is a scalar times one reference matrix per degree (the
sector's closed-form *radial profile*), so the interface conditions form a
square scalar system per family for a unit density, solved by LU refined in
extended precision (:func:`_square_solve`); the families' parts superpose
with the source coefficients (:class:`ModeSolution`).  The source-mode index
k picks a member of the family's sector and enters no system, so no member
matrix is built until :mod:`~elastoplasmon.fields` builds a field.  Each
solved family passes a scalar sector check, its perfect wave
(:func:`_wave_amplitudes`).

Units: each region's unknown is a block's value on the region's reference
sphere, the outer radius for an entire block and the inner one for a
decaying block, and traction rows are taken times the radius rho.  A block
of power p then enters every row as its scalar times (rho / r_ref)^p, at
most 1 (:func:`_pows`), and the right side is -q: a sector system depends
only on the ratios of consecutive radii, and so do its condition and the
resonance gate.  With the same powers each stacked solve forms its
systems' traces on the interface spheres once (:func:`_solve_systems`);
the energy flux and the Neumann-Poincare spectrum read them.  Only the
field builders convert the region-local amplitudes to the origin's scale
(:func:`_global_amplitude`, which refuses by name a value out of the float
range).

The unit of work is a column of (medium, source, degree) items
(:func:`_solve_column`; :func:`solve_mode` is a column of one): equal
systems are solved once, those of one shape as one stacked assembly and
solve, each result bit for bit its solve alone.  One helper
(:func:`_column`) groups the rows of the sector systems and energies by
shape, evaluates each stack once and gives each row its own error.  A loss-free
medium (delta = 0) is solved only where the equilibrated 1-norm condition
of each system of the source's families is at most 1e9, else
:class:`ResonantSingularityError`, an ``ArithmeticError`` carrying the
condition (:func:`sector_conditions` reads them).  The witnesses and the
Neumann-Poincare spectrum read the unit-sphere single layers, which
:func:`_unit_layers` solves and keeps.  Kept once per process per (float
lambda, float mu, n[, family]) key: the radial profiles, the sector checks
with the perfect wave's unit data and the unit single layers with their
traces.  A :class:`SourceSpec` checks its modes
when it is built, so a solve reads only valid ones; a source sphere not
outside the shell raises ``ValueError``.
"""

from __future__ import annotations

import math
import sys
from functools import cached_property
from typing import TYPE_CHECKING, NamedTuple

import numpy as np

from .lame import (LameParams, SectorCheckError, _key, _once_per_key, _served_from_fields, mode_constants,
                   plasmon_constants)

if TYPE_CHECKING:
    from .fields import ModeField

__all__ = [
    "LayeredMedium", "SourceSpec", "ModeSolution", "ResonantSingularityError", "UnconvergedSolveError",
    "solve_mode", "solve_modes", "sector_conditions", "REFUSALS",
]


class ResonantSingularityError(ArithmeticError):
    """Raised for a loss-free solve at (or numerically at) a plasmon constant.

    An ``ArithmeticError``: a witness built on a loss-free solve that is
    refused this way is a degenerate witness, like any other.
    """

    def __init__(self, message: str, condition: float):
        super().__init__(message)
        self.condition = condition


class UnconvergedSolveError(RuntimeError):
    """Raised when a density leaves its sector or a solve's backward error exceeds 1e-10."""


class LayeredMedium(NamedTuple("LayeredMedium", [("shell_radius", float), ("c", float), ("delta", float),
                                                  ("base", LameParams), ("core_radius", "float | None")])):
    """Core | shell | matrix geometry with shell multiplier c and loss delta, checked as :class:`LameParams` is."""

    __slots__ = ()

    def __new__(cls, shell_radius: float, c: float, delta: float, base: LameParams, core_radius: float | None = None):
        if not (math.isfinite(shell_radius) and shell_radius > 0):
            raise ValueError(f"shell_radius must be finite and positive, got {shell_radius!r}")
        if core_radius is not None and not (0 < core_radius < shell_radius):
            raise ValueError("need 0 < core_radius < shell_radius")
        if not (math.isfinite(c) and math.isfinite(delta)):
            raise ValueError("shell multiplier c and loss delta must be finite")
        if delta < 0:
            raise ValueError("loss delta must be nonnegative")
        return super().__new__(cls, shell_radius, c, delta, base, core_radius)

    _make = classmethod(lambda cls, values: cls(*values))  # _replace builds through __new__


def _sector_j(n: int, family: int) -> int:
    """The total angular momentum J of the degree-n sector of a family: n, n - 1 or n + 1 for families 1, 2, 3."""
    return n + (0, -1, 1)[family - 1]


def _check_source_mode(n: int, family: int, k: int) -> None:
    """ValueError unless the family is 1, 2 or 3, the degree n >= 2 and 1 <= k <= 2J + 1 (:func:`_sector_j`)."""
    if family not in (1, 2, 3):
        raise ValueError(f"source mode family {family} is not 1, 2 or 3")
    if n < 2:
        raise ValueError(f"source mode degree {n} is below 2 (family {family}, k = {k})")
    dim = 2 * _sector_j(n, family) + 1
    if not 1 <= k <= dim:
        raise ValueError(f"source mode index k = {k} outside 1..{dim} (family {family}, degree {n})")


class SourceSpec(NamedTuple("SourceSpec", [("q", float), ("coefficients", dict)])):
    """Surface force density on partial B_q expanded in kernel matrices.

    ``coefficients[(n, family, k)]`` multiplies kernel k of the family at
    degree n (:func:`~elastoplasmon.fields.kernel_basis`: by descending
    order |M| of the sector's total angular momentum J, k = 2J + 1 being
    M = 0).  Every rotation-invariant output of a solve from one such mode
    (``E_delta``, ``I_upper``, ``J_lower``, the verdict) is the same for every k.
    A source is valid by construction: a radius q that is not finite and
    positive, or a mode :func:`_check_source_mode` refuses, is ``ValueError``.
    """

    __slots__ = ()

    def __new__(cls, q: float, coefficients: dict):  # coefficients: (n, family, k) -> complex gamma
        if not (math.isfinite(q) and q > 0):
            raise ValueError(f"source radius q must be finite and positive, got {q!r}")
        for mode in coefficients:
            _check_source_mode(*mode)
        return super().__new__(cls, q, coefficients)

    _make = classmethod(lambda cls, values: cls(*values))  # _replace builds through __new__

    def degrees(self) -> list[int]:
        return sorted({n for (n, _, _) in self.coefficients})

    def family_gammas(self, n: int) -> dict[int, dict[int, complex]]:
        """Degree-n coefficients split by family, {family: {k: gamma}}; no kernel matrix is built."""
        out: dict[int, dict[int, complex]] = {}
        for (nn, fam, k), g in self.coefficients.items():
            if nn == n and g != 0:
                out.setdefault(fam, {})[k] = g
        return out

    def density_matrix(self, n: int, params: LameParams) -> np.ndarray:
        """Coefficient matrix of the degree-n part of the density: the sum of each family's sum of g K."""
        from .fields import _family_density

        return sum((_family_density(params, n, fam, gam.items()) for fam, gam in self.family_gammas(n).items()),
                   np.zeros((3, 2 * n + 1), dtype=complex))


class ModeSolution:
    """Exact solve of one degree: the scalar amplitudes of each family's sector system.

    ``sectors`` holds one ``(family, ((k, gamma), ...), profile, amplitudes,
    traces)`` entry per solved family: the region-local block amplitudes of
    the unit-density system, one row per region (:func:`_region_blocks`), and
    its traces (:func:`_solve_systems`), the density being sum gamma_k times
    member k.  ``radii`` are the region bounds from 0 to inf, ``condition``
    the largest condition of its systems and ``lstsq_residual`` the largest
    backward error; ``window`` and ``regions`` are formed when first read.
    Equal only to itself; no attribute is assigned after construction.
    """

    def __init__(self, n: int, condition: float, lstsq_residual: float, radii: tuple[float, ...], sectors: tuple,
                 params: LameParams):
        vars(self).update(n=n, condition=condition, lstsq_residual=lstsq_residual, radii=radii, sectors=sectors,
                          params=params)

    def __setattr__(self, name, *value):  # also __delattr__
        raise AttributeError(f"ModeSolution attribute {name!r} is read-only")

    __delattr__ = __setattr__

    @cached_property
    def window(self) -> tuple[int, ...]:
        """The degrees of the solution's terms."""
        return tuple(sorted({d for _, _, prof, *_ in self.sectors for d in prof.degrees}))

    @cached_property
    def regions(self) -> tuple[ModeField, ...]:
        """One :class:`~elastoplasmon.fields.ModeField` per region, built when first read
        (:func:`~elastoplasmon.fields._solution_regions`)."""
        from .fields import _solution_regions

        return _solution_regions(self)


def _outside_the_shell(shell_radius: float, q: float) -> None:
    """ValueError unless the source sphere q lies outside the shell, the rule of every solve and witness."""
    if not q > shell_radius:
        raise ValueError(f"source sphere q = {q} must lie outside the shell (radius {shell_radius})")


def _region_layout(medium: LayeredMedium, q: float) -> tuple[list[float], list[complex]]:
    _outside_the_shell(medium.shell_radius, q)
    loss = 1j * medium.delta  # each region's weight A + i delta: A is c in the shell and 1 elsewhere
    if medium.core_radius is None:  # shell c, then 1 out to q and beyond
        return [medium.shell_radius, q], [medium.c + loss, 1.0 + loss, 1.0 + loss]
    return [medium.core_radius, medium.shell_radius, q], [1.0 + loss, medium.c + loss, 1.0 + loss, 1.0 + loss]


def _norms(v: np.ndarray) -> np.ndarray:
    """``np.linalg.norm`` of each complex vector of a stack, in its own operations: sqrt(re . re + im . im).

    ``np.vecdot`` takes each real dot to the BLAS dot of ``ndarray.dot``, so
    every norm has the bits of the public call."""
    return np.sqrt(np.vecdot(v.real, v.real) + np.vecdot(v.imag, v.imag))


@np.errstate(all="ignore")  # a non-finite entry or correction fails the backward-error gate
def _square_solve(M: np.ndarray, b: np.ndarray, what: list[str], max_condition: list[float]) -> list:
    """Solve a stack of square interface systems: per system (x, condition, backward error) or its error.

    ``M`` is (k, m, m) and ``b`` (k, m); ``what`` (the name in the messages)
    and ``max_condition`` hold one entry per system.  Rows, then columns, are
    scaled to a largest entry of 1; the condition number is
    ``np.linalg.cond(A, 1)`` of the scaled matrix (inf for an exactly singular
    LU or an inverse out of the float range), and above ``max_condition`` the
    system is refused as singular (:class:`ResonantSingularityError`, which
    carries the condition); one of condition inf under no cap is numpy's
    ``LinAlgError``, led by its ``what``.  The scaled system, its right side
    times the power of two that brings it to unit size (exact, so the norms
    stay in range in any unit of the moduli), is solved by LU and refined from
    residuals of the double system formed in ``np.clongdouble``, at most 4
    steps, until a correction falls below eps |x| or no longer shrinks to half
    the previous one, which is then not applied (Higham, *Accuracy and
    Stability of Numerical Algorithms*, 2nd ed., ch. 12).  What holds is the
    backward error: a normwise backward error of the scaled system (its norm
    bounded by the largest row 2-norm) not at most 1e-10 is
    :class:`UnconvergedSolveError`.  The forward error can reach about
    condition x eps relative: the rounding of the entries alone moves x that
    much.

    The stack goes through one ``np.linalg.cond`` and, its regular systems,
    per step one ``np.linalg.solve`` and one :func:`_norms`; each operation
    acts on each system alone, so each result is bit for bit the public-call
    solve of its system alone.
    """
    rows = np.abs(M).max(axis=2)
    rows[rows == 0] = 1.0
    A = M / rows[:, :, None]
    cols = np.abs(A).max(axis=1)
    cols[cols == 0] = 1.0
    A /= cols[:, None, :]
    cond = np.linalg.cond(A, 1).tolist()
    out: list = [ResonantSingularityError(f"loss-free {w} singular (condition {c:.3e})", condition=c) if c > cap
                 else np.linalg.LinAlgError(f"{w}: Singular matrix") if c == math.inf else None
                 for w, c, cap in zip(what, cond, max_condition)]
    live = [i for i, got in enumerate(out) if got is None]
    if not live:
        return out
    k = len(live)
    if k < len(out):
        M, b, A, rows, cols = (a[live] for a in (M, b, A, rows, cols))
    rhs = b / rows
    scale = np.ldexp(1.0, -np.frexp(np.abs(rhs).max(axis=1))[1])[:, None]
    rhs *= scale
    M_ext, b_ext = M.astype(np.clongdouble), b.astype(np.clongdouble) * scale

    def residual(x):  # of the double system, formed in extended precision, rows scaled
        return (b_ext - (M_ext @ x[:, :, None])[:, :, 0]).astype(complex) / rows

    x = np.linalg.solve(A, rhs[..., None])[..., 0] / cols
    last, refining = [math.inf] * k, range(k)
    for _ in range(4):
        dx = np.linalg.solve(A, residual(x)[..., None])[..., 0] / cols
        ahead = x + dx
        norms = _norms(np.concatenate((dx, ahead))).tolist()  # |dx|, then |x + dx|
        take = [j for j in refining if not norms[j] > 0.5 * last[j]]
        if not take:
            break
        if len(take) == k:  # every system steps: the corrected stack is the next
            x = ahead
        else:
            x[take] = ahead[take]
        for j in take:
            last[j] = norms[j]
        refining = [j for j in take if not norms[j] <= 2.0**-52 * norms[k + j]]  # eps
        if not refining:
            break
    resid = _norms(residual(x)).tolist()
    sizes = _norms(np.concatenate((x * cols, rhs)))  # |x cols|, then |rhs|
    den = (_norms(A).max(axis=1) * sizes[:k] + sizes[k:]).tolist()
    x /= scale
    for j, i in enumerate(live):
        berr = resid[j] / (den[j] or 1e-300)
        out[i] = ((x[j], cond[i], berr) if berr <= 1e-10
                  else UnconvergedSolveError(f"{what[i]} did not converge (backward error {berr:.3e})"))
    return out


def _ok(outcome):
    """A solve's outcome: raised if it is an error, else returned."""
    if isinstance(outcome, Exception):
        try:
            raise outcome
        finally:
            outcome = None  # else this frame, in the error's traceback, holds the error: a cycle
    return outcome


# the errors that refuse an input or a solve, which the command line reports with exit 2
REFUSALS = (ValueError, ArithmeticError, UnconvergedSolveError, SectorCheckError)


def _kept(exc: Exception) -> Exception:
    """An error as a row keeps it: a refusal drops its traceback, whose frames would hold the column in a cycle."""
    if isinstance(exc, REFUSALS):
        exc.__traceback__ = None
    return exc


def _column(n: int, check, values, key=None) -> list:
    """Per row of a column of ``n`` its value or its error.

    ``check(i)`` returns row i's state or raises the error the row keeps
    (:func:`_kept`); the rows that pass are one stack per ``key(state)``,
    evaluated once: ``values(idx, states)`` gives per row its value or its
    own error."""
    out: list = []
    for i in range(n):
        try:
            out.append(check(i))
        except Exception as exc:
            out.append(_kept(exc))
    groups: dict = {}
    for i, state in enumerate(out):
        if not isinstance(state, Exception):
            groups.setdefault(None if key is None else key(state), []).append(i)
    for idx in groups.values():
        for i, value in zip(idx, values(idx, [out[i] for i in idx])):
            out[i] = value
    return out


class _RadialProfile(NamedTuple):
    """Scalar radial data of one sector at degree n, its blocks as arrays in one block order.

    ``degrees`` are n alone (family 1) or n and the partner degree n-2 or
    n+2 (families 2, 3), whose reference matrices are a density G and its
    ladder shape (:func:`~elastoplasmon.fields._ladder`).  The blocks are
    ``entire`` on each degree, then ``decay`` on each degree (the order of a
    region's unknowns, :func:`_region_blocks`).  On the sphere rho block b of
    value a on the sphere r_ref has displacement and rho times traction a
    ``disp[b, j]`` (rho / r_ref)^p and a ``trac[b, j]`` (rho / r_ref)^p times
    the reference matrix of degree ``degrees[j]``, p = ``power[b]`` (zero
    where the block has no part on that degree).  The ladder back from the partner
    shape gives ``kappa`` G.  By Wigner-Eckart every scalar is the same for
    every member of the sector.  ``scalars[b]`` holds the displacement (row
    0, ``disp``) and traction (row 1, ``trac``) scalars of block b.

    ``coords`` are the coordinates of a unit member's shapes on the
    sector's member basis: 1 at its degree n, -sqrt(kappa (2n+1)/(2d+1)) at
    the partner d.  The partner shape of member k of a family-2 sector at n
    is minus its norm times member k of the family-3 sector at n - 2, and
    the reverse, so the two sectors share one member basis (total angular
    momentum n - 1).
    """

    degrees: tuple[int, ...]
    power: tuple[int, ...]  # Python ints, so that a ratio ** p is Python's float power
    scalars: np.ndarray  # (2D, 2, D)
    coords: np.ndarray  # (D,)
    kappa: float | None

    @property
    def disp(self) -> np.ndarray:
        return self.scalars[:, 0]

    @property
    def trac(self) -> np.ndarray:
        return self.scalars[:, 1]


def _profile_from_blocks(params: LameParams, fam: int, degrees: tuple[int, ...], blocks: dict,
                         kappa: float | None) -> _RadialProfile:
    """The family's :class:`_RadialProfile` from {(kind, degree): (power, {degree: displacement}, {degree: traction})};
    ``ArithmeticError`` naming the moduli where a scalar is not finite (moduli near the float range's end)."""
    order = [blocks[(kind, d)] for kind in ("entire", "decay") for d in degrees]
    scalars = np.array([[[part[i].get(d, 0.0) for d in degrees] for i in (1, 2)] for part in order])
    n = degrees[0]
    if not np.isfinite(scalars).all():
        raise ArithmeticError(f"the degree-{n} family-{fam} radial profile of (lambda, mu) = ({params.lam!r}, "
                              f"{params.mu!r}) is out of the float range")
    coords = np.array([1.0 if d == n else -math.sqrt(kappa * (2 * n + 1) / (2 * d + 1)) for d in degrees])
    return _RadialProfile(tuple(degrees), tuple(int(p) for p, _, _ in order), scalars, coords, kappa)


@_once_per_key
def _radial_profile(params: LameParams, n: int, fam: int) -> _RadialProfile:
    """The :class:`_RadialProfile` of a sector in closed form (Love, *Treatise*, ch. XI), once per key.

    Toroidal blocks K r^n and K r^(-n-1) have tractions mu (n-1) and -mu (n+2).
    Family 2 at n = 1 is the sector J = 0, the degree-1 blocks x and x / r^3
    with tractions 3 lambda + 2 mu and -4 mu and no partner degree.
    A spheroidal sector pairs degrees lo and hi = lo + 2 (family 2: lo = n-2,
    family 3: lo = n).  ``entire`` on lo and ``decay`` on hi are pure, with
    tractions 2 mu lo and -2 mu (hi+1); ``entire`` on hi slaves -a M_hi onto
    lo and ``decay`` on lo slaves b k_lo onto hi, (a, b) = (1, kappa) for
    family 2 and (kappa, 1) for family 3, and their own tractions are
    -(2hi+2) mu / zeta2(hi) and 2 lo mu zeta3(lo), undivided for lo = 0.
    These two are formed from r = lambda / mu and times mu last, so no
    product of two moduli leaves the float range at any scale of the moduli.
    """
    lam, mu = params.lam, params.mu
    if fam == 1:
        return _profile_from_blocks(params, fam, (n,), {("entire", n): (n, {n: 1.0}, {n: mu * (n - 1.0)}),
                                                        ("decay", n): (-n - 1, {n: 1.0}, {n: -mu * (n + 2.0)})}, None)
    if n == 1 and fam == 2:  # J = 0: x and x / r^3
        return _profile_from_blocks(params, fam, (1,), {("entire", 1): (1, {1: 1.0}, {1: 3.0 * lam + 2.0 * mu}),
                                                        ("decay", 1): (-2, {1: 1.0}, {1: -4.0 * mu})}, None)
    lo = n - 2 if fam == 2 else n
    hi = lo + 2
    kappa = (lo + 1.0) * (lo + 2) * (2 * lo + 1) * (2 * lo + 5)
    a, b = (1.0, kappa) if fam == 2 else (kappa, 1.0)
    slave_lo = -a * mode_constants(params, hi).M_n
    slave_hi = b * (mode_constants(params, lo).k_n if lo >= 1 else (lam + mu) / (2.0 * (2 * lam + 5 * mu)))  # k_0
    t_lo, t_hi = 2.0 * mu * lo, -2.0 * mu * (hi + 1)
    r = lam / mu
    t_entire = ((2 * hi * hi + 1) * r + 2 * (hi * hi - hi + 1)) / ((hi - 1) * r + (3 * hi - 2)) * mu
    t_decay = -((2 * lo * lo + 4 * lo + 3) * r + 2 * (lo * lo + 3 * lo + 3)) / ((lo + 2) * r + (3 * lo + 5)) * mu
    blocks = {("entire", lo): (lo, {lo: 1.0}, {lo: t_lo}),
              ("entire", hi): (hi, {hi: 1.0, lo: slave_lo}, {hi: t_entire, lo: slave_lo * t_lo}),
              ("decay", lo): (-lo - 1, {lo: 1.0, hi: slave_hi}, {lo: t_decay, hi: slave_hi * t_hi}),
              ("decay", hi): (-hi - 1, {hi: 1.0}, {hi: t_hi})}
    return _profile_from_blocks(params, fam, (n, lo if fam == 2 else hi), blocks, kappa)


def _region_blocks(reg: int, nreg: int, D: int) -> slice:
    """The blocks region ``reg`` of ``nreg`` holds: entire in the ball, decaying outside, both in between."""
    return slice(D if reg == nreg - 1 else 0, D if reg == 0 else 2 * D)


def _ratios(radii: np.ndarray, spheres: list, regions: list, D: int) -> np.ndarray:
    """rho / r_ref of every block, (k, S, 2D): row i's sphere ``radii[i, spheres[s]]`` over a radius of the region
    ``regions[s]`` (``radii[i]`` runs from 0 to inf), its outer one for the D entire blocks and its inner one for the
    D decaying blocks.  Toward a kind of block the region does not hold the ratio is 0 or inf, and its power a finite
    0 or 1.  The indices are Python lists, so no integer ufunc runs."""
    with np.errstate(divide="ignore"):  # an inner radius 0: the region holds no decaying block
        return radii[:, spheres][:, :, None] / radii[:, [[reg + 1] * D + [reg] * D for reg in regions]]


def _pows(ratios: np.ndarray, powers) -> np.ndarray:
    """(rho / r_ref)^p of every block, ``ratios[i, ..., b]`` to the power ``powers[i][b]``: the shape of ``ratios``.

    A region's sphere lies inside the reference sphere of its entire blocks
    (p >= 0) and outside that of its decaying ones (p < 0), so each power is
    at most 1.  Each is Python's float power, as every scalar of the package
    is formed (numpy's vectorized pow may differ in the last bit)."""
    rows = ratios.reshape(len(powers), -1).tolist()
    values = [list(map(pow, rs, ps * (len(rs) // len(ps)))) for rs, ps in zip(rows, powers)]
    return np.array(values).reshape(ratios.shape)


def _global_amplitude(a: complex, r_ref: float, p: int) -> complex:
    """The amplitude at the origin's scale, a r_ref^(-p), of a block of power p and value a on the sphere r_ref;
    ``ArithmeticError`` naming the block and the sphere where a nonzero value leaves the normal float range."""
    if a == 0:
        return a
    try:
        out = a * r_ref ** -p
    except OverflowError:
        out = math.inf
    if not sys.float_info.min <= abs(out) < math.inf:
        raise ArithmeticError(f"a power-{p} block of value {a!r} on the sphere r = {r_ref!r} is out of the float "
                              "range at the origin's scale")
    return out


class _Wave(NamedTuple):
    """The perfect wave of a unit sector member on the shell sphere R (:func:`_wave_amplitudes`) and its unit data."""

    profile: _RadialProfile
    amps: np.ndarray  # (2, B): the region-local blocks inside and outside R
    c: float  # the family's plasmon constant
    energy: float  # Re P(psi, psi) / R, the flux R Re <U, T'> inside minus outside
    outside: tuple  # the displacement outside on degree n, sum s (rho / R)^p over (s, p) pairs
    inside: tuple  # rho times the traction inside on degree n, alike


@_once_per_key
def _wave_amplitudes(params: LameParams, n: int, fam: int) -> _Wave:
    """The perfect wave of a unit sector member in region-local profile blocks, with its unit data (:class:`_Wave`).

    The amplitudes of the regions inside and outside the shell sphere R
    (rows 0 and 1, :func:`_region_blocks`) are each block's value on R,
    whatever R: 1 for ``entire n`` inside and ``decay n`` outside, plus M_n
    for ``entire n-2`` inside (family 2) and -k_n for ``decay n+2`` outside
    (family 3).  They are the sector's kernel check: on R the displacements
    must agree and the traction inside times the family's plasmon constant
    c must equal the one outside, each to 1e-9 of the largest, else
    :class:`SectorCheckError`; once per process per (lambda, mu, n, family).
    The traces on R give the unit data, read in the member coordinates.
    """
    prof = _radial_profile(params, n, fam)
    D = len(prof.degrees)
    amps = np.zeros((2, 2 * D), dtype=complex)
    amps[0, 0] = amps[1, D] = 1.0  # entire n inside, decay n outside
    if fam == 2:
        amps[0, prof.degrees.index(n - 2)] = mode_constants(params, n).M_n
    elif fam == 3:
        amps[1, D + prof.degrees.index(n + 2)] = -mode_constants(params, n).k_n
    c = plasmon_constants(params, n).as_tuple()[fam - 1]
    (u_in, t_in), (u_out, t_out) = traces = np.einsum("rb,bsd->rsd", amps, prof.scalars)  # the traces on R, by region
    for what, inside, outside in (("continuity", u_in, u_out), ("transmission", c * t_in, t_out)):
        scale = float(np.max(np.abs(np.concatenate((inside, outside)))))
        defect = float(np.max(np.abs(inside - outside)))
        if not defect <= 1e-9 * scale:
            raise SectorCheckError(f"family {fam} sector at degree {n} is not a kernel at c={c} "
                                   f"({what} defect {defect / scale:.3e})")
    (U_in, T_in), (U_out, T_out) = traces.real * prof.coords
    outside, inside = ([(s, p) for s, p in zip((amps[reg] * prof.scalars[:, row, 0]).real.tolist(), prof.power) if s]
                       for reg, row in ((1, 0), (0, 1)))
    return _Wave(prof, amps, c, float(U_in @ T_in - U_out @ T_out), tuple(outside), tuple(inside))


def _sides(nb: int) -> tuple[list, list]:
    """(regions, spheres) of the sides of ``nb`` interfaces: sphere m + 1 in the region inside, then outside."""
    return [m + j for m in range(nb) for j in (0, 1)], [m + 1 for m in range(nb) for _ in (0, 1)]


def _sector_matrices(bounds: list, weights: list, profs: list):
    """Square systems of one shape for a unit density, stacked: (matrices (k, m, m), right sides (k, m), columns,
    (rho / r_ref)^p of every block on every side of :func:`_sides` (k, S, B), the profiles' scalars (k, B, 2, D)).

    System i is that of the sector of ``profs[i]`` on the interfaces
    ``bounds[i]`` with region weights ``weights[i]``, its unknowns the
    region-local amplitudes region by region (:func:`_region_blocks`).  Each
    interface rho has a displacement and a weighted rho-times-traction row
    per degree (inner minus outer, a block entering as scalar x (rho /
    r_ref)^p); the density enters as the jump -q at the last one."""
    k, nb = len(profs), len(bounds[0])
    D = len(profs[0].degrees)
    B = 2 * D
    regions, spheres = _sides(nb)
    pw = _pows(_ratios(np.array([[0.0, *bs, math.inf] for bs in bounds]), spheres, regions, D),
               [prof.power for prof in profs])
    at = np.arange(nb)
    full = np.zeros((k, nb, B, nb + 1, B), dtype=complex)  # (system, interface, row, region, block)
    scalars = np.array([prof.scalars for prof in profs])  # (k, B, 2, D)
    disp, trac = scalars.transpose(2, 0, 3, 1)[:, :, None]  # (k, 1, D, B) each
    weights = np.array(weights, dtype=complex)[:, :, None, None]
    with np.errstate(over="ignore", invalid="ignore"):  # as Python's arithmetic: out of range is inf
        for j, sign in ((0, 1.0), (1, -1.0)):  # displacement scalar x power, (weight x scalar) x power; inner - outer
            side = pw.reshape(k, nb, 2, B)[:, :, j, None, :]
            full[:, at, :D, at + j] = sign * (disp * side).transpose(1, 0, 2, 3)
            full[:, at, D:, at + j] = sign * ((weights[:, j:j + nb] * trac) * side).transpose(1, 0, 2, 3)
    cols = [reg * B + b for reg in range(nb + 1) for b in range(B)[_region_blocks(reg, nb + 1, D)]]
    M = full.reshape(k, nb * B, (nb + 1) * B)[:, :, cols]
    rhs = np.zeros((k, nb * B), dtype=complex)
    rhs[:, -D] = [-bs[-1] for bs in bounds]  # rho times the weighted traction jump (outer - inner) on the last sphere
    return M, rhs, cols, pw, scalars


def _solve_systems(systems: list) -> list:
    """Outcomes of (bounds, weights, profile, what, max_condition) sector systems, in order.

    Per system (region-local amplitudes (nb + 1, B) by region, zero for a
    region's absent blocks, condition, backward error, traces (S, 2, D)) or
    the error of its solve (:func:`_square_solve`).  The traces are the
    displacement and rho-times-traction scalars per degree on the sides of
    :func:`_sides`, each the sum in block order of amplitude x scalar x (rho
    / r_ref)^p, the powers of the assembly.  The systems are a :func:`_column`:
    those of one shape (interfaces and degrees) are one stacked assembly, solve and trace."""
    def values(idx, states):
        bounds, weights, profs, what, cap = zip(*states)
        nb, D = len(bounds[0]), len(profs[0].degrees)
        M, b, cols, pw, scalars = _sector_matrices(bounds, weights, profs)
        got = _square_solve(M, b, list(what), list(cap))
        amps = np.zeros((len(idx), (nb + 1) * 2 * D), dtype=complex)
        solved = [j for j, g in enumerate(got) if not isinstance(g, Exception)]
        if solved:
            amps[np.array(solved)[:, None], cols] = np.array([got[j][0] for j in solved])
        amps = amps.reshape(len(idx), nb + 1, 2 * D)
        with np.errstate(over="ignore", invalid="ignore"):  # as Python's arithmetic: out of range is inf
            terms = (amps[:, _sides(nb)[0], :, None, None] * scalars[:, None]) * pw[:, :, :, None, None]
            traces = sum((terms[:, :, b] for b in range(1, 2 * D)), terms[:, :, 0])  # in block order
        return [g if isinstance(g, Exception) else (amps[j], g[1], g[2], traces[j]) for j, g in enumerate(got)]
    return _column(len(systems), systems.__getitem__, values, key=lambda s: (len(s[0]), len(s[2].degrees)))


class _UnitLayer(NamedTuple):
    """The profile field continuous on the unit sphere whose traction jumps there by the degree-n shape, as its real
    solve gave it (:func:`_unit_layers`); that of density sigma on the sphere rho is rho sigma times its amplitudes."""

    amps: np.ndarray  # (2, B): the region-local blocks inside and outside the sphere
    traces: np.ndarray  # (2, 2, D): inside, then outside, its displacement and rho-times-traction scalars per degree


def _unit_layers(keys) -> list:
    """Per (params, degree, family) key its unit layer, kept per key in ``_unit_layers.cache``, or the error of its
    profile or solve; those missing are solved as one stack per profile shape, and none when every key is kept."""
    cache = _unit_layers.cache
    keys = [_key(*key) for key in keys]
    pending = {}  # per missing key its unit system, or the error of its profile
    for key in keys:
        if key not in cache and key not in pending:
            params, n, fam = LameParams(*key[:2]), *key[2:]
            try:
                pending[key] = ([1.0], [1.0, 1.0], _radial_profile(params, n, fam),
                                f"degree-{n} family-{fam} single layer", math.inf)
            except (ArithmeticError, ValueError) as exc:
                pending[key] = _kept(exc)
    systems = {key: system for key, system in pending.items() if not isinstance(system, Exception)}
    for (key, system), got in zip(systems.items(), _solve_systems(list(systems.values())) if systems else ()):
        if isinstance(got, Exception):
            pending[key] = got
        else:  # the solve of a real system: its amplitudes and traces are real
            cache[key] = _UnitLayer(got[0].real, got[3].real)
    return [cache.get(key) or pending[key] for key in keys]


_unit_layers.cache = {}  # (float lambda, float mu, n, family) -> its _UnitLayer


def sector_conditions(medium: LayeredMedium, n: int, q: float) -> dict[int, float]:
    """Condition number of each family's degree-n square sector system, read from its solve capped at 0 (whose
    refusal carries it); an error is raised.  At a plasmon constant the loss-free system is singular."""
    bounds, weights = _region_layout(medium, q)
    systems = [(bounds, weights, _radial_profile(medium.base, n, fam), "interface system", 0.0) for fam in (1, 2, 3)]
    return {fam: got.condition if isinstance(got, ResonantSingularityError) else _ok(got)[1]
            for fam, got in zip((1, 2, 3), _solve_systems(systems))}


def _solve_column(items) -> list:
    """Solve (medium, source, degree) items as one column: per item its :class:`ModeSolution` or its error.

    Every item's sector systems are gathered first, and systems of equal
    layout, profile and singularity cap are solved once
    (:func:`_solve_systems`).  An item's error is the one :func:`solve_mode`
    raises for it: the first, in solve order, of its checks, assembly and
    solves.
    """
    systems: list = []
    index: dict = {}  # per (medium, q, n, family) the index of its system in ``systems``
    parts = []
    for medium, source, n in items:
        params, at, slots, error, radii = medium.base, (medium, source.q), [], None, None
        try:
            if n < 2:
                raise ValueError("solve_mode needs n >= 2")
            bounds, weights = _region_layout(*at)
            cap, radii = 1e9 if medium.delta == 0.0 else math.inf, (0.0, *bounds, math.inf)
            for fam, gam in sorted((source.family_gammas(n) or {1: {}}).items()):
                # a family with a density passes its sector's kernel check, which keeps the profile
                prof = _wave_amplitudes(params, n, fam).profile if gam else _radial_profile(params, n, fam)
                key = (*at, n, fam)
                if key not in index:
                    index[key] = len(systems)
                    systems.append((bounds, weights, prof, f"family-{fam} system at degree {n}", cap))
                slots.append((fam, tuple(gam.items()), prof, index[key]))
        except Exception as exc:  # raised when the item's solution is read, after its earlier solves' errors
            error = _kept(exc)
        parts.append((n, params, radii, slots, error))
    solved = _solve_systems(systems)
    out: list = []
    for n, params, radii, slots, error in parts:
        got = [solved[i] for *_, i in slots]
        error = next((g for g in got if isinstance(g, Exception)), error)
        out.append(error if error is not None else ModeSolution(
            n, max([g[1] for g in got]), max([g[2] for g in got]), radii,
            tuple((fam, gam, prof, g[0], g[3]) for (fam, gam, prof, _), g in zip(slots, got)), params))
    return out


def solve_mode(medium: LayeredMedium, source: SourceSpec, n: int) -> ModeSolution:
    """Exact transmission solve for the degree-n part of the source: a column of one (:func:`_solve_column`).

    Each family's part of the density is solved in its sector by one square
    scalar system for a unit density; the parts superpose with their
    coefficients.  No kernel matrix or ladder degree is built.  Raises
    :class:`SectorCheckError` where a family's perfect wave fails
    :func:`_wave_amplitudes`' check, :class:`ResonantSingularityError` when
    a loss-free medium makes one of the source's family systems of
    equilibrated condition above 1e9, :class:`UnconvergedSolveError` when a backward error exceeds 1e-10, and
    ``ValueError`` unless n >= 2 and q > shell_radius (the source's modes
    were checked when it was built).
    """
    return _ok(_solve_column([(medium, source, n)])[0])


def solve_modes(medium: LayeredMedium, source: SourceSpec) -> list[ModeSolution]:
    """Solve every degree present in the source, as one column; the first degree's error is raised."""
    return [_ok(sol) for sol in _solve_column([(medium, source, n) for n in source.degrees()])]


__getattr__ = _served_from_fields(globals(), "kernel_basis residual_check")
