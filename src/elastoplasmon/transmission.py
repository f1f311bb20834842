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
sector's closed-form *radial profile*), so the interface conditions
(displacement continuity, weighted-traction continuity and the prescribed
traction jump across the source sphere) form a square scalar system per
family for a unit density: two unknowns per region and rows per interface
for family 1, four for families 2 and 3.  It is solved by LU refined in
extended precision (:func:`_square_solve`), and the families' parts
superpose with the source coefficients (:class:`ModeSolution`).  The
source-mode index k picks a member of the family's sector
(:func:`~elastoplasmon.fields.kernel_basis`) and enters no system, so no
member matrix is built until :mod:`~elastoplasmon.fields` builds a
solution's field.  Each solved family passes a scalar sector check, run
once per key: its perfect wave in profile blocks (:func:`_wave_amplitudes`)
must match at the plasmon constant.

The unit of work is a column of (medium, source, degree) items
(:func:`_solve_column`; a sweep's lossy and loss-free rows are one, and
:func:`solve_mode` is a column of one): equal systems are solved once, and
those of one shape are one stacked assembly and solve, each system's result
bit for bit its solve alone.  One helper (:func:`_column`) groups the rows
of the sector systems, energies and witnesses by shape, stacks them and
gives a row that raises its own error; traces of profile fields on spheres
(:func:`_traces`) and the powers of the radii (:func:`_pows`, Python's own
``pow``) serve them alike.  A loss-free medium (delta = 0) is solved only
where every solved system's equilibrated 1-norm condition is at most 1e9 (for a
source outside family 1, the systems of all three families at its degree);
above it :class:`ResonantSingularityError` (an ``ArithmeticError`` that
carries the condition) is raised, and a solve capped at 0 reads the
conditions (:func:`sector_conditions`).  The witnesses and the
Neumann-Poincare spectrum also read the single layer on a sphere, solved on
the unit sphere and scaled (:func:`_single_layers`).  Kept once per process
per (float lambda, float mu, n[, family, R]) key: the radial profiles, the
sector checks and the unit single layers.  A source sphere that is not
outside the shell, a family other than 1, 2, 3 or an index k outside
1..2J+1 raises ``ValueError``.  No function here reads a gradient ladder.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from functools import cached_property
from typing import TYPE_CHECKING

import numpy as np

from .lame import (LameParams, SectorCheckError, _key, _once_per_key, _served_from_fields, mode_constants,
                   plasmon_constants)

if TYPE_CHECKING:
    from .fields import ModeField

__all__ = [
    "LayeredMedium", "SourceSpec", "ModeSolution", "ResonantSingularityError", "UnconvergedSolveError",
    "solve_mode", "solve_modes", "sector_conditions",
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


@dataclass(frozen=True)
class LayeredMedium:
    """Core | shell | matrix geometry with shell multiplier c and loss delta."""

    shell_radius: float
    c: float
    delta: float
    base: LameParams
    core_radius: float | None = None

    def __post_init__(self):
        if self.core_radius is not None and not (0 < self.core_radius < self.shell_radius):
            raise ValueError("need 0 < core_radius < shell_radius")
        if not (math.isfinite(self.c) and math.isfinite(self.delta)):
            raise ValueError("shell multiplier c and loss delta must be finite")
        if self.delta < 0:
            raise ValueError("loss delta must be nonnegative")

    def weight(self, r: float) -> complex:
        """A(r) + i delta."""
        a = self.c if (self.core_radius or 0.0) < r < self.shell_radius else 1.0
        return a + 1j * self.delta


def _check_source_mode(n: int, family: int, k: int) -> None:
    """ValueError unless the family is 1, 2 or 3 and 1 <= k <= 2J + 1 (J = n, n - 1, n + 1)."""
    if family not in (1, 2, 3):
        raise ValueError(f"source mode family {family} is not 1, 2 or 3")
    dim = 2 * (n, n - 1, n + 1)[family - 1] + 1
    if not 1 <= k <= dim:
        raise ValueError(f"source mode index k = {k} outside 1..{dim} (family {family}, degree {n})")


@dataclass(frozen=True)
class SourceSpec:
    """Surface force density on partial B_q expanded in kernel matrices.

    ``coefficients[(n, family, k)]`` multiplies kernel k of the family at
    degree n (:func:`~elastoplasmon.fields.kernel_basis`: by descending
    order |M| of the sector's total angular momentum J, k = 2J + 1 being
    M = 0).  Every rotation-invariant output of a solve from one such mode
    (``E_delta``, ``I_upper``, ``J_lower``, the verdict) is the same for every k.
    """

    q: float
    coefficients: dict  # (n, family, k) -> complex gamma

    def degrees(self) -> list[int]:
        return sorted({n for (n, _, _) in self.coefficients})

    def family_gammas(self, n: int) -> dict[int, dict[int, complex]]:
        """Degree-n coefficients split by family, {family: {k: gamma}}, each mode checked
        (:func:`_check_source_mode`); no kernel matrix is built."""
        out: dict[int, dict[int, complex]] = {}
        for (nn, fam, k), g in self.coefficients.items():
            if nn == n and g != 0:
                _check_source_mode(n, fam, k)
                out.setdefault(fam, {})[k] = g
        return out

    def density_matrix(self, n: int, params: LameParams) -> np.ndarray:
        """Coefficient matrix of the degree-n part of the density: the sum of each family's sum of g K."""
        from .fields import _family_density

        return sum((_family_density(params, n, fam, gam.items()) for fam, gam in self.family_gammas(n).items()),
                   np.zeros((3, 2 * n + 1), dtype=complex))


@dataclass(frozen=True, eq=False)
class ModeSolution:
    """Exact solve of one degree: the scalar amplitudes of each family's sector system.

    ``sectors`` holds one ``(family, ((k, gamma), ...), profile, amplitudes)``
    entry per solved family: the block amplitudes of the unit-density
    system, one row per region (:func:`_region_blocks`; a row of the stacked
    solution of its column), the density being sum gamma_k times member k.
    ``radii`` are the region bounds from 0 to inf and ``window`` the degrees
    of the solution's terms.  ``regions`` is the piecewise field; its terms
    need the member matrices and the process-wide ladders, so
    :mod:`~elastoplasmon.fields` builds it when first read.
    ``lstsq_residual`` is the largest backward error.
    """

    n: int
    condition: float
    lstsq_residual: float
    window: tuple[int, ...]
    radii: tuple[float, ...]
    sectors: tuple
    params: LameParams

    @cached_property
    def regions(self) -> tuple[ModeField, ...]:
        """One :class:`~elastoplasmon.fields.ModeField` per region, built when first read
        (:func:`~elastoplasmon.fields._solution_regions`)."""
        from .fields import _solution_regions

        return _solution_regions(self)


def _region_layout(medium: LayeredMedium, q: float) -> tuple[list[float], list[complex]]:
    if not q > medium.shell_radius:
        raise ValueError(f"source sphere q = {q} must lie outside the shell (radius {medium.shell_radius})")
    bounds = ([medium.core_radius] if medium.core_radius else []) + [medium.shell_radius, q]
    radii = [0.0] + bounds + [math.inf]
    weights = [
        medium.weight(0.5 * (lo + hi) if math.isfinite(hi) else 2.0 * lo)
        for lo, hi in zip(radii[:-1], radii[1:])
    ]
    return bounds, weights


def _norms(v: np.ndarray) -> np.ndarray:
    """``np.linalg.norm`` of each complex vector of a stack, in its own operations: sqrt(re . re + im . im).

    ``np.vecdot`` takes each real dot to the BLAS dot of ``ndarray.dot``, so
    every norm has the bits of the public call."""
    return np.sqrt(np.vecdot(v.real, v.real) + np.vecdot(v.imag, v.imag))


def _square_solve(M: np.ndarray, b: np.ndarray, what: list[str], max_condition: list[float]) -> list:
    """Solve a stack of square interface systems: per system (x, condition, backward error) or its error.

    ``M`` is (k, m, m) and ``b`` (k, m); ``what`` (the name in the messages)
    and ``max_condition`` hold one entry per system.  Rows, then columns,
    are scaled to a largest entry of 1; the condition number is the exact
    1-norm one of the scaled matrix (inf for a singular LU), and above
    ``max_condition`` the system is refused as singular
    (:class:`ResonantSingularityError`, which carries the condition).  The
    scaled system, its right side times the power of two that brings it to
    unit size (exact, so the norms stay in range in any unit of the moduli),
    is solved by LU and refined from residuals of the double system formed
    in ``np.clongdouble``, at most 4 steps, until a correction falls below
    eps |x| or no longer shrinks to half the previous one, which is then not
    applied (Higham, *Accuracy and Stability of Numerical Algorithms*, 2nd
    ed., ch. 12): accurate to working precision while condition x eps < 1.
    A normwise backward error of the scaled system (its norm bounded by the
    largest row 2-norm) not at most 1e-10 is :class:`UnconvergedSolveError`.

    The stack goes through one ``np.linalg.cond(A, 1)`` and per step one
    ``np.linalg.solve`` and one :func:`_norms` of the stacked vectors; each
    operation acts on each system alone, so each result is bit for bit the
    public-call solve of its system alone.  Scaled entries out of the float
    range (``ArithmeticError``) and an exactly singular LU (numpy's
    ``LinAlgError``, led by the first system's ``what``) are raised for the
    whole stack, whose systems the :func:`_column` of :func:`_solve_systems`
    then solves one at a time.
    """
    with np.errstate(over="ignore", invalid="ignore"):  # 1 / a subnormal scale overflows: refused below
        rows = np.abs(M).max(axis=2)
        rows[rows == 0] = 1.0
        A = M / rows[:, :, None]
        cols = np.abs(A).max(axis=1)
        cols[cols == 0] = 1.0
        A /= cols[:, None, :]
    finite = np.isfinite(A).all(axis=(1, 2)).tolist()
    if not all(finite):
        raise ArithmeticError(f"{what[finite.index(False)]}: equilibrated entries out of the float range")
    cond = np.linalg.cond(A, 1).tolist()
    out: list = [ResonantSingularityError(f"loss-free {w} singular (condition {c:.3e})", condition=c)
                 if c > cap else None for w, c, cap in zip(what, cond, max_condition)]
    live = [i for i, got in enumerate(out) if got is None]
    if not live:
        return out
    k = len(live)
    if k < len(out):
        M, b, A, rows, cols = (a[live] for a in (M, b, A, rows, cols))
    try:
        rhs = b / rows
        scale = np.ldexp(1.0, -np.frexp(np.abs(rhs).max(axis=1))[1])[:, None]
        rhs *= scale
        M_ext, b_ext = M.astype(np.clongdouble), b.astype(np.clongdouble) * scale

        def residual(x):  # of the double system, formed in extended precision, rows scaled
            return (b_ext - (M_ext @ x[:, :, None])[:, :, 0]).astype(complex) / rows

        with np.errstate(all="ignore"):  # a correction out of range fails the backward-error gate
            x = np.linalg.solve(A, rhs[..., None])[..., 0] / cols
            last, refining = [math.inf] * k, range(k)
            for _ in range(4):
                dx = np.linalg.solve(A, residual(x)[..., None])[..., 0] / cols
                ahead = x + dx
                norms = _norms(np.concatenate((dx, ahead))).tolist()  # |dx|, then |x + dx|
                take = [j for j in refining if not norms[j] > 0.5 * last[j]]
                if not take:
                    break
                x[take] = ahead[take]
                for j in take:
                    last[j] = norms[j]
                refining = [j for j in take if not norms[j] <= 2.0**-52 * norms[k + j]]  # eps
                if not refining:
                    break
            resid = _norms(residual(x)).tolist()
            sizes = _norms(np.concatenate((x * cols, rhs)))  # |x cols|, then |rhs|
    except np.linalg.LinAlgError as exc:
        raise np.linalg.LinAlgError(f"{what[0]}: {exc}") from None
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
        raise outcome
    return outcome


def _column(n: int, check, values, key=None) -> list:
    """Per row of a column of ``n`` its value or its error; the one place a stack is taken apart row by row.

    ``check(i)`` returns row i's state or raises; the rows that pass are one
    stack per ``key(state)``, ``values(idx, states)`` giving one value (or
    error) per row.  Where a stack raises an ``ArithmeticError`` or
    ``LinAlgError``, its rows go one at a time, so only the row that raises
    gets the error (a system singular alone in :func:`_solve_systems`)."""
    out: list = []
    for i in range(n):
        try:
            out.append(check(i))
        except Exception as exc:
            out.append(exc)
    groups: dict = {}
    for i, state in enumerate(out):
        if not isinstance(state, Exception):
            groups.setdefault(None if key is None else key(state), []).append(i)
    for idx in groups.values():
        states = [out[i] for i in idx]
        try:
            got = values(idx, states)
        except (ArithmeticError, np.linalg.LinAlgError):
            got = []
            for i, state in zip(idx, states):
                try:
                    got += values([i], [state])
                except (ArithmeticError, np.linalg.LinAlgError) as exc:
                    got.append(exc)
        for i, value in zip(idx, got):
            out[i] = value
    return out


@dataclass(frozen=True, eq=False)
class _RadialProfile:
    """Scalar radial data of one sector at degree n, its blocks as arrays in one block order.

    ``degrees`` are n alone (family 1) or n and the partner degree n-2 or
    n+2 (families 2, 3), whose reference matrices are a density G and its
    ladder shape (:func:`~elastoplasmon.fields._ladder`).  The blocks are
    ``entire`` on each degree, then ``decay`` on each degree (the order of a
    region's unknowns, :func:`_region_blocks`).  On the sphere rho block b's displacement and
    traction are ``disp[b, j]`` rho^p and ``trac[b, j]`` rho^(p-1) times the
    reference matrix of degree ``degrees[j]``, p = ``power[b]`` (zero where
    the block has no part on that degree).  The ladder back from the partner
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
    power: tuple[int, ...]  # Python ints, so that rho ** p is Python's float power
    scalars: np.ndarray  # (2D, 2, D)
    coords: np.ndarray  # (D,)
    kappa: float | None

    @property
    def disp(self) -> np.ndarray:
        return self.scalars[:, 0]

    @property
    def trac(self) -> np.ndarray:
        return self.scalars[:, 1]


def _profile_from_blocks(degrees: tuple[int, ...], blocks: dict, kappa: float | None) -> _RadialProfile:
    """A :class:`_RadialProfile` from {(kind, degree): (power, {degree: displacement}, {degree: traction})}."""
    order = [blocks[(kind, d)] for kind in ("entire", "decay") for d in degrees]
    scalars = np.array([[[part[i].get(d, 0.0) for d in degrees] for i in (1, 2)] for part in order])
    n = degrees[0]
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
        return _profile_from_blocks((n,), {("entire", n): (n, {n: 1.0}, {n: mu * (n - 1.0)}),
                                           ("decay", n): (-n - 1, {n: 1.0}, {n: -mu * (n + 2.0)})}, None)
    if n == 1 and fam == 2:  # J = 0: x and x / r^3
        return _profile_from_blocks((1,), {("entire", 1): (1, {1: 1.0}, {1: 3.0 * lam + 2.0 * mu}),
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
    return _profile_from_blocks((n, lo if fam == 2 else hi), blocks, kappa)


def _region_blocks(reg: int, nreg: int, D: int) -> slice:
    """The blocks region ``reg`` of ``nreg`` holds: entire in the ball, decaying outside, both in between."""
    return slice(D if reg == nreg - 1 else 0, D if reg == 0 else 2 * D)


def _pows(rho, powers) -> np.ndarray:
    """rho^p and rho^(p-1) for every power p of ``powers[i]`` on every radius of ``rho[i]``: (k, S, B, 2).

    Each is Python's float power, the C library's pow, as every scalar of the
    package is formed (numpy's vectorized pow may differ in the last bit);
    ``OverflowError`` naming the first radius and power that overflow."""
    flat_r = [r for rs, ps in zip(rho, powers) for r in rs for _ in ps for _ in (0, 1)]
    flat_p = [e for rs, ps in zip(rho, powers) for _ in rs for p in ps for e in (p, p - 1)]
    try:
        values = list(map(pow, flat_r, flat_p))
    except OverflowError as exc:  # named: the first power that overflows
        for r, p in zip(flat_r, flat_p):
            try:
                pow(r, p)
            except OverflowError:
                raise OverflowError(f"rho^{p} at rho = {r} overflows the float range") from exc
        raise
    return np.array(values).reshape(len(rho), -1, len(powers[0]), 2)


def _profile_stack(profs) -> tuple[list, np.ndarray, np.ndarray]:
    """The stacked arrays of profiles of one shape: (powers, scalars (k, B, 2, D), coords (k, D))."""
    return ([prof.power for prof in profs], np.array([prof.scalars for prof in profs]),
            np.array([prof.coords for prof in profs]))


def _traces(stack, amps: np.ndarray, rho, blocks: slice) -> tuple[np.ndarray, np.ndarray]:
    """Displacement and traction scalars per degree, (k, D) each, of k profile fields on the spheres ``rho``.

    Row i is the field of block amplitudes ``amps[i]`` (B,) of the i-th
    profile of ``stack`` (:func:`_profile_stack`); the ``blocks`` are summed
    in block order, each amplitude times scalar times rho^p (traction
    rho^(p-1)), the traction that of the base moduli.
    """
    power, scalars, _ = stack
    pw = _pows([[r] for r in rho], [p[blocks] for p in power])[:, 0, :, :, None]
    with np.errstate(over="ignore", invalid="ignore"):  # as Python's arithmetic: out of range is inf
        ut = ((amps[:, blocks, None, None] * scalars[:, blocks]) * pw).sum(axis=1)
    return ut[:, 0], ut[:, 1]


@_once_per_key
def _wave_amplitudes(params: LameParams, n: int, fam: int, R: float) -> tuple[_RadialProfile, np.ndarray, float]:
    """The perfect wave of a unit sector member in profile blocks: (profile, amplitudes, c).

    The amplitudes are those of the regions inside and outside R (rows 0
    and 1, :func:`_region_blocks`): ``entire n`` inside and R^(2n+1)
    ``decay n`` outside, plus M_n R^2 ``entire n-2`` inside for family 2
    and -k_n R^(2n+3) ``decay n+2`` outside for family 3
    (:func:`~elastoplasmon.waves.perfect_wave` builds its fields from
    them); an amplitude out of the normal float range raises
    ``ArithmeticError`` naming R.  The amplitudes are the sector's kernel check: at
    R the displacements must agree and the traction inside times the
    family's plasmon constant c must equal the one outside, each to 1e-9 of
    the largest, else :class:`SectorCheckError`.  The check runs once per
    process per (lambda, mu, n, family, R); R is taken as a float.
    """
    R = float(R)
    prof = _radial_profile(params, n, fam)
    try:
        outer_scale, R2 = R ** (2 * n + 1), R**2
    except OverflowError:  # the amplitudes are then not finite
        outer_scale = R2 = math.inf
    D = len(prof.degrees)
    inner, outer = [(0, 1.0)], [(D, outer_scale)]  # (block, amplitude): entire n inside, decay n outside
    if fam == 2:
        inner.append((prof.degrees.index(n - 2), mode_constants(params, n).M_n * R2))
    elif fam == 3:
        outer.append((D + prof.degrees.index(n + 2), -mode_constants(params, n).k_n * outer_scale * R2))
    sizes = [abs(a) for _, a in inner + outer]
    if not sys.float_info.min <= min(sizes) <= max(sizes) < math.inf:
        side = "overflow" if max(sizes) == math.inf else "underflow"
        raise ArithmeticError(f"perfect-wave amplitudes at R = {R} {side} (degree {n}, family {fam})")
    amps = np.zeros((2, 2 * D), dtype=complex)
    for reg, entries in enumerate((inner, outer)):
        for b, a in entries:
            amps[reg, b] = a
    c = plasmon_constants(params, n).as_tuple()[fam - 1]
    (u_in, t_in), (u_out, t_out) = (_traces(_profile_stack([prof]), amps[None, reg], [R], _region_blocks(reg, 2, D))
                                    for reg in (0, 1))
    for what, inside, outside in (("continuity", u_in[0], u_out[0]), ("transmission", c * t_in[0], t_out[0])):
        scale = float(np.max(np.abs(np.concatenate((inside, outside)))))
        defect = float(np.max(np.abs(inside - outside)))
        if not defect <= 1e-9 * scale:
            raise SectorCheckError(f"family {fam} sector at degree {n} is not a kernel at c={c} "
                                   f"({what} defect {defect / scale:.3e})")
    return prof, amps, c


def _sector_matrices(bounds: list, weights: list, profs: list, pw: np.ndarray):
    """Square systems of one shape for a unit density, stacked: (matrices (k, m, m), right sides (k, m)).

    System i is that of the sector of ``profs[i]`` on the interfaces
    ``bounds[i]`` with region weights ``weights[i]``, ``pw[i]`` (nb, B, 2)
    the powers rho^p and rho^(p-1) of its blocks on its interfaces
    (:func:`_pows`).  The unknowns are the amplitudes of the blocks region by
    region (:func:`_region_blocks`).  Each interface has a displacement and
    a weighted traction row per degree of the sector (inner minus outer);
    the density enters as the traction jump at the last one."""
    k, nb = len(profs), len(bounds[0])
    D = len(profs[0].degrees)
    B = 2 * D
    at = np.arange(nb)
    full = np.zeros((k, nb, B, nb + 1, B), dtype=complex)  # (system, interface, row, region, block)
    with np.errstate(over="ignore", invalid="ignore"):  # as Python's arithmetic: out of range is inf
        # displacement rows: scalar x rho^p; traction rows: (weight x scalar) x rho^(p-1), the region inside first
        scalars = np.array([prof.scalars.transpose(1, 2, 0) for prof in profs])  # (k, 2, D, B)
        disp = (scalars[:, None, 0] * pw[:, :, None, :, 0]).transpose(1, 0, 2, 3)
        trac = np.array(weights, dtype=complex)[:, :, None, None] * scalars[:, None, 1]
        full[:, at, :D, at], full[:, at, :D, at + 1] = disp, -disp
        full[:, at, D:, at] = (trac[:, :-1] * pw[:, :, None, :, 1]).transpose(1, 0, 2, 3)
        full[:, at, D:, at + 1] = -(trac[:, 1:] * pw[:, :, None, :, 1]).transpose(1, 0, 2, 3)
    cols = [reg * B + b for reg in range(nb + 1) for b in range(B)[_region_blocks(reg, nb + 1, D)]]
    M = full.reshape(k, nb * B, (nb + 1) * B)[:, :, cols]
    rhs = np.zeros((k, nb * B), dtype=complex)
    rhs[:, -D] = -1.0  # weighted traction jump (outer - inner) = density on the last sphere, degree n
    return M, rhs, cols


def _solve_systems(systems: list) -> list:
    """Outcomes of (bounds, weights, profile, what, max_condition) sector systems, in order.

    Per system (amplitudes (nb + 1, B) by region, condition, backward error)
    or its error: the error of its powers (an ``OverflowError``) or of its
    solve (:func:`_square_solve`).  The systems are a :func:`_column`, the
    one place a stack of them goes system by system: those of one shape
    (interfaces and degrees) go through one stacked assembly and solve, each
    system's amplitudes a row of the stacked solution in the full block
    layout, zero for a region's absent blocks."""
    def values(idx, states):
        bounds, weights, profs, what, cap = zip(*states)
        nb, D = len(bounds[0]), len(profs[0].degrees)
        pw = _pows(bounds, [prof.power for prof in profs])  # rho^p and rho^(p-1) of every block on every interface
        M, b, cols = _sector_matrices(bounds, weights, profs, pw)
        got = _square_solve(M, b, list(what), list(cap))
        amps = np.zeros((len(idx), (nb + 1) * 2 * D), dtype=complex)
        solved = [j for j, g in enumerate(got) if not isinstance(g, Exception)]
        if solved:
            amps[np.array(solved)[:, None], cols] = np.array([got[j][0] for j in solved])
        amps = amps.reshape(len(idx), nb + 1, 2 * D)
        return [g if isinstance(g, Exception) else (amps[j], g[1], g[2]) for j, g in enumerate(got)]
    return _column(len(systems), systems.__getitem__, values, key=lambda s: (len(s[0]), len(s[2].degrees)))


def _single_layers(items) -> np.ndarray:
    """Single layers of (params, degree, family, sphere rho, density) items of one profile shape: (k, 2, B) amplitudes.

    Item i is the profile field on the radii (0, rho, inf), continuous
    across rho, whose traction (outside minus inside) jumps there by
    ``density`` times the degree-n shape: the unit-sphere layer (one square
    system with one interface, for a unit density) with each block of power
    p times density rho^(1-p).  The unit layers are kept per key in
    ``_single_layers.cache``; those missing are solved as one stack
    (:func:`_solve_systems`), and the first item whose profile or solve
    fails raises that error.  ``ArithmeticError`` naming rho for the first
    item where a power rho^(1-p) leaves the normal float range."""
    cache = _single_layers.cache
    keys = [_key(params, n, fam) for params, n, fam, _, _ in items]
    pending = {}  # per missing key its unit system, or the error of its profile
    for key, (params, n, fam, _, _) in zip(keys, items):
        if key not in cache and key not in pending:
            try:
                pending[key] = ([1.0], [1.0, 1.0], _radial_profile(params, n, fam),
                                f"degree-{n} family-{fam} single layer", math.inf)
            except (ArithmeticError, ValueError) as exc:
                pending[key] = exc
    systems = {key: system for key, system in pending.items() if not isinstance(system, Exception)}
    for (key, system), got in zip(systems.items(), _solve_systems(list(systems.values()))):
        if isinstance(got, Exception):
            pending[key] = got
        else:
            cache[key] = (system[2], got[0].real)  # the solve of a real system: its amplitudes are real
    units = [cache.get(key) or _ok(pending[key]) for key in keys]
    scales = []
    for (prof, _), (_, n, fam, rho, _) in zip(units, items):
        rho = float(rho)
        try:
            scale = [rho ** (1 - p) for p in prof.power]
        except OverflowError:
            scale = [math.inf]
        if not all(sys.float_info.min <= s < math.inf for s in scale):
            raise ArithmeticError(f"single layer on the sphere rho = {rho}: a power of rho leaves the float range "
                                  f"(degree {n}, family {fam})")
        scales.append(scale)
    with np.errstate(over="ignore", invalid="ignore"):  # as Python's arithmetic: out of range is inf
        return (np.array([density for *_, density in items], dtype=complex)[:, None, None]
                * np.array([unit for _, unit in units])) * np.array(scales)[:, None, :]


_single_layers.cache = {}  # (float lambda, float mu, n, family) -> (profile, unit-sphere amplitudes (2, B))


def sector_conditions(medium: LayeredMedium, n: int, q: float) -> dict[int, float]:
    """Condition number of each family's degree-n square sector system.

    Each system is solved capped at 0 (:func:`_solve_systems`), so it is
    refused and the refusal carries its (1-norm) condition; an error is
    raised.  A loss-free medium at a plasmon constant makes the matching
    family's system singular.
    """
    bounds, weights = _region_layout(medium, q)
    systems = [(bounds, weights, _radial_profile(medium.base, n, fam), "interface system", 0.0) for fam in (1, 2, 3)]
    return {fam: got.condition if isinstance(got, ResonantSingularityError) else _ok(got)[1]
            for fam, got in zip((1, 2, 3), _solve_systems(systems))}


def _solve_column(items) -> list:
    """Solve (medium, source, degree) items as one column: per item its :class:`ModeSolution` or its error.

    Every item's sector systems are gathered first, and systems of equal
    layout, profile and singularity cap are solved once
    (:func:`_solve_systems`: one stacked assembly and :func:`_square_solve`
    per shape); each solution's sectors hold rows of the stacked solution.
    A loss-free item with a source outside family 1 adds the capped systems
    of all three families at its degree, and its resonance check reads
    their outcomes (:func:`_resonance`).  An item's error is the one
    :func:`solve_mode` raises for it: the first, in solve order, of its
    checks, assembly and solves.
    """
    systems: list = []
    index: dict = {}
    parts = []

    def slot(layout, params, n, fam, prof, cap) -> int:  # the index of the family's system in the column, added once
        key = (tuple(layout[0]), tuple(layout[1]), params, n, fam, cap)
        if key not in index:
            index[key] = len(systems)
            systems.append((*layout, prof, f"family-{fam} system at degree {n}", cap))
        return index[key]

    for medium, source, n in items:
        params, bounds, checks, slots, error = medium.base, [], [], [], None
        try:
            if n < 2:
                raise ValueError("solve_mode needs n >= 2")
            gammas = source.family_gammas(n) or {1: {}}
            cap = 1e9 if medium.delta == 0.0 else math.inf
            layout = _region_layout(medium, source.q)
            bounds = layout[0]
            if medium.delta == 0.0 and set(gammas) != {1}:
                checks = [slot(layout, params, n, fam, _radial_profile(params, n, fam), cap)  # all three, capped
                          for fam in (1, 2, 3)]
            for fam, gam in sorted(gammas.items()):
                if gam:
                    _wave_amplitudes(params, n, fam, medium.shell_radius)  # the sector's kernel check
                prof = _radial_profile(params, n, fam)
                slots.append((fam, tuple(gam.items()), prof, slot(layout, params, n, fam, prof, cap)))
        except Exception as exc:  # raised when the item's solution is read, after its earlier solves' errors
            error = exc
        parts.append((n, params, (0.0, *bounds, math.inf), checks, slots, error))
    solved = _solve_systems(systems)
    out: list = []
    for n, params, radii, checks, slots, error in parts:
        got = [solved[i] for *_, i in slots]
        error = next((g for g in got if isinstance(g, Exception)), error)
        if checks:  # a loss-free source outside family 1: its resonance check comes first
            error = _resonance(n, [solved[i] for i in checks]) or error
        if error is not None:
            out.append(error)
            continue
        sectors = tuple((fam, gam, prof, amps) for (fam, gam, prof, _), (amps, _, _) in zip(slots, got))
        out.append(ModeSolution(n=n, condition=max(c for _, c, _ in got), lstsq_residual=max(e for _, _, e in got),
                                window=tuple(sorted({d for _, _, prof, _ in sectors for d in prof.degrees})),
                                radii=radii, sectors=sectors, params=params))
    return out


def _resonance(n: int, outcomes: list) -> Exception | None:
    """The resonance check's error at degree n from the outcomes of every family's capped system, or None: the
    first error raised before a condition is known, else one :class:`ResonantSingularityError` with the largest
    condition of those refused (a system that passed the cap but did not converge is not the check's)."""
    for got in outcomes:
        if isinstance(got, Exception) and not isinstance(got, (ResonantSingularityError, UnconvergedSolveError)):
            return got
    cond = max((got.condition for got in outcomes if isinstance(got, ResonantSingularityError)), default=None)
    return None if cond is None else ResonantSingularityError(
        f"loss-free interface system singular at degree {n} (condition {cond:.3e})", condition=cond)


def solve_mode(medium: LayeredMedium, source: SourceSpec, n: int) -> ModeSolution:
    """Exact transmission solve for the degree-n part of the source: a column of one (:func:`_solve_column`).

    Each family's part of the density is solved in its sector by one square
    scalar system for a unit density (:func:`sector_conditions` gives their
    conditions); the parts superpose with their coefficients.  No kernel
    matrix or ladder degree is built: the solution's ``regions`` are,
    when read.  Each family's perfect wave must pass :func:`_wave_amplitudes`'
    check at its plasmon constant, else :class:`SectorCheckError`.  Raises
    :class:`ResonantSingularityError` when a loss-free medium makes a solved
    system singular, that is of equilibrated condition above 1e9 (for a
    source outside family 1: any family's system), and
    :class:`UnconvergedSolveError` when a backward error exceeds 1e-10, and
    ``ValueError`` unless q > shell_radius and every source mode names a
    family 1..3 and a member k in 1..2J+1.
    """
    return _ok(_solve_column([(medium, source, n)])[0])


def solve_modes(medium: LayeredMedium, source: SourceSpec) -> list[ModeSolution]:
    """Solve every degree present in the source, as one column; the first degree's error is raised."""
    return [_ok(sol) for sol in _solve_column([(medium, source, n) for n in source.degrees()])]


__getattr__ = _served_from_fields(globals(), "kernel_basis residual_check")
