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
sector's *radial profile*, in closed form from
:func:`~elastoplasmon.lame.mode_constants`; a solve runs no traction
algebra), so the interface conditions (displacement continuity,
weighted-traction continuity and the prescribed traction jump across the
source sphere) form a square scalar system: two unknowns per region and
rows per interface for family 1, four for families 2 and 3.
Each family's part of a density is solved in its sector, by LU refined in
extended precision, and the parts are superposed.  The unit of work is a
column of (medium, source, degree) items (:func:`_solve_column`; a sweep's
lossy rows are one, and :func:`solve_mode` is a column of one): every
item's systems are assembled first, equal systems are solved once, and the
systems of one shape go through one stacked :func:`_square_solve`, each
system's result bit for bit its solve alone.  A loss-free medium
(delta = 0) is solved only where every solved system's equilibrated
condition is at most 1e9; above it :class:`ResonantSingularityError` (an
``ArithmeticError``) is raised.  The fixed-multiplier primal witness of
:mod:`~elastoplasmon.scenarios` is such a loss-free solve; the other
witnesses and the Neumann-Poincare spectrum read the one-interface system,
the single layer on a sphere, solved on the unit sphere and scaled
(:func:`_single_layer`).  Kept once per process per (float lambda, float
mu, n[, family, R]) key: the radial profiles, the sector checks, the unit
single layers and the kernel bases.

Sources are expanded in the kernel basis of each degree, which is each
family's sector itself, built in closed form (:func:`kernel_basis`).  The
source-mode index k picks one member of that basis (ordered by descending
|M| as in :func:`~elastoplasmon.waves.sector_kernels`); the sector systems
do not depend on the member, so a solve is scalar: one unit-density system
per family, its amplitudes kept with the source coefficients
(:class:`ModeSolution`), and no member matrix is built until a caller reads
the solution's fields.  The dissipation, the bounds and the verdicts of a
unit source do not depend on k.  Instead of the matching map applied to the
members, each solved family passes a scalar sector check, run once per key:
its perfect wave in profile blocks (:func:`_wave_amplitudes`) must match at
the plasmon constant.  A source sphere that is not outside the shell, a
family other than 1, 2, 3 or an index k outside 1..2J+1 raises ``ValueError``.

Where a field is formed (the kernels, a solution's regions, the residual
check), the gradient ladders are read by degree from the one process-wide
store of :mod:`~elastoplasmon.harmonics` (``lower[n]``, ``raise_[n]``); no
function here takes, sizes or passes a derivative table.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from functools import cached_property

import numpy as np
from numpy.linalg._umath_linalg import solve1 as _lu_solve

from .lame import (
    LameParams,
    ModeField,
    SectorCheckError,
    Term,
    _k0,
    _once_per_key,
    mode_constants,
    plasmon_constants,
    t1_vector,
    t3_vector,
    trace_jumps,
)

__all__ = [
    "LayeredMedium",
    "SourceSpec",
    "ModeSolution",
    "ResonantSingularityError",
    "UnconvergedSolveError",
    "kernel_basis",
    "solve_mode",
    "solve_modes",
    "residual_check",
    "sector_conditions",
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


@_once_per_key
def kernel_basis(params: LameParams, n: int, family: int) -> list[np.ndarray]:
    """Self-conjugate orthonormal kernel matrices of one family at degree n.

    The kernel is the family's whole angular-momentum sector, built in
    closed form (:func:`~elastoplasmon.waves.sector_kernels`), so families
    stay pure where two plasmon constants coincide.  Kernels 2(J - M) + 1
    and 2(J - M) + 2 are the two members of orders +-M about the z axis
    (M = J..1) and kernel 2J + 1 is the M = 0 member.  One fixed combination
    of the kernels must pass the matching map at the family's plasmon
    constant to a relative defect of 1e-9, else :class:`SectorCheckError`, before
    the basis is kept.  Results are kept once per process per material,
    degree and family (``kernel_basis.cache``), and only the families a
    caller reads are built: the fields of a solve, the public witnesses'
    pieces and the wave checks read them, a sweep does not.
    """
    from .waves import matching_defect, sector_kernels

    c = plasmon_constants(params, n).as_tuple()[family - 1]
    kers = sector_kernels(n, family)
    probe = np.tensordot(np.linspace(1.0, 2.0, len(kers)), kers, axes=1)
    defect = matching_defect(probe, n, params, c)
    if not defect <= 1e-9:
        raise SectorCheckError(f"family {family} sector at degree {n} is not a kernel at c={c} "
                               f"(matching defect {defect:.3e})")
    return kers


def _check_source_mode(n: int, family: int, k: int) -> None:
    """ValueError unless the family is 1, 2 or 3 and 1 <= k <= 2J + 1 (J = n, n - 1, n + 1)."""
    if family not in (1, 2, 3):
        raise ValueError(f"source mode family {family} is not 1, 2 or 3")
    dim = 2 * (n, n - 1, n + 1)[family - 1] + 1
    if not 1 <= k <= dim:
        raise ValueError(f"source mode index k = {k} outside 1..{dim} (family {family}, degree {n})")


def _source_member(params: LameParams, n: int, family: int, k: int) -> np.ndarray:
    """Kernel k of the family at degree n (:func:`kernel_basis`); ValueError unless 1 <= k <= 2J + 1."""
    _check_source_mode(n, family, k)
    return kernel_basis(params, n, family)[k - 1]


def _family_density(params: LameParams, n: int, family: int, gammas) -> np.ndarray:
    """The density sum gamma_k K_k over (k, gamma_k) pairs, K_k member k of the family's sector at degree n."""
    return sum((g * _source_member(params, n, family, k) for k, g in gammas),
               np.zeros((3, 2 * n + 1), dtype=complex))


@dataclass(frozen=True)
class SourceSpec:
    """Surface force density on partial B_q expanded in kernel matrices.

    ``coefficients[(n, family, k)]`` multiplies kernel k of the family at
    degree n (:func:`kernel_basis`: by descending order |M| of the sector's
    total angular momentum J, k = 2J + 1 being M = 0).  Every
    rotation-invariant output of a solve from one such mode (``E_delta``,
    ``I_upper``, ``J_lower``, the verdict) is the same for every k.
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

    def family_densities(self, n: int, params: LameParams) -> dict[int, np.ndarray]:
        """Degree-n part of the density split by family: {family: sum of g K}."""
        return {fam: _family_density(params, n, fam, gam.items()) for fam, gam in self.family_gammas(n).items()}

    def density_matrix(self, n: int, params: LameParams) -> np.ndarray:
        """Coefficient matrix of the degree-n part of the density."""
        return sum(self.family_densities(n, params).values(), np.zeros((3, 2 * n + 1), dtype=complex))


@dataclass(frozen=True, eq=False)
class ModeSolution:
    """Exact solve of one degree: the scalar amplitudes of each family's sector system.

    ``sectors`` holds one ``(family, ((k, gamma), ...), profile, annuli)``
    entry per solved family: the block amplitudes of the unit-density
    system per region (:func:`_sector_annuli`), the density being
    sum gamma_k times member k.  ``radii`` are the region bounds from 0 to
    inf and ``window`` the degrees of the solution's terms.  ``regions`` is
    the piecewise field; its terms need the member matrices and the
    process-wide ladders, so it is built when first read.
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
        """One :class:`~elastoplasmon.lame.ModeField` per region (:func:`_profile_fields`).

        Each family's density G is built from its members
        (:func:`kernel_basis`); its profile's reference matrices are G and
        the partner shape of G.  Raises :class:`UnconvergedSolveError` when
        a family-2/3 density leaves its sector: the ladder back from its
        partner shape is not kappa G to 1e-10.
        """
        n = self.n
        sectors = []
        for fam, gammas, prof, annuli in self.sectors:
            G = _family_density(self.params, n, fam, gammas)
            refs = {n: G}
            if fam != 1:
                d2 = prof.degrees[1]
                refs[d2] = _ladder(G, n, fam == 3)
                stray = np.linalg.norm(_ladder(refs[d2], d2, fam == 2) - prof.kappa * G)
                impurity = float(stray / (abs(prof.kappa) * max(float(np.linalg.norm(G)), 1e-300)))
                if not impurity <= 1e-10:
                    raise UnconvergedSolveError(f"family-{fam} density at degree {n} leaves its sector "
                                                f"(backward error {impurity:.3e})")
            sectors.append((prof, refs, annuli))
        return tuple(_profile_fields(sectors))


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


def _raise_singular(err: str, flag: int):
    raise np.linalg.LinAlgError("Singular matrix")


def _square_solve(M: np.ndarray, b: np.ndarray | None, what: list[str], max_condition: list[float]) -> list:
    """Solve a stack of square interface systems: per system (x, condition, backward error) or its error.

    ``M`` is (k, m, m) and ``b`` (k, m); ``what`` (the name in the messages)
    and ``max_condition`` hold one entry per system.  Rows, then columns,
    are scaled to a largest entry of 1 and the scaled system is solved by
    LU.  The condition number is that of the scaled matrix, from its
    singular values; above ``max_condition`` the system is singular
    (:class:`ResonantSingularityError`) and is not solved, and without ``b``
    only the condition number is computed.  Residuals of the double system
    formed in ``np.clongdouble`` refine the solution, at most 4 steps, until a
    correction falls below eps |x| or no longer shrinks to half the previous
    one, in which case it is not applied (Higham, *Accuracy and Stability of
    Numerical Algorithms*, 2nd ed., ch. 12), so it is accurate to working
    precision while condition x eps < 1.  A normwise backward error of the
    scaled system above 1e-10 is :class:`UnconvergedSolveError`.  The scaled
    right side is solved times the power of two that brings its largest
    entry to unit size, which scales exactly: the norms stay in range in any
    unit of the moduli, and a solve whose norms were in range keeps its bits.

    The whole stack goes through one batched SVD, one LAPACK ``solve1``
    gufunc call (that of ``np.linalg.solve``) per refinement step and one
    residual in extended precision per step; each system stops refining by
    its own rule.  Every operation acts on each system alone, so a system's
    result is bit for bit the one it has solved alone, and that is the
    public-call route (``np.linalg.svd``, ``solve``, ``norm``).  Where the
    stack raises ``LinAlgError`` (an exactly singular LU or an SVD that does
    not converge), each system is solved alone and the one that raises gets
    that error.
    """
    try:
        return _solve_stack(M, b, what, max_condition)
    except np.linalg.LinAlgError:
        pass
    out: list = []
    for i in range(len(M)):
        try:
            out += _solve_stack(M[i:i + 1], None if b is None else b[i:i + 1], what[i:i + 1], max_condition[i:i + 1])
        except np.linalg.LinAlgError as exc:
            out.append(exc)
    return out


def _solve_stack(M: np.ndarray, b: np.ndarray | None, what: list[str], max_condition: list[float]) -> list:
    """:func:`_square_solve` of a stack, any ``LinAlgError`` raised for the whole stack.

    Norms wanted at the same point are taken in one :func:`_norms` call of
    the stacked vectors, and a stack whose systems all take a correction
    adds it without indexing."""
    rows = np.abs(M).max(axis=2)
    rows[rows == 0] = 1.0
    A = M / rows[:, :, None]
    cols = np.abs(A).max(axis=1)
    cols[cols == 0] = 1.0
    A /= cols[:, None, :]
    sv = np.linalg.svd(A, compute_uv=False)
    cond = (sv[:, 0] / np.maximum(sv[:, -1], 1e-300)).tolist()
    out: list = [ResonantSingularityError(f"loss-free {w} singular (condition {c:.3e})", condition=c) if c > cap
                 else (None, c, 0.0) for w, c, cap in zip(what, cond, max_condition)]
    if b is None:
        return out
    live = [i for i, (c, cap) in enumerate(zip(cond, max_condition)) if not c > cap]
    k = len(live)
    if k < len(out):
        if not live:
            return out
        M, b, A, rows, cols, sv = (a[live] for a in (M, b, A, rows, cols, sv))
    rhs = b / rows
    scale = np.ldexp(1.0, -np.frexp(np.abs(rhs).max(axis=1))[1])[:, None]
    rhs *= scale
    M_ext, b_ext = M.astype(np.clongdouble), b.astype(np.clongdouble) * scale

    def residual(x):  # of the double system, formed in extended precision, rows scaled
        return (b_ext - (M_ext @ x[:, :, None])[:, :, 0]).astype(complex) / rows

    with np.errstate(call=_raise_singular, invalid="call", over="ignore", divide="ignore", under="ignore"):
        x = _lu_solve(A, rhs, signature="DD->D") / cols
        last, refining = [math.inf] * k, range(k)
        for _ in range(4):
            dx = _lu_solve(A, residual(x), signature="DD->D") / cols
            ahead = x + dx
            norms = _norms(np.concatenate((dx, ahead))).tolist()  # |dx|, then |x + dx|
            take = [j for j in refining if not norms[j] > 0.5 * last[j]]
            if not take:
                break
            if len(take) == k:
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
    den = (sv[:, 0] * sizes[:k] + sizes[k:]).tolist()
    x /= scale
    for j, i in enumerate(live):
        berr = resid[j] / (den[j] or 1e-300)
        out[i] = (UnconvergedSolveError(f"{what[i]} did not converge (backward error {berr:.3e})")
                  if berr > 1e-10 else (x[j], out[i][1], berr))
    return out


def _ok(outcome):
    """A solve's outcome: raised if it is an error, else returned."""
    if isinstance(outcome, Exception):
        raise outcome
    return outcome


def _ladder(G: np.ndarray, d: int, up: bool) -> np.ndarray:
    """The shape two degrees up (through t1) or down (through t3) that G Y_d slaves."""
    from .harmonics import lower, raise_

    if up:
        return t1_vector(G, d) @ raise_[d + 1]
    return t3_vector(G, d) @ lower[d - 1]


@dataclass(frozen=True)
class _RadialProfile:
    """Scalar radial data of one sector at degree n.

    ``degrees`` are n alone (family 1) or n and the partner degree n-2 or
    n+2 (families 2, 3), whose reference matrices are a density G and its
    :func:`_ladder` shape.  ``blocks[(kind, d)]`` is the ``entire`` or
    ``decay`` block on the shape of degree d as (power p, {degree:
    displacement scalar}, {degree: unit-radius traction scalar}): on the
    sphere rho its displacement and traction are these scalars times the
    reference matrix of their degree, times rho^p and rho^(p-1).  The ladder
    back from the partner shape gives ``kappa`` G.  By Wigner-Eckart every
    scalar is the same for every member of the sector.
    """

    degrees: tuple[int, ...]
    blocks: dict
    kappa: float | None


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
    """
    lam, mu = params.lam, params.mu
    if fam == 1:
        return _RadialProfile((n,), {("entire", n): (n, {n: 1.0}, {n: mu * (n - 1.0)}),
                                     ("decay", n): (-n - 1, {n: 1.0}, {n: -mu * (n + 2.0)})}, None)
    if n == 1 and fam == 2:  # J = 0: x and x / r^3
        return _RadialProfile((1,), {("entire", 1): (1, {1: 1.0}, {1: 3.0 * lam + 2.0 * mu}),
                                     ("decay", 1): (-2, {1: 1.0}, {1: -4.0 * mu})}, None)
    lo = n - 2 if fam == 2 else n
    hi = lo + 2
    kappa = (lo + 1.0) * (lo + 2) * (2 * lo + 1) * (2 * lo + 5)
    a, b = (1.0, kappa) if fam == 2 else (kappa, 1.0)
    slave_lo = -a * mode_constants(params, hi).M_n
    slave_hi = b * (mode_constants(params, lo).k_n if lo >= 1 else _k0(params))
    t_lo, t_hi = 2.0 * mu * lo, -2.0 * mu * (hi + 1)
    t_entire = mu * ((2 * hi * hi + 1) * lam + 2 * (hi * hi - hi + 1) * mu) / ((hi - 1) * lam + (3 * hi - 2) * mu)
    t_decay = -mu * ((2 * lo * lo + 4 * lo + 3) * lam + 2 * (lo * lo + 3 * lo + 3) * mu) / (
        (lo + 2) * lam + (3 * lo + 5) * mu)
    blocks = {("entire", lo): (lo, {lo: 1.0}, {lo: t_lo}),
              ("entire", hi): (hi, {hi: 1.0, lo: slave_lo}, {hi: t_entire, lo: slave_lo * t_lo}),
              ("decay", lo): (-lo - 1, {lo: 1.0, hi: slave_hi}, {lo: t_decay, hi: slave_hi * t_hi}),
              ("decay", hi): (-hi - 1, {hi: 1.0}, {hi: t_hi})}
    return _RadialProfile((n, lo if fam == 2 else hi), blocks, kappa)


def _profile_trace(prof: _RadialProfile, amplitudes: dict, rho: float) -> dict[int, tuple[complex, complex]]:
    """{degree: (displacement, traction)} scalars on the sphere rho of a sum of the profile's blocks.

    ``amplitudes`` maps (kind, shape) blocks to their amplitudes; the
    traction is that of the base moduli.
    """
    out: dict[int, tuple[complex, complex]] = {}
    for block, a in amplitudes.items():
        p, disp, trac = prof.blocks[block]
        for d, u in disp.items():
            u0, t0 = out.get(d, (0.0, 0.0))
            out[d] = (u0 + a * u * rho**p, t0 + a * trac[d] * rho ** (p - 1))
    return out


def _profile_fields(sectors) -> list[ModeField]:
    """The fields of profile blocks, one :class:`~elastoplasmon.lame.ModeField` per annulus.

    ``sectors`` are (profile, {degree: reference matrix}, annuli) triples,
    annuli in the form :func:`~elastoplasmon.energy.profile_pairing` reads.
    Each displacement scalar of a block adds amplitude x scalar x the
    reference matrix of its degree to the term of that degree and the
    block's power."""
    coefs: dict[tuple[float, float], dict[tuple[int, int], np.ndarray]] = {}
    for prof, refs, annuli in sectors:
        for lo, hi, amps in annuli:
            co = coefs.setdefault((lo, hi), {})
            for block, x in amps.items():
                p, disp, _ = prof.blocks[block]
                for d, a in disp.items():
                    co[(d, p)] = co.get((d, p), 0.0) + (x * a) * refs[d]
    return [ModeField(tuple(Term(c, d, p) for (d, p), c in co.items()), lo, hi) for (lo, hi), co in coefs.items()]


@_once_per_key
def _wave_amplitudes(params: LameParams, n: int, fam: int, R: float) -> tuple[_RadialProfile, dict, dict, float]:
    """The perfect wave of a unit sector member in profile blocks: (profile, inner, outer amplitudes, c).

    :func:`~elastoplasmon.waves.perfect_wave` builds its fields from them:
    ``entire n`` inside and R^(2n+1) ``decay n`` outside, plus M_n R^2
    ``entire n-2`` inside for family 2 and -k_n R^(2n+3) ``decay n+2``
    outside for family 3; an amplitude out of the normal float range raises
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
    inner, outer = {("entire", n): 1.0}, {("decay", n): outer_scale}
    if fam == 2:
        inner[("entire", n - 2)] = mode_constants(params, n).M_n * R2
    elif fam == 3:
        outer[("decay", n + 2)] = -mode_constants(params, n).k_n * outer_scale * R2
    sizes = [abs(a) for a in (*inner.values(), *outer.values())]
    if not sys.float_info.min <= min(sizes) <= max(sizes) < math.inf:
        side = "overflow" if max(sizes) == math.inf else "underflow"
        raise ArithmeticError(f"perfect-wave amplitudes at R = {R} {side} (degree {n}, family {fam})")
    c = plasmon_constants(params, n).as_tuple()[fam - 1]
    at_in, at_out = _profile_trace(prof, inner, R), _profile_trace(prof, outer, R)
    for what, i, weight in (("continuity", 0, 1.0), ("transmission", 1, c)):
        inside = [weight * at_in.get(d, (0.0, 0.0))[i] for d in prof.degrees]
        outside = [at_out.get(d, (0.0, 0.0))[i] for d in prof.degrees]
        scale = max(map(abs, inside + outside))
        defect = max(abs(a - b) for a, b in zip(inside, outside))
        if not defect <= 1e-9 * scale:
            raise SectorCheckError(f"family {fam} sector at degree {n} is not a kernel at c={c} "
                                   f"({what} defect {defect / scale:.3e})")
    return prof, inner, outer, c


def _sector_system(bounds: list[float], weights: list[complex], prof: _RadialProfile):
    """Square system of one sector for a unit density: (matrix, right-hand side, columns).

    The unknowns are the amplitudes of the (region, kind, shape) blocks:
    entire in the ball, decaying outside, both in between.  Each interface
    of ``bounds`` has a displacement and a ``weights``-weighted traction row
    per degree of the sector (inner minus outer); the density enters as the
    traction jump at the last one."""
    k = len(prof.degrees)
    kinds = [("entire",)] + [("entire", "decay")] * (len(bounds) - 1) + [("decay",)]
    cols = [(reg, kind, shape) for reg, ks in enumerate(kinds) for kind in ks for shape in prof.degrees]
    nc = len(cols)
    M = [0j] * (2 * k * len(bounds) * nc)  # row-major, filled as Python scalars
    for ci, (reg, kind, shape) in enumerate(cols):
        p, disp, trac = prof.blocks[(kind, shape)]
        for bi in (reg - 1, reg):
            if 0 <= bi < len(bounds):
                rho, sgn = bounds[bi], (1.0 if reg == bi else -1.0)
                u, t, at = rho**p, rho ** (p - 1), 2 * k * bi * nc + ci
                for di, d in enumerate(prof.degrees):
                    M[at + di * nc] = sgn * disp.get(d, 0.0) * u
                    M[at + (k + di) * nc] = sgn * weights[reg] * trac.get(d, 0.0) * t
    b = np.zeros(2 * k * len(bounds), dtype=complex)
    b[-k] = -1.0  # weighted traction jump (outer - inner) = density on the last sphere, degree n
    return np.array(M, dtype=complex).reshape(-1, nc), b, cols


def _sector_annuli(radii, cols: list, x: np.ndarray) -> list[tuple[float, float, dict]]:
    """Amplitudes of (region, kind, shape) columns as [(r_lo, r_hi, {(kind, shape): amplitude})] per region."""
    annuli = [(lo, hi, {}) for lo, hi in zip(radii[:-1], radii[1:])]
    for xc, (reg, kind, shape) in zip(x.tolist(), cols):  # Python complex: scalar sums run faster
        annuli[reg][2][(kind, shape)] = xc
    return annuli


@_once_per_key
def _unit_layer(params: LameParams, n: int, fam: int) -> tuple[_RadialProfile, list]:
    """:func:`_single_layer` on the unit sphere for a unit density, solved once per key."""
    prof = _radial_profile(params, n, fam)
    M, b, cols = _sector_system([1.0], [1.0, 1.0], prof)
    x, _, _ = _ok(_square_solve(M[None], b[None], [f"degree-{n} family-{fam} single layer"], [math.inf])[0])
    return prof, _sector_annuli((0.0, 1.0, math.inf), cols, x)


def _single_layer(params: LameParams, n: int, fam: int, rho: float,
                  density: complex = 1.0) -> tuple[_RadialProfile, list[tuple[float, float, dict]]]:
    """The single layer of a sector density on the sphere rho: (profile, annuli inside and outside rho).

    The profile field continuous across rho whose traction (outside minus
    inside) jumps there by ``density`` times the degree-n shape: the
    :func:`_unit_layer` with each block of power p times density rho^(1-p).
    ``ArithmeticError`` naming rho where such a power leaves the normal float range.
    """
    prof, unit = _unit_layer(params, n, fam)
    rho = float(rho)
    try:
        scale = {block: rho ** (1 - prof.blocks[block][0]) for _, _, amps in unit for block in amps}
    except OverflowError:
        scale = {None: math.inf}
    if not all(sys.float_info.min <= s < math.inf for s in scale.values()):
        raise ArithmeticError(f"single layer on the sphere rho = {rho}: a power of rho leaves the float range "
                              f"(degree {n}, family {fam})")
    return prof, [(lo * rho, hi * rho, {b: density * a * scale[b] for b, a in amps.items()}) for lo, hi, amps in unit]


def _solve_systems(systems: list) -> list:
    """:func:`_square_solve` outcomes of (matrix, right side or None, what, max_condition) systems, in order.

    The systems of one matrix shape go through one stacked call; within a
    call the right sides are all given or all None."""
    groups: dict = {}
    for i, (M, *_) in enumerate(systems):
        groups.setdefault(M.shape, []).append(i)
    out: list = [None] * len(systems)
    for idx in groups.values():
        M, b, what, cap = zip(*(systems[i] for i in idx))
        for i, got in zip(idx, _square_solve(np.array(M), None if b[0] is None else np.array(b), what, cap)):
            out[i] = got
    return out


def sector_conditions(medium: LayeredMedium, n: int, q: float) -> dict[int, float]:
    """Condition number of each family's degree-n square sector system.

    No density enters; a loss-free medium at a plasmon constant makes the
    matching family's system singular.
    """
    layout = _region_layout(medium, q)
    systems = [(_sector_system(*layout, _radial_profile(medium.base, n, fam))[0], None, "interface system", math.inf)
               for fam in (1, 2, 3)]
    return {fam: _ok(got)[1] for fam, got in zip((1, 2, 3), _solve_systems(systems))}


def _solve_column(items) -> list:
    """Solve (medium, source, degree) items as one column: per item its :class:`ModeSolution` or its error.

    Every item's sector systems are assembled first, and systems of equal
    layout, profile and singularity cap are solved once
    (:func:`_solve_systems`: one stacked :func:`_square_solve` per shape).
    An item's error is the one :func:`solve_mode` raises for it: the first,
    in solve order, of its checks, assembly and solves.
    """
    systems: list = []
    index: dict = {}
    parts = []
    for medium, source, n in items:
        params, bounds, slots, error = medium.base, [], [], None
        try:
            if n < 2:
                raise ValueError("solve_mode needs n >= 2")
            gammas = source.family_gammas(n) or {1: {}}
            cap = 1e9 if medium.delta == 0.0 else math.inf
            if medium.delta == 0.0 and set(gammas) != {1}:
                cond = max(sector_conditions(medium, n, source.q).values())
                if cond > cap:
                    raise ResonantSingularityError(
                        f"loss-free interface system singular at degree {n} (condition {cond:.3e})",
                        condition=cond,
                    )
            bounds, weights = _region_layout(medium, source.q)
            for fam, gam in sorted(gammas.items()):
                if gam:
                    _wave_amplitudes(params, n, fam, medium.shell_radius)  # the sector's kernel check
                prof = _radial_profile(params, n, fam)
                key = (tuple(bounds), tuple(weights), params, n, fam, cap)
                if key not in index:
                    M, b, cols = _sector_system(bounds, weights, prof)
                    index[key] = len(systems)
                    systems.append((M, b, f"family-{fam} system at degree {n}", cap, cols))
                slots.append((fam, tuple(gam.items()), prof, index[key]))
        except Exception as exc:  # raised when the item's solution is read, after its earlier solves' errors
            error = exc
        parts.append((n, params, (0.0, *bounds, math.inf), slots, error))
    solved = _solve_systems([system[:4] for system in systems])
    out: list = []
    for n, params, radii, slots, error in parts:
        got = [solved[i] for *_, i in slots]
        error = next((g for g in got if isinstance(g, Exception)), error)
        if error is not None:
            out.append(error)
            continue
        sectors = tuple((fam, gam, prof, _sector_annuli(radii, systems[i][4], x))
                        for (fam, gam, prof, i), (x, _, _) in zip(slots, got))
        out.append(ModeSolution(n=n, condition=max(c for _, c, _ in got), lstsq_residual=max(e for _, _, e in got),
                                window=tuple(sorted({d for _, _, prof, _ in sectors for d in prof.degrees})),
                                radii=radii, sectors=sectors, params=params))
    return out


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


def residual_check(solutions: list[ModeSolution], medium: LayeredMedium, source: SourceSpec) -> dict[str, float]:
    """Independent verification of a solve: PDE, interfaces, source jump.

    Each is the worst of :mod:`~elastoplasmon.lame`'s normwise measures: the
    Lame residual of each region (:meth:`~elastoplasmon.lame.ModeField.residual`)
    and the per-degree jumps at each interface (:func:`~elastoplasmon.lame.trace_jumps`),
    the density taken off on the source sphere, the layout's last bound.  A NaN stays NaN.
    """
    params = medium.base
    bounds, weights = _region_layout(medium, source.q)
    found = {key: [0.0] for key in ("lame", "displacement_jump", "traction_jump", "source_jump")}
    for sol in solutions:
        found["lame"] += [reg.residual(params) for reg in sol.regions if reg.terms]
        for bi, rho in enumerate(bounds):
            on_source = bi == len(bounds) - 1
            density = {sol.n: source.density_matrix(sol.n, params)} if on_source else None
            disp, trac = trace_jumps(sol.regions[bi].terms, sol.regions[bi + 1].terms, rho, params,
                                     weights[bi:bi + 2], density)
            found["displacement_jump"] += disp.values()
            for d, jump in trac.items():
                found["source_jump" if on_source and d == sol.n else "traction_jump"].append(jump)
    return {key: float(np.max(values)) for key, values in found.items()}
