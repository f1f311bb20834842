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
algebra), so the interface conditions (displacement
continuity, weighted-traction continuity and the prescribed traction jump
across the source sphere) form a square scalar system: two unknowns per
region and rows per interface for family 1, four for families 2 and 3.
Each family's part of a density is solved in its sector, by LU refined in
extended precision, and the parts are superposed.  A loss-free medium
(delta = 0) is solved only where every solved system's equilibrated
condition is at most 1e9; above it :class:`ResonantSingularityError` (an
``ArithmeticError``) is raised.  The fixed-multiplier primal witness of
:mod:`~elastoplasmon.scenarios` is such a loss-free solve.

Sources are expanded in the kernel basis of each degree, which is each
family's sector itself, built in closed form (:func:`kernel_basis`); the
matching map is applied to one combination per family as a check, never
assembled.  The source-mode index k picks one member of that basis (ordered
by descending |M| as in :func:`~elastoplasmon.waves.sector_kernels`); the
sector systems do not depend on the member, so the dissipation, the bounds
and the verdicts of a unit source do not depend on k.  A source sphere that
is not outside the shell, a family other than 1, 2, 3 or an index k outside
1..2J+1 raises ``ValueError``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .harmonics import DerivativeTable, ensure_tables
from .lame import (
    LameParams,
    ModeField,
    Term,
    _k0,
    displacement_coeffs,
    lame_residual,
    mode_constants,
    t1_vector,
    t3_vector,
    traction_coeffs_algebraic,
)
from .waves import SectorCheckError, matching_defect, plasmon_constants, sector_kernels

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


_KERNEL_CACHE: dict = {}  # (lam, mu, n, family) -> kernel basis


def kernel_basis(params: LameParams, n: int, family: int, tables: DerivativeTable) -> list[np.ndarray]:
    """Self-conjugate orthonormal kernel matrices of one family at degree n.

    The kernel is the family's whole angular-momentum sector, built in
    closed form (:func:`~elastoplasmon.waves.sector_kernels`), so families
    stay pure where two plasmon constants coincide.  Kernels 2(J - M) + 1
    and 2(J - M) + 2 are the two members of orders +-M about the z axis
    (M = J..1) and kernel 2J + 1 is the M = 0 member.  One fixed combination
    of the kernels must pass the matching map at the family's plasmon
    constant to a relative defect of 1e-9, else :class:`SectorCheckError`, before
    the basis is kept.  Results are cached per material, degree and family:
    a sweep reads the same bases at every loss, and only the families it
    reads are built.
    """
    key = (params.lam, params.mu, n, family)
    if key not in _KERNEL_CACHE:
        tables = ensure_tables(tables, n + 4)
        c = plasmon_constants(params, n).as_tuple()[family - 1]
        kers = sector_kernels(n, family, tables)
        probe = np.tensordot(np.linspace(1.0, 2.0, len(kers)), kers, axes=1)
        defect = matching_defect(probe, n, params, c, tables)
        if not defect <= 1e-9:
            raise SectorCheckError(f"family {family} sector at degree {n} is not a kernel at c={c} "
                                 f"(matching defect {defect:.3e})")
        _KERNEL_CACHE[key] = kers
    return _KERNEL_CACHE[key]


def _source_member(params: LameParams, n: int, family: int, k: int, tables: DerivativeTable) -> np.ndarray:
    """Kernel k of the family at degree n (:func:`kernel_basis`); ValueError unless 1 <= k <= 2J + 1."""
    if family not in (1, 2, 3):
        raise ValueError(f"source mode family {family} is not 1, 2 or 3")
    kers = kernel_basis(params, n, family, tables)
    if not 1 <= k <= len(kers):
        raise ValueError(f"source mode index k = {k} outside 1..{len(kers)} (family {family}, degree {n})")
    return kers[k - 1]


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

    def family_densities(self, n: int, params: LameParams, tables: DerivativeTable) -> dict[int, np.ndarray]:
        """Degree-n part of the density split by family: {family: sum of g K}."""
        out: dict[int, np.ndarray] = {}
        for (nn, fam, k), g in self.coefficients.items():
            if nn == n and g != 0:
                out[fam] = out.get(fam, 0.0) + g * _source_member(params, n, fam, k, tables)
        return out

    def density_matrix(self, n: int, params: LameParams, tables: DerivativeTable) -> np.ndarray:
        """Coefficient matrix of the degree-n part of the density."""
        return sum(self.family_densities(n, params, tables).values(), np.zeros((3, 2 * n + 1), dtype=complex))


@dataclass(frozen=True)
class ModeSolution:
    """Piecewise solution for one degree; ``lstsq_residual`` is the largest backward error."""

    n: int
    regions: tuple[ModeField, ...]
    condition: float
    lstsq_residual: float
    window: tuple[int, ...]


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


def _square_solve(M: np.ndarray, b: np.ndarray | None = None, what: str = "interface system",
                  max_condition: float = math.inf) -> tuple[np.ndarray | None, float, float]:
    """Solve a square interface system: (x, condition, backward error).

    Rows, then columns, are scaled to a largest entry of 1 and the scaled
    system is solved by LU.  The condition number is that of the scaled
    matrix, from its singular values; above ``max_condition`` the system is
    singular (:class:`ResonantSingularityError`) and is not solved, and
    without ``b`` only the condition number is computed.  Residuals of the
    double system formed in ``np.clongdouble`` refine the solution, at most
    4 steps, until a correction falls below eps |x| or no longer shrinks to
    half the previous one, in which case it is not applied (Higham, *Accuracy
    and Stability of Numerical Algorithms*, 2nd ed., ch. 12), so it is
    accurate to working precision while condition x eps < 1.  A normwise backward
    error of the scaled system above 1e-10 raises :class:`UnconvergedSolveError`.
    """
    rows = np.max(np.abs(M), axis=1)
    rows[rows == 0] = 1.0
    A = M / rows[:, None]
    cols = np.max(np.abs(A), axis=0)
    cols[cols == 0] = 1.0
    A = A / cols
    sv = np.linalg.svd(A, compute_uv=False)
    cond = float(sv[0] / max(sv[-1], 1e-300))
    if cond > max_condition:
        raise ResonantSingularityError(f"loss-free {what} singular (condition {cond:.3e})", condition=cond)
    if b is None:
        return None, cond, 0.0
    M_ext, b_ext = M.astype(np.clongdouble), b.astype(np.clongdouble)
    x = np.linalg.solve(A, b / rows) / cols
    last = math.inf
    for _ in range(4):
        dx = np.linalg.solve(A, (b_ext - M_ext @ x).astype(complex) / rows) / cols
        step = float(np.linalg.norm(dx))
        if step > 0.5 * last:
            break
        x, last = x + dx, step
        if step <= np.finfo(float).eps * np.linalg.norm(x):
            break
    resid = float(np.linalg.norm((b_ext - M_ext @ x).astype(complex) / rows))
    berr = resid / (float(sv[0] * np.linalg.norm(x * cols) + np.linalg.norm(b / rows)) or 1e-300)
    if berr > 1e-10:
        raise UnconvergedSolveError(f"{what} did not converge (backward error {berr:.3e})")
    return x, cond, berr


def _ladder(G: np.ndarray, d: int, up: bool, tables: DerivativeTable) -> np.ndarray:
    """The shape two degrees up (through t1) or down (through t3) that G Y_d slaves."""
    if up:
        return t1_vector(G, d, tables) @ tables.raise_[d + 1]
    return t3_vector(G, d, tables) @ tables.lower[d - 1]


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


def _radial_profile(params: LameParams, n: int, fam: int) -> _RadialProfile:
    """The :class:`_RadialProfile` of a sector in closed form (Love, *Treatise*, ch. XI).

    Toroidal blocks K r^n and K r^(-n-1) have tractions mu (n-1) and -mu (n+2).
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


def _sector_system(medium: LayeredMedium, q: float, prof: _RadialProfile):
    """Square system of one sector for a unit density: (matrix, right-hand side, columns).

    The unknowns are the amplitudes of the (region, kind, shape) blocks:
    entire in the ball, decaying outside, both in between.  Each interface
    has a displacement and a weighted-traction row per degree of the sector
    (inner minus outer); the density enters as the traction jump at q.
    """
    bounds, weights = _region_layout(medium, q)
    k = len(prof.degrees)
    kinds = [("entire",)] + [("entire", "decay")] * (len(bounds) - 1) + [("decay",)]
    cols = [(reg, kind, shape) for reg, ks in enumerate(kinds) for kind in ks for shape in prof.degrees]
    M = np.zeros((2 * k * len(bounds), len(cols)), dtype=complex)
    for ci, (reg, kind, shape) in enumerate(cols):
        p, disp, trac = prof.blocks[(kind, shape)]
        for bi in (reg - 1, reg):
            if 0 <= bi < len(bounds):
                rho, sgn = bounds[bi], (1.0 if reg == bi else -1.0)
                for di, d in enumerate(prof.degrees):
                    M[2 * k * bi + di, ci] = sgn * disp.get(d, 0.0) * rho**p
                    M[2 * k * bi + k + di, ci] = sgn * weights[reg] * trac.get(d, 0.0) * rho ** (p - 1)
    b = np.zeros(len(M), dtype=complex)
    b[-k] = -1.0  # weighted traction jump (outer - inner) = density at q, degree n
    return M, b, cols


def sector_conditions(medium: LayeredMedium, n: int, q: float) -> dict[int, float]:
    """Condition number of each family's degree-n square sector system.

    No density enters; a loss-free medium at a plasmon constant makes the
    matching family's system singular.
    """
    return {fam: _square_solve(_sector_system(medium, q, _radial_profile(medium.base, n, fam))[0])[1]
            for fam in (1, 2, 3)}


def solve_mode(medium: LayeredMedium, source: SourceSpec, n: int, tables: DerivativeTable) -> ModeSolution:
    """Exact transmission solve for the degree-n part of the source.

    Each family's part G of the density is solved in its sector by one
    square scalar system (:func:`sector_conditions` gives their conditions)
    and the parts are superposed; a block's field is its profile scalars
    times G and the partner shape of G.  Raises
    :class:`ResonantSingularityError` when a loss-free medium makes a solved
    system singular, that is of equilibrated condition above 1e9 (for a
    source outside family 1: any family's system), and
    :class:`UnconvergedSolveError` when a family-2/3 density leaves its
    sector or a backward error exceeds 1e-10, and ``ValueError`` unless
    q > shell_radius and every source mode names a family 1..3 and a member
    k in 1..2J+1.
    """
    if n < 2:
        raise ValueError("solve_mode needs n >= 2")
    tables = ensure_tables(tables, n + 6)
    params = medium.base
    gammas = source.family_densities(n, params, tables) or {1: np.zeros((3, 2 * n + 1), dtype=complex)}
    max_condition = 1e9 if medium.delta == 0.0 else math.inf
    if medium.delta == 0.0 and set(gammas) != {1}:
        cond = max(sector_conditions(medium, n, source.q).values())
        if cond > max_condition:
            raise ResonantSingularityError(
                f"loss-free interface system singular at degree {n} (condition {cond:.3e})",
                condition=cond,
            )
    bounds, _ = _region_layout(medium, source.q)
    radii = [0.0] + bounds + [math.inf]
    coefs: list[dict[tuple[int, int], np.ndarray]] = [{} for _ in range(len(bounds) + 1)]
    conds, berrs = [], []
    for fam, G in sorted(gammas.items()):
        prof = _radial_profile(params, n, fam)
        refs = {n: G}
        if fam != 1:
            d2 = prof.degrees[1]
            refs[d2] = _ladder(G, n, fam == 3, tables)
            stray = np.linalg.norm(_ladder(refs[d2], d2, fam == 2, tables) - prof.kappa * G)
            impurity = float(stray / (abs(prof.kappa) * max(float(np.linalg.norm(G)), 1e-300)))
            if not impurity <= 1e-10:
                raise UnconvergedSolveError(f"family-{fam} density at degree {n} leaves its sector "
                                            f"(backward error {impurity:.3e})")
        M, b, cols = _sector_system(medium, source.q, prof)
        x, cond, berr = _square_solve(M, b, f"family-{fam} system at degree {n}", max_condition)
        conds.append(cond)
        berrs.append(berr)
        for xc, (reg, kind, shape) in zip(x, cols):
            p, disp, _ = prof.blocks[(kind, shape)]
            for d, a in disp.items():
                coefs[reg][(d, p)] = coefs[reg].get((d, p), 0.0) + (xc * a) * refs[d]
    regions = tuple(ModeField(tuple(Term(c, d, p) for (d, p), c in co.items()), lo, hi)
                    for co, lo, hi in zip(coefs, radii[:-1], radii[1:]))
    window = tuple(sorted({t.degree for reg in regions for t in reg.terms}))
    return ModeSolution(n=n, regions=regions, condition=max(conds), lstsq_residual=max(berrs), window=window)


def solve_modes(medium: LayeredMedium, source: SourceSpec, tables: DerivativeTable) -> list[ModeSolution]:
    """Solve every degree present in the source."""
    return [solve_mode(medium, source, n, tables) for n in source.degrees()]


def residual_check(solutions: list[ModeSolution], medium: LayeredMedium, source: SourceSpec,
                   tables: DerivativeTable) -> dict[str, float]:
    """Independent verification of a solve: PDE, interfaces, source jump.

    The Lame residual is exact at points in each region; at each interface
    the displacement and weighted-traction jumps (minus the density at q)
    are per-degree coefficient arrays, relative to the largest trace.
    """
    params = medium.base
    bounds, weights = _region_layout(medium, source.q)
    report = {"lame": 0.0, "displacement_jump": 0.0, "traction_jump": 0.0, "source_jump": 0.0}
    rng = np.random.default_rng(1234)
    for sol in solutions:
        gamma = source.density_matrix(sol.n, params, tables)
        for reg in sol.regions:
            if not reg.terms:
                continue
            lo = reg.r_lo if reg.r_lo > 0 else 0.2 * reg.r_hi
            hi = reg.r_hi if math.isfinite(reg.r_hi) else 3.0 * reg.r_lo
            rads = np.linspace(lo + 0.15 * (hi - lo), hi - 0.15 * (hi - lo), 3)
            dirs = rng.normal(size=(3, 3))
            dirs /= np.linalg.norm(dirs, axis=1)[:, None]
            pts = rads[:, None] * dirs
            report["lame"] = max(report["lame"], lame_residual(reg.terms, params, pts, tables))
        for bi, rho in enumerate(bounds):
            inner, outer = sol.regions[bi], sol.regions[bi + 1]
            u_in = displacement_coeffs(inner.terms, rho)
            u_out = displacement_coeffs(outer.terms, rho)
            scale = max([np.max(np.abs(m)) for m in list(u_in.values()) + list(u_out.values())] + [1e-30])
            for d in set(u_in) | set(u_out):
                jump = float(np.max(np.abs(u_in.get(d, 0.0) - u_out.get(d, 0.0))))
                report["displacement_jump"] = max(report["displacement_jump"], jump / scale)
            t_in = traction_coeffs_algebraic(inner.terms, rho, params, tables)
            t_out = traction_coeffs_algebraic(outer.terms, rho, params, tables)
            tscale = max(
                [np.max(np.abs(m)) for m in list(t_in.values()) + list(t_out.values())] + [1e-30]
            )
            for d in set(t_in) | set(t_out):
                jump = weights[bi + 1] * t_out.get(d, 0.0) - weights[bi] * t_in.get(d, 0.0)
                expected = gamma if (d == sol.n and abs(rho - source.q) < 1e-14) else 0.0
                mismatch = float(np.max(np.abs(jump - expected)))
                key = "source_jump" if (d == sol.n and abs(rho - source.q) < 1e-14) else "traction_jump"
                report[key] = max(report[key], mismatch / tscale)
    return report
