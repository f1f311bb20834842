"""Exact per-degree mode matching for the lossy layered sphere problem.

The medium is a concentric stack (optional core | shell | matrix) with a
spherical source surface at radius q > R.  Moduli in each layer are
(A + i delta)(lambda, mu) with A = +1 in core and matrix, c in the shell.

A radially layered medium commutes with rotations, so a degree-n source of
family f excites only its total-angular-momentum sector: J = n for family 1
(toroidal), J = n-1 for family 2 (degree n plus the degree n-2 shape reached
through t3) and J = n+1 for family 3 (degree n plus the degree n+2 shape
reached through t1).  Each region therefore carries entire/decaying blocks
of a few fixed shapes per family, and the interface conditions
(displacement continuity, weighted-traction continuity and the prescribed
traction jump across the source sphere) form a small overdetermined but
consistent system in their amplitudes: the *sector solve*.  A pure family-1
source collapses to one scalar system per interface.

Sources are expanded in the kernel basis of each degree, which is each
family's sector itself, built in closed form (:func:`kernel_basis`); the
matching map is applied to one combination per family as a check, never
assembled.  The source-mode index k picks one member of that basis (ordered
by descending |M| as in :func:`~elastoplasmon.waves.sector_kernels`); the
sector solve commutes with rotations, so the dissipation, the bounds and the
verdicts of a unit source do not depend on k.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .harmonics import DerivativeTable, SphereQuadrature, ensure_tables
from .lame import (
    LameParams,
    ModeField,
    Term,
    displacement_coeffs,
    eval_terms,
    exterior_block,
    interior_block,
    lame_residual,
    stack_rows,
    t1_vector,
    t3_vector,
    traction_coeffs_algebraic,
)
from .waves import matching_defect, plasmon_constants, sector_kernels

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


class ResonantSingularityError(RuntimeError):
    """Raised for a loss-free solve at (or numerically at) a plasmon constant."""

    def __init__(self, message: str, condition: float):
        super().__init__(message)
        self.condition = condition


class UnconvergedSolveError(RuntimeError):
    """Raised when a solve's least-squares backward error exceeds 1e-10."""


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


_KERNEL_CACHE: dict = {}


def kernel_basis(params: LameParams, n: int, tables: DerivativeTable) -> dict[int, list[np.ndarray]]:
    """Self-conjugate orthonormal kernel matrices per family at degree n.

    Each family's kernel is its whole angular-momentum sector, built in
    closed form (:func:`~elastoplasmon.waves.sector_kernels`), so families
    stay pure where two plasmon constants coincide.  Kernels 2(J - M) + 1
    and 2(J - M) + 2 are the two members of orders +-M about the z axis
    (M = J..1) and kernel 2J + 1 is the M = 0 member.  One fixed combination
    of each family's kernels must pass the matching map at the family's
    plasmon constant to a relative defect of 1e-9, else ``AssertionError``.
    Results are cached per material and degree: a sweep reads the same
    bases at every loss.
    """
    key = (params.lam, params.mu, n)
    if key not in _KERNEL_CACHE:
        tables = ensure_tables(tables, n + 4)
        out = {}
        for fam, c in enumerate(plasmon_constants(params, n).as_tuple(), start=1):
            kers = sector_kernels(n, fam, tables)
            probe = np.tensordot(np.linspace(1.0, 2.0, len(kers)), kers, axes=1)
            defect = matching_defect(probe, n, params, c, tables)
            if not defect <= 1e-9:
                raise AssertionError(f"family {fam} sector at degree {n} is not a kernel at c={c} "
                                     f"(matching defect {defect:.3e})")
            out[fam] = kers
        _KERNEL_CACHE[key] = out
    return _KERNEL_CACHE[key]


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
        fams = kernel_basis(params, n, tables)
        out: dict[int, np.ndarray] = {}
        for (nn, fam, k), g in self.coefficients.items():
            if nn == n and g != 0:
                out[fam] = out.get(fam, 0.0) + g * fams[fam][k - 1]
        return out

    def density_matrix(self, n: int, params: LameParams, tables: DerivativeTable) -> np.ndarray:
        """Coefficient matrix of the degree-n part of the density."""
        return sum(self.family_densities(n, params, tables).values(), np.zeros((3, 2 * n + 1), dtype=complex))


@dataclass(frozen=True)
class ModeSolution:
    """Piecewise solution for one degree family."""

    n: int
    regions: tuple[ModeField, ...]
    condition: float
    lstsq_residual: float
    window: tuple[int, ...]


def _region_layout(medium: LayeredMedium, q: float) -> tuple[list[float], list[complex]]:
    bounds = ([medium.core_radius] if medium.core_radius else []) + [medium.shell_radius, q]
    radii = [0.0] + bounds + [math.inf]
    weights = [
        medium.weight(0.5 * (lo + hi) if math.isfinite(hi) else 2.0 * lo)
        for lo, hi in zip(radii[:-1], radii[1:])
    ]
    return bounds, weights


def _block_terms(kind: str, d: int, E: np.ndarray, params: LameParams, tables: DerivativeTable) -> tuple[Term, ...]:
    if kind == "entire":
        if d == 0:
            return (Term(np.asarray(E, dtype=complex), 0, 0),)
        return interior_block(E, d, params, tables)
    return exterior_block(E, d, params, tables)


def _sector_shapes(gammas: dict[int, np.ndarray], n: int, tables: DerivativeTable) -> list[tuple[int, np.ndarray]]:
    """(degree, coefficient matrix) shapes spanning the sectors of the density.

    Each family's density is one shape at degree n; families 2 and 3 add the
    unique shape of their sector at degree n-2 (through t3) or n+2 (through t1).
    """
    shapes = [(n, g) for _, g in sorted(gammas.items())]
    if 2 in gammas:
        shapes.append((n - 2, stack_rows(t3_vector(gammas[2], n, tables), tables.lower[n - 1])))
    if 3 in gammas:
        shapes.append((n + 2, stack_rows(t1_vector(gammas[3], n, tables), tables.raise_[n + 1])))
    return shapes


def _sector_system(medium: LayeredMedium, q: float, shapes: list[tuple[int, np.ndarray]],
                   tables: DerivativeTable):
    """Interface matrix over the block terms of every shape in every region.

    Rows are keyed by (interface, displacement/traction, degree); returns the
    matrix, the row offset of each key, the columns (region, block terms),
    the interface radii and the region weights.
    """
    params = medium.base
    bounds, weights = _region_layout(medium, q)
    n_regions = len(bounds) + 1
    blocks = {(kind, si): _block_terms(kind, d, S, params, tables)
              for kind in ("entire", "decay") for si, (d, S) in enumerate(shapes)}
    cols = [(reg, kind, si) for reg in range(n_regions)
            for kind in (("entire",) if reg == 0 else ("decay",) if reg == n_regions - 1 else ("entire", "decay"))
            for si in range(len(shapes))]
    entries: dict[tuple[int, int, int], list[tuple[int, np.ndarray]]] = {}
    for bi, rho in enumerate(bounds):
        traces = {}
        for ci, (reg, kind, si) in enumerate(cols):
            if reg not in (bi, bi + 1):
                continue
            if (kind, si) not in traces:
                terms = blocks[(kind, si)]
                traces[(kind, si)] = (displacement_coeffs(terms, rho),
                                      traction_coeffs_algebraic(terms, rho, params, tables))
            sgn = 1.0 if reg == bi else -1.0
            for row_kind, (vecs, w) in enumerate(zip(traces[(kind, si)], (sgn, sgn * weights[reg]))):
                for d, mat in vecs.items():
                    entries.setdefault((bi, row_kind, d), []).append((ci, w * mat.reshape(-1)))
    offsets, pos = {}, 0
    for key in sorted(entries):
        offsets[key] = pos
        pos += 3 * (2 * key[2] + 1)
    M = np.zeros((pos, len(cols)), dtype=complex)
    for key, lst in entries.items():
        for ci, vec in lst:
            M[offsets[key]: offsets[key] + vec.size, ci] += vec
    regions = [(reg, blocks[(kind, si)]) for reg, kind, si in cols]
    return M, offsets, regions, bounds, weights


def _equilibrated_lstsq(M: np.ndarray, b: np.ndarray):
    """Column-equilibrated least squares: (x, condition, residual, scale).

    ``scale`` is the backward-error scale |M| |x| + |b|: an amplified
    near-resonant solution is accepted when the residual is small relative
    to it, not just to |b|.
    """
    col_scale = np.linalg.norm(M, axis=0)
    col_scale[col_scale == 0] = 1.0
    xs, _, _, sv = np.linalg.lstsq(M / col_scale, b, rcond=None)
    cond = float(sv[0] / max(sv[-1], 1e-300))
    x = xs / col_scale
    resid = float(np.linalg.norm(M @ x - b))
    scale = float(sv[0] * np.linalg.norm(xs) + np.linalg.norm(b)) or 1e-300
    return x, cond, resid, scale


def sector_conditions(medium: LayeredMedium, n: int, q: float, tables: DerivativeTable) -> dict[int, float]:
    """Condition number of each family's degree-n sector system.

    Each system is built from the family's first kernel matrix; a loss-free
    medium at a plasmon constant makes the matching family's system singular.
    """
    tables = ensure_tables(tables, n + 6)
    kernels = kernel_basis(medium.base, n, tables)
    out = {}
    for fam in (1, 2, 3):
        M, *_ = _sector_system(medium, q, _sector_shapes({fam: kernels[fam][0]}, n, tables), tables)
        out[fam] = _equilibrated_lstsq(M, np.zeros(M.shape[0]))[1]
    return out


def solve_mode(medium: LayeredMedium, source: SourceSpec, n: int, tables: DerivativeTable,
               sing_tol: float = 1e-9) -> ModeSolution:
    """Exact transmission solve for the degree-n part of the source.

    A pure family-1 density takes the scalar radial solve; any other density
    is solved in the sectors of its families (see the module docstring).
    Raises :class:`ResonantSingularityError` when a loss-free medium makes
    any family's sector system singular, and :class:`UnconvergedSolveError`
    when the least-squares backward error exceeds 1e-10.
    """
    if n < 2:
        raise ValueError("solve_mode needs n >= 2")
    tables = ensure_tables(tables, n + 6)
    gammas = source.family_densities(n, medium.base, tables)
    if set(gammas) <= {1}:
        # divergence-free sources stay divergence-free: exact scalar radial solve
        gamma = gammas.get(1, np.zeros((3, 2 * n + 1), dtype=complex))
        return _solve_family1(medium, source.q, n, gamma, tables, sing_tol)
    if medium.delta == 0.0:
        cond = max(sector_conditions(medium, n, source.q, tables).values())
        if cond > 1.0 / sing_tol:
            raise ResonantSingularityError(
                f"loss-free interface system singular at degree {n} (condition {cond:.3e})",
                condition=cond,
            )
    M, offsets, cols, bounds, weights = _sector_system(
        medium, source.q, _sector_shapes(gammas, n, tables), tables)
    b = np.zeros(M.shape[0], dtype=complex)
    gamma = sum(gammas.values())
    row = offsets[(len(bounds) - 1, 1, n)]  # weighted traction jump (outer - inner) at q
    b[row: row + gamma.size] = -gamma.reshape(-1)
    x, cond, resid, scale = _equilibrated_lstsq(M, b)
    if resid > 1e-10 * scale:
        raise UnconvergedSolveError(f"sector solve at degree {n} did not converge (backward error {resid / scale:.3e})")
    radii = [0.0] + bounds + [math.inf]
    regions = []
    for reg in range(len(weights)):
        coefs: dict[tuple[int, int], np.ndarray] = {}
        for xc, (r2, terms) in zip(x, cols):
            if r2 == reg and xc != 0:
                for t in terms:
                    coefs[(t.degree, t.power)] = coefs.get((t.degree, t.power), 0.0) + xc * t.coef
        terms = tuple(Term(c, d, p) for (d, p), c in coefs.items())
        regions.append(ModeField(terms, radii[reg], radii[reg + 1]))
    window = tuple(sorted({t.degree for reg in regions for t in reg.terms}))
    return ModeSolution(n=n, regions=tuple(regions), condition=cond, lstsq_residual=resid, window=window)


def _solve_family1(medium: LayeredMedium, q: float, n: int, gamma: np.ndarray,
                   tables: DerivativeTable, sing_tol: float) -> ModeSolution:
    """Exact solve for a pure family-1 density: one scalar system, all orders.

    The density matrix is a combination of divergence-free kernels, so every
    region amplitude is (scalar) x (density matrix) with pure radial powers.
    """
    params = medium.base
    mu = params.mu
    bounds, weights = _region_layout(medium, q)
    n_regions = len(bounds) + 1
    # unknown layout: (entire, decaying) per region, trimmed at the ends
    cols = []
    for reg in range(n_regions):
        if reg > 0:
            cols.append((reg, "decay"))
        if reg < n_regions - 1:
            cols.append((reg, "entire"))
    radii = [0.0] + bounds + [math.inf]
    anchors = [min(hi, q) if math.isfinite(hi) else lo for lo, hi in zip(radii[:-1], radii[1:])]
    M = np.zeros((2 * len(bounds), len(cols)), dtype=complex)
    b = np.zeros(2 * len(bounds), dtype=complex)

    def colscale(reg, kind, rho):
        # amplitudes anchored at the region's reference radius
        anchor = anchors[reg]
        return (rho / anchor) ** n if kind == "entire" else (anchor / rho) ** (n + 1)

    for bi, rho in enumerate(bounds):
        for ci, (reg, kind) in enumerate(cols):
            if reg not in (bi, bi + 1):
                continue
            sgn = 1.0 if reg == bi else -1.0
            w = weights[reg]
            s = colscale(reg, kind, rho)
            ent = s if kind == "entire" else 0.0
            dec = s if kind == "decay" else 0.0
            M[2 * bi, ci] += sgn * (ent + dec)
            M[2 * bi + 1, ci] += sgn * w * (mu * (n - 1.0) * ent - mu * (n + 2.0) * dec) / rho
        if abs(rho - q) < 1e-15:
            b[2 * bi + 1] = -1.0  # unit density; jump (outer - inner) = +1
    x, cond, resid, _ = _equilibrated_lstsq(M, b)
    if medium.delta == 0.0 and cond > 1.0 / sing_tol:
        raise ResonantSingularityError(
            f"loss-free interface system singular at degree {n} (condition {cond:.3e})",
            condition=cond,
        )
    regions = []
    for reg in range(n_regions):
        terms: list[Term] = []
        anchor = anchors[reg]
        for ci, (r2, kind) in enumerate(cols):
            if r2 != reg or x[ci] == 0:
                continue
            if kind == "entire":
                terms.append(Term(x[ci] * anchor ** (-n) * gamma, n, n))
            else:
                terms.append(Term(x[ci] * anchor ** (n + 1) * gamma, n, -n - 1))
        regions.append(ModeField(tuple(terms), radii[reg], radii[reg + 1]))
    return ModeSolution(n=n, regions=tuple(regions), condition=cond,
                        lstsq_residual=resid, window=(n,))


def solve_modes(medium: LayeredMedium, source: SourceSpec, tables: DerivativeTable) -> list[ModeSolution]:
    """Solve every degree present in the source."""
    return [solve_mode(medium, source, n, tables) for n in source.degrees()]


def residual_check(solutions: list[ModeSolution], medium: LayeredMedium, source: SourceSpec,
                   quad: SphereQuadrature, tables: DerivativeTable) -> dict[str, float]:
    """Independent verification of a solve: PDE, interfaces, source jump.

    All residuals are relative to the local field scale.  The source jump is
    re-projected with quadrature, independently of the assembly path.
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
            nodes = quad.nodes
            vin = eval_terms(inner.terms, rho * nodes) if inner.terms else np.zeros((len(nodes), 3))
            vout = eval_terms(outer.terms, rho * nodes) if outer.terms else np.zeros((len(nodes), 3))
            scale = max(np.max(np.abs(vin)), np.max(np.abs(vout)), 1e-30)
            report["displacement_jump"] = max(report["displacement_jump"], float(np.max(np.abs(vin - vout)) / scale))
            t_in = traction_coeffs_algebraic(inner.terms, rho, params, tables) if inner.terms else {}
            t_out = traction_coeffs_algebraic(outer.terms, rho, params, tables) if outer.terms else {}
            degs = set(t_in) | set(t_out)
            tscale = max(
                [np.max(np.abs(m)) for m in list(t_in.values()) + list(t_out.values())] + [1e-30]
            )
            for d in degs:
                jump = weights[bi + 1] * t_out.get(d, 0.0) - weights[bi] * t_in.get(d, 0.0)
                expected = gamma if (d == sol.n and abs(rho - source.q) < 1e-14) else 0.0
                mismatch = float(np.max(np.abs(jump - expected)))
                key = "source_jump" if (d == sol.n and abs(rho - source.q) < 1e-14) else "traction_jump"
                report[key] = max(report[key], mismatch / tscale)
    return report
