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
:func:`~elastoplasmon.lame.mode_constants` once per process and key; a
solve runs no traction algebra), so the interface conditions (displacement
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
    displacement_coeffs,
    lame_residual,
    mode_constants,
    plasmon_constants,
    t1_vector,
    t3_vector,
    traction_coeffs_algebraic,
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


def _norm(v: np.ndarray) -> float:
    """``np.linalg.norm`` of a complex vector, in its own operations: sqrt(re . re + im . im)."""
    return math.sqrt(v.real.dot(v.real) + v.imag.dot(v.imag))


def _raise_singular(err: str, flag: int):
    raise np.linalg.LinAlgError("Singular matrix")


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
    The scaled right side is solved times the power of two that brings its
    largest entry to unit size, which scales exactly: the norms stay in range
    in any unit of the moduli, and a solve whose norms were in range keeps its bits.
    LU calls the LAPACK gufunc of ``np.linalg.solve`` under its error state and
    the norms are ``np.linalg.norm``'s own sums: bit for bit the public calls.
    """
    rows = np.abs(M).max(axis=1)
    rows[rows == 0] = 1.0
    A = M / rows[:, None]
    cols = np.abs(A).max(axis=0)
    cols[cols == 0] = 1.0
    A /= cols
    sv = np.linalg.svd(A, compute_uv=False)
    cond = float(sv[0] / max(sv[-1], 1e-300))
    if cond > max_condition:
        raise ResonantSingularityError(f"loss-free {what} singular (condition {cond:.3e})", condition=cond)
    if b is None:
        return None, cond, 0.0
    scale = math.ldexp(1.0, -math.frexp(float(np.abs(b / rows).max()))[1])
    rhs = b / rows * scale
    M_ext, b_ext = M.astype(np.clongdouble), b.astype(np.clongdouble) * scale
    with np.errstate(call=_raise_singular, invalid="call", over="ignore", divide="ignore", under="ignore"):
        x = _lu_solve(A, rhs, signature="DD->D") / cols
        last = math.inf
        for _ in range(4):
            dx = _lu_solve(A, (b_ext - M_ext @ x).astype(complex) / rows, signature="DD->D") / cols
            step = _norm(dx)
            if step > 0.5 * last:
                break
            x, last = x + dx, step
            if step <= 2.0**-52 * _norm(x):  # eps
                break
        resid = _norm((b_ext - M_ext @ x).astype(complex) / rows)
    berr = resid / (float(sv[0] * _norm(x * cols) + _norm(rhs)) or 1e-300)
    if berr > 1e-10:
        raise UnconvergedSolveError(f"{what} did not converge (backward error {berr:.3e})")
    return x / scale, cond, berr


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
    outside for family 3.  The amplitudes are the sector's kernel check: at
    R the displacements must agree and the traction inside times the
    family's plasmon constant c must equal the one outside, each to 1e-9 of
    the largest, else :class:`SectorCheckError`.  The check runs once per
    process per (lambda, mu, n, family, R); R is taken as a float.
    """
    R = float(R)
    prof = _radial_profile(params, n, fam)
    outer_scale = R ** (2 * n + 1)
    inner, outer = {("entire", n): 1.0}, {("decay", n): outer_scale}
    if fam == 2:
        inner[("entire", n - 2)] = mode_constants(params, n).M_n * R**2
    elif fam == 3:
        outer[("decay", n + 2)] = -mode_constants(params, n).k_n * outer_scale * R**2
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


def sector_conditions(medium: LayeredMedium, n: int, q: float) -> dict[int, float]:
    """Condition number of each family's degree-n square sector system.

    No density enters; a loss-free medium at a plasmon constant makes the
    matching family's system singular.
    """
    layout = _region_layout(medium, q)
    return {fam: _square_solve(_sector_system(*layout, _radial_profile(medium.base, n, fam))[0])[1]
            for fam in (1, 2, 3)}


def solve_mode(medium: LayeredMedium, source: SourceSpec, n: int) -> ModeSolution:
    """Exact transmission solve for the degree-n part of the source.

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
    if n < 2:
        raise ValueError("solve_mode needs n >= 2")
    params = medium.base
    gammas = source.family_gammas(n) or {1: {}}
    max_condition = 1e9 if medium.delta == 0.0 else math.inf
    if medium.delta == 0.0 and set(gammas) != {1}:
        cond = max(sector_conditions(medium, n, source.q).values())
        if cond > max_condition:
            raise ResonantSingularityError(
                f"loss-free interface system singular at degree {n} (condition {cond:.3e})",
                condition=cond,
            )
    bounds, weights = _region_layout(medium, source.q)
    radii = (0.0, *bounds, math.inf)
    sectors, conds, berrs = [], [], []
    for fam, gam in sorted(gammas.items()):
        if gam:
            _wave_amplitudes(params, n, fam, medium.shell_radius)  # the sector's kernel check
        prof = _radial_profile(params, n, fam)
        M, b, cols = _sector_system(bounds, weights, prof)
        x, cond, berr = _square_solve(M, b, f"family-{fam} system at degree {n}", max_condition)
        conds.append(cond)
        berrs.append(berr)
        sectors.append((fam, tuple(gam.items()), prof, _sector_annuli(radii, cols, x)))
    return ModeSolution(n=n, condition=max(conds), lstsq_residual=max(berrs),
                        window=tuple(sorted({d for _, _, prof, _ in sectors for d in prof.degrees})),
                        radii=radii, sectors=tuple(sectors), params=params)


def solve_modes(medium: LayeredMedium, source: SourceSpec) -> list[ModeSolution]:
    """Solve every degree present in the source."""
    return [solve_mode(medium, source, n) for n in source.degrees()]


def residual_check(solutions: list[ModeSolution], medium: LayeredMedium, source: SourceSpec) -> dict[str, float]:
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
        gamma = source.density_matrix(sol.n, params)
        for reg in sol.regions:
            if not reg.terms:
                continue
            lo = reg.r_lo if reg.r_lo > 0 else 0.2 * reg.r_hi
            hi = reg.r_hi if math.isfinite(reg.r_hi) else 3.0 * reg.r_lo
            rads = np.linspace(lo + 0.15 * (hi - lo), hi - 0.15 * (hi - lo), 3)
            dirs = rng.normal(size=(3, 3))
            dirs /= np.linalg.norm(dirs, axis=1)[:, None]
            pts = rads[:, None] * dirs
            report["lame"] = max(report["lame"], lame_residual(reg.terms, params, pts))
        for bi, rho in enumerate(bounds):
            inner, outer = sol.regions[bi], sol.regions[bi + 1]
            u_in = displacement_coeffs(inner.terms, rho)
            u_out = displacement_coeffs(outer.terms, rho)
            scale = max([np.max(np.abs(m)) for m in [*u_in.values(), *u_out.values()]] + [1e-30])
            for d in set(u_in) | set(u_out):
                jump = float(np.max(np.abs(u_in.get(d, 0.0) - u_out.get(d, 0.0))))
                report["displacement_jump"] = max(report["displacement_jump"], jump / scale)
            t_in = traction_coeffs_algebraic(inner.terms, rho, params)
            t_out = traction_coeffs_algebraic(outer.terms, rho, params)
            tscale = max([np.max(np.abs(m)) for m in [*t_in.values(), *t_out.values()]] + [1e-30])
            for d in set(t_in) | set(t_out):
                jump = weights[bi + 1] * t_out.get(d, 0.0) - weights[bi] * t_in.get(d, 0.0)
                expected = gamma if (d == sol.n and abs(rho - source.q) < 1e-14) else 0.0
                mismatch = float(np.max(np.abs(jump - expected)))
                key = "source_jump" if (d == sol.n and abs(rho - source.q) < 1e-14) else "traction_jump"
                report[key] = max(report[key], mismatch / tscale)
    return report
