"""Mode fields of the 3D Lame system: term algebra, the fields of solves and waves, and their checks.

Every field in this package is a finite sum of *harmonic terms*

    u(x) = sum_t  C_t  r^{p_t}  Y_{d_t}(xhat),      C_t of shape (3, 2 d_t + 1),

living on an annulus ``r_lo < r < r_hi``.  The algebra is closed under
differentiation: with the multiplication identity

    xhat_j Y_d = -raise_[d][j]/(2d+1) . Y_{d+1}  +  lower[d][j]/(2d+1) . Y_{d-1}

one derivative of a term produces two terms with the radial power dropped by
one, so :func:`term_gradient` takes all three directions in one broadcast
product ``coef @ ladder`` of the ladders of :mod:`~elastoplasmon.harmonics`,
read by degree.  This gives exact gradients, strains, divergences and
tractions for all mode fields.  Every residual a check reports is formed in
coefficients and normwise (:func:`lame_residual`, :func:`trace_jumps`), so
the roundoff of lambda div u counts once at any lambda / mu and no check
evaluates a field at points; point routes live with the tests as oracles,
and so does :func:`traction_coeffs`, a sphere-rule projection nothing in the
package calls.  A block G Y_n slaves the shapes ``t1 . raise_`` and
``t3 . lower`` two degrees up and down (:func:`t1_vector`, :func:`t3_vector`).

Built on the algebra: the sectors' kernel bases (:func:`kernel_basis`), the
field of a transmission solve (``ModeSolution.regions``) and its check
(:func:`residual_check`), the volume pairing and the functionals I and J,
and the public witness builders, which return the witness fields with the
bounds of :data:`~elastoplasmon.scenarios.WITNESSES`.  Sweep rows and
witness bounds are sector scalars, so ``sweep`` and ``witness`` never load
this module.  The names the benchmark reads from the modules that held them
before are served there by a PEP 562 ``__getattr__``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable, Sequence

import numpy as np

from .harmonics import _legendre_rows, _stack_row, lower, raise_
from .lame import LameParams, SectorCheckError, _once_per_key, mode_constants, plasmon_constants
from .scenarios import _core_bound, _fixed_c_bound, _nocore_bound, _radial_bound, _row_solves
from .transmission import (LayeredMedium, ModeSolution, SourceSpec, UnconvergedSolveError, _check_source_mode, _ok,
                           _radial_profile, _region_blocks, _region_layout)

if TYPE_CHECKING:
    from .harmonics import SphereQuadrature

__all__ = [
    "Term", "ModeField", "t1_vector", "t3_vector", "exterior_traction_coeffs", "displacement_coeffs",
    "traction_coeffs_algebraic", "term_gradient", "gradient_groups", "lame_residual", "trace_jumps", "kernel_basis",
    "residual_check", "pairing_P", "functional_I", "functional_J", "source_pairing", "witness_fixed_c",
    "witness_nocore", "witness_core_resonant", "witness_radial_nonresonant",
]


# ---------------------------------------------------------------------------
# term algebra
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Term:
    """One coefficient block: value = coef @ Y_degree(xhat) * r**power."""

    coef: np.ndarray
    degree: int
    power: int


@dataclass(frozen=True)
class ModeField:
    """One annulus of a piecewise field: a sum of terms on (r_lo, r_hi); r_hi may be inf."""

    terms: tuple[Term, ...]
    r_lo: float
    r_hi: float

    def residual(self, params: LameParams) -> float:
        """:func:`lame_residual` on the annulus' bounding spheres (those of finite positive radius)."""
        return lame_residual(self.terms, params, [(0.0, 0.0, r) for r in (self.r_lo, self.r_hi) if 0 < r < math.inf])


def _eval_coefs(groups: Iterable[tuple[tuple[int, int], np.ndarray]], X: np.ndarray, shape: tuple) -> np.ndarray:
    """Sum of r^p coef . Y_d(xhat) over ((d, p), coef) at the points X (N, 3); coef of shape shape + (2d+1,).

    One Legendre recurrence serves every group; each Y_d equals ``sph_harm_stack(d, xhat)``.
    """
    groups = list(groups)
    r = np.linalg.norm(X, axis=1)
    xhat = X / r[:, None]
    u = xhat[:, 0] + 1j * xhat[:, 1]
    needed = {d for (d, _), _ in groups}
    Y = {d: _stack_row(d, A, u) for d, A in enumerate(_legendre_rows(max(needed, default=0), xhat[:, 2]))
         if d in needed}
    out = np.zeros((X.shape[0], math.prod(shape)), dtype=complex)
    for (d, p), coef in groups:
        out += (Y[d] @ coef.reshape(-1, 2 * d + 1).T) * (r**p)[:, None]
    return out.reshape((X.shape[0],) + shape)


def term_gradient(t: Term) -> list[tuple[int, int, np.ndarray]]:
    """Exact gradient of a term as at most two groups (degree d+-1, power p-1, coef).

    ``coef[j]`` is the d/dx_j coefficient block, rows as in ``t.coef``: for a
    vector term ``coef[j, i]`` holds d u_i / d x_j.  Each group is one
    broadcast product of the coefficients with a stacked ladder.
    """
    d, p = t.degree, t.power
    out = []
    up = -(p - d) / (2.0 * d + 1.0)
    if up != 0.0:
        out.append((d + 1, p - 1, up * (t.coef @ raise_[d])))
    if d >= 1:
        down = (p - d) / (2.0 * d + 1.0) + 1.0
        if down != 0.0:
            out.append((d - 1, p - 1, down * (t.coef @ lower[d])))
    return out


def gradient_groups(terms: Iterable[Term]) -> dict[tuple[int, int], np.ndarray]:
    """The terms' :func:`term_gradient` groups summed by (degree, power)."""
    out: dict[tuple[int, int], np.ndarray] = {}
    for t in terms:
        for d, p, g in term_gradient(t):
            out[d, p] = out[d, p] + g if (d, p) in out else g
    return out


def _hessian_groups(terms: Iterable[Term]) -> dict[tuple[int, int], np.ndarray]:
    """Exact second derivatives summed by (degree, power).

    ``coef[k, j]`` is the d^2/dx_j dx_k coefficient block, rows as in the
    terms' coefficients.
    """
    first = gradient_groups(terms)
    flat = (Term(g.reshape(-1, 2 * d + 1), d, p) for (d, p), g in first.items())
    return {key: h.reshape((3, 3, -1, h.shape[-1])) for key, h in gradient_groups(flat).items()}


# ---------------------------------------------------------------------------
# mode blocks
# ---------------------------------------------------------------------------

def t1_vector(G: np.ndarray, n: int) -> np.ndarray:
    """Divergence coefficients of the irregular block, length 2n+3."""
    return np.einsum("jm,jmk->k", G, raise_[n])


def t3_vector(G: np.ndarray, n: int) -> np.ndarray:
    """Divergence coefficients of the regular block, length 2n-1."""
    return np.einsum("jm,jmk->k", G, lower[n])


def _tilde_scale(n: int, R: float, params: LameParams, c: complex = 1.0) -> complex:
    """Scalar factor of the tilde map; ``c`` folds in the shell multiplier of
    the transmission problem (traction divided by c)."""
    return R / ((n - 1) * c * params.mu)


def _tilde_unscaled(Ap: np.ndarray, n: int, params: LameParams) -> np.ndarray:
    """The radius- and multiplier-free part of the tilde map."""
    Ap = np.asarray(Ap, dtype=complex)
    cst = mode_constants(params, n)
    t4 = t3_vector(Ap, n)
    t5 = t1_vector(Ap, n)
    return Ap + cst.s1_n * (t4 @ raise_[n - 1]) + cst.s2_n * (t5 @ lower[n + 1])


def exterior_traction_coeffs(G: np.ndarray, n: int, R: float, params: LameParams) -> dict[int, np.ndarray]:
    """Closed-form surface traction of one irregular block on partial B_R.

    Returns coefficient matrices keyed by angular degree (n and, when the
    block's t1 is nonzero, n+2).
    """
    G = np.asarray(G, dtype=complex)
    cst = mode_constants(params, n)
    t1 = t1_vector(G, n)
    t3 = t3_vector(G, n) if n >= 1 else None
    mu = params.mu
    main = cst.l_n * (t1 @ lower[n + 1]) + (-n - 2.0) * G
    if n >= 1 and t3 is not None and t3.size:
        main = main + (1.0 / (2 * n + 1.0)) * (t3 @ raise_[n - 1])
    out = {n: main * mu / R ** (n + 2)}
    if np.any(t1):
        m_np2 = mode_constants(params, n + 2).m_n
        out[n + 2] = m_np2 * (t1 @ raise_[n + 1]) * mu / R ** (n + 2)
    return out


# ---------------------------------------------------------------------------
# traces and residuals
# ---------------------------------------------------------------------------

def displacement_coeffs(terms: Iterable[Term], radius: float) -> dict[int, np.ndarray]:
    """Exact per-degree coefficients of the trace on a sphere."""
    out: dict[int, np.ndarray] = {}
    for t in terms:
        block = out.setdefault(t.degree, np.zeros_like(t.coef))
        out[t.degree] = block + t.coef * radius ** t.power
    return out


def _traction_from_grad(grad: np.ndarray, xhat: np.ndarray, lam: float | complex, mu: float | complex) -> np.ndarray:
    """lambda (div u) nu + mu (grad u + grad u^T) nu from nodal gradients."""
    div = np.trace(grad, axis1=-2, axis2=-1)
    sym = grad + np.swapaxes(grad, -2, -1)
    return lam * div[..., None] * xhat + mu * np.einsum("...ij,...j->...i", sym, xhat)


def traction_coeffs(terms: Iterable[Term], radius: float, params: LameParams,
                    quad: SphereQuadrature, degrees: Iterable[int] | None = None) -> dict[int, np.ndarray]:
    """Per-degree traction coefficients via exact nodal gradients projected on ``quad`` (tests only)."""
    terms = tuple(terms)
    if degrees is None:
        degrees = sorted({d for t in terms for d in range(max(t.degree - 2, 0), t.degree + 3)})
    grad = np.swapaxes(_eval_coefs(gradient_groups(terms).items(), radius * quad.nodes, (3, 3)), 1, 2)
    trac = _traction_from_grad(grad, quad.nodes, params.lam, params.mu)
    return {d: quad.project(trac, d).T for d in degrees}


def _sphere_multiply(sigma: np.ndarray, g: int) -> list[tuple[np.ndarray, int]]:
    """Coefficients of sum_k xhat_k (sigma[k] . Y_g) on the unit sphere, by degree g +- 1."""
    out = [((sigma @ raise_[g]).sum(axis=0) * (-1.0 / (2.0 * g + 1.0)), g + 1)]
    if g >= 1:
        out.append(((sigma @ lower[g]).sum(axis=0) / (2.0 * g + 1.0), g - 1))
    return out


def traction_coeffs_algebraic(terms: Iterable[Term], radius: float, params: LameParams) -> dict[int, np.ndarray]:
    """Per-degree traction coefficients by pure matrix algebra (no quadrature).

    The traction is ``sum_k sigma[k, i] xhat_k`` with the symmetric stress
    ``sigma[k, i] = lam div delta_ki + mu (d u_i/d x_k + d u_k/d x_i)``.
    """
    return _traction_from_groups(gradient_groups(terms), radius, params)


def _traction_from_groups(groups: dict[tuple[int, int], np.ndarray], radius: float,
                          params: LameParams) -> dict[int, np.ndarray]:
    """:func:`traction_coeffs_algebraic` from the terms' :func:`gradient_groups`."""
    lam, mu = params.lam, params.mu
    out: dict[int, np.ndarray] = {}
    for (g, p), A in groups.items():  # A[j, i] = d u_i / d x_j
        sigma = mu * (A + A.transpose(1, 0, 2))
        sigma[[0, 1, 2], [0, 1, 2]] += lam * (A[0, 0] + A[1, 1] + A[2, 2])
        for block, deg in _sphere_multiply(radius**p * sigma, g):
            out[deg] = out[deg] + block if deg in out else block
    return out


def _relative(num: float, den: float) -> float:
    """``num / den``; 0 / 0 reads 0, another number over 0 inf and a NaN NaN."""
    return num / den if den else (math.inf if num else 0.0)


def _largest(blocks) -> float:
    """The largest magnitude in any of the arrays (0 for none); a NaN stays NaN."""
    return float(np.max([np.max(np.abs(m)) for m in blocks], initial=0.0))


def lame_residual(terms: Iterable[Term], params: LameParams, points: np.ndarray) -> float:
    """Normwise backward error of mu Lap u + (lam+mu) grad div u = 0, in coefficients.

    Each (degree, power) group h of exact second derivatives is a function
    of its own, so its residual ``mu h[j, j, i] + (lam + mu) h[i, j, j]``
    must vanish.  On each sphere through the points (only their radii are
    read) every group is weighted by r^p, and the largest residual is divided
    by (|mu| + |lam + mu|) times the largest group, so the roundoff of
    lambda div u counts once at any lambda / mu, radius and degree.
    """
    lam, mu = params.lam, params.mu
    radii = np.linalg.norm(np.atleast_2d(points), axis=-1)
    res_w, h_w = np.zeros_like(radii), np.zeros_like(radii)
    for (_, p), h in _hessian_groups(terms).items():  # h[k, j, i] = d^2 u_i / dx_j dx_k
        res = mu * np.einsum("jjim->im", h) + (lam + mu) * np.einsum("ijjm->im", h)
        res_w, h_w = np.maximum(res_w, _largest([res]) * radii**p), np.maximum(h_w, _largest([h]) * radii**p)
    return float(np.max([_relative(a, (abs(mu) + abs(lam + mu)) * b) for a, b in zip(res_w, h_w)]))


def trace_jumps(inner: Iterable[Term], outer: Iterable[Term], rho: float, params: LameParams,
                weights=(1.0, 1.0), density: dict | None = None) -> tuple[dict[int, float], dict[int, float]]:
    """Per-degree jumps (outer minus inner) of the displacement and the weighted traction on the sphere rho.

    ``weights`` multiply the inner and the outer traction, and ``density``
    ({degree: matrix}) is taken off the traction jump.  The displacement
    jump is relative to the largest trace coefficient of either side, the
    traction jump to (|lam| + 2|mu|) max|weight| times the largest gradient
    coefficient of either side on the sphere: the size a traction term,
    lambda div u included, can reach.
    """
    sides, density = (tuple(inner), tuple(outer)), density or {}
    groups = [gradient_groups(s) for s in sides]
    u0, u1 = (displacement_coeffs(s, rho) for s in sides)
    t0, t1 = (_traction_from_groups(g, rho, params) for g in groups)
    u_scale = _largest([*u0.values(), *u1.values()])
    t_scale = (abs(params.lam) + 2.0 * abs(params.mu)) * max(map(abs, weights)) * _largest(
        g * rho**p for side in groups for (_, p), g in side.items())
    return ({d: _relative(_largest([u1.get(d, 0.0) - u0.get(d, 0.0)]), u_scale) for d in u0.keys() | u1.keys()},
            {d: _relative(_largest([weights[1] * t1.get(d, 0.0) - weights[0] * t0.get(d, 0.0) - density.get(d, 0.0)]),
                          t_scale) for d in t0.keys() | t1.keys() | density.keys()})


# ---------------------------------------------------------------------------
# kernels and the fields of solves
# ---------------------------------------------------------------------------

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


def _source_member(params: LameParams, n: int, family: int, k: int) -> np.ndarray:
    """Kernel k of the family at degree n (:func:`kernel_basis`); ValueError unless 1 <= k <= 2J + 1."""
    _check_source_mode(n, family, k)
    return kernel_basis(params, n, family)[k - 1]


def _family_density(params: LameParams, n: int, family: int, gammas) -> np.ndarray:
    """The density sum gamma_k K_k over (k, gamma_k) pairs, K_k member k of the family's sector at degree n."""
    return sum((g * _source_member(params, n, family, k) for k, g in gammas),
               np.zeros((3, 2 * n + 1), dtype=complex))


def _ladder(G: np.ndarray, d: int, up: bool) -> np.ndarray:
    """The shape two degrees up (through t1) or down (through t3) that G Y_d slaves."""
    if up:
        return t1_vector(G, d) @ raise_[d + 1]
    return t3_vector(G, d) @ lower[d - 1]


def _profile_fields(sectors, drop_zero: bool = False) -> list[ModeField]:
    """The fields of profile blocks, one :class:`ModeField` per region.

    ``sectors`` are (profile, {degree: reference matrix}, radii, amplitudes)
    quadruples, ``amplitudes[r]`` the blocks of the region between
    ``radii[r]`` and ``radii[r + 1]`` (:func:`~elastoplasmon.transmission._region_blocks`).  Each
    displacement scalar of a block adds amplitude x scalar x the reference
    matrix of its degree to the term of that degree and the block's power;
    with ``drop_zero`` a block of zero amplitude adds no term (a perfect
    wave's, whose blocks all have amplitudes in the normal float range)."""
    coefs: dict[tuple[float, float], dict[tuple[int, int], np.ndarray]] = {}
    for prof, refs, radii, amps in sectors:
        nreg, D = len(radii) - 1, len(prof.degrees)
        disp = prof.disp.tolist()
        for reg, (lo, hi) in enumerate(zip(radii[:-1], radii[1:])):
            co = coefs.setdefault((lo, hi), {})
            blocks = _region_blocks(reg, nreg, D)
            for b, x in zip(range(blocks.start, blocks.stop), amps[reg, blocks].tolist()):
                if drop_zero and x == 0:
                    continue
                for j in sorted(range(D), key=lambda j: j != b % D):  # the block's own degree first
                    if disp[b][j] != 0.0:
                        key = (prof.degrees[j], prof.power[b])
                        co[key] = co.get(key, 0.0) + (x * disp[b][j]) * refs[prof.degrees[j]]
    return [ModeField(tuple(Term(c, d, p) for (d, p), c in co.items()), lo, hi) for (lo, hi), co in coefs.items()]


def _solution_regions(sol: ModeSolution) -> tuple[ModeField, ...]:
    """``ModeSolution.regions``: one :class:`ModeField` per region of the solve (:func:`_profile_fields`).

    Each family's density G is built from its members
    (:func:`kernel_basis`); its profile's reference matrices are G and
    the partner shape of G.  Raises :class:`~elastoplasmon.transmission.UnconvergedSolveError`
    when a family-2/3 density leaves its sector: the ladder back from its
    partner shape is not kappa G to 1e-10.
    """
    n = sol.n
    sectors = []
    for fam, gammas, prof, amps in sol.sectors:
        G = _family_density(sol.params, n, fam, gammas)
        refs = {n: G}
        if fam != 1:
            d2 = prof.degrees[1]
            refs[d2] = _ladder(G, n, fam == 3)
            stray = np.linalg.norm(_ladder(refs[d2], d2, fam == 2) - prof.kappa * G)
            impurity = float(stray / (abs(prof.kappa) * max(float(np.linalg.norm(G)), 1e-300)))
            if not impurity <= 1e-10:
                raise UnconvergedSolveError(f"family-{fam} density at degree {n} leaves its sector "
                                            f"(backward error {impurity:.3e})")
        sectors.append((prof, refs, sol.radii, amps))
    return tuple(_profile_fields(sectors))


def residual_check(solutions: list[ModeSolution], medium: LayeredMedium, source: SourceSpec) -> dict[str, float]:
    """Independent verification of a solve: PDE, interfaces, source jump.

    Each is the worst of this module's normwise measures: the Lame residual
    of each region (:meth:`ModeField.residual`) and the per-degree jumps at
    each interface (:func:`trace_jumps`), the density taken off on the
    source sphere, the layout's last bound.  A NaN stays NaN.
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


# ---------------------------------------------------------------------------
# volume pairing and the functionals
# ---------------------------------------------------------------------------

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
    """P(u, v) = int [lambda (div u) conj(div v) + 2 mu sym grad u : conj(sym grad v)] over one annulus.

    Evaluated as (angular integral) x (closed-form radial power integral):
    the Y_d^m are orthonormal, so the angular integral of two gradient
    groups is a dot product of their divergence and symmetric-strain
    coefficients when the degrees are equal and zero otherwise.  Improper
    exterior integrals are legal only for decaying strain pairs and raise
    otherwise.
    """
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


# ---------------------------------------------------------------------------
# the public witness builders: the bounds of the WITNESSES cores, with the fields
# ---------------------------------------------------------------------------

def _merge_pieces(list_of_pieces: list[list[ModeField]]) -> list[ModeField]:
    """Fields of several piece lists summed on the union of their bounds, terms in list order."""
    pieces = [p for part in list_of_pieces for p in part]
    bounds = sorted({r for p in pieces for r in (p.r_lo, p.r_hi)})
    return [ModeField(tuple(t for p in pieces if p.r_lo <= lo and hi <= p.r_hi for t in p.terms), lo, hi)
            for lo, hi in zip(bounds[:-1], bounds[1:])]


def _unit_wave(medium: LayeredMedium, n0: int, fam: int, k: int) -> tuple[np.ndarray, list[ModeField]]:
    """Member k of the dominant mode and its unit perfect wave's pieces (built from the member matrix)."""
    from .waves import perfect_wave

    K = _source_member(medium.base, n0, fam, k)
    wave = perfect_wave(K, fam, n0, medium.shell_radius, medium.base)
    return K, [wave.interior, wave.exterior]


def _scaled(pieces: list[ModeField], s: complex) -> list[ModeField]:
    return [ModeField(tuple(Term(s * t.coef, t.degree, t.power) for t in p.terms), p.r_lo, p.r_hi) for p in pieces]


def witness_fixed_c(medium: LayeredMedium, source: SourceSpec) -> tuple[list[ModeField], float, list[ModeSolution]]:
    """Primal witness for the cored fixed-multiplier configuration.

    The witness is the loss-free field v with L_A v = f (and w = 0): the
    transmission solve of the medium at delta = 0, scaled, refined and
    checked like any other.  The source must carry family-1 content only.
    Returns the witness field, the upper bound I(v, 0) at the medium's loss
    (the flux of :func:`~elastoplasmon.energy.solution_pairings`), and the
    loss-free solutions (with their conditions and backward errors).  A
    loss-free system of condition above 1e9 raises
    :class:`~elastoplasmon.transmission.ResonantSingularityError`.
    """
    rows = [(medium, source, medium.delta)]
    I_upper, solutions = _ok(_fixed_c_bound(rows, _row_solves(rows, lossy=False)[1])[0])
    return _merge_pieces([list(sol.regions) for sol in solutions]), I_upper, solutions


def witness_nocore(medium: LayeredMedium, source: SourceSpec, delta: float) -> tuple[list[ModeField], float, float]:
    """Dual witness for the core-free resonant configuration.

    Needs medium.c equal to a plasmon constant of the dominant source mode.
    Returns (psi pieces at the optimal amplitude, J lower bound, tau).
    """
    J_lower, tau, mode = _ok(_nocore_bound([(medium, source, delta)], [[]])[0])
    return _scaled(_unit_wave(medium, *mode)[1], tau), J_lower, tau


def witness_core_resonant(medium: LayeredMedium, source: SourceSpec,
                          delta: float) -> tuple[list[ModeField], list[ModeField], float, float]:
    """Dual witness for the cored scheduled configuration.

    psi is the core-free perfect wave of the scheduled mode; v repairs the
    core interface through an exact per-mode elliptic solve.  Returns
    (v pieces, psi pieces, J lower bound, tau).
    """
    J_lower, tau, (n0, fam, k), v_tilde = _ok(_core_bound([(medium, source, delta)], [[]])[0])
    K, psi_hat = _unit_wave(medium, n0, fam, k)
    v_hat = _profile_fields([(_radial_profile(medium.base, n0, fam), {n0: K}, (0.0, medium.core_radius, math.inf),
                              v_tilde)])
    return _scaled(v_hat, tau / delta), _scaled(psi_hat, tau), J_lower, tau


def witness_radial_nonresonant(medium: LayeredMedium, source: SourceSpec,
                               delta: float) -> tuple[list[ModeField], list[ModeField], float]:
    """Primal witness for the cored scheduled configuration outside R^{3/2}.

    The scheduled mode rides the free incident wave (no scattering); the
    constraint defect at the material interfaces is pushed into w by exact
    per-mode solves.  Off-schedule degrees take the loss-free field of
    :func:`witness_fixed_c`.  Returns (v pieces, w pieces, I upper bound).
    """
    rows = [(medium, source, delta)]
    I_upper, scheduled, off = _ok(_radial_bound(rows, _row_solves(rows, lossy=False)[1])[0])
    a, R, q = medium.core_radius, medium.shell_radius, source.q
    parts = [(_radial_profile(medium.base, n, 1), {n: _source_member(medium.base, n, 1, k)}, v, w)
             for n, k, v, w in scheduled]
    v = _profile_fields([(prof, refs, (0.0, q, math.inf), v) for prof, refs, v, _ in parts])
    w = _profile_fields([(prof, refs, (0.0, a, R, math.inf), w) for prof, refs, _, w in parts])
    return _merge_pieces([v] + [list(sol.regions) for sol in off]), w, I_upper
