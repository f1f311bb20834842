"""Reference routes that the tests compare the package against.

``numeric_traction`` and ``fd_lame_residual`` differentiate fields by finite
differences, ``real_terms``/``imag_terms`` split a complex field into the
terms of its real and imaginary parts, and ``dissipation_imaginary`` reads
the dissipation off the imaginary part of the complex-moduli energy.

``HarmonicIndex``/``eval_Y`` read one harmonic at one direction, and
``build_s_matrices`` forms the four degree-n products of two derivative
matrices (two of which vanish identically).

``volumetric_P`` integrates the energy density by radial Gauss-Legendre
panels instead of closed-form power integrals; ``fixed_c_closed_forms`` are
the published branch coefficients of the fixed-multiplier witness.

``grid_self_test_projection`` projects the analytic gradients of degree-n
solid harmonics onto Y_{n-1} and Y_{n+1} on every node of the product rule
with the polar nodes of the degree's band (``_surface_gradient_stack`` gives
the gradients there), the route the polar-node self-test of ``harmonics``
replaced.  ``loop_lower_matrices``/``loop_raise_matrices`` fill the two
ladder families one order m at a time, the builders the vectorised
``harmonics._lower_matrices``/``_raise_matrices`` replaced.

``normalized_legendre_scaled``/``table_sph_harm_stack`` build the whole
``(n+1)^2`` scaled Legendre table and read Y_n off it; ``conj_kernel_matrix``
applies the antiunitary conjugation of kernel matrices as a dense matrix.

``svd_sector_kernels`` finds each family's sector as a null or row space of
the stacked t1/t3 maps by a dense SVD and rotates it to self-conjugate form
through the Gram eigendecomposition of ``waves._realify``, the route the
closed-form sector bases of ``waves.sector_kernels`` replaced.

``term_derivative`` differentiates a term in one direction ``j`` with the
ladder matrix ``[j]``, the route the broadcast ``fields.term_gradient``
replaced; ``per_direction_pairing_P``, ``per_direction_traction_coeffs`` and
``per_direction_lame_residual`` are ``fields.pairing_P``,
``fields.traction_coeffs_algebraic`` and ``point_lame_residual`` built on it,
one direction, one term and one output component at a time.

``eval_terms`` and ``grad_terms`` evaluate a field and its exact gradient at
points (``fields._eval_coefs``); no command evaluates a field at points.
``point_lame_residual`` evaluates the exact second derivatives at points and
divides the residual there by mu times their size (or |u|/r^2), the route
the normwise coefficient residual ``fields.lame_residual`` replaced: the
roundoff of lambda div u counts lambda / mu times in it, and its absolute
floors hide a field whose coefficients are below them.

``quadrature_pairing_P`` and ``quadrature_source_pairing`` take the angular
integrals of the energy pairing and the source pairing on a sphere rule, the
route the coefficient dot products of ``energy`` replaced;
``point_verify_perfect_wave`` and ``quadrature_np_matrix`` compare wave
traces at random interface points and project tractions on a sphere rule
(``fields.traction_coeffs``), the routes the exact coefficient traces of
``waves.verify_perfect_wave`` and ``waves.np_galerkin_spectrum`` replaced;
``pairing_P_pieces`` sums the pairing over a piecewise field.

``toroidal_single_layer`` is the family-1 single layer on a sphere in closed
form, the route of the witnesses' core repair, interface repairs and incident
wave that ``transmission._single_layers`` (unit-sphere sector solves,
scaled) replaced.  ``unit_layer`` is the unit-sphere layer of one key solved
alone, the value ``_single_layers`` keeps for it.

``single_layer_field`` is the Kelvin single layer of a density G Y_n on a
sphere, from the exact radial factors of the Newtonian and distance
kernels (``_scalar_potential_terms``); ``waves.np_galerkin_spectrum``
solves the sector's radial profile instead.  ``dense_np_matrix`` is the
route the sector shapes replaced: one Kelvin single-layer field and one
exact coefficient trace per scalar density e_j Y_n^m, assembled into the
dense Galerkin matrix of K*, whose eigenvalues the tests take with ``eig``.
It assumes nothing about angular-momentum sectors or radial profiles.

``interior_from_displacement``/``interior_from_traction`` are the interior
Dirichlet/Neumann solvers, ``exterior_mode``/``interior_mode`` single blocks
as fields, ``eval_field`` point values of a solve, ``project_source`` the
quadrature expansion of sampled densities, ``kelvin_matrix`` the fundamental
solution at a point and ``dmat`` the derivative matrices looked up by
(source degree, target degree).

``window_solve`` is the matrix route the sector solve replaced: every entry
of every 3(2d+1) coefficient block on the degree window (n-2, n, n+2) is an
unknown, each column costs one ``traction_coeffs_algebraic`` call per
interface it touches, and the whole system goes through one
column-equilibrated least squares.  It assumes nothing about
angular-momentum sectors, which makes it an independent check of the
sector solve.

``matrix_sector_solve`` is the route the square scalar systems replaced: one
column per block of each sector shape in each region, but every entry of
the 3(2d+1) displacement and traction blocks at every interface is a row
(one ``traction_coeffs_algebraic`` call per block and interface), and the
overdetermined but consistent stack goes through one column-equilibrated
least squares.  ``mp_square_solve`` solves the package's square systems as
assembled in double, in 50-digit ``mpmath`` arithmetic; patched in for
``transmission._square_solve`` it gives the reference the refined double
solve is held to, and ``mp_flux_dissipation`` is the dissipation of a
solve from those 50-digit amplitudes by the flux of the radial profiles.

``square_solve_reference`` is ``transmission._square_solve`` through the
public ``np.linalg.solve``, ``inv`` and ``norm`` calls, one system at a
time; the package's solve takes a stack through each ``np.linalg.solve``
and ``np.linalg.cond`` and forms the norms' sums itself, and must agree
with it bit for bit.  ``spectral_condition`` is the SVD condition number
and 2-norm the package's 1-norm condition (``one_norm_condition``) and
row-norm bound replaced; ``seeded_square_systems`` are the random,
Wilkinson and singular systems the solves are compared on.  ``vector_flux``/``vector_solution_pairing`` are the
flux of ``energy.solution_pairings`` with each source read as its coefficient
vector on the sector's 2J + 1 members (one ``np.vdot`` per degree and
sphere) instead of through the Gram matrix of the coefficients.

``dict_flux`` and its ``dict_solution_pairing``/``dict_profile_pairing``
are the route the array flux of ``energy`` replaced: a walk over
{(kind, shape): amplitude} dicts per annulus (``annuli``), each sphere's
scalars summed block by block (``dict_profile_trace``) in Python complex
arithmetic.  ``sector_system`` is the per-entry Python assembly of one
sector system that the stacked assembly of ``transmission`` replaced, its
columns named (region, kind, shape); ``profile_blocks`` is a profile's
arrays read back as {(kind, degree): (power, {degree: displacement},
{degree: traction})}.  ``mp_pairing_P`` is ``fields.pairing_P`` of the
same terms in 50 digits, and ``plain_data`` turns a kept value holding
arrays or profiles into nested Python data that ``==`` compares.

``least_squares_slope`` is the exact rational least-squares slope of log E
on log(1/delta), the logs as ``math.log`` rounds them: the value the
closed-form growth fit of ``scenarios._fit_slope`` rounds, and the one
``np.linalg.lstsq``, the route it replaced, missed by up to 6 ulp.

``exterior_block``/``interior_block`` build the irregular and regular Lame
blocks of one coefficient matrix with their slaved corrections, as terms.

``volume_dissipation`` is the route the flux of ``energy.dissipation_E``
replaced: the terms of all degree solutions are merged per region and
paired by ``fields.pairing_P`` (gradients of a common degree pair, so
solutions two degrees apart must be merged).  ``FieldSolution`` is the
record of the matrix routes, a solve given by its regions alone.
``volume_row`` is a sweep row by these volume routes, the witness bounds
from the pairings of the witness pieces.

``projected_radial_profile`` is the route the closed-form radial profiles of
``transmission._radial_profile`` replaced: the blocks (``block_terms``) of
one sector member and their unit-radius tractions
(``traction_coeffs_algebraic``) are projected on the sector's reference
matrices (``_project``), and so is the ladder round trip.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass
from fractions import Fraction
from math import pi, sqrt
from typing import Iterable, Sequence

import numpy as np

from elastoplasmon.fields import (
    ModeField,
    Term,
    _eval_coefs,
    _family_density,
    _hessian_groups,
    _ladder,
    _radial_integral,
    _tilde_scale,
    _tilde_unscaled,
    _traction_from_grad,
    displacement_coeffs,
    gradient_groups,
    kernel_basis,
    pairing_P,
    t1_vector,
    t3_vector,
    traction_coeffs,
    traction_coeffs_algebraic,
)
from elastoplasmon.harmonics import (
    DerivativeTable,
    SphereQuadrature,
    _band_size,
    build_quadrature,
    ensure_tables,
    shared_quadrature,
    sph_harm_stack,
)
from elastoplasmon.lame import LameParams, SectorCheckError, mode_constants
from elastoplasmon.transmission import (
    LayeredMedium,
    ResonantSingularityError,
    SourceSpec,
    UnconvergedSolveError,
    _RadialProfile,
    _profile_from_blocks,
    _region_blocks,
    _ok,
    _radial_profile,
    _region_layout,
    _solve_systems,
    _square_solve,
)
from elastoplasmon.waves import PerfectWave, _realify, _unvec, sector_kernels


def _k0(params: LameParams) -> float:
    """k_n continued to n = 0 (the monopole block), as the radial profiles form it."""
    return (params.lam + params.mu) / (2.0 * (2 * params.lam + 5 * params.mu))


def exterior_block(G: np.ndarray, n: int, params: LameParams, tables: DerivativeTable) -> tuple[Term, ...]:
    """Irregular degree-n block with its slaved degree-(n+2) correction k_n [t1 . raise_] r^{-n-1} Y_{n+2}."""
    G = np.asarray(G, dtype=complex)
    terms = [Term(G, n, -n - 1)]
    t1 = t1_vector(G, n)
    if np.max(np.abs(t1)) > 1e-13 * max(np.max(np.abs(G)), 1e-300):
        k_n = mode_constants(params, max(n, 1)).k_n if n >= 1 else _k0(params)
        terms.append(Term(k_n * (t1 @ tables.raise_[n + 1]), n + 2, -n - 1))
    return tuple(terms)


def interior_block(G: np.ndarray, n: int, params: LameParams, tables: DerivativeTable) -> tuple[Term, ...]:
    """Regular degree-n block with its slaved degree-(n-2) correction -M_n [t3 . lower] r^n Y_{n-2}."""
    G = np.asarray(G, dtype=complex)
    terms = [Term(G, n, n)]
    if n >= 2:
        t3 = t3_vector(G, n)
        if np.max(np.abs(t3)) > 1e-13 * max(np.max(np.abs(G)), 1e-300):
            M_n = mode_constants(params, n).M_n
            terms.append(Term(-M_n * (t3 @ tables.lower[n - 1]), n - 2, n))
    return tuple(terms)


@dataclass(frozen=True)
class FieldSolution:
    """A solve given by its regions: the record of the matrix routes."""

    n: int
    regions: tuple[ModeField, ...]
    condition: float = math.nan
    lstsq_residual: float = math.nan
    window: tuple[int, ...] = ()


def volume_dissipation(solutions, medium: LayeredMedium) -> float:
    """Dissipation (delta/2) P(u, u) by the volume pairing of the terms merged per region."""
    if medium.delta <= 0:
        raise ValueError("dissipation needs delta > 0")
    merged: dict[tuple[float, float], list] = {}
    for sol in solutions:
        for reg in sol.regions:
            merged.setdefault((reg.r_lo, reg.r_hi), []).extend(reg.terms)
    return sum(0.5 * medium.delta * float(np.real(pairing_P(terms, terms, *key, medium.base)))
               for key, terms in merged.items() if terms)


def volume_row(configuration, delta: float) -> tuple[float, float | None, float | None]:
    """(E_delta, I_upper, J_lower) of one sweep row by the volume routes.

    E is :func:`volume_dissipation` of the solve; I is ``functional_I`` of
    the pieces each applicable primal witness returns (the tighter one), and
    J is C0^2 / (4 denominator) with C0 the source pairing and the
    denominator the energies of the dual witness's pieces, its amplitude
    divided out; a witness that raises leaves its bound None.
    """
    from elastoplasmon.fields import (functional_I, source_pairing, witness_core_resonant, witness_fixed_c,
                                      witness_nocore, witness_radial_nonresonant)
    from elastoplasmon.transmission import solve_modes
    from elastoplasmon.waves import plasmon_constants

    med, src = configuration(delta)
    params = med.base
    E = volume_dissipation(solve_modes(med, src), med)

    def energy(pieces):
        return sum(float(np.real(pairing_P(p.terms, p.terms, p.r_lo, p.r_hi, params))) for p in pieces)

    I_values, J = [], None
    if med.core_radius is not None:
        try:
            I_values.append(functional_I(witness_fixed_c(med, src)[0], None, delta, params))
        except (ValueError, ArithmeticError):
            pass
        if (math.isclose(med.c, plasmon_constants(params, max(src.degrees())).zeta1, rel_tol=1e-10)
                and src.q > med.shell_radius**1.5):
            try:
                v, w, _ = witness_radial_nonresonant(med, src, delta)
                I_values.append(functional_I(v, w or None, delta, params))
            except (ValueError, ArithmeticError):
                pass
    # the dual bound C0^2 / (4 denominator) from the pieces at amplitude tau:
    # C0 = g <f_unit, psi / tau>, C_psi = P(psi, psi) / (2 tau^2) and the core
    # repair's P(v, v) delta^2 / tau^2
    mode, gamma = max(src.coefficients.items(), key=lambda kv: abs(kv[1]))
    g = gamma.real if abs(gamma.real) >= abs(gamma.imag) else gamma.imag
    try:
        if med.core_radius is None:
            psi, _, tau = witness_nocore(med, src, delta)
            repair = 0.0
        else:
            v, psi, _, tau = witness_core_resonant(med, src, delta)
            repair = 0.5 * energy(v) * delta / tau**2
        C0 = g * source_pairing(psi, SourceSpec(src.q, {mode: 1.0}), params) / tau
        J = C0**2 / (4.0 * (delta * 0.5 * energy(psi) / tau**2 + repair))
    except (ValueError, ArithmeticError):
        pass
    return E, min(I_values, default=None), J


def block_terms(kind: str, d: int, E: np.ndarray, params: LameParams, tables: DerivativeTable) -> tuple[Term, ...]:
    """The ``entire`` (interior) or ``decay`` (exterior) Lame block on E Y_d with its slaved correction."""
    return (interior_block if kind == "entire" else exterior_block)(E, d, params, tables)


def projected_radial_profile(params: LameParams, n: int, fam: int, tables: DerivativeTable) -> _RadialProfile:
    """The radial profile of a sector, projected from one closed-form member.

    The terms and the unit-radius traction of each block on the member K and
    its partner shape are projected on the reference matrices, to a residual
    of at most 1e-11 of the block, else ``SectorCheckError``.
    """
    K = sector_kernels(n, fam)[0]
    refs = {n: K}
    if fam != 1:
        d2 = n - 2 if fam == 2 else n + 2
        refs[d2] = _ladder(K, n, fam == 3)
    blocks = {}
    for d, ref in refs.items():
        for kind in ("entire", "decay"):
            terms = block_terms(kind, d, ref, params, tables)
            (p,) = {t.power for t in terms}
            trac = traction_coeffs_algebraic(terms, 1.0, params)
            scale = max(float(np.linalg.norm(m)) for m in [t.coef for t in terms] + list(trac.values()))
            what = f"family-{fam} {kind} block of degree {d}"
            blocks[(kind, d)] = (p, {t.degree: _project(t.coef, refs[t.degree], scale, what) for t in terms},
                                 {dd: _project(m, refs.get(dd), scale, what) for dd, m in trac.items()})
    if fam == 1:
        return _profile_from_blocks((n,), blocks, None)
    back = _ladder(refs[d2], d2, fam == 2)
    kappa = _project(back, K, float(np.linalg.norm(back)), f"family-{fam} ladder round trip")
    if not abs(kappa.imag) <= 1e-13 * abs(kappa):
        raise SectorCheckError(f"family-{fam} ladder round trip is not real (kappa {kappa})")
    return _profile_from_blocks((n, d2), blocks, kappa.real)


def window(n: int, minimal: bool = False) -> tuple[int, ...]:
    """The single degree n, or the coupled window (n-2, n, n+2)."""
    if minimal:
        return (n,)
    return tuple(d for d in (n - 2, n, n + 2) if d >= 0)


def window_system(medium: LayeredMedium, q: float, win: tuple[int, ...], tables: DerivativeTable):
    """Interface matrix with one column per entry of every (region, kind, degree) block.

    Returns the matrix, the blocks, their column offsets, the row offset of
    each degree inside an interface's displacement or traction rows, the row
    count per interface and the interface radii.
    """
    params = medium.base
    bounds, weights = _region_layout(medium, q)
    n_regions = len(bounds) + 1
    blocks: list[tuple[int, str, int]] = []  # (region, kind, degree)
    for reg in range(n_regions):
        kinds = ("entire",) if reg == 0 else ("decay",) if reg == n_regions - 1 else ("entire", "decay")
        for kind in kinds:
            for d in win:
                blocks.append((reg, kind, d))
    sizes = [3 * (2 * d + 1) for (_, _, d) in blocks]
    offs = np.concatenate([[0], np.cumsum(sizes)])
    out_degs = sorted({dd for d in win for dd in (d - 2, d, d + 2) if dd >= 0})
    deg_off = {}
    pos = 0
    for d in out_degs:
        deg_off[d] = pos
        pos += 3 * (2 * d + 1)
    rows_per_iface = pos
    M = np.zeros((2 * rows_per_iface * len(bounds), int(offs[-1])), dtype=complex)

    def put(vecs: dict[int, np.ndarray], row0: int, col: int, sgn: complex):
        for d, mat in vecs.items():
            if d in deg_off:
                M[row0 + deg_off[d]: row0 + deg_off[d] + mat.size, col] += sgn * mat.reshape(-1)

    for bi, rho in enumerate(bounds):
        row_disp = 2 * rows_per_iface * bi
        row_trac = row_disp + rows_per_iface
        traces = {}  # a unit block's traces do not depend on its region
        for blk_idx, (reg, kind, d) in enumerate(blocks):
            if reg not in (bi, bi + 1):
                continue
            sgn = 1.0 if reg == bi else -1.0
            for a in range(sizes[blk_idx]):
                if (kind, d, a) not in traces:
                    E = np.zeros(sizes[blk_idx])
                    E[a] = 1.0
                    terms = block_terms(kind, d, E.reshape(3, 2 * d + 1), params, tables)
                    traces[(kind, d, a)] = (displacement_coeffs(terms, rho),
                                            traction_coeffs_algebraic(terms, rho, params))
                disp, trac = traces[(kind, d, a)]
                put(disp, row_disp, offs[blk_idx] + a, sgn)
                put(trac, row_trac, offs[blk_idx] + a, sgn * weights[reg])
    return M, blocks, offs, deg_off, rows_per_iface, bounds, weights


def window_solve(medium: LayeredMedium, sources: list[SourceSpec], n: int,
                 tables: DerivativeTable) -> list[FieldSolution]:
    """Degree-n solves of several sources on one sphere q, one assembly for all."""
    (q,) = {src.q for src in sources}
    params = medium.base
    tables = ensure_tables(tables, n + 6)
    win = window(n)
    M, blocks, offs, deg_off, rows_per_iface, bounds, weights = window_system(medium, q, win, tables)
    B = np.zeros((M.shape[0], len(sources)), dtype=complex)
    row = 2 * rows_per_iface * (len(bounds) - 1) + rows_per_iface + deg_off[n]  # traction rows at q
    for i, src in enumerate(sources):
        gamma = src.density_matrix(n, params)
        # weighted traction jump (outer - inner) equals the density
        B[row: row + gamma.size, i] = -gamma.reshape(-1)
    col_scale = np.linalg.norm(M, axis=0)
    col_scale[col_scale == 0] = 1.0
    XS, _, _, sv = np.linalg.lstsq(M / col_scale, B, rcond=None)
    cond = float(sv[0] / max(sv[-1], 1e-300))
    radii = [0.0] + bounds + [math.inf]
    out = []
    for xs, b in zip(XS.T, B.T):
        x = xs / col_scale
        resid = float(np.linalg.norm(M @ x - b))
        assert resid <= 1e-10 * (sv[0] * np.linalg.norm(xs) + np.linalg.norm(b)), resid
        regions = []
        for reg in range(len(weights)):
            terms: list[Term] = []
            for blk_idx, (r2, kind, d) in enumerate(blocks):
                E = x[offs[blk_idx]: offs[blk_idx + 1]].reshape(3, 2 * d + 1)
                if r2 == reg and np.max(np.abs(E)) > 0:
                    terms.extend(block_terms(kind, d, E, params, tables))
            regions.append(ModeField(tuple(terms), radii[reg], radii[reg + 1]))
        out.append(FieldSolution(n=n, regions=tuple(regions), condition=cond, lstsq_residual=resid, window=win))
    return out


def interface_singular_values(medium: LayeredMedium, n: int, q: float, tables: DerivativeTable,
                              minimal: bool = False) -> np.ndarray:
    """Singular values of the column-equilibrated window interface matrix."""
    tables = ensure_tables(tables, n + 6)
    M = window_system(medium, q, window(n, minimal), tables)[0]
    col_scale = np.linalg.norm(M, axis=0)
    col_scale[col_scale == 0] = 1.0
    return np.linalg.svd(M / col_scale, compute_uv=False)


def _sector_shapes(gammas: dict[int, np.ndarray], n: int, tables: DerivativeTable) -> list[tuple[int, np.ndarray]]:
    """(degree, coefficient matrix) shapes spanning the sectors of the density.

    Each family's density is one shape at degree n; families 2 and 3 add the
    unique shape of their sector at degree n-2 (through t3) or n+2 (through t1).
    """
    shapes = [(n, g) for _, g in sorted(gammas.items())]
    if 2 in gammas:
        shapes.append((n - 2, t3_vector(gammas[2], n) @ tables.lower[n - 1]))
    if 3 in gammas:
        shapes.append((n + 2, t1_vector(gammas[3], n) @ tables.raise_[n + 1]))
    return shapes


def matrix_sector_system(medium: LayeredMedium, q: float, shapes: list[tuple[int, np.ndarray]],
                         tables: DerivativeTable):
    """Interface matrix over the block terms of every shape in every region.

    Rows are keyed by (interface, displacement/traction, degree), one per
    entry of each 3(2d+1) coefficient block; returns the matrix, the row
    offset of each key, the columns (region, block terms), the interface
    radii and the region weights.
    """
    params = medium.base
    bounds, weights = _region_layout(medium, q)
    n_regions = len(bounds) + 1
    blocks = {(kind, si): block_terms(kind, d, S, params, tables)
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
                                      traction_coeffs_algebraic(terms, rho, params))
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


def matrix_sector_solve(medium: LayeredMedium, source: SourceSpec, n: int, tables: DerivativeTable) -> FieldSolution:
    """Degree-n solve of all families at once by the matrix sector route.

    Every block of every sector shape is one column; the rows are every
    entry of the displacement and weighted-traction blocks at each
    interface, and the overdetermined but consistent stack goes through one
    column-equilibrated least squares.  ``condition`` and ``lstsq_residual``
    are those of that least squares.
    """
    tables = ensure_tables(tables, n + 6)
    gammas = {fam: _family_density(medium.base, n, fam, gam.items()) for fam, gam in source.family_gammas(n).items()}
    M, offsets, cols, bounds, weights = matrix_sector_system(medium, source.q, _sector_shapes(gammas, n, tables), tables)
    b = np.zeros(M.shape[0], dtype=complex)
    gamma = sum(gammas.values())
    row = offsets[(len(bounds) - 1, 1, n)]  # weighted traction jump (outer - inner) at q
    b[row: row + gamma.size] = -gamma.reshape(-1)
    col_scale = np.linalg.norm(M, axis=0)
    col_scale[col_scale == 0] = 1.0
    xs, _, _, sv = np.linalg.lstsq(M / col_scale, b, rcond=None)
    x = xs / col_scale
    resid = float(np.linalg.norm(M @ x - b))
    assert resid <= 1e-10 * (sv[0] * np.linalg.norm(xs) + np.linalg.norm(b)), resid
    radii = [0.0] + bounds + [math.inf]
    regions = []
    for reg in range(len(weights)):
        coefs: dict[tuple[int, int], np.ndarray] = {}
        for xc, (r2, terms) in zip(x, cols):
            if r2 == reg and xc != 0:
                for t in terms:
                    coefs[(t.degree, t.power)] = coefs.get((t.degree, t.power), 0.0) + xc * t.coef
        regions.append(ModeField(tuple(Term(c, d, p) for (d, p), c in coefs.items()), radii[reg], radii[reg + 1]))
    window = tuple(sorted({t.degree for reg in regions for t in reg.terms}))
    return FieldSolution(n=n, regions=tuple(regions), condition=float(sv[0] / max(sv[-1], 1e-300)),
                         lstsq_residual=resid, window=window)


def _mp_lu_solve(M: np.ndarray, b: np.ndarray, dps: int):
    """The solution of M x = b in ``dps`` digits, the entries taken exactly as doubles (mpmath values).

    Rows, then columns, are scaled by powers of two, exactly, before
    ``mpmath.lu_solve``: its pivot test reads a badly scaled system (family
    3 at n = 60) as singular.
    """
    import mpmath

    rows = 2.0 ** -np.round(np.log2(np.max(np.abs(M), axis=1)))
    A = M * rows[:, None]
    cols = 2.0 ** -np.round(np.log2(np.max(np.abs(A), axis=0)))
    A = A * cols
    with mpmath.workdps(dps):
        y = mpmath.lu_solve(mpmath.matrix([[mpmath.mpc(complex(v)) for v in row] for row in A]),
                            mpmath.matrix([mpmath.mpc(complex(v)) for v in b * rows]))
        return [y[i] * mpmath.mpf(float(cols[i])) for i in range(len(b))]


def mp_square_solve(M: np.ndarray, b: np.ndarray, what: list[str], max_condition: list[float],
                    dps: int = 50) -> list:
    """Drop-in for ``transmission._square_solve``: each double system of the stack solved in ``dps`` digits.

    The entries of M and b are taken exactly as doubles, each system is
    solved by :func:`_mp_lu_solve` at ``dps`` decimal digits and the solution
    is rounded to complex doubles.  The condition number, and the error of a
    system refused as singular, are the package's: its solve capped at 0
    refuses every system, the refusal carrying the condition
    (and its message being the one a refusal at the system's own cap has).
    The backward error is that of the rounded solution.
    """
    solved = []
    for Mi, bi, cap, got in zip(M, b, max_condition, _square_solve(M, b, what, [0.0] * len(M))):
        if not isinstance(got, ResonantSingularityError) or got.condition > cap:
            solved.append(got)
            continue
        x = np.array([complex(v) for v in _mp_lu_solve(Mi, bi, dps)])
        berr = float(np.linalg.norm(Mi @ x - bi) / (np.linalg.norm(Mi) * np.linalg.norm(x) + np.linalg.norm(bi)))
        solved.append((x, got.condition, berr))
    return solved


def mp_flux_dissipation(sols, medium: LayeredMedium, dps: int = 50) -> float:
    """Dissipation of superposed ``ModeSolution`` s (or of one) from 50-digit amplitudes, by flux.

    Each sector system is assembled in double as the package assembles it
    and solved by :func:`_mp_lu_solve`.  On every interface sphere each
    shape's displacement and traction are coordinate vectors on the unit
    members of its sector (family 1 at n, or total angular momentum J shared
    by family 2 at n and family 3 at n - 2): the sum over parts of the
    shape's coordinate (1 at the part's degree n, -sqrt(kappa (2n+1)/(2d+1))
    at the partner degree d), the profile scalar and the coefficient vector.
    The flux rho^2 Re <u, t(u)> of each region (outer minus inner sphere) is
    summed in ``dps`` digits from the profile scalars taken exactly as doubles.
    """
    import mpmath

    sols = list(sols) if isinstance(sols, (list, tuple)) else [sols]
    radii = sols[0].radii
    with mpmath.workdps(dps):
        mpf, mpc = mpmath.mpf, mpmath.mpc
        parts = []
        for sol in sols:
            for fam, gammas, prof, _ in sol.sectors:
                M, b, cols = sector_system(*_region_layout(medium, sol.radii[-2]), prof)
                n, J = sol.n, min(prof.degrees) + (fam != 1)
                coords = {d: mpf(1) if d == n else -mpmath.sqrt(mpf(float(prof.kappa)) * (2 * n + 1) / (2 * d + 1))
                          for d in prof.degrees}
                gamma = [mpc(0)] * (2 * J + 1)
                for k, g in gammas:
                    gamma[k - 1] = mpc(complex(g))
                parts.append(((fam == 1, J), prof, coords, gamma, _mp_lu_solve(M, b, dps), cols))
        total = mpf(0)
        for reg in range(len(radii) - 1):
            for rho, sign in ((radii[reg + 1], 1), (radii[reg], -1)):
                if not 0.0 < rho < math.inf:
                    continue
                r = mpf(rho)
                fields: dict = {}
                for key, prof, coords, gamma, x, cols in parts:
                    for d in prof.degrees:
                        u = t = mpc(0)
                        for xc, (r2, kind, shape) in zip(x, cols):
                            p, disp, trac = profile_blocks(prof)[(kind, shape)]
                            if r2 == reg and d in disp:
                                u += xc * mpc(complex(disp[d])) * r**p
                                t += xc * mpc(complex(trac[d])) * r ** (p - 1)
                        U, T = fields.setdefault((key, d), ([mpc(0)] * len(gamma), [mpc(0)] * len(gamma)))
                        for i, g in enumerate(gamma):
                            U[i] += coords[d] * u * g
                            T[i] += coords[d] * t * g
                for U, T in fields.values():
                    total += sign * r**2 * sum(mpmath.re(mpmath.conj(a) * b) for a, b in zip(U, T))
        return float(mpf(float(medium.delta)) / 2 * total)


def equilibrated(M: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(row scales, column scales, A): M with its rows, then its columns, scaled to a largest entry of 1."""
    with np.errstate(over="ignore", invalid="ignore"):
        rows = np.max(np.abs(M), axis=1)
        rows[rows == 0] = 1.0
        A = M / rows[:, None]
        cols = np.max(np.abs(A), axis=0)
        cols[cols == 0] = 1.0
        return rows, cols, A / cols


def one_norm_condition(A: np.ndarray) -> tuple[float, float]:
    """(kappa_1, bound on ||A||_2) of a matrix, as ``transmission._square_solve`` takes them of its scaled matrix.

    kappa_1 = ||A||_1 ||A^-1||_1 with the inverse by ``np.linalg.inv`` (the
    LU of ``gesv``), inf where that LU is exactly singular; the bound is the
    largest row 2-norm, at most ||A||_2."""
    try:
        cond = float(np.linalg.norm(A, 1) * np.linalg.norm(np.linalg.inv(A), 1))
    except np.linalg.LinAlgError:
        cond = math.inf
    return cond, max(float(np.linalg.norm(row)) for row in A)


def spectral_condition(A: np.ndarray) -> tuple[float, float]:
    """(kappa_2, ||A||_2) of a matrix from its singular values, the smallest floored at 1e-300: the SVD route
    that :func:`one_norm_condition` replaced in the package's solve."""
    sv = np.linalg.svd(A, compute_uv=False)
    return float(sv[0] / max(sv[-1], 1e-300)), float(sv[0])


def square_solve_reference(M: np.ndarray, b: np.ndarray, what: str = "interface system",
                           max_condition: float = math.inf,
                           condition=one_norm_condition) -> tuple[np.ndarray, float, float]:
    """``transmission._square_solve`` by the public numpy calls: (x, condition, backward error).

    Rows, then columns, are scaled to a largest entry of 1 (:func:`equilibrated`);
    ``condition`` of the scaled matrix (default :func:`one_norm_condition`)
    gives the condition number and the bound on its 2-norm in the backward
    error, and the scaled system is solved by ``np.linalg.solve`` and refined
    at most 4 times from ``np.clongdouble`` residuals; the same errors are
    raised, numpy's ``LinAlgError`` led by the system's name ``what``.  With
    :func:`spectral_condition` it is the SVD route the package's solve took
    before: the same solution, its own condition and backward error.
    """
    try:
        return _reference_solve(M, b, what, max_condition, condition)
    except np.linalg.LinAlgError as exc:
        raise np.linalg.LinAlgError(f"{what}: {exc}") from None


def _reference_solve(M, b, what, max_condition, condition):
    rows, cols, A = equilibrated(M)
    if not np.isfinite(A).all():
        raise ArithmeticError(f"{what}: equilibrated entries out of the float range")
    cond, norm = condition(A)
    if cond > max_condition:
        raise ResonantSingularityError(f"loss-free {what} singular (condition {cond:.3e})", condition=cond)
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
    berr = resid / (float(norm * np.linalg.norm(x * cols) + np.linalg.norm(b / rows)) or 1e-300)
    if not berr <= 1e-10:
        raise UnconvergedSolveError(f"{what} did not converge (backward error {berr:.3e})")
    return x, cond, berr


def seeded_square_systems() -> list:
    """Random complex systems of sizes 2..12, conditions 1 to 1e15, rows scaled over 16 decades, each solved
    uncapped, capped at 0 (its condition read from the refusal) and capped at 1e9, then a Wilkinson matrix of
    size 100, whose LU growth 2^99 defeats refinement, and an exactly singular one: (M, b, cap) each."""
    rng = np.random.default_rng(20261018)
    cases = []
    for size in (2, 4, 6, 8, 12):
        for log_cond in (0, 6, 12, 15):
            U, _ = np.linalg.qr(rng.normal(size=(size, size)) + 1j * rng.normal(size=(size, size)))
            V, _ = np.linalg.qr(rng.normal(size=(size, size)) + 1j * rng.normal(size=(size, size)))
            M = (U * np.logspace(0, -log_cond, size)) @ V.conj().T * 10.0 ** rng.uniform(-8, 8, size=(size, 1))
            b = rng.normal(size=size) + 1j * rng.normal(size=size)
            cases += [(M, b, math.inf), (M, b, 0.0), (M, b, 1e9)]
    W = (np.eye(100) - np.tril(np.ones((100, 100)), -1)).astype(complex)
    W[:, -1] = 1.0
    return cases + [(W, rng.normal(size=100) + 0j, math.inf),
                    (np.ones((4, 4), dtype=complex), np.ones(4, dtype=complex), math.inf)]


def least_squares_slope(deltas: Sequence[float], values: Sequence[float]) -> Fraction:
    """The exact slope of the least-squares line through (log(1/delta), log E), each log a ``math.log`` float."""
    x = [Fraction(math.log(1.0 / d)) for d in deltas]
    y = [Fraction(math.log(v)) for v in values]
    x_mean, y_mean = sum(x) / len(x), sum(y) / len(y)
    return sum((a - x_mean) * (b - y_mean) for a, b in zip(x, y)) / sum((a - x_mean) ** 2 for a in x)


def plain_data(value):
    """A value as nested Python data (arrays as lists, profiles as their fields), so that == compares it."""
    if isinstance(value, np.ndarray):
        return value.tolist()
    if isinstance(value, tuple):
        return tuple(plain_data(v) for v in value)
    if isinstance(value, _RadialProfile):
        return plain_data(dataclasses.astuple(value))
    return value


def profile_blocks(prof: _RadialProfile) -> dict:
    """{(kind, degree): (power, {degree: displacement}, {degree: traction})} of a profile, nonzero scalars only."""
    D = len(prof.degrees)
    out = {}
    for b, p in enumerate(prof.power):
        kind, d0 = ("entire", "decay")[b // D], prof.degrees[b % D]
        order = [d0] + [d for d in prof.degrees if d != d0]
        disp = dict(zip(prof.degrees, prof.disp[b].tolist()))
        trac = dict(zip(prof.degrees, prof.trac[b].tolist()))
        out[(kind, d0)] = (p, {d: disp[d] for d in order if disp[d] != 0.0}, {d: trac[d] for d in order if trac[d] != 0.0})
    return out


def annuli(prof: _RadialProfile, radii, amps: np.ndarray) -> list[tuple[float, float, dict]]:
    """[(r_lo, r_hi, {(kind, shape): amplitude})] per region of block amplitudes by region (``transmission._region_blocks``)."""
    D, nreg = len(prof.degrees), len(radii) - 1
    names = [(kind, d) for kind in ("entire", "decay") for d in prof.degrees]
    out = []
    for reg in range(nreg):
        blocks = range(2 * D)[_region_blocks(reg, nreg, D)]
        out.append((radii[reg], radii[reg + 1], {names[b]: complex(amps[reg, b]) for b in blocks}))
    return out


def sector_system(bounds: list[float], weights: list[complex], prof: _RadialProfile):
    """Square system of one sector for a unit density, entry by entry: (matrix, right-hand side, columns).

    The unknowns are the amplitudes of the (region, kind, shape) blocks:
    entire in the ball, decaying outside, both in between.  Each interface
    of ``bounds`` has a displacement and a ``weights``-weighted traction row
    per degree of the sector (inner minus outer); the density enters as the
    traction jump at the last one."""
    blocks = profile_blocks(prof)
    k = len(prof.degrees)
    kinds = [("entire",)] + [("entire", "decay")] * (len(bounds) - 1) + [("decay",)]
    cols = [(reg, kind, shape) for reg, ks in enumerate(kinds) for kind in ks for shape in prof.degrees]
    nc = len(cols)
    M = [0j] * (2 * k * len(bounds) * nc)  # row-major, filled as Python scalars
    for ci, (reg, kind, shape) in enumerate(cols):
        p, disp, trac = blocks[(kind, shape)]
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


def dict_profile_trace(prof: _RadialProfile, amplitudes: dict, rho: float) -> dict[int, tuple[complex, complex]]:
    """{degree: (displacement, traction)} scalars on the sphere rho of a sum of the profile's blocks.

    ``amplitudes`` maps (kind, shape) blocks to their amplitudes; the
    traction is that of the base moduli.
    """
    blocks = profile_blocks(prof)
    out: dict[int, tuple[complex, complex]] = {}
    for block, a in amplitudes.items():
        p, disp, trac = blocks[block]
        for d, u in disp.items():
            u0, t0 = out.get(d, (0.0, 0.0))
            out[d] = (u0 + a * u * rho**p, t0 + a * trac.get(d, 0.0) * rho ** (p - 1))
    return out


def dict_flux(parts_by_annulus: dict) -> float:
    """Sum over annuli of P(u, u) by Betti's identity, for fields that solve the Lame system.

    On an annulus P(u, u) is the flux rho^2 Re <u, t(u)> through its outer
    sphere minus its inner one; the flux vanishes at r = 0 and at infinity.
    ``parts_by_annulus[(r_lo, r_hi, sector)]`` lists the sector's parts on the annulus
    as (profile, coordinates, gamma, block amplitudes), gamma the part's
    coefficients {member k: gamma_k}; the angular integral of two parts'
    shapes of degree d is the product of their scalars times the entry
    <gamma_p, gamma_q> of the Gram matrix of the parts' coefficients.
    """
    total = 0.0
    for (r_lo, r_hi, _), parts in parts_by_annulus.items():
        gram = [[sum(g.conjugate() * q[2].get(k, 0.0) for k, g in p[2].items()) for q in parts] for p in parts]
        for rho, sign in ((r_hi, 1.0), (r_lo, -1.0)):
            if not 0.0 < rho < math.inf:
                continue
            traces = [{d: (coords[d] * ud, coords[d] * td) for d, (ud, td) in dict_profile_trace(prof, amps, rho).items()}
                      for prof, coords, _, amps in parts]
            total += sign * rho**2 * sum(
                (g * sum(u.conjugate() * tq[d][1] for d, (u, _) in tp.items() if d in tq)).real
                for row, tp in zip(gram, traces) for g, tq in zip(row, traces))
    return total


def _coordinate_dict(prof: _RadialProfile) -> dict[int, float]:
    return dict(zip(prof.degrees, prof.coords.tolist()))


def dict_profile_pairing(prof: _RadialProfile, pieces: Iterable[tuple[float, float, dict]]) -> float:
    """Re P(u, u) of a unit sector member's field given as (r_lo, r_hi, {(kind, shape): amplitude}) annuli, by ``dict_flux``."""
    coords = _coordinate_dict(prof)
    return dict_flux({(lo, hi, None): [(prof, coords, {1: 1.0}, amps)] for lo, hi, amps in pieces})


def dict_solution_pairing(solutions: Sequence) -> float:
    """Re P(u, u) summed over all regions of the superposed solves, by ``dict_flux``."""
    parts: dict = {}
    for sol in solutions:
        for fam, gammas, prof, amps in sol.sectors:
            J = min(prof.degrees) + (fam != 1)  # total angular momentum: n, n - 1 or n + 1
            coords, gamma = _coordinate_dict(prof), dict(gammas)
            for lo, hi, a in annuli(prof, sol.radii, amps):
                parts.setdefault((lo, hi, (fam == 1, J)), []).append((prof, coords, gamma, a))
    return dict_flux(parts)


def vector_flux(parts_by_annulus: dict) -> float:
    """``dict_flux`` with each part's coefficients a vector on the sector's 2J + 1 members.

    On the sphere rho a part's shape of degree d has the coordinate vector
    ``coordinates[d] * gamma * U_d(rho)`` (traction alike); the parts of an
    annulus are summed as vectors and paired by one ``np.vdot`` per degree.
    """
    total = 0.0
    for (r_lo, r_hi, _), parts in parts_by_annulus.items():
        for rho, sign in ((r_hi, 1.0), (r_lo, -1.0)):
            if not 0.0 < rho < math.inf:
                continue
            u: dict = {}
            t: dict = {}
            for prof, coords, gamma, amplitudes in parts:
                for d, (ud, td) in dict_profile_trace(prof, amplitudes, rho).items():
                    u[d] = u.get(d, 0.0) + (coords[d] * ud) * gamma
                    t[d] = t.get(d, 0.0) + (coords[d] * td) * gamma
            total += sign * rho**2 * sum(float(np.real(np.vdot(u[d], t[d]))) for d in u)
    return total


def vector_solution_pairing(solutions) -> float:
    """A row of ``energy.solution_pairings`` by :func:`vector_flux`: each source a zero-padded vector gamma_k."""
    parts: dict = {}
    for sol in solutions:
        for fam, gammas, prof, amps in sol.sectors:
            J = min(prof.degrees) + (fam != 1)
            gamma = np.zeros(2 * J + 1, dtype=complex)
            for k, g in gammas:
                gamma[k - 1] = g
            for lo, hi, a in annuli(prof, sol.radii, amps):
                parts.setdefault((lo, hi, (fam == 1, J)), []).append((prof, _coordinate_dict(prof), gamma, a))
    return vector_flux(parts)


def conj_terms(terms: Iterable[Term]) -> tuple[Term, ...]:
    """Terms of the complex-conjugate field (conj + order flip with phase)."""
    out = []
    for t in terms:
        d = t.degree
        m = d - np.arange(2 * d + 1)
        flip = np.zeros((2 * d + 1, 2 * d + 1))
        flip[np.arange(2 * d + 1), d + m] = (-1.0) ** m
        out.append(Term(np.conj(t.coef) @ flip, d, t.power))
    return tuple(out)


def real_terms(terms: Iterable[Term]) -> tuple[Term, ...]:
    terms = tuple(terms)
    return tuple(Term(0.5 * t.coef, t.degree, t.power) for t in terms) + tuple(
        Term(0.5 * t.coef, t.degree, t.power) for t in conj_terms(terms)
    )


def imag_terms(terms: Iterable[Term]) -> tuple[Term, ...]:
    terms = tuple(terms)
    return tuple(Term(-0.5j * t.coef, t.degree, t.power) for t in terms) + tuple(
        Term(0.5j * t.coef, t.degree, t.power) for t in conj_terms(terms)
    )


def numeric_traction(field: ModeField, R: float, params: LameParams, quad: SphereQuadrature,
                     degrees: Iterable[int] | None = None, h: float = 1e-5) -> dict[int, np.ndarray]:
    """Finite-difference traction oracle (5-point central differences).

    Independent of the derivative tables; projects onto Y_n by quadrature.
    Raises when the field region does not contain a neighborhood of the
    sphere.
    """
    if not (field.r_lo + 3 * h * R < R < field.r_hi - 3 * h * R):
        raise ValueError("field region does not contain the sphere partial B_R")
    if degrees is None:
        degrees = sorted({d for t in field.terms for d in range(max(t.degree - 2, 0), t.degree + 3)})
    X = R * quad.nodes
    step = h * max(1.0, R)
    grad = np.zeros((X.shape[0], 3, 3), dtype=complex)
    for j in range(3):
        e = np.zeros(3)
        e[j] = step
        grad[:, :, j] = (
            eval_terms(field.terms, X - 2 * e)
            - 8.0 * eval_terms(field.terms, X - e)
            + 8.0 * eval_terms(field.terms, X + e)
            - eval_terms(field.terms, X + 2 * e)
        ) / (12.0 * step)
    trac = _traction_from_grad(grad, quad.nodes, params.lam, params.mu)
    return {d: quad.project(trac, d).T for d in degrees}


def fd_lame_residual(terms: Iterable[Term], params: LameParams, points: np.ndarray,
                     h: float = 2e-3) -> float:
    """Finite-difference oracle of ``point_lame_residual``.

    Fourth-order stencils with step ``h * max(1, r)``, normalized like the
    exact point route; the truncation error grows like (h n)^4 with the degree n.
    """
    lam, mu = params.lam, params.mu
    terms = tuple(terms)
    offsets = (-2, -1, 1, 2)
    wts = np.array([1.0, -8.0, 8.0, -1.0])
    pairs = [(j, k) for j in range(3) for k in range(j + 1, 3)]
    worst = 0.0
    for x in np.atleast_2d(points):
        step = h * max(1.0, float(np.linalg.norm(x)))
        E = np.eye(3) * step
        # the 61-point stencil, one evaluation: the centre, four points along
        # each axis and a 4 x 4 grid in each coordinate plane
        stencil = ([x] + [x + a * E[j] for j in range(3) for a in offsets]
                   + [x + a * E[j] + b * E[k] for j, k in pairs for a in offsets for b in offsets])
        vals = eval_terms(terms, np.array(stencil))
        u0 = vals[0]
        axial = vals[1:13].reshape(3, 4, 3)  # [j, offset, i]
        plane = vals[13:].reshape(3, 4, 4, 3)  # [pair, offset along j, offset along k, i]
        second = np.zeros((3, 3, 3), dtype=complex)  # [i, j, k] = d^2 u_i / dx_j dx_k
        for j in range(3):
            fm2, fm, fp, fp2 = axial[j]
            second[:, j, j] = (-fp2 + 16 * fp - 30 * u0 + 16 * fm - fm2) / (12 * step**2)
        for (j, k), grid in zip(pairs, plane):
            mixed = np.einsum("a,b,abi->i", wts, wts, grid) / (12.0 * step) ** 2
            second[:, j, k] = mixed
            second[:, k, j] = mixed
        lap = second[:, 0, 0] + second[:, 1, 1] + second[:, 2, 2]
        graddiv = np.array([second[0, 0, i] + second[1, 1, i] + second[2, 2, i] for i in range(3)])
        res = mu * lap + (lam + mu) * graddiv
        r2 = max(float(np.dot(x, x)), 1e-30)
        scale = abs(mu) * max(3.0 * np.max(np.abs(second)), np.max(np.abs(u0)) / r2, 1e-30)
        worst = max(worst, float(np.max(np.abs(res)) / scale))
    return worst


def eval_terms(terms: Iterable[Term], x: np.ndarray) -> np.ndarray:
    """Field values; x of shape (3,) or (N, 3), output (3,) or (N, 3)."""
    single = x.ndim == 1
    out = _eval_coefs((((t.degree, t.power), t.coef) for t in terms), np.atleast_2d(x), (3,))
    return out[0] if single else out


def grad_terms(terms: Iterable[Term], x: np.ndarray) -> np.ndarray:
    """Exact gradient; output (..., 3, 3) with [i, j] = d u_i / d x_j."""
    single = x.ndim == 1
    out = np.swapaxes(_eval_coefs(gradient_groups(terms).items(), np.atleast_2d(x), (3, 3)), 1, 2)
    return out[0] if single else out


def point_lame_residual(terms: Iterable[Term], params: LameParams, points: np.ndarray) -> float:
    """Relative residual of mu Lap u + (lam+mu) grad div u at the points.

    Every second derivative is formed exactly by the term algebra and
    evaluated at the points; the residual is normalized by the larger of
    3 max|second derivatives| and |u|/r^2, so the bound is meaningful across
    degrees and radii.
    """
    terms = tuple(terms)
    X = np.atleast_2d(points)
    second = _eval_coefs(_hessian_groups(terms).items(), X, (3, 3, 3))  # [., k, j, i] = d^2 u_i / dx_j dx_k
    lap = np.einsum("njji->ni", second)
    graddiv = np.einsum("nijj->ni", second)
    res = params.mu * lap + (params.lam + params.mu) * graddiv
    r2 = np.maximum(np.sum(X * X, axis=1), 1e-30)
    u_scale = np.max(np.abs(eval_terms(terms, X)), axis=1) / r2
    scale = abs(params.mu) * np.maximum(np.maximum(3.0 * np.max(np.abs(second), axis=(1, 2, 3)), u_scale), 1e-30)
    return float(np.max(np.max(np.abs(res), axis=1) / scale))


def dissipation_imaginary(solutions, medium: LayeredMedium) -> float:
    """Dissipation as (1/2) Im of the complex-moduli energy, region by region.

    Merges the terms of all degree solutions per region like
    ``volume_dissipation`` and weights each region's pairing with its
    complex modulus factor A + i delta.
    """
    merged: dict[tuple[float, float], list] = {}
    weights: dict[tuple[float, float], complex] = {}
    for sol in solutions:
        q = sol.regions[-1].r_lo  # the outermost region starts at the source sphere
        for reg, w in zip(sol.regions, _region_layout(medium, q)[1]):
            merged.setdefault((reg.r_lo, reg.r_hi), []).extend(reg.terms)
            weights[(reg.r_lo, reg.r_hi)] = w
    return sum(0.5 * float(np.imag(weights[key] * pairing_P(terms, terms, *key, medium.base)))
               for key, terms in merged.items() if terms)


@dataclass(frozen=True)
class HarmonicIndex:
    """Degree/order pair with the stacking convention m = n, n-1, ..., -n."""

    degree: int
    order: int

    def __post_init__(self):
        if self.degree < 0 or abs(self.order) > self.degree:
            raise ValueError(f"invalid harmonic index (n={self.degree}, m={self.order})")

    @property
    def position(self) -> int:
        """Row of this order inside the stacked vector of its degree."""
        return self.degree - self.order


def eval_Y(idx: HarmonicIndex, direction: np.ndarray) -> complex:
    """Single orthonormal harmonic value at a unit direction.

    Raises ``ValueError`` when the direction is not normalized to 1e-12.
    """
    direction = np.asarray(direction, dtype=float)
    if abs(np.linalg.norm(direction) - 1.0) > 1e-12:
        raise ValueError("direction must be a unit vector")
    return complex(sph_harm_stack(idx.degree, direction)[idx.position])


@dataclass(frozen=True)
class SMatrixSet:
    """The four degree-n products of two derivative matrices."""

    n: int
    s3: np.ndarray  # (2n+3, 2n-1), vanishes identically (Laplacian of a harmonic)
    s4: np.ndarray  # (2n-1, 2n-1)
    s5: np.ndarray  # (2n-1, 2n+3), vanishes identically
    s6: np.ndarray  # (2n+3, 2n+3)


def build_s_matrices(n: int, tables: DerivativeTable) -> SMatrixSet:
    """Assemble s3..s6 as sums over j of the stated derivative products."""
    if not (2 <= n <= tables.n_max - 1):
        raise ValueError(f"degree {n} outside table range 2..{tables.n_max - 1}")
    s3 = sum(dmat(tables, n + 1, n, j) @ dmat(tables, n, n - 1, j) for j in range(3))
    s4 = sum(dmat(tables, n - 1, n, j) @ dmat(tables, n, n - 1, j) for j in range(3))
    s5 = sum(dmat(tables, n - 1, n, j) @ dmat(tables, n, n + 1, j) for j in range(3))
    s6 = sum(dmat(tables, n + 1, n, j) @ dmat(tables, n, n + 1, j) for j in range(3))
    return SMatrixSet(n=n, s3=s3, s4=s4, s5=s5, s6=s6)


def volumetric_P(u_pieces: Sequence, params: LameParams, tables: DerivativeTable,
                 r_cut: float = 30.0, n_radial: int = 60) -> tuple[float, float]:
    """Quadrature-in-radius oracle for P(u,u); returns (value, tail bound).

    Radial Gauss-Legendre panels replace the closed-form power integrals on
    each bounded piece (the exterior is truncated at ``r_cut``); the reported
    tail is the closed-form remainder beyond the cut, so value + tail should
    match :func:`pairing_P_pieces` within the panel accuracy.
    """
    total = 0.0
    tail = 0.0
    lam, mu = params.lam, params.mu
    for piece in u_pieces:
        if not piece.terms:
            continue
        dmax = max(t.degree for t in piece.terms)
        tables = ensure_tables(tables, dmax + 2)
        quad = shared_quadrature(2 * dmax + 6)
        hi = min(piece.r_hi, r_cut)
        t, wt = np.polynomial.legendre.leggauss(n_radial)
        rr = 0.5 * (piece.r_lo + hi) + 0.5 * (hi - piece.r_lo) * t
        wr = 0.5 * (hi - piece.r_lo) * wt
        for r, w in zip(rr, wr):
            g = grad_terms(piece.terms, r * quad.nodes)
            sym = 0.5 * (g + np.swapaxes(g, 1, 2))
            div = np.trace(g, axis1=1, axis2=2)
            dens = lam * np.abs(div) ** 2 + 2.0 * mu * np.einsum("nij,nij->n", sym, np.conj(sym)).real
            total += w * r**2 * float(np.real(quad.integrate(dens)))
        if math.isinf(piece.r_hi):
            tail += float(np.real(pairing_P(piece.terms, piece.terms, r_cut, math.inf, params)))
    return total, tail


def fixed_c_closed_forms(n: int, c: float, r_e: float, q: float) -> tuple[float, ...]:
    """Published closed forms of e1..e5 (material-free)."""
    e1 = (n - 1 + c * (n + 2)) / (c * (2 * n + 1))
    e2 = (c - 1) * (n - 1) / (c * (2 * n + 1))
    re = r_e ** (2 * n + 1)
    e3 = (-((c - 1) ** 2) * (n**2 + n - 2) + (2 + c * (n - 1) + n) * (n - 1 + c * (n + 2)) * re) / (
        c * (2 * n + 1) ** 2 * re
    )
    e4 = -(c - 1) * (n - 1) * (c * (n + 2) + n - 1) * (re - 1) / (c * (2 * n + 1) ** 2)
    e5 = (
        -(c - 1) * (n - 1) * (n - 1 + c * (n + 2)) * (re - 1)
        + q ** (2 * n + 1) * (-((c - 1) ** 2) * (n**2 + n - 2) / re + (2 + c * (n - 1) + n) * (n - 1 + c * (n + 2)))
    ) / (c * (2 * n + 1) ** 2)
    return (e1, e2, e3, e4, e5)


def _surface_gradient_stack(n: int, nodes: np.ndarray) -> np.ndarray:
    """Cartesian gradient of Y_n on the unit sphere, shape (N, 2n+1, 3).

    Uses the theta/phi ladder, independent of the solid ladders:
    ``dY/dtheta = m cot(theta) Y_n^m + sqrt((n-m)(n+m+1)) e^{-i phi} Y_n^{m+1}``.
    """
    x, y, z = nodes[:, 0], nodes[:, 1], nodes[:, 2]
    st = np.sqrt(np.maximum(1.0 - z**2, 0.0))
    safe = st > 1e-13
    inv_st = np.where(safe, 1.0 / np.where(safe, st, 1.0), 0.0)
    eiphi = np.where(safe, (x + 1j * y) * inv_st, 1.0)
    Y = sph_harm_stack(n, nodes)  # (N, 2n+1)
    dY_dtheta = np.zeros_like(Y)
    dY_dphi = np.zeros_like(Y)
    for m in range(-n, n + 1):
        i = n - m
        term = m * (z * inv_st) * Y[:, i]
        if m + 1 <= n:
            term = term + sqrt((n - m) * (n + m + 1)) * np.conj(eiphi) * Y[:, n - (m + 1)]
        dY_dtheta[:, i] = term
        dY_dphi[:, i] = 1j * m * Y[:, i]
    # unit vectors theta_hat, phi_hat in Cartesian components
    cphi, sphi = np.real(eiphi), np.imag(eiphi)
    theta_hat = np.stack([z * cphi, z * sphi, -st], axis=-1)
    phi_hat = np.stack([-sphi, cphi, np.zeros_like(z)], axis=-1)
    return (dY_dtheta[:, :, None] * theta_hat[:, None, :]
            + (dY_dphi * inv_st[:, None])[:, :, None] * phi_hat[:, None, :])


def grid_self_test_projection(n: int) -> tuple:
    """``harmonics._polar_projection(n)`` on every node of a full product rule.

    The rule is ``build_quadrature(2k - 2)``: the ``k = harmonics._band_size(n)``
    polar nodes of the degree's band times ``2k - 1`` azimuths.  Samples the
    gradients of r^n Y_n and r^{-n-1} Y_n there and projects them onto
    Y_{n-1} and Y_{n+1}, so it assumes no azimuthal selection rule; the nodes
    are taken in blocks to bound the memory at high degree.  Same layout:
    ``(lower, raise_)``, three Cartesian matrices each, ``lower`` None at n = 0.
    """
    quad = build_quadrature(2 * _band_size(n) - 2)
    out = [None if n == 0 else np.zeros((3, 2 * n + 1, 2 * n - 1), dtype=complex),
           np.zeros((3, 2 * n + 1, 2 * n + 3), dtype=complex)]
    for lo in range(0, len(quad.weights), 2048):
        xh, wt = quad.nodes[lo: lo + 2048], quad.weights[lo: lo + 2048]
        Y = sph_harm_stack(n, xh)
        grad = _surface_gradient_stack(n, xh)  # (N, 2n+1, 3)
        for acc, target, radial in ((out[0], n - 1, n), (out[1], n + 1, -(n + 1))):
            if acc is None:
                continue
            wY = wt[:, None] * np.conj(sph_harm_stack(target, xh))  # (N, 2 target + 1)
            for j in range(3):
                acc[j] += (wY.T @ (radial * xh[:, j: j + 1] * Y + grad[:, :, j])).T
    return tuple(out)


def loop_lower_matrices(n: int) -> np.ndarray:
    """Gradient ladder of regular solid harmonics (degree n >= 1), one order m at a time."""
    L = np.zeros((3, 2 * n + 1, 2 * n - 1), dtype=complex)
    s = (2.0 * n + 1.0) / (2.0 * n - 1.0)
    for m in range(-n, n + 1):
        row = n - m
        if abs(m) <= n - 1:
            L[2, row, (n - 1) - m] = sqrt((n + m) * (n - m) * s)
        if abs(m + 1) <= n - 1:
            cp = sqrt((n - m) * (n - m - 1) * s)
            L[0, row, (n - 1) - (m + 1)] += 0.5 * cp
            L[1, row, (n - 1) - (m + 1)] += -0.5j * cp
        if abs(m - 1) <= n - 1:
            cm = -sqrt((n + m) * (n + m - 1) * s)
            L[0, row, (n - 1) - (m - 1)] += 0.5 * cm
            L[1, row, (n - 1) - (m - 1)] += 0.5j * cm
    return L


def loop_raise_matrices(n: int) -> np.ndarray:
    """Gradient ladder of irregular solid harmonics (degree n >= 0), one order m at a time."""
    R = np.zeros((3, 2 * n + 1, 2 * n + 3), dtype=complex)
    s = (2.0 * n + 1.0) / (2.0 * n + 3.0)
    for m in range(-n, n + 1):
        row = n - m
        R[2, row, (n + 1) - m] = -sqrt((n + 1 + m) * (n + 1 - m) * s)
        cp = sqrt((n + 1 + m) * (n + 2 + m) * s)
        R[0, row, (n + 1) - (m + 1)] += 0.5 * cp
        R[1, row, (n + 1) - (m + 1)] += -0.5j * cp
        cm = -sqrt((n + 1 - m) * (n + 2 - m) * s)
        R[0, row, (n + 1) - (m - 1)] += 0.5 * cm
        R[1, row, (n + 1) - (m - 1)] += 0.5j * cm
    return R


def normalized_legendre_scaled(n_max: int, z: np.ndarray) -> np.ndarray:
    """Full scaled associated Legendre table A[n, m] with Y_n^m = A[n,m] (x+iy)^m.

    ``A[n, m] = Pbar_n^m(z) / sin(theta)^m`` for m >= 0, filled column by
    column in Python loops.
    """
    z = np.asarray(z, dtype=float)
    A = np.zeros((n_max + 1, n_max + 1) + z.shape)
    A[0, 0] = 1.0 / sqrt(4.0 * pi)
    for m in range(1, n_max + 1):
        A[m, m] = -sqrt((2 * m + 1) / (2.0 * m)) * A[m - 1, m - 1]
    for m in range(0, n_max):
        A[m + 1, m] = sqrt(2 * m + 3.0) * z * A[m, m]
    for m in range(0, n_max + 1):
        for n in range(m + 2, n_max + 1):
            c1 = sqrt((4.0 * n * n - 1.0) / (n * n - m * m))
            c2 = sqrt(((n - 1.0) ** 2 - m * m) / (4.0 * (n - 1.0) ** 2 - 1.0))
            A[n, m] = c1 * (z * A[n - 1, m] - c2 * A[n - 2, m])
    return A


def table_sph_harm_stack(n: int, xhat: np.ndarray) -> np.ndarray:
    """Stacked Y_n (orders m = n ... -n) read off the full Legendre table."""
    xhat = np.asarray(xhat, dtype=float)
    x, y, z = xhat[..., 0], xhat[..., 1], xhat[..., 2]
    A = normalized_legendre_scaled(n, z)
    u = x + 1j * y
    out = np.zeros(z.shape + (2 * n + 1,), dtype=complex)
    upow = np.ones_like(u)
    for m in range(0, n + 1):
        ym = A[n, m] * upow
        out[..., n - m] = ym
        if m > 0:
            out[..., n + m] = (-1) ** m * np.conj(ym)
        upow = upow * u
    return out


def conj_kernel_matrix(G: np.ndarray) -> np.ndarray:
    """Conjugation of a kernel matrix through the dense order-flip matrix."""
    n = (G.shape[1] - 1) // 2
    m = n - np.arange(2 * n + 1)
    flip = np.zeros((2 * n + 1, 2 * n + 1))
    flip[np.arange(2 * n + 1), n + m] = (-1.0) ** m
    return np.conj(G) @ flip


def svd_sector_kernels(n: int, family: int, tables: DerivativeTable) -> list[np.ndarray]:
    """Self-conjugate orthonormal basis of one family's sector, by SVD.

    J = n-1 (family 2) is the row space of the t3 map, J = n+1 (family 3)
    the row space of the t1 map, and J = n (family 1) their common null
    space.
    """
    t1 = np.hstack([tables.raise_[n][j].T for j in range(3)])  # vec(G) -> t1
    t3 = np.hstack([tables.lower[n][j].T for j in range(3)])  # vec(G) -> t3
    A = {1: np.vstack([t1, t3]), 2: t3, 3: t1}[family]
    rank = {1: 4 * n + 2, 2: 2 * n - 1, 3: 2 * n + 3}[family]
    Vh = np.linalg.svd(A)[2]
    return _realify([_unvec(v.conj(), n) for v in (Vh[rank:] if family == 1 else Vh[:rank])])


def term_derivative(t: Term, j: int, tables: DerivativeTable) -> list[Term]:
    """Exact d/dx_j of a term as new terms (one degree up, one down)."""
    d, p = t.degree, t.power
    out: list[Term] = []
    up = -(p - d) / (2.0 * d + 1.0)
    if up != 0.0:
        out.append(Term(t.coef @ (up * tables.raise_[d][j]), d + 1, p - 1))
    if d >= 1:
        down = (p - d) / (2.0 * d + 1.0) + 1.0
        if down != 0.0:
            out.append(Term(t.coef @ (down * tables.lower[d][j]), d - 1, p - 1))
    return out


def per_direction_pairing_P(u_terms: Iterable[Term], v_terms: Iterable[Term], r_lo: float, r_hi: float,
                            params: LameParams, tables: DerivativeTable) -> complex:
    """``fields.pairing_P`` with each gradient column taken by :func:`term_derivative`."""
    u_terms, v_terms = tuple(u_terms), tuple(v_terms)
    if not u_terms or not v_terms:
        return 0.0
    tables = ensure_tables(tables, max(t.degree for t in u_terms + v_terms) + 2)

    def strains(terms):
        grads: dict[tuple[int, int], np.ndarray] = {}  # (power, degree) -> [i, j] = d u_i / d x_j
        for t in terms:
            for j in range(3):
                for dt in term_derivative(t, j, tables):
                    g = grads.setdefault((dt.power, dt.degree), np.zeros((3, 3, 2 * dt.degree + 1), dtype=complex))
                    g[:, j] += dt.coef
        return [(p, d, np.trace(g), 0.5 * (g + g.transpose(1, 0, 2))) for (p, d), g in grads.items()]

    total = 0.0 + 0.0j
    for p, d, du, eu in strains(u_terms):
        for p2, d2, dv, ev in strains(v_terms):
            if d2 == d:
                ang = params.lam * np.vdot(dv, du) + 2.0 * params.mu * np.vdot(ev, eu)
                total += ang * _radial_integral(p + p2 + 2, r_lo, r_hi)
    return total


def _per_direction_sphere_multiply(row: np.ndarray, g: int, j: int,
                                   tables: DerivativeTable) -> list[tuple[np.ndarray, int]]:
    """Coefficients of xhat_j * (row . Y_g) on the unit sphere."""
    out = [(row @ (-tables.raise_[g][j] / (2.0 * g + 1.0)), g + 1)]
    if g >= 1:
        out.append((row @ (tables.lower[g][j] / (2.0 * g + 1.0)), g - 1))
    return out


def per_direction_traction_coeffs(terms: Iterable[Term], radius: float, params: LameParams,
                                  tables: DerivativeTable) -> dict[int, np.ndarray]:
    """``fields.traction_coeffs_algebraic`` one gradient term and one component at a time."""
    lam, mu = params.lam, params.mu
    grads: dict[tuple[int, int], list[tuple[np.ndarray, int, int]]] = {}
    div: list[tuple[np.ndarray, int, int]] = []
    for t in terms:
        for j in range(3):
            for dt in term_derivative(t, j, tables):
                for i in range(3):
                    grads.setdefault((i, j), []).append((dt.coef[i], dt.degree, dt.power))
                div.append((dt.coef[j], dt.degree, dt.power))
    out: dict[int, np.ndarray] = {}

    def add(i: int, row: np.ndarray, deg: int, w: complex):
        block = out.setdefault(deg, np.zeros((3, 2 * deg + 1), dtype=complex))
        block[i] += w * row

    for row, g, p in div:
        for i in range(3):
            for prow, pg in _per_direction_sphere_multiply(row, g, i, tables):
                add(i, prow, pg, lam * radius**p)
    for (i, j), lst in grads.items():
        for row, g, p in lst:
            # (grad u + grad u^T) nu picks xhat_j for component i and xhat_i for component j
            for prow, pg in _per_direction_sphere_multiply(row, g, j, tables):
                add(i, prow, pg, mu * radius**p)
            for prow, pg in _per_direction_sphere_multiply(row, g, i, tables):
                add(j, prow, pg, mu * radius**p)
    return out


def per_direction_lame_residual(terms: Iterable[Term], params: LameParams, points: np.ndarray,
                                tables: DerivativeTable) -> float:
    """``point_lame_residual`` with each second derivative a term list of its own."""
    terms = tuple(terms)
    tables = ensure_tables(tables, max((t.degree for t in terms), default=0) + 2)
    X = np.atleast_2d(points)
    r = np.linalg.norm(X, axis=1)
    degrees = {d for t in terms for d in (t.degree - 2, t.degree, t.degree + 2) if d >= 0}
    Y = {d: sph_harm_stack(d, X / r[:, None]) for d in degrees}
    second = np.zeros((X.shape[0], 3, 3, 3), dtype=complex)  # [., i, j, k] = d^2 u_i / dx_j dx_k
    for j in range(3):
        for k in range(j, 3):
            for t in terms:
                for d1 in term_derivative(t, k, tables):
                    for d2 in term_derivative(d1, j, tables):
                        second[:, :, j, k] += (Y[d2.degree] @ d2.coef.T) * (r**d2.power)[:, None]
            second[:, :, k, j] = second[:, :, j, k]
    res = params.mu * np.einsum("nijj->ni", second) + (params.lam + params.mu) * np.einsum("njji->ni", second)
    r2 = np.maximum(np.sum(X * X, axis=1), 1e-30)
    u_scale = np.max(np.abs(eval_terms(terms, X)), axis=1) / r2
    scale = abs(params.mu) * np.maximum(np.maximum(3.0 * np.max(np.abs(second), axis=(1, 2, 3)), u_scale), 1e-30)
    return float(np.max(np.max(np.abs(res), axis=1) / scale))


def pairing_P_pieces(u_pieces: Sequence[ModeField], v_pieces: Sequence[ModeField], params: LameParams) -> complex:
    """P for piecewise fields on a common region split."""
    total = 0.0 + 0.0j
    for pu, pv in zip(u_pieces, v_pieces):
        if (pu.r_lo, pu.r_hi) != (pv.r_lo, pv.r_hi):
            raise ValueError("piecewise fields must share the region split")
        total += pairing_P(pu.terms, pv.terms, pu.r_lo, pu.r_hi, params)
    return total


def _strain_profiles(terms: Iterable[Term], quad: SphereQuadrature,
                     tables: DerivativeTable) -> dict[int, tuple[np.ndarray, np.ndarray]]:
    """Angular strain/divergence profiles at the nodes, grouped by gradient radial power.

    Returns {power p: (sym grad profile (N,3,3), div profile (N,))} where the
    actual gradient at radius r is sum_p r^p * profile_p.
    """
    groups: dict[int, list] = {}
    for t in terms:
        for j in range(3):
            for dt in term_derivative(t, j, tables):
                groups.setdefault(dt.power, []).append((j, dt))
    out = {}
    for p, lst in groups.items():
        grad = np.zeros((len(quad.nodes), 3, 3), dtype=complex)
        for j, dt in lst:
            grad[:, :, j] += quad.harmonics(dt.degree) @ dt.coef.T
        sym = 0.5 * (grad + np.swapaxes(grad, 1, 2))
        div = np.trace(grad, axis1=1, axis2=2)
        out[p] = (sym, div)
    return out


def quadrature_pairing_P(u_terms: Iterable[Term], v_terms: Iterable[Term], r_lo: float, r_hi: float,
                         params: LameParams, tables: DerivativeTable,
                         quad: SphereQuadrature | None = None) -> complex:
    """``fields.pairing_P`` with the angular integrals taken on a sphere rule.

    Pairs of radial powers whose angular integral falls below 1e-13 of its
    scale are dropped as zero by orthogonality (their radial factor may
    diverge).
    """
    u_terms, v_terms = tuple(u_terms), tuple(v_terms)
    if not u_terms or not v_terms:
        return 0.0
    dmax = max(t.degree for t in u_terms + v_terms)
    tables = ensure_tables(tables, dmax + 2)
    if quad is None:
        quad = shared_quadrature(2 * dmax + 6)
    pu = _strain_profiles(u_terms, quad, tables)
    pv = _strain_profiles(v_terms, quad, tables)
    lam, mu = params.lam, params.mu
    total = 0.0 + 0.0j
    for p, (su, du) in pu.items():
        for p2, (sv, dv) in pv.items():
            ang = lam * du * np.conj(dv) + 2.0 * mu * np.einsum("nij,nij->n", su, np.conj(sv))
            ang_int = complex(quad.integrate(ang))
            scale = float(np.max(np.abs(ang))) * 4.0 * math.pi
            if abs(ang_int) <= 1e-13 * max(scale, 1e-300):
                continue
            total += ang_int * _radial_integral(p + p2 + 2, r_lo, r_hi)
    return total


def quadrature_source_pairing(psi_pieces: Sequence[ModeField], source: SourceSpec, params: LameParams,
                              quad: SphereQuadrature) -> float:
    """``fields.source_pairing`` with density and psi sampled on a sphere rule."""
    q = source.q
    nodes = quad.nodes
    fvals = np.zeros((len(nodes), 3), dtype=complex)
    for n in source.degrees():
        gamma = source.density_matrix(n, params)
        fvals += quad.harmonics(n) @ gamma.T
    psi = None
    for piece in psi_pieces:
        if piece.r_lo < q < piece.r_hi or math.isclose(piece.r_hi, q):
            psi = eval_terms(piece.terms, q * nodes)
            break
    if psi is None:
        raise ValueError("no piece of psi covers the source sphere")
    val = q**2 * complex(quad.integrate(np.sum(fvals * psi, axis=1)))
    return float(np.real(val))


def exterior_mode(G: np.ndarray, n: int, params: LameParams, tables: DerivativeTable,
                  r_lo: float = 0.0) -> ModeField:
    """Decaying solution G r^{-n-1} Y_n + correction, valid for r > r_lo."""
    if n < 1:
        raise ValueError("exterior_mode needs degree n >= 1")
    return ModeField(exterior_block(G, n, params, tables), r_lo=r_lo, r_hi=math.inf)


def interior_mode(G: np.ndarray, n: int, params: LameParams, tables: DerivativeTable,
                  r_hi: float = math.inf) -> ModeField:
    """Entire solution G r^n Y_n + correction, valid for r < r_hi."""
    if n < 1:
        raise ValueError("interior_mode needs degree n >= 1")
    return ModeField(interior_block(G, n, params, tables), r_lo=0.0, r_hi=r_hi)


def interior_from_displacement(R: float, boundary: Sequence[tuple[int, np.ndarray]],
                               params: LameParams, tables: DerivativeTable) -> ModeField:
    """Interior Dirichlet solution from per-degree surface displacement data.

    ``boundary`` holds pairs (degree, 3 x (2n+1) coefficient matrix); the trace
    of the result on ``partial B_R`` reproduces the data.  Degree-m data feeds
    a slaved correction at angular degree m-2 through the lowered divergence.
    """
    terms: list[Term] = []
    for m, B in boundary:
        B = np.asarray(B, dtype=complex)
        terms.append(Term(B / R**m, m, m))
        if m >= 2:
            t2 = sum(B[j] @ tables.lower[m][j] for j in range(3))
            if np.max(np.abs(t2)) > 1e-13 * max(np.max(np.abs(B)), 1e-300):
                Mm = mode_constants(params, m).M_n
                corr = t2 @ tables.lower[m - 1]
                terms.append(Term(Mm * R ** (2 - m) * corr, m - 2, m - 2))
                terms.append(Term(-Mm * R ** (-m) * corr, m - 2, m))
    return ModeField(tuple(terms), r_lo=0.0, r_hi=R)


def interior_from_traction(R: float, traction: Sequence[tuple[int, np.ndarray]],
                           params: LameParams, tables: DerivativeTable) -> ModeField:
    """Interior Neumann solution from per-degree surface traction data.

    Degrees below 2 are rejected: the n=1 system is degenerate and unused.
    """
    boundary = []
    for n, Ap in traction:
        if n < 2:
            raise ValueError("interior_from_traction supports degrees n >= 2 only")
        boundary.append((n, _neumann_to_dirichlet(Ap, n, R, params)))
    return interior_from_displacement(R, boundary, params, tables)


def _neumann_to_dirichlet(Ap: np.ndarray, n: int, R: float, params: LameParams) -> np.ndarray:
    """Degree-n traction coefficients -> Dirichlet coefficients (tilde map)."""
    return _tilde_scale(n, R, params) * _tilde_unscaled(Ap, n, params)


def dmat(table: DerivativeTable, src: int, dst: int, j: int) -> np.ndarray:
    """Derivative matrix selected by (source degree, target degree).

    ``dst = src - 1`` selects the regular family, ``dst = src + 1`` the
    irregular one.  ``j`` is 0, 1, 2 for x, y, z.
    """
    if dst == src - 1:
        if not (1 <= src <= table.n_max):
            raise ValueError(f"lower family degree {src} out of range")
        return table.lower[src][j]
    if dst == src + 1:
        if not (0 <= src <= table.n_max):
            raise ValueError(f"raise family degree {src} out of range")
        return table.raise_[src][j]
    raise ValueError(f"no derivative matrix maps degree {src} to {dst}")


def kelvin_matrix(x: np.ndarray, params: LameParams) -> np.ndarray:
    """Matrix fundamental solution of the static system at x != 0."""
    x = np.asarray(x, dtype=float)
    r = float(np.linalg.norm(x))
    if r == 0.0:
        raise ZeroDivisionError("Kelvin matrix is singular at x = 0")
    lam, mu = params.lam, params.mu
    alpha = 0.5 * (1.0 / mu + 1.0 / (2.0 * mu + lam))
    beta = 0.5 * (1.0 / mu - 1.0 / (2.0 * mu + lam))
    return -(alpha / (4 * math.pi)) * np.eye(3) / r - (beta / (4 * math.pi)) * np.outer(x, x) / r**3


def project_source(F_samples: np.ndarray, q: float, quad: SphereQuadrature,
                   params: LameParams, n_max: int) -> tuple[SourceSpec, dict]:
    """Expand nodal samples of a surface density into kernel coefficients.

    ``F_samples`` holds the density at ``q * quad.nodes`` (shape (N, 3)).
    Returns the source description plus a report with the zero-mean residual and the
    Parseval defect.
    """
    if quad.exactness < 2 * n_max:
        raise ValueError("quadrature exactness below 2 n_max")
    mean = quad.integrate(F_samples)
    coeffs = {}
    total = 0.0
    for n in range(2, n_max + 1):
        proj = quad.project(F_samples, n)  # (2n+1, 3)
        for fam in (1, 2, 3):
            for k, K in enumerate(kernel_basis(params, n, fam), start=1):
                g = complex(np.sum(proj.T * np.conj(K)))
                if abs(g) > 1e-14:
                    coeffs[(n, fam, k)] = g
                total += abs(g) ** 2
    norm2 = float(np.real(quad.integrate(np.sum(F_samples * np.conj(F_samples), axis=1))))
    report = {
        "zero_mean_residual": float(np.max(np.abs(mean))),
        "parseval_defect": abs(total - norm2),
        "density_l2": norm2,
    }
    return SourceSpec(q=q, coefficients=coeffs), report


def eval_field(solutions: list, x: np.ndarray, side: str = "outer") -> np.ndarray:
    """Total displacement at x; ``side`` breaks ties on interface spheres."""
    x = np.asarray(x, dtype=float)
    single = x.ndim == 1
    X = x[None, :] if single else x
    out = np.zeros((X.shape[0], 3), dtype=complex)
    r = np.linalg.norm(X, axis=1)
    for sol in solutions:
        for reg in sol.regions:
            if side == "outer":
                mask = (r >= reg.r_lo) & (r < reg.r_hi)
            else:
                mask = (r > reg.r_lo) & (r <= reg.r_hi)
            if np.any(mask):
                out[mask] += eval_terms(reg.terms, X[mask])
    return out[0] if single else out


def point_verify_perfect_wave(wave: PerfectWave, params: LameParams,
                              quad: SphereQuadrature | None = None, n_points: int = 200,
                              seed: int = 0) -> dict[str, float]:
    """The point and quadrature route of ``waves.verify_perfect_wave``.

    Continuity compares both sides' values at ``n_points`` random points of
    the interface; transmission projects the nodal tractions of both sides on
    a ``2n+8`` sphere rule (``fields.traction_coeffs``).  The Lame residuals are
    ``point_lame_residual`` at 24 of the directions on the spheres 0.35 R and
    1.7 R; the t-conditions are those of the package.
    """
    n, R, c = wave.n, wave.R, wave.c
    if quad is None:
        quad = shared_quadrature(2 * n + 8)
    rng = np.random.default_rng(seed)
    dirs = rng.normal(size=(n_points, 3))
    dirs /= np.linalg.norm(dirs, axis=1)[:, None]
    vin = eval_terms(wave.interior.terms, R * dirs)
    vout = eval_terms(wave.exterior.terms, R * dirs)
    scale = max(1.0, float(np.max(np.abs(vin))))
    continuity = float(np.max(np.abs(vin - vout))) / scale
    t_in = traction_coeffs(wave.interior.terms, R, params, quad)
    t_out = traction_coeffs(wave.exterior.terms, R, params, quad)
    tenorm = max(max((float(np.max(np.abs(m))) for m in t_out.values()), default=0.0), 1e-30)
    transmission = max(float(np.max(np.abs(c * t_in.get(d, np.zeros(1)) - t_out.get(d, np.zeros(1)))))
                       for d in set(t_in) | set(t_out)) / tenorm
    return {
        "continuity": continuity,
        "transmission": transmission,
        "lame_interior": point_lame_residual(wave.interior.terms, params, dirs[:24] * (0.35 * R)),
        "lame_exterior": point_lame_residual(wave.exterior.terms, params, dirs[:24] * (1.7 * R)),
        "t1": float(np.max(np.abs(t1_vector(wave.kernel, n)))),
        "t3": float(np.max(np.abs(t3_vector(wave.kernel, n)))),
        "normalization": float(abs(np.sum(wave.kernel * np.conj(wave.kernel)) - 1.0)),
    }


def _project(T: np.ndarray, R: np.ndarray | None, scale: float, what: str) -> complex:
    """Scalar s with T = s R (R = None: T = 0), else :class:`SectorCheckError`."""
    s = 0.0 if R is None else np.vdot(R, T) / np.vdot(R, R)
    resid = float(np.linalg.norm(T - s * R if R is not None else T))
    if not resid <= 1e-11 * scale:
        raise SectorCheckError(f"{what} leaves its sector (projection residual {resid / scale:.3e})")
    return complex(s)


def _scalar_potential_terms(G: np.ndarray, n: int, R: float, kind: str) -> tuple[list[Term], list[Term]]:
    """Single-layer radial factors of 1/|x-y| ('newton') or |x-y| ('dist').

    Returns (inside terms, outside terms) for the densities G[j] Y_n on the
    sphere of radius R, one per row of G; the terms' coefficient rows are
    the potentials of the rows.
    """
    G = np.asarray(G, dtype=complex) * (4.0 * math.pi * R**2 / (2 * n + 1.0))
    if kind == "newton":
        inside = [Term(G / R ** (n + 1), n, n)]
        outside = [Term(G * R**n, n, -n - 1)]
    elif kind == "dist":
        inside = [
            Term(G / ((2 * n + 3.0) * R ** (n + 1)), n, n + 2),
            Term(-G * R ** (1 - n) / (2 * n - 1.0), n, n),
        ]
        outside = [
            Term(G * R ** (n + 2) / (2 * n + 3.0), n, -n - 1),
            Term(-G * R**n / (2 * n - 1.0), n, -n + 1),
        ]
    else:
        raise ValueError(kind)
    return inside, outside


def single_layer_field(G: np.ndarray, n: int, R: float, params: LameParams) -> tuple[ModeField, ModeField]:
    """Exact single-layer potential of the density G Y_n on partial B_R.

    The Kelvin matrix splits into a Newtonian part and second derivatives of
    the distance kernel; both have exact per-degree radial factors, so the
    potential is a finite sum of harmonic terms on either side of the sphere.
    """
    lam, mu = params.lam, params.mu
    alpha = 0.5 * (1.0 / mu + 1.0 / (2.0 * mu + lam))
    beta = 0.5 * (1.0 / mu - 1.0 / (2.0 * mu + lam))
    newt_in, newt_out = _scalar_potential_terms(G, n, R, "newton")
    dist_in, dist_out = _scalar_potential_terms(G, n, R, "dist")

    def build(newt: list[Term], dist: list[Term]) -> list[Term]:
        vec = {(t.degree, t.power): -(alpha + beta) / (4.0 * math.pi) * t.coef for t in newt}
        for (d, p), h in _hessian_groups(dist).items():  # h[i, j, r] = d^2 / dx_j dx_i of row r
            part = beta / (4.0 * math.pi) * np.einsum("ijjm->im", h)
            vec[d, p] = vec[d, p] + part if (d, p) in vec else part
        return [Term(block, d, p) for (d, p), block in sorted(vec.items())]

    inside = ModeField(tuple(build(newt_in, dist_in)), 0.0, R)
    outside = ModeField(tuple(build(newt_out, dist_out)), R, math.inf)
    return inside, outside


def toroidal_single_layer(n: int, rho: float, density: complex, mu: float) -> list[tuple[float, float, dict]]:
    """The family-1 single layer in closed form, the route ``transmission._single_layers`` replaced.

    K r^n inside and K r^(-n-1) outside the sphere rho: continuity
    a rho^n = b rho^(-n-1) and the traction jump (outside minus inside)
    mu [-(n+2) b rho^(-n-2) - (n-1) a rho^(n-1)] = density give
    a = -density / ((2n+1) rho^(n-1) mu), the radial witness's incident wave
    at density gamma, and b = a rho^(2n+1), formed as rho^(n+2) so that it
    stays in range.  Annuli as ``annuli`` reads a layer of ``_single_layers``.
    """
    a = -density / ((2 * n + 1.0) * mu)
    return [(0.0, rho, {("entire", n): a / rho ** (n - 1)}), (rho, math.inf, {("decay", n): a * rho ** (n + 2)})]


def unit_layer(params: LameParams, n: int, fam: int) -> tuple[_RadialProfile, np.ndarray]:
    """The unit-sphere single layer of one key solved alone, one system through ``transmission._solve_systems``:
    (profile, real amplitudes (2, B)), as ``transmission._single_layers.cache`` keeps it."""
    prof = _radial_profile(params, n, fam)
    system = ([1.0], [1.0, 1.0], prof, f"degree-{n} family-{fam} single layer", math.inf)
    return prof, _ok(_solve_systems([system])[0])[0].real


def quadrature_np_matrix(R: float, params: LameParams, n_max: int,
                         quad: SphereQuadrature) -> tuple[np.ndarray, list[tuple[int, int, int]]]:
    """The dense Galerkin matrix of K* by a sphere-rule route.

    Each Kelvin single-layer field's (:func:`single_layer_field`) traction
    is evaluated at the nodes of ``quad`` and projected on every degree up
    to ``n_max`` (``fields.traction_coeffs``); the rule must be exact to
    ``2 n_max + 4``.  Basis entries are
    (component, degree, stack position), in the row and column order.
    """
    if quad.exactness < 2 * n_max + 4:
        raise ValueError("quadrature exactness below 2 n_max + 4")
    basis = _np_basis(n_max)
    degrees = range(1, n_max + 1)
    M = np.zeros((len(basis), len(basis)), dtype=complex)
    for a, (jj, n, pos) in enumerate(basis):
        inside, outside = single_layer_field(_unit_density(jj, n, pos), n, R, params)
        kstar = traction_coeffs(inside.terms + outside.terms, R, params, quad, degrees)
        M[:, a] = 0.5 * np.concatenate([kstar[nb].reshape(-1) for nb in degrees])
    return M, basis


def _np_basis(n_max: int) -> list[tuple[int, int, int]]:
    return [(jj, n, pos) for n in range(1, n_max + 1) for jj in range(3) for pos in range(2 * n + 1)]


def _unit_density(j: int, n: int, pos: int) -> np.ndarray:
    """The density matrix G of e_j Y_n^m, m at stack position ``pos``."""
    G = np.zeros((3, 2 * n + 1))
    G[j, pos] = 1.0
    return G


def dense_np_matrix(R: float, params: LameParams, n_max: int) -> tuple[np.ndarray, list[tuple[int, int, int]]]:
    """The dense Galerkin matrix of K* from exact coefficient traces.

    One column per density e_j Y_n^m, n = 1..n_max: half the
    ``traction_coeffs_algebraic`` of its single layer's inside plus outside
    terms at r = R, rows in the basis order and zero on a degree the trace
    does not reach.  Basis entries are (component, degree, stack position).
    """
    basis = _np_basis(n_max)
    degrees = range(1, n_max + 1)
    M = np.zeros((len(basis), len(basis)), dtype=complex)
    for a, (jj, n, pos) in enumerate(basis):
        inside, outside = single_layer_field(_unit_density(jj, n, pos), n, R, params)
        kstar = traction_coeffs_algebraic(inside.terms + outside.terms, R, params)
        M[:, a] = 0.5 * np.concatenate([kstar[nb].reshape(-1) if nb in kstar else np.zeros(3 * (2 * nb + 1))
                                        for nb in degrees])
    return M, basis


def mp_pairing_P(u_terms, v_terms, r_lo: float, r_hi: float, params: LameParams, dps: int = 50) -> complex:
    """``fields.pairing_P`` of the same terms in ``dps`` digits.

    Every term coefficient, ladder entry and modulus is taken exactly as a
    double; the ladder factors -(p-d)/(2d+1) and (p-d)/(2d+1) + 1 are exact
    rationals.  The gradients (only the ladders' nonzero entries), the
    divergence and symmetric-strain coefficients, their angular products and
    the radial integrals are formed and summed in mpmath.
    """
    import mpmath

    from elastoplasmon.harmonics import lower, raise_

    with mpmath.workdps(dps):
        mpf, mpc = mpmath.mpf, mpmath.mpc

        def strains(terms):
            groups: dict = {}
            for t in terms:
                d, p = t.degree, t.power
                coef = [[mpc(complex(v)) for v in row] for row in t.coef]
                for dd, factor, ladder in ((d + 1, -mpf(p - d) / (2 * d + 1), raise_[d]),
                                           (d - 1, mpf(p - d) / (2 * d + 1) + 1, lower[d] if d >= 1 else None)):
                    if ladder is None or factor == 0:
                        continue
                    g = groups.setdefault((dd, p - 1), [[[mpc(0)] * (2 * dd + 1) for _ in range(3)] for _ in range(3)])
                    for j, m, mm in zip(*np.nonzero(ladder)):
                        entry = factor * mpc(complex(ladder[j, m, mm]))
                        for i in range(3):
                            g[j][i][mm] += coef[i][m] * entry
            return [(p, d, [g[0][0][m] + g[1][1][m] + g[2][2][m] for m in range(2 * d + 1)],
                     [(g[j][i][m] + g[i][j][m]) / 2 for j in range(3) for i in range(3) for m in range(2 * d + 1)])
                    for (d, p), g in groups.items()]

        def radial(s):
            if math.isinf(r_hi):
                return -mpf(r_lo) ** (s + 1) / (s + 1)
            return (mpf(r_hi) ** (s + 1) - (0 if r_lo == 0 else mpf(r_lo) ** (s + 1))) / (s + 1)

        su = strains(u_terms)
        sv = su if v_terms is u_terms else strains(v_terms)
        lam, mu = mpf(params.lam), mpf(params.mu)
        total = mpc(0)
        for p, d, du, eu in su:
            for p2, d2, dv, ev in sv:
                if d2 == d:
                    ang = lam * mpmath.fdot(dv, du, conjugate=True) + 2 * mu * mpmath.fdot(ev, eu, conjugate=True)
                    total += ang * radial(p + p2 + 2)
        return complex(total)
