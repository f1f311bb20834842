"""Plasmon constants, matching-matrix kernels, perfect waves and the
boundary-operator cross-validation."""

import math
from dataclasses import replace

import numpy as np
import pytest

from elastoplasmon.fields import Term, t1_vector, t3_vector
from elastoplasmon.harmonics import build_quadrature, ensure_tables, sph_harm_stack
from elastoplasmon.lame import LameParams
from elastoplasmon.waves import (
    assemble_H,
    kernel_family,
    np_eigenvalue_map,
    np_galerkin_spectrum,
    perfect_wave,
    plasmon_constants,
    plasmon_kernel,
    sector_kernels,
    verify_perfect_wave,
    _conj_kernel,
)
from elastoplasmon import fields, transmission
from oracles import (
    conj_kernel_matrix,
    dense_np_matrix,
    eval_terms,
    grad_terms,
    kelvin_matrix,
    point_verify_perfect_wave,
    quadrature_np_matrix,
    single_layer_field,
    sphere_np_spectrum,
    svd_sector_kernels,
)

MULTIPLICITY = {1: lambda n: 2 * n + 1, 2: lambda n: 2 * n - 1, 3: lambda n: 2 * n + 3}


def test_constants_at_reference_point():
    z = plasmon_constants(LameParams(1.0, 1.0), 2)
    assert z.zeta1 == pytest.approx(-4.0, abs=1e-14)
    assert z.zeta3 == pytest.approx(-0.75, abs=1e-14)
    # the middle constant: the displayed -1.2 is inconsistent with the
    # transmission eigenproblem; the verified value at (1, 1), n=2 is -2
    assert z.zeta2 == pytest.approx(-2.0, abs=1e-14)


def test_constants_negative_for_convex_pairs(materials):
    for params in materials:
        for n in (2, 3, 4, 7):
            assert all(z < 0 for z in plasmon_constants(params, n).as_tuple())


def test_constants_need_degree_two():
    with pytest.raises(ValueError):
        plasmon_constants(LameParams(1.0, 1.0), 1)


def test_H_nonsingular_at_positive_multiplier(tables):
    prob = assemble_H(2, LameParams(1.0, 1.0), 1.0, tables)
    s = prob.singular_values
    assert s[-1] / s[0] > 1e-3


def test_H_rejects_zero_multiplier(tables):
    with pytest.raises(ValueError):
        assemble_H(2, LameParams(1.0, 1.0), 0.0, tables)


def test_null_space_dimensions(tables, materials):
    for params in materials:
        for n in (2, 3, 4):
            z = plasmon_constants(params, n)
            for fam, c in enumerate(z.as_tuple(), start=1):
                prob = assemble_H(n, params, c, tables)
                s = prob.singular_values
                dim = MULTIPLICITY[fam](n)
                null = int(np.sum(s < 1e-9 * s[0]))
                assert null == dim, (params, n, fam)
                # singular value gap separates kernel from the rest
                assert s[-(null + 1)] > 1e-6 * s[0]


def test_min_singular_value_dips_match_closed_forms(tables):
    # scan the multiplier over [-6, -0.1]; dips only at the three constants
    params = LameParams(1.0, 1.0)
    n = 2
    zetas = sorted(plasmon_constants(params, n).as_tuple())
    cs = np.linspace(-6.0, -0.1, 119)
    dips = []
    for c in cs:
        s = assemble_H(n, params, float(c), tables).singular_values
        if s[-1] < 1e-6 * s[0]:
            dips.append(float(c))
    # refine each root bracketing the closed-form values
    for z in zetas:
        lo, hi = z - 0.02, z + 0.02

        def minsv(c):
            s = assemble_H(n, params, float(c), tables).singular_values
            return s[-1] / s[0]

        grid = np.linspace(lo, hi, 81)
        best = grid[int(np.argmin([minsv(c) for c in grid]))]
        assert abs(best - z) / abs(z) < 1e-3
        assert minsv(z) < 1e-12  # exact closed form is a true singularity
    # coarse scan finds no dip away from the closed forms
    for c in dips:
        assert min(abs(c - z) for z in zetas) < 0.06


def test_kernel_extraction_and_t_conditions(tables, materials):
    for params in materials[:2]:
        for n in (2, 3):
            z = plasmon_constants(params, n)
            for fam, c in enumerate(z.as_tuple(), start=1):
                kers = plasmon_kernel(assemble_H(n, params, c, tables))
                assert len(kers) == MULTIPLICITY[fam](n)
                for K in kers:
                    assert kernel_family(K) == fam
                    assert abs(np.sum(K * np.conj(K)) - 1.0) < 1e-12


def test_kernel_error_off_resonance(tables):
    with pytest.raises(ValueError, match="singular value"):
        plasmon_kernel(assemble_H(2, LameParams(1.0, 1.0), -2.5, tables))


def test_cross_family_orthogonality(tables):
    params = LameParams(1.0, 1.0)
    n = 3
    allk = []
    for fam, c in enumerate(plasmon_constants(params, n).as_tuple(), start=1):
        allk += plasmon_kernel(assemble_H(n, params, c, tables))
    V = np.array([k.ravel() for k in allk])
    gram = V @ V.conj().T
    assert V.shape[0] == 3 * (2 * n + 1)
    assert np.max(np.abs(gram - np.eye(len(allk)))) < 1e-10


def test_kernels_generate_real_fields(tables):
    params = LameParams(1.0, 1.0)
    kers = plasmon_kernel(assemble_H(2, params, plasmon_constants(params, 2).zeta1, tables))
    rng = np.random.default_rng(0)
    d = rng.normal(size=(6, 3))
    d /= np.linalg.norm(d, axis=1)[:, None]
    Y = sph_harm_stack(2, d)
    for K in kers:
        assert np.max(np.abs(np.imag(Y @ K.T))) < 1e-12


def test_conj_kernel_matches_flip_matrix():
    rng = np.random.default_rng(2)
    for n in range(0, 12):
        G = rng.normal(size=(3, 2 * n + 1)) + 1j * rng.normal(size=(3, 2 * n + 1))
        assert np.array_equal(_conj_kernel(G), conj_kernel_matrix(G))
        assert np.array_equal(_conj_kernel(np.stack([G, 2 * G])), [conj_kernel_matrix(G), conj_kernel_matrix(2 * G)])


def test_sector_kernels_match_svd_oracle(tables):
    # closed-form sectors span the SVD null/row spaces of the t1/t3 maps
    tables = ensure_tables(tables, 64)
    for n in [*range(2, 42), 64]:
        for fam in (1, 2, 3):
            kers = sector_kernels(n, fam)
            assert len(kers) == MULTIPLICITY[fam](n), (n, fam)
            V = np.array([K.ravel() for K in kers])
            W = np.array([K.ravel() for K in svd_sector_kernels(n, fam, tables)])
            assert np.max(np.abs(V.T @ V.conj() - W.T @ W.conj())) < 1e-13, (n, fam)
            assert np.max(np.abs(V.conj() @ V.T - np.eye(len(kers)))) < 1e-14, (n, fam)
            assert all(np.array_equal(_conj_kernel(K), K) for K in kers), (n, fam)
            assert all(kernel_family(K) == fam for K in kers), (n, fam)


def test_kernel_independence_of_radius(tables):
    params = LameParams(2.0, 0.5)
    z = plasmon_constants(params, 2).zeta3
    k1 = plasmon_kernel(assemble_H(2, params, z, tables, R=1.0))
    k2 = plasmon_kernel(assemble_H(2, params, z, tables, R=2.0))
    V1 = np.array([k.ravel() for k in k1])
    V2 = np.array([k.ravel() for k in k2])
    # spans agree: projection of one basis onto the other is unitary
    M = V1 @ V2.conj().T
    assert np.max(np.abs(M @ M.conj().T - np.eye(len(k1)))) < 1e-9


def test_perfect_waves_full_invariants(tables, materials):
    tol = {"continuity": 1e-9, "transmission": 1e-8, "lame": 1e-6}
    for params in materials[:2]:
        for n in (2, 3):
            z = plasmon_constants(params, n)
            for fam, c in enumerate(z.as_tuple(), start=1):
                kers = plasmon_kernel(assemble_H(n, params, c, tables))
                for K in kers[:2]:
                    w = perfect_wave(K, fam, n, 1.3, params, tables)
                    rep = verify_perfect_wave(w, params)
                    assert rep["continuity"] < tol["continuity"]
                    assert rep["transmission"] < tol["transmission"]
                    assert max(rep["lame_interior"], rep["lame_exterior"]) < tol["lame"]
                    assert rep["normalization"] < 1e-10
                    if fam == 1:
                        assert rep["t1"] < 1e-9 and rep["t3"] < 1e-9
                    elif fam == 2:
                        assert rep["t1"] < 1e-9 and rep["t3"] > 1e-6
                    else:
                        assert rep["t1"] > 1e-6 and rep["t3"] < 1e-9


def test_family1_exterior_is_pure_multipole(tables):
    params = LameParams(1.0, 1.0)
    z = plasmon_constants(params, 2)
    K = plasmon_kernel(assemble_H(2, params, z.zeta1, tables))[0]
    w = perfect_wave(K, 1, 2, 1.5, params, tables)
    assert len(w.exterior.terms) == 1
    assert w.exterior.terms[0].power == -3
    assert np.max(np.abs(w.exterior.terms[0].coef - K * 1.5**5)) < 1e-12


def test_perfect_wave_continuity_at_random_points(tables):
    params = LameParams(1.0, 1.0)
    z = plasmon_constants(params, 3)
    K = plasmon_kernel(assemble_H(3, params, z.zeta2, tables))[0]
    w = perfect_wave(K, 2, 3, 1.1, params, tables)
    rng = np.random.default_rng(1)
    d = rng.normal(size=(200, 3))
    d /= np.linalg.norm(d, axis=1)[:, None]
    vin = eval_terms(w.interior.terms, 1.1 * d)
    vout = eval_terms(w.exterior.terms, 1.1 * d)
    assert np.max(np.abs(vin - vout)) < 1e-9


def test_np_eigenvalue_map_values():
    assert np_eigenvalue_map(-1.0) == 0.0
    assert np_eigenvalue_map(-4.0) == pytest.approx(0.3, abs=1e-15)
    assert np_eigenvalue_map(-1e9) == pytest.approx(0.5, abs=1e-8)
    with pytest.raises(ZeroDivisionError):
        np_eigenvalue_map(1.0)


def test_kelvin_matrix_properties():
    params = LameParams(1.0, 1.0)
    x = np.array([0.3, -0.7, 0.2])
    K = kelvin_matrix(x, params)
    assert np.max(np.abs(K - K.T)) == 0.0
    assert np.max(np.abs(kelvin_matrix(2 * x, params) - K / 2)) < 1e-14
    # alpha, beta at (1, 1): 2/3 and 1/3
    r = np.linalg.norm(x)
    diag_part = -2.0 / 3.0 / (4 * math.pi) / r
    offdiag = K[0, 1]
    assert offdiag == pytest.approx(-(1.0 / 3.0) / (4 * math.pi) * x[0] * x[1] / r**3, abs=1e-15)
    assert K[0, 0] == pytest.approx(diag_part - (1.0 / 3.0) / (4 * math.pi) * x[0] ** 2 / r**3, abs=1e-15)
    with pytest.raises(ZeroDivisionError):
        kelvin_matrix(np.zeros(3), params)


def test_single_layer_jump_relation(tables):
    # traction jump across the surface reproduces the density; continuity holds
    params = LameParams(1.0, 1.0)
    quad = build_quadrature(16)
    R = 1.0
    G = np.zeros((3, 5))
    G[0, 1] = 1.0
    inside, outside = single_layer_field(G, 2, R, params)
    from elastoplasmon.fields import _traction_from_grad

    ti = _traction_from_grad(grad_terms(inside.terms, R * quad.nodes), quad.nodes, params.lam, params.mu)
    to = _traction_from_grad(grad_terms(outside.terms, R * quad.nodes), quad.nodes, params.lam, params.mu)
    dens = np.zeros_like(ti)
    dens[:, 0] = quad.harmonics(2)[:, 1]
    assert np.max(np.abs((to - ti) - dens)) < 1e-12
    vi = eval_terms(inside.terms, R * quad.nodes)
    vo = eval_terms(outside.terms, R * quad.nodes)
    assert np.max(np.abs(vi - vo)) < 1e-12


@pytest.fixture(scope="module")
def np_spectrum():
    return np_galerkin_spectrum(LameParams(1.0, 1.0), 5)


def test_np_spectrum_contains_mapped_constants(np_spectrum, tables):
    # the traces are exact, so every constant is matched to rounding
    eigs = np.array([e for e, _ in np_spectrum])
    params = LameParams(1.0, 1.0)
    for n in range(2, 6):
        for c in plasmon_constants(params, n).as_tuple():
            target = np_eigenvalue_map(c)
            assert np.min(np.abs(eigs - target)) < 1e-10, (n, c, target)


def test_np_spectrum_within_half(np_spectrum):
    # K* maps densities whose single layer is a rigid rotation inside to half
    # themselves: the three degree-1 toroidal modes sit at exactly 1/2
    eigs = np.array([e for e, _ in np_spectrum])
    rigid = [(e, d) for e, d in np_spectrum if abs(e - 0.5) < 1e-12]
    assert len(rigid) == 3 and all(d == 1 for _, d in rigid)
    rest = eigs[np.abs(eigs - 0.5) >= 1e-12]
    assert np.all(rest > -0.5) and np.all(rest < 0.5)


def test_np_spectrum_scale_invariance(tables):
    # the layers solved on spheres of radius 1 and 2 have one spectrum, and
    # scaling both moduli leaves it as it is
    params = LameParams(1.0, 1.0)
    s = np.array([e for e, _ in np_galerkin_spectrum(params, 3)])
    for R in (1.0, 2.0):
        on_R = np.array([e for e, _ in sphere_np_spectrum(R, params, 3)])
        assert np.max(np.abs(s - on_R)) < 1e-12, R
    scaled = np.array([e for e, _ in np_galerkin_spectrum(LameParams(3.0, 3.0), 3)])
    assert np.max(np.abs(s - scaled)) < 1e-12


@pytest.mark.parametrize("R, n_max", [(1.0, 5), (2.0, 4)])
def test_np_spectrum_matches_quadrature_oracle(R, n_max, materials):
    # coefficient traces against tractions projected on a sphere rule on the
    # sphere of radius R, which has the package's radius-free spectrum: the
    # same sorted eigenvalues, and each degree tag a degree on which the
    # oracle's eigenspace at that eigenvalue has weight.  The oracle's own
    # tags are no reference where two degrees share an eigenvalue: eig may
    # return any basis of the eigenspace (at lambda = -0.5, nmax = 5 and one
    # BLAS thread it tags all ten rows of 7/18 as degree 5, though the
    # degree-1 monopole lies in that space)
    quad = build_quadrature(2 * n_max + 4)
    for params in materials:
        spec = np_galerkin_spectrum(params, n_max)
        M, basis = quadrature_np_matrix(R, params, n_max, quad)
        ref_vals, ref_vecs = np.linalg.eig(M)
        ref_vals = np.real(ref_vals)
        vals = np.array([e for e, _ in spec])
        assert len(spec) == len(basis) == 3 * ((n_max + 1) ** 2 - 1)
        assert np.max(np.abs(vals - np.sort(ref_vals))) < 1e-12, params
        degree_of_row = np.array([n for _, n, _ in basis])
        for e, d in spec:
            Q, _ = np.linalg.qr(ref_vecs[:, np.abs(ref_vals - e) < 1e-9])
            assert np.linalg.norm(Q[degree_of_row == d]) > 1e-6, (params, e, d)


@pytest.mark.parametrize("R", [1.0, 2.0])
def test_np_spectrum_matches_dense_galerkin_oracle(R, materials):
    # one unit-sphere single layer per sector shape against one per scalar
    # density on the sphere of radius R and a dense eig: the same sorted
    # eigenvalues, with the same multiplicities, at every R
    for params in materials:
        for n_max in (2, 5, 8):
            vals = np.array([e for e, _ in np_galerkin_spectrum(params, n_max)])
            M, basis = dense_np_matrix(R, params, n_max)
            ref = np.sort(np.real(np.linalg.eigvals(M)))
            assert len(vals) == len(basis)
            assert np.max(np.abs(vals - ref)) < 1e-12, (params, n_max)
            cuts = np.nonzero(np.diff(vals) > 1e-9)[0] + 1
            for cluster in np.split(vals, cuts):
                assert np.sum(np.abs(ref - cluster[0]) < 1e-9) == len(cluster), (params, n_max, cluster[0])


@pytest.mark.parametrize("R", [0.3, 1.0, 3.0])
def test_np_spectrum_rows_are_the_mapped_constants(R, materials):
    # the rows tagged with degree n are each family's np_eigenvalue_map(zeta)
    # once per member of its sector, away from the truncation edge and at it;
    # and the layers solved on the sphere of radius R itself give the same
    # rows (oracles.sphere_np_spectrum), each to 1e-12
    n_max = 12
    for params in materials:
        spec = np_galerkin_spectrum(params, n_max)
        assert len(spec) == 3 * ((n_max + 1) ** 2 - 1)
        on_R = sphere_np_spectrum(R, params, n_max)
        for n in range(2, n_max + 1):
            got = np.sort([e for e, d in spec if d == n])
            want = np.sort([np_eigenvalue_map(c) for fam, c in enumerate(plasmon_constants(params, n).as_tuple(), 1)
                            for _ in range(MULTIPLICITY[fam](n))])
            assert len(got) == len(want) and np.max(np.abs(got - want)) < 1e-12, (params, n)
        for n in range(1, n_max + 1):
            got, want = (np.sort([e for e, d in pairs if d == n]) for pairs in (spec, on_R))
            assert len(got) == len(want) and np.max(np.abs(got - want)) <= 1e-12, (params, n)


def test_np_spectrum_rejects_a_shape_off_its_sector(monkeypatch):
    # a 1e-6 relative error in the slaved displacement scalar of the profile
    # block the single layer carries (family 2: the entire block inside,
    # slaving the upper degree onto the lower; family 3: the decaying block
    # outside, slaving the lower onto the upper) puts a partner-degree part
    # into K*: the sector check raises instead of returning.  The defect is
    # seeded where the single layer reads the profile, and the kept unit
    # layers are swapped for an empty store per family, else they hide it
    exact = transmission._radial_profile
    for family in (2, 3):
        def seeded(params, n, fam):
            prof = exact(params, n, fam)
            if fam != family or len(prof.degrees) == 1:  # the J = 0 sector has no partner
                return prof
            # blocks: entire on each degree, then decay; family 2's degrees are (hi, lo), family 3's (lo, hi)
            block, target = (0, 1) if fam == 2 else (2, 1)
            seeded = prof.scalars.copy()
            seeded[block, 0, target] *= 1.0 + 1e-6  # the displacement scalar
            return prof._replace(scalars=seeded)

        monkeypatch.setattr(transmission, "_radial_profile", seeded)
        monkeypatch.setattr(transmission._unit_layers, "cache", {})
        with pytest.raises(AssertionError, match=f"family-{family} shape leaves its sector"):
            np_galerkin_spectrum(LameParams(1.0, 1.0), 3)


def _worst(rep):
    return max(rep["continuity"], rep["transmission"], rep["lame_interior"], rep["lame_exterior"])


def _seeded_defect(wave, defect):
    """The wave with one defect: its slaved correction scaled by 1.01 or
    dropped (the interior of family 2, the exterior of family 3), its whole
    interior scaled by 1.01, or c scaled by 1.01."""
    if defect == "c":
        return replace(wave, c=1.01 * wave.c)
    if defect == "interior":
        return replace(wave, interior=replace(wave.interior, terms=tuple(
            Term(1.01 * t.coef, t.degree, t.power) for t in wave.interior.terms)))
    side = "interior" if wave.family == 2 else "exterior"
    field = getattr(wave, side)
    main, slaved, *rest = field.terms
    kept = (Term(1.01 * slaved.coef, slaved.degree, slaved.power),) if defect == "scaled" else ()
    return replace(wave, **{side: replace(field, terms=(main, *kept, *rest))})


def _defects(family):
    return ("scaled", "dropped", "interior", "c") if family != 1 else ("interior", "c")


def test_wave_check_routes_agree_on_waves_and_seeded_defects(tables, materials):
    # the coefficient route and the point/quadrature oracle both read
    # rounding on every wave and both exceed the 1e-6 waves-check gate on
    # each seeded defect at R = 1.3; at R = 1e-3 (n = 20) and 1e-10 (n = 3)
    # the oracle's absolute floors hide a defect, and the normwise route
    # still reads each one above the gate
    for params in materials:
        for n, R in ((2, 1.3), (3, 1.3), (20, 1e-3), (3, 1e-10)):
            for fam in (1, 2, 3):
                for K in sector_kernels(n, fam)[:2]:
                    wave = perfect_wave(K, fam, n, R, params, tables)
                    got = verify_perfect_wave(wave, params)
                    assert _worst(got) < 1e-13, (params, n, R, fam)
                    routes = (verify_perfect_wave,)
                    if R == 1.3:
                        ref = point_verify_perfect_wave(wave, params)
                        assert _worst(ref) < 1e-13, (params, n, fam)
                        for key in ("t1", "t3", "normalization"):
                            assert got[key] == ref[key], key
                        routes += (point_verify_perfect_wave,)
                    for defect in _defects(fam):
                        bad = _seeded_defect(wave, defect)
                        for route in routes:
                            assert _worst(route(bad, params)) >= 1e-6, (params, n, R, fam, defect, route)


def test_perfect_waves_run_one_sector_check_per_family(monkeypatch):
    # a perfect wave's constant is the one its sector check tested, and the
    # check of each (material, degree, family) runs once however many
    # members are built (123 waves at degree 20, 3 checks)
    params, n, R = LameParams(2.0, 0.5), 20, 1.3
    checked, check = [], transmission._wave_amplitudes.__wrapped__
    monkeypatch.setattr(transmission._wave_amplitudes, "cache", {})
    monkeypatch.setattr(transmission._wave_amplitudes, "__wrapped__", lambda *a: checked.append(a[1:]) or check(*a))
    tables = ensure_tables(None, n + 4)
    waves_built = 0
    for fam in (1, 2, 3):
        c = plasmon_constants(params, n).as_tuple()[fam - 1]
        for K in fields.kernel_basis(params, n, fam):
            assert perfect_wave(K, fam, n, R, params, tables).c == c
            waves_built += 1
    assert waves_built == 123 and checked == [(n, 1), (n, 2), (n, 3)]
