"""Mode constants, mode fields, boundary solvers and traction oracles."""

import math

import numpy as np
import pytest

from elastoplasmon.fields import (
    ModeField,
    Term,
    displacement_coeffs,
    exterior_traction_coeffs,
    lame_residual,
    traction_coeffs,
    traction_coeffs_algebraic,
)
from elastoplasmon.harmonics import build_quadrature, sph_harm_stack
from elastoplasmon.lame import LameParams, _safe_div, mode_constants
from oracles import (
    eval_terms,
    exterior_block,
    exterior_mode,
    fd_lame_residual,
    grad_terms,
    interior_block,
    interior_from_displacement,
    interior_from_traction,
    interior_mode,
    numeric_traction,
    plain_data,
)


def test_strong_convexity_enforced():
    LameParams(-0.6, 1.0)
    with pytest.raises(ValueError):
        LameParams(-0.7, 1.0)
    with pytest.raises(ValueError):
        LameParams(1.0, 0.0)


def test_mode_constants_examples():
    c = mode_constants(LameParams(1.0, 1.0), 2)
    assert c.k_n == pytest.approx(1 / 15, abs=1e-15)
    assert c.E_n == pytest.approx(0.2, abs=1e-15)
    assert c.s1_n == pytest.approx(1 / 15, abs=1e-15)
    assert c.s2_n == pytest.approx(0.05, abs=1e-15)
    c1 = mode_constants(LameParams(0.0, 1.0), 1)
    assert c1.k_n == pytest.approx(0.0625, abs=1e-15)


def test_mode_constants_are_scale_free():
    # every constant is homogeneous of degree 0 in (lambda, mu): a denominator
    # is measured against its own terms, so mu = 1e-15 is no smaller than mu = 1
    for lam, n in ((0.0, 2), (0.0, 9), (0.5, 2), (-0.6, 3)):
        small = tuple(mode_constants(LameParams(lam * 1e-15, 1e-15), n))
        unit = tuple(mode_constants(LameParams(lam, 1.0), n))
        for a, b in zip(small[1:], unit[1:]):
            assert a == b or abs(a - b) <= 1e-15 * abs(b), (lam, n, a, b)
    # lambda = 1e20 mu: the denominator mu of M_1 is not measured against lambda
    assert mode_constants(LameParams(1e20, 1.0), 1).M_n == pytest.approx(5e19, rel=1e-15)


def test_vanishing_denominators_still_raise():
    with pytest.raises(ArithmeticError, match="denominator of x vanishes"):
        _safe_div(1.0, (3.0, -3.0), "x")  # the terms cancel exactly
    with pytest.raises(ArithmeticError):
        _safe_div(1.0, (1.0, -1.0 + 2.0**-50), "x")  # to roundoff
    with pytest.raises(ArithmeticError, match="k_n"):
        mode_constants(LameParams(0.0, 1e-320), 2)  # subnormal: the digits are gone
    assert _safe_div(1.0, (3.0, -2.0), "x", 2.0) == 0.5


def test_closed_forms_are_kept_per_float_key(monkeypatch):
    # LameParams(1, 1) and LameParams(1.0, 1.0) share one key, and so do
    # -0.0 and 0.0 and the radii 2 and 2.0: whichever call comes first, the
    # kept value is a fresh evaluation at the float pair.  Integers beyond
    # 2^53 round otherwise in their own arithmetic, so they are read as the
    # float pair too.  A call that raises keeps nothing.  The unit single
    # layers are kept per key too, in the store _single_layers fills
    from elastoplasmon import lame, transmission
    from oracles import unit_layer

    kept = ((lame.mode_constants, (10,)), (lame.plasmon_constants, (10,)), (transmission._radial_profile, (10, 2)),
            (transmission._wave_amplitudes, (10, 3, 2)), (transmission._wave_amplitudes, (10, 3, 2.0)))
    big = LameParams(1006633145311236043253, 87885138432301809200)
    pairs = ((LameParams(1, 1), LameParams(1.0, 1.0)), (LameParams(-0.0, 2), LameParams(0.0, 2.0)),
             (LameParams(3, 0.5), LameParams(3.0, 0.5)), (big, LameParams(float(big.lam), float(big.mu))))
    assert lame.mode_constants.__wrapped__(big, 10) != lame.mode_constants.__wrapped__(pairs[-1][1], 10)
    for a, floats in pairs:
        for first, second in ((a, floats), (floats, a)):
            for f, args in kept:
                monkeypatch.setattr(f, "cache", {})
                value = f(first, *args)
                assert f(second, *args) is value and len(f.cache) == 1
                assert plain_data(value) == plain_data(f.__wrapped__(floats, *args)), (f.__name__, first)
            monkeypatch.setattr(transmission._single_layers, "cache", {})
            transmission._single_layers([(first, 10, 2, 1.0, 1.0)])
            (key, value), = transmission._single_layers.cache.items()
            transmission._single_layers([(second, 10, 2, 1.0, 1.0)])
            cache = transmission._single_layers.cache
            assert len(cache) == 1 and cache[key] is value and key == (floats.lam, floats.mu, 10, 2)
            assert plain_data(value) == plain_data(unit_layer(floats, 10, 2)), first
    # an item whose unit layer fails, in its solve (family 1) or its profile
    # (family 2), raises that error and keeps nothing; the others are kept
    monkeypatch.setattr(transmission._single_layers, "cache", {})
    huge = LameParams(1e308, 1e308)
    with pytest.raises(ArithmeticError, match="degree-4 family-1 single layer: equilibrated entries out of"):
        transmission._single_layers([(LameParams(1, 1), 4, 1, 1.0, 1.0), (huge, 4, 1, 1.0, 1.0)])
    with pytest.raises(ArithmeticError, match="denominator of k_n vanishes"):
        transmission._single_layers([(huge, 5, 2, 1.0, 1.0), (LameParams(1, 1), 5, 2, 1.0, 1.0)])
    assert list(transmission._single_layers.cache) == [(1.0, 1.0, 4, 1), (1.0, 1.0, 5, 2)]
    assert transmission._wave_amplitudes(LameParams(1, 1), 5, 3, 2) is transmission._wave_amplitudes(
        LameParams(1.0, 1.0), 5, 3, 2.0)
    monkeypatch.setattr(lame.plasmon_constants, "cache", {})
    monkeypatch.setattr(lame.mode_constants, "cache", {})
    with pytest.raises(ArithmeticError):
        lame.plasmon_constants(LameParams(1e308, 1e308), 2)
    with pytest.raises(ValueError):
        lame.mode_constants(LameParams(1.0, 1.0), 0)
    assert not lame.plasmon_constants.cache and not lame.mode_constants.cache


def _random_coeff(rng, n, complex_=True):
    G = rng.normal(size=(3, 2 * n + 1))
    if complex_:
        G = G + 1j * rng.normal(size=(3, 2 * n + 1))
    return G


def test_eval_terms_bit_identical_to_per_term_harmonics(tables):
    # one Legendre recurrence serves every term; each Y_d read off it equals
    # sph_harm_stack(d, .), so the sum is bit-identical to the per-term route
    rng = np.random.default_rng(7)
    G = _random_coeff(rng, 4)
    blocks = exterior_block(G, 4, LameParams(1.0, 1.0), tables) + interior_block(G, 4, LameParams(1.0, 1.0), tables)
    terms = blocks + tuple(Term(_random_coeff(rng, d), d, p) for d, p in ((0, 0), (3, -2), (4, 1), (11, 11), (1, -2)))
    X = rng.normal(size=(40, 3)) * 1.3
    X[0] = [0.0, 0.0, 2.0]  # on the polar axis
    for pts in (X, X[3:4]):
        r = np.linalg.norm(pts, axis=1)
        ref = np.zeros((len(pts), 3), dtype=complex)
        for t in terms:
            Y = sph_harm_stack(t.degree, pts / r[:, None])
            ref += (Y @ t.coef.reshape(-1, 2 * t.degree + 1).T) * (r**t.power)[:, None]
        assert np.array_equal(eval_terms(terms, pts), ref)
    assert np.array_equal(eval_terms(terms, X[3]), ref[0])


def test_pure_multipole_when_t1_vanishes(tables):
    # toroidal matrices have t1 = 0, so the correction drops out
    rng = np.random.default_rng(0)
    n = 2
    w = rng.normal(size=2 * n + 1)
    # angular-momentum-type matrix: rows of x cross grad of a degree-n harmonic
    from elastoplasmon.fields import kernel_basis

    K = kernel_basis(LameParams(1.0, 1.0), n, 1)[0]
    terms = exterior_block(K, n, LameParams(1.0, 1.0), tables)
    assert len(terms) == 1 and terms[0].power == -n - 1


def test_zero_amplitude_gives_zero_field(tables):
    f = exterior_mode(np.zeros((3, 5)), 2, LameParams(1.0, 1.0), tables)
    assert np.max(np.abs(eval_terms(f.terms, np.array([0.3, 0.4, 1.2])))) == 0.0


def test_mode_fields_satisfy_lame(tables, materials):
    # exact residual at rounding level, agreeing with the finite-difference
    # oracle; both flag a 1e-3 error in a slaved correction
    rng = np.random.default_rng(1)
    for params in materials:
        for n in (1, 2, 3, 5):
            G = _random_coeff(rng, n)
            pts = rng.normal(size=(8, 3))
            pts /= np.linalg.norm(pts, axis=1)[:, None]
            for blk, x in ((exterior_block(G, n, params, tables), 1.7 * pts),
                           (interior_block(G, n, params, tables), 0.4 * pts)):
                assert lame_residual(blk, params, x) <= 1e-13
                assert fd_lame_residual(blk, params, x) < 1e-6
                if len(blk) == 2:
                    main, corr = blk
                    bad = (main, Term(corr.coef * (1 + 1e-3), corr.degree, corr.power))
                    assert lame_residual(bad, params, x) > 1e-5
                    assert fd_lame_residual(bad, params, x) > 1e-5


def test_dirichlet_round_trip(tables):
    rng = np.random.default_rng(2)
    params = LameParams(1.0, 1.0)
    R = 1.3
    data = [(n, _random_coeff(rng, n)) for n in range(1, 9)]
    f = interior_from_displacement(R, data, params, tables)
    trace = displacement_coeffs(f.terms, R)
    for n, B in data:
        assert np.max(np.abs(trace[n] - B)) < 1e-10
    pts = rng.normal(size=(6, 3))
    pts /= np.linalg.norm(pts, axis=1)[:, None]
    assert lame_residual(f.terms, params, 0.5 * R * pts) < 1e-6


def test_rigid_boundary_data_no_correction(tables):
    # constant boundary displacement stays the constant field
    params = LameParams(1.0, 1.0)
    B = np.array([[0.0], [1.0], [2.0]], dtype=complex) * math.sqrt(4 * math.pi)
    f = interior_from_displacement(1.0, [(0, B)], params, tables)
    val = eval_terms(f.terms, np.array([0.2, -0.1, 0.05]))
    assert np.allclose(val, [0.0, 1.0, 2.0], atol=1e-12)


def test_zero_traction_zero_field(tables):
    f = interior_from_traction(1.0, [(2, np.zeros((3, 5)))], LameParams(1.0, 1.0), tables)
    assert np.max(np.abs(eval_terms(f.terms, np.array([0.1, 0.2, 0.1])))) == 0.0


def test_neumann_round_trip(tables, quad, materials):
    rng = np.random.default_rng(3)
    for params in materials:
        for n in (2, 3):
            Ap = _random_coeff(rng, n)
            f = interior_from_traction(1.0, [(n, Ap)], params, tables)
            got = traction_coeffs(f.terms, 1.0, params, quad, degrees=[n])[n]
            assert np.max(np.abs(got - Ap)) < 1e-10


def test_neumann_linearity(tables, quad):
    rng = np.random.default_rng(4)
    params = LameParams(1.0, 1.0)
    Ap = _random_coeff(rng, 2)
    f1 = interior_from_traction(1.0, [(2, Ap)], params, tables)
    f2 = interior_from_traction(1.0, [(2, 2 * Ap)], params, tables)
    x = np.array([0.3, -0.2, 0.4])
    assert np.allclose(2 * eval_terms(f1.terms, x), eval_terms(f2.terms, x), rtol=1e-12)


def test_neumann_rejects_degree_one(tables):
    with pytest.raises(ValueError):
        interior_from_traction(1.0, [(1, np.zeros((3, 3)))], LameParams(1.0, 1.0), tables)


def test_rigid_translation_zero_traction(tables, quad):
    params = LameParams(1.0, 1.0)
    const = ModeField((Term(np.array([[1.0], [2.0], [3.0]]) * math.sqrt(4 * math.pi), 0, 0),), 0.0, math.inf)
    out = numeric_traction(const, 1.0, params, quad)
    assert max(np.max(np.abs(m)) for m in out.values()) < 1e-9


def test_dilation_traction(tables, quad):
    # u = x has traction (3 lam + 2 mu) nu, pure degree-1 content
    params = LameParams(1.3, 0.7)
    # x = r Y_1 combination: x_j = sum_m c_m r Y_1^m with the standard factors
    c = math.sqrt(4 * math.pi / 3)
    C = np.zeros((3, 3), dtype=complex)
    C[0] = c * np.array([-1 / math.sqrt(2), 0, 1 / math.sqrt(2)])
    C[1] = c * np.array([1j / math.sqrt(2), 0, 1j / math.sqrt(2)])
    C[2] = c * np.array([0, 1, 0])
    field = ModeField((Term(C, 1, 1),), 0.0, math.inf)
    x = np.array([0.3, -1.1, 0.7])
    assert np.allclose(eval_terms(field.terms, x), x, atol=1e-12)
    out = numeric_traction(field, 1.2, params, quad)
    expected = (3 * params.lam + 2 * params.mu) * C
    assert np.max(np.abs(out[1] - expected)) < 1e-8
    for d, m in out.items():
        if d != 1:
            assert np.max(np.abs(m)) < 1e-8


def test_traction_oracle_agreement(tables, quad, materials):
    # closed form vs exact-gradient projection vs finite differences
    rng = np.random.default_rng(5)
    for params in materials:
        for n in (2, 3, 6):
            G = _random_coeff(rng, n)
            blk = exterior_block(G, n, params, tables)
            field = ModeField(blk, 0.5, math.inf)
            for R in (0.7, 1.0, 1.9):
                closed = exterior_traction_coeffs(G, n, R, params)
                exact = traction_coeffs(blk, R, params, quad)
                fd = numeric_traction(field, R, params, quad)
                scale = max(np.max(np.abs(m)) for m in exact.values())
                for d in exact:
                    c = closed.get(d, np.zeros_like(exact[d]))
                    assert np.max(np.abs(exact[d] - c)) / scale < 1e-10
                    assert np.max(np.abs(exact[d] - fd[d])) / scale < 1e-8


def test_traction_homothety(tables, quad):
    # closed form scales like R^{-n-2} for the degree-n part
    rng = np.random.default_rng(6)
    params = LameParams(1.0, 1.0)
    n = 3
    G = _random_coeff(rng, n)
    t1 = exterior_traction_coeffs(G, n, 1.0, params)[n]
    t2 = exterior_traction_coeffs(G, n, 2.0, params)[n]
    assert np.max(np.abs(t2 - t1 / 2 ** (n + 2))) < 1e-12


def test_algebraic_traction_matches_quadrature(tables, quad):
    rng = np.random.default_rng(7)
    params = LameParams(2.0, 0.5)
    n = 4
    G = _random_coeff(rng, n)
    blk = interior_block(G, n, params, tables)
    a = traction_coeffs_algebraic(blk, 1.4, params)
    b = traction_coeffs(blk, 1.4, params, quad, degrees=sorted(a))
    scale = max(np.max(np.abs(m)) for m in a.values())
    assert max(np.max(np.abs(a[d] - b[d])) for d in a) / scale < 1e-12


def test_numeric_traction_domain_error(tables, quad):
    f = interior_mode(np.ones((3, 5)), 2, LameParams(1.0, 1.0), tables, r_hi=1.0)
    with pytest.raises(ValueError):
        numeric_traction(f, 1.0, LameParams(1.0, 1.0), quad)


def test_gradients_match_finite_differences(tables):
    rng = np.random.default_rng(8)
    terms = (
        Term(rng.normal(size=(3, 9)) + 1j * rng.normal(size=(3, 9)), 4, -5),
        Term(rng.normal(size=(3, 5)), 2, 4),
        Term(rng.normal(size=(3, 1)), 0, -1),
    )
    x = np.array([0.9, -0.3, 0.6])
    g = grad_terms(terms, x)
    h = 1e-6
    for j in range(3):
        e = np.zeros(3)
        e[j] = h
        fd = (eval_terms(terms, x + e) - eval_terms(terms, x - e)) / (2 * h)
        assert np.max(np.abs(g[:, j] - fd)) < 1e-8
