"""Acceptance suite: one criterion per test, each printing a PASS/FAIL line.

Run with ``pytest -s tests/test_acceptance.py`` to see the per-criterion
lines.  Two sub-assertions are strict expected failures, marked xfail with
the full analysis in their reasons: the displayed value -1.2 for the middle
plasmon constant at n=2, lambda=mu=1 (three independent routes give -2.0, see
test_waves and the criterion-1 line), and the resonant-verdict threshold at
q = 2.5 (the exact dissipation grows like delta^{-0.36}, below the 0.5 slope
gate, for any sweep depth).
"""

import json
import math

import numpy as np
import pytest

from elastoplasmon.fields import (
    ModeField,
    Term,
    _merge_pieces,
    exterior_traction_coeffs,
    functional_I,
    functional_J,
    pairing_P,
    traction_coeffs,
    witness_core_resonant,
    witness_fixed_c,
    witness_nocore,
    witness_radial_nonresonant,
)
from elastoplasmon.harmonics import build_quadrature, shared_tables, sph_harm_stack
from elastoplasmon.lame import LameParams
from elastoplasmon.energy import dissipation_E
from elastoplasmon.scenarios import fixed_configuration, schedule_n_delta, scheduled_configuration, sweep
from elastoplasmon.transmission import LayeredMedium, SourceSpec, solve_modes
from elastoplasmon.waves import (
    assemble_H,
    np_eigenvalue_map,
    np_galerkin_spectrum,
    perfect_wave,
    plasmon_constants,
    plasmon_kernel,
    verify_perfect_wave,
)
from oracles import (dense_np_matrix, exterior_block, imag_terms, numeric_traction, pairing_P_pieces, real_terms,
                     volumetric_P)

P11 = LameParams(1.0, 1.0)
MATERIALS = (LameParams(1.0, 1.0), LameParams(-0.5, 1.0), LameParams(2.0, 0.5))
MULT = {1: lambda n: 2 * n + 1, 2: lambda n: 2 * n - 1, 3: lambda n: 2 * n + 3}
TABLES = shared_tables(12)


def report(num: int, ok: bool, detail: str):
    print(f"[acceptance] criterion {num}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, detail


def _min_sv(n, params, c):
    s = assemble_H(n, params, float(c), TABLES).singular_values
    return s[-1] / s[0]


def test_criterion_01_dip_roots_match_closed_forms():
    worst = 0.0
    for params in MATERIALS:
        for n in (2, 3, 4):
            for z in plasmon_constants(params, n).as_tuple():
                # V-shaped minimum: localize the root from the slope at z
                h = 1e-4 * abs(z)
                slope = (_min_sv(n, params, z + h) - _min_sv(n, params, z)) / h
                root_offset = _min_sv(n, params, z) / abs(slope)
                worst = max(worst, root_offset / abs(z))
    report(1, worst < 1e-8, f"dip roots match the closed forms; worst relative offset {worst:.2e}")


def test_criterion_01_spot_values_zeta1_zeta3():
    z = plasmon_constants(P11, 2)
    ok = abs(z.zeta1 + 4.0) < 1e-14 and abs(z.zeta3 + 0.75) < 1e-14
    report(1, ok, f"spot values zeta1 = {z.zeta1}, zeta3 = {z.zeta3}")


@pytest.mark.xfail(
    strict=True,
    reason="stated spot value zeta2 = -1.2 at n=2, lambda=mu=1 contradicts the "
    "transmission eigenproblem: the matching matrix is nonsingular at -1.2 and "
    "singular (multiplicity 2n-1, machine-precision transmission residual) at "
    "-2.0; the independent boundary-operator spectrum contains the image of "
    "-2.0 within 1.4e-4 and nothing within 3e-2 of the image of -1.2. The "
    "displayed numerator coefficient (2n-2) is a typo for (3n-2).",
)
def test_criterion_01_spot_value_zeta2_displayed():
    z2 = plasmon_constants(P11, 2).zeta2
    report(1, abs(z2 + 1.2) < 1e-14, f"displayed spot value -1.2; computed {z2}")


def test_criterion_02_kernel_multiplicities():
    worst_gap = math.inf
    for params in MATERIALS:
        for n in (2, 3, 4):
            for fam, c in enumerate(plasmon_constants(params, n).as_tuple(), start=1):
                s = assemble_H(n, params, c, TABLES).singular_values
                null = int(np.sum(s < 1e-9 * s[0]))
                assert null == MULT[fam](n), (params, n, fam, null)
                worst_gap = min(worst_gap, s[-(null + 1)] / s[0])
    report(2, worst_gap >= 1e-6, f"multiplicities 2n+1/2n-1/2n+3 exact; smallest gap {worst_gap:.2e} of |H|")


def test_criterion_03_perfect_wave_verification():
    worst = {"continuity": 0.0, "transmission": 0.0, "lame": 0.0, "t": 0.0, "gram": 0.0}
    R = 1.3
    for n in (2, 3, 4):
        kers_all = []
        for fam, c in enumerate(plasmon_constants(P11, n).as_tuple(), start=1):
            kers = plasmon_kernel(assemble_H(n, P11, c, TABLES))
            kers_all.extend(kers)
            for K in kers:
                w = perfect_wave(K, fam, n, R, P11, TABLES)
                rep = verify_perfect_wave(w, P11)
                worst["continuity"] = max(worst["continuity"], rep["continuity"])
                worst["transmission"] = max(worst["transmission"], rep["transmission"])
                worst["lame"] = max(worst["lame"], rep["lame_interior"], rep["lame_exterior"])
                t_off = {1: max(rep["t1"], rep["t3"]), 2: rep["t1"], 3: rep["t3"]}[fam]
                worst["t"] = max(worst["t"], t_off)
        V = np.array([k.ravel() for k in kers_all])
        gram = V @ V.conj().T
        worst["gram"] = max(worst["gram"], float(np.max(np.abs(gram - np.eye(len(kers_all))))))
    ok = (
        worst["lame"] <= 1e-6
        and worst["continuity"] <= 1e-9
        and worst["transmission"] <= 1e-8
        and worst["t"] <= 1e-9
        and worst["gram"] <= 1e-10
    )
    report(3, ok, f"all waves n<=4: lame {worst['lame']:.1e}, continuity {worst['continuity']:.1e}, "
                  f"transmission {worst['transmission']:.1e}, t-conditions {worst['t']:.1e}, gram {worst['gram']:.1e}")


def test_criterion_04_np_cross_validation():
    # the mapped constants are found both in the spectrum of the sector
    # profiles and in the eigenvalues of the dense Kelvin single-layer
    # oracle, which assumes neither sectors nor profiles
    spec = np_galerkin_spectrum(P11, 5)
    eigs = np.array([e for e, _ in spec])
    kelvin = np.real(np.linalg.eigvals(dense_np_matrix(1.0, P11, 5)[0]))
    worst = 0.0
    for n in (2, 3):
        for c in plasmon_constants(P11, n).as_tuple():
            target = np_eigenvalue_map(c)
            worst = max(worst, float(np.min(np.abs(eigs - target))), float(np.min(np.abs(kelvin - target))))
    # the single layers of the three degree-1 toroidal densities are rigid
    # rotations inside, so K* holds them at exactly 1/2
    rigid = [d for e, d in spec if abs(e - 0.5) < 1e-12]
    rest = eigs[np.abs(eigs - 0.5) >= 1e-12]
    inside = bool(rigid == [1, 1, 1] and np.all(rest > -0.5) and np.all(rest < 0.5))
    report(4, worst < 2e-3 and inside,
           f"mapped constants found within {worst:.1e} (profiles and Kelvin oracle); all eigenvalues in (-1/2, 1/2) "
           f"but the three rigid rotations at 1/2: {inside}")


def _identity_defects(med, src, sols, delta):
    merged = _merge_pieces([[ModeField(r.terms, r.r_lo, r.r_hi) for r in sol.regions] for sol in sols])
    E = dissipation_E(sols, med)
    vp = [ModeField(real_terms(p.terms), p.r_lo, p.r_hi) for p in merged]
    wp = [ModeField(tuple(Term(delta * t.coef, t.degree, t.power) for t in imag_terms(p.terms)), p.r_lo, p.r_hi)
          for p in merged]
    pp = [ModeField(imag_terms(p.terms), p.r_lo, p.r_hi) for p in merged]
    I_val = functional_I(vp, wp, delta, med.base)
    J_val = functional_J(vp, pp, src, delta, med.base)
    return E, abs(I_val - E) / E, abs(J_val - E) / E


def test_criterion_05_variational_sandwich():
    z1_2 = plasmon_constants(P11, 2).zeta1
    z3_3 = plasmon_constants(P11, 3).zeta3
    configs = [
        fixed_configuration(P11, 2.0, -4.0, SourceSpec(3.0, {(2, 1, 1): 1.0}), core_radius=1.0),
        fixed_configuration(P11, 2.0, z1_2, SourceSpec(3.0, {(2, 1, 1): 1.0})),
        fixed_configuration(P11, 2.0, z3_3, SourceSpec(2.6, {(3, 3, 1): 1.0})),
        scheduled_configuration(P11, 2.0, q=2.3, core_radius=1.0),
        scheduled_configuration(P11, 2.0, q=2.0**1.8, core_radius=1.0),
        fixed_configuration(P11, 2.0, -2.5, SourceSpec(3.0, {(2, 1, 1): 0.7, (2, 2, 1): 0.4, (3, 3, 2): 0.3})),
    ]
    worst_identity = 0.0
    bounds_seen = 0
    for ci, conf in enumerate(configs):
        for delta in (1e-2, 1e-3, 1e-4):
            med, src = conf(delta)
            sols = solve_modes(med, src)
            E, dI, dJ = _identity_defects(med, src, sols, delta)
            worst_identity = max(worst_identity, dI, dJ)
            I_upper = J_lower = None
            try:
                if med.core_radius is not None:
                    zet1 = plasmon_constants(P11, max(src.degrees())).zeta1
                    if math.isclose(med.c, zet1, rel_tol=1e-10) and src.q > med.shell_radius**1.5:
                        _, _, I_upper = witness_radial_nonresonant(med, src, delta)
                    else:
                        _, I_upper, _ = witness_fixed_c(med, src)
            except (ValueError, ArithmeticError):
                pass
            try:
                if med.core_radius is None:
                    _, J_lower, _ = witness_nocore(med, src, delta)
                else:
                    _, _, J_lower, _ = witness_core_resonant(med, src, delta)
            except (ValueError, ArithmeticError):
                pass
            slack = 1e-9 * max(abs(E), 1.0)
            if I_upper is not None:
                assert E <= I_upper + slack, (ci, delta, E, I_upper)
                bounds_seen += 1
            if J_lower is not None:
                assert J_lower <= E + slack, (ci, delta, J_lower, E)
                bounds_seen += 1
    report(5, worst_identity < 1e-7,
           f"sandwich holds with 1e-9 slack over 6 configs x 3 losses ({bounds_seen} bounds); "
           f"minimizer/maximizer identities within {worst_identity:.1e}")


def _fit(deltas, vals):
    return float(np.polyfit(np.log(1.0 / np.asarray(deltas)), np.log(np.asarray(vals)), 1)[0])


def test_criterion_06_fixed_multiplier_no_resonance():
    deltas = [10 ** (-e) for e in np.arange(2.0, 5.01, 0.5)]
    conf = fixed_configuration(P11, 2.0, -4.0, SourceSpec(3.0, {(2, 1, 1): 1.0}), core_radius=1.0)
    res = sweep(conf, deltas)
    slope_E = _fit(deltas, [r.E_delta for r in res.rows])
    slope_I = _fit(deltas, [r.I_upper for r in res.rows])
    # E ~ delta means slope -1 against 1/delta
    ok = abs(slope_E + 1.0) <= 0.05 and abs(slope_I + 1.0) <= 0.05 and res.verdict == "non-resonant"
    report(6, ok, f"cored fixed multiplier: E and I both scale like the loss "
                  f"(slopes {-slope_E:.3f}, {-slope_I:.3f} in delta), verdict {res.verdict}")


def test_criterion_07_nocore_resonance():
    z1 = plasmon_constants(P11, 2).zeta1
    deltas = [10 ** (-e) for e in np.arange(2.0, 5.01, 0.5)]
    conf = fixed_configuration(P11, 2.0, z1, SourceSpec(3.0, {(2, 1, 1): 1.0}))
    res = sweep(conf, deltas)
    slope_E = _fit(deltas, [r.E_delta for r in res.rows])
    slope_J = _fit(deltas, [r.J_lower for r in res.rows])
    ok = abs(slope_E - 1.0) <= 0.05 and abs(slope_J - 1.0) <= 0.05 and res.verdict == "resonant"
    report(7, ok, f"core-free at the degree-2 constant: E ~ 1/delta (slope {-slope_E:.3f} in delta), "
                  f"J ~ 1/delta (slope {-slope_J:.3f}), verdict {res.verdict}")


DICHOTOMY_DELTAS = [10 ** (-e) for e in np.arange(2.0, 8.01, 0.5)]


def _dichotomy(q):
    conf = scheduled_configuration(P11, 2.0, q=q, core_radius=1.0)
    return sweep(conf, DICHOTOMY_DELTAS)


def test_criterion_08_dichotomy_inside_q23():
    res = _dichotomy(2.3)
    report(8, res.verdict == "resonant",
           f"q=2.3 < R*=2.828: verdict {res.verdict}, growth exponent {res.growth_exponent:.4f}")


@pytest.mark.xfail(
    strict=True,
    reason="q = 2.5 lies inside the critical radius and the exact dissipation "
    "does grow without bound, but at the rate delta^-(3 - 2 ln q / ln R) = "
    "delta^-0.356 (the witness bound (R^3/q^2)^n / n gives the same rate), so "
    "the fitted slope stays near 0.27-0.36 for any sweep depth and can never "
    "clear the stated 0.5 threshold; the 0.5 gate misclassifies the band "
    "q in (R^{5/4}, R^{3/2}) = (2.38, 2.83).",
)
def test_criterion_08_dichotomy_inside_q25():
    res = _dichotomy(2.5)
    report(8, res.verdict == "resonant",
           f"q=2.5 < R*=2.828: verdict {res.verdict}, growth exponent {res.growth_exponent:.4f} "
           f"(monotone growth, final-window factor {res.meta['final_window_growth_factor']:.2f})")


def test_criterion_08_dichotomy_outside():
    oks = []
    details = []
    for q in (3.2, 3.6):
        res = _dichotomy(q)
        oks.append(res.verdict == "non-resonant")
        details.append(f"q={q}: {res.verdict} (growth exponent {res.growth_exponent:.3f})")
    report(8, all(oks), "q > R*: " + "; ".join(details))


def test_criterion_09_oracle_agreements():
    # derivative identities against 5-point central differences
    rng = np.random.default_rng(11)
    worst_d = 0.0
    for _ in range(3):
        x = rng.normal(size=3)
        x *= (0.5 + 1.5 * rng.random()) / np.linalg.norm(x)
        r = float(np.linalg.norm(x))
        h = 1e-5 * max(1.0, r)
        for n in (2, 5, 9):
            def reg(p, n=n):
                rr = np.linalg.norm(p)
                return rr**n * sph_harm_stack(n, p / rr)

            for j in range(3):
                e = np.zeros(3)
                e[j] = h
                fd = (reg(x - 2 * e) - 8 * reg(x - e) + 8 * reg(x + e) - reg(x + 2 * e)) / (12 * h)
                an = r ** (n - 1) * (sph_harm_stack(n - 1, x / r) @ TABLES.lower[n][j].T)
                worst_d = max(worst_d, float(np.max(np.abs(fd - an)) / max(1.0, np.max(np.abs(fd)))))
    # analytic vs numeric traction
    quad = build_quadrature(20)
    worst_t = 0.0
    for params in MATERIALS:
        G = rng.normal(size=(3, 5)) + 1j * rng.normal(size=(3, 5))
        blk = exterior_block(G, 2, params, TABLES)
        field = ModeField(blk, 0.4, math.inf)
        for R in (0.7, 1.0, 1.9):
            closed = exterior_traction_coeffs(G, 2, R, params)
            fd = numeric_traction(field, R, params, quad)
            scale = max(np.max(np.abs(m)) for m in closed.values())
            for d, m in closed.items():
                worst_t = max(worst_t, float(np.max(np.abs(m - fd[d])) / scale))
    # analytic pairing vs truncated volumetric quadrature
    G = rng.normal(size=(3, 7))
    blk = exterior_block(G, 3, P11, TABLES)
    pieces = [ModeField(blk, 1.0, math.inf)]
    exact = float(np.real(pairing_P_pieces(pieces, pieces, P11)))
    approx, tail = volumetric_P(pieces, P11, TABLES, r_cut=25.0, n_radial=80)
    p_err = abs(exact - (approx + tail)) / exact
    ok = worst_d <= 1e-9 and worst_t <= 1e-8 and p_err <= 1e-5
    report(9, ok, f"derivative identities {worst_d:.1e} (<=1e-9); traction closed-vs-FD {worst_t:.1e} "
                  f"(<=1e-8); pairing vs volumetric {p_err:.1e} (<=1e-5, tail bound {tail:.2e} at r=25)")


def test_criterion_10_determinism(tmp_path):
    from elastoplasmon.cli import main

    cfg = {
        "schema": 1, "lambda": 1.0, "mu": 1.0, "core_radius": 1.0, "shell_radius": 2.0,
        "q": 3.0, "c_mode": {"fixed": -4.0}, "source_modes": [[2, 1, 1, 1.0, 0.0]],
        "delta_list": [1e-2, 1e-3, 1e-4, 1e-5], "n_max": 12, "quadrature_exactness": 20,
    }
    cfile = tmp_path / "run.json"
    cfile.write_text(json.dumps(cfg))
    out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(["sweep", "--config", str(cfile), "--csv", str(out1)]) == 0
    assert main(["sweep", "--config", str(cfile), "--csv", str(out2)]) == 0
    same = out1.read_bytes() == out2.read_bytes()
    report(10, same, "repeated sweep runs produce byte-identical CSV")
