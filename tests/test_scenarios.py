"""Witness constructions, the loss schedule, and sweep verdicts."""

import math

import numpy as np
import pytest

from elastoplasmon import transmission
from elastoplasmon.fields import (
    Term,
    _merge_pieces,
    functional_I,
    functional_J,
    kernel_basis,
    pairing_P,
    traction_coeffs_algebraic,
    witness_core_resonant,
    witness_fixed_c,
    witness_nocore,
    witness_radial_nonresonant,
)
from elastoplasmon.harmonics import build_quadrature
from elastoplasmon.lame import LameParams
from elastoplasmon.energy import dissipation_E
from elastoplasmon.scenarios import _sweep_rows, fixed_configuration, schedule_n_delta, scheduled_configuration, sweep
from elastoplasmon.transmission import LayeredMedium, ResonantSingularityError, SourceSpec, solve_mode, solve_modes
from elastoplasmon.waves import plasmon_constants
from oracles import (closed_dual_bound, closed_radial_bound, eval_terms, fixed_c_closed_forms, mp_square_solve,
                     plain_data)

P11 = LameParams(1.0, 1.0)


def test_schedule_examples():
    assert schedule_n_delta(2.0, 0.01) == 7
    assert schedule_n_delta(2.0, 0.4) == 2
    assert schedule_n_delta(1.5, 1e-4) == 23
    assert schedule_n_delta(2.0, 1.5) == 2  # degenerate, floored


def test_schedule_bracketing_property():
    # 1 < delta R^{n_delta} <= R for the scheduled degree
    R = 2.0
    for delta in (1e-2, 1e-3, 1e-4, 1e-5, 1e-6):
        n = schedule_n_delta(R, delta)
        assert 1.0 < delta * R**n <= R + 1e-12


def test_toroidal_traction_scalars(tables, quad):
    # the family-1 radial profile the witnesses read, against the generic
    # traction machinery
    K = kernel_basis(P11, 3, 1)[0]
    prof = transmission._radial_profile(P11, 3, 1)
    for r in (0.8, 1.7):
        se, sd = (prof.trac[b, 0] * r ** (prof.power[b] - 1) for b in (0, 1))  # entire, then decay
        t_e = traction_coeffs_algebraic((Term(K, 3, 3),), r, P11)
        t_d = traction_coeffs_algebraic((Term(K, 3, -4),), r, P11)
        assert np.max(np.abs(t_e[3] - se * K)) < 1e-12 * abs(se)
        assert np.max(np.abs(t_d[3] - sd * K)) < 1e-12 * abs(sd)
        assert all(np.max(np.abs(m)) < 1e-12 for d, m in t_e.items() if d != 3)


def _region_amplitudes(pieces, K):
    """(entire, decaying) amplitudes of a pure-kernel piecewise field, per region."""
    out = []
    for p in pieces:
        amp = {t.power: np.vdot(K, t.coef) / np.vdot(K, K) for t in p.terms}
        for t in p.terms:
            assert np.max(np.abs(t.coef - amp[t.power] * K)) < 1e-13 * max(1.0, abs(amp[t.power]))
        n = p.terms[0].degree
        out.append((complex(amp.get(n, 0.0)), complex(amp.get(-n - 1, 0.0))))
    return out


def test_branch_coefficients_match_closed_forms(tables):
    # region amplitudes of the witness over its core amplitude are e1..e5
    for n in (2, 3, 4, 5, 6):
        K = kernel_basis(P11, n, 1)[0]
        src = SourceSpec(q=3.0, coefficients={(n, 1, 1): 1.0})
        for c in (-4.0, -2.0, -1.0):
            for r_e in (1.5, 2.0):
                med = LayeredMedium(shell_radius=r_e, c=c, delta=1e-3, base=P11, core_radius=1.0)
                pieces, _, _ = witness_fixed_c(med, src)
                (core, _), (a1, b1), (a2, b2), (_, b3) = _region_amplitudes(pieces, K)
                e = [a1 / core, b1 / core, a2 / core, b2 / core, b3 / core]
                assert max(abs(x.imag) for x in e) < 1e-12
                e = [x.real for x in e]
                closed = fixed_c_closed_forms(n, c, r_e, 3.0)
                for a, b in zip(e, closed):
                    assert abs(a - b) <= 1e-12 * max(1.0, abs(b))
                # continuity invariants
                assert abs(e[0] + e[1] - 1.0) < 1e-12
                assert abs(e[0] * r_e**n + e[1] * r_e ** (-n - 1) - e[2] * r_e**n - e[3] * r_e ** (-n - 1)) < 1e-12 * max(1.0, abs(e[2]) * r_e**n)
                q = 3.0
                assert abs(e[2] * q**n + e[3] * q ** (-n - 1) - e[4] * q ** (-n - 1)) < 1e-10 * max(1.0, abs(e[4]) * q ** (-n - 1))


def test_witness_fixed_c_constraint_and_jump(tables, quad):
    # A-weighted interface continuity everywhere, jump = gamma K at the source
    med = LayeredMedium(shell_radius=2.0, c=-4.0, delta=1e-3, base=P11, core_radius=1.0)
    src = SourceSpec(q=3.0, coefficients={(2, 1, 1): 1.0, (3, 1, 2): 0.5})
    pieces, I_up, data = witness_fixed_c(med, src)
    gammas = {2: src.density_matrix(2, P11), 3: src.density_matrix(3, P11)}
    bounds, weights = transmission._region_layout(med, src.q)  # each region's A + i delta
    for rho, w_in, w_out in zip(bounds, [w.real for w in weights], [w.real for w in weights[1:]]):
        is_src = rho == src.q
        inner = next(p for p in pieces if abs(p.r_hi - rho) < 1e-12)
        outer = next(p for p in pieces if abs(p.r_lo - rho) < 1e-12)
        t_in = traction_coeffs_algebraic(inner.terms, rho, P11)
        t_out = traction_coeffs_algebraic(outer.terms, rho, P11)
        for d in set(t_in) | set(t_out):
            jump = w_out * t_out.get(d, 0.0) - w_in * t_in.get(d, 0.0)
            expected = gammas.get(d, 0.0) if is_src else 0.0
            assert np.max(np.abs(jump - expected)) < 1e-8
        rng = np.random.default_rng(0)
        dirs = rng.normal(size=(5, 3))
        dirs /= np.linalg.norm(dirs, axis=1)[:, None]
        assert np.max(np.abs(eval_terms(inner.terms, rho * dirs) - eval_terms(outer.terms, rho * dirs))) < 1e-10


def test_witness_fixed_c_jump_scalar_against_oracle(tables, quad):
    # conormal jump of the witness equals gamma K Y to oracle accuracy
    med = LayeredMedium(shell_radius=2.0, c=-4.0, delta=1e-3, base=P11, core_radius=1.0)
    src = SourceSpec(q=3.0, coefficients={(2, 1, 1): 1.0})
    pieces, _, _ = witness_fixed_c(med, src)
    gamma = src.coefficients[(2, 1, 1)]
    K = kernel_basis(P11, 2, 1)[0]
    from elastoplasmon.fields import ModeField
    from oracles import numeric_traction

    inner = next(p for p in pieces if abs(p.r_hi - 3.0) < 1e-12)
    outer = next(p for p in pieces if abs(p.r_lo - 3.0) < 1e-12)
    f_in = ModeField(inner.terms, 2.0, 3.5)
    f_out = ModeField(outer.terms, 2.5, math.inf)
    t_in = numeric_traction(f_in, 3.0, P11, quad)[2]
    t_out = numeric_traction(f_out, 3.0, P11, quad)[2]
    assert np.max(np.abs((t_out - t_in) - gamma * K)) < 1e-8


def test_witness_fixed_c_requires_family1(tables):
    med = LayeredMedium(shell_radius=2.0, c=-4.0, delta=1e-3, base=P11, core_radius=1.0)
    with pytest.raises(ValueError):
        witness_fixed_c(med, SourceSpec(q=3.0, coefficients={(2, 2, 1): 1.0}))


def test_witness_fixed_c_upper_bound_slope(tables):
    # both the exact dissipation and the bound scale linearly in the loss
    src = SourceSpec(q=3.0, coefficients={(2, 1, 1): 1.0})
    deltas = np.array([1e-2, 1e-3, 1e-4, 1e-5])
    Is, Es = [], []
    for d in deltas:
        med = LayeredMedium(shell_radius=2.0, c=-4.0, delta=float(d), base=P11, core_radius=1.0)
        _, I_up, _ = witness_fixed_c(med, src)
        E = dissipation_E(solve_modes(med, src), med)
        assert E <= I_up * (1 + 1e-9)
        Is.append(I_up)
        Es.append(E)
    for vals in (Is, Es):
        slope = np.polyfit(np.log(1 / deltas), np.log(vals), 1)[0]
        assert abs(slope + 1.0) < 0.05  # value ~ delta means slope -1 vs 1/delta


def test_witness_fixed_c_upper_bound_any_core(tables):
    # the loss-free field is matched at the actual core radius
    src = SourceSpec(q=3.0, coefficients={(3, 1, 1): 1.0})
    for core in (0.5, 1.5):
        med = LayeredMedium(shell_radius=2.0, c=-4.0, delta=1e-2, base=P11, core_radius=core)
        _, I_up, _ = witness_fixed_c(med, src)
        E = dissipation_E(solve_modes(med, src), med)
        assert E <= I_up * (1 + 1e-9), (core, E, I_up)


def test_witness_fixed_c_matches_extended_precision_solve(tables, monkeypatch):
    # on the q=2.3 schedule (n = 7..12) the bound is I of the loss-free
    # field solved in 50 digits
    conf = scheduled_configuration(params=P11, shell_radius=2.0, q=2.3, core_radius=1.0, k=3)
    for delta in (1e-2, 10**-2.5, 1e-3, 10**-3.5):
        med, src = conf(delta)
        assert 7 <= max(src.degrees()) <= 12
        _, I_up, _ = witness_fixed_c(med, src)
        with monkeypatch.context() as m:
            m.setattr(transmission, "_square_solve", mp_square_solve)
            sols = solve_modes(med._replace(delta=0.0), src)
        pieces = _merge_pieces([list(sol.regions) for sol in sols])
        I_ref = functional_I(pieces, None, delta, P11)
        assert abs(I_up - I_ref) <= 1e-11 * abs(I_ref), (delta, I_up, I_ref)


def test_witness_fixed_c_singular_loss_free_system_leaves_bound_blank(tables):
    # at n = 17 the loss-free system's condition exceeds 1e9: no bound
    conf = scheduled_configuration(params=P11, shell_radius=2.0, q=2.3, core_radius=1.0)
    med, src = conf(1e-5)
    assert max(src.degrees()) == 17
    with pytest.raises(ResonantSingularityError) as err:
        witness_fixed_c(med, src)
    assert err.value.condition > 1e9
    row = _sweep_rows(conf, [1e-5])[0][0]
    assert row.I_upper is None and row.J_lower is not None


def test_witness_nocore_lower_bound_slope_and_sign(tables):
    z1 = plasmon_constants(P11, 2).zeta1
    src = SourceSpec(q=3.0, coefficients={(2, 1, 1): 1.0})
    deltas = np.array([1e-2, 1e-3, 1e-4])
    Js = []
    for d in deltas:
        med = LayeredMedium(shell_radius=2.0, c=z1, delta=float(d), base=P11)
        psi, J_low, tau = witness_nocore(med, src, float(d))
        assert tau > 0  # sign matches the positive real coefficient
        E = dissipation_E(solve_modes(med, src), med)
        assert J_low <= E * (1 + 1e-9)
        Js.append(J_low)
    slope = np.polyfit(np.log(1 / deltas), np.log(Js), 1)[0]
    assert abs(slope - 1.0) < 0.05


def test_witness_nocore_mismatch_rejected(tables):
    med = LayeredMedium(shell_radius=2.0, c=-2.0, delta=1e-3, base=P11)
    with pytest.raises(ValueError):
        witness_nocore(med, SourceSpec(q=3.0, coefficients={(2, 1, 1): 1.0}), 1e-3)


def test_witness_core_resonant_constraint(tables, quad):
    # dual constraint: A-weighted psi-defect is cancelled by delta * (L v)
    delta = 1e-3
    conf = scheduled_configuration(params=P11, shell_radius=2.0, q=2.3, core_radius=1.0)
    med, src = conf(delta)
    n = max(src.degrees())
    v, psi, J_low, tau = witness_core_resonant(med, src, delta)
    # at the core sphere: (c w_out-traction - w_in-traction) of psi plus
    # delta * plain traction jump of v must vanish
    rho = 1.0
    psi_in = next(p for p in psi if p.r_lo < rho <= p.r_hi).terms
    t_psi = traction_coeffs_algebraic(psi_in, rho, P11)[n]
    defect = (med.c - 1.0) * t_psi
    v_in = next(p for p in v if abs(p.r_hi - rho) < 1e-12).terms
    v_out = next(p for p in v if abs(p.r_lo - rho) < 1e-12).terms
    jump_v = traction_coeffs_algebraic(v_out, rho, P11)[n] - traction_coeffs_algebraic(v_in, rho, P11)[n]
    resid = defect + delta * jump_v
    assert np.max(np.abs(resid)) < 1e-8 * max(1.0, np.max(np.abs(defect)))


def test_witness_core_resonant_dichotomy_in_q(tables):
    # the same witness formula grows inside R^{3/2} and dies outside
    deltas = [1e-2, 1e-4, 1e-6]
    for q, growing in ((2.0 ** 1.2, True), (2.0 ** 1.8, False)):
        Js = []
        conf = scheduled_configuration(params=P11, shell_radius=2.0, q=q, core_radius=1.0)
        for d in deltas:
            med, src = conf(d)
            _, _, J_low, _ = witness_core_resonant(med, src, d)
            Js.append(J_low)
        if growing:
            assert Js[-1] > Js[0] * 3
        else:
            assert Js[-1] < Js[0]


def test_witness_radial_nonresonant_scheduled_amplitude(tables):
    # free-wave amplitude matches -gamma/((2n+1) q^{n-1}) at mu = 1
    delta = 1e-3
    q = 2.0**1.8
    conf = scheduled_configuration(params=P11, shell_radius=2.0, q=q, core_radius=1.0)
    med, src = conf(delta)
    n = max(src.degrees())
    v, w, I_up = witness_radial_nonresonant(med, src, delta)
    inner = next(p for p in v if p.r_lo == 0.0)
    K = kernel_basis(P11, n, 1)[0]
    tau_expect = -1.0 / ((2 * n + 1) * q ** (n - 1))
    coef = inner.terms[0].coef
    ratio = coef[np.abs(K) > 1e-3][0] / K[np.abs(K) > 1e-3][0]
    assert abs(ratio - tau_expect) < 1e-12 * abs(tau_expect)


def test_witness_radial_nonresonant_bounded(tables):
    q = 2.0**1.8
    conf = scheduled_configuration(params=P11, shell_radius=2.0, q=q, core_radius=1.0)
    vals = []
    for d in (1e-2, 1e-3, 1e-4, 1e-5):
        med, src = conf(d)
        _, _, I_up = witness_radial_nonresonant(med, src, d)
        E = dissipation_E(solve_modes(med, src), med)
        assert E <= I_up * (1 + 1e-9)
        vals.append(I_up)
    # bounded: the bound never grows along the sweep (here it decays, since
    # the re-injected single-mode source loses coupling as the degree climbs)
    assert max(vals) <= vals[0] * 3.0


def test_witness_radial_nonresonant_upper_bound_any_core(tables):
    # modes off the schedule are matched at the actual core radius a; the
    # source sphere lies outside the critical radius a (R / a)^(3/2) of both
    src = SourceSpec(q=4.5, coefficients={(3, 1, 1): 1.0})
    for core in (0.5, 1.5):
        med = LayeredMedium(shell_radius=2.0, c=-4.0, delta=1e-2, base=P11, core_radius=core)
        _, _, I_up = witness_radial_nonresonant(med, src, 1e-2)
        E = dissipation_E(solve_modes(med, src), med)
        assert E <= I_up * (1 + 1e-9), (core, E, I_up)


def test_witness_radial_nonresonant_w_energy_decreasing(tables):
    # the repair energy (1/delta) P(w, w) shrinks along the schedule outside R*
    q = 2.0**1.8
    conf = scheduled_configuration(params=P11, shell_radius=2.0, q=q, core_radius=1.0)
    w_energies = []
    for d in (1e-2, 1e-4, 1e-6):
        med, src = conf(d)
        _, w, _ = witness_radial_nonresonant(med, src, d)
        val = sum(
            float(np.real(pairing_P(p.terms, p.terms, p.r_lo, p.r_hi, P11))) for p in w if p.terms
        ) / d
        w_energies.append(val)
    assert w_energies[0] > w_energies[1] > w_energies[2]


def test_witness_radial_nonresonant_hypothesis_guard(tables):
    conf = scheduled_configuration(params=P11, shell_radius=2.0, q=2.5, core_radius=1.0)
    med, src = conf(1e-3)
    with pytest.raises(ValueError):
        witness_radial_nonresonant(med, src, 1e-3)


def test_sweep_nocore_fixed_resonant(tables):
    z1 = plasmon_constants(P11, 2).zeta1
    src = SourceSpec(q=3.0, coefficients={(2, 1, 1): 1.0})
    conf = fixed_configuration(params=P11, shell_radius=2.0, c=z1, source=src)
    res = sweep(conf, [1e-2, 1e-3, 1e-4, 1e-5])
    assert res.verdict == "resonant"
    assert abs(res.growth_exponent - 1.0) < 0.05
    for row in res.rows:
        assert row.J_lower is not None and row.J_lower <= row.E_delta * (1 + 1e-9)


def test_sweep_cored_fixed_nonresonant(tables):
    src = SourceSpec(q=3.0, coefficients={(2, 1, 1): 1.0})
    conf = fixed_configuration(params=P11, shell_radius=2.0, c=-4.0, source=src, core_radius=1.0)
    res = sweep(conf, [1e-2, 1e-3, 1e-4, 1e-5])
    assert res.verdict == "non-resonant"
    assert abs(res.growth_exponent + 1.0) < 0.05
    for row in res.rows:
        assert row.I_upper is not None and row.E_delta <= row.I_upper * (1 + 1e-9)


def test_sweep_scheduled_outside_critical_radius(tables):
    conf = scheduled_configuration(params=P11, shell_radius=2.0, q=2.0**1.8, core_radius=1.0)
    res = sweep(conf, [1e-2, 1e-3, 1e-4, 1e-5])
    assert res.verdict == "non-resonant"


def test_sweep_sandwich_consistency(tables):
    conf = scheduled_configuration(params=P11, shell_radius=2.0, q=2.3, core_radius=1.0)
    res = sweep(conf, [1e-2, 1e-3, 1e-4, 1e-5])
    for row in res.rows:
        assert row.sandwich_ok()


def test_scheduled_sweep_outside_critical_radius_keeps_relative_sandwich(tables):
    # q = 3.6 down to delta = 1e-8 (n = 27, condition ~ 1/delta): E_delta is
    # solved accurately enough for the relative gate, and the witnesses bound
    # it to rounding (a double solve without refinement misses by 5.8e-9)
    conf = scheduled_configuration(params=P11, shell_radius=2.0, q=3.6, core_radius=1.0)
    res = sweep(conf, [10.0 ** (-e / 2) for e in range(4, 17)])
    for row in res.rows:
        assert row.I_upper is not None and row.J_lower is not None
        assert row.sandwich_ok(), row.delta
        assert (row.I_upper - row.E_delta) / row.E_delta >= -1e-14, row.delta
        assert (row.E_delta - row.J_lower) / row.E_delta >= -1e-14, row.delta


def test_sweep_input_validation(tables):
    src = SourceSpec(q=3.0, coefficients={(2, 1, 1): 1.0})
    conf = fixed_configuration(params=P11, shell_radius=2.0, c=-4.0, source=src, core_radius=1.0)
    with pytest.raises(ValueError):
        sweep(conf, [1e-2, 1e-3])  # too short
    with pytest.raises(ValueError):
        sweep(conf, [1e-3, 1e-2, 1e-4, 1e-5])  # not decreasing
    with pytest.raises(ValueError):
        sweep(conf, [1e-2, 1e-3, 1e-4])  # under three decades


@pytest.mark.parametrize("deltas, loss", [([1e-2, 1e-4, 0.0], "0.0"), ([1e-2, 1e-3, 1e-4, -1e-5], "-1e-05")])
def test_sweep_refuses_a_loss_that_is_not_positive(deltas, loss):
    # the positivity of every loss is checked first: a zero loss once ended
    # in ZeroDivisionError from the span check, and a negative one read as a
    # sweep under three decades
    src = SourceSpec(q=3.0, coefficients={(2, 1, 1): 1.0})
    conf = fixed_configuration(params=P11, shell_radius=2.0, c=-4.0, source=src, core_radius=1.0)
    with pytest.raises(ValueError) as refused:
        sweep(conf, deltas)
    assert str(refused.value) == f"sweep losses must be positive, got delta = {loss}"


# fixed and scheduled runs of families 1-3, cored and core-free, and a
# two-mode source whose family-2 (n = 4) and family-3 (n = 2) densities share
# total angular momentum 3
P_WIDE = LameParams(2.0, 0.5)
FLUX_CONFIGS = {
    "f1_fixed_cored": fixed_configuration(P11, 2.0, -4.0, SourceSpec(3.0, {(2, 1, 1): 1.0}), core_radius=1.0),
    "f1_fixed_nocore": fixed_configuration(P11, 2.0, -4.0, SourceSpec(3.0, {(2, 1, 4): 0.6 + 0.8j})),
    "f1_sched_q2.3": scheduled_configuration(P11, 2.0, q=2.3, k=3, gamma=0.6 - 0.8j, core_radius=1.0),
    "f1_sched_q3.6": scheduled_configuration(P11, 2.0, q=3.6, k=2, core_radius=1.0),
    "f1_sched_nocore": scheduled_configuration(P_WIDE, 2.0, q=2.6, k=1),
    "f2_fixed_cored": fixed_configuration(P11, 2.0, -130.0 / 59.0, SourceSpec(3.0, {(4, 2, 2): -0.8 + 0.6j}),
                                          core_radius=1.0),
    "f2_sched_nocore": scheduled_configuration(P_WIDE, 2.6, q=3.0, family=2, k=3),
    "f3_fixed_nocore": fixed_configuration(P11, 2.0, -25.0 / 38.0, SourceSpec(2.6, {(3, 3, 5): 0.6 - 0.8j})),
    "f3_sched_cored": scheduled_configuration(P_WIDE, 2.6, q=3.0, family=3, k=2, core_radius=1.0),
    "shared_sector_nocore": fixed_configuration(P11, 2.0, -130.0 / 59.0,
                                                SourceSpec(2.6, {(4, 2, 3): 1.0, (2, 3, 3): 0.5 - 0.4j})),
    "shared_sector_cored": fixed_configuration(P_WIDE, 2.0, -1.7, SourceSpec(3.0, {(4, 2, 1): 0.7, (2, 3, 1): -0.9 + 0.2j}),
                                               core_radius=1.0),
}


@pytest.mark.parametrize("name", sorted(FLUX_CONFIGS))
def test_sweep_rows_match_the_volume_oracle(name, tables):
    # every E_delta, I_upper and J_lower of a sweep (by flux, from the sector
    # scalars) against the volume pairings of the solve and of the public
    # witnesses' pieces, to 1e-13; the same bounds apply on both routes
    from oracles import volume_row

    deltas = [1e-2, 1e-3, 1e-4, 1e-5]
    res = sweep(FLUX_CONFIGS[name], deltas)
    for row, delta in zip(res.rows, deltas):
        for got, want in zip((row.E_delta, row.I_upper, row.J_lower), volume_row(FLUX_CONFIGS[name], delta)):
            assert (got is None) == (want is None), (name, delta, got, want)
            if want is not None:
                assert abs(got - want) <= 1e-13 * abs(want), (name, delta, got, want)


def test_shared_sector_cross_energy_is_counted(tables):
    # the two densities of one J pair through their member coordinates: the
    # dissipation differs from the sum of the single-density dissipations
    for name in ("shared_sector_nocore", "shared_sector_cored"):
        med, src = FLUX_CONFIGS[name](1e-2)
        parts = [dissipation_E(solve_modes(med, SourceSpec(src.q, {mode: g})), med)
                 for mode, g in src.coefficients.items()]
        together = dissipation_E(solve_modes(med, src), med)
        assert abs(together - sum(parts)) > 1e-5 * together, name


def test_sweep_records_every_witness_refusal(tables):
    # q = 2.3: the loss-free system of the fixed-multiplier witness is
    # singular from n_delta = 17 on; each blank I_upper names its refusal, and
    # the radial witness, whose hypothesis q > R^(3/2) fails, is not tried
    conf = scheduled_configuration(P11, 2.0, q=2.3, k=3, gamma=0.6 - 0.8j, core_radius=1.0)
    res = sweep(conf, [10.0 ** (-e / 2) for e in range(4, 17)])
    refusals = res.meta["refusals"]
    assert [r["n_delta"] for r in refusals] == [17, 19, 20, 22, 24, 25, 27]
    assert {(r["witness"], r["bound"], r["error"]) for r in refusals} == {
        ("witness_fixed_c", "I_upper", "ResonantSingularityError")}
    assert all("singular" in r["message"] for r in refusals)
    for i, row in enumerate(res.rows):
        assert (row.I_upper is None) == any(r["row"] == i for r in refusals)
        assert row.J_lower is not None
    # a bound that does not apply to the configuration is a refusal too
    conf = FLUX_CONFIGS["f2_fixed_cored"]
    res = sweep(conf, [1e-2, 1e-3, 1e-4, 1e-5])
    assert [(r["row"], r["witness"], r["error"]) for r in res.meta["refusals"]] == [
        (i, w, "ValueError") for i in range(4) for w in ("witness_fixed_c", "witness_core_resonant")]


def test_fixed_c_sweep_solves_one_loss_free_system(monkeypatch):
    # every row of a cored family-1 fixed-c sweep has the same loss-free
    # medium and source: its loss-free column is one system, and each row's
    # I_upper is bit for bit the witness solved for that row alone
    conf = fixed_configuration(P11, 2.0, -4.0, SourceSpec(3.0, {(3, 1, 2): 0.6 + 0.8j}), core_radius=1.0)
    deltas = [1e-2, 1e-3, 1e-4, 1e-5]
    alone = [witness_fixed_c(*conf(d))[1] for d in deltas]
    stacks = []
    solve = transmission._square_solve

    def recorded(M, *args):
        stacks.append(len(M))
        return solve(M, *args)

    monkeypatch.setattr(transmission, "_square_solve", recorded)
    res = sweep(conf, deltas)
    assert stacks == [5]  # one column: the 4 lossy systems and the one loss-free system
    assert [row.I_upper for row in res.rows] == alone and all(isinstance(I, float) for I in alone)


def test_sweep_reports_each_rows_solves():
    # meta["solves"]: per row the largest condition and backward error of its
    # lossy and loss-free systems, as the row's own solves give them; a
    # loss-free system refused as singular (n = 17) keeps its condition, and
    # a sweep with no loss-free column reports None there
    conf = scheduled_configuration(P11, 2.0, q=2.3, k=3, gamma=0.6 - 0.8j, core_radius=1.0)
    deltas = [1e-2, 1e-3, 1e-4, 1e-5]  # n_delta 7, 10, 14, 17
    res = sweep(conf, deltas)
    singular = 0
    for i, (d, entry) in enumerate(zip(deltas, res.meta["solves"])):
        med, src = conf(d)
        (sol,) = solve_modes(med, src)
        try:
            (free,) = solve_modes(med._replace(delta=0.0), src)
            want = (free.condition, free.lstsq_residual)
        except ResonantSingularityError as exc:
            want, singular = (exc.condition, None), singular + 1
        assert entry == {"row": i, "lossy_condition": sol.condition, "lossy_backward_error": sol.lstsq_residual,
                         "loss_free_condition": want[0], "loss_free_backward_error": want[1]}
    assert singular == 1
    res = sweep(FLUX_CONFIGS["f2_fixed_cored"], deltas)
    assert [(e["loss_free_condition"], e["loss_free_backward_error"]) for e in res.meta["solves"]] == [(None, None)] * 4


def test_sweep_column_is_each_row_as_a_column_of_one():
    # one column of mixed rows: the two gated schedules (the q = 2.3 row at
    # n = 17 has a singular loss-free system), a cored family-1 fixed-c row
    # whose loss-free system is singular, core-free family-2 and family-3
    # rows and the cored family-2 row whose two witnesses refuse.  Each
    # row's E_delta, I_upper and J_lower are those of the row solved alone,
    # as a column of one, to 1e-15, and its refusals and solve diagnostics
    # are the same bytes
    import json

    singular = fixed_configuration(P11, 2.0, plasmon_constants(P11, 17).zeta1,
                                   SourceSpec(2.3, {(17, 1, 3): 0.6 - 0.8j}), core_radius=1.0)
    picks = [("f1_sched_q2.3", 1e-2), ("f1_sched_q2.3", 1e-5), ("f1_sched_q3.6", 1e-3), ("f1_sched_q3.6", 1e-8),
             (singular, 3e-3), ("f1_fixed_cored", 2e-3), ("f2_sched_nocore", 1.5e-2), ("f3_fixed_nocore", 2.5e-3),
             ("f2_fixed_cored", 4e-3), ("shared_sector_cored", 5e-3)]
    table = {delta: (FLUX_CONFIGS.get(conf, conf) if isinstance(conf, str) else conf)(delta) for conf, delta in picks}
    deltas = list(table)
    rows, refusals, solves = _sweep_rows(table.__getitem__, deltas)
    assert {r["witness"] for r in refusals} >= {"witness_fixed_c", "witness_core_resonant"}
    assert any(s["loss_free_condition"] and s["loss_free_backward_error"] is None for s in solves)  # refused
    for i, (row, delta) in enumerate(zip(rows, deltas)):
        (alone,), alone_refusals, alone_solves = _sweep_rows(table.__getitem__, [delta])
        for got, want in ((row.E_delta, alone.E_delta), (row.I_upper, alone.I_upper), (row.J_lower, alone.J_lower)):
            assert (got is None) == (want is None) and (want is None or abs(got - want) <= 1e-15 * abs(want)), i
        mine = [r for r in refusals if r["row"] == i]
        assert json.dumps(mine) == json.dumps([{**r, "row": i} for r in alone_refusals]), i
        assert json.dumps(solves[i]) == json.dumps({**alone_solves[0], "row": i}), i


def _dual_pass(rows) -> list:
    """Per row the outcome of its dual core in one pass of the cores over ``rows`` (``scenarios._witness_pass``)."""
    from elastoplasmon.scenarios import _dual_bound, _witness_pass

    found = _witness_pass(rows, [None] * len(rows), lambda w, i: w.core is _dual_bound and w.applies(rows[i][0]))
    return [got for ((_, got),) in found]


def test_witness_column_gives_each_row_its_own_error():
    # a row whose bound leaves the float range (a source coefficient of
    # 1e200) is refused by OverflowError; in one pass of the cores between
    # two good rows that row alone is refused, with the same text, and the
    # others keep their bounds bit for bit.  A core sphere of radius 1e-200,
    # which the core repair's powers of the radius once refused, is a row
    # like any other: its repair is region-local
    from elastoplasmon.scenarios import _dual_bound
    from oracles import plain_data

    conf = scheduled_configuration(P11, 2.0, q=2.3, k=3, gamma=0.6 - 0.8j, core_radius=1.0)
    good = [(*conf(d), d) for d in (1e-2, 1e-3)]
    (mode,) = good[0][1].coefficients
    bad = (good[0][0], SourceSpec(2.3, {mode: 1e200}), 1e-2)
    with pytest.raises(OverflowError) as alone:
        _dual_bound(bad, None)  # a dual core reads no loss-free solve
    column = _dual_pass([good[0], bad, good[1]])
    assert type(column[1]) is OverflowError and str(column[1]) == str(alone.value)
    far_core = (good[0][0]._replace(core_radius=1e-200), good[0][1], 1e-2)
    assert 0 < _dual_bound(far_core, None)[0] < math.inf
    assert [plain_data(column[i]) for i in (0, 2)] == [plain_data(_dual_bound(row, None)) for row in good]


def test_dual_column_mixes_cored_and_core_free_rows(monkeypatch):
    # one pass of the dual cores over cored family-1 rows and core-free rows
    # of all three families, no unit layer kept yet: the pass keeps the
    # cored rows' unit layers, and each row's value is its core's on the row
    # alone bit for bit; a cored row carries its core repair's density, a
    # core-free row none
    from elastoplasmon.scenarios import _dual_bound
    from oracles import plain_data

    cored = scheduled_configuration(P11, 2.0, q=2.3, k=3, gamma=0.6 - 0.8j, core_radius=1.0)
    free = [scheduled_configuration(P11, 2.0, q=2.6, family=fam, k=2, gamma=-0.3 + 0.9j) for fam in (1, 2, 3)]
    rows = [(*conf(d), d) for d in (1e-2, 1e-4) for conf in (cored, *free)]
    monkeypatch.setattr(transmission._unit_layers, "cache", {})
    column = _dual_pass(rows)
    assert set(transmission._unit_layers.cache) == {(1.0, 1.0, max(src.degrees()), 1) for med, src, _ in rows
                                                    if med.core_radius is not None}
    for row, got in zip(rows, column):
        assert repr(plain_data(got)) == repr(plain_data(_dual_bound(row, None)))
        assert (got[3] is None) == (row[0].core_radius is None) and 0 < got[0] < math.inf


def test_dual_builders_refuse_the_other_kind_of_medium():
    # the core-free builder refuses a core and a source not outside the
    # shell (in the solve's words), the cored one a medium without a core
    z1 = plasmon_constants(P11, 2).zeta1
    src = SourceSpec(q=3.0, coefficients={(2, 1, 1): 1.0})
    free = LayeredMedium(shell_radius=2.0, c=z1, delta=1e-3, base=P11)
    with pytest.raises(ValueError, match="^no-core witness requires an empty core$"):
        witness_nocore(free._replace(core_radius=1.0), src, 1e-3)
    with pytest.raises(ValueError, match="^core witness requires a core$"):
        witness_core_resonant(free, src, 1e-3)
    for q in (1.5, 2.0):
        with pytest.raises(ValueError, match=f"^source sphere q = {q} must lie outside the shell \\(radius 2.0\\)$"):
            witness_nocore(free, src._replace(q=q), 1e-3)


def test_public_builders_check_their_bound_against_the_dissipation():
    # a core-free family-3 row whose multiplier c = -0.657894736875 is 1e-10
    # relative off its plasmon constant at degree 3: at delta = 1e-14 its
    # dual bound is about 3.9e6 times the dissipation, so witness_nocore
    # raises the sandwich error naming J_lower, with the same text as
    # witness_scalars; at delta = 1e-3 the bound holds and both return it
    from elastoplasmon.scenarios import witness_scalars

    med = LayeredMedium(shell_radius=2.0, c=-0.657894736875, delta=1e-14, base=P11)
    src = SourceSpec(q=2.6, coefficients={(3, 3, 1): 1.0})
    E = dissipation_E(solve_modes(med, src), med)
    with pytest.raises(ArithmeticError) as built:
        witness_nocore(med, src, 1e-14)
    with pytest.raises(ArithmeticError) as scalars:
        witness_scalars(med, src, 1e-14)
    assert str(built.value) == str(scalars.value) == (
        f"J_lower = 14079212986814.258 above E_delta = {E!r} at delta = 1e-14: the variational sandwich "
        "J_lower <= E_delta <= I_upper breaks")
    med = med._replace(delta=1e-3)
    (_, (J, tau, *_)), = witness_scalars(med, src, 1e-3)
    assert witness_nocore(med, src, 1e-3)[1:] == (J, tau)


def test_a_core_defect_propagates_from_the_sweep_and_the_witness_scalars(monkeypatch):
    # a core that raises an error other than ValueError or ArithmeticError
    # is a defect, not a refusal: that very error, its traceback through
    # the core kept, propagates out of sweep and witness_scalars
    from elastoplasmon import scenarios

    defect = RuntimeError("stub core defect")

    def broken(row, loss_free):
        raise defect

    monkeypatch.setattr(scenarios, "WITNESSES", tuple(w._replace(core=broken) if w.name == "witness_fixed_c" else w
                                                      for w in scenarios.WITNESSES))
    conf = fixed_configuration(P11, 2.0, -4.0, SourceSpec(3.0, {(3, 1, 1): 1.0}), core_radius=1.0)
    for call in (lambda: sweep(conf, [1e-2, 1e-3, 1e-4, 1e-5]), lambda: scenarios.witness_scalars(*conf(1e-3), 1e-3)):
        with pytest.raises(RuntimeError) as err:
            call()
        assert err.value is defect and err.traceback[-1].name == "broken"


def test_a_source_inside_the_shell_has_one_message():
    # the dual witness asks the solve's layout for the rule q > R, so a
    # library caller of witness_scalars reads the message solve_mode gives
    from elastoplasmon.scenarios import witness_scalars

    med = LayeredMedium(shell_radius=2.0, c=plasmon_constants(P11, 2).zeta1, delta=1e-3, base=P11)
    src = SourceSpec(q=1.5, coefficients={(2, 1, 1): 1.0})
    with pytest.raises(ValueError) as solve_error:
        solve_mode(med, src, 2)
    got = [(w.name, type(e), str(e)) for w, e in witness_scalars(med, src, 1e-3)]
    assert str(solve_error.value) == "source sphere q = 1.5 must lie outside the shell (radius 2.0)"
    assert got == [("witness_nocore", ValueError, str(solve_error.value))]


def test_dual_bound_keeps_its_digits_for_a_small_source():
    # J is formed as C0 tau / 2, never as C0^2: at gamma = 2^-532, where
    # C0^2 is subnormal (J was 3.4e-5 off), J is 2^-1064 times its value at
    # gamma = 1 and tau 2^-532 times, on a core-free family-1 row at zeta1(2)
    # (q = 2.6, R = 2) at delta = 1e-200 and 1e-300.  A J out of the float
    # range is OverflowError, named so
    from elastoplasmon.scenarios import _dual_bound

    med = LayeredMedium(shell_radius=2.0, c=plasmon_constants(P11, 2).zeta1, delta=1e-2, base=P11)

    def row(gamma, delta):
        return med._replace(delta=delta), SourceSpec(2.6, {(2, 1, 1): gamma}), delta

    for delta in (1e-200, 1e-300):
        J1, tau1, *_ = _dual_bound(row(1.0, delta), None)
        J, tau, *_ = _dual_bound(row(2.0**-532, delta), None)
        assert tau == math.ldexp(tau1, -532) and 0 < J1 < math.inf
        assert abs(math.ldexp(J, 1064) - J1) <= math.ulp(J1), delta
    with pytest.raises(OverflowError) as huge:
        _dual_bound(row(1e200, 1e-2), None)
    assert str(huge.value).startswith("dual bound J = ") and str(huge.value).endswith("is out of the float range")


@pytest.mark.parametrize("params", [P11, LameParams(2.0, 0.5), LameParams(1e3, 1.0)])
def test_bounds_are_the_family1_closed_forms(params):
    # on every row of both gated schedules (R = 2, core radius 1) J_lower is
    # the closed-form dual bound at c = zeta1(n), and on the q = 3.6 one,
    # outside R^{3/2}, I_upper is the closed-form radial bound; a core-free
    # family-1 run at a fixed zeta1(n) has the closed-form J of no core.
    # All to 1e-15 relative (measured <= 7.7e-16)
    deltas = [10.0 ** (-(4 + i) / 2) for i in range(13)]
    for q in (2.3, 3.6):
        conf = scheduled_configuration(params, 2.0, q, family=1, k=3, gamma=0.6 + 0.8j, core_radius=1.0)
        for row in sweep(conf, deltas).rows:
            J = closed_dual_bound(params, row.n_delta, 0.8, q, 2.0, row.delta, 1.0)
            assert abs(row.J_lower - J) <= 1e-15 * J, (q, row)
            if q == 3.6:
                I = closed_radial_bound(params, row.n_delta, row.c_used, 0.6 + 0.8j, q, 2.0, 1.0, row.delta)
                assert abs(row.I_upper - I) <= 1e-15 * I, row
    for n in (2, 5, 9):
        src = SourceSpec(2.6, {(n, 1, 2): -0.3 + 0.9j})
        for row in sweep(fixed_configuration(params, 2.0, plasmon_constants(params, n).zeta1, src),
                         [1e-2, 1e-4, 1e-6, 1e-8]).rows:
            J = closed_dual_bound(params, n, 0.9, 2.6, 2.0, row.delta)
            assert abs(row.J_lower - J) <= 1e-15 * J, (n, row)


def test_radial_builder_solves_only_its_off_schedule_degrees(monkeypatch):
    # the builder of the radial witness solves the loss-free systems of its
    # off-schedule degrees only: none on a scheduled q = 3.6 row, and with
    # an added off-schedule family-1 mode exactly that degree's, whose field
    # joins v; the bound is the witness core's on all the row's loss-free
    # solves, and the scheduled fields are unchanged, bit for bit
    from elastoplasmon.scenarios import witness_scalars

    med, src = FLUX_CONFIGS["f1_sched_q3.6"](1e-3)
    loss_free = []
    solve = transmission._square_solve
    monkeypatch.setattr(transmission, "_square_solve", lambda M, b, what, caps: loss_free.extend(
        w for w, cap in zip(what, caps) if cap == 1e9) or solve(M, b, what, caps))
    v, w, I_upper = witness_radial_nonresonant(med, src, 1e-3)
    assert loss_free == []
    mixed = src._replace(coefficients={**src.coefficients, (3, 1, 2): 0.4 - 0.3j})
    v_mixed, w_mixed, I_mixed = witness_radial_nonresonant(med, mixed, 1e-3)
    assert loss_free == ["family-1 system at degree 3"]
    core = {wit.name: got for wit, got in witness_scalars(med, mixed, 1e-3)}["witness_radial_nonresonant"]
    assert I_mixed == core[0] and I_mixed != I_upper

    def terms(pieces):
        return [(p.r_lo, p.r_hi, [(t.degree, t.power, t.coef.tobytes()) for t in p.terms]) for p in pieces]

    off = solve_modes(med._replace(delta=0.0), SourceSpec(mixed.q, {(3, 1, 2): 0.4 - 0.3j}))
    assert terms(w_mixed) == terms(w)
    assert terms(v_mixed) == terms(_merge_pieces([v] + [list(sol.regions) for sol in off]))
