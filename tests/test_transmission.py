"""Layered lossy solves: transparency, sources, resonances, residuals."""

import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from elastoplasmon import transmission
from elastoplasmon.energy import dissipation_E
from elastoplasmon.harmonics import build_quadrature, ensure_tables, sph_harm_stack
from elastoplasmon.lame import LameParams, SectorCheckError, mode_constants
from elastoplasmon.transmission import (
    LayeredMedium,
    ResonantSingularityError,
    SourceSpec,
    UnconvergedSolveError,
    kernel_basis,
    residual_check,
    sector_conditions,
    solve_mode,
    solve_modes,
)
from elastoplasmon.scenarios import (fixed_configuration, scheduled_configuration, sweep, witness_nocore,
                                     witness_radial_nonresonant)
from elastoplasmon.waves import PlasmonConstants, assemble_H, kernel_family, matching_defect, plasmon_constants
from oracles import (
    FieldSolution,
    eval_field,
    interface_singular_values,
    matrix_sector_solve,
    mp_square_solve,
    project_source,
    projected_radial_profile,
    square_solve_reference,
    volume_dissipation,
    window_solve,
)

P11 = LameParams(1.0, 1.0)


def test_medium_validation():
    with pytest.raises(ValueError):
        LayeredMedium(shell_radius=1.0, c=-2.0, delta=0.1, base=P11, core_radius=1.5)
    with pytest.raises(ValueError):
        LayeredMedium(shell_radius=1.0, c=-2.0, delta=-0.1, base=P11)
    for c, delta in ((-2.0, math.nan), (-2.0, math.inf), (math.nan, 0.1), (-math.inf, 0.1)):
        with pytest.raises(ValueError):
            LayeredMedium(shell_radius=1.0, c=c, delta=delta, base=P11)


def test_transparent_interfaces(tables):
    # c = 1: no scattering; entire amplitudes equal in all interior regions
    med = LayeredMedium(shell_radius=1.5, c=1.0, delta=0.02, base=P11)
    src = SourceSpec(q=2.0, coefficients={(2, 1, 1): 1.0})
    sol = solve_mode(med, src, 2)
    inner = {(t.degree, t.power): t.coef for t in sol.regions[0].terms}
    mid = {(t.degree, t.power): t.coef for t in sol.regions[1].terms}
    scale = max(np.max(np.abs(c)) for c in inner.values())
    # the middle region repeats the inner entire block; decaying content is 0
    for key, coef in inner.items():
        assert np.max(np.abs(mid[key] - coef)) < 1e-12 * scale
    for (d, p), coef in mid.items():
        if p < 0:
            assert np.max(np.abs(coef)) < 1e-12 * scale


def test_zero_source_zero_solution(tables):
    med = LayeredMedium(shell_radius=1.5, c=-3.0, delta=0.0, base=P11)
    src = SourceSpec(q=2.0, coefficients={(2, 1, 1): 0.0})
    sol = solve_mode(med, src, 2)
    assert all(not reg.terms or max(np.max(np.abs(t.coef)) for t in reg.terms) < 1e-14 for reg in sol.regions)


def test_wellposed_positive_multiplier_loss_free(tables):
    med = LayeredMedium(shell_radius=1.5, c=2.0, delta=0.0, base=P11)
    src = SourceSpec(q=2.0, coefficients={(3, 2, 1): 1.0})
    sol = solve_mode(med, src, 3)
    assert sol.lstsq_residual < 1e-10


def test_all_families_solve_with_tiny_residuals(tables, materials):
    for params in materials[:2]:
        med = LayeredMedium(shell_radius=1.4, c=-1.7, delta=0.05, base=params)
        src = SourceSpec(
            q=2.1,
            coefficients={(2, 1, 1): 1.0, (2, 2, 1): 0.5 + 0.25j, (2, 3, 2): -0.75, (3, 3, 1): 0.4},
        )
        sols = solve_modes(med, src)
        rep = residual_check(sols, med, src)
        assert rep["lame"] < 1e-8
        assert rep["displacement_jump"] < 1e-9
        assert rep["traction_jump"] < 1e-9
        assert rep["source_jump"] < 1e-9


def test_residual_check_detects_perturbation(tables):
    med = LayeredMedium(shell_radius=1.5, c=-2.0, delta=0.05, base=P11)
    src = SourceSpec(q=2.0, coefficients={(2, 1, 1): 1.0})
    sol = solve_mode(med, src, 2)
    from dataclasses import replace
    from elastoplasmon.lame import Term

    bad_terms = tuple(Term(1.01 * t.coef, t.degree, t.power) for t in sol.regions[1].terms)
    bad = FieldSolution(sol.n, sol.regions[:1] + (replace(sol.regions[1], terms=bad_terms),) + sol.regions[2:])
    rep = residual_check([bad], med, src)
    assert max(rep["displacement_jump"], rep["traction_jump"], rep["source_jump"]) > 1e-3


def test_field_decay_and_continuity(tables):
    med = LayeredMedium(shell_radius=1.5, c=-2.2, delta=0.05, base=P11)
    src = SourceSpec(q=2.0, coefficients={(2, 1, 1): 1.0})
    sols = solve_modes(med, src)
    d = np.array([0.36, 0.48, 0.8])
    far, farther = eval_field(sols, 20.0 * d), eval_field(sols, 200.0 * d)
    # lowest active degree 2 decays like r^{-3} per decade, above the 10^{-2(n+1)} floor
    ratio = np.max(np.abs(farther)) / np.max(np.abs(far))
    assert 10.0 ** (-2 * 3) <= ratio <= 10.0 ** (-3) * 3.0
    lim_in = eval_field(sols, 1.5 * d, side="inner")
    lim_out = eval_field(sols, 1.5 * d, side="outer")
    assert np.max(np.abs(lim_in - lim_out)) < 1e-8 * max(1.0, np.max(np.abs(lim_in)))


def test_resonant_singularity_alignment(tables, materials):
    # loss-free sector systems are singular exactly at their own constant:
    # at zeta_f(n) the family's condition reads at least 1.0e16, and a
    # relative detuning of 1e-6 brings it to at most 5.0e10
    for params in materials:
        med_factory = lambda c: LayeredMedium(shell_radius=1.5, c=c, delta=0.0, base=params)
        for n in (2, 3, 8, 27, 64):
            zetas = plasmon_constants(params, n).as_tuple()
            for fam, z in enumerate(zetas, start=1):
                conds = sector_conditions(med_factory(z), n, 2.0)
                assert conds[fam] > 1e13, (params, n, fam)
                assert sector_conditions(med_factory(z * (1 + 1e-6)), n, 2.0)[fam] < 1e12, (params, n, fam)
                if n <= 3:
                    # the other families' sectors stay well conditioned
                    assert all(conds[f] < 1e5 for f in conds if f != fam), (params, n, fam)
                    # a small detuning restores invertibility
                    assert sector_conditions(med_factory(z + 1e-3), n, 2.0)[fam] < 1e6, (params, n, fam)
            if n <= 3:
                for c in (-5.0, -1.5, -0.4):
                    assert min(abs(c - z) for z in zetas) > 1e-2
                    assert max(sector_conditions(med_factory(c), n, 2.0).values()) < 1e5, (params, n, c)
    # the full-window matrix route agrees on where the system is singular
    for z in plasmon_constants(P11, 2).as_tuple():
        sv = interface_singular_values(LayeredMedium(shell_radius=1.5, c=z, delta=0.0, base=P11), 2, 2.0, tables)
        assert sv[-1] < 1e-13 * sv[0]


def test_loss_free_solve_checks_every_family(tables):
    # a family-2 source still raises at the family-3 constant
    z3 = plasmon_constants(P11, 2).zeta3
    med = LayeredMedium(shell_radius=1.5, c=z3, delta=0.0, base=P11)
    with pytest.raises(ResonantSingularityError) as err:
        solve_mode(med, SourceSpec(q=2.0, coefficients={(2, 2, 1): 1.0}), 2)
    assert err.value.condition > 1e9


def test_sector_solve_agrees_with_window_oracle(tables, materials):
    # the sector solve against the full-window matrix route, one oracle
    # assembly per medium and degree for all three sources
    for params in materials:
        for core in (None, 1.0):
            for n in (2, 3):
                med = LayeredMedium(shell_radius=2.0, c=plasmon_constants(params, n).zeta2,
                                    delta=1e-4, base=params, core_radius=core)
                sources = [SourceSpec(q=2.7, coefficients=co) for co in (
                    {(n, 2, 1): 1.0}, {(n, 3, 2): 1.0},
                    {(n, 1, 1): 0.3, (n, 2, 1): 0.5j, (n, 3, 1): -0.7})]
                for src, ref in zip(sources, window_solve(med, sources, n, tables)):
                    sol = solve_mode(med, src, n)
                    E, E_ref = dissipation_E([sol], med), volume_dissipation([ref], med)
                    assert abs(E - E_ref) <= 1e-9 * abs(E_ref), (params, core, n, src)
                    for reg in ref.regions:
                        hi = reg.r_hi if math.isfinite(reg.r_hi) else 2.0 * reg.r_lo
                        rads = reg.r_lo + np.array([0.3, 0.7]) * (hi - reg.r_lo)
                        pts = np.outer(rads, [0.36, 0.48, 0.8])
                        u, u_ref = eval_field([sol], pts), eval_field([ref], pts)
                        assert np.max(np.abs(u - u_ref)) <= 1e-8 * np.max(np.abs(u_ref))


def test_unconverged_solve_raises(tables, monkeypatch):
    # a density with content outside its declared sector cannot be matched:
    # the solve is scalar, and building its regions from the members fails
    mix = (kernel_basis(P11, 2, 1)[0] + kernel_basis(P11, 2, 2)[0]) / math.sqrt(2.0)
    monkeypatch.setattr(transmission, "kernel_basis", lambda params, n, fam: [mix])
    med = LayeredMedium(shell_radius=1.5, c=-2.2, delta=0.05, base=P11)
    sol = solve_mode(med, SourceSpec(q=2.0, coefficients={(2, 3, 1): 1.0}), 2)
    with pytest.raises(UnconvergedSolveError, match="backward error"):
        sol.regions


def test_solve_where_plasmon_constants_coincide(tables):
    # lambda=2, mu=0.5 at n=8: zeta1 = zeta2 = -10/7, the families stay apart
    params = LameParams(2.0, 0.5)
    z = plasmon_constants(params, 8)
    assert z.zeta1 == pytest.approx(z.zeta2, abs=1e-14)
    med = LayeredMedium(shell_radius=1.4, c=-1.7, delta=0.05, base=params)
    for fam in (1, 2):
        src = SourceSpec(q=2.1, coefficients={(8, fam, 1): 1.0})
        sols = solve_modes(med, src)
        rep = residual_check(sols, med, src)
        assert max(rep["displacement_jump"], rep["traction_jump"], rep["source_jump"]) < 1e-9, (fam, rep)
        assert rep["lame"] < 1e-8, (fam, rep)


def test_singularity_error_carries_condition(tables):
    z1 = plasmon_constants(P11, 2).zeta1
    med = LayeredMedium(shell_radius=1.5, c=z1, delta=0.0, base=P11)
    src = SourceSpec(q=2.0, coefficients={(2, 1, 1): 1.0})
    with pytest.raises(ResonantSingularityError) as err:
        solve_mode(med, src, 2)
    assert err.value.condition > 1e9


def test_delta_continuity(tables):
    med1 = LayeredMedium(shell_radius=1.5, c=-2.0, delta=0.1, base=P11)
    med2 = LayeredMedium(shell_radius=1.5, c=-2.0, delta=0.1001, base=P11)
    src = SourceSpec(q=2.0, coefficients={(2, 3, 1): 1.0})
    x = np.array([0.9, 0.3, 0.1])
    u1 = eval_field(solve_modes(med1, src), x)
    u2 = eval_field(solve_modes(med2, src), x)
    assert np.max(np.abs(u1 - u2)) / np.max(np.abs(u1)) < 1e-2


def test_kernel_basis_families_are_pure(tables, materials):
    # multiplicities 2n+1, 2n-1, 2n+3 and pure t-patterns, including
    # lambda=2, mu=0.5 at n=8 where zeta1 and zeta2 coincide
    for params in materials:
        for n in range(2, 13):
            for fam, dim in ((1, 2 * n + 1), (2, 2 * n - 1), (3, 2 * n + 3)):
                kers = kernel_basis(params, n, fam)
                assert len(kers) == dim, (params, n, fam)
                assert all(kernel_family(K) == fam for K in kers), (params, n, fam)


def test_kernel_basis_lies_in_the_matching_null_space(tables, materials):
    # the proof kernel_basis no longer runs: every kernel matrix is annihilated
    # by the full matching matrix at its family's plasmon constant
    cases = [(params, n) for params in materials for n in range(2, 14)] + [(P11, 27)]
    for params, n in cases:
        for fam, c in enumerate(plasmon_constants(params, n).as_tuple(), start=1):
            prob = assemble_H(n, params, c, tables)
            smax = prob.singular_values[0]
            for K in kernel_basis(params, n, fam):
                assert np.linalg.norm(prob.defect(K)) <= 1e-9 * smax, (params, n, fam)


def test_matching_defect_separates_the_constants(tables):
    n = 5
    z = plasmon_constants(P11, n).as_tuple()
    for fam, c in enumerate(z, start=1):
        G = sum(kernel_basis(P11, n, fam))
        assert matching_defect(G, n, P11, c) < 1e-13
        assert 1e-9 < matching_defect(G, n, P11, c * (1 + 1e-6)) < 1e-5
        other = z[fam % 3]
        assert matching_defect(G, n, P11, other) > 0.1


def test_kernel_check_rejects_detuned_constants(tables, monkeypatch):
    def detuned(params, n):
        return PlasmonConstants(n, *(z * (1 + 1e-6) for z in plasmon_constants(params, n).as_tuple()))

    monkeypatch.setattr(transmission, "plasmon_constants", detuned)
    monkeypatch.setattr(transmission.kernel_basis, "cache", {})
    for fam in (1, 2, 3):  # each family is checked before it is kept
        with pytest.raises(AssertionError, match=f"family {fam} .*matching defect"):
            kernel_basis(P11, 4, fam)
    assert not transmission.kernel_basis.cache


def test_scalar_kernel_check_rejects_detuned_constants(tables, monkeypatch):
    # a solve builds no member, so its sector check is scalar: the perfect
    # wave's profile amplitudes must meet continuity and the c-weighted
    # traction match at R; passes for n = 2..64 on every material, fails
    # once the constants are detuned by 1e-6
    for params in (P11, LameParams(2.0, 0.5), LameParams(-0.5, 1.0), LameParams(1e20, 1.0)):
        for n in range(2, 65):
            for fam in (1, 2, 3):
                transmission._wave_amplitudes(params, n, fam, 1.7)

    def detuned(params, n):
        return PlasmonConstants(n, *(z * (1 + 1e-6) for z in plasmon_constants(params, n).as_tuple()))

    monkeypatch.setattr(transmission, "plasmon_constants", detuned)
    monkeypatch.setattr(transmission._wave_amplitudes, "cache", {})  # each check runs once per key
    med = LayeredMedium(shell_radius=1.5, c=-2.2, delta=0.05, base=P11)
    for fam in (1, 2, 3):
        with pytest.raises(AssertionError, match=f"family {fam} .*transmission defect"):
            solve_mode(med, SourceSpec(q=2.0, coefficients={(4, fam, 1): 1.0}), 4)


def test_project_source_recovers_kernel_density(tables):
    quad = build_quadrature(14)
    K = kernel_basis(P11, 2, 1)[0]
    F = quad.harmonics(2) @ K.T  # density G Y_2 sampled at nodes
    spec, report = project_source(F, 2.0, quad, P11, n_max=4)
    assert report["zero_mean_residual"] < 1e-12
    assert abs(spec.coefficients[(2, 1, 1)] - 1.0) < 1e-10
    others = {k: v for k, v in spec.coefficients.items() if k != (2, 1, 1)}
    assert all(abs(v) < 1e-10 for v in others.values())


def test_project_source_parseval(tables):
    quad = build_quadrature(18)
    rng = np.random.default_rng(0)
    F = np.zeros((len(quad.nodes), 3), dtype=complex)
    for n in (2, 3, 4):
        C = rng.normal(size=(3, 2 * n + 1)) + 1j * rng.normal(size=(3, 2 * n + 1))
        F += quad.harmonics(n) @ C.T
    spec, report = project_source(F, 1.5, quad, P11, n_max=4)
    assert report["parseval_defect"] < 1e-9 * report["density_l2"]


def test_project_source_flags_mean_violation(tables):
    quad = build_quadrature(12)
    F = np.ones((len(quad.nodes), 3))  # constant density: nonzero mean
    spec, report = project_source(F, 1.5, quad, P11, n_max=3)
    assert report["zero_mean_residual"] > 1.0
    assert not spec.coefficients


def test_project_source_rejects_coarse_quadrature(tables):
    quad = build_quadrature(6)
    with pytest.raises(ValueError):
        project_source(np.zeros((len(quad.nodes), 3)), 1.5, quad, P11, n_max=6)


def test_closed_form_profiles_match_projection_oracle(tables, materials):
    # every closed-form displacement and traction scalar and the ladder round
    # trip kappa against the projected traction algebra of one sector member,
    # to 1e-13 relative (an exact zero, the traction 2 mu lo at lo = 0 or a
    # degree the block does not reach: to 1e-13 of the block's largest scalar)
    tables = ensure_tables(tables, 68)
    for params in materials:
        for n in range(2, 65):
            for fam in (1, 2, 3):
                prof, ref = transmission._radial_profile(params, n, fam), projected_radial_profile(params, n, fam, tables)
                assert prof.degrees == ref.degrees and prof.blocks.keys() == ref.blocks.keys()
                triples = [(prof.kappa, ref.kappa, 0.0)] if fam != 1 else []
                for key, (p, disp, trac) in prof.blocks.items():
                    p_ref, disp_ref, trac_ref = ref.blocks[key]
                    assert p == p_ref and disp.keys() == disp_ref.keys(), (params, n, fam, key)
                    scale = max(abs(v) for v in [*disp.values(), *trac.values()])
                    triples += [(disp[d], disp_ref[d], scale) for d in disp]
                    triples += [(trac.get(d, 0.0), trac_ref.get(d, 0.0), scale) for d in trac.keys() | trac_ref.keys()]
                assert all(abs(a - b) <= 1e-13 * (abs(a) if a else scale) for a, b, scale in triples), (params, n, fam)


def _bad_source_calls():
    # solve_mode, the dual-wave prologue and the radial witness on degree-2
    # sources, family 1 (2J + 1 = 5 members) unless the case names another
    def solve(k, q=3.0, fam=1):
        med = LayeredMedium(shell_radius=2.0, c=-2.2, delta=0.05, base=P11, core_radius=1.0)
        return lambda: solve_mode(med, SourceSpec(q=q, coefficients={(2, fam, k): 1.0}), 2)

    def dual(k):
        med = LayeredMedium(shell_radius=2.0, c=-4.0, delta=0.05, base=P11)
        return lambda: witness_nocore(med, SourceSpec(q=3.0, coefficients={(2, 1, k): 1.0}), 0.05)

    def radial(k):
        med = LayeredMedium(shell_radius=2.0, c=-4.0, delta=0.05, base=P11, core_radius=1.0)
        return lambda: witness_radial_nonresonant(med, SourceSpec(q=3.0, coefficients={(2, 1, k): 1.0}), 0.05)

    cases = {"solve-q-inside-shell": (solve(1, q=1.5), "outside the shell"),
             "solve-q-on-shell": (solve(1, q=2.0), "outside the shell"),
             "solve-family0": (solve(1, fam=0), "family 0 is not 1, 2 or 3"),
             "solve-family4": (solve(1, fam=4), "family 4 is not 1, 2 or 3")}
    for name, call in (("solve", solve), ("dual-wave", dual), ("radial-witness", radial)):
        for k in (0, 6):
            cases[f"{name}-k{k}"] = (call(k), f"k = {k} outside 1..5")
    return cases


@pytest.mark.parametrize("case", sorted(_bad_source_calls()))
def test_library_rejects_sources_outside_the_model(case):
    # a source sphere inside the shell, a family outside 1..3 or a kernel
    # index outside 1..2J+1 raises ValueError instead of solving another
    # problem or failing deep inside the solve
    call, message = _bad_source_calls()[case]
    with pytest.raises(ValueError, match=message):
        call()


def test_degree_guard(tables):
    med = LayeredMedium(shell_radius=1.5, c=-2.0, delta=0.05, base=P11)
    with pytest.raises(ValueError):
        solve_mode(med, SourceSpec(q=2.0, coefficients={}), 1)


def test_scalar_sector_solve_agrees_with_matrix_oracle(tables, materials):
    # the square scalar systems against the matrix route they replaced, for
    # single families and a mixed source, away from any plasmon constant
    for params in materials:
        for core in (None, 1.0):
            med = LayeredMedium(shell_radius=1.8, c=-2.2, delta=0.05, base=params, core_radius=core)
            for n in (2, 3, 5, 8):
                for co in ({(n, 2, 1): 1.0}, {(n, 3, 2): 0.5 - 0.5j},
                           {(n, 1, 2): 0.3, (n, 2, 1): 0.5j, (n, 3, 3): -0.7}):
                    src = SourceSpec(q=2.5, coefficients=co)
                    sol, ref = solve_mode(med, src, n), matrix_sector_solve(med, src, n, tables)
                    assert sol.window == ref.window
                    E, E_ref = dissipation_E([sol], med), volume_dissipation([ref], med)
                    assert abs(E - E_ref) <= 1e-12 * E_ref, (params, core, n, co)
                    for reg, reg_ref in zip(sol.regions, ref.regions):
                        got = {(t.degree, t.power): t.coef for t in reg.terms}
                        want = {(t.degree, t.power): t.coef for t in reg_ref.terms}
                        assert set(got) == set(want)
                        scale = max(np.max(np.abs(c)) for c in want.values())
                        assert all(np.max(np.abs(got[k] - want[k])) <= 1e-11 * scale for k in want)


def _energies_with_50_digit_oracle(configuration, deltas, tables, monkeypatch):
    out = []
    for delta in deltas:
        med, src = configuration(delta)
        E = dissipation_E(solve_modes(med, src), med)
        with monkeypatch.context() as m:
            m.setattr(transmission, "_square_solve", mp_square_solve)
            E_mp = dissipation_E(solve_modes(med, src), med)
        out.append((E, E_mp))
    return out


def test_refined_solves_match_50_digit_oracle(tables, materials, monkeypatch):
    # the double square systems solved in 50 digits: the refined solve's
    # E_delta agrees to 1e-13 down to delta = 1e-8 (condition ~ 1/delta)
    cases = [(scheduled_configuration(P11, 2.0, q=q, core_radius=1.0), [10.0 ** (-e / 2) for e in range(4, 17)])
             for q in (2.3, 3.6)]  # family 1, n = 7 .. 27
    cases += [(scheduled_configuration(params, 2.6, q=3.0, family=fam, core_radius=core), [1e-2, 1e-4, 1e-6, 1e-8])
              for params in materials for fam in (2, 3) for core in (None, 1.0)]  # n = 5 .. 20
    for conf, deltas in cases:
        for E, E_mp in _energies_with_50_digit_oracle(conf, deltas, tables, monkeypatch):
            assert abs(E - E_mp) <= 1e-13 * E_mp, (conf, E, E_mp)


def test_spheroidal_energy_independent_of_member_and_phase(tables):
    # the resonant core-free family-3 sweep of the benchmark: every member k
    # of the sector and a unit phase on gamma give one E_delta
    phase = complex(math.cos(2.0), math.sin(2.0))
    for delta in (1e-4, 1e-5):
        med = LayeredMedium(shell_radius=2.0, c=-25.0 / 38.0, delta=delta, base=P11)
        energies = [dissipation_E(solve_modes(med, SourceSpec(q=2.6, coefficients={(3, 3, k): g})), med)
                    for k in range(1, 10) for g in (1.0, phase)]
        assert (max(energies) - min(energies)) <= 1e-13 * min(energies), delta


def test_sector_sweeps_do_not_assemble_per_row():
    # every radial profile is closed form: family-1, family-2 and family-3
    # sweeps call traction_coeffs_algebraic never, however many rows they have
    code = """
import numpy as np
from elastoplasmon import lame, transmission
from elastoplasmon.harmonics import shared_tables
from elastoplasmon.lame import LameParams
from elastoplasmon.scenarios import fixed_configuration, sweep
from elastoplasmon.transmission import SourceSpec
calls = [0]
traction = lame.traction_coeffs_algebraic
def counted(*args, **kwargs):
    calls[0] += 1
    return traction(*args, **kwargs)
lame.traction_coeffs_algebraic = transmission.traction_coeffs_algebraic = counted
tables = shared_tables(12)
out = []
for fam, n, c, q, core in ((2, 4, -130 / 59, 3.0, 1.0), (3, 3, -25 / 38, 2.6, None), (1, 2, -4.0, 3.0, 1.0)):
    conf = fixed_configuration(LameParams(1.0, 1.0), 2.0, c, SourceSpec(q, {(n, fam, 1): 1.0}), core_radius=core)
    for rows in (4, 8):
        transmission.kernel_basis.cache.clear()
        calls[0] = 0
        sweep(conf, list(np.geomspace(1e-2, 1e-5, rows)))
        out.append(str(calls[0]))
print(" ".join(out))
"""
    src = str(Path(__file__).resolve().parents[1] / "src")
    r = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                       env=dict(os.environ, PYTHONPATH=src))
    assert r.returncode == 0, r.stderr
    assert r.stdout.split() == ["0"] * 6


# ---------------------------------------------------------------------------
# sector work once per key: the lean square solve and the caches
# ---------------------------------------------------------------------------

SCHEDULE_DELTAS = [10.0 ** (-(4 + i) / 2) for i in range(13)]


def _gated_sweeps():
    """The sweeps of the two benchmark workloads (both cored family-1 schedules, the
    core-free family-3 run at zeta3(3) and the cored family-2 run at zeta2(4))."""
    for q in (2.3, 3.6):
        sweep(scheduled_configuration(P11, 2.0, q, family=1, k=3, gamma=0.6 + 0.8j, core_radius=1.0),
              SCHEDULE_DELTAS)
    sweep(fixed_configuration(P11, 2.0, -25.0 / 38.0, SourceSpec(2.6, {(3, 3, 5): 0.6 - 0.8j})),
          [1e-2, 1e-3, 1e-4, 1e-5])
    sweep(fixed_configuration(P11, 2.0, -130.0 / 59.0, SourceSpec(3.0, {(4, 2, 2): -0.8 + 0.6j}), core_radius=1.0),
          [1e-2, 1e-3, 1e-4, 1e-5])


def _solve_outcome(solve, M, b, what="interface system", max_condition=math.inf):
    """(x bytes, condition, backward error), or (error type, message, condition) of a raising solve."""
    try:
        x, cond, berr = solve(M.copy(), None if b is None else b.copy(), what, max_condition)
    except (ArithmeticError, RuntimeError, np.linalg.LinAlgError) as exc:
        return type(exc), str(exc), getattr(exc, "condition", None)
    return (None if x is None else x.tobytes()), cond, berr


def test_square_solve_is_the_reference_on_the_gated_sweeps(monkeypatch):
    # the lean solve calls the LAPACK gufunc of np.linalg.solve and forms
    # np.linalg.norm's sums itself: on every system the four benchmark sweeps
    # solve (lossy and loss-free, raising or not) it is bit for bit the
    # public-call route, and so are its errors
    systems = []
    lean = transmission._square_solve

    def recorded(M, b=None, what="interface system", max_condition=math.inf):
        systems.append((M.copy(), None if b is None else b.copy(), what, max_condition))
        return lean(M, b, what, max_condition)

    monkeypatch.setattr(transmission, "_square_solve", recorded)
    _gated_sweeps()
    raised = 0
    for system in systems:
        got = _solve_outcome(lean, *system)
        assert got == _solve_outcome(square_solve_reference, *system), system[2:]
        raised += got[0] is ResonantSingularityError
    # lossy and loss-free per schedule row, lossy only per fixed row (no family-1 source)
    assert len(systems) == 2 * 2 * 13 + 2 * 4 and raised > 0


def test_family1_solve_is_scale_free_in_the_moduli():
    # the moduli may be in any unit: at lambda = mu = 2^k a cored family-1
    # solve is the unit solve bit for bit (condition and backward error
    # equal, amplitudes exactly 2^-k times), also where the norms of the
    # unscaled equilibrated solution would overflow or underflow
    src = SourceSpec(q=3.0, coefficients={(2, 1, 1): 1.0, (2, 1, 3): 0.5j})

    def solve(k):
        med = LayeredMedium(shell_radius=2.0, c=-3.9, delta=1e-3, base=LameParams(2.0**k, 2.0**k), core_radius=1.0)
        sol = solve_mode(med, src, 2)
        return sol, [(lo, hi, amps) for _, _, _, annuli in sol.sectors for lo, hi, amps in annuli]

    unit, unit_annuli = solve(0)
    for k in (530, -530, 664, -664, 900, -900):
        sol, annuli = solve(k)
        assert (sol.condition, sol.lstsq_residual) == (unit.condition, unit.lstsq_residual), k
        assert [(lo, hi, {b: a * 2.0**-k for b, a in amps.items()}) for lo, hi, amps in unit_annuli] == annuli, k


def test_square_solve_is_the_reference_on_seeded_systems():
    # random complex systems of sizes 2..12, conditions 1 to 1e15, rows
    # scaled over 16 decades: solved, condition only (b = None) and capped at
    # 1e9 (ResonantSingularityError); a Wilkinson matrix of size 100, whose
    # LU growth 2^99 defeats refinement (UnconvergedSolveError), and an
    # exactly singular one (numpy's LinAlgError)
    rng = np.random.default_rng(20261018)
    cases = []
    for size in (2, 4, 6, 8, 12):
        for log_cond in (0, 6, 12, 15):
            U, _ = np.linalg.qr(rng.normal(size=(size, size)) + 1j * rng.normal(size=(size, size)))
            V, _ = np.linalg.qr(rng.normal(size=(size, size)) + 1j * rng.normal(size=(size, size)))
            M = (U * np.logspace(0, -log_cond, size)) @ V.conj().T * 10.0 ** rng.uniform(-8, 8, size=(size, 1))
            b = rng.normal(size=size) + 1j * rng.normal(size=size)
            cases += [(M, b, math.inf), (M, None, math.inf), (M, b, 1e9)]
    W = (np.eye(100) - np.tril(np.ones((100, 100)), -1)).astype(complex)
    W[:, -1] = 1.0
    cases += [(W, rng.normal(size=100) + 0j, math.inf), (np.ones((4, 4), dtype=complex), np.ones(4, dtype=complex),
                                                         math.inf)]
    kinds = set()
    for M, b, cap in cases:
        got = _solve_outcome(transmission._square_solve, M, b, "system", cap)
        assert got == _solve_outcome(square_solve_reference, M, b, "system", cap), (M.shape, cap)
        kinds.add(got[0] if isinstance(got[0], type) else "none" if got[0] is None else "solved")
    assert kinds == {"solved", "none", ResonantSingularityError, UnconvergedSolveError, np.linalg.LinAlgError}


def test_cached_closed_forms_are_never_mutated():
    # after the four benchmark sweeps and the perfect waves of degree 6 every
    # kept closed form and sector check equals a fresh evaluation at its key
    from elastoplasmon.harmonics import ensure_tables
    from elastoplasmon.lame import plasmon_constants as closed_plasmon_constants
    from elastoplasmon.waves import perfect_wave

    _gated_sweeps()
    tables = ensure_tables(None, 10)
    for fam in (1, 2, 3):
        for K in kernel_basis(P11, 6, fam):
            perfect_wave(K, fam, 6, 1.3, P11, tables)
    for f in (mode_constants, closed_plasmon_constants, transmission._radial_profile, transmission._wave_amplitudes):
        assert f.cache
        for (lam, mu, *args), value in f.cache.items():
            assert value == f.__wrapped__(LameParams(lam, mu), *args), (f.__name__, lam, mu, args)


def test_seeded_defect_is_caught_after_a_full_sweep(monkeypatch):
    # a sweep keeps the sector check of (P11, n = 4, family 2, R = 2); a test
    # that seeds a defect into what the check reads empties the caches that
    # depend on it, so the same key is checked again and fails
    conf = fixed_configuration(P11, 2.0, -130.0 / 59.0, SourceSpec(3.0, {(4, 2, 2): -0.8 + 0.6j}), core_radius=1.0)
    deltas = [1e-2, 1e-3, 1e-4, 1e-5]
    sweep(conf, deltas)
    assert (1.0, 1.0, 4, 2, 2.0) in transmission._wave_amplitudes.cache

    def detuned(params, n):
        return PlasmonConstants(n, *(z * (1 + 1e-6) for z in plasmon_constants(params, n).as_tuple()))

    monkeypatch.setattr(transmission, "plasmon_constants", detuned)
    monkeypatch.setattr(transmission._wave_amplitudes, "cache", {})
    with pytest.raises(SectorCheckError, match="family 2 .*transmission defect"):
        sweep(conf, deltas)
    assert not transmission._wave_amplitudes.cache
