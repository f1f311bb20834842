"""Layered lossy solves: transparency, sources, resonances, residuals."""

import ast
import math
import os
import re
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from elastoplasmon import fields, transmission
from elastoplasmon.energy import dissipation_E
from elastoplasmon.fields import kernel_basis, residual_check, witness_nocore, witness_radial_nonresonant
from elastoplasmon.harmonics import build_quadrature, ensure_tables, sph_harm_stack
from elastoplasmon.lame import LameParams, SectorCheckError, mode_constants
from elastoplasmon.transmission import (
    LayeredMedium,
    ResonantSingularityError,
    SourceSpec,
    UnconvergedSolveError,
    sector_conditions,
    solve_mode,
    solve_modes,
)
from elastoplasmon.scenarios import fixed_configuration, scheduled_configuration, sweep
from elastoplasmon.waves import PlasmonConstants, assemble_H, kernel_family, matching_defect, plasmon_constants
from oracles import (
    annuli,
    dict_profile_trace,
    plain_data,
    profile_blocks,
    sector_system,
    FieldSolution,
    eval_field,
    interface_singular_values,
    matrix_sector_solve,
    mp_square_solve,
    project_source,
    projected_radial_profile,
    seeded_square_systems,
    square_solve_reference,
    toroidal_single_layer,
    unit_layer,
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
    from dataclasses import replace
    from elastoplasmon.fields import Term

    for params in (P11, LameParams(2.0, 0.5)):
        med = LayeredMedium(shell_radius=1.5, c=-2.0, delta=0.05, base=params)
        src = SourceSpec(q=2.0, coefficients={(2, 1, 1): 1.0})
        sol = solve_mode(med, src, 2)
        bad_terms = tuple(Term(1.01 * t.coef, t.degree, t.power) for t in sol.regions[1].terms)
        bad = FieldSolution(sol.n, sol.regions[:1] + (replace(sol.regions[1], terms=bad_terms),) + sol.regions[2:])
        rep = residual_check([bad], med, src)
        assert max(rep["displacement_jump"], rep["traction_jump"], rep["source_jump"]) > 1e-3, params


@pytest.mark.parametrize("params", [P11, LameParams(2.0, 0.5)])
def test_residual_check_flags_a_slaved_term_off_by_1e_minus_6(params):
    # a family-2 solve: scaling any one slaved correction (degree n-2 at
    # power n, or degree n at power -n-1 from the partner shape) by 1 + 1e-6
    # breaks the Lame system, and the normwise residual reads it above the
    # 1e-8 gate of solve (8.8e-8 at the least)
    from dataclasses import replace
    from elastoplasmon.fields import Term

    med = LayeredMedium(shell_radius=2.0, c=-3.0, delta=0.1, base=params, core_radius=1.0)
    src = SourceSpec(q=3.0, coefficients={(4, 2, 1): 1.0})
    sol = solve_mode(med, src, 4)
    assert residual_check([sol], med, src)["lame"] < 1e-15
    seeded = 0
    for ri, reg in enumerate(sol.regions):
        for ti, t in enumerate(reg.terms):
            if t.power in (t.degree, -t.degree - 1):  # a block's own shape
                continue
            terms = reg.terms[:ti] + (Term(t.coef * (1 + 1e-6), t.degree, t.power),) + reg.terms[ti + 1:]
            regions = sol.regions[:ri] + (replace(reg, terms=terms),) + sol.regions[ri + 1:]
            assert residual_check([FieldSolution(sol.n, regions)], med, src)["lame"] > 1e-8, (ri, t.degree, t.power)
            seeded += 1
    assert seeded == 6


@pytest.mark.parametrize("scale", [1.0, 1e-13, 1e-15, 1e-20])
def test_residual_check_finds_the_source_sphere_at_any_scale(scale):
    # the source sphere is the layout's last bound, not a radius within an
    # absolute distance of q: the density is taken off the jump there alone
    med = LayeredMedium(shell_radius=2.0 * scale, c=-4.0, delta=1e-2, base=P11, core_radius=scale)
    src = SourceSpec(q=3.0 * scale, coefficients={(2, 1, 1): 1.0})
    rep = residual_check(solve_modes(med, src), med, src)
    assert max(rep.values()) < 1e-14, rep


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


def test_loss_free_check_reads_the_columns_own_solves(monkeypatch):
    # a loss-free source outside family 1 caps the systems of all three
    # families at its degree in the column's own stacks: the family-1 system
    # alone, then families 2 and 3 as one stack, each solved once (the
    # source's own system among them); a refusal keeps its message and the
    # largest condition of sector_conditions
    stacks = []
    solve = transmission._square_solve

    def spy(M, b, what, caps):
        stacks.append((M.shape[:2], caps))
        return solve(M, b, what, caps)

    monkeypatch.setattr(transmission, "_square_solve", spy)
    med = LayeredMedium(shell_radius=1.5, c=-2.2, delta=0.0, base=P11)
    for fam in (2, 3):
        stacks.clear()
        sol = solve_mode(med, SourceSpec(q=2.0, coefficients={(3, fam, 1): 1.0}), 3)
        assert stacks == [((1, 4), [1e9]), ((2, 8), [1e9, 1e9])]
        assert [f for f, *_ in sol.sectors] == [fam] and sol.condition < 1e9
    stacks.clear()
    solve_mode(med, SourceSpec(q=2.0, coefficients={(3, 1, 1): 1.0}), 3)  # family 1 alone: its own system
    assert stacks == [((1, 4), [1e9])]
    singular = replace(med, c=plasmon_constants(P11, 3).zeta3)
    cond = max(sector_conditions(singular, 3, 2.0).values())
    for fam in (2, 3):
        with pytest.raises(ResonantSingularityError) as err:
            solve_mode(singular, SourceSpec(q=2.0, coefficients={(3, fam, 1): 1.0}), 3)
        assert err.value.condition == cond > 1e9
        assert str(err.value) == f"loss-free interface system singular at degree 3 (condition {cond:.3e})"


def test_unit_layers_of_a_column_are_one_stack_bit_for_bit(monkeypatch):
    # the unit layers a column reads and the store does not hold are one
    # stacked solve per profile shape, each kept value bit for bit the solve
    # of its key alone; read again, every layer comes from the store
    calls = []
    solve = transmission._square_solve
    monkeypatch.setattr(transmission._single_layers, "cache", {})
    monkeypatch.setattr(transmission, "_square_solve", lambda M, *args: calls.append(len(M)) or solve(M, *args))
    columns = ([(P11, n, 1, 1.7, 1.0) for n in range(7, 20)] + [(P11, 7, 1, 2.5, 0.5j)],
               [(LameParams(2.0, 0.5), n, 3, 1.3, -1.0) for n in (2, 5, 8, 5)])
    for items in columns:
        transmission._single_layers(items)
    assert calls == [13, 3]
    alone = {key: unit_layer(LameParams(*key[:2]), *key[2:]) for key in transmission._single_layers.cache}
    assert len(alone) == 16
    for key, (prof, amps) in transmission._single_layers.cache.items():
        assert prof is alone[key][0] and amps.tobytes() == alone[key][1].tobytes(), key
    calls.clear()
    for items in columns:
        transmission._single_layers(items)
    assert calls == []


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
    monkeypatch.setattr(fields, "kernel_basis", lambda params, n, fam: [mix])
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

    monkeypatch.setattr(fields, "plasmon_constants", detuned)
    monkeypatch.setattr(fields.kernel_basis, "cache", {})
    for fam in (1, 2, 3):  # each family is checked before it is kept
        with pytest.raises(AssertionError, match=f"family {fam} .*matching defect"):
            kernel_basis(P11, 4, fam)
    assert not fields.kernel_basis.cache


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
                assert prof.degrees == ref.degrees and prof.power == ref.power
                triples = [(prof.kappa, ref.kappa, 0.0)] if fam != 1 else []
                for b in range(len(prof.power)):  # the same degrees reached, each scalar to 1e-13
                    assert ((prof.disp[b] != 0) == (ref.disp[b] != 0)).all(), (params, n, fam, b)
                    scale = float(np.max(np.abs(np.concatenate((prof.disp[b], prof.trac[b])))))
                    triples += [(a, r, scale) for a, r in zip([*prof.disp[b], *prof.trac[b]], [*ref.disp[b], *ref.trac[b]])]
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
from elastoplasmon import fields
from elastoplasmon.harmonics import shared_tables
from elastoplasmon.lame import LameParams
from elastoplasmon.scenarios import fixed_configuration, sweep
from elastoplasmon.transmission import SourceSpec
calls = [0]
traction = fields.traction_coeffs_algebraic
def counted(*args, **kwargs):
    calls[0] += 1
    return traction(*args, **kwargs)
fields.traction_coeffs_algebraic = counted
tables = shared_tables(12)
out = []
for fam, n, c, q, core in ((2, 4, -130 / 59, 3.0, 1.0), (3, 3, -25 / 38, 2.6, None), (1, 2, -4.0, 3.0, 1.0)):
    conf = fixed_configuration(LameParams(1.0, 1.0), 2.0, c, SourceSpec(q, {(n, fam, 1): 1.0}), core_radius=core)
    for rows in (4, 8):
        fields.kernel_basis.cache.clear()
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


GATED_SWEEPS = [  # both cored family-1 schedules, the core-free family-3 run at zeta3(3), the cored family-2 run at zeta2(4)
    *((scheduled_configuration(P11, 2.0, q, family=1, k=3, gamma=0.6 + 0.8j, core_radius=1.0), SCHEDULE_DELTAS)
      for q in (2.3, 3.6)),
    (fixed_configuration(P11, 2.0, -25.0 / 38.0, SourceSpec(2.6, {(3, 3, 5): 0.6 - 0.8j})), [1e-2, 1e-3, 1e-4, 1e-5]),
    (fixed_configuration(P11, 2.0, -130.0 / 59.0, SourceSpec(3.0, {(4, 2, 2): -0.8 + 0.6j}), core_radius=1.0),
     [1e-2, 1e-3, 1e-4, 1e-5]),
]


def _gated_sweeps():
    """The sweeps of the two benchmark workloads."""
    for conf, deltas in GATED_SWEEPS:
        sweep(conf, deltas)


def _outcome(got):
    """(x bytes, condition, backward error) of a solved system, or (error type, message, condition)."""
    if isinstance(got, Exception):
        return type(got), str(got), getattr(got, "condition", None)
    x, cond, berr = got
    return x.tobytes(), cond, berr


def _solve_outcome(solve, M, b, what="interface system", max_condition=math.inf):
    """:func:`_outcome` of one system solved by ``solve`` (``square_solve_reference``'s signature)."""
    try:
        return _outcome(solve(M.copy(), b.copy(), what, max_condition))
    except (ArithmeticError, RuntimeError, np.linalg.LinAlgError) as exc:
        return _outcome(exc)


def test_square_solve_is_the_reference_on_the_gated_sweeps(monkeypatch):
    # the lean solve calls the LAPACK gufunc of np.linalg.solve and forms
    # np.linalg.norm's sums itself, a stack at a time: on every system the
    # four benchmark sweeps solve (lossy and loss-free, raising or not, and
    # the unit single layers of the witnesses) what its stack returns is bit
    # for bit the public-call route on that system alone, and so are its
    # errors.  The kept unit layers are swapped for an empty store, so the
    # counts do not depend on the tests run before
    systems, calls = [], []
    lean = transmission._square_solve
    monkeypatch.setattr(transmission._single_layers, "cache", {})

    def recorded(M, b, what, max_condition):
        out = lean(M.copy(), b.copy(), what, max_condition)
        systems.extend((M[i].copy(), b[i].copy(), what[i], max_condition[i], got)
                       for i, got in enumerate(out))
        calls[-1].append(len(M))
        return out

    monkeypatch.setattr(transmission, "_square_solve", recorded)
    for conf, deltas in GATED_SWEEPS:
        calls.append([])
        sweep(conf, deltas)
    raised = 0
    for *system, got in systems:
        assert _outcome(got) == _solve_outcome(square_solve_reference, *system), system[2:]
        raised += isinstance(got, ResonantSingularityError)
    # per schedule one column of 13 lossy and 13 loss-free systems, then (on
    # the first) one stack of the unit layers of the 13 scheduled degrees,
    # shared by the two schedules' witnesses; per fixed run one lossy column
    # (no family-1 source, so no loss-free one)
    layers = [system for system in systems if system[2].endswith("single layer")]
    assert len(layers) == 13 and all(M.shape == (2, 2) for M, *_ in layers)
    assert calls == [[26, 13], [26], [4], [4]]
    assert len(systems) == 2 * 2 * 13 + 2 * 4 + 13 and raised > 0


@pytest.mark.parametrize("params", [P11, LameParams(2.0, 0.5), LameParams(-0.5, 1.0), LameParams(1e4, 1.0)])
def test_single_layer_is_the_closed_form_and_the_direct_solve(params):
    # the unit-sphere layer scaled to the sphere rho: family 1, times its
    # density, is the closed form to 1e-15 relative.  Families 2 and 3 are
    # continuous across rho with the degree-n shape as traction jump, and
    # they are the one-interface sector system solved on rho itself to 1e-12
    # of the largest block on each side, a block of amplitude a and power p
    # read as a rho^(p-1), its traction scale on rho.  That direct system
    # is ill-conditioned away from rho = 1 (equilibrated condition 1e11 at
    # n = 27, rho = 1e-3, which costs its smallest blocks their digits) and
    # at n = 64, rho = 1e-3 and 1e3 numpy reads it as singular
    def on_rho(prof, amps, rho):
        return [a * rho ** (profile_blocks(prof)[b][0] - 1) for b, a in amps.items()]

    density = 0.6 - 0.8j
    unsolved = set()
    for n in (2, 7, 27, 64):
        for rho in (1e-3, 1.0, 2.0, 3.6, 1e3):
            prof, (amps,) = transmission._radial_profile(params, n, 1), transmission._single_layers(
                [(params, n, 1, rho, density)])
            layer = annuli(prof, (0.0, rho, math.inf), amps)
            want = toroidal_single_layer(n, rho, density, params.mu)
            assert [(lo, hi, set(amps)) for lo, hi, amps in layer] == [(lo, hi, set(amps)) for lo, hi, amps in want]
            for (_, _, got), (_, _, ref) in zip(layer, want):
                assert all(abs(got[b] - a) <= 1e-15 * abs(a) for b, a in ref.items()), (n, rho, got, ref)
            for fam in (2, 3):
                prof, (amps,) = transmission._radial_profile(params, n, fam), transmission._single_layers(
                    [(params, n, fam, rho, 1.0)])
                layer = annuli(prof, (0.0, rho, math.inf), amps)
                inside, outside = (dict_profile_trace(prof, amps, rho) for _, _, amps in layer)
                for i, jump in ((0, {}), (1, {n: 1.0})):
                    scale = max(abs(side[d][i]) for side in (inside, outside) for d in prof.degrees)
                    assert all(abs(outside[d][i] - inside[d][i] - jump.get(d, 0.0)) <= 1e-13 * scale
                               for d in prof.degrees), (n, rho, fam, i)
                M, b, cols = sector_system([rho], [1.0, 1.0], prof)
                try:
                    x = transmission._ok(transmission._square_solve(M[None], b[None], ["layer"], [math.inf])[0])[0]
                except np.linalg.LinAlgError:
                    unsolved.add((n, rho))
                    continue
                direct = [(0.0, rho, {}), (rho, math.inf, {})]
                for xc, (reg, kind, shape) in zip(x.tolist(), cols):
                    direct[reg][2][(kind, shape)] = xc
                assert [(lo, hi, set(amps)) for lo, hi, amps in layer] == [(lo, hi, set(a)) for lo, hi, a in direct]
                for (_, _, got), (_, _, ref) in zip(layer, direct):
                    got, ref = on_rho(prof, got, rho), on_rho(prof, ref, rho)
                    assert max(abs(g - r) for g, r in zip(got, ref)) <= 1e-12 * max(map(abs, ref)), (n, rho, fam)
    assert unsolved <= {(64, 1e-3), (64, 1e3)}


def test_single_layer_refuses_a_radius_out_of_the_float_range():
    # a power rho^(1-p) that overflows or falls below the normal range is
    # refused by name
    for rho, n in ((1e-300, 1), (1e300, 1), (1e-20, 20), (1e20, 20)):
        with pytest.raises(ArithmeticError, match=re.escape(f"sphere rho = {rho!r}: a power of rho")):
            transmission._single_layers([(P11, n, 1, rho, 1.0)])


def test_only_transmission_names_the_sector_solve():
    # the square sector systems are assembled, solved and read back in
    # transmission alone: the other modules take its single layers and solves
    names = {"_sector_matrices", "_square_solve", "_solve_systems"}
    found = {}
    for path in sorted(Path(transmission.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text())
        used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
        used |= {n.attr for n in ast.walk(tree) if isinstance(n, ast.Attribute)}
        used |= {a.name for n in ast.walk(tree) if isinstance(n, ast.ImportFrom) for a in n.names}
        found[path.stem] = used & names
    assert {m: u for m, u in found.items() if u} == {"transmission": names}


def test_family1_solve_is_scale_free_in_the_moduli():
    # the moduli may be in any unit: at lambda = mu = 2^k a cored family-1
    # solve is the unit solve bit for bit (condition and backward error
    # equal, amplitudes exactly 2^-k times), also where the norms of the
    # unscaled equilibrated solution would overflow or underflow
    src = SourceSpec(q=3.0, coefficients={(2, 1, 1): 1.0, (2, 1, 3): 0.5j})

    def solve(k):
        med = LayeredMedium(shell_radius=2.0, c=-3.9, delta=1e-3, base=LameParams(2.0**k, 2.0**k), core_radius=1.0)
        sol = solve_mode(med, src, 2)
        return sol, [amps.tolist() for _, _, _, amps in sol.sectors]

    unit, unit_amps = solve(0)
    for k in (530, -530, 664, -664, 900, -900):
        sol, amps = solve(k)
        assert (sol.condition, sol.lstsq_residual) == (unit.condition, unit.lstsq_residual), k
        assert [[[a * 2.0**-k for a in row] for row in part] for part in unit_amps] == amps, k


@pytest.mark.parametrize("e", [-300, -160, 0, 154, 300])
def test_spheroidal_solve_is_scale_free_in_the_moduli(e, tmp_path, capsys):
    # the family-2/3 traction scalars of the radial profile are formed from
    # lambda / mu and times mu last: at lambda = mu = 10^e a cored family-2
    # (n = 4) and family-3 (n = 3) solve reads the lambda = mu = 1 condition
    # to 1e-9, and the solve command runs, or refuses the pair by the float
    # range (exit 2, one JSON line).  Before, the products mu (a lambda + b mu)
    # overflowed at 1e154 (LinAlgError) and went subnormal at 1e-160
    # (SectorCheckError).  No numpy warning is emitted
    import json
    import warnings

    from elastoplasmon import cli

    def medium(v):
        return LayeredMedium(shell_radius=2.0, c=-3.0, delta=1e-3, base=LameParams(v, v), core_radius=1.0)

    modes = {(4, 2, 2): -0.8 + 0.6j, (3, 3, 1): 0.5}
    config = tmp_path / "scaled.json"
    config.write_text(json.dumps({"schema": 1, "lambda": 10.0**e, "mu": 10.0**e, "core_radius": 1.0, "shell_radius": 2.0,
                                  "q": 3.0, "n_max": 12, "c_mode": {"fixed": -3.0}, "delta_list": [1e-2, 1e-3, 1e-4],
                                  "source_modes": [[n, fam, k, g.real, g.imag] for (n, fam, k), g in modes.items()]}))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = cli.main(["solve", "--config", str(config), "--delta", "1e-3"])
        out, err = capsys.readouterr()
        if code == 0:
            for (n, fam, k), g in modes.items():
                src = SourceSpec(3.0, {(n, fam, k): g})
                unit, scaled = (solve_mode(medium(v), src, n).condition for v in (1.0, 10.0**e))
                assert abs(scaled - unit) <= 1e-9 * unit, (e, fam, scaled, unit)
        else:
            assert code == 2 and "out of the float range" in json.loads(err.splitlines()[-1])["error"], (e, err)


def _square_solve_alone(M, b, what, cap):
    """The stacked solve's outcome for one system in a stack of its own (an error it raises propagates)."""
    return transmission._square_solve(M[None], b[None], [what], [cap])[0]


def test_square_solve_is_the_reference_on_seeded_systems():
    # each seeded system solved alone: solved, capped at 0 (the condition
    # read from the refusal) and capped at 1e9 (ResonantSingularityError);
    # the Wilkinson matrix's UnconvergedSolveError and the singular one's
    # LinAlgError, led by the system's name
    kinds = set()
    zero_capped = 0
    for M, b, cap in seeded_square_systems():
        got = _solve_outcome(_square_solve_alone, M, b, "system", cap)
        assert got == _solve_outcome(square_solve_reference, M, b, "system", cap), (M.shape, cap)
        kinds.add(got[0] if isinstance(got[0], type) else "solved")
        zero_capped += cap == 0.0 and got[0] is ResonantSingularityError and got[2] > 0
    assert kinds == {"solved", ResonantSingularityError, UnconvergedSolveError, np.linalg.LinAlgError}
    assert zero_capped == 20


def test_column_over_the_square_solve_isolates_a_singular_system():
    # the seeded systems stacked per size and taken apart by the one column
    # helper: the size-4 stack holds the exactly singular system, so its
    # solve raises numpy's LinAlgError for the whole stack and the column
    # solves its systems one at a time.  Only the singular system gets the
    # error, its own name leading the message, and every system's outcome
    # is bit for bit its solve alone
    systems = [(M, b, f"system {i}", cap) for i, (M, b, cap) in enumerate(seeded_square_systems())]
    calls = []

    def values(idx, states):
        M, b, what, cap = zip(*states)
        calls.append(len(idx))
        return transmission._square_solve(np.stack(M), np.stack(b), list(what), list(cap))

    out = transmission._column(len(systems), systems.__getitem__, values, key=lambda s: s[0].shape)
    size4 = [i for i, (M, *_) in enumerate(systems) if M.shape == (4, 4)]
    singular = size4[-1]
    assert calls[:15] == [12, 13] + [1] * 13  # size 2, then size 4 as a stack and one system at a time
    assert isinstance(out[singular], np.linalg.LinAlgError) and str(out[singular]) == f"system {singular}: Singular matrix"
    assert sum(isinstance(got, np.linalg.LinAlgError) for got in out) == 1
    assert [_outcome(got) for got in out] == [_solve_outcome(_square_solve_alone, *system) for system in systems]
    assert [_outcome(got) for got in out] == [_solve_outcome(square_solve_reference, *system) for system in systems]
    with pytest.raises(np.linalg.LinAlgError, match=f"^system {size4[0]}: Singular matrix$"):
        values(size4, [systems[i] for i in size4])  # the stack alone: raised for all, led by its first name


def test_src_imports_no_private_numpy_module():
    # the package reaches numpy through its public modules only: no import
    # names a module or member of numpy whose name starts with an underscore
    private = []
    for path in sorted(Path(transmission.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names = [a.name for a in node.names]
            elif isinstance(node, ast.ImportFrom) and node.module:
                names = [node.module] + [f"{node.module}.{a.name}" for a in node.names]
            else:
                continue
            private += [(path.name, name) for name in names
                        if name.split(".")[0] == "numpy" and any(part.startswith("_") for part in name.split("."))]
    assert private == []


def test_cached_closed_forms_are_never_mutated():
    # after the four benchmark sweeps and the perfect waves of degree 6 every
    # kept closed form and sector check equals a fresh evaluation at its key,
    # and every kept unit single layer the solve of its key alone
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
            assert plain_data(value) == plain_data(f.__wrapped__(LameParams(lam, mu), *args)), (f.__name__, lam, mu, args)
    assert transmission._single_layers.cache
    for (lam, mu, *args), value in transmission._single_layers.cache.items():
        assert plain_data(value) == plain_data(unit_layer(LameParams(lam, mu), *args)), (lam, mu, args)


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


def _solution_key(sol):
    """Everything a ModeSolution holds but its parameters, or (error type, message) of an error."""
    if isinstance(sol, Exception):
        return type(sol), str(sol)
    return sol.n, sol.condition, sol.lstsq_residual, sol.window, sol.radii, tuple(
        (fam, gammas, prof, amps.tolist()) for fam, gammas, prof, amps in sol.sectors)


def test_column_is_the_row_at_a_time_solve():
    # one column of lossy and loss-free, cored and core-free items whose
    # sources mix families 1, 2 and 3 over several degrees: each item's
    # outcome is what solve_mode gives for it alone (amplitudes, condition
    # and backward error bit for bit, errors by type and message), the
    # loss-free item at zeta1(3) being refused as singular and the
    # out-of-range ones with their ValueError
    mixed = {(n, fam, k): g for n in (2, 3, 5) for fam, k, g in ((1, 2, 0.3), (2, 1, 0.5j), (3, 3, -0.7 + 0.1j))}
    mixed[(4, 2, 2)] = 1.0
    lossy = LayeredMedium(shell_radius=1.8, c=-2.2, delta=0.05, base=P11, core_radius=1.0)
    items = [(med, SourceSpec(2.5, mixed), n) for med in (lossy, replace(lossy, core_radius=None),
                                                           replace(lossy, delta=0.0), replace(lossy, c=-3.9, delta=1e-7))
             for n in (2, 3, 4, 5)]
    z1 = plasmon_constants(P11, 3).zeta1
    singular = LayeredMedium(shell_radius=2.0, c=z1, delta=0.0, base=P11)
    items += [(singular, SourceSpec(3.0, {(3, 1, 1): 1.0}), 3), (lossy, SourceSpec(2.5, mixed), 1),
              (lossy, SourceSpec(1.5, mixed), 2), (singular, SourceSpec(3.0, {(2, 1, 1): 1.0}), 2)]
    column = transmission._solve_column(items)
    alone = []
    for med, src, n in items:
        try:
            alone.append(solve_mode(med, src, n))
        except (ValueError, ArithmeticError, RuntimeError) as exc:
            alone.append(exc)
    assert [_solution_key(sol) for sol in column] == [_solution_key(sol) for sol in alone]
    kinds = [type(sol).__name__ for sol in column]
    assert kinds.count("ModeSolution") == 17 and kinds[-4:] == ["ResonantSingularityError", "ValueError",
                                                                "ValueError", "ModeSolution"]
    assert {sol.window for sol in column if isinstance(sol, transmission.ModeSolution)} >= {(0, 2, 4), (1, 3, 5)}


def test_column_item_whose_powers_overflow_gets_the_error_alone():
    # a source sphere so far out that q^8 overflows: that item's powers raise
    # OverflowError, as its solve alone does, and the other items of its
    # stack solve as they do alone
    med = LayeredMedium(shell_radius=2.0, c=-3.9, delta=1e-3, base=P11, core_radius=1.0)
    items = [(med, SourceSpec(q, {(8, 1, 1): 1.0}), 8) for q in (3.0, 1e200, 4.0)]
    column = transmission._solve_column(items)
    with pytest.raises(OverflowError):
        solve_mode(*items[1])
    assert isinstance(column[1], OverflowError)
    assert [_solution_key(column[i]) for i in (0, 2)] == [_solution_key(solve_mode(*items[i])) for i in (0, 2)]


@pytest.mark.parametrize("error", [ArithmeticError, OverflowError, ZeroDivisionError, np.linalg.LinAlgError])
def test_column_isolates_a_raising_row_on_a_stub(error):
    # the one column helper on stub rows keyed by parity: a check per row and
    # one values call per key; a check error stays on its own row; the even
    # stack of three raises an ArithmeticError or LinAlgError and goes row by
    # row, so only the raising row gets the error and the other two keep
    # their values alone; any other exception propagates
    calls = []

    def check(i):
        if i == 1:
            raise ValueError("row 1 refused")
        return i

    def values(idx, states):
        calls.append(list(idx))
        if 4 in idx:
            raise raised("row 4 raised")
        return [10 * s + len(idx) for s in states]

    raised = error
    out = transmission._column(6, check, values, key=lambda s: s % 2)
    assert calls == [[0, 2, 4], [0], [2], [4], [3, 5]]
    assert out[0] == 1 and out[2] == 21 and out[3] == 32 and out[5] == 52
    assert type(out[1]) is ValueError and str(out[1]) == "row 1 refused"
    assert type(out[4]) is error and str(out[4]) == "row 4 raised"
    raised = RuntimeError
    with pytest.raises(RuntimeError, match="row 4 raised"):
        transmission._column(6, check, values, key=lambda s: s % 2)


def test_stacked_assembly_is_the_entrywise_system(materials):
    # the sector systems of one shape assembled as one stack (every block's
    # powers on every interface at once, one template of entries) are the
    # entry-by-entry Python assembly bit for bit, column by column in its
    # (region, kind, shape) order: families 1, 2 and 3, cored and core-free,
    # lossy and loss-free, and the one-interface single layer
    for params in materials:
        layouts = [transmission._region_layout(LayeredMedium(2.0, c, delta, params, core), 3.0)
                   for c, delta, core in ((-3.9, 1e-3, 1.0), (-2.2, 0.05, 1.0), (-2.2, 0.0, 1.0), (-3.9, 1e-3, None))]
        layouts.append(([1.0], [1.0, 1.0]))
        for fam in (1, 2, 3):
            systems = [(bounds, weights, transmission._radial_profile(params, n, fam))
                       for bounds, weights in layouts for n in (2, 3, 8, 27)]
            for nb in {len(bounds) for bounds, _, _ in systems}:
                group = [system for system in systems if len(system[0]) == nb]
                bounds, weights, profs = zip(*group)
                pw = transmission._pows(list(bounds), [p.power for p in profs])
                M, rhs, cols = transmission._sector_matrices(bounds, weights, profs, pw)
                for i, system in enumerate(group):
                    M_ref, b_ref, cols_ref = sector_system(*system)
                    D = len(system[2].degrees)
                    names = [(c // (2 * D), ("entire", "decay")[c % (2 * D) // D], system[2].degrees[c % D]) for c in cols]
                    assert names == cols_ref and M[i].tolist() == M_ref.tolist() and rhs[i].tolist() == b_ref.tolist()
