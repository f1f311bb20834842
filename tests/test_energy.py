"""Pairing, dissipation, and the primal/dual functional identities."""

import math

import numpy as np
import pytest

from elastoplasmon.harmonics import build_quadrature
from elastoplasmon.lame import LameParams, Term, exterior_block
from elastoplasmon.energy import (
    EnergyReport,
    dissipation_E,
    functional_I,
    functional_J,
    pairing_P,
    pairing_P_pieces,
    source_pairing,
)
from elastoplasmon.scenarios import Piece
from elastoplasmon.transmission import LayeredMedium, SourceSpec, solve_modes
from oracles import dissipation_imaginary, imag_terms, real_terms, volumetric_P

P11 = LameParams(1.0, 1.0)


def _regions_to_pieces(sol):
    return [Piece(r.terms, r.r_lo, r.r_hi) for r in sol.regions]


def test_pairing_nonnegative_for_real_fields(tables):
    rng = np.random.default_rng(0)
    G = rng.normal(size=(3, 5))
    blk = exterior_block(G, 2, P11, tables)
    val = pairing_P(real_terms(blk), real_terms(blk), 1.0, math.inf, P11, tables)
    assert np.real(val) > 0 and abs(np.imag(val)) < 1e-12 * np.real(val)


def test_rigid_translation_contributes_nothing(tables):
    rigid = (Term(np.array([[1.0], [0.5], [-2.0]]) * math.sqrt(4 * math.pi), 0, 0),)
    assert abs(pairing_P(rigid, rigid, 0.5, 2.0, P11, tables)) == 0.0


def test_exterior_pairing_against_volumetric_oracle(tables):
    rng = np.random.default_rng(1)
    G = rng.normal(size=(3, 7)) + 1j * rng.normal(size=(3, 7))
    blk = exterior_block(G, 3, P11, tables)
    pieces = [Piece(blk, 1.0, math.inf)]
    exact = float(np.real(pairing_P_pieces(pieces, pieces, P11, tables)))
    approx, tail = volumetric_P(pieces, P11, tables, r_cut=25.0, n_radial=80)
    assert tail < 1e-4 * exact  # documented tail bound at the cut radius
    assert abs(exact - (approx + tail)) / exact < 1e-5


def test_divergent_exterior_integral_raises(tables):
    grow = (Term(np.ones((3, 5)), 2, 2),)
    with pytest.raises(ValueError):
        pairing_P(grow, grow, 1.0, math.inf, P11, tables)


@pytest.fixture(scope="module")
def lossy_solution(tables):
    med = LayeredMedium(shell_radius=1.5, c=-2.0, delta=0.1, base=P11)
    src = SourceSpec(q=2.25, coefficients={(2, 1, 1): 1.0, (2, 3, 2): 0.5})
    return med, src, solve_modes(med, src, tables)


def test_dissipation_positive_and_crosschecked(lossy_solution, tables):
    med, _, sols = lossy_solution
    E1 = dissipation_E(sols, med, tables)
    E2 = dissipation_imaginary(sols, med, tables)
    assert E1 > 0
    assert abs(E1 - E2) / E1 < 1e-8


def test_dissipation_split_identity(lossy_solution, tables):
    med, _, sols = lossy_solution
    delta = med.delta
    E = dissipation_E(sols, med, tables)
    Pv = Pw = 0.0
    for sol in sols:
        for reg in sol.regions:
            if not reg.terms:
                continue
            v = real_terms(reg.terms)
            w = tuple(Term(delta * t.coef, t.degree, t.power) for t in imag_terms(reg.terms))
            Pv += float(np.real(pairing_P(v, v, reg.r_lo, reg.r_hi, P11, tables)))
            Pw += float(np.real(pairing_P(w, w, reg.r_lo, reg.r_hi, P11, tables)))
    assert abs(E - (0.5 * delta * Pv + 0.5 / delta * Pw)) / E < 1e-8


def test_dissipation_needs_loss(lossy_solution, tables):
    _, src, sols = lossy_solution
    med0 = LayeredMedium(shell_radius=1.5, c=-2.0, delta=0.0, base=P11)
    with pytest.raises(ValueError):
        dissipation_E(sols, med0, tables)


def test_dissipation_quadratic_in_source(tables):
    med = LayeredMedium(shell_radius=1.5, c=-2.0, delta=0.1, base=P11)
    s1 = SourceSpec(q=2.25, coefficients={(2, 1, 1): 1.0})
    s2 = SourceSpec(q=2.25, coefficients={(2, 1, 1): 2.0})
    E1 = dissipation_E(solve_modes(med, s1, tables), med, tables)
    E2 = dissipation_E(solve_modes(med, s2, tables), med, tables)
    assert E2 / E1 == pytest.approx(4.0, rel=1e-12)


def test_zero_pair_gives_zero_functionals(tables):
    empty = [Piece((), 0.0, math.inf)]
    assert functional_I(empty, empty, 0.1, P11, tables) == 0.0
    src = SourceSpec(q=1.5, coefficients={(2, 1, 1): 1.0})
    quad = build_quadrature(12)
    assert functional_J(None, empty, src, 0.1, P11, tables, quad) == 0.0


def test_primal_identity_at_minimizer(lossy_solution, tables):
    med, _, sols = lossy_solution
    delta = med.delta
    E = dissipation_E(sols, med, tables)
    I_val = 0.0
    for sol in sols:
        vp = [Piece(real_terms(r.terms), r.r_lo, r.r_hi) for r in sol.regions]
        wp = [
            Piece(tuple(Term(delta * t.coef, t.degree, t.power) for t in imag_terms(r.terms)), r.r_lo, r.r_hi)
            for r in sol.regions
        ]
        I_val += functional_I(vp, wp, delta, P11, tables)
    assert abs(I_val - E) / E < 1e-7


def test_dual_identity_at_maximizer(tables):
    med = LayeredMedium(shell_radius=1.5, c=-2.0, delta=0.1, base=P11)
    src = SourceSpec(q=2.25, coefficients={(2, 1, 1): 1.0})
    sols = solve_modes(med, src, tables)
    E = dissipation_E(sols, med, tables)
    quad = build_quadrature(14)
    sol = sols[0]
    vp = [Piece(real_terms(r.terms), r.r_lo, r.r_hi) for r in sol.regions]
    pp = [Piece(imag_terms(r.terms), r.r_lo, r.r_hi) for r in sol.regions]
    J_val = functional_J(vp, pp, src, med.delta, P11, tables, quad)
    assert abs(J_val - E) / E < 1e-7


def test_admissible_non_optimal_pair_is_upper_bound(tables):
    # the fixed-multiplier witness is admissible but not optimal
    from elastoplasmon.scenarios import witness_fixed_c

    med = LayeredMedium(shell_radius=2.0, c=-4.0, delta=0.05, base=P11, core_radius=1.0)
    src = SourceSpec(q=3.0, coefficients={(2, 1, 1): 1.0})
    _, I_up, _ = witness_fixed_c(med, src, tables)
    E = dissipation_E(solve_modes(med, src, tables), med, tables)
    assert E <= I_up * (1 + 1e-9)


def test_dual_witness_sign(tables):
    # tiny positive amplitude on the dual witness gives positive J
    from elastoplasmon.transmission import kernel_basis
    from elastoplasmon.waves import perfect_wave, plasmon_constants

    z1 = plasmon_constants(P11, 2).zeta1
    K = kernel_basis(P11, 2, tables)[1][0]
    w = perfect_wave(K, 1, 2, 1.5, P11, tables)
    quad = build_quadrature(12)
    src = SourceSpec(q=2.25, coefficients={(2, 1, 1): 1.0})
    tau = 1e-6
    psi = [
        Piece(tuple(Term(tau * t.coef, t.degree, t.power) for t in w.interior.terms), 0.0, 1.5),
        Piece(tuple(Term(tau * t.coef, t.degree, t.power) for t in w.exterior.terms), 1.5, math.inf),
    ]
    J = functional_J(None, psi, src, 0.01, P11, tables, quad)
    assert J > 0


def test_sandwich_guard_of_reports():
    r = EnergyReport(delta=0.1, E_delta=1.0, c_used=-2.0, I_upper=1.1, J_lower=0.9)
    assert r.sandwich_ok()
    bad = EnergyReport(delta=0.1, E_delta=1.0, c_used=-2.0, I_upper=0.5)
    assert not bad.sandwich_ok()
