"""Pairing, dissipation, and the primal/dual functional identities."""

import math

import numpy as np
import pytest

from elastoplasmon.fields import (
    ModeField,
    Term,
    displacement_coeffs,
    functional_I,
    functional_J,
    lame_residual,
    pairing_P,
    source_pairing,
    traction_coeffs_algebraic,
)
from elastoplasmon.harmonics import build_quadrature, ensure_tables
from elastoplasmon.lame import LameParams
from elastoplasmon.energy import EnergyReport, dissipation_E
from elastoplasmon.transmission import LayeredMedium, SourceSpec, solve_modes
from oracles import (
    dissipation_imaginary,
    exterior_block,
    imag_terms,
    pairing_P_pieces,
    per_direction_lame_residual,
    per_direction_pairing_P,
    per_direction_traction_coeffs,
    point_lame_residual,
    quadrature_pairing_P,
    quadrature_source_pairing,
    real_terms,
    volumetric_P,
)

P11 = LameParams(1.0, 1.0)


def _regions_to_pieces(sol):
    return [ModeField(r.terms, r.r_lo, r.r_hi) for r in sol.regions]


def test_pairing_nonnegative_for_real_fields(tables):
    rng = np.random.default_rng(0)
    G = rng.normal(size=(3, 5))
    blk = exterior_block(G, 2, P11, tables)
    val = pairing_P(real_terms(blk), real_terms(blk), 1.0, math.inf, P11)
    assert np.real(val) > 0 and abs(np.imag(val)) < 1e-12 * np.real(val)


def test_rigid_translation_contributes_nothing(tables):
    rigid = (Term(np.array([[1.0], [0.5], [-2.0]]) * math.sqrt(4 * math.pi), 0, 0),)
    assert abs(pairing_P(rigid, rigid, 0.5, 2.0, P11)) == 0.0


def test_exterior_pairing_against_volumetric_oracle(tables):
    rng = np.random.default_rng(1)
    G = rng.normal(size=(3, 7)) + 1j * rng.normal(size=(3, 7))
    blk = exterior_block(G, 3, P11, tables)
    pieces = [ModeField(blk, 1.0, math.inf)]
    exact = float(np.real(pairing_P_pieces(pieces, pieces, P11)))
    approx, tail = volumetric_P(pieces, P11, tables, r_cut=25.0, n_radial=80)
    assert tail < 1e-4 * exact  # documented tail bound at the cut radius
    assert abs(exact - (approx + tail)) / exact < 1e-5


def test_divergent_exterior_integral_raises(tables):
    grow = (Term(np.ones((3, 5)), 2, 2),)
    with pytest.raises(ValueError):
        pairing_P(grow, grow, 1.0, math.inf, P11)


@pytest.fixture(scope="module")
def lossy_solution(tables):
    med = LayeredMedium(shell_radius=1.5, c=-2.0, delta=0.1, base=P11)
    src = SourceSpec(q=2.25, coefficients={(2, 1, 1): 1.0, (2, 3, 2): 0.5})
    return med, src, solve_modes(med, src)


def test_dissipation_positive_and_crosschecked(lossy_solution, tables):
    med, _, sols = lossy_solution
    E1 = dissipation_E(sols, med)
    E2 = dissipation_imaginary(sols, med)
    assert E1 > 0
    assert abs(E1 - E2) / E1 < 1e-8


def test_dissipation_split_identity(lossy_solution, tables):
    med, _, sols = lossy_solution
    delta = med.delta
    E = dissipation_E(sols, med)
    Pv = Pw = 0.0
    for sol in sols:
        for reg in sol.regions:
            if not reg.terms:
                continue
            v = real_terms(reg.terms)
            w = tuple(Term(delta * t.coef, t.degree, t.power) for t in imag_terms(reg.terms))
            Pv += float(np.real(pairing_P(v, v, reg.r_lo, reg.r_hi, P11)))
            Pw += float(np.real(pairing_P(w, w, reg.r_lo, reg.r_hi, P11)))
    assert abs(E - (0.5 * delta * Pv + 0.5 / delta * Pw)) / E < 1e-8


def test_dissipation_needs_loss(lossy_solution, tables):
    _, src, sols = lossy_solution
    med0 = LayeredMedium(shell_radius=1.5, c=-2.0, delta=0.0, base=P11)
    with pytest.raises(ValueError):
        dissipation_E(sols, med0)


def test_dissipation_quadratic_in_source(tables):
    med = LayeredMedium(shell_radius=1.5, c=-2.0, delta=0.1, base=P11)
    s1 = SourceSpec(q=2.25, coefficients={(2, 1, 1): 1.0})
    s2 = SourceSpec(q=2.25, coefficients={(2, 1, 1): 2.0})
    E1 = dissipation_E(solve_modes(med, s1), med)
    E2 = dissipation_E(solve_modes(med, s2), med)
    assert E2 / E1 == pytest.approx(4.0, rel=1e-12)


def test_zero_pair_gives_zero_functionals(tables):
    empty = [ModeField((), 0.0, math.inf)]
    assert functional_I(empty, empty, 0.1, P11) == 0.0
    src = SourceSpec(q=1.5, coefficients={(2, 1, 1): 1.0})
    assert functional_J(None, empty, src, 0.1, P11) == 0.0


def test_primal_identity_at_minimizer(lossy_solution, tables):
    med, _, sols = lossy_solution
    delta = med.delta
    E = dissipation_E(sols, med)
    I_val = 0.0
    for sol in sols:
        vp = [ModeField(real_terms(r.terms), r.r_lo, r.r_hi) for r in sol.regions]
        wp = [
            ModeField(tuple(Term(delta * t.coef, t.degree, t.power) for t in imag_terms(r.terms)), r.r_lo, r.r_hi)
            for r in sol.regions
        ]
        I_val += functional_I(vp, wp, delta, P11)
    assert abs(I_val - E) / E < 1e-7


def test_dual_identity_at_maximizer(tables):
    med = LayeredMedium(shell_radius=1.5, c=-2.0, delta=0.1, base=P11)
    src = SourceSpec(q=2.25, coefficients={(2, 1, 1): 1.0})
    sols = solve_modes(med, src)
    E = dissipation_E(sols, med)
    sol = sols[0]
    vp = [ModeField(real_terms(r.terms), r.r_lo, r.r_hi) for r in sol.regions]
    pp = [ModeField(imag_terms(r.terms), r.r_lo, r.r_hi) for r in sol.regions]
    J_val = functional_J(vp, pp, src, med.delta, P11)
    assert abs(J_val - E) / E < 1e-7


def test_admissible_non_optimal_pair_is_upper_bound(tables):
    # the fixed-multiplier witness is admissible but not optimal
    from elastoplasmon.fields import witness_fixed_c

    med = LayeredMedium(shell_radius=2.0, c=-4.0, delta=0.05, base=P11, core_radius=1.0)
    src = SourceSpec(q=3.0, coefficients={(2, 1, 1): 1.0})
    _, I_up, _ = witness_fixed_c(med, src)
    E = dissipation_E(solve_modes(med, src), med)
    assert E <= I_up * (1 + 1e-9)


def test_dual_witness_sign(tables):
    # tiny positive amplitude on the dual witness gives positive J
    from elastoplasmon.fields import kernel_basis
    from elastoplasmon.waves import perfect_wave, plasmon_constants

    z1 = plasmon_constants(P11, 2).zeta1
    K = kernel_basis(P11, 2, 1)[0]
    w = perfect_wave(K, 1, 2, 1.5, P11, tables)
    src = SourceSpec(q=2.25, coefficients={(2, 1, 1): 1.0})
    tau = 1e-6
    psi = [
        ModeField(tuple(Term(tau * t.coef, t.degree, t.power) for t in w.interior.terms), 0.0, 1.5),
        ModeField(tuple(Term(tau * t.coef, t.degree, t.power) for t in w.exterior.terms), 1.5, math.inf),
    ]
    J = functional_J(None, psi, src, 0.01, P11)
    assert J > 0


def test_sandwich_guard_of_reports():
    r = EnergyReport(delta=0.1, E_delta=1.0, c_used=-2.0, I_upper=1.1, J_lower=0.9)
    assert r.sandwich_ok()
    bad = EnergyReport(delta=0.1, E_delta=1.0, c_used=-2.0, I_upper=0.5)
    assert not bad.sandwich_ok()


def test_sandwich_slack_is_relative():
    # the slack scales with |E_delta| below 1 as well: a bound 1e-8 relative
    # on the wrong side of a small dissipation fails
    E = 4e-7
    assert EnergyReport(delta=1e-8, E_delta=E, c_used=-2.0, I_upper=E * (1 - 1e-10), J_lower=E * (1 + 1e-10)).sandwich_ok()
    assert not EnergyReport(delta=1e-8, E_delta=E, c_used=-2.0, I_upper=E * (1 - 1e-8)).sandwich_ok()
    assert not EnergyReport(delta=1e-8, E_delta=E, c_used=-2.0, J_lower=E * (1 + 1e-8)).sandwich_ok()
    # the slack is 1e-9 relative
    assert EnergyReport(delta=1e-8, E_delta=E, c_used=-2.0, I_upper=E * (1 - 0.9e-9)).sandwich_ok()
    assert not EnergyReport(delta=1e-8, E_delta=E, c_used=-2.0, I_upper=E * (1 - 1.1e-9)).sandwich_ok()


# ---------------------------------------------------------------------------
# coefficient pairings against their quadrature oracles
# ---------------------------------------------------------------------------

def _assert_pairings_agree(fields, params, tables):
    """pairing_P of every field with itself, and of every two fields on the
    same annulus, against the quadrature oracle to 1e-13 of the Cauchy-Schwarz
    scale sqrt(P(u,u) P(v,v))."""
    self_vals = []
    for f in fields:
        ref = quadrature_pairing_P(f.terms, f.terms, f.r_lo, f.r_hi, params, tables)
        val = pairing_P(f.terms, f.terms, f.r_lo, f.r_hi, params)
        assert abs(val - ref) <= 1e-13 * abs(ref), (f.r_lo, f.r_hi, val, ref)
        self_vals.append(abs(ref))
    for i, f in enumerate(fields):
        for j, g in enumerate(fields[:i]):
            if (f.r_lo, f.r_hi) != (g.r_lo, g.r_hi):
                continue
            ref = quadrature_pairing_P(f.terms, g.terms, f.r_lo, f.r_hi, params, tables)
            val = pairing_P(f.terms, g.terms, f.r_lo, f.r_hi, params)
            assert abs(val - ref) <= 1e-13 * math.sqrt(self_vals[i] * self_vals[j]), (f.r_lo, f.r_hi, val, ref)


# families 1 and 3 at degree 3 and family 2 at degree 5: the two solutions
# share gradient degrees, so their cross pairings do not vanish
MIXED_SOURCE = {(3, 1, 2): 1.0, (3, 3, 1): 0.5j, (5, 2, 1): 0.3 - 0.2j}


@pytest.mark.parametrize("core", [1.0, None])
def test_pairing_matches_quadrature_on_solve_regions(tables, materials, core):
    for params in materials:
        med = LayeredMedium(shell_radius=2.0, c=-3.0, delta=0.1, base=params, core_radius=core)
        sols = solve_modes(med, SourceSpec(q=3.0, coefficients=MIXED_SOURCE))
        _assert_pairings_agree([reg for sol in sols for reg in sol.regions if reg.terms], params, tables)


def test_pairing_matches_quadrature_on_witness_pieces(tables, materials):
    from elastoplasmon.scenarios import scheduled_configuration
    from elastoplasmon.fields import (
        witness_core_resonant,
        witness_fixed_c,
        witness_nocore,
        witness_radial_nonresonant,
    )
    from elastoplasmon.waves import plasmon_constants

    med = LayeredMedium(shell_radius=2.0, c=-4.0, delta=1e-3, base=P11, core_radius=1.0)
    pieces, _, _ = witness_fixed_c(med, SourceSpec(q=3.0, coefficients={(2, 1, 1): 1.0, (27, 1, 3): 0.5}))
    _assert_pairings_agree(pieces, P11, tables)
    for delta in (1e-2, 1e-8):  # scheduled degrees 7 and 27
        med, src = scheduled_configuration(P11, 2.0, q=2.3, k=2, core_radius=1.0)(delta)
        v, psi, _, _ = witness_core_resonant(med, src, delta)
        _assert_pairings_agree(v + psi, P11, tables)
        med, src = scheduled_configuration(P11, 2.0, q=3.6, k=2, core_radius=1.0)(delta)
        v, w, _ = witness_radial_nonresonant(med, src, delta)
        _assert_pairings_agree(v + w, P11, tables)
    for params in materials:
        for n in (2, 27):
            med = LayeredMedium(shell_radius=2.0, c=plasmon_constants(params, n).zeta1, delta=1e-3, base=params)
            psi, _, _ = witness_nocore(med, SourceSpec(q=2.6, coefficients={(n, 1, 1): 1.0}), 1e-3)
            _assert_pairings_agree(psi, params, tables)


def test_wave_pairings_of_every_member_match_50_digits(materials):
    # the family-2/3 perfect waves of every member k against a 50-digit
    # evaluation of the same terms (oracles.mp_pairing_P), to 1e-13: the
    # slaved correction makes the radial power integrals cancel about
    # n^2-fold, so the quadrature oracle's node sums, not the pairing, were
    # the less accurate side on members other than k = 1.  The waves stop at
    # degree 12: at degree 27 the double evaluation is not within 1e-13 of
    # 50 digits (ROADMAP item 1).  Measured worst: 6.1e-14 (lambda = 2,
    # mu = 0.5, family 3 at n = 12, member 11)
    from elastoplasmon.fields import witness_nocore
    from elastoplasmon.waves import plasmon_constants
    from oracles import mp_pairing_P

    worst = (0.0, None)
    for params in materials:
        for n, fam in ((4, 2), (12, 2), (3, 3), (12, 3)):
            c = plasmon_constants(params, n).as_tuple()[fam - 1]
            med = LayeredMedium(shell_radius=2.0, c=c, delta=1e-3, base=params)
            for k in range(1, 2 * (n - 1 if fam == 2 else n + 1) + 2):
                psi, _, _ = witness_nocore(med, SourceSpec(q=2.6, coefficients={(n, fam, k): 1.0}), 1e-3)
                for f in psi:
                    ref = mp_pairing_P(f.terms, f.terms, f.r_lo, f.r_hi, params)
                    err = abs(pairing_P(f.terms, f.terms, f.r_lo, f.r_hi, params) - ref) / abs(ref)
                    assert err <= 1e-13, (params, n, fam, k, f.r_lo, err)
                    worst = max(worst, (err, (params, n, fam, k)), key=lambda w: w[0])
    print(f"worst relative error {worst[0]:.2e} at {worst[1]}")


def test_source_pairing_matches_quadrature(tables, materials):
    # Re(i z) = -Im(z): pairing the densities gamma and i gamma reads both
    # parts of the complex integral z.  psi and the densities share kernels
    # and carry complex coefficients on every family, so neither field is
    # real and the (-1)^m order flip of the bilinear pairing is exercised.
    # The scale is the Cauchy-Schwarz bound q^2 |f| |psi| on the source sphere.
    quad = build_quadrature(2 * 7 + 6)
    psi_src = SourceSpec(q=3.0, coefficients={(3, 1, 1): 0.5 - 0.3j, (3, 2, 1): 0.4 + 0.9j, (5, 3, 2): -0.7j})
    densities = ({(3, 1, 1): 1j, (3, 2, 1): 0.3 - 0.8j, (5, 3, 2): 0.6 + 0.2j, (5, 1, 1): 1.0}, MIXED_SOURCE)
    for params in materials:
        med = LayeredMedium(shell_radius=2.0, c=-3.0, delta=0.1, base=params, core_radius=1.0)
        for sol in solve_modes(med, psi_src):
            inner = sol.regions[-2]  # the piece that ends on the source sphere
            psi_norm = math.sqrt(sum(np.sum(np.abs(c) ** 2) for c in displacement_coeffs(inner.terms, 3.0).values()))
            for coeffs in densities:
                f_norm = math.sqrt(sum(abs(g) ** 2 for g in coeffs.values()))  # kernels are orthonormal
                scale = psi_src.q**2 * f_norm * psi_norm
                z, z_ref = [], []
                for phase in (1.0, 1j):
                    src = SourceSpec(q=3.0, coefficients={key: phase * g for key, g in coeffs.items()})
                    z.append(source_pairing(sol.regions, src, params))
                    z_ref.append(quadrature_source_pairing(sol.regions, src, params, quad))
                assert np.max(np.abs(np.subtract(z, z_ref))) <= 1e-13 * scale, (z, z_ref)
                if coeffs is densities[0]:
                    assert math.hypot(*z_ref) > 1e-3 * scale  # psi and f overlap


# ---------------------------------------------------------------------------
# the broadcast gradient route against the per-direction one
# ---------------------------------------------------------------------------

def _assert_gradient_routes_agree(fields, params, tables):
    """pairing_P, traction_coeffs_algebraic and the point Lame residual of
    every field against their per-direction term_derivative oracles, to 1e-13.

    Pairings are held to 1e-13 of |P(u,u)| and of the Cauchy-Schwarz scale for
    two fields on one annulus; tractions, on each bounding sphere, to 1e-13 of
    their largest coefficient.  The point Lame residual (``point_lame_residual``,
    on the package's broadcast second derivatives) is already relative, so it
    is compared to 1e-13 absolute, for the field and for the field plus r^2
    times its largest term, which no longer solves the Lame system; the
    normwise coefficient residual reads rounding on the first and flags the
    second.
    """
    rng = np.random.default_rng(7)
    tables = ensure_tables(tables, max(t.degree for f in fields for t in f.terms) + 2)
    for i, f in enumerate(fields):
        for g in fields[: i + 1]:
            if (f.r_lo, f.r_hi) != (g.r_lo, g.r_hi):
                continue
            ref = per_direction_pairing_P(f.terms, g.terms, f.r_lo, f.r_hi, params, tables)
            val = pairing_P(f.terms, g.terms, f.r_lo, f.r_hi, params)
            scale = math.sqrt(abs(per_direction_pairing_P(f.terms, f.terms, f.r_lo, f.r_hi, params, tables))
                              * abs(per_direction_pairing_P(g.terms, g.terms, g.r_lo, g.r_hi, params, tables)))
            assert abs(val - ref) <= 1e-13 * scale, (f.r_lo, f.r_hi, val, ref)
        for rho in (f.r_lo, f.r_hi):
            if not 0 < rho < math.inf:
                continue
            ref = per_direction_traction_coeffs(f.terms, rho, params, tables)
            val = traction_coeffs_algebraic(f.terms, rho, params)
            assert set(val) == set(ref)
            scale = max(np.max(np.abs(m)) for m in ref.values())
            assert max(np.max(np.abs(val[d] - ref[d])) for d in ref) <= 1e-13 * scale, (rho, f.r_lo, f.r_hi)
        lo = f.r_lo if f.r_lo > 0 else 0.2 * f.r_hi
        hi = f.r_hi if math.isfinite(f.r_hi) else 3.0 * f.r_lo
        dirs = rng.normal(size=(4, 3))
        pts = np.linspace(lo, hi, 6)[1:-1, None] * dirs / np.linalg.norm(dirs, axis=1)[:, None]
        t0 = max(f.terms, key=lambda t: np.linalg.norm(t.coef))
        # a field that vanishes (w in the core, where its two repairs cancel) is broken by a unit term
        broken = f.terms + (Term(t0.coef if np.any(t0.coef) else np.ones_like(t0.coef), t0.degree, t0.power + 2),)
        for terms in (f.terms, broken):
            ref = per_direction_lame_residual(terms, params, pts, tables)
            val = point_lame_residual(terms, params, pts)
            assert abs(val - ref) <= 1e-13, (f.r_lo, f.r_hi, val, ref)
        assert ref > 1e-9  # the broken field is not a solution, far above the 1e-13 agreement
        assert lame_residual(f.terms, params, pts) <= 1e-13 < 1e-9 < lame_residual(broken, params, pts)


@pytest.mark.parametrize("core", [1.0, None])
def test_gradient_routes_agree_on_solve_regions(tables, materials, core):
    # degrees 3 and 5 of every family, then each family at degree 27
    deep = {(27, 1, 2): 1.0, (27, 2, 3): 0.4 - 0.3j, (27, 3, 5): 0.7j}
    for params in materials:
        med = LayeredMedium(shell_radius=2.0, c=-3.0, delta=0.1, base=params, core_radius=core)
        for coeffs in (MIXED_SOURCE, deep):
            sols = solve_modes(med, SourceSpec(q=3.0, coefficients=coeffs))
            _assert_gradient_routes_agree([reg for sol in sols for reg in sol.regions if reg.terms], params, tables)


def test_gradient_routes_agree_on_witness_pieces(tables, materials):
    from elastoplasmon.scenarios import scheduled_configuration
    from elastoplasmon.fields import (
        witness_core_resonant,
        witness_fixed_c,
        witness_nocore,
        witness_radial_nonresonant,
    )
    from elastoplasmon.waves import plasmon_constants

    med = LayeredMedium(shell_radius=2.0, c=-4.0, delta=1e-3, base=P11, core_radius=1.0)
    pieces, _, _ = witness_fixed_c(med, SourceSpec(q=3.0, coefficients={(2, 1, 1): 1.0, (27, 1, 3): 0.5}))
    _assert_gradient_routes_agree(pieces, P11, tables)
    for delta in (1e-2, 1e-8):  # scheduled degrees 7 and 27
        med, src = scheduled_configuration(P11, 2.0, q=2.3, k=2, core_radius=1.0)(delta)
        v, psi, _, _ = witness_core_resonant(med, src, delta)
        _assert_gradient_routes_agree(v + psi, P11, tables)
        med, src = scheduled_configuration(P11, 2.0, q=3.6, k=2, core_radius=1.0)(delta)
        v, w, _ = witness_radial_nonresonant(med, src, delta)
        _assert_gradient_routes_agree(v + w, P11, tables)
    for params in materials:
        for n, fam in ((2, 1), (27, 1), (4, 2), (27, 2), (3, 3), (27, 3)):
            c = plasmon_constants(params, n).as_tuple()[fam - 1]
            med = LayeredMedium(shell_radius=2.0, c=c, delta=1e-3, base=params)
            psi, _, _ = witness_nocore(med, SourceSpec(q=2.6, coefficients={(n, fam, 1): 1.0}), 1e-3)
            _assert_gradient_routes_agree(psi, params, tables)


# ---------------------------------------------------------------------------
# the identities the flux route reads
# ---------------------------------------------------------------------------

def test_partner_shape_norms():
    # ||ladder(G)||^2 = kappa (2n+1)/(2d+1) for every unit member G of families
    # 2 and 3 (d = n - 2, n + 2): the weight of the partner shape in the flux
    from elastoplasmon.harmonics import shared_tables
    from elastoplasmon.transmission import _radial_profile
    from elastoplasmon.fields import _ladder
    from elastoplasmon.waves import sector_kernels

    tables = shared_tables(67)
    for n in range(2, 65):
        for fam in (2, 3):
            prof = _radial_profile(P11, n, fam)
            d = prof.degrees[1]
            want = prof.kappa * (2 * n + 1) / (2 * d + 1)
            norms = [float(np.real(np.vdot(p, p))) for p in
                     (_ladder(G, n, fam == 3) for G in sector_kernels(n, fam))]
            assert max(abs(v - want) for v in norms) <= 4e-15 * want, (n, fam)


def test_shared_sector_gram():
    # a family-2 member at n and a family-3 member at n - 2 share J = n - 1:
    # <G2_k, ladder_up(G3_k')> = -||partner|| delta_kk', and back down the same
    from elastoplasmon.harmonics import shared_tables
    from elastoplasmon.transmission import _radial_profile
    from elastoplasmon.waves import sector_kernels

    tables = shared_tables(67)
    for n in range(4, 65):
        kappa = _radial_profile(P11, n - 2, 3).kappa
        G2, G3 = np.stack(sector_kernels(n, 2)), np.stack(sector_kernels(n - 2, 3))
        # the ladders of every member at once: t1 (or t3) times the next ladder
        up = np.einsum("ak,jkl->ajl", np.einsum("ajm,jmk->ak", G3, tables.raise_[n - 2]), tables.raise_[n - 1])
        down = np.einsum("ak,jkl->ajl", np.einsum("ajm,jmk->ak", G2, tables.lower[n]), tables.lower[n - 1])
        for gram, norm in ((np.einsum("ajm,bjm->ab", G2.conj(), up), math.sqrt(kappa * (2 * n - 3) / (2 * n + 1))),
                           (np.einsum("ajm,bjm->ab", down.conj(), G3), math.sqrt(kappa * (2 * n + 1) / (2 * n - 3)))):
            assert np.max(np.abs(gram + norm * np.eye(len(G2)))) <= 1e-15 * norm, n
        if n in (4, 7, 12):
            assert np.einsum("jm,jm->", G2[0].conj(), up[0]).real == pytest.approx(
                -math.sqrt({4: 300, 7: 5082, 12: 58212}[n]), rel=1e-15)


@pytest.mark.parametrize("core", [None, 0.75])
def test_flux_dissipation_against_50_digit_solve(core):
    # the double flux against 50 digits (the same double system solved by an
    # equilibrated mpmath LU, the flux summed in 50 digits): flux <= 2e-15 for
    # families 1-3 at n = 12, 27, 60.  The volume route is recorded beside it
    # and needs its n^2-fold looser bound (measured up to 5.4e-13 at n = 60)
    from elastoplasmon.harmonics import shared_tables
    from elastoplasmon.transmission import solve_mode
    from oracles import mp_flux_dissipation, volume_dissipation

    params = LameParams(2.0, 0.5)
    tables = shared_tables(66)
    med = LayeredMedium(shell_radius=1.5, c=-2.0, delta=1e-3, base=params, core_radius=core)
    errors = {}
    for fam in (1, 2, 3):
        for n in (12, 27, 60):
            sol = solve_mode(med, SourceSpec(q=2.25, coefficients={(n, fam, 2): 0.6 - 0.8j}), n)
            ref = mp_flux_dissipation(sol, med)
            flux = abs(dissipation_E([sol], med) - ref) / ref
            volume = abs(volume_dissipation([sol], med) - ref) / ref
            errors[fam, n] = (flux, volume)
            assert flux <= 2e-15, (fam, n, flux, volume)
            assert volume <= 1e-11, (fam, n, flux, volume)
    print(" ".join(f"f{f} n={n}: flux {a:.1e} volume {b:.1e}" for (f, n), (a, b) in errors.items()))


@pytest.mark.parametrize("core", [None, 0.75])
def test_gram_flux_matches_the_vector_flux_and_50_digits(core):
    # the flux reads each source through the Gram matrix of its coefficients;
    # against the coefficient vectors (one np.vdot per degree and sphere) and
    # the 50-digit flux, on sources where family 2 at n and family 3 at n - 2
    # share J = n - 1 (several members, complex coefficients) beside a
    # family-1 part: measured <= 2.9e-16 and <= 7.8e-16.  The witness pairing
    # of a unit member reads the vector route's value too
    from elastoplasmon.energy import profile_pairings, solution_pairings
    from elastoplasmon.transmission import _profile_stack, _wave_amplitudes
    from oracles import annuli, mp_flux_dissipation, vector_flux, vector_solution_pairing

    for params in (P11, LameParams(2.0, 0.5)):
        med = LayeredMedium(shell_radius=1.5, c=-2.0, delta=1e-3, base=params, core_radius=core)
        for n in (4, 12, 27):
            src = SourceSpec(q=2.25, coefficients={(n, 2, 1): 0.6 - 0.8j, (n, 2, 3): 0.3j, (n - 2, 3, 1): -0.9 + 0.2j,
                                                    (n - 2, 3, 3): 0.5, (n - 2, 3, 2): 0.1, (n, 1, 2): 0.7})
            sols = solve_modes(med, src)
            gram, vector = solution_pairings([sols])[0], vector_solution_pairing(sols)
            assert abs(gram - vector) <= 1e-15 * abs(vector), (params, n)
            ref = mp_flux_dissipation(sols, med)
            assert abs(dissipation_E(sols, med) - ref) <= 2e-15 * ref, (params, n)
            for fam in (1, 2, 3):
                prof, amps, _ = _wave_amplitudes(params, n, fam, 1.5)
                coords, radii = dict(zip(prof.degrees, prof.coords.tolist())), (0.0, 1.5, math.inf)
                want = vector_flux({(lo, hi, None): [(prof, coords, 1.0, a)] for lo, hi, a in annuli(prof, radii, amps)})
                got = profile_pairings(_profile_stack([prof]), [radii], amps[None])[0]
                assert abs(got - want) <= 1e-15 * abs(want), (params, n, fam)


def test_array_flux_is_the_dict_flux(materials):
    # the array flux (one stack of fields, all interface spheres at once)
    # against the walk over {(kind, shape): amplitude} dicts it replaced
    # (oracles.dict_flux), bit for bit: on solves of every family, cored and
    # core-free, with a family-2 and a family-3 density sharing a sector, as
    # one column of rows and row by row; and on the witness fields, the
    # perfect waves and the single layers
    from elastoplasmon.energy import profile_pairings, solution_pairings
    from elastoplasmon.transmission import _profile_stack, _single_layers, _wave_amplitudes
    from oracles import annuli, dict_profile_pairing, dict_solution_pairing

    rows = []
    for params in materials:
        for core in (None, 0.75):
            med = LayeredMedium(shell_radius=1.5, c=-2.0, delta=1e-3, base=params, core_radius=core)
            for coeffs in (MIXED_SOURCE, {(6, 2, 1): 0.6 - 0.8j, (4, 3, 1): 0.3j, (6, 1, 2): 0.7},
                           {(n, 1, 1): 1.0 for n in (2, 9, 27)}):
                rows.append(solve_modes(med, SourceSpec(q=2.25, coefficients=coeffs)))
    want = [dict_solution_pairing(sols) for sols in rows]
    assert solution_pairings(rows) == want
    assert [solution_pairings([sols])[0] for sols in rows] == want
    for params in materials:
        for n, fam in ((2, 1), (9, 1), (4, 2), (12, 2), (3, 3), (12, 3)):
            prof, amps, _ = _wave_amplitudes(params, n, fam, 1.5)
            layer = _single_layers([(params, n, fam, 0.8, 0.3j)])[0]
            for radii, a in (((0.0, 1.5, math.inf), amps), ((0.0, 0.8, math.inf), layer)):
                got = profile_pairings(_profile_stack([prof]), [radii], a[None])[0]
                assert got == dict_profile_pairing(prof, annuli(prof, radii, a)), (n, fam)
