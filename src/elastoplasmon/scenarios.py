"""Constructive witnesses, the loss schedule, and resonance sweeps.

Witness fields certify the dissipation from both sides: a primal pair
(v, w) with  L_A v - L w = f  gives an upper bound I(v, w), a dual pair
(v, psi) with  L_A psi + delta L v = 0  gives a lower bound J(v, psi).
The generic constants of the asymptotic arguments are replaced by exactly
computed surface pairings and P-norms, and the auxiliary elliptic solves are
done exactly per mode in the radial geometry.  The fixed-multiplier primal
witness is the loss-free field (L_A v = f): the transmission solve of the
medium at delta = 0, with its scaling, refinement and checks.  Where that
system is singular (condition above 1e9) the solve raises
:class:`~elastoplasmon.transmission.ResonantSingularityError`, an
``ArithmeticError``, and a sweep row leaves ``I_upper`` blank unless another
primal witness applies.

Verdicts are artifact conventions: ``resonant`` needs monotone growth of the
dissipation with fitted log-log slope above 0.5, ``non-resonant`` needs the
final two decades to stay within a factor 10.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Callable, Sequence

import numpy as np

from .harmonics import DerivativeTable, ensure_tables
from .lame import LameParams, ModeField, Term
from .energy import EnergyReport, functional_I, pairing_P, source_pairing, dissipation_E
from .transmission import (LayeredMedium, ModeSolution, SourceSpec, _radial_profile, _source_member, solve_mode,
                           solve_modes)
from .waves import perfect_wave, plasmon_constants

__all__ = [
    "SweepResult",
    "schedule_n_delta",
    "witness_fixed_c",
    "witness_nocore",
    "witness_core_resonant",
    "witness_radial_nonresonant",
    "sweep",
    "fixed_configuration",
    "scheduled_configuration",
]


@dataclass
class SweepResult:
    rows: list[EnergyReport]
    verdict: str
    growth_exponent: float
    meta: dict = field(default_factory=dict)


def schedule_n_delta(R: float, delta: float) -> int:
    """Smallest integer n with R^{-n} < delta, floored at 2."""
    if R <= 1:
        raise ValueError("schedule needs R > 1")
    if delta >= 1:
        return 2
    # a first guess only; the loops below make n exact.  -log(delta) stays
    # finite where 1/delta overflows (subnormal delta)
    n = max(1, math.floor(-math.log(delta) / math.log(R)))
    while R ** (-n) >= delta:
        n += 1
    while n > 1 and R ** (-(n - 1)) < delta:
        n -= 1
    return max(2, n)


# ---------------------------------------------------------------------------
# scalar machinery of the divergence-free family
# ---------------------------------------------------------------------------

def _entire_traction(params: LameParams, n: int, r: float) -> float:
    """Traction of K r^n Y_n on the sphere r over K Y_n, K a family-1 kernel (its radial profile)."""
    p, _, trac = _radial_profile(params, n, 1).blocks[("entire", n)]
    return trac[n] * r ** (p - 1)


def _mode_pieces(K: np.ndarray, n: int, coeffs: Sequence[complex], radii: Sequence[float]) -> list[ModeField]:
    """Pure-kernel piecewise field from (entire, decaying) amplitude pairs.

    ``coeffs`` holds (a_i, b_i) per region; ``radii`` the interface radii.
    """
    bounds = [0.0] + list(radii) + [math.inf]
    out = []
    for i, (a, b) in enumerate(coeffs):
        terms = []
        if a != 0:
            terms.append(Term(a * K, n, n))
        if b != 0:
            terms.append(Term(b * K, n, -n - 1))
        out.append(ModeField(tuple(terms), bounds[i], bounds[i + 1]))
    return out


def _merge_pieces(list_of_pieces: list[list[ModeField]]) -> list[ModeField]:
    if not list_of_pieces:
        return []
    bounds = sorted({p.r_lo for pieces in list_of_pieces for p in pieces} | {p.r_hi for pieces in list_of_pieces for p in pieces})
    merged = []
    for lo, hi in zip(bounds[:-1], bounds[1:]):
        terms: list[Term] = []
        for pieces in list_of_pieces:
            for p in pieces:
                if p.r_lo <= lo and hi <= p.r_hi:
                    terms.extend(p.terms)
        merged.append(ModeField(tuple(terms), lo, hi))
    return merged


def _require_family1(source: SourceSpec, what: str) -> None:
    if any(fam != 1 for (_, fam, _), g in source.coefficients.items() if g != 0):
        raise ValueError(f"{what} needs a family-1 source")


def witness_fixed_c(medium: LayeredMedium, source: SourceSpec,
                    tables: DerivativeTable) -> tuple[list[ModeField], float, list[ModeSolution]]:
    """Primal witness for the cored fixed-multiplier configuration.

    The witness is the loss-free field v with L_A v = f (and w = 0): the
    transmission solve of the medium at delta = 0, scaled, refined and
    checked like any other.  The source must carry family-1 content only.
    Returns the witness field, the upper bound I(v, 0) at the medium's loss,
    and the loss-free solutions (with their conditions and backward errors).
    A loss-free system of condition above 1e9 raises
    :class:`~elastoplasmon.transmission.ResonantSingularityError`.
    """
    if medium.core_radius is None:
        raise ValueError("fixed-multiplier witness needs a core")
    _require_family1(source, "fixed-multiplier witness")
    tables = ensure_tables(tables, max(source.degrees()) + 6)
    solutions = solve_modes(replace(medium, delta=0.0), source, tables)
    pieces = _merge_pieces([list(sol.regions) for sol in solutions])
    return pieces, functional_I(pieces, None, medium.delta, medium.base, tables), solutions


def _dominant_mode(source: SourceSpec) -> tuple[int, int, int, complex]:
    (n, fam, k), gamma = max(source.coefficients.items(), key=lambda kv: abs(kv[1]))
    return n, fam, k, gamma


def _real_branch_coefficient(gamma: complex) -> float:
    """Re/Im branch choice: the larger real projection of the coefficient."""
    return gamma.real if abs(gamma.real) >= abs(gamma.imag) else gamma.imag


def _dual_wave(medium: LayeredMedium, source: SourceSpec, tables: DerivativeTable
               ) -> tuple[int, np.ndarray, list[ModeField], float, float, DerivativeTable]:
    """The perfect wave of the dominant source mode and its dual-bound constants.

    Needs medium.c equal to the mode family's plasmon constant at its degree
    n0 and a nonzero source.  Returns (n0, K, psi_hat, C0, C_psi, tables):
    the mode's kernel K, the unit wave's pieces, C0 = g <f_unit, psi_hat>
    with g the real branch coefficient, C_psi = sum 0.5 Re P(p, p) over the
    pieces, and the tables grown to n0 + 6.
    """
    params = medium.base
    n0, fam, k, gamma = _dominant_mode(source)
    tables = ensure_tables(tables, n0 + 6)
    zet = plasmon_constants(params, n0).as_tuple()[fam - 1]
    if not math.isclose(medium.c, zet, rel_tol=1e-10):
        raise ValueError(f"multiplier {medium.c} does not match the family-{fam} constant {zet} at degree {n0}")
    g = _real_branch_coefficient(gamma)
    if g == 0:
        raise ValueError("dominant source coefficient vanishes on both branches")
    K = _source_member(params, n0, fam, k, tables)
    wave = perfect_wave(K, fam, n0, medium.shell_radius, params, tables)
    psi_hat = [wave.interior, wave.exterior]
    unit_source = SourceSpec(q=source.q, coefficients={(n0, fam, k): 1.0})
    C0 = g * source_pairing(psi_hat, unit_source, params, tables)
    C_psi = 0.0
    for p in psi_hat:
        C_psi += 0.5 * float(np.real(pairing_P(p.terms, p.terms, p.r_lo, p.r_hi, params, tables)))
    return n0, K, psi_hat, C0, C_psi, tables


def witness_nocore(medium: LayeredMedium, source: SourceSpec, delta: float,
                   tables: DerivativeTable) -> tuple[list[ModeField], float, float]:
    """Dual witness for the core-free resonant configuration.

    Needs medium.c equal to a plasmon constant of the dominant source mode.
    Returns (psi pieces at the optimal amplitude, J lower bound, tau).
    """
    if medium.core_radius is not None:
        raise ValueError("no-core witness requires an empty core")
    _, _, psi_hat, C0, C_psi, _ = _dual_wave(medium, source, tables)
    tau = C0 / (2.0 * C_psi * delta)
    J_lower = C0**2 / (4.0 * C_psi * delta)
    psi = [ModeField(tuple(Term(tau * t.coef, t.degree, t.power) for t in p.terms), p.r_lo, p.r_hi) for p in psi_hat]
    return psi, J_lower, tau


def _toroidal_surface_solve(n: int, rho: float, density_scalar: complex, mu: float) -> list[tuple[complex, complex]]:
    """Scalar single-layer solve: -L w = density K Y on the sphere rho.

    Returns (entire, decaying) amplitudes inside/outside for a unit kernel;
    continuity plus a plain traction jump of -density determine both.
    """
    # w = a r^n inside, b r^{-n-1} outside; continuity a rho^n = b rho^{-n-1};
    # traction jump (out - in) = -density: mu[-(n+2) b rho^{-n-2} - (n-1) a rho^{n-1}] = -density
    a = density_scalar / (mu * (2 * n + 1.0) * rho ** (n - 1))
    b = a * rho ** (2 * n + 1)
    return [(a, 0.0), (0.0, b)]


def witness_core_resonant(medium: LayeredMedium, source: SourceSpec, delta: float,
                          tables: DerivativeTable) -> tuple[list[ModeField], list[ModeField], float, float]:
    """Dual witness for the cored scheduled configuration.

    psi is the core-free perfect wave of the scheduled mode; v repairs the
    core interface through an exact per-mode elliptic solve.  Returns
    (v pieces, psi pieces, J lower bound, tau).
    """
    if medium.core_radius is None:
        raise ValueError("core witness requires a core")
    if source.q <= medium.shell_radius:
        raise ValueError("source must lie outside the shell")
    if _dominant_mode(source)[1] != 1:
        raise ValueError("core witness implemented for the family-1 schedule")
    params = medium.base
    mu = params.mu
    a_core = medium.core_radius
    n0, K, psi_hat, C0, C_psi, tables = _dual_wave(medium, source, tables)
    # core repair: -delta L v = L_A psi = (c-1) traction(psi) on the core sphere
    rho1 = (medium.c - 1.0) * _entire_traction(params, n0, a_core)  # per unit tau
    amps = _toroidal_surface_solve(n0, a_core, rho1, mu)  # -L v_tilde = rho1 K Y, v = tau v_tilde/delta
    v_tilde = _mode_pieces(K, n0, amps, [a_core])
    P_vt = sum(
        float(np.real(pairing_P(p.terms, p.terms, p.r_lo, p.r_hi, params, tables))) for p in v_tilde
    )
    # J(tau) = C0 tau - (delta C_psi + P_vt/(2 delta) * ... ) tau^2
    C_v = 0.5 * P_vt / delta
    denom = delta * C_psi + C_v
    tau = C0 / (2.0 * denom)
    J_lower = C0**2 / (4.0 * denom)
    scale = lambda pieces, s: [
        ModeField(tuple(Term(s * t.coef, t.degree, t.power) for t in p.terms), p.r_lo, p.r_hi) for p in pieces
    ]
    return scale(v_tilde, tau / delta), scale(psi_hat, tau), J_lower, tau


def witness_radial_nonresonant(medium: LayeredMedium, source: SourceSpec, delta: float,
                               tables: DerivativeTable) -> tuple[list[ModeField], list[ModeField], float]:
    """Primal witness for the cored scheduled configuration outside R^{3/2}.

    The scheduled mode rides the free incident wave (no scattering); the
    constraint defect at the material interfaces is pushed into w by exact
    per-mode solves.  Off-schedule degrees take the loss-free field of
    :func:`witness_fixed_c`.  Returns (v pieces, w pieces, I upper bound).
    """
    if medium.core_radius is None:
        raise ValueError("radial witness requires a core")
    params = medium.base
    mu = params.mu
    R, q = medium.shell_radius, source.q
    if q <= R**1.5:
        raise ValueError("hypothesis violated: q must exceed R^{3/2}")
    _require_family1(source, "radial witness")
    a_core = medium.core_radius
    tables = ensure_tables(tables, max(source.degrees()) + 6)
    v_parts: list[list[ModeField]] = []
    w_parts: list[list[ModeField]] = []
    off_schedule: set[int] = set()
    for (n, _, k), gamma in sorted(source.coefficients.items()):
        if gamma == 0:
            continue
        if math.isclose(medium.c, plasmon_constants(params, n).zeta1, rel_tol=1e-10):
            # scheduled mode: free incident wave, interface defects go to w
            K = _source_member(params, n, 1, k, tables)
            tau = -gamma / ((2 * n + 1.0) * q ** (n - 1) * mu)
            coeffs = [(tau, 0.0), (0.0, tau * q ** (2 * n + 1))]
            v_parts.append(_mode_pieces(K, n, coeffs, [q]))
            for rho, sgn in ((a_core, 1.0), (R, -1.0)):
                dens = sgn * (medium.c - 1.0) * _entire_traction(params, n, rho) * tau
                amps = _toroidal_surface_solve(n, rho, -dens, mu)
                w_parts.append(_mode_pieces(K, n, amps, [rho]))
        else:
            off_schedule.add(n)
    loss_free = replace(medium, delta=0.0)
    v_parts += [list(solve_mode(loss_free, source, n, tables).regions) for n in sorted(off_schedule)]
    v = _merge_pieces(v_parts)
    w = _merge_pieces(w_parts) if w_parts else []
    I_upper = functional_I(v, w if w else None, delta, params, tables)
    return v, w, I_upper


# ---------------------------------------------------------------------------
# sweeps
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class fixed_configuration:
    """delta -> (medium, source) factory with a fixed multiplier."""

    params: LameParams
    shell_radius: float
    c: float
    source: SourceSpec
    core_radius: float | None = None

    def __call__(self, delta: float) -> tuple[LayeredMedium, SourceSpec]:
        med = LayeredMedium(
            shell_radius=self.shell_radius,
            c=self.c,
            delta=delta,
            base=self.params,
            core_radius=self.core_radius,
        )
        return med, self.source


@dataclass(frozen=True)
class scheduled_configuration:
    """delta -> (medium, source) factory following the loss schedule.

    The multiplier is the family constant at the scheduled degree and the
    single-mode source is re-injected there with the given coefficient.
    """

    params: LameParams
    shell_radius: float
    q: float
    family: int = 1
    k: int = 1
    gamma: complex = 1.0
    core_radius: float | None = None

    def __call__(self, delta: float) -> tuple[LayeredMedium, SourceSpec]:
        n = schedule_n_delta(self.shell_radius, delta)
        c = plasmon_constants(self.params, n).as_tuple()[self.family - 1]
        med = LayeredMedium(
            shell_radius=self.shell_radius,
            c=c,
            delta=delta,
            base=self.params,
            core_radius=self.core_radius,
        )
        src = SourceSpec(q=self.q, coefficients={(n, self.family, self.k): self.gamma})
        return med, src


def _fit_slope(deltas: Sequence[float], values: Sequence[float]) -> float:
    x = np.log(1.0 / np.asarray(deltas))
    y = np.log(np.asarray(values))
    A = np.vstack([x, np.ones_like(x)]).T
    slope, _ = np.linalg.lstsq(A, y, rcond=None)[0]
    return float(slope)


def _sweep_row(configuration, delta: float, tables: DerivativeTable, with_witnesses: bool) -> EnergyReport:
    if delta <= 0:
        raise ValueError("delta = 0 is rejected: the exact solve may be singular")
    med, src = configuration(delta)
    sols = solve_modes(med, src, tables)
    E = dissipation_E(sols, med, tables)
    I_upper = None
    J_lower = None
    if with_witnesses:
        for builder in (_try_I, _try_J):
            I_upper, J_lower = builder(med, src, delta, tables, I_upper, J_lower)
    return EnergyReport(delta=delta, E_delta=E, c_used=med.c, I_upper=I_upper,
                        J_lower=J_lower, n_delta=max(src.degrees()))


def sweep(configuration: Callable[[float], tuple[LayeredMedium, SourceSpec]],
          delta_list: Sequence[float], tables: DerivativeTable,
          with_witnesses: bool = True) -> SweepResult:
    """Exact solves over a decreasing loss list, with witness bounds.

    Each row records the dissipation and whichever bounds apply to the
    configuration; the verdict follows the growth conventions in the module
    docstring.
    """
    deltas = list(delta_list)
    if len(deltas) < 3 or any(b >= a for a, b in zip(deltas[:-1], deltas[1:])):
        raise ValueError("delta_list must be strictly decreasing with >= 3 entries")
    if deltas[0] / deltas[-1] < 0.99e3:
        raise ValueError("sweep must span at least three decades")
    _, deepest_src = configuration(deltas[-1])
    tables = ensure_tables(tables, max(deepest_src.degrees()) + 6)
    rows = [_sweep_row(configuration, d, tables, with_witnesses) for d in deltas]
    E = [r.E_delta for r in rows]
    slope = _fit_slope(deltas, E)
    monotone = all(E[i + 1] >= E[i] * 0.95 for i in range(len(E) - 1))
    final = [r.E_delta for r in rows if r.delta <= deltas[-1] * 100.0]
    # boundedness = no upward move above 10x within the final two decades
    # (a strongly decaying dissipation is bounded, not inconclusive)
    growth_factor = max(
        (final[j] / final[i] for i in range(len(final)) for j in range(i, len(final))),
        default=1.0,
    )
    if monotone and slope > 0.5:
        verdict = "resonant"
    elif growth_factor < 10.0:
        verdict = "non-resonant"
    else:
        verdict = "inconclusive"
    return SweepResult(
        rows=rows,
        verdict=verdict,
        growth_exponent=slope,
        meta={
            "thresholds": "resonant: monotone growth and fitted slope > 0.5; "
            "non-resonant: largest upward move in the final two decades < 10x",
            "final_window_growth_factor": growth_factor,
        },
    )


def _try_I(med, src, delta, tables, I_upper, J_lower):
    if med.core_radius is None:
        return I_upper, J_lower
    candidates = []
    zet1 = plasmon_constants(med.base, max(src.degrees())).zeta1
    if math.isclose(med.c, zet1, rel_tol=1e-10) and src.q > med.shell_radius**1.5:
        try:
            candidates.append(witness_radial_nonresonant(med, src, delta, tables)[2])
        except (ValueError, ArithmeticError):
            pass
    try:
        candidates.append(witness_fixed_c(med, src, tables)[1])
    except (ValueError, ArithmeticError):
        pass
    if candidates:
        I_upper = min(candidates)  # both are valid upper bounds; keep the tighter
    return I_upper, J_lower


def _try_J(med, src, delta, tables, I_upper, J_lower):
    try:
        if med.core_radius is None:
            _, J_lower, _ = witness_nocore(med, src, delta, tables)
        else:
            _, _, J_lower, _ = witness_core_resonant(med, src, delta, tables)
    except (ValueError, ArithmeticError):
        pass
    return I_upper, J_lower
