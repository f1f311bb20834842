"""Constructive witnesses, the loss schedule, and resonance sweeps.

Witness fields certify the dissipation from both sides: a primal pair
(v, w) with  L_A v - L w = f  gives an upper bound I(v, w), a dual pair
(v, psi) with  L_A psi + delta L v = 0  gives a lower bound J(v, psi).
The generic constants of the asymptotic arguments are replaced by exactly
computed surface pairings and P-norms.  The one auxiliary elliptic solve,
the sector single layer on a sphere of :mod:`~elastoplasmon.transmission`,
repairs the cored dual witness at the core and gives the radial primal
witness its incident wave (the source's layer on q) and both repairs.  The
fixed-multiplier primal witness is the loss-free field (L_A v = f): the
transmission solve of the medium at delta = 0, with its scaling, refinement
and checks.  Where that system is singular (condition above 1e9) the solve
raises :class:`~elastoplasmon.transmission.ResonantSingularityError`, an
``ArithmeticError``, and a sweep row leaves ``I_upper`` blank unless another
primal witness applies.

Every witness field solves the Lame system in each region, so its energies
are fluxes through the interface spheres (:func:`~elastoplasmon.energy.profile_pairing`,
:func:`~elastoplasmon.energy.solution_pairing`): each bound is a scalar of
the radial profiles and the source coefficients.  :data:`WITNESSES` lists
each witness once (its bound, whether it needs a core, its scalar core and
the scalars it prints); a sweep row and the ``witness`` command read it and
build no field.  A sweep solves two columns of sector systems
(:func:`~elastoplasmon.transmission._solve_column`): every row's lossy
solve, and the loss-free solve of the rows the fixed-multiplier witness
applies to (a core and a family-1 source), which the primal witnesses read
instead of solving; rows of one loss-free medium and source share their
systems.  A sweep tries the radial witness only on its schedule outside
R^{3/2} and records each witness that raises in
``SweepResult.meta["refusals"]`` (row, loss, degree, witness, bound,
exception type and message), and per row the largest condition and
backward error of each column's systems in ``SweepResult.meta["solves"]``.
The public ``witness_*`` builders take their bound from the same scalar
core and also return the fields.

Verdicts are artifact conventions: ``resonant`` needs monotone growth of the
dissipation with fitted log-log slope above 0.5, ``non-resonant`` needs the
final two decades to stay within a factor 10.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Callable, Sequence

import numpy as np

from .lame import LameParams, ModeField, Term, plasmon_constants
from .energy import EnergyReport, dissipation_E, profile_pairing, solution_pairing
from .transmission import (LayeredMedium, ModeSolution, ResonantSingularityError, SourceSpec, _check_source_mode,
                           _ok, _profile_fields, _profile_trace, _radial_profile, _single_layer, _solve_column,
                           _source_member, _wave_amplitudes)

__all__ = [
    "SweepResult",
    "Witness",
    "WITNESSES",
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
# scalar machinery of the witnesses
# ---------------------------------------------------------------------------

def _merge_annuli(parts: list[list[tuple[float, float, dict]]]) -> list[tuple[float, float, dict]]:
    """Block amplitudes of several annulus lists summed on the union of their bounds (as :func:`_merge_pieces`)."""
    bounds = sorted({r for part in parts for lo, hi, _ in part for r in (lo, hi)})
    merged = []
    for lo, hi in zip(bounds[:-1], bounds[1:]):
        amps: dict = {}
        for part in parts:
            for p_lo, p_hi, p_amps in part:
                if p_lo <= lo and hi <= p_hi:
                    for block, a in p_amps.items():
                        amps[block] = amps.get(block, 0.0) + a
        merged.append((lo, hi, amps))
    return merged


def _merge_pieces(list_of_pieces: list[list[ModeField]]) -> list[ModeField]:
    """Fields of several piece lists summed on the union of their bounds, terms in list order."""
    pieces = [p for part in list_of_pieces for p in part]
    bounds = sorted({r for p in pieces for r in (p.r_lo, p.r_hi)})
    return [ModeField(tuple(t for p in pieces if p.r_lo <= lo and hi <= p.r_hi for t in p.terms), lo, hi)
            for lo, hi in zip(bounds[:-1], bounds[1:])]


def _require_family1(source: SourceSpec, what: str) -> None:
    if any(fam != 1 for (_, fam, _), g in source.coefficients.items() if g != 0):
        raise ValueError(f"{what} needs a family-1 source")


def _loss_free(medium: LayeredMedium, source: SourceSpec, degrees, loss_free: list | None) -> list[ModeSolution]:
    """The loss-free solutions of the source's ``degrees``, the first one's error raised.

    ``loss_free`` holds the outcome of each of ``source.degrees()`` (a
    :class:`~elastoplasmon.transmission.ModeSolution` or the error of its
    solve), as a sweep's loss-free column gives it; else they are solved.
    """
    if loss_free is None:
        return [_ok(sol) for sol in _solve_column([(replace(medium, delta=0.0), source, n) for n in degrees])]
    by_degree = dict(zip(source.degrees(), loss_free))
    return [_ok(by_degree[n]) for n in degrees]


def _fixed_c_checks(medium: LayeredMedium, source: SourceSpec, delta: float) -> None:
    if medium.core_radius is None:
        raise ValueError("fixed-multiplier witness needs a core")
    _require_family1(source, "fixed-multiplier witness")
    if delta <= 0:
        raise ValueError("delta must be positive")


def _fixed_c_bound(medium: LayeredMedium, source: SourceSpec, delta: float,
                   loss_free: list | None = None) -> tuple[float, list[ModeSolution]]:
    """I(v, 0) of the loss-free field at loss delta, by flux, and the loss-free solutions (:func:`_loss_free`)."""
    _fixed_c_checks(medium, source, delta)
    solutions = _loss_free(medium, source, source.degrees(), loss_free)
    return 0.5 * delta * solution_pairing(solutions), solutions


def witness_fixed_c(medium: LayeredMedium, source: SourceSpec) -> tuple[list[ModeField], float, list[ModeSolution]]:
    """Primal witness for the cored fixed-multiplier configuration.

    The witness is the loss-free field v with L_A v = f (and w = 0): the
    transmission solve of the medium at delta = 0, scaled, refined and
    checked like any other.  The source must carry family-1 content only.
    Returns the witness field, the upper bound I(v, 0) at the medium's loss
    (the flux of :func:`~elastoplasmon.energy.solution_pairing`), and the
    loss-free solutions (with their conditions and backward errors).  A
    loss-free system of condition above 1e9 raises
    :class:`~elastoplasmon.transmission.ResonantSingularityError`.
    """
    I_upper, solutions = _fixed_c_bound(medium, source, medium.delta)
    return _merge_pieces([list(sol.regions) for sol in solutions]), I_upper, solutions


def _dominant_mode(source: SourceSpec) -> tuple[int, int, int, complex]:
    (n, fam, k), gamma = max(source.coefficients.items(), key=lambda kv: abs(kv[1]))
    return n, fam, k, gamma


def _real_branch_coefficient(gamma: complex) -> float:
    """Re/Im branch choice: the larger real projection of the coefficient."""
    return gamma.real if abs(gamma.real) >= abs(gamma.imag) else gamma.imag


def _dual_constants(medium: LayeredMedium, source: SourceSpec) -> tuple[int, int, int, float, float]:
    """The dominant source mode and the dual-bound constants of its perfect wave.

    Needs medium.c equal to the mode family's plasmon constant at its degree
    n0 and a nonzero source.  Returns (n0, family, k, C0, C_psi) for the
    unit wave psi_hat of member k (:func:`~elastoplasmon.transmission._wave_amplitudes`,
    which checks the sector): C0 = g <f_unit, psi_hat> = g q^2 U_n0(q) with
    g the real branch coefficient, and C_psi = 0.5 Re P(psi_hat, psi_hat),
    both scalar.
    """
    params = medium.base
    n0, fam, k, gamma = _dominant_mode(source)
    _check_source_mode(n0, fam, k)
    zet = plasmon_constants(params, n0).as_tuple()[fam - 1]
    if not math.isclose(medium.c, zet, rel_tol=1e-10):
        raise ValueError(f"multiplier {medium.c} does not match the family-{fam} constant {zet} at degree {n0}")
    g = _real_branch_coefficient(gamma)
    if g == 0:
        raise ValueError("dominant source coefficient vanishes on both branches")
    R, q = medium.shell_radius, source.q
    prof, inner, outer, _ = _wave_amplitudes(params, n0, fam, R)  # checked once per key
    C0 = g * q**2 * float(np.real(_profile_trace(prof, inner if q <= R else outer, q)[n0][0]))
    C_psi = 0.5 * profile_pairing(prof, [(0.0, R, inner), (R, math.inf, outer)])
    return n0, fam, k, C0, C_psi


def _unit_wave(medium: LayeredMedium, n0: int, fam: int, k: int) -> tuple[np.ndarray, list[ModeField]]:
    """Member k of the dominant mode and its unit perfect wave's pieces (built from the member matrix)."""
    from .waves import perfect_wave

    K = _source_member(medium.base, n0, fam, k)
    wave = perfect_wave(K, fam, n0, medium.shell_radius, medium.base)
    return K, [wave.interior, wave.exterior]


def _scaled(pieces: list[ModeField], s: complex) -> list[ModeField]:
    return [ModeField(tuple(Term(s * t.coef, t.degree, t.power) for t in p.terms), p.r_lo, p.r_hi) for p in pieces]


def _nocore_bound(medium: LayeredMedium, source: SourceSpec, delta: float) -> tuple[float, float, tuple]:
    """(J lower bound, tau, dominant mode) of the core-free dual witness, scalar."""
    if medium.core_radius is not None:
        raise ValueError("no-core witness requires an empty core")
    n0, fam, k, C0, C_psi = _dual_constants(medium, source)
    return C0**2 / (4.0 * C_psi * delta), C0 / (2.0 * C_psi * delta), (n0, fam, k)


def witness_nocore(medium: LayeredMedium, source: SourceSpec, delta: float) -> tuple[list[ModeField], float, float]:
    """Dual witness for the core-free resonant configuration.

    Needs medium.c equal to a plasmon constant of the dominant source mode.
    Returns (psi pieces at the optimal amplitude, J lower bound, tau).
    """
    J_lower, tau, mode = _nocore_bound(medium, source, delta)
    return _scaled(_unit_wave(medium, *mode)[1], tau), J_lower, tau


def _core_bound(medium: LayeredMedium, source: SourceSpec, delta: float) -> tuple[float, float, tuple, list]:
    """(J lower bound, tau, dominant mode, core-repair annuli) of the cored dual witness, scalar."""
    if medium.core_radius is None:
        raise ValueError("core witness requires a core")
    if source.q <= medium.shell_radius:
        raise ValueError("source must lie outside the shell")
    if _dominant_mode(source)[1] != 1:
        raise ValueError("core witness implemented for the family-1 schedule")
    params = medium.base
    a_core = medium.core_radius
    n0, fam, k, C0, C_psi = _dual_constants(medium, source)
    # core repair: -delta L v = L_A psi = (c-1) traction(psi) on the core sphere
    prof, inner, _, _ = _wave_amplitudes(params, n0, fam, medium.shell_radius)
    rho1 = (medium.c - 1.0) * _profile_trace(prof, inner, a_core)[n0][1]  # per unit tau
    v_tilde = _single_layer(params, n0, fam, a_core, -rho1)[1]  # -L v_tilde = rho1 K Y, v = tau v_tilde/delta
    P_vt = profile_pairing(prof, v_tilde)
    # J(tau) = C0 tau - (delta C_psi + P_vt/(2 delta) * ... ) tau^2
    denom = delta * C_psi + 0.5 * P_vt / delta
    return C0**2 / (4.0 * denom), C0 / (2.0 * denom), (n0, fam, k), v_tilde


def witness_core_resonant(medium: LayeredMedium, source: SourceSpec,
                          delta: float) -> tuple[list[ModeField], list[ModeField], float, float]:
    """Dual witness for the cored scheduled configuration.

    psi is the core-free perfect wave of the scheduled mode; v repairs the
    core interface through an exact per-mode elliptic solve.  Returns
    (v pieces, psi pieces, J lower bound, tau).
    """
    J_lower, tau, (n0, fam, k), v_tilde = _core_bound(medium, source, delta)
    K, psi_hat = _unit_wave(medium, n0, fam, k)
    v_hat = _profile_fields([(_radial_profile(medium.base, n0, fam), {n0: K}, v_tilde)])
    return _scaled(v_hat, tau / delta), _scaled(psi_hat, tau), J_lower, tau


def _radial_bound(medium: LayeredMedium, source: SourceSpec, delta: float,
                  loss_free: list | None = None) -> tuple[float, list, list[ModeSolution]]:
    """I(v, w) of the radial primal witness by flux.

    Returns the bound, (n, k, v annuli, w annuli) per scheduled mode (the
    form :func:`~elastoplasmon.transmission._profile_fields` reads), and the
    loss-free solutions of the off-schedule degrees (:func:`_loss_free`).  Scheduled modes,
    distinct members and distinct degrees are orthogonal, so their energies
    add; the two repairs of one mode share its member.
    """
    if medium.core_radius is None:
        raise ValueError("radial witness requires a core")
    if delta <= 0:
        raise ValueError("delta must be positive")
    params = medium.base
    R, q = medium.shell_radius, source.q
    if q <= R**1.5:
        raise ValueError("hypothesis violated: q must exceed R^{3/2}")
    _require_family1(source, "radial witness")
    a_core = medium.core_radius
    scheduled = []
    off_schedule: set[int] = set()
    P_v = P_w = 0.0
    for (n, _, k), gamma in sorted(source.coefficients.items()):
        if gamma == 0:
            continue
        if math.isclose(medium.c, plasmon_constants(params, n).zeta1, rel_tol=1e-10):
            # scheduled mode: free incident wave (the source's layer on q), interface defects go to w
            _check_source_mode(n, 1, k)
            prof, v = _single_layer(params, n, 1, q, gamma)
            repairs = []
            for rho, sgn in ((a_core, 1.0), (R, -1.0)):
                dens = sgn * (medium.c - 1.0) * _profile_trace(prof, v[0][2], rho)[n][1]
                repairs.append(_single_layer(params, n, 1, rho, dens)[1])
            w = _merge_annuli(repairs)
            P_v += profile_pairing(prof, v)
            P_w += profile_pairing(prof, w)
            scheduled.append((n, k, v, w))
        else:
            off_schedule.add(n)
    off = _loss_free(medium, source, sorted(off_schedule), loss_free)
    I_upper = 0.5 * delta * (P_v + solution_pairing(off)) + 0.5 / delta * P_w
    return I_upper, scheduled, off


def witness_radial_nonresonant(medium: LayeredMedium, source: SourceSpec,
                               delta: float) -> tuple[list[ModeField], list[ModeField], float]:
    """Primal witness for the cored scheduled configuration outside R^{3/2}.

    The scheduled mode rides the free incident wave (no scattering); the
    constraint defect at the material interfaces is pushed into w by exact
    per-mode solves.  Off-schedule degrees take the loss-free field of
    :func:`witness_fixed_c`.  Returns (v pieces, w pieces, I upper bound).
    """
    I_upper, scheduled, off = _radial_bound(medium, source, delta)
    parts = [(_radial_profile(medium.base, n, 1), {n: _source_member(medium.base, n, 1, k)}, v, w)
             for n, k, v, w in scheduled]
    v = _profile_fields([(prof, refs, v) for prof, refs, v, _ in parts])
    w = _profile_fields([(prof, refs, w) for prof, refs, _, w in parts])
    return _merge_pieces([v] + [list(sol.regions) for sol in off]), w, I_upper


@dataclass(frozen=True)
class Witness:
    """One row of :data:`WITNESSES`; ``core(medium, source, delta)`` returns the bound first.

    A core that reads the loss-free field (``reads_loss_free``) also takes
    it as ``loss_free``, which a sweep gives from its loss-free column
    (:func:`_loss_free`).
    """

    name: str  # the public builder
    bound: str  # "I_upper" (primal) or "J_lower" (dual)
    cored: bool  # for cored media only, else for core-free media only
    core: Callable[[LayeredMedium, SourceSpec, float], tuple]
    labels: tuple[str, ...]  # the leading scalars of the core, as the witness command prints them
    reads_loss_free: bool = False

    def applies(self, medium: LayeredMedium) -> bool:
        return self.cored == (medium.core_radius is not None)


# every witness, in the order the witness command prints them
WITNESSES = (
    Witness("witness_nocore", "J_lower", False, _nocore_bound, ("J_lower", "tau")),
    Witness("witness_fixed_c", "I_upper", True, _fixed_c_bound, ("I_upper",), reads_loss_free=True),
    Witness("witness_core_resonant", "J_lower", True, _core_bound, ("J_lower", "tau")),
    Witness("witness_radial_nonresonant", "I_upper", True, _radial_bound, ("I_upper_scheduled",),
            reads_loss_free=True),
)


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
        return LayeredMedium(shell_radius=self.shell_radius, c=self.c, delta=delta, base=self.params,
                             core_radius=self.core_radius), self.source


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
        med = LayeredMedium(shell_radius=self.shell_radius, c=c, delta=delta, base=self.params,
                            core_radius=self.core_radius)
        return med, SourceSpec(q=self.q, coefficients={(n, self.family, self.k): self.gamma})


def _fit_slope(deltas: Sequence[float], values: Sequence[float]) -> float:
    x = np.log(1.0 / np.asarray(deltas))
    y = np.log(np.asarray(values))
    A = np.vstack([x, np.ones_like(x)]).T
    slope, _ = np.linalg.lstsq(A, y, rcond=None)[0]
    return float(slope)


def _worst(outcomes: list) -> tuple[float | None, float | None]:
    """(largest condition, largest backward error) of a row's solve outcomes; None where none has one.

    A system refused as singular keeps its condition but has no backward error.
    """
    conds = [o.condition for o in outcomes if isinstance(o, (ModeSolution, ResonantSingularityError))]
    berrs = [o.lstsq_residual for o in outcomes if isinstance(o, ModeSolution)]
    return max(conds, default=None), max(berrs, default=None)


def _sweep_rows(configuration, deltas: Sequence[float]) -> tuple[list[EnergyReport], list[dict], list[dict]]:
    """The rows of a sweep, each with the tighter bound of each side from the :data:`WITNESSES` of its medium.

    Returns (rows, refusals, solves).  Every bound of a side is valid; a side
    no witness bounds is None.  A witness that applies but raises
    ``ValueError`` or ``ArithmeticError`` is a refusal (row, loss, degree,
    witness, bound, exception type and message).  The solves are two
    columns (:func:`~elastoplasmon.transmission._solve_column`): the lossy
    one, and the loss-free one of the rows that pass the fixed-multiplier
    witness's checks, whose primal witnesses read it.  ``solves`` holds per
    row the largest condition and backward error of each column's systems.
    A row's solve error is raised when the rows before it are done.
    """
    if min(deltas) <= 0:
        raise ValueError("delta = 0 is rejected: the exact solve may be singular")
    media = [(d, *configuration(d)) for d in deltas]

    def column(rows) -> list[list]:
        items = [(med, src, n) for med, src in rows for n in src.degrees()]
        flat, out = iter(_solve_column(items)), []
        for _, src in rows:
            out.append([next(flat) for _ in src.degrees()])
        return out

    def fixed_c_applies(med, src, d) -> bool:
        try:
            _fixed_c_checks(med, src, d)
        except ValueError:
            return False
        return True

    lossy = column([(med, src) for _, med, src in media])
    free = [(replace(med, delta=0.0), src) if fixed_c_applies(med, src, d) else None for d, med, src in media]
    solved = iter(column([row for row in free if row]))
    loss_free = [next(solved) if row else None for row in free]
    rows, refusals, solves = [], [], []
    for i, ((d, med, src), outcomes, lf) in enumerate(zip(media, lossy, loss_free)):
        E = dissipation_E([_ok(sol) for sol in outcomes], med)
        n_delta = max(src.degrees())
        bounds: dict[str, list[float]] = {"I_upper": [], "J_lower": []}
        for w in WITNESSES:
            if not w.applies(med):
                continue
            # unlike the witness command, a sweep tries the radial witness only on
            # its schedule outside R^{3/2}: zeta1 at the deepest degree, q > R^{3/2}
            if w.name == "witness_radial_nonresonant" and not (
                    src.q > med.shell_radius**1.5
                    and math.isclose(med.c, plasmon_constants(med.base, n_delta).zeta1, rel_tol=1e-10)):
                continue
            kwargs = {"loss_free": lf} if w.reads_loss_free else {}
            try:
                bounds[w.bound].append(w.core(med, src, d, **kwargs)[0])
            except (ValueError, ArithmeticError) as exc:
                refusals.append({"row": i, "delta": d, "n_delta": n_delta, "witness": w.name, "bound": w.bound,
                                 "error": type(exc).__name__, "message": str(exc)})
        rows.append(EnergyReport(delta=d, E_delta=E, c_used=med.c, I_upper=min(bounds["I_upper"], default=None),
                                 J_lower=max(bounds["J_lower"], default=None), n_delta=n_delta))
        (lossy_cond, lossy_berr), (free_cond, free_berr) = _worst(outcomes), _worst(lf or [])
        solves.append({"row": i, "lossy_condition": lossy_cond, "lossy_backward_error": lossy_berr,
                       "loss_free_condition": free_cond, "loss_free_backward_error": free_berr})
    return rows, refusals, solves


def sweep(configuration: Callable[[float], tuple[LayeredMedium, SourceSpec]],
          delta_list: Sequence[float]) -> SweepResult:
    """Exact solves over a decreasing loss list, with witness bounds (:func:`_sweep_rows`).

    Each row records the dissipation and whichever bounds apply to the
    configuration; the verdict follows the growth conventions in the module
    docstring.  A row is sector-scalar algebra: it builds no field and reads
    no ladder degree.
    """
    deltas = list(delta_list)
    if len(deltas) < 3 or any(b >= a for a, b in zip(deltas[:-1], deltas[1:])):
        raise ValueError("delta_list must be strictly decreasing with >= 3 entries")
    if deltas[0] / deltas[-1] < 0.99e3:
        raise ValueError("sweep must span at least three decades")
    rows, refusals, solves = _sweep_rows(configuration, deltas)
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
            "refusals": refusals,
            "solves": solves,
        },
    )
