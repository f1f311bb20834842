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
are fluxes through the interface spheres (:func:`~elastoplasmon.energy.profile_pairings`,
:func:`~elastoplasmon.energy.solution_pairings`): each bound is a scalar of
the radial profiles and the source coefficients.  :data:`WITNESSES` lists
each witness once (its bound, whether it needs a core, its core and the
scalars it prints); a sweep and the ``witness`` command read it and build
no field.  A core is a :func:`~elastoplasmon.transmission._column` of
(medium, source, loss) rows, per row its scalars or its error; the primal
cores read the rows' loss-free solves, one column (:func:`_row_solves`).  A
sweep solves its lossy rows in that column too, takes the dissipations of
its rows as one flux and runs each core once, on the rows it applies to
(the radial witness only on its schedule outside R^{3/2}), and records each
witness that raises and each row's largest conditions and backward errors
in ``SweepResult.meta`` (:func:`_sweep_rows`).  The ``witness`` command
(:func:`witness_scalars`) and the public ``witness_*`` builders of
:mod:`~elastoplasmon.fields` run the cores on a column of one.

Verdicts are artifact conventions: ``resonant`` needs monotone growth of the
dissipation with fitted log-log slope above 0.5, ``non-resonant`` needs the
final two decades to stay within a factor 10.
"""

from __future__ import annotations

import math
from dataclasses import replace
from typing import Callable, NamedTuple, Sequence

import numpy as np

from .lame import LameParams, _served_from_fields, plasmon_constants
from .energy import EnergyReport, dissipations, profile_pairings, solution_pairings
from .transmission import (LayeredMedium, ModeSolution, ResonantSingularityError, SourceSpec, _check_source_mode,
                           _column, _ok, _profile_stack, _radial_profile, _region_blocks, _single_layers,
                           _solve_column, _traces, _wave_amplitudes)

__all__ = [
    "SweepResult", "Witness", "WITNESSES", "witness_scalars", "schedule_n_delta", "sweep", "fixed_configuration",
    "scheduled_configuration",
]


class SweepResult(NamedTuple):
    rows: list[EnergyReport]
    verdict: str
    growth_exponent: float
    meta: dict


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

def _require_family1(source: SourceSpec, what: str) -> None:
    if any(fam != 1 for (_, fam, _), g in source.coefficients.items() if g != 0):
        raise ValueError(f"{what} needs a family-1 source")


def _fixed_c_checks(medium: LayeredMedium, source: SourceSpec, delta: float) -> None:
    if medium.core_radius is None:
        raise ValueError("fixed-multiplier witness needs a core")
    _require_family1(source, "fixed-multiplier witness")
    if delta <= 0:
        raise ValueError("delta must be positive")


def _row_solves(rows, lossy: bool) -> tuple[list, list]:
    """Per (medium, source, delta) row the outcomes of its lossy solves (none unless ``lossy``) and of its loss-free
    ones, one per degree of the source, all one column (none if empty).  A row has loss-free solves where the
    fixed-multiplier witness's checks pass, the rows the primal witnesses read."""
    items = [[(med, src, n) for n in src.degrees()] if lossy else [] for med, src, _ in rows]
    for med, src, delta in rows:
        try:
            _fixed_c_checks(med, src, delta)
        except ValueError:
            items.append([])
            continue
        items.append([(replace(med, delta=0.0), src, n) for n in src.degrees()])
    flat = iter(_solve_column([item for row in items for item in row]) if any(items) else ())
    got = [[next(flat) for _ in row] for row in items]
    return got[:len(rows)], got[len(rows):]


def _fixed_c_bound(rows, loss_free: list) -> list:
    """Per (medium, source, delta) row: (I(v, 0), loss-free solutions), or the row's error.

    I(v, 0) is that of the loss-free field at the row's loss, by one flux
    over the rows; the loss-free solutions are the row's ``loss_free``."""
    def values(idx, _):
        free = [loss_free[i] for i in idx]
        return [p if isinstance(p, Exception) else (0.5 * rows[i][2] * p, sols)
                for i, sols, p in zip(idx, free, solution_pairings(free))]
    return _column(len(rows), lambda i: _fixed_c_checks(*rows[i]), values)


def _dominant_mode(source: SourceSpec) -> tuple[int, int, int, complex]:
    (n, fam, k), gamma = max(source.coefficients.items(), key=lambda kv: abs(kv[1]))
    return n, fam, k, gamma


def _real_branch_coefficient(gamma: complex) -> float:
    """Re/Im branch choice: the larger real projection of the coefficient."""
    return gamma.real if abs(gamma.real) >= abs(gamma.imag) else gamma.imag


def _dual_mode(medium: LayeredMedium, source: SourceSpec) -> tuple:
    """((n0, family, k), g, profile, wave, region) of the dominant source mode.

    Needs medium.c equal to the mode family's plasmon constant at its degree
    n0 and a nonzero source.  g is the real branch coefficient, the wave the
    amplitudes inside and outside the shell of the unit perfect wave of
    member k (:func:`~elastoplasmon.transmission._wave_amplitudes`, which
    checks the sector) and region that of the wave at the source sphere."""
    params = medium.base
    n0, fam, k, gamma = _dominant_mode(source)
    _check_source_mode(n0, fam, k)
    zet = plasmon_constants(params, n0).as_tuple()[fam - 1]
    if not math.isclose(medium.c, zet, rel_tol=1e-10):
        raise ValueError(f"multiplier {medium.c} does not match the family-{fam} constant {zet} at degree {n0}")
    g = _real_branch_coefficient(gamma)
    if g == 0:
        raise ValueError("dominant source coefficient vanishes on both branches")
    prof, wave, _ = _wave_amplitudes(params, n0, fam, medium.shell_radius)
    return (n0, fam, k), g, prof, wave, int(source.q > medium.shell_radius)


def _dual_key(state) -> tuple:
    """The stack key of :func:`_dual_constants`: the wave's shape and its region at the source sphere."""
    return len(state[2].degrees), state[4]


def _dual_constants(rows, idx, states) -> tuple[list[float], list[float], tuple, np.ndarray]:
    """C0 and C_psi of each row's dominant mode (:func:`_dual_mode`), and its profile stack and waves, as a stack.

    For the unit wave psi_hat of member k: C0 = g <f_unit, psi_hat> = g q^2
    U_n0(q) and C_psi = 0.5 Re P(psi_hat, psi_hat), both scalar.  The rows
    share :func:`_dual_key`."""
    profs, waves = [s[2] for s in states], np.array([s[3] for s in states])
    R, q = [rows[i][0].shell_radius for i in idx], [rows[i][1].q for i in idx]
    reg = states[0][4]
    stack = _profile_stack(profs)
    U, _ = _traces(stack, waves[:, reg], q, _region_blocks(reg, 2, len(profs[0].degrees)))
    C0 = [s[1] * q_i**2 * u for s, q_i, u in zip(states, q, U[:, 0].real.tolist())]
    C_psi = [0.5 * p for p in profile_pairings(stack, [(0.0, R_i, math.inf) for R_i in R], waves).tolist()]
    return C0, C_psi, stack, waves


def _nocore_check(medium: LayeredMedium, source: SourceSpec) -> tuple:
    if medium.core_radius is not None:
        raise ValueError("no-core witness requires an empty core")
    return _dual_mode(medium, source)


def _nocore_bound(rows, loss_free: list) -> list:
    """Per (medium, source, delta) row: (J lower bound, tau, dominant mode) of the core-free dual witness, or its error."""
    def values(idx, states):
        C0, C_psi, _, _ = _dual_constants(rows, idx, states)
        return [(c0**2 / (4.0 * cp * rows[i][2]), c0 / (2.0 * cp * rows[i][2]), s[0])
                for i, s, c0, cp in zip(idx, states, C0, C_psi)]
    return _column(len(rows), lambda i: _nocore_check(*rows[i][:2]), values, key=_dual_key)


def _core_check(medium: LayeredMedium, source: SourceSpec) -> tuple:
    if medium.core_radius is None:
        raise ValueError("core witness requires a core")
    if source.q <= medium.shell_radius:
        raise ValueError("source must lie outside the shell")
    if _dominant_mode(source)[1] != 1:
        raise ValueError("core witness implemented for the family-1 schedule")
    return _dual_mode(medium, source)


def _repair(media, degrees, stack, amps, at, sign: float) -> np.ndarray:
    """Per row the family-1 single layer on the sphere ``at[i]`` of density ``sign`` (c - 1) times the traction
    there of the entire degree-n block of ``amps[i]``: an interface repair."""
    _, T = _traces(stack, amps, at, slice(0, 1))
    density = (np.array([sign * (med.c - 1.0) for med in media]) * T[:, 0]).tolist()
    return _single_layers([(med.base, n, 1, rho, d) for med, n, rho, d in zip(media, degrees, at, density)])


def _core_bound(rows, loss_free: list) -> list:
    """Per (medium, source, delta) row: (J lower bound, tau, dominant mode, core-repair amplitudes), or its error.

    The cored dual witness, the rows as one stack, repaired on the core
    sphere (:func:`_repair`)."""
    def values(idx, states):
        C0, C_psi, stack, waves = _dual_constants(rows, idx, states)
        # core repair: -delta L v = L_A psi = (c-1) traction(psi) on the core sphere, v = tau v_tilde / delta
        media = [rows[i][0] for i in idx]
        cores = [med.core_radius for med in media]
        v_tilde = _repair(media, [s[0][0] for s in states], stack, waves[:, 0], cores, -1.0)
        P_vt = profile_pairings(stack, [(0.0, a, math.inf) for a in cores], v_tilde).tolist()
        out = []
        for i, s, c0, cp, p, v in zip(idx, states, C0, C_psi, P_vt, v_tilde):
            # J(tau) = C0 tau - (delta C_psi + P_vt / (2 delta)) tau^2
            delta = rows[i][2]
            denom = delta * cp + 0.5 * p / delta
            out.append((c0**2 / (4.0 * denom), c0 / (2.0 * denom), s[0], v))
        return out
    return _column(len(rows), lambda i: _core_check(*rows[i][:2]), values, key=_dual_key)


def _radial_check(medium: LayeredMedium, source: SourceSpec, delta: float) -> tuple[list, list[int]]:
    """The row's scheduled modes [(n, k, gamma)], in coefficient order, and its off-schedule degrees."""
    if medium.core_radius is None:
        raise ValueError("radial witness requires a core")
    if delta <= 0:
        raise ValueError("delta must be positive")
    if source.q <= medium.shell_radius**1.5:
        raise ValueError("hypothesis violated: q must exceed R^{3/2}")
    _require_family1(source, "radial witness")
    scheduled, off = [], set()
    for (n, _, k), gamma in sorted(source.coefficients.items()):
        if gamma == 0:
            continue
        if math.isclose(medium.c, plasmon_constants(medium.base, n).zeta1, rel_tol=1e-10):
            _check_source_mode(n, 1, k)
            scheduled.append((n, k, gamma))
        else:
            off.add(n)
    return scheduled, sorted(off)


def _radial_modes(rows, modes: list) -> tuple:
    """v and w amplitudes and their pairings P_v, P_w of (row, n, k, gamma) scheduled modes, as one stack.

    v is the free incident wave (the source's layer on q), w carries the
    interface defects: a repair on the core sphere and one on the shell
    (the family-1 single layers of the defects of v's traction times c - 1)."""
    media = [rows[i][0] for i, *_ in modes]
    q = [rows[i][1].q for i, *_ in modes]
    degrees = [n for _, n, _, _ in modes]
    stack = _profile_stack([_radial_profile(med.base, n, 1) for med, n in zip(media, degrees)])
    v = _single_layers([(med.base, n, 1, rho, gamma) for med, (_, n, _, gamma), rho in zip(media, modes, q)])
    cores, shells = [med.core_radius for med in media], [med.shell_radius for med in media]
    ra, rR = _repair(media, degrees, stack, v[:, 0], cores, 1.0), _repair(media, degrees, stack, v[:, 0], shells, -1.0)
    w = np.stack((ra[:, 0] + rR[:, 0], ra[:, 1] + rR[:, 0], ra[:, 1] + rR[:, 1]), axis=1)  # on (0, a, R, inf)
    P_v = profile_pairings(stack, [(0.0, q_i, math.inf) for q_i in q], v).tolist()
    P_w = profile_pairings(stack, [(0.0, med.core_radius, med.shell_radius, math.inf) for med in media], w).tolist()
    return v, w, P_v, P_w


def _radial_bound(rows, loss_free: list) -> list:
    """Per (medium, source, delta) row: (I(v, w) of the radial primal witness by flux, scheduled, off), or its error.

    ``scheduled`` holds (n, k, v amplitudes, w amplitudes) per scheduled
    mode, v on the radii (0, q, inf) and w on (0, core, shell, inf) (the
    form :func:`~elastoplasmon.fields._profile_fields` reads), ``off``
    the row's loss-free solutions of the off-schedule degrees.  Scheduled
    modes, distinct members and distinct degrees are orthogonal, so their
    energies add; the two repairs of one mode share its member.  The
    scheduled modes of the rows are one stack.
    """
    def values(idx, states):
        modes = [(i, n, k, gamma) for i, (scheduled, _) in zip(idx, states) for n, k, gamma in scheduled]
        v, w, P_v, P_w = _radial_modes(rows, modes) if modes else ([], [], [], [])
        off = [[dict(zip(rows[i][1].degrees(), loss_free[i]))[n] for n in ns] for i, (_, ns) in zip(idx, states)]
        out = []
        at = 0
        for i, (scheduled, _), sols, p_off in zip(idx, states, off, solution_pairings(off)):
            delta, P_vi, P_wi, mine = rows[i][2], 0.0, 0.0, []
            for j in range(at, at + len(scheduled)):
                P_vi += P_v[j]
                P_wi += P_w[j]
                mine.append((modes[j][1], modes[j][2], v[j], w[j]))
            at += len(scheduled)
            out.append(p_off if isinstance(p_off, Exception) else
                       (0.5 * delta * (P_vi + p_off) + 0.5 / delta * P_wi, mine, sols))
        return out
    return _column(len(rows), lambda i: _radial_check(*rows[i]), values)


class Witness(NamedTuple):
    """One row of :data:`WITNESSES`; ``core(rows, loss_free)`` returns per (medium, source, delta) row its scalars
    or its error.

    The scalars start with the bound; ``loss_free`` holds per row its
    loss-free solves (:func:`_row_solves`), read by the primal cores.
    """

    name: str  # the public builder, in elastoplasmon.fields
    bound: str  # "I_upper" (primal) or "J_lower" (dual)
    cored: bool  # for cored media only, else for core-free media only
    core: Callable[[list, list], list]
    labels: tuple[str, ...]  # the leading scalars of the core, as the witness command prints them

    def applies(self, medium: LayeredMedium) -> bool:
        return self.cored == (medium.core_radius is not None)


# every witness, in the order the witness command prints them
WITNESSES = (
    Witness("witness_nocore", "J_lower", False, _nocore_bound, ("J_lower", "tau")),
    Witness("witness_fixed_c", "I_upper", True, _fixed_c_bound, ("I_upper",)),
    Witness("witness_core_resonant", "J_lower", True, _core_bound, ("J_lower", "tau")),
    Witness("witness_radial_nonresonant", "I_upper", True, _radial_bound, ("I_upper_scheduled",)),
)


def witness_scalars(medium: LayeredMedium, source: SourceSpec, delta: float):
    """Yield (witness, its core's scalars or ``ValueError`` or ``ArithmeticError``) per witness of :data:`WITNESSES`
    that applies to the medium, on the row (medium, source, delta), whose loss-free solves are one column; another
    error is raised."""
    rows = [(medium, source, delta)]
    _, loss_free = _row_solves(rows, lossy=False)
    for w in WITNESSES:
        if w.applies(medium):
            got = w.core(rows, loss_free)[0]
            yield w, got if isinstance(got, (ValueError, ArithmeticError)) else _ok(got)


# ---------------------------------------------------------------------------
# sweeps
# ---------------------------------------------------------------------------

class fixed_configuration(NamedTuple):
    """delta -> (medium, source) factory with a fixed multiplier."""

    params: LameParams
    shell_radius: float
    c: float
    source: SourceSpec
    core_radius: float | None = None

    def __call__(self, delta: float) -> tuple[LayeredMedium, SourceSpec]:
        return LayeredMedium(shell_radius=self.shell_radius, c=self.c, delta=delta, base=self.params,
                             core_radius=self.core_radius), self.source


class scheduled_configuration(NamedTuple):
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
    """Least-squares slope of log E on log(1/delta), in closed form: sum dx dy / sum dx^2 about the means."""
    x, y = [math.log(1.0 / d) for d in deltas], [math.log(v) for v in values]
    x_mean = math.fsum(x) / len(x)
    y_mean = y[0] + math.fsum(y + [-y[0]] * len(y)) / len(y)  # taken about y[0], so a constant y is its own mean
    dx = [a - x_mean for a in x]
    return math.fsum(a * (b - y_mean) for a, b in zip(dx, y)) / math.fsum(a * a for a in dx)


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
    witness, bound, exception type and message).  The work is done by
    columns: one solve of the lossy rows and the loss-free ones
    (:func:`_row_solves`), which the primal witnesses read; one
    flux for the dissipations (:func:`~elastoplasmon.energy.dissipations`);
    and each witness core once, on the rows it applies to.  ``solves`` holds
    per row the largest condition and backward error of its lossy and of its
    loss-free systems.  A row's error is raised when the rows before it are done.
    """
    if min(deltas) <= 0:
        raise ValueError("delta = 0 is rejected: the exact solve may be singular")
    media = [(*configuration(d), d) for d in deltas]  # the (medium, source, delta) rows
    degrees = [src.degrees() for _, src, _ in media]

    def tried(w, i) -> bool:
        # unlike the witness command, a sweep tries the radial witness only on
        # its schedule outside R^{3/2}: zeta1 at the deepest degree, q > R^{3/2}
        med, src, _ = media[i]
        return w.applies(med) and (w.name != "witness_radial_nonresonant" or (
            src.q > med.shell_radius**1.5
            and math.isclose(med.c, plasmon_constants(med.base, max(degrees[i])).zeta1, rel_tol=1e-10)))

    lossy, loss_free = _row_solves(media, lossy=True)
    E = dissipations(lossy, [med for med, _, _ in media])
    found = {}
    for w in WITNESSES:
        idx = [i for i in range(len(media)) if tried(w, i)]
        found[w.name] = dict(zip(idx, w.core([media[i] for i in idx], [loss_free[i] for i in idx])))
    rows, refusals, solves = [], [], []
    for i, ((med, src, d), outcomes, lf) in enumerate(zip(media, lossy, loss_free)):
        E_delta = _ok(E[i])  # a row's error is raised when the rows before it are done
        n_delta = max(degrees[i])
        bounds: dict[str, list[float]] = {"I_upper": [], "J_lower": []}
        for w in WITNESSES:
            got = found[w.name].get(i)
            if isinstance(got, (ValueError, ArithmeticError)):
                refusals.append({"row": i, "delta": d, "n_delta": n_delta, "witness": w.name, "bound": w.bound,
                                 "error": type(got).__name__, "message": str(got)})
            elif got is not None:
                bounds[w.bound].append(_ok(got)[0])
        rows.append(EnergyReport(delta=d, E_delta=E_delta, c_used=med.c, I_upper=min(bounds["I_upper"], default=None),
                                 J_lower=max(bounds["J_lower"], default=None), n_delta=n_delta))
        (lossy_cond, lossy_berr), (free_cond, free_berr) = _worst(outcomes), _worst(lf)
        solves.append({"row": i, "lossy_condition": lossy_cond, "lossy_backward_error": lossy_berr,
                       "loss_free_condition": free_cond, "loss_free_backward_error": free_berr})
    return rows, refusals, solves


def sweep(configuration: Callable[[float], tuple[LayeredMedium, SourceSpec]],
          delta_list: Sequence[float]) -> SweepResult:
    """Exact solves over a decreasing loss list, with witness bounds (:func:`_sweep_rows`).

    Each row records the dissipation and whichever bounds apply to the
    configuration; the verdict follows the growth conventions in the module
    docstring.  A row is sector-scalar algebra: it builds no field and reads
    no ladder degree.  A dissipation that is not positive and finite (a
    vanishing source, an energy that underflows) is ``ArithmeticError``, as
    are bounds that break J_lower <= E_delta <= I_upper by more than 1e-9
    relative (``EnergyReport.sandwich_ok``): the first such row, before the fit.
    """
    deltas = list(delta_list)
    if len(deltas) < 3 or any(b >= a for a, b in zip(deltas[:-1], deltas[1:])):
        raise ValueError("delta_list must be strictly decreasing with >= 3 entries")
    if deltas[0] / deltas[-1] < 0.99e3:
        raise ValueError("sweep must span at least three decades")
    rows, refusals, solves = _sweep_rows(configuration, deltas)
    for r in rows:
        if not 0.0 < r.E_delta < math.inf:
            raise ArithmeticError(f"E_delta = {r.E_delta!r} at delta = {r.delta!r} is not positive and finite: no fit")
        if broken := r.sandwich_break():
            raise ArithmeticError(f"{broken} E_delta = {r.E_delta!r} at delta = {r.delta!r}: the variational "
                                  "sandwich J_lower <= E_delta <= I_upper breaks")
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


__getattr__ = _served_from_fields(globals(), "witness_fixed_c witness_nocore witness_core_resonant "
                                             "witness_radial_nonresonant")
