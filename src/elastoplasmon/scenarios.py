"""Constructive witnesses, the loss schedule, and resonance sweeps.

Witness fields certify the dissipation from both sides: a primal pair
(v, w) with  L_A v - L w = f  gives an upper bound I(v, w), a dual pair
(v, psi) with  L_A psi + delta L v = 0  gives a lower bound J(v, psi).  Both
dual witnesses are one core (:func:`_dual_bound`): psi is the perfect wave
of the dominant source mode, v = 0 in a core-free medium and in a cored one
the single layer that repairs psi's traction defect at the core.  The
radial primal witness is single layers too: its incident wave is the
source's layer on q, and w the repair layers on the core and the shell.
The fixed-multiplier primal witness is the loss-free field (L_A v = f),
the transmission solve at delta = 0; where that system is singular
(condition above 1e9) a sweep row leaves ``I_upper`` blank unless another
primal witness applies.

Every witness bound is a few scalar operations per row.  The energies of
perfect waves and single layers are unit data kept per (lambda, mu, n,
family) key with the wave and the unit layer of
:mod:`~elastoplasmon.transmission`: the wave's energy on the unit shell
sphere and its traces, the layer's trace on its own shape.  Summed over
the spheres of a sum of single layers, the flux gives P = -sum rho^2 Re
<U(rho), sigma> (:func:`_layer_energy`).  Only the loss-free field is
paired by flux (:mod:`~elastoplasmon.energy`), in one column with a
sweep's dissipations.  :data:`WITNESSES` lists each witness once; a sweep
and the ``witness`` command read it and build no field
(:mod:`~elastoplasmon.fields` builds them from the cores' densities).  A
core takes one (medium, source, loss) row and returns its scalars or
raises its refusal; the primal cores read the row's loss-free solves and
their pairing (:func:`_row_solves`).  One pass runs the cores, after one
read of the unit layers they need (:func:`_witness_pass`).  A sweep solves
its lossy rows in the loss-free rows' column, tries each witness on the
rows it applies to (the radial witness only on its schedule outside
R^{3/2}, radii in units of the core radius), and records each refusal and
each row's largest conditions and backward errors in ``SweepResult.meta``
(:func:`_sweep_rows`).

Verdicts are artifact conventions: ``resonant`` needs monotone growth of the
dissipation with fitted log-log slope above 0.5, ``non-resonant`` needs the
final two decades to stay within a factor 10.
"""

from __future__ import annotations

import contextlib
import math
from typing import Callable, NamedTuple, Sequence

from .lame import LameParams, _served_from_fields, plasmon_constants
from .energy import EnergyReport, column_energies, solution_pairings
from .transmission import (LayeredMedium, ModeSolution, ResonantSingularityError, SourceSpec, _global_amplitude,
                           _kept, _ok, _outside_the_shell, _solve_column, _unit_layers, _wave_amplitudes)

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


def _row_solves(rows, lossy: bool) -> tuple[list, list, list]:
    """Per (medium, source, delta) row: the outcomes of its lossy solves and their dissipation (none unless
    ``lossy``), and its loss-free solves, {degree: outcome}, with their pairing Re P(v, v) or its error.

    A row has loss-free solves, one per degree of its source, where the
    fixed-multiplier witness's checks pass, the rows the primal witnesses
    read.  The solves are one column, and so are the energies
    (:func:`~elastoplasmon.energy.column_energies`)."""
    items = [[(med, src, n) for n in src.degrees()] if lossy else [] for med, src, _ in rows]
    for med, src, delta in rows:
        try:
            _fixed_c_checks(med, src, delta)
        except ValueError:
            items.append([])
            continue
        items.append([(med._replace(delta=0.0), src, n) for n in src.degrees()])
    flat = iter(_solve_column([item for row in items for item in row]) if any(items) else ())
    got = [[next(flat) for _ in row] for row in items]
    E, pairings = column_energies(got[:len(rows)] if lossy else [], [med for med, _, _ in rows] if lossy else [],
                                  got[len(rows):])
    free = [({n: sol for (_, _, n), sol in zip(row, sols)}, p) for row, sols, p in zip(items[len(rows):],
                                                                                       got[len(rows):], pairings)]
    return got[:len(rows)], E, free


def _fixed_c_bound(row, loss_free: tuple) -> tuple:
    """(I(v, 0), loss-free solutions) of a (medium, source, delta) row.

    I(v, 0) is that of the loss-free field at the row's loss: half the loss
    times the pairing of the row's ``loss_free`` solves (:func:`_row_solves`)."""
    _fixed_c_checks(*row)
    sols, p = loss_free
    return 0.5 * row[2] * _ok(p), list(sols.values())


def _at_constant(c: float, params: LameParams, n: int, fam: int) -> bool:
    """Whether the multiplier c is the family's degree-n plasmon constant, to 1e-10 relative: the witnesses' match."""
    return math.isclose(c, plasmon_constants(params, n).as_tuple()[fam - 1], rel_tol=1e-10)


def _dual_mode(medium: LayeredMedium, source: SourceSpec) -> tuple:
    """((n0, family, k), g, wave, cored) of the dominant source mode.

    Needs the source outside the shell, a family-1 mode in a cored medium,
    medium.c equal to the mode family's plasmon constant at its degree n0
    and a nonzero source.  g is the real branch coefficient (the real or
    imaginary part of the mode's coefficient, the larger), the wave the
    perfect wave of member k with its unit data
    (:func:`~elastoplasmon.transmission._wave_amplitudes`, which checks the
    sector) and cored whether the medium has a core."""
    _outside_the_shell(medium.shell_radius, source.q)  # the solve's rule and message
    params, cored = medium.base, medium.core_radius is not None
    (n0, fam, k), gamma = max(source.coefficients.items(), key=lambda kv: abs(kv[1]))
    if cored and fam != 1:
        raise ValueError("core witness implemented for the family-1 schedule")
    if not _at_constant(medium.c, params, n0, fam):
        raise ValueError(f"multiplier {medium.c} does not match the family-{fam} constant "
                         f"{plasmon_constants(params, n0).as_tuple()[fam - 1]} at degree {n0}")
    g = gamma.real if abs(gamma.real) >= abs(gamma.imag) else gamma.imag
    if g == 0:
        raise ValueError("dominant source coefficient vanishes on both branches")
    return (n0, fam, k), g, _wave_amplitudes(params, n0, fam), cored


def _layer_energy(unit: float, n: int, layers) -> float:
    """Re P(w, w) of w the sum of degree-n family-1 single layers (sphere rho, density sigma), radii increasing.

    Summed over the spheres, the flux gives P = -sum rho^2 Re <U(rho),
    sigma>: layer j's displacement is ``unit`` rho_j sigma_j on its own
    sphere (the unit layer's trace, :func:`~elastoplasmon.transmission._unit_layers`),
    times (r / rho_j)^n inside it and (rho_j / r)^(n+1) outside."""
    total = 0.0
    for i, (r, s) in enumerate(layers):
        total += r * r * r * (s.real * s.real + s.imag * s.imag)
        for r2, s2 in layers[i + 1:]:
            total += 2.0 * r * r * r2 * (r / r2) ** n * (s.real * s2.real + s.imag * s2.imag)
    return -unit * total


def _dual_bound(row, loss_free) -> tuple:
    """(J lower bound, tau, dominant mode, core-repair density or None) of the dual witness on a (medium, source,
    delta) row; it reads no loss-free solve.

    With psi_hat the wave of value 1 on the shell sphere R (:func:`_dual_mode`),
    C0 = g q^2 U_n0(q) and C_psi = R / 2 times the wave's unit energy.  A
    cored row's v is tau / delta times the core sphere's layer of density
    -(c - 1) T / a, T the wave's rho-times-traction there.  J(tau) = C0 tau -
    d tau^2, d = delta C_psi + P(v_tilde) / (2 delta), peaks at tau = C0 /
    (2 d) with J = C0 tau / 2; a J or tau out of the float range is
    ``OverflowError``.  ``witness`` prints R^(-n0) tau, the multiplier of the
    wave of entire degree-n0 amplitude 1 at the origin's scale."""
    med, src, delta = row
    mode, g, wave, cored = _dual_mode(med, src)
    R, q = med.shell_radius, src.q
    C0 = g * q**2 * sum(s * (q / R) ** p for s, p in wave.outside)
    d, sigma = delta * (0.5 * R * wave.energy), None
    if cored:
        a = med.core_radius
        sigma = -(med.c - 1.0) / a * sum(s * (a / R) ** p for s, p in wave.inside)
        unit = _ok(_unit_layers([(med.base, mode[0], 1)])[0])
        d += 0.5 * _layer_energy(float(unit.traces[0, 0, 0]), mode[0], [(a, sigma)]) / delta
    tau = C0 / (2.0 * d)
    J = 0.5 * C0 * tau
    if not (math.isfinite(J) and math.isfinite(tau)):
        raise OverflowError(f"dual bound J = {J!r} with tau = {tau!r} is out of the float range")
    return J, tau, mode, sigma


def _outside_critical_radius(medium: LayeredMedium, source: SourceSpec) -> bool:
    """q > R^{3/2} in units of the core radius a: q / a > (R / a)^{3/2}, a statement about ratios alone."""
    return source.q / medium.core_radius > (medium.shell_radius / medium.core_radius) ** 1.5


def _radial_check(medium: LayeredMedium, source: SourceSpec, delta: float) -> tuple[list, list[int]]:
    """The row's scheduled modes [(n, k, gamma)], in coefficient order, and its off-schedule degrees."""
    if medium.core_radius is None:
        raise ValueError("radial witness requires a core")
    if delta <= 0:
        raise ValueError("delta must be positive")
    if not _outside_critical_radius(medium, source):
        raise ValueError("hypothesis violated: q must exceed R^{3/2}, radii in units of the core radius")
    _require_family1(source, "radial witness")
    scheduled, off = [], set()
    for (n, _, k), gamma in sorted(source.coefficients.items()):
        if gamma == 0:
            continue
        if _at_constant(medium.c, medium.base, n, 1):
            scheduled.append((n, k, gamma))
        else:
            off.add(n)
    return scheduled, sorted(off)


def _radial_bound(row, loss_free: tuple) -> tuple:
    """(I(v, w) of the radial primal witness, scheduled, off) on a (medium, source, delta) row.

    Per scheduled mode (n, k, gamma) v is the source's layer on q and w the
    layers on the core a and the shell R of the defects of v's traction
    times c - 1, so P_v and P_w are :func:`_layer_energy` of the densities;
    ``scheduled`` holds (n, k, gamma, sigma_a, sigma_R) per mode.  ``off``
    holds the row's loss-free solutions of its off-schedule degrees, read
    by degree from ``loss_free`` and paired by flux.  Scheduled modes,
    distinct members and distinct degrees are orthogonal, so their energies
    add."""
    scheduled, off = _radial_check(*row)
    med, src, delta = row
    a, R, q = med.core_radius, med.shell_radius, src.q
    units = _unit_layers([(med.base, n, 1) for n, _, _ in scheduled])
    sols = [loss_free[0][n] for n in off]
    P_v = P_w = 0.0
    mine = []
    for (n, k, gamma), unit in zip(scheduled, units):
        unit = float(_ok(unit).traces[0, 0, 0])  # its displacement inside, on degree n
        T = q * gamma * unit * sum(s for s, _ in _wave_amplitudes(med.base, n, 1).inside)  # rho t of v on q
        s_a, s_R = (med.c - 1.0) / a * (T * (a / q) ** n), -(med.c - 1.0) / R * (T * (R / q) ** n)
        P_v += _layer_energy(unit, n, [(q, gamma)])
        P_w += _layer_energy(unit, n, [(a, s_a), (R, s_R)])
        mine.append((n, k, gamma, s_a, s_R))
    p_off = _ok(solution_pairings([sols])[0]) if sols else 0.0
    return 0.5 * delta * (P_v + p_off) + 0.5 / delta * P_w, mine, sols


class Witness(NamedTuple):
    """One row of :data:`WITNESSES`; ``core(row, loss_free)`` returns the scalars of one (medium, source, delta) row
    or raises its refusal, a ``ValueError`` or an ``ArithmeticError``.

    The scalars start with the bound; ``loss_free`` holds the row's
    loss-free solves by degree and their pairing (:func:`_row_solves`),
    read by the primal cores.
    """

    name: str  # the public builder, in elastoplasmon.fields
    bound: str  # "I_upper" (primal) or "J_lower" (dual)
    cored: bool  # for cored media only, else for core-free media only
    core: Callable[[tuple, tuple], tuple]
    labels: tuple[str, ...]  # the leading scalars of the core, as the witness command prints them

    def applies(self, medium: LayeredMedium) -> bool:
        return self.cored == (medium.core_radius is not None)


# every witness, in the order the witness command prints them
WITNESSES = (
    Witness("witness_nocore", "J_lower", False, _dual_bound, ("J_lower", "tau")),
    Witness("witness_fixed_c", "I_upper", True, _fixed_c_bound, ("I_upper",)),
    Witness("witness_core_resonant", "J_lower", True, _dual_bound, ("J_lower", "tau")),
    Witness("witness_radial_nonresonant", "I_upper", True, _radial_bound, ("I_upper_scheduled",)),
)


def _check_sandwich(r: EnergyReport) -> None:
    """``ArithmeticError`` naming the bound, E_delta and the loss where the row breaks its sandwich_break check."""
    if broken := r.sandwich_break():
        raise ArithmeticError(f"{broken} E_delta = {r.E_delta!r} at delta = {r.delta!r}: the variational "
                              "sandwich J_lower <= E_delta <= I_upper breaks")


def _witness_pass(rows, loss_free: list, tried) -> list:
    """Per (medium, source, delta) row, (witness, its core's scalars or its ``ValueError`` or ``ArithmeticError``)
    for each witness of :data:`WITNESSES` tried on it (``tried(w, i)``); any other error is raised.  The unit layers
    the cores read (cored rows, family-1 modes at a degree whose zeta1 is the multiplier) are read first, in one
    :func:`~elastoplasmon.transmission._unit_layers` call, so the missing ones are solved as one stack."""
    keys = []
    for med, src, _ in rows:
        with contextlib.suppress(ValueError, ArithmeticError):  # constants out of range: the cores refuse the row
            keys += [(med.base, n, 1) for n, fam, _ in src.coefficients
                     if fam == 1 and med.core_radius is not None and _at_constant(med.c, med.base, n, 1)]
    _unit_layers(keys)

    def outcome(w, i):
        try:
            return w.core(rows[i], loss_free[i])
        except (ValueError, ArithmeticError) as exc:
            return _kept(exc)
    return [[(w, outcome(w, i)) for w in WITNESSES if tried(w, i)] for i in range(len(rows))]


def witness_scalars(medium: LayeredMedium, source: SourceSpec, delta: float):
    """(witness, its core's scalars or ``ValueError`` or ``ArithmeticError``) per witness of :data:`WITNESSES` that
    applies to the medium, on the row (medium, source, delta), whose solves are one column; another error, a bound
    that breaks the sandwich with the row's dissipation (:func:`_check_sandwich`) or, beside a bound, the
    dissipation's error is raised."""
    rows = [(medium, source, delta)]
    _, E, loss_free = _row_solves(rows, lossy=True)
    found = []
    for w, got in _witness_pass(rows, loss_free, lambda w, _: w.applies(medium))[0]:
        if w.bound == "J_lower" and not isinstance(got, Exception):  # tau at the origin's scale
            try:
                got = (got[0], _global_amplitude(got[1], medium.shell_radius, got[2][0]), *got[2:])
            except ArithmeticError as exc:
                got = _kept(exc)
        if not isinstance(got, Exception):
            _check_sandwich(EnergyReport(delta, _ok(E[0]), medium.c, **{w.bound: got[0]}))
        found.append((w, got))
    return found


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
        # built first: it refuses a family outside 1..3 before the family indexes the constants
        source = SourceSpec(q=self.q, coefficients={(n, self.family, self.k): self.gamma})
        c = plasmon_constants(self.params, n).as_tuple()[self.family - 1]
        return LayeredMedium(shell_radius=self.shell_radius, c=c, delta=delta, base=self.params,
                             core_radius=self.core_radius), source


def _fit_slope(deltas: Sequence[float], values: Sequence[float]) -> float:
    """Least-squares slope of log(E / E_0) on log(1/delta), exactly rounded: (n sum xy - sum x sum y) / (n sum x^2 -
    (sum x)^2) of the float logs, each list taken exactly as integers times a power of two, so its one rounding is
    the quotient's.  E / E_0, and so the slope, is the same with every E scaled by a power of two."""
    logs = [[math.log(1.0 / d) for d in deltas], [math.log(v / values[0]) for v in values]]
    e = [max(v.as_integer_ratio()[1].bit_length() for v in vs) - 1 for vs in logs]
    x, y = ([int(math.ldexp(v, ei)) for v in vs] for vs, ei in zip(logs, e))
    n, sx = len(x), sum(x)
    return math.ldexp((n * sum(a * b for a, b in zip(x, y)) - sx * sum(y)) / (n * sum(a * a for a in x) - sx * sx),
                      e[0] - e[1])


def _worst(outcomes: list) -> tuple[float | None, float | None]:
    """(largest condition, largest backward error) of a row's solve outcomes; None where none has one.

    A system refused as singular keeps its condition but has no backward error.
    """
    conds = [o.condition for o in outcomes if isinstance(o, (ModeSolution, ResonantSingularityError))]
    berrs = [o.lstsq_residual for o in outcomes if isinstance(o, ModeSolution)]
    return max(conds, default=None), max(berrs, default=None)


def _sweep_rows(configuration, deltas: Sequence[float]) -> tuple[list[EnergyReport], list[dict], list[dict]]:
    """The rows of a sweep, each with the tighter bound of each side from the :data:`WITNESSES` of its medium.

    Returns (rows, refusals, solves).  A side no witness bounds is None.  A
    witness that applies but raises ``ValueError`` or ``ArithmeticError`` is
    a refusal (row, loss, degree, witness, bound, exception type and
    message).  The work is done by columns: one solve of the lossy and the
    loss-free rows and one flux for their energies (:func:`_row_solves`),
    and one pass of the cores (:func:`_witness_pass`, which raises a core's
    error other than a refusal at once).  ``solves`` holds per row the
    largest condition (of its region-local systems) and backward error of
    its lossy and of its loss-free systems.  A row's dissipation error is
    raised when the rows before it are done.
    """
    media = [(*configuration(d), d) for d in deltas]  # the (medium, source, delta) rows
    n_deltas = [max(src.degrees()) for _, src, _ in media]

    def tried(w, i) -> bool:
        # unlike the witness command, a sweep tries the radial witness only on
        # its schedule outside R^{3/2}: zeta1 at the deepest degree, q > R^{3/2}
        med, src, _ = media[i]
        return w.applies(med) and (w.name != "witness_radial_nonresonant" or (
            _outside_critical_radius(med, src)
            and _at_constant(med.c, med.base, n_deltas[i], 1)))

    lossy, E, loss_free = _row_solves(media, lossy=True)
    found = _witness_pass(media, loss_free, tried)
    rows, refusals, solves = [], [], []
    for i, ((med, src, d), outcomes, (lf, _)) in enumerate(zip(media, lossy, loss_free)):
        E_delta = _ok(E[i])  # a row's error is raised when the rows before it are done
        bounds: dict[str, list[float]] = {"I_upper": [], "J_lower": []}
        for w, got in found[i]:
            if isinstance(got, Exception):
                refusals.append({"row": i, "delta": d, "n_delta": n_deltas[i], "witness": w.name, "bound": w.bound,
                                 "error": type(got).__name__, "message": str(got)})
            else:
                bounds[w.bound].append(got[0])
        rows.append(EnergyReport(d, E_delta, med.c, min(bounds["I_upper"], default=None),
                                 max(bounds["J_lower"], default=None), n_deltas[i]))
        (lossy_cond, lossy_berr), (free_cond, free_berr) = _worst(outcomes), _worst(list(lf.values()))
        solves.append({"row": i, "lossy_condition": lossy_cond, "lossy_backward_error": lossy_berr,
                       "loss_free_condition": free_cond, "loss_free_backward_error": free_berr})
    return rows, refusals, solves


def sweep(configuration: Callable[[float], tuple[LayeredMedium, SourceSpec]],
          delta_list: Sequence[float]) -> SweepResult:
    """Exact solves over a decreasing loss list, with witness bounds (:func:`_sweep_rows`).

    Each row records the dissipation and whichever bounds apply; the verdict
    follows the growth conventions in the module docstring.  A dissipation
    that is not positive and finite (a vanishing source, an energy out of
    the float range) is ``ArithmeticError``, as are bounds that break
    J_lower <= E_delta <= I_upper by more than 1e-9 relative: the first such
    row, before the fit.  Losses that are not positive (checked first), not
    strictly decreasing, fewer than 3 or within three decades are ``ValueError``.
    """
    deltas = list(delta_list)
    if bad := [d for d in deltas if not d > 0]:
        raise ValueError(f"sweep losses must be positive, got delta = {bad[0]!r}")
    if len(deltas) < 3 or any(b >= a for a, b in zip(deltas[:-1], deltas[1:])):
        raise ValueError("delta_list must be strictly decreasing with >= 3 entries")
    if deltas[0] / deltas[-1] < 0.99e3:
        raise ValueError("sweep must span at least three decades")
    rows, refusals, solves = _sweep_rows(configuration, deltas)
    for r in rows:
        if not 0.0 < r.E_delta < math.inf:
            raise ArithmeticError(f"E_delta = {r.E_delta!r} at delta = {r.delta!r} is not positive and finite: no fit")
        _check_sandwich(r)
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
