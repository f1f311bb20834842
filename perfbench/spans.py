"""Spans around the calls the benchmark makes into elastoplasmon's modules.

:func:`install` replaces selected public functions, in every package module
that holds a reference to them, with wrappers that record a span (name,
group, start, end, parent, request) and observe results such as
``ModeSolution.window``.  Spans stay in memory; :func:`layer_metrics` turns
them into the per-layer metrics.  Tracing inside the package is not done
here: only the module boundaries the benchmark reaches are wrapped, and hot
inner helpers (``eval_terms``, ``sph_harm_stack``) are left alone so the
tracing overhead stays small.

Importing this module imports neither numpy nor elastoplasmon.
"""

from __future__ import annotations

import functools
import importlib
import math
import sys
import time
from dataclasses import dataclass, field

LAYERS = ("harmonics", "lame", "waves", "transmission", "energy", "scenarios", "cli")

# (defining module, function name, span group).  The group's first part is
# the layer the time is charged to; kernel_basis is charged to waves, where
# the kernels come from, as the benchmark's metric names expect.
TARGETS = (
    ("harmonics", "shared_tables", "harmonics.tables"),
    ("harmonics", "build_quadrature", "harmonics.quadrature"),
    ("harmonics", "shared_quadrature", "harmonics.quadrature"),
    ("lame", "lame_residual", "lame.residual"),
    ("lame", "traction_coeffs_algebraic", "lame.traction"),
    ("lame", "traction_coeffs", "lame.traction"),
    ("transmission", "kernel_basis", "waves.kernel"),
    ("waves", "assemble_H", "waves.kernel"),
    ("waves", "plasmon_kernel", "waves.kernel"),
    ("waves", "perfect_wave", "waves.wave"),
    ("waves", "verify_perfect_wave", "waves.verify"),
    ("waves", "np_galerkin_spectrum", "waves.np_spectrum"),
    ("transmission", "solve_mode", "transmission.solve"),
    ("transmission", "residual_check", "transmission.residual_check"),
    ("energy", "dissipation_E", "energy.dissipation"),
    ("energy", "functional_I", "energy.functional"),
    ("energy", "functional_J", "energy.functional"),
    ("scenarios", "sweep", "scenarios.sweep"),
    ("scenarios", "witness_fixed_c", "scenarios.witness"),
    ("scenarios", "witness_nocore", "scenarios.witness"),
    ("scenarios", "witness_core_resonant", "scenarios.witness"),
    ("scenarios", "witness_radial_nonresonant", "scenarios.witness"),
    ("cli", "main", "cli.command"),
    ("cli", "emit_report", "cli.report"),
)

GATE = 0.5  # the sweep verdict's slope threshold

@dataclass
class Span:
    id: int
    parent: int | None
    request: int  # index of the command (or check) that caused the span
    name: str
    group: str
    start: float
    end: float = math.nan
    error: str | None = None
    info: dict | None = None  # what the call returned that a metric needs


@dataclass
class Tracer:
    """In-memory span recorder for one single-threaded process."""

    spans: list[Span] = field(default_factory=list)
    request: int = 0
    _stack: list[Span] = field(default_factory=list)

    def add(self, name: str, group: str, start: float, end: float) -> None:
        parent = self._stack[-1].id if self._stack else None
        self.spans.append(Span(len(self.spans), parent, self.request, name, group, start, end))

    def wrap(self, fn, name: str, group: str):
        observe = _OBSERVERS.get(group)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = self._stack[-1].id if self._stack else None
            span = Span(len(self.spans), parent, self.request, name, group, time.perf_counter())
            self.spans.append(span)
            self._stack.append(span)
            try:
                out = fn(*args, **kwargs)
            except BaseException as exc:
                span.error = type(exc).__name__
                raise
            finally:
                span.end = time.perf_counter()
                self._stack.pop()
            if observe is not None:
                span.info = observe(args, out)
            return out

        return traced


def _obs_tables(args, out) -> dict:
    return {"n_max": out.n_max}


def _obs_solve(args, out) -> dict:
    return {"window": len(out.window), "condition": out.condition, "lstsq_residual": out.lstsq_residual}


def _obs_sweep(args, out) -> dict:
    conf = args[0]
    predicted = None
    if hasattr(conf, "q") and hasattr(conf, "family"):  # scheduled_configuration
        predicted = 3.0 - 2.0 * math.log(conf.q) / math.log(conf.shell_radius)
    rows = [(r.E_delta, r.I_upper, r.J_lower) for r in out.rows]
    return {"slope": out.growth_exponent, "predicted": predicted, "rows": rows}


_OBSERVERS = {
    "harmonics.tables": _obs_tables,
    "transmission.solve": _obs_solve,
    "scenarios.sweep": _obs_sweep,
}


def install(tracer: Tracer) -> int:
    """Wrap every target in every loaded ``elastoplasmon`` module; returns the count.

    A function imported under its own name into another module (``from
    .transmission import solve_modes``) is found by identity and replaced
    there too; imports done inside function bodies read the patched module
    attribute at call time.
    """
    modules = [m for n, m in sys.modules.items() if n == "elastoplasmon" or n.startswith("elastoplasmon.")]
    replaced = 0
    for mod_name, fn_name, group in TARGETS:
        home = importlib.import_module(f"elastoplasmon.{mod_name}")
        original = getattr(home, fn_name)
        wrapper = tracer.wrap(original, f"{mod_name}.{fn_name}", group)
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, attr, wrapper)
                    replaced += 1
    return replaced


def _top_level(spans: list[Span], group: str) -> list[Span]:
    """Spans of ``group`` with no ancestor in the same group (no double count)."""
    by_id = {s.id: s for s in spans}
    out = []
    for s in spans:
        if s.group != group:
            continue
        p = s.parent
        while p is not None and by_id[p].group != group:
            p = by_id[p].parent
        if p is None:
            out.append(s)
    return out


def _busy(spans: list[Span], group: str) -> tuple[float, int]:
    top = _top_level(spans, group)
    return sum(s.end - s.start for s in top), len(top)


def self_times(spans: list[Span]) -> dict[str, float]:
    """Per-layer self time: span duration minus the time its child spans cover."""
    child = {s.id: 0.0 for s in spans}
    for s in spans:
        if s.parent is not None:
            child[s.parent] += s.end - s.start
    out = {layer: 0.0 for layer in LAYERS}
    for s in spans:
        out[s.group.split(".")[0]] += (s.end - s.start) - child[s.id]
    return out


def layer_metrics(spans: list[Span], n_commands: int) -> dict[str, float]:
    """Per-layer metrics of the workload's commands (requests below ``n_commands``).

    ``transmission.residual_check_s`` alone comes from the later requests,
    the untimed ``solve`` checks.  A metric reads 0 where the workload does
    not reach its layer; the gate margins come from the sweep whose fitted
    slope lies nearest the 0.5 gate, and the predicted margin is that of the
    rate ``3 - 2 ln q / ln R``, 0 unless that sweep is scheduled.
    """
    checks = [s for s in spans if s.request >= n_commands]
    spans = [s for s in spans if s.request < n_commands]

    def infos(group):
        return [s.info for s in spans if s.group == group and s.info is not None]

    m: dict[str, float] = {}
    m["harmonics.tables_s"], _ = _busy(spans, "harmonics.tables")
    m["harmonics.tables_n_max"] = max((i["n_max"] for i in infos("harmonics.tables")), default=0)
    m["waves.kernel_s"], m["waves.kernel_calls"] = _busy(spans, "waves.kernel")
    m["waves.verify_s"], m["waves.verify_calls"] = _busy(spans, "waves.verify")
    m["waves.np_spectrum_s"], _ = _busy(spans, "waves.np_spectrum")
    m["transmission.solve_s"], m["transmission.solve_calls"] = _busy(spans, "transmission.solve")
    solves = infos("transmission.solve")
    m["transmission.window_yield"] = sum(i["window"] == 1 for i in solves) / len(solves) if solves else 0.0
    m["transmission.max_condition"] = max((i["condition"] for i in solves), default=0.0)
    m["transmission.max_lstsq_residual"] = max((i["lstsq_residual"] for i in solves), default=0.0)
    m["transmission.residual_check_s"], _ = _busy(checks, "transmission.residual_check")
    m["energy.dissipation_s"], m["energy.dissipation_calls"] = _busy(spans, "energy.dissipation")
    witnesses = _top_level(spans, "scenarios.witness")
    m["scenarios.witness_s"] = sum(s.end - s.start for s in witnesses)
    m["scenarios.witness_calls"] = len(witnesses)
    returned = sum(s.error is None for s in witnesses)
    m["scenarios.witness_yield"] = returned / len(witnesses) if witnesses else 0.0
    sweeps = infos("scenarios.sweep")
    margins = []
    for sw in sweeps:
        for E, I, J in sw["rows"]:
            if I is not None:
                margins.append((I - E) / E)
            if J is not None:
                margins.append((E - J) / E)
    m["scenarios.sandwich_margin_min"] = min(margins, default=0.0)
    nearest = min(sweeps, key=lambda sw: abs(sw["slope"] - GATE), default=None)
    m["scenarios.gate_margin"] = nearest["slope"] - GATE if nearest else 0.0
    predicted = nearest["predicted"] if nearest else None
    m["scenarios.predicted_margin"] = predicted - GATE if predicted is not None else 0.0
    m["cli.import_s"], _ = _busy(spans, "cli.import")
    m["cli.report_s"], _ = _busy(spans, "cli.report")
    for layer, t in self_times(spans).items():
        m[f"{layer}.self_s"] = t
    return m
