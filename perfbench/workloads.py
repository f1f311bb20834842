"""Seeded workload definitions for the elastoplasmon benchmark.

A workload is a list of CLI commands plus the untimed ``solve`` checks that
go with its sweeps.  The seed only picks each sweep's source kernel index
``k`` and a unit phase for its coefficient ``gamma``; the dissipation is
rotation-invariant, so one seed-independent reference table
(``reference.json``) checks every seed.

This module never imports numpy or elastoplasmon: the benchmark's parent process stays
free of BLAS threads and of the program's caches.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass, field
from pathlib import Path

# Half-decade loss steps 1e-2 .. 1e-8 (13 rows, n_delta 7 .. 27 at R = 2).
SCHEDULE_DELTAS = [10.0 ** (-(4 + i) / 2) for i in range(13)]
# Decade loss steps 1e-2 .. 1e-5 (4 rows).
FIXED_DELTAS = [1e-2, 1e-3, 1e-4, 1e-5]

# Plasmon constants at lambda = mu = 1 (exact rationals of the closed forms).
ZETA3_AT_3 = -25.0 / 38.0
ZETA2_AT_4 = -130.0 / 59.0


@dataclass(frozen=True)
class SweepSpec:
    """One sweep configuration; ``k_max`` is the kernel multiplicity bound."""

    name: str
    base: dict
    family: int
    degree: int | None  # None for a scheduled run (degree follows the loss)
    k_max: int


@dataclass(frozen=True)
class WorkloadSpec:
    name: str  # why a benchmark workload was chosen is in BENCHMARK.json
    sweeps: tuple[SweepSpec, ...] = ()
    extra: tuple[tuple[str, ...], ...] = ()  # non-sweep CLI commands
    # degree passed to ensure_tables by the set-up step: the deepest degree the
    # workload asks its tables for, which ensure_tables quantizes to a ceiling
    table_degree: int = 12
    layers: dict = field(default_factory=dict)  # per-layer metric -> predicted move


def _cored_schedule(q: float) -> dict:
    return {
        "schema": 1, "lambda": 1.0, "mu": 1.0,
        "core_radius": 1.0, "shell_radius": 2.0, "q": q, "n_max": 12,
        "c_mode": {"schedule": 1}, "delta_list": SCHEDULE_DELTAS,
    }


WORKLOADS: dict[str, WorkloadSpec] = {
    spec.name: spec
    for spec in (
        WorkloadSpec(
            name="dichotomy_schedule",
            sweeps=(
                SweepSpec("sched_q2.3", _cored_schedule(2.3), family=1, degree=None, k_max=15),
                SweepSpec("sched_q3.6", _cored_schedule(3.6), family=1, degree=None, k_max=15),
            ),
            # deepest scheduled degree 27, plus the 6 that sweep() asks for
            table_degree=33,
            layers={
                "harmonics.tables_s": "setup_s and wall_s here, the largest span (tables to 40)",
                "harmonics.tables_n_max": "with peak_rss_mb, the table memory here (40)",
                "waves.kernel_s": "wall_s here; warm_s hides it behind the kernel cache",
                "waves.kernel_calls": "wall_s here",
                "transmission.solve_s": "about 0 here: the family-1 scalar solve",
                "transmission.window_yield": "1 here: the family-1 solve never widens",
                "transmission.residual_check_s": "the solve verification step (fails here at the seed)",
                "energy.dissipation_s": "warm_s here and on spheroidal_fixed",
                "energy.dissipation_calls": "warm_s here and on spheroidal_fixed",
                "scenarios.witness_s": "warm_s here",
                "scenarios.witness_calls": "warm_s here",
                "scenarios.witness_yield": "warm_s here; a witness that raises is wasted work",
                "scenarios.sandwich_margin_min": "accuracy sentinel, no time",
                "scenarios.gate_margin": "accuracy sentinel: q=2.3 sits 0.0074 above the 0.5 gate",
                "scenarios.predicted_margin": "0.097 at q=2.3 (predicted rate 0.597)",
                "cli.import_s": "setup_s",
                "cli.report_s": "wall_s; small today",
            },
        ),
        WorkloadSpec(
            name="spheroidal_fixed",
            sweeps=(
                SweepSpec("nocore_zeta3_3", {
                    "schema": 1, "lambda": 1.0, "mu": 1.0, "shell_radius": 2.0, "q": 2.6,
                    "n_max": 12, "c_mode": {"fixed": ZETA3_AT_3}, "delta_list": FIXED_DELTAS,
                }, family=3, degree=3, k_max=9),
                SweepSpec("cored_zeta2_4", {
                    "schema": 1, "lambda": 1.0, "mu": 1.0, "core_radius": 1.0,
                    "shell_radius": 2.0, "q": 3.0, "n_max": 12,
                    "c_mode": {"fixed": ZETA2_AT_4}, "delta_list": FIXED_DELTAS,
                }, family=2, degree=4, k_max=7),
            ),
            table_degree=12,
            layers={
                "harmonics.tables_s": "unchanged here (tables stay at 12)",
                "transmission.solve_s": "wall_s and warm_s here, the largest span",
                "transmission.solve_calls": "wall_s and warm_s here",
                "transmission.window_yield": "0 at the seed: every single-degree attempt is wasted",
                "transmission.max_condition": "accuracy sentinel, no time",
                "transmission.max_lstsq_residual": "accuracy sentinel, no time",
                "transmission.residual_check_s": "the solve verification step",
                "energy.dissipation_s": "warm_s here and on dichotomy_schedule",
                "energy.dissipation_calls": "warm_s here and on dichotomy_schedule",
                "scenarios.gate_margin": "accuracy sentinel: the resonant core-free sweep",
                "cli.import_s": "setup_s",
            },
        ),
        # Perfect-wave and Neumann-Poincare verification: point evaluation and
        # finite differences in lame/harmonics; bypasses transmission, energy and
        # scenarios.  Not in BENCHMARK.json: a run costs as much as one of
        # spheroidal_fixed, and three such workloads with two timed passes each
        # do not fit the run budget.  Run it by name; it is checked and traced
        # like the others.
        WorkloadSpec(
            name="wave_certify",
            extra=(
                ("waves-check", "--n", "3", "--R", "1.3"),
                ("np-spectrum", "--nmax", "5", "--csv", "{work}/np.csv"),
            ),
            # waves-check asks for n + 4 = 7
            table_degree=7,
            layers={
                "harmonics.tables_s": "unchanged here (tables stay at 12)",
                "waves.verify_s": "wall_s and warm_s here, the largest span",
                "waves.verify_calls": "wall_s and warm_s here (21 waves)",
                "waves.np_spectrum_s": "wall_s and warm_s here",
                "waves.kernel_s": "assemble_H + plasmon_kernel in waves-check",
                "lame.residual_probe_s": "wall_s and warm_s here; nothing on the sweeps",
                "cli.import_s": "setup_s",
            },
        ),
    )
}


@dataclass(frozen=True)
class Command:
    """One CLI invocation and where the checker finds its output."""

    argv: tuple[str, ...]
    kind: str  # "sweep", "waves", "np" or "solve"
    ref: str | None = None  # sweep name in the reference table
    csv: str | None = None  # output file the checker reads


@dataclass(frozen=True)
class Plan:
    workload: str
    seed: int
    configs: dict  # sweep name -> config written to disk
    commands: tuple[Command, ...]  # timed commands, in order
    checks: tuple[Command, ...]  # untimed solve checks


def _source(spec: SweepSpec, rng: random.Random) -> list:
    k = rng.randint(1, spec.k_max)
    phase = rng.uniform(0.0, 2.0 * math.pi)
    return [spec.degree, spec.family, k, math.cos(phase), math.sin(phase)]


def make_plan(name: str, seed: int, work: Path) -> Plan:
    """Write the workload's configs under ``work`` and return its commands.

    ``{work}`` in an argument is replaced by an output directory chosen per
    pass with :func:`commands_in`.
    """
    spec = WORKLOADS[name]
    rng = random.Random(f"{name}:{seed}")
    work.mkdir(parents=True, exist_ok=True)
    configs = {}
    commands: list[Command] = []
    checks: list[Command] = []
    for sw in spec.sweeps:
        cfg = dict(sw.base)
        cfg["source_modes"] = [_source(sw, rng)]
        configs[sw.name] = cfg
        path = work / f"{sw.name}.json"
        path.write_text(json.dumps(cfg, sort_keys=True) + "\n", encoding="utf-8")
        csv = f"{{work}}/{sw.name}.csv"
        commands.append(Command(("sweep", "--config", str(path), "--csv", csv), "sweep", ref=sw.name, csv=csv))
        deepest = repr(cfg["delta_list"][-1])
        checks.append(Command(("solve", "--config", str(path), "--delta", deepest), "solve", ref=sw.name))
    for argv in spec.extra:
        kind = "waves" if argv[0] == "waves-check" else "np"
        csv = next((a for a in argv if a.startswith("{work}")), None)
        commands.append(Command(tuple(argv), kind, csv=csv))
    return Plan(name, seed, configs, tuple(commands), tuple(checks))


def commands_in(commands, out_dir: Path) -> list[Command]:
    """The commands with ``{work}`` bound to ``out_dir`` (created here)."""
    out_dir.mkdir(parents=True, exist_ok=True)

    def bind(s):
        return s.replace("{work}", str(out_dir)) if s else s

    return [Command(tuple(bind(a) for a in c.argv), c.kind, c.ref, bind(c.csv)) for c in commands]
