"""Layer timings of elastoplasmon, written to ``BENCH_<label>.json``.

    python bench/layers.py [--label NAME] [--repeats N] [--out DIR]
    python bench/layers.py --against DIR [--against-label NAME] [--pairs N] [--label NAME] [--out DIR]

The ``src`` of this checkout is timed; this script imports nothing of it
and runs each measurement in fresh processes with one BLAS thread.  The
file (in ``--out``, default the repository root) holds the checkout's git
description (None outside a git checkout), ``nproc``,
the Python, numpy and BLAS versions, and two sets of medians in seconds:

* ``cold_s``: over ``--repeats`` fresh processes each, ``import
  elastoplasmon.cli`` and, through the CLI, each gated sweep (the four
  configurations of the benchmark's two gated workloads, each with one fixed
  source mode) and its ``solve`` check at the deepest loss;
* ``warm_s``: in one process, after one untimed call that fills the
  per-process caches, the median over ``--repeats`` batches of in-process
  calls of: the square sector solve of k systems of size m (k = 1, 13; m = 2,
  6, 8, 12: a family-1 unit single layer, a cored family-1, a core-free
  family-2 and a cored family-3 system, at degrees 7, 8, ...), ``solve_mode``
  per family, ``dissipation_E``, each ``scenarios.WITNESSES`` core and
  ``sweep`` per gated configuration.

``--against DIR`` times DIR (the parent) and this checkout (the change) in N
alternating pairs, each side first in every other pair, one record of
``--repeats`` repeats per side and pair.  It writes a record per side
(``--against-label`` and ``--label``) whose medians are over the pairs,
with every pair's values; the change's record also holds per metric the
parent's interquartile range and the number of pairs the change wins.
Timings taken one tree after the other move with the host's speed; only
paired runs compare two trees.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PINNED = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
SCHEDULE_DELTAS = [10.0 ** (-(4 + i) / 2) for i in range(13)]
FIXED_DELTAS = [1e-2, 1e-3, 1e-4, 1e-5]


def _cored_schedule(q: float) -> dict:
    return {"schema": 1, "lambda": 1.0, "mu": 1.0, "core_radius": 1.0, "shell_radius": 2.0, "q": q, "n_max": 12,
            "c_mode": {"schedule": 1}, "delta_list": SCHEDULE_DELTAS, "source_modes": [[None, 1, 3, 0.6, 0.8]]}


GATED = {
    "sched_q2.3": _cored_schedule(2.3),
    "sched_q3.6": _cored_schedule(3.6),
    "nocore_zeta3_3": {"schema": 1, "lambda": 1.0, "mu": 1.0, "shell_radius": 2.0, "q": 2.6, "n_max": 12,
                       "c_mode": {"fixed": -25.0 / 38.0}, "delta_list": FIXED_DELTAS,
                       "source_modes": [[3, 3, 5, 0.6, -0.8]]},
    "cored_zeta2_4": {"schema": 1, "lambda": 1.0, "mu": 1.0, "core_radius": 1.0, "shell_radius": 2.0, "q": 3.0,
                      "n_max": 12, "c_mode": {"fixed": -130.0 / 59.0}, "delta_list": FIXED_DELTAS,
                      "source_modes": [[4, 2, 2, -0.8, 0.6]]},
}


def _env(tree: Path) -> dict:
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    return {**env, **PINNED, "PYTHONPATH": str(tree / "src")}


def _cold_commands(work: Path) -> dict[str, list[str]]:
    commands = {"import": ["-c", "import elastoplasmon.cli"]}
    for name, cfg in GATED.items():
        path = work / f"{name}.json"
        path.write_text(json.dumps(cfg), encoding="utf-8")
        cli = ["-m", "elastoplasmon.cli"]
        commands[f"sweep:{name}"] = cli + ["sweep", "--config", str(path), "--csv", str(work / f"{name}.csv")]
        commands[f"solve:{name}"] = cli + ["solve", "--config", str(path), "--delta", repr(cfg["delta_list"][-1])]
    return commands


def cold(tree: Path, repeats: int, work: Path) -> dict[str, float]:
    """Median wall seconds of each cold command over ``repeats`` fresh processes."""
    times: dict[str, list[float]] = {}
    for _ in range(repeats):
        for name, argv in _cold_commands(work).items():
            t0 = time.perf_counter()
            subprocess.run([sys.executable, *argv], env=_env(tree), cwd=work, check=True,
                           stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
            times.setdefault(name, []).append(time.perf_counter() - t0)
    return {name: statistics.median(ts) for name, ts in times.items()}


def _median_call_s(call, repeats: int) -> float:
    """Median seconds per call over ``repeats`` batches, each batch at least about 2 ms long."""
    call()  # fills the per-process caches
    t0 = time.perf_counter()
    call()
    batch = max(1, int(2e-3 / max(time.perf_counter() - t0, 1e-7)))
    runs = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        for _ in range(batch):
            call()
        runs.append((time.perf_counter() - t0) / batch)
    return statistics.median(runs)


def warm(repeats: int) -> dict:
    """The in-process layer timings of the elastoplasmon on ``sys.path``, and the versions."""
    import numpy as np
    from dataclasses import replace

    from elastoplasmon import cli, scenarios, transmission
    from elastoplasmon.energy import dissipation_E
    from elastoplasmon.lame import LameParams, plasmon_constants
    from elastoplasmon.transmission import LayeredMedium, SourceSpec, solve_mode, solve_modes

    params = LameParams(1.0, 1.0)
    cored = LayeredMedium(shell_radius=2.0, c=-3.9, delta=1e-3, base=params, core_radius=1.0)
    out: dict[str, float] = {}
    shapes = {2: ([1.0], [1.0, 1.0], 1), 6: (*transmission._region_layout(cored, 3.0), 1),
              8: (*transmission._region_layout(replace(cored, core_radius=None), 3.0), 2),
              12: (*transmission._region_layout(cored, 3.0), 3)}
    for m, (bounds, weights, fam) in shapes.items():
        systems = [transmission._sector_system(bounds, weights, transmission._radial_profile(params, n, fam))
                   for n in range(7, 20)]
        for k in (1, 13):
            M = np.stack([s[0] for s in systems[:k]])
            b = np.stack([s[1] for s in systems[:k]])
            if hasattr(transmission, "_solve_column"):
                def call(M=M, b=b):
                    transmission._square_solve(M, b, ["system"] * len(M), [math.inf] * len(M))
            else:  # only for a parent from before stacked solves (BENCH_e1db3bb.json): one system per call
                def call(M=M, b=b):
                    for Mi, bi in zip(M, b):
                        transmission._square_solve(Mi, bi)
            out[f"square_solve[m={m},k={k}]"] = _median_call_s(call, repeats)
    for fam in (1, 2, 3):
        src = SourceSpec(3.0, {(8, fam, 1): 1.0})
        out[f"solve_mode[family={fam}]"] = _median_call_s(lambda: solve_mode(cored, src, 8), repeats)
    mixed = SourceSpec(3.0, {(8, 1, 1): 1.0, (8, 2, 2): 0.5j, (8, 3, 3): -0.7})
    solutions = solve_modes(cored, mixed)
    out["dissipation_E"] = _median_call_s(lambda: dissipation_E(solutions, cored), repeats)
    zeta1 = plasmon_constants(params, 8).zeta1
    applies = {  # a (medium, source, loss) each witness applies to
        "witness_nocore": (LayeredMedium(2.0, zeta1, 1e-3, params), SourceSpec(3.0, {(8, 1, 1): 1.0}), 1e-3),
        "witness_fixed_c": (replace(cored, c=-4.0), SourceSpec(3.0, {(8, 1, 1): 1.0}), 1e-3),
        "witness_core_resonant": (*cli._configuration(GATED["sched_q2.3"])(1e-3), 1e-3),
        "witness_radial_nonresonant": (*cli._configuration(GATED["sched_q3.6"])(1e-3), 1e-3),
    }
    for w in scenarios.WITNESSES:
        if w.name in applies:
            out[f"witness:{w.name}"] = _median_call_s(lambda w=w: w.core(*applies[w.name]), repeats)
    for name, cfg in GATED.items():
        conf = cli._configuration(cfg)
        out[f"sweep:{name}"] = _median_call_s(lambda: scenarios.sweep(conf, cfg["delta_list"]), repeats)
    blas = {}
    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]
        blas = {k: deps["blas"].get(k) for k in ("name", "version")}
    except (TypeError, KeyError, AttributeError):
        pass
    return {"warm_s": out, "versions": {"python": sys.version.split()[0], "numpy": np.__version__, "blas": blas}}


def _git(tree: Path) -> str | None:
    if not (tree / ".git").exists():
        return None
    try:
        r = subprocess.run(["git", "-C", str(tree), "describe", "--always", "--dirty", "--abbrev=12"],
                           capture_output=True, text=True)
    except OSError:  # no git
        return None
    return r.stdout.strip() if r.returncode == 0 else None


def measure(tree: Path, repeats: int) -> dict:
    """One BENCH record of ``tree``: cold medians, then warm medians from a worker process."""
    with tempfile.TemporaryDirectory() as work:
        cold_s = cold(tree, repeats, Path(work))
    worker = subprocess.run([sys.executable, __file__, "--worker", "--repeats", str(repeats)], env=_env(tree),
                            capture_output=True, text=True, check=True)
    record = json.loads(worker.stdout.splitlines()[-1])
    return {"schema": 1, "git": _git(tree), "nproc": os.cpu_count(), "repeats": repeats,
            "versions": record["versions"], "cold_s": cold_s, "warm_s": record["warm_s"]}


def _flat(record: dict) -> dict[str, float]:
    return {f"{part}/{name}": v for part in ("cold_s", "warm_s") for name, v in record[part].items()}


def pairs(parent: Path, change: Path, n: int, repeats: int) -> tuple[dict, dict]:
    """N alternating pairs of ``repeats``-repeat records: the parent's and the change's record.

    Each record's ``cold_s`` and ``warm_s`` are the medians over the pairs
    and ``runs`` the values of every pair; the change's ``against`` holds per
    metric the parent's median and interquartile range and the pairs won.
    """
    runs: dict[str, dict[str, list[float]]] = {}
    records: dict[str, dict] = {}
    for i in range(n):
        for side in (("parent", "change") if i % 2 == 0 else ("change", "parent")):
            record = measure(parent if side == "parent" else change, repeats)
            records[side] = {key: record[key] for key in ("schema", "git", "nproc", "versions")}
            for name, v in _flat(record).items():
                runs.setdefault(name, {"parent": [], "change": []})[side].append(v)
    for side, record in records.items():
        record.update(repeats=repeats, pairs=n, runs={name: r[side] for name, r in runs.items()})
        for name, r in runs.items():
            part, layer = name.split("/", 1)
            record.setdefault(part, {})[layer] = statistics.median(r[side])
    against = {}
    for name, r in runs.items():
        q1, _, q3 = statistics.quantiles(r["parent"], n=4) if n > 1 else (r["parent"][0],) * 3
        against[name] = {"parent_median": statistics.median(r["parent"]), "parent_iqr": q3 - q1,
                         "change_wins": sum(c < p for p, c in zip(r["parent"], r["change"]))}
    records["change"]["against"] = against
    return records["parent"], records["change"]


def _write(out: Path, label: str, record: dict) -> None:
    path = out / f"BENCH_{label}.json"
    path.write_text(json.dumps({"label": label, **record}, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {path}")


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--label", default="local")
    ap.add_argument("--repeats", type=int, default=3)
    ap.add_argument("--against", type=Path)
    ap.add_argument("--against-label", default="parent")
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--out", type=Path, default=ROOT)
    ap.add_argument("--worker", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.worker:
        print(json.dumps(warm(args.repeats)))
        return 0
    if args.against:
        parent, change = pairs(args.against.resolve(), ROOT, args.pairs, args.repeats)
        for name, m in change["against"].items():
            part, layer = name.split("/", 1)
            print(f"{name:42s} parent {m['parent_median']:.3e} (IQR {m['parent_iqr']:.1e})  "
                  f"change {change[part][layer]:.3e}  wins {m['change_wins']}/{args.pairs}")
        _write(args.out, args.against_label, parent)
        _write(args.out, args.label, change)
    else:
        record = measure(ROOT, args.repeats)
        for name, v in _flat(record).items():
            print(f"{name:42s} {v:.3e} s")
        _write(args.out, args.label, record)
    return 0


if __name__ == "__main__":
    sys.exit(main())
