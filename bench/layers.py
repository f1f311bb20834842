"""Layer timings and cold memory of elastoplasmon, written to ``BENCH_<label>.json``.

    python bench/layers.py [--label NAME] [--repeats N] [--out DIR]
    python bench/layers.py --against DIR [--against-label NAME] [--pairs N] [--label NAME] [--out DIR]

The ``src`` of this checkout is timed; this script imports nothing of it
and runs each measurement in fresh processes with one BLAS thread.  The
file (in ``--out``, default the repository root) holds the checkout's git
description (None outside a git checkout), ``nproc``,
the Python, numpy and BLAS versions, and three sets of minima (the least
disturbed run of each, as the host's other load only adds time and pages):

* ``cold_s``: over ``--repeats`` fresh processes each, ``import
  elastoplasmon.cli`` ended by ``os._exit(0)``, so that, like a CLI run
  (``cli.run``), it pays no interpreter finalization; through the CLI,
  each gated sweep (the four
  configurations of the benchmark's two gated workloads, as
  ``perfbench/workloads.make_plan`` writes them at seed 1) and its
  ``solve`` check at the deepest loss; ``waves-check --n 20/40/64`` and
  ``np-spectrum --nmax 64``.  Then, in one fresh process per gated sweep
  (:func:`first_sweep`), the first ``cli.main`` call of that sweep after
  the import, its caches empty (``first_sweep:*``), and the package import
  after numpy (``import:package``) with one of its parts, the
  ``compile()`` of the sources of the modules it loaded
  (``import:compile``; the host compiles them at import where no bytecode
  is cached, as with ``PYTHONDONTWRITEBYTECODE=1`` in a fresh checkout).
  Last, in one more
  fresh process per gated sweep (:func:`exit_s`), the sweep run by
  ``python -m elastoplasmon.cli``'s own path and timed from the return of
  ``cli.main`` until the process is reaped (``exit:sweep:*``);
* ``cold_rss_mb``: the max-RSS in MB of each cold command (not of the
  :func:`first_sweep` processes) as ``os.wait4`` reports it, the least over
  its ``--repeats`` processes;
* ``warm_s``: in one process, after one untimed call that fills the
  per-process caches, the minimum over ``--repeats`` batches, each at
  least about 10 ms of back-to-back in-process calls, of: the square
  sector solve of k systems of size m (k = 1, 13; m = 2, 6, 8, 12: a
  family-1 unit single layer, a cored family-1, a core-free family-2 and a
  cored family-3 system, at degrees 7, 8, ..., as the solves hand them to
  it), ``solve_mode`` per family, ``dissipation_E``, each
  ``scenarios.WITNESSES`` core on one row (``witness:<witness>``), the
  solve of the 26-item column of a 13-row schedule sweep (``column:solve``:
  its lossy and loss-free items, ``transmission._solve_column``), that
  column's energies as the sweep forms them (``column:energies``:
  ``energy.column_energies``) and the 13-row pass of each core over a
  schedule column (``column:<witness>``: ``scenarios._witness_pass``, or a
  tree's core that takes the column itself; the loss-free input a core
  reads is formed outside the timing, :func:`_loss_free`), and per gated
  configuration its check
  ``cli.validate_config`` on a fresh copy of the document
  (``validate:*``), ``sweep`` and the whole command through ``cli.main``
  (``main:sweep:*``: the config read and checked, the argument parse, the
  sweep and the CSV written, what the benchmark's ``warm_s`` times).

``--against DIR`` times DIR (the parent) and this checkout (the change) in N
alternating pairs, each side first in every other pair, one record of
``--repeats`` repeats per side and pair.  Each side runs a copy of its
``src``, ``<tmp>/parent/src`` and ``<tmp>/change/src`` (:func:`side_trees`):
a cold process's max-RSS moves with the path it runs from, so the two
sides run from paths of one length.  It writes a record per side
(``--against-label`` and ``--label``) whose medians are over the pairs,
with every pair's values; the change's record also holds per metric the
parent's interquartile range and the number of pairs the change wins.
Timings taken one tree after the other move with the host's speed; only
paired runs compare two trees.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib.util
import io
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PINNED = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
GATED_WORKLOADS = ("dichotomy_schedule", "spheroidal_fixed")


def _workloads():
    """``perfbench/workloads.py``, loaded by path (it imports neither numpy nor the package)."""
    spec = importlib.util.spec_from_file_location("perfbench_workloads", ROOT / "perfbench" / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look their module up here
    spec.loader.exec_module(module)
    return module


def gated_plans(work: Path) -> list:
    """The plans of the benchmark's gated workloads at seed 1, their configs written under ``work``."""
    workloads = _workloads()
    return [workloads.make_plan(name, 1, work / name) for name in GATED_WORKLOADS]


def _env(tree: Path) -> dict:
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    return {**env, **PINNED, "PYTHONPATH": str(tree / "src")}


def _cold_commands(work: Path) -> dict[str, list[str]]:
    cli = ["-m", "elastoplasmon.cli"]
    commands = {"import": ["-c", "import os, elastoplasmon.cli; os._exit(0)"]}  # no finalization, as cli.run
    for plan in gated_plans(work):
        for command in plan.commands:
            commands[f"sweep:{command.ref}"] = cli + [a.replace("{work}", str(work)) for a in command.argv]
        for command in plan.checks:
            commands[f"solve:{command.ref}"] = cli + list(command.argv)
    for n in (20, 40, 64):
        commands[f"waves-check:{n}"] = cli + ["waves-check", "--n", str(n)]
    commands["np-spectrum:64"] = cli + ["np-spectrum", "--nmax", "64"]
    return commands


# the child of exit_s: `python -m elastoplasmon.cli` through runpy, with a profile hook that writes the
# monotonic clock to the file descriptor in argv[1] when cli.main returns, then removes itself
_EXIT_PROBE = """\
import os, runpy, sys, time
fd = int(sys.argv.pop(1))
def stamp(frame, event, arg):
    if event == "return" and frame.f_code.co_name == "main" and frame.f_globals.get("__name__") == "__main__":
        sys.setprofile(None)
        os.write(fd, repr(time.clock_gettime(time.CLOCK_MONOTONIC)).encode())
sys.setprofile(stamp)
runpy.run_module("elastoplasmon.cli", run_name="__main__", alter_sys=True)
"""


def exit_s(argv: list[str], env: dict, cwd: Path) -> float:
    """Seconds from the return of ``cli.main`` to the reaping of one fresh ``python -m elastoplasmon.cli argv``,
    which must exit 0 (``time.CLOCK_MONOTONIC`` is one clock for every process)."""
    read, write = os.pipe()
    with os.fdopen(read, "rb") as stamp:
        try:
            _run(["-c", _EXIT_PROBE, str(write), *argv], env, cwd, pass_fds=(write,))
            reaped = time.clock_gettime(time.CLOCK_MONOTONIC)
        finally:
            os.close(write)
        return reaped - float(stamp.read())


def _run(argv: list[str], env: dict, cwd: Path, pass_fds=()) -> tuple[float, float]:
    """Wall seconds and max-RSS in MB (``os.wait4``) of one fresh ``python argv``, which must exit 0."""
    t0 = time.perf_counter()
    proc = subprocess.Popen([sys.executable, *argv], env=env, cwd=cwd, stdin=subprocess.DEVNULL,
                            stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL, pass_fds=pass_fds)
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    except BaseException:  # interrupted: leave no child behind
        proc.kill()
        proc.wait()
        raise
    wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    if proc.returncode != 0:
        raise subprocess.CalledProcessError(proc.returncode, argv)
    return wall, usage.ru_maxrss / 1024.0


def cold(tree: Path, repeats: int, work: Path) -> tuple[dict[str, float], dict[str, float]]:
    """Least wall seconds of each cold command, :func:`first_sweep` record and :func:`exit_s` of a sweep, and
    least max-RSS in MB of each cold command, over ``repeats`` processes."""
    times: dict[str, list[float]] = {}
    rss: dict[str, list[float]] = {}
    commands = _cold_commands(work)
    for _ in range(repeats):
        for name, argv in commands.items():
            wall, mb = _run(argv, _env(tree), work)
            times.setdefault(name, []).append(wall)
            rss.setdefault(name, []).append(mb)
        for name, argv in commands.items():
            if name.startswith("sweep:"):  # argv: -m elastoplasmon.cli sweep ...
                probe = subprocess.run([sys.executable, __file__, "--first-sweep", *argv[2:]], env=_env(tree),
                                       cwd=work, check=True, capture_output=True, text=True)
                for key, v in json.loads(probe.stdout.splitlines()[-1]).items():
                    times.setdefault(f"first_{name}" if key == "first_sweep" else key, []).append(v)
                times.setdefault(f"exit:{name}", []).append(exit_s(argv[2:], _env(tree), work))
    return {name: min(ts) for name, ts in times.items()}, {name: min(mbs) for name, mbs in rss.items()}


def first_sweep(argv: list[str]) -> dict[str, float]:
    """In this fresh process: the package import after numpy, and then the first ``cli.main(argv)``.

    ``import:compile`` is the ``compile()`` of the sources of the package
    modules loaded by then, timed after the sweep."""
    import numpy  # noqa: F401  (loaded first: its import is not the package's)

    t0 = time.perf_counter()
    from elastoplasmon import cli

    t1 = time.perf_counter()
    sources = [(m.__file__, Path(m.__file__).read_bytes()) for name, m in list(sys.modules.items())
               if name == "elastoplasmon" or name.startswith("elastoplasmon.")]
    t2 = time.perf_counter()
    if cli.main(argv) != 0:
        raise RuntimeError(f"{argv} failed")
    t3 = time.perf_counter()
    for path, source in sources:
        compile(source, path, "exec")
    compiled = time.perf_counter() - t3
    return {"import:package": t1 - t0, "import:compile": compiled, "first_sweep": t3 - t2}


def _least_call_s(call, repeats: int) -> float:
    """Least seconds per call over ``repeats`` batches, each batch at least about 10 ms long."""
    call()  # fills the per-process caches
    t0 = time.perf_counter()
    call()
    batch = max(1, int(1e-2 / max(time.perf_counter() - t0, 1e-7)))
    runs = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        for _ in range(batch):
            call()
        runs.append((time.perf_counter() - t0) / batch)
    return min(runs)


def _systems(transmission, solve) -> list:
    """The (matrix, right side) of every system ``solve()`` hands to ``transmission._square_solve``."""
    seen = []
    square_solve = transmission._square_solve

    def spy(M, b, *args):
        seen.extend(zip(M, b))
        return square_solve(M, b, *args)

    transmission._square_solve = spy
    try:
        solve()
    finally:
        transmission._square_solve = square_solve
    return seen


def _loss_free(energy, rows, outcomes: list) -> list:
    """The cores' loss-free input from per-row lists of loss-free outcomes, one per degree of the row's source: each
    row's {degree: outcome} and their pairing (the sweep's one flux), paired here, outside the timing."""
    return [(dict(zip(src.degrees(), sols)), p)
            for (_, src, _), sols, p in zip(rows, outcomes, energy.solution_pairings(outcomes))]


def warm(repeats: int) -> dict:
    """The in-process layer timings of the elastoplasmon on ``sys.path``, and the versions."""
    import numpy as np

    from elastoplasmon import cli, energy, scenarios, transmission
    from elastoplasmon.energy import dissipation_E
    from elastoplasmon.lame import LameParams
    from elastoplasmon.transmission import LayeredMedium, SourceSpec, solve_mode, solve_modes
    from elastoplasmon.waves import plasmon_constants

    params = LameParams(1.0, 1.0)
    cored = LayeredMedium(shell_radius=2.0, c=-3.9, delta=1e-3, base=params, core_radius=1.0)
    out: dict[str, float] = {}
    solves = {2: lambda n: transmission._solve_systems([([1.0], [1.0, 1.0], transmission._radial_profile(params, n, 1),
                                                         "single layer", math.inf)]),
              6: lambda n: solve_mode(cored, SourceSpec(3.0, {(n, 1, 1): 1.0}), n),
              8: lambda n: solve_mode(cored._replace(core_radius=None), SourceSpec(3.0, {(n, 2, 1): 1.0}), n),
              12: lambda n: solve_mode(cored, SourceSpec(3.0, {(n, 3, 1): 1.0}), n)}
    for m, solve in solves.items():
        systems = [system for n in range(7, 20) for system in _systems(transmission, lambda: solve(n))]
        assert all(M.shape == (m, m) for M, _ in systems), m
        for k in (1, 13):
            M = np.stack([M for M, _ in systems[:k]])
            b = np.stack([b for _, b in systems[:k]])
            out[f"square_solve[m={m},k={k}]"] = _least_call_s(
                lambda M=M, b=b: transmission._square_solve(M, b, ["system"] * len(M), [math.inf] * len(M)), repeats)
    for fam in (1, 2, 3):
        src = SourceSpec(3.0, {(8, fam, 1): 1.0})
        out[f"solve_mode[family={fam}]"] = _least_call_s(lambda: solve_mode(cored, src, 8), repeats)
    mixed = SourceSpec(3.0, {(8, 1, 1): 1.0, (8, 2, 2): 0.5j, (8, 3, 3): -0.7})
    solutions = solve_modes(cored, mixed)
    out["dissipation_E"] = _least_call_s(lambda: dissipation_E(solutions, cored), repeats)
    with tempfile.TemporaryDirectory() as work:
        configs = {name: cfg for plan in gated_plans(Path(work)) for name, cfg in plan.configs.items()}
    zeta1 = plasmon_constants(params, 8).zeta1
    applies = {  # a (medium, source, loss) each witness applies to
        "witness_nocore": (LayeredMedium(2.0, zeta1, 1e-3, params), SourceSpec(3.0, {(8, 1, 1): 1.0}), 1e-3),
        "witness_fixed_c": (cored._replace(c=-4.0), SourceSpec(3.0, {(8, 1, 1): 1.0}), 1e-3),
        "witness_core_resonant": (*cli._configuration(configs["sched_q2.3"])(1e-3), 1e-3),
        "witness_radial_nonresonant": (*cli._configuration(configs["sched_q3.6"])(1e-3), 1e-3),
    }
    per_row = hasattr(scenarios, "_witness_pass")  # a core takes one row, else the column of rows
    for w in scenarios.WITNESSES:
        if w.name in applies:
            # the fixed-multiplier bound is the loss-free field, timed with its solve; the other cores read no
            # loss-free solve on their rows (the radial row has no off-schedule degree)
            row = applies[w.name]
            free = None if w.name == "witness_fixed_c" else scenarios._row_solves([row], lossy=False)[-1]

            def one_row():
                loss_free = scenarios._row_solves([row], lossy=False)[-1] if free is None else free
                return w.core(row, loss_free[0]) if per_row else w.core([row], loss_free)
            out[f"witness:{w.name}"] = _least_call_s(one_row, repeats)
    # the 26-item column a sched_q2.3 sweep solves, its 13 lossy rows and their loss-free solves, and the energies
    # of that column, as the sweep forms them (one flux)
    conf = cli._configuration(configs["sched_q2.3"])
    rows = [(*conf(d), d) for d in configs["sched_q2.3"]["delta_list"]]
    items = ([(med, src, max(src.degrees())) for med, src, _ in rows]
             + [(med._replace(delta=0.0), src, max(src.degrees())) for med, src, _ in rows])
    out["column:solve"] = _least_call_s(lambda: transmission._solve_column(items), repeats)
    outcomes = [[sol] for sol in transmission._solve_column(items)]
    media = [med for med, _, _ in rows]
    out["column:energies"] = _least_call_s(
        lambda: energy.column_energies(outcomes[:len(rows)], media, outcomes[len(rows):]), repeats)
    # the 13-row schedule columns a sweep hands to the cores
    nocore = {key: v for key, v in configs["sched_q2.3"].items() if key != "core_radius"}
    column_of = {"witness_nocore": dict(nocore, q=2.6), "witness_fixed_c": configs["sched_q2.3"],
                 "witness_core_resonant": configs["sched_q2.3"], "witness_radial_nonresonant": configs["sched_q3.6"]}
    for name, cfg in column_of.items():
        conf = cli._configuration(cfg)
        rows = [(*conf(d), d) for d in cfg["delta_list"]]
        w = next(w for w in scenarios.WITNESSES if w.name == name)
        free = _loss_free(energy, rows, [[sol] for sol in transmission._solve_column(
            [(med._replace(delta=0.0), src, max(src.degrees())) for med, src, _ in rows])])
        column = ((lambda: scenarios._witness_pass(rows, free, lambda v, _: v is w)) if per_row
                  else lambda: w.core(rows, free))
        out[f"column:{name}"] = _least_call_s(column, repeats)
    for name, cfg in configs.items():
        # validate_config adds only top-level keys, so a shallow copy is a fresh document
        out[f"validate:{name}"] = _least_call_s(lambda: cli.validate_config(dict(cfg)), repeats)
        conf = cli._configuration(cfg)
        out[f"sweep:{name}"] = _least_call_s(lambda: scenarios.sweep(conf, cfg["delta_list"]), repeats)
    with tempfile.TemporaryDirectory() as work, contextlib.redirect_stdout(io.StringIO()):
        for command in [c for plan in gated_plans(Path(work)) for c in plan.commands if c.kind == "sweep"]:
            argv = [a.replace("{work}", work) for a in command.argv]
            if cli.main(argv) != 0:
                raise RuntimeError(f"{argv} failed")
            out[f"main:sweep:{command.ref}"] = _least_call_s(lambda: cli.main(argv), repeats)
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
    """One BENCH record of ``tree``: cold minima, then warm minima from a worker process."""
    with tempfile.TemporaryDirectory() as work:
        cold_s, cold_rss_mb = cold(tree, repeats, Path(work))
    worker = subprocess.run([sys.executable, __file__, "--worker", "--repeats", str(repeats)], env=_env(tree),
                            capture_output=True, text=True, check=True)
    record = json.loads(worker.stdout.splitlines()[-1])
    return {"schema": 1, "git": _git(tree), "nproc": os.cpu_count(), "repeats": repeats,
            "versions": record["versions"], "cold_s": cold_s, "cold_rss_mb": cold_rss_mb, "warm_s": record["warm_s"]}


PARTS = {"cold_s": "s", "cold_rss_mb": "MB", "warm_s": "s"}  # each part of a record, and its unit


def _flat(record: dict) -> dict[str, float]:
    return {f"{part}/{name}": v for part in PARTS for name, v in record[part].items()}


def side_trees(parent: Path, change: Path, tmp: Path) -> tuple[Path, Path]:
    """The trees :func:`pairs` runs for ``--against``: each tree's ``src`` copied to ``tmp/parent/src`` and
    ``tmp/change/src``, paths of one length."""
    for side, tree in (("parent", parent), ("change", change)):
        shutil.copytree(tree / "src", tmp / side / "src", ignore=shutil.ignore_patterns("__pycache__"))
    return tmp / "parent", tmp / "change"


def pairs(parent: Path, change: Path, n: int, repeats: int) -> tuple[dict, dict]:
    """N alternating pairs of ``repeats``-repeat records: the parent's and the change's record.

    Each record's ``cold_s``, ``cold_rss_mb`` and ``warm_s`` are the medians over the pairs
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
    ap.add_argument("--first-sweep", nargs=argparse.REMAINDER, help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.worker:
        print(json.dumps(warm(args.repeats)))
        return 0
    if args.first_sweep:
        print(json.dumps(first_sweep(args.first_sweep)))
        return 0
    if args.against:
        with tempfile.TemporaryDirectory() as tmp:
            parent, change = pairs(*side_trees(args.against.resolve(), ROOT, Path(tmp)), args.pairs, args.repeats)
        parent["git"], change["git"] = _git(args.against.resolve()), _git(ROOT)  # the copies have no git
        for name, m in change["against"].items():
            part, layer = name.split("/", 1)
            print(f"{name:42s} parent {m['parent_median']:.3e} (IQR {m['parent_iqr']:.1e})  "
                  f"change {change[part][layer]:.3e}  wins {m['change_wins']}/{args.pairs}")
        _write(args.out, args.against_label, parent)
        _write(args.out, args.label, change)
    else:
        record = measure(ROOT, args.repeats)
        for name, v in _flat(record).items():
            print(f"{name:42s} {v:.3e} {PARTS[name.split('/')[0]]}")
        _write(args.out, args.label, record)
    return 0


if __name__ == "__main__":
    sys.exit(main())
