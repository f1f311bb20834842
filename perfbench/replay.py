"""In-process side of the benchmark; each mode runs in a fresh child process.

    python3 perfbench/replay.py calibrate
    python3 perfbench/replay.py setup  --degree N
    python3 perfbench/replay.py warm   --workload W --seed S --seconds T --work DIR
    python3 perfbench/replay.py replay --workload W --seed S --work DIR --traced 0|1

Each mode prints one JSON object as its last line of output.  ``calibrate``
times a fixed unit of work that does not use elastoplasmon (see
:func:`calibration_s`).  ``setup`` times ``import elastoplasmon`` plus
``ensure_tables(None, N)`` and calibrates after it.  ``warm`` runs the
workload's commands through ``elastoplasmon.cli.main(argv)`` once untimed,
then times passes until ``T`` seconds have gone (at least two), calibrating
before the first command and after each, then runs the untimed ``solve``
checks.  ``replay`` runs the commands and the checks once in a fresh
process, either with spans around each module's public functions (see
``spans.py``) or without them; the untraced replay then also times
``lame_residual`` alone on every wave of ``waves-check``.  ``run.py`` checks the outputs.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import io
import json
import statistics
import sys
import time
import traceback
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import workloads  # noqa: E402


def versions() -> dict:
    import numpy

    blas = {}
    try:
        deps = numpy.show_config(mode="dicts")["Build Dependencies"]
        blas = {k: deps["blas"].get(k) for k in ("name", "version")}
    except (TypeError, KeyError, AttributeError):  # older numpy: no dict mode
        pass
    return {"python": sys.version.split()[0], "numpy": numpy.__version__, "blas": blas}


CAL_REPS = 6
MIN_PASSES = 2  # timed passes per phase, cold or warm, however long they take


def calibration_s() -> float:
    """Median time of one fixed unit of work, about 80 ms on a 2-vCPU KVM guest.

    The unit mixes the kinds of work elastoplasmon does: a pure-Python loop,
    small dense ``lstsq`` solves, element-wise numpy arithmetic, and writing a
    fresh 64 MB array, whose page faults cost what a cold process pays to grow
    its tables.  It uses nothing from the package, so a change to the program
    never changes it; ``run.py`` divides timings by it to take out the host's
    speed.
    """
    import numpy as np

    rng = np.random.default_rng(0)
    a, b = rng.normal(size=(160, 120)), np.ones(160)
    x = np.linspace(0.0, 1.0, 2000)
    times = []
    for _ in range(CAL_REPS):
        t0 = time.perf_counter()
        acc = 0
        for i in range(250_000):
            acc += i * i % 7
        for _ in range(8):
            np.linalg.lstsq(a, b, rcond=None)
        for _ in range(200):
            np.sin(x) * np.cos(x) + x * x
        np.ones(8_000_000).sum()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def run_cli(cli, cmd: workloads.Command) -> dict:
    """One command through ``cli.main``; an escaping exception reads as exit 1."""
    out = io.StringIO()
    err = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(list(cmd.argv))
        except SystemExit as exc:  # argparse
            code = exc.code if isinstance(exc.code, int) else 1
        except Exception:  # the program's own failure: record it and go on
            code = 1
            traceback.print_exc(file=err)
    return {**dataclasses.asdict(cmd), "code": code, "stdout": out.getvalue(),
            "stderr": err.getvalue()[-2000:]}


def cmd_calibrate(args) -> dict:
    return {"cal_s": calibration_s()}


def cmd_setup(args) -> dict:
    t0 = time.perf_counter()
    import elastoplasmon
    from elastoplasmon.harmonics import ensure_tables

    t1 = time.perf_counter()
    tables = ensure_tables(None, args.degree)
    t2 = time.perf_counter()
    return {"setup_s": t2 - t0, "import_s": t1 - t0, "tables_n_max": tables.n_max,
            "cal_s": calibration_s(),
            "versions": {**versions(), "elastoplasmon": elastoplasmon.__version__}}


def cmd_warm(args) -> dict:
    import elastoplasmon.cli as cli

    work = Path(args.work)
    plan = workloads.make_plan(args.workload, args.seed, work)
    warmup = [run_cli(cli, c) for c in workloads.commands_in(plan.commands, work / "warmup")]
    passes = []
    cal = [calibration_s()]
    start = time.perf_counter()
    while len(passes) < MIN_PASSES or time.perf_counter() - start < args.seconds:
        seconds, results = [], []
        for cmd in workloads.commands_in(plan.commands, work / f"warm{len(passes)}"):
            t0 = time.perf_counter()
            results.append(run_cli(cli, cmd))
            seconds.append(time.perf_counter() - t0)
            cal.append(calibration_s())
        passes.append({"seconds": seconds, "results": results})
    checks = [run_cli(cli, c) for c in plan.checks]
    return {"warmup": warmup, "passes": passes, "cal_s": cal, "checks": checks}


def cmd_replay(args) -> dict:
    import spans

    tracer = spans.Tracer()
    t0 = time.perf_counter()
    import elastoplasmon.cli as cli

    t1 = time.perf_counter()
    tracer.add("cli.import", "cli.import", t0, t1)
    if args.traced:
        spans.install(tracer)
    work = Path(args.work)
    plan = workloads.make_plan(args.workload, args.seed, work)
    commands = workloads.commands_in(plan.commands, work / "replay")

    def run_request(cmd):
        result = run_cli(cli, cmd)
        tracer.request += 1
        return result

    start = time.perf_counter()
    results = [run_request(c) for c in commands]
    replay_s = time.perf_counter() - start
    results += [run_request(c) for c in plan.checks]
    out = {"replay_s": replay_s, "import_s": t1 - t0, "results": results, "versions": versions()}
    if args.traced:
        out["metrics"] = spans.layer_metrics(tracer.spans, len(commands))
        out["spans"] = [dataclasses.asdict(s) for s in tracer.spans]
    else:  # the probe runs unwrapped, after the untraced replay
        out["probe_s"] = residual_probe(args.workload)
    return out


def residual_probe(workload: str) -> float:
    """Time ``lame_residual`` alone on each wave that ``waves-check`` verifies.

    Same waves and the same 24 interior + 24 exterior points as
    ``verify_perfect_wave`` (seed 0, radii 0.35 R and 1.7 R); 0 on workloads
    without waves-check.
    """
    argv = next((a for a in workloads.WORKLOADS[workload].extra if a[0] == "waves-check"), None)
    if argv is None:
        return 0.0
    import numpy as np
    from elastoplasmon.harmonics import ensure_tables
    from elastoplasmon.lame import LameParams, lame_residual
    from elastoplasmon.waves import assemble_H, perfect_wave, plasmon_constants, plasmon_kernel

    n, R = int(argv[argv.index("--n") + 1]), float(argv[argv.index("--R") + 1])
    params = LameParams(1.0, 1.0)
    tables = ensure_tables(None, n + 4)
    dirs = np.random.default_rng(0).normal(size=(200, 3))
    dirs /= np.linalg.norm(dirs, axis=1)[:, None]
    waves = []
    for fam, c in enumerate(plasmon_constants(params, n).as_tuple(), start=1):
        for K in plasmon_kernel(assemble_H(n, params, c, tables)):
            waves.append(perfect_wave(K, fam, n, R, params, tables))
    t0 = time.perf_counter()
    for w in waves:
        lame_residual(w.interior.terms, params, dirs[:24] * (0.35 * R))
        lame_residual(w.exterior.terms, params, dirs[:24] * (1.7 * R))
    return time.perf_counter() - t0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("mode", choices=("calibrate", "setup", "warm", "replay"))
    ap.add_argument("--degree", type=int)
    ap.add_argument("--workload", choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int)
    ap.add_argument("--seconds", type=float, default=0.0)
    ap.add_argument("--work")
    ap.add_argument("--traced", type=int, default=0)
    args = ap.parse_args(argv)
    mode = {"calibrate": cmd_calibrate, "setup": cmd_setup, "warm": cmd_warm, "replay": cmd_replay}[args.mode]
    print(json.dumps(mode(args)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
