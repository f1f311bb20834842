"""elastoplasmon benchmark: runs one workload and reports its metrics.

    python3 perfbench/run.py --workload NAME|all --seed N --seconds T --trace 0|1

Run from the repository root; workloads are defined in ``workloads.py``
(``all`` runs each in turn and prints every workload's metrics).  BENCHMARK.json
lists the workloads the benchmark gates on and, for each, why it was chosen.
Load shape: a closed loop with one client; commands run one at a time from
this process.  Every child pins BLAS to one thread and leaves
``ELASTOPLASMON_THREADS`` unset (one sweep worker).

``--trace 0`` measures the end-to-end metrics.  The three times are in
host-normalized seconds: each command's time is scaled by ``CAL_REF_S``
over the mean of the calibration times (``replay.calibration_s``) measured
just before and after it, and each set-up's time over the calibration its
process runs right after it.  This takes out the host's own speed swings;
the raw medians are printed and recorded as ``*_raw_s``.

- ``setup_s``: median of 3 fresh processes, each timing ``import
  elastoplasmon`` plus ``ensure_tables`` up to the workload's degree;
- ``wall_s``: the workload's CLI commands, each in a fresh process, summed
  per pass (median over passes; passes repeat until T/2 seconds have gone,
  at least twice);
- ``warm_s``: the same commands through ``elastoplasmon.cli.main(argv)`` in
  one long-lived process after one untimed warm-up pass (median over
  passes, repeated for another T/2 seconds, at least twice);
- ``peak_rss_mb``: the largest max-RSS of the fresh CLI processes;
- ``fail_frac``: failed over attempted operations (commands plus output
  checks, including an untimed ``solve`` at the deepest loss per sweep).

``--trace 1`` replays the commands and checks once in a fresh process with
spans at each module boundary (``spans.py``) and once without, and reports
the per-layer metrics and the tracing overhead.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  ``correct`` is false
when an output is wrong or a command exits non-zero; only ``solve`` exiting
1 (the known crash on deep schedules) counts in ``failed`` alone.  The full
record (seed, environment, every check, spans) goes to
``perfbench/results/<workload>-seed<N>-trace<0|1>.json``.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import platform
import re
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import check  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from replay import MIN_PASSES  # noqa: E402

SETUP_REPEATS = 3
RUN_LIMIT_S = 170.0  # every child is killed past this point of the run
THREAD_VARS = re.compile(r"THREAD|^OMP_|BLAS|^MKL_|^VECLIB|^NUMPY_")
PINNED = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1",
          "VECLIB_MAXIMUM_THREADS": "1", "NUMEXPR_NUM_THREADS": "1"}
# The metric names, units and workload reasons; the JSON line carries exactly
# the end-to-end metrics (--trace 0) or the per-layer ones (--trace 1).
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
# Printed and recorded only.  fail_frac reads 0 whenever nothing fails; the
# JSON line carries it as the keys "attempted" and "failed".
EXTRA_UNITS = {"fail_frac": "ratio", "wall_raw_s": "s", "warm_raw_s": "s", "setup_raw_s": "s",
               "calibration_s": "s"}
# On a 2-vCPU KVM guest that shares its cores, the speed of the same code
# moves by up to a factor of two, within seconds and in phases of 30-90 s.
# Each timing is therefore divided by the calibration time measured around
# it and multiplied by this constant, the calibration's typical value on that
# host.
CAL_REF_S = 0.08


class Runner:
    """Starts children one at a time and kills any still running at the deadline."""

    def __init__(self, deadline: float):
        self.deadline = deadline
        env = {k: v for k, v in os.environ.items() if k != "ELASTOPLASMON_THREADS"}
        env.update(PINNED)
        src = str(ROOT / "src")
        env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
        self.env = env

    def run(self, argv: list[str], out_path: Path) -> tuple[int, float, float]:
        """``python3 argv`` to completion: (exit code, wall s, max-RSS MB)."""
        timeout = self.deadline - time.perf_counter()
        if timeout <= 0:
            raise TimeoutError("run limit reached")
        with open(out_path, "w", encoding="utf-8") as out, \
                open(f"{out_path}.err", "w", encoding="utf-8") as err:
            t0 = time.perf_counter()
            proc = subprocess.Popen([sys.executable, *argv], env=self.env, cwd=ROOT,
                                    stdout=out, stderr=err, stdin=subprocess.DEVNULL)
            killer = threading.Timer(timeout, proc.kill)
            killer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:  # interrupted: leave no child behind
                proc.kill()
                proc.wait()
                raise
            finally:
                killer.cancel()
            wall = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        if proc.returncode < 0 and time.perf_counter() >= self.deadline:
            raise TimeoutError(f"child {argv[:3]} killed at the run limit")
        return proc.returncode, wall, usage.ru_maxrss / 1024.0

    def run_json(self, argv: list[str], out_path: Path) -> dict:
        """A ``replay.py`` child; its last output line is a JSON object."""
        code, _, _ = self.run([str(HERE / "replay.py"), *argv], out_path)
        if code != 0:
            tail = Path(f"{out_path}.err").read_text(encoding="utf-8")[-2000:]
            raise RuntimeError(f"replay.py {argv[0]} exited {code}:\n{tail}")
        return json.loads(out_path.read_text(encoding="utf-8").splitlines()[-1])


def git_sha() -> str:
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    res = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
    return res.stdout.strip() or "unknown"


def environment() -> dict:
    return {
        "git_sha": git_sha(),
        "nproc": os.cpu_count(),
        "nproc_available": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "platform": platform.platform(),
        "python": platform.python_version(),
        "thread_env": {k: v for k, v in sorted(os.environ.items()) if THREAD_VARS.search(k)},
        "child_thread_env": PINNED,
        "loadavg_before": os.getloadavg(),
    }


def pass_times(passes: list[list[float]], cal: list[float]) -> tuple[list[float], list[float]]:
    """Raw and host-normalized seconds of each pass, from its commands' times.

    ``cal`` holds the calibration time before the first command and after
    each; a command's time is scaled by ``CAL_REF_S`` over the mean of the
    two calibrations around it.
    """
    raw, norm, i = [], [], 0
    for cmds in passes:
        raw.append(sum(cmds))
        norm.append(sum(t * CAL_REF_S / (0.5 * (cal[i + j] + cal[i + j + 1])) for j, t in enumerate(cmds)))
        i += len(cmds)
    return raw, norm


def measure(runner: Runner, plan, args, work: Path, ref: dict, record: dict):
    """End-to-end metrics of one run (``--trace 0``) and the checks made.

    Cold passes take the first half of ``--seconds``, warm passes the second;
    each phase times at least ``MIN_PASSES`` passes.
    """
    degree = str(workloads.WORKLOADS[plan.workload].table_degree)
    setups = [runner.run_json(["setup", "--degree", degree], work / f"setup{i}.out")
              for i in range(SETUP_REPEATS)]
    checks: list[check.Check] = []
    cold, rss = [], []
    cal = [runner.run_json(["calibrate"], work / "cal0.out")["cal_s"]]
    start = time.perf_counter()
    while len(cold) < MIN_PASSES or time.perf_counter() - start < args.seconds / 2:
        out_dir = work / f"cold{len(cold)}"
        cold.append([])
        for i, cmd in enumerate(workloads.commands_in(plan.commands, out_dir)):
            stdout = out_dir / f"cmd{i}.out"
            code, wall, mb = runner.run(["-m", "elastoplasmon.cli", *cmd.argv], stdout)
            cal.append(runner.run_json(["calibrate"], work / f"cal{len(cal)}.out")["cal_s"])
            cold[-1].append(wall)
            rss.append(mb)
            result = {**dataclasses.asdict(cmd), "code": code,
                      "stdout": stdout.read_text(encoding="utf-8")}
            checks += check.check_result(result, ref)
    warm = runner.run_json(["warm", "--workload", plan.workload, "--seed", str(plan.seed),
                            "--seconds", str(args.seconds / 2), "--work", str(work / "warm")],
                           work / "warm.out")
    for res in warm["warmup"] + [r for p in warm["passes"] for r in p["results"]] + warm["checks"]:
        checks += check.check_result(res, ref)
    warm_cmd_s = [p["seconds"] for p in warm["passes"]]
    record.update(versions=setups[0]["versions"], setup_runs=setups, cold_cmd_s=cold, cold_cal_s=cal,
                  warm_cmd_s=warm_cmd_s, warm_cal_s=warm["cal_s"], rss_mb=rss,
                  solve_checks=[{k: r[k] for k in ("argv", "code", "stderr")} for r in warm["checks"]])
    cold_raw, cold_norm = pass_times(cold, cal)
    warm_raw, warm_norm = pass_times(warm_cmd_s, warm["cal_s"])
    setup_raw = [s["setup_s"] for s in setups]
    setup_norm = [s["setup_s"] * CAL_REF_S / s["cal_s"] for s in setups]  # calibrated right after
    metrics = {
        "wall_s": statistics.median(cold_norm),
        "warm_s": statistics.median(warm_norm),
        "setup_s": statistics.median(setup_norm),
        "peak_rss_mb": max(rss),
        "wall_raw_s": statistics.median(cold_raw),
        "warm_raw_s": statistics.median(warm_raw),
        "setup_raw_s": statistics.median(setup_raw),
        "calibration_s": statistics.median(cal + warm["cal_s"]),
    }
    return metrics, checks


def traced(runner: Runner, plan, work: Path, ref: dict, record: dict):
    """Per-layer metrics from one traced replay, against one untraced replay."""
    base = ["replay", "--workload", plan.workload, "--seed", str(plan.seed)]
    plain = runner.run_json(base + ["--work", str(work / "plain"), "--traced", "0"], work / "plain.out")
    spanned = runner.run_json(base + ["--work", str(work / "traced"), "--traced", "1"], work / "traced.out")
    checks = [c for res in plain["results"] + spanned["results"] for c in check.check_result(res, ref)]
    metrics = dict(spanned["metrics"])
    metrics["lame.residual_probe_s"] = plain["probe_s"]
    metrics["trace.replay_s"] = spanned["replay_s"]
    metrics["trace.untraced_replay_s"] = plain["replay_s"]
    metrics["trace.overhead_frac"] = spanned["replay_s"] / plain["replay_s"] - 1.0
    metrics["trace.spans"] = len(spanned["spans"])
    record.update(versions=spanned["versions"], spans=spanned["spans"],
                  solve_checks=[{k: r[k] for k in ("argv", "code", "stderr")}
                                for r in spanned["results"] if r["kind"] == "solve"])
    return metrics, checks


def run_workload(name: str, args, ref: dict) -> dict:
    """One run of one workload: the full record, including the JSON summary line."""
    deadline = time.perf_counter() + RUN_LIMIT_S
    spec = workloads.WORKLOADS[name]
    record = {"workload": name, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "layer_predictions": spec.layers,
              "why": next((w["why"] for w in BENCHMARK["workloads"] if w["name"] == name), None),
              "environment": environment()}
    work = HERE / "work" / f"{name}-{args.seed}-{args.trace}-{os.getpid()}"
    try:
        plan = workloads.make_plan(name, args.seed, work)
        record["configs"] = plan.configs
        runner = Runner(deadline)
        if args.trace:
            metrics, checks = traced(runner, plan, work, ref, record)
        else:
            metrics, checks = measure(runner, plan, args, work, ref, record)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    failed = [c for c in checks if not c.ok]
    correct = check.all_correct(checks)
    record["environment"]["loadavg_after"] = os.getloadavg()
    record["checks"] = [dataclasses.asdict(c) for c in checks]
    record["attempted"], record["failed"], record["correct"] = len(checks), len(failed), correct
    if not args.trace:
        metrics["fail_frac"] = len(failed) / len(checks)
    shown = {m["name"]: m["unit"] for m in BENCHMARK["per_layer" if args.trace else "end_to_end"]}
    units = {**EXTRA_UNITS, **shown}
    record["metrics"] = {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}
    record["summary"] = {"correct": correct, "attempted": len(checks), "failed": len(failed),
                         "metrics": {k: record["metrics"][k] for k in shown}}
    results = HERE / "results"
    results.mkdir(exist_ok=True)
    path = results / f"{name}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")

    env = record["environment"]
    print(f"workload {name}  seed {args.seed}  trace {args.trace}  sha {env['git_sha'][:12]}")
    print(f"env: nproc {env['nproc']}  python {env['python']}  numpy {record['versions']['numpy']}  "
          f"blas {record['versions']['blas']}  load {env['loadavg_before'][0]:.2f} -> "
          f"{env['loadavg_after'][0]:.2f}")
    for key, m in record["metrics"].items():
        print(f"  {key:34s} {m['value']:>14.6g} {m['unit']}")
    if args.trace:
        outside_replay = ("trace.", "lame.residual_probe_s", "transmission.residual_check_s")
        times = {k: v for k, v in metrics.items()
                 if k.endswith("_s") and not k.endswith(".self_s") and not k.startswith(outside_replay)}
        print(f"  largest span metric: {max(times, key=times.get)}")
    for c in failed:
        print(f"  FAILED {c.name}: {c.detail}")
    print(f"record: {path.relative_to(ROOT)}")
    return record


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=[*workloads.WORKLOADS, "all"],
                    help="one workload, or all of them one after another")
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=BENCHMARK["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))  # so children are stopped too
    if not (ROOT / "src" / "elastoplasmon" / "cli.py").is_file():
        sys.stderr.write(f"no elastoplasmon sources under {ROOT / 'src'}; run from a full checkout\n")
        return 2
    ref = check.load_reference()
    names = list(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    summaries = {name: run_workload(name, args, ref)["summary"] for name in names}
    if len(summaries) == 1:
        summary = summaries[args.workload]
    else:  # metrics keyed "<workload>.<metric>"
        summary = {"correct": all(s["correct"] for s in summaries.values()),
                   "attempted": sum(s["attempted"] for s in summaries.values()),
                   "failed": sum(s["failed"] for s in summaries.values()),
                   "metrics": {f"{n}.{k}": v for n, s in summaries.items() for k, v in s["metrics"].items()}}
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
