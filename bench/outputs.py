"""Hashes of elastoplasmon's command outputs, to check that a change keeps them byte for byte.

    python bench/outputs.py [--seeds 1-5] [--against DIR]

The gated configurations are those ``perfbench/workloads.make_plan`` writes
for the benchmark's two gated workloads at each seed (four per seed).  Per
configuration six outputs are hashed:

* ``sweep``: the exit code, stdout, stderr and CSV bytes of the command;
* ``meta``, ``rows`` and ``exponent``: the ``SweepResult`` of
  ``scenarios.sweep`` on the configuration, or, where the sweep refuses, the
  type and text of its error under ``refused``;
* ``solve`` and ``witness``: the exit code, stdout and stderr of the command
  at the first listed loss, at the deepest one and at ``--delta 1e-6``.

Three configurations whose runs refuse (:data:`REFUSED`) are written beside
them and hashed the same way, once.  Then six more commands: ``np-spectrum
--nmax 64``, ``np-spectrum --nmax 20 --lambda 2 --mu 0.5``, ``waves-check
--n 3 --R 1.3``, ``constants --n 5``, ``kernels --n 4`` and the refused
``np-spectrum --nmax 1``.  At the default seeds 1-5 that is 138 outputs.

Each tree runs every command in one fresh process, through ``cli.main``,
with ``PYTHONPATH=<tree>/src`` and one BLAS thread; the configurations are
written once, so both trees read the same files.  The script prints one
hash per output and a total.  With ``--against DIR`` it also runs the tree
DIR (the parent), lists every output whose hash differs and exits 1 if any
does.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import subprocess
import sys
import tempfile
from pathlib import Path

from layers import GATED_WORKLOADS, ROOT, _env, _workloads

FIXED_DELTAS = [1e-2, 1e-3, 1e-4, 1e-5]
# configurations on the refusal paths: a cored fixed-multiplier row whose flux leaves the float range (q = 1e200),
# the q = 2.3 cored schedule whose dual bound J overflows (gamma = 1e200), and a core-free family-3 row 1e-10 off
# its plasmon constant, whose dual bound breaks the sandwich at the smallest losses
REFUSED = {
    "far_source": {"schema": 1, "lambda": 1.0, "mu": 1.0, "core_radius": 1.0, "shell_radius": 2.0, "q": 1e200,
                   "n_max": 12, "c_mode": {"fixed": -4.0}, "source_modes": [[3, 1, 1, 1.0, 0.0]],
                   "delta_list": FIXED_DELTAS},
    "sched_q2.3_gamma1e200": {"schema": 1, "lambda": 1.0, "mu": 1.0, "core_radius": 1.0, "shell_radius": 2.0,
                              "q": 2.3, "n_max": 12, "c_mode": {"schedule": 1},
                              "source_modes": [[None, 1, 1, 1e200, 0.0]],
                              "delta_list": [10.0 ** (-(4 + i) / 2) for i in range(13)]},
    "detuned_nocore": {"schema": 1, "lambda": 1.0, "mu": 1.0, "shell_radius": 2.0, "q": 2.6, "n_max": 12,
                       "c_mode": {"fixed": -0.657894736875}, "source_modes": [[3, 3, 1, 1.0, 0.0]],
                       "delta_list": [1e-12, 1e-13, 1e-14, 1e-15]},
}
EXTRA = {
    "np-spectrum:64": ["np-spectrum", "--nmax", "64"],
    "np-spectrum:20:lambda2:mu0.5": ["np-spectrum", "--nmax", "20", "--lambda", "2", "--mu", "0.5"],
    "waves-check:3:R1.3": ["waves-check", "--n", "3", "--R", "1.3"],
    "constants:5": ["constants", "--n", "5"],
    "kernels:4": ["kernels", "--n", "4"],
    "np-spectrum:refused": ["np-spectrum", "--nmax", "1"],
}


def _config_jobs(label: str, path: str, cfg: dict) -> list[dict]:
    """The six outputs of one configuration, written at ``path``."""
    losses = [[], ["--delta", repr(cfg["delta_list"][-1])], ["--delta", "1e-6"]]
    return [{"label": f"{label}:sweep", "argvs": [["sweep", "--config", path, "--csv", "{csv}"]]},
            {"label": label, "sweep": path},
            *({"label": f"{label}:{cmd}", "argvs": [[cmd, "--config", path, *loss] for loss in losses]}
              for cmd in ("solve", "witness"))]


def jobs(seeds: list[int], work: Path) -> list[dict]:
    """The outputs to hash, in order, their configurations written under ``work``."""
    workloads = _workloads()
    out = []
    for seed in seeds:
        for name in GATED_WORKLOADS:
            plan = workloads.make_plan(name, seed, work / f"{name}-{seed}")
            for ref, cfg in plan.configs.items():
                out += _config_jobs(f"{ref}@{seed}", str(work / f"{name}-{seed}" / f"{ref}.json"), cfg)
    for ref, cfg in REFUSED.items():
        path = work / f"{ref}.json"
        path.write_text(json.dumps(cfg, sort_keys=True) + "\n", encoding="utf-8")
        out += _config_jobs(ref, str(path), cfg)
    return out + [{"label": label, "argvs": [argv]} for label, argv in EXTRA.items()]


def _digest(value) -> str:
    return hashlib.sha256(repr(value).encode()).hexdigest()


def child(jobs: list[dict], out_dir: Path) -> dict[str, str]:
    """In this process: the hash of each job's outputs, by label (a sweep job gives three)."""
    from elastoplasmon import cli
    from elastoplasmon.scenarios import sweep
    from elastoplasmon.transmission import REFUSALS

    hashes = {}
    for job in jobs:
        if "sweep" in job:
            cfg = cli.load_config(job["sweep"])
            try:
                result = sweep(cli._configuration(cfg), cfg["delta_list"])
            except REFUSALS as exc:
                hashes[f"{job['label']}:refused"] = _digest((type(exc).__name__, str(exc)))
                continue
            for part, value in (("meta", result.meta), ("rows", result.rows),
                                ("exponent", (result.growth_exponent, result.verdict))):
                hashes[f"{job['label']}:{part}"] = _digest(value)
            continue
        outputs = []
        for argv in job["argvs"]:
            csv = out_dir / "out.csv"
            csv.unlink(missing_ok=True)
            stdout, stderr = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                code = cli.main([str(csv) if a == "{csv}" else a for a in argv])
            outputs.append((code, stdout.getvalue(), stderr.getvalue(), csv.read_bytes() if csv.exists() else None))
        hashes[job["label"]] = _digest(outputs)
    return hashes


def run_tree(tree: Path, todo: list[dict], work: Path) -> dict[str, str]:
    """The hashes of ``todo`` from one fresh process running the package of ``tree``."""
    out_dir = Path(tempfile.mkdtemp(dir=work))
    proc = subprocess.run([sys.executable, __file__, "--child", str(out_dir)], input=json.dumps(todo),
                          env=_env(tree), cwd=work, capture_output=True, text=True)
    if proc.returncode != 0:
        raise RuntimeError(f"the outputs of {tree} failed:\n{proc.stderr}")
    return json.loads(proc.stdout)


def _seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seeds", type=_seeds, default=_seeds("1-5"), help="a seed or a range, as 1-5")
    ap.add_argument("--against", type=Path, help="the tree to compare with (its src is run)")
    ap.add_argument("--child", type=Path, help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.child:
        print(json.dumps(child(json.load(sys.stdin), args.child)))
        return 0
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        todo = jobs(args.seeds, work)
        here = run_tree(ROOT, todo, work)
        there = run_tree(args.against.resolve(), todo, work) if args.against else here
    differ = [label for label in here if here[label] != there.get(label)]
    for label, digest in here.items():
        print(f"{label}  {digest[:16]}" + (f"  differs: {there.get(label, 'missing')[:16]}" if label in differ else ""))
    print(f"total  {_digest(list(here.items()))[:16]}  ({len(here)} outputs)")
    if args.against:
        print(f"{len(differ)} of {len(here)} outputs differ from {args.against}")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
