"""Write ``reference.json``, the seed-independent table the checker uses.

    PYTHONPATH=src python3 perfbench/record_reference.py

Runs every sweep of every workload once at seed 0 through
``elastoplasmon.cli.main`` and records per-row ``delta``, ``n_delta`` and
``E_delta`` and the verdict, plus the Neumann-Poincare image
``(c+1)/(2(c-1))`` of each plasmon constant for n = 2, 3.  The dissipation
does not depend on the seed's kernel index or phase (it is rotation-
invariant), so the table checks every seed.  Re-record only when a change
is meant to alter these numbers, and say so in that change.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import check  # noqa: E402
import workloads  # noqa: E402


def main() -> int:
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
    import elastoplasmon.cli as cli
    from elastoplasmon.lame import LameParams
    from elastoplasmon.waves import np_eigenvalue_map, plasmon_constants

    sweeps = {}
    with tempfile.TemporaryDirectory(dir=HERE) as tmp:
        for name in workloads.WORKLOADS:
            plan = workloads.make_plan(name, 0, Path(tmp) / name)
            for cmd in workloads.commands_in(plan.commands, Path(tmp) / name / "out"):
                if cmd.kind != "sweep":
                    continue
                if cli.main(list(cmd.argv)) != 0:
                    raise SystemExit(f"sweep {cmd.ref} failed")
                rows, verdict = check.parse_sweep_csv(Path(cmd.csv).read_text(encoding="utf-8"))
                sweeps[cmd.ref] = {
                    "verdict": verdict,
                    "rows": [{k: r[k] for k in ("delta", "n_delta", "E_delta")} for r in rows],
                }
    params = LameParams(1.0, 1.0)
    targets = [np_eigenvalue_map(c) for n in (2, 3) for c in plasmon_constants(params, n).as_tuple()]
    sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=HERE, capture_output=True, text=True).stdout.strip()
    ref = {"recorded_at": sha or "unknown", "sweeps": sweeps, "np_targets": targets}
    check.REFERENCE.write_text(json.dumps(ref, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {check.REFERENCE}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
