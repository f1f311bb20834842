"""Output checker: compares numbers, never CSV bytes.

BLAS threading alone moves the last digits of a growth exponent, so every
check parses the output and applies a tolerance:

- sweep verdict and per-row ``n_delta`` equal the reference table;
- every row satisfies the sandwich ``J_lower <= E_delta <= I_upper`` with
  slack ``1e-9 * max(|E_delta|, 1)``;
- every row's ``E_delta`` is within ``1e-8`` relative of the reference;
- ``waves-check`` reports a worst residual below ``1e-6``;
- the Neumann-Poincare spectrum holds every mapped plasmon constant for
  ``n = 2, 3`` within ``2e-3``;
- a command exits 0.

Each check is one operation.  Every failed check makes the run's output
wrong, except one: ``solve`` exiting 1 (an uncaught exception, the known
``IndexError`` on deep schedules) is marked ``output=False`` and counts as a
failed operation only.  ``solve`` exiting 2 means its own residual check
found a residual of 1e-8 or more, which is a wrong output.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

REFERENCE = Path(__file__).resolve().parent / "reference.json"
SANDWICH_SLACK = 1e-9
E_REL_TOL = 1e-8
WAVES_MAX_RESIDUAL = 1e-6
NP_TOL = 2e-3
CRASH_EXIT = 1  # an exception escaped cli.main (replay.run_cli maps it to 1 too)


@dataclass(frozen=True)
class Check:
    name: str
    ok: bool
    detail: str = ""
    output: bool = True  # False: a crash without output (a failed operation, not a wrong number)


def load_reference(path: Path = REFERENCE) -> dict:
    return json.loads(path.read_text(encoding="utf-8"))


def parse_sweep_csv(text: str) -> tuple[list[dict], str]:
    """Rows (delta, n_delta, E_delta, I_upper, J_lower) and the verdict."""
    rows, verdict = [], ""
    body = [ln for ln in text.splitlines() if ln and not ln.startswith("#")]
    header = body[0].split(",")
    for line in body[1:]:
        cell = dict(zip(header, line.split(",")))
        rows.append({
            "delta": float(cell["delta"]),
            "n_delta": int(cell["n_delta"]),
            "E_delta": float(cell["E_delta"]),
            "I_upper": float(cell["I_upper"]) if cell["I_upper"] else None,
            "J_lower": float(cell["J_lower"]) if cell["J_lower"] else None,
        })
        verdict = cell["verdict"] or verdict
    return rows, verdict


def check_sweep(label: str, text: str | None, ref: dict) -> list[Check]:
    """Verdict, n_delta, sandwich and E_delta checks of one sweep CSV."""
    names = ("verdict", "n_delta", "sandwich", "E_delta")
    try:
        rows, verdict = parse_sweep_csv(text)
    except (AttributeError, IndexError, KeyError, ValueError) as exc:
        return [Check(f"{label}.{n}", False, f"unreadable CSV: {exc!r}") for n in names]
    ref_rows = ref["rows"]
    if [r["delta"] for r in rows] != [r["delta"] for r in ref_rows]:
        return [Check(f"{label}.{n}", False, "loss list differs from the reference") for n in names]
    out = [Check(f"{label}.verdict", verdict == ref["verdict"], f"{verdict} vs {ref['verdict']}")]
    got_n = [r["n_delta"] for r in rows]
    want_n = [r["n_delta"] for r in ref_rows]
    out.append(Check(f"{label}.n_delta", got_n == want_n, f"{got_n} vs {want_n}"))
    bad = []
    for r in rows:
        E, I, J = r["E_delta"], r["I_upper"], r["J_lower"]
        slack = SANDWICH_SLACK * max(abs(E), 1.0)
        if (J is not None and J > E + slack) or (I is not None and I < E - slack):
            bad.append(r["delta"])
    out.append(Check(f"{label}.sandwich", not bad, f"violated at delta {bad}" if bad else ""))
    worst = max(abs(r["E_delta"] - w["E_delta"]) / abs(w["E_delta"]) for r, w in zip(rows, ref_rows))
    out.append(Check(f"{label}.E_delta", worst <= E_REL_TOL, f"worst relative deviation {worst:.3e}"))
    return out


def check_waves(stdout: str) -> Check:
    for line in stdout.splitlines():
        if line.startswith("worst residual "):
            worst = float(line.split()[-1])
            return Check("waves.worst_residual", worst < WAVES_MAX_RESIDUAL, f"{worst:.3e}")
    return Check("waves.worst_residual", False, "no worst-residual line")


def check_np(text: str | None, targets: list[float]) -> Check:
    try:
        body = [ln for ln in text.splitlines() if ln and not ln.startswith("#")][1:]
        eigs = [float(ln.split(",")[0]) for ln in body]
    except (AttributeError, ValueError) as exc:
        return Check("np.constants", False, f"unreadable CSV: {exc!r}")
    misses = [t for t in targets if min((abs(e - t) for e in eigs), default=math.inf) > NP_TOL]
    return Check("np.constants", not misses, f"unmatched {misses}" if misses else "")


def check_result(result: dict, ref: dict) -> list[Check]:
    """All checks of one command result (as written by ``replay.run_cli``)."""
    kind = result["kind"]
    label = result["ref"] or kind
    code = result["code"]
    crashed = kind == "solve" and code == CRASH_EXIT
    checks = [Check(f"{label}.{kind}.exit", code == 0, f"exit {code}", output=not crashed)]
    if kind == "sweep":
        checks += check_sweep(label, _read(result["csv"]), ref["sweeps"][result["ref"]])
    elif kind == "waves":
        checks.append(check_waves(result["stdout"]))
    elif kind == "np":
        checks.append(check_np(_read(result["csv"]), ref["np_targets"]))
    return checks


def all_correct(checks: list[Check]) -> bool:
    """The run's ``correct``: no failed check other than a known crash."""
    return not any(c.output for c in checks if not c.ok)


def _read(path: str | None) -> str | None:
    try:
        return Path(path).read_text(encoding="utf-8")
    except (OSError, TypeError):
        return None
