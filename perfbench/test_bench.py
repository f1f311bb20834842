"""Tests of the benchmark itself: the checker must flag doctored outputs.

    python3 -m pytest -q perfbench

Pure Python: needs neither numpy nor the elastoplasmon package.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

import check
import spans
import workloads

REF = check.load_reference()
BENCHMARK = json.loads((Path(__file__).resolve().parents[1] / "BENCHMARK.json").read_text())


def sweep_csv(ref: dict, **edits) -> str:
    """A sweep CSV as the CLI writes it, rebuilt from the reference rows."""
    rows = [dict(r) for r in ref["rows"]]
    verdict = edits.pop("verdict", ref["verdict"])
    for i, fields in edits.get("rows", {}).items():
        rows[i].update(fields)
    lines = ["# elastoplasmon sweep schema=1", "# config={}",
             "delta,n_delta,c,E_delta,I_upper,J_lower,growth_exponent,verdict"]
    for i, r in enumerate(rows):
        last = i == len(rows) - 1
        cells = [repr(r["delta"]), str(r["n_delta"]), "-1.5", repr(r["E_delta"]),
                 repr(r["I_upper"]) if r.get("I_upper") is not None else "",
                 repr(r["J_lower"]) if r.get("J_lower") is not None else "",
                 "0.5" if last else "", verdict if last else ""]
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n"


def failed(checks):
    return sorted(c.name.rsplit(".", 1)[-1] for c in checks if not c.ok)


@pytest.mark.parametrize("name", sorted(REF["sweeps"]))
def test_reference_rows_pass(name):
    assert failed(check.check_sweep(name, sweep_csv(REF["sweeps"][name]), REF["sweeps"][name])) == []


def test_flipped_verdict_is_flagged():
    ref = REF["sweeps"]["sched_q2.3"]
    assert failed(check.check_sweep("s", sweep_csv(ref, verdict="non-resonant"), ref)) == ["verdict"]


def test_perturbed_dissipation_is_flagged():
    ref = REF["sweeps"]["sched_q3.6"]
    E = ref["rows"][5]["E_delta"] * (1.0 + 1e-6)
    assert failed(check.check_sweep("s", sweep_csv(ref, rows={5: {"E_delta": E}}), ref)) == ["E_delta"]


def test_broken_sandwich_and_degree_are_flagged():
    ref = REF["sweeps"]["cored_zeta2_4"]
    E = ref["rows"][1]["E_delta"]
    doctored = sweep_csv(ref, rows={1: {"I_upper": E * (1 - 1e-6)}, 2: {"n_delta": 5}})
    assert failed(check.check_sweep("s", doctored, ref)) == ["n_delta", "sandwich"]


def test_missing_output_fails_every_sweep_check():
    ref = REF["sweeps"]["nocore_zeta3_3"]
    assert len(failed(check.check_sweep("s", None, ref))) == 4


def test_nonzero_exit_is_flagged():
    solve = check.check_result({"kind": "solve", "ref": "sched_q2.3", "code": 1, "stdout": ""}, REF)
    assert [(c.ok, c.output) for c in solve] == [(False, False)]
    assert check.all_correct(solve)
    # exit 2 is solve's own residual check failing: a wrong output
    solve = check.check_result({"kind": "solve", "ref": "sched_q2.3", "code": 2, "stdout": ""}, REF)
    assert [(c.ok, c.output) for c in solve] == [(False, True)]
    assert not check.all_correct(solve)
    waves = check.check_result({"kind": "waves", "ref": None, "code": 2,
                                "stdout": "worst residual 2.000e-09\n"}, REF)
    assert [(c.ok, c.output) for c in waves] == [(False, True), (True, True)]


def test_waves_and_np_checks():
    assert check.check_waves("worst residual 2.012e-09\n").ok
    assert not check.check_waves("worst residual 3.000e-06\n").ok
    assert not check.check_waves("").ok
    spectrum = "# np\neigenvalue,degree_tag,matched_c,matched_family,target\n" + "".join(
        f"{t + 1e-3!r},2,,,\n" for t in REF["np_targets"])
    assert check.check_np(spectrum, REF["np_targets"]).ok
    assert not check.check_np(spectrum, REF["np_targets"] + [0.4]).ok


def test_plans_are_seeded(tmp_path):
    for name, spec in workloads.WORKLOADS.items():
        one = workloads.make_plan(name, 7, tmp_path / "a")
        assert one == workloads.make_plan(name, 7, tmp_path / "a")
        other = workloads.make_plan(name, 8, tmp_path / "b")
        if spec.sweeps:
            assert one.configs != other.configs
        for sw in spec.sweeps:
            (n, fam, k, re, im), = one.configs[sw.name]["source_modes"]
            assert (n, fam) == (sw.degree, sw.family) and 1 <= k <= sw.k_max
            assert re * re + im * im == pytest.approx(1.0)
        assert len(one.checks) == len(spec.sweeps)


def test_pass_times_scale_each_command_by_the_calibrations_around_it():
    import run

    ref = run.CAL_REF_S
    raw, norm = run.pass_times([[1.0, 2.0], [3.0]], [ref, ref, 3 * ref, ref])
    assert raw == [3.0, 3.0]
    assert norm == pytest.approx([1.0 + 2.0 / 2, 3.0 / 2])


def test_layer_metrics_self_time():
    S = spans.Span
    trace = [S(0, None, 0, "cli.main", "cli.command", 0.0, 10.0),
             S(1, 0, 0, "scenarios.sweep", "scenarios.sweep", 1.0, 9.0,
               info={"slope": 0.51, "predicted": 0.6, "rows": [(2.0, 3.0, 1.0), (2.0, None, 1.5)]}),
             S(2, 1, 0, "harmonics.shared_tables", "harmonics.tables", 1.0, 4.0, info={"n_max": 40}),
             S(3, 1, 0, "transmission.solve_mode", "transmission.solve", 4.0, 6.0,
               info={"window": 3, "condition": 5.0, "lstsq_residual": 1e-14}),
             S(4, 3, 0, "transmission.kernel_basis", "waves.kernel", 4.0, 5.0),
             S(5, 1, 0, "scenarios.witness_nocore", "scenarios.witness", 6.0, 7.0, error="ValueError"),
             S(6, None, 1, "cli.main", "cli.command", 10.0, 11.0),
             S(7, 6, 1, "transmission.solve_mode", "transmission.solve", 10.0, 10.5,
               info={"window": 1, "condition": 2.0, "lstsq_residual": 1e-12}),
             # request 2 is a solve check: only residual_check_s reads it
             S(8, None, 2, "cli.main", "cli.command", 11.0, 14.0),
             S(9, 8, 2, "transmission.residual_check", "transmission.residual_check", 12.0, 14.0)]
    m = spans.layer_metrics(trace, n_commands=2)
    assert m["cli.self_s"] == 2.5 and m["scenarios.self_s"] == 3.0
    assert m["harmonics.self_s"] == 3.0 and m["transmission.self_s"] == 1.5 and m["waves.self_s"] == 1.0
    assert sum(m[f"{layer}.self_s"] for layer in spans.LAYERS) == 11.0
    assert m["harmonics.tables_s"] == 3.0 and m["harmonics.tables_n_max"] == 40
    assert m["waves.kernel_calls"] == 1 and m["transmission.solve_calls"] == 2
    assert m["transmission.window_yield"] == 0.5 and m["transmission.max_condition"] == 5.0
    assert m["transmission.residual_check_s"] == 2.0
    assert m["scenarios.witness_calls"] == 1 and m["scenarios.witness_yield"] == 0.0
    assert m["scenarios.sandwich_margin_min"] == 0.25
    assert m["scenarios.gate_margin"] == pytest.approx(0.01)
    assert m["scenarios.predicted_margin"] == pytest.approx(0.1)
    # run.py adds the probe and the trace.* metrics; the rest come from here
    per_layer = {x["name"] for x in BENCHMARK["per_layer"]}
    assert set(m) | {"lame.residual_probe_s"} | {k for k in per_layer if k.startswith("trace.")} == per_layer


def test_workloads_are_the_benchmark_s():
    per_layer = {x["name"] for x in BENCHMARK["per_layer"]}
    assert {w["name"] for w in BENCHMARK["workloads"]} <= set(workloads.WORKLOADS)
    for spec in workloads.WORKLOADS.values():
        assert set(spec.layers) <= per_layer
