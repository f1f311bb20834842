"""The layer-timing harness ``bench/layers.py``: its record's schema and its pair summary."""

import importlib.util
import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

WITNESSES = ("witness_nocore", "witness_fixed_c", "witness_core_resonant", "witness_radial_nonresonant")
COLD = ({"import", "import:package", "import:compile", "import:dataclasses", "np-spectrum:64"}
        | {f"waves-check:{n}" for n in (20, 40, 64)}
        | {f"{kind}:{name}" for kind in ("sweep", "first_sweep", "solve")
           for name in ("sched_q2.3", "sched_q3.6", "nocore_zeta3_3", "cored_zeta2_4")})
WARM = ({f"square_solve[m={m},k={k}]" for m in (2, 6, 8, 12) for k in (1, 13)}
        | {f"solve_mode[family={fam}]" for fam in (1, 2, 3)} | {"dissipation_E", "column:dissipations"}
        | {f"{kind}:{name}" for kind in ("witness", "column") for name in WITNESSES}
        | {f"sweep:{name}" for name in ("sched_q2.3", "sched_q3.6", "nocore_zeta3_3", "cored_zeta2_4")})


def _layers(monkeypatch):
    spec = importlib.util.spec_from_file_location("bench_layers", ROOT / "bench" / "layers.py")
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
    return module


def test_layer_record_names_every_layer(tmp_path):
    # one repeat of every cold command and warm layer of this tree
    r = subprocess.run([sys.executable, str(ROOT / "bench" / "layers.py"), "--label", "schema", "--repeats", "1",
                        "--out", str(tmp_path)], capture_output=True, text=True)
    assert r.returncode == 0, r.stderr
    record = json.loads((tmp_path / "BENCH_schema.json").read_text())
    assert {"schema", "label", "git", "nproc", "repeats", "versions", "cold_s", "warm_s"} <= set(record)
    assert record["schema"] == 1 and record["label"] == "schema" and record["repeats"] == 1
    assert {"python", "numpy", "blas"} <= set(record["versions"])
    assert set(record["cold_s"]) == COLD and set(record["warm_s"]) == WARM
    assert all(v > 0 for part in ("cold_s", "warm_s") for v in record[part].values())


def test_pairs_alternate_and_summarize(monkeypatch):
    # each pair runs both sides, the first side alternating; each side's
    # record holds its medians and runs, and the change's the parent's
    # interquartile range and the pairs won
    layers = _layers(monkeypatch)
    order = []

    def measure(tree, repeats):
        order.append(tree.name)
        value = {"parent": 2.0, "change": 1.0}[tree.name] + len(order) / 100
        return {"schema": 1, "git": None, "nproc": 1, "versions": {}, "cold_s": {"import": value},
                "warm_s": {"sweep:x": value}}

    monkeypatch.setattr(layers, "measure", measure)
    parent, change = layers.pairs(Path("parent"), Path("change"), 4, 1)
    assert order == ["parent", "change", "change", "parent"] * 2
    assert parent["runs"]["cold_s/import"] == [2.01, 2.04, 2.05, 2.08]
    assert change["runs"]["cold_s/import"] == [1.02, 1.03, 1.06, 1.07]
    assert parent["cold_s"] == {"import": 2.045} and change["cold_s"] == {"import": 1.045}
    assert set(change["warm_s"]) == {"sweep:x"} and parent["pairs"] == change["pairs"] == 4
    assert parent["repeats"] == change["repeats"] == 1
    m = change["against"]["cold_s/import"]
    assert m["change_wins"] == 4 and m["parent_median"] == 2.045
    assert abs(m["parent_iqr"] - 0.055) < 1e-12  # statistics.quantiles, exclusive method
    assert "against" not in parent
