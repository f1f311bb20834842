"""The layer-timing harness ``bench/layers.py``: its record's schema and its pair summary."""

import importlib.util
import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

WITNESSES = ("witness_nocore", "witness_fixed_c", "witness_core_resonant", "witness_radial_nonresonant")
GATED = ("sched_q2.3", "sched_q3.6", "nocore_zeta3_3", "cored_zeta2_4")
COMMANDS = ({"import", "np-spectrum:64"} | {f"waves-check:{n}" for n in (20, 40, 64)}
            | {f"{kind}:{name}" for kind in ("sweep", "solve") for name in GATED})  # the cold commands
COLD = COMMANDS | {"import:package", "import:compile", "import:dataclasses"} | {f"first_sweep:{name}" for name in GATED}
WARM = ({f"square_solve[m={m},k={k}]" for m in (2, 6, 8, 12) for k in (1, 13)}
        | {f"solve_mode[family={fam}]" for fam in (1, 2, 3)} | {"dissipation_E", "column:dissipations"}
        | {f"{kind}:{name}" for kind in ("witness", "column") for name in WITNESSES}
        | {f"sweep:{name}" for name in GATED})


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
    assert {"schema", "label", "git", "nproc", "repeats", "versions", "cold_s", "cold_rss_mb", "warm_s"} <= set(record)
    assert record["schema"] == 1 and record["label"] == "schema" and record["repeats"] == 1
    assert {"python", "numpy", "blas"} <= set(record["versions"])
    assert set(record["cold_s"]) == COLD and set(record["cold_rss_mb"]) == COMMANDS and set(record["warm_s"]) == WARM
    assert all(v > 0 for part in ("cold_s", "cold_rss_mb", "warm_s") for v in record[part].values())
    # a fresh interpreter with numpy loaded holds more than 10 MB, and none of these reaches 1 GB
    assert all(10 < v < 1024 for v in record["cold_rss_mb"].values()), record["cold_rss_mb"]


def test_pairs_alternate_and_summarize(monkeypatch):
    # each pair runs both sides, the first side alternating; each side's
    # record holds its medians and runs, and the change's the parent's
    # interquartile range and the pairs won
    layers = _layers(monkeypatch)
    order = []

    def measure(tree, repeats):
        order.append(tree.name)
        value = {"parent": 2.0, "change": 1.0}[tree.name] + len(order) / 100
        mb = {"parent": 40.0, "change": 30.0}[tree.name] + len(order)
        return {"schema": 1, "git": None, "nproc": 1, "versions": {}, "cold_s": {"import": value},
                "cold_rss_mb": {"import": mb}, "warm_s": {"sweep:x": value}}

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
    # the max-RSS part is summarized as the times are
    assert parent["runs"]["cold_rss_mb/import"] == [41.0, 44.0, 45.0, 48.0]
    assert change["runs"]["cold_rss_mb/import"] == [32.0, 33.0, 36.0, 37.0]
    assert parent["cold_rss_mb"] == {"import": 44.5} and change["cold_rss_mb"] == {"import": 34.5}
    assert change["against"]["cold_rss_mb/import"] == {"parent_median": 44.5, "parent_iqr": 5.5, "change_wins": 4}


def test_against_runs_both_sides_from_paths_of_one_length(tmp_path, monkeypatch):
    # --against runs each tree's src from a copy, <tmp>/parent/src and
    # <tmp>/change/src, so the two sides' PYTHONPATH strings have one length
    # however long the trees' own paths are (a cold process's max-RSS moves
    # with the path it runs from); each copy holds its tree's sources
    layers = _layers(monkeypatch)
    parent = tmp_path / "a-parent-checkout-at-a-longer-path-than-this-one"
    (parent / "src" / "elastoplasmon").mkdir(parents=True)
    (parent / "src" / "elastoplasmon" / "__init__.py").write_text("# parent\n")
    seen = []

    def measure(tree, repeats):
        package = tree / "src" / "elastoplasmon" / "__init__.py"
        seen.append((layers._env(tree)["PYTHONPATH"], package.read_text() == "# parent\n"))
        return {"schema": 1, "git": None, "nproc": 1, "versions": {}, "cold_s": {"import": 1.0},
                "cold_rss_mb": {"import": 30.0}, "warm_s": {"sweep:x": 1.0}}

    monkeypatch.setattr(layers, "measure", measure)
    assert layers.main(["--against", str(parent), "--pairs", "2", "--out", str(tmp_path)]) == 0
    (parent_path, is_parent), (change_path, is_change) = seen[:2]
    assert len(parent_path) == len(change_path) and parent_path != change_path
    assert is_parent and not is_change and seen[2:] == [seen[1], seen[0]]
    assert parent_path.endswith("/parent/src") and change_path.endswith("/change/src")
    assert json.loads((tmp_path / "BENCH_local.json").read_text())["git"] == layers._git(ROOT)
