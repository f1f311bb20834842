"""Command-line runner: determinism, round trips, exit codes."""

import ast
import copy
import dataclasses
import importlib
import importlib.util
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = str(Path(__file__).resolve().parents[1] / "src")


def run_cli(*args):
    env = dict(os.environ, PYTHONPATH=SRC)
    return subprocess.run(
        [sys.executable, "-m", "elastoplasmon.cli", *args],
        capture_output=True,
        text=True,
        env=env,
    )


BASE_CONFIG = {
    "schema": 1,
    "lambda": 1.0,
    "mu": 1.0,
    "core_radius": 1.0,
    "shell_radius": 2.0,
    "q": 3.0,
    "c_mode": {"fixed": -4.0},
    "source_modes": [[2, 1, 1, 1.0, 0.0]],
    "delta_list": [1e-2, 1e-3, 1e-4, 1e-5],
    "n_max": 12,
    "quadrature_exactness": 20,
}


def parse_report(csv_path):
    """Read a sweep CSV back: (config, rows as EnergyReport, growth exponent, verdict)."""
    from elastoplasmon.cli import CSV_COLUMNS
    from elastoplasmon.energy import EnergyReport

    cfg, rows, growth, verdict = None, [], math.nan, ""
    for line in Path(csv_path).read_text(encoding="utf-8").splitlines():
        if line.startswith("# config="):
            cfg = json.loads(line[len("# config="):])
        elif line.startswith("#") or line == CSV_COLUMNS or not line:
            continue
        else:
            cells = line.split(",")
            rows.append(EnergyReport(
                delta=float(cells[0]),
                n_delta=int(cells[1]) if cells[1] else None,
                c_used=float(cells[2]),
                E_delta=float(cells[3]),
                I_upper=float(cells[4]) if cells[4] else None,
                J_lower=float(cells[5]) if cells[5] else None,
            ))
            if cells[7]:
                growth, verdict = float(cells[6]), cells[7]
    if cfg is None:
        raise ValueError("no config header in CSV")
    return cfg, rows, growth, verdict


@pytest.fixture()
def config_file(tmp_path):
    path = tmp_path / "run.json"
    path.write_text(json.dumps(BASE_CONFIG))
    return str(path)


def test_constants_output():
    out = run_cli("constants", "--n", "2", "--lambda", "1", "--mu", "1")
    assert out.returncode == 0
    lines = dict(l.split(" = ") for l in out.stdout.strip().splitlines())
    assert float(lines["zeta1"]) == -4.0
    assert float(lines["zeta3"]) == -0.75
    assert float(lines["zeta2"]) == -2.0  # verified value; the -1.2 display is inconsistent


def test_kernels_output():
    out = run_cli("kernels", "--n", "2")
    assert out.returncode == 0
    assert "kernel dimension 5" in out.stdout
    assert "kernel dimension 3" in out.stdout
    assert "kernel dimension 7" in out.stdout


def test_kernels_output_is_unchanged():
    # stdout of the all-family bases, as printed before bases were built per family
    out = run_cli("kernels", "--n", "5")
    assert out.returncode == 0
    assert out.stdout == (
        "family 1: c = -1.75, kernel dimension 11, t-pattern [1]\n"
        "family 2: c = -2.193548387096774, kernel dimension 9, t-pattern [2]\n"
        "family 3: c = -0.58888888888888891, kernel dimension 13, t-pattern [3]\n"
    )


def test_kernels_output_where_plasmon_constants_coincide():
    # zeta1 = zeta2 at lambda=2, mu=0.5, n=8: the solver's sector kernels
    out = run_cli("kernels", "--n", "8", "--lambda", "2", "--mu", "0.5")
    assert out.returncode == 0
    lines = out.stdout.strip().splitlines()
    assert len(lines) == 3
    for line, dim, fam in zip(lines, (17, 15, 19), (1, 2, 3)):
        assert line.startswith(f"family {fam}:")
        assert line.endswith(f"kernel dimension {dim}, t-pattern [{fam}]"), line


def test_waves_check_passes():
    out = run_cli("waves-check", "--n", "2", "--R", "1.5")
    assert out.returncode == 0
    assert "worst residual" in out.stdout


def test_waves_check_fails_on_a_nan_residual(monkeypatch, capsys):
    sys.path.insert(0, SRC)
    from elastoplasmon import cli, waves

    def nan_residuals(*args, **kwargs):
        return {"continuity": math.nan, "transmission": 0.0, "lame_interior": 0.0, "lame_exterior": 0.0}

    monkeypatch.setattr(waves, "verify_perfect_wave", nan_residuals)
    assert cli.main(["waves-check", "--n", "2"]) == 2
    out = capsys.readouterr()
    assert out.out.splitlines()[-1] == "worst residual nan"
    lines = out.err.splitlines()
    assert len(lines) == 1 and json.loads(lines[0]) == {"code": 2, "error": "worst residual nan is not below 1e-6"}


def test_solve_fails_its_gate_with_one_json_line(config_file, monkeypatch, capsys):
    # stdout keeps every residual line; the failed gate names its residual on stderr
    sys.path.insert(0, SRC)
    from elastoplasmon import cli, fields

    monkeypatch.setattr(fields, "residual_check", lambda *args: {"lame": 2e-8, "source_jump": 0.0})
    assert cli.main(["solve", "--config", config_file]) == 2
    out = capsys.readouterr()
    assert out.out.splitlines()[1:] == ["residual lame: 2.000e-08", "residual source_jump: 0.000e+00"]
    lines = out.err.splitlines()
    assert len(lines) == 1 and json.loads(lines[0]) == {"code": 2, "error": "residual not below 1e-8: lame 2.000e-08"}


def test_waves_check_passes_near_the_incompressible_limit():
    out = run_cli("waves-check", "--n", "4", "--lambda", "1e12")
    assert out.returncode == 0 and not out.stderr
    assert float(out.stdout.splitlines()[-1].split()[-1]) < 1e-13


@pytest.mark.parametrize("n, R", [("3", "1e35"), ("64", "300")])
def test_waves_check_refuses_overflowing_amplitudes(capsys, n, R):
    # R^(2n+3) of the family-3 exterior overflows to inf at n = 3, R = 1e35,
    # and R^(2n+1) raises OverflowError at n = 64, R = 300: either way one
    # JSON line that names R, before any trace is formed (no numpy warning)
    sys.path.insert(0, SRC)
    from elastoplasmon import cli

    assert cli.main(["waves-check", "--n", n, "--R", R]) == 2
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and f"perfect-wave amplitudes at R = {float(R)!r} overflow" in json.loads(lines[0])["error"]


@pytest.mark.parametrize("argv", [
    ["waves-check", "--n", "3", "--R", "0"],
    ["waves-check", "--n", "3", "--R", "nan"],
    ["waves-check", "--n", "3", "--R", "-1"],
    ["waves-check", "--n", "1"],
    ["waves-check", "--n", "{deg}"],
    ["kernels", "--n", "-10"],
    ["kernels", "--n", "{deg}"],
    ["np-spectrum", "--R", "inf"],
    ["np-spectrum", "--R", "0"],
    ["np-spectrum", "--nmax", "0"],
    ["np-spectrum", "--nmax", "1"],
    ["np-spectrum", "--nmax", "{deg}"],
    ["np-spectrum", "--nmax", "10000"],
])
def test_wave_arguments_are_bounded_before_any_run(argv, monkeypatch, capsys):
    sys.path.insert(0, SRC)
    from elastoplasmon import cli

    _forbid_runs(monkeypatch)
    assert cli.main([a.format(deg=cli.MAX_DEGREE + 1) for a in argv]) == 2
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and json.loads(lines[0])["code"] == 2


def test_sweep_deterministic_csv(config_file, tmp_path):
    c1, c2 = str(tmp_path / "a.csv"), str(tmp_path / "b.csv")
    r1 = run_cli("sweep", "--config", config_file, "--csv", c1)
    r2 = run_cli("sweep", "--config", config_file, "--csv", c2)
    assert r1.returncode == 0 and r2.returncode == 0
    assert Path(c1).read_bytes() == Path(c2).read_bytes()
    # the per-row solve diagnostics ride in the result's meta, machine
    # readable, and the CSV bytes are the same with them and without them
    sys.path.insert(0, SRC)
    from elastoplasmon import cli
    from elastoplasmon.scenarios import sweep

    cfg = cli.load_config(config_file)
    res = sweep(cli._configuration(cfg), cfg["delta_list"])
    solves = json.loads(json.dumps(res.meta["solves"]))
    assert [entry["row"] for entry in solves] == list(range(len(res.rows)))
    assert all(entry[f"{column}_condition"] >= 1.0 and 0.0 <= entry[f"{column}_backward_error"] <= 1e-10
               for entry in solves for column in ("lossy", "loss_free"))
    bare = res._replace(meta={key: v for key, v in res.meta.items() if key != "solves"})
    for result, name in ((res, "with.csv"), (bare, "without.csv")):
        cli.emit_report(result, cfg, str(tmp_path / name))
        assert (tmp_path / name).read_bytes() == Path(c1).read_bytes(), name


def test_scheduled_sweep_leaves_numpy_random_unimported(tmp_path):
    # numpy.random adds about 6 MB of resident memory; a sweep has no use for it
    cfg = dict(BASE_CONFIG, q=2.3, c_mode={"schedule": 1}, delta_list=[1e-2, 1e-3, 1e-4, 1e-5])
    path = tmp_path / "sched.json"
    path.write_text(json.dumps(cfg))
    code = (
        "import sys\n"
        "from elastoplasmon.cli import main\n"
        f"assert main(['sweep', '--config', {str(path)!r}, '--csv', {str(tmp_path / 'x.csv')!r}]) == 0\n"
        "print('numpy.random' in sys.modules)\n"
    )
    r = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                       env=dict(os.environ, PYTHONPATH=SRC))
    assert r.returncode == 0, r.stderr
    assert r.stdout.splitlines()[-1] == "False"


def test_sweep_csv_structure_and_roundtrip(config_file, tmp_path):
    csv = str(tmp_path / "out.csv")
    svg = str(tmp_path / "out.svg")
    r = run_cli("sweep", "--config", config_file, "--csv", csv, "--svg", svg)
    assert r.returncode == 0
    text = Path(csv).read_text()
    assert "delta,n_delta,c,E_delta,I_upper,J_lower,growth_exponent,verdict" in text
    data_lines = [l for l in text.splitlines() if l and not l.startswith("#")]
    verdicts = [l.split(",")[7] for l in data_lines[1:] if len(l.split(",")) > 7 and l.split(",")[7]]
    assert len(verdicts) == 1  # verdict appears exactly once
    assert verdicts[0] == "non-resonant"
    cfg, rows, growth, verdict = parse_report(csv)
    # every input parameter is recovered from the header (defaults may be added)
    assert all(cfg[k] == v for k, v in BASE_CONFIG.items())
    assert len(rows) == len(BASE_CONFIG["delta_list"])
    assert verdict == "non-resonant"
    assert Path(svg).read_text().startswith("<svg")


def test_validation_failure_exit_code(tmp_path):
    bad = dict(BASE_CONFIG, mu=-1.0)
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(bad))
    r = run_cli("sweep", "--config", str(path), "--csv", str(tmp_path / "x.csv"))
    assert r.returncode == 2
    record = json.loads(r.stderr.strip())
    assert record["code"] == 2


def test_source_degree_beyond_truncation_rejected(tmp_path):
    bad = dict(BASE_CONFIG, source_modes=[[30, 1, 1, 1.0, 0.0]])
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(bad))
    r = run_cli("sweep", "--config", str(path), "--csv", str(tmp_path / "x.csv"))
    assert r.returncode == 2
    assert "n_max" in json.loads(r.stderr.strip())["error"]


def test_io_failure_exit_code(config_file, tmp_path):
    r = run_cli("sweep", "--config", config_file, "--csv", str(tmp_path / "nodir" / "x.csv"))
    assert r.returncode == 3


def test_empty_result_exit_code_distinct():
    sys.path.insert(0, SRC)
    from elastoplasmon.cli import EXIT_EMPTY, EXIT_IO, EXIT_VALIDATION, EmptyResultError, emit_report
    from elastoplasmon.scenarios import SweepResult

    assert EXIT_EMPTY not in (EXIT_IO, EXIT_VALIDATION)
    with pytest.raises(EmptyResultError):
        emit_report(SweepResult(rows=[], verdict="", growth_exponent=0.0, meta={}), {}, "/tmp/unused.csv")


def test_solve_subcommand(config_file):
    r = run_cli("solve", "--config", config_file, "--delta", "0.01")
    assert r.returncode == 0
    assert "E_delta" in r.stdout
    assert all(float(l.split(":")[1]) < 1e-8 for l in r.stdout.splitlines() if l.startswith("residual"))


def test_solve_deep_schedule(tmp_path):
    # the scheduled degree (14 at delta=1e-4, R=2) is beyond the config's n_max
    cfg = dict(BASE_CONFIG, q=3.6, c_mode={"schedule": 1})
    path = tmp_path / "sched.json"
    path.write_text(json.dumps(cfg))
    r = run_cli("solve", "--config", str(path), "--delta", "1e-4")
    assert r.returncode == 0, r.stderr
    residuals = [float(l.split(":")[1]) for l in r.stdout.splitlines() if l.startswith("residual")]
    assert len(residuals) == 4 and max(residuals) < 1e-8


def test_witness_subcommand(config_file):
    r = run_cli("witness", "--config", config_file, "--delta", "0.001")
    assert r.returncode == 0
    assert "I_upper" in r.stdout


def test_witness_subcommand_without_loss_free_bound(tmp_path):
    # q=2.3 at delta 1e-4 (degree 14): the loss-free system is singular, so
    # only the dual bound is printed
    path = tmp_path / "sched.json"
    path.write_text(json.dumps(dict(BASE_CONFIG, q=2.3, c_mode={"schedule": 1})))
    r = run_cli("witness", "--config", str(path), "--delta", "1e-4")
    assert r.returncode == 0, r.stderr
    assert r.stdout.startswith("J_lower = ")
    assert not any(line.startswith("I_upper") for line in r.stdout.splitlines())


def test_witness_solves_one_loss_free_column(tmp_path, monkeypatch, capsys):
    # the witness command solves its row's loss-free column once, for both
    # primal witnesses, and no empty column: one column of the two degrees
    # on the cored fixed c = -4 config with family-1 sources at degrees 3
    # and 5, and one of the scheduled degree on the q = 3.6 schedule
    from elastoplasmon import cli, scenarios
    from elastoplasmon.scenarios import schedule_n_delta

    columns = []
    solve_column = scenarios._solve_column
    monkeypatch.setattr(scenarios, "_solve_column", lambda items: columns.append(
        [(med.delta, n) for med, _, n in items]) or solve_column(items))
    fixed = dict(BASE_CONFIG, source_modes=[[3, 1, 1, 1.0, 0.0], [5, 1, 2, 0.6, 0.8]])
    scheduled = dict(BASE_CONFIG, q=3.6, c_mode={"schedule": 1})
    for cfg, want in ((fixed, [[(0.0, 3), (0.0, 5)]]), (scheduled, [[(0.0, schedule_n_delta(2.0, 1e-3))]])):
        path = tmp_path / "run.json"
        path.write_text(json.dumps(cfg))
        columns.clear()
        assert cli.main(["witness", "--config", str(path), "--delta", "1e-3"]) == 0
        assert columns == want
        assert capsys.readouterr().out.count("I_upper") == 2  # both primal witnesses print their bounds


def test_np_spectrum_csv(tmp_path):
    csv = str(tmp_path / "np.csv")
    r = run_cli("np-spectrum", "--R", "1", "--nmax", "4", "--csv", csv)
    assert r.returncode == 0
    lines = Path(csv).read_text().splitlines()
    assert lines[1] == "eigenvalue,degree_tag,matched_c,matched_family,target"
    matched = [l for l in lines[2:] if l.split(",")[2]]
    assert matched  # at least the degree-2 constants are matched


SPHEROIDAL_CONFIG = {
    "schema": 1, "lambda": 1.0, "mu": 1.0, "shell_radius": 2.0, "q": 2.6, "n_max": 12,
    "c_mode": {"fixed": -25.0 / 38.0},  # zeta3 at n = 3: a core-free resonance
    "delta_list": [1e-2, 1e-3, 1e-4, 1e-5], "source_modes": [[3, 3, 1, 1.0, 0.0]],
}


@pytest.mark.parametrize("config, args", [
    (SPHEROIDAL_CONFIG, ("solve", "--delta", "0")),  # singular loss-free solve
    (SPHEROIDAL_CONFIG, ("solve", "--delta", "nan")),
    (dict(BASE_CONFIG, source_modes=[[2, 2, 1, 1.0, 0.0]]), ("solve", "--delta", "inf")),
    (dict(BASE_CONFIG, delta_list=[1e-2, math.nan, 1e-4]), ("sweep", "--csv", "{tmp}/x.csv")),
])
def test_solver_failures_are_json_errors(tmp_path, config, args):
    path = tmp_path / "run.json"
    path.write_text(json.dumps(config))
    r = run_cli(args[0], "--config", str(path), *(a.format(tmp=tmp_path) for a in args[1:]))
    assert r.returncode == 2
    lines = r.stderr.strip().splitlines()
    assert len(lines) == 1 and json.loads(lines[0])["code"] == 2
    assert "Traceback" not in r.stderr and "DLASCL" not in r.stdout + r.stderr


DEGREE3_CONFIG = dict(BASE_CONFIG, source_modes=[[3, 1, 1, 1.0, 0.0]])


@pytest.mark.parametrize("command", ["solve", "sweep"])
@pytest.mark.parametrize("q, error, message", [
    (1e200, "OverflowError", "rho^3 at rho = 1e+200 overflows the float range"),
    (1e60, "LinAlgError", "family-1 system at degree 3: Singular matrix"),
    (1e45, "ArithmeticError", "family-1 system at degree 3: equilibrated entries out of the float range"),
])
def test_far_source_errors_name_their_sphere_or_system(command, q, error, message, tmp_path):
    # the cored fixed c = -4 degree-3 config with its source sphere far out:
    # at q = 1e200 a power of q overflows and the error names the radius and
    # the power; at q = 1e60 the lossy system is exactly singular and numpy's
    # error is led by the system's name; at q = 1e45 a column scale of the
    # system is subnormal, its equilibrated entries leave the float range and
    # the system is refused by name before its condition, with no numpy warning.
    # Exit 2 with that one JSON line, and the solve raises the same exception
    # type as before
    sys.path.insert(0, SRC)
    from elastoplasmon.lame import LameParams
    from elastoplasmon.transmission import LayeredMedium, SourceSpec, solve_mode

    path = tmp_path / "far.json"
    path.write_text(json.dumps(dict(DEGREE3_CONFIG, q=q)))
    r = run_cli(command, "--config", str(path), *(["--csv", str(tmp_path / "x.csv")] if command == "sweep" else []))
    lines = r.stderr.splitlines()
    assert r.returncode == 2 and len(lines) == 1, r.stderr
    assert json.loads(lines[0])["error"] == message
    medium = LayeredMedium(shell_radius=2.0, c=-4.0, delta=1e-2, base=LameParams(1.0, 1.0), core_radius=1.0)
    with pytest.raises(Exception) as raised:
        solve_mode(medium, SourceSpec(q, {(3, 1, 1): 1.0}), 3)
    assert type(raised.value).__name__ == error and str(raised.value) == message


@pytest.mark.parametrize("command", ["solve", "sweep"])
def test_far_source_in_range_solves_quietly(command, tmp_path):
    # the same config at q = 1e40, where every scale of the system is in
    # the normal range: exit 0 and nothing on stderr
    path = tmp_path / "far.json"
    path.write_text(json.dumps(dict(DEGREE3_CONFIG, q=1e40)))
    r = run_cli(command, "--config", str(path), *(["--csv", str(tmp_path / "x.csv")] if command == "sweep" else []))
    assert r.returncode == 0 and r.stderr == "", r.stderr


@pytest.mark.parametrize("gamma", [0.0, 1e-170])
def test_sweep_refuses_energies_it_cannot_fit(gamma, tmp_path):
    # a source coefficient of 0, or of 1e-170 (its energy underflows), gives
    # E_delta = 0 on every row: the sweep refuses before the fit, naming the
    # first row's loss and energy, in one JSON line with no numpy warning and
    # no CSV
    path = tmp_path / "faint.json"
    path.write_text(json.dumps(dict(DEGREE3_CONFIG, source_modes=[[3, 1, 1, gamma, 0.0]])))
    r = run_cli("sweep", "--config", str(path), "--csv", str(tmp_path / "x.csv"))
    lines = r.stderr.splitlines()
    assert r.returncode == 2 and len(lines) == 1, r.stderr
    error = json.loads(lines[0])
    assert error["code"] == 2 and error["error"].startswith("E_delta = 0.0 at delta = 0.01 is not positive and finite")
    assert not (tmp_path / "x.csv").exists()


def test_sweep_refuses_a_broken_sandwich(tmp_path, monkeypatch, capsys):
    # a stub fixed-multiplier core whose I_upper is E_delta (1 - 1e-8), 1e-8
    # relative below the dissipation: the sweep refuses before the fit,
    # naming the first row's loss, E_delta and the bound, in one JSON line
    # with no CSV
    sys.path.insert(0, SRC)
    from elastoplasmon import cli, scenarios
    from elastoplasmon.energy import dissipation_E
    from elastoplasmon.transmission import solve_modes

    def low(rows, loss_free):
        return [(dissipation_E(solve_modes(med, src), med) * (1 - 1e-8),) for med, src, _ in rows]

    monkeypatch.setattr(scenarios, "WITNESSES", tuple(w._replace(core=low) if w.name == "witness_fixed_c"
                                                      else w for w in scenarios.WITNESSES))
    path = tmp_path / "run.json"
    path.write_text(json.dumps(BASE_CONFIG))
    assert cli.main(["sweep", "--config", str(path), "--csv", str(tmp_path / "x.csv")]) == 2
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1, lines
    error = json.loads(lines[0])
    assert error["code"] == 2 and error["error"].startswith("I_upper = ")
    assert "below E_delta = " in error["error"] and "at delta = 0.01: the variational sandwich" in error["error"]
    assert not (tmp_path / "x.csv").exists()


@pytest.mark.parametrize("config", [
    dict(BASE_CONFIG, source_modes=[7]),
    dict(BASE_CONFIG, source_modes=[[2, 1, 99, 1.0, 0.0]]),  # k above 2n+1
    dict(BASE_CONFIG, source_modes=[[2, 2, 4, 1.0, 0.0]]),  # k above 2n-1
    dict(BASE_CONFIG, source_modes=[[2, 1, 1, "1", 0.0]]),
    dict(BASE_CONFIG, source_modes=[[2, 1, 1, math.nan, 0.0]]),
    dict(BASE_CONFIG, source_modes=[]),
    dict(BASE_CONFIG, source_modes=[[None, 1, 1, 1.0, 0.0]]),  # fixed runs need a degree
    # scheduled: degree 7 at delta=1e-2, R=2 has 15 family-1 kernels
    dict(BASE_CONFIG, c_mode={"schedule": 1}, source_modes=[[None, 1, 16, 1.0, 0.0]]),
    dict(BASE_CONFIG, n_max="12"),
])
def test_invalid_source_modes_are_json_errors(tmp_path, config):
    path = tmp_path / "run.json"
    path.write_text(json.dumps(config))
    r = run_cli("solve", "--config", str(path))
    assert r.returncode == 2
    lines = r.stderr.strip().splitlines()
    assert len(lines) == 1 and json.loads(lines[0])["code"] == 2
    assert "Traceback" not in r.stderr


def test_unconverged_solve_is_a_json_error(config_file, monkeypatch, capsys):
    sys.path.insert(0, SRC)
    from elastoplasmon import cli
    from elastoplasmon.transmission import UnconvergedSolveError

    def unconverged(*args):
        raise UnconvergedSolveError("sector solve did not converge")

    monkeypatch.setattr(cli, "solve_modes", unconverged)
    assert cli.main(["solve", "--config", config_file]) == 2
    assert json.loads(capsys.readouterr().err)["code"] == 2


def _no_run(*args, **kwargs):
    raise AssertionError("a run started")


# the first computational call of each command, where it is defined:
# kernels and waves-check start with their kernel bases, np-spectrum with
# its spectrum, a witness in a core-free medium with the constants of its
# dual bound (looked up when its core runs, unlike the core, which the
# witness table holds), and solve, a witness in a cored medium (its
# loss-free bound) and a sweep's first row with their degree's solve
FIRST_CALLS = (("fields", "kernel_basis"), ("waves", "np_galerkin_spectrum"),
               ("scenarios", "_dual_constants"), ("transmission", "solve_mode"))


def _replace_everywhere(monkeypatch, original, value):
    # where it is defined and in every loaded module that imported it by name
    for mod in [m for key, m in sys.modules.items() if key.startswith("elastoplasmon.")]:
        for attr, held in list(vars(mod).items()):
            if held is original:
                monkeypatch.setattr(mod, attr, value)


def _forbid_runs(monkeypatch):
    for module, name in FIRST_CALLS:
        _replace_everywhere(monkeypatch, getattr(importlib.import_module(f"elastoplasmon.{module}"), name), _no_run)


GUARDED_RUNS = [
    ["kernels", "--n", "2"], ["waves-check", "--n", "2"], ["np-spectrum"],
    ["sweep", "--config", "{config}", "--csv", "{csv}"], ["solve", "--config", "{config}"],
    ["witness", "--config", "{config}"], ["witness", "--config", "{nocore}"],
]


@pytest.mark.parametrize("argv", GUARDED_RUNS)
def test_first_calls_guard_every_run(argv, config_file, tmp_path, monkeypatch):
    # the probe of the "before any run" tests: every valid command reaches
    # one of FIRST_CALLS before it computes anything else
    sys.path.insert(0, SRC)
    from elastoplasmon import cli

    nocore = tmp_path / "nocore.json"
    nocore.write_text(json.dumps(dict(BASE_CONFIG, core_radius=None, c_mode={"fixed": -4.0})))
    _forbid_runs(monkeypatch)
    with pytest.raises(AssertionError, match="a run started"):
        cli.main([a.format(config=config_file, csv=tmp_path / "x.csv", nocore=nocore) for a in argv])


@pytest.mark.parametrize("argv", GUARDED_RUNS)
def test_no_command_evaluates_a_field_at_points(argv, config_file, tmp_path, monkeypatch, capsys):
    # every check reads coefficients: with point evaluation refused, every
    # command of the first-call guard still runs to exit 0
    sys.path.insert(0, SRC)
    from elastoplasmon import cli, fields

    nocore = tmp_path / "nocore.json"
    nocore.write_text(json.dumps(dict(BASE_CONFIG, core_radius=None, c_mode={"fixed": -4.0})))
    monkeypatch.setattr(fields, "_eval_coefs", _no_run)
    assert cli.main([a.format(config=config_file, csv=tmp_path / "x.csv", nocore=nocore) for a in argv]) == 0
    assert not capsys.readouterr().err


@pytest.mark.parametrize("config", [
    dict(BASE_CONFIG, n_max=10**9, source_modes=[[10**9, 1, 1, 1.0, 0.0]]),
    # the scheduled degree at the deepest loss is about 1070
    dict(BASE_CONFIG, q=2.3, c_mode={"schedule": 1}, source_modes=[[None, 1, 1, 1.0, 0.0]],
         delta_list=[3e-323, 2e-323, 1e-323]),
    dict(BASE_CONFIG, quadrature_exactness=2 * 64 + 5),
])
def test_unreachable_degrees_rejected_before_any_run(tmp_path, config, monkeypatch, capsys):
    sys.path.insert(0, SRC)
    from elastoplasmon import cli

    with pytest.raises(cli.ValidationError, match=str(cli.MAX_DEGREE)):
        cli.validate_config(copy.deepcopy(config))
    _forbid_runs(monkeypatch)
    path = tmp_path / "run.json"
    path.write_text(json.dumps(config))
    for argv in (["sweep", "--csv", str(tmp_path / "x.csv")], ["solve"], ["witness"]):
        assert cli.main([argv[0], "--config", str(path), *argv[1:]]) == 2
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1 and json.loads(lines[0])["code"] == 2


# each pair passes LameParams, but its constants overflow (1e308) or their
# denominators underflow (1e-320); both once crashed a run with a traceback
EXTREME_MATERIALS = [(1e308, 1e308), (0.0, 1e-320)]


@pytest.mark.parametrize("argv, lam, mu", [
    (["constants", "--n", "2"], 1e308, 1e308),
    (["kernels", "--n", "2"], 1e308, 1e308),
    (["waves-check", "--n", "2"], 1e308, 1e308),
    (["np-spectrum"], 1e308, 1e308),
    (["kernels", "--n", "2"], 0.0, 1e-320),
    (["waves-check", "--n", "2"], 0.0, 1e-320),
    (["np-spectrum"], 0.0, 1e-320),
])
def test_extreme_materials_rejected_before_any_run(argv, lam, mu, monkeypatch, capsys):
    sys.path.insert(0, SRC)
    from elastoplasmon import cli

    _forbid_runs(monkeypatch)
    assert cli.main(argv + [f"--lambda={lam!r}", f"--mu={mu!r}"]) == 2
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and "out of the float range" in json.loads(lines[0])["error"]


@pytest.mark.parametrize("lam, mu", EXTREME_MATERIALS)
def test_extreme_material_configs_rejected_before_any_run(lam, mu, tmp_path, monkeypatch, capsys):
    sys.path.insert(0, SRC)
    from elastoplasmon import cli

    cfg = dict(BASE_CONFIG, c_mode={"fixed": -130.0 / 59.0}, source_modes=[[4, 2, 1, 1.0, 0.0]], mu=mu)
    cfg["lambda"] = lam
    with pytest.raises(cli.ValidationError, match="out of the float range"):
        cli.validate_config(copy.deepcopy(cfg))
    _forbid_runs(monkeypatch)
    path = tmp_path / "run.json"
    path.write_text(json.dumps(cfg))
    for argv in (["sweep", "--csv", str(tmp_path / "x.csv")], ["solve"], ["witness"]):
        assert cli.main([argv[0], "--config", str(path), *argv[1:]]) == 2
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1 and "out of the float range" in json.loads(lines[0])["error"]


@pytest.mark.parametrize("R, refusal", [("1e44", "perfect-wave amplitudes at R = 1e+44 overflow"),
                                        ("1.5e34", "--R 1.5e+34 is out of the float range at degree 3")])
def test_waves_check_refuses_the_radius_before_any_row(R, refusal, capsys):
    # at n = 3 the family-3 amplitudes overflow at R = 1e44; at R = 1.5e34
    # they are in range but the check's gradients and tractions overflow.
    # Either way the radius is refused by name before any row is printed:
    # one JSON line and no numpy warning (the suite raises RuntimeWarning)
    sys.path.insert(0, SRC)
    from elastoplasmon import cli

    assert cli.main(["waves-check", "--n", "3", "--R", R]) == 2
    out = capsys.readouterr()
    lines = out.err.splitlines()
    assert out.out == "" and len(lines) == 1 and refusal in json.loads(lines[0])["error"]


@pytest.mark.parametrize("argv", [
    ["np-spectrum", "--nmax", "8", "--R", "1e-200"],
    ["waves-check", "--n", "3", "--R", "1e-100"],
    ["waves-check", "--n", "3", "--R", "1e100"],
])
def test_radius_out_of_the_float_range_is_a_json_error(argv, capsys):
    # a power of a far-out radius overflows a Python float (OverflowError):
    # exit 2 with one JSON line, never a traceback
    sys.path.insert(0, SRC)
    from elastoplasmon import cli

    assert cli.main(argv) == 2
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and json.loads(lines[0])["code"] == 2


@pytest.mark.parametrize("argv, name", [
    (["np-spectrum", "--R", "1e-300"], "rho = 1e-300"),
    (["waves-check", "--n", "4", "--R", "1e-30"], "R = 1e-30"),
])
def test_radius_out_of_the_float_range_is_refused_by_name(argv, name):
    # a power of the radius that underflows the normal range (rho^3 of the
    # degree-1 single layer; R^11 of the degree-4 family-3 wave) is refused
    # naming the radius, not by a symptom further on: exactly one line on
    # stderr, with no numpy warning or LAPACK message before it
    out = run_cli(*argv)
    lines = out.stderr.splitlines()
    assert out.returncode == 2 and len(lines) == 1, out.stderr
    assert name in json.loads(lines[0])["error"]


@pytest.mark.parametrize("nmax, R", [("8", "3e20"), ("64", "1e-4"), ("64", "3e-3")])
def test_np_spectrum_rows_are_the_mapped_constants_at_a_far_radius(nmax, R):
    # K* is read off the single layer solved once on the unit sphere and
    # scaled to R, so a far radius is not an ill-conditioned system: exit 0,
    # nothing on stderr, and every row tagged n >= 2 a family's
    # np_eigenvalue_map(zeta) to 1e-12, once per member of its sector
    sys.path.insert(0, SRC)
    from elastoplasmon.lame import LameParams, plasmon_constants
    from elastoplasmon.waves import np_eigenvalue_map

    out = run_cli("np-spectrum", "--nmax", nmax, "--R", R)
    assert out.returncode == 0 and out.stderr == "", out.stderr
    rows: dict[int, list[float]] = {}
    for line in out.stdout.splitlines()[2:]:
        value, degree = line.split(",")[:2]
        rows.setdefault(int(degree), []).append(float(value))
    for n in range(2, int(nmax) + 1):
        want = sorted(np_eigenvalue_map(c) for c, J in zip(plasmon_constants(LameParams(1.0, 1.0), n).as_tuple(),
                                                            (n, n - 1, n + 1)) for _ in range(2 * J + 1))
        got = sorted(rows[n])
        assert len(got) == len(want) and max(abs(g - w) for g, w in zip(got, want)) <= 1e-12, (R, n)


def test_failed_sector_checks_are_json_errors(capsys):
    # correct builds whose roundoff, growing with lambda / mu or near
    # 3 lambda + 2 mu = 0, exceeds a sector check: exit 2, never a traceback
    sys.path.insert(0, SRC)
    from elastoplasmon import cli

    runs = [
        (["kernels", "--n", "2", f"--lambda={(1e-8 - 2.0) / 3.0!r}"], "is not a kernel"),
    ]
    for argv, message in runs:
        assert cli.main(argv) == 2, argv
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1 and message in json.loads(lines[0])["error"], argv


@pytest.mark.parametrize("lam, nmax", [(100.0, 64), (1e4, 5), (1e12, 5)])
def test_np_spectrum_rows_are_the_mapped_constants_at_large_lambda(lam, nmax, tmp_path):
    # the sector profiles keep their digits as lambda / mu grows: every row
    # tagged n >= 2 is a family's np_eigenvalue_map(zeta) once per member of
    # its sector, and the degree-1 rows are the three rigid rotations at
    # exactly 1/2, the J = 0 monopole (2 mu - 3 lambda) / (6 (lambda + 2 mu))
    # and five J = 2 rows at the zeta3 closed form continued to n = 1
    sys.path.insert(0, SRC)
    from elastoplasmon import cli
    from elastoplasmon.lame import LameParams, plasmon_constants
    from elastoplasmon.waves import np_eigenvalue_map

    csv = tmp_path / "np.csv"
    assert cli.main(["np-spectrum", f"--lambda={lam!r}", "--nmax", str(nmax), "--csv", str(csv)]) == 0
    rows: dict[int, list[float]] = {}
    for line in csv.read_text().splitlines()[2:]:
        value, degree = line.split(",")[:2]
        rows.setdefault(int(degree), []).append(float(value))
    assert sorted(rows) == list(range(1, nmax + 1))
    mu = 1.0
    for n in range(2, nmax + 1):
        want = sorted(np_eigenvalue_map(c) for c, J in zip(plasmon_constants(LameParams(lam, mu), n).as_tuple(),
                                                            (n, n - 1, n + 1)) for _ in range(2 * J + 1))
        got = sorted(rows[n])
        assert len(got) == len(want) and max(abs(g - w) for g, w in zip(got, want)) <= 1e-12, (lam, n)
    monopole = (2.0 * mu - 3.0 * lam) / (6.0 * (lam + 2.0 * mu))
    zeta3 = -(9.0 * lam + 14.0 * mu) / (2.0 * (3.0 * lam + 8.0 * mu))
    got = sorted(rows[1])
    want = sorted([0.5] * 3 + [monopole] + [np_eigenvalue_map(zeta3)] * 5)
    assert got.count(0.5) == 3 and len(got) == len(want), got
    assert max(abs(g - w) for g, w in zip(got, want)) <= 1e-12, (lam, got)


def _cored_zeta2_config(tmp_path, lam):
    # the cored fixed-multiplier family-2 run at zeta2(4) of lambda = mu = 1
    cfg = dict(BASE_CONFIG, c_mode={"fixed": -130.0 / 59.0}, source_modes=[[4, 2, 1, 1.0, 0.0]])
    cfg["lambda"] = lam
    path = tmp_path / f"run_{lam:g}.json"
    path.write_text(json.dumps(cfg))
    return str(path)


def test_family2_sweep_reaches_the_incompressible_limit(tmp_path, capsys):
    # closed-form radial profiles carry no roundoff that grows with lambda / mu:
    # the sweep runs at 1e6, 1e12 and 1e20 mu, and 1e20 reads as 1e12 (both
    # sit at the incompressible limit)
    sys.path.insert(0, SRC)
    from elastoplasmon import cli

    energies = {}
    for lam in (1e6, 1e12, 1e20):
        csv = tmp_path / f"x_{lam:g}.csv"
        assert cli.main(["sweep", "--config", _cored_zeta2_config(tmp_path, lam), "--csv", str(csv)]) == 0, lam
        assert not capsys.readouterr().err
        energies[lam] = [row.E_delta for row in parse_report(csv)[1]]
    assert all(abs(a - b) <= 1e-9 * abs(b) for a, b in zip(energies[1e20], energies[1e12]))


@pytest.mark.parametrize("lam", [1e9, 1e12, 1e20])
def test_solve_at_the_incompressible_limit_passes_its_residual_check(tmp_path, capsys, lam):
    # the residuals are normwise in the lambda-sized operator, so the roundoff
    # of lambda div u counts once: the cored family-2 run at zeta2(4) and the
    # cored family-1 schedule at q = 2.3 (degree 27 at delta = 1e-8) pass
    sys.path.insert(0, SRC)
    from elastoplasmon import cli

    schedule = tmp_path / "schedule.json"
    schedule.write_text(json.dumps(dict(BASE_CONFIG, q=2.3, c_mode={"schedule": 1}, delta_list=[1e-6, 1e-7, 1e-8],
                                        source_modes=[[None, 1, 1, 1.0, 0.0]], **{"lambda": lam})))
    for argv in (["--config", _cored_zeta2_config(tmp_path, lam)], ["--config", str(schedule), "--delta", "1e-8"]):
        assert cli.main(["solve", *argv]) == 0, argv
        out = capsys.readouterr()
        assert not out.err
        assert max(float(line.split()[-1]) for line in out.out.splitlines()[1:]) < 1e-14, out.out


def test_witness_without_an_applicable_witness_names_each_one(tmp_path, capsys):
    # a family-2 source in the cored medium: every witness is tried and refused
    sys.path.insert(0, SRC)
    from elastoplasmon import cli

    assert cli.main(["witness", "--config", _cored_zeta2_config(tmp_path, 1.0)]) == 2
    out = capsys.readouterr()
    assert not out.out
    lines = out.err.splitlines()
    assert len(lines) == 1
    error = json.loads(lines[0])
    assert error["code"] == 2 and error["error"].startswith("no witness applies: ")
    for name in ("witness_fixed_c", "witness_core_resonant", "witness_radial_nonresonant"):
        assert f"{name}: ValueError: " in error["error"]


def test_negative_exponent_values_are_option_values(capsys):
    # "--lambda -1e-3" is the valid pair (-1e-3, 1), not an unknown flag
    sys.path.insert(0, SRC)
    from elastoplasmon import cli

    assert cli.main(["kernels", "--n", "2", "--lambda", "-1e-3", "--mu", "1"]) == 0
    spaced = capsys.readouterr()
    assert cli.main(["kernels", "--n", "2", "--lambda=-1e-3", "--mu", "1"]) == 0
    assert spaced == capsys.readouterr() and not spaced.err
    assert "family 2: c = -4.0050075112669008" in spaced.out


COMMANDS = ["constants", "kernels", "waves-check", "np-spectrum", "solve", "sweep", "witness"]
ALL_COMMANDS = ", ".join(map(repr, COMMANDS))  # argparse's list of choices


@pytest.mark.parametrize("argv, message", [
    (["kernels", "--lambda", "1"], "the following arguments are required: --n"),
    (["kernels", "--n", "2", "--mu", "abc"], "argument --mu: invalid float value: 'abc'"),
    (["kernels", "--n", "2", "--mu", "-1e-3x"], "argument --mu: expected one argument"),
    (["sweep", "--config", "x.json", "--bogus"], "unrecognized arguments: --bogus"),
    ([], "the following arguments are required: command"),
    # a first token that names no command builds every subparser
    (["bogus"], "elastoplasmon: argument command: invalid choice: 'bogus' (choose from " + ALL_COMMANDS + ")"),
    (["--lambda", "1"], "elastoplasmon: argument command: invalid choice: '1' (choose from " + ALL_COMMANDS + ")"),
])
def test_argument_errors_are_json_errors(argv, message):
    r = run_cli(*argv)
    assert r.returncode == 2 and not r.stdout
    lines = r.stderr.splitlines()
    assert len(lines) == 1 and message in json.loads(lines[0])["error"], r.stderr


def _main_output(cli, argv, capsys):
    try:
        code = cli.main(argv)
    except SystemExit as exc:  # -h prints the help and exits
        code = f"exit {exc.code}"
    return code, *capsys.readouterr()


# -h and an argument error of the top level and of every subcommand
# (np-spectrum has no required argument)
@pytest.mark.parametrize("argv", [["-h"], []] + [
    [command, *tail] for command in COMMANDS for tail in (["-h"], ["--nmax"] if command == "np-spectrum" else [])
])
def test_one_subparser_texts_are_the_full_parsers(argv, monkeypatch, capsys):
    # the oracle: the same call through a parser built with every subparser
    sys.path.insert(0, SRC)
    from elastoplasmon import cli

    got = _main_output(cli, argv, capsys)
    full = cli.build_parser
    monkeypatch.setattr(cli, "build_parser", lambda argv=None: full())
    assert got == _main_output(cli, argv, capsys)
    code, out, err = got
    if "-h" in argv:
        assert code == "exit 0" and out.startswith(" ".join(["usage: elastoplasmon", *argv[:-1]])) and not err
    else:
        assert code == 2 and not out and json.loads(err)["code"] == 2


def test_a_command_builds_only_its_own_subparser(config_file, tmp_path, monkeypatch):
    sys.path.insert(0, SRC)
    import argparse

    from elastoplasmon import cli

    calls = []
    add_parser = argparse._SubParsersAction.add_parser

    def counted(self, name, **kwargs):
        calls.append(name)
        return add_parser(self, name, **kwargs)

    monkeypatch.setattr(argparse._SubParsersAction, "add_parser", counted)
    assert cli.main(["sweep", "--config", config_file, "--csv", str(tmp_path / "x.csv")]) == 0
    assert calls == ["sweep"]
    calls.clear()
    assert cli.main(["bogus"]) == 2
    assert calls == COMMANDS


@pytest.mark.parametrize("output", [None, [], {"csv": 1}, {"svg": 3}, {"csv": ""}])
def test_output_block_is_validated(output, tmp_path, monkeypatch, capsys):
    # a bad output block once crashed a sweep with a traceback (null, a list)
    # or wrote the CSV to an open file descriptor (a number)
    sys.path.insert(0, SRC)
    from elastoplasmon import cli

    cfg = dict(BASE_CONFIG, output=output)
    with pytest.raises(cli.ValidationError, match="output"):
        cli.validate_config(copy.deepcopy(cfg))
    path = tmp_path / "run.json"
    path.write_text(json.dumps(cfg))
    monkeypatch.setattr(cli, "sweep", _no_run)
    assert cli.main(["sweep", "--config", str(path)]) == 2
    out = capsys.readouterr()
    assert not out.out and json.loads(out.err)["code"] == 2


def test_sweep_refuses_a_missing_csv_path_before_solving(config_file, monkeypatch, capsys):
    sys.path.insert(0, SRC)
    from elastoplasmon import cli

    monkeypatch.setattr(cli, "sweep", _no_run)
    assert cli.main(["sweep", "--config", config_file]) == 2
    assert json.loads(capsys.readouterr().err) == {"code": 2, "error": "no CSV output path configured"}


@pytest.mark.parametrize("command", ["solve", "witness"])
@pytest.mark.parametrize("delta", ["0", "-1e-3", "nan"])
def test_delta_argument_is_positive_before_any_run(command, delta, config_file, monkeypatch, capsys):
    sys.path.insert(0, SRC)
    from elastoplasmon import cli

    _forbid_runs(monkeypatch)
    monkeypatch.setattr(cli, "solve_modes", _no_run)
    assert cli.main([command, "--config", config_file, "--delta", delta]) == 2
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and json.loads(lines[0]) == {
        "code": 2, "error": f"--delta must be finite and positive, got {float(delta)}"}


@pytest.mark.parametrize("argv, expected", [
    (["kernels", "--n", "2", "--lambda", "1e10", "--mu", "1"],
     "family 1: c = -4, kernel dimension 5, t-pattern [1]\n"
     "family 2: c = -0.66666666688888887, kernel dimension 3, t-pattern [2]\n"
     "family 3: c = -1.1874999998359375, kernel dimension 7, t-pattern [3]\n"),
    (["kernels", "--n", "2", "--lambda", "1", "--mu", "1e150"],
     "family 1: c = -4, kernel dimension 5, t-pattern [1]\n"
     "family 2: c = -4, kernel dimension 3, t-pattern [2]\n"
     "family 3: c = -0.59090909090909083, kernel dimension 7, t-pattern [3]\n"),
    (["kernels", "--n", "2", "--lambda", "1e20", "--mu", "1"],
     "family 1: c = -4, kernel dimension 5, t-pattern [1]\n"
     "family 2: c = -0.66666666666666663, kernel dimension 3, t-pattern [2]\n"
     "family 3: c = -1.1875, kernel dimension 7, t-pattern [3]\n"),
    # reads no mode constants, so the underflowing denominators do not refuse it
    (["constants", "--n", "2", "--lambda", "0", "--mu", "1e-320"],
     "zeta1 = -4\nzeta2 = -4\nzeta3 = -0.59090909090909094\n"),
])
def test_wide_materials_keep_their_output(argv, expected, capsys):
    # pairs far from lambda = mu that every command ran before the float-range
    # check existed: the same bytes now
    sys.path.insert(0, SRC)
    from elastoplasmon import cli

    assert cli.main(argv) == 0
    assert capsys.readouterr().out == expected


def test_tiny_moduli_are_the_unit_material(capsys):
    # the constants are homogeneous of degree 0: mu = 1e-15 runs, and prints
    # what mu = 1 prints
    sys.path.insert(0, SRC)
    from elastoplasmon import cli

    outputs = []
    for mu in ("1e-15", "1"):
        assert cli.main(["kernels", "--n", "2", "--lambda", "0", "--mu", mu]) == 0
        outputs.append(capsys.readouterr().out)
    assert outputs[0] == outputs[1]


def test_scheduled_delta_argument_is_bounded(tmp_path, monkeypatch, capsys):
    sys.path.insert(0, SRC)
    from elastoplasmon import cli, scenarios

    path = tmp_path / "sched.json"
    path.write_text(json.dumps(dict(BASE_CONFIG, q=2.3, c_mode={"schedule": 1})))
    monkeypatch.setattr(cli, "solve_modes", _no_run)
    monkeypatch.setattr(scenarios, "WITNESSES", tuple(w._replace(core=_no_run) if w.name == "witness_fixed_c"
                                                      else w for w in scenarios.WITNESSES))
    for command in ("solve", "witness"):
        assert cli.main([command, "--config", str(path), "--delta", "1e-300"]) == 2
        assert "exceeds the largest supported degree" in json.loads(capsys.readouterr().err)["error"]


def test_cold_scheduled_sweeps_build_no_sphere_rule(tmp_path):
    # energies and witnesses integrate on harmonic coefficients and the
    # derivative-table self-test sums over polar Gauss nodes: no sphere rule
    # is built, through the shared cache or outside it.  The sector kernel
    # bases are closed forms: no Hermitian eigendecomposition, and no SVD
    # (the sector solves take their conditions from the LU inverse, and no
    # sector basis is a null space).  Each
    # degree's ladders are stored stacked, so no np.stack of ladder matrices
    # (arrays sharing memory with a stored ladder) runs either.
    configs = (dict(BASE_CONFIG, q=2.3, c_mode={"schedule": 1}), dict(BASE_CONFIG, q=3.6, c_mode={"schedule": 1}),
               dict(BASE_CONFIG, core_radius=None, q=2.6, c_mode={"schedule": 1}))
    argvs = []
    for i, cfg in enumerate(configs):
        path = tmp_path / f"sched{i}.json"
        path.write_text(json.dumps(cfg))
        argvs.append(["sweep", "--config", str(path), "--csv", str(tmp_path / f"x{i}.csv")])
    code = (
        "import collections\n"
        "import numpy as np\n"
        "from elastoplasmon import harmonics\n"
        "from elastoplasmon.cli import main\n"
        "built, build = [], harmonics.build_quadrature\n"
        "harmonics.build_quadrature = lambda exactness: built.append(exactness) or build(exactness)\n"
        "calls = collections.Counter()\n"
        "def counted(name, f):\n"
        "    return lambda *a, **k: calls.update([name]) or f(*a, **k)\n"
        "np.linalg.eigh = counted('eigh', np.linalg.eigh)\n"
        "svd_dims, svd = [0], np.linalg.svd\n"
        "np.linalg.svd = lambda a, *r, **k: svd_dims.append(max(np.shape(a)[-2:])) or svd(a, *r, **k)\n"
        "stack = np.stack\n"
        "def counted_stack(arrays, *r, **k):\n"
        "    arrays = list(arrays)\n"
        "    ladders = [f for pair in harmonics._DEGREES.values() for f in pair if f is not None]\n"
        "    if any(np.may_share_memory(a, f) for a in arrays for f in ladders):\n"
        "        calls.update(['ladder_stack'])\n"
        "    return stack(arrays, *r, **k)\n"
        "np.stack = counted_stack\n"
        f"assert all(main(argv) == 0 for argv in {argvs!r})\n"
        "print(len(built), harmonics.shared_quadrature.cache_info().misses, max(svd_dims), calls['eigh'],\n"
        "      calls['ladder_stack'])\n"
    )
    r = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                       env=dict(os.environ, PYTHONPATH=SRC))
    assert r.returncode == 0, r.stderr
    assert r.stdout.splitlines()[-1] == "0 0 0 0 0"


def test_cold_sweeps_build_no_member_and_test_no_degree(tmp_path):
    # a sweep row is sector scalars: energies and bounds come from the radial
    # profiles by flux, so the four benchmark sweeps (both cored schedules,
    # the core-free family-3 and the cored family-2 fixed runs) read no
    # derivative-table degree (no self-test, no Gauss band, no
    # numpy.polynomial import) and build no kernel member
    schedule = dict(BASE_CONFIG, c_mode={"schedule": 1}, source_modes=[[None, 1, 3, 0.6, 0.8]],
                    delta_list=[10.0 ** (-(4 + i) / 2) for i in range(13)])
    configs = (dict(schedule, q=2.3), dict(schedule, q=3.6),
               dict(BASE_CONFIG, core_radius=None, q=2.6, c_mode={"fixed": -25.0 / 38.0},
                    source_modes=[[3, 3, 5, 0.6, -0.8]]),
               dict(BASE_CONFIG, c_mode={"fixed": -130.0 / 59.0}, source_modes=[[4, 2, 2, -0.8, 0.6]]))
    argvs = []
    for i, cfg in enumerate(configs):
        path = tmp_path / f"run{i}.json"
        path.write_text(json.dumps(cfg))
        argvs.append(["sweep", "--config", str(path), "--csv", str(tmp_path / f"x{i}.csv")])
    code = (
        "import sys\n"
        "from elastoplasmon import fields, harmonics\n"
        "from elastoplasmon.cli import main\n"
        "tested, test = [], harmonics._self_test_degree\n"
        "harmonics._self_test_degree = lambda n, *pair: tested.append(n) or test(n, *pair)\n"
        f"assert [main(argv) for argv in {argvs!r}] == [0, 0, 0, 0]\n"
        "print(tested, sorted(harmonics._BANDS), len(fields.kernel_basis.cache), 'numpy.polynomial' in sys.modules)\n"
    )
    r = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                       env=dict(os.environ, PYTHONPATH=SRC))
    assert r.returncode == 0, r.stderr
    assert r.stdout.splitlines()[-1] == "[] [] 0 False"


def test_cold_sweep_loads_neither_harmonics_nor_waves(tmp_path):
    # sweep rows and witness bounds are sector-scalar algebra and the package
    # loads a module on first use: a bare import loads no submodule, an
    # unknown name is an AttributeError, and, each command group in a fresh
    # process, sweeps of the cored q = 2.3 schedule (degrees 7 .. 27) and of
    # the cored family-2 run at zeta2(4), and witnesses on the cored q = 2.3
    # schedule (every cored witness tried) and on a core-free family-3
    # schedule, load neither the derivative tables' module nor the perfect
    # waves'
    schedule = dict(BASE_CONFIG, q=2.3, c_mode={"schedule": 1}, source_modes=[[None, 1, 3, 0.6, 0.8]],
                    delta_list=[10.0 ** (-(4 + i) / 2) for i in range(13)])
    cored_zeta2 = dict(BASE_CONFIG, c_mode={"fixed": -130.0 / 59.0}, source_modes=[[4, 2, 2, -0.8, 0.6]])
    nocore_family3 = dict(BASE_CONFIG, core_radius=None, q=2.6, c_mode={"schedule": 3},
                          source_modes=[[None, 3, 2, 1.0, 0.0]])
    paths = []
    for i, cfg in enumerate((schedule, cored_zeta2, nocore_family3)):
        paths.append(str(tmp_path / f"run{i}.json"))
        Path(paths[-1]).write_text(json.dumps(cfg))
    groups = ([["sweep", "--config", path, "--csv", str(tmp_path / f"x{i}.csv")] for i, path in enumerate(paths[:2])],
              [["witness", "--config", paths[0], "--delta", d] for d in ("1e-2", "1e-8")]
              + [["witness", "--config", paths[2], "--delta", d] for d in ("1e-2", "1e-6")])
    for argvs in groups:
        code = (
            "import sys\n"
            "import elastoplasmon\n"
            "def loaded():\n"
            "    return sorted(m for m in sys.modules if m.startswith('elastoplasmon.'))\n"
            "assert loaded() == [], loaded()\n"
            "try:\n"
            "    elastoplasmon.no_such_name\n"
            "except AttributeError:\n"
            "    pass\n"
            "else:\n"
            "    raise SystemExit('no AttributeError')\n"
            "assert loaded() == [], loaded()\n"
            "from elastoplasmon.cli import main\n"
            f"assert [main(argv) for argv in {argvs!r}] == {[0] * len(argvs)!r}\n"
            "print(loaded())\n"
        )
        r = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                           env=dict(os.environ, PYTHONPATH=SRC))
        assert r.returncode == 0, r.stderr
        assert r.stdout.splitlines()[-1] == str([f"elastoplasmon.{m}" for m in
                                                ("cli", "energy", "lame", "scenarios", "transmission")]), argvs


@pytest.mark.parametrize("argv", [["solve", "--config", "{config}"], ["waves-check", "--n", "3"],
                                  ["kernels", "--n", "3"], ["np-spectrum", "--nmax", "3"]])
def test_field_commands_load_the_fields_module(argv, config_file):
    # the commands that build or check fields load elastoplasmon.fields,
    # which the command line module itself does not
    code = (
        "import sys\n"
        "from elastoplasmon.cli import main\n"
        "assert 'elastoplasmon.fields' not in sys.modules\n"
        f"assert main({[a.format(config=config_file) for a in argv]!r}) == 0\n"
        "print('elastoplasmon.fields' in sys.modules)\n"
    )
    r = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                       env=dict(os.environ, PYTHONPATH=SRC))
    assert r.returncode == 0, r.stderr
    assert r.stdout.splitlines()[-1] == "True"


@pytest.mark.parametrize("config, delta", [
    (dict(BASE_CONFIG, q=2.3, c_mode={"schedule": 1}, source_modes=[[None, 1, 3, 0.6, 0.8]]), "1e-4"),
    (dict(BASE_CONFIG, q=3.6, c_mode={"schedule": 1}, source_modes=[[None, 1, 2, 0.0, 1.0]]), "1e-6"),
    (dict(BASE_CONFIG, core_radius=None, q=2.6, c_mode={"schedule": 3}, source_modes=[[None, 3, 2, 1.0, 0.0]]),
     "1e-5"),
    (BASE_CONFIG, "1e-3"),
])
def test_witness_prints_the_public_builders_scalars(config, delta, tmp_path, capsys):
    # the command reads the scalar cores; the public builders, which also
    # build the witness fields, return the same bounds to the last digit
    sys.path.insert(0, SRC)
    from elastoplasmon import cli, fields

    path = tmp_path / "run.json"
    path.write_text(json.dumps(config))
    assert cli.main(["witness", "--config", str(path), "--delta", delta]) == 0
    printed = capsys.readouterr().out.splitlines()
    d = float(delta)
    med, src = cli._configuration(cli.load_config(str(path)))(d)
    if med.core_radius is None:
        builders = [(lambda: fields.witness_nocore(med, src, d),
                     lambda w: f"J_lower = {cli._fmt(w[1])}  tau = {cli._fmt(w[2])}")]
    else:
        builders = [(lambda: fields.witness_fixed_c(med, src), lambda w: f"I_upper = {cli._fmt(w[1])}"),
                    (lambda: fields.witness_core_resonant(med, src, d),
                     lambda w: f"J_lower = {cli._fmt(w[2])}  tau = {cli._fmt(w[3])}"),
                    (lambda: fields.witness_radial_nonresonant(med, src, d),
                     lambda w: f"I_upper_scheduled = {cli._fmt(w[2])}")]
    expected = []
    for build, show in builders:
        try:
            expected.append(show(build()))
        except (ValueError, ArithmeticError):
            pass
    assert printed == expected and printed


def test_verification_commands_build_no_sphere_rule(tmp_path):
    # waves-check, np-spectrum and solve compare traces as exact per-degree
    # coefficient arrays: no sphere rule is built, through the shared cache
    # or outside it, and the quadrature traction is never called
    path = tmp_path / "solve.json"
    path.write_text(json.dumps(dict(BASE_CONFIG, source_modes=[[2, 1, 1, 1.0, 0.0], [3, 2, 2, 0.5, 0.25]])))
    argvs = [["waves-check", "--n", "5"], ["np-spectrum", "--nmax", "5", "--csv", str(tmp_path / "np.csv")],
             ["solve", "--config", str(path)]]
    code = (
        "import sys\n"
        "from elastoplasmon import fields, harmonics\n"
        "from elastoplasmon.cli import main\n"
        "built, build = [], harmonics.build_quadrature\n"
        "harmonics.build_quadrature = lambda exactness: built.append(exactness) or build(exactness)\n"
        "traced, trace = [], fields.traction_coeffs\n"
        "for mod in [m for name, m in sys.modules.items() if name.startswith('elastoplasmon.')]:\n"
        "    for attr, value in list(vars(mod).items()):\n"
        "        if value is trace:\n"
        "            setattr(mod, attr, lambda *a, **k: traced.append(1) or trace(*a, **k))\n"
        f"assert [main(argv) for argv in {argvs!r}] == [0, 0, 0]\n"
        "print(len(built), harmonics.shared_quadrature.cache_info().misses, len(traced))\n"
    )
    r = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                       env=dict(os.environ, PYTHONPATH=SRC))
    assert r.returncode == 0, r.stderr
    assert r.stdout.splitlines()[-1] == "0 0 0"


def test_np_spectrum_reaches_max_degree_without_an_eigensolver(tmp_path):
    # one sector profile system per degree and family: --nmax 64 writes all
    # 3((nmax+1)^2 - 1) rows, no dense eigensolver runs, and no derivative
    # table degree and no kernel member is built
    csv = tmp_path / "np.csv"
    code = (
        "import numpy as np\n"
        "from elastoplasmon import fields, harmonics\n"
        "from elastoplasmon.cli import main\n"
        "calls = []\n"
        "for name in ('eig', 'eigvals'):\n"
        "    setattr(np.linalg, name, lambda *a, name=name, f=getattr(np.linalg, name): calls.append(name) or f(*a))\n"
        f"assert main(['np-spectrum', '--nmax', '64', '--csv', {str(csv)!r}]) == 0\n"
        "print(len(calls), len(harmonics._DEGREES), len(fields.kernel_basis.cache))\n"
    )
    r = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                       env=dict(os.environ, PYTHONPATH=SRC))
    assert r.returncode == 0, r.stderr
    assert r.stdout.splitlines()[-1] == "0 0 0"
    lines = csv.read_text().splitlines()
    assert lines[1] == "eigenvalue,degree_tag,matched_c,matched_family,target"
    assert len(lines) - 2 == 3 * (65**2 - 1) == 12672


def test_benchmark_spans_install_and_probe_run():
    # perfbench/spans.py and replay.py as the benchmark runs them, in a fresh
    # process: install wraps every (module, name) of TARGETS, and the
    # untraced replay's lame_residual probe runs on wave_certify's waves
    perfbench = str(Path(__file__).resolve().parents[1] / "perfbench")
    code = (
        "import importlib, sys\n"
        f"sys.path.insert(0, {perfbench!r})\n"
        "import replay, spans\n"
        "import elastoplasmon.cli\n"
        "homes = [(importlib.import_module(f'elastoplasmon.{m}'), name) for m, name, _ in spans.TARGETS]\n"
        "originals = [getattr(home, name) for home, name in homes]\n"
        "tracer = spans.Tracer()\n"
        "assert spans.install(tracer) >= len(spans.TARGETS)\n"
        "for (home, name), fn in zip(homes, originals):\n"
        "    assert getattr(home, name).__wrapped__ is fn, name\n"
        "probe = replay.residual_probe('wave_certify')\n"
        "residuals = [s for s in tracer.spans if s.group == 'lame.residual']\n"
        "assert probe > 0 and residuals and not any(s.error for s in tracer.spans)\n"
        "print(len(residuals))\n"
    )
    r = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                       env=dict(os.environ, PYTHONPATH=SRC))
    assert r.returncode == 0, r.stderr
    assert r.stdout.splitlines()[-1] == "42"  # 21 degree-3 waves, inside and outside


def test_benchmark_span_targets_resolve(monkeypatch):
    # perfbench/spans.py imports neither numpy nor the package; --trace 1
    # wraps every (module, name) of its TARGETS, so each must stay a function
    path = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"
    spec = importlib.util.spec_from_file_location("perfbench_spans", path)
    spans = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, spans)  # dataclasses look their module up here
    spec.loader.exec_module(spans)
    for module, name, _ in spans.TARGETS:
        assert callable(getattr(importlib.import_module(f"elastoplasmon.{module}"), name, None)), (module, name)


def test_witness_table_names_the_traced_public_builders(monkeypatch):
    # each witness the command and the sweep rows read is a public builder
    # of fields that the benchmark traces where it reads it, in scenarios
    from elastoplasmon import fields, scenarios

    traced = {name for module, name, _ in _perfbench_module("spans", monkeypatch).TARGETS if module == "scenarios"}
    names = [w.name for w in scenarios.WITNESSES]
    assert names == ["witness_nocore", "witness_fixed_c", "witness_core_resonant", "witness_radial_nonresonant"]
    assert all(name in fields.__all__ and name in traced for name in names)
    assert all(getattr(scenarios, name) is getattr(fields, name) for name in names)


def test_witness_table_row_reaches_the_command_and_the_sweep(config_file, tmp_path, monkeypatch, capsys):
    # one row added to the table: witness prints its scalars, and a sweep
    # row keeps its bound where it is the tighter (a valid one, E_delta
    # itself: a sweep refuses bounds that break the sandwich)
    sys.path.insert(0, SRC)
    from elastoplasmon import cli, scenarios
    from elastoplasmon.energy import dissipation_E
    from elastoplasmon.transmission import solve_modes

    def tightest(rows, loss_free):
        return [(dissipation_E(solve_modes(med, src), med), 7.0) for med, src, _ in rows]

    stub = scenarios.Witness("witness_stub", "I_upper", True, tightest, ("I_stub", "extra"))
    _replace_everywhere(monkeypatch, scenarios.WITNESSES, scenarios.WITNESSES + (stub,))
    assert cli.main(["witness", "--config", config_file, "--delta", "1e-3"]) == 0
    line = capsys.readouterr().out.splitlines()[-1]
    assert line.startswith("I_stub = ") and line.endswith("  extra = 7"), line
    csv = tmp_path / "stub.csv"
    assert cli.main(["sweep", "--config", config_file, "--csv", str(csv)]) == 0
    _, rows, _, _ = parse_report(csv)
    assert [row.I_upper for row in rows] == [row.E_delta for row in rows]


def test_cli_imports_no_private_name_of_the_package():
    tree = ast.parse((Path(SRC) / "elastoplasmon" / "cli.py").read_text(encoding="utf-8"))
    private = [(node.module, alias.name) for node in ast.walk(tree)
               if isinstance(node, ast.ImportFrom) and (node.level or (node.module or "").startswith("elastoplasmon"))
               for alias in node.names if alias.name.startswith("_")]
    assert private == []


def _perfbench_module(name, monkeypatch):
    """A perfbench module loaded by path, without perfbench on sys.path."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / f"{name}.py"
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", path)
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)  # dataclasses look their module up here
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("workload", ["dichotomy_schedule", "spheroidal_fixed"])
def test_benchmark_workloads_pass_their_checks(workload, tmp_path, monkeypatch, capsys):
    # the seed-1 plan of each gated benchmark workload, run through cli.main
    # in process: every sweep and its deepest-loss solve passes every check
    # of the benchmark's checker against its reference table
    from elastoplasmon import cli

    workloads = _perfbench_module("workloads", monkeypatch)
    check = _perfbench_module("check", monkeypatch)
    ref = check.load_reference()
    plan = workloads.make_plan(workload, 1, tmp_path)
    commands = workloads.commands_in(plan.commands + plan.checks, tmp_path / "out")
    assert [c.kind for c in commands] == ["sweep"] * len(plan.checks) + ["solve"] * len(plan.checks)
    for cmd in commands:
        code = cli.main(list(cmd.argv))
        result = {**dataclasses.asdict(cmd), "code": code, "stdout": capsys.readouterr().out}
        checks = check.check_result(result, ref)
        assert [c for c in checks if not c.ok] == [], cmd.argv


def _gated_configs(workloads, seed, work):
    """(sweep name, config, config path) of each gated benchmark sweep at ``seed``, written under ``work``."""
    for workload in ("dichotomy_schedule", "spheroidal_fixed"):
        plan = workloads.make_plan(workload, seed, work / f"{workload}-{seed}")
        for name, cfg in plan.configs.items():
            yield name, cfg, work / f"{workload}-{seed}" / f"{name}.json"


def test_growth_fit_is_the_exact_least_squares_slope(tmp_path, monkeypatch):
    # the growth exponent of each gated sweep at seeds 1-7, and the fit of
    # constant series, is within 1 ulp of the exact rational least-squares
    # slope of the same float logs; np.linalg.lstsq, which the fit replaced,
    # was up to 6 ulp off on these sweeps, and the plain mean fsum(y) / n,
    # which rounds off a constant y for some values, leaves such a series a
    # slope of about 1e-33 where the fit's mean about y[0] leaves exactly 0
    from fractions import Fraction

    from elastoplasmon import cli
    from elastoplasmon.scenarios import _fit_slope, sweep
    from oracles import least_squares_slope

    workloads = _perfbench_module("workloads", monkeypatch)
    series = []
    for seed in range(1, 8):
        for _, cfg, _ in _gated_configs(workloads, seed, tmp_path):
            res = sweep(cli._configuration(cfg), cfg["delta_list"])
            E = [r.E_delta for r in res.rows]
            assert res.growth_exponent == _fit_slope(cfg["delta_list"], E)
            series.append((cfg["delta_list"], E))
    decades = [[10.0 ** -(2 + i) for i in range(n)] for n in range(3, 10)]
    for deltas in [workloads.FIXED_DELTAS, workloads.SCHEDULE_DELTAS, *decades]:
        series += [(deltas, [10.0 ** (k / 7)] * len(deltas)) for k in range(-21, 22)]
    assert len(series) == 28 + 9 * 43
    for deltas, E in series:
        got, want = _fit_slope(deltas, E), least_squares_slope(deltas, E)
        assert abs(Fraction(got) - want) <= Fraction(math.ulp(float(want))), (E, got, float(want))


def _gated_runs_without(driver, tmp_path, monkeypatch, capsys) -> dict:
    """(exit code, stdout, stderr, CSV) of each gated sweep at seed 1 and of the witness command on its config,
    keyed by (command, config name), each run without and with ``np.linalg.<driver>`` patched to raise."""
    import numpy as np

    from elastoplasmon import cli

    def raising(*args, **kwargs):
        raise AssertionError(f"np.linalg.{driver} called")

    runs = {}
    for name, _, path in _gated_configs(_perfbench_module("workloads", monkeypatch), 1, tmp_path):
        for argv in (["sweep", "--config", str(path), "--csv", str(tmp_path / f"{name}.csv")],
                     ["witness", "--config", str(path)]):
            for patched in (False, True):
                with monkeypatch.context() as m:
                    if patched:
                        m.setattr(np.linalg, driver, raising)
                    code = cli.main(argv)
                out = capsys.readouterr()
                csv = (tmp_path / f"{name}.csv").read_bytes() if argv[0] == "sweep" else None
                runs.setdefault((argv[0], name), []).append((code, out.out, out.err, csv))
    # exit 0, except witness on the cored family-2 config, which no witness bounds (exit 2)
    assert {key: got[0][0] for key, got in runs.items()} == {
        (command, name): 2 if (command, name) == ("witness", "cored_zeta2_4") else 0
        for command in ("sweep", "witness") for name in ("sched_q2.3", "sched_q3.6", "nocore_zeta3_3", "cored_zeta2_4")}
    return runs


def test_gated_runs_call_no_least_squares_driver(tmp_path, monkeypatch, capsys):
    # the fit is closed-form: with np.linalg.lstsq raising, each gated sweep
    # at seed 1 and the witness command on its config print what they print
    # without the patch, and exit as they do
    runs = _gated_runs_without("lstsq", tmp_path, monkeypatch, capsys)
    assert all(got[0] == got[1] for got in runs.values())


def test_gated_runs_call_no_svd(tmp_path, monkeypatch, capsys):
    # the sector solves take their conditions from the LU inverse
    # (np.linalg.cond(A, 1)): with np.linalg.svd raising, each gated sweep at
    # seed 1 and the witness command on its config print and write what they
    # do without the patch, and exit as they do
    runs = _gated_runs_without("svd", tmp_path, monkeypatch, capsys)
    assert all(got[0] == got[1] for got in runs.values())


def test_one_norm_condition_brackets_the_spectral_one(tmp_path, monkeypatch, capsys):
    # the solve reads the exact 1-norm condition kappa_1 of each equilibrated
    # system and bounds its 2-norm in the backward error by the largest row
    # 2-norm, where an SVD gave kappa_2 and the 2-norm.  On the seeded
    # systems and on every system the four gated sweeps hand to the solve at
    # seeds 1-7: kappa_2 / m <= kappa_1 <= m kappa_2 (kappa_1 is inf only
    # for the exactly singular system, whose LU fails), the row bound is at
    # most the 2-norm, so for the same solution the backward error is at
    # least the spectral one, and on the sweeps the refusals at the cap of
    # 1e9 are the SVD route's, both sides of the cap being reached
    import numpy as np

    from elastoplasmon import cli, transmission
    from oracles import (equilibrated, one_norm_condition, seeded_square_systems, spectral_condition,
                         square_solve_reference)

    swept = []
    solve = transmission._square_solve

    def recorded(M, b, what, max_condition):
        swept.extend(zip(M.copy(), b.copy(), what, max_condition))
        return solve(M, b, what, max_condition)

    monkeypatch.setattr(transmission, "_square_solve", recorded)
    monkeypatch.setattr(transmission._single_layers, "cache", {})
    workloads = _perfbench_module("workloads", monkeypatch)
    for seed in range(1, 8):
        for name, _, path in _gated_configs(workloads, seed, tmp_path):
            assert cli.main(["sweep", "--config", str(path), "--csv", str(tmp_path / f"{name}.csv")]) == 0
    capsys.readouterr()

    def outcome(M, b, condition):
        try:
            return square_solve_reference(M.copy(), b.copy(), "system", math.inf, condition)
        except (ArithmeticError, RuntimeError, np.linalg.LinAlgError) as exc:
            return exc

    seeded = [(M, b, "system", cap) for M, b, cap in seeded_square_systems()]
    singular, refused = 0, set()
    for M, b, what, cap in seeded + swept:
        m, (_, _, A) = len(M), equilibrated(M)
        (k1, bound), (k2, norm2) = one_norm_condition(A), spectral_condition(A)
        assert bound <= norm2, what
        if k1 == math.inf:
            with pytest.raises(np.linalg.LinAlgError):
                np.linalg.solve(A, b)
            singular += 1
            continue
        assert k2 / m <= k1 <= m * k2, (what, k1, k2)
        got, spectral = outcome(M, b, one_norm_condition), outcome(M, b, spectral_condition)
        assert type(got) is type(spectral), what
        if isinstance(got, tuple):
            assert got[0].tobytes() == spectral[0].tobytes() and got[2] >= spectral[2], what
        if cap == 1e9:
            assert (k1 > cap) == (k2 > cap), (what, k1, k2)
            refused.add(k1 > cap)
    assert singular == 1 and len(swept) == 7 * (2 * 2 * 13 + 2 * 4) + 13 and refused == {False, True}


def test_np_spectrum_solves_its_unit_layers_as_two_stacks(tmp_path, monkeypatch):
    # np-spectrum solves the unit layers of all its degrees as one stacked
    # solve per profile shape: the one-degree profiles (family 1, and family
    # 2 at n = 1) and the two-degree ones (family 2 at n >= 2, family 3).
    # Its CSV is byte for byte the one it writes from layers each solved
    # alone (one system per _solve_systems call) and kept before it runs
    from elastoplasmon import cli, transmission
    from elastoplasmon.lame import LameParams
    from oracles import unit_layer

    stacks = []
    square_solve = transmission._square_solve
    monkeypatch.setattr(transmission, "_square_solve", lambda M, *a: stacks.append(len(M)) or square_solve(M, *a))
    for nmax in (5, 64):
        csv = {}
        for route in ("stacked", "alone"):
            with monkeypatch.context() as m:
                m.setattr(transmission._single_layers, "cache", {})
                stacks.clear()
                if route == "alone":
                    for n in range(1, nmax + 1):
                        for fam in (1, 2, 3):
                            transmission._single_layers.cache[(1.0, 1.0, n, fam)] = unit_layer(LameParams(1.0, 1.0),
                                                                                              n, fam)
                path = tmp_path / f"{route}-{nmax}.csv"
                assert cli.main(["np-spectrum", "--nmax", str(nmax), "--csv", str(path)]) == 0
                csv[route] = path.read_bytes()
                assert stacks == ([nmax + 1, 2 * nmax - 1] if route == "stacked" else [1] * (3 * nmax)), route
        assert csv["stacked"] == csv["alone"], nmax


def test_a_sweep_evaluates_each_closed_form_once_per_key(tmp_path):
    # a fresh process running one sweep of the cored q = 2.3 schedule (13
    # rows, 13 distinct degrees) evaluates each closed form and each sector
    # check once per (lambda, mu, n[, family, R]) key: 13 sector checks, 13
    # plasmon constants and 13 radial profiles, where every row used to
    # repeat them (39, 91 and 91 evaluations), and the mode constants of the
    # 18 degrees the command's material probe reads (d and d + 2)
    cfg = dict(BASE_CONFIG, q=2.3, c_mode={"schedule": 1}, source_modes=[[None, 1, 3, 0.6, 0.8]],
               delta_list=[10.0 ** (-(4 + i) / 2) for i in range(13)])
    path = tmp_path / "sched.json"
    path.write_text(json.dumps(cfg))
    argv = ["sweep", "--config", str(path), "--csv", str(tmp_path / "x.csv")]
    code = (
        "import collections\n"
        "from elastoplasmon import lame, transmission\n"
        "from elastoplasmon.cli import main\n"
        "keys = collections.defaultdict(list)\n"
        "def counted(f):\n"
        "    inner = f.__wrapped__\n"
        "    f.__wrapped__ = lambda params, *args: keys[f.__name__].append((params, args)) or inner(params, *args)\n"
        "for f in (lame.mode_constants, lame.plasmon_constants, transmission._radial_profile,\n"
        "          transmission._wave_amplitudes):\n"
        "    counted(f)\n"
        f"assert main({argv!r}) == 0\n"
        "print(*(f'{name}={len(seen)}/{len(set(seen))}' for name, seen in sorted(keys.items())))\n"
    )
    r = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                       env=dict(os.environ, PYTHONPATH=SRC))
    assert r.returncode == 0, r.stderr
    assert r.stdout.splitlines()[-1] == ("_radial_profile=13/13 _wave_amplitudes=13/13 mode_constants=18/18 "
                                         "plasmon_constants=13/13")
