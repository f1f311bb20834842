"""Command-line runner: determinism, round trips, exit codes."""

import copy
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
    from elastoplasmon import cli

    def nan_residuals(*args, **kwargs):
        return {"continuity": math.nan, "transmission": 0.0, "lame_interior": 0.0, "lame_exterior": 0.0}

    monkeypatch.setattr(cli, "verify_perfect_wave", nan_residuals)
    assert cli.main(["waves-check", "--n", "2"]) == 2
    assert capsys.readouterr().out.splitlines()[-1] == "worst residual nan"


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

    monkeypatch.setattr(cli, "kernel_basis", _no_run)
    monkeypatch.setattr(cli, "np_galerkin_spectrum", _no_run)
    assert cli.main([a.format(deg=cli.MAX_DEGREE + 1) for a in argv]) == 2
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and json.loads(lines[0])["code"] == 2


def test_sweep_deterministic_csv(config_file, tmp_path):
    c1, c2 = str(tmp_path / "a.csv"), str(tmp_path / "b.csv")
    r1 = run_cli("sweep", "--config", config_file, "--csv", c1)
    r2 = run_cli("sweep", "--config", config_file, "--csv", c2)
    assert r1.returncode == 0 and r2.returncode == 0
    assert Path(c1).read_bytes() == Path(c2).read_bytes()


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
    sys.path.insert(0, SRC)
    from elastoplasmon.cli import parse_report

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
        emit_report(SweepResult(rows=[], verdict="", growth_exponent=0.0), {}, "/tmp/unused.csv")


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
    monkeypatch.setattr(cli, "shared_tables", _no_run)  # every run starts with its tables
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
])
def test_extreme_materials_rejected_before_any_run(argv, lam, mu, monkeypatch, capsys):
    sys.path.insert(0, SRC)
    from elastoplasmon import cli

    for name in ("ensure_tables", "kernel_basis", "np_galerkin_spectrum"):
        monkeypatch.setattr(cli, name, _no_run)
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
    monkeypatch.setattr(cli, "shared_tables", _no_run)
    path = tmp_path / "run.json"
    path.write_text(json.dumps(cfg))
    for argv in (["sweep", "--csv", str(tmp_path / "x.csv")], ["solve"], ["witness"]):
        assert cli.main([argv[0], "--config", str(path), *argv[1:]]) == 2
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1 and "out of the float range" in json.loads(lines[0])["error"]


def test_failed_sector_checks_are_json_errors(capsys):
    # correct builds whose roundoff, growing with lambda / mu or near
    # 3 lambda + 2 mu = 0, exceeds a sector check: exit 2, never a traceback
    sys.path.insert(0, SRC)
    from elastoplasmon import cli

    runs = [
        (["np-spectrum", "--lambda", "100", "--nmax", "8"], "leaves its sector"),
        (["kernels", "--n", "2", f"--lambda={(1e-8 - 2.0) / 3.0!r}"], "is not a kernel"),
    ]
    for argv, message in runs:
        assert cli.main(argv) == 2, argv
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1 and message in json.loads(lines[0])["error"], argv


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
        energies[lam] = [row.E_delta for row in cli.parse_report(str(csv))[1]]
    assert all(abs(a - b) <= 1e-9 * abs(b) for a, b in zip(energies[1e20], energies[1e12]))


@pytest.mark.xfail(strict=True, reason="FOUND 33: residual_check is not scaled to lambda / mu; at "
                                       "lambda = 1e20 mu it reads Lame 1.3e4 and traction 2.5")
def test_solve_at_the_incompressible_limit_passes_its_residual_check(tmp_path, capsys):
    sys.path.insert(0, SRC)
    from elastoplasmon import cli

    assert cli.main(["solve", "--config", _cored_zeta2_config(tmp_path, 1e20)]) == 0


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


@pytest.mark.parametrize("argv, message", [
    (["kernels", "--lambda", "1"], "the following arguments are required: --n"),
    (["kernels", "--n", "2", "--mu", "abc"], "argument --mu: invalid float value: 'abc'"),
    (["kernels", "--n", "2", "--mu", "-1e-3x"], "argument --mu: expected one argument"),
    (["sweep", "--config", "x.json", "--bogus"], "unrecognized arguments: --bogus"),
    ([], "the following arguments are required: command"),
])
def test_argument_errors_are_json_errors(argv, message):
    r = run_cli(*argv)
    assert r.returncode == 2 and not r.stdout
    lines = r.stderr.splitlines()
    assert len(lines) == 1 and message in json.loads(lines[0])["error"], r.stderr


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


def test_scheduled_delta_argument_is_bounded(tmp_path, monkeypatch, capsys):
    sys.path.insert(0, SRC)
    from elastoplasmon import cli

    path = tmp_path / "sched.json"
    path.write_text(json.dumps(dict(BASE_CONFIG, q=2.3, c_mode={"schedule": 1})))
    monkeypatch.setattr(cli, "solve_modes", _no_run)
    monkeypatch.setattr(cli, "witness_fixed_c", _no_run)
    for command in ("solve", "witness"):
        assert cli.main([command, "--config", str(path), "--delta", "1e-300"]) == 2
        assert "exceeds the largest supported degree" in json.loads(capsys.readouterr().err)["error"]


def test_cold_scheduled_sweeps_build_no_sphere_rule(tmp_path):
    # energies and witnesses integrate on harmonic coefficients and the
    # derivative-table self-test sums over polar Gauss nodes: no sphere rule
    # is built, through the shared cache or outside it.  The sector kernel
    # bases are closed forms: no Hermitian eigendecomposition, and the only
    # SVDs are the condition numbers of the square interface systems (at
    # most 6 x 6 for a cored family-1 sweep), never a sector basis.  Each
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
        "np.linalg.svd = lambda a, *r, **k: svd_dims.append(max(np.shape(a))) or svd(a, *r, **k)\n"
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
    assert r.stdout.splitlines()[-1] == "0 0 6 0 0"


def test_cold_family1_sweep_builds_and_tests_only_what_it_reads(tmp_path):
    # a cold q=2.3 sweep reads family-1 kernels at degrees 7..27 and table
    # degrees 6..28: it builds no family-2/3 kernel,
    # self-tests exactly those degrees, and forms one Gauss-Legendre rule per
    # band of 16 degrees (16 and 32 nodes)
    path = tmp_path / "sched.json"
    path.write_text(json.dumps(dict(BASE_CONFIG, q=2.3, c_mode={"schedule": 1}, delta_list=[
        10.0 ** (-(4 + i) / 2) for i in range(13)])))
    code = (
        "import numpy as np\n"
        "from elastoplasmon import harmonics, transmission\n"
        "from elastoplasmon.cli import main\n"
        "tested, rules, test = [], [], harmonics._self_test_degree\n"
        "harmonics._self_test_degree = lambda n, *pair: tested.append(n) or test(n, *pair)\n"
        "leggauss = np.polynomial.legendre.leggauss\n"
        "np.polynomial.legendre.leggauss = lambda k: rules.append(k) or leggauss(k)\n"
        f"assert main(['sweep', '--config', {str(path)!r}, '--csv', {str(tmp_path / 'x.csv')!r}]) == 0\n"
        "print(sorted(tested), rules, sorted({key[3] for key in transmission._KERNEL_CACHE}))\n"
    )
    r = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                       env=dict(os.environ, PYTHONPATH=SRC))
    assert r.returncode == 0, r.stderr
    assert r.stdout.splitlines()[-1] == f"{list(range(6, 29))} [16, 32] [1]"


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
        "from elastoplasmon import harmonics, lame\n"
        "from elastoplasmon.cli import main\n"
        "built, build = [], harmonics.build_quadrature\n"
        "harmonics.build_quadrature = lambda exactness: built.append(exactness) or build(exactness)\n"
        "traced, trace = [], lame.traction_coeffs\n"
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
    # one single layer per sector shape: --nmax 64 writes all
    # 3((nmax+1)^2 - 1) rows and no dense eigensolver runs
    csv = tmp_path / "np.csv"
    code = (
        "import numpy as np\n"
        "from elastoplasmon.cli import main\n"
        "calls = []\n"
        "for name in ('eig', 'eigvals'):\n"
        "    setattr(np.linalg, name, lambda *a, name=name, f=getattr(np.linalg, name): calls.append(name) or f(*a))\n"
        f"assert main(['np-spectrum', '--nmax', '64', '--csv', {str(csv)!r}]) == 0\n"
        "print(len(calls))\n"
    )
    r = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                       env=dict(os.environ, PYTHONPATH=SRC))
    assert r.returncode == 0, r.stderr
    assert r.stdout.splitlines()[-1] == "0"
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
    import dataclasses

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
