"""Configuration-driven experiment runner.

Subcommands: ``constants``, ``kernels``, ``waves-check``, ``np-spectrum``,
``solve``, ``sweep``, ``witness``.  Sweep configurations are JSON documents;
results go to CSV with a fixed column order and a metadata header block that
round-trips the full configuration.  Runs are deterministic: identical
configurations produce byte-identical CSV files.

Exit codes: 0 success, 2 validation failure (including an argument error, a
singular loss-free or unconverged solve, a failed sector check, arithmetic
out of the float range, a sweep whose bounds break the variational sandwich
and a witness command no witness applies to), 3 I/O failure, 4 empty
result.  Every failure writes one JSON line to stderr.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

import numpy as np

from .lame import LameParams, SectorCheckError, mode_constants, plasmon_constants
from .energy import dissipation_E
from .transmission import SourceSpec, UnconvergedSolveError, solve_modes
from .scenarios import (SweepResult, fixed_configuration, schedule_n_delta, scheduled_configuration, sweep,
                        witness_scalars)

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_IO = 3
EXIT_EMPTY = 4

CSV_COLUMNS = "delta,n_delta,c,E_delta,I_upper,J_lower,growth_exponent,verdict"

# Deepest source degree a run may reach, also the bound on n_max, on
# np-spectrum's --nmax (and, as 2 MAX_DEGREE + 4, on the inert
# quadrature_exactness key).  Every table degree a run reads is built and
# self-tested on first use: about 20 ms for degree 64 alone (its band's
# polar rule included) and 0.2 s for degrees 0..70, on a 2-vCPU x86-64 host
# with one BLAS thread.  A sweep, witness and np-spectrum read none (their
# results are sector scalars); solve, kernels and waves-check read at most
# 4 beyond their deepest degree.  Package functions read the ladders by
# degree from one process-wide store; none takes or sizes a table.
# The suite self-tests every degree 0..70; the demos stay below degree 42.
MAX_DEGREE = 64


class ValidationError(ValueError):
    pass


class EmptyResultError(RuntimeError):
    pass


def _fmt(x) -> str:
    if x is None:
        return ""
    if isinstance(x, int):
        return str(x)
    return format(float(x), ".17g")


def _error(msg: str, code: int) -> int:
    sys.stderr.write(json.dumps({"error": msg, "code": code}, sort_keys=True) + "\n")
    return code


# ---------------------------------------------------------------------------
# configuration
# ---------------------------------------------------------------------------

def load_config(path: str) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        cfg = json.load(fh)
    return validate_config(cfg)


def _is_int(x) -> bool:
    return isinstance(x, int) and not isinstance(x, bool)


def _is_real(x) -> bool:
    if isinstance(x, bool) or not isinstance(x, (int, float)):
        return False
    try:
        return math.isfinite(x)
    except OverflowError:  # an integer beyond the float range
        return False


def validate_config(cfg: dict) -> dict:
    """Check every field a run reads; any defect raises :class:`ValidationError`."""
    if not isinstance(cfg, dict) or cfg.get("schema") != 1:
        raise ValidationError("config schema must be 1")
    for key in ("lambda", "mu", "shell_radius", "q", "delta_list", "c_mode", "source_modes"):
        if key not in cfg:
            raise ValidationError(f"config missing key {key!r}")
    core = cfg.get("core_radius")
    for key in ("lambda", "mu", "shell_radius", "q") + (("core_radius",) if core is not None else ()):
        if not _is_real(cfg[key]):
            raise ValidationError(f"{key} must be a finite number")
    LameParams(cfg["lambda"], cfg["mu"])  # raises on a non-convex pair
    if cfg["shell_radius"] <= 0 or cfg["q"] <= cfg["shell_radius"]:
        raise ValidationError("need 0 < shell_radius < q")
    if core is not None and not (0 < core < cfg["shell_radius"]):
        raise ValidationError("need 0 < core_radius < shell_radius")
    deltas = cfg["delta_list"]
    if (not isinstance(deltas, list) or len(deltas) < 3 or not all(_is_real(d) for d in deltas)
            or any(b >= a for a, b in zip(deltas, deltas[1:])) or min(deltas) <= 0):
        raise ValidationError("delta_list must be finite, positive and strictly decreasing, >= 3 entries")
    cmode = cfg["c_mode"]
    if not (isinstance(cmode, dict) and len(cmode) == 1 and next(iter(cmode)) in ("fixed", "schedule")):
        raise ValidationError("c_mode must be {'fixed': value} or {'schedule': family}")
    if "fixed" in cmode and not _is_real(cmode["fixed"]):
        raise ValidationError("the fixed multiplier must be a finite number")
    if "schedule" in cmode and not (_is_int(cmode["schedule"]) and cmode["schedule"] in (1, 2, 3)):
        raise ValidationError("schedule family must be 1, 2 or 3")
    n_max = cfg.setdefault("n_max", 24)
    if not _is_int(n_max):
        raise ValidationError("n_max must be an integer")
    _check_degree(n_max, "n_max")  # bounds the source degrees of fixed runs too
    # inert (no run builds a sphere rule), but validated and echoed in the CSV header
    exactness = cfg.setdefault("quadrature_exactness", 2 * n_max + 4)
    if not _is_int(exactness):
        raise ValidationError("quadrature_exactness must be an integer")
    if exactness > 2 * MAX_DEGREE + 4:
        raise ValidationError(f"quadrature_exactness {exactness} exceeds 2 * {MAX_DEGREE} + 4")
    modes = cfg["source_modes"]
    if not (isinstance(modes, list) and modes):
        raise ValidationError("source_modes must be a non-empty list")
    first = None
    if "schedule" in cmode:
        if len(modes) != 1:
            raise ValidationError("scheduled runs re-inject exactly one source mode")
        # the mode is re-injected at every scheduled degree; the first is the smallest
        first = schedule_n_delta(cfg["shell_radius"], deltas[0])
        _check_degree(schedule_n_delta(cfg["shell_radius"], deltas[-1]), "deepest scheduled degree")
        sources = [(schedule_n_delta(cfg["shell_radius"], d), cmode["schedule"]) for d in deltas]
    else:
        sources = []
    for mode in modes:
        if not (isinstance(mode, list) and len(mode) == 5):
            raise ValidationError(f"source mode {mode!r} is not [degree, family, k, Re gamma, Im gamma]")
        n, fam, k, re, im = mode
        if not ((n is None or _is_int(n)) and _is_int(fam) and _is_int(k) and _is_real(re) and _is_real(im)):
            raise ValidationError(f"source mode {mode!r} needs integer degree, family and k and a finite gamma")
        if n is None and first is None:
            raise ValidationError("fixed-multiplier runs need explicit source degrees")
        if n is not None and n < 2:
            raise ValidationError("source degrees below 2 are unsupported")
        if n is not None and n > n_max:
            raise ValidationError(f"source degree {n} exceeds the truncation n_max = {n_max}")
        if fam not in (1, 2, 3):
            raise ValidationError("source mode family must be 1, 2 or 3")
        if first is not None and fam != cmode["schedule"]:
            raise ValidationError("scheduled source family must match the schedule family")
        deg = n if first is None else first
        dim = {1: 2 * deg + 1, 2: 2 * deg - 1, 3: 2 * deg + 3}[fam]
        if not 1 <= k <= dim:
            raise ValidationError(f"source mode index k = {k} outside 1..{dim} (family {fam}, degree {deg})")
        if first is None:
            sources.append((n, fam))
    _source_material(cfg, sources)
    out = cfg.setdefault("output", {})
    if not (isinstance(out, dict) and all(isinstance(out[k], str) and out[k] for k in ("csv", "svg") if k in out)):
        raise ValidationError("output must be an object whose csv and svg, where given, are non-empty strings")
    return cfg


def _material(lam: float, mu: float, degrees=(), fields=()) -> LameParams:
    """The Lame pair, refused where a constant the run reads is not a finite number.

    A run reads the plasmon constants at ``degrees``, and a field built at a
    degree d in ``fields`` reads the mode constants at d and d + 2 (at
    degree 1 only k_n and M_n, the others being undefined there).  Any
    convex pair is accepted unless one of these overflows or has a vanishing
    denominator, which happens only far out in the float range (lambda = mu
    = 1e308, or mu = 1e-320).
    """
    params = LameParams(lam, mu)  # raises on a non-convex pair
    try:
        for n in sorted(set(degrees)):
            plasmon_constants(params, n)
        for n in sorted({e for d in fields for e in (d, d + 2) if e >= 1}):
            cst = mode_constants(params, n)
            read = (cst.k_n, cst.M_n, cst.E_n, cst.s1_n, cst.s2_n, cst.l_n, cst.m_n) if n >= 2 else (cst.k_n, cst.M_n)
            if not all(math.isfinite(v) for v in read):
                raise ArithmeticError(f"mode constants at n={n} are not finite")
    except ArithmeticError as exc:
        raise ValidationError(f"(lambda, mu) = ({lam!r}, {mu!r}) is out of the float range: {exc}") from None
    return params


def _source_material(cfg: dict, sources: list[tuple[int, int]]) -> LameParams:
    """:func:`_material` for solves of the (degree, family) source sectors.

    A family-2 solve also builds its partner field two degrees below.
    """
    fields = [d for n, fam in sources for d in ((n, n - 2) if fam == 2 else (n,))]
    return _material(cfg["lambda"], cfg["mu"], degrees=[n for n, _ in sources], fields=fields)


def _check_degree(n: int, what: str) -> None:
    if n > MAX_DEGREE:
        raise ValidationError(f"{what} {n} exceeds the largest supported degree {MAX_DEGREE}")


def _check_wave_degree(n: int) -> None:
    if n < 2:
        raise ValidationError(f"--n must be at least 2, got {n}")
    _check_degree(n, "--n")


def _check_radius(R: float) -> None:
    if not (math.isfinite(R) and R > 0):
        raise ValidationError(f"--R must be finite and positive, got {R}")


def _single_loss(args, cfg: dict) -> float:
    """The loss of a one-loss command: ``--delta``, else the first listed loss.

    ``--delta`` must be finite and positive, and a scheduled run's degree
    follows the loss, so it is bounded like the listed losses.
    """
    if args.delta is None:
        return cfg["delta_list"][0]
    if not (math.isfinite(args.delta) and args.delta > 0):
        raise ValidationError(f"--delta must be finite and positive, got {args.delta}")
    if "schedule" in cfg["c_mode"]:
        n = schedule_n_delta(cfg["shell_radius"], args.delta)
        _check_degree(n, "scheduled degree")
        _source_material(cfg, [(n, cfg["c_mode"]["schedule"])])
    return args.delta


def _configuration(cfg: dict):
    params = LameParams(cfg["lambda"], cfg["mu"])
    cmode = cfg["c_mode"]
    if "fixed" in cmode:
        coeffs = {(n, fam, k): complex(re, im) for n, fam, k, re, im in cfg["source_modes"]}
        return fixed_configuration(params=params, shell_radius=cfg["shell_radius"], c=cmode["fixed"],
                                   source=SourceSpec(q=cfg["q"], coefficients=coeffs),
                                   core_radius=cfg.get("core_radius"))
    _, fam, k, re, im = cfg["source_modes"][0]
    return scheduled_configuration(params=params, shell_radius=cfg["shell_radius"], q=cfg["q"], family=fam, k=k,
                                   gamma=complex(re, im), core_radius=cfg.get("core_radius"))


# ---------------------------------------------------------------------------
# reports
# ---------------------------------------------------------------------------

def emit_report(result: SweepResult, cfg: dict, csv_path: str, svg_path: str | None = None) -> None:
    """Write the sweep CSV (and optional SVG); refuses an empty result."""
    if not result.rows:
        raise EmptyResultError("empty sweep result")
    lines = ["# elastoplasmon sweep schema=1"]
    lines.append("# config=" + json.dumps(cfg, sort_keys=True, separators=(",", ":")))
    lines.append(CSV_COLUMNS)
    last = len(result.rows) - 1
    for i, row in enumerate(result.rows):
        cells = [
            _fmt(row.delta),
            _fmt(row.n_delta),
            _fmt(row.c_used),
            _fmt(row.E_delta),
            _fmt(row.I_upper),
            _fmt(row.J_lower),
            _fmt(result.growth_exponent) if i == last else "",
            result.verdict if i == last else "",
        ]
        lines.append(",".join(cells))
    text = "\n".join(lines) + "\n"
    with open(csv_path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)
    if svg_path:
        _write_svg(result, svg_path)


def _write_svg(result: SweepResult, path: str) -> None:
    xs = [math.log10(1.0 / r.delta) for r in result.rows]
    ys = [math.log10(max(r.E_delta, 1e-300)) for r in result.rows]
    x0, x1 = min(xs), max(xs)
    y0, y1 = min(ys), max(ys)
    dx = (x1 - x0) or 1.0
    dy = (y1 - y0) or 1.0
    W, H, pad = 480, 320, 40

    def px(x):
        return pad + (W - 2 * pad) * (x - x0) / dx

    def py(y):
        return H - pad - (H - 2 * pad) * (y - y0) / dy

    pts = " ".join(f"{px(x):.2f},{py(y):.2f}" for x, y in zip(xs, ys))
    svg = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{W}" height="{H}">',
        f'<rect width="{W}" height="{H}" fill="white"/>',
        f'<polyline points="{pts}" fill="none" stroke="black" stroke-width="1.5"/>',
        f'<text x="{W//2}" y="{H-10}" font-size="12" text-anchor="middle">log10(1/delta)</text>',
        f'<text x="12" y="{H//2}" font-size="12" transform="rotate(-90 12 {H//2})" text-anchor="middle">log10(E)</text>',
        f'<text x="{W//2}" y="20" font-size="12" text-anchor="middle">verdict: {result.verdict}, slope {result.growth_exponent:.3f}</text>',
        "</svg>",
    ]
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(svg) + "\n")


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def _cmd_constants(args) -> int:
    params = _material(args.lam, args.mu, degrees=[args.n])
    z = plasmon_constants(params, args.n)
    for name, val in zip(("zeta1", "zeta2", "zeta3"), z.as_tuple()):
        print(f"{name} = {_fmt(val)}")
    return EXIT_OK


def _cmd_kernels(args) -> int:
    from .fields import kernel_basis
    from .waves import kernel_family

    _check_wave_degree(args.n)
    params = _material(args.lam, args.mu, degrees=[args.n], fields=[args.n])
    z = plasmon_constants(params, args.n)
    kernels = [kernel_basis(params, args.n, fam) for fam in (1, 2, 3)]
    for fam, (c, kers) in enumerate(zip(z.as_tuple(), kernels), start=1):
        fams = {kernel_family(K) for K in kers}
        print(f"family {fam}: c = {_fmt(c)}, kernel dimension {len(kers)}, t-pattern {sorted(fams)}")
    return EXIT_OK


def _cmd_waves_check(args) -> int:
    from .fields import kernel_basis
    from .waves import perfect_wave, verify_perfect_wave

    _check_wave_degree(args.n)
    _check_radius(args.R)
    params = _material(args.lam, args.mu, degrees=[args.n], fields=[args.n])
    # every wave is built and checked before a row is printed: an amplitude
    # out of the float range is refused by perfect_wave, and a check whose
    # gradients or tractions leave it is refused here, by the radius
    waves = [(fam, k, perfect_wave(K, fam, args.n, args.R, params))
             for fam in (1, 2, 3) for k, K in enumerate(kernel_basis(params, args.n, fam), start=1)]
    reports = []
    for fam, k, wave in waves:
        try:
            with np.errstate(over="raise", invalid="raise"):
                reports.append((fam, k, verify_perfect_wave(wave, params)))
        except FloatingPointError as exc:
            raise ValidationError(f"--R {args.R} is out of the float range at degree {args.n}: the family-{fam} "
                                  f"perfect wave's check fails with {exc}") from None
    worst = 0.0
    for fam, k, rep in reports:
        # np.max, unlike max(), keeps a NaN residual, which then fails
        worst = float(np.max([worst, rep["continuity"], rep["transmission"],
                              rep["lame_interior"], rep["lame_exterior"]]))
        print(
            f"n={args.n} family={fam} k={k}: continuity {rep['continuity']:.2e} "
            f"transmission {rep['transmission']:.2e} lame {max(rep['lame_interior'], rep['lame_exterior']):.2e}"
        )
    print(f"worst residual {worst:.3e}")
    if not worst < 1e-6:
        raise ValidationError(f"worst residual {worst:.3e} is not below 1e-6")
    return EXIT_OK


def _cmd_np_spectrum(args) -> int:
    from .waves import np_eigenvalue_map, np_galerkin_spectrum

    _check_radius(args.R)
    if not 2 <= args.nmax <= MAX_DEGREE:
        raise ValidationError(f"--nmax must lie in 2..{MAX_DEGREE}, got {args.nmax}")
    params = _material(args.lam, args.mu, degrees=range(2, args.nmax + 1), fields=range(1, args.nmax + 1))
    spec = np_galerkin_spectrum(args.R, params, args.nmax)
    lines = ["# elastoplasmon np-spectrum schema=1", "eigenvalue,degree_tag,matched_c,matched_family,target"]
    targets = []
    for n in range(2, args.nmax + 1):
        z = plasmon_constants(params, n)
        for fam, c in enumerate(z.as_tuple(), start=1):
            targets.append((np_eigenvalue_map(c), c, fam, n))
    # a value repeats once per member of its sector: match each distinct value once
    nearest = {val: min(targets, key=lambda t: abs(t[0] - val)) for val in {v for v, _ in spec}}
    for val, deg in spec:
        match = nearest[val]
        if abs(match[0] - val) < 5e-3:
            lines.append(f"{_fmt(val)},{deg},{_fmt(match[1])},{match[2]},{_fmt(match[0])}")
        else:
            lines.append(f"{_fmt(val)},{deg},,,")
    text = "\n".join(lines) + "\n"
    if args.csv:
        with open(args.csv, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return EXIT_OK


def _cmd_solve(args) -> int:
    from .fields import residual_check

    cfg = load_config(args.config)
    delta = _single_loss(args, cfg)
    med, src = _configuration(cfg)(delta)
    sols = solve_modes(med, src)
    rep = residual_check(sols, med, src)
    E = dissipation_E(sols, med)
    print(f"delta = {_fmt(delta)}  c = {_fmt(med.c)}  E_delta = {_fmt(E)}")
    for key, val in sorted(rep.items()):
        print(f"residual {key}: {val:.3e}")
    failed = [f"{key} {val:.3e}" for key, val in sorted(rep.items()) if not val < 1e-8]
    if failed:
        raise ValidationError("residual not below 1e-8: " + ", ".join(failed))
    return EXIT_OK


def _cmd_sweep(args) -> int:
    cfg = load_config(args.config)
    out = cfg["output"]
    csv_path = args.csv or out.get("csv")
    if not csv_path:
        raise ValidationError("no CSV output path configured")
    result = sweep(_configuration(cfg), cfg["delta_list"])
    emit_report(result, cfg, csv_path, args.svg or out.get("svg"))
    print(f"verdict: {result.verdict}  growth_exponent: {_fmt(result.growth_exponent)}")
    return EXIT_OK


def _cmd_witness(args) -> int:
    cfg = load_config(args.config)
    delta = _single_loss(args, cfg)
    med, src = _configuration(cfg)(delta)
    failures, shown = [], 0
    for w, got in witness_scalars(med, src, delta):  # every one that applies, unlike a sweep row
        if isinstance(got, Exception):
            failures.append(f"{w.name}: {type(got).__name__}: {got}")
        else:
            shown += 1
            print("  ".join(f"{label} = {_fmt(v)}" for label, v in zip(w.labels, got)))
    if not shown:
        raise ValidationError("no witness applies: " + "; ".join(failures))
    return EXIT_OK


class _Parser(argparse.ArgumentParser):
    """Raises :class:`ValidationError` where argparse would print usage text and exit."""

    def error(self, message):
        raise ValidationError(f"{self.prog}: {message}")


# options whose value may be a negative number in exponent notation
# ("--lambda -1e-3"), which argparse would read as an option flag
_NUMBER_OPTIONS = ("--lambda", "--mu", "--R", "--delta")


def _attach_negative_values(argv: list[str]) -> list[str]:
    """Write ``--lambda -1e-3`` as ``--lambda=-1e-3`` for the options in ``_NUMBER_OPTIONS``."""
    out: list[str] = []
    for tok in argv:
        if out and out[-1] in _NUMBER_OPTIONS and tok.startswith("-"):
            try:
                float(tok)
            except ValueError:
                pass
            else:
                out[-1] = f"{out[-1]}={tok}"
                continue
        out.append(tok)
    return out


_MATERIAL = (("--lambda", dict(dest="lam", type=float, default=1.0)), ("--mu", dict(type=float, default=1.0)))
_DEGREE = ("--n", dict(type=int, required=True))
_RADIUS = ("--R", dict(type=float, default=1.0))
_CONFIG = ("--config", dict(required=True))
_DELTA = ("--delta", dict(type=float))

# (name, help, handler, options as (flag, add_argument keywords)), in help order
_COMMANDS = (
    ("constants", "plasmon constants at one degree", _cmd_constants, (_DEGREE, *_MATERIAL)),
    ("kernels", "kernel dimensions and t-patterns", _cmd_kernels, (_DEGREE, *_MATERIAL)),
    ("waves-check", "verify the perfect-wave invariants", _cmd_waves_check, (_DEGREE, _RADIUS, *_MATERIAL)),
    ("np-spectrum", "Galerkin boundary-operator spectrum", _cmd_np_spectrum,
     (_RADIUS, ("--nmax", dict(type=int, default=5)), ("--csv", {}), *_MATERIAL)),
    ("solve", "one exact solve with residual report", _cmd_solve, (_CONFIG, _DELTA)),
    ("sweep", "loss sweep driven by a JSON config", _cmd_sweep, (_CONFIG, ("--csv", {}), ("--svg", {}))),
    ("witness", "variational bounds at one loss value", _cmd_witness, (_CONFIG, _DELTA)),
)


def build_parser(argv: list[str] | None = None) -> argparse.ArgumentParser:
    """The parser of ``argv``, with only the subparser of the command its first token names.

    Any other first token (none, ``-h``, an unknown command, an option) gets
    every subparser, so usage, help and error texts are the full parser's.
    """
    ap = _Parser(prog="elastoplasmon", description=__doc__)
    sub = ap.add_subparsers(dest="command", required=True)
    first = argv[0] if argv else None
    for name, text, func, options in [c for c in _COMMANDS if c[0] == first] or _COMMANDS:
        p = sub.add_parser(name, help=text)
        for flag, kwargs in options:
            p.add_argument(flag, **kwargs)
        p.set_defaults(func=func)
    return ap


def main(argv: list[str] | None = None) -> int:
    argv = _attach_negative_values(sys.argv[1:] if argv is None else list(argv))
    try:
        args = build_parser(argv).parse_args(argv)
        return args.func(args)
    except EmptyResultError as exc:
        return _error(str(exc), EXIT_EMPTY)
    except (ValidationError, ValueError, ArithmeticError, UnconvergedSolveError, SectorCheckError) as exc:
        return _error(str(exc), EXIT_VALIDATION)
    except OSError as exc:
        return _error(str(exc), EXIT_IO)


if __name__ == "__main__":
    sys.exit(main())
