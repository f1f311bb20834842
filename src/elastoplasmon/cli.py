"""Configuration-driven experiment runner.

Subcommands: ``constants``, ``kernels``, ``waves-check``, ``np-spectrum``,
``solve``, ``sweep``, ``witness``.  Sweep configurations are JSON documents;
results go to CSV with a fixed column order and a metadata header block that
round-trips the full configuration.  Runs are deterministic: identical
configurations produce byte-identical CSV files.

Exit codes: 0 success, 2 validation failure (including an argument error, a
singular loss-free or unconverged solve, a failed sector check, arithmetic
out of the float range, a sweep or witness command whose bounds break the
variational sandwich and a witness command no witness applies to), 3 I/O failure, 4 empty
result.  Every failure writes one JSON line to stderr.  The command-line
process exits as soon as its outputs are flushed, so it runs no ``atexit``
handler; in-process callers of ``main`` are unaffected.

Only ``sweep`` and ``witness`` live in this module; the other commands and
the plot of ``sweep --svg`` load ``elastoplasmon.commands`` when first run.
A process builds each command's argument parser once, and the full one once.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys

from .lame import LameParams, mode_constants, plasmon_constants
from .transmission import REFUSALS, SourceSpec
from .scenarios import (SweepResult, fixed_configuration, schedule_n_delta, scheduled_configuration, sweep,
                        witness_scalars)

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_IO = 3
EXIT_EMPTY = 4

CSV_COLUMNS = "delta,n_delta,c,E_delta,I_upper,J_lower,growth_exponent,verdict"

# Deepest source degree a run may reach, also the bound on n_max and on
# np-spectrum's --nmax.  Every table degree a run reads is built and
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
    """Check what the JSON document adds to a run, then build the run (:func:`_check_run`), whose own constructors
    refuse the rest; any defect raises :class:`ValidationError`."""
    if not isinstance(cfg, dict) or cfg.get("schema") != 1:
        raise ValidationError("config schema must be 1")
    for key in ("lambda", "mu", "shell_radius", "q", "delta_list", "c_mode", "source_modes"):
        if key not in cfg:
            raise ValidationError(f"config missing key {key!r}")
    core = cfg.get("core_radius")
    for key in ("lambda", "mu", "shell_radius", "q") + (("core_radius",) if core is not None else ()):
        if not _is_real(cfg[key]):
            raise ValidationError(f"{key} must be a finite number")
    deltas = cfg["delta_list"]
    if (not isinstance(deltas, list) or len(deltas) < 3 or not all(_is_real(d) for d in deltas)
            or any(b >= a for a, b in zip(deltas, deltas[1:])) or min(deltas) <= 0):
        raise ValidationError("delta_list must be finite, positive and strictly decreasing, >= 3 entries")
    cmode = cfg["c_mode"]
    if not (isinstance(cmode, dict) and len(cmode) == 1 and next(iter(cmode)) in ("fixed", "schedule")):
        raise ValidationError("c_mode must be {'fixed': value} or {'schedule': family}")
    if "fixed" in cmode and not _is_real(cmode["fixed"]):
        raise ValidationError("the fixed multiplier must be a finite number")
    scheduled = "schedule" in cmode
    if scheduled and not _is_int(cmode["schedule"]):
        raise ValidationError("the schedule family must be an integer")
    n_max = cfg.setdefault("n_max", 24)
    if not _is_int(n_max):
        raise ValidationError("n_max must be an integer")
    _check_degree(n_max, "n_max")  # bounds the source degrees of fixed runs too
    modes = cfg["source_modes"]
    if not (isinstance(modes, list) and modes):
        raise ValidationError("source_modes must be a non-empty list")
    if scheduled and len(modes) != 1:
        raise ValidationError("scheduled runs re-inject exactly one source mode")
    listed = set()
    for mode in modes:
        if not (isinstance(mode, list) and len(mode) == 5):
            raise ValidationError(f"source mode {mode!r} is not [degree, family, k, Re gamma, Im gamma]")
        n, fam, k, re, im = mode
        if not ((n is None or _is_int(n)) and _is_int(fam) and _is_int(k) and _is_real(re) and _is_real(im)):
            raise ValidationError(f"source mode {mode!r} needs integer degree, family and k and a finite gamma")
        if n is None and not scheduled:
            raise ValidationError("fixed-multiplier runs need explicit source degrees")
        if n is not None and scheduled:  # the schedule sets the degree from the loss
            raise ValidationError(f"scheduled source mode {mode!r} lists degree {n}: a schedule's degree must be null")
        if n is not None and n > n_max:
            raise ValidationError(f"source degree {n} exceeds the truncation n_max = {n_max}")
        if scheduled and fam != cmode["schedule"]:
            raise ValidationError("scheduled source family must match the schedule family")
        if (n, fam, k) in listed:  # a second coefficient would silently replace the first
            raise ValidationError(f"source mode (degree, family, k) = ({n}, {fam}, {k}) is listed twice")
        listed.add((n, fam, k))
    _check_run(cfg, deltas)
    if not cfg["q"] > cfg["shell_radius"]:  # as the solve's region layout refuses it
        raise ValidationError(f"source sphere q = {cfg['q']} must lie outside the shell (radius {cfg['shell_radius']})")
    out = cfg.setdefault("output", {})
    if not (isinstance(out, dict) and all(isinstance(out[k], str) and out[k] for k in ("csv", "svg") if k in out)):
        raise ValidationError("output must be an object whose csv and svg, where given, are non-empty strings")
    return cfg


def _check_run(cfg: dict, deltas: list[float]) -> None:
    """Build the run of a checked document at the first of ``deltas`` (a schedule also at the last); a ``ValueError``
    of its constructors (geometry, loss, source modes) is a :class:`ValidationError` with the same message.

    A scheduled run's degree follows the loss, so the deepest one is bounded
    first, and the moduli are probed at every degree the run reads
    (:func:`_material`) before a constructor forms a constant from them.
    """
    scheduled = "schedule" in cfg["c_mode"]
    try:
        run = _configuration(cfg)
        if scheduled:
            degrees = [schedule_n_delta(cfg["shell_radius"], d) for d in deltas]
            _check_degree(max(degrees), "deepest scheduled degree")
            sources = [(n, cfg["c_mode"]["schedule"]) for n in degrees]
        else:
            sources = [(n, fam) for n, fam, *_ in cfg["source_modes"]]
        _source_material(cfg, sources)
        run(deltas[0])
        if scheduled:  # its degree, and with it the source and the multiplier, follow the loss
            run(deltas[-1])
    except ValueError as exc:  # a ValidationError keeps its message too
        raise ValidationError(str(exc)) from None


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
            if not all(map(math.isfinite, cst[1:] if n >= 2 else (cst.k_n, cst.M_n))):  # every constant but n
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


def _single_loss(args, cfg: dict) -> float:
    """The loss of a one-loss command: ``--delta``, else the first listed loss.

    ``--delta`` must be finite and positive, and the run is built at it
    (:func:`_check_run`: a scheduled run's degree follows the loss).
    """
    if args.delta is None:
        return cfg["delta_list"][0]
    if not (math.isfinite(args.delta) and args.delta > 0):
        raise ValidationError(f"--delta must be finite and positive, got {args.delta}")
    _check_run(cfg, [args.delta])
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
    cells = [[_fmt(v) for v in (r.delta, r.n_delta, r.c_used, r.E_delta, r.I_upper, r.J_lower)] + ["", ""]
             for r in result.rows]
    cells[-1][-2:] = _fmt(result.growth_exponent), result.verdict  # the fit, on the last row
    lines = ["# elastoplasmon sweep schema=1", "# config=" + json.dumps(cfg, sort_keys=True, separators=(",", ":")),
             CSV_COLUMNS, *(",".join(row) for row in cells)]
    with open(csv_path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")
    if svg_path:
        _on_demand("_write_svg")(result, svg_path)


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def _on_demand(name: str):
    """A call of the function ``name`` of :mod:`elastoplasmon.commands`, which imports it.  That module imports
    its helpers from this one, ``__main__`` under ``python -m elastoplasmon.cli``, so registered as ``cli`` first."""
    def call(*args):
        sys.modules.setdefault(f"{__package__}.cli", sys.modules[__name__])
        from . import commands

        return getattr(commands, name)(*args)
    return call


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

_DESCRIPTION = ("Plasmon resonance of the 3D Lame system in core-shell-matrix spheres: exact solves, loss sweeps "
                "and variational witness bounds.  Exit codes: 0 success, 2 validation failure, 3 I/O failure, "
                "4 empty result.")

# (name, help, handler, options as (flag, add_argument keywords)), in help order
_COMMANDS = (
    ("constants", "plasmon constants at one degree", _on_demand("_cmd_constants"), (_DEGREE, *_MATERIAL)),
    ("kernels", "kernel dimensions and t-patterns", _on_demand("_cmd_kernels"), (_DEGREE, *_MATERIAL)),
    ("waves-check", "verify the perfect-wave invariants", _on_demand("_cmd_waves_check"),
     (_DEGREE, _RADIUS, *_MATERIAL)),
    ("np-spectrum", "Galerkin boundary-operator spectrum", _on_demand("_cmd_np_spectrum"),
     (("--nmax", dict(type=int, default=5)), ("--csv", {}), *_MATERIAL)),
    ("solve", "one exact solve with residual report", _on_demand("_cmd_solve"), (_CONFIG, _DELTA)),
    ("sweep", "loss sweep driven by a JSON config", _cmd_sweep, (_CONFIG, ("--csv", {}), ("--svg", {}))),
    ("witness", "variational bounds at one loss value", _cmd_witness, (_CONFIG, _DELTA)),
)


def build_parser(argv: list[str] | None = None) -> argparse.ArgumentParser:
    """The parser of ``argv``, with only the subparser of the command its first token names.

    Any other first token (none, ``-h``, an unknown command, an option) gets
    every subparser, so usage, help and error texts are the full parser's.
    Each parser is built once per process (:func:`_parser`).
    """
    first = argv[0] if argv else None
    return _parser(first if any(c[0] == first for c in _COMMANDS) else None)


@functools.lru_cache(maxsize=None)
def _parser(command: str | None) -> argparse.ArgumentParser:
    """The parser with the subparser of ``command`` alone, or of every command for None."""
    ap = _Parser(prog="elastoplasmon", description=_DESCRIPTION)
    sub = ap.add_subparsers(dest="command", required=True)
    for name, text, func, options in [c for c in _COMMANDS if c[0] == command] or _COMMANDS:
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
    except (ValidationError, *REFUSALS) as exc:
        return _error(str(exc), EXIT_VALIDATION)
    except OSError as exc:
        return _error(str(exc), EXIT_IO)


def run() -> None:
    """:func:`main`, then exit once the outputs are flushed, skipping Python's finalization.

    An exception escaping :func:`main`, or a failed flush, ends the process as ``sys.exit`` does.
    """
    code = main()
    try:
        sys.stdout.flush()
        sys.stderr.flush()
    except OSError:
        sys.exit(code)  # finalization reports the failed flush
    os._exit(code)


if __name__ == "__main__":
    run()
