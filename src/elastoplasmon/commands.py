"""The commands ``constants``, ``kernels``, ``waves-check``, ``np-spectrum`` and ``solve``, and the plot of
``sweep --svg``: :mod:`~elastoplasmon.cli` (which holds their options) imports this module only when one runs,
so a sweep or a witness does not compile it."""

from __future__ import annotations

import math
import sys

import numpy as np

from .cli import (EXIT_OK, MAX_DEGREE, ValidationError, _check_degree, _configuration, _fmt, _material, _single_loss,
                  load_config)
from .energy import dissipation_E
from .lame import plasmon_constants
from .transmission import solve_modes


def _check_wave_degree(n: int) -> None:
    if n < 2:
        raise ValidationError(f"--n must be at least 2, got {n}")
    _check_degree(n, "--n")


def _write_svg(result, path: str) -> None:
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
    if not (math.isfinite(args.R) and args.R > 0):
        raise ValidationError(f"--R must be finite and positive, got {args.R}")
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

    if not 2 <= args.nmax <= MAX_DEGREE:
        raise ValidationError(f"--nmax must lie in 2..{MAX_DEGREE}, got {args.nmax}")
    params = _material(args.lam, args.mu, degrees=range(2, args.nmax + 1), fields=range(1, args.nmax + 1))
    spec = np_galerkin_spectrum(params, args.nmax)
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
