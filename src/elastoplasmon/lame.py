"""Mode fields of the 3D Lame system on spherical geometries.

Every field in this package is a finite sum of *harmonic terms*

    u(x) = sum_t  C_t  r^{p_t}  Y_{d_t}(xhat),      C_t of shape (3, 2 d_t + 1),

living on an annulus ``r_lo < r < r_hi``.  The algebra is closed under
differentiation: with the multiplication identity

    xhat_j Y_d = -raise_[d][j]/(2d+1) . Y_{d+1}  +  lower[d][j]/(2d+1) . Y_{d-1}

one derivative of a term produces two terms with the radial power dropped by
one.  Each ladder family is stored as one ``(3, ., .)`` array per degree, so
:func:`term_gradient` takes all three directions in one broadcast product
``coef @ ladder``.  This gives exact gradients, strains, divergences,
tractions and Lame residuals for all mode fields; finite-difference and
per-direction routes live with the tests as oracles, and so does
:func:`traction_coeffs`, a sphere-rule projection nothing in the package calls.

The irregular and regular Lame blocks of a coefficient matrix G carry
slaved corrections k_n [t1 . raise_] r^{-n-1} Y_{n+2} and
-M_n [t3 . lower] r^n Y_{n-2}, with ``t1 = sum_j G_j . raise_[n][j]`` and
``t3 = sum_j G_j . lower[n][j]``; :func:`mode_constants` gives k_n and M_n,
:func:`exterior_traction_coeffs` the traction of the irregular block, and
the radial profiles of :mod:`~elastoplasmon.transmission` every block in
closed form.  :func:`plasmon_constants`, the shell multipliers that admit
perfect waves, and :class:`SectorCheckError` sit here with the mode
constants, so a sector solve needs neither the ladders of
:mod:`~elastoplasmon.harmonics`, which this module reads by degree only where
a field's derivatives are formed, nor :mod:`~elastoplasmon.waves`.
"""

from __future__ import annotations

import functools
import math
import sys
from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable

import numpy as np

if TYPE_CHECKING:
    from .harmonics import SphereQuadrature

__all__ = [
    "SectorCheckError",
    "LameParams",
    "ModeConstants",
    "PlasmonConstants",
    "Term",
    "ModeField",
    "mode_constants",
    "plasmon_constants",
    "t1_vector",
    "t3_vector",
    "exterior_traction_coeffs",
    "displacement_coeffs",
    "traction_coeffs_algebraic",
    "eval_terms",
    "term_gradient",
    "gradient_groups",
    "grad_terms",
    "lame_residual",
]


class SectorCheckError(AssertionError):
    """Raised when a built field, trace or kernel fails its sector check.

    The checks hold to roundoff, and the roundoff of lambda div u grows with
    lambda / mu (and near 3 lambda + 2 mu = 0), so at extreme Lame ratios a
    correct build can fail them.  The command line reports this as a
    validation failure.
    """


@dataclass(frozen=True)
class LameParams:
    """Base Lame pair with the 3D strong convexity invariant."""

    lam: float
    mu: float

    def __post_init__(self):
        if not (self.mu > 0 and 3.0 * self.lam + 2.0 * self.mu > 0):
            raise ValueError(
                f"(lambda, mu)=({self.lam}, {self.mu}) violates mu>0, 3*lambda+2*mu>0"
            )


@dataclass(frozen=True)
class ModeConstants:
    """Scalar constants of the degree-n mode formulas."""

    n: int
    k_n: float
    M_n: float
    E_n: float
    s1_n: float
    s2_n: float
    l_n: float
    m_n: float


def _safe_div(num: float, den_terms: tuple[float, ...], what: str, factor: float = 1.0) -> float:
    """``num`` over ``factor`` times the sum of ``den_terms``, refused where that sum cancels or underflows.

    The sum is compared with the magnitudes of its own terms, so the test is
    homogeneous in (lambda, mu): ArithmeticError where the terms cancel to
    1e-14 of their magnitude (exactly zero included), or where their
    magnitude falls below the normal float range and digits are lost.
    """
    den, size = sum(den_terms), sum(abs(t) for t in den_terms)
    if not (abs(den) > 1e-14 * size and size >= sys.float_info.min):
        raise ArithmeticError(f"denominator of {what} vanishes")
    return num / (factor * den)


def _once_per_key(f):
    """``f(params, *args)`` once per process per key (float lambda, float mu, *args), evaluated at
    that float pair (``+ 0.0`` reads -0.0 as 0.0): ``LameParams(1, 1)`` and ``LameParams(1.0, 1.0)``
    share a value in ``cache``.  A raise keeps nothing; no caller mutates a value; ``f`` is ``__wrapped__``."""
    @functools.wraps(f)
    def cached(params, *args):
        key = (float(params.lam) + 0.0, float(params.mu) + 0.0, *args)
        out = cached.cache.get(key)
        if out is None:
            out = cached.cache[key] = cached.__wrapped__(LameParams(*key[:2]), *args)
        return out

    cached.cache = {}
    return cached


@_once_per_key
def mode_constants(params: LameParams, n: int) -> ModeConstants:
    """All seven scalars of the degree-n closed forms.

    ``k_n`` enters the irregular correction, ``M_n`` the regular one,
    ``E_n/s1_n/s2_n`` the boundary solvers and ``l_n/m_n`` the traction
    expansion of an irregular block.
    """
    if n < 1:
        raise ValueError("mode constants need n >= 1")
    lam, mu = params.lam, params.mu
    k_n = _safe_div(lam + mu, ((n + 2) * lam, (3 * n + 5) * mu), "k_n", 2.0)
    M_n = _safe_div(lam + mu, ((n - 1) * lam, (3 * n - 2) * mu), "M_n", 2.0)
    E_n = _safe_div((n + 2) * lam - (n - 3) * mu, ((n - 1) * lam, (3 * n - 2) * mu), "E_n", 2 * n + 1.0)
    s1_n = _safe_div(E_n, (n - 1, n * (2 * n + 1.0) * E_n), "s1_n") if n >= 2 else math.nan
    s2_n = 1.0 / (2.0 * n * (2 * n + 1))
    l_n = (2.0 * lam / (lam + mu) + 2.0 * (-n - 2) / (2 * n + 3.0)) * k_n - 2.0 / ((2 * n + 3.0) * (2 * n + 1.0))
    if n >= 2:
        k_nm2 = _safe_div(lam + mu, (n * lam, (3 * n - 1) * mu), "k_{n-2}", 2.0)
        m_n = (-2.0 * lam / (lam + mu) - 4.0 * n * (n - 1) / (2 * n - 1.0)) * k_nm2 - 1.0 / (2 * n - 1.0)
    else:
        m_n = math.nan
    return ModeConstants(n=n, k_n=k_n, M_n=M_n, E_n=E_n, s1_n=s1_n, s2_n=s2_n, l_n=l_n, m_n=m_n)


@dataclass(frozen=True)
class PlasmonConstants:
    """The three negative shell multipliers admitting nontrivial waves."""

    n: int
    zeta1: float
    zeta2: float
    zeta3: float

    def as_tuple(self) -> tuple[float, float, float]:
        return (self.zeta1, self.zeta2, self.zeta3)


@_once_per_key
def plasmon_constants(params: LameParams, n: int) -> PlasmonConstants:
    """Closed-form plasmon constants for degree n >= 2.

    The middle constant carries the combination (n-1) lambda + (3n-2) mu in
    its numerator; the transmission eigenproblem, the kernel multiplicity
    2n-1 and the Neumann-Poincare spectrum all confirm this form.  Moduli
    so large that the sums overflow (lambda = mu = 1e308) give non-finite or
    zero constants, which raise ``ArithmeticError``.
    """
    if n < 2:
        raise ValueError("plasmon constants need n >= 2")
    lam, mu = params.lam, params.mu
    z1 = -1.0 - 3.0 / (n - 1.0)
    z2 = -(2.0 * n + 2.0) * ((n - 1) * lam + (3 * n - 2) * mu) / (
        (2.0 * n * n + 1.0) * lam + (2.0 + 2.0 * n * (n - 1.0)) * mu
    )
    z3 = -((2.0 * n * n + 4 * n + 3) * lam + (2.0 * n * n + 6 * n + 6) * mu) / (
        2.0 * n * ((n + 2) * lam + (3 * n + 5) * mu)
    )
    out = PlasmonConstants(n=n, zeta1=z1, zeta2=z2, zeta3=z3)
    if not all(math.isfinite(z) and z != 0 for z in out.as_tuple()):  # the sums overflow
        raise ArithmeticError(f"plasmon constants at n={n} overflow: {out}")
    if not all(z < 0 for z in out.as_tuple()):
        raise AssertionError(f"plasmon constants not all negative at n={n}: {out}")
    return out


# ---------------------------------------------------------------------------
# term algebra
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Term:
    """One coefficient block: value = coef @ Y_degree(xhat) * r**power."""

    coef: np.ndarray
    degree: int
    power: int


@dataclass(frozen=True)
class ModeField:
    """One annulus of a piecewise field: a sum of terms on (r_lo, r_hi); r_hi may be inf."""

    terms: tuple[Term, ...]
    r_lo: float
    r_hi: float

    def __call__(self, x: np.ndarray) -> np.ndarray:
        return eval_terms(self.terms, np.asarray(x, dtype=float))


def _eval_coefs(groups: Iterable[tuple[tuple[int, int], np.ndarray]], X: np.ndarray, shape: tuple) -> np.ndarray:
    """Sum of r^p coef . Y_d(xhat) over ((d, p), coef) at the points X (N, 3); coef of shape shape + (2d+1,).

    One Legendre recurrence serves every group; each Y_d equals ``sph_harm_stack(d, xhat)``.
    """
    from .harmonics import _legendre_rows, _stack_row

    groups = list(groups)
    r = np.linalg.norm(X, axis=1)
    xhat = X / r[:, None]
    u = xhat[:, 0] + 1j * xhat[:, 1]
    needed = {d for (d, _), _ in groups}
    Y = {d: _stack_row(d, A, u) for d, A in enumerate(_legendre_rows(max(needed, default=0), xhat[:, 2]))
         if d in needed}
    out = np.zeros((X.shape[0], math.prod(shape)), dtype=complex)
    for (d, p), coef in groups:
        out += (Y[d] @ coef.reshape(-1, 2 * d + 1).T) * (r**p)[:, None]
    return out.reshape((X.shape[0],) + shape)


def eval_terms(terms: Iterable[Term], x: np.ndarray) -> np.ndarray:
    """Field values; x of shape (3,) or (N, 3), output (3,) or (N, 3)."""
    single = x.ndim == 1
    out = _eval_coefs((((t.degree, t.power), t.coef) for t in terms), np.atleast_2d(x), (3,))
    return out[0] if single else out


def term_gradient(t: Term) -> list[tuple[int, int, np.ndarray]]:
    """Exact gradient of a term as at most two groups (degree d+-1, power p-1, coef).

    ``coef[j]`` is the d/dx_j coefficient block, rows as in ``t.coef``: for a
    vector term ``coef[j, i]`` holds d u_i / d x_j.  Each group is one
    broadcast product of the coefficients with a stacked ladder.
    """
    from .harmonics import lower, raise_

    d, p = t.degree, t.power
    out = []
    up = -(p - d) / (2.0 * d + 1.0)
    if up != 0.0:
        out.append((d + 1, p - 1, up * (t.coef @ raise_[d])))
    if d >= 1:
        down = (p - d) / (2.0 * d + 1.0) + 1.0
        if down != 0.0:
            out.append((d - 1, p - 1, down * (t.coef @ lower[d])))
    return out


def gradient_groups(terms: Iterable[Term]) -> dict[tuple[int, int], np.ndarray]:
    """The terms' :func:`term_gradient` groups summed by (degree, power)."""
    out: dict[tuple[int, int], np.ndarray] = {}
    for t in terms:
        for d, p, g in term_gradient(t):
            out[d, p] = out[d, p] + g if (d, p) in out else g
    return out


def _hessian_groups(terms: Iterable[Term]) -> dict[tuple[int, int], np.ndarray]:
    """Exact second derivatives summed by (degree, power).

    ``coef[k, j]`` is the d^2/dx_j dx_k coefficient block, rows as in the
    terms' coefficients.
    """
    first = gradient_groups(terms)
    flat = (Term(g.reshape(-1, 2 * d + 1), d, p) for (d, p), g in first.items())
    return {key: h.reshape((3, 3, -1, h.shape[-1])) for key, h in gradient_groups(flat).items()}


def grad_terms(terms: Iterable[Term], x: np.ndarray) -> np.ndarray:
    """Exact gradient; output (..., 3, 3) with [i, j] = d u_i / d x_j."""
    single = x.ndim == 1
    out = np.swapaxes(_eval_coefs(gradient_groups(terms).items(), np.atleast_2d(x), (3, 3)), 1, 2)
    return out[0] if single else out


# ---------------------------------------------------------------------------
# mode blocks
# ---------------------------------------------------------------------------

def t1_vector(G: np.ndarray, n: int) -> np.ndarray:
    """Divergence coefficients of the irregular block, length 2n+3."""
    from .harmonics import raise_

    return np.einsum("jm,jmk->k", G, raise_[n])


def t3_vector(G: np.ndarray, n: int) -> np.ndarray:
    """Divergence coefficients of the regular block, length 2n-1."""
    from .harmonics import lower

    return np.einsum("jm,jmk->k", G, lower[n])


def _k0(params: LameParams) -> float:
    # k_n formula continues to n = 0 (monopole block)
    return (params.lam + params.mu) / (2.0 * (2 * params.lam + 5 * params.mu))


def _tilde_scale(n: int, R: float, params: LameParams, c: complex = 1.0) -> complex:
    """Scalar factor of the tilde map; ``c`` folds in the shell multiplier of
    the transmission problem (traction divided by c)."""
    return R / ((n - 1) * c * params.mu)


def _tilde_unscaled(Ap: np.ndarray, n: int, params: LameParams) -> np.ndarray:
    """The radius- and multiplier-free part of the tilde map."""
    from .harmonics import lower, raise_

    Ap = np.asarray(Ap, dtype=complex)
    cst = mode_constants(params, n)
    t4 = t3_vector(Ap, n)
    t5 = t1_vector(Ap, n)
    return Ap + cst.s1_n * (t4 @ raise_[n - 1]) + cst.s2_n * (t5 @ lower[n + 1])


def exterior_traction_coeffs(G: np.ndarray, n: int, R: float, params: LameParams) -> dict[int, np.ndarray]:
    """Closed-form surface traction of one irregular block on partial B_R.

    Returns coefficient matrices keyed by angular degree (n and, when the
    block's t1 is nonzero, n+2).
    """
    from .harmonics import lower, raise_

    G = np.asarray(G, dtype=complex)
    cst = mode_constants(params, n)
    t1 = t1_vector(G, n)
    t3 = t3_vector(G, n) if n >= 1 else None
    mu = params.mu
    main = cst.l_n * (t1 @ lower[n + 1]) + (-n - 2.0) * G
    if n >= 1 and t3 is not None and t3.size:
        main = main + (1.0 / (2 * n + 1.0)) * (t3 @ raise_[n - 1])
    out = {n: main * mu / R ** (n + 2)}
    if np.any(t1):
        m_np2 = mode_constants(params, n + 2).m_n
        out[n + 2] = m_np2 * (t1 @ raise_[n + 1]) * mu / R ** (n + 2)
    return out


# ---------------------------------------------------------------------------
# traces
# ---------------------------------------------------------------------------

def displacement_coeffs(terms: Iterable[Term], radius: float) -> dict[int, np.ndarray]:
    """Exact per-degree coefficients of the trace on a sphere."""
    out: dict[int, np.ndarray] = {}
    for t in terms:
        block = out.setdefault(t.degree, np.zeros_like(t.coef))
        out[t.degree] = block + t.coef * radius ** t.power
    return out


def _traction_from_grad(grad: np.ndarray, xhat: np.ndarray, lam: float | complex, mu: float | complex) -> np.ndarray:
    """lambda (div u) nu + mu (grad u + grad u^T) nu from nodal gradients."""
    div = np.trace(grad, axis1=-2, axis2=-1)
    sym = grad + np.swapaxes(grad, -2, -1)
    return lam * div[..., None] * xhat + mu * np.einsum("...ij,...j->...i", sym, xhat)


def traction_coeffs(terms: Iterable[Term], radius: float, params: LameParams,
                    quad: SphereQuadrature, degrees: Iterable[int] | None = None) -> dict[int, np.ndarray]:
    """Per-degree traction coefficients via exact nodal gradients projected on ``quad`` (tests only)."""
    terms = tuple(terms)
    if degrees is None:
        degrees = sorted({d for t in terms for d in range(max(t.degree - 2, 0), t.degree + 3)})
    X = radius * quad.nodes
    grad = grad_terms(terms, X)
    trac = _traction_from_grad(grad, quad.nodes, params.lam, params.mu)
    return {d: quad.project(trac, d).T for d in degrees}


def _sphere_multiply(sigma: np.ndarray, g: int) -> list[tuple[np.ndarray, int]]:
    """Coefficients of sum_k xhat_k (sigma[k] . Y_g) on the unit sphere, by degree g +- 1."""
    from .harmonics import lower, raise_

    out = [((sigma @ raise_[g]).sum(axis=0) * (-1.0 / (2.0 * g + 1.0)), g + 1)]
    if g >= 1:
        out.append(((sigma @ lower[g]).sum(axis=0) / (2.0 * g + 1.0), g - 1))
    return out


def traction_coeffs_algebraic(terms: Iterable[Term], radius: float, params: LameParams) -> dict[int, np.ndarray]:
    """Per-degree traction coefficients by pure matrix algebra (no quadrature).

    The traction is ``sum_k sigma[k, i] xhat_k`` with the symmetric stress
    ``sigma[k, i] = lam div delta_ki + mu (d u_i/d x_k + d u_k/d x_i)``.
    """
    lam, mu = params.lam, params.mu
    out: dict[int, np.ndarray] = {}
    for (g, p), A in gradient_groups(terms).items():  # A[j, i] = d u_i / d x_j
        sigma = mu * (A + A.transpose(1, 0, 2))
        sigma[[0, 1, 2], [0, 1, 2]] += lam * (A[0, 0] + A[1, 1] + A[2, 2])
        for block, deg in _sphere_multiply(radius**p * sigma, g):
            out[deg] = out[deg] + block if deg in out else block
    return out


def lame_residual(terms: Iterable[Term], params: LameParams, points: np.ndarray) -> float:
    """Relative residual of mu Lap u + (lam+mu) grad div u at the points.

    Every second derivative is formed exactly by the term algebra and
    evaluated at the points; the residual is normalized by the larger of
    3 max|second derivatives| and |u|/r^2, so the bound is meaningful across
    degrees and radii.
    """
    terms = tuple(terms)
    X = np.atleast_2d(points)
    second = _eval_coefs(_hessian_groups(terms).items(), X, (3, 3, 3))  # [., k, j, i] = d^2 u_i / dx_j dx_k
    lap = np.einsum("njji->ni", second)
    graddiv = np.einsum("nijj->ni", second)
    res = params.mu * lap + (params.lam + params.mu) * graddiv
    r2 = np.maximum(np.sum(X * X, axis=1), 1e-30)
    u_scale = np.max(np.abs(eval_terms(terms, X)), axis=1) / r2
    scale = abs(params.mu) * np.maximum(np.maximum(3.0 * np.max(np.abs(second), axis=(1, 2, 3)), u_scale), 1e-30)
    return float(np.max(np.max(np.abs(res), axis=1) / scale))
