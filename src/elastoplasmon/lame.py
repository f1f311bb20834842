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

The regular and irregular Lame blocks carry their slaved corrections:

    exterior:  G r^{-n-1} Y_n + k_n [t1 . D]_j r^{-n-1} Y_{n+2}
    interior:  G r^n Y_n     - M_n [t3 . D]_j r^n Y_{n-2}

with ``t1 = sum_j G_j . raise_[n][j]``, ``t3 = sum_j G_j . lower[n][j]`` and
``[t . D]_j = t . D[j]``, i.e. ``t @ D`` for a stacked ladder ``D``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .harmonics import DerivativeTable, SphereQuadrature, _legendre_rows, _stack_row, ensure_tables

__all__ = [
    "LameParams",
    "ModeConstants",
    "Term",
    "ModeField",
    "mode_constants",
    "t1_vector",
    "t3_vector",
    "exterior_block",
    "interior_block",
    "exterior_traction_coeffs",
    "displacement_coeffs",
    "traction_coeffs_algebraic",
    "eval_terms",
    "term_gradient",
    "gradient_groups",
    "grad_terms",
    "lame_residual",
]


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
    M_np2: float
    E_n: float
    s1_n: float
    s2_n: float
    l_n: float
    m_n: float


def _safe_div(num: float, den: float, what: str) -> float:
    if abs(den) < 1e-14 * max(1.0, abs(num)):
        raise ArithmeticError(f"denominator of {what} vanishes")
    return num / den


def mode_constants(params: LameParams, n: int) -> ModeConstants:
    """All eight scalars of the degree-n closed forms.

    ``k_n`` enters the irregular correction, ``M_n`` the regular one,
    ``M_np2/E_n/s1_n/s2_n`` the boundary solvers and ``l_n/m_n`` the
    traction expansion of an irregular block.
    """
    if n < 1:
        raise ValueError("mode constants need n >= 1")
    lam, mu = params.lam, params.mu
    k_n = _safe_div(lam + mu, 2.0 * ((n + 2) * lam + (3 * n + 5) * mu), "k_n")
    M_n = _safe_div(lam + mu, 2.0 * ((n - 1) * lam + (3 * n - 2) * mu), "M_n")
    M_np2 = _safe_div(lam + mu, 2.0 * ((n + 1) * lam + (3 * n + 4) * mu), "M_{n+2}")
    E_n = _safe_div((n + 2) * lam - (n - 3) * mu, (2 * n + 1.0) * ((n - 1) * lam + (3 * n - 2) * mu), "E_n")
    s1_n = _safe_div(E_n, n - 1 + n * (2 * n + 1.0) * E_n, "s1_n") if n >= 2 else math.nan
    s2_n = 1.0 / (2.0 * n * (2 * n + 1))
    l_n = (2.0 * lam / (lam + mu) + 2.0 * (-n - 2) / (2 * n + 3.0)) * k_n - 2.0 / ((2 * n + 3.0) * (2 * n + 1.0))
    if n >= 2:
        k_nm2 = _safe_div(lam + mu, 2.0 * (n * lam + (3 * n - 1) * mu), "k_{n-2}")
        m_n = (-2.0 * lam / (lam + mu) - 4.0 * n * (n - 1) / (2 * n - 1.0)) * k_nm2 - 1.0 / (2 * n - 1.0)
    else:
        m_n = math.nan
    return ModeConstants(n=n, k_n=k_n, M_n=M_n, M_np2=M_np2, E_n=E_n, s1_n=s1_n, s2_n=s2_n, l_n=l_n, m_n=m_n)


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


def term_gradient(t: Term, tables: DerivativeTable) -> list[tuple[int, int, np.ndarray]]:
    """Exact gradient of a term as at most two groups (degree d+-1, power p-1, coef).

    ``coef[j]`` is the d/dx_j coefficient block, rows as in ``t.coef``: for a
    vector term ``coef[j, i]`` holds d u_i / d x_j.  Each group is one
    broadcast product of the coefficients with a stacked ladder.
    """
    d, p = t.degree, t.power
    out = []
    up = -(p - d) / (2.0 * d + 1.0)
    if up != 0.0:
        out.append((d + 1, p - 1, up * (t.coef @ tables.raise_[d])))
    if d >= 1:
        down = (p - d) / (2.0 * d + 1.0) + 1.0
        if down != 0.0:
            out.append((d - 1, p - 1, down * (t.coef @ tables.lower[d])))
    return out


def gradient_groups(terms: Iterable[Term], tables: DerivativeTable) -> dict[tuple[int, int], np.ndarray]:
    """The terms' :func:`term_gradient` groups summed by (degree, power)."""
    out: dict[tuple[int, int], np.ndarray] = {}
    for t in terms:
        for d, p, g in term_gradient(t, tables):
            out[d, p] = out[d, p] + g if (d, p) in out else g
    return out


def _hessian_groups(terms: Iterable[Term], tables: DerivativeTable) -> dict[tuple[int, int], np.ndarray]:
    """Exact second derivatives summed by (degree, power).

    ``coef[k, j]`` is the d^2/dx_j dx_k coefficient block, rows as in the
    terms' coefficients.
    """
    first = gradient_groups(terms, tables)
    flat = (Term(g.reshape(-1, 2 * d + 1), d, p) for (d, p), g in first.items())
    return {key: h.reshape((3, 3, -1, h.shape[-1])) for key, h in gradient_groups(flat, tables).items()}


def grad_terms(terms: Iterable[Term], x: np.ndarray, tables: DerivativeTable) -> np.ndarray:
    """Exact gradient; output (..., 3, 3) with [i, j] = d u_i / d x_j."""
    single = x.ndim == 1
    out = np.swapaxes(_eval_coefs(gradient_groups(terms, tables).items(), np.atleast_2d(x), (3, 3)), 1, 2)
    return out[0] if single else out


# ---------------------------------------------------------------------------
# mode blocks
# ---------------------------------------------------------------------------

def t1_vector(G: np.ndarray, n: int, tables: DerivativeTable) -> np.ndarray:
    """Divergence coefficients of the irregular block, length 2n+3."""
    return np.einsum("jm,jmk->k", G, tables.raise_[n])


def t3_vector(G: np.ndarray, n: int, tables: DerivativeTable) -> np.ndarray:
    """Divergence coefficients of the regular block, length 2n-1."""
    return np.einsum("jm,jmk->k", G, tables.lower[n])


def exterior_block(G: np.ndarray, n: int, params: LameParams, tables: DerivativeTable) -> tuple[Term, ...]:
    """Irregular degree-n block with its slaved degree-(n+2) correction."""
    G = np.asarray(G, dtype=complex)
    terms = [Term(G, n, -n - 1)]
    t1 = t1_vector(G, n, tables)
    if np.max(np.abs(t1)) > 1e-13 * max(np.max(np.abs(G)), 1e-300):
        k_n = mode_constants(params, max(n, 1)).k_n if n >= 1 else _k0(params)
        terms.append(Term(k_n * (t1 @ tables.raise_[n + 1]), n + 2, -n - 1))
    return tuple(terms)


def _k0(params: LameParams) -> float:
    # k_n formula continues to n = 0 (monopole block)
    return (params.lam + params.mu) / (2.0 * (2 * params.lam + 5 * params.mu))


def interior_block(G: np.ndarray, n: int, params: LameParams, tables: DerivativeTable) -> tuple[Term, ...]:
    """Regular degree-n block with its slaved degree-(n-2) correction."""
    G = np.asarray(G, dtype=complex)
    terms = [Term(G, n, n)]
    if n >= 2:
        t3 = t3_vector(G, n, tables)
        if np.max(np.abs(t3)) > 1e-13 * max(np.max(np.abs(G)), 1e-300):
            M_n = mode_constants(params, n).M_n
            terms.append(Term(-M_n * (t3 @ tables.lower[n - 1]), n - 2, n))
    return tuple(terms)


def _tilde_scale(n: int, R: float, params: LameParams, c: complex = 1.0) -> complex:
    """Scalar factor of the tilde map; ``c`` folds in the shell multiplier of
    the transmission problem (traction divided by c)."""
    return R / ((n - 1) * c * params.mu)


def _tilde_unscaled(Ap: np.ndarray, n: int, params: LameParams, tables: DerivativeTable) -> np.ndarray:
    """The radius- and multiplier-free part of the tilde map."""
    Ap = np.asarray(Ap, dtype=complex)
    cst = mode_constants(params, n)
    t4 = t3_vector(Ap, n, tables)
    t5 = t1_vector(Ap, n, tables)
    return Ap + cst.s1_n * (t4 @ tables.raise_[n - 1]) + cst.s2_n * (t5 @ tables.lower[n + 1])


def exterior_traction_coeffs(G: np.ndarray, n: int, R: float, params: LameParams,
                             tables: DerivativeTable) -> dict[int, np.ndarray]:
    """Closed-form surface traction of one irregular block on partial B_R.

    Returns coefficient matrices keyed by angular degree (n and, when the
    block's t1 is nonzero, n+2).
    """
    G = np.asarray(G, dtype=complex)
    cst = mode_constants(params, n)
    t1 = t1_vector(G, n, tables)
    t3 = t3_vector(G, n, tables) if n >= 1 else None
    mu = params.mu
    main = cst.l_n * (t1 @ tables.lower[n + 1]) + (-n - 2.0) * G
    if n >= 1 and t3 is not None and t3.size:
        main = main + (1.0 / (2 * n + 1.0)) * (t3 @ tables.raise_[n - 1])
    out = {n: main * mu / R ** (n + 2)}
    if np.any(t1):
        m_np2 = mode_constants(params, n + 2).m_n
        out[n + 2] = m_np2 * (t1 @ tables.raise_[n + 1]) * mu / R ** (n + 2)
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
                    quad: SphereQuadrature, degrees: Iterable[int] | None = None,
                    tables: DerivativeTable | None = None) -> dict[int, np.ndarray]:
    """Per-degree traction coefficients via exact nodal gradients projected on ``quad`` (tests only)."""
    terms = tuple(terms)
    if degrees is None:
        degrees = sorted({d for t in terms for d in range(max(t.degree - 2, 0), t.degree + 3)})
    X = radius * quad.nodes
    grad = grad_terms(terms, X, tables)
    trac = _traction_from_grad(grad, quad.nodes, params.lam, params.mu)
    return {d: quad.project(trac, d).T for d in degrees}


def _sphere_multiply(sigma: np.ndarray, g: int, tables: DerivativeTable) -> list[tuple[np.ndarray, int]]:
    """Coefficients of sum_k xhat_k (sigma[k] . Y_g) on the unit sphere, by degree g +- 1."""
    out = [((sigma @ tables.raise_[g]).sum(axis=0) * (-1.0 / (2.0 * g + 1.0)), g + 1)]
    if g >= 1:
        out.append(((sigma @ tables.lower[g]).sum(axis=0) / (2.0 * g + 1.0), g - 1))
    return out


def traction_coeffs_algebraic(terms: Iterable[Term], radius: float, params: LameParams,
                              tables: DerivativeTable,
                              lam: complex | None = None, mu: complex | None = None) -> dict[int, np.ndarray]:
    """Per-degree traction coefficients by pure matrix algebra (no quadrature).

    Optional ``lam``/``mu`` override the moduli (used for complex lossy
    weights); defaults are the real base pair.  The traction is
    ``sum_k sigma[k, i] xhat_k`` with the symmetric stress
    ``sigma[k, i] = lam div delta_ki + mu (d u_i/d x_k + d u_k/d x_i)``.
    """
    lam = params.lam if lam is None else lam
    mu = params.mu if mu is None else mu
    out: dict[int, np.ndarray] = {}
    for (g, p), A in gradient_groups(terms, tables).items():  # A[j, i] = d u_i / d x_j
        sigma = mu * (A + A.transpose(1, 0, 2))
        sigma[[0, 1, 2], [0, 1, 2]] += lam * (A[0, 0] + A[1, 1] + A[2, 2])
        for block, deg in _sphere_multiply(radius**p * sigma, g, tables):
            out[deg] = out[deg] + block if deg in out else block
    return out


def lame_residual(terms: Iterable[Term], params: LameParams, points: np.ndarray,
                  tables: DerivativeTable | None = None) -> float:
    """Relative residual of mu Lap u + (lam+mu) grad div u at the points.

    Every second derivative is formed exactly by the term algebra and
    evaluated at the points; the residual is normalized by the larger of
    3 max|second derivatives| and |u|/r^2, so the bound is meaningful across
    degrees and radii.
    """
    terms = tuple(terms)
    tables = ensure_tables(tables, max((t.degree for t in terms), default=0) + 2)
    X = np.atleast_2d(points)
    second = _eval_coefs(_hessian_groups(terms, tables).items(), X, (3, 3, 3))  # [., k, j, i] = d^2 u_i / dx_j dx_k
    lap = np.einsum("njji->ni", second)
    graddiv = np.einsum("nijj->ni", second)
    res = params.mu * lap + (params.lam + params.mu) * graddiv
    r2 = np.maximum(np.sum(X * X, axis=1), 1e-30)
    u_scale = np.max(np.abs(eval_terms(terms, X)), axis=1) / r2
    scale = abs(params.mu) * np.maximum(np.maximum(3.0 * np.max(np.abs(second), axis=(1, 2, 3)), u_scale), 1e-30)
    return float(np.max(np.max(np.abs(res), axis=1) / scale))
