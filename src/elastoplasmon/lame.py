"""Mode fields of the 3D Lame system on spherical geometries.

Every field in this package is a finite sum of *harmonic terms*

    u(x) = sum_t  C_t  r^{p_t}  Y_{d_t}(xhat),      C_t of shape (3, 2 d_t + 1),

living on an annulus ``r_lo < r < r_hi``.  The algebra is closed under
differentiation: with the multiplication identity

    xhat_j Y_d = -raise_[d][j]/(2d+1) . Y_{d+1}  +  lower[d][j]/(2d+1) . Y_{d-1}

one derivative of a term produces two terms with the radial power dropped by
one.  This gives exact gradients, strains, divergences, tractions and Lame
residuals for all mode fields; finite-difference routes live with the tests
as oracles.

The regular and irregular Lame blocks carry their slaved corrections:

    exterior:  G r^{-n-1} Y_n + k_n [t1 . D]_j r^{-n-1} Y_{n+2}
    interior:  G r^n Y_n     - M_n [t3 . D]_j r^n Y_{n-2}

with ``t1 = sum_j G_j . raise_[n][j]`` and ``t3 = sum_j G_j . lower[n][j]``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .harmonics import DerivativeTable, SphereQuadrature, ensure_tables, sph_harm_stack

__all__ = [
    "LameParams",
    "ModeConstants",
    "Term",
    "ModeField",
    "mode_constants",
    "t1_vector",
    "t3_vector",
    "stack_rows",
    "exterior_block",
    "interior_block",
    "exterior_traction_coeffs",
    "displacement_coeffs",
    "traction_coeffs",
    "traction_coeffs_algebraic",
    "eval_terms",
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


def eval_terms(terms: Iterable[Term], x: np.ndarray) -> np.ndarray:
    """Field values; x of shape (3,) or (N, 3), output (3,) or (N, 3)."""
    single = x.ndim == 1
    X = x[None, :] if single else x
    r = np.linalg.norm(X, axis=1)
    xhat = X / r[:, None]
    out = np.zeros((X.shape[0], 3), dtype=complex)
    for t in terms:
        Y = sph_harm_stack(t.degree, xhat)  # (N, 2d+1)
        out += (Y @ t.coef.T) * (r ** t.power)[:, None]
    return out[0] if single else out


def term_derivative(t: Term, j: int, tables: DerivativeTable) -> list[Term]:
    """Exact d/dx_j of a term as new terms (one degree up, one down)."""
    d, p = t.degree, t.power
    out: list[Term] = []
    up = -(p - d) / (2.0 * d + 1.0)
    if up != 0.0:
        out.append(Term(t.coef @ (up * tables.raise_[d][j]), d + 1, p - 1))
    if d >= 1:
        down = (p - d) / (2.0 * d + 1.0) + 1.0
        if down != 0.0:
            out.append(Term(t.coef @ (down * tables.lower[d][j]), d - 1, p - 1))
    return out


def grad_terms(terms: Iterable[Term], x: np.ndarray, tables: DerivativeTable) -> np.ndarray:
    """Exact gradient; output (..., 3, 3) with [i, j] = d u_i / d x_j."""
    single = x.ndim == 1
    X = x[None, :] if single else x
    out = np.zeros((X.shape[0], 3, 3), dtype=complex)
    for t in terms:
        for j in range(3):
            for dt in term_derivative(t, j, tables):
                out[:, :, j] += eval_terms([dt], X)
    return out[0] if single else out


# ---------------------------------------------------------------------------
# mode blocks
# ---------------------------------------------------------------------------

def t1_vector(G: np.ndarray, n: int, tables: DerivativeTable) -> np.ndarray:
    """Divergence coefficients of the irregular block, length 2n+3."""
    return sum(G[j] @ tables.raise_[n][j] for j in range(3))


def t3_vector(G: np.ndarray, n: int, tables: DerivativeTable) -> np.ndarray:
    """Divergence coefficients of the regular block, length 2n-1."""
    return sum(G[j] @ tables.lower[n][j] for j in range(3))


def stack_rows(row: np.ndarray, mats: Sequence[np.ndarray]) -> np.ndarray:
    """Stack row @ mats[j] over j = x, y, z into a 3-row coefficient block."""
    return np.stack([row @ mats[j] for j in range(3)])


def exterior_block(G: np.ndarray, n: int, params: LameParams, tables: DerivativeTable) -> tuple[Term, ...]:
    """Irregular degree-n block with its slaved degree-(n+2) correction."""
    G = np.asarray(G, dtype=complex)
    terms = [Term(G, n, -n - 1)]
    t1 = t1_vector(G, n, tables)
    if np.max(np.abs(t1)) > 1e-13 * max(np.max(np.abs(G)), 1e-300):
        k_n = mode_constants(params, max(n, 1)).k_n if n >= 1 else _k0(params)
        corr = stack_rows(t1, tables.raise_[n + 1])
        terms.append(Term(k_n * corr, n + 2, -n - 1))
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
            corr = stack_rows(t3, tables.lower[n - 1])
            terms.append(Term(-M_n * corr, n - 2, n))
    return tuple(terms)


def _tilde_scale(n: int, R: float, params: LameParams, c: complex = 1.0) -> complex:
    """Scalar factor of the tilde map; ``c`` folds in the shell multiplier of
    the transmission problem (traction divided by c)."""
    return R / ((n - 1) * c * params.mu)


def _tilde_unscaled(Ap: np.ndarray, n: int, params: LameParams, tables: DerivativeTable) -> np.ndarray:
    """The radius- and multiplier-free part of the tilde map."""
    Ap = np.asarray(Ap, dtype=complex)
    cst = mode_constants(params, n)
    t4 = sum(Ap[j] @ tables.lower[n][j] for j in range(3))
    t5 = sum(Ap[j] @ tables.raise_[n][j] for j in range(3))
    extra = cst.s1_n * stack_rows(t4, tables.raise_[n - 1]) + cst.s2_n * stack_rows(t5, tables.lower[n + 1])
    return Ap + extra


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
    main = cst.l_n * stack_rows(t1, tables.lower[n + 1]) + (-n - 2.0) * G
    if n >= 1 and t3 is not None and t3.size:
        main = main + (1.0 / (2 * n + 1.0)) * stack_rows(t3, tables.raise_[n - 1])
    out = {n: main * mu / R ** (n + 2)}
    if np.any(t1):
        m_np2 = mode_constants(params, n + 2).m_n
        out[n + 2] = m_np2 * stack_rows(t1, tables.raise_[n + 1]) * mu / R ** (n + 2)
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
    """Per-degree traction coefficients via exact gradients + projection."""
    terms = tuple(terms)
    if degrees is None:
        degrees = sorted({d for t in terms for d in range(max(t.degree - 2, 0), t.degree + 3)})
    X = radius * quad.nodes
    grad = grad_terms(terms, X, tables)
    trac = _traction_from_grad(grad, quad.nodes, params.lam, params.mu)
    return {d: quad.project(trac, d).T for d in degrees}


def _sphere_multiply(row: np.ndarray, g: int, j: int, tables: DerivativeTable) -> list[tuple[np.ndarray, int]]:
    """Coefficients of xhat_j * (row . Y_g) on the unit sphere."""
    out = [(row @ (-tables.raise_[g][j] / (2.0 * g + 1.0)), g + 1)]
    if g >= 1:
        out.append((row @ (tables.lower[g][j] / (2.0 * g + 1.0)), g - 1))
    return out


def traction_coeffs_algebraic(terms: Iterable[Term], radius: float, params: LameParams,
                              tables: DerivativeTable,
                              lam: complex | None = None, mu: complex | None = None) -> dict[int, np.ndarray]:
    """Per-degree traction coefficients by pure matrix algebra (no quadrature).

    Optional ``lam``/``mu`` override the moduli (used for complex lossy
    weights); defaults are the real base pair.
    """
    lam = params.lam if lam is None else lam
    mu = params.mu if mu is None else mu
    # scalar term lists: gradient components and divergence
    grads: dict[tuple[int, int], list[tuple[np.ndarray, int, int]]] = {}
    div: list[tuple[np.ndarray, int, int]] = []
    for t in terms:
        for j in range(3):
            for dt in term_derivative(t, j, tables):
                for i in range(3):
                    grads.setdefault((i, j), []).append((dt.coef[i], dt.degree, dt.power))
                div.append((dt.coef[j], dt.degree, dt.power))
    out: dict[int, np.ndarray] = {}

    def add(i: int, row: np.ndarray, deg: int, w: complex):
        if deg < 0:
            return
        block = out.setdefault(deg, np.zeros((3, 2 * deg + 1), dtype=complex))
        block[i] += w * row

    for row, g, p in div:
        w = lam * radius**p
        for i in range(3):
            for prow, pg in _sphere_multiply(row, g, i, tables):
                add(i, prow, pg, w)
    for (i, j), lst in grads.items():
        for row, g, p in lst:
            w = mu * radius**p
            # (grad u + grad u^T) nu picks xhat_j for component i and xhat_i for component j
            for prow, pg in _sphere_multiply(row, g, j, tables):
                add(i, prow, pg, w)
            for prow, pg in _sphere_multiply(row, g, i, tables):
                add(j, prow, pg, w)
    return out


def _second_derivative_terms(terms: Iterable[Term], i: int, j: int, tables: DerivativeTable) -> list[Term]:
    """Exact d^2/dx_i dx_j of a term list as new terms."""
    out: list[Term] = []
    for t in terms:
        for dt in term_derivative(t, j, tables):
            out.extend(term_derivative(dt, i, tables))
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
    second = np.zeros((X.shape[0], 3, 3, 3), dtype=complex)  # [., i, j, k] = d^2 u_i / dx_j dx_k
    for j in range(3):
        for k in range(j, 3):
            second[:, :, j, k] = second[:, :, k, j] = eval_terms(_second_derivative_terms(terms, j, k, tables), X)
    lap = np.einsum("nijj->ni", second)
    graddiv = np.einsum("njji->ni", second)
    res = params.mu * lap + (params.lam + params.mu) * graddiv
    r2 = np.maximum(np.sum(X * X, axis=1), 1e-30)
    u_scale = np.max(np.abs(eval_terms(terms, X)), axis=1) / r2
    scale = abs(params.mu) * np.maximum(np.maximum(3.0 * np.max(np.abs(second), axis=(1, 2, 3)), u_scale), 1e-30)
    return float(np.max(np.max(np.abs(res), axis=1) / scale))
