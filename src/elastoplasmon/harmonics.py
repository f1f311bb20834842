"""Orthonormal spherical harmonics, sphere quadrature and solid-harmonic
derivative matrices.

Conventions
-----------
* ``Y_n^m`` is the complex orthonormal spherical harmonic with the
  Condon-Shortley phase, so ``int_{S^2} Y_n^m conj(Y_n'^m') = delta delta``.
* Stacked vectors ``Y_n(xhat)`` hold the orders in descending sequence
  ``m = n, n-1, ..., -n``;  position ``i`` stores order ``m = n - i``.
  They come from the scaled Legendre recurrence stepped over degrees,
  vectorised over the order and holding two rows at a time; the self-test of
  degree n reads Y_{n-1}, Y_n and Y_{n+1} off one such recurrence.
* ``r^n Y_n`` (regular) and ``r^{-n-1} Y_n`` (irregular) solid harmonics obey

      d/dx_j [r^n     Y_n] = lower[n][j]  . r^{n-1} Y_{n-1}
      d/dx_j [r^{-n-1}Y_n] = raise_[n][j] . r^{-n-2} Y_{n+1}

  ``lower[n][j]`` has shape ``(2n+1, 2n-1)`` and ``raise_[n][j]`` has shape
  ``(2n+1, 2n+3)``.  With the complex basis the ``x_2`` members are purely
  imaginary; the other two are real.
* Entries come from the standard solid-harmonic gradient ladders in the
  Cartesian combinations ``d/dz``, ``d/dx +- i d/dy``.
* Each degree's pair ``lower[n]``, ``raise_[n]`` is built and validated per
  degree on first use: the quadrature self-test runs once per process for
  every degree something reads, and never for a degree nothing reads.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from math import pi, sqrt

import numpy as np

__all__ = [
    "SphereQuadrature",
    "DerivativeTable",
    "sph_harm_stack",
    "build_quadrature",
    "build_derivative_tables",
]


def _legendre_rows(n_max: int, z: np.ndarray):
    """Rows ``A[0], A[1], ..., A[n_max]`` of the scaled associated Legendre table.

    ``A[n][m] = Pbar_n^m(z) / sin(theta)^m`` for ``0 <= m <= n``, where
    ``Pbar`` is the orthonormalized function including the Condon-Shortley
    phase, so ``Y_n^m = A[n][m] (x+iy)^m``.  Scaling by ``sin^m`` keeps the
    recurrence pole-free.  Each step is vectorised over m and keeps only the
    two previous rows.
    """
    z = np.asarray(z, dtype=float)
    prev = None
    row = np.full((1,) + z.shape, 1.0 / sqrt(4.0 * pi))
    yield row
    for n in range(1, n_max + 1):
        new = np.empty((n + 1,) + z.shape)
        if n >= 2:
            m = np.arange(n - 1).reshape((n - 1,) + (1,) * z.ndim)
            c1 = np.sqrt((4.0 * n * n - 1.0) / (n * n - m * m))
            c2 = np.sqrt(((n - 1.0) ** 2 - m * m) / (4.0 * (n - 1.0) ** 2 - 1.0))
            new[: n - 1] = c1 * (z * row[: n - 1] - c2 * prev[: n - 1])
        new[n - 1] = sqrt(2 * n + 1.0) * z * row[n - 1]
        new[n] = -sqrt((2 * n + 1) / (2.0 * n)) * row[n - 1]
        prev, row = row, new
        yield row


def _stack_row(n: int, A_n: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Stacked Y_n (orders m = n ... -n) from the Legendre row ``A_n`` and u = x + iy."""
    out = np.zeros(u.shape + (2 * n + 1,), dtype=complex)
    upow = np.ones_like(u)
    for m in range(0, n + 1):
        ym = A_n[m] * upow
        out[..., n - m] = ym
        if m > 0:
            out[..., n + m] = (-1) ** m * np.conj(ym)
        upow = upow * u
    return out


def _sph_harm_stacks(degrees: range, xhat: np.ndarray) -> dict[int, np.ndarray]:
    """Stacked Y_d for each d in ``degrees`` from one Legendre recurrence."""
    xhat = np.asarray(xhat, dtype=float)
    u = xhat[..., 0] + 1j * xhat[..., 1]
    return {d: _stack_row(d, A, u) for d, A in enumerate(_legendre_rows(degrees[-1], xhat[..., 2]))
            if d in degrees}


def sph_harm_stack(n: int, xhat: np.ndarray) -> np.ndarray:
    """Stacked vector Y_n at unit direction(s), orders m = n ... -n.

    Parameters
    ----------
    n : int
        Harmonic degree.
    xhat : array, shape (..., 3)
        Unit direction(s).

    Returns
    -------
    array, shape (..., 2n+1), complex
    """
    return _sph_harm_stacks(range(n, n + 1), xhat)[n]


@dataclass(frozen=True, eq=False)
class SphereQuadrature:
    """Product Gauss-Legendre (polar) x uniform (azimuthal) rule on S^2."""

    nodes: np.ndarray  # (N, 3) unit vectors
    weights: np.ndarray  # (N,), sums to 4 pi
    exactness: int
    _harmonics: dict = field(default_factory=dict, init=False, repr=False)  # n -> Y_n at the nodes

    def integrate(self, values: np.ndarray) -> complex:
        """Integrate nodal samples; leading axis must match the node count."""
        return np.tensordot(self.weights, values, axes=(0, 0))

    def harmonics(self, n: int) -> np.ndarray:
        """(N, 2n+1) table of Y_n at the nodes, cached on this rule."""
        Y = self._harmonics.get(n)
        if Y is None:
            Y = self._harmonics[n] = sph_harm_stack(n, self.nodes)
        return Y

    def project(self, values: np.ndarray, n: int) -> np.ndarray:
        """Coefficients <values, Y_n^m> for m = n ... -n.

        ``values`` may carry trailing axes (e.g. vector components); the
        result has shape (2n+1,) + trailing.
        """
        Yc = np.conj(self.harmonics(n))  # (N, 2n+1)
        wv = self.weights[:, None] * Yc  # (N, 2n+1)
        return np.tensordot(wv, values, axes=(0, 0))


def build_quadrature(exactness: int) -> SphereQuadrature:
    """Sphere rule integrating spherical polynomials up to ``exactness``."""
    if exactness < 2:
        raise ValueError("exactness must be >= 2")
    n_theta = exactness // 2 + 1
    n_phi = exactness + 1
    t, wt = np.polynomial.legendre.leggauss(n_theta)
    phi = 2.0 * pi * np.arange(n_phi) / n_phi
    st = np.sqrt(1.0 - t**2)
    nodes = np.empty((n_theta * n_phi, 3))
    nodes[:, 0] = np.outer(st, np.cos(phi)).ravel()
    nodes[:, 1] = np.outer(st, np.sin(phi)).ravel()
    nodes[:, 2] = np.outer(t, np.ones(n_phi)).ravel()
    weights = np.outer(wt, np.full(n_phi, 2.0 * pi / n_phi)).ravel()
    return SphereQuadrature(nodes=nodes, weights=weights, exactness=exactness)


def _lower_matrices(n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Gradient ladder for regular solid harmonics of degree n >= 1."""
    Lx = np.zeros((2 * n + 1, 2 * n - 1), dtype=complex)
    Ly = np.zeros_like(Lx)
    Lz = np.zeros_like(Lx)
    s = (2.0 * n + 1.0) / (2.0 * n - 1.0)
    for m in range(-n, n + 1):
        row = n - m
        if abs(m) <= n - 1:
            Lz[row, (n - 1) - m] = sqrt((n + m) * (n - m) * s)
        if abs(m + 1) <= n - 1:
            cp = sqrt((n - m) * (n - m - 1) * s)
            Lx[row, (n - 1) - (m + 1)] += 0.5 * cp
            Ly[row, (n - 1) - (m + 1)] += -0.5j * cp
        if abs(m - 1) <= n - 1:
            cm = -sqrt((n + m) * (n + m - 1) * s)
            Lx[row, (n - 1) - (m - 1)] += 0.5 * cm
            Ly[row, (n - 1) - (m - 1)] += 0.5j * cm
    return Lx, Ly, Lz


def _raise_matrices(n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Gradient ladder for irregular solid harmonics of degree n >= 0."""
    Rx = np.zeros((2 * n + 1, 2 * n + 3), dtype=complex)
    Ry = np.zeros_like(Rx)
    Rz = np.zeros_like(Rx)
    s = (2.0 * n + 1.0) / (2.0 * n + 3.0)
    for m in range(-n, n + 1):
        row = n - m
        Rz[row, (n + 1) - m] = -sqrt((n + 1 + m) * (n + 1 - m) * s)
        cp = sqrt((n + 1 + m) * (n + 2 + m) * s)
        Rx[row, (n + 1) - (m + 1)] += 0.5 * cp
        Ry[row, (n + 1) - (m + 1)] += -0.5j * cp
        cm = -sqrt((n + 1 - m) * (n + 2 - m) * s)
        Rx[row, (n + 1) - (m - 1)] += 0.5 * cm
        Ry[row, (n + 1) - (m - 1)] += 0.5j * cm
    return Rx, Ry, Rz


# degree n -> (lower[n], raise_[n]); lower[0] is None.  A degree enters only
# after its quadrature self-test has passed.
_DEGREES: dict[int, tuple] = {}


def _degree(n: int) -> tuple:
    """Both ladder families at degree n, built and self-tested on first request."""
    pair = _DEGREES.get(n)
    if pair is None:
        pair = (_lower_matrices(n) if n >= 1 else None, _raise_matrices(n))
        _self_test_degree(n, *pair)
        for family in pair:
            for D in family or ():
                D.flags.writeable = False  # shared by every table in the process
        _DEGREES[n] = pair
    return pair


class _Ladder(dict):
    """Read-only view of one ladder family for degrees 0..n_max.

    A degree not yet read through this view is taken from the process-wide
    store, which builds and self-tests it on first request; later reads are
    plain dict lookups.
    """

    __slots__ = ("n_max", "family")

    def __init__(self, n_max: int, family: int):
        super().__init__()
        self.n_max = n_max
        self.family = family  # 0: lower, 1: raise_

    def __missing__(self, n: int):
        if not 0 <= n <= self.n_max:
            raise IndexError(f"degree {n} outside table range 0..{self.n_max}")
        matrices = _degree(n)[self.family]
        dict.__setitem__(self, n, matrices)
        return matrices

    def __setitem__(self, n, value):
        raise TypeError("derivative tables are read-only")


@dataclass(frozen=True)
class DerivativeTable:
    """Solid-harmonic derivative matrices for degrees up to ``n_max``.

    ``lower[n][j]`` and ``raise_[n][j]`` hold the two defining families; all
    other index patterns used by the mode formulas are these families looked
    up by (source degree, target degree).  ``n_max`` only bounds the degrees
    that may be read; nothing is built until it is read.
    """

    n_max: int
    lower: _Ladder = field(init=False, repr=False, compare=False)  # 1 <= n <= n_max
    raise_: _Ladder = field(init=False, repr=False, compare=False)  # 0 <= n <= n_max

    def __post_init__(self):
        object.__setattr__(self, "lower", _Ladder(self.n_max, 0))
        object.__setattr__(self, "raise_", _Ladder(self.n_max, 1))


def build_derivative_tables(n_max: int) -> DerivativeTable:
    """Derivative tables declared up to ``n_max``.

    Each degree's matrices are built when first read and pass the quadrature
    self-test (analytic surface gradients projected onto the harmonic basis,
    disagreement above 1e-9 raises ``AssertionError``) before they are
    returned; the process keeps them for every later table.
    """
    if n_max < 1:
        raise ValueError("n_max must be >= 1")
    return DerivativeTable(n_max=n_max)


def shared_tables(n_max: int) -> DerivativeTable:
    """Tables up to ``n_max`` over the process-wide per-degree matrices."""
    return build_derivative_tables(n_max)


@lru_cache(maxsize=64)
def shared_quadrature(exactness: int) -> SphereQuadrature:
    """Process-wide memoized quadrature rules."""
    return build_quadrature(exactness)


def ensure_tables(tables: DerivativeTable | None, n_need: int) -> DerivativeTable:
    """``tables`` if it covers degree ``n_need``, else shared tables up to it.

    Nothing is built here: a degree costs its build and self-test only when
    it is first read.
    """
    if tables is not None and tables.n_max >= n_need:
        return tables
    return shared_tables(n_need)


def _surface_gradient_stack(n: int, nodes: np.ndarray, Y: np.ndarray | None = None) -> np.ndarray:
    """Cartesian gradient of Y_n on the unit sphere, shape (N, 2n+1, 3).

    Uses the theta/phi ladder, independent of the solid ladders above:
    ``dY/dtheta = m cot(theta) Y_n^m + sqrt((n-m)(n+m+1)) e^{-i phi} Y_n^{m+1}``.
    ``Y`` is Y_n at the nodes when the caller already has it.
    """
    x, y, z = nodes[:, 0], nodes[:, 1], nodes[:, 2]
    st = np.sqrt(np.maximum(1.0 - z**2, 0.0))
    safe = st > 1e-13
    inv_st = np.where(safe, 1.0 / np.where(safe, st, 1.0), 0.0)
    eiphi = np.where(safe, (x + 1j * y) * inv_st, 1.0)
    if Y is None:
        Y = sph_harm_stack(n, nodes)  # (N, 2n+1)
    dY_dtheta = np.zeros_like(Y)
    dY_dphi = np.zeros_like(Y)
    for m in range(-n, n + 1):
        i = n - m
        term = m * (z * inv_st) * Y[:, i]
        if m + 1 <= n:
            term = term + sqrt((n - m) * (n + m + 1)) * np.conj(eiphi) * Y[:, n - (m + 1)]
        dY_dtheta[:, i] = term
        dY_dphi[:, i] = 1j * m * Y[:, i]
    # unit vectors theta_hat, phi_hat in Cartesian components
    cphi, sphi = np.real(eiphi), np.imag(eiphi)
    theta_hat = np.stack([z * cphi, z * sphi, -st], axis=-1)
    phi_hat = np.stack([-sphi, cphi, np.zeros_like(z)], axis=-1)
    grad = (
        dY_dtheta[:, :, None] * theta_hat[:, None, :]
        + (dY_dphi * inv_st[:, None])[:, :, None] * phi_hat[:, None, :]
    )
    return grad


def _self_test_degree(n: int, lower, raise_, tol: float = 1e-9) -> None:
    """Check degree n's ladder matrices against quadrature-projected gradients.

    Uses a fresh ``2n+4`` rule and evaluates Y_{n-1}, Y_n and Y_{n+1} directly
    from one Legendre recurrence, so no rule or table outlives the test.
    """
    if n == 0:
        # degree 0 irregular: gradient of 1/(sqrt(4 pi) r)
        quad = build_quadrature(6)
        vals = -quad.nodes / sqrt(4.0 * pi)
        wY1 = quad.weights[:, None] * np.conj(sph_harm_stack(1, quad.nodes))
        for j in range(3):
            if np.max(np.abs(wY1.T @ vals[:, j] - raise_[j])) > tol:
                raise AssertionError(f"raise_[0][{j}] fails quadrature self-test")
        return
    quad = build_quadrature(2 * n + 4)
    xh = quad.nodes
    Ys = _sph_harm_stacks(range(n - 1, n + 2), xh)
    Y = Ys[n]
    grad = _surface_gradient_stack(n, xh, Y)  # (N, 2n+1, 3)
    # d/dx_j [r^n Y_n] on S^2 = n xhat_j Y + tangential gradient component j;
    # d/dx_j [r^{-n-1} Y_n] on S^2 = -(n+1) xhat_j Y + tangential component
    for name, ref, target, radial in (("lower", lower, n - 1, n), ("raise_", raise_, n + 1, -(n + 1))):
        wY = quad.weights[:, None] * np.conj(Ys[target])  # (N, 2 target + 1)
        for j in range(3):
            vals = radial * xh[:, j : j + 1] * Y + grad[:, :, j]
            if np.max(np.abs((wY.T @ vals).T - ref[j])) > tol:
                raise AssertionError(f"{name}[{n}][{j}] fails quadrature self-test")
