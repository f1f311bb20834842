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
  degree n reads the polar factors of Y_{n-1}, Y_n and Y_{n+1} off one such
  recurrence.
* ``r^n Y_n`` (regular) and ``r^{-n-1} Y_n`` (irregular) solid harmonics obey

      d/dx_j [r^n     Y_n] = lower[n][j]  . r^{n-1} Y_{n-1}
      d/dx_j [r^{-n-1}Y_n] = raise_[n][j] . r^{-n-2} Y_{n+1}

  ``lower[n][j]`` has shape ``(2n+1, 2n-1)`` and ``raise_[n][j]`` has shape
  ``(2n+1, 2n+3)``.  With the complex basis the ``x_2`` members are purely
  imaginary; the other two are real.
* Entries come from the standard solid-harmonic gradient ladders in the
  Cartesian combinations ``d/dz``, ``d/dx +- i d/dy``.
* Each degree's pair ``lower[n]``, ``raise_[n]`` is built and validated per
  degree on first use: the self-test runs once per process for every degree
  something reads, and never for a degree nothing reads.  It projects the
  analytic surface gradients onto the harmonic basis on the ``n+3`` polar
  Gauss-Legendre nodes of the ``2n+4`` sphere rule, with the azimuthal sum in
  closed form, at a cost growing like ``n^2``.
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
    xhat = np.asarray(xhat, dtype=float)
    for A in _legendre_rows(n, xhat[..., 2]):
        pass  # the last row is A[n]
    return _stack_row(n, A, xhat[..., 0] + 1j * xhat[..., 1])


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
# after its self-test has passed.
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

    Each degree's matrices are built when first read and pass the self-test
    (analytic surface gradients projected onto the harmonic basis on the
    polar Gauss-Legendre nodes of the ``2n+4`` sphere rule; a disagreement
    above 1e-9 in any entry raises ``AssertionError``) before they are
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


def _polar_projection(n: int) -> tuple:
    """Gradients of degree-n solid harmonics projected onto Y_{n-1} and Y_{n+1}.

    The projection is the one of the ``2n+4`` product rule (Gauss-Legendre in
    theta times a uniform phi grid), taken on its ``n+3`` polar nodes alone:
    every integrand's phi factor is one ``e^{ik phi}`` with ``|k| <= 2n+2``,
    so the rule's phi sum is exactly ``2 pi delta_k0``.  The theta factors of
    Y_{n-1}, Y_n and Y_{n+1} come from one Legendre recurrence, ``dY/dtheta``
    from the theta/phi ladder (independent of the solid ladders)

        dY/dtheta = m cot(theta) Y_n^m + sqrt((n-m)(n+m+1)) e^{-i phi} Y_n^{m+1},

    and ``d/dx +- i d/dy`` (order m -> m +- 1) and ``d/dz`` (m -> m) give the
    three couplings.  Returns ``(lower, raise_)``, each the three Cartesian
    matrices shaped like the ladders; ``lower`` is None at n = 0.
    """
    z, wt = np.polynomial.legendre.leggauss(n + 3)
    st = np.sqrt(1.0 - z**2)  # the nodes are interior: st > 0
    theta = {}  # degree d -> (2d+1, n+3) polar factors of Y_d^m, m = d ... -d
    for d, A in enumerate(_legendre_rows(n + 1, z)):
        if d >= n - 1:
            m = np.arange(d + 1)[:, None]
            pos = A * st**m  # orders m = 0 ... d
            theta[d] = np.concatenate([pos[::-1], (-1.0) ** m[1:] * pos[1:]])
    m = np.arange(n, -n - 1, -1.0)[:, None]
    T = theta[n]
    dT = m * (z / st) * T
    dT[1:] += np.sqrt((n - m[1:]) * (n + m[1:] + 1)) * T[:-1]
    w = 2.0 * pi * wt
    rows = np.arange(2 * n + 1)
    out = []
    # F = r^radial Y_n^m, radial = n (lower) or -(n+1) (raise_); on S^2, with
    # Y_n^m = T e^{i m phi}:
    #   (d/dx +- i d/dy) F = e^{i(m+-1) phi} (radial st T + z dT -+ m T / st),
    #   d/dz F = e^{i m phi} (radial z T - st dT)
    for target, radial in ((n - 1, n), (n + 1, -(n + 1))):
        if target < 0:
            out.append(None)
            continue
        common = radial * st * T + z * dT
        shifted = []  # order shift +1 (d/dx + i d/dy), 0 (d/dz), -1 (d/dx - i d/dy)
        for shift, g in ((1, common - m / st * T), (0, radial * z * T - st * dT), (-1, common + m / st * T)):
            M = np.zeros((2 * n + 1, 2 * target + 1))
            cols = rows + (target - n) - shift  # column of order m + shift
            ok = (cols >= 0) & (cols <= 2 * target)
            M[rows[ok], cols[ok]] = (g[ok] * theta[target][cols[ok]]) @ w
            shifted.append(M)
        plus, Mz, minus = shifted
        out.append(((plus + minus) / 2.0, (plus - minus) / 2j, Mz.astype(complex)))
    return tuple(out)


def _self_test_degree(n: int, lower, raise_, tol: float = 1e-9) -> None:
    """Check degree n's ladder matrices in full against ``_polar_projection(n)``.

    Every entry is compared, those the ladders leave zero included; a
    disagreement above ``tol`` raises ``AssertionError`` naming the matrix.
    """
    for name, ref, proj in zip(("lower", "raise_"), (lower, raise_), _polar_projection(n)):
        if proj is None:
            continue
        for j in range(3):
            if np.max(np.abs(proj[j] - ref[j])) > tol:
                raise AssertionError(f"{name}[{n}][{j}] fails quadrature self-test")
