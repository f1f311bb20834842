"""Orthonormal spherical harmonics, sphere quadrature and solid-harmonic
derivative matrices.

Conventions
-----------
* ``Y_n^m`` is the complex orthonormal spherical harmonic with the
  Condon-Shortley phase, so ``int_{S^2} Y_n^m conj(Y_n'^m') = delta delta``.
* Stacked vectors ``Y_n(xhat)`` hold the orders in descending sequence
  ``m = n, n-1, ..., -n``;  position ``i`` stores order ``m = n - i``.
  They come from the scaled Legendre recurrence stepped over degrees,
  vectorised over the order and holding two rows at a time; the self-tests
  of a band of 16 degrees read their polar factors off one such recurrence.
* ``r^n Y_n`` (regular) and ``r^{-n-1} Y_n`` (irregular) solid harmonics obey

      d/dx_j [r^n     Y_n] = lower[n][j]  . r^{n-1} Y_{n-1}
      d/dx_j [r^{-n-1}Y_n] = raise_[n][j] . r^{-n-2} Y_{n+1}

  Each family is one read-only complex array per degree: ``lower[n]`` has
  shape ``(3, 2n+1, 2n-1)`` and ``raise_[n]`` has shape ``(3, 2n+1, 2n+3)``,
  so ``lower[n][j]`` is the ``x_j`` matrix (a view) and ``coef @ lower[n]``
  differentiates in all three directions at once.  With the complex basis
  the ``x_2`` members are purely imaginary; the other two are real.
* Entries come from the standard solid-harmonic gradient ladders in the
  Cartesian combinations ``d/dz``, ``d/dx +- i d/dy``, built vectorised
  over the order.
* Each degree's pair ``lower[n]``, ``raise_[n]`` is built and validated per
  degree on first use: the self-test runs once per process for every degree
  something reads, and never for a degree nothing reads.  It projects the
  analytic surface gradients onto the harmonic basis on the polar
  Gauss-Legendre rule of the degree's band: ``k = 16 ceil((n+3)/16)`` nodes,
  exact for every degree of the band, with the azimuthal sum in closed form.
  Each band's rule and its polar factors of Y_0 .. Y_{k-2} are computed once
  per process, with one ``leggauss`` and one Legendre recurrence; a degree's
  own test then costs ``O(n k)``.
* The package reads the ladders by degree from this one process-wide store,
  through the module-level views :data:`lower` and :data:`raise_` (any
  ``n >= 0``); no package function takes, sizes or passes a table.
  :class:`DerivativeTable` (from :func:`shared_tables` or
  :func:`ensure_tables`) is a view of the same store bounded at ``n_max``,
  for the tests' oracles and the benchmark.
* The sphere rule (:class:`SphereQuadrature`) is a reference route for the
  tests: no code in the package builds one.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from math import pi, sqrt

import numpy as np

__all__ = [
    "lower",
    "raise_",
    "DerivativeTable",
    "sph_harm_stack",
    "shared_tables",
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


def _lower_matrices(n: int) -> np.ndarray:
    """Gradient ladder for regular solid harmonics of degree n >= 1, shape (3, 2n+1, 2n-1).

    Row i holds order m = n - i; d/dz keeps the order (column i - 1) and
    d/dx +- i d/dy raise / lower it (columns i - 2 and i).
    """
    L = np.zeros((3, 2 * n + 1, 2 * n - 1), dtype=complex)
    s = (2.0 * n + 1.0) / (2.0 * n - 1.0)
    i = np.arange(2 * n + 1)
    m = n - i
    z, p, q = i[1:-1], i[2:], i[:-2]  # rows with |m| <= n-1, |m+1| <= n-1, |m-1| <= n-1
    L[2, z, z - 1] = np.sqrt((n + m[z]) * (n - m[z]) * s)
    cp = np.sqrt((n - m[p]) * (n - m[p] - 1) * s)
    L[0, p, p - 2] += 0.5 * cp
    L[1, p, p - 2] += -0.5j * cp
    cm = -np.sqrt((n + m[q]) * (n + m[q] - 1) * s)
    L[0, q, q] += 0.5 * cm
    L[1, q, q] += 0.5j * cm
    return L


def _raise_matrices(n: int) -> np.ndarray:
    """Gradient ladder for irregular solid harmonics of degree n >= 0, shape (3, 2n+1, 2n+3).

    Row i holds order m = n - i; d/dz keeps the order (column i + 1) and
    d/dx +- i d/dy raise / lower it (columns i and i + 2).
    """
    R = np.zeros((3, 2 * n + 1, 2 * n + 3), dtype=complex)
    s = (2.0 * n + 1.0) / (2.0 * n + 3.0)
    i = np.arange(2 * n + 1)
    m = n - i
    R[2, i, i + 1] = -np.sqrt((n + 1 + m) * (n + 1 - m) * s)
    cp = np.sqrt((n + 1 + m) * (n + 2 + m) * s)
    R[0, i, i] += 0.5 * cp
    R[1, i, i] += -0.5j * cp
    cm = -np.sqrt((n + 1 - m) * (n + 2 - m) * s)
    R[0, i, i + 2] += 0.5 * cm
    R[1, i, i + 2] += 0.5j * cm
    return R


# degree n -> (lower[n], raise_[n]); lower[0] is None.  A degree enters only
# after its self-test has passed.
_DEGREES: dict[int, tuple] = {}


def _degree(n: int) -> tuple:
    """Both ladder families at degree n, built and self-tested on first request."""
    pair = _DEGREES.get(n)
    if pair is None:
        pair = (np.asarray(_lower_matrices(n)) if n >= 1 else None, np.asarray(_raise_matrices(n)))
        _self_test_degree(n, *pair)
        for family in pair:
            if family is not None:
                family.flags.writeable = False  # shared by every table in the process
        _DEGREES[n] = pair
    return pair


@dataclass(frozen=True)
class _Ladder:
    """Read-only view of one ladder family for degrees 0..n_max, or every n >= 0 when
    ``n_max`` is None (no item assignment).

    Each read takes the degree from the process-wide store, which builds and
    self-tests it on first request.
    """

    n_max: int | None
    family: int  # 0: lower, 1: raise_

    def __getitem__(self, n: int) -> np.ndarray | None:
        if n < 0 or self.n_max is not None and n > self.n_max:
            raise IndexError(f"degree {n} outside table range 0..{'' if self.n_max is None else self.n_max}")
        return _degree(n)[self.family]


# The two ladder families over every degree: what the package reads
lower = _Ladder(None, 0)
raise_ = _Ladder(None, 1)


@dataclass(frozen=True)
class DerivativeTable:
    """Solid-harmonic derivative matrices for degrees up to ``n_max``.

    ``lower[n]`` and ``raise_[n]``, read-only arrays of shapes
    ``(3, 2n+1, 2n-1)`` and ``(3, 2n+1, 2n+3)`` whose ``[j]`` is the ``x_j``
    matrix, hold the two defining families; all
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


def shared_tables(n_max: int) -> DerivativeTable:
    """Derivative tables up to ``n_max`` over the process-wide per-degree matrices.

    Each degree's matrices are built when first read and pass the self-test
    (analytic surface gradients projected onto the harmonic basis on the
    shared polar Gauss-Legendre rule of the degree's band of 16; a
    disagreement above 1e-9 in any entry raises ``AssertionError``) before
    they are returned; the process keeps them for every later table.
    """
    if n_max < 1:
        raise ValueError("n_max must be >= 1")
    return DerivativeTable(n_max=n_max)


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


# polar rule size k -> (nodes z, sin(theta), 2 pi weights, theta factors of
# Y_0 .. Y_{k-2}); one entry per band of 16 degrees a run self-tests
_BANDS: dict[int, tuple] = {}


def _band_size(n: int) -> int:
    """Polar nodes of degree n's self-test: ``n + 3`` rounded up to a multiple of 16."""
    return 16 * -(-(n + 3) // 16)


def _polar_band(n: int) -> tuple:
    """The shared polar Gauss-Legendre rule of degree n's band, built once.

    Returns ``(z, st, w, theta)``: the ``k = _band_size(n)`` nodes, their
    ``sin(theta)``, the weights times ``2 pi`` and, for each degree
    ``d <= k - 2``, the ``(2d+1, k)`` polar factors of Y_d^m (m = d ... -d),
    read off one Legendre recurrence.
    """
    k = _band_size(n)
    band = _BANDS.get(k)
    if band is None:
        z, wt = np.polynomial.legendre.leggauss(k)
        st = np.sqrt(1.0 - z**2)  # the nodes are interior: st > 0
        st_pow = st ** np.arange(k - 1)[:, None]
        theta = []
        for d, A in enumerate(_legendre_rows(k - 2, z)):
            pos = A * st_pow[: d + 1]  # orders m = 0 ... d
            theta.append(np.concatenate([pos[::-1], (-1.0) ** np.arange(1, d + 1)[:, None] * pos[1:]]))
        band = _BANDS[k] = (z, st, 2.0 * pi * wt, theta)
    return band


def _polar_projection(n: int) -> tuple:
    """Gradients of degree-n solid harmonics projected onto Y_{n-1} and Y_{n+1}.

    The projection is that of a product rule (Gauss-Legendre in theta times
    a uniform phi grid) taken on its polar nodes alone: every integrand's phi
    factor is one ``e^{ik phi}`` with ``|k| <= 2n+2``, so the phi sum is
    exactly ``2 pi delta_k0``; what remains is a polynomial in ``cos(theta)``
    of degree at most ``2n+2``, which the ``_band_size(n) >= n + 3`` polar
    nodes of the band integrate exactly.  The theta factors of Y_{n-1}, Y_n
    and Y_{n+1} are the band's, ``dY/dtheta`` comes from the theta/phi ladder
    (independent of the solid ladders)

        dY/dtheta = m cot(theta) Y_n^m + sqrt((n-m)(n+m+1)) e^{-i phi} Y_n^{m+1},

    and ``d/dx +- i d/dy`` (order m -> m +- 1) and ``d/dz`` (m -> m) give the
    three couplings.  Returns ``(lower, raise_)``, each the three Cartesian
    matrices shaped like the ladders; ``lower`` is None at n = 0.
    """
    z, st, w, theta = _polar_band(n)
    m = np.arange(n, -n - 1, -1.0)[:, None]
    T = theta[n]
    dT = m * (z / st) * T
    dT[1:] += np.sqrt((n - m[1:]) * (n + m[1:] + 1)) * T[:-1]
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


_SELF_TEST_TOL = 1e-9


def _self_test_degree(n: int, lower, raise_) -> None:
    """Check degree n's ladder matrices in full against ``_polar_projection(n)``.

    Every entry is compared, those the ladders leave zero included; a
    disagreement above ``_SELF_TEST_TOL`` raises ``AssertionError`` naming the matrix.
    """
    for name, ref, proj in zip(("lower", "raise_"), (lower, raise_), _polar_projection(n)):
        if proj is None:
            continue
        for j in range(3):
            if np.max(np.abs(proj[j] - ref[j])) > _SELF_TEST_TOL:
                raise AssertionError(f"{name}[{n}][{j}] fails quadrature self-test")
