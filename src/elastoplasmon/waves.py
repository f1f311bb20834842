"""Perfect plasmon elastic waves of the core-free sphere transmission problem.

For a fixed degree n >= 2 the exterior field is one irregular block with
coefficient matrix G.  Matching the Dirichlet data of the interior solution
obtained from the surface displacement against the one obtained from the
surface traction (divided by the shell multiplier c) yields a square linear
map on G; its null space is nontrivial exactly at the three plasmon
constants.  Each null space is a whole total-angular-momentum sector of G Y_n
(J = n, n-1, n+1 for families 1, 2, 3), so :func:`sector_kernels` builds the
kernels in closed form from the angular-momentum ladders, without the
matching map, and :func:`matching_defect` applies the map to one matrix to
check them; :func:`assemble_H` and :func:`plasmon_kernel` build the full map
and its null space.  Kernel bases are self-conjugate matrices, so every
kernel generates a real-valued field G Y_n.  A sector basis is ordered by
descending |M|, the order of the total angular momentum J about the z axis:
k = 1, 2 are the two self-conjugate members of orders +-J, and so on down
to k = 2J + 1, the M = 0 member.  Any rotation-invariant quantity of a unit
source in one sector (its dissipation, bounds and verdicts) is the same for
every k.

The Neumann-Poincare spectrum reuses the sector shapes.  A density G Y_n
on the sphere is convolved with the Kelvin matrix through exact radial
factors of the Newtonian and distance kernels, and K* is read off as the
average of the two one-sided conormal traces, both exact coefficient arrays
on the sphere.  K* commutes with rotations and maps every sector shape to a
multiple of itself, so one shape per degree and family gives an eigenvalue,
with the eigen-equation checked; under (c+1)/(2(c-1)) these eigenvalues are
the plasmon constants.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .harmonics import DerivativeTable, ensure_tables, shared_tables
from .lame import (
    LameParams,
    ModeField,
    Term,
    displacement_coeffs,
    eval_terms,
    exterior_traction_coeffs,
    lame_residual,
    mode_constants,
    t1_vector,
    t3_vector,
    traction_coeffs_algebraic,
    _hessian_groups,
    _tilde_scale,
    _tilde_unscaled,
)

__all__ = [
    "SectorCheckError",
    "PlasmonConstants",
    "PlasmonEigenProblem",
    "PerfectWave",
    "plasmon_constants",
    "assemble_H",
    "matching_defect",
    "plasmon_kernel",
    "sector_kernels",
    "perfect_wave",
    "verify_perfect_wave",
    "np_eigenvalue_map",
    "single_layer_field",
    "np_galerkin_spectrum",
]


class SectorCheckError(AssertionError):
    """Raised when a built field, trace or kernel fails its sector check.

    The checks hold to roundoff, and the roundoff of lambda div u grows with
    lambda / mu (and near 3 lambda + 2 mu = 0), so at extreme Lame ratios a
    correct build can fail them.  The command line reports this as a
    validation failure.
    """


@dataclass(frozen=True)
class PlasmonConstants:
    """The three negative shell multipliers admitting nontrivial waves."""

    n: int
    zeta1: float
    zeta2: float
    zeta3: float

    def as_tuple(self) -> tuple[float, float, float]:
        return (self.zeta1, self.zeta2, self.zeta3)


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


@dataclass
class PlasmonEigenProblem:
    """Square matching problem on vec(G) = [G_1, G_2, G_3] for one degree."""

    n: int
    c: float
    R: float
    params: LameParams
    H: np.ndarray  # (3(2n+1), 3(2n+1)); row convention vec(G) @ H = defect
    singular_values: np.ndarray = field(default=None)

    def defect(self, G: np.ndarray) -> np.ndarray:
        return np.asarray(G, dtype=complex).reshape(-1) @ self.H


def _vec(G: np.ndarray) -> np.ndarray:
    return np.asarray(G).reshape(-1)


def _unvec(v: np.ndarray, n: int) -> np.ndarray:
    return np.asarray(v).reshape(3, 2 * n + 1)


def assemble_H(n: int, params: LameParams, c: float, tables: DerivativeTable,
               R: float = 1.0) -> PlasmonEigenProblem:
    """Displacement-match composed with traction expansion and inversion.

    Columns are produced by pushing basis coefficient matrices through the
    degree-n building blocks: surface displacement of the irregular block
    (``D``), its closed-form surface traction followed by the c-free part of
    the traction-to-displacement inversion (``X``); the matching matrix is
    ``D - s(c) X`` with the scalar ``s(c)`` of the inversion.
    """
    if n < 2:
        raise ValueError("assemble_H needs n >= 2")
    if c == 0:
        raise ValueError("multiplier c = 0 makes the traction inversion singular")
    tables = ensure_tables(tables, n + 4)
    N = 3 * (2 * n + 1)
    D = np.zeros((N, N), dtype=complex)
    X = np.zeros((N, N), dtype=complex)
    for a in range(N):
        E = _unvec(np.eye(N)[a], n)
        D[:, a] = _vec(E / R ** (n + 1))
        X[:, a] = _vec(_inversion(E, n, R, params, tables))
    M = D - _tilde_scale(n, R, params, c) * X
    prob = PlasmonEigenProblem(n=n, c=c, R=R, params=params, H=M.T)
    prob.singular_values = np.linalg.svd(M, compute_uv=False)
    return prob


def _inversion(G: np.ndarray, n: int, R: float, params: LameParams, tables: DerivativeTable) -> np.ndarray:
    """c-free interior Dirichlet data recovered from the block's surface traction."""
    return _tilde_unscaled(exterior_traction_coeffs(G, n, R, params, tables)[n], n, params, tables)


def matching_defect(G: np.ndarray, n: int, params: LameParams, c: float, tables: DerivativeTable,
                    R: float = 1.0) -> float:
    """Relative defect ``|D G - s(c) X G| / (|D G| + |s(c) X G|)`` of one matrix.

    The matching map of :func:`assemble_H` applied to ``G`` alone: it reads
    about machine precision for a kernel matrix at its plasmon constant.
    """
    d = np.asarray(G, dtype=complex) / R ** (n + 1)
    sx = _tilde_scale(n, R, params, c) * _inversion(G, n, R, params, tables)
    return float(np.linalg.norm(d - sx) / (np.linalg.norm(d) + np.linalg.norm(sx)))


def _conj_kernel(G: np.ndarray) -> np.ndarray:
    """Antiunitary map fixing matrices whose field G Y_n is real-valued.

    ``conj(Y_n^m) = (-1)^m Y_n^{-m}``, so the map conjugates, reverses the
    order axis (the last) and signs odd orders.
    """
    n = (G.shape[-1] - 1) // 2
    return np.conj(G)[..., ::-1] * (-1.0) ** (n - np.arange(2 * n + 1))


def plasmon_kernel(problem: PlasmonEigenProblem, rel_tol: float = 1e-9) -> list[np.ndarray]:
    """Orthonormal self-conjugate basis of the null space of the matching map.

    Raises ``ValueError`` with the smallest residual singular value when the
    multiplier is not a plasmon constant.
    """
    n = problem.n
    U, s, Vh = np.linalg.svd(problem.H.T)
    smax = problem.singular_values[0]
    keep = s < rel_tol * smax
    if not np.any(keep):
        raise ValueError(
            f"no kernel at c={problem.c}: smallest singular value {s[-1]:.3e} "
            f"(relative {s[-1] / smax:.3e})"
        )
    raw = [_unvec(Vh[i].conj(), n) for i in np.nonzero(keep)[0]]
    return _realify(raw)


def _toroidal_members(n: int) -> np.ndarray:
    """Matrices ``<n,m|L_j|n,M>`` of the toroidal fields L Y_n^M, M = n..-n.

    ``L_z = M``, ``L_x = (L_+ + L_-)/2`` and ``L_y = (L_+ - L_-)/(2i)`` with
    ``L_+- |n,M> = sqrt((n -+ M)(n +- M + 1)) |n,M+-1>`` (Condon-Shortley
    phase); member p has order M = n - p and reaches the orders M +- 1 at
    the stacked positions p -+ 1.
    """
    p = np.arange(2 * n + 1)
    M = n - p.astype(float)
    B = np.zeros((2 * n + 1, 3, 2 * n + 1), dtype=complex)
    B[p, 2, p] = M
    up = np.sqrt((n - M[1:]) * (n + M[1:] + 1))
    down = np.sqrt((n + M[:-1]) * (n - M[:-1] + 1))
    B[p[1:], 0, p[:-1]] = 0.5 * up
    B[p[1:], 1, p[:-1]] = -0.5j * up
    B[p[:-1], 0, p[1:]] = 0.5 * down
    B[p[:-1], 1, p[1:]] = 0.5j * down
    return B


def sector_kernels(n: int, family: int, tables: DerivativeTable) -> list[np.ndarray]:
    """Self-conjugate orthonormal basis of one family's sector, as matrices G.

    The sectors are the total angular momenta J of G Y_n, each spanned in
    closed form by 2J + 1 members of orders M = J..-J (Edmonds, *Angular
    Momentum in Quantum Mechanics*, 1957, ch. 2-3): for J = n (family 1)
    the toroidal matrices of :func:`_toroidal_members`, for J = n-1
    (family 2) and J = n+1 (family 3) the conjugated columns of the ladders
    ``lower[n]`` and ``raise_[n]``, i.e. the rows of the t3 and t1 maps.  By
    Wigner-Eckart the members of a sector share one norm.  The orders +-M
    are exchanged by :func:`_conj_kernel`, so ``(B + C B)/sqrt 2`` and
    ``i (B - C B)/sqrt 2`` of the order-M member B are self-conjugate, and
    the M = 0 member is self-conjugate up to a factor i.  The basis runs by
    descending |M| like the stacked orders: k = 2(J - M) + 1 and
    2(J - M) + 2 are the two members of orders +-M for M = J..1, and
    k = 2J + 1 is the M = 0 member.  Each family's kernel at its plasmon
    constant is its whole sector, so this is the kernel basis without the
    matching map.
    """
    if family == 1:
        B = _toroidal_members(n)
    else:
        B = np.conj(tables.lower[n] if family == 2 else tables.raise_[n]).transpose(2, 0, 1)
    B = B * (math.sqrt(len(B)) / np.linalg.norm(B))
    half = B[: len(B) // 2 + 1]  # orders M = J, J-1, ..., 0
    C = _conj_kernel(half)
    P, Q = half + C, 1j * (half - C)
    pairs = np.stack([P[:-1], Q[:-1]], axis=1).reshape(-1, 3, 2 * n + 1) / math.sqrt(2.0)
    zero = P[-1] if np.linalg.norm(P[-1]) >= np.linalg.norm(Q[-1]) else Q[-1]
    return [*pairs, zero / 2.0]


def _realify(basis: list[np.ndarray]) -> list[np.ndarray]:
    """Rotate a kernel basis to self-conjugate matrices, re-orthonormalized.

    The candidates G + C(G) and i(G - C(G)) are self-conjugate, so their Gram
    matrix is real and real combinations of them stay self-conjugate; its
    leading eigenvectors give an orthonormal basis without the rounding
    blow-up of Gram-Schmidt on nearly dependent candidates.
    """
    dim = len(basis)
    B = np.stack(basis)
    C = _conj_kernel(B)
    X = np.stack([B + C, 1j * (B - C)], axis=1).reshape(2 * dim, -1).T
    w, V = np.linalg.eigh(np.real(X.conj().T @ X))
    w, V = w[::-1][:dim], V[:, ::-1][:, :dim]
    if w[-1] < 1e-12 * w[0]:
        raise AssertionError("failed to build a self-conjugate kernel basis")
    n = (basis[0].shape[1] - 1) // 2
    return [_unvec(v, n) for v in (X @ (V / np.sqrt(w))).T]


def kernel_family(G: np.ndarray, tables: DerivativeTable, tol: float = 1e-8) -> int:
    """Classify a kernel matrix by its t-conditions: 1, 2 or 3."""
    n = (G.shape[1] - 1) // 2
    has_t1 = np.max(np.abs(t1_vector(G, n, tables))) > tol
    has_t3 = np.max(np.abs(t3_vector(G, n, tables))) > tol
    if not has_t1 and not has_t3:
        return 1
    if not has_t1 and has_t3:
        return 2
    if has_t1 and not has_t3:
        return 3
    raise ValueError("matrix has both t1 and t3 content; not a pure kernel")


@dataclass(frozen=True)
class PerfectWave:
    """Piecewise transmission eigenfield for one kernel matrix."""

    n: int
    family: int
    c: float
    R: float
    kernel: np.ndarray
    interior: ModeField
    exterior: ModeField

    def field(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        r = np.linalg.norm(x, axis=-1)
        inside = eval_terms(self.interior.terms, x)
        outside = eval_terms(self.exterior.terms, x)
        return np.where((r <= self.R)[..., None], inside, outside)


def perfect_wave(kernel: np.ndarray, family: int, n: int, R: float,
                 params: LameParams, tables: DerivativeTable) -> PerfectWave:
    """Construct the piecewise wave for a kernel of the given family.

    Family 1 is pure on both sides; family 2 carries the regular correction
    inside with the (r^2 - R^2) split; family 3 carries the irregular
    correction outside with the R^{2n+1} weight on both exterior terms (the
    variant that satisfies the transmission condition).
    """
    K = np.asarray(kernel, dtype=complex)
    tables = ensure_tables(tables, n + 4)
    cst = mode_constants(params, n)
    zetas = plasmon_constants(params, n)
    c = zetas.as_tuple()[family - 1]
    int_terms: list[Term] = [Term(K, n, n)]
    ext_terms: list[Term] = [Term(K * R ** (2 * n + 1), n, -n - 1)]
    if family == 2:
        corr = t3_vector(K, n, tables) @ tables.lower[n - 1]
        int_terms.append(Term(-cst.M_n * corr, n - 2, n))
        int_terms.append(Term(cst.M_n * R**2 * corr, n - 2, n - 2))
    if family == 3:
        corr = t1_vector(K, n, tables) @ tables.raise_[n + 1]
        ext_terms.append(Term(cst.k_n * R ** (2 * n + 1) * corr, n + 2, -n - 1))
        ext_terms.append(Term(-cst.k_n * R ** (2 * n + 3) * corr, n + 2, -n - 3))
    return PerfectWave(
        n=n,
        family=family,
        c=c,
        R=R,
        kernel=K,
        interior=ModeField(tuple(int_terms), 0.0, R),
        exterior=ModeField(tuple(ext_terms), R, math.inf),
    )


def verify_perfect_wave(wave: PerfectWave, params: LameParams, tables: DerivativeTable) -> dict[str, float]:
    """Residuals of every defining property of a perfect wave.

    Keys: continuity and transmission (c-weighted traction match), both on
    per-degree coefficient arrays of the interface traces, relative;
    lame_interior / lame_exterior (relative exact residuals at 24 points on
    the spheres 0.35 R and 1.7 R); t1 / t3 conditions; normalization.
    """
    n, R, c = wave.n, wave.R, wave.c
    u_in = displacement_coeffs(wave.interior.terms, R)
    u_out = displacement_coeffs(wave.exterior.terms, R)
    t_in = traction_coeffs_algebraic(wave.interior.terms, R, params, tables)
    t_out = traction_coeffs_algebraic(wave.exterior.terms, R, params, tables)

    def worst(blocks) -> float:
        return max((float(np.max(np.abs(m))) for m in blocks), default=0.0)

    zero = np.zeros(1)
    continuity = worst(u_in.get(d, zero) - u_out.get(d, zero) for d in u_in.keys() | u_out.keys())
    continuity /= max(1.0, worst(u_in.values()))
    transmission = worst(c * t_in.get(d, zero) - t_out.get(d, zero) for d in t_in.keys() | t_out.keys())
    transmission /= max(worst(t_out.values()), 1e-30)
    dirs = np.random.default_rng(0).normal(size=(24, 3))
    dirs /= np.linalg.norm(dirs, axis=1)[:, None]
    return {
        "continuity": continuity,
        "transmission": transmission,
        "lame_interior": lame_residual(wave.interior.terms, params, dirs * (0.35 * R), tables),
        "lame_exterior": lame_residual(wave.exterior.terms, params, dirs * (1.7 * R), tables),
        "t1": float(np.max(np.abs(t1_vector(wave.kernel, n, tables)))),
        "t3": float(np.max(np.abs(t3_vector(wave.kernel, n, tables)))),
        "normalization": float(abs(np.sum(wave.kernel * np.conj(wave.kernel)) - 1.0)),
    }


def np_eigenvalue_map(c: float) -> float:
    """Shell multiplier to Neumann-Poincare eigenvalue, (c+1)/(2(c-1))."""
    if c == 1:
        raise ZeroDivisionError("c = 1 is the pole of the eigenvalue map")
    return (c + 1.0) / (2.0 * (c - 1.0))


def _project(T: np.ndarray, R: np.ndarray | None, scale: float, what: str) -> complex:
    """Scalar s with T = s R (R = None: T = 0), else :class:`SectorCheckError`."""
    s = 0.0 if R is None else np.vdot(R, T) / np.vdot(R, R)
    resid = float(np.linalg.norm(T - s * R if R is not None else T))
    if not resid <= 1e-11 * scale:
        raise SectorCheckError(f"{what} leaves its sector (projection residual {resid / scale:.3e})")
    return complex(s)


def _scalar_potential_terms(G: np.ndarray, n: int, R: float, kind: str) -> tuple[list[Term], list[Term]]:
    """Single-layer radial factors of 1/|x-y| ('newton') or |x-y| ('dist').

    Returns (inside terms, outside terms) for the densities G[j] Y_n on the
    sphere of radius R, one per row of G; the terms' coefficient rows are
    the potentials of the rows.
    """
    G = np.asarray(G, dtype=complex) * (4.0 * math.pi * R**2 / (2 * n + 1.0))
    if kind == "newton":
        inside = [Term(G / R ** (n + 1), n, n)]
        outside = [Term(G * R**n, n, -n - 1)]
    elif kind == "dist":
        inside = [
            Term(G / ((2 * n + 3.0) * R ** (n + 1)), n, n + 2),
            Term(-G * R ** (1 - n) / (2 * n - 1.0), n, n),
        ]
        outside = [
            Term(G * R ** (n + 2) / (2 * n + 3.0), n, -n - 1),
            Term(-G * R**n / (2 * n - 1.0), n, -n + 1),
        ]
    else:
        raise ValueError(kind)
    return inside, outside


def single_layer_field(G: np.ndarray, n: int, R: float, params: LameParams,
                       tables: DerivativeTable) -> tuple[ModeField, ModeField]:
    """Exact single-layer potential of the density G Y_n on partial B_R.

    The Kelvin matrix splits into a Newtonian part and second derivatives of
    the distance kernel; both have exact per-degree radial factors, so the
    potential is a finite sum of harmonic terms on either side of the sphere.
    """
    lam, mu = params.lam, params.mu
    alpha = 0.5 * (1.0 / mu + 1.0 / (2.0 * mu + lam))
    beta = 0.5 * (1.0 / mu - 1.0 / (2.0 * mu + lam))
    newt_in, newt_out = _scalar_potential_terms(G, n, R, "newton")
    dist_in, dist_out = _scalar_potential_terms(G, n, R, "dist")

    def build(newt: list[Term], dist: list[Term]) -> list[Term]:
        vec = {(t.degree, t.power): -(alpha + beta) / (4.0 * math.pi) * t.coef for t in newt}
        for (d, p), h in _hessian_groups(dist, tables).items():  # h[i, j, r] = d^2 / dx_j dx_i of row r
            part = beta / (4.0 * math.pi) * np.einsum("ijjm->im", h)
            vec[d, p] = vec[d, p] + part if (d, p) in vec else part
        return [Term(block, d, p) for (d, p), block in sorted(vec.items())]

    inside = ModeField(tuple(build(newt_in, dist_in)), 0.0, R)
    outside = ModeField(tuple(build(newt_out, dist_out)), R, math.inf)
    return inside, outside


def np_galerkin_spectrum(R: float, params: LameParams, n_max: int) -> list[tuple[float, int]]:
    """Galerkin eigenvalues of K* on vector harmonics up to degree ``n_max``.

    K* commutes with rotations and maps each sector shape of
    :func:`sector_kernels` to a multiple of itself, so the Galerkin matrix
    is diagonal on the shapes, truncation included.  The multiple of one
    member K per degree n and family is read off the average of the exact
    one-sided conormal traces of K's single layer (half the traction of the
    inside plus the outside terms at r = R); a part of the trace off K
    beyond 1e-11 of it raises :class:`SectorCheckError`.  Each multiple is emitted
    once per member of its sector, as the dense matrix's eigenvalues are.
    Returns (eigenvalue, degree n) pairs sorted by eigenvalue.
    """
    tables = shared_tables(n_max + 4)
    out = []
    for n in range(1, n_max + 1):
        for fam in (1, 2, 3):
            members = sector_kernels(n, fam, tables)
            K = members[0]
            inside, outside = single_layer_field(K, n, R, params, tables)
            trace = traction_coeffs_algebraic(inside.terms + outside.terms, R, params, tables)
            scale = max(float(np.linalg.norm(m)) for m in trace.values())
            what = f"K* of the degree-{n} family-{fam} shape"
            value = {d: _project(m, K if d == n else None, scale, what) for d, m in trace.items()}[n]
            out += [(float(value.real) / 2.0, n)] * len(members)
    out.sort(key=lambda t: t[0])
    return out
