"""Perfect plasmon elastic waves of the core-free sphere transmission problem.

For a fixed degree n >= 2 the exterior field is one irregular block with
coefficient matrix G.  Matching the Dirichlet data of the interior solution
obtained from the surface displacement against the one obtained from the
surface traction (divided by the shell multiplier c) yields a square linear
map on G; its null space is nontrivial exactly at the three plasmon
constants (:func:`~elastoplasmon.lame.plasmon_constants`, also importable
from here).  Each null space is a whole total-angular-momentum sector of G Y_n
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

The Neumann-Poincare spectrum reads the sectors' radial profiles of
:mod:`~elastoplasmon.transmission`, the engine of the transmission solve.
The single layer of a sector density on the sphere (one unit-sphere system
per key, scaled) is continuous there and its traction jumps by the density;
K* is the average of its two one-sided traction scalars.  K* commutes with
rotations and maps every sector shape to a multiple of itself (checked), so
one layer per degree and family gives an eigenvalue; under (c+1)/(2(c-1))
these eigenvalues are the plasmon constants.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .fields import (ModeField, _ladder, _profile_fields, _tilde_scale, _tilde_unscaled, exterior_traction_coeffs,
                     t1_vector, t3_vector, trace_jumps)
from .harmonics import lower, raise_
from .lame import LameParams, SectorCheckError
from .lame import PlasmonConstants, plasmon_constants  # noqa: F401  (defined with the mode constants; imported here too)
from .transmission import (_column, _ok, _profile_stack, _radial_profile, _region_blocks, _single_layers, _traces,
                           _wave_amplitudes)

__all__ = [
    "PlasmonEigenProblem", "PerfectWave", "assemble_H", "matching_defect", "plasmon_kernel", "sector_kernels",
    "perfect_wave", "verify_perfect_wave", "np_eigenvalue_map", "np_galerkin_spectrum",
]

# the null space of plasmon_kernel: singular values below this fraction of
# the largest; and the largest t1 / t3 entry kernel_family reads as absent
_KERNEL_REL_TOL = 1e-9
_T_PATTERN_TOL = 1e-8


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


def assemble_H(n: int, params: LameParams, c: float, tables=None, R: float = 1.0) -> PlasmonEigenProblem:
    """Displacement-match composed with traction expansion and inversion.

    Columns are produced by pushing basis coefficient matrices through the
    degree-n building blocks: surface displacement of the irregular block
    (``D``), its closed-form surface traction followed by the c-free part of
    the traction-to-displacement inversion (``X``); the matching matrix is
    ``D - s(c) X`` with the scalar ``s(c)`` of the inversion.  ``tables`` is
    unused (the ladders are read by degree from the process-wide store); it
    keeps its position only for callers that pass a table positionally, such
    as the benchmark's residual probe.
    """
    if n < 2:
        raise ValueError("assemble_H needs n >= 2")
    if c == 0:
        raise ValueError("multiplier c = 0 makes the traction inversion singular")
    N = 3 * (2 * n + 1)
    D = np.zeros((N, N), dtype=complex)
    X = np.zeros((N, N), dtype=complex)
    for a in range(N):
        E = _unvec(np.eye(N)[a], n)
        D[:, a] = _vec(E / R ** (n + 1))
        X[:, a] = _vec(_inversion(E, n, R, params))
    M = D - _tilde_scale(n, R, params, c) * X
    prob = PlasmonEigenProblem(n=n, c=c, R=R, params=params, H=M.T)
    prob.singular_values = np.linalg.svd(M, compute_uv=False)
    return prob


def _inversion(G: np.ndarray, n: int, R: float, params: LameParams) -> np.ndarray:
    """c-free interior Dirichlet data recovered from the block's surface traction."""
    return _tilde_unscaled(exterior_traction_coeffs(G, n, R, params)[n], n, params)


def matching_defect(G: np.ndarray, n: int, params: LameParams, c: float) -> float:
    """Relative defect ``|D G - s(c) X G| / (|D G| + |s(c) X G|)`` of one matrix.

    The matching map of :func:`assemble_H` on the unit sphere applied to
    ``G`` alone: it reads about machine precision for a kernel matrix at its
    plasmon constant.
    """
    d = np.asarray(G, dtype=complex)  # D G = G / R^(n+1) at R = 1
    sx = _tilde_scale(n, 1.0, params, c) * _inversion(G, n, 1.0, params)
    return float(np.linalg.norm(d - sx) / (np.linalg.norm(d) + np.linalg.norm(sx)))


def _conj_kernel(G: np.ndarray) -> np.ndarray:
    """Antiunitary map fixing matrices whose field G Y_n is real-valued.

    ``conj(Y_n^m) = (-1)^m Y_n^{-m}``, so the map conjugates, reverses the
    order axis (the last) and signs odd orders.
    """
    n = (G.shape[-1] - 1) // 2
    return np.conj(G)[..., ::-1] * (-1.0) ** (n - np.arange(2 * n + 1))


def plasmon_kernel(problem: PlasmonEigenProblem) -> list[np.ndarray]:
    """Orthonormal self-conjugate basis of the null space of the matching map.

    Raises ``ValueError`` with the smallest residual singular value when the
    multiplier is not a plasmon constant.
    """
    n = problem.n
    U, s, Vh = np.linalg.svd(problem.H.T)
    smax = problem.singular_values[0]
    keep = s < _KERNEL_REL_TOL * smax
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


def sector_kernels(n: int, family: int) -> list[np.ndarray]:
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
        B = np.conj(lower[n] if family == 2 else raise_[n]).transpose(2, 0, 1)
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


def kernel_family(G: np.ndarray) -> int:
    """Classify a kernel matrix by its t-conditions: 1, 2 or 3."""
    n = (G.shape[1] - 1) // 2
    has_t1 = np.max(np.abs(t1_vector(G, n))) > _T_PATTERN_TOL
    has_t3 = np.max(np.abs(t3_vector(G, n))) > _T_PATTERN_TOL
    if has_t1 and has_t3:
        raise ValueError("matrix has both t1 and t3 content; not a pure kernel")
    return 3 if has_t1 else 2 if has_t3 else 1


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


def perfect_wave(kernel: np.ndarray, family: int, n: int, R: float,
                 params: LameParams, tables=None) -> PerfectWave:
    """Construct the piecewise wave for a kernel of the given family.

    Its fields are the profile blocks of the sector's perfect wave
    (:func:`~elastoplasmon.transmission._wave_amplitudes`, which checks the
    sector once per key and gives its plasmon constant) on the kernel and
    its ladder shape.  ``tables`` is unused (the ladders are read by degree
    from the process-wide store); it keeps its position only for callers
    that pass a table positionally, such as the benchmark's residual probe.
    """
    K = np.asarray(kernel, dtype=complex)
    prof, amps, c = _wave_amplitudes(params, n, family, R)
    refs = {n: K}
    if family != 1:
        refs[prof.degrees[1]] = _ladder(K, n, family == 3)
    interior, exterior = _profile_fields([(prof, refs, (0.0, R, math.inf), amps)], drop_zero=True)
    return PerfectWave(n=n, family=family, c=c, R=R, kernel=K, interior=interior, exterior=exterior)


def verify_perfect_wave(wave: PerfectWave, params: LameParams) -> dict[str, float]:
    """Residuals of every defining property of a perfect wave.

    Keys: continuity and transmission (c-weighted traction match), the
    worst per-degree interface jumps of :func:`~elastoplasmon.fields.trace_jumps`;
    lame_interior / lame_exterior, each side's normwise Lame residual
    (:meth:`~elastoplasmon.fields.ModeField.residual`); t1 / t3 conditions;
    normalization.  A NaN stays NaN.
    """
    n = wave.n
    disp, trac = trace_jumps(wave.interior.terms, wave.exterior.terms, wave.R, params, (wave.c, 1.0))
    return {
        "continuity": float(np.max(list(disp.values()))),
        "transmission": float(np.max(list(trac.values()))),
        "lame_interior": wave.interior.residual(params),
        "lame_exterior": wave.exterior.residual(params),
        "t1": float(np.max(np.abs(t1_vector(wave.kernel, n)))),
        "t3": float(np.max(np.abs(t3_vector(wave.kernel, n)))),
        "normalization": float(abs(np.sum(wave.kernel * np.conj(wave.kernel)) - 1.0)),
    }


def np_eigenvalue_map(c: float) -> float:
    """Shell multiplier to Neumann-Poincare eigenvalue, (c+1)/(2(c-1))."""
    if c == 1:
        raise ZeroDivisionError("c = 1 is the pole of the eigenvalue map")
    return (c + 1.0) / (2.0 * (c - 1.0))


def np_galerkin_spectrum(R: float, params: LameParams, n_max: int) -> list[tuple[float, int]]:
    """Galerkin eigenvalues of K* on vector harmonics up to degree ``n_max``.

    K* commutes with rotations and maps each sector shape of
    :func:`sector_kernels` to a multiple of itself, so the Galerkin matrix
    is diagonal on the shapes, truncation included.  The single layer of a
    family's degree-n shape is the field of its radial profile that is
    continuous at R with unit traction jump (no member matrix; a power of R
    out of the float range raises ``ArithmeticError`` naming R), and the
    multiple is half the sum of its two one-sided traction scalars on degree
    n; a partner-degree part above 1e-11 of the largest of them raises
    :class:`SectorCheckError`.  Each multiple is emitted 2J + 1 times, once
    per member of its sector, as the dense matrix's eigenvalues are.  The
    layers of one profile shape are one stacked solve; an error is raised
    for the first (degree, family) that has one.  Returns (eigenvalue,
    degree n) pairs sorted by eigenvalue.
    """
    modes = [(n, fam, J, _radial_profile(params, n, fam)) for n in range(1, n_max + 1)
             for fam, J in ((1, n), (2, n - 1), (3, n + 1))]

    def values(idx, states):  # the layers of one profile shape: one stacked solve, one trace per side
        layers = _single_layers([(params, n, fam, R, 1.0) for n, fam, _, _ in states])
        stack, D = _profile_stack([prof for *_, prof in states]), len(states[0][3].degrees)
        (_, inside), (_, outside) = (_traces(stack, layers[:, reg], [R] * len(idx), _region_blocks(reg, 2, D))
                                     for reg in (0, 1))
        return list(zip(inside, outside))

    out = []
    for (n, fam, J, _), got in zip(modes, _column(len(modes), modes.__getitem__, values,
                                                   key=lambda mode: len(mode[3].degrees))):
        inside, outside = _ok(got)
        scale = float(np.max(np.abs(np.concatenate((inside, outside)))))
        kstar = ((inside + outside) / 2.0).tolist()
        stray = max((abs(t) for t in kstar[1:]), default=0.0)
        if not stray <= 1e-11 * scale:
            raise SectorCheckError(f"K* of the degree-{n} family-{fam} shape leaves its sector "
                                   f"(partner part {stray / scale:.3e})")
        out += [(float(kstar[0].real), n)] * (2 * J + 1)
    out.sort(key=lambda t: t[0])
    return out
