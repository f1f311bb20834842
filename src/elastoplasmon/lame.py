"""Closed-form constants of the 3D Lame system on spherical geometries.

The degree-n mode formulas reach every field and sector system of the
package through seven scalars (:func:`mode_constants`): k_n and M_n slave the
corrections of the irregular and regular Lame blocks two degrees up and
down, E_n, s1_n and s2_n enter the boundary solvers and l_n, m_n the
traction of an irregular block.  :func:`plasmon_constants`, the shell
multipliers that admit perfect waves, and :class:`SectorCheckError` sit here
with them, so a sector solve needs neither the ladders of
:mod:`~elastoplasmon.harmonics` nor the fields of
:mod:`~elastoplasmon.fields`.  Both kinds of constants are kept once per
process per material and degree (:func:`_once_per_key`).
"""

from __future__ import annotations

import functools
import math
import sys
from typing import NamedTuple

__all__ = [
    "SectorCheckError", "LameParams", "ModeConstants", "PlasmonConstants", "mode_constants", "plasmon_constants",
]


class SectorCheckError(AssertionError):
    """Raised when a built field, trace or kernel fails its sector check.

    The checks hold to roundoff, which grows near 3 lambda + 2 mu = 0, so
    there a correct build can fail them (a kernel at 3 lambda + 2 mu =
    3e-7 mu); the command line reports this as a validation failure.  The
    residual reports of :mod:`~elastoplasmon.fields` raise nothing: they
    are normwise, and a caller gates them.
    """


class LameParams(NamedTuple("LameParams", [("lam", float), ("mu", float)])):
    """Base Lame pair with the 3D strong convexity invariant, checked on construction and by ``_replace``."""

    __slots__ = ()

    def __new__(cls, lam: float, mu: float):
        if not (mu > 0 and 3.0 * lam + 2.0 * mu > 0):
            raise ValueError(f"(lambda, mu)=({lam}, {mu}) violates mu>0, 3*lambda+2*mu>0")
        return super().__new__(cls, lam, mu)

    _make = classmethod(lambda cls, values: cls(*values))  # _replace builds through __new__


class ModeConstants(NamedTuple):
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


def _key(params, *args) -> tuple:
    """The key of :func:`_once_per_key`: (float lambda, float mu, *args), ``+ 0.0`` reading -0.0 as 0.0."""
    return (float(params.lam) + 0.0, float(params.mu) + 0.0, *args)


def _once_per_key(f):
    """``f(params, *args)`` once per process per :func:`_key`, evaluated at that float pair:
    ``LameParams(1, 1)`` and ``LameParams(1.0, 1.0)`` share a value in ``cache``.  A raise keeps
    nothing; no caller mutates a value; ``f`` is ``__wrapped__``; the key is inline (a hot path)."""
    @functools.wraps(f)
    def cached(params, *args):
        key = (float(params.lam) + 0.0, float(params.mu) + 0.0, *args)  # _key
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


class PlasmonConstants(NamedTuple):
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


def _served_from_fields(namespace: dict, names: str):
    """A PEP 562 ``__getattr__`` for the module of ``namespace``: each of ``names`` (space-separated), moved
    to :mod:`~elastoplasmon.fields`, is loaded from there on first access; another name is an ``AttributeError``."""
    def __getattr__(name: str):
        if name not in names.split():
            raise AttributeError(f"module {namespace['__name__']!r} has no attribute {name!r}")
        from . import fields

        value = namespace[name] = getattr(fields, name)  # later reads skip this hook
        return value
    return __getattr__


__getattr__ = _served_from_fields(globals(), "lame_residual traction_coeffs traction_coeffs_algebraic")
