"""High-accuracy integration over radial intervals.

The radial direction carries all the difficulty: the densities handled by
this package behave like ``(1 - r^2)**alpha`` with ``alpha`` as low as
``-3/2`` near the boundary, sometimes multiplied by powers of
``log((1+r)/(1-r))``.  The substitution ``s = log((1+r)/(1-r))`` (so
``r = tanh(s/2)``, ``1 - r^2 = sech(s/2)**2``) maps any power-law-plus-log
endpoint behaviour onto a smooth integrand on ``[0, S]`` and, crucially,
lets ``1 - r^2`` be computed without cancellation even within ``1e-10`` of
the boundary.

Every prior-weighted radial integral goes through :func:`quad_s`, called
by ``PriorDensity.integrate`` in :mod:`priors`.  Record search ranks on
the fixed Gauss-Legendre rule in s of :func:`_s_rule` instead.  The
statistics' angular integrals are done at each radial node by the
record-sized rules in :mod:`measurement`, which take their Gauss-Legendre
nodes from :func:`_gauss`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable

import numpy as np
from scipy.integrate import quad

from .errors import NoSignChangeError

__all__ = [
    "QuadratureConfig",
    "crossover_root",
]

# s-cutoff standing in for r = 1: the jacobian sech(s/2)^2/2 is ~1e-52 there,
# far below any integrand growth encountered on a proper density.
_S_CAP = 120.0

# subintervals scipy's quad may bisect into; no integral of the package
# comes near it (at most 39 over the reproduction table and the benchmark
# workloads, at the default tolerances)
_QUAD_LIMIT = 23_809

_ROOT_TOL = 1e-10      # bracket width at which crossover_root stops

# global integrand-evaluation counter, read by report assembly
_EVAL_COUNT = 0


def evaluation_count() -> int:
    """Total integrand evaluations performed so far (monotone counter)."""
    return _EVAL_COUNT


@dataclass(frozen=True)
class QuadratureConfig:
    """The relative and absolute tolerances of every adaptive integral."""

    rel_tol: float = 1e-8
    abs_tol: float = 1e-12

    def __post_init__(self):
        if not all(0.0 < tol < math.inf
                   for tol in (self.rel_tol, self.abs_tol)):
            raise ValueError("tolerances must be finite and positive")


DEFAULT_CONFIG = QuadratureConfig()


def _quad(fn, a, b, cfg: QuadratureConfig):
    global _EVAL_COUNT
    value, err, info = quad(fn, a, b, epsabs=cfg.abs_tol, epsrel=cfg.rel_tol,
                            limit=_QUAD_LIMIT, full_output=1)[:3]
    neval = int(info["neval"])
    _EVAL_COUNT += neval
    return value, err, neval


def _s_limit(R: float) -> float:
    """Upper end in s of the radial interval [0, R]; _S_CAP stands for R = 1."""
    return _S_CAP if R >= 1.0 else math.log((1.0 + R) / (1.0 - R))


def quad_s(w_s: Callable[[float], float], R: float,
           cfg: QuadratureConfig = DEFAULT_CONFIG):
    """Integrate ``w(r) dr`` over ``[0, R]`` with ``w`` given in s-space.

    ``w_s(s)`` must equal ``w(tanh(s/2))``; the jacobian is supplied here.
    Returns ``(value, error_estimate, evaluations)``.  This is the stable
    backbone used by the density modules.
    """
    def f(s):
        sech2 = 1.0 / math.cosh(s / 2.0) ** 2
        return w_s(s) * sech2 / 2.0

    return _quad(f, 0.0, _s_limit(R), cfg)


@lru_cache(maxsize=32)
def _gauss(n: int):
    x, w = np.polynomial.legendre.leggauss(n)
    return x, w


@lru_cache(maxsize=8)
def _s_rule(R: float, n: int):
    """The n-node Gauss-Legendre rule in s on [0, _s_limit(R)] for
    integrals in r over [0, R]: ``(s, r, weights)``, the jacobian
    dr/ds = sech(s/2)^2/2 folded into the weights."""
    x, w = _gauss(n)
    S = _s_limit(R)
    s = 0.5 * S * (x + 1.0)
    return s, np.tanh(s / 2.0), 0.5 * S * w * (0.5 / np.cosh(s / 2.0) ** 2)


def crossover_root(h, a: float, b: float) -> float:
    """Locate a sign change of ``h`` on ``[a, b]`` by bisection.

    Deterministic: fixed midpoint subdivision until the bracket is narrower
    than ``_ROOT_TOL``.  Raises :class:`NoSignChangeError` if ``h(a)`` and
    ``h(b)`` have the same sign.
    """
    fa, fb = h(a), h(b)
    if fa == 0.0:
        return a
    if fb == 0.0:
        return b
    if (fa > 0) == (fb > 0):
        raise NoSignChangeError(f"h({a}) and h({b}) have the same sign")
    while (b - a) > _ROOT_TOL:
        m = 0.5 * (a + b)
        if m <= a or m >= b:   # bracket at floating-point resolution
            break
        fm = h(m)
        if fm == 0.0:
            return m
        if (fm > 0) == (fa > 0):
            a, fa = m, fm
        else:
            b, fb = m, fm
    return 0.5 * (a + b)
