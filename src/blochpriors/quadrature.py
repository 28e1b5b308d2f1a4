"""High-accuracy integration over radial intervals and the unit ball.

The radial direction carries all the difficulty: the densities handled by
this package behave like ``(1 - r^2)**alpha`` with ``alpha`` as low as
``-3/2`` near the boundary, sometimes multiplied by powers of
``log((1+r)/(1-r))``.  Two substitutions tame these integrands:

* ``r = sin(u)`` removes a ``(1 - r^2)**(-1/2)`` factor exactly;
* ``s = log((1+r)/(1-r))`` (so ``r = tanh(s/2)``, ``1 - r^2 = sech(s/2)**2``)
  maps any power-law-plus-log endpoint behaviour onto a smooth integrand on
  ``[0, S]`` and, crucially, lets ``1 - r^2`` be computed without
  cancellation even within ``1e-10`` of the boundary.

The statistics' angular integrals are done at each radial node by the
record-sized rules in :mod:`measurement`, which take their Gauss-Legendre
nodes from :func:`_gauss`.  :func:`integrate_ball` keeps its own tensor rule
(Gauss-Legendre in ``mu = cos(theta)``, periodic trapezoid in ``phi``),
refined by doubling until the result is stable; only the tests use it, as a
reference for densities given pointwise.

Integrands may optionally accept a keyword argument ``omr2`` carrying a
cancellation-free value of ``1 - r^2``; integrands that need full accuracy
near ``r = 1`` should use it instead of recomputing ``1 - r*r``.
"""

from __future__ import annotations

import inspect
import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Optional

import numpy as np
from scipy.integrate import quad

from .errors import NoSignChangeError

__all__ = [
    "QuadratureConfig",
    "QuadratureResult",
    "integrate_radial",
    "integrate_ball",
    "crossover_root",
]

# s-cutoff standing in for r = 1: the jacobian sech(s/2)^2/2 is ~1e-52 there,
# far below any integrand growth encountered on a proper density.
_S_CAP = 120.0

# global integrand-evaluation counter, read by report assembly
_EVAL_COUNT = 0


def evaluation_count() -> int:
    """Total integrand evaluations performed so far (monotone counter)."""
    return _EVAL_COUNT


@dataclass(frozen=True)
class QuadratureConfig:
    """Tolerances and budget for one integration call."""

    rel_tol: float = 1e-8
    abs_tol: float = 1e-12
    max_evaluations: int = 500_000
    singularity_exponent: Optional[float] = None

    def __post_init__(self):
        if self.rel_tol <= 0 or self.abs_tol <= 0:
            raise ValueError("tolerances must be positive")
        if self.max_evaluations < 21:
            raise ValueError("max_evaluations below minimum rule size")


DEFAULT_CONFIG = QuadratureConfig()


@dataclass(frozen=True)
class QuadratureResult:
    value: float
    error_estimate: float
    evaluations: int
    converged: bool


def _count(n: int) -> None:
    global _EVAL_COUNT
    _EVAL_COUNT += n


def _accepts_omr2(fn) -> bool:
    try:
        sig = inspect.signature(fn)
    except (TypeError, ValueError):
        return False
    return "omr2" in sig.parameters


def _quad(fn, a, b, cfg: QuadratureConfig):
    limit = max(50, cfg.max_evaluations // 21)
    out = quad(fn, a, b, epsabs=cfg.abs_tol, epsrel=cfg.rel_tol,
               limit=limit, full_output=1)
    value, err, info = out[0], out[1], out[2]
    neval = int(info["neval"])
    _count(neval)
    return value, err, neval


def quad_s(w_s: Callable[[float], float], R: float,
           cfg: QuadratureConfig = DEFAULT_CONFIG):
    """Integrate ``w(r) dr`` over ``[0, R]`` with ``w`` given in s-space.

    ``w_s(s)`` must equal ``w(tanh(s/2))``; the jacobian is supplied here.
    Returns ``(value, error_estimate, evaluations)``.  This is the stable
    backbone used by the density modules.
    """
    S = _S_CAP if R >= 1.0 else math.log((1.0 + R) / (1.0 - R))

    def f(s):
        sech2 = 1.0 / math.cosh(s / 2.0) ** 2
        return w_s(s) * sech2 / 2.0

    return _quad(f, 0.0, S, cfg)


def integrate_radial(fn, R: float, cfg: QuadratureConfig = DEFAULT_CONFIG,
                     singularity_exponent: Optional[float] = None,
                     method: str = "auto") -> QuadratureResult:
    """Integrate ``fn(r)`` over ``[0, R]``.

    ``singularity_exponent`` hints the power alpha of a ``(1-r^2)**alpha``
    endpoint singularity at the right end (overrides the config hint).
    ``method`` may force a strategy: "plain", "sin" (r = sin u) or
    "log" (s-substitution); "auto" dispatches on the hint.

    A non-converged result is returned with ``converged=False`` rather than
    raised, so callers can still render diagnostics.
    """
    if not (0.0 < R <= 1.0):
        raise ValueError("R must lie in (0, 1]")
    alpha = singularity_exponent
    if alpha is None:
        alpha = cfg.singularity_exponent

    wants_omr2 = _accepts_omr2(fn)

    if method == "auto":
        if alpha is None or alpha == 0.0:
            method = "plain"
        elif alpha == -0.5:
            method = "sin"
        else:
            method = "log"

    if method == "plain":
        value, err, neval = _quad(fn, 0.0, R, cfg)
    elif method == "sin":
        umax = math.asin(min(R, 1.0))

        def f(u):
            r = math.sin(u)
            cu = math.cos(u)
            if wants_omr2:
                return fn(r, omr2=cu * cu) * cu
            return fn(r) * cu

        value, err, neval = _quad(f, 0.0, umax, cfg)
    elif method == "log":
        S = _S_CAP if R >= 1.0 else math.log((1.0 + R) / (1.0 - R))

        def f(s):
            r = math.tanh(s / 2.0)
            sech2 = 1.0 / math.cosh(s / 2.0) ** 2
            if wants_omr2:
                return fn(r, omr2=sech2) * sech2 / 2.0
            return fn(r) * sech2 / 2.0

        value, err, neval = _quad(f, 0.0, S, cfg)
    else:
        raise ValueError(f"unknown method {method!r}")

    converged = err <= max(cfg.rel_tol * abs(value), cfg.abs_tol)
    return QuadratureResult(value, err, neval, converged)


@lru_cache(maxsize=32)
def _gauss(n: int):
    x, w = np.polynomial.legendre.leggauss(n)
    return x, w


def _angular_integral(fn, r, omr2, n_mu, n_phi, octant):
    """Tensor angular integral of fn(r, theta, phi) at fixed radius."""
    if octant:
        x, w = _gauss(n_mu)
        mu = 0.5 * (x + 1.0)          # [0, 1]
        wmu = 0.5 * w
        xf, wf = _gauss(n_phi)
        phi = (math.pi / 4.0) * (xf + 1.0)   # [0, pi/2]
        wphi = (math.pi / 4.0) * wf
        factor = 8.0
    else:
        x, wmu = _gauss(n_mu)
        mu = x                        # [-1, 1]
        phi = np.arange(n_phi) * (2.0 * math.pi / n_phi)
        wphi = np.full(n_phi, 2.0 * math.pi / n_phi)
        factor = 1.0
    theta = np.arccos(mu)[:, None]
    sin_t = np.sqrt(1.0 - mu * mu)[:, None]
    ph = phi[None, :]
    if _accepts_omr2(fn):
        vals = fn(r, theta, ph, omr2=omr2)
    else:
        vals = fn(r, theta, ph)
    vals = np.asarray(vals, dtype=float) * np.ones((len(mu), len(phi)))
    # the theta integral runs in mu = cos(theta); divide out the implicit
    # sin(theta) jacobian carried by integrands written against d(theta)
    vals = vals / sin_t
    _count(vals.size)
    return factor * float((wmu[:, None] * wphi[None, :] * vals).sum())


def integrate_ball(fn, R: float, cfg: QuadratureConfig = DEFAULT_CONFIG,
                   octant_symmetric: bool = False) -> QuadratureResult:
    """Triple integral of ``fn(r, theta, phi)`` over the ball of radius R.

    Integration order follows ``d(phi) d(theta) d(r)``.  ``fn`` must be
    broadcastable over numpy arrays of ``theta`` and ``phi`` and is expected
    to contain the spherical ``sin(theta)`` measure factor (densities in
    this package do).  With ``octant_symmetric=True`` only one octant is
    sampled and the result scaled by 8; valid when ``fn`` is even under
    sign flips of all three Cartesian coordinates.
    """
    if not (0.0 < R <= 1.0):
        raise ValueError("R must lie in (0, 1]")
    ang_tol = 0.1 * cfg.rel_tol
    n_max = 512

    def F(r, omr2=None):
        if omr2 is None:
            omr2 = (1.0 - r) * (1.0 + r)
        n_mu, n_phi = 16, 32
        prev = _angular_integral(fn, r, omr2, n_mu, n_phi, octant_symmetric)
        while True:
            n_mu *= 2
            n_phi *= 2
            cur = _angular_integral(fn, r, omr2, n_mu, n_phi, octant_symmetric)
            if abs(cur - prev) <= max(ang_tol * abs(cur), cfg.abs_tol):
                return cur
            if n_mu >= n_max:
                return cur
            prev = cur

    before = _EVAL_COUNT
    res = integrate_radial(F, R, cfg,
                           singularity_exponent=cfg.singularity_exponent)
    return QuadratureResult(res.value, res.error_estimate,
                            _EVAL_COUNT - before, res.converged)


def crossover_root(h, a: float, b: float, tol: float = 1e-10) -> float:
    """Locate a sign change of ``h`` on ``[a, b]`` by bisection.

    Deterministic: fixed midpoint subdivision until the bracket is narrower
    than ``tol``.  Raises :class:`NoSignChangeError` if ``h(a)`` and
    ``h(b)`` have the same sign.
    """
    fa, fb = h(a), h(b)
    _count(2)
    if fa == 0.0:
        return a
    if fb == 0.0:
        return b
    if (fa > 0) == (fb > 0):
        raise NoSignChangeError(f"h({a}) and h({b}) have the same sign")
    while (b - a) > tol:
        m = 0.5 * (a + b)
        if m <= a or m >= b:   # bracket at floating-point resolution
            break
        fm = h(m)
        _count(1)
        if fm == 0.0:
            return m
        if (fm > 0) == (fa > 0):
            a, fa = m, fm
        else:
            b, fb = m, fm
    return 0.5 * (a + b)
