"""Metric-generating scalar functions on (0, infinity).

Each monotone Riemannian metric on the two-level state space corresponds to
an operator monotone function f with f(1) = 1 and the symmetry
f(t) = t * f(1/t).  Only those scalar (necessary) conditions are checked
here; operator monotonicity at matrix level is out of scope.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

__all__ = [
    "MonotoneFunction",
    "MonotoneFunctionReport",
    "sld_function",
    "kubo_mori_function",
    "morozova_chentsov_function",
    "petz_function",
    "larson_dukes_generator",
    "custom_function",
    "check_monotone_function",
]

_CHECK_GRID_POINTS = 241     # points of check_monotone_function's grid

# removable singularities at t = 1 are bridged by series inside this window
_SERIES_WINDOW = 1e-6


def _t1_ratio(t):
    """(t - 1) / log(t), the Kubo-Mori generator, with its t -> 1 limit."""
    t = np.asarray(t, dtype=float)
    u = t - 1.0
    near = np.abs(u) < _SERIES_WINDOW
    safe = np.where(near, 2.0, t)
    with np.errstate(divide="ignore", invalid="ignore"):
        direct = u / np.log(safe)
    series = 1.0 + u / 2.0 - u * u / 12.0
    out = np.where(near, series, direct)
    return out if out.ndim else float(out)


def _sld(t):
    t = np.asarray(t, dtype=float)
    out = (1.0 + t) / 2.0
    return out if out.ndim else float(out)


def _petz(n: int):
    # f_n(t) = 2 t^{(2-n)/2} (t-1)^n / ((1+t) log(t)^n)
    #        = 2 t^{(2-n)/2} ((t-1)/log t)^n / (1+t)
    def f(t, n=n):
        t = np.asarray(t, dtype=float)
        out = 2.0 * t ** ((2.0 - n) / 2.0) * _t1_ratio(t) ** n / (1.0 + t)
        return out if out.ndim else float(out)
    return f


def _larson_dukes(t):
    t = np.asarray(t, dtype=float)
    out = (1.0 + t) ** 2 / np.sqrt(t)
    return out if out.ndim else float(out)


@dataclass(frozen=True)
class MonotoneFunction:
    """A scalar function f: (0, inf) -> (0, inf) with its family tag.

    ``kind`` is one of "sld", "kubo_mori", "morozova_chentsov",
    "petz_family", "larson_dukes_generator", "custom"; ``petz_order``
    is set only for the Petz family.
    """

    kind: str
    evaluator: Callable
    petz_order: Optional[int] = None

    def __call__(self, t):
        return self.evaluator(t)


def sld_function() -> MonotoneFunction:
    """Minimal monotone (Bures) metric generator, f(t) = (1+t)/2."""
    return MonotoneFunction("sld", _sld)


def kubo_mori_function() -> MonotoneFunction:
    """Kubo-Mori metric generator, f(t) = (t-1)/log(t)."""
    return MonotoneFunction("kubo_mori", _t1_ratio)


def morozova_chentsov_function() -> MonotoneFunction:
    """f(t) = 2 (t-1)^2 / ((1+t) log(t)^2); same function as petz_function(2)."""
    return MonotoneFunction("morozova_chentsov", _petz(2))


def petz_function(n: int) -> MonotoneFunction:
    """Member n of the family 2 t^{(2-n)/2} (t-1)^n / ((1+t) log(t)^n).

    n = 0 is the maximal monotone (left logarithmic derivative) generator
    2t/(1+t); n = 2 coincides with the Morozova-Chentsov function.
    """
    if n not in (0, 1, 2):
        raise ValueError("petz family order must be 0, 1 or 2")
    return MonotoneFunction("petz_family", _petz(n), petz_order=n)


def larson_dukes_generator() -> MonotoneFunction:
    """f(t) = (1+t)^2 / sqrt(t), which reproduces the uniform density.

    Not normalized (f(1) = 4) and not monotone; kept for its volume
    element only.
    """
    return MonotoneFunction("larson_dukes_generator", _larson_dukes)


def custom_function(evaluator: Callable) -> MonotoneFunction:
    """Wrap a user evaluator; no operator monotonicity is verified."""
    return MonotoneFunction("custom", evaluator)


@dataclass(frozen=True)
class MonotoneFunctionReport:
    normalized: bool
    symmetric: bool
    scalar_monotone: bool


def check_monotone_function(f: MonotoneFunction) -> MonotoneFunctionReport:
    """Check f(1) = 1, the symmetry f(t) = t f(1/t), and monotonicity.

    All checks run on a log-spaced grid of _CHECK_GRID_POINTS points over
    [1e-6, 1e6]; monotonicity is the scalar necessary condition only.
    Evaluation errors propagate.
    """
    t = np.logspace(-6.0, 6.0, _CHECK_GRID_POINTS)
    ft = np.asarray(f(t), dtype=float)
    f_inv = np.asarray(f(1.0 / t), dtype=float)

    normalized = abs(float(f(1.0)) - 1.0) <= 1e-12
    symmetric = bool(np.all(np.abs(ft - t * f_inv) <= 1e-12 * np.abs(ft)))
    scale = np.maximum(np.abs(ft[1:]), np.abs(ft[:-1]))
    scalar_monotone = bool(np.all(np.diff(ft) >= -1e-12 * scale))
    return MonotoneFunctionReport(normalized, symmetric, scalar_monotone)
