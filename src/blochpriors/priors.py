"""Prior densities on the Bloch ball induced by monotone metrics.

Each prior is the volume element of the metric generated by a function f,
for every built-in but ld an operator monotone one with f(1) = 1 and
f(t) = t f(1/t) (Petz and Sudar):

    r^2 (1 - r^2)^(-1/2) (1 + r)^(-1) / f((1 - r)/(1 + r))  *  sin(theta)

up to normalization.  One table, ``_PRIORS``, gives each built-in label
its closed-form radial profile, its default support radius and its f
(:func:`generator`).  For every built-in f the element reduces to
r^k * (1 - r^2)^alpha * L(r)^m  with L(r) = log((1+r)/(1-r)), which is
what :class:`RadialProfile` encodes; :func:`volume_element` evaluates it
from f, as a reference.  Densities are normalized so that
c * g(r) * sin(theta)  integrates to one over d(phi) d(theta) d(r) on the
ball of the chosen support radius.

g has one formula per variable: every integral takes log g in s = L(r)
(:meth:`RadialProfile.log_value_s`), and every density at a point takes
g/r^2 in r (:meth:`RadialProfile.cartesian`), finite at r = 0.  A density
at a point that would not be finite (at r >= 1, for every prior but ld)
raises OutOfSupportError.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Optional

import numpy as np

from .errors import ImproperPriorError, OutOfSupportError
from .quadrature import DEFAULT_CONFIG, QuadratureConfig, quad_s

__all__ = [
    "PRIOR_LABELS",
    "DEFAULT_TRUNCATION_RADIUS",
    "BlochPoint",
    "RadialProfile",
    "PriorDensity",
    "MonotoneFunctionReport",
    "volume_element",
    "check_monotone_function",
    "make_prior",
    "generator",
]

# truncation radius used for the improper-family comparisons
DEFAULT_TRUNCATION_RADIUS = 1.0 - 1e-10


def boundary_log(r):
    """L(r) = log((1+r)/(1-r))."""
    return np.log1p(r) - np.log1p(-r)


def _boundary_log_over_r(r):
    r = np.asarray(r, dtype=float)
    r2 = r * r
    small = r < 1e-4
    safe = np.where(small, 0.5, r)
    series = 2.0 + 2.0 * r2 / 3.0 + 2.0 * r2 * r2 / 5.0
    out = np.where(small, series, boundary_log(safe) / safe)
    return out if out.ndim else float(out)


@dataclass(frozen=True)
class BlochPoint:
    """A point of the unit ball in Cartesian coordinates."""

    x: float
    y: float
    z: float

    def __post_init__(self):
        if self.x * self.x + self.y * self.y + self.z * self.z > 1.0 + 1e-12:
            raise ValueError("point lies outside the unit ball")

    @classmethod
    def from_spherical(cls, r: float, theta: float, phi: float) -> "BlochPoint":
        st = math.sin(theta)
        return cls(r * st * math.cos(phi), r * st * math.sin(phi),
                   r * math.cos(theta))

    @property
    def r(self) -> float:
        return math.sqrt(self.x * self.x + self.y * self.y + self.z * self.z)

    @property
    def theta(self) -> float:
        r = self.r
        if r == 0.0:
            return 0.0
        return math.acos(max(-1.0, min(1.0, self.z / r)))

    @property
    def phi(self) -> float:
        return math.atan2(self.y, self.x) % (2.0 * math.pi)


@dataclass(frozen=True)
class RadialProfile:
    """g(r) = r^r_power * (1 - r^2)^boundary_power * L(r)^log_power."""

    r_power: int
    boundary_power: float
    log_power: int

    def log_value_s(self, s):
        """log g at s = L(r): one float with :mod:`math`, as an adaptive
        integrand node is, or an array of nodes with numpy.  g vanishes
        like r^2, so log g is -inf at s = 0."""
        if isinstance(s, float):
            if s == 0.0:
                return -math.inf
            xp = math
        else:
            xp, s = np, np.asarray(s, dtype=float)
            at_0 = s == 0.0
            if at_0.any():
                return np.where(at_0, -np.inf,
                                self.log_value_s(np.where(at_0, 1.0, s)))
        val = self.r_power * xp.log(xp.tanh(s / 2.0))
        val -= 2.0 * self.boundary_power * xp.log(xp.cosh(s / 2.0))
        if self.log_power:
            val += self.log_power * xp.log(s)
        return val

    def cartesian(self, r, omr2=None):
        """Density factor per unit Cartesian volume, g(r)/r^2."""
        r = np.asarray(r, dtype=float)
        if omr2 is None:
            omr2 = (1.0 - r) * (1.0 + r)
        k = self.r_power + self.log_power - 2
        out = np.asarray(omr2) ** self.boundary_power
        if k:
            out = out * r ** k
        if self.log_power:
            out = out * _boundary_log_over_r(r) ** self.log_power
        return out if np.ndim(out) else float(out)


# --- metric generators ------------------------------------------------------

# removable singularities at t = 1 are bridged by series inside this window
_SERIES_WINDOW = 1e-6
_CHECK_GRID_POINTS = 241     # points of check_monotone_function's grid


def _generator(formula):
    """f(t) on one float or an array of t > 0; one float gives a float."""
    def f(t):
        out = formula(np.asarray(t, dtype=float))
        return out if out.ndim else float(out)
    return f


def _t1_ratio(t):
    """(t - 1) / log(t), the Kubo-Mori generator, with its t -> 1 limit."""
    u = t - 1.0
    near = np.abs(u) < _SERIES_WINDOW
    with np.errstate(divide="ignore", invalid="ignore"):
        direct = u / np.log(np.where(near, 2.0, t))
    return np.where(near, 1.0 + u / 2.0 - u * u / 12.0, direct)


def _petz(n: int):
    """2 t^{(2-n)/2} ((t-1)/log t)^n / (1+t): n = 0 is the maximal monotone
    generator 2t/(1+t), n = 2 the Morozova-Chentsov one."""
    return _generator(
        lambda t: 2.0 * t ** ((2.0 - n) / 2.0) * _t1_ratio(t) ** n / (1.0 + t))


def volume_element(f: Callable, r: float) -> float:
    """Unnormalized radial density induced by the metric generator f.

    Returns r^2 (1-r^2)^(-1/2) (1+r)^(-1) / f((1-r)/(1+r)).
    """
    if r >= 1.0:
        raise ValueError("volume element undefined at r >= 1: f((1-r)/(1+r)) "
                         "may vanish at the boundary")
    if r < 0.0:
        raise ValueError("r must be nonnegative")
    if r == 0.0:
        return 0.0
    t = (1.0 - r) / (1.0 + r)
    ft = float(f(t))
    if ft <= 0.0:
        raise ValueError("metric generator must be positive on (0, 1]")
    omr2 = (1.0 - r) * (1.0 + r)
    return r * r / (math.sqrt(omr2) * (1.0 + r) * ft)


@dataclass(frozen=True)
class MonotoneFunctionReport:
    normalized: bool
    symmetric: bool
    scalar_monotone: bool


def check_monotone_function(f: Callable) -> MonotoneFunctionReport:
    """Check f(1) = 1, the symmetry f(t) = t f(1/t), and monotonicity.

    All checks run on a log-spaced grid of _CHECK_GRID_POINTS points over
    [1e-6, 1e6]; monotonicity is the scalar necessary condition only, not
    operator monotonicity.  Evaluation errors propagate.
    """
    t = np.logspace(-6.0, 6.0, _CHECK_GRID_POINTS)
    ft = np.asarray(f(t), dtype=float)
    f_inv = np.asarray(f(1.0 / t), dtype=float)

    normalized = abs(float(f(1.0)) - 1.0) <= 1e-12
    symmetric = bool(np.all(np.abs(ft - t * f_inv) <= 1e-12 * np.abs(ft)))
    scale = np.maximum(np.abs(ft[1:]), np.abs(ft[:-1]))
    scalar_monotone = bool(np.all(np.diff(ft) >= -1e-12 * scale))
    return MonotoneFunctionReport(normalized, symmetric, scalar_monotone)


# label -> (radial profile, default support radius, metric generator f);
# a profile with boundary_power <= -1 is not normalizable over the full
# ball.  ld's f = (1+t)^2/sqrt(t) gives the uniform density but is neither
# normalized (f(1) = 4) nor monotone.
_MC = _petz(2)
_PRIORS = {
    "sld": (RadialProfile(2, -0.5, 0), 1.0,
            _generator(lambda t: (1.0 + t) / 2.0)),
    "km": (RadialProfile(1, -0.5, 1), 1.0, _generator(_t1_ratio)),
    "mc": (RadialProfile(0, -0.5, 2), 1.0, _MC),
    "ld": (RadialProfile(2, 0.0, 0), 1.0,
           _generator(lambda t: (1.0 + t) ** 2 / np.sqrt(t))),
    "p0": (RadialProfile(2, -1.5, 0), DEFAULT_TRUNCATION_RADIUS, _petz(0)),
    "p1": (RadialProfile(1, -1.0, 1), DEFAULT_TRUNCATION_RADIUS, _petz(1)),
    "p2": (RadialProfile(0, -0.5, 2), DEFAULT_TRUNCATION_RADIUS, _MC),
}

PRIOR_LABELS = tuple(_PRIORS)


# below this radius the closed forms of sld and p0 cancel (to 2e-14
# relative at R = 0.05 and to all digits at R = 1e-8), and their power
# series is summed instead
_SERIES_RADIUS = 0.3


def _r2_series(b: float, R: float) -> float:
    """Int_0^R r^2 (1 - r^2)^b dr = sum_n (-b)_n / n! R^(2n+3) / (2n+3),
    summed until a term no longer moves the sum."""
    total, coeff, n = 0.0, R ** 3, 0
    while True:
        term = coeff / (2 * n + 3)
        total += term
        if term <= 1e-17 * total:
            return total
        coeff *= (n - b) / (n + 1) * R * R
        n += 1


def _radial_norm_integral(profile: RadialProfile, R: float,
                          cfg: QuadratureConfig) -> float:
    """Integral of the bare profile over [0, R], closed form when known."""
    shape = (profile.r_power, profile.boundary_power, profile.log_power)
    omR2 = (1.0 - R) * (1.0 + R)
    if shape in ((2, -0.5, 0), (2, -1.5, 0)) and R < _SERIES_RADIUS:
        return _r2_series(profile.boundary_power, R)
    if shape == (2, -0.5, 0):
        return 0.5 * (math.asin(R) - R * math.sqrt(omR2))
    if shape == (2, 0.0, 0):
        return R ** 3 / 3.0
    if shape == (2, -1.5, 0):
        return R / math.sqrt(omR2) - math.asin(R)
    value, _, _ = quad_s(lambda s: math.exp(profile.log_value_s(s)), R, cfg)
    return value


@dataclass(frozen=True)
class PriorDensity:
    """A normalized density c * g(r) * sin(theta) on the ball of radius R."""

    name: str
    profile: RadialProfile
    support_radius: float
    normalization: float

    def _check_support(self, r):
        if np.any(np.asarray(r) > self.support_radius * (1.0 + 1e-12)):
            raise OutOfSupportError(
                f"r beyond support radius {self.support_radius} of {self.name}")

    def _cartesian(self, r):
        """g(r)/r^2 on the support; OutOfSupportError where it is not
        finite (at r >= 1, for every prior but ld)."""
        self._check_support(r)
        with np.errstate(divide="ignore", invalid="ignore"):
            out = self.profile.cartesian(r)
        if not np.all(np.isfinite(out)):
            raise OutOfSupportError(
                f"{self.name} density is not finite at r >= 1")
        return out

    def radial_density(self, r):
        """Normalized radial density c * g(r) (angular part integrated out
        contributes the remaining 4*pi)."""
        cart = self._cartesian(r)
        r = np.asarray(r, dtype=float)
        out = self.normalization * r * r * cart
        return out if np.ndim(out) else float(out)

    def log_radial_density_s(self, s):
        """log(c * g) at s = log((1+r)/(1-r)), for one s or an array."""
        return math.log(self.normalization) + self.profile.log_value_s(s)

    def integrate(self, h, cfg: QuadratureConfig = DEFAULT_CONFIG) -> float:
        """c * Int_0^R g(r) h(r, s) dr, with s = log((1+r)/(1-r)).

        When h(r, s) is the integral of f over d(mu) d(phi) at radius r,
        this is E_p[f].  Every prior-weighted radial integral of the
        package is taken here, by :func:`quad_s`.
        """
        def w(s):
            return (math.exp(self.profile.log_value_s(s))
                    * h(math.tanh(s / 2.0), s))

        value, _, _ = quad_s(w, self.support_radius, cfg)
        return self.normalization * value

    def density_at(self, pt: BlochPoint, convention: str = "spherical"):
        """Density at a point, in the requested volume convention."""
        r = pt.r
        if convention == "spherical":
            return self.radial_density(r) * math.sin(pt.theta)
        if convention == "cartesian":
            return self.normalization * self._cartesian(r)
        raise ValueError(f"unknown convention {convention!r}")


@lru_cache(maxsize=128)
def _make_prior_cached(kind: str, R: float,
                       cfg: QuadratureConfig) -> PriorDensity:
    profile = _PRIORS[kind][0]
    integral = _radial_norm_integral(profile, R, cfg)
    c = 1.0 / (4.0 * math.pi * integral) if integral > 0.0 else math.inf
    if not math.isfinite(c):
        # the integral underflows at a tiny R: R^3/3 for ld below ~1e-103
        raise ValueError(f"support radius {R!r} is too small: the "
                         f"normalization integral of {kind} is {integral!r}")
    return PriorDensity(kind, profile, R, c)


def _entry(kind: str):
    try:
        return _PRIORS[kind]
    except KeyError:
        raise ValueError(f"unknown prior label {kind!r}") from None


def make_prior(kind: str, R: Optional[float] = None,
               cfg: QuadratureConfig = DEFAULT_CONFIG) -> PriorDensity:
    """Build the normalized built-in prior ``kind`` on the ball of radius R.

    R defaults to 1 for the proper families (sld, km, mc, ld) and to
    1 - 1e-10 for the truncated family (p0, p1, p2).  p0 and p1 are not
    normalizable over the full ball and raise ImproperPriorError at R = 1.
    """
    profile, default_R, _ = _entry(kind)
    if R is None:
        R = default_R
    if not (0.0 < R <= 1.0):
        raise ValueError("support radius must lie in (0, 1]")
    if R >= 1.0 and profile.boundary_power <= -1:
        raise ImproperPriorError(
            f"{kind} is improper over the full ball; choose R < 1")
    return _make_prior_cached(kind, float(R), cfg)


def generator(kind: str) -> Callable:
    """The metric generator f of the built-in prior ``kind``, vectorized
    over t; mc and p2 share one."""
    return _entry(kind)[2]
