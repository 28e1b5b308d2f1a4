"""Prior densities on the Bloch ball induced by monotone metrics.

The volume element of the metric generated by f is

    r^2 (1 - r^2)^(-1/2) (1 + r)^(-1) / f((1 - r)/(1 + r))  *  sin(theta)

up to normalization.  For every built-in family this reduces to the closed
form  r^k * (1 - r^2)^alpha * L(r)^m  with L(r) = log((1+r)/(1-r)),
which is what :class:`RadialProfile` encodes.  Densities are normalized so
that  c * g(r) * sin(theta)  integrates to one over
d(phi) d(theta) d(r) on the ball of the chosen support radius.

g has one formula per variable: every integral takes log g in s = L(r)
(:meth:`RadialProfile.log_value_s`), and every density at a point takes
g/r^2 in r (:meth:`RadialProfile.cartesian`), finite at r = 0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Optional

import numpy as np

from .errors import ImproperPriorError, OutOfSupportError
from .functions import MonotoneFunction
from .quadrature import DEFAULT_CONFIG, QuadratureConfig, quad_s

__all__ = [
    "PRIOR_LABELS",
    "DEFAULT_TRUNCATION_RADIUS",
    "BlochPoint",
    "RadialProfile",
    "PriorDensity",
    "volume_element",
    "make_prior",
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
        integrand node is, or an array of nodes with numpy."""
        xp = math if isinstance(s, float) else np
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


# label -> (radial profile, default support radius); a profile with
# boundary_power <= -1 is not normalizable over the full ball
_PRIORS = {
    "sld": (RadialProfile(2, -0.5, 0), 1.0),
    "km": (RadialProfile(1, -0.5, 1), 1.0),
    "mc": (RadialProfile(0, -0.5, 2), 1.0),
    "ld": (RadialProfile(2, 0.0, 0), 1.0),
    "p0": (RadialProfile(2, -1.5, 0), DEFAULT_TRUNCATION_RADIUS),
    "p1": (RadialProfile(1, -1.0, 1), DEFAULT_TRUNCATION_RADIUS),
    "p2": (RadialProfile(0, -0.5, 2), DEFAULT_TRUNCATION_RADIUS),
}

PRIOR_LABELS = tuple(_PRIORS)


def _radial_norm_integral(profile: RadialProfile, R: float,
                          cfg: QuadratureConfig) -> float:
    """Integral of the bare profile over [0, R], closed form when known."""
    shape = (profile.r_power, profile.boundary_power, profile.log_power)
    omR2 = (1.0 - R) * (1.0 + R)
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

    def radial_density(self, r):
        """Normalized radial density c * g(r) (angular part integrated out
        contributes the remaining 4*pi)."""
        self._check_support(r)
        r = np.asarray(r, dtype=float)
        out = self.normalization * r * r * self.profile.cartesian(r)
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
            self._check_support(r)
            return self.normalization * self.profile.cartesian(r)
        raise ValueError(f"unknown convention {convention!r}")


@lru_cache(maxsize=128)
def _make_prior_cached(kind: str, R: float,
                       cfg: QuadratureConfig) -> PriorDensity:
    profile = _PRIORS[kind][0]
    integral = _radial_norm_integral(profile, R, cfg)
    c = 1.0 / (4.0 * math.pi * integral)
    return PriorDensity(kind, profile, R, c)


def make_prior(kind: str, R: Optional[float] = None,
               cfg: QuadratureConfig = DEFAULT_CONFIG) -> PriorDensity:
    """Build the normalized built-in prior ``kind`` on the ball of radius R.

    R defaults to 1 for the proper families (sld, km, mc, ld) and to
    1 - 1e-10 for the truncated family (p0, p1, p2).  p0 and p1 are not
    normalizable over the full ball and raise ImproperPriorError at R = 1.
    """
    if kind not in _PRIORS:
        raise ValueError(f"unknown prior label {kind!r}")
    profile, default_R = _PRIORS[kind]
    if R is None:
        R = default_R
    if not (0.0 < R <= 1.0):
        raise ValueError("support radius must lie in (0, 1]")
    if R >= 1.0 and profile.boundary_power <= -1:
        raise ImproperPriorError(
            f"{kind} is improper over the full ball; choose R < 1")
    return _make_prior_cached(kind, float(R), cfg)


def volume_element(f: MonotoneFunction, r: float) -> float:
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
