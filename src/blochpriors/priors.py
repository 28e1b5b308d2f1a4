"""Prior densities on the Bloch ball induced by monotone metrics.

The volume element of the metric generated by f is

    r^2 (1 - r^2)^(-1/2) (1 + r)^(-1) / f((1 - r)/(1 + r))  *  sin(theta)

up to normalization.  For every built-in family this reduces to the closed
form  coef * r^k * (1 - r^2)^alpha * L(r)^m  with L(r) = log((1+r)/(1-r)),
which is what :class:`RadialProfile` encodes.  Densities are normalized so
that  c * g(r) * sin(theta)  integrates to one over
d(phi) d(theta) d(r) on the ball of the chosen support radius.
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
    "density_matrix",
]

PRIOR_LABELS = ("sld", "km", "mc", "ld", "p0", "p1", "p2")

# truncation radius used for the improper-family comparisons
DEFAULT_TRUNCATION_RADIUS = 1.0 - 1e-10

_IMPROPER_AT_UNIT = frozenset({"p0", "p1"})


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
    """coef * r^r_power * (1 - r^2)^boundary_power * L(r)^log_power."""

    r_power: int
    boundary_power: float
    log_power: int
    coef: float = 1.0

    def __call__(self, r, omr2=None):
        r = np.asarray(r, dtype=float)
        if omr2 is None:
            omr2 = (1.0 - r) * (1.0 + r)
        out = self.coef * r ** self.r_power * np.asarray(omr2) ** self.boundary_power
        if self.log_power:
            out = out * boundary_log(r) ** self.log_power
        return out if np.ndim(out) else float(out)

    # --- stable evaluation in s = log((1+r)/(1-r)) -----------------------
    def value_s(self, s: float) -> float:
        r = math.tanh(s / 2.0)
        sech2 = 1.0 / math.cosh(s / 2.0) ** 2
        return (self.coef * r ** self.r_power * sech2 ** self.boundary_power
                * s ** self.log_power)

    def log_value_s(self, s: float) -> float:
        r = math.tanh(s / 2.0)
        val = math.log(self.coef) + self.r_power * math.log(r)
        val -= 2.0 * self.boundary_power * math.log(math.cosh(s / 2.0))
        if self.log_power:
            val += self.log_power * math.log(s)
        return val

    def cartesian(self, r, omr2=None):
        """Density factor per unit Cartesian volume, g(r)/r^2."""
        r = np.asarray(r, dtype=float)
        if omr2 is None:
            omr2 = (1.0 - r) * (1.0 + r)
        k = self.r_power + self.log_power - 2
        out = self.coef * np.asarray(omr2) ** self.boundary_power
        if k:
            out = out * r ** k
        if self.log_power:
            out = out * _boundary_log_over_r(r) ** self.log_power
        return out if np.ndim(out) else float(out)


_PROFILES = {
    "sld": RadialProfile(2, -0.5, 0),
    "km": RadialProfile(1, -0.5, 1),
    "mc": RadialProfile(0, -0.5, 2),
    "ld": RadialProfile(2, 0.0, 0),
    "p0": RadialProfile(2, -1.5, 0),
    "p1": RadialProfile(1, -1.0, 1),
    "p2": RadialProfile(0, -0.5, 2),
}


def _radial_norm_integral(profile: RadialProfile, R: float,
                          cfg: QuadratureConfig) -> float:
    """Integral of the bare profile over [0, R], closed form when known."""
    shape = (profile.r_power, profile.boundary_power, profile.log_power)
    omR2 = (1.0 - R) * (1.0 + R)
    if shape == (2, -0.5, 0):
        return profile.coef * 0.5 * (math.asin(R) - R * math.sqrt(omR2))
    if shape == (2, 0.0, 0):
        return profile.coef * R ** 3 / 3.0
    if shape == (2, -1.5, 0):
        if R >= 1.0:
            raise ImproperPriorError("r^2 (1-r^2)^(-3/2) diverges at R = 1")
        return profile.coef * (R / math.sqrt(omR2) - math.asin(R))
    value, _, _ = quad_s(profile.value_s, R, cfg)
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

    def radial_density(self, r, omr2=None):
        """Normalized radial density c * g(r) (angular part integrated out
        contributes the remaining 4*pi)."""
        self._check_support(r)
        return self.normalization * self.profile(r, omr2)

    def log_radial_density_s(self, s: float) -> float:
        return math.log(self.normalization) + self.profile.log_value_s(s)

    def spherical_density(self, r, theta, phi=0.0, omr2=None):
        """Joint density in (r, theta, phi); independent of phi."""
        self._check_support(r)
        val = self.normalization * self.profile(r, omr2) * np.sin(theta)
        return val * np.ones(np.shape(phi)) if np.ndim(phi) else val

    def cartesian_density(self, r, omr2=None):
        """Density per unit Cartesian volume at radius r."""
        self._check_support(r)
        return self.normalization * self.profile.cartesian(r, omr2)

    def density_at(self, pt: BlochPoint, convention: str = "spherical"):
        """Density at a point, in the requested volume convention."""
        r = pt.r
        self._check_support(r)
        if convention == "spherical":
            return self.normalization * self.profile(r) * math.sin(pt.theta)
        if convention == "cartesian":
            return self.normalization * self.profile.cartesian(r)
        raise ValueError(f"unknown convention {convention!r}")


@lru_cache(maxsize=128)
def _make_prior_cached(kind: str, R: float,
                       cfg: QuadratureConfig) -> PriorDensity:
    profile = _PROFILES[kind]
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
    if kind not in PRIOR_LABELS:
        raise ValueError(f"unknown prior label {kind!r}")
    if R is None:
        R = 1.0 if kind in ("sld", "km", "mc", "ld") else DEFAULT_TRUNCATION_RADIUS
    if not (0.0 < R <= 1.0):
        raise ValueError("support radius must lie in (0, 1]")
    if R >= 1.0 and kind in _IMPROPER_AT_UNIT:
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


def density_matrix(pt: BlochPoint) -> np.ndarray:
    """The 2x2 density matrix with Bloch vector (x, y, z)."""
    x, y, z = pt.x, pt.y, pt.z
    return 0.5 * np.array([[1.0 + z, x - 1j * y],
                           [x + 1j * y, 1.0 - z]], dtype=complex)
