"""Spin measurement records, likelihoods and Bayesian posteriors.

A record stores up/down counts per axis.  The likelihood of a record at a
Bloch point is the product over axes of ((1+s)/2)^up * ((1-s)/2)^down with
s the corresponding Cartesian component.  Repeating a record k times and
raising the likelihood to the k-th power are the same operation.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import ZeroEvidenceError
from .priors import BlochPoint, PriorDensity
from .quadrature import DEFAULT_CONFIG, QuadratureConfig, quad_s

__all__ = [
    "AXES",
    "MeasurementRecord",
    "balanced_six",
    "parse_record",
    "likelihood",
    "PosteriorDensity",
    "posterior",
    "evidence",
]

AXES = ("X", "Y", "Z")
_SIGNS = ("+", "-")

# fixed angular grid used to average likelihoods over directions; exact for
# polynomial likelihoods up to total count 95
_N_MU, _N_PHI = 48, 96

# log-weighted averages are not polynomial and converge slowly in the Gauss
# order when the radius is near 1; 400 nodes reach ~1e-11 relative error
_N_MU_LOG = 400


@dataclass(frozen=True)
class MeasurementRecord:
    """Immutable up/down counts per measurement axis."""

    counts: tuple  # ((axis, sign, n), ...) canonical, zero entries dropped

    @classmethod
    def from_counts(cls, mapping) -> "MeasurementRecord":
        items = []
        for (axis, sign), n in mapping.items():
            if axis not in AXES or sign not in _SIGNS:
                raise ValueError(f"bad axis/sign {(axis, sign)!r}")
            n = int(n)
            if n < 0:
                raise ValueError("counts must be nonnegative")
            if n:
                items.append((axis, sign, n))
        return cls(tuple(sorted(items)))

    def count(self, axis: str, sign: str) -> int:
        for a, s, n in self.counts:
            if a == axis and s == sign:
                return n
        return 0

    @property
    def total(self) -> int:
        return sum(n for _, _, n in self.counts)

    def repeat(self, k: int) -> "MeasurementRecord":
        if k < 1:
            raise ValueError("repetition factor must be >= 1")
        return MeasurementRecord(tuple((a, s, n * k) for a, s, n in self.counts))

    def __add__(self, other: "MeasurementRecord") -> "MeasurementRecord":
        merged = {}
        for a, s, n in self.counts + other.counts:
            merged[(a, s)] = merged.get((a, s), 0) + n
        return MeasurementRecord.from_counts(merged)

    def to_spec_string(self) -> str:
        return ",".join(f"{a}{s}:{n}" for a, s, n in self.counts) or "(empty)"

    def likelihood_xyz(self, x, y, z):
        comp = {"X": x, "Y": y, "Z": z}
        out = np.ones(np.broadcast(x, y, z).shape)
        for a, s, n in self.counts:
            v = comp[a]
            base = (1.0 + v) / 2.0 if s == "+" else (1.0 - v) / 2.0
            out = out * base ** n
        return out


def balanced_six(k: int = 1) -> MeasurementRecord:
    """k ups and k downs along each of the three axes (6k measurements)."""
    return MeasurementRecord.from_counts(
        {(a, s): k for a in AXES for s in _SIGNS})


_TOKEN = re.compile(r"^([XYZ])([+-]):(\d+)$")


def parse_record(text: str) -> MeasurementRecord:
    """Parse 'X+:1,X-:1,...' or the aliases 'balanced6' / 'balanced6^k'."""
    text = text.strip()
    if not text or text == "(empty)":
        return MeasurementRecord(())
    if text.startswith("balanced6"):
        rest = text[len("balanced6"):]
        if rest == "":
            return balanced_six()
        if rest.startswith("^") and rest[1:].isdigit() and int(rest[1:]) >= 1:
            return balanced_six(int(rest[1:]))
        raise ValueError(f"malformed record alias {text!r}")
    counts = {}
    for token in text.split(","):
        m = _TOKEN.match(token.strip())
        if not m:
            raise ValueError(f"malformed record token {token!r}")
        axis, sign, n = m.group(1), m.group(2), int(m.group(3))
        if n < 1:
            raise ValueError(f"count must be positive in {token!r}")
        counts[(axis, sign)] = counts.get((axis, sign), 0) + n
    return MeasurementRecord.from_counts(counts)


def likelihood(rec: MeasurementRecord, pt: BlochPoint) -> float:
    """Probability of the recorded outcomes for the state at ``pt``."""
    return float(rec.likelihood_xyz(pt.x, pt.y, pt.z))


# --- angular averaging -----------------------------------------------------

@lru_cache(maxsize=4)
def _direction_grid(n_mu: int = _N_MU, n_phi: int = _N_PHI):
    mu, w_mu = np.polynomial.legendre.leggauss(n_mu)
    phi = np.arange(n_phi) * (2.0 * math.pi / n_phi)
    w_phi = 2.0 * math.pi / n_phi
    mu_col = mu[:, None]
    sin_t = np.sqrt(1.0 - mu_col ** 2)
    dirs = {
        "X": sin_t * np.cos(phi[None, :]),
        "Y": sin_t * np.sin(phi[None, :]),
        "Z": mu_col * np.ones((1, n_phi)),
    }
    weights = w_mu[:, None] * w_phi
    return dirs, weights, mu_col


def angular_likelihood_integral(rec: MeasurementRecord, r: float) -> float:
    """Integral over d(mu) d(phi) of the likelihood at fixed radius.

    Exact (to roundoff) because the likelihood is a polynomial in the
    direction components and the tensor rule's degree exceeds any record
    this package handles.
    """
    dirs, weights, _ = _direction_grid()
    lik = np.ones_like(weights)
    for a, s, n in rec.counts:
        v = r * dirs[a]
        base = (1.0 + v) / 2.0 if s == "+" else (1.0 - v) / 2.0
        lik = lik * base ** n
    return float((weights * lik).sum())


def angular_likelihood_log_term(rec: MeasurementRecord, r: float,
                                axis: str, sign: str) -> float:
    """Integral over d(mu) d(phi) of likelihood * log((1 + sign*s_axis)/2).

    The log factor is aligned with the polar axis by permuting the record's
    axes, which is a rotation and leaves the (spherically symmetric) radial
    weight untouched.
    """
    dirs, weights, mu_col = _direction_grid(_N_MU_LOG, _N_PHI)
    swapped = {}
    for a, s, n in rec.counts:
        b = {axis: "Z", "Z": axis}.get(a, a)
        swapped[(b, s)] = swapped.get((b, s), 0) + n
    lik = np.ones_like(weights)
    for (a, s), n in swapped.items():
        v = r * dirs[a]
        base = (1.0 + v) / 2.0 if s == "+" else (1.0 - v) / 2.0
        lik = lik * base ** n
    sgn = 1.0 if sign == "+" else -1.0
    log_term = np.log1p(sgn * r * mu_col) - math.log(2.0)
    return float((weights * lik * log_term).sum())


# --- posteriors ------------------------------------------------------------

@lru_cache(maxsize=512)
def _evidence_cached(prior: PriorDensity, rec: MeasurementRecord,
                     cfg: QuadratureConfig) -> float:
    if not rec.counts:
        return 1.0
    def w(s):
        r = math.tanh(s / 2.0)
        return prior.profile.value_s(s) * angular_likelihood_integral(rec, r)
    value, _, _ = quad_s(w, prior.support_radius, cfg)
    return prior.normalization * value


def evidence(prior: PriorDensity, rec: MeasurementRecord,
             cfg: QuadratureConfig = DEFAULT_CONFIG) -> float:
    """Integral of prior times likelihood over the prior's support."""
    return _evidence_cached(prior, rec, cfg)


@dataclass(frozen=True)
class PosteriorDensity:
    """prior * likelihood / evidence, evaluated lazily."""

    prior: PriorDensity
    record: MeasurementRecord
    evidence: float

    @property
    def support_radius(self) -> float:
        return self.prior.support_radius

    def spherical_density(self, r, theta, phi, omr2=None):
        base = self.prior.spherical_density(r, theta, phi, omr2)
        st = np.sin(theta)
        x = r * st * np.cos(phi)
        y = r * st * np.sin(phi)
        z = r * np.cos(theta) * np.ones(np.shape(phi))
        return base * self.record.likelihood_xyz(x, y, z) / self.evidence

    def density_at(self, pt: BlochPoint, convention: str = "spherical"):
        lik = self.record.likelihood_xyz(pt.x, pt.y, pt.z)
        return self.prior.density_at(pt, convention) * float(lik) / self.evidence


def posterior(prior, rec: MeasurementRecord,
              cfg: QuadratureConfig = DEFAULT_CONFIG) -> PosteriorDensity:
    """Bayes update of a prior (or of an earlier posterior) by a record.

    Updating a posterior merges the records, so chained updates coincide
    exactly with a single update by the combined record.
    """
    if isinstance(prior, PosteriorDensity):
        base, combined = prior.prior, prior.record + rec
    else:
        base, combined = prior, rec
    Z = evidence(base, combined, cfg)
    if Z < 1e-300:
        raise ZeroEvidenceError("likelihood annihilates the prior")
    return PosteriorDensity(base, combined, Z)
