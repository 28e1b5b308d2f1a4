"""Spin measurement records, likelihoods and Bayesian posteriors.

A record is its six outcome counts (X+, X-, Y+, Y-, Z+, Z-): every
statistic depends on it only through them.  The likelihood of a record at a
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
from .quadrature import DEFAULT_CONFIG, QuadratureConfig, _gauss
# bound, unused, for perfbench's test_tracer_restores_names_and_reports_absent
from .quadrature import quad_s  # noqa: F401

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
# the order of a record's counts
_OUTCOMES = tuple((a, s) for a in AXES for s in "+-")

# size of the fixed direction grid of _direction_grid
_N_MU, _N_PHI = 48, 96

# Gauss-Legendre nodes the log term adds to the record's own floor(N/2): they
# resolve its t^(2n+1) log t endpoint to ~2e-13 relative at n = 1, the
# slowest case (48 extra nodes leave up to 4.5e-12 there)
_LOG_EXTRA_NODES = 80


def _axis_factor(v, up: int, down: int):
    """((1 + v)/2)^up * ((1 - v)/2)^down, with no factor for a zero count."""
    if not down:
        return ((1.0 + v) / 2.0) ** up if up else 1.0
    out = ((1.0 - v) / 2.0) ** down
    return ((1.0 + v) / 2.0) ** up * out if up else out


@dataclass(frozen=True)
class MeasurementRecord:
    """Immutable outcome counts (X+, X-, Y+, Y-, Z+, Z-).

    Equal counts make equal records, with equal hashes, however they were
    built; ``MeasurementRecord()`` is the empty record.
    """

    counts: tuple = (0,) * 6

    def __post_init__(self):
        if not (type(self.counts) is tuple and len(self.counts) == 6
                and all(type(n) is int and n >= 0 for n in self.counts)):
            raise ValueError("counts must be a tuple of six nonnegative "
                             f"integers, got {self.counts!r}")

    @classmethod
    def from_counts(cls, mapping) -> "MeasurementRecord":
        """A record from a {(axis, sign): n} mapping; absent outcomes are 0."""
        counts = [0] * 6
        for outcome, n in mapping.items():
            if outcome not in _OUTCOMES:
                raise ValueError(f"bad axis/sign {outcome!r}")
            if n != int(n):
                raise ValueError(f"count {n!r} is not an integer")
            counts[_OUTCOMES.index(outcome)] = int(n)
        return cls(tuple(counts))

    def count(self, axis: str, sign: str) -> int:
        return self.counts[_OUTCOMES.index((axis, sign))]

    def pair(self, axis: str) -> tuple:
        """The (up, down) counts along ``axis``."""
        i = 2 * AXES.index(axis)
        return self.counts[i:i + 2]

    def outcomes(self) -> tuple:
        """The (axis, sign, n) triples with n > 0, in the order of counts."""
        return tuple((a, s, n) for (a, s), n in zip(_OUTCOMES, self.counts) if n)

    @property
    def total(self) -> int:
        return sum(self.counts)

    def repeat(self, k: int) -> "MeasurementRecord":
        if k < 1:
            raise ValueError("repetition factor must be >= 1")
        return MeasurementRecord(tuple(n * k for n in self.counts))

    def __add__(self, other: "MeasurementRecord") -> "MeasurementRecord":
        return MeasurementRecord(
            tuple(m + n for m, n in zip(self.counts, other.counts)))

    def to_spec_string(self) -> str:
        return ",".join(f"{a}{s}:{n}" for a, s, n in self.outcomes()) \
            or "(empty)"

    def likelihood_xyz(self, x, y, z):
        out = np.ones(np.broadcast(x, y, z).shape)
        for v, axis in zip((x, y, z), AXES):
            out = out * _axis_factor(v, *self.pair(axis))
        return out


def balanced_six(k: int = 1) -> MeasurementRecord:
    """k ups and k downs along each of the three axes (6k measurements)."""
    return MeasurementRecord((k,) * 6)


_TOKEN = re.compile(r"^([XYZ])([+-]):(\d+)$")


def parse_record(text: str) -> MeasurementRecord:
    """Parse 'X+:1,X-:1,...' or the aliases 'balanced6' / 'balanced6^k'."""
    text = text.strip()
    if not text or text == "(empty)":
        return MeasurementRecord()
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

# no caller since search ranks on the kernels below; perfbench traces its cache
@lru_cache(maxsize=1)
def _direction_grid():
    mu, w_mu = np.polynomial.legendre.leggauss(_N_MU)
    phi = np.arange(_N_PHI) * (2.0 * math.pi / _N_PHI)
    w_phi = 2.0 * math.pi / _N_PHI
    mu_col = mu[:, None]
    sin_t = np.sqrt(1.0 - mu_col ** 2)
    dirs = {
        "X": sin_t * np.cos(phi[None, :]),
        "Y": sin_t * np.sin(phi[None, :]),
        "Z": mu_col * np.ones((1, _N_PHI)),
    }
    weights = w_mu[:, None] * w_phi
    return dirs, weights


# the axes that play X, Y and Z once ``axis`` and Z are exchanged; exchanging
# two axes is a rotation, so it leaves every average over the sphere unchanged
_ONTO_Z = {"X": "ZYX", "Y": "XZY", "Z": "XYZ"}


def _phi_integral(a: tuple, b: tuple, rho):
    """Integral over phi of the in-plane factors at in-plane radii ``rho``,
    an array of any shape: (up, down) pair ``a`` along cos(phi), ``b`` along
    sin(phi).

    Those factors form a trigonometric polynomial in phi of degree N_xy, the
    in-plane count, so N_xy + 1 equispaced nodes integrate them exactly.
    """
    m = 1 + sum(a) + sum(b)
    phi = np.arange(m) * (2.0 * math.pi / m)
    vals = np.ones(rho.shape + (m,))
    for pair, comp in ((a, np.cos), (b, np.sin)):
        if any(pair):
            vals *= _axis_factor(rho[..., None] * comp(phi), *pair)
    return vals.sum(axis=-1) * (2.0 * math.pi / m)


def _radii(r):
    """A 1-D array of radii as a column against the mu nodes.  A scalar stays
    a scalar, so that a scalar call keeps to 1-D arrays."""
    return r[:, None] if getattr(r, "ndim", 0) else r


def _result(values):
    """A Python float from a scalar call, the array from an array call."""
    return float(values) if values.ndim == 0 else values


def angular_likelihood_integral(rec: MeasurementRecord, r):
    """Integral over d(mu) d(phi) of the likelihood at fixed radius.

    ``r`` is a scalar, giving a float, or a 1-D array of radii, giving an
    array.  Exact to roundoff for every record.  The axis with the most
    counts is turned onto the polar axis and the phi integral is taken
    exactly (see :func:`_phi_integral`); what remains is a polynomial of
    degree N, the record total, in mu, which floor(N/2) + 1 Gauss-Legendre
    nodes integrate exactly.
    """
    a, b, polar = map(rec.pair, _ONTO_Z[
        max(AXES, key=lambda axis: sum(rec.pair(axis)))])
    mu, w = _gauss(rec.total // 2 + 1)
    r = _radii(r)
    lik = _phi_integral(a, b, r * np.sqrt((1.0 - mu) * (1.0 + mu)))
    return _result((lik * _axis_factor(r * mu, *polar)) @ w)


def angular_likelihood_log_term(rec: MeasurementRecord, r,
                                axis: str, sign: str):
    """Integral over d(mu) d(phi) of likelihood * log((1 + sign*s_axis)/2).

    ``r`` is a scalar or a 1-D array of radii, as in
    :func:`angular_likelihood_integral`.  ``axis`` is turned onto the polar
    axis and the phi integral is taken exactly, as there.  In mu the
    substitution (1 + sign*mu)/2 = t^2 turns the log's endpoint into a
    t^(2n+1) log t factor, n >= 1 being the count of the outcome when the
    record holds it.  Gauss-Legendre in t on [0, 1] with floor(N/2) + 80
    nodes then matches a 30-digit oracle to ~1e-12 relative, at every r up
    to 1, on records of up to 300 counts.
    """
    a, b, (up, down) = map(rec.pair, _ONTO_Z[axis])
    x, w = _gauss(rec.total // 2 + _LOG_EXTRA_NODES)
    r = _radii(r)
    t = 0.5 * (1.0 + x)
    omt2 = 0.25 * (1.0 - x) * (3.0 + x)             # 1 - t^2
    # (1 + sign*r*mu)/2 and (1 - sign*r*mu)/2, with sign*mu = 2t^2 - 1
    near = 0.5 * (1.0 - r) + r * t * t
    far = 0.5 * (1.0 - r) + r * omt2
    lik = _phi_integral(a, b, 2.0 * r * t * np.sqrt(omt2))  # r sin(theta)
    plus, minus = (near, far) if sign == "+" else (far, near)
    if up:
        lik = lik * plus ** up
    if down:
        lik = lik * minus ** down
    # d(mu) = 4t dt, and w/2 are the Gauss weights on [0, 1]
    return _result((lik * np.log(near)) @ (2.0 * w * t))


# --- posteriors ------------------------------------------------------------

@lru_cache(maxsize=512)
def _evidence_cached(prior: PriorDensity, rec: MeasurementRecord,
                     cfg: QuadratureConfig) -> float:
    if not rec.total:
        return 1.0
    return prior.integrate(lambda r, s: angular_likelihood_integral(rec, r),
                           cfg)


def evidence(prior: PriorDensity, rec: MeasurementRecord,
             cfg: QuadratureConfig = DEFAULT_CONFIG) -> float:
    """Integral of prior times likelihood over the prior's support.

    Raises :class:`ZeroEvidenceError` below 1e-300, where the evidence has
    underflowed, so that no statistic divides by it or takes its log.
    """
    Z = _evidence_cached(prior, rec, cfg)
    if Z < 1e-300:
        raise ZeroEvidenceError("likelihood annihilates the prior")
    return Z


@dataclass(frozen=True)
class PosteriorDensity:
    """prior * likelihood / evidence, evaluated lazily."""

    prior: PriorDensity
    record: MeasurementRecord
    evidence: float

    @property
    def support_radius(self) -> float:
        return self.prior.support_radius

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
    return PosteriorDensity(base, combined, evidence(base, combined, cfg))
