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
from .quadrature import DEFAULT_CONFIG, QuadratureConfig, _gauss, quad_s

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

# size of the fixed direction grid of _direction_grid
_N_MU, _N_PHI = 48, 96

# Gauss-Legendre nodes the log term adds to the record's own floor(N/2): they
# resolve its t^(2n+1) log t endpoint to ~2e-13 relative at n = 1, the
# slowest case (48 extra nodes leave up to 4.5e-12 there)
_LOG_EXTRA_NODES = 80


def _outcome_factor(v, sign: str, n: int):
    """((1 + v)/2)^n for a '+' outcome, ((1 - v)/2)^n for a '-' one."""
    return ((1.0 + v) / 2.0 if sign == "+" else (1.0 - v) / 2.0) ** n


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
            out = out * _outcome_factor(comp[a], s, n)
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


def _swap_onto_z(rec: MeasurementRecord, axis: str) -> dict:
    """The record's counts, {(axis, sign): n}, with ``axis`` and Z exchanged.

    Exchanging two axes is a rotation, so it leaves every average over the
    sphere unchanged.
    """
    swap = {axis: "Z", "Z": axis}
    return {(swap.get(a, a), s): n for a, s, n in rec.counts}


def _phi_integral(counts: dict, rho):
    """Integral over phi of the X and Y factors at in-plane radii ``rho``,
    an array of any shape.

    Those factors form a trigonometric polynomial in phi of degree N_xy, the
    X and Y count, so N_xy + 1 equispaced nodes integrate them exactly.
    """
    m = 1 + sum(n for (a, _), n in counts.items() if a != "Z")
    phi = np.arange(m) * (2.0 * math.pi / m)
    comp = {"X": np.cos(phi), "Y": np.sin(phi)}
    vals = np.ones(rho.shape + (m,))
    for (a, s), n in counts.items():
        if a != "Z":
            vals *= _outcome_factor(rho[..., None] * comp[a], s, n)
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
    counts = _swap_onto_z(rec, max(
        AXES, key=lambda a: rec.count(a, "+") + rec.count(a, "-")))
    mu, w = _gauss(rec.total // 2 + 1)
    r = _radii(r)
    lik = _phi_integral(counts, r * np.sqrt((1.0 - mu) * (1.0 + mu)))
    for (a, s), n in counts.items():
        if a == "Z":
            lik = lik * _outcome_factor(r * mu, s, n)
    return _result(lik @ w)


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
    counts = _swap_onto_z(rec, axis)
    x, w = _gauss(rec.total // 2 + _LOG_EXTRA_NODES)
    r = _radii(r)
    t = 0.5 * (1.0 + x)
    omt2 = 0.25 * (1.0 - x) * (3.0 + x)             # 1 - t^2
    # (1 + sign*r*mu)/2 and (1 - sign*r*mu)/2, with sign*mu = 2t^2 - 1
    near = 0.5 * (1.0 - r) + r * t * t
    far = 0.5 * (1.0 - r) + r * omt2
    lik = _phi_integral(counts, 2.0 * r * t * np.sqrt(omt2))  # r sin(theta)
    for (a, s), n in counts.items():
        if a == "Z":
            lik = lik * (near if s == sign else far) ** n
    # d(mu) = 4t dt, and w/2 are the Gauss weights on [0, 1]
    return _result((lik * np.log(near)) @ (2.0 * w * t))


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
