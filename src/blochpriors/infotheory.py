"""Relative entropy, information gain and the noninformativity decision rule.

All divergences are in nats.  For spherically symmetric priors and
axis-aligned measurement records, every statistic reduces to a
one-dimensional radial integral:

* D(p || q) = 4*pi * Int c_p g_p log(c_p g_p / (c_q g_q)) dr;
* D(p || Posterior(q, rec)) = D(p || q) - E_p[log L] + log Z_q;
* D(Posterior(p, rec) || q)
      = (E_p[L log(p/q)] + E_p[L log L]) / Z_p - log Z_p;
* information gain D(Posterior(p) || p) = E_p[L log L] / Z_p - log Z_p,

with L the likelihood, Z the evidence and E_p[.] the prior expectation.
The angular parts of the expectations are handled by the exact tensor
rules in :mod:`measurement`.
"""

from __future__ import annotations

import enum
import json
import math
from dataclasses import dataclass
from functools import lru_cache

from .errors import OutOfSupportError, SupportMismatchError
from .measurement import (MeasurementRecord, angular_likelihood_integral,
                          angular_likelihood_log_term, evidence)
from .priors import PriorDensity, boundary_log
from .quadrature import (DEFAULT_CONFIG, QuadratureConfig, _quad,
                         crossover_root, evaluation_count, quad_s)

__all__ = [
    "NATS_TO_BITS",
    "Variant",
    "Verdict",
    "PosteriorSide",
    "ComparisonReport",
    "relative_entropy",
    "relative_entropy_vs_posterior",
    "noninformativity_verdict",
    "information_gain",
    "variance_z",
    "crossover_radius",
    "density_ratio_at",
    "bivariate_marginal",
    "conditional_x",
]

# display conversion only; nats are canonical throughout
NATS_TO_BITS = 1.0 / math.log(2.0)

# inequality deltas below this margin are treated as ties so quadrature
# noise cannot flip a verdict
VERDICT_MARGIN = 1e-6


class Variant(enum.Enum):
    PAPER = "paper"
    CLARKE = "clarke"


class Verdict(enum.Enum):
    FIRST_MORE_NONINFORMATIVE = "FirstMoreNoninformative"
    SECOND_MORE_NONINFORMATIVE = "SecondMoreNoninformative"
    INCONCLUSIVE = "Inconclusive"


class PosteriorSide(enum.Enum):
    SECOND_IS_POSTERIOR = "SecondIsPosterior"
    FIRST_IS_POSTERIOR = "FirstIsPosterior"


def _check_common_support(p: PriorDensity, q: PriorDensity,
                          force: bool = False) -> None:
    """Require equal support radii; with ``force`` allow R_p <= R_q."""
    Rp, Rq = p.support_radius, q.support_radius
    if abs(Rp - Rq) <= 1e-12:
        return
    if force and Rp < Rq:
        return
    raise SupportMismatchError(
        f"support radii differ ({Rp} vs {Rq}); the divergence would be "
        "infinite or ill-defined")


# --- radial expectation helpers ---------------------------------------------

@lru_cache(maxsize=1024)
def _relative_entropy_cached(p: PriorDensity, q: PriorDensity,
                             cfg: QuadratureConfig) -> float:
    if p == q:
        return 0.0

    def w(s):
        lp = p.log_radial_density_s(s)
        lq = q.log_radial_density_s(s)
        return math.exp(lp) * (lp - lq)

    value, _, _ = quad_s(w, p.support_radius, cfg)
    return 4.0 * math.pi * value


def relative_entropy(p: PriorDensity, q: PriorDensity,
                     cfg: QuadratureConfig = DEFAULT_CONFIG,
                     force: bool = False) -> float:
    """D(p || q) in nats for two built-in (spherically symmetric) priors."""
    _check_common_support(p, q, force)
    return _relative_entropy_cached(p, q, cfg)


@lru_cache(maxsize=1024)
def _expected_log_likelihood(p: PriorDensity, rec: MeasurementRecord,
                             cfg: QuadratureConfig) -> float:
    """E_p[log L].  By spherical symmetry every single measurement
    contributes the same expectation, computed along the polar axis."""
    total = rec.total
    if total == 0:
        return 0.0

    def w(s):
        # T(r) = Int_{-1}^{1} log((1 + r*mu)/2) dmu, written without
        # cancellation near r = 1 using 1+r = 2/(1+e^-s), 1-r = 2e^-s/(1+e^-s)
        r = math.tanh(s / 2.0)
        if r < 1e-8:
            T = -2.0 * math.log(2.0)
        else:
            log_1p = math.log(2.0) - math.log1p(math.exp(-s))
            log_1m = log_1p - s
            op = 2.0 / (1.0 + math.exp(-s))
            om = op * math.exp(-s)
            T = (op * (log_1p - 1.0) - om * (log_1m - 1.0)) / r \
                - 2.0 * math.log(2.0)
        return p.profile.value_s(s) * T

    value, _, _ = quad_s(w, p.support_radius, cfg)
    return total * 2.0 * math.pi * p.normalization * value


@lru_cache(maxsize=1024)
def _expected_likelihood_log_ratio(p: PriorDensity, q: PriorDensity,
                                   rec: MeasurementRecord,
                                   cfg: QuadratureConfig) -> float:
    """E_p[L * log(p/q)]; the log ratio is radial, the likelihood is not."""

    def w(s):
        r = math.tanh(s / 2.0)
        ratio = p.log_radial_density_s(s) - q.log_radial_density_s(s)
        return (p.profile.value_s(s)
                * angular_likelihood_integral(rec, r) * ratio)

    value, _, _ = quad_s(w, p.support_radius, cfg)
    return p.normalization * value


@lru_cache(maxsize=1024)
def _expected_likelihood_log_likelihood(p: PriorDensity,
                                        rec: MeasurementRecord,
                                        cfg: QuadratureConfig) -> float:
    """E_p[L log L] = sum over outcomes of n * E_p[L * log((1 +/- s_axis)/2)]."""
    total = 0.0
    for axis, sign, n in rec.counts:
        def w(s, axis=axis, sign=sign):
            r = math.tanh(s / 2.0)
            return (p.profile.value_s(s)
                    * angular_likelihood_log_term(rec, r, axis, sign))

        value, _, _ = quad_s(w, p.support_radius, cfg)
        total += n * p.normalization * value
    return total


def _prior_vs_posterior(d_pq: float, e_log_lik: float, Zq: float) -> float:
    """D(p || Posterior(q)) = D(p || q) - E_p[log L] + log Z_q."""
    return d_pq - e_log_lik + math.log(Zq)


def _posterior_vs_prior(num: float, Zp: float) -> float:
    """D(Posterior(p) || q) = num / Z_p - log Z_p, where num is
    E_p[L log(p/q)] + E_p[L log L] (just E_p[L log L] when q = p)."""
    return num / Zp - math.log(Zp)


def relative_entropy_vs_posterior(p: PriorDensity, q: PriorDensity,
                                  rec: MeasurementRecord,
                                  side: PosteriorSide
                                  = PosteriorSide.SECOND_IS_POSTERIOR,
                                  cfg: QuadratureConfig = DEFAULT_CONFIG,
                                  force: bool = False) -> float:
    """D(p || Posterior(q, rec)) or D(Posterior(p, rec) || q) per ``side``."""
    _check_common_support(p, q, force)
    if side is PosteriorSide.SECOND_IS_POSTERIOR:
        Zq = evidence(q, rec, cfg)
        return _prior_vs_posterior(_relative_entropy_cached(p, q, cfg),
                                   _expected_log_likelihood(p, rec, cfg), Zq)
    if side is PosteriorSide.FIRST_IS_POSTERIOR:
        Zp = evidence(p, rec, cfg)
        num = (_expected_likelihood_log_ratio(p, q, rec, cfg)
               + _expected_likelihood_log_likelihood(p, rec, cfg))
        return _posterior_vs_prior(num, Zp)
    raise ValueError(f"unknown side {side!r}")


def information_gain(p: PriorDensity, rec: MeasurementRecord,
                     cfg: QuadratureConfig = DEFAULT_CONFIG) -> float:
    """D(Posterior(p, rec) || p): what the record teaches about the state."""
    if not rec.counts:
        return 0.0
    Z = evidence(p, rec, cfg)
    return _posterior_vs_prior(_expected_likelihood_log_likelihood(p, rec, cfg),
                               Z)


# --- the decision rule -------------------------------------------------------

@dataclass(frozen=True)
class ComparisonReport:
    """The four divergence statistics and the verdict for one ordered pair."""

    pair: tuple
    record: MeasurementRecord
    variant: Variant
    d_pq: float
    d_qp: float
    d_p_post_q: float
    d_q_post_p: float
    verdict: Verdict
    rel_tol: float
    abs_tol: float
    evaluations: int

    def to_dict(self) -> dict:
        return {
            "pair": f"{self.pair[0]}/{self.pair[1]}",
            "record": self.record.to_spec_string(),
            "variant": self.variant.value,
            "d_pq": self.d_pq,
            "d_qp": self.d_qp,
            "d_p_post_q": self.d_p_post_q,
            "d_q_post_p": self.d_q_post_p,
            "verdict": self.verdict.value,
            "tolerances": {"rel_tol": self.rel_tol, "abs_tol": self.abs_tol},
            "evaluations": self.evaluations,
        }

    def to_json(self, **kw) -> str:
        return json.dumps(self.to_dict(), **kw)


def _paired_rule(rise: float, base_rise: float,
                 fall: float, base_fall: float) -> bool:
    """First prior wins when its statistic rises and the opponent's falls,
    each by more than the verdict margin."""
    return (rise > base_rise + VERDICT_MARGIN
            and fall < base_fall - VERDICT_MARGIN)


def noninformativity_verdict(p: PriorDensity, q: PriorDensity,
                             rec: MeasurementRecord,
                             variant: Variant = Variant.PAPER,
                             cfg: QuadratureConfig = DEFAULT_CONFIG,
                             force: bool = False) -> ComparisonReport:
    """Decide which prior is more noninformative from four divergences.

    The first prior is more noninformative when conditioning the *other*
    prior on the record moves it further away (D(p || Post_q) rises above
    D(p || q)) while conditioning the first moves it closer
    (D(q || Post_p) falls below D(q || p)).  The Clarke-strict variant puts
    the posterior on the other side of each divergence instead.
    """
    _check_common_support(p, q, force)
    before = evaluation_count()
    d_pq = relative_entropy(p, q, cfg, force=force)
    d_qp = relative_entropy(q, p, cfg, force=force)
    if variant is Variant.PAPER:
        d_p_post_q = relative_entropy_vs_posterior(
            p, q, rec, PosteriorSide.SECOND_IS_POSTERIOR, cfg, force=force)
        d_q_post_p = relative_entropy_vs_posterior(
            q, p, rec, PosteriorSide.SECOND_IS_POSTERIOR, cfg, force=force)
        first = _paired_rule(d_p_post_q, d_pq, d_q_post_p, d_qp)
        second = _paired_rule(d_q_post_p, d_qp, d_p_post_q, d_pq)
    elif variant is Variant.CLARKE:
        d_p_post_q = relative_entropy_vs_posterior(
            p, q, rec, PosteriorSide.FIRST_IS_POSTERIOR, cfg, force=force)
        d_q_post_p = relative_entropy_vs_posterior(
            q, p, rec, PosteriorSide.FIRST_IS_POSTERIOR, cfg, force=force)
        # conditioning q appears in D(Post(q) || p) here, so the
        # rise/fall pattern attaches to the opposite statistics
        first = _paired_rule(d_q_post_p, d_qp, d_p_post_q, d_pq)
        second = _paired_rule(d_p_post_q, d_pq, d_q_post_p, d_qp)
    else:
        raise ValueError(f"unknown variant {variant!r}")

    if first and not second:
        verdict = Verdict.FIRST_MORE_NONINFORMATIVE
    elif second and not first:
        verdict = Verdict.SECOND_MORE_NONINFORMATIVE
    else:
        verdict = Verdict.INCONCLUSIVE
    return ComparisonReport(
        pair=(p.name, q.name), record=rec, variant=variant,
        d_pq=d_pq, d_qp=d_qp, d_p_post_q=d_p_post_q, d_q_post_p=d_q_post_p,
        verdict=verdict, rel_tol=cfg.rel_tol, abs_tol=cfg.abs_tol,
        evaluations=evaluation_count() - before)


# --- moment, crossover and marginal statistics -------------------------------

def variance_z(p: PriorDensity, cfg: QuadratureConfig = DEFAULT_CONFIG) -> float:
    """Second moment of the polar Cartesian component (its mean is zero)."""

    def w(s):
        r = math.tanh(s / 2.0)
        return p.profile.value_s(s) * r * r

    value, _, _ = quad_s(w, p.support_radius, cfg)
    return (4.0 * math.pi / 3.0) * p.normalization * value


def crossover_radius(p: PriorDensity, q: PriorDensity,
                     bracket: tuple = (0.5, None)) -> float:
    """Radius where the two normalized radial densities are equal."""
    lo, hi = bracket
    if hi is None:
        hi = min(p.support_radius, q.support_radius) * (1.0 - 1e-9)

    def h(r):
        s = boundary_log(r)
        return p.log_radial_density_s(s) - q.log_radial_density_s(s)

    return crossover_root(h, lo, hi)


def density_ratio_at(p: PriorDensity, q: PriorDensity, r: float) -> float:
    """Ratio of the normalized radial densities at radius ``r``."""
    p._check_support(r)
    q._check_support(r)
    if r <= 0.0 or q.radial_density(r) == 0.0:
        if r > 0.0 or q.profile.r_power + q.profile.log_power > 0:
            raise ZeroDivisionError("denominator density vanishes at r")
    s = boundary_log(r)
    return math.exp(p.log_radial_density_s(s) - q.log_radial_density_s(s))


def bivariate_marginal(p: PriorDensity, x: float, y: float,
                       cfg: QuadratureConfig = DEFAULT_CONFIG) -> float:
    """Density of (x, y) after integrating the Cartesian density over z.

    The substitution z = z0*sin(u) with z0 = sqrt(R^2 - x^2 - y^2) removes
    the boundary singularity: 1 - r^2 = (1 - R^2) + z0^2 cos(u)^2 exactly.
    """
    R = p.support_radius
    s2 = x * x + y * y
    if s2 >= R * R:
        raise OutOfSupportError("(x, y) lies outside the support disk")
    z0 = math.sqrt(R * R - s2)
    omR2 = (1.0 - R) * (1.0 + R)

    def f(u):
        cu = math.cos(u)
        omr2 = omR2 + z0 * z0 * cu * cu
        r = math.sqrt(1.0 - omr2)
        return p.profile.cartesian(r, omr2=omr2) * z0 * cu

    value, _, _ = _quad(f, -math.pi / 2.0, math.pi / 2.0, cfg)
    return p.normalization * value


def conditional_x(p: PriorDensity, x: float) -> float:
    """Arc-sine conditional density of x at y = 0 for the n = 0 truncated
    family member, from the closed form of its bivariate marginal."""
    if p.name != "p0":
        raise ValueError(
            "the arc-sine conditional is derived only for the 'p0' prior")
    if not -1.0 < x < 1.0:
        raise OutOfSupportError("|x| must be below 1")
    return 1.0 / (math.pi * math.sqrt((1.0 - x) * (1.0 + x)))
