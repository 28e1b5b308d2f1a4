"""Relative entropy, information gain and the noninformativity decision rule.

All divergences are in nats.  For spherically symmetric priors and
axis-aligned measurement records, every statistic reduces to a
one-dimensional radial integral:

* D(p || q) = 4*pi * Int c_p g_p log(c_p g_p / (c_q g_q)) dr;
* D(p || Posterior(q, rec)) = D(p || q) - E_p[log L] + log Z_q;
* D(Posterior(p, rec) || q)
      = (E_p[L log(p/q)] + E_p[L log L]) / Z_p - log Z_p;
* information gain D(Posterior(p) || p), the case q = p of the line above,

with L the likelihood, Z the evidence and E_p[.] the prior expectation.
Each expectation is one call of ``PriorDensity.integrate``, the only
radial integrator, given the integral over the sphere at each radius.  The
angular parts come from :mod:`measurement`, by rules sized to the record:
the sphere integral of L is exact for every record, and that of
L log((1 +/- s_axis)/2), summed into E_p[L log L], is good to ~1e-12
relative.
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
                         crossover_root, evaluation_count)
# bound, unused, for perfbench's test_tracer_restores_names_and_reports_absent
from .quadrature import quad_s  # noqa: F401

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


def _check_common_support(p: PriorDensity, q: PriorDensity) -> None:
    """Require equal support radii."""
    Rp, Rq = p.support_radius, q.support_radius
    if abs(Rp - Rq) > 1e-12:
        raise SupportMismatchError(
            f"support radii differ ({Rp} vs {Rq}); the divergence would be "
            "infinite or ill-defined")


# --- radial expectation helpers ---------------------------------------------

@lru_cache(maxsize=1024)
def _relative_entropy_cached(p: PriorDensity, q: PriorDensity,
                             cfg: QuadratureConfig) -> float:
    if p == q:
        return 0.0
    return 4.0 * math.pi * p.integrate(
        lambda r, s: p.log_radial_density_s(s) - q.log_radial_density_s(s),
        cfg)


def relative_entropy(p: PriorDensity, q: PriorDensity,
                     cfg: QuadratureConfig = DEFAULT_CONFIG) -> float:
    """D(p || q) in nats for two built-in (spherically symmetric) priors."""
    _check_common_support(p, q)
    return _relative_entropy_cached(p, q, cfg)


def _polar_log_term(r: float, s: float) -> float:
    """T(r) = Int_{-1}^{1} log((1 + r*mu)/2) dmu, written without
    cancellation near r = 1 using 1+r = 2/(1+e^-s), 1-r = 2e^-s/(1+e^-s)."""
    if r < 1e-8:
        return -2.0 * math.log(2.0)
    log_1p = math.log(2.0) - math.log1p(math.exp(-s))
    log_1m = log_1p - s
    op = 2.0 / (1.0 + math.exp(-s))
    om = op * math.exp(-s)
    return (op * (log_1p - 1.0) - om * (log_1m - 1.0)) / r \
        - 2.0 * math.log(2.0)


@lru_cache(maxsize=64)
def _log_likelihood_per_count(p: PriorDensity,
                              cfg: QuadratureConfig) -> float:
    """E_p[log L] of a single measurement, 2*pi E_p[T(r)] along the polar
    axis.  By spherical symmetry every outcome contributes the same, so a
    record's E_p[log L] is its total times this."""
    return 2.0 * math.pi * p.integrate(_polar_log_term, cfg)


@lru_cache(maxsize=1024)
def _expected_log_likelihood(p: PriorDensity, rec: MeasurementRecord,
                             cfg: QuadratureConfig) -> float:
    """E_p[log L], the record's total times the per-count expectation."""
    if not rec.total:
        return 0.0
    return rec.total * _log_likelihood_per_count(p, cfg)


@lru_cache(maxsize=1024)
def _expected_likelihood_log_ratio(p: PriorDensity, q: PriorDensity,
                                   rec: MeasurementRecord,
                                   cfg: QuadratureConfig) -> float:
    """E_p[L * log(p/q)]; the log ratio is radial, the likelihood is not."""
    if p == q:
        return 0.0
    return p.integrate(
        lambda r, s: angular_likelihood_integral(rec, r)
        * (p.log_radial_density_s(s) - q.log_radial_density_s(s)), cfg)


@lru_cache(maxsize=1024)
def _expected_likelihood_log_likelihood(p: PriorDensity,
                                        rec: MeasurementRecord,
                                        cfg: QuadratureConfig) -> float:
    """E_p[L log L] = sum over outcomes of n * E_p[L * log((1 +/- s_axis)/2)]."""
    return sum(n * p.integrate(
        lambda r, s, axis=axis, sign=sign: angular_likelihood_log_term(
            rec, r, axis, sign), cfg) for axis, sign, n in rec.outcomes())


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
                                  cfg: QuadratureConfig = DEFAULT_CONFIG
                                  ) -> float:
    """D(p || Posterior(q, rec)) or D(Posterior(p, rec) || q) per ``side``."""
    _check_common_support(p, q)
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
    return relative_entropy_vs_posterior(
        p, p, rec, PosteriorSide.FIRST_IS_POSTERIOR, cfg)


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


# the posterior side of both of a variant's posterior statistics
_VARIANT_SIDE = {Variant.PAPER: PosteriorSide.SECOND_IS_POSTERIOR,
                 Variant.CLARKE: PosteriorSide.FIRST_IS_POSTERIOR}


def noninformativity_verdict(p: PriorDensity, q: PriorDensity,
                             rec: MeasurementRecord,
                             variant: Variant = Variant.PAPER,
                             cfg: QuadratureConfig = DEFAULT_CONFIG
                             ) -> ComparisonReport:
    """Decide which prior is more noninformative from four divergences.

    The first prior is more noninformative when conditioning the *other*
    prior on the record moves it further away (D(p || Post_q) rises above
    D(p || q)) while conditioning the first moves it closer
    (D(q || Post_p) falls below D(q || p)).  The Clarke-strict variant puts
    the posterior on the other side of each divergence instead.
    """
    if variant not in _VARIANT_SIDE:
        raise ValueError(f"unknown variant {variant!r}")
    side = _VARIANT_SIDE[variant]
    before = evaluation_count()
    d_pq = relative_entropy(p, q, cfg)
    d_qp = relative_entropy(q, p, cfg)
    d_p_post_q = relative_entropy_vs_posterior(p, q, rec, side, cfg)
    d_q_post_p = relative_entropy_vs_posterior(q, p, rec, side, cfg)
    p_rule = (d_p_post_q, d_pq, d_q_post_p, d_qp)
    q_rule = (d_q_post_p, d_qp, d_p_post_q, d_pq)
    if variant is Variant.CLARKE:
        # conditioning q appears in D(Post(q) || p) here, so the
        # rise/fall pattern attaches to the opposite statistics
        p_rule, q_rule = q_rule, p_rule
    first, second = _paired_rule(*p_rule), _paired_rule(*q_rule)
    verdict = (Verdict.INCONCLUSIVE if first == second
               else Verdict.FIRST_MORE_NONINFORMATIVE if first
               else Verdict.SECOND_MORE_NONINFORMATIVE)
    return ComparisonReport(
        pair=(p.name, q.name), record=rec, variant=variant,
        d_pq=d_pq, d_qp=d_qp, d_p_post_q=d_p_post_q, d_q_post_p=d_q_post_p,
        verdict=verdict, rel_tol=cfg.rel_tol, abs_tol=cfg.abs_tol,
        evaluations=evaluation_count() - before)


# --- moment, crossover and marginal statistics -------------------------------

def variance_z(p: PriorDensity, cfg: QuadratureConfig = DEFAULT_CONFIG) -> float:
    """Second moment of the polar Cartesian component (its mean is zero)."""
    return (4.0 * math.pi / 3.0) * p.integrate(lambda r, s: r * r, cfg)


def crossover_radius(p: PriorDensity, q: PriorDensity) -> float:
    """Radius where the two normalized radial densities are equal, searched
    on [0.5, (1 - 1e-9) * R] with R the smaller support radius."""
    def h(r):
        s = boundary_log(r)
        return p.log_radial_density_s(s) - q.log_radial_density_s(s)

    return crossover_root(
        h, 0.5, min(p.support_radius, q.support_radius) * (1.0 - 1e-9))


def density_ratio_at(p: PriorDensity, q: PriorDensity, r: float) -> float:
    """Ratio of the normalized radial densities at radius ``r`` in [0, 1),
    taken as the ratio of their c * g(r)/r^2, which is finite at r = 0."""
    if not 0.0 <= r < 1.0:
        raise OutOfSupportError(f"density ratio needs 0 <= r < 1, got {r}")
    p._check_support(r)
    q._check_support(r)
    return ((p.normalization * p.profile.cartesian(r))
            / (q.normalization * q.profile.cartesian(r)))


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
