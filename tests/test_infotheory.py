"""Divergences, verdicts, moments, crossovers and marginals."""

import math

import numpy as np
import pytest
from scipy.integrate import quad

from blochpriors import (DEFAULT_TRUNCATION_RADIUS, PosteriorSide, Variant,
                         Verdict, balanced_six, bivariate_marginal,
                         conditional_x, crossover_radius, density_ratio_at,
                         information_gain, make_prior, MeasurementRecord,
                         noninformativity_verdict, parse_record,
                         relative_entropy, relative_entropy_vs_posterior,
                         search_min_record)
from blochpriors.errors import (OutOfSupportError, SupportMismatchError,
                               ZeroEvidenceError)
from oracles import direct_divergence, truncated_balanced6
from oracles import radial_density as oracle_radial_density

R10 = DEFAULT_TRUNCATION_RADIUS
FULL = ("sld", "km", "mc", "ld")
TRUNC = ("p0", "p1", "p2")
B6 = balanced_six()


def _p(kind):
    return make_prior(kind)


SHARED_PAIRS = ([(a, b) for a in FULL for b in FULL if a != b]
                + [(a, b) for a in TRUNC for b in TRUNC if a != b])


# --- relative entropy ---------------------------------------------------------

@pytest.mark.parametrize("a,b,want", [
    ("sld", "km", 0.0891523), ("km", "sld", 0.0975976),
    ("km", "mc", 0.112421), ("mc", "km", 0.117982),
    ("sld", "mc", 0.388323), ("mc", "sld", 0.445981),
    ("ld", "mc", 1.07895), ("mc", "ld", 1.98719),
    ("p0", "p1", 0.867442), ("p0", "p2", 5.76086),
    ("p1", "p2", 2.37198), ("p2", "p0", 7.06816),
    ("p2", "p1", 1.52109),
])
def test_relative_entropy_values(a, b, want):
    assert relative_entropy(_p(a), _p(b)) == pytest.approx(want, rel=1e-3)


def test_relative_entropy_self_is_zero():
    for kind in FULL + TRUNC:
        assert relative_entropy(_p(kind), _p(kind)) == pytest.approx(
            0.0, abs=1e-12)


def test_gibbs_inequality_all_shared_pairs():
    for a, b in SHARED_PAIRS:
        assert relative_entropy(_p(a), _p(b)) >= -1e-10


def test_support_mismatch_rejected():
    """Every statistic of a pair needs one support radius, in either order."""
    for p, q in ((_p("p0"), _p("sld")), (_p("sld"), _p("p0"))):
        with pytest.raises(SupportMismatchError):
            relative_entropy(p, q)
        for side in PosteriorSide:
            with pytest.raises(SupportMismatchError):
                relative_entropy_vs_posterior(p, q, B6, side)
        for variant in Variant:
            with pytest.raises(SupportMismatchError):
                noninformativity_verdict(p, q, B6, variant)
        for objective in ("posterior-vs-prior", "prior-vs-posterior"):
            with pytest.raises(SupportMismatchError):
                search_min_record(p, q, 3, objective=objective)


# --- posterior-side divergences -----------------------------------------------

SECOND = PosteriorSide.SECOND_IS_POSTERIOR
FIRST = PosteriorSide.FIRST_IS_POSTERIOR


@pytest.mark.parametrize("a,b,side,want", [
    ("sld", "km", SECOND, 0.0720681), ("km", "sld", SECOND, 0.457259),
    ("km", "sld", FIRST, 0.0603743), ("sld", "km", FIRST, 0.399442),
    ("km", "mc", SECOND, 0.106655), ("mc", "km", SECOND, 0.482023),
    ("mc", "km", FIRST, 0.0910048), ("km", "mc", FIRST, 0.452794),
    ("sld", "mc", SECOND, 0.186964), ("mc", "sld", SECOND, 0.991175),
    ("ld", "mc", SECOND, 0.559829), ("mc", "ld", SECOND, 2.79851),
    ("p0", "p1", SECOND, 1.07576), ("p0", "p2", SECOND, 6.24184),
    ("p2", "p0", SECOND, 6.94979), ("p2", "p1", SECOND, 1.42817),
])
def test_posterior_divergence_values(a, b, side, want):
    got = relative_entropy_vs_posterior(_p(a), _p(b), B6, side)
    assert got == pytest.approx(want, rel=1e-3)


def test_posterior_divergence_against_regression_values():
    """The published D(p1 || Post(p0)) and D(p1 || Post(p2)) do not
    reproduce; the computed values are checked against the
    package-independent mpmath oracle in oracles.py."""
    oracle = truncated_balanced6()
    for q in ("p0", "p2"):
        got = relative_entropy_vs_posterior(_p("p1"), _p(q), B6, SECOND)
        assert got == pytest.approx(oracle[f"d.p1.post_{q}.balanced6"],
                                    rel=1e-8)


def test_posterior_side_against_direct_definition():
    """Oracle: D(p || Post_q) recomputed from the posterior's pointwise
    definition, p log(p/(q L/Z)), by a 2-D mpmath quadrature over (s, mu)
    in oracles.py."""
    direct = direct_divergence("sld", "km", {("Z", "+"): 1})
    fast = relative_entropy_vs_posterior(_p("sld"), _p("km"),
                                         parse_record("Z+:1"), SECOND)
    assert fast == pytest.approx(direct, rel=1e-10)


def test_clarke_side_against_direct_definition():
    """The same oracle for D(Post_p || q), from (p L/Z) log(p L/(Z q))."""
    direct = direct_divergence("sld", "km", {("Z", "+"): 1},
                               posterior_first=True)
    fast = relative_entropy_vs_posterior(_p("sld"), _p("km"),
                                         parse_record("Z+:1"), FIRST)
    assert fast == pytest.approx(direct, rel=1e-10)


# --- information gain ---------------------------------------------------------

def test_information_gain_values():
    assert information_gain(_p("km"), B6) == pytest.approx(0.151575, rel=1e-3)
    assert information_gain(_p("sld"), B6) == pytest.approx(
        4693.0 / 1420.0 + math.log(3.0 / 71.0), rel=1e-9)
    zup = parse_record("Z+:1")
    assert information_gain(_p("km"), zup) == pytest.approx(0.157404, rel=1e-3)
    assert information_gain(_p("sld"), zup) == pytest.approx(
        5.0 / 6.0 - math.log(2.0), rel=1e-9)
    assert information_gain(_p("mc"), MeasurementRecord()) == 0.0


def test_underflowed_evidence_raises_from_every_statistic():
    """balanced6^200 underflows the evidence; each statistic that needs it
    raises ZeroEvidenceError instead of dividing by it or taking its log."""
    rec = balanced_six(200)
    for side in PosteriorSide:
        with pytest.raises(ZeroEvidenceError):
            relative_entropy_vs_posterior(_p("km"), _p("sld"), rec, side)
    with pytest.raises(ZeroEvidenceError):
        information_gain(_p("km"), rec)


# --- verdicts -----------------------------------------------------------------

def test_verdict_examples():
    assert noninformativity_verdict(_p("km"), _p("sld"), B6).verdict \
        is Verdict.FIRST_MORE_NONINFORMATIVE
    assert noninformativity_verdict(_p("mc"), _p("km"), B6,
                                    Variant.CLARKE).verdict \
        is Verdict.FIRST_MORE_NONINFORMATIVE
    assert noninformativity_verdict(_p("p0"), _p("p2"), B6).verdict \
        is Verdict.FIRST_MORE_NONINFORMATIVE
    assert noninformativity_verdict(_p("p1"), _p("p2"), B6).verdict \
        is Verdict.FIRST_MORE_NONINFORMATIVE
    for kind in ("sld", "p0"):
        for variant in (Variant.PAPER, Variant.CLARKE):
            assert noninformativity_verdict(_p(kind), _p(kind), B6,
                                            variant).verdict \
                is Verdict.INCONCLUSIVE


def test_verdict_antisymmetry_exhaustive():
    for a, b in SHARED_PAIRS:
        for variant in (Variant.PAPER, Variant.CLARKE):
            fwd = noninformativity_verdict(_p(a), _p(b), B6, variant).verdict
            rev = noninformativity_verdict(_p(b), _p(a), B6, variant).verdict
            if fwd is Verdict.FIRST_MORE_NONINFORMATIVE:
                assert rev is Verdict.SECOND_MORE_NONINFORMATIVE
            if fwd is Verdict.SECOND_MORE_NONINFORMATIVE:
                assert rev is Verdict.FIRST_MORE_NONINFORMATIVE
            assert not (fwd is Verdict.FIRST_MORE_NONINFORMATIVE
                        and rev is Verdict.FIRST_MORE_NONINFORMATIVE)


def test_comparison_report_serialization():
    report = noninformativity_verdict(_p("km"), _p("sld"), B6)
    doc = report.to_dict()
    for key in ("pair", "record", "variant", "d_pq", "d_qp", "d_p_post_q",
                "d_q_post_p", "verdict", "tolerances", "evaluations"):
        assert key in doc
    import json
    assert json.loads(report.to_json())["verdict"] == "FirstMoreNoninformative"


# --- moments, crossovers, ratios ---------------------------------------------

def test_variance_values():
    from blochpriors import variance_z
    assert variance_z(_p("ld")) == pytest.approx(0.2, rel=1e-10)
    assert variance_z(_p("sld")) == pytest.approx(0.25, rel=1e-10)
    assert variance_z(_p("km")) == pytest.approx(5.0 / 18.0, rel=1e-10)
    assert variance_z(_p("mc")) == pytest.approx(0.301762, rel=1e-5)


def test_variance_ordering_matches_noninformativity_chain():
    from blochpriors import variance_z
    v = {k: variance_z(_p(k)) for k in FULL}
    assert v["mc"] > v["km"] > v["sld"] > v["ld"]


@pytest.mark.parametrize("a,b,want", [
    ("km", "sld", 0.957504), ("mc", "km", 0.9846),
    ("mc", "sld", 0.973932), ("mc", "ld", 0.948724),
])
def test_crossover_values(a, b, want):
    assert crossover_radius(_p(a), _p(b)) == pytest.approx(want, rel=5e-3)


def test_crossover_consistency_with_density_ratio():
    p, q = _p("km"), _p("sld")
    r_star = crossover_radius(p, q)
    for r in np.linspace(0.6, r_star - 0.01, 5):
        assert density_ratio_at(p, q, r) < 1.0
    for r in np.linspace(r_star + 0.005, 0.999, 5):
        assert density_ratio_at(p, q, r) > 1.0


def test_density_ratio_values():
    assert density_ratio_at(_p("p0"), _p("p1"), R10) == pytest.approx(
        5.89521, rel=1e-4)
    assert density_ratio_at(_p("p0"), _p("p2"), R10) == pytest.approx(
        1947.41, rel=1e-4)
    assert density_ratio_at(_p("p1"), _p("p2"), R10) == pytest.approx(
        330.338, rel=1e-4)
    assert density_ratio_at(_p("km"), _p("km"), 0.5) == 1.0
    # c * g(r)/r^2 at the origin: 1/pi^2 for sld, 2/(4 pi^2) for km
    assert density_ratio_at(_p("km"), _p("sld"), 0.0) == pytest.approx(
        0.5, rel=1e-12)
    # r^2 underflows here; the ratio does not
    assert density_ratio_at(_p("sld"), _p("km"), 1e-170) == pytest.approx(
        2.0, rel=1e-12)
    # outside [0, 1) it raises, even for ld, which is finite at r = 1
    for r in (-0.5, 1.0):
        with pytest.raises(OutOfSupportError):
            density_ratio_at(_p("ld"), _p("ld"), r)


@pytest.mark.parametrize("a,b", [("p0", "p1"), ("p0", "p2"), ("p1", "p2")])
def test_density_ratio_at_R_matches_oracle(a, b):
    want = oracle_radial_density(a, R10) / oracle_radial_density(b, R10)
    assert density_ratio_at(_p(a), _p(b), R10) == pytest.approx(
        want, rel=1e-12)


# --- marginals and conditionals -----------------------------------------------

def test_sld_marginal_is_uniform_on_disk():
    p = _p("sld")
    rng = np.random.default_rng(7)
    for _ in range(20):
        rho = 0.97 * math.sqrt(rng.uniform())
        ang = rng.uniform(0.0, 2.0 * math.pi)
        got = bivariate_marginal(p, rho * math.cos(ang), rho * math.sin(ang))
        assert got == pytest.approx(1.0 / math.pi, abs=1e-6)


def test_ld_marginal_closed_form():
    # uniform density 3/(4 pi) integrated over the chord of length 2 sqrt(1-s2)
    p = _p("ld")
    for x, y in ((0.0, 0.0), (0.5, 0.2), (0.1, -0.8)):
        want = 3.0 / (2.0 * math.pi) * math.sqrt(1.0 - x * x - y * y)
        assert bivariate_marginal(p, x, y) == pytest.approx(want, rel=1e-9)


def test_p0_marginal_matches_arcsine_surface_form():
    p = _p("p0")
    rng = np.random.default_rng(11)
    for _ in range(20):
        rho = 0.95 * math.sqrt(rng.uniform())
        ang = rng.uniform(0.0, 2.0 * math.pi)
        x, y = rho * math.cos(ang), rho * math.sin(ang)
        want = (1.0 - x * x - y * y) ** -0.5 / (2.0 * math.pi)
        assert bivariate_marginal(p, x, y) == pytest.approx(want, rel=1e-4)


def test_marginal_integrates_to_one():
    for kind in ("sld", "ld"):
        p = _p(kind)
        total, _ = quad(
            lambda rho: 2.0 * math.pi * rho * bivariate_marginal(p, rho, 0.0),
            0.0, p.support_radius, limit=200, epsabs=1e-10, epsrel=1e-9)
        assert total == pytest.approx(1.0, abs=1e-6)


def test_marginal_out_of_support():
    with pytest.raises(OutOfSupportError):
        bivariate_marginal(_p("sld"), 0.8, 0.7)


def test_conditional_x():
    p = _p("p0")
    assert conditional_x(p, 0.0) == pytest.approx(1.0 / math.pi, rel=1e-12)
    assert conditional_x(p, 0.6) == pytest.approx(1.25 / math.pi, rel=1e-12)
    total, _ = quad(lambda x: conditional_x(p, x), -1.0, 1.0,
                    limit=200, epsabs=1e-12)
    assert total == pytest.approx(1.0, abs=1e-8)
    with pytest.raises(OutOfSupportError):
        conditional_x(p, 1.0)
    with pytest.raises(ValueError):
        conditional_x(_p("sld"), 0.0)


# --- independent discrete oracle ----------------------------------------------

def _discrete_kl(n):
    """Cell-mass divergence on a radially graded partition of the ball.

    Independent of the package's quadrature: plain midpoint sums.  The
    partition is the product of n radial shells (edges r = sin(u) with u
    uniform, concentrating cells at the boundary singularity) with an
    n x n angular grid; both densities are spherically symmetric, so the
    identical angular masses cancel inside the divergence and only the
    radial shells contribute.
    """
    edges = np.sin(np.linspace(0.0, math.pi / 2.0, n + 1))
    sub = 200
    c_sld = 1.0 / math.pi ** 2
    c_km = 1.0 / (4.0 * math.pi ** 2)
    mp = np.empty(n)
    mq = np.empty(n)
    for i in range(n):
        a, b = edges[i], edges[i + 1]
        r = a + (np.arange(sub) + 0.5) * (b - a) / sub
        omr2 = (1.0 - r) * (1.0 + r)
        g_sld = r * r / np.sqrt(omr2)
        g_km = 0.5 * r * (np.log1p(r) - np.log1p(-r)) / np.sqrt(omr2)
        mp[i] = 4.0 * math.pi * c_sld * g_sld.sum() * (b - a) / sub
        mq[i] = 4.0 * math.pi * c_km * g_km.sum() * (b - a) / sub
    mp /= mp.sum()
    mq /= mq.sum()
    return float((mp * np.log(mp / mq)).sum())


def test_discrete_oracle_converges_to_continuum():
    continuum = relative_entropy(_p("sld"), _p("km"))
    errors = [abs(_discrete_kl(n) - continuum) for n in (20, 40, 80)]
    assert errors[0] > errors[1] > errors[2]
    assert errors[2] <= 5e-3
