"""Records, likelihoods, evidences and posteriors."""

import math
from collections import Counter
from itertools import permutations, product

import mpmath
import numpy as np
import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from blochpriors import (BlochPoint, MeasurementRecord, balanced_six,
                         evidence, likelihood, make_prior, measurement,
                         parse_record, posterior)
from blochpriors.errors import ZeroEvidenceError
from blochpriors.measurement import (AXES, angular_likelihood_integral,
                                     angular_likelihood_log_term)
from oracles import sphere_mean_record_likelihood, sphere_mean_record_log_term


def test_parse_tokens():
    rec = parse_record("X+:1,Z-:2")
    assert rec.count("X", "+") == 1
    assert rec.count("Z", "-") == 2
    assert rec.count("Y", "+") == 0
    assert rec.total == 3


def test_parse_merges_duplicate_tokens():
    assert parse_record("Z+:1,Z+:2") == parse_record("Z+:3")


def test_parse_aliases():
    b6 = parse_record("balanced6")
    assert b6 == balanced_six()
    assert b6.total == 6
    assert parse_record("balanced6^3") == balanced_six(3)
    assert parse_record("balanced6^3").total == 18


def test_parse_rejects_malformed():
    for bad in ("W+:1", "X:1", "X+:0", "X+:-1", "X+1", "balanced6^0",
                "balanced6^x", "X+:1;Y-:2"):
        with pytest.raises(ValueError):
            parse_record(bad)


def test_record_round_trip():
    rec = parse_record("X+:1,Y-:4,Z+:2")
    assert parse_record(rec.to_spec_string()) == rec
    assert parse_record("") == MeasurementRecord()


def test_repeat_and_add():
    b6 = balanced_six()
    assert b6.repeat(3) == balanced_six(3)
    assert b6 + b6 == balanced_six(2)
    assert parse_record("X+:1") + parse_record("X+:1,Y-:1") \
        == parse_record("X+:2,Y-:1")
    with pytest.raises(ValueError):
        b6.repeat(0)


def test_record_rejects_what_is_not_six_counts():
    with pytest.raises(ValueError):
        MeasurementRecord.from_counts({("X", "+"): 1.5})
    for bad in ((1, 2, 3), (0,) * 7, (0, 0, -1, 0, 0, 0),
                (0, 1.0, 0, 0, 0, 0), (0, 0, 0, 0, 0, "1"), [0] * 6):
        with pytest.raises(ValueError):
            MeasurementRecord(bad)


def test_equal_counts_make_equal_records():
    """However a record is built, equal counts give an equal record with an
    equal hash, so the evidence cache serves every spelling of it."""
    rec = MeasurementRecord((1, 1, 2, 2, 1, 1))
    spellings = [
        parse_record("Z-:1,Y+:2,X-:1,Z+:1,Y-:2,X+:1"),
        MeasurementRecord.from_counts({("Z", "-"): 1, ("Y", "-"): 2,
                                       ("X", "+"): 1, ("Y", "+"): 2,
                                       ("X", "-"): 1, ("Z", "+"): 1}),
        balanced_six() + parse_record("Y+:1,Y-:1"),
        parse_record("Y+:2,Y-:2") + parse_record("X+:1,X-:1,Z+:1,Z-:1"),
        parse_record("X+:1,X-:1,Y+:2,Y-:2,Z+:1,Z-:1"),
    ]
    for other in spellings:
        assert other == rec
        assert hash(other) == hash(rec)
    twice = balanced_six().repeat(2)
    assert twice == balanced_six(2) == MeasurementRecord((2,) * 6)
    assert hash(twice) == hash(MeasurementRecord((2,) * 6))
    assert MeasurementRecord() == parse_record("") == MeasurementRecord(
        (0,) * 6)
    assert rec.outcomes() == (("X", "+", 1), ("X", "-", 1), ("Y", "+", 2),
                              ("Y", "-", 2), ("Z", "+", 1), ("Z", "-", 1))
    assert rec.pair("Y") == (2, 2)
    p = make_prior("ld")
    evidence(p, parse_record("X+:2,Z-:1"))
    before = measurement._evidence_cached.cache_info().hits
    evidence(p, MeasurementRecord.from_counts({("Z", "-"): 1,
                                               ("X", "+"): 2}))
    assert measurement._evidence_cached.cache_info().hits == before + 1


def test_likelihood_pointwise():
    z = 0.37
    pt = BlochPoint(0.0, 0.0, z)
    assert likelihood(parse_record("Z+:1"), pt) == pytest.approx(
        (1.0 + z) / 2.0, rel=1e-14)
    assert likelihood(parse_record("Z-:2"), pt) == pytest.approx(
        ((1.0 - z) / 2.0) ** 2, rel=1e-14)
    # at the origin every outcome has probability 1/2
    assert likelihood(balanced_six(), BlochPoint(0, 0, 0)) == pytest.approx(
        0.5 ** 6, rel=1e-14)


def test_likelihood_repeat_is_power():
    pt = BlochPoint(0.2, -0.4, 0.5)
    rec = parse_record("X+:1,Y-:2,Z+:1")
    l1 = likelihood(rec, pt)
    assert likelihood(rec.repeat(3), pt) == pytest.approx(l1 ** 3, rel=1e-12)


def test_evidence_exact_rationals():
    b6 = balanced_six()
    assert 1.0 / evidence(make_prior("sld"), b6) == pytest.approx(
        64.0 * 192.0 / 71.0, rel=1e-10)
    assert 1.0 / evidence(make_prior("km"), b6) == pytest.approx(
        64.0 * 19600.0 / 6047.0, rel=1e-10)


def test_evidence_truncated_family():
    b6 = balanced_six()
    for kind, want in (("p0", 335.987), ("p1", 327.546), ("p2", 249.378)):
        assert 1.0 / evidence(make_prior(kind), b6) == pytest.approx(
            want, rel=1e-5)


def test_empty_record_evidence_is_one():
    assert evidence(make_prior("sld"), MeasurementRecord()) == 1.0


def test_posterior_pointwise_factorization():
    p = make_prior("km")
    rec = parse_record("X+:2,Z-:1")
    post = posterior(p, rec)
    for pt in (BlochPoint(0.1, 0.2, -0.3), BlochPoint(0.0, 0.0, 0.9),
               BlochPoint(-0.5, 0.4, 0.1)):
        want = p.density_at(pt) * likelihood(rec, pt) / post.evidence
        assert post.density_at(pt) == pytest.approx(want, rel=1e-13)


def test_posterior_chain_coherence():
    p = make_prior("sld")
    r1, r2 = parse_record("X+:1"), parse_record("Z-:2,Y+:1")
    chained = posterior(posterior(p, r1), r2)
    direct = posterior(p, r1 + r2)
    assert chained.record == direct.record
    assert chained.evidence == pytest.approx(direct.evidence, rel=1e-12)
    pt = BlochPoint(0.3, -0.2, 0.4)
    assert chained.density_at(pt) == pytest.approx(direct.density_at(pt),
                                                   abs=1e-10, rel=1e-10)


def test_posterior_symmetry_for_balanced_record():
    """The balanced record and a spherically symmetric prior give a
    posterior invariant under sign flips and coordinate permutations."""
    post = posterior(make_prior("km"), balanced_six())
    base = (0.31, 0.17, 0.43)
    ref = post.density_at(BlochPoint(*base), "cartesian")
    for perm in permutations(base):
        for signs in product((1, -1), repeat=3):
            pt = BlochPoint(*(s * c for s, c in zip(signs, perm)))
            assert post.density_at(pt, "cartesian") == pytest.approx(
                ref, rel=1e-12)


def test_zero_evidence_raises():
    with pytest.raises(ZeroEvidenceError):
        posterior(make_prior("sld"), balanced_six(220))
    # a subnormal evidence (~2e-311) raises from evidence itself
    with pytest.raises(ZeroEvidenceError):
        evidence(make_prior("km"), balanced_six(170))


# the six record shapes of the benchmark's clarke-verdicts cycle (totals 1 to
# 81), and balanced6
ORACLE_RECORDS = ("X+:1", "X+:3,X-:2,Y+:7,Y-:2,Z+:1,Z-:8", "X+:32,Z+:13",
                  "X+:8,X-:7,Y+:3,Y-:9,Z+:25", "X-:58,Y-:3,Z+:13",
                  "X-:12,Y+:18,Z+:46,Z-:5", "balanced6")


@pytest.mark.parametrize("r", (0.3, 0.9, 1.0 - 1e-10, 1.0))
@pytest.mark.parametrize("spec", ORACLE_RECORDS)
def test_angular_kernels_match_oracle(spec, r):
    """Both angular kernels against the 30-digit oracle, the log term for
    every outcome of the record."""
    rec = parse_record(spec)
    counts = {(a, s): n for a, s, n in rec.outcomes()}
    want = 4.0 * math.pi * float(sphere_mean_record_likelihood(counts, r))
    assert angular_likelihood_integral(rec, r) == pytest.approx(
        want, rel=1e-12, abs=0.0)
    for axis, sign, _ in rec.outcomes():
        want = float(4 * mpmath.pi
                     * sphere_mean_record_log_term(counts, r, axis, sign))
        assert angular_likelihood_log_term(rec, r, axis, sign) \
            == pytest.approx(want, rel=1e-12, abs=0.0), (axis, sign)


@pytest.mark.parametrize("spec", ORACLE_RECORDS)
def test_angular_kernels_accept_an_array_of_radii(spec):
    """An array of radii gives the scalar results element by element, and a
    scalar radius still gives a float."""
    rec = parse_record(spec)
    radii = np.array([0.0, 0.3, 0.9, 1.0 - 1e-10, 1.0])

    def check(kernel, *args):
        got = kernel(rec, radii, *args)
        assert got.shape == radii.shape
        for value, r in zip(got, radii):
            want = kernel(rec, float(r), *args)
            assert type(want) is float
            assert value == pytest.approx(want, rel=1e-15, abs=0.0)

    check(angular_likelihood_integral)
    for axis, sign, _ in rec.outcomes():
        check(angular_likelihood_log_term, axis, sign)


def test_log_term_closed_form():
    # over the unit sphere, (1 + x)/2 log((1 + x)/2) integrates to -pi
    assert angular_likelihood_log_term(parse_record("X+:1"), 1.0, "X", "+") \
        == pytest.approx(-math.pi, rel=1e-12, abs=0.0)


def test_likelihood_integral_closed_form():
    # ((1 - mu^2)/4)^150 integrates over mu to 4^-150 B(1/2, 151)
    # = 2 (150!)^2 / 301!; its degree, 300, is past any fixed 48-node rule
    want = 2.0 * math.pi * (2 * math.factorial(150) ** 2
                            / math.factorial(301))
    assert angular_likelihood_integral(parse_record("Z+:150,Z-:150"), 1.0) \
        == pytest.approx(want, rel=1e-12, abs=0.0)
    assert angular_likelihood_integral(MeasurementRecord(), 0.7) \
        == 4.0 * math.pi


_OUTCOMES = tuple((a, s) for a in AXES for s in "+-")
_FLIP = {"+": "-", "-": "+"}


@seed(20261018)
@settings(max_examples=40, deadline=None, database=None)
@given(outcomes=st.lists(st.sampled_from(_OUTCOMES), min_size=1,
                         max_size=40),
       r=st.floats(0.05, 1.0), pick=st.integers(0, 5))
def test_angular_kernels_invariant_under_signed_axis_permutations(
        outcomes, r, pick):
    """A signed permutation of the axes is a rotation or reflection, so
    neither kernel may change; the kernels turn different axes onto the
    polar axis for different images of the same record."""
    counts = Counter(outcomes)
    rec = MeasurementRecord.from_counts(counts)
    axis, sign, _ = rec.outcomes()[pick % len(rec.outcomes())]
    integral = angular_likelihood_integral(rec, r)
    log_term = angular_likelihood_log_term(rec, r, axis, sign)
    for perm in permutations(AXES):
        for flips in product((False, True), repeat=3):
            def image(a, s):
                i = AXES.index(a)
                return perm[i], _FLIP[s] if flips[i] else s

            moved = MeasurementRecord.from_counts(
                {image(a, s): n for (a, s), n in counts.items()})
            assert angular_likelihood_integral(moved, r) == pytest.approx(
                integral, rel=1e-13, abs=0.0)
            assert angular_likelihood_log_term(moved, r, *image(axis, sign)) \
                == pytest.approx(log_term, rel=1e-13, abs=0.0)
