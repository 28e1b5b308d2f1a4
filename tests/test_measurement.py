"""Records, likelihoods, evidences and posteriors."""

import math
from itertools import permutations, product

import pytest

from blochpriors import (BlochPoint, MeasurementRecord, balanced_six,
                         evidence, likelihood, make_prior, parse_record,
                         posterior)
from blochpriors.errors import ZeroEvidenceError


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
    assert parse_record("") == MeasurementRecord(())


def test_repeat_and_add():
    b6 = balanced_six()
    assert b6.repeat(3) == balanced_six(3)
    assert b6 + b6 == balanced_six(2)
    assert parse_record("X+:1") + parse_record("X+:1,Y-:1") \
        == parse_record("X+:2,Y-:1")
    with pytest.raises(ValueError):
        b6.repeat(0)


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
    assert evidence(make_prior("sld"), MeasurementRecord(())) == 1.0


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
