"""Scalar checks of the metric-generating functions."""

import math

import mpmath
import pytest

from blochpriors import PRIOR_LABELS, check_monotone_function, generator

MONOTONE_LABELS = [k for k in PRIOR_LABELS if k != "ld"]


@pytest.mark.parametrize("kind", MONOTONE_LABELS)
def test_normalized_symmetric_monotone(kind):
    report = check_monotone_function(generator(kind))
    assert report.normalized
    assert report.symmetric
    assert report.scalar_monotone


def test_spot_values():
    assert generator("sld")(3.0) == 2.0
    assert generator("km")(1.0) == 1.0
    # maximal member is 2t/(1+t)
    assert generator("p0")(3.0) == pytest.approx(1.5, rel=1e-14)
    assert generator("mc")(2.0) == pytest.approx(
        2.0 * 1.0 / (3.0 * math.log(2.0) ** 2), rel=1e-13)


def test_mc_equals_petz_order_two():
    mc, p2 = generator("mc"), generator("p2")
    for t in (0.01, 0.5, 0.999999, 1.0, 1.000001, 7.0, 1e5):
        assert mc(t) == pytest.approx(p2(t), rel=1e-13)


def test_kubo_mori_series_matches_high_precision():
    f = generator("km")
    mpmath.mp.dps = 40
    for t in (1.0 + 3e-7, 1.0 - 3e-7, 1.0 + 9e-7, 1.0 + 2e-6, 1.0 - 2e-6):
        exact = float((mpmath.mpf(t) - 1) / mpmath.log(mpmath.mpf(t)))
        assert f(t) == pytest.approx(exact, rel=1e-12)
    assert f(1.0) == 1.0


def test_larson_dukes_flagged():
    report = check_monotone_function(generator("ld"))
    assert not report.normalized       # f(1) = 4
    assert not report.scalar_monotone  # minimum at t = 1/3
    assert report.symmetric            # still satisfies f(t) = t f(1/t)


def test_petz_order_validation():
    # the family has orders 0, 1 and 2 only; "p3" is no label
    with pytest.raises(ValueError, match="unknown prior label 'p3'"):
        generator("p3")


def test_plain_callable_is_checked():
    report = check_monotone_function(lambda t: (1.0 + t) / 2.0)
    assert report.normalized and report.symmetric and report.scalar_monotone
