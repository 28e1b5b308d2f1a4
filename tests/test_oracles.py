"""Checks of the package-independent oracle in oracles.py."""

from decimal import Decimal

import mpmath
import pytest

from blochpriors import QuadratureConfig, evidence, make_prior, parse_record
from blochpriors import reproduce
from oracles import (ERRATA, _evidence, _likelihood_polynomial,
                     record_evidence, sphere_mean_likelihood,
                     sphere_mean_log_likelihood, sphere_mean_record_likelihood,
                     sphere_mean_record_log_term, truncated_balanced6)


def _sphere_mean(f, r):
    """Average of f(x, y, z) over the sphere of radius r, by 2-D quadrature."""
    def g(mu, phi):
        rho = mpmath.sqrt(1 - mu * mu)
        return f(r * rho * mpmath.cos(phi), r * rho * mpmath.sin(phi), r * mu)
    return mpmath.quad(g, [-1, 1], [0, 2 * mpmath.pi],
                       method="gauss-legendre") / (4 * mpmath.pi)


@pytest.mark.parametrize("r", ["0.3", "0.9"])
def test_sphere_averages_of_balanced6_likelihood(r):
    def likelihood(x, y, z):
        return (1 - x * x) * (1 - y * y) * (1 - z * z) / 64

    with mpmath.workdps(15):
        r = mpmath.mpf(r)
        s = mpmath.log((1 + r) / (1 - r))
        assert _sphere_mean(likelihood, r) == pytest.approx(
            sphere_mean_likelihood(r), rel=1e-12)
        assert _sphere_mean(lambda x, y, z: mpmath.log(likelihood(x, y, z)),
                            r) == pytest.approx(
            sphere_mean_log_likelihood(s), rel=1e-12)


@pytest.mark.parametrize("r", ["0.3", "0.9"])
def test_record_averages_against_sphere_quadrature(r):
    """The moment-based record averages against plain 2-D quadrature, on
    balanced6 (whose likelihood average has a closed form) and on a record
    with counts on every axis."""
    b6 = {(a, s): 1 for a in "XYZ" for s in "+-"}
    counts = {("X", "+"): 3, ("Y", "-"): 2, ("Z", "+"): 1, ("Z", "-"): 2}

    def likelihood(x, y, z):
        v = {"X": x, "Y": y, "Z": z}
        return mpmath.fprod(((1 + v[a]) / 2 if s == "+" else (1 - v[a]) / 2)
                            ** n for (a, s), n in counts.items())

    r = float(r)
    with mpmath.workdps(15):
        assert float(sphere_mean_record_likelihood(b6, r)) == pytest.approx(
            float(sphere_mean_likelihood(mpmath.mpf(r))), rel=1e-14)
        assert float(sphere_mean_record_likelihood(counts, r)) \
            == pytest.approx(float(_sphere_mean(likelihood, r)), rel=1e-12)
        for axis, sign in counts:
            def log_term(x, y, z, axis=axis, sign=sign):
                v = {"X": x, "Y": y, "Z": z}[axis]
                half = (1 + v) / 2 if sign == "+" else (1 - v) / 2
                return likelihood(x, y, z) * mpmath.log(half)

            assert float(sphere_mean_record_log_term(counts, r, axis, sign)) \
                == pytest.approx(float(_sphere_mean(log_term, r)), rel=1e-12)


def test_truncated_oracle_rounds_to_published_values():
    """Apart from the two errata, every published truncated-family value
    the oracle covers is the oracle's value rounded to the published
    digits, which pins the oracle's conventions to the paper's."""
    oracle = truncated_balanced6()
    rows = [r for r in reproduce("s23") if r.quantity_id in oracle]
    assert len(rows) == 18
    for row in rows:
        half_unit = 0.5 * 10.0 ** Decimal(repr(row.paper_value)).as_tuple(
        ).exponent
        off = abs(row.paper_value - oracle[row.quantity_id])
        assert (off > half_unit) == (row.quantity_id in ERRATA), row


def test_evidence_oracle_on_large_records():
    """The oracle's evidence passes its own error check on records of up to
    120 counts: for ld it is the exact rational 3 sum_d c_d/(d + 3) of the
    likelihood polynomial, and the package at a tight config agrees with it
    for five priors on a 90-count record."""
    large = parse_record("X+:7,X-:15,Y+:7,Y-:12,Z+:19,Z-:30")
    for spec in ("balanced6^8", large.to_spec_string(), "balanced6^20"):
        items = tuple(sorted(((axis, sign), n) for axis, sign, n
                             in parse_record(spec).outcomes()))
        poly, _ = _likelihood_polynomial(items)
        exact = 3 * sum(c / (d + 3) for d, c in poly.items())
        with mpmath.workdps(60):
            exact = mpmath.mpf(exact.numerator) / exact.denominator
            assert abs(_evidence("ld", items) - exact) <= 1e-25 * exact, spec
    tight = QuadratureConfig(rel_tol=1e-12, abs_tol=1e-300)
    counts = {(axis, sign): n for axis, sign, n in large.outcomes()}
    for kind in ("ld", "sld", "km", "mc", "p0"):
        assert evidence(make_prior(kind, cfg=tight), large, tight) \
            == pytest.approx(record_evidence(kind, counts), rel=1e-10), kind
