"""The radial engine quad_s against closed-form oracles.

quad_s integrates w(r) dr over [0, R] with w given in s = log((1+r)/(1-r)),
where r = tanh(s/2) and (1 - r^2)^(-1/2) = cosh(s/2).
"""

import dataclasses
import math

import pytest

from blochpriors import QuadratureConfig
from blochpriors.errors import NoSignChangeError
from blochpriors.quadrature import crossover_root, evaluation_count, quad_s

R10 = 1.0 - 1e-10
CFG = QuadratureConfig()


def _r(s):
    return math.tanh(s / 2.0)


def _converged(value, err):
    return err <= max(CFG.rel_tol * abs(value), CFG.abs_tol)


def test_polynomial_plain():
    value, err, _ = quad_s(lambda s: _r(s) ** 2, 1.0, CFG)
    assert _converged(value, err)
    assert value == pytest.approx(1.0 / 3.0, rel=1e-12)


def test_inverse_sqrt_singularity_sin_substitution():
    # Int_0^1 r^2 (1-r^2)^(-1/2) dr = pi/4
    value, err, _ = quad_s(lambda s: _r(s) ** 2 * math.cosh(s / 2.0), 1.0,
                           CFG)
    assert _converged(value, err)
    assert value == pytest.approx(math.pi / 4.0, rel=1e-10)


def test_strong_singularity_log_substitution():
    # Int_0^R r^2 (1-r^2)^(-3/2) dr = R/sqrt(1-R^2) - asin(R)
    truth = R10 / math.sqrt((1.0 - R10) * (1.0 + R10)) - math.asin(R10)
    value, err, _ = quad_s(lambda s: _r(s) ** 2 * math.cosh(s / 2.0) ** 3,
                           R10, CFG)
    assert _converged(value, err)
    assert value == pytest.approx(truth, rel=1e-9)


def test_log_weighted_singularity():
    # Int_0^1 (1-r^2)^(-1/2) log((1+r)/(1-r)) dr = 4 * Catalan's constant,
    # which is s cosh(s/2) in s
    truth = 3.6638623767088752  # 4G, 30-digit quadrature oracle
    value, _, _ = quad_s(lambda s: s * math.cosh(s / 2.0), 1.0, CFG)
    assert value == pytest.approx(truth, rel=1e-9)


def test_determinism():
    def w(s):
        r = _r(s)
        return math.sqrt(r) / (1.0 + r)

    assert quad_s(w, 1.0, CFG) == quad_s(w, 1.0, CFG)


def test_error_estimate_honest():
    truth = math.pi / 4.0
    value, err, _ = quad_s(lambda s: _r(s) ** 2 * math.cosh(s / 2.0), 1.0,
                           CFG)
    assert abs(value - truth) <= max(10.0 * err, 1e-12)


def test_crossover_root_bisection():
    before = evaluation_count()
    root = crossover_root(lambda x: x * x - 2.0, 0.0, 2.0)
    assert root == pytest.approx(math.sqrt(2.0), abs=1e-10)
    # the counter counts integrand evaluations, and bisection has none
    assert evaluation_count() == before


def test_evaluation_count_counts_integrand_calls():
    calls = []
    before = evaluation_count()
    quad_s(lambda s: calls.append(s) or 1.0, 0.5, CFG)
    assert evaluation_count() - before == len(calls) > 0


def test_crossover_root_requires_sign_change():
    with pytest.raises(NoSignChangeError):
        crossover_root(lambda x: x * x + 1.0, 0.0, 2.0)


def test_config_validation():
    with pytest.raises(ValueError):
        QuadratureConfig(rel_tol=0.0)
    for bad in (math.inf, math.nan):
        with pytest.raises(ValueError, match="finite"):
            QuadratureConfig(rel_tol=bad)
        with pytest.raises(ValueError, match="finite"):
            QuadratureConfig(abs_tol=bad)
    # the two tolerances are the whole config
    assert [f.name for f in dataclasses.fields(QuadratureConfig)] == \
        ["rel_tol", "abs_tol"]
