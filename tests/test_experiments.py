"""Sweeps, record search and the reproduction table."""

import math
import time
from functools import lru_cache
from itertools import permutations, product

import pytest

from blochpriors import (PosteriorSide, QuadratureConfig, balanced_six,
                         make_prior, parse_record, relative_entropy,
                         relative_entropy_vs_posterior, repeat_sweep,
                         reproduce, search_min_record)
from blochpriors import experiments, infotheory
from blochpriors.errors import BudgetExceededError, NonConvergenceError
from blochpriors.experiments import (_candidate_count, _orbit_representatives,
                                     _RecordObjective)
from blochpriors.measurement import MeasurementRecord
from blochpriors.quadrature import DEFAULT_CONFIG

B6 = balanced_six()

# the three rows that intentionally fail: two published posterior
# divergences carry a common additive error, and the published
# nats-to-bits factor disagrees with 1/log 2
EXPECTED_FAILING_ROWS = {
    "d.p1.post_p0.balanced6",
    "d.p1.post_p2.balanced6",
    "units.nats_to_bits",
}


def test_repeat_sweep_ld_mc():
    sw = repeat_sweep(make_prior("ld"), make_prior("mc"), B6, 4)
    assert sw.k_values == (1, 2, 3, 4)
    want = (0.559829, 0.310686, 0.307632, 0.529577)
    for got, w in zip(sw.statistics, want):
        assert got == pytest.approx(w, rel=1e-3)
    assert sw.argmin_k == 3
    # interior minimum: non-monotone sequence
    assert sw.statistics[2] < sw.statistics[1] < sw.statistics[0]
    assert sw.statistics[3] > sw.statistics[2]


def test_repeat_sweep_sld_km():
    sw = repeat_sweep(make_prior("sld"), make_prior("km"), B6, 2)
    assert sw.statistics[0] == pytest.approx(0.0720681, rel=1e-3)
    assert sw.statistics[1] == pytest.approx(0.334699, rel=1e-3)
    assert sw.argmin_k == 1


def test_repeat_sweep_single_entry():
    sw = repeat_sweep(make_prior("km"), make_prior("km"), B6, 1)
    assert sw.argmin_k == 1
    assert sw.statistics[0] > 0.0
    with pytest.raises(ValueError):
        repeat_sweep(make_prior("km"), make_prior("km"), B6, 0)


def test_search_same_prior_returns_empty_record():
    p = make_prior("km")
    rec, val = search_min_record(p, p, 6, "any")
    assert rec.total == 0
    assert val == pytest.approx(0.0, abs=1e-12)


def test_search_balanced_enumeration():
    rec, val = search_min_record(make_prior("km"), make_prior("sld"), 6,
                                 "balanced-axes")
    assert rec.total <= 6
    # Clarke's argument: some record brings the posterior closer than the
    # prior-to-prior baseline
    assert val <= relative_entropy(make_prior("km"), make_prior("sld")) + 1e-12


def test_search_subset_consistency_with_sweep():
    """Restricted to repeated balanced records, the enumerated minimizer of
    D(p || Posterior(q, rec)) must be the sweep argmin (k = 3 here)."""
    sw = repeat_sweep(make_prior("ld"), make_prior("mc"), B6, 4)
    rec, val = search_min_record(make_prior("ld"), make_prior("mc"), 24,
                                 "balanced-axes",
                                 objective="prior-vs-posterior")
    assert rec == B6.repeat(sw.argmin_k)
    assert val == pytest.approx(min(sw.statistics), rel=1e-7)


def test_search_validation_and_budget():
    p, q = make_prior("km"), make_prior("sld")
    with pytest.raises(ValueError):
        search_min_record(p, q, 31)
    with pytest.raises(ValueError, match="max_total"):
        search_min_record(p, q, -1)
    with pytest.raises(ValueError):
        search_min_record(p, q, 6, constraint="weird")
    with pytest.raises(ValueError):
        search_min_record(p, q, 6, objective="weird")


def test_search_budget_checked_before_enumeration():
    # C(36, 6) = 1947792 candidates: the cap must trip before any is built
    p, q = make_prior("km"), make_prior("sld")
    start = time.perf_counter()
    with pytest.raises(BudgetExceededError):
        search_min_record(p, q, 30, "any")
    assert time.perf_counter() - start < 5.0


@lru_cache(maxsize=None)
def _product_filter(max_total, constraint):
    """Every count vector with total <= max_total under ``constraint``."""
    return tuple(v for v in product(range(max_total + 1), repeat=6)
                 if sum(v) <= max_total and (constraint == "any"
                                             or v[0] + v[1] == v[2] + v[3]
                                             == v[4] + v[5]))


def _signed_permutation_images(vec):
    """The images of a count vector under the 48 signed axis permutations."""
    pairs = [vec[i:i + 2] for i in (0, 2, 4)]
    images = set()
    for perm in permutations(range(3)):
        for flips in product((False, True), repeat=3):
            moved = [None] * 3
            for i, j in enumerate(perm):
                moved[j] = pairs[i][::-1] if flips[i] else pairs[i]
            images.add(tuple(n for pair in moved for n in pair))
    return frozenset(images)


@pytest.mark.parametrize("constraint", ["any", "balanced-axes"])
@pytest.mark.parametrize("max_total", range(7))
def test_enumeration_matches_product_filter(constraint, max_total):
    """The orbits of the representatives partition the product filter, and
    their sizes sum to the closed-form candidate count."""
    orbits = [_signed_permutation_images(rec.counts)
              for rec in _orbit_representatives(max_total, constraint)]
    assert sum(map(len, orbits)) == _candidate_count(max_total, constraint)
    assert len(set().union(*orbits)) == sum(map(len, orbits))
    assert set().union(*orbits) == set(_product_filter(max_total, constraint))


@pytest.mark.parametrize("constraint", ["any", "balanced-axes"])
@pytest.mark.parametrize("max_total", range(7))
def test_orbit_key_classes_are_signed_permutation_orbits(constraint,
                                                         max_total):
    """Each representative is the least member of its orbit, and each orbit
    of the product filter has exactly one representative."""
    reps = [rec.counts
            for rec in _orbit_representatives(max_total, constraint)]
    assert all(vec == min(_signed_permutation_images(vec)) for vec in reps)
    assert sorted(reps) == sorted(
        {min(_signed_permutation_images(vec))
         for vec in _product_filter(max_total, constraint)})


TIGHT = QuadratureConfig(rel_tol=1e-12, abs_tol=1e-300)


@pytest.mark.parametrize("objective",
                         ["posterior-vs-prior", "prior-vs-posterior"])
@pytest.mark.parametrize("pair", [("km", "sld"), ("mc", "km"), ("p1", "p2")])
def test_ranker_matches_adaptive_statistic(pair, objective):
    """The search ranker agrees with the adaptive statistic on one record of
    every orbit up to total 4, so it ranks on, and returns, the statistic
    itself."""
    p, q = (make_prior(kind, cfg=TIGHT) for kind in pair)
    obj = _RecordObjective(p, q, objective, TIGHT)
    side = (PosteriorSide.SECOND_IS_POSTERIOR
            if objective == "prior-vs-posterior"
            else PosteriorSide.FIRST_IS_POSTERIOR)
    for rec in _orbit_representatives(4, "any"):
        assert obj.value(rec) == pytest.approx(
            relative_entropy_vs_posterior(p, q, rec, side, TIGHT),
            rel=1e-12, abs=0.0), rec


@pytest.mark.parametrize("objective",
                         ["posterior-vs-prior", "prior-vs-posterior"])
@pytest.mark.parametrize("pair", [("km", "sld"), ("ld", "mc"), ("p1", "p2")])
def test_search_loses_no_record(pair, objective):
    """Over every record of the product filter, ranked by the search's own
    objective with the documented tie rule, the search returns the winner
    and the value it ranked by: enumerating one record per orbit drops
    none."""
    p, q = (make_prior(kind) for kind in pair)
    obj = _RecordObjective(p, q, objective, DEFAULT_CONFIG)
    tops = {"any": 4, "balanced-axes": 9}
    values = {vec: obj.value(MeasurementRecord(vec))
              for constraint, top in tops.items()
              for vec in _product_filter(top, constraint)}
    for constraint, top in tops.items():
        for max_total in range(top + 1):
            vectors = [v for v in _product_filter(top, constraint)
                       if sum(v) <= max_total]
            best = min(values[v] for v in vectors)
            tol = 1e-10 + 1e-9 * abs(best)
            want = MeasurementRecord(min(
                (sum(v), v) for v in vectors
                if abs(values[v] - best) <= tol)[1])
            rec, val = search_min_record(p, q, max_total, constraint,
                                         objective)
            assert rec == want, (constraint, max_total)
            assert val == obj.value(want)


def test_search_evaluates_no_adaptive_statistic(monkeypatch):
    """The search returns the ranker's own value: it never calls the
    adaptive statistic."""
    def refuse(*args, **kwargs):
        raise AssertionError("search called relative_entropy_vs_posterior")

    for module in (infotheory, experiments):
        monkeypatch.setattr(module, "relative_entropy_vs_posterior", refuse)
    # pairs whose winner is not the empty record, whose value is D(p || q)
    for pair, objective in ((("km", "sld"), "posterior-vs-prior"),
                            (("ld", "mc"), "prior-vs-posterior")):
        p, q = (make_prior(kind) for kind in pair)
        rec, val = search_min_record(p, q, 6, "balanced-axes", objective)
        assert rec == B6 and math.isfinite(val)


@pytest.mark.parametrize("p, q, max_total, objective, want, value", [
    ("km", "ld", 3, "posterior-vs-prior", "Z+:1,Z-:1", 0.8911103586081776),
    ("ld", "mc", 5, "prior-vs-posterior", "Y+:1,Y-:1,Z+:1,Z-:1",
     0.8478334973926338),
])
def test_search_pinned_winners(p, q, max_total, objective, want, value):
    rec, val = search_min_record(make_prior(p), make_prior(q), max_total,
                                 "any", objective)
    assert rec == parse_record(want)
    assert val == pytest.approx(value, rel=1e-9)


def test_search_deterministic():
    p, q = make_prior("km"), make_prior("sld")
    a = search_min_record(p, q, 6, "balanced-axes")
    b = search_min_record(p, q, 6, "balanced-axes")
    assert a == b


def test_reproduce_row_count_and_failures():
    rows = reproduce("all")
    assert len(rows) >= 45
    failing = {r.quantity_id for r in rows if not r.passed}
    assert failing == EXPECTED_FAILING_ROWS


def test_reproduce_sorted_and_consistent():
    rows = reproduce("all")
    ids = [r.quantity_id for r in rows]
    assert ids == sorted(ids)
    assert len(ids) == len(set(ids))
    for r in rows:
        tol = {"exact-rational": 1e-9, "six-digit": 1e-3,
               "four-digit": 5e-3}[r.tolerance_class]
        assert r.passed == (r.rel_diff <= tol)


def test_reproduce_section_filters():
    all_rows = reproduce("all")
    by_section = sum((reproduce(t) for t in ("s21", "s22", "s23", "s3")), [])
    assert len(by_section) == len(all_rows)
    with pytest.raises(ValueError):
        reproduce("s99")


def test_reproduce_spot_values():
    rows = {r.quantity_id: r for r in reproduce("s21")}
    assert rows["d.sld.km"].paper_value == pytest.approx(0.0891523)
    assert rows["d.sld.km"].passed
    assert rows["z.sld.balanced6"].paper_value == pytest.approx(64 * 192 / 71)
    assert rows["z.sld.balanced6"].tolerance_class == "exact-rational"
    assert rows["z.sld.balanced6"].passed



def _raising(exc):
    def variance_z(*args, **kwargs):
        raise exc
    return variance_z


def test_reproduce_lets_programming_errors_through(monkeypatch):
    monkeypatch.setattr(experiments, "variance_z",
                        _raising(TypeError("a programming error")))
    with pytest.raises(TypeError, match="a programming error"):
        reproduce("s3")


def test_reproduce_turns_package_errors_into_failing_rows(monkeypatch):
    monkeypatch.setattr(experiments, "variance_z",
                        _raising(NonConvergenceError("no convergence")))
    rows = {r.quantity_id: r for r in reproduce("s3")}
    for kind in ("mc", "km", "sld", "ld"):
        row = rows[f"var_z.{kind}"]
        assert math.isnan(row.computed_value)
        assert not row.passed
    assert rows["marginal.sld.disk"].passed
