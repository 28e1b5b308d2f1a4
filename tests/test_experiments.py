"""Sweeps, record search and the reproduction table."""

import json
import time
from itertools import product

import pytest

from blochpriors import (balanced_six, make_prior, parse_record,
                         relative_entropy, repeat_sweep, reproduce,
                         rows_to_csv, rows_to_json, search_min_record)
from blochpriors.errors import BudgetExceededError
from blochpriors.experiments import _candidate_count, _enumerate_counts

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
    with pytest.raises(BudgetExceededError):
        search_min_record(p, q, 6, "any", candidate_cap=10)


def test_search_budget_checked_before_enumeration():
    # C(36, 6) = 1947792 candidates: the cap must trip before any is built
    p, q = make_prior("km"), make_prior("sld")
    start = time.perf_counter()
    with pytest.raises(BudgetExceededError):
        search_min_record(p, q, 30, "any")
    assert time.perf_counter() - start < 5.0


@pytest.mark.parametrize("constraint", ["any", "balanced-axes"])
@pytest.mark.parametrize("max_total", range(7))
def test_enumeration_matches_product_filter(constraint, max_total):
    want = {v for v in product(range(max_total + 1), repeat=6)
            if sum(v) <= max_total and (constraint == "any"
                                        or v[0] + v[1] == v[2] + v[3]
                                        == v[4] + v[5])}
    got = _enumerate_counts(max_total, constraint)
    assert len(got) == _candidate_count(max_total, constraint)
    assert set(got) == want
    assert len(got) == len(want)


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


def test_csv_and_json_emitters():
    rows = reproduce("s3")
    csv_text = rows_to_csv(rows)
    lines = csv_text.strip().split("\n")
    assert lines[0] == "quantity_id,paper_value,computed,abs_diff,rel_diff,class,pass"
    assert len(lines) == len(rows) + 1
    parsed = json.loads(rows_to_json(rows))
    assert len(parsed) == len(rows)
    assert {"quantity_id", "paper_value", "computed", "abs_diff",
            "rel_diff", "class", "pass"} <= set(parsed[0])
