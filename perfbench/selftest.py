"""Self-tests of the benchmark's own parts (not of the package):

    python3 -m pytest -q perfbench/selftest.py

They cover the generator (deterministic, inputs inside the stated ranges),
the candidate-count formulas, the reference configuration (exact ``ld``
evidences and the exact-rational rows of the reproduction table), the
checker, and the agreement of ``BENCHMARK.json`` with what the benchmark
emits.  The file name keeps them out of the package's own test run.
"""

from __future__ import annotations

import json
import math
import sys
from fractions import Fraction
from itertools import product
from math import comb
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import check  # noqa: E402
import layertrace  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

N_CYCLES = 2


def _flags(op):
    return check.flags(op.key)


# --- generator -----------------------------------------------------------------

@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_generator_is_deterministic_per_seed(workload):
    a = workloads.first_ops(workload, 7, N_CYCLES)
    assert a == workloads.first_ops(workload, 7, N_CYCLES)
    assert a != workloads.first_ops(workload, 8, N_CYCLES)


def _cost_pattern(op):
    """What an operation's cost depends on, up to the seed's choices."""
    f = _flags(op)
    if op.kind == "search":
        return (f["constraint"], op.units, f["objective"])
    counts = sorted(workloads.parse_spec(f["record"]).values())
    family = "full" if f["p"] in workloads.FULL_BALL else "truncated"
    return (op.kind, tuple(counts), family)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_every_cycle_has_the_same_cost_pattern(workload):
    it = workloads.cycles(workload, 3)
    first = [_cost_pattern(op) for op in next(it)]
    for _ in range(3):
        cycle = next(it)
        assert [_cost_pattern(op) for op in cycle] == first
        assert sum(op.units for op in cycle) > 0


def _same_support(p, q):
    return p != q and ({p, q} <= set(workloads.FULL_BALL)
                       or {p, q} <= set(workloads.TRUNCATED))


@pytest.mark.parametrize("workload", ["paper-verdicts", "clarke-verdicts"])
@pytest.mark.parametrize("seed", [1, 2, 3])
def test_verdict_streams_stay_in_range(workload, seed):
    variant = "paper" if workload == "paper-verdicts" else "clarke"
    groups = []         # consecutive operations on one record
    for op in workloads.first_ops(workload, seed, N_CYCLES):
        f = _flags(op)
        counts = workloads.parse_spec(f["record"])
        assert 1 <= len(counts) <= 6
        assert 1 <= sum(counts.values()) <= workloads.MAX_TOTAL
        assert all(n >= 1 for n in counts.values())
        assert workloads.record_spec(counts) == f["record"]
        if not groups or groups[-1][0] != f["record"]:
            groups.append((f["record"], set()))
        if f["command"] == "compare":
            assert f["variant"] == variant
            assert _same_support(f["p"], f["q"])
            groups[-1][1].add((f["p"], f["q"]))
        else:
            assert workload == "clarke-verdicts" and f["command"] == "gain"
    assert {len(pairs) for _, pairs in groups} == {1, 2, 3, 4}
    totals = [sum(workloads.parse_spec(r).values()) for r, _ in groups]
    assert min(totals) <= 15 and max(totals) >= 76


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_search_stream_stays_in_range(seed):
    seen = set()
    for op in workloads.first_ops("record-search", seed, N_CYCLES):
        f = _flags(op)
        assert _same_support(f["p"], f["q"])
        assert 1 <= op.units <= 210
        assert op.units == workloads.candidate_count(f["constraint"],
                                                     int(f["max-total"]))
        seen.add((f["constraint"], f["objective"]))
    assert len(seen) == 4


def _enumerate(max_total, constraint):
    if constraint == "any":
        return {v for v in product(range(max_total + 1), repeat=6)
                if sum(v) <= max_total}
    return {(ux, m - ux, uy, m - uy, uz, m - uz)
            for m in range(max_total // 3 + 1)
            for ux, uy, uz in product(range(m + 1), repeat=3)}


@pytest.mark.parametrize("constraint,max_total",
                         [("any", n) for n in range(7)]
                         + [("balanced-axes", n) for n in range(15)])
def test_candidate_count_matches_enumeration(constraint, max_total):
    n = workloads.candidate_count(constraint, max_total)
    assert n == len(_enumerate(max_total, constraint))
    from blochpriors import experiments
    enum = getattr(experiments, "_enumerate_counts", None)
    if enum is not None:
        assert n == len(enum(max_total, constraint))


def test_candidate_count_any_is_binomial():
    assert [workloads.candidate_count("any", n) for n in range(5)] == \
        [comb(n + 6, 6) for n in range(5)]


# --- reference configuration ---------------------------------------------------

def _double_factorial(n):
    return math.prod(range(n, 0, -2)) if n > 0 else 1


def _axis_poly(up, down):
    """Coefficients of ((1+x)/2)^up ((1-x)/2)^down in powers of x."""
    c = [Fraction(0)] * (up + down + 1)
    for a in range(up + 1):
        for b in range(down + 1):
            c[a + b] += Fraction(comb(up, a) * comb(down, b) * (-1) ** b)
    return [x / 2 ** (up + down) for x in c]


def exact_ld_evidence(counts: dict) -> Fraction:
    """Evidence of the uniform prior ``ld`` on the unit ball, as a rational.

    Expands the likelihood in monomials x^i y^j z^k and integrates each over
    the ball of density 3/(4 pi): only even exponents survive, giving
    3 (i-1)!!(j-1)!!(k-1)!! / ((n+1)!! (n+3)) with n = i+j+k.
    """
    px, py, pz = (_axis_poly(counts.get((a, "+"), 0), counts.get((a, "-"), 0))
                  for a in "XYZ")
    total = Fraction(0)
    for i in range(0, len(px), 2):
        for j in range(0, len(py), 2):
            cij = px[i] * py[j]
            if not cij:
                continue
            for k in range(0, len(pz), 2):
                n = i + j + k
                moment = Fraction(_double_factorial(i - 1) * _double_factorial(j - 1)
                                  * _double_factorial(k - 1),
                                  _double_factorial(n + 1) * (n + 3))
                total += cij * pz[k] * moment
    return 3 * total


LD_RECORDS = ["Z+:1", "X+:1,X-:1,Y+:1,Y-:1,Z+:1,Z-:1", "X+:20,Y-:20",
              "X+:4,X-:9,Y+:1,Y-:4,Z+:9,Z-:21", "X+:7,X-:15,Y+:7,Y-:12,Z+:19,Z-:30",
              "Z-:90"]


def test_exact_ld_evidence_closed_forms():
    # one measurement: 1/2 by symmetry
    assert exact_ld_evidence({("Z", "+"): 1}) == Fraction(1, 2)
    # (1+z)^n/2^n averaged over the uniform ball, checked by direct sum
    n = 5
    direct = Fraction(3, 2 ** n) * sum(
        comb(n, k) * Fraction(1, (k + 1) * (k + 3)) for k in range(0, n + 1, 2))
    assert exact_ld_evidence({("Z", "+"): n}) == direct


@pytest.mark.parametrize("spec", LD_RECORDS)
def test_reference_config_reproduces_exact_ld_evidence(spec):
    import make_reference as mr
    from blochpriors import evidence, make_prior, parse_record
    exact = float(exact_ld_evidence(workloads.parse_spec(spec)))
    ld = make_prior("ld", cfg=mr.REFERENCE_CONFIG)
    got = evidence(ld, parse_record(spec), mr.REFERENCE_CONFIG)
    # measured: <= 2e-13 relative (Z-:90); the check needs 1e-9
    assert abs(got - exact) <= 1e-12 * exact


def test_default_config_misses_exact_ld_evidence_at_large_totals():
    """The known defect the verdict workloads show: the default absolute
    tolerance exceeds the evidence of large records."""
    from blochpriors import evidence, make_prior, parse_record
    spec = "X+:7,X-:15,Y+:7,Y-:12,Z+:19,Z-:30"
    exact = float(exact_ld_evidence(workloads.parse_spec(spec)))
    got = evidence(make_prior("ld"), parse_record(spec))
    assert abs(got - exact) > 1e-9 * exact


def test_reference_config_reproduces_exact_rational_rows():
    import make_reference as mr
    rows = [r for r in mr.reproduce_rows()
            if r.tolerance_class == "exact-rational"]
    assert len(rows) == 12
    # measured: <= 2e-11 (gain.sld.balanced6, limited by the 400-node log
    # rule); ten times inside the 1e-9 the benchmark checks values to
    for r in rows:
        assert r.rel_diff <= 1e-10, r.quantity_id


def test_stored_reference_covers_both_seeds():
    for workload in workloads.WORKLOADS:
        ref = check.load_reference(workload)
        assert ref is not None, workload
        assert ref["config"] == {"rel_tol": 1e-12, "abs_tol": 1e-300}
        assert ref["cycles"] == workloads.RUN_CYCLES[workload]
        assert set(ref["seeds"]) == {"1", "2"}
        for seed, n in ref["seeds"].items():
            ops = workloads.first_ops(workload, int(seed), ref["cycles"])
            assert len(ops) == n
            assert all(op.key in ref["ops"] for op in ops)


# --- checker and summaries -------------------------------------------------------

def test_tail_has_ten_ops_beyond_it():
    lat = list(range(100))
    value, pct, beyond = run.tail(lat)
    assert sum(1 for x in lat if x > value) == beyond == 10 and pct == 90.0
    assert run.tail([3, 1, 2]) == (3, 100.0, 0)


GAIN_KEY = "gain --p ld --record Z-:90 --format json"
COMPARE_KEY = ("compare --p ld --q km --record Z-:90 --variant paper "
               "--format json")


def _gain_case(value, baseline=None):
    entry = {"information_gain": 2.0}
    if baseline is not None:
        entry["baseline"] = {"information_gain": baseline}
    out = json.dumps({"information_gain": value, "units": "nats"})
    return check.check_op(GAIN_KEY, 0, out, entry)[0]


def test_checker_classifies_values():
    assert _gain_case(2.0 + 1e-12) == "pass"
    # a miss the baseline made too, no larger than the baseline's
    assert _gain_case(2.1, baseline=2.1) == "inaccurate"
    assert _gain_case(1.95, baseline=2.1) == "inaccurate"
    # a larger miss, or one the baseline did not make
    assert _gain_case(2.2, baseline=2.1) == "fail"
    assert _gain_case(2.1) == "fail"
    assert _gain_case(-1.0, baseline=-1.0) == "fail"
    assert check.check_op(GAIN_KEY, 1, "", None)[0] == "fail"


def _compare_case(verdict, baseline_verdict=None):
    values = {"d_pq": 0.1, "d_qp": 0.2, "d_p_post_q": 3.0, "d_q_post_p": 4.0}
    entry = dict(values, verdict="Inconclusive")
    if baseline_verdict is not None:
        entry["baseline"] = {"verdict": baseline_verdict}
    out = json.dumps(dict(values, pair="ld/km", record="Z-:90",
                          variant="paper", verdict=verdict, units="nats"))
    return check.check_op(COMPARE_KEY, 0, out, entry)[0]


def test_checker_classifies_verdicts():
    assert _compare_case("Inconclusive") == "pass"
    flip = "FirstMoreNoninformative"
    assert _compare_case(flip, baseline_verdict=flip) == "inaccurate"
    assert _compare_case(flip) == "fail"
    assert _compare_case("SecondMoreNoninformative",
                         baseline_verdict=flip) == "fail"


def test_stored_seed_fails_an_op_missing_from_the_reference():
    out = json.dumps({"information_gain": 2.0, "units": "nats"})
    doc = {"ops": [[GAIN_KEY, 1, 0, out, "", 0.1]]}
    stored = run.check_run("clarke-verdicts", 1, [doc])
    assert stored["hard_failures"] == 1 and not stored["correct"]
    unchecked = run.check_run("clarke-verdicts", 999, [doc])
    assert unchecked["correct"] and unchecked["referenced"] == 0


def test_units_per_s_is_the_median_over_cycles():
    doc = {"ops": [["k", 1, 0, "", "", 0.5]] * 6, "elapsed_s": 6.0,
           "cycles": [[2, 1.0], [2, 4.0], [2, 2.0]], "peak_rss_mb": 1.0}
    assert run.run_summary(doc)["units_per_s"] == 1.0


def test_seconds_must_match_benchmark_json(capsys):
    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert run.main(["--workload", "paper-verdicts", "--seed", "1",
                     "--seconds", str(bench["run_seconds"] + 1)]) == 1
    assert "run_seconds" in capsys.readouterr().err


def test_benchmark_json_matches_emitted_metrics():
    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in bench["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"] for m in bench["end_to_end"]} == {
        "setup_s", "units_per_s", "op_p50_ms", "op_tail_ms", "peak_rss_mb"}
    known = set(layertrace.TRACED) | {
        f"infotheory.relative_entropy_vs_posterior.{s}"
        for s in layertrace.SIDE_NAMES.values()}
    for m in bench["per_layer"]:
        name = m["name"]
        assert len(name) <= 64
        base, _, field = name.rpartition(".")
        if name.startswith("cache."):
            assert field in ("hits", "misses", "hit_ratio")
        elif field in ("calls", "self_s"):
            assert base in known, name
        else:
            assert name in ("quadrature.evals", "experiments.candidates",
                            "experiments.ms_per_candidate",
                            "trace.overhead_pct"), name


# --- layer trace -----------------------------------------------------------------

def test_tracer_restores_names_and_reports_absent(monkeypatch):
    import blochpriors
    import blochpriors.cli  # noqa: F401  (traced too)
    from blochpriors import infotheory, measurement, priors, quadrature
    originals = {(m.__name__, a): getattr(m, a)
                 for m in layertrace.package_modules()
                 for a in ("quad_s", "evidence", "make_prior")
                 if hasattr(m, a)}
    monkeypatch.setitem(layertrace.TRACED, "measurement.removed_function",
                        ("measurement", "removed_function"))
    with layertrace.Tracer() as tracer:
        for mod in (priors, measurement, infotheory):
            assert mod.quad_s is quadrature.quad_s
            assert mod.quad_s.__wrapped__ is originals[
                ("blochpriors.quadrature", "quad_s")]
        assert infotheory.evidence is measurement.evidence
        assert infotheory.evidence.__wrapped__ is originals[
            ("blochpriors.measurement", "evidence")]
        p = blochpriors.make_prior("km")
        blochpriors.information_gain(p, blochpriors.parse_record("Z+:1"))
    assert tracer.absent == {"measurement.removed_function"}
    for (mod_name, attr), fn in originals.items():
        assert getattr(sys.modules[mod_name], attr) is fn
    totals = tracer.totals()
    assert totals["infotheory.information_gain"][0] == 1
    calls, incl, self_s = totals["priors.make_prior"]
    assert calls == 1 and 0.0 <= self_s <= incl


def test_self_time_subtracts_children():
    tracer = layertrace.Tracer()
    for name, parent, start, end in [("a", -1, 0.0, 10.0), ("b", 0, 1.0, 4.0),
                                     ("b", 0, 5.0, 6.0), ("c", 1, 2.0, 3.0)]:
        tracer.name_id.append(tracer._id(name))
        tracer.parent.append(parent)
        tracer.start.append(start)
        tracer.end.append(end)
    totals = tracer.totals()
    assert totals["a"] == [1, 10.0, 6.0]
    assert totals["b"] == [2, 4.0, 3.0]
    assert totals["c"] == [1, 1.0, 1.0]
