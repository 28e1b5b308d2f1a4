"""End-to-end acceptance gate.

One test per criterion; each prints a single PASS/FAIL line (visible with
``pytest -rA`` or on failure) and then asserts.

Two published posterior divergences, D(p1 || Post(p0)) and
D(p1 || Post(p2)) on balanced6, do not reproduce: both are low by
E_p2[log L] - E_p1[log L], as if p1's expected log-likelihood had been
taken from p2.  Criterion 2 therefore requires exactly those two rows to
fail, each matching the package-independent mpmath oracle in oracles.py
and off from its published value by that offset.  The published
"p0 more noninformative than p1" ordering rests on the first of them, so
criterion 4 requires that comparison to be Inconclusive, for the reason
the verified value gives.
"""

import math

import numpy as np
import pytest

from blochpriors import (PRIOR_LABELS, Variant, Verdict, balanced_six,
                         check_monotone_function, generator, make_prior,
                         noninformativity_verdict, parse_record, posterior,
                         relative_entropy, repeat_sweep, reproduce,
                         variance_z)
from blochpriors.infotheory import VERDICT_MARGIN
from oracles import (ERRATA, normalization, record_evidence,
                     truncated_balanced6)

B6 = balanced_six()


def _report(criterion: int, label: str, ok: bool, detail: str = "") -> bool:
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"{status} criterion {criterion}: {label}{suffix}", flush=True)
    return ok


def _rows(cls):
    return [r for r in reproduce("all") if r.tolerance_class == cls]


def test_criterion_1_exact_rationals():
    rows = _rows("exact-rational")
    required = {"z.sld.balanced6", "z.km.balanced6", "gain.sld.balanced6",
                "gain.sld.zplus", "var_z.sld", "var_z.km", "var_z.ld",
                "norm.sld", "norm.ld"}
    assert required <= {r.quantity_id for r in rows}
    bad = [r.quantity_id for r in rows if not r.passed]
    ok = _report(1, "closed-form values within 1e-9 relative", not bad,
                 f"failing: {bad}" if bad else f"{len(rows)} rows")
    assert ok


def test_criterion_2_six_digit_values():
    # the nats-to-bits display factor is tracked as its own reproduction
    # row (the published 1.4227 is a typo for 1/log 2) and is not part of
    # this criterion's value list
    rows = [r for r in _rows("six-digit")
            if r.quantity_id != "units.nats_to_bits"]
    assert len(rows) >= 40
    failing = {r.quantity_id for r in rows if not r.passed}
    oracle = truncated_balanced6()
    offset = (oracle["e_log_l.p1.balanced6"]
              - oracle["e_log_l.p2.balanced6"])
    errata = [r for r in rows if r.quantity_id in ERRATA]
    off_oracle = [(r.quantity_id, r.computed_value, oracle[r.quantity_id])
                  for r in errata
                  if r.computed_value != pytest.approx(oracle[r.quantity_id],
                                                       rel=1e-8)]
    off_offset = [(r.quantity_id, r.paper_value - r.computed_value, offset)
                  for r in errata
                  if abs(r.paper_value - r.computed_value - offset) > 1e-5]
    _report(2, "published six-digit values within 1e-3 relative, the two "
            "errata verified",
            failing == ERRATA and not off_oracle and not off_offset,
            f"{len(rows)} rows; failing: {sorted(failing)}")
    assert failing == ERRATA, (
        "exactly the two erratum rows must miss their published values: "
        f"{sorted(failing)}")
    assert not off_oracle, (
        f"erratum rows disagree with the oracle at 1e-8: {off_oracle}")
    assert not off_offset, (
        "erratum rows are not off by E_p1[log L] - E_p2[log L] within "
        f"1e-5: {off_offset}")


def test_mc_six_digit_rows_have_closed_forms():
    """norm.mc and var_z.mc are published to six digits; their closed forms
    hold at the default config to 1e-12."""
    mc = make_prior("mc")
    assert mc.normalization == pytest.approx(1.0 / (2.0 * math.pi ** 4),
                                             rel=1e-12)
    assert variance_z(mc) == pytest.approx(
        1.0 / 6.0 + 4.0 / (3.0 * math.pi ** 2), rel=1e-12)


def test_criterion_3_crossover_radii():
    rows = [r for r in _rows("four-digit")
            if r.quantity_id.startswith("crossover.")]
    assert len(rows) == 4
    bad = [r.quantity_id for r in rows if not r.passed]
    ok = _report(3, "crossover radii within 5e-3 relative", not bad,
                 f"failing: {bad}" if bad else "4 radii")
    assert ok


def test_criterion_4_verdict_ordering():
    pri = {k: make_prior(k) for k in PRIOR_LABELS}
    first = Verdict.FIRST_MORE_NONINFORMATIVE
    required = [("mc", "km", Variant.PAPER), ("km", "sld", Variant.PAPER),
                ("mc", "sld", Variant.PAPER), ("mc", "ld", Variant.PAPER),
                ("p1", "p2", Variant.PAPER), ("p0", "p2", Variant.PAPER),
                ("mc", "km", Variant.CLARKE)]
    bad = []
    for a, b, variant in required:
        verdict = noninformativity_verdict(pri[a], pri[b], B6, variant).verdict
        if verdict is not first:
            bad.append((a, b, variant.value, verdict.value))
    # the published "p0 more noninformative than p1" rests on the erratum
    # D(p1 || Post(p0)); with the verified value the rule's first
    # inequality holds and its second fails
    rep = noninformativity_verdict(pri["p0"], pri["p1"], B6, Variant.PAPER)
    oracle = truncated_balanced6()["d.p1.post_p0.balanced6"]
    p0_p1_ok = (rep.verdict is Verdict.INCONCLUSIVE
                and rep.d_p_post_q > rep.d_pq + VERDICT_MARGIN
                and rep.d_q_post_p > rep.d_qp
                and rep.d_q_post_p == pytest.approx(oracle, rel=1e-8))
    # no pair may resolve in both directions
    both_ways = []
    full = ("sld", "km", "mc", "ld")
    trunc = ("p0", "p1", "p2")
    pairs = ([(a, b) for a in full for b in full if a < b]
             + [(a, b) for a in trunc for b in trunc if a < b])
    for a, b in pairs:
        for variant in (Variant.PAPER, Variant.CLARKE):
            fwd = noninformativity_verdict(pri[a], pri[b], B6, variant).verdict
            rev = noninformativity_verdict(pri[b], pri[a], B6, variant).verdict
            if fwd is first and rev is first:
                both_ways.append((a, b, variant.value))
    _report(4, "noninformativity orderings established, p0/p1 Inconclusive",
            not bad and not both_ways and p0_p1_ok,
            f"missing: {bad}" if bad else "all orderings")
    assert not both_ways
    assert not bad, f"required orderings do not hold: {bad}"
    assert p0_p1_ok, (
        "p0/p1 must be Inconclusive with D(p0 || Post(p1)) > D(p0 || p1) "
        "and the verified D(p1 || Post(p0)) = "
        f"{oracle:.6f} > D(p1 || p0): {rep.to_dict()}")


def test_criterion_5_property_suites():
    details = []

    # normalization of every prior and evidence of several posteriors, each
    # within 1e-12 relative of the package-independent oracle
    norm_ok = all(make_prior(kind).normalization
                  == pytest.approx(normalization(kind), rel=1e-12)
                  for kind in PRIOR_LABELS)
    for kind, rec, truth in (
            ("sld", B6, 71.0 / (64.0 * 192.0)),   # exact
            ("km", parse_record("Z+:2,X-:1"),
             record_evidence("km", {("Z", "+"): 2, ("X", "-"): 1})),
            ("p0", B6, 1.0 / truncated_balanced6()["z.p0.balanced6"])):
        norm_ok &= posterior(make_prior(kind), rec).evidence == pytest.approx(
            truth, rel=1e-12)
    details.append(("normalization 1e-12", norm_ok))

    # Gibbs inequality over all ordered built-in pairs with shared support
    full, trunc = ("sld", "km", "mc", "ld"), ("p0", "p1", "p2")
    shared = ([(a, b) for a in full for b in full if a != b]
              + [(a, b) for a in trunc for b in trunc if a != b])
    gibbs_ok = all(relative_entropy(make_prior(a), make_prior(b)) >= -1e-10
                   for a, b in shared)
    details.append((f"Gibbs over {len(shared)} shared pairs", gibbs_ok))

    # monotone-function identities; uniform-density generator flagged
    fn_ok = True
    for kind in ("sld", "km", "mc", "p0", "p1", "p2"):
        rep = check_monotone_function(generator(kind))
        fn_ok &= rep.normalized and rep.symmetric and rep.scalar_monotone
    ld_rep = check_monotone_function(generator("ld"))
    fn_ok &= (not ld_rep.normalized) and (not ld_rep.scalar_monotone)
    details.append(("function identities + non-monotone flag", fn_ok))

    # Bayes chain coherence within 1e-10
    p = make_prior("km")
    r1, r2 = parse_record("X+:1,Y-:1"), parse_record("Z+:2")
    chained = posterior(posterior(p, r1), r2)
    direct = posterior(p, r1 + r2)
    from blochpriors import BlochPoint
    pts = [BlochPoint(0.2, 0.1, -0.3), BlochPoint(0.0, 0.0, 0.8)]
    chain_ok = all(abs(chained.density_at(pt) - direct.density_at(pt)) <= 1e-10
                   for pt in pts)
    details.append(("Bayes chain coherence 1e-10", chain_ok))

    # discrete-grid oracle for the sld/km divergence
    from test_infotheory import _discrete_kl
    cont = relative_entropy(make_prior("sld"), make_prior("km"))
    oracle_ok = abs(_discrete_kl(80) - cont) <= 5e-3
    details.append(("discrete oracle 5e-3 at 80-cell grading", oracle_ok))

    # marginals
    from blochpriors import bivariate_marginal
    rng = np.random.default_rng(3)
    sld, p0 = make_prior("sld"), make_prior("p0")
    marg_ok = True
    for _ in range(20):
        rho = 0.95 * math.sqrt(rng.uniform())
        ang = rng.uniform(0.0, 2.0 * math.pi)
        x, y = rho * math.cos(ang), rho * math.sin(ang)
        marg_ok &= abs(bivariate_marginal(sld, x, y) - 1.0 / math.pi) <= 1e-6
        want = (1.0 - x * x - y * y) ** -0.5 / (2.0 * math.pi)
        marg_ok &= abs(bivariate_marginal(p0, x, y) - want) / want <= 1e-4
    details.append(("marginal closed forms", marg_ok))

    ok = all(flag for _, flag in details)
    _report(5, "property suites",
            ok, "; ".join(f"{name}={'ok' if flag else 'FAIL'}"
                          for name, flag in details))
    assert ok


def test_criterion_6_repeat_sweep_interior_minimum():
    sw = repeat_sweep(make_prior("ld"), make_prior("mc"), B6, 4)
    want = (0.559829, 0.310686, 0.307632, 0.529577)
    values_ok = all(abs(g - w) / w <= 1e-3
                    for g, w in zip(sw.statistics, want))
    ok = sw.argmin_k == 3 and values_ok
    _report(6, "repeat sweep interior minimum at k=3", ok,
            "values " + ", ".join(f"{v:.6f}" for v in sw.statistics))
    assert ok
