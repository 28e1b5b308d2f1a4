"""Reproduction table, repeat sweeps and small measurement-set search.

The reproduction table recomputes every published figure this package
models and reports pass/fail per row against a tolerance class:

* ``exact-rational``: values forced analytically (closed forms), 1e-9;
* ``six-digit``: figures quoted to six significant digits, 1e-3 relative;
* ``four-digit``: figures quoted to about four digits, 5e-3 relative.

Two published prior-vs-posterior divergences for the truncated family
(quantities ``d.p1.post_p0.balanced6`` and ``d.p1.post_p2.balanced6``) do
not reproduce and are reported as failing rows; see the README for the
analysis (the published pair is off by a common additive constant
consistent with an expected-log-likelihood computed under the wrong
prior).
"""

from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import dataclass
from itertools import product

import numpy as np

from .errors import BudgetExceededError
from . import infotheory
from .infotheory import (NATS_TO_BITS, PosteriorSide, _posterior_vs_prior,
                         _prior_vs_posterior, crossover_radius,
                         density_ratio_at, information_gain,
                         relative_entropy, relative_entropy_vs_posterior,
                         variance_z)
from .measurement import (MeasurementRecord, _direction_grid, balanced_six,
                          evidence, parse_record)
from .priors import DEFAULT_TRUNCATION_RADIUS, PriorDensity, make_prior
from .quadrature import DEFAULT_CONFIG, QuadratureConfig

__all__ = [
    "SweepResult",
    "repeat_sweep",
    "search_min_record",
    "ReproductionRow",
    "reproduce",
    "rows_to_csv",
    "rows_to_json",
]

_TOLERANCES = {"exact-rational": 1e-9, "six-digit": 1e-3, "four-digit": 5e-3}


@dataclass(frozen=True)
class SweepResult:
    k_values: tuple
    statistics: tuple
    argmin_k: int


def repeat_sweep(p: PriorDensity, q: PriorDensity, base: MeasurementRecord,
                 k_max: int, cfg: QuadratureConfig = DEFAULT_CONFIG) -> SweepResult:
    """D(p || Posterior(q, k copies of base)) for k = 1..k_max."""
    if k_max < 1:
        raise ValueError("k_max must be >= 1")
    ks = tuple(range(1, k_max + 1))
    stats = tuple(
        relative_entropy_vs_posterior(p, q, base.repeat(k),
                                      PosteriorSide.SECOND_IS_POSTERIOR, cfg)
        for k in ks)
    return SweepResult(ks, stats, ks[int(np.argmin(stats))])


# --- fast fixed-grid objective for record enumeration ------------------------

class _RecordObjective:
    """Evaluates one divergence objective over many candidate records.

    All radial and angular nodes are precomputed once; each record then
    costs a handful of vectorized array operations.  Used only to *rank*
    candidates; the winner's value is recomputed with the adaptive
    integrator.
    """

    _N_S = 160

    def __init__(self, p: PriorDensity, q: PriorDensity, objective: str,
                 cfg: QuadratureConfig):
        self.p, self.q, self.objective, self.cfg = p, q, objective, cfg
        R = p.support_radius
        S = 120.0 if R >= 1.0 else math.log((1.0 + R) / (1.0 - R))
        x, w = np.polynomial.legendre.leggauss(self._N_S)
        s = 0.5 * S * (x + 1.0)
        gw = 0.5 * S * w
        jac = 0.5 / np.cosh(s / 2.0) ** 2
        self.r = np.tanh(s / 2.0)
        gp = np.array([p.profile.value_s(v) for v in s])
        gq = np.array([q.profile.value_s(v) for v in s])
        self.wp = p.normalization * gp * jac * gw
        self.wq = q.normalization * gq * jac * gw
        self.log_ratio = np.array(
            [p.log_radial_density_s(v) - q.log_radial_density_s(v) for v in s])

        dirs, wang, _ = _direction_grid()
        self.wang = wang[None, :, :]
        r3 = self.r[:, None, None]
        self.log_terms = {}
        for a in ("X", "Y", "Z"):
            d = dirs[a][None, :, :]
            self.log_terms[(a, "+")] = np.log1p(r3 * d) - math.log(2.0)
            self.log_terms[(a, "-")] = np.log1p(-r3 * d) - math.log(2.0)

        self.d_pq = relative_entropy(p, q, cfg)
        # mean log-likelihood contribution of a single measurement under p
        self.per_count_log = (
            infotheory._expected_log_likelihood(
                p, MeasurementRecord((("Z", "+", 1),)), cfg))

    def value(self, counts: dict) -> float:
        if not any(counts.values()):
            return self.d_pq
        log_lik = None
        for key, n in counts.items():
            if n:
                term = n * self.log_terms[key]
                log_lik = term if log_lik is None else log_lik + term
        lik = np.exp(log_lik)
        ang = (self.wang * lik).sum(axis=(1, 2))
        if self.objective == "prior-vs-posterior":
            Zq = float((self.wq * ang).sum())
            N = sum(counts.values())
            return _prior_vs_posterior(self.d_pq, N * self.per_count_log, Zq)
        Zp = float((self.wp * ang).sum())
        e_ratio = float((self.wp * ang * self.log_ratio).sum())
        e_ll = float((self.wp * (self.wang * lik * log_lik)
                      .sum(axis=(1, 2))).sum())
        return _posterior_vs_prior(e_ratio + e_ll, Zp)

    def exact_value(self, rec: MeasurementRecord) -> float:
        if not rec.counts:
            return self.d_pq
        if self.objective == "prior-vs-posterior":
            return relative_entropy_vs_posterior(
                self.p, self.q, rec, PosteriorSide.SECOND_IS_POSTERIOR,
                self.cfg)
        return relative_entropy_vs_posterior(
            self.p, self.q, rec, PosteriorSide.FIRST_IS_POSTERIOR, self.cfg)


_KEYS = tuple((a, s) for a in ("X", "Y", "Z") for s in ("+", "-"))


def _compositions(parts: int, budget: int):
    """Every ``parts``-tuple of nonnegative integers summing to <= budget."""
    if parts == 0:
        yield ()
        return
    for first in range(budget + 1):
        for rest in _compositions(parts - 1, budget - first):
            yield (first,) + rest


def _candidate_count(max_total: int, constraint: str) -> int:
    """len(_enumerate_counts(max_total, constraint)), in closed form."""
    if constraint == "any":
        return math.comb(max_total + 6, 6)
    if constraint == "balanced-axes":
        return sum((m + 1) ** 3 for m in range(max_total // 3 + 1))
    raise ValueError(f"unknown constraint {constraint!r}")


def _enumerate_counts(max_total: int, constraint: str) -> list:
    """Count vectors over (X+, X-, Y+, Y-, Z+, Z-) with total <= max_total."""
    if constraint == "any":
        return list(_compositions(6, max_total))
    if constraint == "balanced-axes":
        return [(ux, m - ux, uy, m - uy, uz, m - uz)
                for m in range(max_total // 3 + 1)
                for ux, uy, uz in product(range(m + 1), repeat=3)]
    raise ValueError(f"unknown constraint {constraint!r}")


def search_min_record(p: PriorDensity, q: PriorDensity, max_total: int,
                      constraint: str = "balanced-axes",
                      objective: str = "posterior-vs-prior",
                      cfg: QuadratureConfig = DEFAULT_CONFIG,
                      candidate_cap: int = 200_000):
    """Minimize a divergence objective over measurement records.

    ``objective`` selects D(Posterior(p, rec) || q) ("posterior-vs-prior",
    default) or D(p || Posterior(q, rec)) ("prior-vs-posterior").  Records
    with total count up to ``max_total`` are enumerated exhaustively;
    ``constraint="balanced-axes"`` keeps the per-axis totals equal.  Ties
    are broken toward smaller total count, then lexicographic order.
    Returns ``(record, value)``.
    """
    if max_total < 0:
        raise ValueError(f"max_total must be >= 0, got {max_total}")
    if max_total > 30:
        raise ValueError("enumeration bound is 30 total measurements")
    if objective not in ("posterior-vs-prior", "prior-vs-posterior"):
        raise ValueError(f"unknown objective {objective!r}")
    infotheory._check_common_support(p, q)
    n = _candidate_count(max_total, constraint)
    if n > candidate_cap:
        raise BudgetExceededError(
            f"{n} candidate records exceed the cap {candidate_cap}")
    vectors = _enumerate_counts(max_total, constraint)
    obj = _RecordObjective(p, q, objective, cfg)
    values = [obj.value(dict(zip(_KEYS, vec))) for vec in vectors]
    best_val = min(values)
    # ties within grid tolerance break toward smaller total, then lexicographic
    tol = 1e-10 + 1e-9 * abs(best_val)
    near = sorted((sum(v), v) for v, val in zip(vectors, values)
                  if abs(val - best_val) <= tol)
    vec = near[0][1]
    rec = MeasurementRecord.from_counts(
        {k: n for k, n in zip(_KEYS, vec) if n})
    return rec, obj.exact_value(rec)


# --- reproduction table -------------------------------------------------------

@dataclass(frozen=True)
class ReproductionRow:
    quantity_id: str
    paper_value: float
    computed_value: float
    abs_diff: float
    rel_diff: float
    tolerance_class: str
    passed: bool

    def to_dict(self) -> dict:
        return {
            "quantity_id": self.quantity_id,
            "paper_value": self.paper_value,
            "computed": self.computed_value,
            "abs_diff": self.abs_diff,
            "rel_diff": self.rel_diff,
            "class": self.tolerance_class,
            "pass": self.passed,
        }


def _row(qid: str, published: float, computed: float, cls: str) -> ReproductionRow:
    abs_diff = abs(computed - published)
    rel_diff = abs_diff / abs(published) if published else abs_diff
    return ReproductionRow(qid, published, computed, abs_diff, rel_diff,
                           cls, rel_diff <= _TOLERANCES[cls])


def _registry(cfg: QuadratureConfig):
    """(table, quantity_id, published value, tolerance class, thunk)."""
    pri = {k: make_prior(k, cfg=cfg) for k in
           ("sld", "km", "mc", "ld", "p0", "p1", "p2")}
    b6 = balanced_six()
    pv = PosteriorSide.SECOND_IS_POSTERIOR
    cl = PosteriorSide.FIRST_IS_POSTERIOR

    def d(a, b):
        return lambda: relative_entropy(pri[a], pri[b], cfg)

    def dpost(a, b, side, k=1):
        return lambda: relative_entropy_vs_posterior(
            pri[a], pri[b], b6.repeat(k), side, cfg)

    def zfac(a, rec=b6):
        return lambda: 1.0 / evidence(pri[a], rec, cfg)

    zup = parse_record("Z+:1")
    rows = [
        # priors and normalization constants
        ("s21", "norm.sld", 1.0 / math.pi ** 2, "exact-rational",
         lambda: pri["sld"].normalization),
        ("s21", "norm.km", 1.0 / (4.0 * math.pi ** 2), "exact-rational",
         lambda: pri["km"].normalization),
        ("s22", "norm.mc", 0.00513299, "six-digit",
         lambda: pri["mc"].normalization),
        ("s22", "norm.ld", 3.0 / (4.0 * math.pi), "exact-rational",
         lambda: pri["ld"].normalization),
        ("s23", "norm.p0", 1.12542e-6, "six-digit",
         lambda: pri["p0"].normalization),
        ("s23", "norm.p1", 5.69121e-4, "six-digit",
         lambda: pri["p1"].normalization),
        ("s23", "norm.p2", 5.13611e-3, "six-digit",
         lambda: pri["p2"].normalization),
        # prior-vs-prior divergences
        ("s21", "d.sld.km", 0.0891523, "six-digit", d("sld", "km")),
        ("s21", "d.km.sld", 0.0975976, "six-digit", d("km", "sld")),
        ("s22", "d.km.mc", 0.112421, "six-digit", d("km", "mc")),
        ("s22", "d.mc.km", 0.117982, "six-digit", d("mc", "km")),
        ("s22", "d.sld.mc", 0.388323, "six-digit", d("sld", "mc")),
        ("s22", "d.mc.sld", 0.445981, "six-digit", d("mc", "sld")),
        ("s22", "d.ld.mc", 1.07895, "six-digit", d("ld", "mc")),
        ("s22", "d.mc.ld", 1.98719, "six-digit", d("mc", "ld")),
        ("s23", "d.p0.p1", 0.867442, "six-digit", d("p0", "p1")),
        ("s23", "d.p0.p2", 5.76086, "six-digit", d("p0", "p2")),
        ("s23", "d.p1.p0", 1.654, "four-digit", d("p1", "p0")),
        ("s23", "d.p1.p2", 2.37198, "six-digit", d("p1", "p2")),
        ("s23", "d.p2.p0", 7.06816, "six-digit", d("p2", "p0")),
        ("s23", "d.p2.p1", 1.52109, "six-digit", d("p2", "p1")),
        # posterior normalization factors (reciprocal evidences), balanced6
        ("s21", "z.sld.balanced6", 64.0 * 192.0 / 71.0, "exact-rational",
         zfac("sld")),
        ("s21", "z.km.balanced6", 64.0 * 19600.0 / 6047.0, "exact-rational",
         zfac("km")),
        ("s23", "z.p0.balanced6", 335.987, "six-digit", zfac("p0")),
        ("s23", "z.p1.balanced6", 327.546, "six-digit", zfac("p1")),
        ("s23", "z.p2.balanced6", 249.378, "six-digit", zfac("p2")),
        # prior vs posterior, published variant
        ("s21", "d.sld.post_km.balanced6", 0.0720681, "six-digit",
         dpost("sld", "km", pv)),
        ("s21", "d.km.post_sld.balanced6", 0.457259, "six-digit",
         dpost("km", "sld", pv)),
        ("s21", "d.sld.post_km.balanced6x2", 0.334699, "six-digit",
         dpost("sld", "km", pv, k=2)),
        ("s22", "d.km.post_mc.balanced6", 0.106655, "six-digit",
         dpost("km", "mc", pv)),
        ("s22", "d.mc.post_km.balanced6", 0.482023, "six-digit",
         dpost("mc", "km", pv)),
        ("s22", "d.sld.post_mc.balanced6", 0.186964, "six-digit",
         dpost("sld", "mc", pv)),
        ("s22", "d.mc.post_sld.balanced6", 0.991175, "six-digit",
         dpost("mc", "sld", pv)),
        ("s22", "d.ld.post_mc.balanced6", 0.559829, "six-digit",
         dpost("ld", "mc", pv)),
        ("s22", "d.mc.post_ld.balanced6", 2.79851, "six-digit",
         dpost("mc", "ld", pv)),
        ("s23", "d.p0.post_p1.balanced6", 1.07576, "six-digit",
         dpost("p0", "p1", pv)),
        ("s23", "d.p0.post_p2.balanced6", 6.24184, "six-digit",
         dpost("p0", "p2", pv)),
        ("s23", "d.p1.post_p0.balanced6", 1.53564, "six-digit",
         dpost("p1", "p0", pv)),
        ("s23", "d.p1.post_p2.balanced6", 2.55172, "six-digit",
         dpost("p1", "p2", pv)),
        ("s23", "d.p2.post_p0.balanced6", 6.94979, "six-digit",
         dpost("p2", "p0", pv)),
        ("s23", "d.p2.post_p1.balanced6", 1.42817, "six-digit",
         dpost("p2", "p1", pv)),
        # posterior vs prior (position-exchanged statistics)
        ("s21", "clarke.post_km.sld.balanced6", 0.0603743, "six-digit",
         dpost("km", "sld", cl)),
        ("s21", "clarke.post_sld.km.balanced6", 0.399442, "six-digit",
         dpost("sld", "km", cl)),
        ("s22", "clarke.post_mc.km.balanced6", 0.0910048, "six-digit",
         dpost("mc", "km", cl)),
        ("s22", "clarke.post_km.mc.balanced6", 0.452794, "six-digit",
         dpost("km", "mc", cl)),
        # information gains
        ("s21", "gain.km.balanced6", 0.151575, "six-digit",
         lambda: information_gain(pri["km"], b6, cfg)),
        ("s21", "gain.sld.balanced6",
         4693.0 / 1420.0 + math.log(3.0 / 71.0), "exact-rational",
         lambda: information_gain(pri["sld"], b6, cfg)),
        ("s21", "gain.km.zplus", 0.157404, "six-digit",
         lambda: information_gain(pri["km"], zup, cfg)),
        ("s21", "gain.sld.zplus", 5.0 / 6.0 - math.log(2.0), "exact-rational",
         lambda: information_gain(pri["sld"], zup, cfg)),
        # repeat sweep values beyond k=1 (k=1 values are the rows above)
        ("s22", "sweep.ld.mc.balanced6.k2", 0.310686, "six-digit",
         dpost("ld", "mc", pv, k=2)),
        ("s22", "sweep.ld.mc.balanced6.k3", 0.307632, "six-digit",
         dpost("ld", "mc", pv, k=3)),
        ("s22", "sweep.ld.mc.balanced6.k4", 0.529577, "six-digit",
         dpost("ld", "mc", pv, k=4)),
        # crossover radii of normalized radial densities
        ("s21", "crossover.km.sld", 0.957504, "four-digit",
         lambda: crossover_radius(pri["km"], pri["sld"])),
        ("s22", "crossover.mc.km", 0.9846, "four-digit",
         lambda: crossover_radius(pri["mc"], pri["km"])),
        ("s22", "crossover.mc.sld", 0.973932, "four-digit",
         lambda: crossover_radius(pri["mc"], pri["sld"])),
        ("s22", "crossover.mc.ld", 0.948724, "four-digit",
         lambda: crossover_radius(pri["mc"], pri["ld"])),
        # boundary density ratios at the truncation radius
        ("s23", "ratio.p0.p1.at_R", 5.89521, "six-digit",
         lambda: density_ratio_at(pri["p0"], pri["p1"],
                                  DEFAULT_TRUNCATION_RADIUS)),
        ("s23", "ratio.p0.p2.at_R", 1947.41, "six-digit",
         lambda: density_ratio_at(pri["p0"], pri["p2"],
                                  DEFAULT_TRUNCATION_RADIUS)),
        ("s23", "ratio.p1.p2.at_R", 330.338, "six-digit",
         lambda: density_ratio_at(pri["p1"], pri["p2"],
                                  DEFAULT_TRUNCATION_RADIUS)),
        # second moments of z
        ("s3", "var_z.mc", 0.301762, "six-digit",
         lambda: variance_z(pri["mc"], cfg)),
        ("s3", "var_z.km", 5.0 / 18.0, "exact-rational",
         lambda: variance_z(pri["km"], cfg)),
        ("s3", "var_z.sld", 0.25, "exact-rational",
         lambda: variance_z(pri["sld"], cfg)),
        ("s3", "var_z.ld", 0.2, "exact-rational",
         lambda: variance_z(pri["ld"], cfg)),
        # marginal and conditional spot values
        ("s3", "marginal.sld.disk", 1.0 / math.pi, "exact-rational",
         lambda: infotheory.bivariate_marginal(pri["sld"], 0.3, 0.2, cfg)),
        ("s3", "marginal.p0.origin", 1.0 / (2.0 * math.pi), "four-digit",
         lambda: infotheory.bivariate_marginal(pri["p0"], 0.0, 0.0, cfg)),
        ("s3", "conditional.x0", 1.0 / math.pi, "exact-rational",
         lambda: infotheory.conditional_x(pri["p0"], 0.0)),
        # the published nats-to-bits factor (1.4227) disagrees with
        # 1/log 2; the correct constant is computed, so this row fails
        ("s21", "units.nats_to_bits", 1.4227, "six-digit",
         lambda: NATS_TO_BITS),
    ]
    return rows


def reproduce(table: str = "all",
              cfg: QuadratureConfig = DEFAULT_CONFIG) -> list:
    """Recompute the published quantities of one section (or all of them)."""
    if table not in ("all", "s21", "s22", "s23", "s3"):
        raise ValueError(f"unknown table {table!r}")
    rows = []
    for tbl, qid, published, cls, thunk in _registry(cfg):
        if table != "all" and tbl != table:
            continue
        try:
            computed = float(thunk())
        except Exception:
            computed = float("nan")
        rows.append(_row(qid, published, computed, cls))
    rows.sort(key=lambda r: r.quantity_id)
    return rows


def rows_to_csv(rows) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["quantity_id", "paper_value", "computed",
                     "abs_diff", "rel_diff", "class", "pass"])
    for r in rows:
        writer.writerow([r.quantity_id, repr(r.paper_value),
                         repr(r.computed_value), repr(r.abs_diff),
                         repr(r.rel_diff), r.tolerance_class,
                         str(r.passed).lower()])
    return buf.getvalue()


def rows_to_json(rows, **kw) -> str:
    return json.dumps([r.to_dict() for r in rows], **kw)
