"""Seeded operation streams for the three benchmark workloads.

Every operation is one ``blochpriors`` command line (without the program
name).  A stream is an endless sequence of cycles, each a list of
operations, and is a deterministic function of its workload name and seed.
Every cycle of a workload has the same cost pattern (record shapes, pairs
per record, candidate-count classes and objectives, in a fixed order); the
seed picks the priors, the pairs and the orientation of each record, anew
in every cycle.  A run measures the first RUN_CYCLES cycles, so the
operations it times are the same whatever the program's speed.

This module imports nothing from the package under test.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from itertools import permutations
from math import comb

WORKLOADS = ("paper-verdicts", "clarke-verdicts", "record-search")

FULL_BALL = ("sld", "km", "mc", "ld")
TRUNCATED = ("p0", "p1", "p2")
FAMILIES = {"full": FULL_BALL, "truncated": TRUNCATED}
# ordered pairs that share a support radius: 12 on the full ball, 6 truncated
PAIRS = {name: tuple(permutations(members, 2))
         for name, members in FAMILIES.items()}
# a uniformly drawn shared-support pair lies on the full ball 12 times in 18
FAMILY_CYCLE = ("full", "truncated", "full")

# (axis, sign) in the order the package writes record specs
KEYS = tuple((a, s) for a in "XYZ" for s in "+-")

MAX_TOTAL = 90          # below the 95-count exactness limit of the 48-node rule
BUCKET = 15
MAX_PAIRS_PER_RECORD = 4
# outcome counts of one round's records; cheap and dear alternate
SHAPES = (1, 6, 2, 5, 3, 4)
# rounds in a paper-verdicts cycle: every outcome count meets every total
# bucket, pair count and family (lcm of 6, 4 and 3)
PAPER_ROUNDS = 12

# record-search cycle: (constraint, size, objective), where size is the max
# total for ``any`` and the per-axis total for ``balanced-axes``.  Two tiny
# (1 candidate), three small (7-9), two mid (36) and two big (210 and 100)
# searches: the median falls among the small ones and, for 3 to 5 cycles a
# run, the tail (ten operations beyond it) among the mid ones.  Both
# objectives meet both constraints.  A 1-candidate search returns the empty
# record, so its posterior-vs-prior winner costs nothing to recompute.
SEARCH_CYCLE = (
    ("any", 0, "posterior-vs-prior"),
    ("any", 1, "prior-vs-posterior"),
    ("balanced-axes", 2, "prior-vs-posterior"),
    ("any", 4, "posterior-vs-prior"),
    ("balanced-axes", 0, "posterior-vs-prior"),
    ("balanced-axes", 1, "prior-vs-posterior"),
    ("any", 1, "prior-vs-posterior"),
    ("balanced-axes", 2, "prior-vs-posterior"),
    ("balanced-axes", 3, "prior-vs-posterior"),
)

# The fixed work of one run, in cycles, and what the stored reference holds
# per seed.  On 2 vCPUs a cycle takes 3.9-5.4 s (paper), 10-12.6 s (clarke)
# and 5.3-8.7 s (search), so all but the last cycle fit in the 30 s budget
# even on a slow host, and the search tail lies among the mid searches.
RUN_CYCLES = {"paper-verdicts": 6, "clarke-verdicts": 3, "record-search": 4}


@dataclass(frozen=True)
class Op:
    """One command: its argv and its work units."""

    argv: tuple
    units: int
    kind: str           # "compare", "gain" or "search"

    @property
    def key(self) -> str:
        return " ".join(self.argv)


def record_spec(counts: dict) -> str:
    """Canonical spec string, identical to ``MeasurementRecord.to_spec_string``."""
    return ",".join(f"{a}{s}:{counts[(a, s)]}" for a, s in KEYS
                    if counts.get((a, s)))


def parse_spec(spec: str) -> dict:
    counts = {}
    for token in spec.split(","):
        head, n = token.split(":")
        counts[(head[0], head[1])] = int(n)
    return counts


def candidate_count(constraint: str, max_total: int) -> int:
    """Number of records the search enumerates: C(n+6, 6) count vectors
    for ``any``; sum over per-axis totals m of (m+1)^3 for ``balanced-axes``."""
    if constraint == "any":
        return comb(max_total + 6, 6)
    if constraint == "balanced-axes":
        return sum((m + 1) ** 3 for m in range(max_total // 3 + 1))
    raise ValueError(f"unknown constraint {constraint!r}")


def _record_shape(shapes: random.Random, n_outcomes: int, total: int) -> dict:
    keys = shapes.sample(KEYS, n_outcomes)
    cuts = sorted(shapes.sample(range(1, total), n_outcomes - 1))
    parts = [b - a for a, b in zip([0] + cuts, cuts + [total])]
    return dict(zip(keys, parts))


def _orient(rng: random.Random, counts: dict) -> str:
    """The record under a random signed permutation of the axes.  Every
    prior here is spherically symmetric, so this changes the record's
    spec but neither its statistics nor their cost."""
    axes = dict(zip("XYZ", rng.sample("XYZ", 3)))
    flip = {a: rng.random() < 0.5 for a in "XYZ"}
    other = {"+": "-", "-": "+"}
    return record_spec({(axes[a], other[s] if flip[a] else s): n
                        for (a, s), n in counts.items()})


def _verdict_table() -> tuple:
    """(counts, pairs, family) of every record of a paper-verdicts cycle.

    Round r has six records, one per outcome count in SHAPES order.  Record
    i lies in total bucket (i + r) mod 6 of 1-15, 16-30, ..., 76-90 at an
    offset that sweeps the bucket over the rounds, and is issued for
    1 + (i + r) mod 4 pairs of family (i + r) mod 3.

    How long the adaptive quadrature runs depends on the record's shape
    (its total, and how the total splits over axes and signs) by up to a
    factor of three at equal total, so the shapes come from a generator
    with a fixed seed and are the same in every cycle of every run.
    """
    shapes = random.Random("record-shapes")
    n_buckets = MAX_TOTAL // BUCKET
    table = []
    for r in range(PAPER_ROUNDS):
        for i, n_outcomes in enumerate(SHAPES):
            lo = 1 + BUCKET * ((i + r) % n_buckets)
            total = max(n_outcomes, lo + (4 * r + 7 * i) % BUCKET)
            table.append((_record_shape(shapes, n_outcomes, total),
                          1 + (i + r) % MAX_PAIRS_PER_RECORD,
                          FAMILY_CYCLE[(i + r) % len(FAMILY_CYCLE)]))
    return tuple(table)


PAPER_TABLE = _verdict_table()
# a Clarke statistic costs about 40 paper ones, so a clarke-verdicts cycle
# is the first round alone: totals 1-81, one record per bucket, 1-4 pairs
CLARKE_TABLE = PAPER_TABLE[:len(SHAPES)]


def _compare(p, q, spec, variant) -> Op:
    return Op(("compare", "--p", p, "--q", q, "--record", spec,
               "--variant", variant, "--format", "json"), 1, "compare")


def _verdict_cycle(rng: random.Random, table: tuple, variant: str) -> list:
    """The pairs of a record are (a, b), (b, a), (a, c), (c, a) in that
    order, so which statistics a pair can reuse from the cache is fixed.
    A clarke-verdicts record opens with the information gain of a, which
    the compares after it then share."""
    ops = []
    for counts, n_pairs, family in table:
        spec = _orient(rng, counts)
        a, b, c = rng.sample(FAMILIES[family], 3)
        if variant == "clarke":
            ops.append(Op(("gain", "--p", a, "--record", spec,
                           "--format", "json"), 1, "gain"))
        for p, q in ((a, b), (b, a), (a, c), (c, a))[:n_pairs]:
            ops.append(_compare(p, q, spec, variant))
    return ops


def _search_cycle(rng: random.Random) -> list:
    """SEARCH_CYCLE over random pairs.  The posterior-vs-prior objective
    recomputes its winner on the Clarke side, which costs 0.2-1 s for a
    nonempty winner, so objectives are part of the fixed pattern.  For
    balanced-axes the seed also picks the max total among the three that
    enumerate the same candidates."""
    pairs = PAIRS["full"] + PAIRS["truncated"]
    ops = []
    for constraint, size, objective in SEARCH_CYCLE:
        max_total = (size if constraint == "any"
                     else 3 * size + rng.randint(0, 2))
        p, q = rng.choice(pairs)
        ops.append(Op(("search", "--p", p, "--q", q,
                       "--max-total", str(max_total),
                       "--constraint", constraint,
                       "--objective", objective, "--format", "json"),
                      candidate_count(constraint, max_total), "search"))
    return ops


_CYCLES = {
    "paper-verdicts": lambda rng: _verdict_cycle(rng, PAPER_TABLE, "paper"),
    "clarke-verdicts": lambda rng: _verdict_cycle(rng, CLARKE_TABLE, "clarke"),
    "record-search": _search_cycle,
}


def cycles(workload: str, seed: int):
    """Endless deterministic iterator of cycles (lists of :class:`Op`)."""
    if workload not in _CYCLES:
        raise ValueError(f"unknown workload {workload!r}")
    rng = random.Random(f"{workload}:{seed}")
    make = _CYCLES[workload]
    while True:
        yield make(rng)


def first_ops(workload: str, seed: int, n_cycles: int) -> list:
    """The operations of the first ``n_cycles`` cycles, in order."""
    it = cycles(workload, seed)
    return [op for _ in range(n_cycles) for op in next(it)]
