"""Generate the stored reference outputs the benchmark checks against.

    python3 perfbench/make_reference.py [--workload NAME ...]

For each workload, the first ``workloads.RUN_CYCLES`` cycles of the default
seed's stream and of one held-out seed's stream are evaluated through the
library API at ``REFERENCE_CONFIG`` (relative tolerance 1e-12, absolute
tolerance 1e-300), far tighter than the command line's defaults (1e-8 /
1e-12).  With that configuration the evidence of ``ld`` matches its exact
rational value to roundoff for totals up to 90 (see ``selftest.py``); the
command line's default absolute tolerance does not, once the evidence falls
below it.

The same operations are then run through ``blochpriors.cli.main`` in stream
order, as the benchmark runs them, and every field in which that baseline
misses the reference is stored with the operation under ``baseline``: the
checker accepts such a known miss, as a failed operation, only when it is
no larger than the baseline's.

The results go to ``perfbench/reference/<workload>.json``, keyed by the
operation's command line.  Rerun this script only when the generator in
``workloads.py`` changes.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import check  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402
from blochpriors import (Variant, information_gain, make_prior,  # noqa: E402
                         noninformativity_verdict, parse_record, reproduce,
                         search_min_record)
from blochpriors.quadrature import QuadratureConfig  # noqa: E402

REFERENCE_CONFIG = QuadratureConfig(rel_tol=1e-12, abs_tol=1e-300)
DEFAULT_SEED, HELD_OUT_SEED = 1, 2
SEEDS = (DEFAULT_SEED, HELD_OUT_SEED)
REFERENCE_DIR = HERE / "reference"


def prior(label: str):
    return make_prior(label, cfg=REFERENCE_CONFIG)


def _arg(argv, flag):
    return argv[argv.index(flag) + 1]


def expected(op: workloads.Op) -> dict:
    """Reference outputs of one operation at ``REFERENCE_CONFIG``."""
    argv = op.argv
    cfg = REFERENCE_CONFIG
    if op.kind == "compare":
        p, q = prior(_arg(argv, "--p")), prior(_arg(argv, "--q"))
        rec = parse_record(_arg(argv, "--record"))
        variant = Variant(_arg(argv, "--variant"))
        doc = noninformativity_verdict(p, q, rec, variant, cfg).to_dict()
        return {k: doc[k] for k in check.COMPARE_VALUES + ("verdict",)}
    if op.kind == "gain":
        p = prior(_arg(argv, "--p"))
        rec = parse_record(_arg(argv, "--record"))
        return {"information_gain": information_gain(p, rec, cfg)}
    if op.kind == "search":
        rec, value = search_min_record(
            prior(_arg(argv, "--p")), prior(_arg(argv, "--q")),
            int(_arg(argv, "--max-total")),
            constraint=_arg(argv, "--constraint"),
            objective=_arg(argv, "--objective"), cfg=cfg)
        return {"record": rec.to_spec_string(), "value": value}
    raise ValueError(f"unknown op kind {op.kind!r}")


def reproduce_rows() -> list:
    """The reproduction table recomputed at the reference configuration."""
    return reproduce("all", REFERENCE_CONFIG)


def baseline_misses(cli, ops: list, entries: dict) -> int:
    """Run ``ops`` through the command line in order and store, in each
    entry, the fields in which its output misses the reference."""
    n = 0
    for op in ops:
        rc, out, err = worker.run_cli(cli, op.argv)
        if rc != 0:
            raise RuntimeError(f"baseline failed on {op.key}: {err[-500:]}")
        doc = json.loads(out)
        entry = entries[op.key]
        missed = check.misses(op.kind, doc, entry)
        if missed:
            entry["baseline"] = {k: doc[k] for k in missed}
            n += 1
    return n


def build(workload: str) -> dict:
    cli = worker.import_cli()
    n_cycles = workloads.RUN_CYCLES[workload]
    ops, seeds = {}, {}
    for seed in SEEDS:
        stream = workloads.first_ops(workload, seed, n_cycles)
        for op in stream:
            if op.key not in ops:
                ops[op.key] = expected(op)
        missed = baseline_misses(cli, stream, ops)
        seeds[str(seed)] = len(stream)
        print(f"  seed {seed}: {len(stream)} ops, baseline misses {missed}",
              flush=True)
    return {
        "workload": workload,
        "config": {"rel_tol": REFERENCE_CONFIG.rel_tol,
                   "abs_tol": REFERENCE_CONFIG.abs_tol},
        "cycles": n_cycles,
        "seeds": seeds,
        "ops": ops,
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", action="append", choices=workloads.WORKLOADS)
    args = ap.parse_args(argv)
    REFERENCE_DIR.mkdir(exist_ok=True)
    for workload in args.workload or workloads.WORKLOADS:
        t0 = time.perf_counter()
        doc = build(workload)
        path = REFERENCE_DIR / f"{workload}.json"
        path.write_text(json.dumps(doc, separators=(",", ":")) + "\n")
        print(f"{workload}: {len(doc['ops'])} ops in "
              f"{time.perf_counter() - t0:.0f} s -> {path.name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
