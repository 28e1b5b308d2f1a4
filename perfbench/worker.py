"""One benchmark process: set-up timing, the reproduce gate, or a timed run.

    python3 perfbench/worker.py setup [--gate]
    python3 perfbench/worker.py measure --workload W --seed N --seconds S
                                        [--trace]

``run.py`` starts each role in a fresh interpreter and reads the single JSON
line this prints on standard output.  Operations go through
``blochpriors.cli.main`` in process, one at a time (a closed loop with one
client), in whole cycles of the workload's stream; their output is captured
and returned unchecked, because checking belongs to the parent and must not
count against this process's memory.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import resource
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import layertrace  # noqa: E402
import workloads  # noqa: E402

PRIORS_ARGV = ("priors", "--format", "json")
REPRODUCE_ARGV = ("reproduce", "--table", "all", "--format", "json")


def import_cli():
    sys.path.insert(0, str(ROOT / "src"))
    import blochpriors.cli
    return blochpriors.cli


def run_cli(cli, argv) -> tuple:
    """(exit code or None on exception, stdout, stderr) of one command."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = cli.main(list(argv))
        except SystemExit as exc:       # argparse usage errors
            rc = exc.code if isinstance(exc.code, int) else 2
        except Exception:               # an op that raises is a failed op
            rc = None
            err.write(traceback.format_exc())
    return rc, out.getvalue(), err.getvalue()


def setup(gate: bool) -> dict:
    t0 = time.perf_counter()
    cli = import_cli()
    rc, out, err = run_cli(cli, PRIORS_ARGV)
    doc = {"setup_s": time.perf_counter() - t0,
           "priors": {"rc": rc, "out": out, "err": err}}
    if gate:
        rc, out, err = run_cli(cli, REPRODUCE_ARGV)
        doc["reproduce"] = {"rc": rc, "out": out, "err": err}
    return doc


def measure(workload: str, seed: int, seconds: float, traced: bool,
            trace_path) -> dict:
    cli = import_cli()
    from blochpriors import quadrature
    # lazy set-up every run pays once, outside the timed loop
    run_cli(cli, PRIORS_ARGV)
    caches = layertrace.lru_caches()
    caches_before = layertrace.cache_counts(caches)
    count = getattr(quadrature, "evaluation_count", None)
    evals_before = count() if count else None
    tracer = layertrace.Tracer() if traced else None

    ops, cycles = [], []
    it = workloads.cycles(workload, seed)
    with tracer or contextlib.nullcontext():
        start = time.perf_counter()
        # fixed work; a run slower than the budget stops early, at a cycle
        # boundary
        while (len(cycles) < workloads.RUN_CYCLES[workload]
               and time.perf_counter() - start < seconds):
            cycle = next(it)
            t0 = time.perf_counter()
            for op in cycle:
                t = time.perf_counter()
                rc, out, err = run_cli(cli, op.argv)
                ops.append([op.key, op.units, rc, out, err,
                            time.perf_counter() - t])
            cycles.append([sum(op.units for op in cycle),
                           time.perf_counter() - t0])
        elapsed = time.perf_counter() - start

    doc = {
        "workload": workload, "seed": seed, "elapsed_s": elapsed,
        "ops": ops, "cycles": cycles,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "evals": count() - evals_before if count else None,
        "caches": {name: [a - b for a, b in zip(after, caches_before[name])]
                   for name, after in layertrace.cache_counts(caches).items()},
    }
    if tracer is not None:
        doc["spans"] = tracer.totals()
        doc["span_count"] = len(tracer.name_id)
        doc["absent"] = sorted(tracer.absent)
        tracer.write(trace_path)
    return doc


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = ap.add_subparsers(dest="role", required=True)
    sp = sub.add_parser("setup")
    sp.add_argument("--gate", action="store_true")
    sp = sub.add_parser("measure")
    sp.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    sp.add_argument("--seed", type=int, required=True)
    sp.add_argument("--seconds", type=float, required=True)
    sp.add_argument("--trace", action="store_true")
    sp.add_argument("--trace-path")
    args = ap.parse_args(argv)
    if args.role == "setup":
        doc = setup(args.gate)
    else:
        doc = measure(args.workload, args.seed, args.seconds, args.trace,
                      args.trace_path)
    sys.stdout.write(json.dumps(doc) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
