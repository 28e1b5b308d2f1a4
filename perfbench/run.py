"""blochpriors benchmark: seeded command streams through the CLI, timed end
to end, checked against stored reference outputs, traced layer by layer.

    python3 perfbench/run.py --workload NAME|all --seed N --seconds S
                             [--trace 0|1]

``--seconds`` must equal ``run_seconds`` in ``BENCHMARK.json``: it is a run's
time budget, and one source for it keeps every run alike.

Workloads (see ``workloads.py`` and ``BENCHMARK.json``):

* ``paper-verdicts``  - ``compare --variant paper`` over shared records;
* ``clarke-verdicts`` - ``compare --variant clarke`` mixed with ``gain``;
* ``record-search``   - ``search`` ranking 1 to 210 candidate records.

Each run starts fresh interpreters (``worker.py``), so nothing is shared
between runs:

1. three set-up processes each time ``import blochpriors.cli`` plus a first
   ``priors --format json``; ``setup_s`` is their median.  The first one
   then runs the untimed gate ``reproduce --table all --format json``,
   which must give exactly 64 passing rows and the three documented
   failures, or the benchmark stops;
2. one run process drives the workload's stream through
   ``blochpriors.cli.main`` as a closed loop with one client and no worker
   threads.  It measures fixed work, the first ``RUN_CYCLES`` cycles of the
   stream (``workloads.py``), so parent and change time the same operations;
   ``--seconds`` is its budget, and a run that exceeds it stops at the next
   cycle boundary;
3. this process checks every operation's output (``check.py``) after the
   timed region and prints one summary line per metric, then the result as
   one JSON line.

With ``--trace 1`` step 1 runs the gate only, and step 2 runs twice, once
plain and once with the layer trace of ``layertrace.py``.  The result then
holds the per-layer metrics and the tracing overhead (how much slower the
traced run completed the same operations than the plain one); the spans are
written to ``perfbench/out/``.

A seed whose operations are not in the stored reference is reported as
``reference: unchecked``; the intrinsic checks still run.  On a stored seed
every operation must be in the reference.  Exit code 0 with
a result line, otherwise 1 and a message on standard error.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import check  # noqa: E402
import workloads  # noqa: E402

SETUP_RUNS = 3
GATE_PASSING_ROWS = 64
GATE_FAILURES = frozenset({"d.p1.post_p0.balanced6", "d.p1.post_p2.balanced6",
                           "units.nats_to_bits"})
PRIOR_COUNT = 7
TAIL_BEYOND = 10
ABSENT = "absent"
# one run must finish within 180 s; the children share that budget
SETUP_TIMEOUT_S = 40
MEASURE_SLACK_S = 40
CHILD_ENV = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1",
             "MKL_NUM_THREADS": "1", "PYTHONHASHSEED": "0"}


class BenchError(RuntimeError):
    pass


def child(args, timeout: float) -> dict:
    """Run worker.py in a fresh interpreter and return its JSON line."""
    env = dict(os.environ, **CHILD_ENV)
    try:
        proc = subprocess.run([sys.executable, str(HERE / "worker.py"), *args],
                              cwd=ROOT, env=env, capture_output=True,
                              text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        raise BenchError(f"worker {args[0]} exceeded {timeout:.0f} s")
    if proc.returncode != 0:
        raise BenchError(f"worker {args[0]} exited {proc.returncode}: "
                         f"{proc.stderr.strip()[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


# --- set-up and the reproduce gate -------------------------------------------

def _check_priors(doc: dict) -> None:
    res = doc["priors"]
    if res["rc"] != 0:
        raise BenchError(f"priors exited {res['rc']}: {res['err'][-500:]}")
    rows = json.loads(res["out"])
    if len(rows) != PRIOR_COUNT or not all(r["normalization"] > 0 for r in rows):
        raise BenchError("priors did not build all seven priors")


def _gate(doc: dict) -> str:
    res = doc["reproduce"]
    if res["rc"] != 0:
        raise BenchError(f"reproduce exited {res['rc']}: {res['err'][-500:]}")
    rows = json.loads(res["out"])
    passing = sum(1 for r in rows if r["pass"])
    failing = {r["quantity_id"] for r in rows if not r["pass"]}
    if passing != GATE_PASSING_ROWS or failing != GATE_FAILURES:
        raise BenchError(
            f"reproduce gate: {passing} passing rows (want {GATE_PASSING_ROWS}),"
            f" failures {sorted(failing)} (want {sorted(GATE_FAILURES)})")
    return (f"{passing} rows pass, documented failures "
            f"{', '.join(sorted(failing))}")


def setup_phase(runs: int) -> tuple:
    """(set-up times, gate summary) from ``runs`` fresh processes."""
    docs = []
    for i in range(runs):
        doc = child(["setup"] + (["--gate"] if i == 0 else []),
                    SETUP_TIMEOUT_S)
        _check_priors(doc)
        docs.append(doc)
    return [d["setup_s"] for d in docs], _gate(docs[0])


# --- the timed run -----------------------------------------------------------

def measure(workload: str, seed: int, seconds: float, traced: bool) -> dict:
    args = ["measure", "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds)]
    if traced:
        out_dir = HERE / "out"
        out_dir.mkdir(exist_ok=True)
        args += ["--trace", "--trace-path",
                 str(out_dir / f"trace-{workload}-seed{seed}.json")]
    return child(args, seconds + MEASURE_SLACK_S)


def tail(latencies: list) -> tuple:
    """(value, percentile, operations beyond it): the highest percentile
    with at least TAIL_BEYOND operations beyond it, or the maximum of a
    shorter run."""
    lat = sorted(latencies)
    n = len(lat)
    if n <= TAIL_BEYOND:
        return lat[-1], 100.0, 0
    return lat[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n, TAIL_BEYOND


def run_summary(doc: dict) -> dict:
    ops = doc["ops"]
    lat = [op[5] for op in ops]
    units = sum(op[1] for op in ops)
    tail_s, tail_pct, beyond = tail(lat)
    rates = [n / t for n, t in doc["cycles"]]
    return {"ops": len(ops), "units": units, "cycles": len(rates),
            "elapsed_s": doc["elapsed_s"],
            "units_per_s": statistics.median(rates),
            "op_p50_ms": 1000.0 * statistics.median(lat),
            "op_tail_ms": 1000.0 * tail_s, "tail_pct": tail_pct,
            "tail_beyond": beyond, "peak_rss_mb": doc["peak_rss_mb"]}


def check_run(workload: str, seed: int, docs: list) -> dict:
    reference = check.load_reference(workload)
    stored = reference is not None and str(seed) in reference["seeds"]
    entries = reference["ops"] if stored else {}
    counts = {"pass": 0, "inaccurate": 0, "fail": 0}
    referenced, reasons = 0, {}
    for doc in docs:
        for key, _, rc, out, _, _ in doc["ops"]:
            entry = entries.get(key)
            if stored and entry is None:
                status, reason = "fail", ("not in the stored reference; rerun "
                                          "make_reference.py")
            else:
                status, reason = check.check_op(key, rc, out, entry)
            counts[status] += 1
            referenced += entry is not None
            if reason:
                reasons[reason] = reasons.get(reason, 0) + 1
    attempted = sum(counts.values())
    return {"attempted": attempted,
            "failed": counts["inaccurate"] + counts["fail"],
            "hard_failures": counts["fail"], "inaccurate": counts["inaccurate"],
            "referenced": referenced, "seed_stored": stored,
            "reasons": reasons, "correct": counts["fail"] == 0}


def _reference_line(seed: int, checks: dict) -> str:
    if not checks["seed_stored"]:
        return (f"unchecked (seed {seed} has no stored reference; "
                f"intrinsic checks only)")
    return f"checked {checks['referenced']} of {checks['attempted']} ops"


def _metric(value, unit) -> dict:
    return {"value": value, "unit": unit}


# --- per-layer metrics -------------------------------------------------------

def overhead_pct(plain: dict, traced: dict) -> float:
    """Extra latency of the traced run over the plain one, summed over the
    operations both runs completed; the stream is the same, so they are the
    same operations."""
    n = min(len(plain["ops"]), len(traced["ops"]))
    base = sum(op[5] for op in plain["ops"][:n])
    return 100.0 * (sum(op[5] for op in traced["ops"][:n]) / base - 1.0)


def layer_metrics(names: list, traced: dict, plain: dict, workload: str) -> dict:
    spans, absent = traced["spans"], set(traced["absent"])
    candidates = sum(op[1] for op in traced["ops"]) \
        if workload == "record-search" else 0
    out = {}
    for m in names:
        name, unit = m["name"], m["unit"]
        base, _, field = name.rpartition(".")
        if name == "quadrature.evals":
            value = ABSENT if traced["evals"] is None else traced["evals"]
        elif name == "experiments.candidates":
            value = candidates
        elif name == "experiments.ms_per_candidate":
            if "experiments.search_min_record" in absent:
                value = ABSENT
            else:
                incl = spans.get("experiments.search_min_record", [0, 0.0])[1]
                value = 1000.0 * incl / candidates if candidates else 0.0
        elif name == "trace.overhead_pct":
            value = overhead_pct(plain, traced)
        elif name.startswith("cache."):
            fn = base[len("cache."):]
            if fn not in traced["caches"]:
                value = ABSENT
            else:
                hits, misses = traced["caches"][fn]
                value = {"hits": hits, "misses": misses,
                         "hit_ratio": hits / (hits + misses)
                         if hits + misses else 0.0}[field]
        elif any(base == a or base.startswith(a + ".") for a in absent):
            value = ABSENT
        else:
            calls, _, self_s = spans.get(base, [0, 0.0, 0.0])
            value = {"calls": calls, "self_s": self_s}[field]
        out[name] = _metric(value, unit)
    return out


# --- one workload ------------------------------------------------------------

def run_workload(workload: str, seed: int, seconds: float, trace: bool,
                 bench: dict) -> dict:
    print(f"== {workload}  seed {seed}  {seconds:g} s  "
          f"{'traced' if trace else 'plain'} run, closed loop, 1 client")
    if trace:
        _, gate = setup_phase(1)
        plain_doc = measure(workload, seed, seconds, traced=False)
        traced_doc = measure(workload, seed, seconds, traced=True)
        traced_doc["summary"] = run_summary(traced_doc)
        plain = run_summary(plain_doc)
        checks = check_run(workload, seed, [plain_doc, traced_doc])
        metrics = layer_metrics(bench["per_layer"], traced_doc, plain_doc,
                                workload)
        print(f"  reproduce gate    passed: {gate}")
        print(f"  plain run         {plain['ops']} ops, "
              f"{plain['units_per_s']:.4g} units/s, p50 {plain['op_p50_ms']:.4g} ms")
        t = traced_doc["summary"]
        print(f"  traced run        {t['ops']} ops, {t['units_per_s']:.4g} units/s,"
              f" p50 {t['op_p50_ms']:.4g} ms, {traced_doc['span_count']} spans")
        for name, m in metrics.items():
            v = m["value"]
            shown = f"{v:.6g}" if isinstance(v, float) else str(v)
            print(f"  {name:<58} {shown} {m['unit']}")
    else:
        setups, gate = setup_phase(SETUP_RUNS)
        doc = measure(workload, seed, seconds, traced=False)
        s = run_summary(doc)
        checks = check_run(workload, seed, [doc])
        values = {"setup_s": statistics.median(setups),
                  "units_per_s": s["units_per_s"], "op_p50_ms": s["op_p50_ms"],
                  "op_tail_ms": s["op_tail_ms"], "peak_rss_mb": s["peak_rss_mb"]}
        metrics = {m["name"]: _metric(values[m["name"]], m["unit"])
                   for m in bench["end_to_end"]}
        unit_word = "candidate record" if workload == "record-search" else "command"
        notes = {
            "setup_s": f"median of {len(setups)} fresh processes: "
                       + ", ".join(f"{x:.3f}" for x in setups),
            "units_per_s": f"median over {s['cycles']} whole cycles; "
                           f"{s['units']} units ({unit_word} each) in "
                           f"{s['elapsed_s']:.2f} s",
            "op_p50_ms": f"median of {s['ops']} ops",
            "op_tail_ms": f"p{s['tail_pct']:.2f} of {s['ops']} ops "
                          f"({s['tail_beyond']} beyond it)",
            "peak_rss_mb": "ru_maxrss of the run process",
        }
        print(f"  reproduce gate    passed: {gate}")
        for name, m in metrics.items():
            print(f"  {name:<12} {m['value']:>12.6g} {m['unit']:<4}  {notes[name]}")
    ratio = checks["failed"] / checks["attempted"]
    print(f"  {'error_ratio':<12} {ratio:>12.6g} ratio "
          f" {checks['failed']} of {checks['attempted']} ops failed: "
          f"{checks['hard_failures']} hard, {checks['inaccurate']} inaccurate "
          f"(known baseline misses, no larger than recorded)")
    for reason, n in sorted(checks["reasons"].items()):
        print(f"      {n:>5} x {reason}")
    print(f"  reference         {_reference_line(seed, checks)}")
    return {"correct": checks["correct"], "attempted": checks["attempted"],
            "failed": checks["failed"], "metrics": metrics}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=workloads.WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    try:
        if not (ROOT / "src" / "blochpriors").is_dir():
            raise BenchError(f"no package source under {ROOT / 'src'}")
        bench = json.loads((ROOT / "BENCHMARK.json").read_text())
        if args.seconds != bench["run_seconds"]:
            raise BenchError(f"--seconds {args.seconds} differs from "
                             f"run_seconds {bench['run_seconds']} in "
                             f"BENCHMARK.json")
        seconds = args.seconds
        names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
        results = {}
        for w in names:
            results[w] = run_workload(w, args.seed, seconds, bool(args.trace),
                                      bench)
    except (BenchError, OSError, ValueError, KeyError) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    if len(results) == 1:
        result = results[names[0]]
    else:
        result = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{w}.{k}": v for w, r in results.items()
                        for k, v in r["metrics"].items()},
        }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
