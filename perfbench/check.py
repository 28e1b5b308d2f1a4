"""Correctness checks for benchmark operations; imports nothing from the
package under test.

Every operation gets the intrinsic checks: exit code 0, one JSON document
echoing its inputs, finite values, divergences that are not negative, and a
search argmin that satisfies the search's own constraint.  An operation
whose command line is in the stored reference (``reference/<workload>.json``,
made by ``make_reference.py``) is also compared with it: every value to
1e-9 relative plus a 1e-12 absolute floor, verdict labels and argmin
records exactly.

The reference also records, per operation, every field in which the
program as it stood when the reference was made (the baseline) missed it.
These are known defects: the command line's default ``--abs-tol 1e-12``
exceeds the evidence integral of records with large totals, and ROADMAP
item 5 is the fix.  An operation ends in one of three states:

* ``pass``: it matches the reference;
* ``inaccurate``: it misses the reference only in fields the baseline
  missed, each value by no more than the baseline did (plus the tolerance
  above) and each label exactly as the baseline had it.  These operations
  count as failed (they are in ``error_ratio``), but they do not make the
  run incorrect;
* ``fail``: anything else, including a miss the baseline did not make, a
  larger one, or a wrong label other than the baseline's.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import workloads

REL_TOL = 1e-9
ABS_FLOOR = 1e-12
NEG_FLOOR = -1e-12
VERDICTS = ("FirstMoreNoninformative", "SecondMoreNoninformative",
            "Inconclusive")
COMPARE_VALUES = ("d_pq", "d_qp", "d_p_post_q", "d_q_post_p")
VALUES = {"compare": COMPARE_VALUES, "gain": ("information_gain",),
          "search": ("value",)}
LABELS = {"compare": ("verdict",), "gain": (), "search": ("record",)}
REFERENCE_DIR = Path(__file__).resolve().parent / "reference"


def load_reference(workload: str):
    path = REFERENCE_DIR / f"{workload}.json"
    if not path.exists():
        return None
    return json.loads(path.read_text())


def flags(key: str) -> dict:
    argv = key.split(" ")
    out = {"command": argv[0]}
    for flag, value in zip(argv[1::2], argv[2::2]):
        out[flag.lstrip("-")] = value
    return out


def _slack(ref: float) -> float:
    return REL_TOL * abs(ref) + ABS_FLOOR


def misses(command: str, doc: dict, expected: dict) -> list:
    """The fields in which ``doc`` misses the reference values ``expected``."""
    return ([k for k in VALUES[command]
             if abs(doc[k] - expected[k]) > _slack(expected[k])]
            + [k for k in LABELS[command] if doc[k] != expected[k]])


def _intrinsic(f: dict, doc) -> str:
    """Empty string when the output is self-consistent, else the reason."""
    if not isinstance(doc, dict):
        return "output is not one JSON object"
    if f["command"] == "compare":
        if doc.get("pair") != f"{f['p']}/{f['q']}":
            return "pair not echoed"
        if doc.get("record") != f["record"] or doc.get("variant") != f["variant"]:
            return "record or variant not echoed"
        if doc.get("verdict") not in VERDICTS:
            return "unknown verdict"
        values = [doc.get(k) for k in COMPARE_VALUES]
    elif f["command"] == "gain":
        values = [doc.get("information_gain")]
    elif f["command"] == "search":
        values = [doc.get("value")]
        spec = doc.get("record")
        if not isinstance(spec, str):
            return "no argmin record"
        counts = {} if spec == "(empty)" else workloads.parse_spec(spec)
        if sum(counts.values()) > int(f["max-total"]):
            return "argmin record exceeds max total"
        if f["constraint"] == "balanced-axes":
            axis_totals = {a: counts.get((a, "+"), 0) + counts.get((a, "-"), 0)
                           for a in "XYZ"}
            if len(set(axis_totals.values())) != 1:
                return "argmin record is not balanced over axes"
    else:
        return f"unexpected command {f['command']!r}"
    if doc.get("units") != "nats":
        return "units not echoed"
    for v in values:
        if not isinstance(v, float) or not math.isfinite(v):
            return "value missing or not finite"
        if v < NEG_FLOOR:
            return "negative divergence"
    return ""


def _against_reference(command: str, doc: dict, entry: dict) -> tuple:
    missed = misses(command, doc, entry)
    if not missed:
        return "pass", ""
    baseline = entry.get("baseline", {})
    for k in missed:
        if k not in baseline:
            return "fail", f"{k} misses the reference; the baseline did not"
        if k in LABELS[command]:
            if doc[k] != baseline[k]:
                return "fail", f"{k} differs from the reference and the baseline"
        elif (abs(doc[k] - entry[k])
              > abs(baseline[k] - entry[k]) + _slack(entry[k])):
            return "fail", f"{k} misses the reference by more than the baseline"
    return "inaccurate", "a known baseline miss, no larger than the baseline's"


def check_op(key: str, rc, out: str, entry) -> tuple:
    """(status, reason) of one operation's result; ``entry`` is its stored
    reference, or None."""
    f = flags(key)
    if rc != 0:
        return "fail", f"exit code {rc}"
    try:
        doc = json.loads(out)
    except ValueError:
        return "fail", "output is not JSON"
    reason = _intrinsic(f, doc)
    if reason:
        return "fail", reason
    if entry is None:
        return "pass", ""
    return _against_reference(f["command"], doc, entry)
