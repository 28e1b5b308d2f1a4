"""Command-line front end.

Exit codes: 0 on success, 1 on computational failure (a package error:
support mismatch, underflowed evidence, ...), 2 on usage errors (argparse,
and option values out of range).  Text output shows 6 significant
figures; JSON carries full precision.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import sys

from . import experiments, infotheory
from .errors import BlochPriorsError
from .infotheory import NATS_TO_BITS, Variant
from .measurement import parse_record
from .priors import PRIOR_LABELS, BlochPoint, make_prior
from .quadrature import QuadratureConfig

__all__ = ["main"]


def _record(text: str):
    try:
        return parse_record(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc))


def _tolerance(text: str) -> float:
    value = float(text)
    if not 0.0 < value < math.inf:
        raise argparse.ArgumentTypeError(
            f"expected a finite positive number, got {text!r}")
    return value


def _add_common(sub, priors=(), record=False, variant=False, units=False,
                radius=True):
    for flag in priors:
        sub.add_argument(f"--{flag}", required=True, choices=PRIOR_LABELS,
                         help="prior label")
    if record:
        sub.add_argument("--record", type=_record, default=parse_record(""),
                         help="record spec 'X+:1,...' or alias balanced6[^k]")
    if variant:
        sub.add_argument("--variant", choices=("paper", "clarke"),
                         default="paper", help="decision-rule variant")
    if radius:
        sub.add_argument("--R", type=float, default=None,
                         help="support radius (default 1 for sld/km/mc/ld, "
                              "1-1e-10 for p0/p1/p2)")
    sub.add_argument("--rel-tol", type=_tolerance, default=1e-8)
    sub.add_argument("--abs-tol", type=_tolerance, default=1e-12)
    sub.add_argument("--format", choices=("text", "csv", "json"),
                     default="text")
    if units:
        sub.add_argument("--units", choices=("nats", "bits"), default="nats")


def _cfg(args) -> QuadratureConfig:
    return QuadratureConfig(rel_tol=args.rel_tol, abs_tol=args.abs_tol)


def _scale(args) -> float:
    return NATS_TO_BITS if args.units == "bits" else 1.0


def _prior(args, cfg, label):
    return make_prior(label, R=args.R, cfg=cfg)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="blochpriors",
        description="Bloch-ball priors from monotone metrics: Bayesian "
                    "updating and comparative noninformativity.")
    subs = parser.add_subparsers(dest="command", required=True)

    sp = subs.add_parser("priors", help="list built-in priors")
    _add_common(sp)

    sp = subs.add_parser("eval", help="evaluate a prior density at a point")
    _add_common(sp, priors=("p",))
    sp.add_argument("--x", type=float, default=0.0)
    sp.add_argument("--y", type=float, default=0.0)
    sp.add_argument("--z", type=float, default=0.0)
    sp.add_argument("--convention", choices=("spherical", "cartesian"),
                    default="cartesian")

    sp = subs.add_parser("kl", help="relative entropy D(p || q)")
    _add_common(sp, priors=("p", "q"), units=True)

    sp = subs.add_parser("compare",
                         help="noninformativity verdict for a prior pair")
    _add_common(sp, priors=("p", "q"), record=True, variant=True,
                units=True)

    sp = subs.add_parser("gain", help="information gain of a record")
    _add_common(sp, priors=("p",), record=True, units=True)

    sp = subs.add_parser("sweep", help="divergence under repeated records")
    _add_common(sp, priors=("p", "q"), record=True, units=True)
    sp.add_argument("--k-max", type=int, default=4)

    sp = subs.add_parser("search",
                         help="record minimizing a divergence objective")
    _add_common(sp, priors=("p", "q"), units=True)
    sp.add_argument("--max-total", type=int, default=6)
    sp.add_argument("--constraint", choices=("balanced-axes", "any"),
                    default="balanced-axes")
    sp.add_argument("--objective",
                    choices=("posterior-vs-prior", "prior-vs-posterior"),
                    default="posterior-vs-prior")

    sp = subs.add_parser("reproduce", help="recompute the published table")
    _add_common(sp, radius=False)
    sp.add_argument("--table", choices=("all", "s21", "s22", "s23", "s3"),
                    default="all")
    return parser


# Each command computes its result once and returns (JSON document, CSV
# records, text lines); every CSV record is a flat dict, keyed by column.

def _scalar(args, name: str, value: float):
    """A divergence in nats, shown in the requested units."""
    value *= _scale(args)
    doc = {name: value, "units": args.units}
    return doc, [doc], [f"{value:.6g}"]


def _priors(args, cfg):
    rows = []
    for label in PRIOR_LABELS:
        p = _prior(args, cfg, label)
        rows.append({"label": label, "support_radius": p.support_radius,
                     "normalization": p.normalization})
    lines = [f"{r['label']:>4}  R={r['support_radius']:<14g}"
             f"  c={r['normalization']:.6g}" for r in rows]
    return rows, rows, lines


def _eval(args, cfg):
    pt = BlochPoint(args.x, args.y, args.z)
    doc = {"density": _prior(args, cfg, args.p).density_at(pt, args.convention)}
    return doc, [doc], [f"{doc['density']:.6g}"]


def _kl(args, cfg):
    value = infotheory.relative_entropy(_prior(args, cfg, args.p),
                                        _prior(args, cfg, args.q), cfg)
    return _scalar(args, "relative_entropy", value)


def _compare(args, cfg):
    report = infotheory.noninformativity_verdict(
        _prior(args, cfg, args.p), _prior(args, cfg, args.q), args.record,
        Variant(args.variant), cfg)
    doc = report.to_dict()
    scale = _scale(args)
    for key in ("d_pq", "d_qp", "d_p_post_q", "d_q_post_p"):
        doc[key] *= scale
    doc["units"] = u = args.units
    record = {k: v for k, v in doc.items() if k != "tolerances"}
    lines = [f"pair:       {doc['pair']}",
             f"record:     {doc['record']}",
             f"variant:    {doc['variant']}",
             f"D(p||q):    {doc['d_pq']:.6g} {u}",
             f"D(q||p):    {doc['d_qp']:.6g} {u}",
             f"posterior side 1: {doc['d_p_post_q']:.6g} {u}",
             f"posterior side 2: {doc['d_q_post_p']:.6g} {u}",
             f"verdict:    {doc['verdict']}"]
    return doc, [record], lines


def _gain(args, cfg):
    value = infotheory.information_gain(_prior(args, cfg, args.p),
                                        args.record, cfg)
    return _scalar(args, "information_gain", value)


def _sweep(args, cfg):
    base = args.record if args.record.total else parse_record("balanced6")
    result = experiments.repeat_sweep(_prior(args, cfg, args.p),
                                      _prior(args, cfg, args.q),
                                      base, args.k_max, cfg)
    stats = [v * _scale(args) for v in result.statistics]
    doc = {"k_values": list(result.k_values), "statistics": stats,
           "argmin_k": result.argmin_k, "units": args.units}
    records = [{"k": k, "statistic": v}
               for k, v in zip(result.k_values, stats)]
    lines = [f"k={k}: {v:.6g} {args.units}"
             + ("  <- min" if k == result.argmin_k else "")
             for k, v in zip(result.k_values, stats)]
    return doc, records, lines


def _search(args, cfg):
    rec, value = experiments.search_min_record(
        _prior(args, cfg, args.p), _prior(args, cfg, args.q), args.max_total,
        constraint=args.constraint, objective=args.objective, cfg=cfg)
    value *= _scale(args)
    doc = {"record": rec.to_spec_string(), "value": value,
           "units": args.units}
    lines = [f"record: {doc['record']}",
             f"value:  {value:.6g} {args.units}"]
    return doc, [doc], lines


def _reproduce(args, cfg):
    rows = experiments.reproduce(args.table, cfg)
    doc = [r.to_dict() for r in rows]
    records = [{**d, "pass": str(d["pass"]).lower()} for d in doc]
    lines = [f"{'pass' if r.passed else 'FAIL'}  {r.quantity_id:<32} "
             f"published={r.paper_value:.6g} "
             f"computed={r.computed_value:.6g} "
             f"rel={r.rel_diff:.2e} [{r.tolerance_class}]" for r in rows]
    return doc, records, lines


_COMMANDS = {"priors": _priors, "eval": _eval, "kl": _kl,
             "compare": _compare, "gain": _gain, "sweep": _sweep,
             "search": _search, "reproduce": _reproduce}


def _emit(fmt: str, doc, records: list, lines: list) -> None:
    """Print one command's result in the requested format."""
    if fmt == "json":
        print(json.dumps(doc))
    elif fmt == "csv":
        writer = csv.writer(sys.stdout, lineterminator="\n")
        writer.writerow(records[0])
        writer.writerows(r.values() for r in records)
    else:
        print("\n".join(lines))


_PARSER = _build_parser()


def main(argv=None) -> int:
    args = _PARSER.parse_args(argv)
    try:
        _emit(args.format, *_COMMANDS[args.command](args, _cfg(args)))
    except BlochPriorsError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    except ValueError as exc:
        # an option value out of range, such as --R 1.5 or --k-max 0
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
