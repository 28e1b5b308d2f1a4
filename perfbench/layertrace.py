"""Outside-in layer trace for the benchmark's traced run.

The package has no tracing of its own, so the benchmark wraps its public
functions from outside: each wrapper records a span (name, start, end,
parent span) in flat arrays kept in memory.  A function is patched in every
``blochpriors`` module namespace that binds it (``quad_s`` is imported into
``priors``, ``measurement`` and ``infotheory``; ``evidence`` into
``infotheory`` and ``experiments``), and every patched name is restored
afterwards.  A function or cache that no longer exists is reported as
``absent`` instead of failing the run, so the trace keeps working while
the package is refactored.

Self time of a span is its duration minus the durations of its direct
children.
"""

from __future__ import annotations

import json
import sys
import time
from array import array

PACKAGE = "blochpriors"

# metric prefix -> (module, function); relative_entropy_vs_posterior is split
# by its ``side`` argument
TRACED = {
    "cli.main": ("cli", "main"),
    "priors.make_prior": ("priors", "make_prior"),
    "quadrature.quad_s": ("quadrature", "quad_s"),
    "measurement.evidence": ("measurement", "evidence"),
    "measurement.angular_likelihood_integral":
        ("measurement", "angular_likelihood_integral"),
    "measurement.angular_likelihood_log_term":
        ("measurement", "angular_likelihood_log_term"),
    "infotheory.relative_entropy": ("infotheory", "relative_entropy"),
    "infotheory.relative_entropy_vs_posterior":
        ("infotheory", "relative_entropy_vs_posterior"),
    "infotheory.information_gain": ("infotheory", "information_gain"),
    "infotheory.noninformativity_verdict":
        ("infotheory", "noninformativity_verdict"),
    "experiments.search_min_record": ("experiments", "search_min_record"),
}
# suffixes for the two sides of relative_entropy_vs_posterior; metric names
# are capped at 64 characters
SIDE_NAMES = {"SECOND_IS_POSTERIOR": "second_posterior",
              "FIRST_IS_POSTERIOR": "first_posterior"}
_SIDE_ARG = 3           # positional index of ``side``


def package_modules() -> list:
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == PACKAGE
                                  or name.startswith(PACKAGE + "."))]


def lru_caches() -> dict:
    """Every ``functools.lru_cache`` defined in the package, by function name."""
    out = {}
    for mod in package_modules():
        for attr, obj in vars(mod).items():
            if (callable(getattr(obj, "cache_info", None))
                    and getattr(obj, "__module__", None) == mod.__name__):
                out[attr] = obj
    return out


def cache_counts(caches: dict) -> dict:
    return {name: fn.cache_info()[:2] for name, fn in caches.items()}


class Tracer:
    """Records spans around the wrapped functions while installed."""

    def __init__(self):
        self.names = []
        self._ids = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack = []
        self._patched = []      # (module, attribute, original)
        self.absent = set()
        self.t0 = time.perf_counter()

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _wrap(self, fn, name: str, side_split: bool):
        fixed = self._id(name)
        if side_split:
            import inspect
            default_side = inspect.signature(fn).parameters["side"].default
            side_ids = {key: self._id(f"{name}.{suffix}")
                        for key, suffix in SIDE_NAMES.items()}
        stack, name_id, parent = self._stack, self.name_id, self.parent
        start, end = self.start, self.end
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            nid = fixed
            if side_split:
                side = (args[_SIDE_ARG] if len(args) > _SIDE_ARG
                        else kwargs.get("side", default_side))
                nid = side_ids.get(getattr(side, "name", ""), fixed)
            i = len(name_id)
            name_id.append(nid)
            parent.append(stack[-1] if stack else -1)
            start.append(0.0)
            end.append(0.0)
            stack.append(i)
            t = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end[i] = clock()
                start[i] = t
                stack.pop()

        wrapper.__wrapped__ = fn
        return wrapper

    def install(self) -> "Tracer":
        modules = {m.__name__.rpartition(".")[2]: m
                   for m in package_modules()}
        for metric, (mod_name, attr) in TRACED.items():
            home = modules.get(mod_name)
            fn = getattr(home, attr, None) if home is not None else None
            if fn is None:
                self.absent.add(metric)
                continue
            wrapper = self._wrap(
                fn, metric,
                side_split=attr == "relative_entropy_vs_posterior")
            for mod in modules.values():
                if vars(mod).get(attr) is fn:
                    self._patched.append((mod, attr, fn))
                    setattr(mod, attr, wrapper)
        return self

    def uninstall(self) -> None:
        for mod, attr, fn in reversed(self._patched):
            setattr(mod, attr, fn)
        self._patched.clear()

    def __enter__(self):
        return self.install()

    def __exit__(self, *exc):
        self.uninstall()

    # --- aggregation ------------------------------------------------------

    def totals(self) -> dict:
        """name -> [calls, inclusive seconds, self seconds]."""
        n = len(self.name_id)
        child = [0.0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child[p] += self.end[i] - self.start[i]
        out = {}
        for i in range(n):
            dur = self.end[i] - self.start[i]
            row = out.setdefault(self.names[self.name_id[i]], [0, 0.0, 0.0])
            row[0] += 1
            row[1] += dur
            row[2] += dur - child[i]
        return out

    def write(self, path) -> None:
        """Write every span, times in microseconds from tracer creation."""
        us = 1e6
        doc = {
            "names": self.names,
            "name": list(self.name_id),
            "parent": list(self.parent),
            "start_us": [round((t - self.t0) * us, 1) for t in self.start],
            "end_us": [round((t - self.t0) * us, 1) for t in self.end],
        }
        with open(path, "w") as fh:
            json.dump(doc, fh, separators=(",", ":"))
