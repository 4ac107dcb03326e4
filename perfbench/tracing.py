"""Outside-in tracing of grinv: spans around the public functions of each layer.

``install(tracer)`` replaces each wrapped function in every ``grinv``
namespace that binds it (so ``from .modules import limit`` call sites are
covered too) and wraps a few methods on their classes.  It returns a
function that puts every original back.  Nothing inside ``src/`` changes.

A span is (name, start, end, parent, job).  Spans are appended to flat
arrays in memory and written once, at exit.  Self time is computed as
each span closes: its duration minus the durations of its direct
children.  grinv is single-threaded, so no layer ever waits and no
waiting time is recorded.  The wrapper's own bookkeeping is charged to
the caller's self time.
"""

from __future__ import annotations

import functools
import sys
from array import array
from time import perf_counter

# (module, public function) pairs; the span name is "<layer>.<function>".
FUNCTIONS = {
    "posets": ("enumerate_grid_intervals", "enumerate_intervals", "containment_poset"),
    "modules": ("limit", "colimit", "generalized_rank", "generalized_rank_fast"),
    "mobius": ("mobius_function", "convolve"),
    "invariants": ("gri", "gpd", "verify_invertibility", "reconstruct_table"),
    "zigzag": ("zigzag_rank", "zigzag_barcode", "interval_hull", "is_tame",
               "rank_bounds_from_gri", "multiplicity_bounds"),
    "erosion": ("erosion_distance", "verify_erosion"),
    "cli": ("main",),
}
# (module, class, method); the span name is "<layer>.<Class>.<method>".
METHODS = (
    ("gf", "FFMatrix", "rref"),
    ("modules", "PModule", "restrict"),
    ("modules", "PModule", "from_text"),
    ("invariants", "RankCache", "rank"),
    ("invariants", "GriTable", "check_monotone"),
    ("posets", "GridInterval", "thicken"),
    ("erosion", "ThickeningFamily", "members_within"),
)


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.name_id: dict[str, int] = {}
        self.job = -1
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_job = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self._stack: list[list] = []  # [span index, time covered by children]
        self.reset_totals()

    def reset_totals(self):
        self.calls: dict[str, int] = {}
        self.self_s: dict[str, float] = {}
        self.total_s: dict[str, float] = {}
        self.extra: dict[str, int] = {}

    def add(self, key: str, n: int):
        self.extra[key] = self.extra.get(key, 0) + n

    def _id(self, name: str) -> int:
        if name not in self.name_id:
            self.name_id[name] = len(self.names)
            self.names.append(name)
        return self.name_id[name]

    def wrap(self, name: str, fn, count=None):
        """``count(tracer, args, kwargs, result, before)`` records extra counts after
        the span closes; ``before`` is ``count.before(args)`` taken before the call."""
        nid = self._id(name)
        before_fn = getattr(count, "before", None)
        stack = self._stack
        starts, ends = self.span_start, self.span_end

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            before = before_fn(args) if before_fn else None
            idx = len(starts)
            self.span_name.append(nid)
            self.span_parent.append(stack[-1][0] if stack else -1)
            self.span_job.append(self.job)
            ends.append(0.0)
            frame = [idx, 0.0]
            stack.append(frame)
            starts.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                t = perf_counter()
                ends[idx] = t
                stack.pop()
                dur = t - starts[idx]
                self.calls[name] = self.calls.get(name, 0) + 1
                self.self_s[name] = self.self_s.get(name, 0.0) + dur - frame[1]
                self.total_s[name] = self.total_s.get(name, 0.0) + dur
                if stack:
                    stack[-1][1] += dur
            if count is not None:
                count(self, args, kwargs, result, before)
            return result

        return wrapper

    def write(self, path: str, job_names: list[str]):
        """Spans as arrays; ``name`` indexes ``names`` and ``job`` indexes ``jobs``."""
        import numpy as np

        np.savez_compressed(
            path, names=np.array(self.names), jobs=np.array(job_names),
            name=np.asarray(self.span_name),
            start=np.asarray(self.span_start), end=np.asarray(self.span_end),
            parent=np.asarray(self.span_parent), job=np.asarray(self.span_job))


# -- extra counts recorded at the span boundaries ---------------------------------------


def _rref_cells(tr, args, kwargs, result, before):
    rows, cols = args[0].a.shape
    tr.add("gf.rref_cells", rows * cols)


def _cache_misses(tr, args, kwargs, result, before):
    tr.add("invariants.cache_misses", args[0].queries - before)


_cache_misses.before = lambda args: args[0].queries


def _members_enumerated(tr, args, kwargs, result, before):
    tr.add("posets.members_enumerated", len(result))


def _containment_pairs(tr, args, kwargs, result, before):
    tr.add("posets.containment_pairs", len(result.items) ** 2)


def _mu_nonzeros(tr, args, kwargs, result, before):
    tr.add("mobius.mu_nonzeros", len(result.values))


def _members_checked(tr, args, kwargs, result, before):
    collection = args[2] if len(args) > 2 else kwargs["collection"]
    checked = len(collection) if result is None else list(collection).index(result) + 1
    tr.add("erosion.members_checked", checked)


COUNTS = {
    "gf.FFMatrix.rref": _rref_cells,
    "invariants.RankCache.rank": _cache_misses,
    "posets.enumerate_grid_intervals": _members_enumerated,
    "posets.enumerate_intervals": _members_enumerated,
    "erosion.ThickeningFamily.members_within": _members_enumerated,
    "posets.containment_poset": _containment_pairs,
    "mobius.mobius_function": _mu_nonzeros,
    "erosion.verify_erosion": _members_checked,
}


def install(tracer: Tracer):
    """Wrap every traced function and method; returns the function that undoes it."""
    namespaces = [m for name, m in list(sys.modules.items())
                  if m is not None and (name == "grinv" or name.startswith("grinv."))]
    undo = []
    for layer, fnames in FUNCTIONS.items():
        module = sys.modules[f"grinv.{layer}"]
        for fname in fnames:
            original = getattr(module, fname)
            name = f"{layer}.{fname}"
            wrapped = tracer.wrap(name, original, COUNTS.get(name))
            for ns in namespaces:
                for attr, value in list(vars(ns).items()):
                    if value is original:
                        setattr(ns, attr, wrapped)
                        undo.append((ns, attr, original))
    for layer, cname, meth in METHODS:
        cls = getattr(sys.modules[f"grinv.{layer}"], cname)
        raw = cls.__dict__[meth]
        name = f"{layer}.{cname}.{meth}"
        if isinstance(raw, classmethod):
            wrapped = classmethod(tracer.wrap(name, raw.__func__, COUNTS.get(name)))
        else:
            wrapped = tracer.wrap(name, raw, COUNTS.get(name))
        setattr(cls, meth, wrapped)
        undo.append((cls, meth, raw))

    def uninstall():
        for obj, attr, original in reversed(undo):
            setattr(obj, attr, original)

    return uninstall


# -- per-layer metrics ----------------------------------------------------------------

LAYER_UNITS = {
    "gf.rref_calls": "count", "gf.rref_cells": "count", "gf.rref_self_s": "s",
    "modules.fast_rank_calls": "count", "modules.general_rank_calls": "count",
    "modules.fence_solves": "count", "modules.solve_ratio": "ratio",
    "modules.restrict_calls": "count", "modules.limit_self_s": "s",
    "modules.colimit_self_s": "s", "modules.restrict_self_s": "s",
    "modules.fast_rank_self_s": "s",
    "invariants.cache_lookups": "count", "invariants.cache_misses": "count",
    "invariants.hit_ratio": "ratio", "invariants.gri_self_s": "s",
    "invariants.gpd_self_s": "s", "invariants.check_monotone_s": "s",
    "invariants.verify_invertibility_s": "s",
    "posets.enumerate_s": "s", "posets.members_enumerated": "count",
    "posets.containment_s": "s", "posets.containment_pairs": "count",
    "posets.thicken_calls": "count", "posets.thicken_self_s": "s",
    "mobius.mobius_function_s": "s", "mobius.mu_nonzeros": "count", "mobius.convolve_s": "s",
    "erosion.probes": "count", "erosion.members_checked": "count",
    "erosion.verify_self_s": "s",
    "zigzag.rank_calls": "count", "zigzag.hull_calls": "count", "zigzag.tame_checks": "count",
    "zigzag.barcode_self_s": "s", "zigzag.bounds_self_s": "s",
    "cli.self_s": "s", "cli.parse_s": "s", "cli.stdout_bytes": "bytes",
    "trace.spans": "count", "trace.wall_s": "s", "trace.overhead_s": "s",
}


def layer_metrics(tr: Tracer, stdout_bytes: int) -> dict[str, float]:
    """Per-layer values of one traced pass, from the tracer's totals."""
    calls, self_s, total_s, extra = tr.calls, tr.self_s, tr.total_s, tr.extra

    def c(*names):
        return sum(calls.get(n, 0) for n in names)

    def s(*names):
        return sum(self_s.get(n, 0.0) for n in names)

    rank_calls = c("modules.generalized_rank_fast", "modules.generalized_rank")
    fence_solves = c("modules.limit", "modules.colimit")
    lookups = c("invariants.RankCache.rank")
    misses = extra.get("invariants.cache_misses", 0)
    return {
        "gf.rref_calls": c("gf.FFMatrix.rref"),
        "gf.rref_cells": extra.get("gf.rref_cells", 0),
        "gf.rref_self_s": s("gf.FFMatrix.rref"),
        "modules.fast_rank_calls": c("modules.generalized_rank_fast"),
        "modules.general_rank_calls": c("modules.generalized_rank"),
        "modules.fence_solves": fence_solves,
        "modules.solve_ratio": fence_solves / rank_calls if rank_calls else 0.0,
        "modules.restrict_calls": c("modules.PModule.restrict"),
        "modules.limit_self_s": s("modules.limit"),
        "modules.colimit_self_s": s("modules.colimit"),
        "modules.restrict_self_s": s("modules.PModule.restrict"),
        "modules.fast_rank_self_s": s("modules.generalized_rank_fast"),
        "invariants.cache_lookups": lookups,
        "invariants.cache_misses": misses,
        "invariants.hit_ratio": 1 - misses / lookups if lookups else 0.0,
        "invariants.gri_self_s": s("invariants.gri"),
        "invariants.gpd_self_s": s("invariants.gpd"),
        "invariants.check_monotone_s": total_s.get("invariants.GriTable.check_monotone", 0.0),
        "invariants.verify_invertibility_s": total_s.get("invariants.verify_invertibility", 0.0),
        # the enumeration entry points only nest in each other, so their self
        # times add up to the outermost call's duration
        "posets.enumerate_s": s("posets.enumerate_grid_intervals", "posets.enumerate_intervals",
                                "erosion.ThickeningFamily.members_within"),
        "posets.members_enumerated": extra.get("posets.members_enumerated", 0),
        "posets.containment_s": s("posets.containment_poset"),
        "posets.containment_pairs": extra.get("posets.containment_pairs", 0),
        "posets.thicken_calls": c("posets.GridInterval.thicken"),
        "posets.thicken_self_s": s("posets.GridInterval.thicken"),
        "mobius.mobius_function_s": s("mobius.mobius_function"),
        "mobius.mu_nonzeros": extra.get("mobius.mu_nonzeros", 0),
        "mobius.convolve_s": s("mobius.convolve"),
        "erosion.probes": c("erosion.verify_erosion"),
        "erosion.members_checked": extra.get("erosion.members_checked", 0),
        "erosion.verify_self_s": s("erosion.verify_erosion"),
        "zigzag.rank_calls": c("zigzag.zigzag_rank"),
        "zigzag.hull_calls": c("zigzag.interval_hull"),
        "zigzag.tame_checks": c("zigzag.is_tame"),
        "zigzag.barcode_self_s": s("zigzag.zigzag_barcode"),
        "zigzag.bounds_self_s": s("zigzag.rank_bounds_from_gri", "zigzag.multiplicity_bounds"),
        "cli.self_s": s("cli.main"),
        "cli.parse_s": total_s.get("modules.PModule.from_text", 0.0),
        "cli.stdout_bytes": stdout_bytes,
        "trace.spans": sum(calls.values()),
    }
