"""Span tracer that wraps the library's public functions from outside.

``Tracer.install`` replaces each function named in ``TRACED`` with a
wrapper that records one span per call, and patches every ``z2cover``
module that imported the name, so calls through ``from .x import f``
bindings are seen too.  Generator functions are timed across their
consumption: the span accumulates only the time spent inside ``next``.

A span is ``[name, start, duration, parent, op, count]``; ``parent`` is the
enclosing span of the same thread (or None) and ``count`` is the
per-function work counter described in ``COUNTERS``.  Spans stay in memory
until ``export`` is called at the end of the run.
"""

from __future__ import annotations

import importlib
import inspect
import sys
import threading
import time

# module -> functions wrapped in a traced run.  The per-layer metrics are a
# subset; the rest exist so that the library's entry points are covered and
# time under no span really is CLI code (argparse, emitters).
TRACED = {
    "gf2": ("canonicalize", "orbit_reps"),
    "walsh": ("forward",),
    "wps": ("monomial_count",),
    "cover": ("from_path", "validate", "eigensheaf_degrees", "is_flat", "half_point_count"),
    "invariants": (
        "invariant_report",
        "volume",
        "holomorphic_euler",
        "topological_euler",
        "geography_point",
        "hunt_scan",
    ),
    "classify": (
        "enumerate_s1",
        "enumerate_flat",
        "enumerate_L1",
        "bounds_report",
        "reconstruct_branch",
        "_reconstruct_distribution",
        "l_distribution_candidates",
        "m_profiles",
        "is_pluricanonical",
    ),
    "moduli": ("deformation_criteria",),
}

def _orbit_count(args, result):
    return (len(args[0]), len(result))


def _admissible(args, result):
    return int(result.admissible)


def _returned(args, result):
    return len(result)


# qualified name -> (counter over (args, result), counter field names).
# ``orbit_reps`` gets its input materialized first so it can be counted.
COUNTERS = {
    "gf2.orbit_reps": (_orbit_count, ("inputs", "orbits")),
    "classify.l_distribution_candidates": (_returned, ("returned",)),
    "classify.is_pluricanonical": (_admissible, ("admissible",)),
    "classify._reconstruct_distribution": (None, ("yielded",)),
}


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.op = None
        self._local = threading.local()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def install(self) -> list[str]:
        """Wrap every traced function; return the qualified names absent."""
        absent = []
        mods = {m: importlib.import_module(f"z2cover.{m}") for m in TRACED}
        importlib.import_module("z2cover.cli")
        for mod_name, names in TRACED.items():
            for fn_name in names:
                qual = f"{mod_name}.{fn_name}"
                original = getattr(mods[mod_name], fn_name, None)
                if original is None:
                    absent.append(qual)
                    continue
                wrapper = self._wrap(qual, original)
                for mod in list(sys.modules.values()):
                    if getattr(mod, "__name__", "").startswith("z2cover"):
                        for attr, value in list(vars(mod).items()):
                            if value is original:
                                setattr(mod, attr, wrapper)
        return absent

    def _wrap(self, qual: str, fn):
        counter = COUNTERS.get(qual, (None, ()))[0]
        tracer = self
        if inspect.isgeneratorfunction(fn):

            def traced_gen(*args, **kwargs):
                gen = fn(*args, **kwargs)
                span = None
                while True:
                    stack = tracer._stack()
                    if span is None:
                        span = [qual, time.perf_counter(), 0.0, stack[-1] if stack else None, tracer.op, 0]
                        tracer.spans.append(span)
                    stack.append(span)
                    t0 = time.perf_counter()
                    try:
                        item = next(gen)
                    except StopIteration:
                        return
                    finally:
                        span[2] += time.perf_counter() - t0
                        stack.pop()
                    span[5] += 1
                    yield item

            return traced_gen

        def traced(*args, **kwargs):
            if qual == "gf2.orbit_reps":
                args = (list(args[0]),) + args[1:]
            stack = tracer._stack()
            span = [qual, 0.0, 0.0, stack[-1] if stack else None, tracer.op, None]
            tracer.spans.append(span)
            stack.append(span)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                stack.pop()
                span[1], span[2] = t0, t1 - t0
            if counter is not None:
                span[5] = counter(args, result)
            return result

        return traced

    def export(self) -> list[list]:
        """Spans with parents replaced by list indices (JSON-ready)."""
        index = {id(span): i for i, span in enumerate(self.spans)}
        return [
            [name, start, dur, None if parent is None else index[id(parent)], op, count]
            for name, start, dur, parent, op, count in self.spans
        ]


def covered(intervals: list[tuple[float, float]]) -> float:
    """Length of the union of ``(start, end)`` intervals."""
    total = 0.0
    end = None
    for a, b in sorted(intervals):
        if end is None or a > end:
            total += b - a
            end = b
        elif b > end:
            total += b - end
            end = b
    return total


def aggregate(spans: list[list]) -> tuple[dict, float, dict]:
    """Per-function calls, self and total time and counters; plus coverage.

    ``spans`` is an exported list.  Returns ``(per_function, covered_s,
    per_op)``: ``covered_s`` is the union length of the top-level spans, the
    time some library span was open, and ``per_op`` maps each op to its
    ``covered_s`` and its self time per module.
    """
    child_time = [0.0] * len(spans)
    for name, start, dur, parent, op, count in spans:
        if parent is not None:
            child_time[parent] += dur
    out: dict[str, dict] = {}
    per_op: dict = {}
    for i, (name, start, dur, parent, op, count) in enumerate(spans):
        self_s = dur - child_time[i]
        rec = out.setdefault(name, {"calls": 0, "self_s": 0.0, "total_s": 0.0, "counts": None})
        rec["calls"] += 1
        rec["self_s"] += self_s
        rec["total_s"] += dur
        if count is not None:
            values = count if isinstance(count, (list, tuple)) else [count]
            if rec["counts"] is None:
                rec["counts"] = [0] * len(values)
            rec["counts"] = [a + b for a, b in zip(rec["counts"], values)]
        op_rec = per_op.setdefault(op, {"top": [], "modules": {}})
        module = name.split(".")[0]
        op_rec["modules"][module] = op_rec["modules"].get(module, 0.0) + self_s
        if parent is None:
            op_rec["top"].append((start, start + dur))
    ops = {op: {"covered_s": covered(r["top"]), "modules": r["modules"]} for op, r in per_op.items()}
    return out, sum(r["covered_s"] for r in ops.values()), ops


def merge(into: dict, more: dict) -> None:
    """Add one ``aggregate`` result into another in place."""
    for name, rec in more.items():
        cur = into.setdefault(name, {"calls": 0, "self_s": 0.0, "total_s": 0.0, "counts": None})
        cur["calls"] += rec["calls"]
        cur["self_s"] += rec["self_s"]
        cur["total_s"] += rec["total_s"]
        if rec["counts"] is not None:
            base = cur["counts"] or [0] * len(rec["counts"])
            cur["counts"] = [a + b for a, b in zip(base, rec["counts"])]
