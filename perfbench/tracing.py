"""Spans and counters around the calls into each lipgrad layer.

The benchmark times layers from its own files: it replaces the module and
class attributes the library calls through with wrappers for the length of
a traced pass, and restores them afterwards. ``src/`` is never edited.

A span records its start and end, and the time of the spans it encloses;
spans are aggregated per name when they end, and the aggregate is written
out when the run ends. Self time is a span's duration minus the time of the
spans nested in it.
"""

from __future__ import annotations

import dataclasses
import time
from collections import Counter
from contextlib import contextmanager

perf_counter = time.perf_counter


class Tracer:
    """Per-name aggregate of spans: [calls, total seconds, self seconds]."""

    def __init__(self):
        self.stack: list[list[float]] = []  # [start, time of nested spans]
        self.spans: dict[str, list] = {}
        self.counts: Counter = Counter()

    def span(self, name, observe=None):
        """Decorator: time every call as span ``name``; ``observe(args, result)`` counts."""
        stack = self.stack
        stat = self.spans.setdefault(name, [0, 0.0, 0.0])

        def make(fn):
            def traced(*args, **kwargs):
                frame = [perf_counter(), 0.0]
                stack.append(frame)
                try:
                    result = fn(*args, **kwargs)
                finally:
                    took = perf_counter() - frame[0]
                    stack.pop()
                    stat[0] += 1
                    stat[1] += took
                    stat[2] += took - frame[1]
                    if stack:
                        stack[-1][1] += took
                if observe is not None:
                    observe(args, result)
                return result
            return traced
        return make

    def counter(self, name, before=None):
        """Decorator: count calls as ``name``; ``before(args)`` runs first."""
        counts = self.counts

        def make(fn):
            def counted(*args, **kwargs):
                counts[name] += 1
                if before is not None:
                    before(args)
                return fn(*args, **kwargs)
            return counted
        return make

    def stat(self, name) -> tuple[int, float, float]:
        return tuple(self.spans.get(name, (0, 0.0, 0.0)))

    def dump(self) -> dict:
        return {
            "spans": {k: {"calls": c, "total_s": t, "self_s": s}
                      for k, (c, t, s) in sorted(self.spans.items())},
            "counts": dict(sorted(self.counts.items())),
        }


@contextmanager
def patched(replacements):
    """Swap ``(owner, attribute, decorator)`` wrappers in; always restore them."""
    saved = []
    try:
        for owner, attr, wrap in replacements:
            original = getattr(owner, attr)
            saved.append((owner, attr, original))
            setattr(owner, attr, wrap(original))
        yield
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)


def traced_problem(tracer: Tracer, problem):
    """The problem with f and grad timed as one span, ``problems.eval``."""
    ev = tracer.span("problems.eval")
    return dataclasses.replace(problem, f=ev(problem.f), grad=ev(problem.grad))


def layer_patches(lg, tracer: Tracer) -> list:
    """Wrappers for every layer boundary the per-layer metrics read."""
    from lipgrad import baselines, bench, bounding, optimizer, problems, selection
    from lipgrad.geometry import Partition

    counts = tracer.counts
    phase = ["explore"]

    def scanned(args, dots):
        _, s_lo, s_hi = args
        counts["selection.groups_scanned"] += s_hi - s_lo + 1

    def hull(args, result):
        counts["selection.dots"] += len(args[0])
        counts["selection.hull_size"] += len(result.selected)

    def kept(args, result):
        counts["selection.improvement_filter.in"] += len(args[0].selected)
        counts["selection.improvement_filter.kept"] += len(result)

    def enter(name):
        def set_phase(args):
            phase[0] = name
        return set_phase

    def subdivision(args):
        counts[f"optimizer.subdivisions.{phase[0]}"] += 1

    def generate(fn):
        timed = tracer.span("bench.generate")(fn)
        return lambda cls, index: traced_problem(tracer, timed(cls, index))

    def run_method(fn):
        solve = {m: tracer.span(f"solve.{m}")(fn) for m in ("new", "direct", "directl")}
        return lambda name, problem, config: solve[name](name, problem, config)

    span, counter = tracer.span, tracer.counter
    return [
        (problems, "generate", generate),
        (bench, "run_method", run_method),
        (bench, "run_class", span("bench.run_class")),
        (Partition, "trisect", span("geometry.trisect")),
        (Partition, "get_or_eval", span("geometry.get_or_eval")),
        (bounding, "characterize", span("bounding.characterize")),
        (selection, "group_representatives",
         span("selection.group_representatives", scanned)),
        (selection, "nondominated", span("selection.nondominated", hull)),
        (selection, "improvement_filter", span("selection.improvement_filter", kept)),
        (optimizer, "exploration_iteration",
         counter("optimizer.iterations", enter("explore"))),
        (optimizer, "record_phase", counter("optimizer.record_phases", enter("record"))),
        (optimizer, "_subdivide", counter("optimizer.subdivisions", subdivision)),
        (optimizer, "_resolve_record_box", span("optimizer.resolve_record_box")),
        (baselines._CenterState, "select", span("baselines.select")),
        (baselines._CenterState, "subdivide", span("baselines.subdivide")),
        (baselines, "heap_min_entries", counter("baselines.heap_min_entries.calls")),
    ]


def layer_metrics(tracer: Tracer, solve_s: float, new_trials: int, new_boxes: int) -> dict:
    """The per-layer metrics of one traced pass.

    ``solve_s`` is the traced wall time of the solve calls the benchmark
    made; ``new_trials`` and ``new_boxes`` sum the gradient method's runs.
    """
    c = tracer.counts
    ev_calls, _, ev_self = tracer.stat("problems.eval")
    goe_calls, _, goe_self = tracer.stat("geometry.get_or_eval")
    ch_calls, _, ch_self = tracer.stat("bounding.characterize")
    tri_calls, _, tri_self = tracer.stat("geometry.trisect")
    hull_in = c["selection.improvement_filter.in"]
    iterations = c["optimizer.iterations"]

    def self_s(name):
        return tracer.stat(name)[2]

    return {
        "problems.eval.calls": ev_calls,
        "problems.eval.self_s": ev_self,
        "problems.eval.share": ev_self / solve_s,
        "geometry.trisect.calls": tri_calls,
        "geometry.trisect.self_s": tri_self,
        "geometry.get_or_eval.calls": goe_calls,
        "geometry.get_or_eval.self_s": goe_self,
        "geometry.vertex_reuse": 1.0 - new_trials / goe_calls if goe_calls else 0.0,
        "geometry.boxes_per_trial": new_boxes / new_trials if new_trials else 0.0,
        "bounding.characterize.calls": ch_calls,
        "bounding.characterize.self_s": ch_self,
        "bounding.characterize.us_per_call": 1e6 * ch_self / ch_calls if ch_calls else 0.0,
        "selection.group_representatives.self_s": self_s("selection.group_representatives"),
        "selection.groups_scanned": c["selection.groups_scanned"],
        "selection.dots": c["selection.dots"],
        "selection.nondominated.self_s": self_s("selection.nondominated"),
        "selection.hull_size": c["selection.hull_size"],
        "selection.improvement_filter.kept_ratio":
            c["selection.improvement_filter.kept"] / hull_in if hull_in else 0.0,
        "optimizer.iterations": iterations,
        "optimizer.record_phases": c["optimizer.record_phases"],
        "optimizer.subdivisions_per_iteration":
            c["optimizer.subdivisions.explore"] / iterations if iterations else 0.0,
        "optimizer.resolve_record_box.self_s": self_s("optimizer.resolve_record_box"),
        "optimizer.other_self_s": self_s("solve.new"),
        "baselines.select.self_s": self_s("baselines.select"),
        "baselines.subdivide.self_s": self_s("baselines.subdivide"),
        "baselines.heap_min_entries.calls": c["baselines.heap_min_entries.calls"],
        "bench.generate.self_s": self_s("bench.generate"),
        "bench.run_class.self_s": self_s("bench.run_class"),
    }
