"""In-memory spans around the library's public functions.

The tracer replaces, for the duration of one operation, each function
binding the package calls through (``signflip.engine.make_flip_plan``,
``signflip.simulate.fit_null``, ``signflip.baselines.fit_null``, ...)
with a wrapper that records a span: name, start, end, parent span and
the operation it belongs to.  A span's self time is its duration minus
the durations of its direct children; calls are sequential, so the
children never overlap.  Exact counters (calls, plan bytes, signed
multiply-adds, IRLS iterations, failed repetitions) are read off the
arguments and return values at the same boundaries.  Spans stay in
memory until ``dump`` writes them out.

With ``memory=True`` (tracemalloc must be running) each span also
records the peak traced memory it added above its starting level.
"""

import inspect
import json
import time
import tracemalloc
from collections import Counter, namedtuple
from contextlib import contextmanager

ROOT_SPAN = "bench.op"

# Bindings the package calls through, per module.  The span name is the
# defining module and function, with both flip-statistic kernels under
# one name and p_value (called by decide and by the scenarios) under
# engine.decide.
CALL_SITES = {
    "engine": (
        "flip_test", "fit_null", "score_contributions", "effective_contributions",
        "make_flip_plan", "flip_statistics_scalar", "flip_statistics_quadratic",
        "decide", "p_value",
    ),
    "simulate": (
        "run_scenario", "build_design", "fit_null", "score_contributions",
        "effective_contributions", "make_flip_plan", "flip_statistics_scalar",
        "flip_statistics_quadratic", "p_value", "parametric_score_test",
        "sandwich_wald_test", "one_sample_t",
    ),
    "baselines": ("fit_null", "fit_full", "score_contributions"),
}
_ALIASES = {
    "flip_statistics_scalar": "flip_statistics",
    "flip_statistics_quadratic": "flip_statistics",
    "p_value": "decide",
}


def _madds(bound):
    """w * n * d signed multiply-adds of one flip-statistics call."""
    plan = bound.arguments["plan"]
    contribs = bound.arguments["contribs"]
    d = 1 if getattr(contribs, "ndim", 1) == 1 else contribs.shape[1]
    return {"engine.sign_madds": plan.w * plan.n * d}


# Counters read at a boundary: span name -> f(bound arguments, result).
_COUNTERS = {
    "flips.make_flip_plan": lambda b, r: {"flips.sign_bytes": r.signs.nbytes},
    "engine.flip_statistics": lambda b, r: _madds(b),
    "glm.fit_null": lambda b, r: {"glm.irls_iterations": r.iterations},
    "glm.fit_full": lambda b, r: {"glm.irls_iterations": r.iterations},
    "simulate.run_scenario": lambda b, r: {"simulate.failed_reps": len(r.failed_reps)},
}


Span = namedtuple("Span", "id parent name start end self_s peak_mb")


class OpTrace:
    """Spans and counters of one operation; spans[0] is its root span."""

    def __init__(self, label):
        self.label = label
        self.spans = []
        self.counts = Counter()

    @property
    def wall(self):
        return self.spans[0].end - self.spans[0].start

    def self_time(self, name):
        return sum(s.self_s for s in self.spans if s.name == name)

    def peak_mb(self, name):
        return max((s.peak_mb for s in self.spans
                    if s.name == name and s.peak_mb is not None), default=0.0)


class Tracer:
    """Installs the span wrappers around one operation at a time."""

    def __init__(self, sf):
        self.ops = []
        self._targets = []
        for module_name, attrs in CALL_SITES.items():
            module = getattr(sf, module_name)
            for attr in attrs:
                fn = getattr(module, attr)
                span = f"{fn.__module__.rsplit('.', 1)[-1]}.{_ALIASES.get(attr, attr)}"
                self._targets.append((module, attr, fn, self._wrap(fn, span)))
        self._stack = None
        self._op = None
        self._memory = False

    def _wrap(self, fn, name):
        counter = _COUNTERS.get(name)
        signature = inspect.signature(fn)

        def wrapper(*args, **kwargs):
            span = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(span)
            if counter is not None:
                bound = signature.bind(*args, **kwargs)
                self._op.counts.update(counter(bound, result))
            return result

        return wrapper

    def _open(self, name):
        start_mem = None
        if self._memory:
            start_mem, peak = tracemalloc.get_traced_memory()
            if self._stack:
                parent = self._stack[-1]
                parent["peak"] = max(parent["peak"], peak)
            tracemalloc.reset_peak()
        parent_id = self._stack[-1]["id"] if self._stack else None
        span = {"id": len(self._op.spans), "parent": parent_id, "name": name,
                "child_s": 0.0, "mem0": start_mem, "peak": start_mem}
        self._op.spans.append(None)  # reserve the row so ids follow start order
        self._stack.append(span)
        span["start"] = time.perf_counter()
        return span

    def _close(self, span):
        end = time.perf_counter()
        self._stack.pop()
        duration = end - span["start"]
        peak_mb = None
        if self._memory:
            span["peak"] = max(span["peak"], tracemalloc.get_traced_memory()[1])
            peak_mb = (span["peak"] - span["mem0"]) / 2**20
            if self._stack:
                parent = self._stack[-1]
                parent["peak"] = max(parent["peak"], span["peak"])
        if self._stack:
            self._stack[-1]["child_s"] += duration
        self._op.spans[span["id"]] = Span(
            span["id"], span["parent"], span["name"], span["start"], end,
            duration - span["child_s"], peak_mb)

    @contextmanager
    def operation(self, label, memory=False):
        """Trace one operation; the wrappers are installed only inside."""
        self._op = OpTrace(label)
        self._stack = []
        self._memory = memory
        for module, attr, _, wrapper in self._targets:
            setattr(module, attr, wrapper)
        root = self._open(ROOT_SPAN)
        try:
            yield self._op
        finally:
            self._close(root)
            for module, attr, fn, _ in self._targets:
                setattr(module, attr, fn)
            self._op.counts.update(f"{s.name}.calls" for s in self._op.spans)
            self.ops.append(self._op)
            self._op = self._stack = None

    def dump(self, path, header):
        """Write every recorded span as one JSON document."""
        doc = dict(header)
        doc["span_fields"] = list(Span._fields)
        doc["ops"] = [{"label": op.label, "counts": op.counts, "spans": op.spans}
                      for op in self.ops]
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
