"""Spans around each layer's public entry points, for the traced run.

The benchmark does not edit the program.  In a traced run it replaces the
module and class attributes through which one layer calls the next with
wrappers that record a span per call, and puts the originals back
afterwards.  Spans nest per thread: a span's self time is its duration
minus the time of the spans opened inside it on the same thread, so the
self times of nested layers add up to the outermost span.

Spans are kept in memory and summarised when the run ends: per layer the
number of calls, the busy time (sum of durations), the self time and the
median duration of one call.  Counts that describe the work (tasks, nodes,
rerouted edges, kernel steps, ...) are kept next to them.
"""

from __future__ import annotations

import functools
import statistics
import threading
import time
import weakref
from collections import Counter, defaultdict
from contextlib import contextmanager
from typing import Callable, Iterator, Optional


class Recorder:
    """Thread-safe span and count store with attribute patching."""

    def __init__(self) -> None:
        self.spans: list[dict] = []
        self.counts: Counter = Counter()
        self._local = threading.local()
        self._lock = threading.Lock()
        self._patches: list[tuple[object, str, object]] = []

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------
    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def span(self, name: str) -> Iterator[dict]:
        """Record one span.  Setting ``record["kind"]`` on the yielded record
        files the span under ``name.kind`` in the summary."""
        stack = self._stack()
        record = {"name": name, "kind": None, "start": time.perf_counter(), "children": 0.0}
        stack.append(record)
        try:
            yield record
        finally:
            record["end"] = time.perf_counter()
            stack.pop()
            if stack:
                stack[-1]["children"] += record["end"] - record["start"]
            with self._lock:
                self.spans.append(record)

    def current(self) -> Optional[dict]:
        """The innermost open span of the calling thread, if any."""
        stack = self._stack()
        return stack[-1] if stack else None

    def count(self, name: str, amount: float = 1) -> None:
        with self._lock:
            self.counts[name] += amount

    def call(self, name: str, function: Callable, *args, **kwargs):
        """Call ``function`` inside a span named ``name``."""
        with self.span(name):
            return function(*args, **kwargs)

    def traced(
        self, name: str, function: Callable, after: Optional[Callable[..., None]] = None
    ) -> Callable:
        """``function`` with a span named ``name`` around every call.

        ``after(record, result, *args, **kwargs)`` runs once the span has
        closed, to file it under a kind or add to the counts.
        """

        @functools.wraps(function)
        def traced(*args, **kwargs):
            with self.span(name) as record:
                result = function(*args, **kwargs)
            if after is not None:
                after(record, result, *args, **kwargs)
            return result

        return traced

    # ------------------------------------------------------------------
    # Patching
    # ------------------------------------------------------------------
    def patch(self, owner: object, attribute: str, replacement: object) -> None:
        """Replace ``owner.attribute`` until :meth:`restore`."""
        self._patches.append((owner, attribute, getattr(owner, attribute)))
        setattr(owner, attribute, replacement)

    def wrap(
        self,
        owner: object,
        attribute: str,
        name: str,
        after: Optional[Callable[..., None]] = None,
    ) -> None:
        """Trace every call of ``owner.attribute`` (see :meth:`traced`)."""
        self.patch(owner, attribute, self.traced(name, getattr(owner, attribute), after))

    def restore(self) -> None:
        """Put back every patched attribute, newest first."""
        while self._patches:
            owner, attribute, original = self._patches.pop()
            setattr(owner, attribute, original)

    # ------------------------------------------------------------------
    # Layer entry points shared by the offline and served runs
    # ------------------------------------------------------------------
    def trace_compile(self) -> None:
        """Span ``compile`` around ``compile_graph``, behind ``DagTask.compiled``
        and ``compile_task``.  A call that builds a new view is filed under
        ``compile.build``, one answered from the graph's cache under
        ``compile.cached``."""
        from repro.core import compiled

        # id(graph) -> (finaliser dropping the entry, last view returned)
        latest: dict[int, tuple] = {}

        def after(record, result, graph, *args, **kwargs):
            key = id(graph)
            with self._lock:
                entry = latest.get(key)
                record["kind"] = "cached" if entry and entry[1] is result else "build"
                finaliser = entry[0] if entry else weakref.finalize(graph, latest.pop, key, None)
                latest[key] = (finaliser, result)

        self.wrap(compiled, "compile_graph", "compile", after)

    def trace_transform(self, owner: object) -> None:
        """Span ``transform`` around ``owner.transform`` (Algorithm 1)."""

        def after(record, result, *args, **kwargs):
            self.count("transform.rerouted_edges", len(result.rerouted_edges))

        self.wrap(owner, "transform", "transform", after)

    # ------------------------------------------------------------------
    # Summary
    # ------------------------------------------------------------------
    def layers(self) -> dict[str, dict]:
        """Per layer: calls, busy and self seconds, and the median call in ms
        with and without the spans nested inside it."""
        groups: dict[str, list[dict]] = defaultdict(list)
        with self._lock:
            spans = list(self.spans)
        for record in spans:
            name = record["name"] if record["kind"] is None else f"{record['name']}.{record['kind']}"
            groups[name].append(record)
        summary = {}
        for name, records in groups.items():
            durations = [record["end"] - record["start"] for record in records]
            own = [duration - record["children"] for duration, record in zip(durations, records)]
            summary[name] = {
                "calls": len(records),
                "busy_s": sum(durations),
                "self_s": sum(own),
                "median_ms": 1e3 * statistics.median(durations),
                "self_median_ms": 1e3 * statistics.median(own),
            }
        return summary


# ----------------------------------------------------------------------
# Per-layer metrics
# ----------------------------------------------------------------------
# Every workload reports every per-layer metric.  The layers below are on
# the path of some workloads only; the others report them as zero (a share
# of no time, a count of no calls).
NOT_CALLED: dict[str, dict[str, str]] = {
    "transform": {
        "transform.share": "ratio",
        "transform.calls": "count",
        "transform.rerouted_edges": "count",
    },
    "experiments": {"experiments.share": "ratio"},
    "workload": {
        "workload.build_share": "ratio",
        "workload.instances": "count",
        "workload.nodes": "count",
    },
    "service": {
        "decode.share": "ratio",
        "fingerprint.share": "ratio",
        "facade.share": "ratio",
        "analyse.share": "ratio",
        "encode.share": "ratio",
        "transport.share": "ratio",
        "cache.hit_ratio": "ratio",
        "batcher.batches": "count",
        "batcher.batch_size": "count",
        "http.request_bytes": "B",
        "http.response_bytes": "B",
    },
}


def not_called(*groups: str) -> dict[str, tuple]:
    """Zero for every metric of the layer ``groups`` a workload does not call."""
    return {name: (0, unit) for group in groups for name, unit in NOT_CALLED[group].items()}


def _entry(layers: dict[str, dict], name: str) -> dict:
    return layers.get(name, {"calls": 0, "busy_s": 0.0, "self_s": 0.0, "median_ms": 0.0})


def generator_metrics(layers: dict[str, dict], counts: Counter) -> dict[str, tuple]:
    """Time in the task generator and the size of what it generated."""
    return {
        "generator.busy_s": (_entry(layers, "generator")["busy_s"], "s"),
        "generator.tasks": (counts["generator.tasks"], "count"),
        "generator.nodes": (counts["generator.nodes"], "count"),
        "generator.edges": (counts["generator.edges"], "count"),
    }


def compile_metrics(layers: dict[str, dict]) -> dict[str, tuple]:
    """Time in ``compile_graph`` over every call, calls, and calls that
    built a new view (the rest were answered from the graph's cache)."""
    built, cached = _entry(layers, "compile.build"), _entry(layers, "compile.cached")
    return {
        "compile.busy_s": (built["busy_s"] + cached["busy_s"], "s"),
        "compile.calls": (built["calls"] + cached["calls"], "count"),
        "compile.builds": (built["calls"], "count"),
    }


def engine_metrics(
    layers: dict[str, dict], steps: float, events: float, occupancy: float
) -> dict[str, tuple]:
    """The simulation engine: busy time, calls and the median call, and its
    kernel step profile (steps, node retirements, lane occupancy)."""
    engine = layers["engine"]
    return {
        "engine.busy_s": (engine["busy_s"], "s"),
        "engine.calls": (engine["calls"], "count"),
        "engine.call_ms": (engine["median_ms"], "ms"),
        "engine.kernel_steps": (steps, "count"),
        "engine.kernel_events": (events, "count"),
        "engine.events_per_step": (events / steps, "count"),
        "engine.occupancy": (occupancy, "ratio"),
    }


def transform_metrics(layers: dict[str, dict], counts: Counter, window_s: float) -> dict[str, tuple]:
    """Algorithm 1: its share of ``window_s``, calls and rerouted edges."""
    transform = layers["transform"]
    return {
        "transform.share": (transform["busy_s"] / window_s, "ratio"),
        "transform.calls": (transform["calls"], "count"),
        "transform.rerouted_edges": (counts["transform.rerouted_edges"], "count"),
    }
