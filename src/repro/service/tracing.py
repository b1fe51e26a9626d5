"""Request tracing: span trees, shared flush spans, tail-sampled ring.

The PR 7 metrics layer answers "how is the service doing" in aggregate;
this module answers "*why was this request slow*".  Every traced request
owns a trace id and a tree of monotonic-clock spans::

    http.request
      facade.submit
        cache.lookup
        batcher.queue          (enqueue -> flush pickup)
        batcher.flush          (shared: one span serves the whole batch)
          engine.simulate      (chosen engine, lanes, kernel step profile)
          oracle.solve
          workload.simulate

The structurally interesting part is **fan-in**: micro-batching coalesces
many requests into one flush, so a ``batcher.flush`` span (and the engine
spans beneath it) is *one shared node linked from every member trace* --
each member records the link with its own ``batcher.queue`` span as the
local parent, so every trace still renders as a tree while the flush work
is attributed once, identically, to all members.  In-flight-dedupe joiners
likewise link the leader's trace id instead of fabricating duplicate
engine spans.  This is the latency-attribution counterpart of the
batched==sequential bit-identity contract: the payload a member receives
is indistinguishable from a solo run, and its trace says precisely which
shared work it waited on.

Completed traces land in a thread-safe, **byte-capped ring** with
tail-based sampling: error, degraded and slow-percentile traces are always
kept; the rest are sampled by a deterministic hash of the trace id
(``sample=1.0`` keeps everything, the default).  Ring listings and full
trees are served on ``GET /traces`` / ``GET /traces/<id>``, and every
trace exports to Chrome trace-event JSON (``?format=chrome``) loadable in
Perfetto.

Everything is stdlib-only, and the disabled path is near-free: with
tracing off (or outside a request) every hook degrades to a single
context-var read returning a no-op span -- the same disarmed-cheapness
contract the PR 6 fault points and the kernel-stats collector follow
(benchmarked by the ``tracing`` case of ``benchmarks/suite.py``).
"""

from __future__ import annotations

import itertools
import json
import logging
import re
import sys
import threading
import time
import uuid
import zlib
from collections import deque
from contextlib import contextmanager
from contextvars import ContextVar
from typing import Any, Dict, Iterator, List, Optional

__all__ = [
    "TRACE_HEADER",
    "JsonLogFormatter",
    "NULL_SPAN",
    "RequestTraceContext",
    "Span",
    "Trace",
    "Tracer",
    "chrome_trace",
    "configure_logging",
    "current_trace",
    "current_trace_id",
    "new_trace_id",
    "render_trace_tree",
]

#: Request/response header carrying the trace id end to end.
TRACE_HEADER = "X-Repro-Trace-Id"

_VALID_TRACE_ID = re.compile(r"^[A-Za-z0-9_-]{4,64}$")

_current_trace: ContextVar[Optional["Trace"]] = ContextVar(
    "repro_current_trace", default=None
)
_current_span: ContextVar[Optional["Span"]] = ContextVar(
    "repro_current_span", default=None
)

#: Process-wide span id counter (``itertools.count`` is atomic in CPython).
_SPAN_IDS = itertools.count(1)


def new_trace_id() -> str:
    """A fresh 32-hex-char trace id."""
    return uuid.uuid4().hex


def coerce_trace_id(value: Optional[str]) -> str:
    """A usable trace id: the caller's if well-formed, else a fresh one."""
    if value and _VALID_TRACE_ID.match(value):
        return value
    return new_trace_id()


def current_trace() -> Optional["Trace"]:
    """The trace active in this context (``None`` outside a request)."""
    return _current_trace.get()


def current_trace_id() -> Optional[str]:
    trace = _current_trace.get()
    return trace.trace_id if trace is not None else None


class _NullSpan:
    """No-op span returned by every hook when tracing is off."""

    __slots__ = ()
    span_id = None
    name = "null"

    def set(self, key: str, value: Any) -> None:
        pass

    def set_error(self) -> None:
        pass

    def finish(self) -> None:
        pass

    def __bool__(self) -> bool:
        return False


NULL_SPAN = _NullSpan()


class Span:
    """One timed node of a trace tree (monotonic clock, microsecond-ish)."""

    __slots__ = (
        "name",
        "span_id",
        "parent_id",
        "start",
        "end",
        "attributes",
        "error",
        "children",
    )

    def __init__(self, name: str, parent_id: Optional[str] = None) -> None:
        self.name = name
        self.span_id = f"s{next(_SPAN_IDS)}"
        self.parent_id = parent_id
        self.start = time.monotonic()
        self.end: Optional[float] = None
        self.attributes: Dict[str, Any] = {}
        self.error = False
        #: Shared-subtree children (spans attached directly, outside any
        #: single trace -- the flush span carries its engine spans here).
        self.children: Optional[List["Span"]] = None

    def set(self, key: str, value: Any) -> None:
        self.attributes[key] = value

    def set_error(self) -> None:
        self.error = True

    def finish(self) -> None:
        if self.end is None:
            self.end = time.monotonic()

    def attach(self, child: "Span") -> None:
        """Attach ``child`` as a shared-subtree child of this span."""
        if self.children is None:
            self.children = []
        child.parent_id = self.span_id
        self.children.append(child)

    def __bool__(self) -> bool:
        return True


class RequestTraceContext:
    """The trace baggage a :class:`~repro.service.batching.BatchRequest` carries.

    Bridges the thread hop: the submitter opens the ``batcher.queue`` span
    on the request thread; the flush (batcher thread) calls
    :meth:`join_flush` to finish it and link the shared flush span into
    the member's trace with the queue span as local parent.
    """

    __slots__ = ("trace", "queue_span")

    def __init__(self, trace: "Trace", queue_span: "Span") -> None:
        self.trace = trace
        self.queue_span = queue_span

    def join_flush(self, flush_span: "Span") -> None:
        self.queue_span.finish()
        self.trace.link_span(
            flush_span, local_parent=self.queue_span.span_id, kind="flush"
        )


class Trace:
    """A request's span tree plus links to shared spans and other traces."""

    __slots__ = (
        "trace_id",
        "name",
        "root",
        "spans",
        "links",
        "start_wall",
        "degraded",
        "error",
        "finished",
        "_lock",
    )

    def __init__(self, name: str, trace_id: str) -> None:
        self.trace_id = trace_id
        self.name = name
        self.root = Span(name)
        self.spans: List[Span] = [self.root]
        #: Link records: ``{"span_id", "local_parent", "kind"}`` for shared
        #: spans, ``{"trace_id", "kind"}`` for trace-to-trace links.
        self.links: List[Dict[str, Any]] = []
        self.start_wall = time.time()
        self.degraded = False
        self.error = False
        self.finished = False
        self._lock = threading.Lock()

    def add(self, span: Span) -> None:
        with self._lock:
            if not self.finished:
                self.spans.append(span)

    def link_span(self, span: Span, *, local_parent: str, kind: str) -> None:
        """Link a shared span (e.g. the batch flush) into this trace.

        The shared span keeps its own identity; ``local_parent`` names the
        span of *this* trace it hangs under when the tree is rendered.
        No-op once the trace is finished (a late flush cannot resurrect an
        already-exported trace).
        """
        with self._lock:
            if self.finished:
                return
            self.spans.append(span)
            self.links.append(
                {
                    "span_id": span.span_id,
                    "local_parent": local_parent,
                    "kind": kind,
                }
            )

    def link_trace(self, trace_id: str, *, kind: str) -> None:
        with self._lock:
            if not self.finished:
                self.links.append({"trace_id": trace_id, "kind": kind})


def _span_payload(
    span: Span,
    t0: float,
    now: float,
    shared: bool,
    parent_override: Optional[str] = None,
) -> Dict[str, Any]:
    end = span.end if span.end is not None else now
    doc: Dict[str, Any] = {
        "name": span.name,
        "span_id": span.span_id,
        "parent_id": parent_override or span.parent_id,
        "start_ms": (span.start - t0) * 1e3,
        "duration_ms": max(end - span.start, 0.0) * 1e3,
        "attributes": dict(span.attributes),
    }
    if span.error:
        doc["error"] = True
    if shared:
        doc["shared"] = True
    if span.end is None:
        doc["incomplete"] = True
    return doc


def _trace_payload(trace: Trace) -> Dict[str, Any]:
    """Serialise a finished trace: its spans plus every linked shared subtree."""
    now = time.monotonic()
    t0 = trace.root.start
    local_parent = {
        link["span_id"]: link["local_parent"]
        for link in trace.links
        if "span_id" in link
    }
    shared_ids = set(local_parent)
    spans: List[Dict[str, Any]] = []
    seen: set = set()

    def emit(span: Span, shared: bool) -> None:
        if span.span_id in seen:
            return
        seen.add(span.span_id)
        spans.append(
            _span_payload(
                span, t0, now, shared, local_parent.get(span.span_id)
            )
        )
        for child in span.children or ():
            emit(child, True)

    for span in trace.spans:
        emit(span, span.span_id in shared_ids)
    root = trace.root
    duration_ms = ((root.end if root.end is not None else now) - t0) * 1e3
    return {
        "trace_id": trace.trace_id,
        "name": trace.name,
        "start_unix": trace.start_wall,
        "duration_ms": duration_ms,
        "error": trace.error,
        "degraded": trace.degraded,
        "spans": spans,
        "links": trace.links,
    }


def chrome_trace(payload: Dict[str, Any]) -> Dict[str, Any]:
    """Chrome trace-event JSON for one trace payload (Perfetto-loadable).

    Request-local spans render on one track, shared batcher/engine spans on
    another; timestamps are absolute microseconds anchored at the trace's
    wall-clock start so multiple exported traces line up.
    """
    base_us = payload["start_unix"] * 1e6
    events: List[Dict[str, Any]] = [
        {
            "ph": "M",
            "pid": 1,
            "tid": 1,
            "name": "thread_name",
            "args": {"name": f"request {payload['trace_id'][:8]}"},
        },
        {
            "ph": "M",
            "pid": 1,
            "tid": 2,
            "name": "thread_name",
            "args": {"name": "batcher (shared)"},
        },
    ]
    for span in payload["spans"]:
        args = dict(span["attributes"])
        args["span_id"] = span["span_id"]
        if span.get("error"):
            args["error"] = True
        events.append(
            {
                "name": span["name"],
                "ph": "X",
                "ts": base_us + span["start_ms"] * 1e3,
                "dur": span["duration_ms"] * 1e3,
                "pid": 1,
                "tid": 2 if span.get("shared") else 1,
                "args": args,
            }
        )
    return {
        "traceEvents": events,
        "displayTimeUnit": "ms",
        "otherData": {"trace_id": payload["trace_id"]},
    }


def _attr_text(attributes: Dict[str, Any]) -> str:
    """Compact ``k=v`` rendering of span attributes for the tree view."""
    parts = []
    for key, value in attributes.items():
        if isinstance(value, float):
            parts.append(f"{key}={value:g}")
        elif isinstance(value, (dict, list)):
            parts.append(f"{key}={json.dumps(value, default=str)}")
        else:
            parts.append(f"{key}={value}")
    return "  ".join(parts)


def render_trace_tree(payload: Dict[str, Any]) -> str:
    """ASCII span tree of one trace payload with per-stage percentages.

    Percentages are relative to the root span, so a stage's share of the
    observed request latency reads off directly.  Shared (batch-scoped)
    spans are marked ``[shared]``: their time was spent once for the whole
    batch this request rode in.
    """
    spans = payload["spans"]
    by_parent: Dict[Optional[str], List[Dict[str, Any]]] = {}
    for span in spans:
        by_parent.setdefault(span.get("parent_id"), []).append(span)
    for siblings in by_parent.values():
        siblings.sort(key=lambda entry: entry["start_ms"])
    total = payload["duration_ms"]
    header = (
        f"trace {payload['trace_id']}  {payload['name']}  {total:.2f} ms"
    )
    if payload.get("error"):
        header += "  [ERROR]"
    if payload.get("degraded"):
        header += "  [DEGRADED]"
    lines = [header]
    emitted = set()

    def walk(span: Dict[str, Any], depth: int) -> None:
        emitted.add(span["span_id"])
        pct = (span["duration_ms"] / total * 100.0) if total > 0 else 0.0
        name = "  " * depth + span["name"]
        flags = ""
        if span.get("shared"):
            flags += " [shared]"
        if span.get("error"):
            flags += " [error]"
        if span.get("incomplete"):
            flags += " [incomplete]"
        attrs = _attr_text(span.get("attributes", {}))
        lines.append(
            f"  {name:<34} {span['duration_ms']:9.2f} ms  {pct:5.1f}%"
            f"{flags}" + (f"  {attrs}" if attrs else "")
        )
        for child in by_parent.get(span["span_id"], []):
            walk(child, depth + 1)

    for root in by_parent.get(None, []):
        walk(root, 0)
    for span in spans:  # orphans (defensive: never expected)
        if span["span_id"] not in emitted:
            walk(span, 0)
    for link in payload.get("links", []):
        if "trace_id" in link:
            lines.append(f"  -> linked trace {link['trace_id']} ({link['kind']})")
    return "\n".join(lines)


class Tracer:
    """Trace factory + tail-sampled, byte-capped ring of finished traces.

    Parameters
    ----------
    enabled:
        ``False`` turns every hook into a no-op returning :data:`NULL_SPAN`
        (the overhead the ``tracing`` case of ``benchmarks/suite.py``
        gates).
    sample:
        Probability of keeping a *normal* finished trace, decided by a
        deterministic hash of the trace id (tail-based: the decision is
        made after the outcome is known).  Error, degraded and slow traces
        are always kept regardless.
    ring_bytes:
        Byte cap of the ring (serialized-payload bytes); oldest traces are
        evicted first.  A single trace larger than the whole cap is
        dropped, so the cap is a hard invariant.
    slow_percentile:
        A finished trace whose duration is at or above this percentile of
        the recent-duration window counts as slow (always kept).
    """

    def __init__(
        self,
        enabled: bool = True,
        sample: float = 1.0,
        ring_bytes: int = 4 << 20,
        slow_percentile: float = 0.95,
    ) -> None:
        if not 0.0 <= sample <= 1.0:
            raise ValueError(f"sample must be in [0, 1], got {sample}")
        if ring_bytes < 0:
            raise ValueError(f"ring_bytes must be >= 0, got {ring_bytes}")
        self.enabled = bool(enabled)
        self.sample = float(sample)
        self.ring_bytes = int(ring_bytes)
        self.slow_percentile = float(slow_percentile)
        self._lock = threading.Lock()
        self._ring: deque = deque()  # (trace_id, payload, nbytes)
        self._by_id: Dict[str, Dict[str, Any]] = {}
        self._ring_total = 0
        self._durations: deque = deque(maxlen=512)
        self._finished = 0
        self._slow_ms = float("inf")
        self.started = 0
        self.kept = 0
        self.sampled_out = 0
        self.evicted = 0

    # -- trace lifecycle -----------------------------------------------
    def start_trace(
        self,
        name: str,
        trace_id: Optional[str] = None,
        attributes: Optional[Dict[str, Any]] = None,
    ) -> Optional[Trace]:
        """Begin a trace (``None`` when tracing is disabled)."""
        if not self.enabled:
            return None
        trace = Trace(name, coerce_trace_id(trace_id))
        if attributes:
            trace.root.attributes.update(attributes)
        with self._lock:
            self.started += 1
        return trace

    @contextmanager
    def activate(self, trace: Optional[Trace]) -> Iterator[Optional[Trace]]:
        """Make ``trace`` (and its root span) current for the block."""
        if trace is None:
            yield None
            return
        t_token = _current_trace.set(trace)
        s_token = _current_span.set(trace.root)
        try:
            yield trace
        finally:
            _current_span.reset(s_token)
            _current_trace.reset(t_token)

    def finish_trace(self, trace: Optional[Trace], *, error: bool = False) -> None:
        """Finish the root span, apply tail sampling, store in the ring."""
        if trace is None:
            return
        trace.root.finish()
        trace.error = trace.error or error or trace.root.error
        duration_ms = (trace.root.end - trace.root.start) * 1e3
        with trace._lock:
            trace.finished = True
        keep = (
            trace.error
            or trace.degraded
            or self._is_slow(duration_ms)
            or self._sampled_in(trace.trace_id)
        )
        # Only a kept trace is built and sized, and outside the ring's lock.
        if keep:
            payload = _trace_payload(trace)
            nbytes = len(json.dumps(payload, separators=(",", ":"), default=str))
        with self._lock:
            self._durations.append(duration_ms)
            self._finished += 1
            # Counted in finished traces: the window's length stops at its
            # maxlen.
            if self._finished >= 32 and self._finished % 16 == 0:
                self._update_slow_threshold()
            if not keep:
                self.sampled_out += 1
                return
            if nbytes > self.ring_bytes:
                self.sampled_out += 1
                return
            while self._ring and self._ring_total + nbytes > self.ring_bytes:
                old_id, _, old_bytes = self._ring.popleft()
                self._ring_total -= old_bytes
                self._by_id.pop(old_id, None)
                self.evicted += 1
            self._by_id.pop(trace.trace_id, None)  # id reuse: last write wins
            self._ring.append((trace.trace_id, payload, nbytes))
            self._by_id[trace.trace_id] = payload
            self._ring_total += nbytes
            self.kept += 1

    def _update_slow_threshold(self) -> None:
        """Set the slow threshold to the percentile of the recent window."""
        window = sorted(self._durations)
        index = min(int(len(window) * self.slow_percentile), len(window) - 1)
        self._slow_ms = window[index]

    def _is_slow(self, duration_ms: float) -> bool:
        return duration_ms >= self._slow_ms

    def _sampled_in(self, trace_id: str) -> bool:
        if self.sample >= 1.0:
            return True
        if self.sample <= 0.0:
            return False
        bucket = zlib.crc32(trace_id.encode("utf-8", "replace")) / 0xFFFFFFFF
        return bucket < self.sample

    # -- span helpers ---------------------------------------------------
    @contextmanager
    def span(
        self, name: str, attributes: Optional[Dict[str, Any]] = None
    ) -> Iterator[Any]:
        """A child span of the current span (no-op outside a trace)."""
        trace = _current_trace.get()
        if trace is None or not self.enabled:
            yield NULL_SPAN
            return
        parent = _current_span.get()
        span = Span(name, parent.span_id if parent is not None else None)
        if attributes:
            span.attributes.update(attributes)
        trace.add(span)
        token = _current_span.set(span)
        try:
            yield span
        except BaseException:
            span.set_error()
            raise
        finally:
            span.finish()
            _current_span.reset(token)

    def start_span(self, name: str) -> Any:
        """An *unclosed* child span of the current span (caller finishes it).

        Used for spans whose end is observed on another thread -- e.g.
        ``batcher.queue`` starts at enqueue on the request thread and is
        finished by the flush on the batcher thread.
        """
        trace = _current_trace.get()
        if trace is None or not self.enabled:
            return NULL_SPAN
        parent = _current_span.get()
        span = Span(name, parent.span_id if parent is not None else None)
        trace.add(span)
        return span

    def new_shared_span(self, name: str) -> Any:
        """A free-floating span, linked into member traces by the caller."""
        if not self.enabled:
            return NULL_SPAN
        return Span(name)

    @contextmanager
    def shared_child(
        self, parent: Any, name: str, attributes: Optional[Dict[str, Any]] = None
    ) -> Iterator[Any]:
        """A timed child attached to a shared span's subtree."""
        if not self.enabled or parent is NULL_SPAN or parent is None:
            yield NULL_SPAN
            return
        span = Span(name)
        if attributes:
            span.attributes.update(attributes)
        parent.attach(span)
        try:
            yield span
        except BaseException:
            span.set_error()
            raise
        finally:
            span.finish()

    # -- ring access ----------------------------------------------------
    def list_traces(
        self,
        limit: int = 50,
        slow: bool = False,
        errors: bool = False,
    ) -> List[Dict[str, Any]]:
        """Newest-first ring summaries, optionally filtered."""
        with self._lock:
            entries = [payload for _, payload, _ in reversed(self._ring)]
            slow_ms = self._slow_ms
        out = []
        for payload in entries:
            if errors and not (payload["error"] or payload["degraded"]):
                continue
            if slow and payload["duration_ms"] < slow_ms:
                continue
            out.append(
                {
                    "trace_id": payload["trace_id"],
                    "name": payload["name"],
                    "start_unix": payload["start_unix"],
                    "duration_ms": payload["duration_ms"],
                    "error": payload["error"],
                    "degraded": payload["degraded"],
                    "spans": len(payload["spans"]),
                }
            )
            if len(out) >= limit:
                break
        return out

    def get_trace(self, trace_id: str) -> Optional[Dict[str, Any]]:
        with self._lock:
            return self._by_id.get(trace_id)

    def ring_stats(self) -> Dict[str, Any]:
        with self._lock:
            return {
                "enabled": self.enabled,
                "sample": self.sample,
                "ring_bytes": self._ring_total,
                "ring_capacity_bytes": self.ring_bytes,
                "ring_traces": len(self._ring),
                "started": self.started,
                "kept": self.kept,
                "sampled_out": self.sampled_out,
                "evicted": self.evicted,
                "slow_threshold_ms": (
                    None if self._slow_ms == float("inf") else self._slow_ms
                ),
            }


# ----------------------------------------------------------------------
# Structured logging
# ----------------------------------------------------------------------
class JsonLogFormatter(logging.Formatter):
    """One JSON object per record, carrying the active trace id."""

    def format(self, record: logging.LogRecord) -> str:
        doc: Dict[str, Any] = {
            "ts": round(record.created, 6),
            "level": record.levelname.lower(),
            "logger": record.name,
            "message": record.getMessage(),
        }
        trace_id = getattr(record, "trace_id", None) or current_trace_id()
        if trace_id:
            doc["trace_id"] = trace_id
        data = getattr(record, "data", None)
        if isinstance(data, dict):
            doc.update(data)
        if record.exc_info:
            doc["exception"] = self.formatException(record.exc_info)
        return json.dumps(doc, separators=(",", ":"), default=str)


def configure_logging(level: str = "warning", stream: Any = None) -> logging.Logger:
    """Point the ``repro.service`` logger tree at a JSON stream handler.

    Idempotent: reconfiguring replaces the previous handler.  Returns the
    configured root-of-tree logger.
    """
    logger = logging.getLogger("repro.service")
    handler = logging.StreamHandler(stream if stream is not None else sys.stderr)
    handler.setFormatter(JsonLogFormatter())
    for old in list(logger.handlers):
        logger.removeHandler(old)
    logger.addHandler(handler)
    numeric = getattr(logging, level.upper(), None)
    if not isinstance(numeric, int):
        raise ValueError(f"unknown log level {level!r}")
    logger.setLevel(numeric)
    logger.propagate = False
    return logger
