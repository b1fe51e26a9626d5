"""Long-lived evaluation service over the batched engines (PR 5-7).

The serving layer of the reproduction: a cache-backed, micro-batching
facade that amortises compilation, analysis and simulation across requests
the way the one-shot CLI/driver entry points cannot.  PR 6 added the
failure semantics: per-request deadlines, bounded admission with load
shedding, a circuit-broken degraded oracle mode and a drain that resolves
every accepted request.  PR 7 made it observable: a dependency-free
metrics registry threaded through every layer and exposed on
``GET /metrics`` (Prometheus text or JSON), with a sustained-load SLO
harness gating regressions in CI.  PR 10 added request tracing: span
trees across facade, batcher and engines with kernel step profiles,
tail-sampled into a byte-capped ring served on ``GET /traces``, plus
trace-carrying structured JSON logs.  See ``docs/service.md`` for the
architecture, capacity-tuning notes, the metric catalogue and the
failure-mode runbook.

Modules
-------
:mod:`~repro.service.fingerprint`
    Stable content hashes for tasks, platforms, policies and requests.
:mod:`~repro.service.cache`
    Thread-safe byte-capped LRU result store with hit/miss/eviction
    counters.
:mod:`~repro.service.metrics`
    Counters, gauges and fixed-bucket latency histograms with p50/p95/p99
    estimation; JSON + Prometheus text rendering.
:mod:`~repro.service.batching`
    Micro-batching request queue, flushed whenever its worker is free.
:mod:`~repro.service.facade`
    :class:`EvaluationService` -- the synchronous in-process API.
:mod:`~repro.service.tracing`
    Request traces (span trees, tail-sampled ring, Chrome export) and
    the trace-carrying JSON log formatter.
:mod:`~repro.service.http`
    Stdlib HTTP/JSON transport (``repro serve`` / ``repro-serve``).
:mod:`~repro.service.client`
    Thin Python client of the HTTP transport.
"""

from ..core.exceptions import (
    ServiceClosedError,
    ServiceError,
    ServiceOverloadedError,
    ServiceRequestTooLargeError,
    ServiceTimeoutError,
)
from .batching import BatchRequest, MicroBatcher
from .cache import ResultCache
from .client import ServiceClient
from .facade import (
    EvaluationService,
    analysis_payload,
    build_policy,
    makespan_payload,
    simulation_payload,
)
from .fingerprint import (
    graph_fingerprint,
    platform_fingerprint,
    policy_fingerprint,
    request_fingerprint,
    task_fingerprint,
)
from .http import ServiceHTTPServer, start_server
from .metrics import Counter, Gauge, Histogram, MetricsRegistry
from .tracing import (
    TRACE_HEADER,
    JsonLogFormatter,
    Tracer,
    chrome_trace,
    configure_logging,
    current_trace_id,
    new_trace_id,
)

__all__ = [
    "MetricsRegistry",
    "Counter",
    "Gauge",
    "Histogram",
    "EvaluationService",
    "ServiceError",
    "ServiceClosedError",
    "ServiceTimeoutError",
    "ServiceOverloadedError",
    "ServiceRequestTooLargeError",
    "ResultCache",
    "MicroBatcher",
    "BatchRequest",
    "ServiceClient",
    "ServiceHTTPServer",
    "start_server",
    "build_policy",
    "simulation_payload",
    "analysis_payload",
    "makespan_payload",
    "graph_fingerprint",
    "task_fingerprint",
    "platform_fingerprint",
    "policy_fingerprint",
    "request_fingerprint",
    "Tracer",
    "TRACE_HEADER",
    "JsonLogFormatter",
    "chrome_trace",
    "configure_logging",
    "current_trace_id",
    "new_trace_id",
]
