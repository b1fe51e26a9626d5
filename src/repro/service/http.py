"""Stdlib-only HTTP/JSON transport of the evaluation service.

A thin :mod:`http.server` facade over
:class:`~repro.service.facade.EvaluationService` -- no third-party web
framework, matching the repository's no-new-dependencies rule.  Tasks cross
the wire in the exact on-disk JSON form of :mod:`repro.io.json_io`
(``task_to_dict`` / ``task_from_dict``), so anything that can author a task
file can talk to the service.  ``/simulate``, ``/analyse`` and ``/makespan``
hand the facade the decoded document (``decode_task``), not a built task:
the facade fingerprints it and builds the task, through this module's
``task_from_dict``, only on a cache miss.

Endpoints
---------
``GET  /health``    readiness probe: ``ok`` (200) while serving,
                    ``draining``/``closed`` (503) once shutdown has begun
``GET  /stats``     the service's :meth:`~EvaluationService.stats` document
``GET  /metrics``   the metrics registry -- Prometheus text exposition by
                    default, the JSON document when the ``Accept`` header
                    asks for ``application/json``
``GET  /traces``    recent request traces kept by the tail-sampling ring
                    (``?limit=N&slow=1&errors=1`` filter the summaries)
``GET  /traces/<id>``  one trace's full span tree; ``?format=chrome``
                    renders Chrome trace-event JSON loadable in Perfetto
``POST /simulate``  ``{"task": <task>, "cores": m, "accelerators": a,
                    "policy": name, "policy_seed": s, "priorities": {...},
                    "offload_enabled": true}`` -> ``{"makespan": ...}``
``POST /analyse``   ``{"task": <task>, "cores": m | [m...],
                    "include_naive": true}`` -> bounds payload
``POST /makespan``  ``{"task": <task>, "cores": m, "accelerators": a,
                    "method": "auto"|"ilp"|"bnb", "time_limit": t}``
                    -> makespan payload with the witness schedule

Requests are served by :class:`http.server.ThreadingHTTPServer` -- one
thread per connection, all funnelling into the shared service, which is
exactly the concurrency shape the micro-batcher coalesces.

``python -m repro serve`` (and the ``repro-serve`` console script, both
routed through :func:`main`) run this transport as a long-lived process.
"""

from __future__ import annotations

import argparse
import json
import logging
import math
import os
import signal
import sys
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path
from typing import Optional, Sequence
from urllib.parse import parse_qs

from ..core.exceptions import (
    ReproError,
    ServiceClosedError,
    ServiceError,
    ServiceOverloadedError,
    ServiceTimeoutError,
)
from ..generator.arrivals import arrival_from_dict
from ..io.json_io import decode_task, task_from_dict
from ..resilience import FAULTS
from ..simulation.platform import Platform
from ..simulation.workload import JobStream
from .facade import EvaluationService
from .tracing import TRACE_HEADER, chrome_trace, configure_logging

_LOG = logging.getLogger("repro.service.http")

#: Paths instrumented under their own metric label; anything else is folded
#: into one ``"other"`` label so unknown paths cannot blow up cardinality.
_ENDPOINTS = frozenset(
    {
        "/health",
        "/stats",
        "/metrics",
        "/simulate",
        "/analyse",
        "/makespan",
        "/workload",
        "/traces",
    }
)

#: Decoded chunked bodies larger than this are refused (same spirit as the
#: admission bounds: a request must not be able to exhaust server memory).
_MAX_CHUNKED_BODY = 64 * 1024 * 1024


class _HTTPRequestError(Exception):
    """Transport-level request failure with a pre-chosen status + code.

    Raised by the body-reading plumbing *before* the request reaches the
    service, so ``do_POST`` can map it straight onto the error envelope.
    ``close`` marks requests whose body was not (fully) drained from the
    socket -- the connection cannot be reused and must be closed.
    """

    def __init__(
        self,
        status: int,
        code: str,
        message: str,
        *,
        retryable: bool = False,
        close: bool = False,
    ) -> None:
        super().__init__(message)
        self.status = status
        self.code = code
        self.retryable = retryable
        self.close = close

__all__ = [
    "ServiceHTTPServer",
    "start_server",
    "add_serve_arguments",
    "serve_from_args",
    "main",
]


class _RequestHandler(BaseHTTPRequestHandler):
    """Routes HTTP requests into the shared :class:`EvaluationService`."""

    server: "ServiceHTTPServer"
    protocol_version = "HTTP/1.1"

    # ------------------------------------------------------------------
    # Plumbing
    # ------------------------------------------------------------------
    def log_message(self, format: str, *args: object) -> None:  # noqa: A002
        """Route http.server's own chatter into logging instead of stderr.

        The per-request access log lives in :meth:`_instrumented` (which
        has the timing and byte counts and is opt-in via ``--access-log``);
        protocol-level messages from :mod:`http.server` itself land at
        DEBUG so they surface under ``--log-level debug`` and stay silent
        otherwise.
        """
        _LOG.debug(format, *args)

    def _instrumented(self, handler) -> None:
        """Run ``handler`` and record the per-endpoint HTTP metrics.

        Latency covers the whole handler (body read, service wait,
        response write) -- the figure a client actually experiences minus
        the network.  Unknown paths share one ``"other"`` endpoint label;
        ``/traces/<id>`` folds into ``/traces`` for the same reason.
        """
        started = time.perf_counter()
        self._status = 0
        self._response_bytes = 0
        self._request_bytes = 0
        self._trace_id = None
        try:
            handler()
        finally:
            elapsed = time.perf_counter() - started
            path = self.path.partition("?")[0]
            if path in _ENDPOINTS:
                endpoint = path
            elif path.startswith("/traces/"):
                endpoint = "/traces"
            else:
                endpoint = "other"
            server = self.server
            server.metric_latency.observe(elapsed, endpoint=endpoint)
            server.metric_responses.inc(endpoint=endpoint, status=self._status)
            if self._request_bytes:
                server.metric_request_bytes.inc(
                    self._request_bytes, endpoint=endpoint
                )
            if self._response_bytes:
                server.metric_response_bytes.inc(
                    self._response_bytes, endpoint=endpoint
                )
            if server.access_log:
                _LOG.info(
                    "%s %s %d %.1fms",
                    self.command,
                    self.path,
                    self._status,
                    elapsed * 1e3,
                    extra={
                        "trace_id": self._trace_id,
                        "data": {
                            "method": self.command,
                            "path": self.path,
                            "status": self._status,
                            "duration_ms": round(elapsed * 1e3, 3),
                            "request_bytes": self._request_bytes,
                            "response_bytes": self._response_bytes,
                            "client": self.client_address[0],
                        },
                    },
                )

    def _send_body(self, status: int, body: bytes, content_type: str) -> None:
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)
        self._status = status
        self._response_bytes = len(body)

    def _send_json(
        self, status: int, document: dict, retry_after: Optional[float] = None
    ) -> None:
        try:
            body = json.dumps(document, allow_nan=False).encode("utf-8")
        except ValueError:
            # JSON has no NaN or Infinity, and inputs are finite, so a
            # non-finite number here is a fault of the server.
            _LOG.exception("non-finite number in the response to %s", self.path)
            self._send_error(500, "internal", "internal server error", retryable=False)
            return
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        if getattr(self, "_trace_id", None):
            self.send_header(TRACE_HEADER, self._trace_id)
        if retry_after is not None:
            self.send_header("Retry-After", str(max(1, math.ceil(retry_after))))
        self.end_headers()
        self.wfile.write(body)
        self._status = status
        self._response_bytes = len(body)

    def _send_error(
        self,
        status: int,
        code: str,
        message: str,
        *,
        retryable: bool,
        retry_after: Optional[float] = None,
        extra: Optional[dict] = None,
    ) -> None:
        """Send the stable error envelope every failure path shares.

        ``code`` is a machine-readable slug (clients dispatch on it, not on
        the message text), ``retryable`` tells clients whether re-sending
        the identical request can ever succeed, and ``retry_after`` -- when
        present -- is mirrored as a ``Retry-After`` header (whole seconds,
        rounded up, as HTTP requires).  Traced requests carry their
        ``trace_id`` in the envelope so a failure report names the exact
        trace to pull from ``GET /traces/<id>``.
        """
        envelope: dict = {
            "code": code,
            "message": message,
            "retryable": bool(retryable),
        }
        if getattr(self, "_trace_id", None):
            envelope["trace_id"] = self._trace_id
        if retry_after is not None:
            envelope["retry_after"] = float(retry_after)
        document = {"error": envelope}
        if extra:
            document.update(extra)
        self._send_json(status, document, retry_after=retry_after)

    def _read_chunked_body(self) -> bytes:
        """Decode a ``Transfer-Encoding: chunked`` request body.

        Hex-sized chunks each followed by CRLF, terminated by a zero-size
        chunk and optional trailers up to a blank line (RFC 9112 §7.1).
        Any framing violation closes the connection -- the unread rest of
        the body would otherwise be parsed as the next request.
        """
        chunks: list[bytes] = []
        total = 0
        while True:
            size_line = self.rfile.readline(1026)
            if not size_line:
                raise _HTTPRequestError(
                    400, "bad-request", "truncated chunked body", close=True
                )
            try:
                size = int(size_line.split(b";", 1)[0].strip(), 16)
            except ValueError:
                raise _HTTPRequestError(
                    400,
                    "bad-request",
                    f"malformed chunk size line {size_line!r}",
                    close=True,
                ) from None
            if size == 0:
                break
            total += size
            if total > _MAX_CHUNKED_BODY:
                raise _HTTPRequestError(
                    413,
                    "payload-too-large",
                    f"chunked body exceeds {_MAX_CHUNKED_BODY} bytes",
                    close=True,
                )
            data = self.rfile.read(size)
            if len(data) < size:
                raise _HTTPRequestError(
                    400, "bad-request", "truncated chunked body", close=True
                )
            chunks.append(data)
            self.rfile.read(2)  # the CRLF terminating the chunk data
        while True:  # drain optional trailers up to the blank line
            line = self.rfile.readline(1026)
            if line in (b"\r\n", b"\n", b""):
                break
        return b"".join(chunks)

    def _read_document(self) -> dict:
        encoding = self.headers.get("Transfer-Encoding", "")
        codings = [
            token.strip().lower()
            for token in encoding.split(",")
            if token.strip()
        ]
        if codings == ["chunked"]:
            body = self._read_chunked_body()
        elif codings:
            # The body is framed in an encoding this server cannot read;
            # nothing was drained from the socket, so it cannot be reused.
            raise _HTTPRequestError(
                501,
                "unsupported-transfer-encoding",
                f"transfer-encoding {encoding!r} is not supported; "
                f"send the body with Content-Length or chunked",
                close=True,
            )
        else:
            length = int(self.headers.get("Content-Length", 0))
            body = self.rfile.read(length) if length else b""
        self._request_bytes = len(body)
        if not body:
            raise ValueError(
                "request body is empty; send a JSON document with a "
                "Content-Length header or chunked transfer-encoding"
            )
        try:
            document = json.loads(body, parse_constant=_reject_constant)
        except json.JSONDecodeError as error:
            raise ValueError(f"invalid JSON body: {error}") from error
        if not isinstance(document, dict):
            raise ValueError("request body must be a JSON object")
        return document

    def _task_of(self, document: dict):
        """The request's task document, decoded but not built: the facade
        builds it only on a cache miss."""
        if "task" not in document:
            raise ValueError("request document is missing the 'task' object")
        return decode_task(document["task"])

    def _streams_of(self, document: dict) -> list:
        specs = document.get("streams")
        if not isinstance(specs, list) or not specs:
            raise ValueError(
                "request document needs a non-empty 'streams' array"
            )
        streams = []
        for position, spec in enumerate(specs):
            if not isinstance(spec, dict):
                raise ValueError(f"streams[{position}] must be a JSON object")
            if "task" not in spec:
                raise ValueError(f"streams[{position}] is missing 'task'")
            if "arrivals" not in spec:
                raise ValueError(f"streams[{position}] is missing 'arrivals'")
            streams.append(
                JobStream(
                    task=task_from_dict(spec["task"]),
                    arrivals=arrival_from_dict(spec["arrivals"]),
                    deadline=spec.get("deadline"),
                    name=spec.get("name"),
                )
            )
        return streams

    # ------------------------------------------------------------------
    # Routes
    # ------------------------------------------------------------------
    def do_GET(self) -> None:  # noqa: N802 - http.server API
        self._instrumented(self._handle_get)

    def _handle_get(self) -> None:
        path, _, raw_query = self.path.partition("?")
        if path == "/health":
            # A readiness probe, not a liveness one: a draining instance is
            # alive but must stop receiving traffic, so anything other than
            # "ok" is reported with a non-200 status a load balancer acts on.
            phase = self.server.service.lifecycle()
            self._send_json(
                200 if phase == "ok" else 503,
                {
                    "status": phase,
                    "service": "repro-evaluation-service",
                    "uptime_s": time.monotonic() - self.server.started_at,
                },
                retry_after=1.0 if phase == "draining" else None,
            )
        elif path == "/stats":
            self._send_json(200, self.server.service.stats())
        elif path == "/metrics":
            registry = self.server.service.metrics
            accept = self.headers.get("Accept", "")
            if "application/json" in accept:
                self._send_json(200, registry.render_json())
            else:
                self._send_body(
                    200,
                    registry.render_prometheus().encode("utf-8"),
                    "text/plain; version=0.0.4; charset=utf-8",
                )
        elif path == "/traces" or path.startswith("/traces/"):
            self._handle_traces(path, raw_query)
        else:
            self._send_error(
                404,
                "not-found",
                f"unknown path {self.path!r}",
                retryable=False,
                extra={
                    "endpoints": [
                        "GET /health",
                        "GET /stats",
                        "GET /metrics",
                        "GET /traces",
                        "GET /traces/<id>",
                        "POST /simulate",
                        "POST /analyse",
                        "POST /makespan",
                        "POST /workload",
                    ]
                },
            )

    def _handle_traces(self, path: str, raw_query: str) -> None:
        """Serve the trace ring: summaries on ``/traces``, one tree below it."""
        tracer = self.server.service.tracer
        query = parse_qs(raw_query)
        if path == "/traces":
            try:
                limit = int(query.get("limit", ["50"])[0])
            except ValueError:
                self._send_error(
                    400,
                    "bad-request",
                    f"limit must be an integer, got {query['limit'][0]!r}",
                    retryable=False,
                )
                return
            self._send_json(
                200,
                {
                    "traces": tracer.list_traces(
                        limit=max(limit, 0),
                        slow=_query_flag(query, "slow"),
                        errors=_query_flag(query, "errors"),
                    ),
                    "ring": tracer.ring_stats(),
                },
            )
            return
        trace_id = path[len("/traces/"):]
        payload = tracer.get_trace(trace_id)
        if payload is None:
            self._send_error(
                404,
                "trace-not-found",
                f"no trace {trace_id!r} in the ring (never sampled in, "
                f"evicted, or tracing is disabled)",
                retryable=False,
            )
            return
        if query.get("format", [""])[0] == "chrome":
            self._send_json(200, chrome_trace(payload))
        else:
            self._send_json(200, payload)

    def do_POST(self) -> None:  # noqa: N802 - http.server API
        self._instrumented(self._traced_post)

    def _traced_post(self) -> None:
        """Run the POST handler under a request trace (no-op when disabled).

        The trace id is taken from the caller's ``X-Repro-Trace-Id`` header
        when well-formed (so a client can stamp its own id and correlate
        retries), else freshly generated; either way it is echoed on the
        response and embedded in the error envelope.  The trace finishes --
        and is tail-sampled into the ring -- after the response bytes are
        written, so the ``http.request`` root span covers the handling a
        client actually observed.  Responses with status >= 400 mark the
        trace as an error, which exempts it from probabilistic sampling.
        """
        tracer = self.server.service.tracer
        trace = tracer.start_trace(
            "http.request",
            trace_id=self.headers.get(TRACE_HEADER),
            attributes={
                "method": self.command,
                "path": self.path.partition("?")[0],
            },
        )
        if trace is None:
            self._handle_post()
            return
        self._trace_id = trace.trace_id
        try:
            with tracer.activate(trace):
                self._handle_post()
        finally:
            trace.root.set("status", self._status)
            tracer.finish_trace(trace, error=self._status >= 400)

    def _handle_post(self) -> None:
        service = self.server.service
        try:
            document = self._read_document()
            timeout = document.get("timeout")
            if self.path == "/simulate":
                makespan = service.submit_simulation(
                    self._task_of(document),
                    _platform_of(document),
                    policy=document.get("policy", "breadth-first"),
                    policy_seed=document.get("policy_seed"),
                    priorities=document.get("priorities"),
                    offload_enabled=document.get("offload_enabled", True),
                    timeout=timeout,
                )
                self._send_json(200, {"makespan": makespan})
            elif self.path == "/analyse":
                payload = service.submit_analysis(
                    self._task_of(document),
                    document.get("cores", 2),
                    include_naive=document.get("include_naive", True),
                    timeout=timeout,
                )
                self._send_json(200, payload)
            elif self.path == "/makespan":
                payload = service.submit_makespan(
                    self._task_of(document),
                    document.get("cores", 2),
                    accelerators=document.get("accelerators", 1),
                    method=document.get("method", "auto"),
                    time_limit=document.get("time_limit"),
                    timeout=timeout,
                )
                self._send_json(200, payload)
            elif self.path == "/workload":
                if "horizon" not in document:
                    raise ValueError(
                        "request document is missing the 'horizon' number"
                    )
                payload = service.submit_workload(
                    self._streams_of(document),
                    document["horizon"],
                    _platform_of(document),
                    policy=document.get("policy", "breadth-first"),
                    policy_seed=document.get("policy_seed"),
                    offload_enabled=document.get("offload_enabled", True),
                    timeout=timeout,
                )
                self._send_json(200, payload)
            else:
                self._send_error(
                    404, "not-found", f"unknown path {self.path!r}", retryable=False
                )
        except _HTTPRequestError as error:
            if error.close:
                self.close_connection = True
            self._send_error(
                error.status, error.code, str(error), retryable=error.retryable
            )
        except ServiceOverloadedError as error:
            self._send_error(
                429,
                "overloaded",
                str(error),
                retryable=True,
                retry_after=error.retry_after,
            )
        except ServiceClosedError as error:
            # Usually a drain in progress; a restarted service will serve
            # the retry (requests are idempotent by fingerprint).
            self._send_error(
                503, "closed", str(error), retryable=True, retry_after=1.0
            )
        except ServiceTimeoutError as error:
            self._send_error(504, "timeout", str(error), retryable=True)
        except ServiceError as error:
            # Server-side faults (executor exceptions, the batcher's
            # defensive unresolved-request net): not the client's doing.
            self._send_error(
                500,
                "server-error",
                str(error),
                retryable=bool(getattr(error, "retryable", False)),
            )
        except (ReproError, ValueError, KeyError, TypeError) as error:
            message = error.args[0] if error.args else error
            self._send_error(400, "bad-request", str(message), retryable=False)
        except Exception:  # noqa: BLE001 - report, don't kill the thread
            # The traceback belongs in the server log; leaking repr(error)
            # to remote callers exposes internals and is useless to them.
            _LOG.exception("unhandled error while serving POST %s", self.path)
            self._send_error(
                500, "internal", "internal server error", retryable=False
            )


def _reject_constant(name: str) -> float:
    """``json.loads`` hook for the non-standard ``NaN`` and ``Infinity``
    literals: the maths has no use for them, so the request is refused."""
    raise ValueError(f"invalid JSON body: {name} is not a JSON number")


def _platform_of(document: dict) -> Platform:
    return Platform(
        host_cores=document.get("cores", 2),
        accelerators=document.get("accelerators", 1),
    )


def _query_flag(query: dict, name: str) -> bool:
    """True when a query parameter is present and not an explicit ``0``."""
    values = query.get(name)
    if not values:
        return False
    return values[-1].strip().lower() not in ("0", "false", "no")


def _env_flag(name: str) -> bool:
    return os.environ.get(name, "").strip().lower() not in (
        "",
        "0",
        "false",
        "no",
    )


class ServiceHTTPServer(ThreadingHTTPServer):
    """A :class:`ThreadingHTTPServer` bound to one evaluation service.

    ``port=0`` binds an ephemeral port; read :attr:`port` after
    construction.  The server does **not** own the service -- callers close
    the service themselves (see :func:`serve_from_args` for the standard
    shutdown order: stop accepting connections, then drain the service).
    ``access_log=True`` emits one structured JSON log line per request on
    the ``repro.service.http`` logger (see
    :func:`repro.service.tracing.configure_logging`).
    """

    daemon_threads = True
    allow_reuse_address = True
    #: Listen backlog.  socketserver's default of 5 is far too small for a
    #: burst-shaped load: a few dozen simultaneous connects overflow the
    #: kernel accept queue, the excess handshakes are left half-open and
    #: eventually reset -- the client sees ECONNRESET on requests the
    #: application never saw, *instead of* the deliberate 429 the admission
    #: bound would have sent.  Size it above any plausible client fan-out so
    #: overload is always handled by the service's own shedding.
    request_queue_size = 128

    def __init__(
        self,
        service: EvaluationService,
        host: str = "127.0.0.1",
        port: int = 0,
        access_log: bool = False,
    ) -> None:
        self.service = service
        self.access_log = bool(access_log)
        self.started_at = time.monotonic()
        registry = service.metrics
        self.metric_latency = registry.histogram(
            "repro_http_request_seconds",
            "Wall-clock time serving one HTTP request, by endpoint.",
            labels=("endpoint",),
        )
        self.metric_responses = registry.counter(
            "repro_http_responses_total",
            "HTTP responses by endpoint and status code.",
            labels=("endpoint", "status"),
        )
        self.metric_request_bytes = registry.counter(
            "repro_http_request_bytes_total",
            "Request body bytes received, by endpoint.",
            labels=("endpoint",),
        )
        self.metric_response_bytes = registry.counter(
            "repro_http_response_bytes_total",
            "Response body bytes sent, by endpoint.",
            labels=("endpoint",),
        )
        super().__init__((host, port), _RequestHandler)

    @property
    def port(self) -> int:
        """The actually bound TCP port (useful with ``port=0``)."""
        return self.server_address[1]


def start_server(
    service: EvaluationService,
    host: str = "127.0.0.1",
    port: int = 0,
    access_log: bool = False,
) -> tuple[ServiceHTTPServer, threading.Thread]:
    """Start a server thread for in-process use (tests, examples).

    Returns the bound server and its (daemon) serving thread; call
    ``server.shutdown(); server.server_close()`` to stop it.
    """
    server = ServiceHTTPServer(service, host=host, port=port, access_log=access_log)
    thread = threading.Thread(
        target=server.serve_forever, name="repro-service-http", daemon=True
    )
    thread.start()
    return server, thread


# ----------------------------------------------------------------------
# Command-line entry point (``repro serve`` / ``repro-serve``)
# ----------------------------------------------------------------------
def add_serve_arguments(parser: argparse.ArgumentParser) -> None:
    """Attach the serving flags shared by ``repro serve`` and ``repro-serve``."""
    parser.add_argument("--host", default="127.0.0.1", help="bind address")
    parser.add_argument(
        "--port", type=int, default=8181, help="TCP port (0 = ephemeral)"
    )
    parser.add_argument(
        "--jobs",
        "-j",
        type=int,
        default=None,
        help="worker processes forwarded to the batched engines "
        "(default: serial; -1 = all cores)",
    )
    parser.add_argument(
        "--cache-bytes",
        type=int,
        default=64 * 1024 * 1024,
        help="byte cap of the fingerprint-keyed result cache (0 disables)",
    )
    parser.add_argument(
        "--flush-interval",
        type=float,
        default=0.05,
        help="micro-batching hard deadline in seconds",
    )
    parser.add_argument(
        "--quiet-interval",
        type=float,
        default=0.002,
        help="flush as soon as no new request arrived for this many seconds",
    )
    parser.add_argument(
        "--max-batch",
        type=int,
        default=512,
        help="pending-request count that triggers an immediate flush",
    )
    parser.add_argument(
        "--default-timeout",
        type=float,
        default=None,
        help="per-request deadline in seconds applied when a request does "
        "not carry its own 'timeout' field (default: wait forever)",
    )
    parser.add_argument(
        "--max-pending",
        type=int,
        default=None,
        help="shed requests (HTTP 429) once this many are parked in the "
        "micro-batching queue (default: unbounded)",
    )
    parser.add_argument(
        "--max-pending-cost",
        type=int,
        default=None,
        help="shed requests (HTTP 429) once the parked queue holds this "
        "many task nodes in total (default: unbounded)",
    )
    parser.add_argument(
        "--oracle-budget",
        type=float,
        default=None,
        help="wall-clock seconds per exact-makespan batch before the rest "
        "of the batch degrades to verified bounds (default: unbudgeted)",
    )
    parser.add_argument(
        "--breaker-threshold",
        type=int,
        default=5,
        help="consecutive failed/degraded oracle batches that open the "
        "circuit breaker",
    )
    parser.add_argument(
        "--breaker-reset",
        type=float,
        default=30.0,
        help="seconds the oracle circuit breaker stays open before probing "
        "the exact engines again",
    )
    parser.add_argument(
        "--vector-threshold",
        type=int,
        default=None,
        help="lane count (tasks x platforms) from which simulation grids "
        "run on the batched lockstep kernel instead of the dense engine "
        "(default: the measured calibration table for this host's backend; "
        "env REPRO_VECTOR_THRESHOLD also overrides)",
    )
    parser.add_argument(
        "--port-file",
        default=None,
        help="write the bound port to this file once listening "
        "(for scripts using --port 0)",
    )
    parser.add_argument(
        "--access-log",
        action="store_true",
        default=_env_flag("REPRO_ACCESS_LOG"),
        help="emit one JSON log line per HTTP request (method, path, "
        "status, duration, bytes, trace id); env REPRO_ACCESS_LOG=1 "
        "also enables it",
    )
    parser.add_argument(
        "--log-level",
        default=os.environ.get("REPRO_LOG_LEVEL", "warning"),
        help="level of the repro.service JSON loggers: debug, info, "
        "warning, error or critical (env REPRO_LOG_LEVEL; the access "
        "log needs at least info)",
    )
    parser.add_argument(
        "--no-tracing",
        action="store_true",
        help="disable request tracing entirely (no spans are recorded and "
        "GET /traces serves an empty ring)",
    )
    parser.add_argument(
        "--trace-sample",
        type=float,
        default=None,
        help="probability in [0, 1] of keeping an unremarkable trace in "
        "the ring; error, degraded and slow-percentile traces are always "
        "kept (default 1.0; env REPRO_TRACE_SAMPLE)",
    )
    parser.add_argument(
        "--trace-ring-bytes",
        type=int,
        default=None,
        help="byte cap of the completed-trace ring (default 4 MiB; "
        "env REPRO_TRACE_RING_BYTES)",
    )


def serve_from_args(args: argparse.Namespace) -> int:
    """Run the HTTP service until interrupted; returns the exit code."""
    try:
        configure_logging(args.log_level)
        trace_sample = (
            args.trace_sample
            if args.trace_sample is not None
            else float(os.environ.get("REPRO_TRACE_SAMPLE") or 1.0)
        )
        trace_ring_bytes = (
            args.trace_ring_bytes
            if args.trace_ring_bytes is not None
            else int(os.environ.get("REPRO_TRACE_RING_BYTES") or (4 << 20))
        )
        service = EvaluationService(
            cache_bytes=args.cache_bytes,
            flush_interval=args.flush_interval,
            quiet_interval=args.quiet_interval,
            max_batch=args.max_batch,
            jobs=args.jobs,
            default_timeout=args.default_timeout,
            max_pending=args.max_pending,
            max_pending_cost=args.max_pending_cost,
            oracle_budget=args.oracle_budget,
            breaker_threshold=args.breaker_threshold,
            breaker_reset=args.breaker_reset,
            vector_threshold=args.vector_threshold,
            tracing=not args.no_tracing,
            trace_sample=trace_sample,
            trace_ring_bytes=trace_ring_bytes,
        )
    except ValueError as error:
        print(f"error: {error}", file=sys.stderr)
        return 1
    try:
        server = ServiceHTTPServer(
            service, host=args.host, port=args.port, access_log=args.access_log
        )
    except OSError as error:
        service.close()
        print(
            f"error: cannot bind {args.host}:{args.port}: {error}",
            file=sys.stderr,
        )
        return 1
    # A backgrounded child of a non-interactive shell inherits SIGINT as
    # ignored (POSIX async-list rule) and CPython then never installs the
    # KeyboardInterrupt handler -- ``kill -INT`` would be silently dropped.
    # Install explicit handlers so SIGINT/SIGTERM always trigger the
    # graceful drain below (signal.signal only works in the main thread;
    # embedded callers use start_server/shutdown instead).
    stop = threading.Event()

    def _interrupt(signum: int, frame: object) -> None:
        stop.set()

    try:
        signal.signal(signal.SIGINT, _interrupt)
        signal.signal(signal.SIGTERM, _interrupt)
    except ValueError:  # pragma: no cover - not the main thread
        pass
    if args.port_file:
        Path(args.port_file).write_text(f"{server.port}\n", encoding="utf-8")
    tracing_state = (
        "off" if args.no_tracing else f"on (sample {trace_sample:g})"
    )
    print(
        f"repro evaluation service listening on http://{args.host}:{server.port} "
        f"(cache {args.cache_bytes} bytes, flush {args.flush_interval * 1000:g} ms, "
        f"max batch {args.max_batch}, tracing {tracing_state})",
        flush=True,
    )
    if FAULTS.enabled:
        armed = ", ".join(sorted(FAULTS.stats()["points"]))
        print(f"fault injection ARMED via REPRO_FAULTS: {armed}", flush=True)
    # The acceptor runs in a daemon thread so the drain below happens with
    # the listener still up: during close() the service answers /health
    # with 503 "draining" and new POSTs with 503 "closed" -- the drain is
    # *observable* over HTTP instead of the socket simply going away.
    acceptor = threading.Thread(
        target=server.serve_forever, name="repro-service-http", daemon=True
    )
    acceptor.start()
    try:
        # Poll rather than block indefinitely: the kernel may deliver the
        # signal on *any* thread, but CPython only runs the Python-level
        # handler when the main thread reaches a bytecode boundary -- an
        # untimed Event.wait() parks the main thread in sem_wait forever
        # and the handler (hence the drain) would never run.
        while not stop.wait(0.1):
            pass
    except KeyboardInterrupt:  # pragma: no cover - embedded Ctrl-C race
        pass
    print("shutting down (draining in-flight requests)...", flush=True)
    try:
        # Two-phase drain, in this order: close the *service* first so
        # every accepted request is resolved while the handler threads can
        # still write their responses (requests arriving during the drain
        # are answered 503), then tear the listening socket down.  The
        # short grace lets the (daemon) handler threads flush the last
        # already-resolved responses onto the wire.
        service.close()
        time.sleep(0.2)
    finally:
        server.shutdown()
        acceptor.join(timeout=5.0)
        server.server_close()
    stats = service.stats()
    print(
        f"served {stats['requests']['total']} requests in "
        f"{stats['batching']['batches']} batches "
        f"({stats['cache']['hits']} cache hits, "
        f"{stats['resilience']['timeouts']} timeouts, "
        f"{stats['resilience']['shed']} shed, "
        f"{stats['resilience']['degraded']} degraded)",
        flush=True,
    )
    return 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Standalone console entry point (``repro-serve``)."""
    parser = argparse.ArgumentParser(
        prog="repro-serve",
        description="Long-lived HTTP evaluation service over the batched "
        "simulation / analysis / exact-makespan engines",
    )
    add_serve_arguments(parser)
    return serve_from_args(parser.parse_args(argv))


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
