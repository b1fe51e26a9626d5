"""Stdlib-only HTTP/JSON transport of the evaluation service.

A thin :mod:`http.server` facade over
:class:`~repro.service.facade.EvaluationService` -- no third-party web
framework, matching the repository's no-new-dependencies rule.  Tasks cross
the wire in the exact on-disk JSON form of :mod:`repro.io.json_io`
(``task_to_dict`` / ``task_from_dict``), so anything that can author a task
file can talk to the service.  Every endpoint builds its tasks where it
decodes them, through this module's ``task_from_dict``, and hands the
facade built tasks only.  Before any of that, a POST body is hashed with
its path (SHA-256): a byte-identical repeat of a body answered before is
answered from that digest
(:meth:`~repro.service.facade.EvaluationService.answer_repeat`), unparsed.

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
``POST /simulate``  ``{"task": <task>, "cores": m, ...}`` -> ``{"makespan": ...}``
``POST /analyse``   ``{"task": <task>, "cores": m | [m...], ...}`` -> bounds
``POST /makespan``  ``{"task": <task>, "cores": m, ...}`` -> makespan payload
                    with the witness schedule
``POST /workload``  ``{"streams": [...], "horizon": h, ...}`` -> workload
                    payload

Each POST body is read through its endpoint's table in :data:`REQUESTS`
(and each ``/workload`` stream through :data:`STREAM`): a field the table
does not name, or a required field the body lacks, is answered 400 naming
it, and every other field takes its default.  The values then go to the
facade, and each field's domain is checked by the library function it
reaches (:func:`~repro.simulation.platform.processor_count` for counts,
:func:`~repro.core.task.check_number` for times, and so on), which names
the field in its 400 too.

Requests are served by :class:`http.server.ThreadingHTTPServer`: each
connection gets a handler thread that serves its requests one after the
other (HTTP/1.1 keep-alive), and every thread funnels into the shared
service, which is exactly the concurrency shape the micro-batcher
coalesces.  Connections are bounded: one left idle, or stalled mid-request,
past ``_CONNECTION_TIMEOUT`` is closed (a stalled body is answered 408
first), and one opened past ``_MAX_CONNECTIONS`` is answered 429 and
closed.  Every response after which the server closes the connection says
``Connection: close``.  Work is bounded too: a task document with more than
``_MAX_TASK_NODES`` nodes or ``_MAX_TASK_EDGES`` edges is answered 413
before it is decoded.

``python -m repro serve`` (and the ``repro-serve`` console script, both
routed through :func:`main`) run this transport as a long-lived process.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import logging
import math
import signal
import socket
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
    ServiceRequestTooLargeError,
    ServiceTimeoutError,
    short_repr,
)
from ..generator.arrivals import arrival_from_dict
from ..io.json_io import REQUIRED, read_fields, task_from_dict
from ..resilience import FAULTS
from ..simulation.platform import Platform, processor_count
from ..simulation.workload import JobStream
from .facade import EvaluationService, body_digest, simulation_payload
from .tracing import TRACE_HEADER, chrome_trace, configure_logging

_LOG = logging.getLogger("repro.service.http")


#: Each POST endpoint's request document: field -> default, or REQUIRED
#: (read by :func:`~repro.io.json_io.read_fields`).  The fields are the
#: facade's parameters (``cores`` and ``accelerators`` make its
#: ``platform``), which check their domains.
REQUESTS: dict[str, dict[str, object]] = {
    "/simulate": {
        "task": REQUIRED,
        "cores": 2,
        "accelerators": 1,
        "policy": "breadth-first",
        "policy_seed": None,
        "priorities": None,
        "offload_enabled": True,
        "timeout": None,
    },
    "/analyse": {"task": REQUIRED, "cores": 2, "include_naive": True, "timeout": None},
    "/makespan": {
        "task": REQUIRED,
        "cores": 2,
        "accelerators": 1,
        "method": "auto",
        "time_limit": None,
        "timeout": None,
    },
    "/workload": {
        "streams": REQUIRED,
        "horizon": REQUIRED,
        "cores": 2,
        "accelerators": 1,
        "policy": "breadth-first",
        "policy_seed": None,
        "offload_enabled": True,
        "timeout": None,
    },
}

#: One object of a ``/workload`` request's ``streams`` array: the fields of
#: a :class:`~repro.simulation.workload.JobStream`.  Its ``arrivals`` spec
#: is read by :func:`~repro.generator.arrivals.arrival_from_dict`.
STREAM: dict[str, object] = {
    "task": REQUIRED,
    "arrivals": REQUIRED,
    "deadline": None,
    "name": None,
}

#: Every route the server answers.  A 404 lists them, and a request on one
#: is measured under its path's metric label; anything else is folded into
#: one ``"other"`` label so unknown paths cannot blow up cardinality.
_ROUTES = (
    "GET /health",
    "GET /stats",
    "GET /metrics",
    "GET /traces",
    "GET /traces/<id>",
    *(f"POST {path}" for path in REQUESTS),
)

#: Request bodies larger than this are refused, chunked or not (same spirit
#: as the admission bounds: a request must not be able to exhaust server
#: memory).
_MAX_BODY = 64 * 1024 * 1024

#: Nodes and edges one task document may carry.  The body cap alone admits
#: a chain of a million nodes that takes seconds to build and simulate; the
#: largest task in the repository has a few hundred.  A document over a cap
#: is answered 413 before it is decoded.
_MAX_TASK_NODES = 1 << 14
_MAX_TASK_EDGES = 1 << 17

#: Seconds a connection may sit idle between requests, or stall in the
#: middle of one, before the server closes it.  socketserver applies it to
#: every socket read and write of a connection.
_CONNECTION_TIMEOUT = 30.0

#: Connections served at once.  Each holds a handler thread while it is
#: open, idle or not; one more is answered 429 ``overloaded`` and closed.
_MAX_CONNECTIONS = 256

#: Bytes of body read from a request refused past the connection cap, so
#: the client sees the 429 rather than a reset of unread data.
_REFUSED_BODY = 1024 * 1024


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
    "REQUESTS",
    "STREAM",
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
    # A response goes out as two sends (headers, then body).  With Nagle's
    # algorithm on, the body of a response on a reused connection waits for
    # the peer's delayed ACK of the headers: ~40 ms per request.
    disable_nagle_algorithm = True
    timeout = _CONNECTION_TIMEOUT
    _trace_id: Optional[str] = None

    # ------------------------------------------------------------------
    # Connection
    # ------------------------------------------------------------------
    def setup(self) -> None:
        super().setup()
        self._admitted = self.server._admit(self.connection)

    def finish(self) -> None:
        try:
            super().finish()
        finally:
            if self._admitted:
                self.server._release(self.connection)

    def handle_one_request(self) -> None:
        try:
            self.rfile.peek(1)  # wait for the first byte of the next request
        except TimeoutError:
            # Idle past the timeout: no request is in progress, so the
            # connection is closed without a response.
            self.server.metric_connections.inc(outcome="timed_out")
            self.close_connection = True
            return
        super().handle_one_request()

    def _refuse(self) -> None:
        """Answer the one request of a connection past the cap: 429, close.

        The body is read first (up to ``_REFUSED_BODY``): closing a socket
        with unread data resets it, and the client would lose the answer.
        """
        self.close_connection = True
        length = self.headers.get("Content-Length", "0")
        if length.isascii() and length.isdigit():
            self.rfile.read(min(int(length), _REFUSED_BODY))
        self._send_error(
            429,
            "overloaded",
            f"the server holds its limit of {self.server.max_connections} "
            f"open connections",
            retryable=True,
            retry_after=1.0,
        )

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
            if self._admitted:
                handler()
            else:
                self._refuse()
        finally:
            elapsed = time.perf_counter() - started
            path = self.path.partition("?")[0]
            if path.startswith("/traces/"):
                endpoint = "/traces"
            elif f"{self.command} {path}" in _ROUTES:
                endpoint = path
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

    def _send_body(
        self,
        status: int,
        body: bytes,
        content_type: str,
        retry_after: Optional[float] = None,
    ) -> None:
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(body)))
        if self._trace_id:
            self.send_header(TRACE_HEADER, self._trace_id)
        if retry_after is not None:
            self.send_header("Retry-After", str(max(1, math.ceil(retry_after))))
        if self.close_connection or self.server.service.closed:
            # The connection closes after this response, so the response
            # says so (RFC 9112 §9.6); a draining service sheds every
            # connection that way.
            self.send_header("Connection", "close")
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
        self._send_body(status, body, "application/json", retry_after)

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
        if self._trace_id:
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
            if total > _MAX_BODY:
                raise _HTTPRequestError(
                    413,
                    "payload-too-large",
                    f"chunked body exceeds {_MAX_BODY} bytes",
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

    def _read_sized_body(self) -> bytes:
        """Read a body framed by ``Content-Length`` (absent means empty).

        The value must be ``1*DIGIT`` (RFC 9110 §8.6): ``int()`` alone
        would take ``-1``, which reads to end of stream.  A refused length
        leaves the body unread, so the connection is closed.
        """
        header = self.headers.get("Content-Length", "0")
        if not (header.isascii() and header.isdigit()):
            raise _HTTPRequestError(
                400,
                "bad-request",
                f"malformed Content-Length {header!r}",
                close=True,
            )
        length = int(header)
        if length > _MAX_BODY:
            raise _HTTPRequestError(
                413,
                "payload-too-large",
                f"body of {length} bytes exceeds {_MAX_BODY} bytes",
                close=True,
            )
        return self.rfile.read(length) if length else b""

    def _read_body(self) -> bytes:
        """The request body: framed by ``Content-Length`` or chunked,
        counted in the request bytes."""
        encoding = self.headers.get("Transfer-Encoding", "")
        codings = [
            token.strip().lower()
            for token in encoding.split(",")
            if token.strip()
        ]
        if codings and codings != ["chunked"]:
            # The body is framed in an encoding this server cannot read;
            # nothing was drained from the socket, so it cannot be reused.
            raise _HTTPRequestError(
                501,
                "unsupported-transfer-encoding",
                f"transfer-encoding {encoding!r} is not supported; "
                f"send the body with Content-Length or chunked",
                close=True,
            )
        try:
            body = self._read_chunked_body() if codings else self._read_sized_body()
        except TimeoutError:
            self.server.metric_connections.inc(outcome="timed_out")
            raise _HTTPRequestError(
                408,
                "request-timeout",
                f"the request body stalled for more than {self.timeout:g} s",
                close=True,
            ) from None
        self._request_bytes = len(body)
        return body

    def _send_not_found(self) -> None:
        self._send_error(
            404,
            "not-found",
            f"unknown path {self.path!r}",
            retryable=False,
            extra={"endpoints": list(_ROUTES)},
        )

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
            self._send_not_found()

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
                    f"limit must be an integer, got {short_repr(query['limit'][0])}",
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
        try:
            body = self._read_body()
            path = self.path
            if path not in REQUESTS:
                _parse_body(body)  # a body that is not JSON is a 400 first
                self._send_not_found()
                return
            # A body answered before is answered from its digest, unparsed.
            digest = hashlib.sha256(path.encode() + b"\0" + body).digest()
            service = self.server.service
            payload = service.answer_repeat(path[1:], digest)
            if payload is None:
                request = read_fields(
                    REQUESTS[path], _parse_body(body), "the request document"
                )
                with body_digest(digest):
                    payload = _submit(service, path, request)
            self._send_json(200, payload)
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
        except ServiceRequestTooLargeError as error:
            self._send_error(413, "payload-too-large", str(error), retryable=False)
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


def _submit(service: EvaluationService, path: str, request: dict) -> dict:
    """Answer one walked request with its facade call.

    The answer is the request's payload; ``/simulate`` answers
    :func:`~repro.service.facade.simulation_payload` of its makespan, the
    payload the result cache holds, so a repeat answered from the cache
    gets the same document.  The task is built here, so a task the decode
    refuses is never counted or looked up.  Every task's size is checked
    before any task is decoded.
    """
    if "task" in request:
        _check_task_size(request["task"], "task")
        request["task"] = task_from_dict(request["task"])
    if path == "/analyse":
        return service.submit_analysis(**request)
    if path == "/makespan":
        return service.submit_makespan(**request)
    platform = Platform(
        processor_count("cores", request.pop("cores"), 1),
        processor_count("accelerators", request.pop("accelerators"), 0),
    )
    if path == "/simulate":
        makespan = service.submit_simulation(platform=platform, **request)
        return simulation_payload(makespan)
    request["streams"] = _streams(request["streams"])
    return service.submit_workload(platform=platform, **request)


def _streams(specs: object) -> list[JobStream]:
    """The job streams of a ``/workload`` request, each read through
    :data:`STREAM`; every task's size is checked before any is built."""
    if not isinstance(specs, list):
        raise ValueError(
            f"streams must be an array of stream objects, got {short_repr(specs)}"
        )
    streams = [
        read_fields(STREAM, spec, f"streams[{position}]")
        for position, spec in enumerate(specs)
    ]
    for position, stream in enumerate(streams):
        _check_task_size(stream["task"], f"streams[{position}].task")
    return [
        JobStream(
            task_from_dict(stream["task"]),
            arrival_from_dict(stream["arrivals"]),
            stream["deadline"],
            stream["name"],
        )
        for stream in streams
    ]


def _check_task_size(task: object, where: str) -> None:
    """Refuse a task document over the node or edge cap (413).

    Counts only the containers ``task_from_dict`` would iterate; a
    document of the wrong shape is left for it to refuse.
    """
    if not isinstance(task, dict):
        return
    for key, cap in (("nodes", _MAX_TASK_NODES), ("edges", _MAX_TASK_EDGES)):
        items = task.get(key)
        if isinstance(items, (dict, list)) and len(items) > cap:
            raise ServiceRequestTooLargeError(
                f"{where} has {len(items)} {key}, over the cap of {cap} "
                f"{key} per task document"
            )


def _parse_body(body: bytes) -> object:
    """The JSON document of a request body."""
    if not body:
        raise ValueError(
            "request body is empty; send a JSON document with a "
            "Content-Length header or chunked transfer-encoding"
        )
    try:
        return json.loads(body, parse_constant=_reject_constant)
    except (json.JSONDecodeError, RecursionError) as error:
        # A body nested past the interpreter's recursion limit is
        # refused like any other JSON the server cannot read.
        raise ValueError(f"invalid JSON body: {error}") from error


def _reject_constant(name: str) -> float:
    """``json.loads`` hook for the non-standard ``NaN`` and ``Infinity``
    literals: the maths has no use for them, so the request is refused."""
    raise ValueError(f"invalid JSON body: {name} is not a JSON number")


def _query_flag(query: dict, name: str) -> bool:
    """True when a query parameter is present and not an explicit ``0``."""
    values = query.get(name)
    if not values:
        return False
    return values[-1].strip().lower() not in ("0", "false", "no")


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
    #: Open connections admitted at once; the next is answered 429.
    max_connections = _MAX_CONNECTIONS

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
        self.metric_connections = registry.counter(
            "repro_http_connections_total",
            "HTTP connections by outcome: accepted, refused past the "
            "connection cap, or timed_out (closed idle, or a stalled body "
            "answered 408).",
            labels=("outcome",),
        )
        self.metric_connections_open = registry.gauge(
            "repro_http_connections_open",
            "HTTP connections open now, idle or serving a request.",
        )
        self._connections: set[socket.socket] = set()
        self._connections_lock = threading.Lock()
        super().__init__((host, port), _RequestHandler)

    @property
    def port(self) -> int:
        """The actually bound TCP port (useful with ``port=0``)."""
        return self.server_address[1]

    def _admit(self, connection: socket.socket) -> bool:
        """Count a new connection in, unless the cap is reached."""
        with self._connections_lock:
            admitted = len(self._connections) < self.max_connections
            if admitted:
                self._connections.add(connection)
                self.metric_connections_open.add(1)
        self.metric_connections.inc(outcome="accepted" if admitted else "refused")
        return admitted

    def _release(self, connection: socket.socket) -> None:
        with self._connections_lock:
            self._connections.discard(connection)
            self.metric_connections_open.add(-1)

    def server_close(self) -> None:
        """Close the listener and every open connection.

        Handler threads parked on idle keep-alive connections are woken by
        the shutdown of their sockets, so the join of every handler thread
        does not wait out the connection timeout.
        """
        with self._connections_lock:
            connections = list(self._connections)
        for connection in connections:
            try:
                connection.shutdown(socket.SHUT_RDWR)
            except OSError:  # already closed by its peer
                pass
        super().server_close()


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
        help="worker processes for /makespan's exact-makespan oracle batches "
        "(default: serial; -1 = all cores)",
    )
    parser.add_argument(
        "--cache-bytes",
        type=int,
        default=64 * 1024 * 1024,
        help="byte cap of the fingerprint-keyed result cache (0 disables)",
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
        "--port-file",
        default=None,
        help="write the bound port to this file once listening "
        "(for scripts using --port 0)",
    )
    parser.add_argument(
        "--access-log",
        action="store_true",
        help="emit one JSON log line per HTTP request (method, path, "
        "status, duration, bytes, trace id)",
    )
    parser.add_argument(
        "--log-level",
        default="warning",
        help="level of the repro.service JSON loggers: debug, info, "
        "warning, error or critical (the access log needs at least info)",
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
        default=1.0,
        help="probability in [0, 1] of keeping an unremarkable trace in "
        "the ring; error, degraded and slow-percentile traces are always "
        "kept (default 1.0)",
    )
    parser.add_argument(
        "--trace-ring-bytes",
        type=int,
        default=4 << 20,
        help="byte cap of the completed-trace ring (default 4 MiB)",
    )


def serve_from_args(args: argparse.Namespace) -> int:
    """Run the HTTP service until interrupted; returns the exit code."""
    try:
        configure_logging(args.log_level)
        service = EvaluationService(
            cache_bytes=args.cache_bytes,
            jobs=args.jobs,
            default_timeout=args.default_timeout,
            max_pending=args.max_pending,
            max_pending_cost=args.max_pending_cost,
            oracle_budget=args.oracle_budget,
            breaker_threshold=args.breaker_threshold,
            breaker_reset=args.breaker_reset,
            tracing=not args.no_tracing,
            trace_sample=args.trace_sample,
            trace_ring_bytes=args.trace_ring_bytes,
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
        "off" if args.no_tracing else f"on (sample {args.trace_sample:g})"
    )
    print(
        f"repro evaluation service listening on http://{args.host}:{server.port} "
        f"(cache {args.cache_bytes} bytes, tracing {tracing_state})",
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
