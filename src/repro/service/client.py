"""Thin Python client of the HTTP evaluation service.

Stdlib-only (:mod:`http.client`); tasks are shipped in the on-disk JSON
form of :mod:`repro.io.json_io`, so a :class:`~repro.core.task.DagTask`
built locally and a task document loaded from a file are interchangeable.

Connections persist: each thread that calls a client keeps one HTTP/1.1
connection and sends every request on it, so a request costs neither a TCP
handshake nor a new server thread.  :meth:`ServiceClient.close` (or leaving
a ``with ServiceClient(...)`` block) closes them.  The server closes a
connection left idle past its timeout; a request that finds its reused
connection closed before any response byte arrived is sent once more on a
fresh one (RFC 9112 §9.3.1), whatever ``retries`` says.

Every endpoint call carries the client's default socket ``timeout`` and
accepts a per-call override.  Transient failures -- connection errors and
any response whose error envelope says ``retryable`` (429 overloaded,
503 draining, 504 deadline expired) -- are retried with exponential
backoff; a server-supplied ``Retry-After`` floors the delay.  Retrying is
safe by construction: every service request is idempotent (results are
keyed on content fingerprints).

Typical use::

    from repro.service import ServiceClient

    client = ServiceClient(port=8181)
    client.health()
    makespan = client.simulate(task, cores=4)
    bounds = client.analyse(task, cores=[2, 4, 8], timeout=10.0)

Every POST carries a client-generated ``X-Repro-Trace-Id`` so the server's
request trace is correlatable from this side: the id of the last completed
call is kept in :attr:`ServiceClient.last_trace_id`, failures carry it as
``ServiceError.trace_id``, and :meth:`ServiceClient.trace` pulls the span
tree back down.
"""

from __future__ import annotations

import http.client
import json
import threading
from typing import Iterable, Optional, Union

from ..core.exceptions import (
    ServiceClosedError,
    ServiceError,
    ServiceOverloadedError,
    ServiceTimeoutError,
)
from ..core.task import DagTask
from ..generator.arrivals import ArrivalProcess
from ..io.json_io import task_to_dict
from ..resilience import retry_call
from .tracing import TRACE_HEADER, new_trace_id

__all__ = ["ServiceClient"]


#: What a reused connection raises when the server had closed it before the
#: request arrived (:class:`http.client.RemoteDisconnected` is a
#: :class:`ConnectionResetError`).
_STALE_CONNECTION = (ConnectionResetError, BrokenPipeError)


def _error_from_response(
    status: int, headers: http.client.HTTPMessage, body: bytes, path: str
) -> ServiceError:
    """Map an HTTP error response onto the service exception hierarchy.

    Understands both the structured envelope (``{"error": {"code",
    "message", "retryable", ...}}``) and a bare string ``error`` field, so
    the client keeps working against older servers.
    """
    message: Optional[str] = None
    retryable: Optional[bool] = None
    retry_after: Optional[float] = None
    trace_id: Optional[str] = None
    try:
        envelope = json.loads(body).get("error")
    except Exception:  # noqa: BLE001 - no JSON body on the error
        envelope = None
    if isinstance(envelope, dict):
        message = envelope.get("message")
        retryable = envelope.get("retryable")
        retry_after = envelope.get("retry_after")
        trace_id = envelope.get("trace_id")
    elif isinstance(envelope, str):
        message = envelope
    if trace_id is None:
        trace_id = headers.get(TRACE_HEADER)
    if retry_after is None:
        header = headers.get("Retry-After")
        if header is not None:
            try:
                retry_after = float(header)
            except ValueError:
                retry_after = None
    message = message or f"service returned HTTP {status} for {path}"
    if status == 429:
        mapped: ServiceError = ServiceOverloadedError(
            message, retry_after=retry_after
        )
    elif status == 503:
        mapped = ServiceClosedError(message)
    elif status == 504:
        mapped = ServiceTimeoutError(message)
    else:
        mapped = ServiceError(message)
    if retryable is not None:
        mapped.retryable = bool(retryable)  # instance attr shadows the class hint
    if retry_after is not None:
        mapped.retry_after = retry_after  # type: ignore[attr-defined]
    if trace_id:
        mapped.trace_id = str(trace_id)
    return mapped


def _transport_error(base_url: str, error: Exception) -> ServiceError:
    """Map a connection-level failure onto a retryable :class:`ServiceError`.

    A refused connect, a reset or disconnect while reading the response,
    a socket read timeout: callers should never have to catch platform
    socket exceptions to talk to the service, and every request is
    idempotent by fingerprint -- so all of these collapse into the same
    structured, retryable "cannot reach" error.
    """
    unreachable = ServiceError(
        f"cannot reach evaluation service at {base_url}: {error}"
    )
    unreachable.retryable = True  # connection-level: safe to retry
    return unreachable


def _wire_priorities(
    task: Union[DagTask, dict], document: dict, priorities: dict
) -> dict:
    """Serialise a fixed-priority table with in-process binding semantics.

    :class:`~repro.simulation.schedulers.FixedPriorityPolicy` looks nodes
    up with plain ``==``/``hash`` (``priorities.get(node)``), while the
    wire form stringifies every node id -- so a naive
    ``{str(k): v for k, v in priorities.items()}`` changes which keys
    *bind*: an int-keyed table stops matching a task whose nodes are the
    same ints on a server that parsed them back as strings, and a key that
    merely *prints* like some node name (int ``3`` vs node ``"3"``) starts
    matching where it never did in process.

    Binding is therefore resolved *client-side*, against the actual task
    nodes, and only bound entries are shipped -- keyed by the node's wire
    name, which is exactly the name the server-side task carries.  Unbound
    keys are dropped: in process they are never looked up, so dropping
    them is the only serialisation that cannot change the policy.
    """
    nodes = (
        list(task.graph.nodes())
        if isinstance(task, DagTask)
        else list(document.get("nodes", {}))
    )
    wire: dict = {}
    for node in nodes:
        if node in priorities:
            wire[str(node)] = priorities[node]
    return wire


class ServiceClient:
    """Synchronous JSON client of :mod:`repro.service.http`.

    Parameters
    ----------
    host, port:
        Where the service listens; alternatively pass a full ``base_url``.
    timeout:
        Default per-request socket timeout in seconds, used by every call
        unless it passes its own.  Exact-makespan requests can
        legitimately run long -- size the timeout to the hardest instance
        you intend to submit.
    retries:
        Retries per request *after* the first attempt (``0`` disables).
        Only transient failures are retried: connection errors, and HTTP
        errors whose envelope marks them retryable.
    backoff, backoff_max:
        Exponential backoff schedule of those retries (seconds); a
        ``Retry-After`` from the server floors each delay.
    retry_seed:
        Seed of the backoff jitter stream; ``None`` (default) disables
        jitter entirely so retry timing is deterministic.
    """

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 8181,
        *,
        timeout: float = 60.0,
        base_url: Optional[str] = None,
        retries: int = 2,
        backoff: float = 0.1,
        backoff_max: float = 5.0,
        retry_seed: Optional[int] = None,
    ) -> None:
        if retries < 0:
            raise ValueError(f"retries must be >= 0, got {retries}")
        self.base_url = (base_url or f"http://{host}:{port}").rstrip("/")
        scheme, _, rest = self.base_url.partition("://")
        if scheme not in ("http", "https") or not rest:
            raise ValueError(
                f"base_url must be http://host[:port][/prefix], got {base_url!r}"
            )
        self._netloc, slash, prefix = rest.partition("/")
        self._prefix = slash + prefix
        self._connection_class = (
            http.client.HTTPSConnection
            if scheme == "https"
            else http.client.HTTPConnection
        )
        self.timeout = timeout
        self.retries = retries
        self.backoff = backoff
        self.backoff_max = backoff_max
        self.retry_seed = retry_seed
        #: Trace id echoed by the server on the most recent completed
        #: request (``None`` before the first call or when the server runs
        #: with tracing disabled).  Feed it to :meth:`trace` to pull the
        #: span tree of the call that just returned.
        self.last_trace_id: Optional[str] = None
        self._local = threading.local()  # this thread's connection
        self._lock = threading.Lock()
        #: Every open connection of this client, by the thread it serves.
        self._connections: dict[
            http.client.HTTPConnection, threading.Thread
        ] = {}

    def __enter__(self) -> "ServiceClient":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    def close(self) -> None:
        """Close every connection this client opened, from any thread.

        The client stays usable: a later call opens a fresh connection.
        """
        with self._lock:
            connections = list(self._connections)
            self._connections.clear()
            self._local = threading.local()
        for connection in connections:
            connection.close()

    # ------------------------------------------------------------------
    # Transport
    # ------------------------------------------------------------------
    def _connection(self) -> http.client.HTTPConnection:
        """This thread's connection, created on the thread's first call.

        Creating one also closes the connections of threads that have
        ended, so a client called from short-lived threads does not hold
        their connections open.
        """
        connection = getattr(self._local, "connection", None)
        if connection is None:
            connection = self._connection_class(self._netloc)
            with self._lock:
                for ended, owner in list(self._connections.items()):
                    if not owner.is_alive():
                        del self._connections[ended]
                        ended.close()
                self._connections[connection] = threading.current_thread()
                self._local.connection = connection
        return connection

    def _exchange(
        self,
        method: str,
        path: str,
        body: Optional[bytes],
        headers: dict,
        timeout: float,
    ) -> tuple[int, http.client.HTTPMessage, bytes]:
        """One request and its whole response on this thread's connection.

        Returns ``(status, headers, body)`` for any status.  A request on a
        reused connection that fails before any response byte arrives is
        sent once more on a fresh connection: the server had closed the
        idle connection.  Any other connection-level failure -- on a fresh
        connection, after response bytes, or a read timeout -- drops the
        connection and raises the retryable "cannot reach" error.
        """
        connection = self._connection()
        connection.timeout = timeout  # applied when the socket is opened
        while True:
            reused = connection.sock is not None
            if reused:
                connection.sock.settimeout(timeout)
            try:
                try:
                    connection.request(
                        method, self._prefix + path, body, headers
                    )
                    response = connection.getresponse()
                except _STALE_CONNECTION:
                    if not reused:
                        raise
                    connection.close()
                    continue
                # A response with ``Connection: close`` has already detached
                # the socket from the connection; the next request opens anew.
                return response.status, response.headers, response.read()
            except (http.client.HTTPException, OSError) as error:
                connection.close()
                raise _transport_error(self.base_url, error) from error

    def _request_once(
        self,
        path: str,
        document: Optional[dict],
        timeout: float,
        trace_id: Optional[str] = None,
    ) -> dict:
        body = None
        headers = {"Accept": "application/json"}
        if document is not None:
            body = json.dumps(document).encode("utf-8")
            headers["Content-Type"] = "application/json"
        if trace_id is not None:
            headers[TRACE_HEADER] = trace_id
        status, response_headers, payload = self._exchange(
            "GET" if body is None else "POST", path, body, headers, timeout
        )
        if not 200 <= status < 300:
            mapped = _error_from_response(
                status, response_headers, payload, path
            )
            if document is not None:
                self.last_trace_id = mapped.trace_id
            raise mapped
        if document is not None:
            self.last_trace_id = response_headers.get(TRACE_HEADER)
        return json.loads(payload)

    def _request(
        self,
        path: str,
        document: Optional[dict] = None,
        timeout: Optional[float] = None,
    ) -> dict:
        effective = self.timeout if timeout is None else timeout
        # One trace id for the whole logical request: retries reuse it, so
        # server-side all attempts of one call share a correlatable id
        # (the ring keeps the last attempt -- id reuse is last-write-wins).
        trace_id = new_trace_id() if document is not None else None
        return retry_call(
            lambda: self._request_once(path, document, effective, trace_id),
            attempts=self.retries + 1,
            base_delay=self.backoff,
            max_delay=self.backoff_max,
            seed=self.retry_seed,
            retry_on=(ServiceError,),
            should_retry=lambda error: bool(getattr(error, "retryable", False)),
            retry_after=lambda error: getattr(error, "retry_after", None),
        )

    @staticmethod
    def _task_document(task: Union[DagTask, dict]) -> dict:
        return task_to_dict(task) if isinstance(task, DagTask) else dict(task)

    # ------------------------------------------------------------------
    # Endpoints
    # ------------------------------------------------------------------
    def health(self, *, timeout: Optional[float] = None) -> dict:
        """Readiness probe (``GET /health``), single attempt.

        Returns the probe document -- ``{"status": "ok" | "draining" |
        "closed", ...}`` -- even when the server answers 503 for the
        draining/closed phases: a probe *reports* state, it does not fail
        on it.  No retries either; a health check is a point-in-time
        question, and retrying would mask exactly the transient states it
        exists to surface.  Connection-level failures still raise.
        """
        effective = self.timeout if timeout is None else timeout
        status, headers, payload = self._exchange(
            "GET", "/health", None, {"Accept": "application/json"}, effective
        )
        if 200 <= status < 300:
            return json.loads(payload)
        if status == 503:
            try:
                document = json.loads(payload)
            except ValueError:  # no JSON body
                document = None
            if isinstance(document, dict) and "status" in document:
                return document
        raise _error_from_response(status, headers, payload, "/health")

    def stats(self, *, timeout: Optional[float] = None) -> dict:
        """Service counters (``GET /stats``)."""
        return self._request("/stats", timeout=timeout)

    def metrics(
        self, *, timeout: Optional[float] = None, format: str = "json"
    ) -> Union[dict, str]:  # noqa: A002 - mirrors the wire concept
        """Metrics registry (``GET /metrics``).

        ``format="json"`` (default) returns the JSON rendering;
        ``format="text"`` returns the Prometheus text exposition as a
        string -- the same bytes a scraper sees.
        """
        if format == "json":
            return self._request("/metrics", timeout=timeout)
        if format != "text":
            raise ValueError(f"format must be 'json' or 'text', got {format!r}")
        effective = self.timeout if timeout is None else timeout
        status, headers, payload = self._exchange(
            "GET", "/metrics", None, {"Accept": "text/plain"}, effective
        )
        if not 200 <= status < 300:
            raise _error_from_response(status, headers, payload, "/metrics")
        return payload.decode("utf-8")

    def traces(
        self,
        *,
        limit: int = 50,
        slow: bool = False,
        errors: bool = False,
        timeout: Optional[float] = None,
    ) -> dict:
        """Recent request traces kept by the server (``GET /traces``).

        Returns ``{"traces": [summaries...], "ring": ring-stats}``,
        newest first.  ``slow=True`` keeps only traces at or above the
        server's rolling slow-percentile threshold; ``errors=True`` keeps
        only error/degraded traces.
        """
        query = [f"limit={int(limit)}"]
        if slow:
            query.append("slow=1")
        if errors:
            query.append("errors=1")
        return self._request("/traces?" + "&".join(query), timeout=timeout)

    def trace(
        self,
        trace_id: str,
        *,
        format: str = "tree",  # noqa: A002 - mirrors the wire concept
        timeout: Optional[float] = None,
    ) -> dict:
        """One trace's span tree (``GET /traces/<id>``).

        ``format="chrome"`` returns Chrome trace-event JSON instead --
        save it to a file and load it in Perfetto (ui.perfetto.dev).
        Raises a :class:`ServiceError` with code ``trace-not-found`` when
        the id was sampled out of or evicted from the ring.
        """
        if format not in ("tree", "chrome"):
            raise ValueError(
                f"format must be 'tree' or 'chrome', got {format!r}"
            )
        path = f"/traces/{trace_id}"
        if format == "chrome":
            path += "?format=chrome"
        return self._request(path, timeout=timeout)

    def simulate(
        self,
        task: Union[DagTask, dict],
        cores: int = 2,
        accelerators: int = 1,
        *,
        policy: str = "breadth-first",
        policy_seed: Optional[int] = None,
        priorities: Optional[dict] = None,
        offload_enabled: bool = True,
        timeout: Optional[float] = None,
        deadline: Optional[float] = None,
    ) -> float:
        """Makespan of one simulated execution (``POST /simulate``).

        ``timeout`` bounds this call's socket wait; ``deadline`` is
        forwarded to the server as the request's service-side deadline
        (the request fails with HTTP 504 once it expires, even while
        queued).
        """
        document = {
            "task": self._task_document(task),
            "cores": cores,
            "accelerators": accelerators,
            "policy": policy,
            "offload_enabled": offload_enabled,
        }
        if policy_seed is not None:
            document["policy_seed"] = policy_seed
        if priorities is not None:
            document["priorities"] = _wire_priorities(
                task, document["task"], priorities
            )
        if deadline is not None:
            document["timeout"] = deadline
        return float(
            self._request("/simulate", document, timeout=timeout)["makespan"]
        )

    def analyse(
        self,
        task: Union[DagTask, dict],
        cores: Union[int, Iterable[int]] = 2,
        *,
        include_naive: bool = True,
        timeout: Optional[float] = None,
        deadline: Optional[float] = None,
    ) -> dict:
        """Response-time bounds per core count (``POST /analyse``)."""
        document = {
            "task": self._task_document(task),
            "cores": cores if isinstance(cores, int) else list(cores),
            "include_naive": include_naive,
        }
        if deadline is not None:
            document["timeout"] = deadline
        return self._request("/analyse", document, timeout=timeout)

    def makespan(
        self,
        task: Union[DagTask, dict],
        cores: int = 2,
        accelerators: int = 1,
        *,
        method: str = "auto",
        time_limit: Optional[float] = None,
        timeout: Optional[float] = None,
        deadline: Optional[float] = None,
    ) -> dict:
        """Exact minimum makespan + witness schedule (``POST /makespan``)."""
        document = {
            "task": self._task_document(task),
            "cores": cores,
            "accelerators": accelerators,
            "method": method,
        }
        if time_limit is not None:
            document["time_limit"] = time_limit
        if deadline is not None:
            document["timeout"] = deadline
        return self._request("/makespan", document, timeout=timeout)

    def workload(
        self,
        streams: Iterable[dict],
        horizon: float,
        cores: int = 2,
        accelerators: int = 1,
        *,
        policy: str = "breadth-first",
        policy_seed: Optional[int] = None,
        offload_enabled: bool = True,
        timeout: Optional[float] = None,
        deadline: Optional[float] = None,
    ) -> dict:
        """Online multi-instance workload metrics (``POST /workload``).

        Each stream is a dict with a ``"task"`` (a :class:`DagTask` or a
        task document), an ``"arrivals"`` spec (an
        :class:`~repro.generator.arrivals.ArrivalProcess` or its dict
        form), and optional ``"deadline"`` / ``"name"`` fields.  Returns
        the schedulability summary plus per-instance response times.
        """
        wire_streams = []
        for spec in streams:
            entry = dict(spec)
            if "task" in entry:
                entry["task"] = self._task_document(entry["task"])
            if isinstance(entry.get("arrivals"), ArrivalProcess):
                entry["arrivals"] = entry["arrivals"].to_dict()
            wire_streams.append(entry)
        document = {
            "streams": wire_streams,
            "horizon": horizon,
            "cores": cores,
            "accelerators": accelerators,
            "policy": policy,
            "offload_enabled": offload_enabled,
        }
        if policy_seed is not None:
            document["policy_seed"] = policy_seed
        if deadline is not None:
            document["timeout"] = deadline
        return self._request("/workload", document, timeout=timeout)
