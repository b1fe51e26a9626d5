"""Exception hierarchy used across the :mod:`repro` library.

All library-specific errors derive from :class:`ReproError` so that callers
can catch every error raised by the package with a single ``except`` clause
while still being able to distinguish the individual failure modes.
"""

from __future__ import annotations

import reprlib

__all__ = [
    "ReproError",
    "GraphError",
    "CycleError",
    "NodeNotFoundError",
    "DuplicateNodeError",
    "EdgeError",
    "ValidationError",
    "TransformationError",
    "AnalysisError",
    "GenerationError",
    "SimulationError",
    "SolverError",
    "SerializationError",
    "ServiceError",
    "ServiceClosedError",
    "ServiceTimeoutError",
    "ServiceOverloadedError",
    "ServiceRequestTooLargeError",
    "DeadlineExceededError",
    "CircuitOpenError",
    "FaultInjectedError",
    "WorkerCrashError",
    "short_repr",
]


def short_repr(value: object) -> str:
    """How an error message shows a refused value: its ``repr`` with
    containers cut after a few items and long strings and numbers cut in
    the middle (:func:`reprlib.repr`), so a message stays short whatever the
    value's size.  Every domain check shows refused values through it."""
    return reprlib.repr(value)


class ReproError(Exception):
    """Base class of every exception raised by the :mod:`repro` package."""


class GraphError(ReproError):
    """Base class for errors related to DAG construction and manipulation."""


class CycleError(GraphError):
    """Raised when an operation requires an acyclic graph but a cycle exists.

    The offending cycle (a list of node identifiers) is stored in
    :attr:`cycle` when it is known, which makes debugging generated task sets
    considerably easier.
    """

    def __init__(self, message: str, cycle: list | None = None) -> None:
        super().__init__(message)
        self.cycle = list(cycle) if cycle is not None else None


class NodeNotFoundError(GraphError, KeyError):
    """Raised when a node identifier is not present in the graph."""

    def __init__(self, node_id: object) -> None:
        super().__init__(f"node {short_repr(node_id)} is not part of the graph")
        self.node_id = node_id


class DuplicateNodeError(GraphError, ValueError):
    """Raised when adding a node whose identifier already exists."""

    def __init__(self, node_id: object) -> None:
        super().__init__(f"node {node_id!r} already exists in the graph")
        self.node_id = node_id


class EdgeError(GraphError, ValueError):
    """Raised for invalid edge operations (self loops, duplicates, ...)."""


class ValidationError(ReproError, ValueError):
    """Raised when a task or graph violates a model assumption.

    The system model of the paper makes several structural assumptions
    (single source, single sink, no transitive edges, a single offloaded
    node).  :class:`ValidationError` carries a list of human readable
    problems so all violations can be reported at once.
    """

    def __init__(self, problems: list[str] | str) -> None:
        if isinstance(problems, str):
            problems = [problems]
        self.problems = list(problems)
        super().__init__("; ".join(self.problems))


class TransformationError(ReproError):
    """Raised when the DAG transformation (Algorithm 1) cannot be applied."""


class AnalysisError(ReproError):
    """Raised when a response-time analysis receives an unsupported input."""


class GenerationError(ReproError):
    """Raised when the random DAG generator cannot satisfy its constraints."""


class SimulationError(ReproError):
    """Raised when the scheduling simulator reaches an inconsistent state."""


class SolverError(ReproError):
    """Raised when the ILP / branch-and-bound makespan solvers fail."""


class SerializationError(ReproError):
    """Raised when (de)serialising tasks to/from JSON or DOT fails."""


class ServiceError(ReproError):
    """Raised when the long-lived evaluation service cannot serve a request.

    ``retryable`` is a class-level hint for clients: ``True`` on the
    subclasses whose failure is transient by construction (overload, drain,
    deadline expiry) -- every service endpoint is idempotent (results are
    keyed on content fingerprints), so retrying those is always safe.

    ``trace_id`` names the request trace the failure belongs to, when one
    exists: the HTTP client copies it off the error envelope so a caller
    can pull the failing request's span tree from ``GET /traces/<id>``.
    It stays ``None`` for errors raised outside a traced request.
    """

    retryable = False
    trace_id: str | None = None


class ServiceClosedError(ServiceError):
    """Raised when a request reaches a service that has been closed.

    Retryable from a remote client's point of view: a closed service is
    usually one mid-drain or mid-restart.
    """

    retryable = True


class ServiceTimeoutError(ServiceError):
    """Raised when a request's deadline expired before it was served.

    Covers both sides of the queue: a caller whose ``wait`` ran out, and a
    parked request whose deadline expired before its batch was executed.
    """

    retryable = True


class ServiceOverloadedError(ServiceError):
    """Raised when admission control sheds a request (queue bounds hit).

    ``retry_after`` is the suggested back-off in seconds (the HTTP
    transport forwards it as a ``Retry-After`` header).
    """

    retryable = True

    def __init__(self, message: str, retry_after: float | None = None) -> None:
        super().__init__(message)
        self.retry_after = retry_after


class ServiceRequestTooLargeError(ServiceError):
    """Raised when one request would do more work than a request may.

    Checked before any work starts (the HTTP transport answers 413): a task
    document over the node or edge cap, or more core counts than
    :data:`repro.analysis.batch.MAX_CORE_COUNTS` (refused in process too).
    Not retryable: the identical request is refused again.
    """


class DeadlineExceededError(ReproError):
    """Raised by :meth:`repro.resilience.Deadline.check` on expiry."""


class CircuitOpenError(ReproError):
    """Raised by :meth:`repro.resilience.CircuitBreaker.call` while open."""


class FaultInjectedError(ReproError):
    """Raised by an armed :class:`repro.resilience.FaultInjector` point."""


class WorkerCrashError(ReproError):
    """Raised when the parallel runner exhausted its pool-respawn budget."""
