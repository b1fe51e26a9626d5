"""Micro-batching request queue of the evaluation service.

A long-lived service receives requests one at a time, but the engines
underneath it (:func:`~repro.simulation.batch.simulate_many`,
:func:`~repro.analysis.batch.analyse_many`,
:func:`~repro.ilp.batch.minimum_makespans_many`) amortise best over
*batches*: one compile per distinct task, one C kernel call per policy
column, one deduplicated oracle dispatch.  :class:`MicroBatcher`
bridges the two shapes the way a model-inference server does: concurrent
in-flight requests are parked in a pending list, and the worker thread
takes *every* pending request as one batch as soon as it is free:

* a request that finds the worker idle is flushed at once (a **ready**
  flush), so a lone request pays no batching delay;
* whatever arrives while a flush runs parks and becomes the next batch, so
  a burst coalesces into as many batches as the flushes it overlaps, with
  no timer and no size trigger;
* once the batcher is **closed**, the worker drains every parked request
  (a **close** flush) before it exits, so ``close()`` never abandons a
  caller.

Admission is bounded: ``max_pending`` caps the parked-request count and
``max_pending_cost`` caps their summed ``cost`` (the facade uses node
counts as a memory proxy); a request arriving past either bound is **shed**
with :class:`~repro.core.exceptions.ServiceOverloadedError` instead of
being accepted into a queue that cannot keep up.  Shedding at admission is
the only honest failure mode under overload -- every *accepted* request is
still guaranteed a resolution.

That guarantee has three layers: the executor must resolve every request in
a flush; any request it leaves unresolved is failed defensively; and if the
worker thread itself dies, its exit handler marks the batcher closed and
fails everything still parked.  Abandonment (executor exception, worker
death, injected drain fault) is routed through the ``on_abandon`` hook so
the owning facade can clean its in-flight table before callers see the
error.

The batcher is engine-agnostic: requests carry an opaque ``group_key`` the
executor uses to split a flush into engine-compatible groups, plus a
``fingerprint`` identifying the computation for caching/deduplication.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field
from typing import Callable, Hashable, Optional

from ..core.exceptions import (
    ServiceClosedError,
    ServiceError,
    ServiceOverloadedError,
    ServiceTimeoutError,
)
from ..resilience import Deadline, fault_point
from .metrics import BATCH_SIZE_BUCKETS, LATENCY_BUCKETS, MetricsRegistry

__all__ = ["BatchRequest", "MicroBatcher"]

#: Seconds a shed request is told to wait (``retry_after``) before retrying.
RETRY_AFTER = 0.05


@dataclass
class BatchRequest:
    """One in-flight request parked in (or flushed from) the queue.

    Attributes
    ----------
    kind:
        Request kind tag (``"simulate"``, ``"analyse"``, ``"makespan"``).
    fingerprint:
        The request fingerprint (cache key) from
        :func:`repro.service.fingerprint.request_fingerprint`.
    group_key:
        Hashable key describing which batched-engine call can serve the
        request; the executor groups a flush by ``(kind, group_key)``.
    task:
        The task object of the request (kept as-is; the engines compile it).
    params:
        Remaining request parameters, as built by the facade.
    deadline:
        Optional per-request deadline.  The executor checks it before
        doing work: a request whose deadline expired while parked is
        failed with :class:`ServiceTimeoutError` instead of being served.
    cost:
        Admission-control weight (the facade uses the task's node count);
        counted against ``max_pending_cost``.
    enqueued_at:
        ``time.monotonic()`` stamp set at admission; the flush observes
        ``now - enqueued_at`` as the request's queue-wait time.
    trace:
        Optional trace context carried across the thread hop: the
        submitter's :class:`~repro.service.tracing.Trace` plus its open
        ``batcher.queue`` span, which the flush (on the batcher thread)
        finishes and links its shared ``batcher.flush`` span under.
    """

    kind: str
    fingerprint: str
    group_key: Hashable
    task: object
    params: dict
    deadline: Optional[Deadline] = None
    cost: int = 1
    enqueued_at: float = 0.0
    trace: object = None
    _done: threading.Event = field(default_factory=threading.Event, repr=False)
    result: object = None
    error: Optional[BaseException] = None

    def resolve(self, result: object) -> None:
        """Deliver ``result`` to the waiting submitter."""
        self.result = result
        self._done.set()

    def fail(self, error: BaseException) -> None:
        """Deliver ``error`` to the waiting submitter."""
        self.error = error
        self._done.set()

    @property
    def resolved(self) -> bool:
        """``True`` once :meth:`resolve` or :meth:`fail` ran."""
        return self._done.is_set()

    def wait(self, timeout: Optional[float] = None) -> object:
        """Block until the request is served; return or raise its outcome."""
        if not self._done.wait(timeout):
            raise ServiceTimeoutError(
                f"{self.kind} request {self.fingerprint[:12]} timed out "
                f"after {timeout}s"
            )
        if self.error is not None:
            raise self.error
        return self.result


class MicroBatcher:
    """Request coalescer that flushes whenever its worker is free.

    See the module docstring for the flush and admission rules.

    Parameters
    ----------
    execute:
        Callback receiving each flushed batch (a list of
        :class:`BatchRequest`); it must resolve or fail every request.
    max_pending, max_pending_cost:
        Admission bounds (``None`` = unbounded).  A request that would push
        the parked queue past either bound is shed with
        :class:`ServiceOverloadedError`.  A single request whose own cost
        exceeds ``max_pending_cost`` is still admitted when the queue is
        empty -- bounding admission must not make a request unservable.
    on_abandon:
        Hook called as ``on_abandon(request, error)`` whenever the batcher
        (not the executor) must fail a request: executor exception fan-out,
        unresolved-request back-stop, worker death.  The owning facade uses
        it to clean its in-flight table; the batcher still guarantees the
        request ends up failed even if the hook itself misbehaves.
    name:
        Worker-thread name (visible in diagnostics).
    metrics:
        Optional :class:`~repro.service.metrics.MetricsRegistry`.  When
        given, the batcher publishes its queue-wait and batch-size
        histograms, flush-trigger breakdown and shed count there, updated
        in the same locked sections as the ``stats()`` counters so the two
        views cannot drift apart.
    """

    def __init__(
        self,
        execute: Callable[[list[BatchRequest]], None],
        *,
        max_pending: Optional[int] = None,
        max_pending_cost: Optional[int] = None,
        on_abandon: Optional[Callable[[BatchRequest, BaseException], None]] = None,
        name: str = "repro-service-batcher",
        metrics: Optional[MetricsRegistry] = None,
    ) -> None:
        if max_pending is not None and max_pending < 1:
            raise ValueError(f"max_pending must be >= 1 or None, got {max_pending}")
        if max_pending_cost is not None and max_pending_cost < 1:
            raise ValueError(
                f"max_pending_cost must be >= 1 or None, got {max_pending_cost}"
            )
        self._execute = execute
        self.max_pending = max_pending
        self.max_pending_cost = max_pending_cost
        self._on_abandon = on_abandon
        self._condition = threading.Condition()
        self._pending: list[BatchRequest] = []
        self._pending_cost = 0
        self._closed = False
        self._submitted = 0
        self._shed = 0
        self._batches = 0
        self._largest_batch = 0
        self._flushes = {"ready": 0, "close": 0}
        if metrics is not None:
            self._metric_queue_wait = metrics.histogram(
                "repro_service_queue_wait_seconds",
                "Time a request spent parked in the micro-batch queue "
                "before its flush started.",
                buckets=LATENCY_BUCKETS,
            )
            self._metric_batch_size = metrics.histogram(
                "repro_service_batch_size",
                "Requests per flushed batch.",
                buckets=BATCH_SIZE_BUCKETS,
            )
            self._metric_flushes = metrics.counter(
                "repro_service_batch_flushes_total",
                "Flushed batches by trigger (ready/close).",
                labels=("trigger",),
            )
            self._metric_shed = metrics.counter(
                "repro_service_batch_shed_total",
                "Requests refused at admission because a queue bound "
                "(max_pending / max_pending_cost) would be exceeded.",
            )
        else:
            self._metric_queue_wait = None
            self._metric_batch_size = None
            self._metric_flushes = None
            self._metric_shed = None
        self._worker = threading.Thread(target=self._run, name=name, daemon=True)
        self._worker.start()

    # ------------------------------------------------------------------
    # Submission / shutdown
    # ------------------------------------------------------------------
    def submit(self, request: BatchRequest) -> BatchRequest:
        """Park ``request`` for the next flush (non-blocking).

        Admission (closed check, queue bounds, parking) is a single atomic
        step under the batcher lock: a request is either rejected here, or
        it is in the pending list where the drain guarantee covers it --
        there is no window in which ``close()`` can observe it half-way.
        The caller collects the outcome via :meth:`BatchRequest.wait`.

        Raises
        ------
        ServiceClosedError
            When the batcher has been closed.
        ServiceOverloadedError
            When an admission bound would be exceeded (the request was
            shed; ``retry_after`` suggests when the queue may have space).
        """
        with self._condition:
            if self._closed:
                raise ServiceClosedError(
                    "evaluation service is closed; no further requests accepted"
                )
            if (
                self.max_pending is not None
                and len(self._pending) >= self.max_pending
            ):
                self._shed += 1
                if self._metric_shed is not None:
                    self._metric_shed.inc()
                raise ServiceOverloadedError(
                    f"evaluation service overloaded: {len(self._pending)} "
                    f"requests pending (max_pending={self.max_pending})",
                    retry_after=RETRY_AFTER,
                )
            if (
                self.max_pending_cost is not None
                and self._pending
                and self._pending_cost + request.cost > self.max_pending_cost
            ):
                self._shed += 1
                if self._metric_shed is not None:
                    self._metric_shed.inc()
                raise ServiceOverloadedError(
                    f"evaluation service overloaded: pending cost "
                    f"{self._pending_cost} + {request.cost} exceeds "
                    f"max_pending_cost={self.max_pending_cost}",
                    retry_after=RETRY_AFTER,
                )
            request.enqueued_at = time.monotonic()
            self._pending.append(request)
            self._pending_cost += request.cost
            self._submitted += 1
            self._condition.notify_all()
        return request

    def close(self, timeout: Optional[float] = None) -> None:
        """Refuse new requests, drain the queue, and join the worker."""
        with self._condition:
            self._closed = True
            self._condition.notify_all()
        self._worker.join(timeout)
        if self._worker.is_alive():  # pragma: no cover - defensive
            raise ServiceError("batcher worker did not drain within the timeout")

    @property
    def closed(self) -> bool:
        with self._condition:
            return self._closed

    @property
    def drained(self) -> bool:
        """``True`` once the worker has flushed every parked request.

        ``closed and not drained`` is the *draining* window ``/health``
        reports: shutdown has begun but accepted work is still in flight.
        """
        with self._condition:
            return self._closed and not self._worker.is_alive()

    # ------------------------------------------------------------------
    # Worker
    # ------------------------------------------------------------------
    def _fail(self, request: BatchRequest, error: BaseException) -> None:
        """Abandon ``request``: notify the owner, then guarantee failure."""
        if self._on_abandon is not None:
            try:
                self._on_abandon(request, error)
            except BaseException:  # noqa: BLE001 - the guarantee comes first
                pass
        if not request.resolved:
            request.fail(error)

    def _take_batch(self) -> tuple[list[BatchRequest], Optional[str]]:
        """Wait until a request is pending; return ``(batch, reason)``.

        The batch is every pending request, and ``reason`` is ``"close"``
        once the batcher is closed, ``"ready"`` before.  Returns
        ``([], None)`` when the batcher is closed and drained.
        """
        with self._condition:
            while not self._pending:
                if self._closed:
                    return [], None
                self._condition.wait()
            batch = self._pending
            self._pending = []
            self._pending_cost = 0
            return batch, "close" if self._closed else "ready"

    def _run(self) -> None:
        try:
            while True:
                batch, reason = self._take_batch()
                if not batch:
                    # Fire here too: when the queue happens to be empty at
                    # close there is no close-reason flush, and the drain
                    # fault would otherwise silently never trigger.  The
                    # worker thread is still alive during the fault, so the
                    # batcher stays in the observable *draining* state.
                    # A raise-style fault has no parked callers to fan out
                    # to at this point; contain it so the worker exits
                    # through the finally below instead of dying noisily.
                    try:
                        fault_point("service.drain")
                    except BaseException:  # noqa: BLE001
                        pass
                    return
                with self._condition:
                    self._batches += 1
                    self._largest_batch = max(self._largest_batch, len(batch))
                    self._flushes[reason] += 1
                    if self._metric_flushes is not None:
                        now = time.monotonic()
                        self._metric_flushes.inc(trigger=reason)
                        self._metric_batch_size.observe(len(batch))
                        for request in batch:
                            self._metric_queue_wait.observe(
                                max(0.0, now - request.enqueued_at)
                            )
                try:
                    if reason == "close":
                        fault_point("service.drain")
                    self._execute(batch)
                except BaseException as error:  # noqa: BLE001 - fan out to callers
                    for request in batch:
                        if not request.resolved:
                            self._fail(request, error)
                finally:
                    for request in batch:
                        if not request.resolved:  # pragma: no cover - defensive
                            self._fail(
                                request,
                                ServiceError(
                                    f"executor left {request.kind} request "
                                    f"{request.fingerprint[:12]} unresolved"
                                ),
                            )
        finally:
            # The worker is exiting -- cleanly after a drain, or because
            # something above threw.  Either way, no flush will ever run
            # again: refuse new submissions and fail anything still parked
            # so no accepted caller blocks forever on a dead queue.
            with self._condition:
                self._closed = True
                leftovers = self._pending
                self._pending = []
                self._pending_cost = 0
                self._condition.notify_all()
            for request in leftovers:
                if not request.resolved:  # pragma: no cover - defensive
                    self._fail(
                        request,
                        ServiceError(
                            "batcher worker exited with parked requests; "
                            f"{request.kind} request "
                            f"{request.fingerprint[:12]} abandoned"
                        ),
                    )

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def stats(self) -> dict:
        """Coalescing counters (requests vs batches) for ``stats()``."""
        with self._condition:
            return {
                "submitted": self._submitted,
                "shed": self._shed,
                "batches": self._batches,
                "largest_batch": self._largest_batch,
                "pending": len(self._pending),
                "pending_cost": self._pending_cost,
                "flushes": dict(self._flushes),
                "max_pending": self.max_pending,
                "max_pending_cost": self.max_pending_cost,
            }
