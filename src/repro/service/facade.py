"""Synchronous in-process facade of the long-lived evaluation service.

:class:`EvaluationService` turns the batched engines into a server-shaped
API: callers submit one request at a time (typically from many threads --
the HTTP transport of :mod:`repro.service.http` does exactly that) and the
service amortises the work across them:

``submit -> fingerprint -> cache -> in-flight dedupe -> micro-batch -> engine``

1. the request is **fingerprinted** (:mod:`repro.service.fingerprint`);
2. the **result cache** (:class:`~repro.service.cache.ResultCache`) is
   consulted -- a hit returns a copy of the memoised payload without
   touching any engine;
3. an identical request already **in flight** is joined instead of being
   recomputed (one evaluation serves every concurrent duplicate);
4. otherwise the request is parked in the **micro-batching queue**
   (:class:`~repro.service.batching.MicroBatcher`); a flush groups parked
   requests by engine compatibility and serves each group with *one*
   batched-engine call -- :func:`~repro.simulation.batch.simulate_many`,
   :func:`~repro.analysis.batch.analyse_many` or
   :func:`~repro.ilp.batch.minimum_makespans_many` -- so a burst of N
   single-cell requests costs one vectorised-kernel batch per group, not N
   Python event loops.  A simulate group is one ``(offload, platform,
   policy)`` column: its call has one lane per request, and no lane that
   nobody asked for.

Correctness contract
--------------------
Batched == sequential, bit for bit.  Every payload the service returns is
exactly what a one-shot evaluation of the same request produces:

* deterministic policies ride the C kernel (the dense engine on a host
  without a C compiler), whose per-lane results are independent of batch
  composition (hypothesis-enforced by ``tests/test_vectorized_engine.py``),
  so coalescing cannot change them;
* the stochastic ``random`` policy is the one family whose draws *would*
  depend on batch composition -- the service therefore evaluates those
  requests solo (one fresh seeded instance per request, dense engine), so
  their answers equal the one-shot
  :func:`~repro.simulation.engine.simulate_makespan` with the same seed;
* analyses and exact-makespan oracles are deterministic per task.

``tests/test_service.py`` locks the contract down end to end (threaded
bursts vs sequential evaluation, cached vs uncached).

Policies are accepted *declaratively* (name + optional seed + optional
fixed-priority table), never as live instances: a live instance can carry
consumed RNG state that no stable cache key could describe.

Tasks are accepted built (:class:`~repro.core.task.DagTask`): the HTTP
transport builds a request's task where it decodes it, so a task the
decode refuses never reaches the cache, and a request is fingerprinted
from the built task's compiled view.

A request answered over HTTP also aliases the digest of its body to its
fingerprint (:func:`body_digest`), and :meth:`EvaluationService.answer_repeat`
answers a byte-identical repeat from that digest before the transport
parses it: no JSON parse, no task build, no fingerprint.  A refused
request is never aliased, and neither is an answer the cache does not keep.
"""

from __future__ import annotations

import threading
from collections.abc import Iterator, Mapping, Sequence
from contextlib import contextmanager
from contextvars import ContextVar
from typing import Optional, Union

from ..analysis.batch import TaskAnalysis, analyse_many, normalise_cores
from ..analysis.results import ResponseTimeResult
from ..core.exceptions import (
    ServiceClosedError,
    ServiceOverloadedError,
    ServiceRequestTooLargeError,
    ServiceTimeoutError,
    ValidationError,
    short_repr,
)
from ..core.task import DagTask, check_number, check_seed
from ..generator.arrivals import arrival_to_dict
from ..ilp.batch import minimum_makespans_many
from ..ilp.makespan import MakespanMethod, MakespanResult
from ..parallel import worker_respawn_count
from ..resilience import FAULTS, CircuitBreaker, Deadline, fault_point
from ..simulation.batch import resolve_engine, simulate_many
from ..simulation.engine import _as_platform, check_offload, simulate_makespan
from ..simulation.kernel_stats import collect_kernel_stats
from ..simulation.platform import Platform, processor_count
from ..simulation.workload import (
    JobStream,
    WorkloadResult,
    build_workload,
    simulate_workload,
)
from ..simulation.schedulers import (
    FixedPriorityPolicy,
    RandomPolicy,
    SchedulingPolicy,
    policy_by_name,
    policy_class,
    priority_table,
)
from .batching import BatchRequest, MicroBatcher
from .cache import ResultCache
from .metrics import OCCUPANCY_BUCKETS, MetricsRegistry
from .tracing import NULL_SPAN, RequestTraceContext, Tracer, current_trace
from .fingerprint import (
    platform_fingerprint,
    policy_fingerprint,
    request_fingerprint,
    task_fingerprint,
)

#: Task nodes one workload request may release: the sum over its streams of
#: releases before the horizon times task nodes.  Past it the request is
#: refused before anything is unrolled.
_MAX_WORKLOAD_NODES = 1 << 20

#: The digest of the HTTP request body being answered in full, set by the
#: transport (:func:`body_digest`): once ``_submit`` has the answer it
#: aliases the digest to the request's fingerprint, so a byte-identical
#: repeat is answered by :meth:`EvaluationService.answer_repeat`.
_BODY_DIGEST: ContextVar[Optional[bytes]] = ContextVar(
    "repro_body_digest", default=None
)

__all__ = [
    "EvaluationService",
    "body_digest",
    "build_policy",
    "check_policy_spec",
    "simulation_payload",
    "analysis_payload",
    "makespan_payload",
    "workload_payload",
]


# ----------------------------------------------------------------------
# Declarative policy specs
# ----------------------------------------------------------------------
def build_policy(
    name: str,
    seed: Optional[int] = None,
    priorities: Optional[Mapping] = None,
) -> SchedulingPolicy:
    """Instantiate a fresh policy from a declarative spec (checked by
    :func:`check_policy_spec`).

    ``priorities`` is only meaningful for ``fixed-priority`` (an explicit
    node -> priority table); ``seed`` only for ``random``.  Every request
    evaluation builds a *fresh* instance, so stochastic policies replay the
    same stream for the same spec -- the property that makes their results
    cacheable at all.
    """
    seed = check_policy_spec(name, seed, priorities)
    if priorities is not None:
        return FixedPriorityPolicy(priorities)
    return policy_by_name(name, rng=seed)


def check_policy_spec(
    name: str, seed: Optional[int], priorities: Optional[Mapping]
) -> Optional[int]:
    """Check a declarative policy spec and return the seed it runs with.

    The name must be a known policy; a seed, when given, an integer >= 0,
    and the ``random`` policy needs one (an unseeded one draws fresh OS
    entropy per evaluation, which no cached answer could describe);
    ``priorities`` only go with ``fixed-priority``, as a table of finite
    numbers (:func:`~repro.simulation.schedulers.priority_table`, the
    check :class:`FixedPriorityPolicy` makes too).  Deterministic policies run with ``None``, so specs that
    differ only in an ignored seed share a cache entry and batch group.

    Runs on every submission, cache hits included, so it builds no policy.
    """
    cls = policy_class(name)
    if seed is not None:
        check_seed("policy_seed", seed)
    elif cls is RandomPolicy:
        raise ValueError(
            "random-policy requests require an explicit policy_seed "
            "(results are memoised and must be reproducible)"
        )
    if priorities is not None:
        if cls is not FixedPriorityPolicy:
            raise ValueError(
                f"priorities are only supported by "
                f"{FixedPriorityPolicy.name!r} policies, not {short_repr(name)}"
            )
        priority_table(priorities)
    return seed if cls is RandomPolicy else None


def _check_flag(name: str, value: object) -> bool:
    """``value`` if it is a boolean: a flag read by its truth value would
    take ``"false"`` for true."""
    if not isinstance(value, bool):
        raise ValidationError(f"{name} must be true or false, got {short_repr(value)}")
    return value


def _check_timeout(timeout: Optional[float]) -> Optional[float]:
    """``timeout`` if a wait can honour it: ``None`` (wait forever) or
    seconds in ``[0, threading.TIMEOUT_MAX]`` -- a longer wait overflows
    the platform's clock."""
    return None if timeout is None else check_number(
        "timeout", timeout, high=threading.TIMEOUT_MAX
    )


@contextmanager
def body_digest(digest: bytes) -> Iterator[None]:
    """Answer the requests submitted in this block as the HTTP body that
    hashed to ``digest`` (see :meth:`EvaluationService.answer_repeat`)."""
    token = _BODY_DIGEST.set(digest)
    try:
        yield
    finally:
        _BODY_DIGEST.reset(token)


def _copy_payload(value):
    """Structural copy of a JSON-style payload tree.

    Payloads hold only dicts, lists and immutable scalars, so this beats
    ``copy.deepcopy`` (which walks the generic dispatch machinery) on the
    cache-hit fast path -- the path whose per-request cost bounds the warm
    throughput of the whole service.
    """
    if isinstance(value, dict):
        return {key: _copy_payload(item) for key, item in value.items()}
    if isinstance(value, list):
        return [_copy_payload(item) for item in value]
    return value


# ----------------------------------------------------------------------
# JSON-style result payloads
# ----------------------------------------------------------------------
# Payloads are plain JSON trees so that the in-process facade, the result
# cache and the HTTP transport all agree on one representation: a cached
# in-process answer is byte-for-byte the document a remote client receives.
def simulation_payload(makespan: float) -> dict:
    """Payload of a ``simulate`` request."""
    return {"makespan": float(makespan)}


def _response_time_payload(result: ResponseTimeResult) -> dict:
    return {
        "bound": float(result.bound),
        "method": result.method,
        "scenario": result.scenario.value,
        "terms": {str(key): float(value) for key, value in result.terms.items()},
    }


def analysis_payload(analysis: TaskAnalysis) -> dict:
    """Payload of an ``analyse`` request (bounds per core count per method).

    Task names are deliberately absent: the cache key excludes them (see
    :func:`repro.service.fingerprint.task_fingerprint`), so the payload
    must not depend on them either.
    """
    return {
        "heterogeneous": analysis.transformed is not None,
        "bounds": [
            {
                "cores": cores,
                "methods": {
                    method: _response_time_payload(result)
                    for method, result in entry.items()
                },
            }
            for cores, entry in analysis.results.items()
        ],
    }


def makespan_payload(result: MakespanResult) -> dict:
    """Payload of a ``makespan`` request (value + witness schedule).

    ``degraded`` marks a bound-sandwich fallback answer (budget exhausted
    or breaker open): a verified upper bound, never the claimed optimum,
    and never admitted to the result cache.
    """
    return {
        "makespan": float(result.makespan),
        "optimal": bool(result.optimal),
        "degraded": bool(result.degraded),
        "method": result.method.value,
        "cores": result.cores,
        "accelerators": result.accelerators,
        "start_times": {
            str(node): float(start) for node, start in result.start_times.items()
        },
        "engine_stats": {str(key): value for key, value in result.engine_stats.items()},
    }


def workload_payload(result: WorkloadResult) -> dict:
    """Payload of a ``workload`` request: aggregates + per-instance metrics.

    ``per_instance`` rows are in workload (release) order; ``deadline`` is
    the absolute deadline (``None`` when the stream carries none).
    """
    payload = result.summary()
    deadlines = result.deadlines
    payload["per_instance"] = [
        {
            "stream": int(result.streams[i]),
            "index": int(result.indices[i]),
            "release": float(result.releases[i]),
            "completion": float(result.completions[i]),
            "response": float(result.completions[i] - result.releases[i]),
            "deadline": (
                None if deadlines[i] == float("inf") else float(deadlines[i])
            ),
            "missed": bool(result.completions[i] > deadlines[i]),
        }
        for i in range(result.count)
    ]
    return payload


# ----------------------------------------------------------------------
# The service
# ----------------------------------------------------------------------
class EvaluationService:
    """Long-lived, cache-backed evaluation service over the batched engines.

    Parameters
    ----------
    cache_bytes:
        Byte cap of the fingerprint-keyed result store (``0`` disables
        memoisation entirely -- every payload is rejected by the cap).
    jobs:
        Worker-process count for the exact-makespan oracle batches of
        :meth:`submit_makespan` (``None`` keeps them serial).  Simulation,
        analysis and workload batches always run in process: the C kernel
        already runs its lanes on every CPU.
    default_timeout:
        Per-request deadline in seconds applied when a submission does not
        pass its own ``timeout`` (``None`` = wait forever).  The deadline
        is absolute: queueing time counts against it, and a request whose
        deadline expires while parked is failed with
        :class:`~repro.core.exceptions.ServiceTimeoutError` before any
        engine is invoked on its behalf.
    max_pending, max_pending_cost:
        Admission bounds of the micro-batching queue (``None`` =
        unbounded); cost is measured in task nodes.  Requests past a bound
        are shed with
        :class:`~repro.core.exceptions.ServiceOverloadedError`.
    oracle_budget:
        Wall-clock seconds each exact-makespan batch may spend before the
        remaining instances degrade to the verified bound sandwich
        (``None`` = unbudgeted, the exact engines run to completion);
        checked here, a finite number >= 0.
    breaker_threshold, breaker_reset:
        Circuit breaker over the exact-makespan engines: after
        ``breaker_threshold`` consecutive failed/degraded batches the
        breaker opens and makespan requests degrade immediately for
        ``breaker_reset`` seconds.
    metrics:
        Optional :class:`~repro.service.metrics.MetricsRegistry` to publish
        into (a fresh private registry is created when omitted).  The
        service's own counters *are* metrics-registry counters -- ``stats()``
        reads the exact objects ``GET /metrics`` renders, so the two
        endpoints reconcile by construction, not by double bookkeeping.
    tracing, trace_sample, trace_ring_bytes:
        Per-request tracing (:mod:`repro.service.tracing`): ``tracing=False``
        turns every span hook into a no-op; ``trace_sample`` is the
        tail-sampling keep probability for normal traces (errors, degraded
        and slow traces are always kept); ``trace_ring_bytes`` caps the
        finished-trace ring served on ``GET /traces``.

    Thread-safe: requests may be submitted from any number of threads;
    :meth:`close` drains the queue before returning -- every accepted
    request is resolved (served, failed or timed out), never abandoned.
    Usable as a context manager.
    """

    def __init__(
        self,
        *,
        cache_bytes: int = 64 * 1024 * 1024,
        jobs: Optional[int] = None,
        default_timeout: Optional[float] = None,
        max_pending: Optional[int] = None,
        max_pending_cost: Optional[int] = None,
        oracle_budget: Optional[float] = None,
        breaker_threshold: int = 5,
        breaker_reset: float = 30.0,
        metrics: Optional[MetricsRegistry] = None,
        tracing: bool = True,
        trace_sample: float = 1.0,
        trace_ring_bytes: int = 4 << 20,
    ) -> None:
        self.cache = ResultCache(max_bytes=cache_bytes)
        self._jobs = jobs
        # Per-request tracing substrate (span trees + tail-sampled ring).
        # Spans only materialise inside an active trace (the HTTP layer
        # starts one per request), so direct API callers pay one
        # context-var read per hook -- benchmarked like the disarmed
        # fault points by the tracing case of benchmarks/suite.py.
        self.tracer = Tracer(
            enabled=tracing,
            sample=trace_sample,
            ring_bytes=trace_ring_bytes,
        )
        self._default_timeout = _check_timeout(default_timeout)
        self._oracle_budget = None if oracle_budget is None else check_number(
            "oracle_budget", oracle_budget
        )
        self._oracle_breaker = CircuitBreaker(
            failure_threshold=breaker_threshold,
            reset_timeout=breaker_reset,
            name="oracle",
        )
        self._lock = threading.Lock()
        self._inflight: dict[str, BatchRequest] = {}
        self._closed = False
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        # Lifetime counters live *in* the registry: stats() reads the same
        # objects /metrics renders, so the two views cannot drift apart.
        self._requests = self.metrics.counter(
            "repro_service_requests_total",
            "Requests admitted past the closed check, by kind.",
            labels=("kind",),
        )
        self._repeats = self.metrics.counter(
            "repro_service_cache_repeats_total",
            "Requests answered from the digest of a byte-identical body "
            "answered before, without parsing it (each also a cache hit).",
        )
        self._inflight_joins = self.metrics.counter(
            "repro_service_inflight_joins_total",
            "Requests served by joining an identical in-flight evaluation.",
        )
        self._engine_batches = self.metrics.counter(
            "repro_service_engine_batches_total",
            "Batched-engine invocations (one per group, or per solo "
            "request).",
        )
        self._sim_engines = self.metrics.counter(
            "repro_service_sim_engine_total",
            "Simulation engine calls (one per column or solo request) by "
            "the concrete engine that served them (dense or compiled; "
            "a /workload request counts under dense).",
            labels=("engine",),
        )
        self._evaluated_cells = self.metrics.counter(
            "repro_service_evaluated_cells_total",
            "Cells (requests, workload instances) evaluated across all "
            "engine invocations.",
        )
        self._solo_evaluations = self.metrics.counter(
            "repro_service_solo_evaluations_total",
            "Requests evaluated individually (stochastic policies, "
            "per-request fallback after a failed group).",
        )
        self._timeouts = self.metrics.counter(
            "repro_service_timeouts_total",
            "Deadline expiries (parked past deadline, or caller wait "
            "ran out).",
        )
        self._shed = self.metrics.counter(
            "repro_service_shed_total",
            "Requests shed at admission with ServiceOverloadedError.",
        )
        self._degraded = self.metrics.counter(
            "repro_service_degraded_total",
            "Requests answered with a degraded (bound-sandwich) payload.",
        )
        # Kernel step profiles: the same per-batch counters the engine
        # spans carry (steps / events / lane occupancy), aggregated --
        # /metrics and /traces reconcile because both read the identical
        # KernelBatchStats records.
        self._kernel_steps = self.metrics.counter(
            "repro_kernel_steps_total",
            "Kernel step-loop iterations by engine (dense and compiled: "
            "retire windows; workload: event batches).",
            labels=("engine",),
        )
        self._kernel_events = self.metrics.counter(
            "repro_kernel_events_total",
            "Node retirements processed by kernel batches, by engine.",
            labels=("engine",),
        )
        self._kernel_occupancy = self.metrics.histogram(
            "repro_kernel_lane_occupancy",
            "Mean lane occupancy of each kernel batch "
            "(lane-steps / (steps * lanes), in [0, 1]).",
            buckets=OCCUPANCY_BUCKETS,
            labels=("engine",),
        )
        self._batcher = MicroBatcher(
            self._execute_batch,
            max_pending=max_pending,
            max_pending_cost=max_pending_cost,
            on_abandon=self._abort,
            metrics=self.metrics,
        )
        self._register_gauges()

    def _register_gauges(self) -> None:
        """Callback gauges over state that already lives elsewhere.

        Evaluated at scrape time, so the cache / queue / in-flight numbers
        on ``/metrics`` are live reads of the same structures ``stats()``
        reports -- never a second copy that could go stale.
        """
        cache_stats = self.cache.stats
        self.metrics.gauge(
            "repro_service_cache_entries",
            "Entries currently held by the result cache.",
            callback=lambda: cache_stats()["entries"],
        )
        self.metrics.gauge(
            "repro_service_cache_bytes",
            "Bytes currently held by the result cache.",
            callback=lambda: cache_stats()["bytes"],
        )

        def hit_ratio() -> float:
            stats = cache_stats()
            lookups = stats["hits"] + stats["misses"]
            return stats["hits"] / lookups if lookups else 0.0

        self.metrics.gauge(
            "repro_service_cache_hit_ratio",
            "Lifetime cache hits / (hits + misses).",
            callback=hit_ratio,
        )
        self.metrics.gauge(
            "repro_service_pending_requests",
            "Requests currently parked in the micro-batch queue.",
            callback=lambda: self._batcher.stats()["pending"],
        )
        self.metrics.gauge(
            "repro_service_inflight_requests",
            "Distinct fingerprints currently being evaluated.",
            callback=self._inflight_size,
        )

        def ratio_of(counter) -> float:
            total = self._requests.total()
            return counter.total() / total if total else 0.0

        self.metrics.gauge(
            "repro_service_timeout_ratio",
            "Lifetime timeouts / requests.",
            callback=lambda: ratio_of(self._timeouts),
        )
        self.metrics.gauge(
            "repro_service_shed_ratio",
            "Lifetime shed / requests.",
            callback=lambda: ratio_of(self._shed),
        )
        self.metrics.gauge(
            "repro_service_degraded_ratio",
            "Lifetime degraded answers / requests.",
            callback=lambda: ratio_of(self._degraded),
        )

        def trace_stat(key: str):
            return lambda: self.tracer.ring_stats()[key]

        self.metrics.gauge(
            "repro_trace_ring_traces",
            "Traces currently held by the trace ring buffer.",
            callback=trace_stat("ring_traces"),
        )
        self.metrics.gauge(
            "repro_trace_ring_bytes",
            "Serialized bytes currently held by the trace ring buffer.",
            callback=trace_stat("ring_bytes"),
        )
        self.metrics.gauge(
            "repro_traces_started",
            "Traces started since boot.",
            callback=trace_stat("started"),
        )
        self.metrics.gauge(
            "repro_traces_kept",
            "Finished traces admitted to the ring by tail sampling.",
            callback=trace_stat("kept"),
        )

    def _inflight_size(self) -> int:
        with self._lock:
            return len(self._inflight)

    # ------------------------------------------------------------------
    # Public request API
    # ------------------------------------------------------------------
    def submit_simulation(
        self,
        task: DagTask,
        platform: Union[Platform, int] = 2,
        *,
        policy: str = "breadth-first",
        policy_seed: Optional[int] = None,
        priorities: Optional[dict] = None,
        offload_enabled: bool = True,
        timeout: Optional[float] = None,
    ) -> float:
        """Makespan of one simulated execution (batched behind the scenes).

        Returns exactly ``simulate_makespan(task, platform,
        build_policy(policy, policy_seed, priorities), offload_enabled)``
        -- see the module docstring for why coalescing cannot change it.
        An offloading task on a platform without an accelerator is refused
        here, before it is counted or parked.
        """
        platform = _as_platform(platform)
        policy_seed = check_policy_spec(policy, policy_seed, priorities)
        offload_enabled = _check_flag("offload_enabled", offload_enabled)
        check_offload(
            offload_enabled and task.offloaded_node is not None,
            platform.accelerators,
        )
        policy_fp = policy_fingerprint(policy, policy_seed, priorities)
        fingerprint = request_fingerprint(
            "simulate",
            task_fingerprint(task),
            platform_fingerprint(platform),
            policy_fp,
            offload_enabled,
        )
        # One batch group per (offload, platform, policy) column: a flush
        # serves it with one simulate_many call over its tasks, so every
        # lane is a requested cell and no request's lanes depend on its
        # flush-mates.
        payload = self._submit(
            kind="simulate",
            fingerprint=fingerprint,
            group_key=(offload_enabled, platform, policy_fp),
            task=task,
            params={
                "platform": platform,
                "policy": policy,
                "policy_seed": policy_seed,
                "priorities": priorities,
                "offload_enabled": offload_enabled,
                "solo": policy == RandomPolicy.name,
            },
            timeout=timeout,
        )
        return payload["makespan"]

    def submit_analysis(
        self,
        task: DagTask,
        cores: Union[int, Sequence[int]] = 2,
        *,
        include_naive: bool = True,
        timeout: Optional[float] = None,
    ) -> dict:
        """Response-time bounds of ``task`` for every requested core count."""
        core_counts = normalise_cores(cores)
        include_naive = _check_flag("include_naive", include_naive)
        fingerprint = request_fingerprint(
            "analyse", task_fingerprint(task), list(core_counts), include_naive
        )
        return self._submit(
            kind="analyse",
            fingerprint=fingerprint,
            group_key=(core_counts, include_naive),
            task=task,
            params={"cores": core_counts, "include_naive": include_naive},
            timeout=timeout,
        )

    def submit_makespan(
        self,
        task: DagTask,
        cores: int = 2,
        *,
        accelerators: int = 1,
        method: str = "auto",
        time_limit: Optional[float] = None,
        timeout: Optional[float] = None,
    ) -> dict:
        """Exact minimum makespan via the batched oracle layer.

        A task with an offloaded node needs an accelerator here, as on the
        simulation endpoints; :func:`~repro.ilp.makespan.minimum_makespan`
        itself runs such a node on the host when ``accelerators`` is 0.
        """
        method_value = MakespanMethod(method).value  # validate early
        cores = processor_count("cores", cores, 1)
        accelerators = processor_count("accelerators", accelerators, 0)
        check_offload(task.offloaded_node is not None, accelerators)
        if time_limit is not None:
            check_number("time_limit", time_limit, strict=True)
        fingerprint = request_fingerprint(
            "makespan",
            task_fingerprint(task),
            cores,
            accelerators,
            method_value,
            time_limit,
        )
        return self._submit(
            kind="makespan",
            fingerprint=fingerprint,
            group_key=(cores, accelerators, method_value, time_limit),
            task=task,
            params={
                "cores": cores,
                "accelerators": accelerators,
                "method": method_value,
                "time_limit": time_limit,
            },
            timeout=timeout,
        )

    def submit_workload(
        self,
        streams: list[JobStream],
        horizon: float,
        platform: Union[Platform, int] = 2,
        *,
        policy: str = "breadth-first",
        policy_seed: Optional[int] = None,
        offload_enabled: bool = True,
        timeout: Optional[float] = None,
    ) -> dict:
        """Simulate an online multi-instance workload on one shared platform.

        The streams are unrolled over ``[0, horizon)`` and all released
        instances contend for the platform's core/accelerator pool under the
        shared-capacity simulator
        (:func:`repro.simulation.workload.simulate_workload`).  The payload
        carries the aggregate schedulability metrics plus per-instance
        response times and deadline flags.

        Arrival processes are declarative and seeded, so the whole request
        is fingerprintable: identical workloads hit the result cache.

        Its admission cost is the task nodes it may release, bounded from
        the arrival specs before anything is unrolled; a request that may
        release more than ``_MAX_WORKLOAD_NODES`` raises
        :class:`~repro.core.exceptions.ServiceRequestTooLargeError`.  A
        stream whose task offloads on a platform without an accelerator is
        refused before the request is counted or parked.
        """
        if not streams:
            raise ValueError("streams must hold at least one job stream")
        platform = _as_platform(platform)
        horizon = check_number("horizon", horizon)
        released = sum(
            stream.arrivals.max_releases(horizon) * max(1, stream.task.node_count)
            for stream in streams
        )
        if released > _MAX_WORKLOAD_NODES:
            raise ServiceRequestTooLargeError(
                f"the workload may release {released:.4g} task nodes before "
                f"its horizon, over the cap of {_MAX_WORKLOAD_NODES} per request"
            )
        policy_seed = check_policy_spec(policy, policy_seed, None)
        offload_enabled = _check_flag("offload_enabled", offload_enabled)
        for stream in streams:
            check_offload(
                offload_enabled and stream.task.offloaded_node is not None,
                platform.accelerators,
            )
        policy_fp = policy_fingerprint(policy, policy_seed, None)
        stream_specs = [
            [
                task_fingerprint(stream.task),
                arrival_to_dict(stream.arrivals),
                stream.relative_deadline(),
            ]
            for stream in streams
        ]
        fingerprint = request_fingerprint(
            "workload",
            stream_specs,
            horizon,
            platform_fingerprint(platform),
            policy_fp,
            offload_enabled,
        )
        return self._submit(
            kind="workload",
            fingerprint=fingerprint,
            group_key=("workload",),
            task=streams[0].task,
            params={
                "streams": list(streams),
                "horizon": horizon,
                "platform": platform,
                "policy": policy,
                "policy_seed": policy_seed,
                "offload_enabled": offload_enabled,
            },
            timeout=timeout,
            cost=max(1, int(released)),
        )

    # ------------------------------------------------------------------
    # Lifecycle / introspection
    # ------------------------------------------------------------------
    def close(self, timeout: Optional[float] = None) -> None:
        """Refuse new requests and drain every in-flight one.

        Idempotent; after it returns, every previously submitted request
        has been resolved and further submissions raise
        :class:`~repro.core.exceptions.ServiceClosedError`.
        """
        with self._lock:
            self._closed = True
        self._batcher.close(timeout)

    @property
    def closed(self) -> bool:
        with self._lock:
            return self._closed

    def lifecycle(self) -> str:
        """Lifecycle phase for ``/health``: ``ok``/``draining``/``closed``.

        ``draining`` is the window between the start of :meth:`close` (new
        submissions already refused) and the batcher worker flushing the
        last parked request -- a load balancer must stop routing here, but
        previously accepted requests are still being served.
        """
        if not self.closed:
            return "ok"
        return "closed" if self._batcher.drained else "draining"

    def __enter__(self) -> "EvaluationService":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    def stats(self) -> dict:
        """Service-wide counters: requests, cache, batching, engine calls.

        ``batching.batches`` vs ``requests.total`` is the coalescing proof
        the acceptance tests assert on (batches << requests under a burst);
        ``cache`` carries the hit/miss/eviction counters of the result
        store, and ``repeats``: the hits answered from a body digest.
        """
        requests = {
            kind: self._requests.value(kind=kind)
            for kind in ("simulate", "analyse", "makespan", "workload")
        }
        requests["total"] = self._requests.total()
        engine = {
            "batches": self._engine_batches.value(),
            "evaluated_cells": self._evaluated_cells.value(),
            "solo_evaluations": self._solo_evaluations.value(),
            "inflight_joins": self._inflight_joins.value(),
            "by_engine": {
                name: self._sim_engines.value(engine=name)
                for name in ("dense", "compiled")
            },
        }
        resilience = {
            "timeouts": self._timeouts.value(),
            "shed": self._shed.value(),
            "degraded": self._degraded.value(),
        }
        resilience["breaker"] = self._oracle_breaker.stats()
        resilience["worker_respawns"] = worker_respawn_count()
        resilience["faults"] = FAULTS.stats()
        cache = self.cache.stats()
        cache["repeats"] = self._repeats.value()
        return {
            "requests": requests,
            "cache": cache,
            "batching": self._batcher.stats(),
            "engine": engine,
            "resilience": resilience,
            "tracing": self.tracer.ring_stats(),
            "jobs": self._jobs,
            "closed": self.closed,
            "lifecycle": self.lifecycle(),
        }

    # ------------------------------------------------------------------
    # Request plumbing
    # ------------------------------------------------------------------
    def answer_repeat(self, kind: str, digest: bytes) -> Optional[dict]:
        """The payload of a ``kind`` request whose HTTP body hashed to
        ``digest``, when a byte-identical body was answered before and its
        payload is still cached; ``None`` otherwise, and the caller serves
        the request in full.

        A digest is a pure function of the path and the body bytes, so the
        payload is the one the full path would answer: every endpoint's
        response is its request's payload.  Counts a hit and a repeat.

        The payload is the cached object itself, not a copy: the caller
        must not mutate it (the transport only encodes it).
        """
        if digest not in self.cache:
            return None
        with self._lookup(kind, digest) as (_, payload):
            if payload is not None:
                self._repeats.inc()
            return payload

    @contextmanager
    def _lookup(
        self, kind: str, key: Union[str, bytes]
    ) -> Iterator[tuple[object, Optional[dict]]]:
        """The cache lookup of one request, by fingerprint or body digest.

        Under a ``facade.submit`` span: the closed check, one counted cache
        get in a ``cache.lookup`` span and the request count.  Yields the
        submit span and the cached payload itself, ``None`` on a miss.
        A digest whose payload was evicted since :meth:`answer_repeat`
        checked it counts no request: the full path that follows does.
        """
        with self.tracer.span(
            "facade.submit", attributes={"kind": kind}
        ) as submit_span:
            with self._lock:
                if self._closed:
                    raise ServiceClosedError(
                        "evaluation service is closed; no further requests "
                        "accepted"
                    )
            with self.tracer.span("cache.lookup") as cache_span:
                cached = self.cache.get(key)
                cache_span.set("hit", cached is not None)
            if cached is not None:
                submit_span.set("cache_hit", True)
            if cached is not None or isinstance(key, str):
                self._requests.inc(kind=kind)
            yield submit_span, cached

    def _submit(
        self,
        kind: str,
        fingerprint: str,
        group_key: tuple,
        task: DagTask,
        params: dict,
        timeout: Optional[float],
        cost: Optional[int] = None,
    ) -> dict:
        """Serve one fingerprinted request: cache, in-flight join or batch.

        Once answered, a request sent over HTTP aliases its body digest to
        its fingerprint (see :meth:`answer_repeat`).
        """
        deadline = Deadline.after(
            self._default_timeout if timeout is None else _check_timeout(timeout)
        )
        with self._lookup(kind, fingerprint) as (submit_span, payload):
            if payload is None:
                payload = self._evaluate(
                    kind, fingerprint, group_key, task, params, deadline, cost,
                    submit_span,
                )
            else:
                payload = _copy_payload(payload)
        digest = _BODY_DIGEST.get()
        if digest is not None:
            self.cache.put_alias(digest, fingerprint)
        return payload

    def _evaluate(
        self,
        kind: str,
        fingerprint: str,
        group_key: tuple,
        task: DagTask,
        params: dict,
        deadline: Deadline,
        cost: Optional[int],
        submit_span,
    ) -> dict:
        """A missed request's payload: join its in-flight twin, or park it
        in the batcher and wait for the flush."""
        with self._lock:
            leader = self._inflight.get(fingerprint)
            if leader is None:
                request = BatchRequest(
                    kind=kind,
                    fingerprint=fingerprint,
                    group_key=group_key,
                    task=task,
                    params=params,
                    deadline=deadline,
                    cost=max(1, task.node_count) if cost is None else cost,
                )
                self._inflight[fingerprint] = request
            else:
                self._inflight_joins.inc()
        if leader is not None:
            # Dedupe join: this trace did no engine work of its own --
            # it waited on the leader's, so link the leader's trace.
            submit_span.set("inflight_join", True)
            trace = current_trace()
            leader_ctx = leader.trace
            if trace is not None and isinstance(leader_ctx, RequestTraceContext):
                trace.link_trace(leader_ctx.trace.trace_id, kind="dedupe-leader")
            return _copy_payload(self._wait(leader, deadline))
        queue_span = self.tracer.start_span("batcher.queue")
        if queue_span:
            request.trace = RequestTraceContext(current_trace(), queue_span)
        try:
            self._batcher.submit(request)
        except BaseException as error:
            if isinstance(error, ServiceOverloadedError):
                self._shed.inc()
                queue_span.set("shed", True)
            queue_span.set_error()
            queue_span.finish()
            # Fail the request before retiring it: concurrent duplicates
            # may already be parked on its event and would otherwise
            # wait forever.
            request.fail(error)
            with self._lock:
                self._inflight.pop(fingerprint, None)
            raise
        return _copy_payload(self._wait(request, deadline))

    def _wait(self, request: BatchRequest, deadline: Deadline) -> object:
        """Await ``request`` under the caller's deadline, counting timeouts.

        A caller-side expiry (the wait ran out) is counted here; a
        batch-side expiry (the parked request's own deadline expired before
        its flush) was already counted when the executor aborted it -- the
        re-raise of that stored error must not count twice.
        """
        try:
            return request.wait(deadline.remaining())
        except ServiceTimeoutError as error:
            if error is not request.error:
                self._timeouts.inc()
            raise

    def _finish(self, request: BatchRequest, payload: dict) -> None:
        """Cache, resolve and retire one served request (in that order).

        Degraded payloads (bound sandwich instead of the exact optimum)
        are resolved to their callers but **never cached**: a later
        identical request must get a fresh chance at the exact answer.
        """
        if isinstance(payload, dict) and payload.get("degraded"):
            self._degraded.inc()
            if isinstance(request.trace, RequestTraceContext):
                request.trace.trace.degraded = True
        else:
            self.cache.put(request.fingerprint, payload)
        request.resolve(payload)
        with self._lock:
            self._inflight.pop(request.fingerprint, None)

    def _abort(self, request: BatchRequest, error: BaseException) -> None:
        request.fail(error)
        with self._lock:
            self._inflight.pop(request.fingerprint, None)

    # ------------------------------------------------------------------
    # Batch execution (runs on the batcher worker thread)
    # ------------------------------------------------------------------
    def _execute_batch(self, batch: list[BatchRequest]) -> None:
        # Every failure path must run through _abort: a request failed
        # without retiring its in-flight entry would poison its fingerprint
        # (later identical requests would join the stale failed leader
        # forever).  The batcher's own defensive net cannot do that -- it
        # has no access to the in-flight table -- so nothing may escape
        # this method with requests unresolved.
        #
        # Fan-in tracing: one shared ``batcher.flush`` span serves the whole
        # coalesced batch.  Each traced member's queue span ends here and
        # the flush span (with the engine spans attached beneath it) is
        # linked into every member's trace -- shared work is attributed
        # once, identically, to everyone who waited on it.
        members = [
            request.trace
            for request in batch
            if isinstance(request.trace, RequestTraceContext)
        ]
        flush_span = NULL_SPAN
        if members:
            flush_span = self.tracer.new_shared_span("batcher.flush")
            flush_span.set("batch_size", len(batch))
            flush_span.set("traced_members", len(members))
            for context in members:
                context.join_flush(flush_span)
        try:
            fault_point("service.batch")
            # Requests that raced with an insertion of the same fingerprint
            # (cache filled between the miss and the flush) resolve
            # instantly; requests whose deadline expired while parked are
            # timed out *before* any engine runs on their behalf.
            work: list[BatchRequest] = []
            for request in batch:
                cached = self.cache.peek(request.fingerprint)
                if cached is not None:
                    self._finish(request, cached)
                    continue
                if request.deadline is not None and request.deadline.expired:
                    self._timeouts.inc()
                    self._abort(
                        request,
                        ServiceTimeoutError(
                            f"{request.kind} request "
                            f"{request.fingerprint[:12]} expired in the "
                            f"queue before its batch was executed"
                        ),
                    )
                    continue
                work.append(request)
            groups: dict[tuple, list[BatchRequest]] = {}
            for request in work:
                groups.setdefault((request.kind, request.group_key), []).append(
                    request
                )
            for (kind, _), requests in groups.items():
                try:
                    self._run_group(kind, requests, flush_span)
                except BaseException:  # noqa: BLE001 - isolate per request
                    # One bad request must not fail its coalesced
                    # group-mates: fall back to sequential per-request
                    # evaluation -- exactly the semantics the batch is
                    # contracted to reproduce -- so only genuinely failing
                    # requests error.
                    self._run_group_solo(requests, flush_span)
        except BaseException as error:  # noqa: BLE001 - fan out whole batch
            flush_span.set_error()
            for request in batch:
                if not request.resolved:
                    self._abort(request, error)
        finally:
            flush_span.finish()

    def _run_group(
        self, kind: str, requests: list[BatchRequest], flush_span=NULL_SPAN
    ) -> None:
        if kind == "simulate":
            self._run_simulation_group(requests, flush_span)
        elif kind == "analyse":
            self._run_analysis_group(requests, flush_span)
        elif kind == "workload":
            self._run_workload_group(requests, flush_span)
        else:
            self._run_makespan_group(requests, flush_span)

    def _run_group_solo(
        self, requests: list[BatchRequest], flush_span=NULL_SPAN
    ) -> None:
        """Serve each unresolved request of a failed group as a group of one.

        The kind's own group runner evaluates it, so answers, engine
        counters and kernel statistics are those of any one-request batch.
        """
        for request in requests:
            if request.resolved:
                continue
            try:
                self._run_group(request.kind, [request], flush_span)
            except BaseException as error:  # noqa: BLE001 - this request only
                self._abort(request, error)
                continue
            # Stochastic-policy requests already count as solo evaluations.
            if not request.params.get("solo"):
                self._solo_evaluations.inc()

    def _count_engine_call(self, cells: int) -> None:
        self._engine_batches.inc()
        self._evaluated_cells.inc(cells)

    def _record_kernel_stats(self, collector, span) -> None:
        """Feed one engine call's kernel batches to /metrics and its span.

        Both views read the identical :class:`KernelBatchStats` records, so
        the ``repro_kernel_*`` rows and the engine-span ``kernel``
        attributes reconcile by construction.
        """
        for batch_stats in collector.batches:
            self._kernel_steps.inc(batch_stats.steps, engine=batch_stats.engine)
            self._kernel_events.inc(
                batch_stats.events, engine=batch_stats.engine
            )
            self._kernel_occupancy.observe(
                batch_stats.occupancy, engine=batch_stats.engine
            )
        merged = collector.merged()
        if merged is not None and span:
            span.set("kernel", merged)

    def _run_simulation_group(
        self, requests: list[BatchRequest], flush_span=NULL_SPAN
    ) -> None:
        """One ``(offload, platform, policy)`` column: one ``simulate_many``
        call with a lane per request.

        The stochastic family would draw one RNG stream across the lanes of
        a call, so a ``random`` column runs its requests solo instead, each
        with a fresh seeded instance: the one-shot
        :func:`~repro.simulation.engine.simulate_makespan`.
        """
        spec = requests[0].params
        solo = spec["solo"]
        engine = "dense" if solo else resolve_engine("auto")
        tasks = [request.task for request in requests]

        def policy() -> SchedulingPolicy:
            return build_policy(
                spec["policy"], spec["policy_seed"], spec["priorities"]
            )

        with self.tracer.shared_child(
            flush_span,
            "engine.simulate",
            attributes={"engine": engine, "solo": solo, "lanes": len(tasks)},
        ) as engine_span:
            with collect_kernel_stats() as kstats:
                if solo:
                    makespans = [
                        simulate_makespan(
                            task, spec["platform"], policy(),
                            spec["offload_enabled"],
                        )
                        for task in tasks
                    ]
                else:
                    makespans = simulate_many(
                        tasks,
                        spec["platform"],
                        policy(),
                        offload_enabled=spec["offload_enabled"],
                    )[:, 0, 0]
            self._record_kernel_stats(kstats, engine_span)
        calls = len(tasks) if solo else 1
        self._engine_batches.inc(calls)
        self._evaluated_cells.inc(len(tasks))
        self._sim_engines.inc(calls, engine=engine)
        if solo:
            self._solo_evaluations.inc(calls)
        for request, makespan in zip(requests, makespans):
            self._finish(request, simulation_payload(makespan))

    def _evaluate_workload(self, params: dict) -> dict:
        """One workload request end to end (build, simulate, fold metrics)."""
        instances = build_workload(params["streams"], params["horizon"])
        policy = build_policy(params["policy"], params["policy_seed"], None)
        result = simulate_workload(
            instances,
            params["platform"],
            policy,
            offload_enabled=params["offload_enabled"],
            backend="auto",
        )
        return workload_payload(result)

    def _run_workload_group(
        self, requests: list[BatchRequest], flush_span=NULL_SPAN
    ) -> None:
        """Workload requests: one dense-loop simulation per request.

        Each request is already one shared-platform simulation of all its
        instances, so there is nothing further to coalesce across requests.
        """
        for request in requests:
            if request.resolved:
                continue
            with self.tracer.shared_child(
                flush_span, "workload.simulate"
            ) as engine_span:
                with collect_kernel_stats() as kstats:
                    payload = self._evaluate_workload(request.params)
                engine_span.set("engine", "dense")
                engine_span.set("instances", payload["instances"])
                self._record_kernel_stats(kstats, engine_span)
            self._count_engine_call(max(1, payload["instances"]))
            self._sim_engines.inc(engine="dense")
            self._finish(request, payload)

    def _run_analysis_group(
        self, requests: list[BatchRequest], flush_span=NULL_SPAN
    ) -> None:
        params = requests[0].params
        with self.tracer.shared_child(
            flush_span,
            "engine.analyse",
            attributes={"requests": len(requests)},
        ):
            analyses = analyse_many(
                [request.task for request in requests],
                cores=params["cores"],
                include_naive=params["include_naive"],
            )
        self._count_engine_call(len(requests))
        for request, analysis in zip(requests, analyses):
            self._finish(request, analysis_payload(analysis))

    def _run_makespan_group(
        self, requests: list[BatchRequest], flush_span=NULL_SPAN
    ) -> None:
        params = requests[0].params
        with self.tracer.shared_child(
            flush_span,
            "oracle.solve",
            attributes={
                "method": params["method"],
                "requests": len(requests),
            },
        ) as oracle_span:
            results = minimum_makespans_many(
                [request.task for request in requests],
                cores=params["cores"],
                accelerators=params["accelerators"],
                method=MakespanMethod(params["method"]),
                time_limit=params["time_limit"],
                jobs=self._jobs,
                budget=self._oracle_budget,
                breaker=self._oracle_breaker,
            )
            degraded = sum(1 for result in results if result.degraded)
            if degraded:
                oracle_span.set("degraded", degraded)
        self._count_engine_call(len(requests))
        for request, result in zip(requests, results):
            self._finish(request, makespan_payload(result))
