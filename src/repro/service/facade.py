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
   single-cell requests costs one vectorised-kernel batch, not N Python
   event loops.

Correctness contract
--------------------
Batched == sequential, bit for bit.  Every payload the service returns is
exactly what a one-shot evaluation of the same request produces:

* deterministic policies ride the PR-4 lockstep kernel, whose per-lane
  results are independent of batch composition (hypothesis-enforced by
  ``tests/test_vectorized_engine.py``), so coalescing cannot change them;
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

Tasks are accepted built (:class:`~repro.core.task.DagTask`) or as decoded
task documents (:class:`~repro.io.json_io.TaskDocument`, what the HTTP
transport passes).  A document is fingerprinted without building a graph
and built only when its request is new (step 4), so a cache hit from the
wire never builds one.  A document the full decode would reject is never
answered from the cache: its fingerprint cannot equal that of a task the
build accepted (see :func:`~repro.service.fingerprint.task_fingerprint`),
so it misses, and the build on the miss rejects it.
"""

from __future__ import annotations

import threading
from typing import Iterable, Optional, Union

from ..analysis.batch import TaskAnalysis, analyse_many
from ..analysis.results import ResponseTimeResult
from ..core.exceptions import (
    ServiceClosedError,
    ServiceOverloadedError,
    ServiceTimeoutError,
)
from ..core.task import DagTask
from ..generator.arrivals import arrival_to_dict
from ..ilp.batch import minimum_makespans_many
from ..ilp.makespan import MakespanMethod, MakespanResult
from ..io.json_io import TaskDocument
from ..parallel import worker_respawn_count
from ..resilience import FAULTS, CircuitBreaker, Deadline, fault_point
from ..simulation.batch import resolve_engine, simulate_many
from ..simulation.calibration import vector_threshold as _calibrated_threshold
from ..simulation.engine import simulate_makespan
from ..simulation.kernel_stats import collect_kernel_stats
from ..simulation.platform import Platform
from ..simulation.workload import (
    JobStream,
    WorkloadResult,
    build_workload,
    simulate_workload,
)
from ..simulation.schedulers import (
    _POLICIES,
    FixedPriorityPolicy,
    RandomPolicy,
    SchedulingPolicy,
    policy_by_name,
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

__all__ = [
    "EvaluationService",
    "build_policy",
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
    priorities: Optional[dict] = None,
) -> SchedulingPolicy:
    """Instantiate a fresh policy from a declarative spec.

    ``priorities`` is only meaningful for ``fixed-priority`` (an explicit
    node -> priority table); ``seed`` only for ``random``.  Every request
    evaluation builds a *fresh* instance, so stochastic policies replay the
    same stream for the same spec -- the property that makes their results
    cacheable at all.
    """
    if priorities is not None:
        if name != FixedPriorityPolicy.name:
            raise ValueError(
                f"priorities are only supported by "
                f"{FixedPriorityPolicy.name!r} policies, not {name!r}"
            )
        return FixedPriorityPolicy(priorities)
    return policy_by_name(name, rng=seed)


def _validate_policy_spec(
    name: str, priorities: Optional[dict]
) -> None:
    """Reject malformed policy specs without instantiating a policy.

    Runs on every submission -- including cache hits, whose per-request
    cost bounds the service's warm throughput -- so it must stay a pair
    of dictionary checks, not a :func:`build_policy` call (which would
    build and discard a numpy ``Generator`` per ``random`` request).
    """
    if name not in _POLICIES:
        valid = ", ".join(sorted(_POLICIES))
        raise KeyError(f"unknown policy {name!r}; valid policies: {valid}")
    if priorities is not None and name != FixedPriorityPolicy.name:
        raise ValueError(
            f"priorities are only supported by "
            f"{FixedPriorityPolicy.name!r} policies, not {name!r}"
        )


def _as_platform(platform: Union[Platform, int]) -> Platform:
    return platform if isinstance(platform, Platform) else Platform(platform)


def _check_timeout(timeout: Optional[float]) -> Optional[float]:
    """``timeout`` if a wait can honour it: ``None`` (wait forever) or
    seconds in ``[0, threading.TIMEOUT_MAX]`` -- a longer wait overflows
    the platform's clock."""
    if timeout is not None and not 0 <= timeout <= threading.TIMEOUT_MAX:
        raise ValueError(
            f"timeout must be between 0 and {threading.TIMEOUT_MAX:g} "
            f"seconds, got {timeout}"
        )
    return timeout


def _build_task(document: TaskDocument) -> DagTask:
    """The task of a decoded document: the one graph build of a miss.

    Goes through ``repro.service.http.task_from_dict``, so the task decode
    layer has one entry point however the document arrived (the traced
    benchmark, ``perfbench/serve_launcher.py``, times the layer there).
    """
    from . import http  # imported here: http imports this module

    return http.task_from_dict(document)


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


def _normalise_cores(cores: Union[int, Iterable[int]]) -> tuple[int, ...]:
    if isinstance(cores, int):
        return (cores,)
    values = tuple(int(m) for m in cores)
    if not values:
        raise ValueError("at least one core count is required")
    return values


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
    flush_interval:
        Micro-batching hard deadline in seconds: the longest a request
        waits for companions before its batch is flushed.
    quiet_interval:
        Quiescence flush window in seconds: a batch is flushed as soon as
        no new request arrived for this long, so a back-to-back burst
        coalesces fully while a lone request only pays one quiet window of
        latency.
    max_batch:
        Pending-request count that triggers an immediate flush.
    jobs:
        Worker-process count forwarded to the batched engines (``None``
        keeps them serial; the lockstep kernel usually saturates a core per
        batch already).
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
        (``None`` = unbudgeted, the exact engines run to completion).
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
        flush_interval: float = 0.05,
        quiet_interval: float = 0.002,
        max_batch: int = 512,
        jobs: Optional[int] = None,
        default_timeout: Optional[float] = None,
        max_pending: Optional[int] = None,
        max_pending_cost: Optional[int] = None,
        oracle_budget: Optional[float] = None,
        breaker_threshold: int = 5,
        breaker_reset: float = 30.0,
        metrics: Optional[MetricsRegistry] = None,
        vector_threshold: Optional[int] = None,
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
        # fault points in benchmarks/bench_tracing.py.
        self.tracer = Tracer(
            enabled=tracing,
            sample=trace_sample,
            ring_bytes=trace_ring_bytes,
        )
        # Lane count from which simulation grids run on the batched
        # lockstep kernel instead of the per-cell dense engine.  ``None``
        # consults the measured calibration table
        # (src/repro/simulation/calibration.json; env
        # ``REPRO_VECTOR_THRESHOLD`` overrides) for the backend available
        # on this host -- ~1 with the compiled kernel, a couple of hundred
        # lanes on the numpy fallback.
        self.vector_threshold = _calibrated_threshold(vector_threshold)
        self._default_timeout = _check_timeout(default_timeout)
        self._oracle_budget = oracle_budget
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
        self._inflight_joins = self.metrics.counter(
            "repro_service_inflight_joins_total",
            "Requests served by joining an identical in-flight evaluation.",
        )
        self._engine_batches = self.metrics.counter(
            "repro_service_engine_batches_total",
            "Batched-engine invocations (grid, group or solo).",
        )
        self._sim_engines = self.metrics.counter(
            "repro_service_sim_engine_total",
            "Simulation grid/solo evaluations by the concrete engine that "
            "served them (dense, lockstep or compiled).",
            labels=("engine",),
        )
        self._evaluated_cells = self.metrics.counter(
            "repro_service_evaluated_cells_total",
            "Grid cells evaluated across all engine invocations.",
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
            "Kernel step-loop iterations by engine (lockstep: synchronised "
            "steps; compiled: retire windows; workload: event batches).",
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
            flush_interval=flush_interval,
            quiet_interval=quiet_interval,
            max_batch=max_batch,
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
        task: Union[DagTask, TaskDocument],
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
        ``task`` may be a decoded document instead of a task (as for every
        ``submit_*`` method); its task is then built only on a cache miss.
        """
        platform = _as_platform(platform)
        _validate_policy_spec(policy, priorities)
        if policy == RandomPolicy.name:
            if policy_seed is None:
                # An unseeded random policy draws fresh OS entropy per
                # evaluation; no stable fingerprint could describe it and a
                # cached answer would be a lie.
                raise ValueError(
                    "random-policy requests require an explicit policy_seed "
                    "(results are memoised and must be reproducible)"
                )
        else:
            # Deterministic policies ignore the seed; normalising it keeps
            # byte-identical computations on one cache entry / batch group.
            policy_seed = None
        policy_fp = policy_fingerprint(policy, policy_seed, priorities)
        task_fp = task_fingerprint(task)
        fingerprint = request_fingerprint(
            "simulate",
            task_fp,
            platform_fingerprint(platform),
            policy_fp,
            bool(offload_enabled),
        )
        # The stochastic family consumes an RNG stream across the cells of a
        # batch, so only a solo evaluation matches the one-shot semantics.
        # Deterministic policies group across *platforms and policies* too:
        # a flush covering an ablation-shaped burst (every task at every
        # host size under every policy) becomes one task x platform x
        # policy grid for the lockstep kernel.
        solo = policy == RandomPolicy.name
        payload = self._submit(
            kind="simulate",
            fingerprint=fingerprint,
            group_key=(bool(offload_enabled), solo),
            task=task,
            params={
                "platform": platform,
                "task_fp": task_fp,
                "policy": policy,
                "policy_fp": policy_fp,
                "policy_seed": policy_seed,
                "priorities": priorities,
                "offload_enabled": bool(offload_enabled),
                "solo": solo,
            },
            timeout=timeout,
        )
        return payload["makespan"]

    def submit_analysis(
        self,
        task: Union[DagTask, TaskDocument],
        cores: Union[int, Iterable[int]] = 2,
        *,
        include_naive: bool = True,
        timeout: Optional[float] = None,
    ) -> dict:
        """Response-time bounds of ``task`` for every requested core count."""
        core_counts = _normalise_cores(cores)
        fingerprint = request_fingerprint(
            "analyse", task_fingerprint(task), list(core_counts), bool(include_naive)
        )
        return self._submit(
            kind="analyse",
            fingerprint=fingerprint,
            group_key=(core_counts, bool(include_naive)),
            task=task,
            params={"cores": core_counts, "include_naive": bool(include_naive)},
            timeout=timeout,
        )

    def submit_makespan(
        self,
        task: Union[DagTask, TaskDocument],
        cores: int = 2,
        *,
        accelerators: int = 1,
        method: str = "auto",
        time_limit: Optional[float] = None,
        timeout: Optional[float] = None,
    ) -> dict:
        """Exact minimum makespan via the batched, memoised oracle layer."""
        method_value = MakespanMethod(method).value  # validate early
        fingerprint = request_fingerprint(
            "makespan",
            task_fingerprint(task),
            int(cores),
            int(accelerators),
            method_value,
            time_limit,
        )
        return self._submit(
            kind="makespan",
            fingerprint=fingerprint,
            group_key=(int(cores), int(accelerators), method_value, time_limit),
            task=task,
            params={
                "cores": int(cores),
                "accelerators": int(accelerators),
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
        shared-capacity coupled simulator
        (:func:`repro.simulation.workload.simulate_workload`).  The payload
        carries the aggregate schedulability metrics plus per-instance
        response times and deadline flags.

        Arrival processes are declarative and seeded, so the whole request
        is fingerprintable: identical workloads hit the result cache.
        """
        if not streams:
            raise ValueError("a workload request needs at least one job stream")
        platform = _as_platform(platform)
        horizon = float(horizon)
        if not horizon >= 0:
            raise ValueError(f"horizon must be >= 0, got {horizon}")
        _validate_policy_spec(policy, None)
        if policy == RandomPolicy.name:
            if policy_seed is None:
                raise ValueError(
                    "random-policy requests require an explicit policy_seed "
                    "(results are memoised and must be reproducible)"
                )
        else:
            policy_seed = None
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
            bool(offload_enabled),
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
                "offload_enabled": bool(offload_enabled),
            },
            timeout=timeout,
            cost=sum(
                max(1, len(stream.task.graph.nodes())) for stream in streams
            ),
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
        store.
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
            "vector_threshold": self.vector_threshold,
            "by_engine": {
                name: self._sim_engines.value(engine=name)
                for name in ("dense", "lockstep", "compiled")
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
        return {
            "requests": requests,
            "cache": self.cache.stats(),
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
    def _submit(
        self,
        kind: str,
        fingerprint: str,
        group_key: tuple,
        task: Union[DagTask, TaskDocument],
        params: dict,
        timeout: Optional[float],
        cost: Optional[int] = None,
    ) -> dict:
        """Serve one fingerprinted request: cache, in-flight join or batch.

        A decoded document is built into its task only here, once the
        request turned out to be new: a cache hit and an in-flight join
        never build a graph.  A build failure fails the new request, so
        duplicates that joined it meanwhile get the same error.
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
            self._requests.inc(kind=kind)
            deadline = Deadline.after(
                self._default_timeout
                if timeout is None
                else _check_timeout(timeout)
            )
            with self.tracer.span("cache.lookup") as cache_span:
                cached = self.cache.get(fingerprint)
                cache_span.set("hit", cached is not None)
            if cached is not None:
                submit_span.set("cache_hit", True)
                return _copy_payload(cached)
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
                if trace is not None and isinstance(
                    leader_ctx, RequestTraceContext
                ):
                    trace.link_trace(
                        leader_ctx.trace.trace_id, kind="dedupe-leader"
                    )
                return _copy_payload(self._wait(leader, deadline))
            if isinstance(task, TaskDocument):
                try:
                    request.task = _build_task(task)
                except BaseException as error:
                    self._abort(request, error)
                    raise
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
                    if kind == "simulate":
                        self._run_simulation_group(requests, flush_span)
                    elif kind == "analyse":
                        self._run_analysis_group(requests, flush_span)
                    elif kind == "workload":
                        self._run_workload_group(requests, flush_span)
                    else:
                        self._run_makespan_group(requests, flush_span)
                except BaseException:  # noqa: BLE001 - isolate per request
                    # One bad request (or an infeasible *unrequested* grid
                    # cell) must not fail its coalesced group-mates: fall
                    # back to sequential per-request evaluation -- exactly
                    # the semantics the batch is contracted to reproduce --
                    # so only genuinely failing requests error.
                    self._run_group_solo(requests, flush_span)
        except BaseException as error:  # noqa: BLE001 - fan out whole batch
            flush_span.set_error()
            for request in batch:
                if not request.resolved:
                    self._abort(request, error)
        finally:
            flush_span.finish()

    def _run_group_solo(
        self, requests: list[BatchRequest], flush_span=NULL_SPAN
    ) -> None:
        """Serve each unresolved request of a failed group individually."""
        for request in requests:
            if request.resolved:
                continue
            params = request.params
            try:
                if request.kind == "workload":
                    with self.tracer.shared_child(
                        flush_span,
                        "workload.simulate",
                        attributes={"solo": True},
                    ) as engine_span:
                        with collect_kernel_stats() as kstats:
                            payload = self._evaluate_workload(params)
                        self._record_kernel_stats(kstats, engine_span)
                    self._count_engine_call(1, solo=True)
                    self._sim_engines.inc(engine="lockstep")
                    self._finish(request, payload)
                    continue
                span_name = (
                    "oracle.solve"
                    if request.kind == "makespan"
                    else f"engine.{request.kind}"
                )
                with self.tracer.shared_child(
                    flush_span, span_name, attributes={"solo": True}
                ):
                    if request.kind == "simulate":
                        policy = build_policy(
                            params["policy"],
                            params["policy_seed"],
                            params["priorities"],
                        )
                        payload = simulation_payload(
                            simulate_makespan(
                                request.task,
                                params["platform"],
                                policy,
                                params["offload_enabled"],
                            )
                        )
                    elif request.kind == "analyse":
                        payload = analysis_payload(
                            analyse_many(
                                [request.task],
                                cores=params["cores"],
                                include_naive=params["include_naive"],
                            )[0]
                        )
                    else:
                        payload = makespan_payload(
                            minimum_makespans_many(
                                [request.task],
                                cores=params["cores"],
                                accelerators=params["accelerators"],
                                method=MakespanMethod(params["method"]),
                                time_limit=params["time_limit"],
                                budget=self._oracle_budget,
                                breaker=self._oracle_breaker,
                            )[0]
                        )
                self._count_engine_call(1, solo=True)
                self._finish(request, payload)
            except BaseException as error:  # noqa: BLE001 - this request only
                self._abort(request, error)

    def _count_engine_call(self, cells: int, solo: bool = False) -> None:
        self._engine_batches.inc()
        self._evaluated_cells.inc(cells)
        if solo:
            self._solo_evaluations.inc()

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

    #: A grid call may evaluate at most this factor more cells than were
    #: actually requested before the group falls back to per-policy /
    #: per-platform sub-grids (which are dense by construction).
    _GRID_WASTE_LIMIT = 2.0

    def _run_simulation_group(
        self, requests: list[BatchRequest], flush_span=NULL_SPAN
    ) -> None:
        params = requests[0].params
        offload_enabled = params["offload_enabled"]
        if params["solo"]:
            # Stochastic policies: fresh instance per request, one cell per
            # evaluation -- batch composition must not influence the draws.
            with self.tracer.shared_child(
                flush_span,
                "engine.simulate",
                attributes={"engine": "dense", "solo": True,
                            "lanes": len(requests)},
            ):
                for request in requests:
                    spec = request.params
                    policy = build_policy(
                        spec["policy"], spec["policy_seed"], spec["priorities"]
                    )
                    value = simulate_makespan(
                        request.task, spec["platform"], policy, offload_enabled
                    )
                    self._count_engine_call(1, solo=True)
                    self._sim_engines.inc(engine="dense")
                    self._finish(request, simulation_payload(value))
            return
        # Try the full task x platform x policy grid of the flush first:
        # an ablation-shaped burst (every task at every host size under
        # every policy) forms an exactly dense 3-axis grid and becomes one
        # ``simulate_many`` call.  When the combined grid would waste more
        # cells than it coalesces, fall back to per-policy sub-groups
        # (each re-checked against the per-platform waste limit).
        by_policy: dict[str, list[BatchRequest]] = {}
        for request in requests:
            by_policy.setdefault(request.params["policy_fp"], []).append(
                request
            )
        if len(by_policy) > 1:
            tasks, platforms, policies, cells = self._assemble_grid(requests)
            total = len(tasks) * len(platforms) * len(policies)
            if total <= self._GRID_WASTE_LIMIT * len(requests):
                self._run_simulation_grid(
                    tasks, platforms, policies, requests, cells, flush_span
                )
                return
        for subset in by_policy.values():
            self._run_policy_group(subset, flush_span)

    @staticmethod
    def _assemble_grid(
        requests: list[BatchRequest],
    ) -> tuple[list, list, list, list]:
        """Dedupe the flush into task rows x platform cols x policy slabs.

        Requests are unique by fingerprint (in-flight dedupe), so every
        ``(task, platform, policy)`` cell appears at most once.
        """
        tasks: list[DagTask] = []
        task_rows: dict[str, int] = {}
        platforms: list[Platform] = []
        platform_cols: dict[Platform, int] = {}
        policies: list[SchedulingPolicy] = []
        policy_slabs: dict[str, int] = {}
        cells: list[tuple[BatchRequest, int, int, int]] = []
        for request in requests:
            spec = request.params
            row = task_rows.get(spec["task_fp"])
            if row is None:
                row = task_rows[spec["task_fp"]] = len(tasks)
                tasks.append(request.task)
            col = platform_cols.get(spec["platform"])
            if col is None:
                col = platform_cols[spec["platform"]] = len(platforms)
                platforms.append(spec["platform"])
            slab = policy_slabs.get(spec["policy_fp"])
            if slab is None:
                slab = policy_slabs[spec["policy_fp"]] = len(policies)
                policies.append(
                    build_policy(
                        spec["policy"], spec["policy_seed"], spec["priorities"]
                    )
                )
            cells.append((request, row, col, slab))
        return tasks, platforms, policies, cells

    def _run_policy_group(
        self, requests: list[BatchRequest], flush_span=NULL_SPAN
    ) -> None:
        """One policy's requests: task x platform grid, waste-checked."""
        tasks, platforms, policies, cells = self._assemble_grid(requests)
        if len(tasks) * len(platforms) > self._GRID_WASTE_LIMIT * len(requests):
            # Sparse grid: evaluating it would waste more cells than it
            # coalesces.  Split by platform and re-assemble each subset --
            # the per-platform sub-grids are dense by construction, and
            # reusing _assemble_grid keeps the task-row dedupe (a task
            # requested under two platforms lands in two subsets but must
            # never occupy two rows of one) instead of hand-building a
            # row-per-request mapping that silently assumed uniqueness.
            by_platform: dict[Platform, list[BatchRequest]] = {}
            for request, _, _, _ in cells:
                by_platform.setdefault(request.params["platform"], []).append(
                    request
                )
            for subset in by_platform.values():
                sub = self._assemble_grid(subset)
                self._run_simulation_grid(
                    sub[0], sub[1], sub[2], subset, sub[3], flush_span
                )
            return
        self._run_simulation_grid(
            tasks, platforms, policies, requests, cells, flush_span
        )

    def _run_simulation_grid(
        self,
        tasks: list[DagTask],
        platforms: list[Platform],
        policies: list[SchedulingPolicy],
        requests: list[BatchRequest],
        cells: list[tuple[BatchRequest, int, int, int]],
        flush_span=NULL_SPAN,
    ) -> None:
        params = requests[0].params
        # Every (task, platform, policy) cell is one lane of the batched
        # kernel (the grid executor grew the policy axis in PR 8), so the
        # dense-vs-lockstep crossover must count the policy axis too: an
        # ablation-shaped burst (1 task x 1 platform x 7 policies) is a
        # 7-lane batch, not a 1-lane one.
        lanes = len(tasks) * len(platforms) * len(policies)
        engine = "auto" if lanes >= self.vector_threshold else "dense"
        with self.tracer.shared_child(
            flush_span, "engine.simulate"
        ) as engine_span:
            with collect_kernel_stats() as kstats:
                grid = simulate_many(
                    tasks,
                    platforms,
                    policies,
                    offload_enabled=params["offload_enabled"],
                    jobs=self._jobs,
                    engine=engine,
                )
            engine_span.set("engine", resolve_engine(engine))
            engine_span.set("lanes", lanes)
            engine_span.set("requests", len(requests))
            self._record_kernel_stats(kstats, engine_span)
        self._count_engine_call(lanes)
        self._sim_engines.inc(engine=resolve_engine(engine))
        for request, row, col, slab in cells:
            self._finish(request, simulation_payload(grid[row, col, slab]))

    def _evaluate_workload(self, params: dict) -> dict:
        """One workload request end to end (build, couple, fold metrics)."""
        instances = build_workload(
            params["streams"], params["horizon"], jobs=self._jobs
        )
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
        """Workload requests: one coupled simulation per request.

        Each request is already a whole multi-instance batch for the
        coupled engine -- its instances *are* the lanes -- so there is
        nothing further to coalesce across requests.
        """
        for request in requests:
            if request.resolved:
                continue
            with self.tracer.shared_child(
                flush_span, "workload.simulate"
            ) as engine_span:
                with collect_kernel_stats() as kstats:
                    payload = self._evaluate_workload(request.params)
                engine_span.set("engine", "lockstep")
                engine_span.set("instances", payload["instances"])
                self._record_kernel_stats(kstats, engine_span)
            self._count_engine_call(max(1, payload["instances"]))
            self._sim_engines.inc(engine="lockstep")
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
                jobs=self._jobs,
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
