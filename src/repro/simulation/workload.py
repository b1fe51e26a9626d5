"""Online multi-instance workloads on one shared platform.

Everything below :mod:`repro.simulation.batch` evaluates a *single* DAG job
in isolation -- the static regime of the paper's schedulability analysis.
This module opens the dynamic regime: **streams** of job instances with
release times contend for one shared platform (``m`` host cores plus the
accelerator pool), and the metrics of interest become per-instance response
times, deadline-miss ratios and backlog trajectories rather than a single
makespan.

Model
-----
* A :class:`JobStream` couples a :class:`~repro.core.task.DagTask` with an
  arrival process (:mod:`repro.generator.arrivals`) and an optional relative
  deadline (defaulting to the task's own constrained deadline, then to its
  period).
* :func:`build_workload` unrolls streams over a horizon into a flat list of
  :class:`JobInstance` records ordered by ``(release, stream, index)``.
  Releases at or past the horizon are dropped.
* The simulator is the natural multi-instance extension of the single-job
  engines: every instance is a block of nodes at its own offset in one
  *global node space*, and all instances feed one work-conserving
  scheduler over a **shared capacity pool** -- they contend for the same
  host cores and accelerator devices instead of simulating independently.

Event-loop specification (both engines implement it exactly)
------------------------------------------------------------
Each step advances time to the earliest pending event, then processes the
phases in a fixed order:

1. **advance** ``t`` to ``min(earliest running finish, next release)``;
2. **retire** every running node with ``finish <= t + 1e-12`` in
   ``(finish, start sequence)`` order, freeing its resource and propagating
   its successors in CSR creation order (a successor becomes ready at its
   *decisive* -- last -- in-degree decrement); newly-ready zero-WCET nodes
   complete instantly through the FIFO cascade of the reference engine;
3. **release** every instance with ``release <= t + 1e-12`` (retirements
   first at coinciding instants), seeding its source nodes in creation
   order at ``ready = release``;
4. **start** ready nodes work-conservingly: host queue first while host
   cores are free, then each device queue in device order.

Ready-queue keys per policy family (``policy_vector_kind``): *fifo* orders
by ``(ready time, global node index)`` -- the global index extends the
single-job creation-order tie-break across instances (earlier release, then
earlier stream, goes first); *lifo* by ``(-arrival,)``; *static* by
``(per-node key, arrival)``; *random* by ``(seeded draw, arrival)``, where
arrival stamps count non-instant enqueues across the whole workload and the
draw pool is pre-drawn once (``Generator.random(k)`` consumes the bit
stream exactly like ``k`` scalar draws).  An instance completes at its
last node's finish, or at its release if its task has no nodes.

Engines
-------
:func:`simulate_workload` runs the dense engine's event loop
(:func:`repro.simulation.dense.run_jobs`), the loop that also serves single
jobs (:func:`~repro.simulation.dense.simulate_makespan_dense` releases one
job at 0).  Every job points into per-task tables shared by all jobs of
the task, the depth-first queues are plain stacks (the ``-arrival`` keys
only fall), and one step costs the nodes it retires and starts, whatever
the platform's width.

:func:`simulate_workload_reference` is the scalar reference: a heap-based
Python event loop over the rebased global node space, deliberately written
like :func:`repro.simulation.engine.simulate` so a single-instance
workload released at 0 reproduces ``simulate_makespan`` bit for bit.  The
two engines' results are **bit-identical** -- the same cross-engine
contract every other layer of the repo obeys, enforced by the hypothesis
harness in ``tests/test_workload.py``.
"""

from __future__ import annotations

import heapq
import math
from collections import deque
from dataclasses import dataclass
from typing import Optional, Sequence, Union

import numpy as np

from ..core.compiled import compile_task, stack_compiled
from ..core.exceptions import SimulationError, ValidationError, short_repr
from ..core.task import DagTask, check_number
from ..generator.arrivals import ArrivalProcess
from .dense import JobTables, job_tables, run_jobs
from .engine import _as_platform, _device_assignment
from .kernel_stats import record_kernel_batch
from .platform import Platform
from .schedulers import (
    VECTOR_FIFO,
    VECTOR_LIFO,
    VECTOR_RANDOM,
    VECTOR_STATIC,
    BreadthFirstPolicy,
    SchedulingPolicy,
    policy_vector_kind,
)

__all__ = [
    "JobInstance",
    "JobStream",
    "WorkloadResult",
    "build_workload",
    "simulate_workload",
    "simulate_workload_reference",
]

#: Same completion-coincidence tolerance as every other engine in the repo.
_TIE = 1e-12


# ----------------------------------------------------------------------
# Workload model
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class JobInstance:
    """One released job: a task instance with an absolute release time."""

    task: DagTask
    release: float
    deadline: Optional[float] = None  # absolute; None = no deadline
    stream: int = 0
    index: int = 0


@dataclass(frozen=True)
class JobStream:
    """A stream of job instances of one task under an arrival process.

    ``deadline`` is *relative* (response-time budget per instance); when
    omitted it defaults to the task's constrained deadline, then to its
    period (the implicit-deadline model), then to "no deadline".
    """

    task: DagTask
    arrivals: ArrivalProcess
    deadline: Optional[float] = None
    name: Optional[str] = None

    def __post_init__(self) -> None:
        if self.deadline is not None:
            check_number("relative deadline", self.deadline, strict=True)
        if self.name is not None and not isinstance(self.name, str):
            raise ValidationError(
                f"stream name must be a string, got {short_repr(self.name)}"
            )

    def relative_deadline(self) -> Optional[float]:
        """The effective relative deadline of every instance of the stream."""
        if self.deadline is not None:
            return float(self.deadline)
        if self.task.deadline is not None:
            return float(self.task.deadline)
        if self.task.period is not None:
            return float(self.task.period)
        return None

    def instances(self, horizon: float, stream: int = 0) -> list[JobInstance]:
        """Unroll the stream over ``[0, horizon)`` (releases past it drop)."""
        relative = self.relative_deadline()
        return [
            JobInstance(
                task=self.task,
                release=float(release),
                deadline=None if relative is None else float(release) + relative,
                stream=stream,
                index=index,
            )
            for index, release in enumerate(self.arrivals.release_times(horizon))
        ]


def build_workload(
    streams: Sequence[JobStream], horizon: float
) -> list[JobInstance]:
    """Flatten ``streams`` over ``[0, horizon)`` into simulation order.

    Instances are ordered by ``(release, stream, index)``; this order *is*
    the global node-space order of the simulators, so it also settles FIFO
    tie-breaking between instances released at the same instant (earlier
    stream first, then earlier instance).
    """
    instances = [
        instance
        for stream_index, stream in enumerate(streams)
        for instance in stream.instances(horizon, stream=stream_index)
    ]
    instances.sort(key=lambda job: (job.release, job.stream, job.index))
    return instances


# ----------------------------------------------------------------------
# Result container
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class WorkloadResult:
    """Per-instance outcome of one workload simulation.

    All arrays are indexed by workload order (the order of
    :func:`build_workload`).  ``deadlines`` holds absolute deadlines with
    ``+inf`` for "no deadline"; a miss is ``completion > deadline`` with no
    tolerance -- deadlines are model inputs, not simulated floats.
    """

    releases: np.ndarray
    completions: np.ndarray
    deadlines: np.ndarray
    streams: np.ndarray
    indices: np.ndarray

    @property
    def count(self) -> int:
        return int(self.releases.size)

    @property
    def response_times(self) -> np.ndarray:
        return self.completions - self.releases

    @property
    def missed(self) -> np.ndarray:
        return self.completions > self.deadlines

    def miss_ratio(self) -> float:
        return float(self.missed.mean()) if self.count else 0.0

    def makespan(self) -> float:
        """Completion of the last instance (0 for an empty workload)."""
        return float(self.completions.max()) if self.count else 0.0

    def mean_response(self) -> float:
        return float(self.response_times.mean()) if self.count else 0.0

    def max_response(self) -> float:
        return float(self.response_times.max()) if self.count else 0.0

    def backlog(self) -> tuple[np.ndarray, np.ndarray]:
        """Backlog trajectory: (event times, instances in flight after each).

        The backlog at time ``t`` is the number of instances released at or
        before ``t`` that have not yet completed.  Completions tie-break
        releases at coinciding event times (the simulators retire before
        they release), so an instance handed over back-to-back contributes
        no spurious peak.
        """
        if not self.count:
            return np.empty(0, dtype=np.float64), np.empty(0, dtype=np.int64)
        times = np.concatenate([self.releases, self.completions])
        deltas = np.concatenate(
            [
                np.ones(self.count, dtype=np.int64),
                -np.ones(self.count, dtype=np.int64),
            ]
        )
        # Stable sort with completions (the -1 deltas) first at equal times.
        order = np.lexsort((-deltas, times))
        times = times[order]
        levels = np.cumsum(deltas[order])
        # Collapse coinciding event times to the last (settled) level.
        keep = np.append(times[1:] > times[:-1], True)
        return times[keep], levels[keep]

    def peak_backlog(self) -> int:
        _, levels = self.backlog()
        return int(levels.max()) if levels.size else 0

    def summary(self) -> dict:
        """JSON-style aggregate view (the service payload's core)."""
        return {
            "instances": self.count,
            "makespan": self.makespan(),
            "miss_ratio": self.miss_ratio(),
            "mean_response": self.mean_response(),
            "max_response": self.max_response(),
            "peak_backlog": self.peak_backlog(),
        }


# ----------------------------------------------------------------------
# Shared problem preparation (input canonicalisation, no scheduling logic)
# ----------------------------------------------------------------------
class _WorkloadProblem:
    """The validated input of one workload simulation.

    Pure data: the shared platform, the policy's key family, the tables
    the instances of a task share
    (:class:`~repro.simulation.dense.JobTables`), the stochastic family's
    pre-drawn priority pool, and the releases and absolute deadlines.
    Both engines consume this and nothing else and both fold their
    completions through :meth:`result`, so their agreement is about the
    event loops, not about input parsing.
    """

    def __init__(
        self,
        workload: Sequence[JobInstance],
        platform: Union[Platform, int],
        policy: Optional[SchedulingPolicy],
        offload_enabled: bool,
    ) -> None:
        self.platform = _as_platform(platform)
        self.policy = policy if policy is not None else BreadthFirstPolicy()
        kind = policy_vector_kind(self.policy)
        if kind is None:
            raise SimulationError(
                f"workload simulation requires a vectorisable built-in "
                f"policy; {type(self.policy).__name__} has no vector kind"
            )
        self.kind = kind
        self.instances = list(workload)
        self.releases = np.array(
            [job.release for job in self.instances], dtype=np.float64
        )
        if np.any(self.releases[1:] < self.releases[:-1]):
            raise SimulationError(
                "workload instances must be ordered by release time; "
                "use build_workload()"
            )
        self.deadlines = np.array(
            [
                math.inf if job.deadline is None else float(job.deadline)
                for job in self.instances
            ],
            dtype=np.float64,
        )

        shared: dict[int, JobTables] = {}
        self.tables: list[JobTables] = []
        for job in self.instances:
            tables = shared.get(id(job.task))
            if tables is None:
                view = compile_task(job.task)
                keys = (
                    self.policy.vector_keys(view).tolist()
                    if kind == VECTOR_STATIC
                    else None
                )
                assignment = _device_assignment(
                    job.task, self.platform, offload_enabled, None
                )
                tables = shared[id(job.task)] = job_tables(view, assignment, keys)
            self.tables.append(tables)
        # One draw per non-instant node, assigned in arrival-stamp order --
        # identical to per-arrival scalar draws (see vector_draws).
        self.draws = (
            self.policy.vector_draws(
                sum(len(t.wcet) - t.wcet.count(0.0) for t in self.tables)
            ).tolist()
            if kind == VECTOR_RANDOM
            else None
        )

    def result(self, completions: Sequence[float]) -> WorkloadResult:
        """Fold per-instance completions into the result; an instance
        without nodes (completion ``-inf``) completes at its release."""
        completions = np.array(completions, dtype=np.float64)
        empty = completions == -math.inf
        completions[empty] = self.releases[empty]
        return WorkloadResult(
            releases=self.releases.copy(),
            completions=completions,
            deadlines=self.deadlines.copy(),
            streams=np.array(
                [job.stream for job in self.instances], dtype=np.int64
            ),
            indices=np.array(
                [job.index for job in self.instances], dtype=np.int64
            ),
        )


# ----------------------------------------------------------------------
# Scalar reference engine
# ----------------------------------------------------------------------
def _reference_completions(problem: _WorkloadProblem) -> np.ndarray:
    """Heap-based scalar event loop over one global node space: the
    instances' compiled views one after the other
    (:meth:`~repro.core.compiled.StackedViews.global_space`)."""
    kind = problem.kind
    node_off, wcet, succ_ptr, succ_idx, in_degree0 = stack_compiled(
        [compile_task(job.task) for job in problem.instances]
    ).global_space()
    device = np.array(
        [target for tables in problem.tables for target in tables.device],
        dtype=np.int64,
    )
    static_keys = (
        np.array([key for tables in problem.tables for key in tables.keys])
        if kind == VECTOR_STATIC
        else None
    )
    draw_pool = problem.draws
    releases = problem.releases
    devices = problem.platform.accelerators

    total = int(node_off[-1])
    in_degree = in_degree0.copy()
    ready_time = np.zeros(total, dtype=np.float64)
    finish_time = np.zeros(total, dtype=np.float64)
    remaining = total

    free_cores = problem.platform.host_cores
    device_free = [True] * devices
    ready_host: list[tuple] = []
    ready_device: list[list[tuple]] = [[] for _ in range(devices)]
    running: list[tuple] = []  # (finish, start_seq, node, device or -1)

    arrival = 0
    start_seq = 0

    def key_of(node: int, ready: float, stamp: int) -> tuple:
        if kind == VECTOR_FIFO:
            return (ready, node)
        if kind == VECTOR_LIFO:
            return (-stamp,)
        if kind == VECTOR_STATIC:
            return (static_keys[node], stamp)
        return (draw_pool[stamp - 1], stamp)

    def enqueue(node: int, when: float) -> None:
        """Queue one newly-ready node, resolving instant cascades FIFO."""
        nonlocal arrival, remaining
        pending = deque(((node, when),))
        while pending:
            current, at = pending.popleft()
            if wcet[current] == 0.0:
                finish_time[current] = at
                remaining -= 1
                newly: list[tuple[int, float]] = []
                for s in succ_idx[succ_ptr[current] : succ_ptr[current + 1]]:
                    if at > ready_time[s]:
                        ready_time[s] = at
                    in_degree[s] -= 1
                    if in_degree[s] == 0:
                        newly.append((s, ready_time[s]))
                pending.extend(newly)
                continue
            arrival += 1
            entry = (key_of(current, at, arrival), current, at)
            if device[current] >= 0:
                heapq.heappush(ready_device[device[current]], entry)
            else:
                heapq.heappush(ready_host, entry)

    def start_ready(now: float) -> None:
        nonlocal free_cores, start_seq
        while free_cores > 0 and ready_host:
            _, node, _ = heapq.heappop(ready_host)
            free_cores -= 1
            start_seq += 1
            heapq.heappush(running, (now + wcet[node], start_seq, node, -1))
        for dev in range(devices):
            queue = ready_device[dev]
            while device_free[dev] and queue:
                _, node, _ = heapq.heappop(queue)
                device_free[dev] = False
                start_seq += 1
                heapq.heappush(running, (now + wcet[node], start_seq, node, dev))

    release_ptr = 0
    instance_count = len(problem.instances)
    steps = 0
    while remaining > 0:
        steps += 1
        next_finish = running[0][0] if running else math.inf
        next_release = (
            releases[release_ptr] if release_ptr < instance_count else math.inf
        )
        now = min(next_finish, next_release)
        if math.isinf(now):
            raise SimulationError(
                "workload simulation deadlocked: nodes remain but nothing "
                "is running and no release is pending"
            )
        # Retire phase: (finish, start-sequence) order, like the heap of the
        # single-job reference engine.
        while running and running[0][0] <= now + _TIE:
            fin, _, node, dev = heapq.heappop(running)
            finish_time[node] = fin
            remaining -= 1
            if dev < 0:
                free_cores += 1
            else:
                device_free[dev] = True
            newly = []
            for s in succ_idx[succ_ptr[node] : succ_ptr[node + 1]]:
                if fin > ready_time[s]:
                    ready_time[s] = fin
                in_degree[s] -= 1
                if in_degree[s] == 0:
                    newly.append((s, ready_time[s]))
            for ready_node, when in newly:
                enqueue(ready_node, when)
        # Release phase (after retirements at coinciding instants): seed
        # each instance's sources in creation order at ready = release.
        while (
            release_ptr < instance_count
            and releases[release_ptr] <= now + _TIE
        ):
            base, stop = node_off[release_ptr], node_off[release_ptr + 1]
            release = releases[release_ptr]
            for node in range(base, stop):
                if in_degree0[node] == 0:
                    ready_time[node] = release
                    enqueue(int(node), float(release))
            release_ptr += 1
        start_ready(now)

    record_kernel_batch(
        "workload.reference",
        lanes=1,
        steps=steps,
        events=total,
        lane_steps=steps,
    )
    # Each instance's latest finish; -inf for an instance without nodes.
    completions = np.full(instance_count, -math.inf)
    filled = node_off[1:] > node_off[:-1]
    if filled.any():
        completions[filled] = np.maximum.reduceat(
            finish_time, node_off[:-1][filled]
        )
    return completions


# ----------------------------------------------------------------------
# Public entry points
# ----------------------------------------------------------------------
def simulate_workload_reference(
    workload: Sequence[JobInstance],
    platform: Union[Platform, int],
    policy: Optional[SchedulingPolicy] = None,
    offload_enabled: bool = True,
) -> WorkloadResult:
    """Scalar reference simulation of a multi-instance workload.

    The validation anchor of :func:`simulate_workload`: a heap-based Python
    event loop implementing the module's event-loop specification verbatim.
    A single-instance workload released at 0 reproduces
    :func:`~repro.simulation.engine.simulate_makespan` bit for bit.
    """
    problem = _WorkloadProblem(workload, platform, policy, offload_enabled)
    return problem.result(_reference_completions(problem))


def simulate_workload(
    workload: Sequence[JobInstance],
    platform: Union[Platform, int],
    policy: Optional[SchedulingPolicy] = None,
    offload_enabled: bool = True,
    backend: str = "auto",
) -> WorkloadResult:
    """Simulate a workload of released job instances on one shared platform.

    All instances contend for the same ``m`` host cores and accelerator
    devices under one work-conserving scheduler; the result carries
    per-instance completion times and the derived response-time /
    deadline-miss / backlog metrics.  The dense engine's event loop
    (:func:`~repro.simulation.dense.run_jobs`) runs it, bit-identical to
    :func:`simulate_workload_reference` (hypothesis-enforced).  ``backend``
    accepts ``"auto"`` only; the reference engine is
    :func:`simulate_workload_reference`.
    """
    if backend != "auto":
        raise ValueError(
            f"unknown workload backend {short_repr(backend)}; the only "
            "backend is 'auto' (simulate_workload_reference is the "
            "reference engine)"
        )
    problem = _WorkloadProblem(workload, platform, policy, offload_enabled)
    jobs = list(zip(problem.releases.tolist(), problem.tables))
    return problem.result(
        run_jobs(jobs, problem.platform, problem.kind, problem.draws)
    )
