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
  reference engine (:mod:`repro.simulation.engine`): every instance is a
  block of nodes in one *shared global node space*, and all instances feed
  one work-conserving scheduler over a **shared capacity pool** -- they
  contend for the same host cores and accelerator devices instead of
  simulating independently.

Event-loop specification (both engines implement it exactly)
------------------------------------------------------------
Each step advances time to the earliest pending event, then processes the
three phases in a fixed order:

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
stream exactly like ``k`` scalar draws).

Engines
-------
:func:`simulate_workload_reference` is the scalar reference: a heap-based
Python event loop, deliberately written like
:func:`repro.simulation.engine.simulate` so a single-instance workload
released at 0 reproduces ``simulate_makespan`` bit for bit.

:func:`simulate_workload` is the coupled lockstep path: the numpy engine
advances the whole shared node space per step with grouped propagation and
vectorised selection (``backend="auto"`` serves it today; a compiled-C
shared-platform mode is an explicit follow-on and ``backend="compiled"``
says so).  Its results are
**bit-identical** to the reference -- the same cross-engine contract every
other layer of the repo obeys, enforced by the hypothesis harness in
``tests/test_workload.py``.
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
    "resolve_workload_backend",
    "simulate_workload",
    "simulate_workload_reference",
]

#: Same completion-coincidence tolerance as every other engine in the repo.
_TIE = 1e-12

#: Backends of :func:`simulate_workload`.  ``auto`` resolves to ``numpy``
#: today; the compiled-C shared-platform mode is a documented follow-on.
WORKLOAD_BACKENDS = ("auto", "numpy", "reference")


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
    """The concatenated global node space of one workload.

    Pure data: the instances' compiled views in one global node space
    (:meth:`~repro.core.compiled.StackedViews.global_space` of
    :func:`~repro.core.compiled.stack_compiled`), the shared platform's
    capacity, per-node device targets, the policy's key family and -- for
    the stochastic family -- the pre-drawn priority pool.  Both engines
    consume this and nothing else, so their agreement is about the event
    loops, not about input parsing.
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
        self.cores = self.platform.host_cores
        self.devices = self.platform.accelerators

        compiled = [compile_task(job.task) for job in self.instances]
        (
            self.node_off,
            self.wcet,
            self.succ_ptr,
            self.succ_idx,
            self.in_degree0,
        ) = stack_compiled(compiled).global_space()
        total = self.total_nodes = int(self.node_off[-1])

        self.device = np.full(total, -1, dtype=np.int64)
        static_parts: list[np.ndarray] = []
        for job, view, base in zip(
            self.instances, compiled, self.node_off[:-1].tolist()
        ):
            assignment = _device_assignment(
                job.task, self.platform, offload_enabled, None
            )
            for node, dev in assignment.items():
                self.device[base + view.index[node]] = dev
            if kind == VECTOR_STATIC:
                static_parts.append(
                    np.asarray(self.policy.vector_keys(view), dtype=np.float64)
                )
        self.instant = self.wcet == 0.0
        # Whole-problem fast-path flags: most workloads have no instant
        # nodes and many are host-only, which lets the coupled engine skip
        # the cascade guards and the per-device pool plumbing per step.
        self.has_instant = bool(self.instant.any())
        self.all_host = not bool((self.device >= 0).any())
        self.static_keys = (
            np.concatenate(static_parts)
            if static_parts
            else np.empty(0, np.float64)
        )
        # One draw per non-instant node, assigned in arrival-stamp order --
        # identical to per-arrival scalar draws (see vector_draws).
        if kind == VECTOR_RANDOM:
            self.draw_pool = self.policy.vector_draws(
                int(np.count_nonzero(self.wcet))
            )
        else:
            self.draw_pool = np.empty(0, dtype=np.float64)

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
        # Per-instance source nodes (in-degree 0), in global node order.
        self.sources = np.flatnonzero(self.in_degree0 == 0)

    def result(self, finish: np.ndarray) -> WorkloadResult:
        """Fold per-node finish times into the per-instance result."""
        count = len(self.instances)
        if count:
            completions = np.maximum.reduceat(finish, self.node_off[:-1])
        else:
            completions = np.empty(0, dtype=np.float64)
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
def _reference_finish_times(problem: _WorkloadProblem) -> np.ndarray:
    """Heap-based scalar event loop over the shared global node space."""
    kind = problem.kind
    wcet = problem.wcet
    succ_ptr, succ_idx = problem.succ_ptr, problem.succ_idx
    device = problem.device
    static_keys = problem.static_keys
    draw_pool = problem.draw_pool
    releases = problem.releases
    node_off = problem.node_off

    total = problem.total_nodes
    in_degree = problem.in_degree0.copy()
    ready_time = np.zeros(total, dtype=np.float64)
    finish_time = np.zeros(total, dtype=np.float64)
    remaining = total

    free_cores = problem.cores
    device_free = [True] * problem.devices
    ready_host: list[tuple] = []
    ready_device: list[list[tuple]] = [[] for _ in range(problem.devices)]
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
        for dev in range(problem.devices):
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
                if problem.in_degree0[node] == 0:
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
    return finish_time


# ----------------------------------------------------------------------
# Coupled numpy engine
# ----------------------------------------------------------------------
class _CoupledEngine:
    """Vectorised event loop over the shared node space.

    One lockstep "lane group": grouped successor propagation with
    decisive-edge readiness per step, batched release seeding and lexsort
    selection over the shared capacity pool.  Steps whose newly-ready set
    contains an instant node fall back -- for the *stamped* families only,
    FIFO keys are insensitive to cascade interleaving -- to a scalar replay
    of that step, executed from the still-uncommitted state so the stamp
    interleaving matches the reference exactly.
    """

    def __init__(self, problem: _WorkloadProblem) -> None:
        p = problem
        self.p = p
        self.kind = p.kind
        self.in_degree = p.in_degree0.copy()
        self.ready_time = np.zeros(p.total_nodes, dtype=np.float64)
        self.finish_time = np.zeros(p.total_nodes, dtype=np.float64)
        self.remaining = p.total_nodes
        self.arrival = 0
        self.start_seq = 0

        slots = p.cores + p.devices
        self.slot_finish = np.full(slots, math.inf, dtype=np.float64)
        self.slot_node = np.full(slots, -1, dtype=np.int64)
        self.slot_seq = np.zeros(slots, dtype=np.int64)
        self.free_host = list(range(p.cores - 1, -1, -1))

        # Ready pools: parallel arrays (node, primary key, secondary key).
        # Selection lexsorts (secondary within primary), which realises the
        # exact tuple order of the reference heaps for every key family.
        self.host_pool: list[np.ndarray] = [
            np.empty(0, np.int64),
            np.empty(0, np.float64),
            np.empty(0, np.float64),
        ]
        self.device_pools = [
            [
                np.empty(0, np.int64),
                np.empty(0, np.float64),
                np.empty(0, np.float64),
            ]
            for _ in range(p.devices)
        ]

    # -- pool plumbing -------------------------------------------------
    def _keys_for(self, nodes: np.ndarray, stamps: np.ndarray) -> tuple:
        p = self.p
        if self.kind == VECTOR_FIFO:
            return self.ready_time[nodes], nodes.astype(np.float64)
        if self.kind == VECTOR_LIFO:
            return -stamps.astype(np.float64), np.zeros(len(nodes))
        if self.kind == VECTOR_STATIC:
            return p.static_keys[nodes], stamps.astype(np.float64)
        return p.draw_pool[stamps - 1], stamps.astype(np.float64)

    def _push(self, nodes: np.ndarray) -> None:
        """Append non-instant ready nodes to their pools, stamping arrivals.

        ``nodes`` must already be in the enqueue order of the reference
        engine for this phase (decisive-edge order for retirements, global
        node order for releases) -- the stamps are assigned along it.
        """
        if not len(nodes):
            return
        stamps = self.arrival + 1 + np.arange(len(nodes), dtype=np.int64)
        self.arrival += len(nodes)
        prim, sec = self._keys_for(nodes, stamps)
        if self.p.all_host:
            pool = self.host_pool
            pool[0] = np.concatenate([pool[0], nodes])
            pool[1] = np.concatenate([pool[1], prim])
            pool[2] = np.concatenate([pool[2], sec])
            return
        on_device = self.p.device[nodes]
        for dev in (-1, *range(self.p.devices)):
            mask = on_device == dev
            if not np.any(mask):
                continue
            pool = self.host_pool if dev < 0 else self.device_pools[dev]
            pool[0] = np.concatenate([pool[0], nodes[mask]])
            pool[1] = np.concatenate([pool[1], prim[mask]])
            pool[2] = np.concatenate([pool[2], sec[mask]])

    def _take(self, pool: list[np.ndarray], count: int) -> np.ndarray:
        """Remove and return the ``count`` smallest-key nodes of ``pool``."""
        size = len(pool[0])
        if size == 0 or count <= 0:
            return np.empty(0, dtype=np.int64)
        order = np.lexsort((pool[2], pool[1]))
        take = order[: min(count, size)]
        nodes = pool[0][take]
        keep = np.ones(size, dtype=bool)
        keep[take] = False
        pool[0], pool[1], pool[2] = pool[0][keep], pool[1][keep], pool[2][keep]
        return nodes

    # -- event-loop phases ---------------------------------------------
    def _scalar_enqueue(self, node: int, when: float) -> None:
        """Reference-identical enqueue-with-cascade for fallback steps."""
        p = self.p
        pending = deque(((node, when),))
        while pending:
            current, at = pending.popleft()
            if p.wcet[current] == 0.0:
                self.finish_time[current] = at
                self.remaining -= 1
                newly = []
                for s in p.succ_idx[
                    p.succ_ptr[current] : p.succ_ptr[current + 1]
                ]:
                    if at > self.ready_time[s]:
                        self.ready_time[s] = at
                    self.in_degree[s] -= 1
                    if self.in_degree[s] == 0:
                        newly.append((int(s), self.ready_time[s]))
                pending.extend(newly)
                continue
            node_arr = np.array([current], dtype=np.int64)
            self._push(node_arr)

    def _propagate_batch(self, nodes: np.ndarray, fins: np.ndarray) -> None:
        """Grouped propagation of retired ``nodes`` (in retirement order).

        Computes the newly-ready set read-only first; if a stamped family
        would cascade (an instant node among the newly ready), the whole
        step is replayed scalar so stamp interleaving matches the
        reference.  Otherwise updates commit vectorised and stamps follow
        decisive-edge order.
        """
        p = self.p
        starts = p.succ_ptr[nodes]
        counts = p.succ_ptr[nodes + 1] - starts
        total = int(counts.sum())
        if total == 0:
            return
        # Ragged gather of every (edge target, source finish) in retirement-
        # major CSR order -- the enqueue order of the reference engine.
        offsets = np.repeat(np.cumsum(counts) - counts, counts)
        flat = np.arange(total, dtype=np.int64) - offsets + np.repeat(starts, counts)
        targets = p.succ_idx[flat]
        fsrc = np.repeat(fins, counts)

        order = np.argsort(targets, kind="stable")
        tsorted = targets[order]
        boundary = np.ones(len(tsorted), dtype=bool)
        boundary[1:] = tsorted[1:] != tsorted[:-1]
        group_start = np.flatnonzero(boundary)
        uniq = tsorted[group_start]
        group_counts = np.diff(np.append(group_start, len(tsorted)))
        newly_mask = self.in_degree[uniq] == group_counts
        newly = uniq[newly_mask]

        if (
            p.has_instant
            and self.kind != VECTOR_FIFO
            and len(newly)
            and np.any(p.instant[newly])
        ):
            # Stamped family + instant cascade: replay the retirements
            # scalar from the uncommitted state (reference semantics).
            for node, fin in zip(nodes.tolist(), fins.tolist()):
                step_newly = []
                for s in p.succ_idx[p.succ_ptr[node] : p.succ_ptr[node + 1]]:
                    if fin > self.ready_time[s]:
                        self.ready_time[s] = fin
                    self.in_degree[s] -= 1
                    if self.in_degree[s] == 0:
                        step_newly.append((int(s), self.ready_time[s]))
                for ready_node, when in step_newly:
                    self._scalar_enqueue(ready_node, when)
            return

        # Commit: ready-time maxima and in-degree decrements are order-free.
        fmax = np.maximum.reduceat(fsrc[order], group_start)
        np.maximum.at(self.ready_time, uniq, fmax)
        np.subtract.at(self.in_degree, uniq, group_counts)
        if not len(newly):
            return
        # Decisive-edge order: a node becomes ready at its *last* incoming
        # edge of the step; sort newly nodes by that edge's flat position.
        last_index = np.append(group_start[1:], len(tsorted)) - 1
        last_pos = order[last_index]
        newly_order = np.argsort(last_pos[newly_mask], kind="stable")
        newly = newly[newly_order]
        if self.kind == VECTOR_FIFO:
            self._fifo_wave(newly)
        else:
            self._push(newly)

    def _fifo_wave(self, newly: np.ndarray) -> None:
        """Resolve instant nodes breadth-wise (FIFO keys are cascade-
        insensitive: readiness maxima and in-degree countdowns are
        order-free, and the (ready, index) key carries no stamp)."""
        p = self.p
        if not p.has_instant:
            self._push(newly)
            return
        while len(newly):
            instant = newly[p.instant[newly]]
            self._push(newly[~p.instant[newly]])
            if not len(instant):
                return
            self.finish_time[instant] = self.ready_time[instant]
            self.remaining -= len(instant)
            starts = p.succ_ptr[instant]
            counts = p.succ_ptr[instant + 1] - starts
            total = int(counts.sum())
            if total == 0:
                return
            offsets = np.repeat(np.cumsum(counts) - counts, counts)
            flat = (
                np.arange(total, dtype=np.int64)
                - offsets
                + np.repeat(starts, counts)
            )
            targets = p.succ_idx[flat]
            fsrc = np.repeat(self.ready_time[instant], counts)
            order = np.argsort(targets, kind="stable")
            tsorted = targets[order]
            boundary = np.ones(len(tsorted), dtype=bool)
            boundary[1:] = tsorted[1:] != tsorted[:-1]
            group_start = np.flatnonzero(boundary)
            uniq = tsorted[group_start]
            group_counts = np.diff(np.append(group_start, len(tsorted)))
            fmax = np.maximum.reduceat(fsrc[order], group_start)
            np.maximum.at(self.ready_time, uniq, fmax)
            np.subtract.at(self.in_degree, uniq, group_counts)
            newly = uniq[self.in_degree[uniq] == 0]

    def _release_batch(self, first: int, stop: int) -> None:
        """Seed the sources of instances ``first:stop`` (workload order)."""
        p = self.p
        lo, hi = p.node_off[first], p.node_off[stop]
        sources = p.sources[
            np.searchsorted(p.sources, lo) : np.searchsorted(p.sources, hi)
        ]
        # Each source's ready time is its own instance's release.
        instance_of = np.searchsorted(p.node_off[1:], sources, side="right")
        self.ready_time[sources] = p.releases[instance_of]
        if (
            p.has_instant
            and self.kind != VECTOR_FIFO
            and np.any(p.instant[sources])
        ):
            # Instant sources cascade; stamped families replay the seeding
            # scalar (instance order, then creation order -- which is
            # exactly the global node order ``sources`` already has).
            for node in sources.tolist():
                self._scalar_enqueue(int(node), float(self.ready_time[node]))
            return
        if self.kind == VECTOR_FIFO:
            self._fifo_wave(sources)
        else:
            self._push(sources)

    def _start_ready(self, now: float) -> None:
        p = self.p
        if self.free_host and len(self.host_pool[0]):
            nodes = self._take(self.host_pool, len(self.free_host))
            count = len(nodes)
            if count:
                # Slots are claimed in stack-pop order and sequence numbers
                # in selection order -- exactly the scalar start loop.
                slots = np.array(
                    self.free_host[: -count - 1 : -1], dtype=np.int64
                )
                del self.free_host[-count:]
                self.slot_finish[slots] = now + p.wcet[nodes]
                self.slot_node[slots] = nodes
                self.slot_seq[slots] = self.start_seq + 1 + np.arange(count)
                self.start_seq += count
        if p.all_host:
            return
        for dev in range(p.devices):
            slot = p.cores + dev
            if math.isinf(self.slot_finish[slot]) and len(
                self.device_pools[dev][0]
            ):
                node = int(self._take(self.device_pools[dev], 1)[0])
                self.start_seq += 1
                self.slot_finish[slot] = now + p.wcet[node]
                self.slot_node[slot] = node
                self.slot_seq[slot] = self.start_seq

    def run(self) -> np.ndarray:
        p = self.p
        release_ptr = 0
        instance_count = len(p.instances)
        steps = 0
        retire_width = 0
        while self.remaining > 0:
            steps += 1
            next_finish = float(self.slot_finish.min()) if len(
                self.slot_finish
            ) else math.inf
            next_release = (
                p.releases[release_ptr]
                if release_ptr < instance_count
                else math.inf
            )
            now = min(next_finish, next_release)
            if math.isinf(now):
                raise SimulationError(
                    "workload simulation deadlocked: nodes remain but "
                    "nothing is running and no release is pending"
                )
            done = np.flatnonzero(self.slot_finish <= now + _TIE)
            retire_width += len(done)
            if len(done):
                order = np.lexsort(
                    (self.slot_seq[done], self.slot_finish[done])
                )
                done = done[order]
                nodes = self.slot_node[done]
                fins = self.slot_finish[done].copy()
                self.finish_time[nodes] = fins
                self.remaining -= len(nodes)
                for slot in done.tolist():
                    if slot < p.cores:
                        self.free_host.append(slot)
                self.slot_finish[done] = math.inf
                self.slot_node[done] = -1
                self._propagate_batch(nodes, fins)
            stop = release_ptr
            while (
                stop < instance_count and p.releases[stop] <= now + _TIE
            ):
                stop += 1
            if stop > release_ptr:
                self._release_batch(release_ptr, stop)
                release_ptr = stop
            self._start_ready(now)
        # lane_steps carries the summed retire-batch widths: occupancy is
        # the mean batch width over the in-flight slot capacity.
        record_kernel_batch(
            "workload.numpy",
            lanes=max(len(self.slot_finish), 1),
            steps=steps,
            events=p.total_nodes,
            lane_steps=retire_width,
        )
        return self.finish_time


# ----------------------------------------------------------------------
# Public entry points
# ----------------------------------------------------------------------
def resolve_workload_backend(backend: str = "auto") -> str:
    """Concrete backend ``simulate_workload`` will use for ``backend``.

    ``auto`` resolves to the coupled numpy engine.  A compiled-C
    shared-platform mode (one pool across a lane group inside the PR 8 C
    step loop) is a documented follow-on; requesting ``compiled``
    explicitly says so instead of silently downgrading.
    """
    if backend == "auto":
        return "numpy"
    if backend == "compiled":
        raise SimulationError(
            "the compiled backend has no shared-platform (multi-instance) "
            "mode yet -- it simulates independent lanes only; use "
            "backend='auto' (numpy coupled engine) for workloads"
        )
    if backend not in WORKLOAD_BACKENDS:
        valid = ", ".join(WORKLOAD_BACKENDS)
        raise ValueError(
            f"unknown workload backend {backend!r}; valid backends: {valid}"
        )
    return backend


def simulate_workload_reference(
    workload: Sequence[JobInstance],
    platform: Union[Platform, int],
    policy: Optional[SchedulingPolicy] = None,
    offload_enabled: bool = True,
) -> WorkloadResult:
    """Scalar reference simulation of a multi-instance workload.

    The validation anchor of the coupled engine: a heap-based Python event
    loop implementing the module's event-loop specification verbatim.  A
    single-instance workload released at 0 reproduces
    :func:`~repro.simulation.engine.simulate_makespan` bit for bit.
    """
    problem = _WorkloadProblem(workload, platform, policy, offload_enabled)
    return problem.result(_reference_finish_times(problem))


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
    deadline-miss / backlog metrics.  Bit-identical to
    :func:`simulate_workload_reference` for every backend (the repo-wide
    cross-engine contract; hypothesis-enforced).
    """
    resolved = resolve_workload_backend(backend)
    problem = _WorkloadProblem(workload, platform, policy, offload_enabled)
    if resolved == "reference":
        return problem.result(_reference_finish_times(problem))
    return problem.result(_CoupledEngine(problem).run())
