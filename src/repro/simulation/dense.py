"""Trace-free dense-index simulation core: one scalar event loop.

The reference engines dispatch on hashed ``NodeId`` objects
(:func:`repro.simulation.engine.simulate`: per-simulation dictionaries, heap
entries keyed on node objects, one
:class:`~repro.simulation.trace.NodeExecution` per node) or on one global
node space copied per workload
(:func:`repro.simulation.workload.simulate_workload_reference`).  For the
figure 6/8/9 sweeps and the job streams that churn dominates wall time.

This module runs the *exact same scheduling semantics* in one loop on the
integer dense indices of the tasks' compiled views
(:class:`~repro.core.compiled.CompiledTask`), and that loop serves both
regimes: :func:`simulate_makespan_dense` releases one job at time 0, and
:func:`repro.simulation.workload.simulate_workload` releases a workload's
jobs over time onto one shared platform.

* Every job of a task points into the tables of :func:`job_tables`: the
  WCETs, the successor rows (memoised on the shape, CSR creation order),
  the device map and the static keys, shared by all jobs of the task.  A
  job adds only its node offset and its own in-degree countdown and
  ready-time lists, made when it is released.
* Ready queues and the running set hold small tuples -- no node hashing,
  no ``NodeExecution`` objects, no trace assembly.
* Zero-WCET ("instant") nodes resolve through a FIFO cascade.
* A built-in policy is keyed by its family, as in the C kernel
  (:func:`~repro.simulation.schedulers.policy_vector_kind`): heap entries
  ``(ready, global index)`` for breadth-first (the global index, offset
  plus dense index, extends the creation-order tie-break across jobs),
  ``(key, arrival)`` with the keys of
  :meth:`~repro.simulation.schedulers.SchedulingPolicy.vector_keys`, and
  ``(draw, arrival)`` with the draws of
  :meth:`~repro.simulation.schedulers.RandomPolicy.vector_draws`.
  Depth-first queues are plain stacks: its ``-arrival`` keys only fall, so
  each push is the new minimum.  A policy without a family (custom, or a
  subclass of a built-in) is read through its ``prepare``/``priority``
  pair, the reference engine's protocol; only single jobs take it.

The loop is the event-loop specification of
:mod:`repro.simulation.workload`: advance to the earliest completion or
release, retire, release, start.

Bit-identity contract
---------------------
:func:`simulate_makespan_dense` must return **exactly** the makespan of
``simulate(...).makespan()`` for every task, platform, policy, device
assignment and ``offload_enabled`` flag, and ``simulate_workload`` exactly
the completions of ``simulate_workload_reference`` -- the property suites in
``tests/test_dense_engine.py`` and ``tests/test_workload.py`` enforce both.
The loop therefore mirrors the reference engines' event structure statement
for statement (same enqueue order, same arrival-counter stream, same
tie-breaking, same floating-point operations); any change here must be
mirrored there and vice versa.
"""

from __future__ import annotations

import heapq
import math
from collections import deque
from typing import Callable, Mapping, NamedTuple, Optional, Sequence, Union

from ..core.compiled import CompiledTask, compile_task
from ..core.exceptions import SimulationError
from ..core.graph import NodeId
from ..core.task import DagTask
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

__all__ = ["JobTables", "job_tables", "run_jobs", "simulate_makespan_dense"]

#: Completions within this distance of the earliest one retire together.
_TIE = 1e-12


class JobTables(NamedTuple):
    """The tables every job of one task shares, indexed by dense index.

    All but ``device`` and ``sources`` are the compiled view's own lists.
    """

    wcet: list[float]
    rows: list[list[int]]  # successors, in creation order
    device: list[int]  # accelerator of each node, -1 for the host
    keys: Optional[list[float]]  # the static family's keys, else None
    in_degree: list[int]
    sources: list[int]


def job_tables(
    compiled: CompiledTask,
    assignment: Mapping[NodeId, int],
    keys: Optional[list[float]],
) -> JobTables:
    """The :class:`JobTables` of a task compiled to ``compiled``, whose
    nodes run on the devices of ``assignment`` and the host otherwise."""
    device = [-1] * len(compiled)
    index = compiled.index
    for node, target in assignment.items():
        device[index[node]] = target
    in_degree = compiled.in_degree
    sources = [i for i, degree in enumerate(in_degree) if not degree]
    return JobTables(
        compiled.wcet_list, compiled.succ_rows, device, keys, in_degree, sources
    )


def _resolve_instants(
    ready: list[int],
    wcet: list[float],
    rows: list[list[int]],
    in_degree: list[int],
    ready_time: list[float],
) -> tuple[list[int], int, float]:
    """The nodes ``ready`` brings to the ready queues, in stamp order.

    Each node's zero-WCET descendants complete at their ready time through
    the reference engines' FIFO cascade before the next node of ``ready``
    is taken.  Also returns how many nodes completed so and the latest of
    their completions.
    """
    arrivals = []
    resolved = 0
    latest = -math.inf
    for i in ready:
        pending: deque[int] = deque((i,))
        while pending:
            node = pending.popleft()
            if wcet[node] != 0.0:
                arrivals.append(node)
                continue
            when = ready_time[node]
            if when > latest:
                latest = when
            resolved += 1
            for s in rows[node]:
                if when > ready_time[s]:
                    ready_time[s] = when
                in_degree[s] -= 1
                if in_degree[s] == 0:
                    pending.append(s)
    return arrivals, resolved, latest


def run_jobs(
    jobs: Sequence[tuple[float, JobTables]],
    platform: Platform,
    kind: Optional[str],
    draws: Optional[list[float]] = None,
    priority: Optional[Callable[[int, float, int], tuple]] = None,
) -> list[float]:
    """Completion of every job of ``jobs`` on one shared platform.

    ``jobs`` lists ``(release, tables)`` pairs in release order.  ``kind``
    is the policy's family, ``draws`` the random family's pool (one draw
    per non-instant node, in arrival order), and ``priority(index, ready,
    arrival)`` keys a policy without a family.  A job's completion is its
    last node's finish, ``-inf`` for a job without nodes.  Records one
    ``dense`` kernel batch: a step per iteration (each advances time), an
    event per node.
    """
    fifo = kind == VECTOR_FIFO
    lifo = kind == VECTOR_LIFO
    # Depth-first queues are stacks of (index, job) pairs.  The others are
    # heaps of entries unique in their first two items, so the order is the
    # reference engines'; the index follows at `slot`, then the job.  The
    # slot is positive because CPython specialises tuple indexing for
    # non-negative indices only.
    slot = 0 if lifo else 2
    put = list.append if lifo else heapq.heappush
    take = list.pop if lifo else heapq.heappop
    heappush = heapq.heappush
    heappop = heapq.heappop

    count = len(jobs)
    completion = [-math.inf] * count
    events = remaining = sum(len(tables.wcet) for _, tables in jobs)
    free_cores = platform.host_cores
    device_count = platform.accelerators
    device_free = [True] * device_count
    ready_host: list[tuple] = []
    ready_device: list[list[tuple]] = [[] for _ in range(device_count)]
    # Running heap: (finish time, start sequence, index, device or -1, job).
    running: list[tuple] = []
    arrival = started = steps = released = offset = 0
    current = None

    while remaining:
        # Advance to the earliest completion or release.
        steps += 1
        now = running[0][0] if running else math.inf
        if released < count and jobs[released][0] < now:
            now = jobs[released][0]
        if now == math.inf:
            raise SimulationError(
                "simulation deadlocked: nodes remain but nothing is running "
                "and no release is pending (is the graph acyclic?)"
            )
        threshold = now + _TIE
        # Retire every node that finishes within the window, in (finish,
        # start sequence) order, then release every job due in it.  Each
        # retired node's successors are scanned in CSR order to completion
        # before its instant successors cascade; the arrivals are stamped
        # and queued at once.
        while True:
            if running and running[0][0] <= threshold:
                finish, _, i, device, job = heappop(running)
                remaining -= 1
                if device < 0:
                    free_cores += 1
                else:
                    device_free[device] = True
                if job is not current:
                    current = job
                    wcet, rows, assigned, keys, in_degree, ready_time, base, j = job
                if finish > completion[j]:
                    completion[j] = finish
                newly = []
                cascade = False
                for s in rows[i]:
                    if finish > ready_time[s]:
                        ready_time[s] = finish
                    in_degree[s] -= 1
                    if in_degree[s] == 0:
                        newly.append(s)
                        if wcet[s] == 0.0:
                            cascade = True
                if not newly:
                    continue
            elif released < count and jobs[released][0] <= threshold:
                # Seed the job's sources, in creation order, at its release.
                release, (wcet, rows, assigned, keys, degrees, newly) = jobs[released]
                ready_time = [0.0] * len(wcet)
                for s in newly:
                    ready_time[s] = release
                in_degree = list(degrees)
                base, j = offset, released
                current = job = (
                    wcet, rows, assigned, keys, in_degree, ready_time, base, j
                )
                offset += len(wcet)
                released += 1
                cascade = True
            else:
                break
            if cascade:
                newly, resolved, latest = _resolve_instants(
                    newly, wcet, rows, in_degree, ready_time
                )
                remaining -= resolved
                if latest > completion[j]:
                    completion[j] = latest
            # Stamp and queue the arrivals.  Inlined: this is the hottest
            # code of the sweeps.
            for s in newly:
                arrival += 1
                if fifo:
                    entry = (ready_time[s], base + s, s, job)
                elif lifo:
                    entry = (s, job)
                elif keys is not None:
                    entry = (keys[s], arrival, s, job)
                elif draws is not None:
                    entry = (draws[arrival - 1], arrival, s, job)
                else:
                    entry = (priority(s, ready_time[s], arrival), arrival, s, job)
                target = assigned[s]
                put(ready_host if target < 0 else ready_device[target], entry)
        # Start nodes while compatible resources are free (work conserving):
        # the host queue first, then each device queue in device order.
        while free_cores and ready_host:
            entry = take(ready_host)
            i = entry[slot]
            job = entry[slot + 1]
            free_cores -= 1
            started += 1
            heappush(running, (now + job[0][i], started, i, -1, job))
        for device in range(device_count):
            queue = ready_device[device]
            if device_free[device] and queue:
                entry = take(queue)
                i = entry[slot]
                job = entry[slot + 1]
                device_free[device] = False
                started += 1
                heappush(running, (now + job[0][i], started, i, device, job))

    # One loop advanced per step: a single lane, always occupied.
    record_kernel_batch("dense", lanes=1, steps=steps, events=events, lane_steps=steps)
    return completion


def simulate_makespan_dense(
    task: DagTask,
    platform: Union[Platform, int],
    policy: Optional[SchedulingPolicy] = None,
    offload_enabled: bool = True,
    device_assignment: Optional[Mapping[NodeId, int]] = None,
    *,
    compiled: Optional[CompiledTask] = None,
) -> float:
    """Makespan of one simulated execution, without building a trace.

    Same semantics and parameters as :func:`repro.simulation.engine.simulate`
    (see there), plus ``compiled``: the task's pre-compiled dense view, so
    batch drivers can compile once and reuse it across every platform /
    policy / variant cell.  When omitted the cached view is compiled on the
    fly (a dictionary lookup for an unmutated task).

    Returns
    -------
    float
        The simulated makespan, bit-identical to the reference engine's
        ``simulate(...).makespan()``.
    """
    platform = _as_platform(platform)
    policy = policy if policy is not None else BreadthFirstPolicy()
    if compiled is None:
        compiled = compile_task(task)  # raises CycleError on cyclic graphs
    kind = policy_vector_kind(policy)
    priority = None
    if kind is None:
        policy.prepare(task.graph)
        nodes = compiled.nodes

        def priority(i: int, ready: float, arrival: int) -> tuple:
            return policy.priority(nodes[i], ready, arrival)

    keys = policy.vector_keys(compiled).tolist() if kind == VECTOR_STATIC else None
    assignment = _device_assignment(task, platform, offload_enabled, device_assignment)
    wcet = compiled.wcet_list
    # One draw per non-instant node (each is enqueued exactly once), in
    # arrival order: the same stream as one priority() call per arrival.
    draws = (
        policy.vector_draws(len(wcet) - wcet.count(0.0)).tolist()
        if kind == VECTOR_RANDOM
        else None
    )
    (makespan,) = run_jobs(
        [(0.0, job_tables(compiled, assignment, keys))], platform, kind, draws, priority
    )
    return max(0.0, makespan)
