"""Trace-free dense-index simulation core (the PR 3 fast path).

The reference engine (:mod:`repro.simulation.engine`) dispatches on hashed
``NodeId`` objects: per-simulation in-degree/ready-time dictionaries, heap
entries keyed on node objects, one :class:`~repro.simulation.trace.NodeExecution`
dataclass per node.  For the figure 6/8/9 sweeps -- thousands of simulations
over the same task ensembles -- that object churn dominates wall time.

This module re-implements the *exact same scheduling semantics* purely on
the integer dense indices of the task's compiled view
(:class:`~repro.core.compiled.CompiledTask`):

* in-degree countdown and ready times live in preallocated Python lists
  indexed by dense index;
* ready queues and the running set hold small integer tuples -- no node
  hashing, no ``NodeExecution`` objects, no trace assembly;
* successor order is the precompiled CSR order (creation order -- dense
  indices are insertion ranks), computed once per *task* instead of one
  ``repr`` sort per completed node per simulation;
* zero-WCET ("instant") nodes resolve through a :class:`collections.deque`;
* a built-in policy is keyed by its family, as in the C kernel
  (:func:`~repro.simulation.schedulers.policy_vector_kind`): flat heap
  entries ``(ready, i)`` for breadth-first, ``(-arrival, i)`` for
  depth-first, ``(key[i], arrival, i)`` with the keys of
  :meth:`~repro.simulation.schedulers.SchedulingPolicy.vector_keys`, and
  ``(draw, arrival, i)`` with the draws of
  :meth:`~repro.simulation.schedulers.RandomPolicy.vector_draws`.  A policy
  without a family (custom, or a subclass of a built-in) is read through
  its ``prepare``/``priority`` pair, the reference engine's protocol.

Bit-identity contract
---------------------
:func:`simulate_makespan_dense` must return **exactly** the makespan of
``simulate(...).makespan()`` for every task, platform, policy, device
assignment and ``offload_enabled`` flag -- the property suite in
``tests/test_dense_engine.py`` enforces this across random DAGs and all
registered policies.  The loop below therefore mirrors the reference
engine's event structure statement for statement (same enqueue order, same
arrival-counter stream, same tie-breaking, same floating-point operations);
any change here must be mirrored there and vice versa.
"""

from __future__ import annotations

import heapq
from collections import deque
from typing import Mapping, Optional, Union

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

__all__ = ["simulate_makespan_dense"]


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
    if kind is None:
        policy.prepare(task.graph)
    priority = policy.priority
    fifo = kind == VECTOR_FIFO
    lifo = kind == VECTOR_LIFO
    slot = 1 if fifo or lifo else 2
    nodes = compiled.nodes
    wcet = compiled.wcet_list
    keys = policy.vector_keys(compiled).tolist() if kind == VECTOR_STATIC else None

    assignment = _device_assignment(task, platform, offload_enabled, device_assignment)
    index = compiled.index
    n = len(nodes)
    # One draw per non-instant node (each is enqueued exactly once), in
    # arrival order: the same stream as one priority() call per arrival.
    draws = (
        policy.vector_draws(n - wcet.count(0.0)).tolist()
        if kind == VECTOR_RANDOM
        else None
    )

    # Per-index device assignment (-1 = host), replacing the reference
    # engine's per-arrival dictionary membership test.
    assigned = [-1] * n
    for node, device in assignment.items():
        assigned[index[node]] = device

    succ_ptr = compiled.succ_ptr
    succ_idx = compiled.succ_idx
    in_degree = list(compiled.in_degree)
    ready_time = [0.0] * n
    remaining = n

    free_cores = platform.host_cores
    device_count = platform.accelerators
    device_free = [True] * device_count

    # Ready queues are heaps of flat entries whose last item, at `slot`, is
    # the dense index: every entry is unique before it (the index itself
    # for breadth-first, the arrival stamp for the others), so the order is
    # the reference engine's.  The slot is positive because CPython
    # specialises tuple indexing for non-negative indices only.
    ready_host: list[tuple] = []
    ready_device: list[list[tuple]] = [[] for _ in range(device_count)]
    # Running heap: (finish time, start sequence, dense index, device or -1).
    running: list[tuple[float, int, int, int]] = []

    arrival = 0
    start_counter = 0
    retire_windows = 0
    makespan = 0.0
    heappush = heapq.heappush
    heappop = heapq.heappop

    def arrivals_of(ready: list[int]) -> list[int]:
        """The nodes ``ready`` brings to the ready queues, in stamp order.

        Each node's zero-WCET descendants resolve through the reference
        engine's FIFO cascade before the next node of ``ready`` is taken.
        """
        nonlocal remaining, makespan
        arrivals = []
        for i in ready:
            pending: deque[int] = deque((i,))
            while pending:
                current = pending.popleft()
                if wcet[current] != 0.0:
                    arrivals.append(current)
                    continue
                when = ready_time[current]
                if when > makespan:
                    makespan = when
                remaining -= 1
                for s in succ_idx[succ_ptr[current] : succ_ptr[current + 1]]:
                    if when > ready_time[s]:
                        ready_time[s] = when
                    in_degree[s] -= 1
                    if in_degree[s] == 0:
                        pending.append(s)
        return arrivals

    # Seed with the source indices, snapshotted before any instant-node
    # cascade mutates the in-degree array (same rationale as the reference
    # engine's source snapshot).  Source ready times are the initial 0.0.
    newly_ready = arrivals_of([i for i in range(n) if in_degree[i] == 0])

    current_time = 0.0
    while True:
        # Stamp and queue the nodes that became ready, in the reference
        # engine's order.  Inlined: this is the hottest code of the sweeps.
        for s in newly_ready:
            arrival += 1
            if fifo:
                entry = (ready_time[s], s)
            elif keys is not None:
                entry = (keys[s], arrival, s)
            elif lifo:
                entry = (-arrival, s)
            elif draws is not None:
                entry = (draws[arrival - 1], arrival, s)
            else:
                entry = (priority(nodes[s], ready_time[s], arrival), arrival, s)
            target = assigned[s]
            if target < 0:
                heappush(ready_host, entry)
            else:
                heappush(ready_device[target], entry)
        # Start nodes while compatible resources are free (work conserving).
        while free_cores and ready_host:
            i = heappop(ready_host)[slot]
            free_cores -= 1
            start_counter += 1
            heappush(running, (current_time + wcet[i], start_counter, i, -1))
        for device in range(device_count):
            queue = ready_device[device]
            while device_free[device] and queue:
                i = heappop(queue)[slot]
                device_free[device] = False
                start_counter += 1
                heappush(
                    running, (current_time + wcet[i], start_counter, i, device)
                )
        if remaining == 0:
            break
        if not running:
            raise SimulationError(
                "simulation deadlocked: nodes remain but nothing is running "
                "(is the graph connected and acyclic?)"
            )

        # Advance time to the earliest completion and retire every node that
        # finishes at that instant.  Each retired node's successors are
        # scanned in CSR (creation) order to completion before its instant
        # successors cascade, as in the reference engine; the stamps wait
        # for the end of the window, which keeps their order.
        retire_windows += 1
        current_time = running[0][0]
        threshold = current_time + 1e-12
        newly_ready = []
        while running and running[0][0] <= threshold:
            finish, _, i, device = heappop(running)
            if finish > makespan:
                makespan = finish
            remaining -= 1
            if device < 0:
                free_cores += 1
            else:
                device_free[device] = True
            mark = len(newly_ready)
            cascade = False
            for s in succ_idx[succ_ptr[i] : succ_ptr[i + 1]]:
                if finish > ready_time[s]:
                    ready_time[s] = finish
                in_degree[s] -= 1
                if in_degree[s] == 0:
                    newly_ready.append(s)
                    if wcet[s] == 0.0:
                        cascade = True
            if cascade:
                newly_ready[mark:] = arrivals_of(newly_ready[mark:])

    # One lane advanced per retire window, as in the C kernel.
    record_kernel_batch(
        "dense",
        lanes=1,
        steps=retire_windows,
        events=n,
        lane_steps=retire_windows,
    )
    return makespan
