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
* policies are consulted through the dense protocol
  (:meth:`~repro.simulation.schedulers.SchedulingPolicy.prepare_dense` /
  ``dense_priority``), with a shim keeping object-keyed custom policies
  working.

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
    BreadthFirstPolicy,
    SchedulingPolicy,
    policy_supports_dense,
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
    if policy_supports_dense(policy):
        policy.prepare_dense(compiled)
        dense_priority = policy.dense_priority
    else:
        # Object-keyed policy (or a subclass whose priority()/prepare()
        # override outdates an inherited dense implementation): run the
        # object-keyed pair through an index adapter, which is bit-identical
        # by construction.
        policy.prepare(task.graph)
        nodes = compiled.nodes
        object_priority = policy.priority

        def dense_priority(i: int, ready: float, arrival: int) -> tuple:
            return object_priority(nodes[i], ready, arrival)

    assignment = _device_assignment(task, platform, offload_enabled, device_assignment)
    index = compiled.index
    n = len(compiled.nodes)

    # Per-index device assignment (-1 = host), replacing the reference
    # engine's per-arrival dictionary membership test.
    assigned = [-1] * n
    for node, device in assignment.items():
        assigned[index[node]] = device

    wcet = compiled.wcet_list
    succ_ptr = compiled.succ_ptr
    succ_idx = compiled.succ_idx
    in_degree = list(compiled.in_degree)
    ready_time = [0.0] * n
    remaining = n

    free_cores = platform.host_cores
    device_count = platform.accelerators
    device_free = [True] * device_count

    # Ready queues are heaps of (priority tuple, arrival index, dense index);
    # the arrival index is unique, so comparisons never reach the node index.
    ready_host: list[tuple[tuple, int, int]] = []
    ready_device: list[list[tuple[tuple, int, int]]] = [
        [] for _ in range(device_count)
    ]
    # Running heap: (finish time, start sequence, dense index, device or -1).
    running: list[tuple[float, int, int, int]] = []

    arrival_counter = 0
    start_counter = 0
    retire_windows = 0
    makespan = 0.0
    heappush = heapq.heappush
    heappop = heapq.heappop

    # The GOMP-style breadth-first policy is the paper's scheduler and the
    # default of every sweep driver.  Its priority key (ready time, index,
    # arrival) is already a unique, totally ordered heap entry, so the loop
    # pushes it flat -- one tuple per arrival instead of a nested
    # (key, arrival, index) entry plus a method call -- and reads the node
    # index from slot 1 instead of slot 2.  The total order is unchanged:
    # the generic entry's tie-breakers are never reached (keys are unique).
    flat_breadth_first = type(policy) is BreadthFirstPolicy
    node_slot = 1 if flat_breadth_first else 2

    # Ready nodes are always enqueued at their ready time, so the propagation
    # path passes bare indices and reads ready_time[] at the point of use
    # (the value is final once the in-degree hits zero: every predecessor has
    # retired).  The completion scan visits successors in CSR (creation)
    # order and runs to completion before any newly ready node is enqueued;
    # the reference engine does the same, and the relative order feeds the
    # arrival counter that policies use for tie-breaking.  The scan and the
    # non-instant push are inlined in the retirement loop -- the hottest code
    # of the sweep drivers.

    def enqueue(i: int) -> None:
        """Add a ready index to the right queue, resolving instant nodes.

        FIFO cascade identical to the reference engine's pending queue; the
        retirement loop below inlines the same logic.
        """
        nonlocal arrival_counter, remaining, makespan
        pending: deque[int] = deque((i,))
        while pending:
            current = pending.popleft()
            if wcet[current] != 0.0:
                arrival_counter += 1
                if flat_breadth_first:
                    entry = (ready_time[current], current, arrival_counter)
                else:
                    entry = (
                        dense_priority(current, ready_time[current], arrival_counter),
                        arrival_counter,
                        current,
                    )
                device = assigned[current]
                if device < 0:
                    heappush(ready_host, entry)
                else:
                    heappush(ready_device[device], entry)
                continue
            when = ready_time[current]
            if when > makespan:
                makespan = when
            remaining -= 1
            # Appending mid-scan preserves the reference order: nothing else
            # touches `pending` until the scan of `current` completes.
            for s in succ_idx[succ_ptr[current] : succ_ptr[current + 1]]:
                if when > ready_time[s]:
                    ready_time[s] = when
                in_degree[s] -= 1
                if in_degree[s] == 0:
                    pending.append(s)

    # Seed with the source indices, snapshotted before any instant-node
    # cascade mutates the in-degree array (same rationale as the reference
    # engine's source snapshot).  Source ready times are the initial 0.0.
    for i in [i for i in range(n) if in_degree[i] == 0]:
        enqueue(i)

    current_time = 0.0
    while remaining > 0:
        # Start nodes while compatible resources are free (work conserving).
        while free_cores and ready_host:
            i = heappop(ready_host)[node_slot]
            free_cores -= 1
            start_counter += 1
            heappush(running, (current_time + wcet[i], start_counter, i, -1))
        for device in range(device_count):
            queue = ready_device[device]
            while device_free[device] and queue:
                i = heappop(queue)[node_slot]
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
        # finishes at that instant.
        retire_windows += 1
        current_time = running[0][0]
        threshold = current_time + 1e-12
        while running and running[0][0] <= threshold:
            finish, _, i, device = heappop(running)
            if finish > makespan:
                makespan = finish
            remaining -= 1
            if device < 0:
                free_cores += 1
            else:
                device_free[device] = True
            newly_ready = []
            for s in succ_idx[succ_ptr[i] : succ_ptr[i + 1]]:
                if finish > ready_time[s]:
                    ready_time[s] = finish
                in_degree[s] -= 1
                if in_degree[s] == 0:
                    newly_ready.append(s)
            for s in newly_ready:
                # Inlined enqueue() fast path (instant nodes take the
                # cascade); must stay in lock-step with enqueue() above.
                if wcet[s] != 0.0:
                    arrival_counter += 1
                    if flat_breadth_first:
                        entry = (ready_time[s], s, arrival_counter)
                    else:
                        entry = (
                            dense_priority(s, ready_time[s], arrival_counter),
                            arrival_counter,
                            s,
                        )
                    target = assigned[s]
                    if target < 0:
                        heappush(ready_host, entry)
                    else:
                        heappush(ready_device[target], entry)
                else:
                    enqueue(s)

    # One lane advanced per retire window, as in the C kernel.
    record_kernel_batch(
        "dense",
        lanes=1,
        steps=retire_windows,
        events=n,
        lane_steps=retire_windows,
    )
    return makespan
