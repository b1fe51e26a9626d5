"""Discrete-event list-scheduling simulator for heterogeneous DAG tasks.

The simulator reproduces the experimental methodology of Section 5.2 of the
paper: the execution of a DAG task on a host with ``m`` identical cores plus
one accelerator device is *simulated* under a work-conserving scheduler
(GOMP's breadth-first policy by default), with every node executing for
exactly its WCET.

Semantics
---------
* A node becomes *ready* when all of its predecessors have completed.
* Host nodes execute on any free host core; the offloaded node executes on a
  free accelerator device; the two resource classes never compete.
* The scheduler is work-conserving: whenever a compatible resource is free
  and a compatible node is ready, a node is started immediately.  The
  :class:`~repro.simulation.schedulers.SchedulingPolicy` only decides *which*
  ready node goes first.
* Zero-WCET nodes (the synchronisation node ``v_sync`` inserted by
  Algorithm 1, dummy sources/sinks) complete instantaneously when they become
  ready and occupy no resource.

The returned :class:`~repro.simulation.trace.ExecutionTrace` contains one
record per node and can be validated independently
(:meth:`ExecutionTrace.validate`), which the test-suite uses to prove the
simulator only ever produces legal schedules.

This module is the *trace-producing reference implementation*: the dense
fast path of :mod:`repro.simulation.dense` (used by :func:`simulate_makespan`
and the batched :func:`~repro.simulation.batch.simulate_many`) must produce
bit-identical makespans, so any semantic change here must be mirrored there.
Successors of a completed node are propagated in node-creation order (the
dense view's CSR order); historically this was a per-completion ``repr``
sort, which cost a sort per event and tied tie-breaking to identifier
spelling rather than to the order in which an OpenMP program would create
the tasks.
"""

from __future__ import annotations

import heapq
from collections import deque
from typing import Mapping, Optional, Union

from ..core.exceptions import SimulationError
from ..core.graph import NodeId
from ..core.task import DagTask
from .platform import ACCELERATOR, HOST, INSTANT, Platform
from .schedulers import BreadthFirstPolicy, SchedulingPolicy
from .trace import ExecutionTrace, NodeExecution

__all__ = ["check_offload", "simulate", "simulate_makespan"]


def _as_platform(platform_or_cores: Union[Platform, int]) -> Platform:
    if isinstance(platform_or_cores, Platform):
        return platform_or_cores
    return Platform(host_cores=platform_or_cores, accelerators=1)


def check_offload(offloads: bool, accelerators: int) -> None:
    """Refuse offloaded work on a platform without an accelerator: the one
    0-accelerator rule of the engines and the evaluation service."""
    if offloads and accelerators == 0:
        raise SimulationError(
            "the task offloads work but the platform has 0 accelerators; "
            "disable offloading (offload_enabled false) or send a task "
            "without an offloaded node"
        )


def _device_assignment(
    task: DagTask,
    platform: Platform,
    offload_enabled: bool,
    device_assignment: Optional[Mapping[NodeId, int]],
) -> dict[NodeId, int]:
    """Resolve which nodes run on which accelerator device.

    Without an explicit assignment the task's single offloaded node (if any)
    is mapped to device ``0``, which is the paper's system model.  The
    extensions of :mod:`repro.extensions` pass explicit assignments to model
    several offloaded regions and several devices.
    """
    if not offload_enabled:
        return {}
    if device_assignment is not None:
        resolved = {node: int(device) for node, device in device_assignment.items()}
    elif task.offloaded_node is not None:
        resolved = {task.offloaded_node: 0}
    else:
        resolved = {}
    check_offload(bool(resolved), platform.accelerators)
    for node, device in resolved.items():
        if node not in task.graph:
            raise SimulationError(f"offloaded node {node!r} is not part of the task")
        if not 0 <= device < platform.accelerators:
            raise SimulationError(
                f"node {node!r} is assigned to device {device} but the platform "
                f"only has {platform.accelerators} accelerator(s)"
            )
    return resolved


def simulate(
    task: DagTask,
    platform: Union[Platform, int],
    policy: Optional[SchedulingPolicy] = None,
    offload_enabled: bool = True,
    device_assignment: Optional[Mapping[NodeId, int]] = None,
) -> ExecutionTrace:
    """Simulate one execution of ``task`` and return the full trace.

    Parameters
    ----------
    task:
        The DAG task to execute.  Its graph must be acyclic.
    platform:
        Either a :class:`Platform` or an integer host-core count ``m`` (one
        accelerator is then assumed).
    policy:
        Ready-queue ordering policy; defaults to the GOMP-style
        :class:`~repro.simulation.schedulers.BreadthFirstPolicy`.
    offload_enabled:
        When ``False`` every node -- including the offloaded one -- executes
        on the host, which models a purely homogeneous execution.
    device_assignment:
        Optional explicit ``node -> accelerator index`` mapping used by the
        multi-offload / multi-device extensions.  When omitted, the task's
        single offloaded node (if any) runs on accelerator ``0``.

    Returns
    -------
    ExecutionTrace
        One :class:`NodeExecution` per node; ``trace.makespan()`` is the
        simulated response time.

    Raises
    ------
    SimulationError
        If the graph is cyclic, or offloaded work cannot be placed on the
        requested devices.
    """
    platform = _as_platform(platform)
    policy = policy if policy is not None else BreadthFirstPolicy()
    graph = task.graph
    compiled = graph.compiled()  # raises CycleError on cyclic graphs
    policy.prepare(graph)

    assignment = _device_assignment(task, platform, offload_enabled, device_assignment)

    # Successor lists in creation (dense CSR) order, resolved once per
    # simulation instead of one repr sort per completed node.
    successor_order = {
        node: [compiled.nodes[s] for s in compiled.successors_of(i)]
        for i, node in enumerate(compiled.nodes)
    }

    in_degree = {node: graph.in_degree(node) for node in graph.nodes()}
    ready_time = {node: 0.0 for node in graph.nodes()}
    remaining = graph.node_count

    free_cores = list(reversed(platform.host_core_names()))
    accelerator_names = platform.accelerator_names()
    accelerator_index = {name: i for i, name in enumerate(accelerator_names)}
    device_free = {index: True for index in range(platform.accelerators)}

    # Ready queues are heaps of (priority tuple, arrival index, node, ready time).
    ready_host: list[tuple[tuple, int, NodeId, float]] = []
    ready_device: dict[int, list[tuple[tuple, int, NodeId, float]]] = {
        index: [] for index in range(platform.accelerators)
    }
    # Running heap: (finish time, sequence, node, start, kind, resource, ready).
    running: list[tuple[float, int, NodeId, float, str, str, float]] = []

    executions: list[NodeExecution] = []
    arrival_counter = 0
    start_counter = 0

    def complete(node: NodeId, finish: float) -> list[tuple[NodeId, float]]:
        """Propagate a completion; return nodes that just became ready."""
        newly_ready: list[tuple[NodeId, float]] = []
        for successor in successor_order[node]:
            ready_time[successor] = max(ready_time[successor], finish)
            in_degree[successor] -= 1
            if in_degree[successor] == 0:
                newly_ready.append((successor, ready_time[successor]))
        return newly_ready

    def enqueue(node: NodeId, at_time: float) -> None:
        """Add a ready node to the right queue, resolving instant nodes."""
        nonlocal arrival_counter, remaining
        pending = deque(((node, at_time),))
        while pending:
            current, when = pending.popleft()
            if graph.wcet(current) == 0:
                executions.append(
                    NodeExecution(
                        node=current,
                        start=when,
                        finish=when,
                        resource_kind=INSTANT,
                        resource=None,
                        ready=when,
                    )
                )
                remaining -= 1
                pending.extend(complete(current, when))
                continue
            arrival_counter += 1
            entry = (
                policy.priority(current, when, arrival_counter),
                arrival_counter,
                current,
                when,
            )
            if current in assignment:
                heapq.heappush(ready_device[assignment[current]], entry)
            else:
                heapq.heappush(ready_host, entry)

    def start_ready_nodes(now: float) -> None:
        """Start nodes while compatible resources are free (work conserving)."""
        nonlocal start_counter
        while free_cores and ready_host:
            _, _, node, ready_at = heapq.heappop(ready_host)
            core = free_cores.pop()
            start_counter += 1
            finish = now + graph.wcet(node)
            heapq.heappush(
                running,
                (finish, start_counter, node, now, HOST, core, ready_at),
            )
        for device_index, queue in ready_device.items():
            while device_free[device_index] and queue:
                _, _, node, ready_at = heapq.heappop(queue)
                device_free[device_index] = False
                start_counter += 1
                finish = now + graph.wcet(node)
                heapq.heappush(
                    running,
                    (
                        finish,
                        start_counter,
                        node,
                        now,
                        ACCELERATOR,
                        accelerator_names[device_index],
                        ready_at,
                    ),
                )

    # Seed the simulation with the source nodes.  The source set must be
    # snapshotted first: enqueueing an instant (zero-WCET) source resolves
    # it immediately and decrements successor in-degrees, and a successor
    # that reaches zero mid-loop has already been enqueued by that
    # resolution -- reading ``in_degree`` live would enqueue it twice and
    # leave ``remaining`` to hit zero before every node has run.
    sources = [node for node in graph.nodes() if in_degree[node] == 0]
    for node in sources:
        enqueue(node, 0.0)

    current_time = 0.0
    while remaining > 0:
        start_ready_nodes(current_time)
        if remaining == 0:
            break
        if not running:
            raise SimulationError(
                "simulation deadlocked: nodes remain but nothing is running "
                "(is the graph connected and acyclic?)"
            )

        # Advance time to the earliest completion and retire every node that
        # finishes at that instant.
        current_time = running[0][0]
        while running and running[0][0] <= current_time + 1e-12:
            finish, _, node, start, kind, resource, ready_at = heapq.heappop(running)
            executions.append(
                NodeExecution(
                    node=node,
                    start=start,
                    finish=finish,
                    resource_kind=kind,
                    resource=resource,
                    ready=ready_at,
                )
            )
            remaining -= 1
            if kind == HOST:
                free_cores.append(resource)
            else:
                device_free[accelerator_index[resource]] = True
            for ready_node, when in complete(node, finish):
                enqueue(ready_node, when)

    return ExecutionTrace(
        task=task,
        platform=platform,
        executions=executions,
        policy_name=policy.name,
        device_assignment=dict(assignment),
    )


def simulate_makespan(
    task: DagTask,
    platform: Union[Platform, int],
    policy: Optional[SchedulingPolicy] = None,
    offload_enabled: bool = True,
    device_assignment: Optional[Mapping[NodeId, int]] = None,
) -> float:
    """Makespan of one simulated execution of ``task``.

    Served by the trace-free dense fast path
    (:func:`repro.simulation.dense.simulate_makespan_dense`), which is
    bit-identical to ``simulate(...).makespan()`` but never constructs
    :class:`~repro.simulation.trace.NodeExecution` objects; callers that
    need the schedule itself use :func:`simulate`.
    """
    from .dense import simulate_makespan_dense

    return simulate_makespan_dense(
        task, platform, policy, offload_enabled, device_assignment
    )
