"""Execution traces produced by the scheduling simulator.

A trace is a list of :class:`NodeExecution` records -- one per node -- plus
the platform it was produced on.  :class:`ExecutionTrace` offers the queries
that experiments and tests need (makespan, per-resource busy time, host idle
intervals) and a :meth:`ExecutionTrace.validate` method proving that the
trace is a legal schedule: precedence constraints respected, no resource
over-subscription, offloaded node on the accelerator, work conservation not
violated in obvious ways.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from ..core.exceptions import SimulationError
from ..core.graph import NodeId
from ..core.task import DagTask
from .platform import ACCELERATOR, HOST, INSTANT, Platform

__all__ = ["NodeExecution", "ExecutionTrace"]


@dataclass(frozen=True)
class NodeExecution:
    """Execution record of a single node.

    Attributes
    ----------
    node:
        Node identifier.
    start, finish:
        Absolute start and finish times; ``finish - start`` equals the node's
        WCET (the simulator always executes for the full WCET).
    resource_kind:
        ``"host"``, ``"accelerator"`` or ``"instant"`` (zero-WCET nodes).
    resource:
        Concrete resource identifier, e.g. ``"core1"`` or ``"acc0"``; ``None``
        for instant nodes.
    ready:
        The time at which every predecessor had completed.
    """

    node: NodeId
    start: float
    finish: float
    resource_kind: str
    resource: Optional[str]
    ready: float

    @property
    def duration(self) -> float:
        """``finish - start``."""
        return self.finish - self.start

    @property
    def queueing_delay(self) -> float:
        """Time spent ready but not executing (``start - ready``)."""
        return self.start - self.ready


@dataclass
class ExecutionTrace:
    """A complete schedule of one DAG task on a heterogeneous platform.

    ``device_assignment`` records which nodes were offloaded to which
    accelerator; it is ``None`` for plain single-offload simulations (the
    task's own ``offloaded_node`` designation is then authoritative).
    """

    task: DagTask
    platform: Platform
    executions: list[NodeExecution] = field(default_factory=list)
    policy_name: str = "unknown"
    device_assignment: Optional[dict[NodeId, int]] = None

    # ------------------------------------------------------------------
    # Basic queries
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self.executions)

    def execution_of(self, node: NodeId) -> NodeExecution:
        """Return the execution record of a node."""
        for record in self.executions:
            if record.node == node:
                return record
        raise SimulationError(f"node {node!r} does not appear in the trace")

    def makespan(self) -> float:
        """Completion time of the last node (response time of the task)."""
        if not self.executions:
            return 0.0
        return max(record.finish for record in self.executions)

    def start_time(self) -> float:
        """Start time of the first node (normally ``0``)."""
        if not self.executions:
            return 0.0
        return min(record.start for record in self.executions)

    def host_executions(self) -> list[NodeExecution]:
        """Execution records that ran on a host core."""
        return [record for record in self.executions if record.resource_kind == HOST]

    def accelerator_executions(self) -> list[NodeExecution]:
        """Execution records that ran on an accelerator."""
        return [
            record for record in self.executions if record.resource_kind == ACCELERATOR
        ]

    # ------------------------------------------------------------------
    # Derived metrics
    # ------------------------------------------------------------------
    def busy_time(self, resource_kind: str) -> float:
        """Total busy time summed over all resources of the given kind."""
        return sum(
            record.duration
            for record in self.executions
            if record.resource_kind == resource_kind
        )

    def host_utilisation(self) -> float:
        """Average host-core utilisation over the makespan, in ``[0, 1]``."""
        span = self.makespan()
        if span == 0:
            return 0.0
        return self.busy_time(HOST) / (span * self.platform.host_cores)

    def accelerator_utilisation(self) -> float:
        """Average accelerator utilisation over the makespan, in ``[0, 1]``."""
        span = self.makespan()
        if span == 0 or self.platform.accelerators == 0:
            return 0.0
        return self.busy_time(ACCELERATOR) / (span * self.platform.accelerators)

    def host_idle_while_accelerator_busy(self) -> float:
        """Total host-core idle time that overlaps accelerator activity.

        This is exactly the pathology of Figure 1(c) of the paper -- the host
        sitting idle while ``v_off`` runs -- that the transformation is
        designed to avoid.  Measured in core x time units.
        """
        events: list[tuple[float, float]] = []  # (time, delta host busy cores)
        accel_intervals: list[tuple[float, float]] = []
        for record in self.executions:
            if record.resource_kind == HOST:
                events.append((record.start, +1))
                events.append((record.finish, -1))
            elif record.resource_kind == ACCELERATOR:
                accel_intervals.append((record.start, record.finish))
        if not accel_intervals:
            return 0.0
        boundaries = sorted(
            {time for time, _ in events}
            | {t for interval in accel_intervals for t in interval}
        )
        idle = 0.0
        for left, right in zip(boundaries, boundaries[1:]):
            if right <= left:
                continue
            busy_cores = sum(
                1
                for record in self.executions
                if record.resource_kind == HOST
                and record.start <= left
                and record.finish >= right
            )
            accel_busy = any(
                start <= left and finish >= right for start, finish in accel_intervals
            )
            if accel_busy:
                idle += (self.platform.host_cores - busy_cores) * (right - left)
        return idle

    # ------------------------------------------------------------------
    # Validation
    # ------------------------------------------------------------------
    def validate(self) -> None:
        """Check that the trace is a legal schedule of the task.

        Raises
        ------
        SimulationError
            If any structural property is violated: missing/duplicated nodes,
            precedence violations, WCET mismatches, resource
            over-subscription, or the offloaded node executing on the host.
        """
        graph = self.task.graph
        seen = [record.node for record in self.executions]
        if sorted(map(repr, seen)) != sorted(map(repr, graph.nodes())):
            raise SimulationError(
                "trace does not contain exactly one execution per node"
            )
        by_node = {record.node: record for record in self.executions}
        for record in self.executions:
            expected = graph.wcet(record.node)
            if abs(record.duration - expected) > 1e-9:
                raise SimulationError(
                    f"node {record.node!r} executed for {record.duration}, "
                    f"expected WCET {expected}"
                )
            if record.start < record.ready - 1e-9:
                raise SimulationError(
                    f"node {record.node!r} started before it was ready"
                )
            for predecessor in graph.predecessors(record.node):
                if by_node[predecessor].finish > record.start + 1e-9:
                    raise SimulationError(
                        f"precedence violated: {predecessor!r} finishes at "
                        f"{by_node[predecessor].finish} after {record.node!r} "
                        f"starts at {record.start}"
                    )
        if self.device_assignment is not None:
            offloaded_set = set(self.device_assignment)
        elif self.task.offloaded_node is not None:
            offloaded_set = {self.task.offloaded_node}
        else:
            offloaded_set = set()
        for record in self.executions:
            if record.duration == 0:
                continue
            if record.node in offloaded_set:
                if record.resource_kind != ACCELERATOR:
                    raise SimulationError(
                        f"offloaded node {record.node!r} executed on the host "
                        "in a heterogeneous simulation trace"
                    )
            elif record.resource_kind == ACCELERATOR:
                raise SimulationError(
                    f"host node {record.node!r} executed on the accelerator"
                )
        self._check_capacity(HOST, self.platform.host_cores)
        if self.platform.accelerators:
            self._check_capacity(ACCELERATOR, self.platform.accelerators)

    def _check_capacity(self, kind: str, capacity: int) -> None:
        """Verify that at most ``capacity`` nodes of ``kind`` overlap in time.

        As in the precedence check, times within 1e-9 count as equal: the
        engines retire completions that close as one instant, and WCET sums
        along different paths can differ in the last bits.
        """
        events: list[tuple[float, int]] = []
        for record in self.executions:
            if record.resource_kind != kind or record.duration == 0:
                continue
            events.append((record.start, +1))
            events.append((record.finish - 1e-9, -1))
        # Process finishes before starts at equal times.
        events.sort(key=lambda event: (event[0], event[1]))
        active = 0
        for _, delta in events:
            active += delta
            if active > capacity:
                raise SimulationError(
                    f"{kind} capacity {capacity} exceeded ({active} concurrent nodes)"
                )

    def as_rows(self) -> list[dict[str, object]]:
        """Return the trace as a list of plain dictionaries (CSV friendly)."""
        return [
            {
                "node": record.node,
                "start": record.start,
                "finish": record.finish,
                "duration": record.duration,
                "ready": record.ready,
                "resource_kind": record.resource_kind,
                "resource": record.resource if record.resource is not None else INSTANT,
            }
            for record in sorted(self.executions, key=lambda r: (r.start, repr(r.node)))
        ]
