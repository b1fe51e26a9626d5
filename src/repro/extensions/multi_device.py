"""Extension: several accelerator devices (paper future work (ii)).

The second future-work item of the paper is supporting "more devices in the
heterogeneous architecture".  This module models a DAG task whose offloaded
nodes are *partitioned over several accelerator devices* (e.g. a GPU and an
FPGA, or two DSP clusters), provides

* a sound response-time bound (:func:`response_time`) derived with the same
  chain-charging argument as :mod:`repro.extensions.multi_offload` -- an
  instant where the chain stalls is charged either to the ``m`` busy host
  cores or to the busy device the stalled node is assigned to;
* a load-balancing assignment heuristic (:func:`balance_devices`) that
  partitions offloaded nodes over the devices by longest-processing-time
  first, which is what a runtime would typically do;
* simulation support (:func:`simulate_multi_device`) on top of the
  multi-device-aware engine.

The bound intentionally does not try to exploit inter-device parallelism
(doing so requires per-device variants of Algorithm 1's synchronisation and
is genuine future research); it is the direct generalisation of the paper's
baseline reasoning and is proven safe by the property tests.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Mapping, Optional

from ..analysis.homogeneous import check_cores
from ..analysis.results import ResponseTimeResult, Scenario
from ..core.exceptions import ValidationError
from ..core.graph import DirectedAcyclicGraph, NodeId
from ..core.task import DagTask
from ..simulation.platform import Platform
from ..simulation.schedulers import SchedulingPolicy
from ..simulation.trace import ExecutionTrace

__all__ = [
    "MultiDeviceTask",
    "balance_devices",
    "response_time",
    "simulate_multi_device",
]


@dataclass
class MultiDeviceTask:
    """A sporadic DAG task whose offloaded nodes are spread over devices.

    Attributes
    ----------
    graph:
        The DAG; node weights are WCETs.
    device_assignment:
        Mapping ``node -> device index`` for the offloaded nodes; indices
        must form a contiguous range ``0 .. device_count - 1``.
    device_count:
        Number of accelerator devices of the platform.
    period, deadline, name:
        As in :class:`~repro.core.task.DagTask`.
    """

    graph: DirectedAcyclicGraph
    device_assignment: dict[NodeId, int] = field(default_factory=dict)
    device_count: int = 1
    period: Optional[float] = None
    deadline: Optional[float] = None
    name: str = "tau_devices"

    def __post_init__(self) -> None:
        if self.device_count < 1:
            raise ValidationError("device_count must be >= 1")
        for node, device in self.device_assignment.items():
            if node not in self.graph:
                raise ValidationError(
                    f"offloaded node {node!r} is not a node of the graph"
                )
            if not 0 <= device < self.device_count:
                raise ValidationError(
                    f"node {node!r} assigned to device {device}, but only "
                    f"{self.device_count} devices exist"
                )
        if self.deadline is None:
            self.deadline = self.period

    @property
    def offloaded_nodes(self) -> set[NodeId]:
        """Every node executed on some accelerator."""
        return set(self.device_assignment)

    def host_volume(self) -> float:
        """Total WCET of the nodes executed on the host."""
        return sum(
            self.graph.wcet(node)
            for node in self.graph.nodes()
            if node not in self.device_assignment
        )

    def device_volume(self, device: Optional[int] = None) -> float:
        """Total WCET offloaded to one device (or to all devices)."""
        return sum(
            self.graph.wcet(node)
            for node, assigned in self.device_assignment.items()
            if device is None or assigned == device
        )

    @property
    def volume(self) -> float:
        """``vol(G)``."""
        return self.graph.volume()

    @property
    def critical_path_length(self) -> float:
        """``len(G)``."""
        return self.graph.critical_path_length()


def balance_devices(
    task: DagTask | MultiDeviceTask,
    offloaded_nodes: Iterable[NodeId],
    device_count: int,
    period: Optional[float] = None,
    deadline: Optional[float] = None,
) -> MultiDeviceTask:
    """Partition offloaded nodes over devices by longest-processing-time first.

    A simple, deterministic heuristic: offloaded nodes are sorted by
    decreasing WCET and each is placed on the currently least-loaded device.

    Parameters
    ----------
    task:
        Source task (only its graph is used).
    offloaded_nodes:
        Nodes to offload.
    device_count:
        Number of available accelerator devices.
    period, deadline:
        Optional timing parameters of the resulting task (default to the
        source task's).
    """
    graph = task.graph.copy()
    nodes = list(offloaded_nodes)
    for node in nodes:
        if node not in graph:
            raise ValidationError(f"offloaded node {node!r} is not part of the task")
    loads = [0.0] * device_count
    assignment: dict[NodeId, int] = {}
    for node in sorted(nodes, key=lambda n: (-graph.wcet(n), repr(n))):
        device = min(range(device_count), key=lambda index: (loads[index], index))
        assignment[node] = device
        loads[device] += graph.wcet(node)
    return MultiDeviceTask(
        graph=graph,
        device_assignment=assignment,
        device_count=device_count,
        period=period if period is not None else task.period,
        deadline=deadline if deadline is not None else task.deadline,
        name=f"{task.name}@devices",
    )


def _max_host_workload_path(task: MultiDeviceTask) -> float:
    """Maximum host workload carried by any path of the DAG."""
    graph = task.graph
    offloaded = task.offloaded_nodes
    best: dict[NodeId, float] = {}
    for node in graph.topological_order():
        weight = 0.0 if node in offloaded else graph.wcet(node)
        incoming = max((best[p] for p in graph.predecessors(node)), default=0.0)
        best[node] = incoming + weight
    return max(best.values(), default=0.0)


def response_time(task: MultiDeviceTask, cores: int) -> ResponseTimeResult:
    """Sound response-time bound for a multi-device task.

    The chain-charging argument yields, for any work-conserving schedule,

    .. math::

        R \\le \\max_\\lambda \\Bigl[ host(\\lambda)\\bigl(1 - \\tfrac1m\\bigr) \\Bigr]
              + \\frac{vol_{host}}{m} + \\sum_d vol_{dev_d}

    where the sum runs over the devices.  Each device's workload enters
    undivided because a stalled offloaded chain node is only ever blocked by
    other work *on its own device*.
    """
    cores = check_cores(cores)
    host_volume = task.host_volume()
    device_volume_total = task.device_volume()
    heaviest_host_path = _max_host_workload_path(task)
    bound = (
        heaviest_host_path * (1.0 - 1.0 / cores)
        + host_volume / cores
        + device_volume_total
    )
    bound = max(bound, task.critical_path_length)
    per_device = {
        f"vol_dev_{device}": task.device_volume(device)
        for device in range(task.device_count)
    }
    return ResponseTimeResult(
        bound=bound,
        method="multi-device",
        scenario=Scenario.NOT_APPLICABLE,
        cores=cores,
        task_name=task.name,
        terms={
            "len": task.critical_path_length,
            "vol": task.volume,
            "vol_host": host_volume,
            "vol_dev": device_volume_total,
            "max_host_path": heaviest_host_path,
            "m": cores,
            "devices": float(task.device_count),
            **per_device,
        },
    )


def simulate_multi_device(
    task: MultiDeviceTask,
    cores: int,
    policy: Optional[SchedulingPolicy] = None,
) -> ExecutionTrace:
    """Simulate a multi-device task on ``m`` host cores plus its devices."""
    from ..simulation.engine import simulate

    platform = Platform(host_cores=cores, accelerators=task.device_count)
    dag_task = DagTask(
        graph=task.graph,
        offloaded_node=None,
        period=task.period,
        deadline=task.deadline,
        name=task.name,
    )
    return simulate(
        dag_task,
        platform,
        policy=policy,
        offload_enabled=True,
        device_assignment=dict(task.device_assignment),
    )
