"""Extension: DAG tasks with several offloaded nodes (paper future work (i)).

The paper's conclusions announce, as future work, support for "more tasks
assigned to the accelerator device".  This module provides a sound
response-time analysis and simulation support for that generalisation: a DAG
task in which a *set* of nodes is offloaded, all sharing the single
accelerator device (see :mod:`repro.extensions.multi_device` for several
devices).

Why Equation 1 stops being safe
-------------------------------
The classical bound ``R_hom = len(G) + (vol(G) - len(G))/m`` is proven by
charging every instant at which the chain under analysis is *not* executing
to ``m`` busy host cores.  With a single offloaded node that argument still
holds (the offloaded node never waits for its device).  With several
offloaded nodes it breaks: a chain node that is ready to run on the
accelerator may wait because the accelerator is busy with *another* offloaded
node while every host core idles, and that waiting time is *not* divided by
``m``.  ``tests/test_extensions.py`` exhibits a task whose simulated
makespan exceeds Equation 1 for exactly this reason.

The generalised bound
---------------------
Let ``host(lambda)`` (resp. ``dev(lambda)``) be the host (resp. offloaded)
workload of a path ``lambda``.  Following the same chain-charging argument,
any work-conserving schedule satisfies, for the chain ``lambda`` ending at
the last completion:

.. math::

    R \\le len(\\lambda)
        + \\frac{vol_{host}(G) - host(\\lambda)}{m}
        + \\bigl(vol_{dev}(G) - dev(\\lambda)\\bigr)

because an instant where the next chain node stalls has either all ``m``
cores busy with other host work, or the accelerator busy with other offloaded
work.  Since ``len(lambda) = host(lambda) + dev(lambda)`` the right-hand side
equals ``host(lambda)(1 - 1/m) + vol_host/m + vol_dev``, which is maximised
by the path with the largest *host* workload.  :func:`response_time`
computes exactly that maximum (a weighted longest path).  For a single
offloaded node the bound degenerates to
``R_hom`` with ``C_off`` moved out of the divided term, i.e. it is never
looser than Equation 2 evaluated on the original graph.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Optional

from ..analysis.homogeneous import check_cores
from ..analysis.results import ResponseTimeResult, Scenario
from ..core.exceptions import ValidationError
from ..core.graph import DirectedAcyclicGraph, NodeId
from ..core.task import DagTask
from ..simulation.platform import Platform
from ..simulation.schedulers import SchedulingPolicy
from ..simulation.trace import ExecutionTrace

__all__ = ["MultiOffloadTask", "response_time", "simulate_multi_offload"]


@dataclass
class MultiOffloadTask:
    """A sporadic DAG task with a set of offloaded nodes on one accelerator.

    Attributes
    ----------
    graph:
        The DAG; node weights are WCETs.
    offloaded_nodes:
        The nodes executed on the accelerator device.  They share the single
        device, hence they serialise among themselves.
    period, deadline, name:
        As in :class:`~repro.core.task.DagTask`.
    """

    graph: DirectedAcyclicGraph
    offloaded_nodes: set[NodeId] = field(default_factory=set)
    period: Optional[float] = None
    deadline: Optional[float] = None
    name: str = "tau_multi"

    def __post_init__(self) -> None:
        self.offloaded_nodes = set(self.offloaded_nodes)
        for node in self.offloaded_nodes:
            if node not in self.graph:
                raise ValidationError(
                    f"offloaded node {node!r} is not a node of the graph"
                )
        if self.deadline is None:
            self.deadline = self.period

    @classmethod
    def from_task(cls, task: DagTask, extra_offloaded: Iterable[NodeId] = ()) -> "MultiOffloadTask":
        """Promote a single-offload task, optionally offloading more nodes."""
        offloaded = set(extra_offloaded)
        if task.offloaded_node is not None:
            offloaded.add(task.offloaded_node)
        return cls(
            graph=task.graph.copy(),
            offloaded_nodes=offloaded,
            period=task.period,
            deadline=task.deadline,
            name=task.name,
        )

    def as_dag_task(self) -> DagTask:
        """Return the underlying task with *no* offload designation.

        Used to drive the simulator, which receives the offload set through
        its ``device_assignment`` parameter instead.
        """
        return DagTask(
            graph=self.graph,
            offloaded_node=None,
            period=self.period,
            deadline=self.deadline,
            name=self.name,
        )

    # ------------------------------------------------------------------
    # Workload accounting
    # ------------------------------------------------------------------
    def host_volume(self) -> float:
        """Total WCET of the nodes executed on the host."""
        return sum(
            self.graph.wcet(node)
            for node in self.graph.nodes()
            if node not in self.offloaded_nodes
        )

    def device_volume(self) -> float:
        """Total WCET of the offloaded nodes, summed in graph order (a set's
        order depends on hashing, and so would the float)."""
        return sum(
            self.graph.wcet(node)
            for node in self.graph.nodes()
            if node in self.offloaded_nodes
        )

    @property
    def volume(self) -> float:
        """``vol(G)``."""
        return self.graph.volume()

    @property
    def critical_path_length(self) -> float:
        """``len(G)``."""
        return self.graph.critical_path_length()


def _max_host_workload_path(task: MultiOffloadTask) -> float:
    """Maximum host workload carried by any source-to-sink path.

    Dynamic programming over a topological order with node weights equal to
    the WCET for host nodes and ``0`` for offloaded nodes.
    """
    graph = task.graph
    best: dict[NodeId, float] = {}
    for node in graph.topological_order():
        weight = 0.0 if node in task.offloaded_nodes else graph.wcet(node)
        incoming = max((best[p] for p in graph.predecessors(node)), default=0.0)
        best[node] = incoming + weight
    return max(best.values(), default=0.0)


def response_time(task: MultiOffloadTask, cores: int) -> ResponseTimeResult:
    """Sound response-time bound for a multi-offload task (see module docs).

    The bound is

    ``max over paths lambda of host(lambda) * (1 - 1/m) + vol_host/m + vol_dev``

    and is valid for every work-conserving schedule in which offloaded nodes
    execute on the (single) accelerator and host nodes on the ``m`` cores.
    """
    cores = check_cores(cores)
    host_volume = task.host_volume()
    device_volume = task.device_volume()
    heaviest_host_path = _max_host_workload_path(task)
    bound = (
        heaviest_host_path * (1.0 - 1.0 / cores)
        + host_volume / cores
        + device_volume
    )
    # The bound can never be smaller than the critical path itself; taking the
    # maximum costs nothing and guards the degenerate all-offloaded case.
    bound = max(bound, task.critical_path_length)
    return ResponseTimeResult(
        bound=bound,
        method="multi-offload",
        scenario=Scenario.NOT_APPLICABLE,
        cores=cores,
        task_name=task.name,
        terms={
            "len": task.critical_path_length,
            "vol": task.volume,
            "vol_host": host_volume,
            "vol_dev": device_volume,
            "max_host_path": heaviest_host_path,
            "m": cores,
        },
    )


def simulate_multi_offload(
    task: MultiOffloadTask,
    cores: int,
    policy: Optional[SchedulingPolicy] = None,
) -> ExecutionTrace:
    """Simulate a multi-offload task on ``m`` cores plus one accelerator.

    All offloaded nodes are assigned to accelerator ``0``; they serialise on
    it, which is exactly the behaviour the generalised bound accounts for.
    """
    from ..simulation.engine import simulate

    platform = Platform(host_cores=cores, accelerators=1)
    assignment = {node: 0 for node in task.offloaded_nodes}
    return simulate(
        task.as_dag_task(),
        platform,
        policy=policy,
        offload_enabled=True,
        device_assignment=assignment,
    )
