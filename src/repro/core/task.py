"""Sporadic DAG task model with optional heterogeneous (offloaded) node.

A parallel real-time task is represented, following the paper, by
``tau = <G, T, D>`` where

* ``G = (V, E)`` is a DAG whose nodes carry WCETs.  Nodes run on the host
  processor except for a single *offloaded node* ``v_off`` that executes on
  the accelerator device,
* ``T`` is the minimum inter-arrival time (period), and
* ``D`` is the constrained relative deadline (``D <= T``).

:class:`DagTask` wraps a :class:`~repro.core.graph.DirectedAcyclicGraph`
together with the offloaded-node designation and the timing parameters, and
exposes the DAG metrics (`volume`, `critical path length`, utilisation, ...)
that the response-time analyses consume.  :class:`TaskSet` groups several
tasks for system-level schedulability experiments.
"""

from __future__ import annotations

import math
import sys
from collections.abc import Iterable, Iterator, Mapping
from dataclasses import dataclass, field
from numbers import Integral, Real
from typing import Optional

from .exceptions import ValidationError, short_repr
from .graph import DirectedAcyclicGraph, NodeId

__all__ = ["OFFLOADED_NODE_DEFAULT_ID", "DagTask", "TaskSet", "check_number", "check_seed"]

#: The largest finite float: an integer past it has no float value.
_FLOAT_MAX = sys.float_info.max

#: Conventional identifier used for the offloaded node by generators and
#: worked examples.  Any identifier can be designated as offloaded, this is
#: merely the library-wide default name.
OFFLOADED_NODE_DEFAULT_ID: str = "v_off"


def check_number(
    name: str, value: object, low: float = 0.0, high: float = math.inf, *, strict: bool = False
) -> float:
    """``value`` as a float, if it is a real number, not a boolean, that is
    finite, at least ``low`` (above it when ``strict``) and at most ``high``.

    Raises
    ------
    ValidationError
        Naming ``name``, the interval and the refused value.
    """
    if (
        isinstance(value, bool)
        or not isinstance(value, Real)
        or not -_FLOAT_MAX <= value <= min(high, _FLOAT_MAX)
        or not (low < value if strict else low <= value)
    ):
        raise ValidationError(
            f"{name} must be a finite number in {'(' if strict else '['}{low:g}, "
            f"{high:g}{']' if high < math.inf else ')'}, got {short_repr(value)}"
        )
    return float(value)


def check_seed(name: str, value: object) -> int:
    """``value`` as an ``int``, if it is a seed: an integer >= 0, not a
    boolean (what :class:`numpy.random.SeedSequence` takes).

    Raises :class:`ValidationError` naming ``name``.
    """
    if isinstance(value, bool) or not isinstance(value, Integral) or value < 0:
        raise ValidationError(f"{name} must be an integer >= 0, got {short_repr(value)}")
    return int(value)


@dataclass
class DagTask:
    """A sporadic DAG task, optionally with one offloaded node.

    Parameters
    ----------
    graph:
        The DAG ``G = (V, E)``.  Node weights are WCETs: ``C_i`` for host
        nodes and ``C_off`` for the offloaded node.
    offloaded_node:
        Identifier of the node executed on the accelerator device, or
        ``None`` for a fully homogeneous task.
    period:
        Minimum inter-arrival time ``T``.  ``None`` means "not specified",
        which is convenient for experiments that only look at response
        times.  A given period is a finite number > 0.
    deadline:
        Constrained relative deadline ``D``, a finite number > 0 and at most
        ``T``; defaults to the period.
    name:
        Optional human-readable task name used in reports.
    """

    graph: DirectedAcyclicGraph
    offloaded_node: Optional[NodeId] = None
    period: Optional[float] = None
    deadline: Optional[float] = None
    name: str = "tau"
    metadata: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.offloaded_node is not None and self.offloaded_node not in self.graph:
            raise ValidationError(
                f"offloaded node {self.offloaded_node!r} is not a node of the graph"
            )
        if self.period is not None:
            check_number("period", self.period, strict=True)
        if self.deadline is not None:
            check_number("deadline", self.deadline, strict=True)
        if self.deadline is None:
            self.deadline = self.period
        if (
            self.period is not None
            and self.deadline is not None
            and self.deadline > self.period
        ):
            raise ValidationError(
                f"constrained deadline required: D={self.deadline} > T={self.period}"
            )

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------
    @classmethod
    def from_wcets(
        cls,
        wcets: Mapping[NodeId, float],
        edges: Iterable[tuple[NodeId, NodeId]],
        offloaded_node: Optional[NodeId] = None,
        period: Optional[float] = None,
        deadline: Optional[float] = None,
        name: str = "tau",
    ) -> "DagTask":
        """Build a task directly from a WCET mapping and an edge list."""
        graph = DirectedAcyclicGraph.from_dict(wcets, edges)
        return cls(
            graph=graph,
            offloaded_node=offloaded_node,
            period=period,
            deadline=deadline,
            name=name,
        )

    def copy(self) -> "DagTask":
        """Return a deep copy of the task (the graph is copied as well)."""
        return DagTask(
            graph=self.graph.copy(),
            offloaded_node=self.offloaded_node,
            period=self.period,
            deadline=self.deadline,
            name=self.name,
            metadata=dict(self.metadata),
        )

    def compiled(self):
        """The dense-index :class:`~repro.core.compiled.CompiledTask` view.

        Compiled once per ``(structure, weights)`` generation of the graph
        and cached; the dense simulation core and the batched
        ``simulate_many`` consume this view instead of the object-keyed
        graph.
        """
        return self.graph.compiled()

    # ------------------------------------------------------------------
    # Heterogeneity helpers
    # ------------------------------------------------------------------
    @property
    def is_heterogeneous(self) -> bool:
        """``True`` when the task designates an offloaded node."""
        return self.offloaded_node is not None

    @property
    def offloaded_wcet(self) -> float:
        """``C_off``: the WCET of the offloaded node (``0`` if homogeneous)."""
        if self.offloaded_node is None:
            return 0
        return self.graph.wcet(self.offloaded_node)

    def host_nodes(self) -> list[NodeId]:
        """Identifiers of the nodes executed on the host processor."""
        return [node for node in self.graph.nodes() if node != self.offloaded_node]

    def host_volume(self) -> float:
        """Total WCET of the nodes executed on the host."""
        return self.volume - self.offloaded_wcet

    def offloaded_fraction(self) -> float:
        """``C_off / vol(G)``: fraction of the workload that is offloaded."""
        volume = self.volume
        if volume == 0:
            return 0.0
        return self.offloaded_wcet / volume

    # ------------------------------------------------------------------
    # DAG metrics
    # ------------------------------------------------------------------
    @property
    def volume(self) -> float:
        """``vol(G)``: total WCET of the task."""
        return self.graph.volume()

    @property
    def critical_path_length(self) -> float:
        """``len(G)``: the length of the longest path of the task."""
        return self.graph.critical_path_length()

    def critical_path(self) -> list[NodeId]:
        """One longest path of the task, as a list of node identifiers."""
        return self.graph.critical_path()

    @property
    def node_count(self) -> int:
        """Number of nodes of the DAG (including the offloaded node)."""
        return self.graph.node_count

    def utilisation(self) -> float:
        """``vol(G) / T``; raises if the period is unspecified or zero."""
        if not self.period:
            raise ValidationError(
                f"task {self.name!r} has no period; utilisation is undefined"
            )
        return self.volume / self.period

    def density(self) -> float:
        """``vol(G) / D``; raises if the deadline is unspecified or zero."""
        if not self.deadline:
            raise ValidationError(
                f"task {self.name!r} has no deadline; density is undefined"
            )
        return self.volume / self.deadline

    def parallelism(self) -> float:
        """``vol(G) / len(G)``: the average degree of parallelism of the task."""
        length = self.critical_path_length
        if length == 0:
            return 0.0
        return self.volume / length

    def is_feasible_on_infinite_cores(self) -> bool:
        """``len(G) <= D``: necessary condition for schedulability."""
        if self.deadline is None:
            return True
        return self.critical_path_length <= self.deadline

    # ------------------------------------------------------------------
    # Structural shortcuts used by the analyses
    # ------------------------------------------------------------------
    def predecessors_of_offloaded(self) -> set[NodeId]:
        """``Pred(v_off)``: every node from which ``v_off`` is reachable."""
        if self.offloaded_node is None:
            return set()
        return self.graph.ancestors(self.offloaded_node)

    def successors_of_offloaded(self) -> set[NodeId]:
        """``Succ(v_off)``: every node reachable from ``v_off``."""
        if self.offloaded_node is None:
            return set()
        return self.graph.descendants(self.offloaded_node)

    def parallel_nodes_to_offloaded(self) -> set[NodeId]:
        """``V_par``: nodes that may execute in parallel with ``v_off``.

        Computed exactly as line 14 of Algorithm 1:
        ``V \\ Pred(v_off) \\ Succ(v_off)`` minus the offloaded node itself.
        """
        if self.offloaded_node is None:
            return set()
        others = set(self.graph.nodes())
        others -= self.predecessors_of_offloaded()
        others -= self.successors_of_offloaded()
        others.discard(self.offloaded_node)
        return others

    def offloaded_on_critical_path(self) -> bool:
        """``True`` when ``v_off`` lies on some critical path of ``G``."""
        if self.offloaded_node is None:
            return False
        return self.graph.lies_on_critical_path(self.offloaded_node)

    def with_offloaded_wcet(self, wcet: float) -> "DagTask":
        """Return a copy of the task with ``C_off`` replaced by ``wcet``."""
        if self.offloaded_node is None:
            raise ValidationError(
                f"task {self.name!r} has no offloaded node; cannot set C_off"
            )
        clone = self.copy()
        clone.graph.set_wcet(clone.offloaded_node, wcet)
        return clone

    def with_offloaded_node(self, node_id: Optional[NodeId]) -> "DagTask":
        """Return a copy of the task with a different offloaded designation."""
        clone = self.copy()
        clone.offloaded_node = node_id
        if node_id is not None and node_id not in clone.graph:
            raise ValidationError(
                f"offloaded node {node_id!r} is not a node of the graph"
            )
        return clone

    def as_homogeneous(self) -> "DagTask":
        """Return a copy with no offloaded node (all nodes run on the host)."""
        return self.with_offloaded_node(None)

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        hetero = (
            f", v_off={self.offloaded_node!r} (C_off={self.offloaded_wcet})"
            if self.is_heterogeneous
            else ""
        )
        return (
            f"DagTask(name={self.name!r}, n={self.node_count}, "
            f"vol={self.volume}, len={self.critical_path_length}{hetero})"
        )


@dataclass
class TaskSet:
    """An ordered collection of :class:`DagTask` objects.

    Task sets are used by the schedulability layer
    (:mod:`repro.analysis.schedulability`) to answer system-level questions
    such as "does every task meet its deadline on ``m`` cores under federated
    scheduling?".
    """

    tasks: list[DagTask] = field(default_factory=list)
    name: str = "taskset"

    def add(self, task: DagTask) -> None:
        """Append a task to the set."""
        self.tasks.append(task)

    def __iter__(self) -> Iterator[DagTask]:
        return iter(self.tasks)

    def __len__(self) -> int:
        return len(self.tasks)

    def __getitem__(self, index: int) -> DagTask:
        return self.tasks[index]

    def total_utilisation(self) -> float:
        """Sum of the utilisations of all tasks."""
        return sum(task.utilisation() for task in self.tasks)

    def total_density(self) -> float:
        """Sum of the densities of all tasks."""
        return sum(task.density() for task in self.tasks)

    def hyperperiod(self) -> float:
        """Least common multiple of the task periods (integer periods only)."""
        periods = []
        for task in self.tasks:
            if not task.period:
                raise ValidationError(
                    f"task {task.name!r} has no period; hyperperiod is undefined"
                )
            if task.period != int(task.period):
                raise ValidationError(
                    "hyperperiod is only defined for integer periods"
                )
            periods.append(int(task.period))
        if not periods:
            return 0
        lcm = periods[0]
        for period in periods[1:]:
            lcm = lcm * period // math.gcd(lcm, period)
        return lcm

    def heterogeneous_tasks(self) -> list[DagTask]:
        """Tasks that designate an offloaded node."""
        return [task for task in self.tasks if task.is_heterogeneous]

    def homogeneous_tasks(self) -> list[DagTask]:
        """Tasks without an offloaded node."""
        return [task for task in self.tasks if not task.is_heterogeneous]
