"""Unified minimum-makespan interface.

Experiments (Figure 7) need "the minimum makespan of this task on ``m`` cores
plus one accelerator" without caring which engine computed it.
:func:`minimum_makespan` dispatches between the HiGHS time-indexed ILP and
the exact branch-and-bound search and returns a homogeneous result object,
including a validation step that replays the produced start times as a
schedule and checks their legality.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Optional

from ..core.exceptions import SolverError, short_repr
from ..core.graph import NodeId
from ..core.task import DagTask
from .bounds import best_list_schedule, makespan_lower_bound
from .branch_and_bound import branch_and_bound_makespan
from .solver import solve_minimum_makespan

__all__ = [
    "MakespanMethod",
    "MakespanResult",
    "minimum_makespan",
    "degraded_makespan_result",
    "verify_schedule",
]


class MakespanMethod(enum.Enum):
    """Which optimal-makespan engine to use."""

    ILP = "ilp"
    BRANCH_AND_BOUND = "bnb"
    #: ILP for anything but tiny tasks, branch-and-bound for <= 12 nodes.
    AUTO = "auto"

    @classmethod
    def _missing_(cls, value: object) -> None:
        valid = ", ".join(repr(method.value) for method in cls)
        raise ValueError(f"method must be one of {valid}, got {short_repr(value)}")


@dataclass
class MakespanResult:
    """Minimum makespan of a task together with a witnessing schedule.

    ``engine_stats`` records the cost of the solve: ``explored_states``,
    ``memo_hits`` and ``engine`` for the branch-and-bound,
    ``variables``/``constraints``/``horizon``/``warm_started`` for the ILP.

    ``degraded`` marks a result produced by the bound-sandwich fallback
    (:func:`degraded_makespan_result`) when the exact engines were skipped
    -- time budget exhausted or circuit breaker open.  A degraded makespan
    is a *verified upper bound*, not the optimum, and must never be cached
    or reported as exact.
    """

    makespan: float
    start_times: dict[NodeId, float]
    method: MakespanMethod
    optimal: bool
    cores: int
    accelerators: int
    engine_stats: dict = field(default_factory=dict)
    degraded: bool = False

    def __float__(self) -> float:
        return float(self.makespan)


def verify_schedule(
    task: DagTask,
    start_times: dict[NodeId, float],
    cores: int,
    accelerators: int = 1,
) -> None:
    """Check that a start-time assignment is a legal heterogeneous schedule.

    Raises
    ------
    SolverError
        On missing nodes, precedence violations or capacity violations.
    """
    graph = task.graph
    missing = set(graph.nodes()) - set(start_times)
    if missing:
        raise SolverError(f"schedule misses nodes {sorted(map(repr, missing))}")
    for src, dst in graph.edges():
        if start_times[dst] + 1e-9 < start_times[src] + graph.wcet(src):
            raise SolverError(
                f"precedence ({src!r}, {dst!r}) violated in schedule"
            )
    offloaded = task.offloaded_node if accelerators > 0 else None

    def check_capacity(node_ids: list[NodeId], capacity: int, label: str) -> None:
        intervals = [
            (start_times[node], start_times[node] + graph.wcet(node))
            for node in node_ids
            if graph.wcet(node) > 0
        ]
        boundaries = sorted({start for start, _ in intervals})
        for point in boundaries:
            overlap = sum(1 for start, end in intervals if start <= point < end)
            if overlap > capacity:
                raise SolverError(
                    f"{label} capacity {capacity} exceeded at time {point}"
                )

    check_capacity(
        [node for node in graph.nodes() if node != offloaded], cores, "host"
    )
    if offloaded is not None:
        check_capacity([offloaded], max(accelerators, 1), "accelerator")


def minimum_makespan(
    task: DagTask,
    cores: int,
    accelerators: int = 1,
    method: MakespanMethod = MakespanMethod.AUTO,
    time_limit: Optional[float] = None,
    mip_gap: float = 0.0,
    warm_start: bool = True,
) -> MakespanResult:
    """Minimum makespan of a heterogeneous DAG task on ``m`` cores + device.

    Parameters
    ----------
    task:
        The task (integer WCETs required).
    cores:
        Number of identical host cores ``m``.
    accelerators:
        Number of accelerator devices.
    method:
        ``ILP`` (HiGHS), ``BRANCH_AND_BOUND`` or ``AUTO``.
    time_limit, mip_gap:
        ``time_limit`` bounds the wall-clock of *either* engine (HiGHS
        option, or the branch-and-bound's periodic deadline check);
        ``mip_gap`` applies to the ILP only.  When a limit truncates the
        solve the result may be sub-optimal; ``optimal`` reflects it.
    warm_start:
        Passed through to the ILP solver; ``False`` forces the cold
        (pre-PR-2) model so HiGHS genuinely solves the instance -- required
        when the result serves as an *independent* cross-check of the
        branch-and-bound (both warm-start ingredients are shared with it).
    """
    if method is MakespanMethod.AUTO:
        busy = sum(1 for node in task.graph.nodes() if task.graph.wcet(node) > 0)
        method = (
            MakespanMethod.BRANCH_AND_BOUND if busy <= 12 else MakespanMethod.ILP
        )

    if method is MakespanMethod.BRANCH_AND_BOUND:
        result = branch_and_bound_makespan(
            task, cores, accelerators, time_limit=time_limit
        )
        makespan = result.makespan
        starts = result.start_times
        optimal = result.optimal
        stats = {
            "engine": result.engine,
            "explored_states": result.explored_states,
            "memo_hits": result.memo_hits,
        }
    else:
        solution = solve_minimum_makespan(
            task,
            cores,
            accelerators,
            time_limit=time_limit,
            mip_gap=mip_gap,
            warm_start=warm_start,
        )
        makespan = solution.makespan
        starts = solution.start_times
        optimal = solution.optimal
        stats = {
            "variables": solution.variable_count,
            "constraints": solution.constraint_count,
            "horizon": solution.horizon,
            "warm_started": solution.warm_started,
        }

    verify_schedule(task, starts, cores, accelerators)
    lower = makespan_lower_bound(task, cores, accelerators)
    if makespan < lower - 1e-6:
        raise SolverError(
            f"solver returned makespan {makespan} below the lower bound {lower}"
        )
    return MakespanResult(
        makespan=float(makespan),
        start_times=starts,
        method=method,
        optimal=optimal,
        cores=cores,
        accelerators=accelerators,
        engine_stats=stats,
    )


def degraded_makespan_result(
    task: DagTask,
    cores: int,
    accelerators: int = 1,
    method: MakespanMethod = MakespanMethod.AUTO,
    reason: str = "budget-exhausted",
) -> MakespanResult:
    """Bound-sandwich fallback when the exact engines cannot be run.

    Produces a *verified* answer in list-scheduling time: the makespan is
    the best concrete list schedule (a feasible upper bound, replayed
    through :func:`verify_schedule` like every exact result), and
    ``engine_stats`` carries the sandwich -- ``lower_bound`` from
    :func:`makespan_lower_bound` and ``upper_bound`` equal to the returned
    makespan -- so callers can see exactly how loose the degradation is.
    The result is flagged ``degraded=True`` and ``optimal=False``; the
    service layer refuses to cache it as exact.
    """
    upper, starts = best_list_schedule(task, cores, accelerators)
    verify_schedule(task, starts, cores, accelerators)
    lower = makespan_lower_bound(task, cores, accelerators)
    return MakespanResult(
        makespan=float(upper),
        start_times=starts,
        method=method,
        optimal=False,
        cores=cores,
        accelerators=accelerators,
        engine_stats={
            "engine": "degraded-bounds",
            "lower_bound": float(lower),
            "upper_bound": float(upper),
            "reason": reason,
        },
        degraded=True,
    )
