"""Makespan lower and upper bounds used by the exact solvers.

Both the time-indexed ILP (which needs a finite horizon) and the
branch-and-bound search (which needs pruning bounds) rely on cheap bounds on
the minimum makespan of a heterogeneous DAG task on ``m`` host cores plus one
accelerator:

* :func:`makespan_lower_bound` -- the maximum of the critical-path bound, the
  host load bound and the accelerator load bound; no schedule can beat it;
* :func:`list_schedule_upper_bound` -- the makespan of a concrete
  work-conserving schedule (critical-path-first list scheduling), which the
  optimal makespan can never exceed.
"""

from __future__ import annotations

from ..analysis.homogeneous import makespan_lower_bound
from ..core.graph import NodeId
from ..core.task import DagTask
from ..simulation.platform import Platform
from ..simulation.schedulers import BreadthFirstPolicy, CriticalPathFirstPolicy

__all__ = [
    "makespan_lower_bound",
    "list_schedule_upper_bound",
    "best_list_schedule",
]


def best_list_schedule(
    task: DagTask, cores: int, accelerators: int = 1
) -> tuple[float, dict[NodeId, float]]:
    """Best concrete list schedule: ``(makespan, start times)``.

    Two list schedules are evaluated -- critical-path-first and
    breadth-first -- and the one with the smaller makespan is returned
    together with its per-node start times.  The schedule doubles as the
    initial incumbent of the branch-and-bound search and as the warm-start
    upper bound that sizes the time-indexed ILP (horizon and per-node slot
    windows), which is why the witnessing start times matter and not just
    the makespan.
    """
    from ..simulation.engine import simulate

    platform = Platform(host_cores=cores, accelerators=accelerators)
    offload = task.is_heterogeneous and accelerators > 0
    best: tuple[float, dict[NodeId, float]] | None = None
    for policy in (CriticalPathFirstPolicy(), BreadthFirstPolicy()):
        trace = simulate(task, platform, policy, offload_enabled=offload)
        makespan = trace.makespan()
        if best is None or makespan < best[0]:
            best = (
                makespan,
                {record.node: record.start for record in trace.executions},
            )
    assert best is not None
    return best


def list_schedule_upper_bound(
    task: DagTask, cores: int, accelerators: int = 1
) -> float:
    """Makespan of a concrete work-conserving schedule (upper bound).

    Two list schedules are evaluated -- critical-path-first and
    breadth-first -- and the smaller makespan is returned; the optimum can
    only be smaller or equal.
    """
    return best_list_schedule(task, cores, accelerators)[0]
