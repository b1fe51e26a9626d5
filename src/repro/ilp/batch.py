"""Batched exact-makespan oracle over task ensembles.

Figure 7, the ILP ablation and the service's ``/makespan`` evaluate the
exact oracles over *batches* of ``(task, m)`` instances.  Paired ``C_off``
sweeps re-pin the offloaded WCET on the *same* structures, so distinct
sweep points regularly collapse onto identical instances (small fractions
all clamp to the ``minimum_wcet`` floor).  :func:`minimum_makespans_many`
is the one path through the oracles:

* instances are canonicalised into a structural key (WCETs, edges,
  offloaded designation, platform, solver settings) and **deduplicated
  before any work is dispatched** -- each unique instance is solved exactly
  once per batch;
* one :func:`repro.parallel.parallel_map` call solves the unique
  instances, serially or in a process pool, preserving the library-wide
  determinism contract: the oracles are exact and deterministic, so
  ``jobs=N`` is bit-identical to the serial path;
* each instance checks the batch's time budget when it is taken up: it
  degrades to the verified bound sandwich once the budget is spent, and
  otherwise the remaining budget caps its solver's time limit.

Nothing is kept between batches: across requests, the service's
fingerprint-keyed :class:`~repro.service.cache.ResultCache` is the one
store of an oracle answer.
"""

from __future__ import annotations

from typing import Iterable, Optional

from ..core.task import DagTask
from ..parallel import parallel_map
from ..resilience import CircuitBreaker, Deadline, fault_point
from .makespan import (
    MakespanMethod,
    MakespanResult,
    degraded_makespan_result,
    minimum_makespan,
)

__all__ = ["minimum_makespans_many"]


def _instance_key(
    task: DagTask,
    cores: int,
    accelerators: int,
    method: MakespanMethod,
    time_limit: Optional[float],
    warm_start: bool,
) -> tuple:
    """Canonical structural key of one oracle instance.

    Node identifiers enter by ``repr``, so identifiers that compare equal
    across types (``1`` and ``1.0``) stay apart, and insertion order keeps
    the key deterministic for the paired sweeps (re-pinned copies share
    the construction order).
    """
    graph = task.graph
    return (
        tuple((repr(node), graph.wcet(node)) for node in graph.nodes()),
        tuple((repr(src), repr(dst)) for src, dst in graph.edges()),
        repr(task.offloaded_node),
        cores,
        accelerators,
        method.value,
        time_limit,
        warm_start,
    )


def _solve_one(
    args: tuple[DagTask, int, int, MakespanMethod, Optional[float], bool, Deadline]
) -> MakespanResult:
    """Worker: solve one deduplicated instance within the batch budget.

    The budget is checked when the instance is taken up, so no solve
    starts after it is spent; a solve that started in time is capped by
    what is left (a running solver cannot be preempted).
    """
    task, cores, accelerators, method, time_limit, warm_start, deadline = args
    if deadline.expired:
        return degraded_makespan_result(
            task, cores, accelerators, method=method, reason="budget-exhausted"
        )
    time_limit = deadline.cap(time_limit)
    fault_point("oracle.solve")
    return minimum_makespan(
        task,
        cores,
        accelerators,
        method=method,
        time_limit=time_limit,
        warm_start=warm_start,
    )


def minimum_makespans_many(
    tasks: Iterable[DagTask],
    cores: int,
    accelerators: int = 1,
    method: MakespanMethod = MakespanMethod.AUTO,
    time_limit: Optional[float] = None,
    jobs: Optional[int] = None,
    warm_start: bool = True,
    budget: Optional[float] = None,
    breaker: Optional[CircuitBreaker] = None,
) -> list[MakespanResult]:
    """Exact minimum makespans of a batch of tasks on ``m`` cores + device.

    Parameters
    ----------
    tasks:
        The tasks to solve (order is preserved in the result).
    cores, accelerators, method, time_limit, warm_start:
        Passed through to :func:`repro.ilp.makespan.minimum_makespan`
        (``warm_start=False`` forces genuine cold HiGHS solves, e.g. for
        oracle cross-checks).
    jobs:
        Worker-process count for the unique instances; ``None``/``0``/``1``
        run serially.  Results are bit-identical to the serial path.
    budget:
        Wall-clock seconds for the *whole batch*.  Each instance checks it
        when it is taken up (between instances serially, as a worker
        starts it in the pool): the remaining budget caps its solver's
        ``time_limit``, and an instance taken up after the budget is spent
        falls back to the verified bound sandwich
        (:func:`~repro.ilp.makespan.degraded_makespan_result`) and comes
        back flagged ``degraded=True``.  ``None`` (the default) keeps the
        unbudgeted behaviour bit-identical.
    breaker:
        Optional :class:`~repro.resilience.CircuitBreaker` guarding the
        exact engines.  While open, the batch degrades immediately (no
        solver is invoked); a batch with any degradation or an engine
        exception records a failure, a fully exact batch records a success.
        An empty batch leaves it untouched.

    Returns
    -------
    list[MakespanResult]
        One result per task, aligned with the input order.  Duplicated
        instances share one result object.
    """
    task_list = list(tasks)
    keys = [
        _instance_key(task, cores, accelerators, method, time_limit, warm_start)
        for task in task_list
    ]
    deadline = Deadline.after(budget)
    unique: dict[tuple, DagTask] = {}
    for key, task in zip(keys, task_list):
        unique.setdefault(key, task)
    if not unique:
        return []

    if breaker is not None and not breaker.allow():
        solutions = [
            degraded_makespan_result(
                task, cores, accelerators, method=method, reason="breaker-open"
            )
            for task in unique.values()
        ]
    else:
        work = [
            (task, cores, accelerators, method, time_limit, warm_start, deadline)
            for task in unique.values()
        ]
        try:
            solutions = parallel_map(_solve_one, work, jobs=jobs)
        except BaseException:
            if breaker is not None:
                breaker.record_failure()
            raise
        if breaker is not None:
            if any(solution.degraded for solution in solutions):
                breaker.record_failure()
            else:
                breaker.record_success()

    resolved = dict(zip(unique, solutions))
    return [resolved[key] for key in keys]
