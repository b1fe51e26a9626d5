"""HiGHS-based solver for the time-indexed minimum-makespan ILP.

The paper solves its ILP with IBM CPLEX; this reproduction uses the HiGHS
mixed-integer solver bundled with SciPy (:func:`scipy.optimize.milp`), which
is freely available and returns the same quantity -- the minimum makespan of
a heterogeneous DAG task on ``m`` host cores plus one accelerator -- for the
instance sizes used in the experiments.

Warm start (PR 2)
-----------------
``scipy.optimize.milp`` does not expose HiGHS MIP starts, so the warm start
injects the incumbent through the *model* instead of through the solver:

* the horizon defaults to the best known upper bound -- the better of the
  two list schedules (:func:`repro.ilp.bounds.best_list_schedule`),
  optionally improved by a truncated branch-and-bound probe whose incumbent
  is a genuine schedule and therefore a valid horizon;
* the per-node start windows are tightened to ``[est_i, H - tail_i]``
  (:func:`repro.ilp.formulation.build_formulation`);
* when the upper bound already matches the makespan lower bound the list
  schedule is provably optimal and no MILP is solved at all.

All of this changes model size and solve time only -- never the optimum.
Pass ``warm_start=False`` to reproduce the pre-PR-2 cold model (used by the
cross-oracle property harness so HiGHS genuinely solves every instance).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from ..core.exceptions import SolverError
from ..core.graph import NodeId
from ..core.task import DagTask
from .bounds import best_list_schedule, makespan_lower_bound
from .formulation import TimeIndexedFormulation, _integer_wcets, build_formulation

__all__ = ["IlpSolution", "solve_formulation", "solve_minimum_makespan"]


class _TimeLimitNoSolution(SolverError):
    """HiGHS hit its wall-clock/iteration limit before finding any solution."""


#: State cap of the branch-and-bound probe that improves the warm-start
#: horizon; small enough to be cheap next to any non-trivial MILP solve.
_PROBE_STATE_LIMIT = 5_000


@dataclass
class IlpSolution:
    """Solution of a minimum-makespan ILP instance.

    Attributes
    ----------
    makespan:
        The optimal (or best found, see ``optimal``) makespan.
    start_times:
        Per-node start times decoded from the solution.
    optimal:
        ``True`` when the solver proved optimality within its limits.
    status:
        Raw solver status string, useful for diagnostics.
    variable_count, constraint_count:
        Size of the solved model (``0`` when the warm start proved the list
        schedule optimal and no MILP was built).
    horizon:
        Scheduling horizon of the solved model (``0`` when no MILP was
        built).
    warm_started:
        ``True`` when the model was sized by the warm-start bounds.
    """

    makespan: float
    start_times: dict[NodeId, float]
    optimal: bool
    status: str
    variable_count: int
    constraint_count: int
    horizon: int = 0
    warm_started: bool = False

    def __float__(self) -> float:
        return float(self.makespan)


def solve_formulation(
    formulation: TimeIndexedFormulation,
    time_limit: Optional[float] = None,
    mip_gap: float = 0.0,
) -> IlpSolution:
    """Solve a previously built :class:`TimeIndexedFormulation` with HiGHS.

    Parameters
    ----------
    formulation:
        The MILP instance.
    time_limit:
        Wall-clock limit in seconds handed to HiGHS (``None``: no limit).
    mip_gap:
        Relative optimality gap at which HiGHS may stop early; ``0`` requires
        a proven optimum.

    Raises
    ------
    SolverError
        If HiGHS reports the instance infeasible or returns no solution.
    """
    # Imported here: scipy.optimize costs more to import than the rest of the
    # package together, and only the ILP path needs it.
    from scipy.optimize import Bounds, LinearConstraint, milp

    options: dict[str, object] = {"disp": False}
    if time_limit is not None:
        options["time_limit"] = float(time_limit)
    if mip_gap:
        options["mip_rel_gap"] = float(mip_gap)

    result = milp(
        c=formulation.objective,
        constraints=LinearConstraint(
            formulation.constraints_matrix,
            formulation.constraints_lower,
            formulation.constraints_upper,
        ),
        integrality=formulation.integrality,
        bounds=Bounds(formulation.variable_lower, formulation.variable_upper),
        options=options,
    )
    if result.x is None:
        # scipy.optimize.milp status 1 = iteration or time limit reached;
        # tag that case so callers can distinguish "ran out of budget before
        # any incumbent" (recoverable via a warm-start fallback) from
        # genuine infeasibility or numerical failure (which must stay loud).
        error_type = (
            _TimeLimitNoSolution if result.status == 1 else SolverError
        )
        raise error_type(
            f"HiGHS did not return a solution (status={result.status}, "
            f"message={result.message!r})"
        )
    solution = np.asarray(result.x)
    makespan = float(solution[formulation.makespan_index])
    start_times = formulation.start_times_from_solution(solution)
    # The makespan variable is only lower-bounded by completion times; tighten
    # it to the actual completion time of the decoded schedule.
    actual_makespan = max(
        start_times[node] + formulation.task.graph.wcet(node)
        for node in formulation.task.graph.nodes()
    )
    makespan = min(makespan, actual_makespan) if makespan > 0 else actual_makespan
    return IlpSolution(
        makespan=float(actual_makespan),
        start_times=start_times,
        optimal=bool(result.status == 0),
        status=str(result.message),
        variable_count=formulation.variable_count,
        constraint_count=formulation.constraint_count,
        horizon=formulation.horizon,
    )


def solve_minimum_makespan(
    task: DagTask,
    cores: int,
    accelerators: int = 1,
    horizon: Optional[int] = None,
    time_limit: Optional[float] = None,
    mip_gap: float = 0.0,
    warm_start: bool = True,
) -> IlpSolution:
    """Build and solve the minimum-makespan ILP for a task in one call.

    Parameters
    ----------
    warm_start:
        Size the model with the warm-start bounds (see the module
        docstring): tightened per-node windows, a horizon equal to the best
        known incumbent, and a no-solve short circuit when the incumbent
        matches the lower bound.  ``False`` reproduces the pre-PR-2 cold
        model; an explicitly passed ``horizon`` always wins over the
        warm-start horizon.
    """
    if not warm_start:
        formulation = build_formulation(
            task, cores, accelerators, horizon, tighten_windows=False
        )
        return solve_formulation(formulation, time_limit=time_limit, mip_gap=mip_gap)

    # The warm path must honour the same contract as the cold model even
    # when it short-circuits before building a formulation.
    if cores < 1:
        raise SolverError(f"cores must be >= 1, got {cores}")
    if accelerators < 0:
        raise SolverError(f"accelerators must be >= 0, got {accelerators}")
    _integer_wcets(task)

    upper, upper_starts = best_list_schedule(task, cores, accelerators)
    lower = makespan_lower_bound(task, cores, accelerators)
    if horizon is None and upper <= lower + 1e-9:
        # The list schedule matches the lower bound: provably optimal, and
        # the witnessing schedule is already in hand.
        return IlpSolution(
            makespan=float(upper),
            start_times={node: float(s) for node, s in upper_starts.items()},
            optimal=True,
            status="warm start: list schedule matches the lower bound "
            "(no MILP solved)",
            variable_count=0,
            constraint_count=0,
            warm_started=True,
        )

    best_makespan, best_starts = upper, upper_starts
    if horizon is None:
        # A truncated branch-and-bound probe often finds a better incumbent;
        # its schedule is feasible, so its makespan is a valid horizon.  The
        # probe only shrinks the model -- HiGHS still solves the instance,
        # keeping the two oracles independent.
        from .branch_and_bound import _MAX_NODES, branch_and_bound_makespan

        busy = sum(1 for node in task.graph.nodes() if task.graph.wcet(node) > 0)
        if busy <= _MAX_NODES:
            probe = branch_and_bound_makespan(
                task,
                cores,
                accelerators,
                state_limit=_PROBE_STATE_LIMIT,
                _seed_bounds=(upper, upper_starts, lower),
            )
            if probe.makespan < best_makespan:
                best_makespan, best_starts = probe.makespan, probe.start_times
    incumbent = int(round(best_makespan))

    formulation = build_formulation(
        task,
        cores,
        accelerators,
        horizon if horizon is not None else incumbent,
        tighten_windows=True,
    )
    try:
        solution = solve_formulation(formulation, time_limit=time_limit, mip_gap=mip_gap)
    except _TimeLimitNoSolution:
        if time_limit is None or horizon is not None:
            # Without a limit the failure is genuine; with a caller-supplied
            # horizon the model can be legitimately infeasible (the horizon
            # may undercut the optimum), so the error must surface.  (Other
            # SolverErrors -- infeasibility, numerical failure -- are never
            # caught here: they must stay loud.)
            raise
        # The model was built on our own incumbent horizon, which the
        # warm-start schedule satisfies -- the formulation is feasible by
        # construction and the only way HiGHS comes back empty-handed is a
        # tripped wall-clock limit before it found any solution (hard
        # instances at large WCET horizons).  Degrade to the warm-start
        # schedule instead of failing the whole batch -- mirroring how a
        # tripped limit with an incumbent already returns a sub-optimal
        # result.  Callers see ``optimal=False`` and the schedule still
        # passes :func:`repro.ilp.makespan.verify_schedule`.
        return IlpSolution(
            makespan=float(best_makespan),
            start_times={node: float(s) for node, s in best_starts.items()},
            optimal=False,
            status=(
                "time limit reached before HiGHS produced a solution; "
                "returning the warm-start incumbent"
            ),
            variable_count=formulation.variable_count,
            constraint_count=formulation.constraint_count,
            horizon=formulation.horizon,
            warm_started=True,
        )
    solution.warm_started = True
    return solution
