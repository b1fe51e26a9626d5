"""Optimal (minimum) makespan computation for heterogeneous DAG tasks.

The paper compares its response-time bounds against the minimum makespan
returned by a CPLEX ILP (reference [13]'s formulation).  This subpackage
reproduces that oracle with freely available components:

* :mod:`repro.ilp.formulation` -- the time-indexed MILP;
* :mod:`repro.ilp.solver` -- the HiGHS (SciPy) backend;
* :mod:`repro.ilp.branch_and_bound` -- an independent exact search used to
  cross-check the ILP on small instances;
* :mod:`repro.ilp.bounds` -- cheap lower/upper bounds shared by both;
* :mod:`repro.ilp.makespan` -- the unified entry point
  :func:`~repro.ilp.makespan.minimum_makespan`;
* :mod:`repro.ilp.batch` -- the batched, deduplicating ensemble oracle
  :func:`~repro.ilp.batch.minimum_makespans_many`, the one path figure 7,
  the ILP ablation and the service's ``/makespan`` take.
"""

from .batch import minimum_makespans_many
from .bounds import best_list_schedule, list_schedule_upper_bound, makespan_lower_bound
from .branch_and_bound import BranchAndBoundResult, branch_and_bound_makespan
from .formulation import TimeIndexedFormulation, build_formulation
from .makespan import MakespanMethod, MakespanResult, minimum_makespan, verify_schedule
from .solver import IlpSolution, solve_formulation, solve_minimum_makespan

__all__ = [
    "makespan_lower_bound",
    "list_schedule_upper_bound",
    "best_list_schedule",
    "minimum_makespans_many",
    "TimeIndexedFormulation",
    "build_formulation",
    "IlpSolution",
    "solve_formulation",
    "solve_minimum_makespan",
    "BranchAndBoundResult",
    "branch_and_bound_makespan",
    "MakespanMethod",
    "MakespanResult",
    "minimum_makespan",
    "verify_schedule",
]
