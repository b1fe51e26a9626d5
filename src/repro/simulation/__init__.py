"""Heterogeneous scheduling simulator (the paper's Section 5.2 methodology).

* :mod:`repro.simulation.platform` -- host + accelerator platform model;
* :mod:`repro.simulation.schedulers` -- work-conserving ready-queue policies,
  including the GOMP-style breadth-first policy used by the paper;
* :mod:`repro.simulation.engine` -- the discrete-event list scheduler
  (trace-producing reference implementation);
* :mod:`repro.simulation.dense` -- the trace-free dense-index fast path
  (bit-identical makespans, no ``NodeExecution`` churn);
* :mod:`repro.simulation.batch` -- batched ``simulate_many`` over
  task x platform x policy grids with one compile per task; each policy
  column with a priority family runs as the lanes of one call of the
  compiled C kernel (bit-identical makespans, the default where a C
  compiler is available), packed by
  :mod:`repro.simulation.vectorized_compiled`;
* :mod:`repro.simulation.trace` -- execution traces with legality validation;
* :mod:`repro.simulation.worst_case` -- exhaustive / randomised worst-case
  makespan search over work-conserving schedules;
* :mod:`repro.simulation.metrics` -- aggregate statistics over trace batches;
* :mod:`repro.simulation.workload` -- online multi-instance workloads: job
  streams with release times contending for one shared platform.
"""

from .batch import simulate_many
from .dense import simulate_makespan_dense
from .engine import simulate, simulate_makespan
from .metrics import TraceStatistics, average_makespan, speedup, summarise_traces
from .platform import ACCELERATOR, HOST, INSTANT, Platform
from .schedulers import (
    BreadthFirstPolicy,
    CriticalPathFirstPolicy,
    DepthFirstPolicy,
    FixedPriorityPolicy,
    LongestFirstPolicy,
    RandomPolicy,
    SchedulingPolicy,
    ShortestFirstPolicy,
    policy_by_name,
)
from .trace import ExecutionTrace, NodeExecution
from .workload import (
    JobInstance,
    JobStream,
    WorkloadResult,
    build_workload,
    simulate_workload,
    simulate_workload_reference,
)
from .worst_case import WorstCaseResult, exhaustive_worst_case, randomised_worst_case

__all__ = [
    "Platform",
    "HOST",
    "ACCELERATOR",
    "INSTANT",
    "simulate",
    "simulate_makespan",
    "simulate_makespan_dense",
    "simulate_many",
    "ExecutionTrace",
    "NodeExecution",
    "SchedulingPolicy",
    "BreadthFirstPolicy",
    "DepthFirstPolicy",
    "CriticalPathFirstPolicy",
    "ShortestFirstPolicy",
    "LongestFirstPolicy",
    "RandomPolicy",
    "FixedPriorityPolicy",
    "policy_by_name",
    "JobInstance",
    "JobStream",
    "WorkloadResult",
    "build_workload",
    "simulate_workload",
    "simulate_workload_reference",
    "WorstCaseResult",
    "exhaustive_worst_case",
    "randomised_worst_case",
    "TraceStatistics",
    "summarise_traces",
    "average_makespan",
    "speedup",
]
