"""Response-time analyses (the paper's Sections 3.1 and 4).

* :mod:`repro.analysis.homogeneous` -- Equation 1 (the Graham-style bound of
  reference [19], the homogeneous baseline).
* :mod:`repro.analysis.heterogeneous` -- Theorem 1 (Equations 2-4) applied to
  the transformed task, plus the naive unsafe bound of Section 3.2.
* :mod:`repro.analysis.comparison` -- percentage-change helpers used by the
  evaluation figures.
* :mod:`repro.analysis.batch` -- batched analysis of task ensembles,
  transforming each task exactly once.
* :mod:`repro.analysis.schedulability` -- deadline tests, core dimensioning
  and federated task-set partitioning built on top of the bounds.
"""

from .batch import TaskAnalysis, analyse_many
from .comparison import AnalysisComparison, compare, percentage_change, percentage_increment
from .heterogeneous import (
    analyse,
    classify_scenario,
    heterogeneous_response_time,
    naive_unsafe_response_time,
)
from .homogeneous import (
    graph_response_time,
    homogeneous_response_time,
    makespan_lower_bound,
)
from .results import ResponseTimeResult, Scenario
from .schedulability import (
    AnalysisKind,
    FederatedAssignment,
    SchedulabilityResult,
    acceptance_ratio,
    bound_for,
    federated_assignment,
    is_schedulable,
    minimum_cores,
)

__all__ = [
    "ResponseTimeResult",
    "Scenario",
    "homogeneous_response_time",
    "graph_response_time",
    "makespan_lower_bound",
    "heterogeneous_response_time",
    "naive_unsafe_response_time",
    "classify_scenario",
    "analyse",
    "analyse_many",
    "TaskAnalysis",
    "compare",
    "AnalysisComparison",
    "percentage_change",
    "percentage_increment",
    "AnalysisKind",
    "SchedulabilityResult",
    "FederatedAssignment",
    "is_schedulable",
    "minimum_cores",
    "federated_assignment",
    "acceptance_ratio",
    "bound_for",
]
