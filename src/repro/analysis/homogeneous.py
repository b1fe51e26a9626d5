"""Homogeneous response-time analysis (Equation 1 of the paper).

This is the classical Graham-style bound for a DAG task executed by a
work-conserving scheduler on ``m`` identical cores, as used by
Serrano et al. (CASES 2015, reference [19] of the paper):

.. math::

    R_{hom}(\\tau) = len(G) + \\frac{1}{m}\\bigl(vol(G) - len(G)\\bigr)

The second term upper-bounds the *self-interference*: the workload of the
task itself that can delay its own critical path.  The heterogeneous analysis
of Theorem 1 (:mod:`repro.analysis.heterogeneous`) refines exactly this term.

The module exposes the bound both for full tasks (:func:`response_time`) and
for bare sub-DAGs (:func:`graph_response_time`), because Theorem 1 needs
``R_hom(G_par)`` for the parallel sub-DAG, which is not a task by itself.
"""

from __future__ import annotations

from numbers import Integral

from ..core.exceptions import AnalysisError, short_repr
from ..core.graph import DirectedAcyclicGraph
from ..core.task import DagTask
from .results import ResponseTimeResult, Scenario

__all__ = [
    "check_cores",
    "graph_response_time",
    "response_time",
    "homogeneous_response_time",
    "makespan_lower_bound",
]


def check_cores(cores: object) -> int:
    """``cores`` as an ``int``, if it is a host-core count ``m``: an integer
    >= 1, never a ``bool``.  Every analysis checks its ``m`` here."""
    if isinstance(cores, bool) or not isinstance(cores, Integral) or cores < 1:
        raise AnalysisError(f"cores must be a positive integer, got {short_repr(cores)}")
    return int(cores)


def graph_response_time(graph: DirectedAcyclicGraph, cores: int) -> float:
    """Equation 1 applied to a bare DAG structure.

    Parameters
    ----------
    graph:
        The DAG.  It may have several sources/sinks (e.g. ``G_par``); the
        bound only depends on ``len`` and ``vol``.
    cores:
        Number of identical host cores ``m``.

    Returns
    -------
    float
        ``len(G) + (vol(G) - len(G)) / m``.  The empty graph yields ``0``.
    """
    cores = check_cores(cores)
    if graph.node_count == 0:
        return 0.0
    length = graph.critical_path_length()
    volume = graph.volume()
    return length + (volume - length) / cores


def response_time(task: DagTask, cores: int) -> ResponseTimeResult:
    """Equation 1 applied to a task, returning a detailed result object.

    The bound treats every node -- including a possible offloaded node -- as
    if it executed on the host, which is exactly how the paper uses
    ``R_hom(tau)`` as the homogeneous baseline.
    """
    cores = check_cores(cores)
    graph = task.graph
    length = graph.critical_path_length()
    volume = graph.volume()
    interference = (volume - length) / cores
    return ResponseTimeResult(
        bound=length + interference,
        method="hom",
        scenario=Scenario.NOT_APPLICABLE,
        cores=cores,
        task_name=task.name,
        terms={
            "len": length,
            "vol": volume,
            "interference": interference,
            "m": cores,
        },
    )


#: Backwards-compatible alias matching the paper's notation ``R_hom``.
homogeneous_response_time = response_time


def makespan_lower_bound(task: DagTask, cores: int, accelerators: int = 1) -> float:
    """A lower bound on the makespan of any schedule of the task.

    Used to sanity-check simulators and to bound the exact solvers
    (:mod:`repro.ilp`):

    * no schedule can finish before the critical path completes,
    * the host workload cannot be processed faster than ``m`` cores allow,
      and
    * the offloaded workload needs the accelerators for ``C_off /
      accelerators``; with no accelerator it runs on the host instead.

    Returns ``max(len(G), host_volume / m, C_off / accelerators)``.
    """
    cores = check_cores(cores)
    host_volume = task.host_volume()
    accelerator_load = 0.0
    if task.is_heterogeneous and accelerators > 0:
        accelerator_load = task.offloaded_wcet / accelerators
    elif task.is_heterogeneous:
        host_volume += task.offloaded_wcet
    return max(task.critical_path_length, host_volume / cores, accelerator_load)
