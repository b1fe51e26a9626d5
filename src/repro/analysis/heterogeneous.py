"""Heterogeneous response-time analysis (Theorem 1 of the paper).

The analysis operates on the *transformed* task ``tau'`` produced by
Algorithm 1 (:func:`repro.core.transformation.transform`), in which the
synchronisation node guarantees that the parallel sub-DAG ``G_par`` and the
offloaded node ``v_off`` start executing at the same instant.  Three
execution scenarios are distinguished:

* **Scenario 1** -- ``v_off`` does not belong to the critical path of ``G'``.
  Then some path of ``G_par`` is longer than ``C_off``, the offloaded node
  can never delay the critical path, and its WCET can safely be removed from
  the self-interference term (Equation 2):

  .. math:: R_{het} = len(G') + \\tfrac1m (vol(G') - len(G') - C_{off})

* **Scenario 2.1** -- ``v_off`` is on the critical path and
  ``C_off >= R_hom(G_par)``.  The whole of ``G_par`` completes under the
  cover of the offloaded execution, so its volume cannot interfere
  (Equation 3):

  .. math:: R_{het} = len(G') + \\tfrac1m (vol(G') - len(G') - vol(G_{par}))

* **Scenario 2.2** -- ``v_off`` is on the critical path and
  ``C_off <= R_hom(G_par)``.  The completion of ``G_par`` -- not ``v_off`` --
  determines the response time; ``C_off`` is replaced on the critical path by
  the response time of ``G_par`` (Equation 4):

  .. math::

      R_{het} = len(G') - C_{off} + len(G_{par})
                + \\tfrac1m (vol(G') - len(G') - len(G_{par}))

Scenarios 2.1 and 2.2 coincide when ``C_off = R_hom(G_par)``, which is also
where the benefit over the homogeneous bound is maximal (Section 5.4 of the
paper).

The module additionally implements the *naive* (unsafe) bound discussed in
Section 3.2 -- subtracting ``C_off / m`` from Equation 1 without any
transformation -- because the experiments and tests use it to demonstrate why
the transformation is necessary.
"""

from __future__ import annotations

from typing import Optional, Union

from ..core.exceptions import AnalysisError
from ..core.task import DagTask
from ..core.transformation import TransformedTask, transform
from .homogeneous import check_cores, graph_response_time
from .homogeneous import response_time as homogeneous_response_time
from .results import ResponseTimeResult, Scenario

__all__ = [
    "classify_scenario",
    "response_time",
    "heterogeneous_response_time",
    "naive_unsafe_response_time",
    "analyse",
]

#: Absolute tolerance used when comparing floating-point path lengths.  All
#: paper experiments use integer WCETs, for which comparisons are exact.
_TOLERANCE = 1e-9


def _as_transformed(
    task_or_transformed: Union[DagTask, TransformedTask]
) -> TransformedTask:
    """Accept either a raw heterogeneous task or an already transformed one."""
    if isinstance(task_or_transformed, TransformedTask):
        return task_or_transformed
    if not isinstance(task_or_transformed, DagTask):
        raise AnalysisError(
            "expected a DagTask or TransformedTask, got "
            f"{type(task_or_transformed).__name__}"
        )
    if task_or_transformed.offloaded_node is None:
        raise AnalysisError(
            f"task {task_or_transformed.name!r} has no offloaded node; "
            "use the homogeneous analysis instead"
        )
    return transform(task_or_transformed)


def _gpar_response(transformed: TransformedTask, cores: int) -> float:
    """``R_hom(G_par)``, memoised per core count on the transformed task.

    Both :func:`classify_scenario` and :func:`response_time` need this value;
    the memo makes evaluating one task across many host sizes (as every
    figure of the paper does) compute each ``R_hom(G_par)`` exactly once.
    """
    key = ("R_hom_Gpar", cores)
    cached = transformed.metrics_cache.get(key)
    if cached is None:
        cached = graph_response_time(transformed.gpar, cores)
        transformed.metrics_cache[key] = cached
    return cached


def classify_scenario(
    task_or_transformed: Union[DagTask, TransformedTask], cores: int
) -> Scenario:
    """Determine which scenario of Theorem 1 applies.

    Parameters
    ----------
    task_or_transformed:
        A heterogeneous task (it will be transformed on the fly) or the
        result of a previous call to
        :func:`repro.core.transformation.transform`.
    cores:
        Number of host cores ``m``; it enters the classification through
        ``R_hom(G_par)``.
    """
    transformed = _as_transformed(task_or_transformed)
    key = ("scenario", cores)
    cached = transformed.metrics_cache.get(key)
    if cached is not None:
        return cached
    if not transformed.offloaded_on_critical_path():
        scenario = Scenario.SCENARIO_1
    elif transformed.offloaded_wcet >= _gpar_response(transformed, cores) - _TOLERANCE:
        scenario = Scenario.SCENARIO_2_1
    else:
        scenario = Scenario.SCENARIO_2_2
    transformed.metrics_cache[key] = scenario
    return scenario


def response_time(
    task_or_transformed: Union[DagTask, TransformedTask],
    cores: int,
    scenario: Optional[Scenario] = None,
) -> ResponseTimeResult:
    """Compute ``R_het(tau')`` according to Theorem 1.

    Parameters
    ----------
    task_or_transformed:
        A heterogeneous task or its transformation.  Passing the transformed
        task avoids re-running Algorithm 1 when many values of ``m`` are
        evaluated for the same task.
    cores:
        Number of host cores ``m``.
    scenario:
        Force a specific scenario (used by tests to verify the proof
        obligations); by default the scenario is derived from the task via
        :func:`classify_scenario`.

    Returns
    -------
    ResponseTimeResult
        The bound together with the applied scenario and every intermediate
        term (``len(G')``, ``vol(G')``, ``len(G_par)``, ``vol(G_par)``,
        ``C_off``, ``R_hom(G_par)`` and the interference term).
    """
    cores = check_cores(cores)
    transformed = _as_transformed(task_or_transformed)
    if scenario is None:
        scenario = classify_scenario(transformed, cores)

    length = transformed.transformed_length()
    volume = transformed.transformed_volume()
    offloaded = transformed.offloaded_wcet
    gpar_length = transformed.gpar_length()
    gpar_volume = transformed.gpar_volume()
    gpar_response = _gpar_response(transformed, cores)

    if scenario is Scenario.SCENARIO_1:
        interference = (volume - length - offloaded) / cores
        bound = length + interference
    elif scenario is Scenario.SCENARIO_2_1:
        interference = (volume - length - gpar_volume) / cores
        bound = length + interference
    elif scenario is Scenario.SCENARIO_2_2:
        interference = (volume - length - gpar_length) / cores
        bound = length - offloaded + gpar_length + interference
    else:  # pragma: no cover - defensive
        raise AnalysisError(f"unsupported scenario {scenario!r}")

    return ResponseTimeResult(
        bound=bound,
        method="het",
        scenario=scenario,
        cores=cores,
        task_name=transformed.original.name,
        terms={
            "len_Gp": length,
            "vol_Gp": volume,
            "C_off": offloaded,
            "len_Gpar": gpar_length,
            "vol_Gpar": gpar_volume,
            "R_hom_Gpar": gpar_response,
            "interference": interference,
            "m": cores,
            "len_G": transformed.original.critical_path_length,
            "vol_G": transformed.original.volume,
        },
    )


#: Alias matching the paper's notation ``R_het``.
heterogeneous_response_time = response_time


def naive_unsafe_response_time(task: DagTask, cores: int) -> ResponseTimeResult:
    """The *unsafe* bound of Section 3.2: ``R_hom(tau) - C_off / m``.

    The paper shows with the example of Figure 1 that simply removing the
    offloaded WCET from the self-interference term of Equation 1 -- without
    the synchronisation introduced by Algorithm 1 -- can under-estimate the
    actual worst-case response time.  The function is provided for
    experimentation and for the regression test that reproduces Figure 1;
    it must never be used for schedulability verification.
    """
    if task.offloaded_node is None:
        raise AnalysisError(
            f"task {task.name!r} has no offloaded node; the naive bound is undefined"
        )
    base = homogeneous_response_time(task, cores)
    offloaded = task.offloaded_wcet
    bound = base.bound - offloaded / cores
    terms = dict(base.terms)
    terms.update({"C_off": offloaded, "interference": base.interference() - offloaded / cores})
    return ResponseTimeResult(
        bound=bound,
        method="naive",
        scenario=Scenario.NOT_APPLICABLE,
        cores=cores,
        task_name=task.name,
        terms=terms,
    )


def analyse(
    task: DagTask, cores: int
) -> dict[str, ResponseTimeResult]:
    """Run every applicable analysis on a task and return them by name.

    For a heterogeneous task the dictionary contains the homogeneous bound
    (``"hom"``), the heterogeneous bound (``"het"``) and the naive bound
    (``"naive"``); for a homogeneous task only ``"hom"`` is present.
    """
    results = {"hom": homogeneous_response_time(task, cores)}
    if task.offloaded_node is not None:
        transformed = transform(task)
        results["het"] = response_time(transformed, cores)
        results["naive"] = naive_unsafe_response_time(task, cores)
    return results
