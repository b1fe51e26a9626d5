"""Figure 8 -- occurrence of the Theorem 1 execution scenarios.

Section 5.4 first analyses how often each of the three scenarios of
Theorem 1 occurs for randomly generated large tasks when the offloaded
fraction grows.  The expected shape (per the paper):

* Scenario 1 (``v_off`` off the critical path) dominates while
  ``C_off`` is below roughly 8 % of the volume -- and its frequency does not
  depend on ``m``;
* Scenario 2.2 takes over as ``v_off`` joins the critical path while
  ``C_off`` is still below ``R_hom(G_par)``;
* Scenario 2.1 grows for large fractions, earlier for larger ``m`` (more host
  parallelism makes ``R_hom(G_par)`` smaller).

The crossing between Scenarios 2.1 and 2.2 -- i.e. ``C_off = R_hom(G_par)``
-- is where the benefit of ``R_het`` over ``R_hom`` peaks (Figure 9).
"""

from __future__ import annotations

from typing import Optional

from ..analysis.heterogeneous import classify_scenario
from ..analysis.results import Scenario
from ..core.task import DagTask
from ..core.transformation import transform
from ..generator.config import GeneratorConfig, OffloadConfig
from ..generator.presets import LARGE_TASKS_FIG6
from ..generator.sweep import chunked_offload_fraction_sweep
from .base import ExperimentResult, ExperimentSeries
from .config import ExperimentScale, quick_scale

__all__ = ["run_figure8"]

_SCENARIO_LABELS = {
    Scenario.SCENARIO_1: "scenario 1",
    Scenario.SCENARIO_2_1: "scenario 2.1",
    Scenario.SCENARIO_2_2: "scenario 2.2",
}


def _classify_point(
    tasks: list[DagTask], core_counts: tuple[int, ...]
) -> dict[int, dict[Scenario, int]]:
    """Classify one sweep point's tasks for every host size.

    Each task is transformed once (Algorithm 1 does not depend on ``m``);
    the per-core classifications then reuse the memoised ``R_hom(G_par)``.
    """
    transformed_tasks = [transform(task) for task in tasks]
    counts_by_cores: dict[int, dict[Scenario, int]] = {}
    for cores in core_counts:
        counts = {scenario: 0 for scenario in _SCENARIO_LABELS}
        for transformed in transformed_tasks:
            counts[classify_scenario(transformed, cores)] += 1
        counts_by_cores[cores] = counts
    return counts_by_cores


def run_figure8(
    scale: Optional[ExperimentScale] = None,
    generator_config: GeneratorConfig = LARGE_TASKS_FIG6,
) -> ExperimentResult:
    """Reproduce Figure 8 of the paper.

    Returns
    -------
    ExperimentResult
        Three series per host size ``m`` (one per scenario) giving the
        percentage of generated tasks classified into that scenario at each
        offloaded fraction.
    """
    scale = scale or quick_scale()
    points = chunked_offload_fraction_sweep(
        fractions=scale.fractions,
        dags_per_point=scale.dags_per_point,
        generator_config=generator_config,
        offload_config=OffloadConfig(),
        root_seed=scale.seed + 8,
    )

    result = ExperimentResult(
        name="figure8",
        title="Percentage of scenario occurrence",
        x_label="C_off / vol(G)",
        y_label="occurrence [%]",
        metadata={
            "dags_per_point": scale.dags_per_point,
            "seed": scale.seed,
        },
    )

    core_counts = tuple(scale.core_counts)
    counts_per_point = [_classify_point(point.tasks, core_counts) for point in points]

    for cores in core_counts:
        series_by_scenario = {
            scenario: ExperimentSeries(label=f"{label} m={cores}")
            for scenario, label in _SCENARIO_LABELS.items()
        }
        for point, counts_by_cores in zip(points, counts_per_point):
            counts = counts_by_cores[cores]
            total = max(1, len(point.tasks))
            for scenario, series in series_by_scenario.items():
                series.append(point.fraction, 100.0 * counts[scenario] / total)
        for series in series_by_scenario.values():
            result.add_series(series)
    return result
