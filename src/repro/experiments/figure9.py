"""Figure 9 -- homogeneous vs heterogeneous response-time bounds.

Section 5.4's headline comparison: the percentage change of ``R_hom(tau)``
with respect to ``R_het(tau')`` for random large tasks while sweeping the
offloaded fraction and the host size.  Expected shape (per the paper):

* ``R_het`` improves over ``R_hom`` for all but very small fractions (the
  crossover is below ~1.6-5 % depending on ``m``);
* the improvement grows with ``C_off``, peaks around the fraction where
  ``C_off = R_hom(G_par)`` (32 %, 20 %, 14 %, 10 % of the volume for
  ``m = 2, 4, 8, 16``), where the paper reports gains of 70 %, 55 %, 40 % and
  30 % respectively;
* the gain shrinks as ``m`` grows because the interference term is divided by
  ``m``.

Besides the average curves the driver records, per host size, the maximum
observed difference (the paper quotes 95.0 %, 82.5 %, 65.3 % and 47.7 %).
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from ..analysis.comparison import compare
from ..core.task import DagTask
from ..core.transformation import transform
from ..generator.config import GeneratorConfig, OffloadConfig
from ..generator.presets import LARGE_TASKS_FIG6
from ..generator.sweep import chunked_offload_fraction_sweep
from .base import ExperimentResult, ExperimentSeries
from .config import ExperimentScale, quick_scale

__all__ = ["run_figure9"]


def _compare_point(
    tasks: list[DagTask], core_counts: tuple[int, ...]
) -> dict[int, tuple[float, float]]:
    """Compare the two bounds over one sweep point for every ``m``.

    Transforms each task once and returns ``(mean gain, max gain)`` per host
    size; means and maxima compose across points without loss.
    """
    pairs = [(task, transform(task)) for task in tasks]
    stats: dict[int, tuple[float, float]] = {}
    for cores in core_counts:
        gains = [compare(task, cores, transformed).gain_percent() for task, transformed in pairs]
        stats[cores] = (float(np.mean(gains)), float(max(gains)))
    return stats


def run_figure9(
    scale: Optional[ExperimentScale] = None,
    generator_config: GeneratorConfig = LARGE_TASKS_FIG6,
) -> ExperimentResult:
    """Reproduce Figure 9 of the paper.

    Returns
    -------
    ExperimentResult
        One series per host size ``m``; x is the offloaded fraction, y the
        average percentage change of ``R_hom(tau)`` with respect to
        ``R_het(tau')``.  Each series' metadata records the maximum observed
        difference and the fraction at which the average peaks.
    """
    scale = scale or quick_scale()
    points = chunked_offload_fraction_sweep(
        fractions=scale.fractions,
        dags_per_point=scale.dags_per_point,
        generator_config=generator_config,
        offload_config=OffloadConfig(),
        root_seed=scale.seed + 9,
    )

    result = ExperimentResult(
        name="figure9",
        title="Percentage change of R_hom(tau) w.r.t. R_het(tau')",
        x_label="C_off / vol(G)",
        y_label="percentage change [%]",
        metadata={
            "dags_per_point": scale.dags_per_point,
            "seed": scale.seed,
        },
    )

    core_counts = tuple(scale.core_counts)
    stats_per_point = [_compare_point(point.tasks, core_counts) for point in points]

    for cores in core_counts:
        series = ExperimentSeries(label=f"m={cores}")
        max_difference = 0.0
        for point, stats in zip(points, stats_per_point):
            mean_gain, max_gain = stats[cores]
            max_difference = max(max_difference, max_gain)
            series.append(point.fraction, mean_gain)
        peak_x, peak_y = series.max_point()
        series.metadata.update(
            {
                "max_observed_difference": max_difference,
                "peak_fraction": peak_x,
                "peak_gain": peak_y,
                "crossover_fraction": series.crossover(),
            }
        )
        result.add_series(series)
    return result
