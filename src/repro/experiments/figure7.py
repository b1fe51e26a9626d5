"""Figure 7 -- accuracy of the bounds against the optimal makespan.

The experiment of Section 5.3: for *small* tasks (the only sizes the ILP can
handle), compute the minimum makespan of each heterogeneous task with the ILP
solver and report the *increment* (in percent) of the homogeneous bound
``R_hom(tau)`` and of the heterogeneous bound ``R_het(tau')`` over that
optimum, sweeping the offloaded fraction.

The paper shows ``m = 2`` with ``n in [3, 20]`` and ``m = 8`` with
``n in [30, 60]``; the reproduction scales the node range with ``m`` in the
same spirit (see :func:`node_range_for_cores`).  The expected shape: the
pessimism of ``R_het`` shrinks as ``C_off`` grows (below 1 % for large
fractions) while ``R_hom`` keeps growing, with ``R_hom`` better only for very
small fractions.

Substitution note: the paper used CPLEX with up to 12 hours per instance and
WCETs in ``[1, 100]``; the reproduction uses HiGHS with an optional
per-instance time limit and (by default at quick scale) a smaller WCET range,
which keeps the time-indexed models small without affecting the *relative*
comparison between the bounds and the optimum.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Optional

import numpy as np

from ..analysis.batch import analyse_many
from ..analysis.comparison import percentage_increment
from ..generator.config import OffloadConfig
from ..generator.presets import SMALL_TASKS
from ..generator.sweep import offload_fraction_sweep
from ..ilp.batch import minimum_makespans_many
from ..ilp.makespan import MakespanMethod
from .base import ExperimentResult, ExperimentSeries
from .config import ExperimentScale, quick_scale

__all__ = ["run_figure7", "node_range_for_cores"]


def node_range_for_cores(scale: ExperimentScale, cores: int) -> tuple[int, int]:
    """Node-count range of the small tasks used against the ILP for ``m``.

    The paper uses ``[3, 20]`` nodes for ``m = 2`` and ``[30, 60]`` for
    ``m = 8`` (larger hosts need larger tasks for the comparison to be
    meaningful).  The reproduction keeps the configured range for ``m <= 2``
    and scales it up by 2.5x for larger hosts, which reproduces the paper's
    ranges when the paper-scale configuration is used.
    """
    low, high = scale.ilp_node_range
    if cores <= 2:
        return (low, high)
    return (high, max(high + 2, int(round(high * 2.5))))


def run_figure7(
    scale: Optional[ExperimentScale] = None,
    jobs: Optional[int] = None,
) -> ExperimentResult:
    """Reproduce Figure 7 of the paper.

    Parameters
    ----------
    jobs:
        Worker-process count for the exact-makespan solves
        (:func:`~repro.ilp.batch.minimum_makespans_many`); task generation
        and the bound analysis stay serial, so results are bit-identical to
        the serial path.

    Returns
    -------
    ExperimentResult
        Two series per host size ``m``: ``R_hom m=<m>`` and ``R_het m=<m>``,
        giving the average percentage increment of each bound over the ILP
        minimum makespan at every offloaded fraction.
    """
    scale = scale or quick_scale()
    rng = np.random.default_rng(scale.seed + 7)

    result = ExperimentResult(
        name="figure7",
        title="Increment of R_hom(tau) and R_het(tau') w.r.t. the minimum makespan",
        x_label="C_off / vol(G)",
        y_label="increment over optimal makespan [%]",
        metadata={
            "dags_per_point": scale.dags_per_point,
            "wcet_max": scale.ilp_wcet_max,
            "ilp_time_limit": scale.ilp_time_limit,
            "seed": scale.seed,
            "oracle": MakespanMethod.AUTO.value,
        },
    )

    # Figure 7 shows m = 2 and m = 8; evaluate whichever of those the scale
    # requests (falling back to the first two configured core counts).
    preferred = [m for m in scale.core_counts if m in (2, 8)] or list(
        scale.core_counts[:2]
    )
    for cores in preferred:
        node_range = node_range_for_cores(scale, cores)
        generator_config = replace(
            SMALL_TASKS,
            n_min=node_range[0],
            n_max=node_range[1],
            c_max=scale.ilp_wcet_max,
        )
        points = offload_fraction_sweep(
            fractions=scale.small_task_fractions,
            dags_per_point=scale.dags_per_point,
            generator_config=generator_config,
            offload_config=OffloadConfig(),
            rng=rng,
            paired=True,
        )
        hom_series = ExperimentSeries(
            label=f"R_hom m={cores}", metadata={"nodes": list(node_range)}
        )
        het_series = ExperimentSeries(
            label=f"R_het m={cores}", metadata={"nodes": list(node_range)}
        )
        # The exact solvers require integer WCETs; round the pinned C_off.
        rounded = [
            [
                task.with_offloaded_wcet(max(1.0, round(task.offloaded_wcet)))
                for task in point.tasks
            ]
            for point in points
        ]
        flat_tasks = [task for point_tasks in rounded for task in point_tasks]
        # One deduplicated oracle batch over the whole sweep: the paired
        # design re-pins C_off on the same structures, so sweep points
        # whose rounded C_off coincides (the minimum-WCET floor at small
        # fractions) are solved exactly once.
        optima = minimum_makespans_many(
            flat_tasks,
            cores,
            method=MakespanMethod.AUTO,
            time_limit=scale.ilp_time_limit,
            jobs=jobs,
        )
        # A tripped time limit leaves a sub-optimal incumbent in the
        # increments (as with the paper's 12h CPLEX budget); record how
        # often that happened instead of letting it pass silently.
        result.metadata["non_optimal_oracle_results"] = result.metadata.get(
            "non_optimal_oracle_results", 0
        ) + sum(1 for entry in optima if not entry.optimal)
        analyses = analyse_many(flat_tasks, cores=cores, include_naive=False)
        cursor = 0
        for point, point_tasks in zip(points, rounded):
            hom_increments = []
            het_increments = []
            for _ in point_tasks:
                optimum = optima[cursor].makespan
                analysis = analyses[cursor]
                hom_increments.append(
                    percentage_increment(analysis.bound(cores, "hom"), optimum)
                )
                het_increments.append(
                    percentage_increment(analysis.bound(cores, "het"), optimum)
                )
                cursor += 1
            hom_series.append(point.fraction, float(np.mean(hom_increments)))
            het_series.append(point.fraction, float(np.mean(het_increments)))
        result.add_series(hom_series)
        result.add_series(het_series)
    return result
