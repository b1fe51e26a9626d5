"""Figure 6 -- impact of the DAG transformation on average performance.

The experiment of Section 5.2: simulate the execution of the original task
``tau`` and of the transformed task ``tau'`` under the work-conserving
breadth-first (GOMP) scheduler, on hosts with ``m in {2, 4, 8, 16}`` cores
plus one accelerator, for random large tasks (``n in [100, 250]``), sweeping
the offloaded workload ``C_off`` from 1 % to 70 % of the task volume.  The
reported metric is the *percentage change of the average execution time of*
``tau`` *with respect to* ``tau'``:

* negative values -- the synchronisation node hurts: ``tau`` is faster than
  ``tau'`` (observed for small ``C_off``, more strongly for larger ``m``);
* positive values -- the transformation pays off: forcing ``G_par`` to run
  while ``v_off`` executes avoids the host idling of Figure 1(c).

The paper reports the crossover at roughly 11 %, 8 %, 6 % and 4.5 % of the
volume for ``m = 2, 4, 8, 16`` and peak slowdowns of the original task of
about 24 % (m = 2) down to 4 % (m = 16).
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from ..analysis.comparison import percentage_change
from ..core.task import DagTask
from ..core.transformation import transform
from ..generator.config import GeneratorConfig, OffloadConfig
from ..generator.presets import LARGE_TASKS_FIG6
from ..generator.sweep import chunked_offload_fraction_sweep
from ..parallel import spawn_seeds
from ..simulation.batch import simulate_many
from ..simulation.platform import Platform
from ..simulation.schedulers import BreadthFirstPolicy, SchedulingPolicy
from .base import ExperimentResult, ExperimentSeries
from .config import ExperimentScale, quick_scale

__all__ = ["run_figure6"]


def _evaluate_point(
    tasks: list[DagTask],
    core_counts: tuple[int, ...],
    policy: SchedulingPolicy,
    policy_seed: int,
) -> list[tuple[float, float]]:
    """Simulate one sweep point for every host size.

    The tasks are transformed once (Algorithm 1 does not depend on ``m``)
    and both variants run through
    :func:`~repro.simulation.batch.simulate_many` with its default engine:
    the compiled C kernel where a C compiler is available, the dense engine
    otherwise.  Each variant is compiled once and that single compile
    serves every ``(cores, variant)`` cell of the point, all cells running
    as lanes of one kernel call.  Returns one
    ``(average original, average transformed)`` makespan pair per core
    count.
    """
    transformed_tasks = [transform(task).task for task in tasks]
    platforms = [Platform(host_cores=cores, accelerators=1) for cores in core_counts]
    makespans = simulate_many(
        tasks + transformed_tasks, platforms, policy, root_seed=policy_seed
    )
    count = len(tasks)
    return [
        (
            float(np.mean(makespans[:count, core_index, 0])),
            float(np.mean(makespans[count:, core_index, 0])),
        )
        for core_index in range(len(core_counts))
    ]


def run_figure6(
    scale: Optional[ExperimentScale] = None,
    generator_config: GeneratorConfig = LARGE_TASKS_FIG6,
    policy: Optional[SchedulingPolicy] = None,
) -> ExperimentResult:
    """Reproduce Figure 6 of the paper.

    Parameters
    ----------
    scale:
        Sampling effort; defaults to :func:`~repro.experiments.config.quick_scale`.
    generator_config:
        Structural distribution of the random tasks (defaults to the paper's
        large-task preset restricted to ``n in [100, 250]``).
    policy:
        Scheduling policy used for both tasks; defaults to the GOMP-style
        breadth-first policy.  The scheduler ablation benchmark passes other
        policies here.  Each sweep point simulates with its own
        :meth:`~repro.simulation.schedulers.SchedulingPolicy.spawned` copy
        (deterministic policies: a plain copy; ``RandomPolicy``: reseeded
        per point).

    Returns
    -------
    ExperimentResult
        One series per host size ``m``; x is the target ``C_off`` fraction,
        y the percentage change of the average makespan of ``tau`` with
        respect to ``tau'``.
    """
    scale = scale or quick_scale()
    policy = policy or BreadthFirstPolicy()
    points = chunked_offload_fraction_sweep(
        fractions=scale.fractions,
        dags_per_point=scale.dags_per_point,
        generator_config=generator_config,
        offload_config=OffloadConfig(),
        root_seed=scale.seed,
    )

    result = ExperimentResult(
        name="figure6",
        title="Percentage change of the average execution time of tau w.r.t. tau'",
        x_label="C_off / vol(G)",
        y_label="percentage change of average makespan [%]",
        metadata={
            "dags_per_point": scale.dags_per_point,
            "policy": policy.name,
            "generator": "large tasks, n in "
            f"[{generator_config.n_min}, {generator_config.n_max}]",
            "seed": scale.seed,
        },
    )

    core_counts = tuple(scale.core_counts)
    # Each sweep point gets its own policy instance (deterministic policies:
    # a plain copy; RandomPolicy: reseeded from a spawned child seed so the
    # points draw independent streams); the same child seed roots the
    # point's simulate_many chunk spawning.
    rows_per_point = [
        _evaluate_point(point.tasks, core_counts, policy.spawned(seed), seed)
        for point, seed in zip(points, spawn_seeds(scale.seed, len(points)))
    ]

    for core_index, cores in enumerate(core_counts):
        series = ExperimentSeries(label=f"m={cores}")
        for point, rows in zip(points, rows_per_point):
            average_original, average_transformed = rows[core_index]
            series.append(
                point.fraction,
                percentage_change(average_original, average_transformed),
            )
        series.metadata["crossover_fraction"] = series.crossover()
        result.add_series(series)
    return result
