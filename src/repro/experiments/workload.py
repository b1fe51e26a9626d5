"""Schedulability under load: deadline-miss ratio vs offered utilisation.

The single-job experiments (Figures 6--9) evaluate one DAG instance in
isolation.  This driver asks the online question instead: a fixed set of
periodic job streams shares one platform, the streams' periods are scaled
so the *offered host utilisation* sweeps a grid, and every released
instance contends for the same core/accelerator pool under the
shared-capacity simulator
(:func:`repro.simulation.workload.simulate_workload`).  The reported curve
is the deadline-miss ratio per utilisation point -- the classic
schedulability-under-load shape: flat near zero while the platform keeps
up, then a sharp knee once the backlog starts compounding.

Construction, all seeded from the scale's root seed:

* a fixed set of small heterogeneous tasks (one offloaded region each) is
  generated once and reused at every sweep point, so the curve varies only
  the load, never the workload mix;
* stream ``i`` gets ``period_i = S * host_volume_i / (U * m)``, which makes
  the host utilisation sum to exactly ``U * m`` for ``S`` streams on ``m``
  cores; deadlines are implicit (relative deadline = period);
* releases are periodic with seeded jitter, and the horizon is a fixed
  multiple of the mean period so every point simulates a comparable number
  of instances.

Each (utilisation, policy) cell is a deterministic seeded simulation run
in process: a paper-scale sweep takes about 0.1 s, less than a pool of
worker processes costs to start (docs/performance.md, section 29).
"""

from __future__ import annotations

from typing import Optional

from ..core.task import DagTask
from ..generator.arrivals import PeriodicArrivals
from ..generator.config import OffloadConfig
from ..generator.offload import make_heterogeneous
from ..generator.presets import SMALL_TASKS
from ..generator.random_dag import DagStructureGenerator
from ..parallel import spawn_seeds
from ..simulation.platform import Platform
from ..simulation.schedulers import policy_by_name
from ..simulation.workload import JobStream, build_workload, simulate_workload
from .base import ExperimentResult, ExperimentSeries
from .config import ExperimentScale, quick_scale

__all__ = ["run_workload_schedulability", "UTILISATION_GRID"]

#: Offered host-utilisation grid (fraction of ``m`` cores kept busy by the
#: aggregate stream volume).  Spans well past 1.0 so the knee and the
#: saturated regime are both on the plot.
UTILISATION_GRID = (0.2, 0.4, 0.6, 0.8, 1.0, 1.2, 1.4, 1.6)

#: Ready-queue policies contrasted in the curve.
POLICIES = ("breadth-first", "depth-first")

#: Shared platform of the sweep: 4 host cores, 1 accelerator.
HOST_CORES = 4
ACCELERATORS = 1

#: Horizon as a multiple of the mean stream period, so every sweep point
#: simulates a comparable number of released instances.
HORIZON_PERIODS = 12.0

#: Release jitter as a fraction of the stream's period.
JITTER_FRACTION = 0.1

#: Offloaded fraction of each generated task (one accelerator region).
OFFLOAD_FRACTION = 0.15


def _stream_tasks(scale: ExperimentScale) -> list[DagTask]:
    """The fixed task set shared by every sweep point, seeded once."""
    count = max(2, min(8, scale.dags_per_point // 3))
    config = SMALL_TASKS.with_node_range(8, 40)
    tasks = []
    for index, seed in enumerate(spawn_seeds(scale.seed + 11, count)):
        base = DagStructureGenerator(config, seed).generate_task(f"tau_{index}")
        tasks.append(
            make_heterogeneous(
                base,
                OffloadConfig(),
                rng=seed + 1,
                target_fraction=OFFLOAD_FRACTION,
            )
        )
    return tasks


def _streams_for(
    tasks: list[DagTask], utilisation: float, seed: int
) -> tuple[list[JobStream], float]:
    """``(streams, horizon)`` realising one offered-utilisation point."""
    count = len(tasks)
    periods = [
        count * task.volume / (utilisation * HOST_CORES) for task in tasks
    ]
    streams = [
        JobStream(
            task=task,
            arrivals=PeriodicArrivals(
                period=period,
                jitter=JITTER_FRACTION * period,
                seed=seed + index,
            ),
            deadline=period,
            name=task.name,
        )
        for index, (task, period) in enumerate(zip(tasks, periods))
    ]
    horizon = HORIZON_PERIODS * sum(periods) / count
    return streams, horizon


def _evaluate_point(
    tasks: list[DagTask], utilisation: float, policy_name: str, seed: int
) -> dict[str, float]:
    """Simulate one (utilisation, policy) cell of the sweep."""
    streams, horizon = _streams_for(tasks, utilisation, seed)
    workload = build_workload(streams, horizon)
    result = simulate_workload(
        workload,
        Platform(host_cores=HOST_CORES, accelerators=ACCELERATORS),
        policy_by_name(policy_name),
        backend="auto",
    )
    return {
        "miss_ratio": result.miss_ratio(),
        "instances": float(result.count),
        "mean_response": result.mean_response(),
        "peak_backlog": float(result.peak_backlog()),
    }


def run_workload_schedulability(
    scale: Optional[ExperimentScale] = None,
) -> ExperimentResult:
    """Deadline-miss ratio vs offered utilisation on one shared platform.

    Parameters
    ----------
    scale:
        Sampling effort; only ``dags_per_point`` (stream count) and ``seed``
        are consulted.  ``None`` uses the quick preset.

    Returns
    -------
    ExperimentResult
        One series per ready-queue policy giving the deadline-miss ratio
        at each offered host utilisation.
    """
    scale = scale or quick_scale()
    tasks = _stream_tasks(scale)
    metrics = [
        _evaluate_point(tasks, utilisation, policy, scale.seed + 23)
        for policy in POLICIES
        for utilisation in UTILISATION_GRID
    ]

    result = ExperimentResult(
        name="workload-schedulability",
        title="Deadline-miss ratio under offered load (shared platform)",
        x_label="offered host utilisation U",
        y_label="deadline-miss ratio",
        metadata={
            "streams": len(tasks),
            "host_cores": HOST_CORES,
            "accelerators": ACCELERATORS,
            "horizon_periods": HORIZON_PERIODS,
            "jitter_fraction": JITTER_FRACTION,
            "offload_fraction": OFFLOAD_FRACTION,
            "seed": scale.seed,
            "instances_per_point": [
                metric["instances"] for metric in metrics[: len(UTILISATION_GRID)]
            ],
        },
    )
    for policy_index, policy in enumerate(POLICIES):
        series = ExperimentSeries(label=policy)
        for point_index, utilisation in enumerate(UTILISATION_GRID):
            metric = metrics[policy_index * len(UTILISATION_GRID) + point_index]
            series.append(utilisation, metric["miss_ratio"])
        result.add_series(series)
    return result
