"""Ablation studies complementing the paper's evaluation.

Two design choices of the reproduction deserve dedicated evidence:

* **Scheduler sensitivity** (:func:`run_scheduler_ablation`) -- the paper
  simulates only the GOMP breadth-first policy; this ablation re-runs the
  Figure 6 comparison under several work-conserving policies to show that the
  qualitative conclusion ("the transformation helps once ``C_off`` is a
  non-trivial share of the volume") does not hinge on the specific policy.

* **Makespan-oracle agreement** (:func:`run_ilp_ablation`) -- the paper's
  single oracle was CPLEX; the reproduction has two independent ones (the
  HiGHS time-indexed ILP and an exact branch-and-bound).  This ablation
  verifies they agree on a population of small random tasks and reports their
  cost (variables / explored states), which is the evidence backing the use
  of HiGHS in Figure 7.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import replace
from typing import Optional, Sequence

import numpy as np

from ..analysis.comparison import percentage_change
from ..core.transformation import transform
from ..generator.config import OffloadConfig
from ..generator.presets import LARGE_TASKS_FIG6, SMALL_TASKS
from ..generator.sweep import chunked_offload_fraction_sweep
from ..ilp.batch import minimum_makespans_many
from ..ilp.branch_and_bound import branch_and_bound_makespan
from ..ilp.makespan import MakespanMethod
from ..parallel import spawn_seeds
from ..simulation.platform import Platform
from ..simulation.schedulers import (
    BreadthFirstPolicy,
    CriticalPathFirstPolicy,
    DepthFirstPolicy,
    SchedulingPolicy,
)
from .base import ExperimentResult, ExperimentSeries
from .config import ExperimentScale, quick_scale
from .figure6 import run_figure6

__all__ = [
    "run_scheduler_ablation",
    "run_scheduler_ablation_service",
    "run_ilp_ablation",
    "ABLATION_POLICY_NAMES",
]

#: Every registered policy family, in registry order: the seven-policy
#: ablation of the paper-scale run.
ABLATION_POLICY_NAMES = (
    "breadth-first",
    "depth-first",
    "critical-path-first",
    "shortest-first",
    "longest-first",
    "random",
    "fixed-priority",
)


def run_scheduler_ablation(
    scale: Optional[ExperimentScale] = None,
    cores: int = 4,
    policies: Optional[Sequence[SchedulingPolicy]] = None,
) -> ExperimentResult:
    """Figure 6 repeated under several work-conserving scheduling policies.

    Each policy re-runs the rewired Figure 6 driver, so the sweep inherits
    its chunk-seeded generation and the batched simulator
    (:func:`repro.simulation.batch.simulate_many` -- one compile per task
    variant serves every sweep cell, and every registered policy family
    runs through the compiled C kernel).

    Returns
    -------
    ExperimentResult
        One series per policy (all for the same host size ``cores``), with
        the same metric as Figure 6.
    """
    scale = scale or quick_scale()
    scale = replace(scale, core_counts=(cores,))
    policies = list(
        policies
        if policies is not None
        else [BreadthFirstPolicy(), DepthFirstPolicy(), CriticalPathFirstPolicy()]
    )

    result = ExperimentResult(
        name="ablation-scheduler",
        title=f"Figure 6 metric under different schedulers (m={cores})",
        x_label="C_off / vol(G)",
        y_label="percentage change of average makespan [%]",
        metadata={"cores": cores, "policies": [policy.name for policy in policies]},
    )
    for policy in policies:
        figure = run_figure6(scale=scale, policy=policy)
        series = figure.series_by_label(f"m={cores}")
        series.label = policy.name
        result.add_series(series)
    return result


def run_scheduler_ablation_service(
    scale: Optional[ExperimentScale] = None,
    cores: int = 4,
    policy_names: Sequence[str] = ABLATION_POLICY_NAMES,
    threads: int = 32,
) -> ExperimentResult:
    """The seven-policy Figure 6 ablation served through the batch queue.

    Unlike :func:`run_scheduler_ablation` (which calls the batched engines
    directly), this driver submits every ``(task, variant, policy)`` cell as
    an individual request to a live :class:`~repro.service.facade.
    EvaluationService` from a thread pool -- the shape of a sweep client
    hitting the HTTP facade.  The micro-batcher coalesces each burst into
    one batched-engine call per policy (one ``(platform, policy)`` column,
    one lane per task), while the stochastic policy takes the solo path
    with an explicit per-request seed, so the resulting figures are
    deterministic and independent of batch composition -- the documents
    can be frozen as goldens.

    Returns
    -------
    ExperimentResult
        One series per policy (all at host size ``cores``), same metric as
        Figure 6; the metadata records the deterministic request count and
        sampling parameters (never runtime counters, which depend on flush
        timing).
    """
    from ..service.facade import EvaluationService

    scale = scale or quick_scale()
    policy_names = list(policy_names)
    points = chunked_offload_fraction_sweep(
        fractions=scale.fractions,
        dags_per_point=scale.dags_per_point,
        generator_config=LARGE_TASKS_FIG6,
        offload_config=OffloadConfig(),
        root_seed=scale.seed,
    )
    point_seeds = spawn_seeds(scale.seed, len(points))
    platform = Platform(host_cores=cores, accelerators=1)

    # One request per (point, variant, task, policy), task-major so a flush
    # holds every policy of the tasks it covers (one column per policy for
    # the coalescer).  The stochastic policy gets an explicit seed per
    # cell -- derived only from the sampling parameters, never from batch
    # composition -- which the solo path replays exactly.
    requests = []
    for point_index, point in enumerate(points):
        variants = [point.tasks, [transform(task).task for task in point.tasks]]
        for variant, tasks in enumerate(variants):
            for task_index, task in enumerate(tasks):
                for policy in policy_names:
                    seed = None
                    if policy == "random":
                        seed = int(
                            point_seeds[point_index]
                            + 2 * task_index
                            + variant
                        )
                    requests.append((point_index, variant, policy, task, seed))

    with EvaluationService() as service:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            values = list(
                pool.map(
                    lambda spec: service.submit_simulation(
                        spec[3],
                        platform,
                        policy=spec[2],
                        policy_seed=spec[4],
                    ),
                    requests,
                )
            )

    sums: dict[tuple[int, int, str], list] = {}
    for (point_index, variant, policy, _, _), value in zip(requests, values):
        sums.setdefault((point_index, variant, policy), []).append(value)

    result = ExperimentResult(
        name="ablation-scheduler-paper",
        title=f"Figure 6 metric under all registered schedulers (m={cores})",
        x_label="C_off / vol(G)",
        y_label="percentage change of average makespan [%]",
        metadata={
            "cores": cores,
            "policies": policy_names,
            "dags_per_point": scale.dags_per_point,
            "seed": scale.seed,
            "generator": "large tasks, n in "
            f"[{LARGE_TASKS_FIG6.n_min}, {LARGE_TASKS_FIG6.n_max}]",
            "requests": len(requests),
            "served_by": "EvaluationService micro-batch queue",
        },
    )
    for policy in policy_names:
        series = ExperimentSeries(label=policy)
        for point_index, point in enumerate(points):
            average_original = float(
                np.mean(sums[(point_index, 0, policy)])
            )
            average_transformed = float(
                np.mean(sums[(point_index, 1, policy)])
            )
            series.append(
                point.fraction,
                percentage_change(average_original, average_transformed),
            )
        series.metadata["crossover_fraction"] = series.crossover()
        result.add_series(series)
    # The queue's serving statistics (service.stats()) are observability,
    # not golden material: engine/batch counts depend on flush timing and
    # on which kernel backend the host has, so they never enter the
    # document.
    return result


def run_ilp_ablation(
    scale: Optional[ExperimentScale] = None,
    cores: int = 2,
    task_count: int = 10,
) -> ExperimentResult:
    """Cross-check the two optimal-makespan oracles on small random tasks.

    The task ensemble is generated with the chunked seeded scheme
    (:func:`repro.generator.sweep.chunked_offload_fraction_sweep`); the ILP
    side runs through the batched oracle layer with ``warm_start=False`` so
    HiGHS genuinely solves every instance (the warm start shares its
    incumbent with the branch-and-bound, which would make the agreement
    check vacuous); and both branch-and-bound engines (pruned and unpruned
    reference) run on every task.

    Returns
    -------
    ExperimentResult
        Series ``ilp`` and ``bnb`` hold the makespans returned by each engine
        for every generated task (x is the task index); the metadata records
        the number of disagreements (expected: zero), the average model /
        search sizes, how many pruned searches were resolved by the
        list-schedule==lower-bound early exit (``bnb_short_circuited``), and
        the explored-state reduction both overall and restricted to the
        instances where the pruned engine actually searched
        (``searched_state_reduction``).
    """
    scale = scale or quick_scale()
    generator_config = replace(
        SMALL_TASKS, n_min=4, n_max=10, c_max=min(scale.ilp_wcet_max, 10)
    )
    points = chunked_offload_fraction_sweep(
        fractions=[0.2],
        dags_per_point=task_count,
        generator_config=generator_config,
        offload_config=OffloadConfig(),
        root_seed=scale.seed + 42,
    )
    tasks = [
        task.with_offloaded_wcet(max(1.0, round(task.offloaded_wcet)))
        for task in points[0].tasks
    ]

    ilp_results = minimum_makespans_many(
        tasks,
        cores,
        method=MakespanMethod.ILP,
        time_limit=scale.ilp_time_limit,
        warm_start=False,
    )
    bnb_pairs = [
        (
            branch_and_bound_makespan(task, cores),
            branch_and_bound_makespan(task, cores, pruning=False),
        )
        for task in tasks
    ]

    ilp_series = ExperimentSeries(label="ilp")
    bnb_series = ExperimentSeries(label="bnb")
    disagreements = 0
    short_circuited = 0
    variable_counts = []
    explored_states = []
    reference_states = []
    searched = []  # (pruned, reference) states of instances with a real search
    for index, (ilp, (bnb, reference)) in enumerate(zip(ilp_results, bnb_pairs)):
        ilp_series.append(float(index), ilp.makespan)
        bnb_series.append(float(index), bnb.makespan)
        variable_counts.append(ilp.engine_stats.get("variables", 0))
        explored_states.append(bnb.explored_states)
        reference_states.append(reference.explored_states)
        if bnb.explored_states == 0:
            short_circuited += 1
        else:
            searched.append((bnb.explored_states, reference.explored_states))
        if (
            abs(ilp.makespan - bnb.makespan) > 1e-6
            or abs(reference.makespan - bnb.makespan) > 1e-6
        ):
            disagreements += 1

    result = ExperimentResult(
        name="ablation-ilp",
        title="Agreement of the HiGHS ILP and the branch-and-bound oracle",
        x_label="task index",
        y_label="minimum makespan",
        metadata={
            "cores": cores,
            "disagreements": disagreements,
            "mean_ilp_variables": float(np.mean(variable_counts)),
            "mean_bnb_explored_states": float(np.mean(explored_states)),
            "mean_reference_explored_states": float(np.mean(reference_states)),
            "bnb_short_circuited": short_circuited,
            "pruning_state_reduction": float(
                np.sum(reference_states) / max(float(np.sum(explored_states)), 1.0)
            ),
            "searched_state_reduction": float(
                sum(r for _, r in searched) / max(sum(p for p, _ in searched), 1)
            )
            if searched
            else 1.0,
        },
    )
    result.add_series(ilp_series)
    result.add_series(bnb_series)
    return result
