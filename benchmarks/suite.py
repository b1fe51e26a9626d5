#!/usr/bin/env python3
"""The micro-benchmark suite: one registry of cases, one runner.

Each :class:`Case` declares the layer it measures, the workload it runs,
the candidate it times against which baseline, the identity checks its
answers must pass and the gates its measurements must meet.  One runner
times, checks, prints and records every case:

* each gate prints its value against its threshold, each check prints its
  verdict, and every other measured value is printed as reported only;
* a case passes when every gate holds and every declared check is true; a
  case that raises fails;
* a full run merges one record per case into ``benchmarks/results/suite.json``;
  ``--smoke`` runs the smaller inputs and writes nothing;
* the exit status is 1 when any case fails.

Gates are ratios against in-process baselines, or per-call costs with an
order of magnitude of headroom, never absolute wall times, so they hold on
noisy shared CI runners.  The ``BENCH_PR*.json`` files at the repository
root are earlier records in per-script schemas, kept as history.

Run with:  python benchmarks/suite.py [--smoke] [case ...]
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import random
import sys
import time
import traceback
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Optional

_REPO_ROOT = Path(__file__).resolve().parent.parent
_SRC = _REPO_ROOT / "src"
if _SRC.is_dir() and str(_SRC) not in sys.path:
    sys.path.insert(0, str(_SRC))

import numpy as np  # noqa: E402

from repro.analysis import analyse, analyse_many  # noqa: E402
from repro.core.compiled import compile_task  # noqa: E402
from repro.core.graph import DirectedAcyclicGraph  # noqa: E402
from repro.core.task import DagTask  # noqa: E402
from repro.core.transformation import transform  # noqa: E402
from repro.experiments.config import paper_scale, quick_scale  # noqa: E402
from repro.experiments.figure7 import node_range_for_cores  # noqa: E402
from repro.generator.arrivals import PeriodicArrivals  # noqa: E402
from repro.generator.config import GeneratorConfig, OffloadConfig  # noqa: E402
from repro.generator.offload import make_heterogeneous, pin_offloaded_fraction  # noqa: E402
from repro.generator.presets import LARGE_TASKS_FIG6, SMALL_TASKS  # noqa: E402
from repro.generator.random_dag import DagStructureGenerator  # noqa: E402
from repro.generator.sweep import (  # noqa: E402
    chunked_offload_fraction_sweep,
    offload_fraction_sweep,
)
from repro.ilp.batch import minimum_makespans_many  # noqa: E402
from repro.ilp.branch_and_bound import branch_and_bound_makespan  # noqa: E402
from repro.ilp.solver import solve_minimum_makespan  # noqa: E402
from repro.io.json_io import task_from_dict, task_to_dict  # noqa: E402
from repro.parallel import spawn_seeds  # noqa: E402
from repro.resilience import FAULTS, fault_point  # noqa: E402
from repro.service import EvaluationService, Tracer  # noqa: E402
from repro.service.facade import body_digest  # noqa: E402
from repro.simulation import _kernels  # noqa: E402
from repro.simulation.batch import simulate_many  # noqa: E402
from repro.simulation.dense import simulate_makespan_dense  # noqa: E402
from repro.simulation.engine import simulate, simulate_makespan  # noqa: E402
from repro.simulation.kernel_stats import record_kernel_batch  # noqa: E402
from repro.simulation.platform import Platform  # noqa: E402
from repro.simulation.schedulers import (  # noqa: E402
    BreadthFirstPolicy,
    FixedPriorityPolicy,
    ShortestFirstPolicy,
    policy_by_name,
)
from repro.simulation.vectorized_compiled import pack_column  # noqa: E402
from repro.simulation.workload import (  # noqa: E402
    JobStream,
    build_workload,
    simulate_workload,
    simulate_workload_reference,
)

OUTPUT = Path(__file__).resolve().parent / "results" / "suite.json"

#: What a case's ``run(smoke)`` returns: ``(metrics, checks)``.  ``metrics``
#: maps every measured value, gated or reported only, by name; ``checks``
#: maps each identity check's name to whether it held.
Measurement = tuple[dict, dict]


# ----------------------------------------------------------------------
# Registry types and the shared gate evaluator
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class Gate:
    """``metric comparison threshold`` must hold, e.g. ``speedup >= 3.0``."""

    metric: str
    comparison: str
    threshold: float

    def __post_init__(self) -> None:
        if self.comparison not in (">=", "<="):
            raise ValueError(
                f"comparison must be '>=' or '<=', got {self.comparison!r}"
            )

    def holds(self, value: Optional[float]) -> bool:
        """``None`` (the metric was not measured) never holds."""
        if value is None:
            return False
        if self.comparison == ">=":
            return value >= self.threshold
        return value <= self.threshold


@dataclass(frozen=True)
class Case:
    """One registered micro-benchmark."""

    name: str
    layer: str
    workload: str
    candidate: str
    baseline: str
    run: Callable[[bool], Measurement]
    gates: tuple[Gate, ...] = ()
    checks: tuple[str, ...] = ()


def evaluate(case: Case, metrics: dict, checks: dict) -> dict:
    """The record of one measurement of ``case``: every gate and check judged.

    A declared check the measurement did not report fails, and so does a
    reported check the case does not declare: the registry, not the case
    body, says what gates the suite.
    """
    gates = [
        {
            "metric": gate.metric,
            "value": metrics.get(gate.metric),
            "comparison": gate.comparison,
            "threshold": gate.threshold,
            "passed": gate.holds(metrics.get(gate.metric)),
        }
        for gate in case.gates
    ]
    verdicts = {name: checks.get(name) is True for name in case.checks}
    verdicts.update(
        {f"undeclared:{name}": False for name in checks if name not in case.checks}
    )
    return {
        "case": case.name,
        "layer": case.layer,
        "workload": case.workload,
        "candidate": case.candidate,
        "baseline": case.baseline,
        "metrics": metrics,
        "gates": gates,
        "checks": verdicts,
        "passed": all(gate["passed"] for gate in gates) and all(verdicts.values()),
    }


# ----------------------------------------------------------------------
# The two shared timers
# ----------------------------------------------------------------------
def best_of(
    run: Callable, repeats: int, prepare: Optional[Callable[[], object]] = None
) -> tuple[float, object]:
    """Best (minimum) wall seconds over ``repeats`` calls of ``run``, and the
    last call's result.

    With ``prepare``, each call is ``run(prepare())`` and ``prepare`` runs
    outside the timed region: it rebuilds the inputs a call consumes.
    """
    best_s, result = float("inf"), None
    for _ in range(repeats):
        argument = () if prepare is None else (prepare(),)
        t0 = time.perf_counter()
        result = run(*argument)
        best_s = min(best_s, time.perf_counter() - t0)
    return best_s, result


def ns_per_call(fn: Callable, calls: int, repeats: int, *args: object) -> float:
    """Best-of-``repeats`` nanoseconds per call of ``fn(*args)`` over ``calls``
    back-to-back calls."""
    best_s = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        for _ in range(calls):
            fn(*args)
        best_s = min(best_s, time.perf_counter() - t0)
    return best_s / calls * 1e9


def _figure6_tasks(fractions, dags_per_point: int) -> list:
    """Original + transformed tasks of a quick-scale Figure 6 sweep."""
    points = chunked_offload_fraction_sweep(
        fractions=fractions,
        dags_per_point=dags_per_point,
        generator_config=LARGE_TASKS_FIG6,
        offload_config=OffloadConfig(),
        root_seed=quick_scale().seed,
    )
    tasks = [task for point in points for task in point.tasks]
    return tasks + [transform(task).task for task in tasks]


def _heterogeneous_tasks(config: GeneratorConfig, count: int, root_seed: int) -> list:
    """``count`` seeded tasks of ``config`` with a quarter of the volume offloaded."""
    tasks = []
    for seed in range(root_seed, root_seed + count):
        rng = np.random.default_rng(seed)
        host = DagStructureGenerator(config, rng).generate_task()
        tasks.append(
            make_heterogeneous(
                host, OffloadConfig(), np.random.default_rng(seed + 1),
                target_fraction=0.25,
            )
        )
    return tasks


# ----------------------------------------------------------------------
# oracle: pruned branch-and-bound, warm-started ILP, deduplicating batch layer
# ----------------------------------------------------------------------
def _figure7_tasks(cores: int, dags_per_point: int) -> list:
    """The (rounded) task ensemble Figure 7 evaluates for host size ``m``."""
    scale = quick_scale()
    node_range = node_range_for_cores(scale, cores)
    points = offload_fraction_sweep(
        fractions=scale.small_task_fractions,
        dags_per_point=dags_per_point,
        generator_config=dataclasses.replace(
            SMALL_TASKS,
            n_min=node_range[0],
            n_max=node_range[1],
            c_max=scale.ilp_wcet_max,
        ),
        offload_config=OffloadConfig(),
        rng=np.random.default_rng(scale.seed + 7),
        paired=True,
    )
    return [
        task.with_offloaded_wcet(max(1.0, round(task.offloaded_wcet)))
        for point in points
        for task in point.tasks
    ]


def _same_makespans(first, second) -> bool:
    return all(abs(a.makespan - b.makespan) < 1e-6 for a, b in zip(first, second))


def run_oracle(smoke: bool) -> Measurement:
    dags_per_point = 3 if smoke else 12
    tasks = {cores: _figure7_tasks(cores, dags_per_point) for cores in (2, 8)}
    metrics: dict = {"tasks": len(tasks[2])}

    # The unpruned reference can still enumerate the m = 2 node sizes.
    pruned_s, pruned = best_of(
        lambda: [branch_and_bound_makespan(task, 2) for task in tasks[2]], 1
    )
    reference_s, reference = best_of(
        lambda: [
            branch_and_bound_makespan(task, 2, pruning=False) for task in tasks[2]
        ],
        1,
    )
    ilp = [solve_minimum_makespan(task, 2) for task in tasks[2]]
    pruned_states = sum(result.explored_states for result in pruned)
    reference_states = sum(result.explored_states for result in reference)
    # Instances the list-schedule == lower-bound exit resolves never search;
    # the searched-only reduction credits the dominance and bound pruning.
    searched = [
        (p.explored_states, r.explored_states)
        for p, r in zip(pruned, reference)
        if p.explored_states > 0
    ]
    metrics.update(
        pruned_states=pruned_states,
        reference_states=reference_states,
        state_reduction=reference_states / max(pruned_states, 1),
        searched_state_reduction=(
            sum(r for _, r in searched) / max(sum(p for p, _ in searched), 1)
            if searched
            else 1.0
        ),
        short_circuited=len(pruned) - len(searched),
        time_speedup=reference_s / max(pruned_s, 1e-9),
        all_optimal=all(result.optimal for result in pruned + reference),
    )
    checks = {
        "makespans_identical_to_reference": all(
            p.makespan == r.makespan for p, r in zip(pruned, reference)
        ),
        "makespans_identical_to_ilp": _same_makespans(pruned, ilp),
    }

    warm_identical = True
    for cores, ensemble in tasks.items():
        warm_s, warm = best_of(
            lambda: [
                solve_minimum_makespan(t, cores, warm_start=True) for t in ensemble
            ],
            1,
        )
        cold_s, cold = best_of(
            lambda: [
                solve_minimum_makespan(t, cores, warm_start=False) for t in ensemble
            ],
            1,
        )
        warm_identical = warm_identical and _same_makespans(warm, cold)
        metrics[f"m{cores}.ilp_variable_reduction"] = sum(
            s.variable_count for s in cold
        ) / max(sum(s.variable_count for s in warm), 1)
        metrics[f"m{cores}.ilp_short_circuited"] = sum(
            1 for s in warm if s.variable_count == 0
        )
        metrics[f"m{cores}.ilp_warm_speedup"] = cold_s / max(warm_s, 1e-9)
    checks["warm_start_makespans_identical"] = warm_identical

    # The batch solves each unique instance once and hands duplicates one
    # shared result object; nothing is kept between batches, so a repeat
    # pass solves again and must answer the same.
    first = minimum_makespans_many(tasks[2], 2)
    second = minimum_makespans_many(tasks[2], 2)
    unique = len({id(result) for result in first})
    metrics.update(
        unique_instances=unique,
        dedup_share=1.0 - unique / max(len(tasks[2]), 1),
    )
    checks["repeat_pass_identical"] = all(
        (a.makespan, a.optimal, a.start_times) == (b.makespan, b.optimal, b.start_times)
        for a, b in zip(first, second)
    )
    return metrics, checks


# ----------------------------------------------------------------------
# simulation-dense: reference trace engine vs the dense paths
# ----------------------------------------------------------------------
class _ReversedShortestFirst(ShortestFirstPolicy):
    """Longest-first written as a subclass: it has no priority family, so
    the dense engine reads it through ``priority()``."""

    def priority(self, node, ready_time, arrival_index):
        return (-self._wcet.get(node, 0.0), arrival_index)


def _family_policies(tasks: list, seed: int) -> dict[str, Callable]:
    """A fresh-policy factory per built-in policy, the fixed-priority one
    with a table over every node, and the subclass without a family."""
    nodes = sorted({node for task in tasks for node in task.graph.nodes()}, key=str)
    table = {node: rank % 7 for rank, node in enumerate(nodes)}
    policies = {
        name: (lambda name=name: policy_by_name(name, rng=seed))
        for name in (
            "depth-first",
            "critical-path-first",
            "shortest-first",
            "longest-first",
            "random",
        )
    }
    policies["fixed-priority"] = lambda: FixedPriorityPolicy(table)
    policies["subclass"] = _ReversedShortestFirst
    return policies


def _reference_makespans(cells: list, policy) -> list:
    return [simulate(task, platform, policy).makespan() for task, platform in cells]


def _dense_makespans(cells: list, policy) -> list:
    return [simulate_makespan_dense(task, platform, policy) for task, platform in cells]


def run_simulation_dense(smoke: bool) -> Measurement:
    scale = quick_scale()
    tasks = _figure6_tasks(
        [0.2] if smoke else [0.04, 0.2, 0.5],
        6 if smoke else scale.dags_per_point,
    )
    platforms = [Platform(cores, 1) for cores in scale.core_counts]
    policy = BreadthFirstPolicy()
    cells = [(task, platform) for task in tasks for platform in platforms]

    reference_s, reference = best_of(lambda: _reference_makespans(cells, policy), 3)
    dense_s, dense = best_of(lambda: _dense_makespans(cells, policy), 3)
    # engine="dense" pins the dense batched path, not the C kernel.
    batched_s, grid = best_of(
        lambda: simulate_many(tasks, platforms, BreadthFirstPolicy(), engine="dense"),
        3,
    )
    batched = [float(value) for value in grid.reshape(-1)]
    metrics = {
        "simulations": len(cells),
        "mean_nodes": float(np.mean([task.node_count for task in tasks])),
        "per_call_speedup": reference_s / max(dense_s, 1e-9),
        "batched_speedup": reference_s / max(batched_s, 1e-9),
    }
    # The other families, each policy built fresh per pass so that the
    # random one replays its stream on both engines.
    families_identical = True
    for name, make in _family_policies(tasks, scale.seed).items():
        reference_s, reference_family = best_of(
            lambda: _reference_makespans(cells, make()), 3
        )
        dense_s, dense_family = best_of(lambda: _dense_makespans(cells, make()), 3)
        metrics[f"per_call_speedup[{name}]"] = reference_s / max(dense_s, 1e-9)
        families_identical &= reference_family == dense_family
    return metrics, {
        "makespans_identical": reference == dense == batched,
        "families_identical": families_identical,
    }


# ----------------------------------------------------------------------
# simulation-compiled: the C step-loop kernel vs the dense batched path
# ----------------------------------------------------------------------
def _crossover_lanes(rows: list[tuple[int, float]]) -> Optional[int]:
    """Smallest lane count from which the kernel wins at every tested size."""
    crossover = None
    for lanes, speedup in rows:
        if speedup >= 1.0:
            if crossover is None:
                crossover = lanes
        else:
            crossover = None
    return crossover


def _paper_point(fraction: float = 0.2) -> tuple[list, Callable[[], list]]:
    """The tasks of one paper-scale Figure 6 point (tau and tau'), and a
    maker of fresh re-weighted copies of them, as the next point of a pass
    would simulate: shared structures, WCET vectors not yet compiled."""
    scale = paper_scale()
    (point,) = chunked_offload_fraction_sweep(
        fractions=[fraction],
        dags_per_point=scale.dags_per_point,
        generator_config=LARGE_TASKS_FIG6,
        offload_config=OffloadConfig(),
        root_seed=scale.seed,
    )

    def copies() -> list:
        tasks = [pin_offloaded_fraction(task, fraction) for task in point.tasks]
        return tasks + [transform(task).task for task in tasks]

    return copies(), copies


def _pack_point(tasks: list, platforms: list) -> tuple:
    """Tasks to kernel lane tables, breadth-first, without the kernel call:
    compile, device maps, stacking and the lane records."""
    entries = [(task, compile_task(task)) for task in tasks]
    return pack_column(entries, platforms, BreadthFirstPolicy(), True)


def _views_identical(tasks: list) -> bool:
    """Every compiled WCET vector equals the per-node lookup vector."""
    views = [compile_task(task) for task in tasks]
    return all(
        np.array_equal(
            view.wcet,
            np.array([task.graph.wcet(node) for node in view.nodes], dtype=np.float64),
        )
        for task, view in zip(tasks, views)
    )


def run_simulation_compiled(smoke: bool) -> Measurement:
    if not _kernels.compiled_available():
        reason = _kernels.compiled_unavailable_reason()
        return {"unavailable_reason": reason}, {"kernel_built": False}

    # All six quick-scale fractions with both variants on the four host
    # sizes the figure plots: 576 cells, the batch regime of the kernel.
    scale = quick_scale()
    tasks = _figure6_tasks(scale.fractions, scale.dags_per_point)
    platforms = [Platform(cores, 1) for cores in (2, 4, 8, 16)]
    policy = BreadthFirstPolicy()

    # Warm both paths first (compiled-view caches, the .so build).
    simulate_many(tasks[:4], platforms, policy, engine="compiled")
    simulate_many(tasks[:4], platforms, policy, engine="dense")
    compiled_s, compiled_grid = best_of(
        lambda: simulate_many(tasks, platforms, policy, engine="compiled"),
        3 if smoke else 5,
    )
    dense_s, dense_grid = best_of(
        lambda: simulate_many(tasks, platforms, policy, engine="dense"),
        1 if smoke else 3,
    )
    # The same grid with the process pinned to one CPU, so on one thread.
    affinity = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {min(affinity)})
    try:
        one_cpu_s, one_cpu_grid = best_of(
            lambda: simulate_many(tasks, platforms, policy, engine="compiled"),
            3 if smoke else 5,
        )
    finally:
        os.sched_setaffinity(0, affinity)
    # Breadth-first keys reach the ready queues almost always in order;
    # depth-first keys arrive reversed, static and random ones unordered.
    families = [
        policy_by_name("depth-first"),
        policy_by_name("critical-path-first"),
        policy_by_name("random", rng=scale.seed),
    ]
    family_grids = [
        simulate_many(tasks, platforms, families, engine=engine)
        for engine in ("compiled", "dense")
    ]

    rows = []
    for lanes in [1, 2, 4, 8, 16] if smoke else [1, 2, 4, 8, 16, 32, 64]:
        subset = [tasks[i % len(tasks)] for i in range(lanes)]
        one = [Platform(4, 1)]
        simulate_many(subset, one, policy, engine="compiled")  # warm
        lane_dense_s, _ = best_of(
            lambda: simulate_many(subset, one, policy, engine="dense"), 3
        )
        lane_compiled_s, _ = best_of(
            lambda: simulate_many(subset, one, policy, engine="compiled"), 3
        )
        rows.append((lanes, lane_dense_s / max(lane_compiled_s, 1e-9)))

    # The Python layer between a point's tasks and the kernel call, on the
    # 800 lanes of one paper-scale point.
    point_tasks, fresh_copies = _paper_point()
    packing_s, _ = best_of(
        lambda copies: _pack_point(copies, platforms), 3 if smoke else 5, fresh_copies
    )

    metrics = {
        "simulations": len(tasks) * len(platforms),
        "mean_nodes": float(np.mean([task.node_count for task in tasks])),
        "speedup_vs_dense": dense_s / max(compiled_s, 1e-9),
        "crossover_lanes": _crossover_lanes(rows),
        "crossover_scan": [[lanes, round(speedup, 2)] for lanes, speedup in rows],
        "cpus": len(affinity),
        "thread_speedup": one_cpu_s / max(compiled_s, 1e-9),
        "packing_ms": packing_s * 1e3,
    }
    checks = {
        "kernel_built": True,
        "makespans_identical": bool(np.array_equal(compiled_grid, dense_grid)),
        "threads_identical": bool(np.array_equal(compiled_grid, one_cpu_grid)),
        "families_identical": bool(np.array_equal(*family_grids)),
        "views_identical": _views_identical(tasks + point_tasks),
    }
    return metrics, checks


# ----------------------------------------------------------------------
# service: one-shot requests vs the batching, caching evaluation service
# ----------------------------------------------------------------------
#: How often each unique request appears in the service mix: live traffic
#: re-asks popular questions.
REQUEST_REPEAT = 3


def run_service(smoke: bool) -> Measurement:
    scale = quick_scale()
    documents = [
        task_to_dict(task)
        for task in _figure6_tasks(
            scale.fractions, 8 if smoke else scale.dags_per_point
        )
    ]
    unique = [
        (index, cores) for index in range(len(documents)) for cores in (2, 4, 8, 16)
    ]
    requests = unique * REQUEST_REPEAT
    random.Random(2018).shuffle(requests)

    # Baseline: every request parses, compiles and simulates on its own,
    # the one-shot process model minus process start-up.
    naive_s, naive = best_of(
        lambda: [
            simulate_makespan(
                task_from_dict(documents[index]),
                Platform(cores),
                policy_by_name("breadth-first"),
            )
            for index, cores in requests
        ],
        3,
    )

    # Candidate: one thread per request against a fresh service (cold:
    # batching and in-flight joins), then the same burst again (warm: cache
    # hits).  The cold time includes parsing each unique document once.
    workers = min(len(requests), 256)
    best = None
    for _ in range(3):
        service = EvaluationService()
        pool = ThreadPoolExecutor(max_workers=workers)
        list(pool.map(lambda value: value, range(workers)))  # pre-spawn

        def burst(tasks):
            return list(
                pool.map(
                    lambda request: service.submit_simulation(
                        tasks[request[0]], request[1], timeout=600
                    ),
                    requests,
                )
            )

        def cold():
            tasks = [task_from_dict(document) for document in documents]
            return tasks, burst(tasks)

        cold_s, (tasks, cold_results) = best_of(cold, 1)
        warm_s, warm_results = best_of(lambda: burst(tasks), 3)
        stats = service.stats()
        pool.shutdown()
        service.close()
        if best is None or cold_s < best[0]:
            best = (cold_s, warm_s, cold_results, warm_results, stats)
    cold_s, warm_s, cold_results, warm_results, stats = best

    # Cache hits as the HTTP transport serves them: a body answered before
    # is answered from its digest, unparsed; any other body is parsed and
    # its task built before its fingerprint hits.
    bodies = {
        request: json.dumps({"task": documents[request[0]], "cores": request[1]}).encode()
        for request in set(requests)
    }
    digests = {
        request: hashlib.sha256(b"/simulate\0" + body).digest()
        for request, body in bodies.items()
    }
    with EvaluationService() as service:
        for request in sorted(bodies):
            with body_digest(digests[request]):
                service.submit_simulation(
                    task_from_dict(documents[request[0]]), request[1], timeout=600
                )

        def full_hits(fresh):
            return [
                service.submit_simulation(
                    task_from_dict(body["task"]), body["cores"], timeout=600
                )
                for body in fresh
            ]

        def repeat_hits():
            return [
                service.answer_repeat("simulate", digests[request])["makespan"]
                for request in requests
            ]

        full_s, full = best_of(
            full_hits, 3, lambda: [json.loads(bodies[request]) for request in requests]
        )
        repeat_s, repeats = best_of(repeat_hits, 3)
        misses = service.stats()["cache"]["misses"]
    if misses != len(set(requests)):
        raise RuntimeError(f"{misses} misses: every timed request must be a hit")

    metrics = {
        "requests": len(requests),
        "unique_requests": len(set(requests)),
        "task_variants": len(documents),
        "batching_speedup": naive_s / max(cold_s, 1e-9),
        "hit_speedup": naive_s / max(warm_s, 1e-9),
        "repeat_hit_speedup": full_s / max(repeat_s, 1e-9),
        "repeat_hit_ms": 1e3 * repeat_s / len(requests),
        "full_decode_hit_ms": 1e3 * full_s / len(requests),
        "batches": stats["batching"]["batches"],
        "largest_batch": stats["batching"]["largest_batch"],
        "inflight_joins": stats["engine"]["inflight_joins"],
    }
    checks = {
        "payloads_identical": naive == cold_results == warm_results,
        "repeat_hits_identical": naive == full == repeats,
    }
    return metrics, checks


# ----------------------------------------------------------------------
# faults: disabled fault points and the degraded oracle mode
# ----------------------------------------------------------------------
def run_faults(smoke: bool) -> Measurement:
    if FAULTS.enabled:
        raise RuntimeError("fault injection must be disarmed for timing")
    calls = 200_000 if smoke else 1_000_000

    def noop(_name: str) -> None:
        return None

    metrics = {
        "fault_point_disabled_ns": ns_per_call(fault_point, calls, 3, "bench.disabled"),
        "noop_call_ns": ns_per_call(noop, calls, 3, "bench.disabled"),
    }

    # Solver-sized tasks with integer WCETs: exact solves vs the degraded
    # bound sandwich that sheds load.
    config = GeneratorConfig(
        p_par=0.6, n_par=3, max_depth=2, n_min=4, n_max=10, c_min=1, c_max=12
    )
    tasks = [
        task.with_offloaded_wcet(max(1.0, float(round(task.offloaded_wcet))))
        for task in _heterogeneous_tasks(config, 12 if smoke else 48, 2018)
    ]
    exact_s, exact = best_of(lambda: minimum_makespans_many(tasks, 2), 3)
    degraded_s, degraded = best_of(
        lambda: minimum_makespans_many(tasks, 2, budget=0.0), 3
    )
    metrics.update(
        oracle_tasks=len(tasks),
        degraded_speedup=exact_s / max(degraded_s, 1e-9),
    )
    checks = {
        "all_degraded_flagged": all(r.degraded and not r.optimal for r in degraded),
        "bound_sandwich_holds": all(
            loose.engine_stats["lower_bound"] <= tight.makespan <= loose.makespan
            for loose, tight in zip(degraded, exact)
        ),
    }
    return metrics, checks


# ----------------------------------------------------------------------
# workload: the dense event loop vs the scalar reference event loop
# ----------------------------------------------------------------------
#: A wide serving-tier host, so many instances overlap.
WORKLOAD_HOST_CORES = 1024
WORKLOAD_ACCELERATORS = 2


def run_workload(smoke: bool) -> Measurement:
    # Host-side DAGs with short integer WCETs on integer periods: the event
    # lattice stays coarse, so each step retires and starts nodes in bulk
    # on a host wide enough for every ready node.  The offered load is ~2x
    # the host.
    stream_count = 4 if smoke else 6
    instances_per_stream = 50 if smoke else 60
    config = dataclasses.replace(SMALL_TASKS.with_node_range(50, 100), c_min=1, c_max=8)
    streams = []
    for index, seed in enumerate(spawn_seeds(2018, stream_count)):
        task = DagStructureGenerator(config, seed).generate_task(f"tau_{index}")
        period = max(
            1.0, round(stream_count * task.volume / (2.0 * WORKLOAD_HOST_CORES))
        )
        streams.append(
            JobStream(
                task=task,
                arrivals=PeriodicArrivals(period=period),
                deadline=10.0 * period,
            )
        )
    horizon = instances_per_stream * max(stream.arrivals.period for stream in streams)
    workload = build_workload(streams, horizon)
    platform = Platform(WORKLOAD_HOST_CORES, WORKLOAD_ACCELERATORS)
    policy = policy_by_name("breadth-first")

    reference_s, reference = best_of(
        lambda: simulate_workload_reference(workload, platform, policy), 3
    )
    dense_s, dense = best_of(
        lambda: simulate_workload(workload, platform, policy), 3
    )
    metrics = {
        "instances": len(workload),
        "nodes": sum(len(job.task.graph.nodes()) for job in workload),
        "miss_ratio": dense.miss_ratio(),
        "coupled_speedup": reference_s / max(dense_s, 1e-9),
    }
    checks = {
        "completions_identical": bool(
            np.array_equal(reference.completions, dense.completions)
        )
    }
    return metrics, checks


# ----------------------------------------------------------------------
# tracing: disarmed hooks and a fully traced service
# ----------------------------------------------------------------------
def run_tracing(smoke: bool) -> Measurement:
    calls = 100_000 if smoke else 500_000
    disabled_tracer = Tracer(enabled=False)
    enabled_tracer = Tracer(enabled=True)

    def span_disabled() -> None:
        with disabled_tracer.span("bench.noop"):
            pass

    def span_untraced() -> None:
        # Enabled tracer, no ambient trace: the path of every in-process
        # caller (CLI, drivers, experiments) through a traced build.
        with enabled_tracer.span("bench.noop"):
            pass

    def record_disarmed() -> None:
        record_kernel_batch("bench", lanes=8, steps=5, events=40, lane_steps=40)

    def noop() -> None:
        return None

    metrics = {
        "noop_call_ns": ns_per_call(noop, calls, 5),
        "span_disabled_ns": ns_per_call(span_disabled, calls, 5),
        "span_untraced_ns": ns_per_call(span_untraced, calls, 5),
        "record_kernel_disarmed_ns": ns_per_call(record_disarmed, calls, 5),
    }
    checks = {
        "no_trace_from_disabled_hooks": (
            enabled_tracer.started == 0 and disabled_tracer.started == 0
        )
    }

    # The same closed-loop burst against an untraced and a fully traced
    # service, each request under its own trace as the HTTP transport runs
    # it; with tracing off every step no-ops, so the difference is the
    # tracing cost.  Cache hits (the warm passes) show it undiluted.
    config = GeneratorConfig(
        p_par=0.6, n_par=3, max_depth=2, n_min=6, n_max=14, c_min=1, c_max=12
    )
    tasks = _heterogeneous_tasks(config, 24 if smoke else 96, 9000)
    requests = [(task, cores) for task in tasks for cores in (2, 4)]
    cold_s, warm_s, results = {}, {}, []
    for mode, kwargs in (
        ("untraced", {"tracing": False}),
        (
            "traced",
            {"tracing": True, "trace_sample": 1.0, "trace_ring_bytes": 64 << 20},
        ),
    ):
        service = EvaluationService(cache_bytes=64 << 20, **kwargs)
        tracer = service.tracer

        def one(request):
            task, cores = request
            trace = tracer.start_trace("bench.request")
            try:
                with tracer.activate(trace):
                    return service.submit_simulation(task, Platform(cores, 1))
            finally:
                tracer.finish_trace(trace)

        def drive():
            with ThreadPoolExecutor(max_workers=16) as pool:
                return list(pool.map(one, requests))

        try:
            cold_s[mode], cold = best_of(drive, 1)
            warm_s[mode], warm = best_of(drive, 3)
            ring = tracer.ring_stats()  # the traced service's: the last mode
        finally:
            service.close()
        results += [cold, warm]

    metrics.update(
        requests_per_pass=len(requests),
        traced_cold_slowdown=cold_s["traced"] / cold_s["untraced"],
        traced_warm_slowdown=warm_s["traced"] / warm_s["untraced"],
        ring_traces=ring["ring_traces"],
    )
    checks.update(
        results_identical=all(result == results[0] for result in results),
        ring_within_cap=ring["ring_bytes"] <= ring["ring_capacity_bytes"],
    )
    return metrics, checks


# ----------------------------------------------------------------------
# graph-kernel: cached graph queries and batched analysis (reported only)
# ----------------------------------------------------------------------
def _layered_dag(nodes: int, width: int, seed: int) -> DirectedAcyclicGraph:
    """A deterministic layered DAG: every node links back to 1-3 nodes of the
    previous layer, the structural shape the paper's generator produces."""
    rng = np.random.default_rng(seed)
    graph = DirectedAcyclicGraph()
    layers: list[list[str]] = []
    created = 0
    while created < nodes:
        layer = []
        for _ in range(min(width, nodes - created)):
            name = f"v{created}"
            graph.add_node(name, int(rng.integers(1, 100)))
            layer.append(name)
            created += 1
        if layers:
            previous = layers[-1]
            for name in layer:
                fan_in = 1 + int(rng.integers(0, min(3, len(previous))))
                for src in rng.choice(previous, size=fan_in, replace=False):
                    if not graph.has_edge(str(src), name):
                        graph.add_edge(str(src), name)
        layers.append(layer)
    return graph


def run_graph_kernel(smoke: bool) -> Measurement:
    # The uncached baselines invalidate the caches before every query:
    # recompute the topological order, labelling and reachability.
    metrics: dict = {}
    for size in (50,) if smoke else (50, 500, 2000):
        graph = _layered_dag(size, max(4, size // 12), seed=size)

        def cached_path() -> None:
            graph.critical_path_length()

        def uncached_path() -> None:
            graph.invalidate_caches()
            graph.critical_path_length()

        cached_path()  # warm
        cached_ns = ns_per_call(cached_path, 2000, 1)
        metrics[f"n{size}.critical_path_speedup"] = (
            ns_per_call(uncached_path, 30, 1) / cached_ns
        )

        rng = np.random.default_rng(size + 1)
        names = graph.nodes()
        pairs = [
            (names[int(a)], names[int(b)])
            for a, b in zip(
                rng.integers(0, len(names), size=64),
                rng.integers(0, len(names), size=64),
            )
        ]

        def cached_pairs() -> None:
            for a, b in pairs:
                graph.are_parallel(a, b)

        def uncached_pairs() -> None:
            for a, b in pairs:
                graph.invalidate_caches()
                graph.are_parallel(a, b)

        cached_pairs()  # warm
        cached_ns = ns_per_call(cached_pairs, 50, 1)
        metrics[f"n{size}.reachability_speedup"] = (
            ns_per_call(uncached_pairs, 2, 1) / cached_ns
        )

        tasks = []
        for index in range(max(2, 24 // max(1, size // 100))):
            dag = _layered_dag(size, max(4, size // 12), size + 2 + index)
            tasks.append(
                DagTask(
                    graph=dag,
                    offloaded_node=dag.nodes()[size // 2],
                    name=f"bench_{size}_{index}",
                )
            )

        def naive() -> None:
            for task in tasks:
                task.graph.invalidate_caches()
            for cores in (2, 4, 8):
                for task in tasks:
                    analyse(task, cores)

        def batched() -> None:
            for task in tasks:
                task.graph.invalidate_caches()
            analyse_many(tasks, cores=(2, 4, 8))

        naive()  # warm imports and allocators
        metrics[f"n{size}.batched_analysis_speedup"] = ns_per_call(
            naive, 3, 1
        ) / ns_per_call(batched, 3, 1)
    fig6_metrics, matches = _figure6_graph_layer(10 if smoke else 100)
    metrics.update(fig6_metrics)
    return metrics, {"fig6_transform_matches_rebuild": matches}


def _edge_by_edge(task: DagTask) -> DagTask:
    """``task`` rebuilt through ``add_node`` and ``add_edge``."""
    graph = DirectedAcyclicGraph()
    for node, wcet in task.graph.wcets().items():
        graph.add_node(node, wcet)
    for src, dst in task.graph.edges():
        graph.add_edge(src, dst)
    return DagTask(graph=graph, offloaded_node=task.offloaded_node, name=task.name)


def _transform_view(task: DagTask) -> tuple:
    """Everything ``transform(task)`` returns, orders and the CSR included."""
    result = transform(task)
    views = []
    for graph in (result.graph, result.gpar):
        compiled = graph.compiled()
        views.append((graph.wcets(), graph.edges(), compiled.succ_ptr,
                      compiled.succ_idx, compiled.topo))
    return (*views, result.direct_predecessors, result.predecessors,
            result.successors, result.rerouted_edges)


def _figure6_graph_layer(count: int) -> tuple[dict, bool]:
    """Per-structure ms of the graph layer on ``count`` Figure 6 structures:
    birth (``from_dict``, as a served miss builds), ``transform`` and the
    compile of tau and tau'; and whether each generated task transforms
    exactly as its edge-by-edge rebuild."""
    (point,) = chunked_offload_fraction_sweep(
        fractions=[0.2],
        dags_per_point=count,
        generator_config=LARGE_TASKS_FIG6,
        offload_config=OffloadConfig(),
        root_seed=quick_scale().seed,
    )
    documents = [
        (task.graph.wcets(), task.graph.edges(), task.offloaded_node) for task in point.tasks
    ]

    def born() -> list[DagTask]:
        return [
            DagTask(graph=DirectedAcyclicGraph.from_dict(wcets, edges), offloaded_node=offloaded)
            for wcets, edges, offloaded in documents
        ]

    def transformed() -> list[tuple]:
        return [(task, transform(task).task) for task in born()]

    birth_s, _ = best_of(born, 3)
    transform_s, _ = best_of(lambda tasks: [transform(task) for task in tasks], 3, born)
    compile_s, _ = best_of(
        lambda pairs: [(task.compiled(), result.compiled()) for task, result in pairs],
        3,
        transformed,
    )
    metrics = {
        "fig6.structures": count,
        "fig6.birth_ms": birth_s / count * 1e3,
        "fig6.transform_ms": transform_s / count * 1e3,
        "fig6.compile_ms": compile_s / count * 1e3,
    }
    matches = all(
        _transform_view(task) == _transform_view(_edge_by_edge(task)) for task in point.tasks
    )
    return metrics, matches


# ----------------------------------------------------------------------
# generator: the structure draws replayed in C against numpy's
# ----------------------------------------------------------------------
#: Paper-scale Figure 6 structure draws per pass, about the 100 of a pass.
GENERATOR_DRAWS = 100


def run_generator(smoke: bool) -> Measurement:
    if not _kernels.compiled_available():
        reason = _kernels.compiled_unavailable_reason()
        return {"unavailable_reason": reason}, {"kernel_built": False}

    seed = paper_scale().seed

    def draws(method: str) -> tuple[list, dict]:
        generator = DagStructureGenerator(LARGE_TASKS_FIG6, seed)
        drawn = [getattr(generator, method)() for _ in range(GENERATOR_DRAWS)]
        return drawn, generator.rng.bit_generator.state

    draws("_draw")  # warm: the kernel load
    replay_s, (replayed, replay_state) = best_of(lambda: draws("_draw"), 3 if smoke else 5)
    numpy_s, (drawn, numpy_state) = best_of(lambda: draws("_numpy_draw"), 1 if smoke else 3)
    metrics = {
        "draws": GENERATOR_DRAWS,
        "mean_nodes": float(np.mean([draw.nodes for draw in replayed])),
        "replay_ms_per_draw": replay_s / GENERATOR_DRAWS * 1e3,
        "numpy_ms_per_draw": numpy_s / GENERATOR_DRAWS * 1e3,
        "replay_speedup": numpy_s / max(replay_s, 1e-9),
    }
    checks = {
        "kernel_built": True,
        "draws_identical": all(
            one.nodes == other.nodes and one.edges == other.edges
            for one, other in zip(replayed, drawn)
        ),
        "rng_state_identical": replay_state == numpy_state,
    }
    return metrics, checks


# ----------------------------------------------------------------------
# The registry
# ----------------------------------------------------------------------
CASES: tuple[Case, ...] = (
    Case(
        name="oracle",
        layer="exact makespan oracles",
        workload="quick-scale Figure 7 paired C_off sweep (3 smoke / 12 DAGs "
        "per point), m = 2; the ILP also at m = 8",
        candidate="pruned branch-and-bound",
        baseline="unpruned branch-and-bound (pruning=False)",
        run=run_oracle,
        gates=(Gate("state_reduction", ">=", 5.0),),
        checks=(
            "makespans_identical_to_reference",
            "makespans_identical_to_ilp",
            "warm_start_makespans_identical",
            "repeat_pass_identical",
        ),
    ),
    Case(
        name="simulation-dense",
        layer="simulation engines",
        workload="quick-scale Figure 6 tasks, original + transformed "
        "(C_off 0.2 x 6 DAGs smoke / 3 fractions x 12 DAGs), m in {2, 8}, "
        "breadth-first; per call also under the six other built-in "
        "policies and a subclass without a priority family",
        candidate="dense batched simulate_many",
        baseline="reference trace engine",
        run=run_simulation_dense,
        gates=(Gate("batched_speedup", ">=", 3.0),),
        checks=("makespans_identical", "families_identical"),
    ),
    Case(
        name="simulation-compiled",
        layer="simulation engines",
        workload="quick-scale Figure 6 ensemble, original + transformed, "
        "m in {2, 4, 8, 16} (576 cells), also pinned to one CPU and under "
        "depth-first, critical-path-first and random; crossover scan at "
        "1-16/64 lanes; lane packing of one paper-scale point (800 lanes)",
        candidate="compiled C step-loop kernel",
        baseline="dense batched simulate_many",
        run=run_simulation_compiled,
        gates=(
            Gate("speedup_vs_dense", ">=", 4.0),
            Gate("crossover_lanes", "<=", 16),
        ),
        checks=(
            "kernel_built",
            "makespans_identical",
            "threads_identical",
            "families_identical",
            "views_identical",
        ),
    ),
    Case(
        name="service",
        layer="evaluation service",
        workload="quick-scale Figure 6 request mix (8 smoke / 12 DAGs per "
        "fraction) x m in {2, 4, 8, 16}, each unique request 3 times, shuffled",
        candidate="EvaluationService: batched cold burst, cached warm burst, "
        "repeats answered from their body digests",
        baseline="one-shot parse + simulate per request; hits after a full "
        "task_from_dict",
        run=run_service,
        gates=(
            Gate("batching_speedup", ">=", 2.0),
            Gate("hit_speedup", ">=", 10.0),
            Gate("repeat_hit_speedup", ">=", 2.0),
        ),
        checks=("payloads_identical", "repeat_hits_identical"),
    ),
    Case(
        name="faults",
        layer="resilience",
        workload="200 000 smoke / 10^6 disabled fault-point calls; 12 smoke "
        "/ 48 solver-sized tasks at m = 2",
        candidate="disabled fault point; degraded bound-sandwich oracle",
        baseline="no-op call; exact oracle solves",
        run=run_faults,
        gates=(
            Gate("fault_point_disabled_ns", "<=", 1000.0),
            Gate("degraded_speedup", ">=", 2.0),
        ),
        checks=("all_degraded_flagged", "bound_sandwich_holds"),
    ),
    Case(
        name="workload",
        layer="job-stream workloads",
        workload="4 smoke / 6 saturated periodic host-only streams "
        "(n in [50, 100], WCETs 1-8) on 1024 cores + 2 accelerators",
        candidate="simulate_workload (the dense event loop)",
        baseline="scalar reference event loop",
        run=run_workload,
        gates=(Gate("coupled_speedup", ">=", 2.0),),
        checks=("completions_identical",),
    ),
    Case(
        name="tracing",
        layer="request tracing",
        workload="100 000 smoke / 500 000 disarmed hook calls; closed-loop "
        "burst of 24 smoke / 96 small tasks x m in {2, 4}",
        candidate="disarmed hooks; fully traced service (sample 1.0)",
        baseline="no-op call; untraced service",
        run=run_tracing,
        gates=(
            Gate("span_disabled_ns", "<=", 10_000.0),
            Gate("span_untraced_ns", "<=", 10_000.0),
            Gate("record_kernel_disarmed_ns", "<=", 3_000.0),
            Gate("traced_warm_slowdown", "<=", 3.0),
        ),
        checks=(
            "no_trace_from_disabled_hooks",
            "results_identical",
            "ring_within_cap",
        ),
    ),
    Case(
        name="graph-kernel",
        layer="graph kernel",
        workload="layered random DAGs of 50 (smoke) / 50, 500, 2000 nodes; "
        "10 (smoke) / 100 Figure 6 structures",
        candidate="cached queries; batched analyse_many; graphs born as "
        "their kernel (birth, transform, compile per structure)",
        baseline="queries after invalidate_caches; per-(task, m) analyse; "
        "the same tasks rebuilt through add_node/add_edge",
        run=run_graph_kernel,
        checks=("fig6_transform_matches_rebuild",),
    ),
    Case(
        name="generator",
        layer="task generator",
        workload=f"{GENERATOR_DRAWS} paper-scale Figure 6 structure draws "
        "(LARGE_TASKS_FIG6, the paper seed), rejected draws included",
        candidate="rejection loop replayed from PCG64 in the compiled kernel",
        baseline="recursive expansion with numpy's scalar draws",
        run=run_generator,
        gates=(Gate("replay_speedup", ">=", 5.0),),
        checks=("kernel_built", "draws_identical", "rng_state_identical"),
    ),
)


# ----------------------------------------------------------------------
# The runner
# ----------------------------------------------------------------------
def run_case(case: Case, smoke: bool) -> dict:
    """Run, time and judge one case; a case that raises fails."""
    started = time.perf_counter()
    try:
        metrics, checks = case.run(smoke)
        error = None
    except Exception:  # noqa: BLE001 - report and go on to the next case
        metrics, checks, error = {}, {}, traceback.format_exc()
    record = evaluate(case, metrics, checks)
    record["seconds"] = time.perf_counter() - started
    if error is not None:
        record["error"] = error
        record["passed"] = False
    return record


def _format(value: object) -> str:
    if isinstance(value, float):
        return f"{value:.4g}"
    return json.dumps(value)


def print_record(record: dict) -> None:
    print(f"\n[{record['case']}] {record['layer']}: {record['candidate']}")
    print(f"  vs {record['baseline']}")
    print(f"  on {record['workload']}")
    for gate in record["gates"]:
        verdict = "PASS" if gate["passed"] else "FAIL"
        print(
            f"  {gate['metric']:<40} {_format(gate['value']):>10}  "
            f"{gate['comparison']} {_format(gate['threshold']):<8} {verdict}"
        )
    for name, passed in record["checks"].items():
        print(f"  {name:<40} {'check':>10}  {'':<11} {'PASS' if passed else 'FAIL'}")
    gated = {gate["metric"] for gate in record["gates"]}
    for name, value in record["metrics"].items():
        if name not in gated:
            print(f"  {name:<40} {_format(value):>10}  (reported)")
    if "error" in record:
        print(record["error"], end="")
    verdict = "PASS" if record["passed"] else "FAIL"
    print(f"  -> {verdict} in {record['seconds']:.1f} s")


def write_records(records: list[dict]) -> None:
    """Merge ``records`` into the suite document, one record per case."""
    previous = (
        json.loads(OUTPUT.read_text(encoding="utf-8"))["records"]
        if OUTPUT.exists()
        else []
    )
    by_case = {record["case"]: record for record in previous + records}
    ordered = [by_case[case.name] for case in CASES if case.name in by_case]
    document = {"suite": "micro-benchmarks", "records": ordered}
    OUTPUT.parent.mkdir(parents=True, exist_ok=True)
    OUTPUT.write_text(json.dumps(document, indent=2) + "\n", encoding="utf-8")
    print(f"\nrecords written to {OUTPUT}")


def main(argv: list[str]) -> int:
    smoke = "--smoke" in argv
    names = [arg for arg in argv if arg != "--smoke"]
    known = {case.name: case for case in CASES}
    unknown = [name for name in names if name not in known]
    if unknown:
        print(
            f"unknown case(s) {unknown}; cases: {', '.join(known)}",
            file=sys.stderr,
        )
        return 2
    selected = [known[name] for name in names] if names else list(CASES)
    records = []
    for case in selected:
        record = run_case(case, smoke)
        print_record(record)
        records.append(record)
    if not smoke:
        write_records(records)
    failed = [record["case"] for record in records if not record["passed"]]
    print(
        f"\nsuite: {len(records) - len(failed)}/{len(records)} cases passed"
        + (f"; FAILED: {', '.join(failed)}" if failed else "")
    )
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
