#!/usr/bin/env python3
"""Benchmark of the PR-3 dense simulation core on the Figure 6 workload.

Measures, on the quick-scale Figure 6 task ensemble (paired ``C_off``
sweep over large random DAGs, ``n in [100, 250]``, original + transformed
variants, ``m in {2, 8}``):

* **reference trace engine** -- ``simulate(...).makespan()``: object-keyed
  dispatch, one ``NodeExecution`` per node, full trace assembly;
* **dense fast path** -- ``simulate_makespan_dense`` per call: integer
  dense indices, preallocated arrays, no trace;
* **batched dense path** -- ``simulate_many`` (serial, like-for-like
  ``jobs``): one compile per task variant serving every ``(cores,
  variant)`` cell.

Every makespan must be bit-identical across the three paths; the
acceptance threshold requires the batched dense path to be at least
``SPEEDUP_TARGET`` times faster end-to-end than the reference engine.
Aggregated results are written to ``BENCH_PR3.json`` at the repository
root, extending the performance trajectory of ``BENCH_PR1.json`` (cached
graph kernel) and ``BENCH_PR2.json`` (exact-makespan oracles).

``--compiled`` benchmarks the compiled C step-loop kernel (the default
engine of ``simulate_many``) against the batched dense path
(``simulate_many(..., engine="dense")``) on the full quick-scale figure 6
ensemble (all six fractions, original + transformed variants) over the
figure's four host sizes (``m in {2, 4, 8, 16}``), measures the engine
crossover versus the dense path at small lane counts, and enforces the
``COMPILED_SPEEDUP_TARGET`` (>= 4x over the dense batched path,
bit-identical, crossover <= ``CROSSOVER_MAX_LANES``).  Results go to
``BENCH_PR8.json``.

Run with:  python benchmarks/bench_simulation.py  [--compiled] [--smoke]
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

_REPO_ROOT = Path(__file__).resolve().parent.parent
_SRC = _REPO_ROOT / "src"
if _SRC.is_dir() and str(_SRC) not in sys.path:
    sys.path.insert(0, str(_SRC))

import numpy as np  # noqa: E402

from repro.core.transformation import transform  # noqa: E402
from repro.experiments.config import quick_scale  # noqa: E402
from repro.generator.config import OffloadConfig  # noqa: E402
from repro.generator.presets import LARGE_TASKS_FIG6  # noqa: E402
from repro.generator.sweep import chunked_offload_fraction_sweep  # noqa: E402
from repro.simulation.batch import simulate_many  # noqa: E402
from repro.simulation.dense import simulate_makespan_dense  # noqa: E402
from repro.simulation.engine import simulate  # noqa: E402
from repro.simulation.platform import Platform  # noqa: E402
from repro.simulation.schedulers import BreadthFirstPolicy  # noqa: E402

OUTPUT = _REPO_ROOT / "BENCH_PR3.json"
OUTPUT_COMPILED = _REPO_ROOT / "BENCH_PR8.json"

#: Acceptance threshold: the batched dense path must be at least this many
#: times faster than the reference trace engine on the Figure 6 workload.
SPEEDUP_TARGET = 3.0

#: Acceptance thresholds of ``--compiled``: the C kernel must be at least
#: this many times faster than the batched dense path on the same ensemble
#: (as strict as the two gates it replaces together: the deleted numpy
#: kernel had to beat dense 2x, and the C kernel had to beat it 2x), and
#: its measured crossover against the dense engine must sit at or below
#: this many lanes (target ~1).
COMPILED_SPEEDUP_TARGET = 4.0
CROSSOVER_MAX_LANES = 16


#: Timed repetitions per path; the best (minimum) time is reported, which
#: makes the smoke gate robust against scheduler noise on shared CI runners.
REPEATS = 3


def figure6_workload(smoke: bool) -> tuple[list, list[Platform]]:
    """Original + transformed tasks of a quick-scale Figure 6 sweep point."""
    scale = quick_scale()
    fractions = [0.2] if smoke else [0.04, 0.2, 0.5]
    dags_per_point = 6 if smoke else scale.dags_per_point
    points = chunked_offload_fraction_sweep(
        fractions=fractions,
        dags_per_point=dags_per_point,
        generator_config=LARGE_TASKS_FIG6,
        offload_config=OffloadConfig(),
        root_seed=scale.seed,
    )
    tasks = [task for point in points for task in point.tasks]
    tasks = tasks + [transform(task).task for task in tasks]
    platforms = [Platform(cores, 1) for cores in scale.core_counts]
    return tasks, platforms


def _best_of(run, repeats: int = REPEATS) -> tuple[float, object]:
    best_s, result = float("inf"), None
    for _ in range(repeats):
        t0 = time.perf_counter()
        result = run()
        best_s = min(best_s, time.perf_counter() - t0)
    return best_s, result


def bench_reference(tasks: list, platforms: list[Platform]) -> tuple[float, list]:
    policy = BreadthFirstPolicy()
    return _best_of(
        lambda: [
            simulate(task, platform, policy).makespan()
            for task in tasks
            for platform in platforms
        ]
    )


def bench_dense(tasks: list, platforms: list[Platform]) -> tuple[float, list]:
    policy = BreadthFirstPolicy()
    return _best_of(
        lambda: [
            simulate_makespan_dense(task, platform, policy)
            for task in tasks
            for platform in platforms
        ]
    )


def bench_batched(tasks: list, platforms: list[Platform]) -> tuple[float, list]:
    # engine="dense" pins the PR-3 fast path: this benchmark's comparison
    # is reference engine vs dense paths, not the C kernel.
    elapsed, grid = _best_of(
        lambda: simulate_many(tasks, platforms, BreadthFirstPolicy(), engine="dense")
    )
    return elapsed, [float(value) for value in grid.reshape(-1)]


def vectorized_workload() -> tuple[list, list[Platform]]:
    """The full quick-scale figure 6 ensemble on the figure's host sizes.

    All six quick-scale fractions with both variants (the ensemble the
    rewired figure 6 driver actually simulates), on the four host sizes the
    figure plots -- 576 cells, the batch regime the C kernel is built for.
    """
    scale = quick_scale()
    points = chunked_offload_fraction_sweep(
        fractions=scale.fractions,
        dags_per_point=scale.dags_per_point,
        generator_config=LARGE_TASKS_FIG6,
        offload_config=OffloadConfig(),
        root_seed=scale.seed,
    )
    tasks = [task for point in points for task in point.tasks]
    tasks = tasks + [transform(task).task for task in tasks]
    platforms = [Platform(cores, 1) for cores in (2, 4, 8, 16)]
    return tasks, platforms


def _crossover_scan(
    tasks: list, lane_counts: list[int], engine: str, repeats: int = 3
) -> list[dict]:
    """Time ``engine`` vs dense at each lane count (one task per lane)."""
    platform = [Platform(4, 1)]
    policy = BreadthFirstPolicy()
    rows = []
    for lanes in lane_counts:
        subset = [tasks[i % len(tasks)] for i in range(lanes)]
        simulate_many(subset, platform, policy, engine=engine)  # warm
        dense_s, _ = _best_of(
            lambda: simulate_many(subset, platform, policy, engine="dense"),
            repeats=repeats,
        )
        engine_s, _ = _best_of(
            lambda: simulate_many(subset, platform, policy, engine=engine),
            repeats=repeats,
        )
        rows.append(
            {
                "lanes": lanes,
                "dense_s": dense_s,
                f"{engine}_s": engine_s,
                "speedup_vs_dense": dense_s / max(engine_s, 1e-9),
            }
        )
    return rows


def _crossover_lanes(rows: list[dict]) -> int | None:
    """Smallest lane count from which the engine wins at every tested size."""
    crossover = None
    for row in rows:
        if row["speedup_vs_dense"] >= 1.0:
            if crossover is None:
                crossover = row["lanes"]
        else:
            crossover = None
    return crossover


def main_compiled(smoke: bool) -> dict:
    from repro.simulation import _kernels

    if not _kernels.compiled_available():
        print(
            "compiled backend unavailable: "
            f"{_kernels.compiled_unavailable_reason()}"
        )
        sys.exit(1)

    tasks, platforms = vectorized_workload()
    simulations = len(tasks) * len(platforms)
    node_counts = [task.node_count for task in tasks]
    policy = BreadthFirstPolicy()

    # Warm every path once (compiled-view caches, the .so build) first.
    simulate_many(tasks[:4], platforms, policy, engine="compiled")
    simulate_many(tasks[:4], platforms, policy, engine="dense")
    compiled_s, compiled_grid = _best_of(
        lambda: simulate_many(tasks, platforms, policy, engine="compiled"),
        repeats=3 if smoke else 5,
    )
    dense_s, dense_grid = _best_of(
        lambda: simulate_many(tasks, platforms, policy, engine="dense"),
        repeats=1 if smoke else 3,
    )
    identical = np.array_equal(compiled_grid, dense_grid)
    speedup = dense_s / max(compiled_s, 1e-9)

    lane_counts = [1, 2, 4, 8, 16] if smoke else [1, 2, 4, 8, 16, 32, 64]
    crossover_rows = _crossover_scan(tasks, lane_counts, "compiled")
    crossover = _crossover_lanes(crossover_rows)
    crossover_met = crossover is not None and crossover <= CROSSOVER_MAX_LANES

    document = {
        "benchmark": "compiled_simulation",
        "pr": 8,
        "description": (
            "Compiled C step-loop kernel (simulation/_kernels.py via "
            "ctypes) vs the dense batched path on the quick-scale figure 6 "
            "ensemble over the figure's four host sizes (see "
            "docs/performance.md section 10)."
        ),
        "smoke": smoke,
        "simulations": simulations,
        "tasks": len(tasks),
        "platforms": [platform.host_cores for platform in platforms],
        "mean_nodes": float(np.mean(node_counts)),
        "dense_batched_s": dense_s,
        "compiled_s": compiled_s,
        "compiled_speedup_vs_dense": speedup,
        "crossover_scan": crossover_rows,
        "crossover_lanes": crossover,
        "makespans_identical": bool(identical),
        "acceptance": {
            "speedup": speedup,
            "speedup_target": COMPILED_SPEEDUP_TARGET,
            "speedup_met": speedup >= COMPILED_SPEEDUP_TARGET,
            "crossover_lanes": crossover,
            "crossover_max_lanes": CROSSOVER_MAX_LANES,
            "crossover_met": bool(crossover_met),
            "makespans_identical": bool(identical),
        },
    }

    print(
        f"figure 6 workload: {simulations} simulations "
        f"({len(tasks)} task variants x m in "
        f"{[p.host_cores for p in platforms]}, "
        f"mean n = {document['mean_nodes']:.0f})"
    )
    print(
        f"dense batched: {dense_s * 1000:.1f} ms | compiled: "
        f"{compiled_s * 1000:.1f} ms (x{speedup:.2f} vs dense)"
    )
    print(
        "crossover vs dense: "
        + ", ".join(
            f"{row['lanes']}l x{row['speedup_vs_dense']:.2f}"
            for row in crossover_rows
        )
        + f" -> crossover at {crossover} lane(s)"
    )
    if not smoke:
        OUTPUT_COMPILED.write_text(
            json.dumps(document, indent=2) + "\n", encoding="utf-8"
        )
        print(f"results written to {OUTPUT_COMPILED}")
    accepted = document["acceptance"]
    print(
        f"acceptance: compiled x{accepted['speedup']:.2f} vs dense batched "
        f"(target x{accepted['speedup_target']:.1f}) -> "
        f"{'PASS' if accepted['speedup_met'] else 'FAIL'}; "
        f"crossover {accepted['crossover_lanes']} lanes "
        f"(max {accepted['crossover_max_lanes']}) -> "
        f"{'PASS' if accepted['crossover_met'] else 'FAIL'}; "
        f"makespans identical -> "
        f"{'PASS' if accepted['makespans_identical'] else 'FAIL'}"
    )
    return document


def main() -> dict:
    smoke = "--smoke" in sys.argv
    tasks, platforms = figure6_workload(smoke)
    simulations = len(tasks) * len(platforms)
    node_counts = [task.node_count for task in tasks]

    reference_s, reference = bench_reference(tasks, platforms)
    dense_s, dense = bench_dense(tasks, platforms)
    batched_s, batched = bench_batched(tasks, platforms)

    identical = reference == dense == batched
    speedup = reference_s / max(batched_s, 1e-9)
    per_call_speedup = reference_s / max(dense_s, 1e-9)

    document = {
        "benchmark": "dense_simulation",
        "pr": 3,
        "description": (
            "Trace-free dense-index simulation core (simulate_makespan_dense "
            "+ batched simulate_many with one compile per task variant) vs "
            "the object-keyed trace engine, on the quick-scale Figure 6 "
            "workload (see docs/performance.md)."
        ),
        "smoke": smoke,
        "simulations": simulations,
        "tasks": len(tasks),
        "platforms": [platform.host_cores for platform in platforms],
        "mean_nodes": float(np.mean(node_counts)),
        "reference_engine_s": reference_s,
        "dense_per_call_s": dense_s,
        "dense_batched_s": batched_s,
        "per_call_speedup": per_call_speedup,
        "batched_speedup": speedup,
        "makespans_identical": identical,
        "acceptance": {
            "speedup": speedup,
            "speedup_target": SPEEDUP_TARGET,
            "speedup_met": speedup >= SPEEDUP_TARGET,
            "makespans_identical": identical,
        },
    }

    print(
        f"figure 6 workload: {simulations} simulations "
        f"({len(tasks)} task variants x m in "
        f"{[p.host_cores for p in platforms]}, "
        f"mean n = {document['mean_nodes']:.0f})"
    )
    print(
        f"reference trace engine: {reference_s:.2f}s | dense per-call: "
        f"{dense_s:.2f}s (x{per_call_speedup:.1f}) | dense batched: "
        f"{batched_s:.2f}s (x{speedup:.1f})"
    )
    if not smoke:
        OUTPUT.write_text(json.dumps(document, indent=2) + "\n", encoding="utf-8")
        print(f"results written to {OUTPUT}")
    accepted = document["acceptance"]
    print(
        f"acceptance: dense batched x{accepted['speedup']:.1f} "
        f"(target x{accepted['speedup_target']:.0f}) -> "
        f"{'PASS' if accepted['speedup_met'] else 'FAIL'}; "
        f"makespans identical -> "
        f"{'PASS' if accepted['makespans_identical'] else 'FAIL'}"
    )
    return document


if __name__ == "__main__":
    if "--compiled" in sys.argv:
        result = main_compiled("--smoke" in sys.argv)
        accepted = result["acceptance"]
        if not (
            accepted["speedup_met"]
            and accepted["makespans_identical"]
            and accepted["crossover_met"]
        ):
            sys.exit(1)
        sys.exit(0)
    result = main()
    accepted = result["acceptance"]
    if not (accepted["speedup_met"] and accepted["makespans_identical"]):
        sys.exit(1)
