"""Offline workloads: paper-scale Figure 6 and two shared-platform job streams.

Each warms the program up on a small piece of its work, then runs a fixed
amount of work as often as fits in the measuring window and reports the
median wall time ``work_s`` of one pass in reference seconds (see
:class:`harness.Speedometer`), with ``setup_s`` from fresh interpreters
(see :func:`harness.offline_setup`) and the peak resident memory of this
process at the end of the window.

With ``trace`` set, the run makes untraced and traced passes (see
:func:`_trace_passes`), checks that the traced pass reproduced the
untraced output, and reports the per-layer metrics of BENCHMARK.json:
layers this workload does not call report zero.
"""

from __future__ import annotations

import dataclasses
import json
import math
import statistics
from typing import Callable, Optional

from harness import (
    ROOT,
    HostCounters,
    Outcome,
    Speedometer,
    Timing,
    end_to_end,
    offline_setup,
    repeat_for,
    self_peak_rss_mb,
    timing_notes,
)
from layers import (
    Recorder,
    compile_metrics,
    engine_metrics,
    generator_metrics,
    not_called,
    transform_metrics,
)

#: The frozen paper-scale Figure 6 series (tests pin the same document).
FIGURE6_GOLDEN = ROOT / "tests" / "data" / "figure6_paper_golden.json"
GOLDEN_SEED = 2018

#: Sweep points (indices into the paper's fraction grid) whose cells are
#: simulated again with the dense engine and must give the same series.
DENSE_POINTS = (1, 11)
#: DAGs per point of the sweep that warms the program up before timing.
WARMUP_DAGS = 2


def _median_reference_s(passes: list[Timing]) -> float:
    return statistics.median(timing.reference_s for timing in passes)


def _call(recorder: Optional[Recorder], name: str, function: Callable, *args, **kwargs):
    if recorder is None:
        return function(*args, **kwargs)
    return recorder.call(name, function, *args, **kwargs)


def _graph_counts(recorder: Recorder, tasks) -> None:
    for task in tasks:
        recorder.count("generator.tasks")
        recorder.count("generator.nodes", len(task.graph))
        recorder.count("generator.edges", task.graph.edge_count)


def _engine_call(recorder: Recorder, function: Callable, *args, **kwargs):
    """Call the simulation engine ``function`` in an ``engine`` span and
    count its kernel step profile (see :func:`layers.engine_metrics`)."""
    from repro.simulation.kernel_stats import collect_kernel_stats

    with recorder.span("engine"), collect_kernel_stats() as stats:
        result = function(*args, **kwargs)
    for batch in stats.batches:
        recorder.count("engine.steps", batch.steps)
        recorder.count("engine.events", batch.events)
        recorder.count("engine.lane_steps", batch.lane_steps)
        recorder.count("engine.capacity", batch.steps * batch.lanes)
    return result


def _trace_passes(
    meter: Speedometer,
    run_untraced: Callable[[], object],
    run_traced: Callable[[Recorder], object],
    recorder: Recorder,
) -> tuple[object, Timing, object, float]:
    """Untraced, traced, traced and untraced passes.

    The symmetric order lets a drift of the host's speed over the run
    cancel out of the overhead, which compares the passes in reference
    seconds.  Per-layer data come from the first traced pass, recorded on
    ``recorder``; the calibration samples that interrupt it (some 2 % of
    its time) are counted in the self time of the span they interrupt.
    Returns the first pass's output, the first traced pass's timing and
    output, and the overhead in percent.
    """
    first, untraced = meter.measure(run_untraced)
    traced_timing, traced = meter.measure(lambda: run_traced(recorder))
    again, _ = meter.measure(lambda: run_traced(Recorder()))
    last, _ = meter.measure(run_untraced)
    overhead_pct = 100.0 * (
        (traced_timing.reference_s + again.reference_s) / (first.reference_s + last.reference_s) - 1.0
    )
    return untraced, traced_timing, traced, overhead_pct


def _finish_trace(
    outcome: Outcome,
    recorder: Recorder,
    traced: Timing,
    overhead_pct: float,
    host: HostCounters,
    inputs: tuple[str, ...] = (),
) -> dict[str, dict]:
    """Per-layer metrics every offline workload reports.

    ``inputs`` name layers that ran before the traced pass (input
    generation); they are left out of the coverage, the share of the
    traced pass's wall time that the layers' self times account for.
    """
    layers, counts = recorder.layers(), recorder.counts
    in_pass = sum(entry["self_s"] for name, entry in layers.items() if name not in inputs)
    outcome.metrics.update({
        "trace.coverage": (in_pass / traced.wall_s, "ratio"),
        "tracing.overhead_pct": (overhead_pct, "%"),
        **generator_metrics(layers, counts),
        **compile_metrics(layers),
        **engine_metrics(
            layers, counts["engine.steps"], counts["engine.events"],
            counts["engine.lane_steps"] / counts["engine.capacity"],
        ),
    })
    outcome.notes["layers"] = layers
    outcome.notes["counts"] = dict(recorder.counts)
    outcome.notes["traced_wall_s"] = traced.wall_s
    outcome.notes.update(host.summary())
    return layers


# ----------------------------------------------------------------------
# fig6-paper
# ----------------------------------------------------------------------
def _dense_series(scale, points_wanted) -> dict[int, list[float]]:
    """Figure 6 y values of the chosen sweep points, every cell simulated
    again with the dense engine; ``{point: [y per core count]}``."""
    import numpy as np

    from repro.analysis.comparison import percentage_change
    from repro.core.transformation import transform
    from repro.generator.config import OffloadConfig
    from repro.generator.presets import LARGE_TASKS_FIG6
    from repro.generator.sweep import chunked_offload_fraction_sweep
    from repro.parallel import spawn_seeds
    from repro.simulation.batch import simulate_many
    from repro.simulation.platform import Platform
    from repro.simulation.schedulers import BreadthFirstPolicy

    # Paired sweep: the base structures do not depend on the fractions, so
    # generating only the wanted fractions gives the same tasks.
    points = chunked_offload_fraction_sweep(
        fractions=[scale.fractions[index] for index in points_wanted],
        dags_per_point=scale.dags_per_point,
        generator_config=LARGE_TASKS_FIG6,
        offload_config=OffloadConfig(),
        root_seed=scale.seed,
    )
    seeds = spawn_seeds(scale.seed, len(scale.fractions))
    platforms = [Platform(host_cores=cores, accelerators=1) for cores in scale.core_counts]
    series = {}
    for index, point in zip(points_wanted, points):
        tasks = point.tasks
        transformed = [transform(task).task for task in tasks]
        makespans = simulate_many(
            tasks + transformed,
            platforms,
            BreadthFirstPolicy().spawned(seeds[index]),
            root_seed=seeds[index],
            engine="dense",
        )
        count = len(tasks)
        series[index] = [
            percentage_change(
                float(np.mean(makespans[:count, column, 0])),
                float(np.mean(makespans[count:, column, 0])),
            )
            for column in range(len(platforms))
        ]
    return series


def _check_figure6(outcome: Outcome, scale, documents: list) -> None:
    reference = documents[0]
    for index, document in enumerate(documents[1:], start=1):
        outcome.check(document == reference, index, "run differs from the first run")
    if scale.seed == GOLDEN_SEED:
        golden = json.loads(FIGURE6_GOLDEN.read_text(encoding="utf-8"))
        outcome.check(reference == golden, 0, "series differ from the paper-scale golden")
    for point, values in _dense_series(scale, DENSE_POINTS).items():
        observed = [series["y"][point] for series in reference["series"]]
        outcome.check(observed == values, 0, f"dense engine disagrees at sweep point {point}")


def fig6_paper(seed: int, seconds: float, trace: bool) -> Outcome:
    meter = Speedometer()
    setups = [] if trace else offline_setup("fig6-paper", meter)
    host = HostCounters()
    from repro.experiments import figure6
    from repro.experiments.config import paper_scale

    scale = paper_scale().with_seed(seed)
    # Lazy program state (kernel load, first-call caches) is filled by a
    # two-DAG sweep before anything is timed.
    figure6.run_figure6(scale.with_dags_per_point(WARMUP_DAGS))

    def once() -> dict:
        # JSON round trip: the golden is compared in its stored form.
        return json.loads(json.dumps(figure6.run_figure6(scale).to_dict()))

    outcome = Outcome()
    if not trace:
        runs = repeat_for(seconds, once, meter)
        passes = [timing for timing, _ in runs]
        outcome.attempted = len(runs)
        outcome.metrics = end_to_end(setups, self_peak_rss_mb(), _median_reference_s(passes))
        outcome.notes.update(timing_notes(setups, passes))
        outcome.notes.update(host.summary())
        _check_figure6(outcome, scale, [document for _, document in runs])
        return outcome

    def traced_once(recorder: Recorder) -> dict:
        recorder.wrap(figure6, "chunked_offload_fraction_sweep", "generator",
                      lambda record, points, *a, **k: _graph_counts(
                          recorder, [task for point in points for task in point.tasks]))
        recorder.trace_transform(figure6)
        recorder.trace_compile()
        simulate_many = figure6.simulate_many
        recorder.patch(figure6, "simulate_many",
                       lambda *a, **k: _engine_call(recorder, simulate_many, *a, **k))
        try:
            return recorder.call("experiments", once)
        finally:
            recorder.restore()

    recorder = Recorder()
    untraced, traced_timing, traced, overhead_pct = _trace_passes(meter, once, traced_once, recorder)
    outcome.attempted = 4
    outcome.check(traced == untraced, 1, "traced run differs from the untraced run")
    _check_figure6(outcome, scale, [untraced])
    layers = _finish_trace(outcome, recorder, traced_timing, overhead_pct, host)
    outcome.metrics.update({
        **transform_metrics(layers, recorder.counts, traced_timing.wall_s),
        "experiments.share": (layers["experiments"]["self_s"] / traced_timing.wall_s, "ratio"),
        **not_called("workload", "service"),
    })
    return outcome


# ----------------------------------------------------------------------
# stream-fine / stream-coarse
# ----------------------------------------------------------------------
@dataclasses.dataclass(frozen=True)
class _Cell:
    streams: list
    horizon: float
    host_cores: int
    policy: str


#: stream-fine mirrors ``repro experiment workload-schedulability``: eight
#: small heterogeneous streams (one offloaded region each) on 4 cores + 1
#: accelerator, fractional periods with 10 % jitter, implicit deadlines,
#: offered host utilisation swept past 1 under two ready-queue policies.
#: Each utilisation point draws its own eight tasks (both policies run the
#: same ones), so a pass averages the engine's cost over eight task sets
#: and its work differs little between seeds.  Each cell releases about
#: FINE_CELL_NODES nodes: some 16 mean periods, longer than the
#: experiment's 12.
FINE_STREAMS = 8
FINE_NODES = (8, 40)
FINE_HOST_CORES = 4
FINE_UTILISATION = (0.2, 0.4, 0.6, 0.8, 1.0, 1.2, 1.4, 1.6)
FINE_CELL_NODES = 3600
FINE_JITTER = 0.1
FINE_OFFLOAD_FRACTION = 0.15

#: stream-coarse is the host-only mix of the coupled-engine benchmark (n in
#: [50, 100], integer WCETs 1-8) with integer periods, on a host just wide
#: enough that the offered utilisation sits just under 1, so the backlog
#: stays bounded.  COARSE_SETS independent stream sets each run under both
#: policies, each cell releasing about COARSE_CELL_NODES nodes.
COARSE_STREAMS = 6
COARSE_NODES = (50, 100)
COARSE_WCET = (1, 8)
COARSE_PERIODS = (5.0, 6.0, 7.0)
COARSE_UTILISATION = 0.95
COARSE_SETS = 4
COARSE_CELL_NODES = 40_000

STREAM_POLICIES = ("breadth-first", "depth-first")


def _horizon(tasks: list, periods: list[float], nodes: int) -> float:
    """The horizon over which the streams release about ``nodes`` nodes.

    Sizing cells by released nodes rather than by periods keeps the work of
    a pass nearly the same for every seed, whatever task sizes it drew.
    """
    return nodes / sum(len(task.graph) / period for task, period in zip(tasks, periods))


def _fine_tasks(seed: int, recorder: Optional[Recorder]) -> list:
    from repro.generator.config import OffloadConfig
    from repro.generator.offload import make_heterogeneous
    from repro.generator.presets import SMALL_TASKS
    from repro.generator.random_dag import DagStructureGenerator
    from repro.parallel import spawn_seeds

    config = SMALL_TASKS.with_node_range(*FINE_NODES)
    tasks = []
    for index, child in enumerate(spawn_seeds(seed, FINE_STREAMS)):
        generator = DagStructureGenerator(config, child)
        base = _call(recorder, "generator", generator.generate_task, f"tau_{index}")
        tasks.append(_call(
            recorder, "generator", make_heterogeneous, base, OffloadConfig(),
            rng=child + 1, target_fraction=FINE_OFFLOAD_FRACTION,
        ))
    return tasks


def _fine_cells(seed: int, recorder: Optional[Recorder]) -> list[_Cell]:
    from repro.generator.arrivals import PeriodicArrivals
    from repro.parallel import spawn_seeds
    from repro.simulation.workload import JobStream

    cells = []
    set_seeds = spawn_seeds(seed + 11, len(FINE_UTILISATION))
    for utilisation, set_seed in zip(FINE_UTILISATION, set_seeds):
        tasks = _fine_tasks(set_seed, recorder)
        periods = [
            FINE_STREAMS * task.volume / (utilisation * FINE_HOST_CORES) for task in tasks
        ]
        streams = [
            JobStream(
                task=task,
                arrivals=PeriodicArrivals(
                    period=period, jitter=FINE_JITTER * period, seed=seed + 23 + index
                ),
                deadline=period,
                name=task.name,
            )
            for index, (task, period) in enumerate(zip(tasks, periods))
        ]
        horizon = _horizon(tasks, periods, FINE_CELL_NODES)
        cells.extend(_Cell(streams, horizon, FINE_HOST_CORES, policy) for policy in STREAM_POLICIES)
    return cells


def _coarse_cells(seed: int, recorder: Optional[Recorder]) -> list[_Cell]:
    from repro.generator.arrivals import PeriodicArrivals
    from repro.generator.presets import SMALL_TASKS
    from repro.generator.random_dag import DagStructureGenerator
    from repro.parallel import spawn_seeds
    from repro.simulation.workload import JobStream

    config = dataclasses.replace(
        SMALL_TASKS.with_node_range(*COARSE_NODES), c_min=COARSE_WCET[0], c_max=COARSE_WCET[1]
    )
    cells = []
    for set_seed in spawn_seeds(seed, COARSE_SETS):
        tasks = [
            _call(recorder, "generator", DagStructureGenerator(config, child).generate_task, f"tau_{index}")
            for index, child in enumerate(spawn_seeds(set_seed, COARSE_STREAMS))
        ]
        periods = [COARSE_PERIODS[index % len(COARSE_PERIODS)] for index in range(len(tasks))]
        offered = sum(task.volume / period for task, period in zip(tasks, periods))
        host_cores = math.ceil(offered / COARSE_UTILISATION)
        streams = [
            JobStream(task=task, arrivals=PeriodicArrivals(period=period), deadline=10.0 * period)
            for task, period in zip(tasks, periods)
        ]
        horizon = _horizon(tasks, periods, COARSE_CELL_NODES)
        cells.extend(_Cell(streams, horizon, host_cores, policy) for policy in STREAM_POLICIES)
    return cells


def _stream_workload(
    name: str, build_cells: Callable, seed: int, seconds: float, trace: bool
) -> Outcome:
    meter = Speedometer()
    setups = [] if trace else offline_setup(name, meter)
    host = HostCounters()
    import numpy as np

    from repro.core.compiled import compile_task
    from repro.simulation.platform import Platform
    from repro.simulation.schedulers import policy_by_name
    from repro.simulation.workload import (
        build_workload,
        simulate_workload,
        simulate_workload_reference,
    )

    recorder = Recorder() if trace else None
    cells = build_cells(seed, recorder)

    def run_cell(cell: _Cell, recorder: Optional[Recorder] = None):
        workload = _call(recorder, "workload.build", build_workload, cell.streams, cell.horizon)
        args = (
            workload,
            Platform(host_cores=cell.host_cores, accelerators=1),
            policy_by_name(cell.policy),
        )
        if recorder is None:
            return simulate_workload(*args, backend="auto").completions
        recorder.count("workload.instances", len(workload))
        recorder.count("workload.nodes", sum(len(job.task.graph) for job in workload))
        return _engine_call(recorder, simulate_workload, *args, backend="auto").completions

    def one_pass(recorder: Optional[Recorder] = None) -> list:
        return [run_cell(cell, recorder) for cell in cells]

    def traced_pass(recorder: Recorder) -> list:
        recorder.trace_compile()
        try:
            return one_pass(recorder)
        finally:
            recorder.restore()

    # Compile every task, and run one cell, so that no timed pass pays a
    # one-off compile or first call.
    tasks = list({id(stream.task): stream.task for cell in cells for stream in cell.streams}.values())
    for task in tasks:
        compile_task(task)
    run_cell(cells[0])
    outcome = Outcome()
    if not trace:
        runs = repeat_for(seconds, one_pass, meter)
        timings = [timing for timing, _ in runs]
        outcome.attempted = len(runs) * len(cells)
        outcome.metrics = end_to_end(setups, self_peak_rss_mb(), _median_reference_s(timings))
        outcome.notes.update(timing_notes(setups, timings))
        outcome.notes.update(host.summary())
        passes = [completions for _, completions in runs]
    else:
        untraced, traced_timing, traced, overhead_pct = _trace_passes(
            meter, one_pass, traced_pass, recorder
        )
        outcome.attempted = 4 * len(cells)
        passes = [untraced, traced]
    for run, completions in enumerate(passes[1:], start=1):
        for index, (first, again) in enumerate(zip(passes[0], completions)):
            outcome.check(np.array_equal(first, again), (run, index), "pass differs from the first pass")
    for index, cell in enumerate(cells):
        reference = simulate_workload_reference(
            build_workload(cell.streams, cell.horizon),
            Platform(host_cores=cell.host_cores, accelerators=1),
            policy_by_name(cell.policy),
        )
        outcome.check(
            np.array_equal(reference.completions, passes[0][index]), (0, index),
            "completions differ from simulate_workload_reference",
        )
    outcome.notes["cells"] = len(cells)
    if not trace:
        return outcome

    _graph_counts(recorder, tasks)
    layers = _finish_trace(outcome, recorder, traced_timing, overhead_pct, host, inputs=("generator",))
    outcome.metrics.update({
        "workload.build_share": (layers["workload.build"]["busy_s"] / traced_timing.wall_s, "ratio"),
        "workload.instances": (recorder.counts["workload.instances"], "count"),
        "workload.nodes": (recorder.counts["workload.nodes"], "count"),
        **not_called("transform", "experiments", "service"),
    })
    return outcome


def stream_fine(seed: int, seconds: float, trace: bool) -> Outcome:
    return _stream_workload("stream-fine", _fine_cells, seed, seconds, trace)


def stream_coarse(seed: int, seconds: float, trace: bool) -> Outcome:
    return _stream_workload("stream-coarse", _coarse_cells, seed, seconds, trace)
