"""Command-line interface of the reproduction.

Installed as ``repro-rta`` (see ``pyproject.toml``) and also runnable as
``python -m repro``.  Sub-commands:

``analyse``
    Compute the homogeneous, heterogeneous and naive response-time bounds of
    a task stored as JSON or DOT, and report the Theorem 1 scenario.
``transform``
    Apply Algorithm 1 and print (or export) the transformed DAG.
``simulate``
    Simulate the task (optionally after transformation) under a chosen
    work-conserving policy.  The makespan is computed through the
    trace-free dense fast path (``simulate_makespan``); ``--gantt``
    additionally renders an ASCII Gantt chart and utilisation figures via
    the trace-producing reference engine.
``makespan``
    Compute the optimal makespan via the ILP or the branch-and-bound solver
    (routed through the batched oracle layer).
``generate``
    Generate random heterogeneous tasks from the paper's workload presets.
``experiment``
    Run one of the paper's experiments and print its table (optionally
    exporting CSV/JSON).
``serve``
    Run the long-lived HTTP evaluation service (micro-batching queue +
    fingerprint-keyed result cache over the batched engines).
``trace``
    Inspect a running service's request traces: list the tail-sampled
    ring, or pretty-print one trace's span tree with per-stage
    percentages (``--chrome`` exports Perfetto-loadable JSON instead).
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Optional, Sequence

import numpy as np

from .analysis.heterogeneous import (
    classify_scenario,
    naive_unsafe_response_time,
)
from .analysis.heterogeneous import response_time as heterogeneous_response_time
from .analysis.homogeneous import response_time as homogeneous_response_time
from .core.exceptions import ReproError
from .core.task import DagTask
from .core.transformation import transform
from .experiments.config import paper_scale, quick_scale
from .experiments.runner import available_experiments, run_all
from .experiments.tables import render_result, write_csv
from .generator.config import OffloadConfig
from .generator.offload import make_heterogeneous
from .generator.presets import preset_by_name
from .generator.random_dag import DagStructureGenerator
from .ilp.batch import minimum_makespans_many
from .ilp.makespan import MakespanMethod
from .io.dot import load_dot, save_dot
from .io.json_io import load_task, save_task
from .service.client import ServiceClient
from .service.http import add_serve_arguments, serve_from_args
from .service.tracing import render_trace_tree
from .simulation.engine import simulate, simulate_makespan
from .simulation.platform import Platform
from .simulation.schedulers import policy_by_name
from .visualization.ascii_art import describe_task, describe_transformation, render_gantt

__all__ = ["main", "build_parser"]


def _load_task(path: str) -> DagTask:
    """Load a task from a ``.json`` or ``.dot`` file."""
    file_path = Path(path)
    if not file_path.exists():
        raise ReproError(f"task file {path!r} does not exist")
    if file_path.suffix.lower() in (".dot", ".gv"):
        return load_dot(file_path)
    return load_task(file_path)


def _save_task(task: DagTask, path: Path) -> None:
    if path.suffix.lower() in (".dot", ".gv"):
        save_dot(task, path)
    else:
        save_task(task, path)


# ----------------------------------------------------------------------
# Sub-command implementations
# ----------------------------------------------------------------------
def _cmd_analyse(args: argparse.Namespace) -> int:
    task = _load_task(args.task)
    print(describe_task(task))
    print()
    hom = homogeneous_response_time(task, args.cores)
    print(f"R_hom (Eq. 1)        = {hom.bound:g}")
    if task.is_heterogeneous:
        transformed = transform(task)
        het = heterogeneous_response_time(transformed, args.cores)
        naive = naive_unsafe_response_time(task, args.cores)
        print(f"R_het (Theorem 1)    = {het.bound:g}   [{het.scenario.value}]")
        print(f"naive unsafe bound   = {naive.bound:g}   (Section 3.2; not safe)")
        print()
        print(describe_transformation(transformed))
    deadline = args.deadline if args.deadline is not None else task.deadline
    if deadline is not None:
        best = het.bound if task.is_heterogeneous else hom.bound
        verdict = "schedulable" if best <= deadline else "NOT schedulable"
        print(f"\ndeadline D = {deadline:g}: {verdict} (best bound {best:g})")
    return 0


def _cmd_transform(args: argparse.Namespace) -> int:
    task = _load_task(args.task)
    if not task.is_heterogeneous:
        raise ReproError("task has no offloaded node; nothing to transform")
    transformed = transform(task)
    print(describe_transformation(transformed))
    if args.output:
        output = Path(args.output)
        if output.suffix.lower() in (".dot", ".gv"):
            from .io.dot import transformed_to_dot

            output.write_text(transformed_to_dot(transformed), encoding="utf-8")
        else:
            save_task(transformed.task, output)
        print(f"\ntransformed task written to {output}")
    return 0


def _cmd_simulate(args: argparse.Namespace) -> int:
    task = _load_task(args.task)
    if args.transformed:
        if not task.is_heterogeneous:
            raise ReproError("task has no offloaded node; cannot simulate tau'")
        task = transform(task).task
    platform = Platform(host_cores=args.cores, accelerators=args.accelerators)
    policy = policy_by_name(args.policy, rng=args.seed)
    offload_enabled = not args.no_offload
    if args.gantt:
        # The Gantt chart and the utilisation figures need the execution
        # trace, which only the reference engine produces.
        trace = simulate(task, platform, policy, offload_enabled=offload_enabled)
        trace.validate()
        print(render_gantt(trace))
        print(f"\nmakespan               = {trace.makespan():g}")
        print(f"host utilisation       = {100 * trace.host_utilisation():.1f}%")
        print(
            f"accelerator utilisation= "
            f"{100 * trace.accelerator_utilisation():.1f}%"
        )
        print(
            "host idle while device busy = "
            f"{trace.host_idle_while_accelerator_busy():g} core*time"
        )
        return 0
    # Default fast path: the trace-free dense engine (simulate_makespan),
    # bit-identical to the reference engine for every policy.  The C
    # kernel behind simulate_many pays off over grids of cells; one
    # simulation needs no compiler.
    makespan = simulate_makespan(task, platform, policy, offload_enabled)
    print(f"makespan               = {makespan:g}")
    print("(use --gantt for the schedule chart and utilisation figures)")
    return 0


def _cmd_makespan(args: argparse.Namespace) -> int:
    task = _load_task(args.task)
    method = {
        "ilp": MakespanMethod.ILP,
        "bnb": MakespanMethod.BRANCH_AND_BOUND,
        "auto": MakespanMethod.AUTO,
    }[args.method]
    # Routed through the batched oracle layer, the one path to the solvers.
    result = minimum_makespans_many(
        [task],
        args.cores,
        accelerators=args.accelerators,
        method=method,
        time_limit=args.time_limit,
    )[0]
    print(f"minimum makespan = {result.makespan:g} "
          f"({result.method.value}, optimal={result.optimal})")
    if args.verbose:
        for node in task.graph.topological_order():
            print(f"  {node}: start {result.start_times[node]:g}")
    return 0


def _cmd_generate(args: argparse.Namespace) -> int:
    config = preset_by_name(args.preset)
    rng = np.random.default_rng(args.seed)
    generator = DagStructureGenerator(config, rng)
    output_dir = Path(args.output)
    output_dir.mkdir(parents=True, exist_ok=True)
    for index in range(args.count):
        task = generator.generate_task(name=f"{args.prefix}_{index}")
        task = make_heterogeneous(
            task,
            OffloadConfig(),
            rng,
            target_fraction=args.offload_fraction,
        )
        destination = output_dir / f"{args.prefix}_{index}.json"
        _save_task(task, destination)
        print(
            f"{destination}  n={task.node_count}  vol={task.volume:g}  "
            f"len={task.critical_path_length:g}  "
            f"C_off={task.offloaded_wcet:g}"
        )
    return 0


def _suffixed(path: str, name: str, multiple: bool) -> Path:
    """Insert ``-<name>`` before the extension when exporting several results."""
    base = Path(path)
    if not multiple:
        return base
    return base.with_name(f"{base.stem}-{name}{base.suffix}")


def _cmd_experiment(args: argparse.Namespace) -> int:
    scale = paper_scale() if args.scale == "paper" else quick_scale()
    if args.dags is not None:
        scale = scale.with_dags_per_point(args.dags)
    if args.seed is not None:
        scale = scale.with_seed(args.seed)
    names = available_experiments() if args.name == "all" else [args.name]
    results = run_all(scale, names=names, jobs=args.jobs)
    for result in results.values():
        print(render_result(result))
        for series in result.series:
            if series.metadata:
                print(f"  [{series.label}] {series.metadata}")
        if args.csv:
            path = write_csv(result, _suffixed(args.csv, result.name, len(results) > 1))
            print(f"\nCSV written to {path}")
        if args.json:
            path = _suffixed(args.json, result.name, len(results) > 1)
            result.to_json(path)
            print(f"JSON written to {path}")
    return 0


def _cmd_trace(args: argparse.Namespace) -> int:
    from .core.exceptions import ServiceError

    client = ServiceClient(
        host=args.host, port=args.port, timeout=args.timeout, retries=0
    )
    try:
        if args.trace_id is None:
            document = client.traces(
                limit=args.limit, slow=args.slow, errors=args.errors
            )
            ring = document["ring"]
            state = "on" if ring["enabled"] else "OFF"
            print(
                f"trace ring (tracing {state}): {ring['ring_traces']} traces, "
                f"{ring['ring_bytes']}/{ring['ring_capacity_bytes']} bytes; "
                f"{ring['started']} started, {ring['kept']} kept, "
                f"{ring['sampled_out']} sampled out, {ring['evicted']} evicted"
            )
            if not document["traces"]:
                print("no traces kept (yet)")
                return 0
            for entry in document["traces"]:
                flags = ""
                if entry["error"]:
                    flags += "  [ERROR]"
                if entry["degraded"]:
                    flags += "  [DEGRADED]"
                print(
                    f"  {entry['trace_id']}  {entry['name']:<14} "
                    f"{entry['duration_ms']:9.2f} ms  "
                    f"{entry['spans']} spans{flags}"
                )
            return 0
        if args.chrome:
            payload = client.trace(args.trace_id, format="chrome")
            output = Path(args.chrome)
            output.write_text(json.dumps(payload), encoding="utf-8")
            print(
                f"Chrome trace written to {output} "
                f"(load it at https://ui.perfetto.dev)"
            )
            return 0
        print(render_trace_tree(client.trace(args.trace_id)))
        return 0
    except ServiceError as error:
        print(f"error: {error}", file=sys.stderr)
        return 1


# ----------------------------------------------------------------------
# Parser
# ----------------------------------------------------------------------
def build_parser() -> argparse.ArgumentParser:
    """Construct the top-level argument parser (exposed for testing)."""
    parser = argparse.ArgumentParser(
        prog="repro-rta",
        description=(
            "Response-time analysis of DAG tasks supporting heterogeneous "
            "computing (DAC 2018 reproduction)"
        ),
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    analyse = subparsers.add_parser("analyse", help="compute response-time bounds")
    analyse.add_argument("task", help="task file (.json or .dot)")
    analyse.add_argument("-m", "--cores", type=int, default=4, help="host cores")
    analyse.add_argument("--deadline", type=float, default=None)
    analyse.set_defaults(func=_cmd_analyse)

    transform_cmd = subparsers.add_parser("transform", help="apply Algorithm 1")
    transform_cmd.add_argument("task", help="task file (.json or .dot)")
    transform_cmd.add_argument("-o", "--output", help="write tau' (.json or .dot)")
    transform_cmd.set_defaults(func=_cmd_transform)

    simulate_cmd = subparsers.add_parser("simulate", help="simulate a schedule")
    simulate_cmd.add_argument("task", help="task file (.json or .dot)")
    simulate_cmd.add_argument("-m", "--cores", type=int, default=4)
    simulate_cmd.add_argument("--accelerators", type=int, default=1)
    simulate_cmd.add_argument(
        "--policy",
        default="breadth-first",
        help="breadth-first | depth-first | critical-path-first | "
        "shortest-first | longest-first | random",
    )
    simulate_cmd.add_argument("--seed", type=int, default=None)
    simulate_cmd.add_argument(
        "--transformed", action="store_true", help="simulate tau' instead of tau"
    )
    simulate_cmd.add_argument(
        "--no-offload", action="store_true", help="run every node on the host"
    )
    simulate_cmd.add_argument(
        "--gantt",
        action="store_true",
        help="render the ASCII Gantt chart and utilisation figures "
        "(runs the trace-producing reference engine)",
    )
    simulate_cmd.set_defaults(func=_cmd_simulate)

    makespan_cmd = subparsers.add_parser("makespan", help="optimal makespan (ILP)")
    makespan_cmd.add_argument("task", help="task file (.json or .dot)")
    makespan_cmd.add_argument("-m", "--cores", type=int, default=4)
    makespan_cmd.add_argument("--accelerators", type=int, default=1)
    makespan_cmd.add_argument(
        "--method", choices=("auto", "ilp", "bnb"), default="auto"
    )
    makespan_cmd.add_argument("--time-limit", type=float, default=None)
    makespan_cmd.add_argument("-v", "--verbose", action="store_true")
    makespan_cmd.set_defaults(func=_cmd_makespan)

    generate_cmd = subparsers.add_parser("generate", help="generate random tasks")
    generate_cmd.add_argument("-o", "--output", default="generated-tasks")
    generate_cmd.add_argument("--preset", default="large-fig6")
    generate_cmd.add_argument("--count", type=int, default=5)
    generate_cmd.add_argument("--seed", type=int, default=2018)
    generate_cmd.add_argument("--prefix", default="tau")
    generate_cmd.add_argument(
        "--offload-fraction",
        type=float,
        default=None,
        help="pin C_off to this fraction of the volume",
    )
    generate_cmd.set_defaults(func=_cmd_generate)

    experiment_cmd = subparsers.add_parser(
        "experiment", help="run a paper experiment"
    )
    experiment_cmd.add_argument("name", choices=available_experiments() + ["all"])
    experiment_cmd.add_argument("--scale", choices=("quick", "paper"), default="quick")
    experiment_cmd.add_argument("--dags", type=int, default=None)
    experiment_cmd.add_argument("--seed", type=int, default=None)
    experiment_cmd.add_argument(
        "--jobs",
        "-j",
        type=int,
        default=None,
        help="worker processes for figure 7's exact-makespan oracles "
        "(default: serial; -1 = all cores); the other experiments run in "
        "process; results are bit-identical to the serial run",
    )
    experiment_cmd.add_argument("--csv", default=None)
    experiment_cmd.add_argument("--json", default=None)
    experiment_cmd.set_defaults(func=_cmd_experiment)

    serve_cmd = subparsers.add_parser(
        "serve", help="run the long-lived HTTP evaluation service"
    )
    add_serve_arguments(serve_cmd)
    serve_cmd.set_defaults(func=serve_from_args)

    trace_cmd = subparsers.add_parser(
        "trace", help="inspect a running service's request traces"
    )
    trace_cmd.add_argument(
        "trace_id",
        nargs="?",
        default=None,
        help="trace to pretty-print (omit to list the ring)",
    )
    trace_cmd.add_argument("--host", default="127.0.0.1", help="service host")
    trace_cmd.add_argument("--port", type=int, default=8181, help="service port")
    trace_cmd.add_argument(
        "--timeout", type=float, default=10.0, help="socket timeout in seconds"
    )
    trace_cmd.add_argument(
        "--limit", type=int, default=20, help="max traces to list"
    )
    trace_cmd.add_argument(
        "--slow",
        action="store_true",
        help="list only traces at/above the slow-percentile threshold",
    )
    trace_cmd.add_argument(
        "--errors",
        action="store_true",
        help="list only error/degraded traces",
    )
    trace_cmd.add_argument(
        "--chrome",
        default=None,
        metavar="FILE",
        help="write the trace as Chrome trace-event JSON (for Perfetto) "
        "instead of printing the tree",
    )
    trace_cmd.set_defaults(func=_cmd_trace)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ReproError, KeyError) as error:
        # KeyError covers lookups of unknown presets / policies by name.
        message = error.args[0] if error.args else error
        print(f"error: {message}", file=sys.stderr)
        return 1


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
