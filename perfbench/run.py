#!/usr/bin/env python3
"""One command for the end-to-end benchmark of the DAG response-time repro.

    python3 perfbench/run.py --workload fig6-paper --seed 2018 --seconds 15 --trace 0

Without ``--workload`` it runs all four in turn, each in its own process.

Workloads (why each exists and which layer should move which metric is
recorded in ``perfbench/design.json``):

``fig6-paper``     paper-scale Figure 6, ``run_figure6(paper_scale())``
``serve-wire``     ``repro serve`` driven over HTTP with Figure 6 tasks
``stream-fine``    small heterogeneous job streams, about one node per step
``stream-coarse``  wide-host job streams, about fifty nodes per step

``--trace 0`` measures the end-to-end metrics of BENCHMARK.json with
nothing instrumented; ``--trace 1`` is a separate run that records spans
around each layer and reports its per-layer metrics.  Every workload
reports every metric; times are in reference seconds (see
``harness.Speedometer``).  Every output is checked; a wrong answer counts
as a failed operation.  The last line of standard output is one JSON
object: ``{"correct", "attempted", "failed", "metrics"}``.  The line before
it holds the run's notes: raw times and host speeds, phases, host steal,
and for serve-wire the latency percentiles and ``max_rps``, which are
printed but not gated.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys

from harness import manifest_metrics, pin_environment

WORKLOADS = ("fig6-paper", "serve-wire", "stream-fine", "stream-coarse")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all", choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, default=2018)
    parser.add_argument("--seconds", type=float, default=15.0, help="measuring window")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if args.workload == "all":
        flags = ["--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        return max(
            subprocess.run([sys.executable, __file__, "--workload", name, *flags]).returncode
            for name in WORKLOADS
        )
    pin_environment()
    if args.workload == "serve-wire":
        from serve import serve_wire as run
    else:
        import offline

        run = {
            "fig6-paper": offline.fig6_paper,
            "stream-fine": offline.stream_fine,
            "stream-coarse": offline.stream_coarse,
        }[args.workload]
    outcome = run(args.seed, args.seconds, bool(args.trace))

    for operation, reason in list(outcome.failures.items())[:20]:
        print(f"FAILED {operation}: {reason}", file=sys.stderr)
    print(json.dumps({"workload": args.workload, "seed": args.seed, "notes": outcome.notes},
                     default=str))
    print(json.dumps(outcome.report(manifest_metrics(bool(args.trace)))))
    return 0


if __name__ == "__main__":
    sys.exit(main())
