#!/usr/bin/env python3
"""Record the paper-scale reference runs under ``benchmarks/results/paper_scale/``.

Two experiments are recorded at the sampling effort of the original paper:

* **Figure 6** -- 100 DAGs per sweep point, the full 15-point fraction grid
  and all four host sizes (``m in {2, 4, 8, 16}``); 12 000 simulations
  served by the compiled C kernel
  (:mod:`repro.simulation.vectorized` via ``simulate_many``), or by the
  dense engine on a host without a C compiler.
* **Figure 7** -- the paper's WCET range (``ilp_wcet_max = 100``) over the
  9-point small-task fraction grid for ``m in {2, 8}``, solved by the PR-2
  oracles (pruned branch-and-bound / warm-started HiGHS).  Two documented
  substitutions bound the run (see
  :func:`repro.experiments.config.figure7_paper_scale`): 25 DAGs per point
  and a 60 s per-instance cap standing in for the paper's 12 h CPLEX
  budget (trips are counted in the result metadata, never silent; a
  tripped HiGHS solve degrades to the verified warm-start incumbent).

Each run writes ``<name>.json`` / ``.csv`` / ``.txt`` into
``benchmarks/results/paper_scale/``; the JSON documents are also the golden
references of the slow regression tests
(``tests/test_paper_scale_goldens.py`` compares a fresh run against
``tests/data/figure6_paper_golden.json`` / ``figure7_paper_golden.json``).

Two further paper-scale workloads ride on the compiled C kernel (PR 8)
and are recorded the same way:

* **Figure 6 upper range** (``--figure 6-upper``) -- the same sweep over
  the paper's *upper* task-size band (``n in [250, 400]``,
  :data:`repro.generator.presets.LARGE_TASKS_UPPER_RANGE`), frozen as
  ``tests/data/figure6_upper_range_golden.json``.
* **Seven-policy scheduler ablation** (``--figure ablation``) -- every
  registered policy family over the Figure 6 sweep at paper scale,
  submitted request-by-request through the evaluation service's
  micro-batch queue (each burst is one engine call per (platform,
  policy) column); frozen as
  ``tests/data/scheduler_ablation_paper_golden.json``.

Run with:  python benchmarks/run_paper_scale.py [--figure 6|7|6-upper|ablation|all] [--jobs N]

``--jobs`` spreads figure 7's exact-makespan oracles over worker processes;
the other runs are in process, where the C kernel runs its lanes on every
CPU.
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path

_REPO_ROOT = Path(__file__).resolve().parent.parent
_SRC = _REPO_ROOT / "src"
if _SRC.is_dir() and str(_SRC) not in sys.path:
    sys.path.insert(0, str(_SRC))

RESULTS_DIR = _REPO_ROOT / "benchmarks" / "results" / "paper_scale"


def _publish(result) -> None:
    from repro.experiments.tables import render_result, write_csv

    RESULTS_DIR.mkdir(parents=True, exist_ok=True)
    table = render_result(result)
    (RESULTS_DIR / f"{result.name}.txt").write_text(table + "\n", encoding="utf-8")
    write_csv(result, RESULTS_DIR / f"{result.name}.csv")
    result.to_json(RESULTS_DIR / f"{result.name}.json")
    print(table)
    print(f"results written to {RESULTS_DIR / result.name}.{{json,csv,txt}}")


def run_figure6() -> None:
    from repro.experiments.config import paper_scale
    from repro.experiments.figure6 import run_figure6

    t0 = time.perf_counter()
    result = run_figure6(scale=paper_scale())
    print(f"figure 6 at paper scale: {time.perf_counter() - t0:.1f}s")
    _publish(result)


def run_figure7(jobs) -> None:
    from repro.experiments.config import figure7_paper_scale
    from repro.experiments.figure7 import run_figure7

    t0 = time.perf_counter()
    result = run_figure7(scale=figure7_paper_scale(), jobs=jobs)
    print(f"figure 7 at paper scale: {time.perf_counter() - t0:.1f}s")
    _publish(result)


def run_figure6_upper() -> None:
    from repro.experiments.config import paper_scale
    from repro.experiments.figure6 import run_figure6
    from repro.generator.presets import LARGE_TASKS_UPPER_RANGE

    t0 = time.perf_counter()
    result = run_figure6(
        scale=paper_scale(),
        generator_config=LARGE_TASKS_UPPER_RANGE,
    )
    result.name = "figure6_upper_range"
    result.title += " (upper task-size range)"
    print(f"figure 6 upper range at paper scale: {time.perf_counter() - t0:.1f}s")
    _publish(result)


def run_ablation() -> None:
    from repro.experiments.ablations import run_scheduler_ablation_service
    from repro.experiments.config import paper_scale

    t0 = time.perf_counter()
    result = run_scheduler_ablation_service(scale=paper_scale())
    result.name = "scheduler_ablation_paper"
    print(
        f"seven-policy ablation at paper scale (via the service queue): "
        f"{time.perf_counter() - t0:.1f}s"
    )
    _publish(result)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--figure",
        choices=["6", "7", "6-upper", "ablation", "all"],
        default="all",
    )
    parser.add_argument(
        "--jobs",
        type=int,
        default=None,
        help="worker processes for figure 7's exact-makespan oracles",
    )
    args = parser.parse_args()
    if args.figure in ("6", "all"):
        run_figure6()
    if args.figure in ("7", "all"):
        run_figure7(args.jobs)
    if args.figure in ("6-upper", "all"):
        run_figure6_upper()
    if args.figure in ("ablation", "all"):
        run_ablation()


if __name__ == "__main__":
    main()
