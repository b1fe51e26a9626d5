"""Golden regression test for the small-scale Figure 7 sweep.

The expected curves are serialised in ``tests/data/figure7_golden.json``.
Figure 7 is the experiment that exercises the whole exact-makespan stack
(generation, warm-started ILP / pruned branch-and-bound via the batched
oracle layer, batched bound analysis), so a bit-identical golden curve
pins the entire pipeline: any change to draws, solver selection or float
evaluation order shows up here.

The sweep must also be bit-identical under ``--jobs``: the parallel path
only distributes deterministic evaluation.

Regenerate the golden file (after an *intentional* pipeline change) with::

    PYTHONPATH=src python tests/test_figure7_golden.py --regenerate
"""

from __future__ import annotations

import json
from pathlib import Path

from repro.experiments.config import ExperimentScale
from repro.experiments.figure7 import run_figure7

GOLDEN_PATH = Path(__file__).parent / "data" / "figure7_golden.json"

#: Small but non-trivial scale: two host sizes, three fractions, enough
#: tasks for the paired design and the oracle dedup to matter.
GOLDEN_SCALE = ExperimentScale(
    dags_per_point=3,
    core_counts=(2,),
    fractions=[0.05, 0.3],
    small_task_fractions=[0.05, 0.2, 0.4],
    ilp_node_range=(3, 9),
    ilp_wcet_max=6,
    ilp_time_limit=None,
    seed=2018,
)


def _run(jobs=None) -> dict:
    return run_figure7(GOLDEN_SCALE, jobs=jobs).to_dict()


class TestFigure7Golden:
    def test_matches_golden_curve(self):
        golden = json.loads(GOLDEN_PATH.read_text(encoding="utf-8"))
        assert _run() == golden

    def test_bit_identical_under_jobs(self):
        golden = json.loads(GOLDEN_PATH.read_text(encoding="utf-8"))
        assert _run(jobs=2) == golden


if __name__ == "__main__":
    import sys

    if "--regenerate" in sys.argv:
        GOLDEN_PATH.parent.mkdir(parents=True, exist_ok=True)
        GOLDEN_PATH.write_text(
            json.dumps(_run(), indent=2) + "\n", encoding="utf-8"
        )
        print(f"golden curve written to {GOLDEN_PATH}")
    else:
        print(__doc__)
