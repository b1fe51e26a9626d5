"""Golden regression test for the small-scale Figure 6 sweep.

The expected curves are serialised in ``tests/data/figure6_golden.json``.
Figure 6 exercises the whole simulation stack (chunked seeded generation,
Algorithm 1 transformation, the C kernel -- or the dense engine without a
compiler -- behind ``simulate_many``), so a bit-identical golden curve pins
the entire pipeline: any change to draws, scheduling semantics or float
evaluation order shows up here.

Regenerate the golden file (after an *intentional* pipeline change) with::

    PYTHONPATH=src python tests/test_figure6_golden.py --regenerate
"""

from __future__ import annotations

import functools
import json
from pathlib import Path

from repro.experiments import figure6
from repro.experiments.config import ExperimentScale
from repro.experiments.figure6 import run_figure6
from repro.simulation.batch import simulate_many

GOLDEN_PATH = Path(__file__).parent / "data" / "figure6_golden.json"

#: Small but non-trivial scale: two host sizes, three fractions, enough
#: tasks for the paired design and both task variants to matter.
GOLDEN_SCALE = ExperimentScale(
    dags_per_point=4,
    core_counts=(2, 4),
    fractions=[0.04, 0.2, 0.5],
    small_task_fractions=[0.2],
    ilp_node_range=(3, 9),
    ilp_wcet_max=6,
    ilp_time_limit=None,
    seed=2018,
)


def _run() -> dict:
    return run_figure6(GOLDEN_SCALE).to_dict()


class TestFigure6Golden:
    def test_matches_golden_curve(self):
        golden = json.loads(GOLDEN_PATH.read_text(encoding="utf-8"))
        assert _run() == golden

    def test_dense_engine_matches_golden_curve(self, monkeypatch):
        # The default engine is the C kernel where it builds; the dense
        # per-cell engine must draw the same golden curve.
        monkeypatch.setattr(
            figure6, "simulate_many", functools.partial(simulate_many, engine="dense")
        )
        golden = json.loads(GOLDEN_PATH.read_text(encoding="utf-8"))
        assert _run() == golden


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
