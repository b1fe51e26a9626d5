"""Golden regression tests for the schedulability-under-load curve.

The expected quick-scale curve is committed under
``benchmarks/results/workload_schedulability.json``.  The sweep exercises
the whole online-workload stack -- seeded stream-task generation, jittered
periodic arrivals, ``build_workload`` unrolling, and the shared-capacity
simulator -- so a bit-identical golden pins all of it: any change to
draws, event ordering, or float evaluation order shows up here.

The paper-scale curve (``tests/data/workload_schedulability_paper_golden.json``,
8 streams and 111 jittered heterogeneous instances per cell) was written by
the coupled numpy engine that ``simulate_workload`` ran before the dense
event loop replaced it, with::

    PYTHONPATH=src python -m repro experiment workload-schedulability \
        --scale paper --json tests/data/workload_schedulability_paper_golden.json

so it anchors the loop at scale to an independent implementation.

Regenerate the quick golden file (after an *intentional* change) with::

    PYTHONPATH=src python tests/test_workload_golden.py --regenerate
"""

from __future__ import annotations

import json
from pathlib import Path

from repro.experiments.config import paper_scale
from repro.experiments.workload import (
    POLICIES,
    UTILISATION_GRID,
    run_workload_schedulability,
)

GOLDEN_PATH = (
    Path(__file__).parent.parent
    / "benchmarks"
    / "results"
    / "workload_schedulability.json"
)
PAPER_GOLDEN_PATH = (
    Path(__file__).parent / "data" / "workload_schedulability_paper_golden.json"
)


def _run() -> dict:
    return run_workload_schedulability().to_dict()


class TestWorkloadGolden:
    def test_matches_golden_curve(self):
        golden = json.loads(GOLDEN_PATH.read_text(encoding="utf-8"))
        assert _run() == golden

    def test_paper_scale_matches_golden_bytes(self):
        # The document the CLI's --json writes, byte for byte.
        result = run_workload_schedulability(paper_scale())
        expected = PAPER_GOLDEN_PATH.read_text(encoding="utf-8")
        assert result.to_json() + "\n" == expected
        metadata = json.loads(expected)["metadata"]
        assert metadata["streams"] == 8
        assert metadata["instances_per_point"] == [111.0] * 8

    def test_curve_shape(self):
        """Structural sanity of the committed curve itself.

        A valid schedulability curve is a miss *ratio* (within [0, 1])
        that is zero while the platform keeps up and high once the
        offered load exceeds capacity -- the knee is the whole point of
        the experiment, so its presence is asserted, not just the shape
        of the container.
        """
        golden = json.loads(GOLDEN_PATH.read_text(encoding="utf-8"))
        series = golden["series"]
        assert [entry["label"] for entry in series] == list(POLICIES)
        for entry in series:
            assert entry["x"] == list(UTILISATION_GRID)
            ratios = entry["y"]
            assert all(0.0 <= ratio <= 1.0 for ratio in ratios)
            # Underloaded left edge keeps every deadline ...
            assert ratios[0] == 0.0
            # ... and past saturation the stream backlog compounds.
            assert ratios[-1] > 0.25
        # Every sweep point simulates the same released-instance count
        # (the horizon scales with the mean period by construction).
        instances = golden["metadata"]["instances_per_point"]
        assert len(set(instances)) == 1 and instances[0] > 0


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
