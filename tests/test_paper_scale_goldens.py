"""Golden regression tests for the paper-scale reference runs.

``benchmarks/run_paper_scale.py`` records the figure 6 and figure 7 runs at
the paper's sampling effort under ``benchmarks/results/paper_scale/``; the
same documents are frozen as goldens in ``tests/data/figure6_paper_golden.json``
and ``tests/data/figure7_paper_golden.json``.  These tests re-run the full
experiments and compare bit for bit.

The two figure 6 reruns (headline and upper task-size range) take a few
seconds each and run in tier-1, so every CI leg -- including the one without
the compiled backend -- checks the headline curve.  The figure 7 and
scheduler-ablation reruns take minutes to hours (figure 7's exact-makespan
oracles), so they are ``slow``-marked and skipped unless
``REPRO_SLOW_TESTS=1`` is set:

    REPRO_SLOW_TESTS=1 python -m pytest tests/test_paper_scale_goldens.py -m slow

Cheap consistency checks (the committed artefacts and the goldens must be
the same documents, with the expected shape) always run, so tier-1 still
notices a half-updated pair of files.
"""

from __future__ import annotations

import json
import os
from pathlib import Path

import pytest

_DATA = Path(__file__).parent / "data"
_RESULTS = Path(__file__).parent.parent / "benchmarks" / "results" / "paper_scale"

FIGURE6_GOLDEN = _DATA / "figure6_paper_golden.json"
FIGURE7_GOLDEN = _DATA / "figure7_paper_golden.json"
FIGURE6_UPPER_GOLDEN = _DATA / "figure6_upper_range_golden.json"
ABLATION_GOLDEN = _DATA / "scheduler_ablation_paper_golden.json"

_slow = pytest.mark.skipif(
    not os.environ.get("REPRO_SLOW_TESTS"),
    reason="paper-scale regression run; set REPRO_SLOW_TESTS=1 to enable",
)


def _load(path: Path) -> dict:
    return json.loads(path.read_text(encoding="utf-8"))


class TestCommittedArtefactsConsistent:
    """Fast tier-1 checks over the committed documents."""

    def test_figure6_golden_matches_recorded_run(self):
        assert _load(FIGURE6_GOLDEN) == _load(_RESULTS / "figure6.json")

    def test_figure7_golden_matches_recorded_run(self):
        assert _load(FIGURE7_GOLDEN) == _load(_RESULTS / "figure7.json")

    def test_figure6_has_paper_shape(self):
        document = _load(FIGURE6_GOLDEN)
        assert document["metadata"]["dags_per_point"] == 100
        labels = [series["label"] for series in document["series"]]
        assert labels == ["m=2", "m=4", "m=8", "m=16"]
        for series in document["series"]:
            assert len(series["x"]) == 15  # the paper's fraction grid

    def test_figure7_has_paper_wcet_range(self):
        document = _load(FIGURE7_GOLDEN)
        assert document["metadata"]["wcet_max"] == 100
        # figure7_paper_scale(): 25 DAGs/point (documented substitution).
        assert document["metadata"]["dags_per_point"] == 25
        labels = {series["label"] for series in document["series"]}
        assert labels == {"R_hom m=2", "R_het m=2", "R_hom m=8", "R_het m=8"}

    def test_figure6_upper_golden_matches_recorded_run(self):
        assert _load(FIGURE6_UPPER_GOLDEN) == _load(
            _RESULTS / "figure6_upper_range.json"
        )

    def test_ablation_golden_matches_recorded_run(self):
        assert _load(ABLATION_GOLDEN) == _load(
            _RESULTS / "scheduler_ablation_paper.json"
        )

    def test_figure6_upper_has_paper_shape(self):
        document = _load(FIGURE6_UPPER_GOLDEN)
        assert document["metadata"]["generator"] == "large tasks, n in [250, 400]"
        assert document["metadata"]["dags_per_point"] == 100
        labels = [series["label"] for series in document["series"]]
        assert labels == ["m=2", "m=4", "m=8", "m=16"]
        for series in document["series"]:
            assert len(series["x"]) == 15  # the paper's fraction grid

    def test_ablation_has_all_seven_policies(self):
        from repro.experiments.ablations import ABLATION_POLICY_NAMES

        document = _load(ABLATION_GOLDEN)
        labels = [series["label"] for series in document["series"]]
        assert labels == list(ABLATION_POLICY_NAMES)
        metadata = document["metadata"]
        # 15 points x 100 DAGs x {original, transformed} x 7 policies.
        assert metadata["requests"] == 15 * 100 * 2 * 7
        assert metadata["dags_per_point"] == 100
        assert metadata["cores"] == 4
        assert metadata["served_by"] == "EvaluationService micro-batch queue"
        for series in document["series"]:
            assert len(series["x"]) == 15
            assert series["metadata"]["crossover_fraction"] is not None


class TestFigure6PaperScaleReruns:
    def test_figure6_paper_scale_reproduces_golden(self):
        from repro.experiments.config import paper_scale
        from repro.experiments.figure6 import run_figure6

        assert run_figure6(scale=paper_scale()).to_dict() == _load(FIGURE6_GOLDEN)

    def test_figure6_upper_range_reproduces_golden(self):
        from repro.experiments.config import paper_scale
        from repro.experiments.figure6 import run_figure6
        from repro.generator.presets import LARGE_TASKS_UPPER_RANGE

        result = run_figure6(
            scale=paper_scale(), generator_config=LARGE_TASKS_UPPER_RANGE
        )
        # run_paper_scale.py renames the result before publishing it.
        result.name = "figure6_upper_range"
        result.title += " (upper task-size range)"
        assert result.to_dict() == _load(FIGURE6_UPPER_GOLDEN)


@_slow
@pytest.mark.slow
class TestPaperScaleReruns:
    def test_figure7_paper_scale_reproduces_golden(self):
        from repro.experiments.config import figure7_paper_scale
        from repro.experiments.figure7 import run_figure7

        document = run_figure7(scale=figure7_paper_scale()).to_dict()
        # The recorded run solved every instance optimally well inside the
        # 60 s oracle cap (0 trips -> fully deterministic curves).  On a
        # much slower machine a trip would make the rerun diverge for
        # timing reasons, not correctness -- surface that case explicitly
        # instead of as an opaque golden mismatch.
        assert document["metadata"]["non_optimal_oracle_results"] == 0, (
            "an oracle solve tripped the 60 s cap on this machine; the "
            "golden was recorded with zero trips, so the bit-for-bit "
            "comparison below would fail for timing (not correctness) "
            "reasons"
        )
        assert document == _load(FIGURE7_GOLDEN)

    def test_scheduler_ablation_reproduces_golden(self):
        from repro.experiments.ablations import run_scheduler_ablation_service
        from repro.experiments.config import paper_scale

        result = run_scheduler_ablation_service(scale=paper_scale())
        result.name = "scheduler_ablation_paper"
        assert result.to_dict() == _load(ABLATION_GOLDEN)
