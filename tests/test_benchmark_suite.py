"""The micro-benchmark registry (``benchmarks/suite.py``) and its gate evaluator.

The registry rows are pinned here so that no edit can loosen a gate or drop
an identity check without also editing this test.  The evaluator and the
runner are exercised on synthetic cases: no benchmark runs.
"""

from __future__ import annotations

import json
import math
import sys
from pathlib import Path

import pytest

_BENCHMARKS = str(Path(__file__).resolve().parent.parent / "benchmarks")
if _BENCHMARKS not in sys.path:
    sys.path.insert(0, _BENCHMARKS)

import suite  # noqa: E402  (benchmarks/ is not a package)

#: (case, metric, comparison, threshold) of every gate, in registry order.
GATES = [
    ("oracle", "state_reduction", ">=", 5.0),
    ("simulation-dense", "batched_speedup", ">=", 3.0),
    ("simulation-compiled", "speedup_vs_dense", ">=", 4.0),
    ("simulation-compiled", "crossover_lanes", "<=", 16),
    ("service", "batching_speedup", ">=", 2.0),
    ("service", "hit_speedup", ">=", 10.0),
    ("service", "repeat_hit_speedup", ">=", 2.0),
    ("faults", "fault_point_disabled_ns", "<=", 1000.0),
    ("faults", "degraded_speedup", ">=", 2.0),
    ("workload", "coupled_speedup", ">=", 2.0),
    ("tracing", "span_disabled_ns", "<=", 10_000.0),
    ("tracing", "span_untraced_ns", "<=", 10_000.0),
    ("tracing", "record_kernel_disarmed_ns", "<=", 3_000.0),
    ("tracing", "traced_warm_slowdown", "<=", 3.0),
    ("generator", "replay_speedup", ">=", 5.0),
]

CHECKS = {
    "oracle": (
        "makespans_identical_to_reference",
        "makespans_identical_to_ilp",
        "warm_start_makespans_identical",
        "repeat_pass_identical",
    ),
    "simulation-dense": ("makespans_identical", "families_identical"),
    "simulation-compiled": (
        "kernel_built",
        "makespans_identical",
        "threads_identical",
        "families_identical",
        "views_identical",
    ),
    "service": ("payloads_identical", "repeat_hits_identical"),
    "faults": ("all_degraded_flagged", "bound_sandwich_holds"),
    "workload": ("completions_identical",),
    "tracing": (
        "no_trace_from_disabled_hooks",
        "results_identical",
        "ring_within_cap",
    ),
    "graph-kernel": ("fig6_transform_matches_rebuild",),
    "generator": ("kernel_built", "draws_identical", "rng_state_identical"),
}


def _case(run, gates=(), checks=(), name="synthetic"):
    return suite.Case(
        name=name,
        layer="test",
        workload="synthetic",
        candidate="candidate",
        baseline="baseline",
        run=run,
        gates=gates,
        checks=checks,
    )


class TestRegistry:
    def test_gate_rows_are_pinned(self):
        rows = [
            (case.name, gate.metric, gate.comparison, gate.threshold)
            for case in suite.CASES
            for gate in case.gates
        ]
        assert rows == GATES

    def test_check_names_are_pinned(self):
        assert {case.name: case.checks for case in suite.CASES} == CHECKS

    def test_every_case_declares_what_it_compares(self):
        names = [case.name for case in suite.CASES]
        assert len(names) == len(set(names))
        for case in suite.CASES:
            assert case.layer and case.workload
            assert case.candidate and case.baseline


class TestGateEvaluator:
    @pytest.mark.parametrize(
        ("comparison", "past"),
        [(">=", -math.inf), ("<=", math.inf)],
    )
    def test_threshold_passes_and_just_past_fails(self, comparison, past):
        gate = suite.Gate("metric", comparison, 2.0)
        assert gate.holds(2.0)
        assert not gate.holds(math.nextafter(2.0, past))

    def test_unmeasured_metric_fails(self):
        assert not suite.Gate("metric", "<=", 16).holds(None)

    def test_unknown_comparison_is_refused(self):
        with pytest.raises(ValueError, match="comparison"):
            suite.Gate("metric", ">", 1.0)

    def test_record_judges_every_gate_and_check(self):
        case = _case(
            None,
            gates=(suite.Gate("speedup", ">=", 2.0), suite.Gate("ns", "<=", 10.0)),
            checks=("identical",),
        )
        record = suite.evaluate(case, {"speedup": 2.0, "ns": 10.0}, {"identical": True})
        assert record["passed"]
        assert [gate["passed"] for gate in record["gates"]] == [True, True]

        for metrics, checks in (
            ({"speedup": 3.0, "ns": 1.0}, {"identical": False}),  # failed check
            ({"speedup": 3.0, "ns": 1.0}, {}),  # check not reported
            ({"speedup": 1.9, "ns": 1.0}, {"identical": True}),  # gate missed
            ({"ns": 1.0}, {"identical": True}),  # gated metric not measured
        ):
            assert not suite.evaluate(case, metrics, checks)["passed"]

    def test_undeclared_check_fails(self):
        case = _case(None, checks=("identical",))
        record = suite.evaluate(case, {}, {"identical": True, "extra": True})
        assert record["checks"]["undeclared:extra"] is False
        assert not record["passed"]


class TestRunner:
    def test_exit_status_follows_the_cases(self, monkeypatch, capsys):
        passing = _case(
            lambda smoke: ({"speedup": 2.0}, {"identical": True}),
            gates=(suite.Gate("speedup", ">=", 2.0),),
            checks=("identical",),
            name="passing",
        )
        failed_check = _case(
            lambda smoke: ({"speedup": 9.0}, {"identical": False}),
            gates=(suite.Gate("speedup", ">=", 2.0),),
            checks=("identical",),
            name="failed-check",
        )

        def crash(smoke):
            raise RuntimeError("boom")

        raising = _case(crash, name="raising")
        monkeypatch.setattr(suite, "CASES", (passing, failed_check, raising))

        assert suite.main(["--smoke", "passing"]) == 0
        assert suite.main(["--smoke", "failed-check"]) == 1
        assert suite.main(["--smoke", "raising"]) == 1
        assert suite.main(["--smoke"]) == 1
        assert suite.main(["--smoke", "no-such-case"]) == 2
        out = capsys.readouterr().out
        assert "speedup" in out and ">= 2" in out and "PASS" in out
        assert "RuntimeError: boom" in out

    def test_full_run_merges_one_record_per_case(self, monkeypatch, tmp_path):
        first = _case(lambda smoke: ({"value": 1}, {}), name="first")
        second = _case(lambda smoke: ({"value": smoke}, {}), name="second")
        monkeypatch.setattr(suite, "CASES", (first, second))
        monkeypatch.setattr(suite, "OUTPUT", tmp_path / "suite.json")

        assert suite.main(["--smoke"]) == 0
        assert not suite.OUTPUT.exists()
        assert suite.main(["second"]) == 0
        assert suite.main(["first"]) == 0
        records = json.loads(suite.OUTPUT.read_text())["records"]
        assert [record["case"] for record in records] == ["first", "second"]
        assert records[1]["metrics"] == {"value": False}
