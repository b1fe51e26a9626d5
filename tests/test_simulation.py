"""Unit tests for the scheduling simulator (:mod:`repro.simulation`)."""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.core.examples import figure1_task, figure3_task
from repro.core.exceptions import SimulationError
from repro.core.task import DagTask
from repro.core.transformation import transform
from repro.simulation.batch import simulate_many
from repro.simulation.dense import simulate_makespan_dense
from repro.simulation.engine import simulate, simulate_makespan
from repro.simulation.metrics import average_makespan, speedup, summarise_traces
from repro.simulation.platform import ACCELERATOR, HOST, INSTANT, Platform
from repro.simulation.schedulers import (
    BreadthFirstPolicy,
    CriticalPathFirstPolicy,
    DepthFirstPolicy,
    FixedPriorityPolicy,
    LongestFirstPolicy,
    RandomPolicy,
    ShortestFirstPolicy,
    policy_by_name,
)
from repro.simulation.trace import ExecutionTrace, NodeExecution
from repro.simulation.worst_case import exhaustive_worst_case, randomised_worst_case


class TestPlatform:
    def test_basic_properties(self):
        platform = Platform(host_cores=4, accelerators=2)
        assert platform.total_processors == 6
        assert platform.host_core_names() == ["core0", "core1", "core2", "core3"]
        assert platform.accelerator_names() == ["acc0", "acc1"]

    def test_invalid_parameters(self):
        with pytest.raises(SimulationError):
            Platform(host_cores=0)
        with pytest.raises(SimulationError):
            Platform(host_cores=2, accelerators=-1)

    @pytest.mark.parametrize(
        "host_cores, accelerators, field",
        [
            (1.5, 1, "host_cores"),
            (2.5, 1, "host_cores"),
            (True, 1, "host_cores"),
            (math.inf, 1, "host_cores"),
            (4097, 1, "host_cores"),
            (2, 1.0, "accelerators"),
            (2, True, "accelerators"),
            (2, 4097, "accelerators"),
        ],
    )
    def test_non_integral_or_unbounded_counts_are_refused(
        self, host_cores, accelerators, field
    ):
        # Fractional, boolean and infinite core counts once got through:
        # the reference engine raised TypeError on 1.5 cores, the dense
        # engine truncated to 1 and the C kernel rounded the other way.
        with pytest.raises(SimulationError, match=field):
            Platform(host_cores, accelerators)

    def test_every_engine_refuses_a_fractional_core_count(self):
        task = figure1_task()
        for run in (
            lambda: simulate(task, 1.5),
            lambda: simulate_makespan_dense(task, 1.5),
            lambda: simulate_many([task], [1.5]),
        ):
            with pytest.raises(SimulationError, match="host_cores"):
                run()

    def test_numpy_integer_counts_are_accepted(self):
        platform = Platform(np.int64(4), np.int32(1))
        assert platform == Platform(4, 1)
        assert hash(platform) == hash(Platform(4, 1))
        assert type(platform.host_cores) is int
        assert type(platform.accelerators) is int


class TestEngineOnWorkedExample:
    def test_breadth_first_original_matches_figure_1c(self):
        # GOMP-style breadth-first picks v2 and v3 first (creation order),
        # which is precisely the pathological schedule of Figure 1(c).
        trace = simulate(figure1_task(), Platform(2, 1))
        trace.validate()
        assert trace.makespan() == 12
        v_off = trace.execution_of("v_off")
        assert v_off.resource_kind == ACCELERATOR
        # While v_off executes (7 -> 11) the host is fully idle.
        assert trace.host_idle_while_accelerator_busy() == pytest.approx(8)

    def test_breadth_first_transformed_matches_figure_2b(self):
        transformed = transform(figure1_task())
        trace = simulate(transformed.task, Platform(2, 1))
        trace.validate()
        assert trace.makespan() == 10
        sync = trace.execution_of("v_sync")
        assert sync.resource_kind == INSTANT
        assert sync.duration == 0
        # v_off and the G_par nodes start together right after v_sync.
        assert trace.execution_of("v_off").start == sync.finish
        assert trace.execution_of("v2").start == sync.finish
        assert trace.execution_of("v3").start == sync.finish

    def test_offload_disabled_runs_everything_on_host(self):
        trace = simulate(figure1_task(), Platform(2, 1), offload_enabled=False)
        trace.validate()
        assert trace.accelerator_executions() == []
        assert all(
            record.resource_kind in (HOST, INSTANT) for record in trace.executions
        )

    def test_makespan_shortcut(self):
        assert simulate_makespan(figure1_task(), 2) == 12

    def test_platform_can_be_an_integer(self):
        trace = simulate(figure1_task(), 4)
        assert trace.platform == Platform(4, 1)

    def test_infinite_parallelism_reaches_critical_path(self):
        task = figure3_task()
        # With far more cores than nodes, every node starts as soon as its
        # predecessors finish, so the makespan equals len(G).
        assert simulate_makespan(task, 64) == task.critical_path_length

    def test_single_core_makespan_equals_serialised_host_plus_overlap(self):
        task = figure1_task()
        makespan = simulate_makespan(task, 1)
        assert makespan >= task.host_volume()
        assert makespan <= task.volume

    def test_simulation_is_deterministic(self):
        task = figure3_task()
        first = simulate(task, 2)
        second = simulate(task, 2)
        assert [(r.node, r.start, r.finish) for r in first.executions] == [
            (r.node, r.start, r.finish) for r in second.executions
        ]

    def test_offload_without_accelerator_rejected(self):
        with pytest.raises(SimulationError):
            simulate(figure1_task(), Platform(2, 0))

    def test_offload_without_accelerator_allowed_when_disabled(self):
        trace = simulate(figure1_task(), Platform(2, 0), offload_enabled=False)
        assert trace.makespan() >= figure1_task().critical_path_length

    def test_cyclic_graph_rejected(self):
        task = DagTask.from_wcets({"a": 1, "b": 1}, [("a", "b")])
        task.graph.add_edge("b", "a")
        with pytest.raises(Exception):
            simulate(task, 2)

    def test_explicit_device_assignment(self):
        task = figure1_task()
        trace = simulate(
            task.as_homogeneous(),
            Platform(2, 2),
            device_assignment={"v_off": 1, "v2": 0},
        )
        trace.validate()
        assert trace.execution_of("v_off").resource == "acc1"
        assert trace.execution_of("v2").resource == "acc0"

    def test_device_assignment_out_of_range_rejected(self):
        with pytest.raises(SimulationError):
            simulate(figure1_task(), Platform(2, 1), device_assignment={"v_off": 3})

    def test_device_assignment_unknown_node_rejected(self):
        with pytest.raises(SimulationError):
            simulate(figure1_task(), Platform(2, 1), device_assignment={"ghost": 0})


class TestPolicies:
    def test_policy_names_and_lookup(self):
        for name in (
            "breadth-first",
            "depth-first",
            "critical-path-first",
            "shortest-first",
            "longest-first",
            "random",
        ):
            assert policy_by_name(name).name == name
        with pytest.raises(KeyError):
            policy_by_name("does-not-exist")

    def test_policies_produce_legal_schedules(self):
        task = figure3_task()
        for policy in (
            BreadthFirstPolicy(),
            DepthFirstPolicy(),
            CriticalPathFirstPolicy(),
            ShortestFirstPolicy(),
            LongestFirstPolicy(),
            RandomPolicy(3),
            FixedPriorityPolicy({node: i for i, node in enumerate(task.graph.nodes())}),
        ):
            trace = simulate(task, Platform(2, 1), policy)
            trace.validate()
            assert trace.policy_name == policy.name

    def test_policies_can_produce_different_makespans(self):
        task = figure1_task()
        makespans = {
            policy.name: simulate_makespan(task, 2, policy)
            for policy in (BreadthFirstPolicy(), CriticalPathFirstPolicy())
        }
        assert makespans["critical-path-first"] <= makespans["breadth-first"]
        assert makespans["critical-path-first"] == 8

    def test_random_policy_is_seeded(self):
        task = figure3_task()
        first = simulate_makespan(task, 2, RandomPolicy(7))
        second = simulate_makespan(task, 2, RandomPolicy(7))
        assert first == second

    def test_fixed_priority_reproduces_specific_schedule(self):
        # Prioritising v4 first avoids the Figure 1(c) pathology.
        task = figure1_task()
        policy = FixedPriorityPolicy({"v4": 0, "v2": 1, "v3": 2, "v1": 3, "v5": 4})
        assert simulate_makespan(task, 2, policy) < 12


class TestTraceQueriesAndValidation:
    def test_execution_of_unknown_node(self):
        trace = simulate(figure1_task(), 2)
        with pytest.raises(SimulationError):
            trace.execution_of("ghost")

    def test_utilisation_bounds(self):
        trace = simulate(figure1_task(), 2)
        assert 0 <= trace.host_utilisation() <= 1
        assert 0 <= trace.accelerator_utilisation() <= 1

    def test_busy_time_accounting(self):
        task = figure1_task()
        trace = simulate(task, 2)
        assert trace.busy_time(HOST) == task.host_volume()
        assert trace.busy_time(ACCELERATOR) == task.offloaded_wcet

    def test_as_rows(self):
        trace = simulate(figure1_task(), 2)
        rows = trace.as_rows()
        assert len(rows) == 6
        assert {"node", "start", "finish", "duration", "ready", "resource_kind", "resource"} <= set(
            rows[0]
        )

    def test_empty_trace_metrics(self):
        trace = ExecutionTrace(task=figure1_task(), platform=Platform(2, 1))
        assert trace.makespan() == 0
        assert trace.start_time() == 0
        assert trace.host_utilisation() == 0

    def test_validation_catches_missing_node(self):
        trace = simulate(figure1_task(), 2)
        trace.executions.pop()
        with pytest.raises(SimulationError):
            trace.validate()

    def test_validation_catches_precedence_violation(self):
        trace = simulate(figure1_task(), 2)
        broken = []
        for record in trace.executions:
            if record.node == "v5":
                broken.append(
                    NodeExecution(
                        node="v5",
                        start=0.0,
                        finish=record.duration,
                        resource_kind=record.resource_kind,
                        resource=record.resource,
                        ready=0.0,
                    )
                )
            else:
                broken.append(record)
        trace.executions = broken
        with pytest.raises(SimulationError):
            trace.validate()

    def test_validation_catches_wrong_wcet(self):
        trace = simulate(figure1_task(), 2)
        record = trace.executions[0]
        trace.executions[0] = NodeExecution(
            node=record.node,
            start=record.start,
            finish=record.finish + 1,
            resource_kind=record.resource_kind,
            resource=record.resource,
            ready=record.ready,
        )
        with pytest.raises(SimulationError):
            trace.validate()

    def test_validation_catches_capacity_violation(self):
        task = figure1_task()
        trace = simulate(task, 2)
        # Re-label every host execution onto the same core at the same time.
        trace.executions = [
            NodeExecution(
                node=r.node,
                start=0.0 if r.resource_kind == HOST else r.start,
                finish=r.duration if r.resource_kind == HOST else r.finish,
                resource_kind=r.resource_kind,
                resource="core0" if r.resource_kind == HOST else r.resource,
                ready=0.0,
            )
            for r in trace.executions
        ]
        with pytest.raises(SimulationError):
            trace.validate()

    def test_validation_catches_offloaded_node_on_host(self):
        trace = simulate(figure1_task(), 2)
        trace.executions = [
            NodeExecution(
                node=r.node,
                start=r.start,
                finish=r.finish,
                resource_kind=HOST if r.node == "v_off" else r.resource_kind,
                resource="core0" if r.node == "v_off" else r.resource,
                ready=r.ready,
            )
            for r in trace.executions
        ]
        trace.device_assignment = None
        with pytest.raises(SimulationError):
            trace.validate()

    def test_queueing_delay_is_non_negative(self):
        trace = simulate(figure3_task(), 2)
        for record in trace.executions:
            assert record.queueing_delay >= 0


class TestWorstCaseSearch:
    def test_exhaustive_reproduces_figure_1c(self):
        result = exhaustive_worst_case(figure1_task(), Platform(2, 1))
        assert result.makespan == 12
        assert result.explored == 720  # 6 non-zero-WCET nodes -> 6! orderings
        result.trace.validate()

    def test_exhaustive_exceeds_naive_bound(self):
        from repro.analysis.heterogeneous import naive_unsafe_response_time

        naive = naive_unsafe_response_time(figure1_task(), 2).bound
        worst = exhaustive_worst_case(figure1_task(), Platform(2, 1)).makespan
        assert worst > naive  # the unsafe bound is indeed unsafe

    def test_exhaustive_rejects_large_tasks(self):
        with pytest.raises(SimulationError):
            exhaustive_worst_case(figure3_task(), Platform(2, 1))

    def test_randomised_is_a_lower_bound_on_exhaustive(self):
        task = figure1_task()
        exhaustive = exhaustive_worst_case(task, Platform(2, 1)).makespan
        randomised = randomised_worst_case(task, Platform(2, 1), samples=50, rng=0)
        assert randomised.makespan <= exhaustive
        assert randomised.explored == 50

    def test_randomised_requires_samples(self):
        with pytest.raises(SimulationError):
            randomised_worst_case(figure1_task(), Platform(2, 1), samples=0)

    def test_worst_case_of_transformed_task_is_bounded_by_rhet(self):
        from repro.analysis.heterogeneous import response_time

        transformed = transform(figure1_task())
        worst = exhaustive_worst_case(transformed.task, Platform(2, 1)).makespan
        assert worst <= response_time(transformed, 2).bound


class TestMetrics:
    def test_summarise_traces(self):
        task = figure1_task()
        traces = [simulate(task, m) for m in (1, 2, 4)]
        stats = summarise_traces(traces)
        assert stats.count == 3
        assert stats.min_makespan <= stats.mean_makespan <= stats.max_makespan
        assert stats.median_makespan >= stats.min_makespan
        assert set(stats.as_dict()) >= {"count", "mean_makespan", "max_makespan"}

    def test_summarise_empty_batch_raises(self):
        with pytest.raises(ValueError):
            summarise_traces([])

    def test_average_makespan(self):
        task = figure1_task()
        traces = [simulate(task, 2), simulate(task, 2)]
        assert average_makespan(traces) == 12

    def test_average_of_empty_batch_raises(self):
        with pytest.raises(ValueError):
            average_makespan([])

    def test_speedup(self):
        assert speedup([10, 10], [5, 5]) == 2
        with pytest.raises(ValueError):
            speedup([], [1])
        with pytest.raises(ZeroDivisionError):
            speedup([1], [0])
