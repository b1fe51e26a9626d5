"""Unit tests for the task model (:mod:`repro.core.task`)."""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.core.examples import figure1_task
from repro.core.exceptions import ValidationError
from repro.core.graph import DirectedAcyclicGraph
from repro.core.task import DagTask, TaskSet


@pytest.fixture
def hetero_task() -> DagTask:
    return figure1_task(period=30, deadline=20)


@pytest.fixture
def homo_task() -> DagTask:
    graph = DirectedAcyclicGraph.from_dict(
        {"a": 2, "b": 4, "c": 4, "d": 2},
        [("a", "b"), ("a", "c"), ("b", "d"), ("c", "d")],
    )
    return DagTask(graph=graph, period=24, name="homo")


class TestConstruction:
    def test_from_wcets(self):
        task = DagTask.from_wcets(
            {"a": 1, "b": 2}, [("a", "b")], offloaded_node="b", period=10
        )
        assert task.volume == 3
        assert task.offloaded_node == "b"
        assert task.deadline == 10  # defaults to the period

    def test_offloaded_node_must_exist(self):
        graph = DirectedAcyclicGraph.from_dict({"a": 1})
        with pytest.raises(ValidationError):
            DagTask(graph=graph, offloaded_node="ghost")

    def test_unconstrained_deadline_rejected(self):
        graph = DirectedAcyclicGraph.from_dict({"a": 1})
        with pytest.raises(ValidationError):
            DagTask(graph=graph, period=10, deadline=12)

    @pytest.mark.parametrize(
        "value", ["abc", [1, 2], True, False, 0, -5, 1e999, -math.inf, math.nan]
    )
    @pytest.mark.parametrize("field", ["period", "deadline"])
    def test_timing_fields_must_be_finite_positive_numbers(self, field, value):
        # A deadline row keeps a valid period, so only the deadline is wrong.
        timing = {"period": 10, field: value}
        graph = DirectedAcyclicGraph.from_dict({"a": 1, "b": 2}, [("a", "b")])
        with pytest.raises(ValidationError, match=field):
            DagTask(graph=graph, **timing)

    @pytest.mark.parametrize("period", [1, 0.5, 1e300, np.float64(3.0), np.int64(4)])
    def test_timing_fields_accept_real_numbers(self, period):
        graph = DirectedAcyclicGraph.from_dict({"a": 1})
        task = DagTask(graph=graph, period=period)
        assert task.period == period and task.deadline == period

    def test_copy_is_deep(self, hetero_task):
        clone = hetero_task.copy()
        clone.graph.set_wcet("v1", 99)
        clone.metadata["k"] = "v"
        assert hetero_task.graph.wcet("v1") == 1
        assert "k" not in hetero_task.metadata


class TestHeterogeneityAccessors:
    def test_is_heterogeneous(self, hetero_task, homo_task):
        assert hetero_task.is_heterogeneous
        assert not homo_task.is_heterogeneous

    def test_offloaded_wcet(self, hetero_task, homo_task):
        assert hetero_task.offloaded_wcet == 4
        assert homo_task.offloaded_wcet == 0

    def test_host_nodes_and_volume(self, hetero_task):
        assert "v_off" not in hetero_task.host_nodes()
        assert hetero_task.host_volume() == hetero_task.volume - 4

    def test_offloaded_fraction(self, hetero_task):
        assert hetero_task.offloaded_fraction() == pytest.approx(4 / 18)

    def test_offloaded_fraction_of_homogeneous_task(self, homo_task):
        assert homo_task.offloaded_fraction() == 0.0

    def test_with_offloaded_wcet(self, hetero_task):
        updated = hetero_task.with_offloaded_wcet(10)
        assert updated.offloaded_wcet == 10
        assert hetero_task.offloaded_wcet == 4  # original untouched
        assert updated.volume == hetero_task.volume + 6

    def test_with_offloaded_wcet_requires_offloaded_node(self, homo_task):
        with pytest.raises(ValidationError):
            homo_task.with_offloaded_wcet(5)

    def test_with_offloaded_node_and_as_homogeneous(self, hetero_task):
        moved = hetero_task.with_offloaded_node("v2")
        assert moved.offloaded_node == "v2"
        assert moved.offloaded_wcet == 4  # v2's own WCET
        plain = hetero_task.as_homogeneous()
        assert plain.offloaded_node is None

    def test_with_offloaded_node_unknown(self, hetero_task):
        with pytest.raises(ValidationError):
            hetero_task.with_offloaded_node("ghost")


class TestMetrics:
    def test_volume_and_length(self, hetero_task):
        assert hetero_task.volume == 18
        assert hetero_task.critical_path_length == 8
        assert hetero_task.critical_path() == ["v1", "v3", "v5"]
        assert hetero_task.node_count == 6

    def test_utilisation_and_density(self, hetero_task):
        assert hetero_task.utilisation() == pytest.approx(18 / 30)
        assert hetero_task.density() == pytest.approx(18 / 20)

    def test_utilisation_requires_period(self):
        task = DagTask.from_wcets({"a": 1}, [])
        with pytest.raises(ValidationError):
            task.utilisation()
        with pytest.raises(ValidationError):
            task.density()

    def test_parallelism(self, hetero_task):
        assert hetero_task.parallelism() == pytest.approx(18 / 8)

    def test_parallelism_of_empty_graph(self):
        task = DagTask(graph=DirectedAcyclicGraph())
        assert task.parallelism() == 0.0

    def test_feasible_on_infinite_cores(self, hetero_task):
        assert hetero_task.is_feasible_on_infinite_cores()
        tight = figure1_task(period=10, deadline=7)
        assert not tight.is_feasible_on_infinite_cores()


class TestStructuralShortcuts:
    def test_predecessors_and_successors_of_offloaded(self, hetero_task):
        assert hetero_task.predecessors_of_offloaded() == {"v1", "v4"}
        assert hetero_task.successors_of_offloaded() == {"v5"}

    def test_parallel_nodes_to_offloaded(self, hetero_task):
        assert hetero_task.parallel_nodes_to_offloaded() == {"v2", "v3"}

    def test_structural_shortcuts_of_homogeneous_task(self, homo_task):
        assert homo_task.predecessors_of_offloaded() == set()
        assert homo_task.successors_of_offloaded() == set()
        assert homo_task.parallel_nodes_to_offloaded() == set()
        assert not homo_task.offloaded_on_critical_path()

    def test_offloaded_on_critical_path(self, hetero_task):
        # With C_off = 4 the path v1 -> v4 -> v_off -> v5 ties the critical
        # path length (8), so v_off lies on *a* critical path of G.
        assert hetero_task.offloaded_on_critical_path()
        lighter = hetero_task.with_offloaded_wcet(3)
        assert not lighter.offloaded_on_critical_path()
        heavier = hetero_task.with_offloaded_wcet(20)
        assert heavier.offloaded_on_critical_path()


class TestTaskSet:
    def test_add_iterate_and_index(self, hetero_task, homo_task):
        tasks = TaskSet(name="system")
        tasks.add(hetero_task)
        tasks.add(homo_task)
        assert len(tasks) == 2
        assert tasks[0] is hetero_task
        assert [task.name for task in tasks] == [hetero_task.name, "homo"]

    def test_total_utilisation_and_density(self, hetero_task, homo_task):
        tasks = TaskSet([hetero_task, homo_task])
        assert tasks.total_utilisation() == pytest.approx(18 / 30 + 12 / 24)
        assert tasks.total_density() == pytest.approx(18 / 20 + 12 / 24)

    def test_hyperperiod(self, hetero_task, homo_task):
        tasks = TaskSet([hetero_task, homo_task])
        assert tasks.hyperperiod() == 120

    def test_hyperperiod_requires_periods(self):
        tasks = TaskSet([DagTask.from_wcets({"a": 1}, [])])
        with pytest.raises(ValidationError):
            tasks.hyperperiod()

    def test_hyperperiod_requires_integer_periods(self):
        tasks = TaskSet([DagTask.from_wcets({"a": 1}, [], period=2.5)])
        with pytest.raises(ValidationError):
            tasks.hyperperiod()

    def test_hyperperiod_of_empty_set(self):
        assert TaskSet().hyperperiod() == 0

    def test_heterogeneous_and_homogeneous_partitions(self, hetero_task, homo_task):
        tasks = TaskSet([hetero_task, homo_task])
        assert tasks.heterogeneous_tasks() == [hetero_task]
        assert tasks.homogeneous_tasks() == [homo_task]
