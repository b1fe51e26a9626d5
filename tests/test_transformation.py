"""Unit tests for Algorithm 1 (:mod:`repro.core.transformation`)."""

from __future__ import annotations

import pytest

from repro.core.examples import figure1_task, figure2_expected_edges, figure3_task
from repro.core.exceptions import CycleError, TransformationError
from repro.core.task import DagTask
from repro.core.transformation import transform
from repro.core.validation import validate_task


class TestFigure1Example:
    """The transformation of the motivating example (Figure 1 -> Figure 2)."""

    def test_transformed_edge_set_matches_figure2(self):
        transformed = transform(figure1_task())
        assert sorted(map(tuple, transformed.graph.edges())) == sorted(
            figure2_expected_edges()
        )

    def test_sync_node_has_zero_wcet(self):
        transformed = transform(figure1_task())
        assert transformed.graph.wcet("v_sync") == 0

    def test_direct_predecessors(self):
        transformed = transform(figure1_task())
        assert transformed.direct_predecessors == {"v4"}
        assert transformed.predecessors == {"v1", "v4"}
        assert transformed.successors == {"v5"}

    def test_gpar_nodes_and_metrics(self):
        transformed = transform(figure1_task())
        assert transformed.gpar_nodes == {"v2", "v3"}
        assert transformed.gpar_volume() == 10
        assert transformed.gpar_length() == 6

    def test_volume_is_preserved_and_length_grows(self):
        transformed = transform(figure1_task())
        assert transformed.transformed_volume() == 18
        assert transformed.transformed_length() == 10
        assert transformed.critical_path_elongation() == 2

    def test_offloaded_not_on_critical_path(self):
        transformed = transform(figure1_task())
        assert not transformed.offloaded_on_critical_path()

    def test_rerouted_edges_recorded(self):
        transformed = transform(figure1_task())
        assert set(transformed.rerouted_edges) == {("v1", "v2"), ("v1", "v3")}

    def test_transformed_task_keeps_timing_parameters(self):
        transformed = transform(figure1_task(period=50, deadline=40))
        assert transformed.task.period == 50
        assert transformed.task.deadline == 40
        assert transformed.task.offloaded_node == "v_off"
        assert transformed.task.name.endswith("'")

    def test_original_task_not_mutated(self):
        task = figure1_task()
        edges_before = sorted(map(tuple, task.graph.edges()))
        transform(task)
        assert sorted(map(tuple, task.graph.edges())) == edges_before
        assert "v_sync" not in task.graph


class TestFigure3Example:
    """The larger example exercising every branch of Algorithm 1."""

    def test_direct_and_indirect_predecessors(self):
        transformed = transform(figure3_task())
        assert transformed.direct_predecessors == {"v8", "v9"}
        assert transformed.predecessors == {"v1", "v3", "v8", "v9"}
        assert transformed.successors == {"v10"}

    def test_gpar_contains_exactly_the_parallel_nodes(self):
        task = figure3_task()
        transformed = transform(task)
        assert transformed.gpar_nodes == {"v2", "v4", "v5", "v6", "v7", "v11"}
        assert transformed.gpar_nodes == task.parallel_nodes_to_offloaded()

    def test_direct_predecessor_edges_rerouted_to_sync(self):
        transformed = transform(figure3_task())
        graph = transformed.graph
        # (v8, v_off) and (v9, v_off) replaced by edges to v_sync.
        assert not graph.has_edge("v8", "v_off")
        assert not graph.has_edge("v9", "v_off")
        assert graph.has_edge("v8", "v_sync")
        assert graph.has_edge("v9", "v_sync")
        assert graph.has_edge("v_sync", "v_off")

    def test_parallel_edges_of_direct_predecessor_rerouted(self):
        transformed = transform(figure3_task())
        graph = transformed.graph
        # (v8, v11) must become (v_sync, v11).
        assert not graph.has_edge("v8", "v11")
        assert graph.has_edge("v_sync", "v11")

    def test_parallel_edges_of_indirect_predecessors_rerouted(self):
        transformed = transform(figure3_task())
        graph = transformed.graph
        # (v1, v2) and (v3, v7) must become (v_sync, v2) and (v_sync, v7).
        assert not graph.has_edge("v1", "v2")
        assert not graph.has_edge("v3", "v7")
        assert graph.has_edge("v_sync", "v2")
        assert graph.has_edge("v_sync", "v7")

    def test_edges_between_predecessors_are_kept(self):
        transformed = transform(figure3_task())
        graph = transformed.graph
        assert graph.has_edge("v1", "v3")
        assert graph.has_edge("v3", "v8")
        assert graph.has_edge("v3", "v9")

    def test_gpar_edges_come_from_the_original_edge_set(self):
        transformed = transform(figure3_task())
        assert transformed.gpar.has_edge("v2", "v4")
        assert transformed.gpar.has_edge("v7", "v5")
        assert transformed.gpar.has_edge("v11", "v6")
        assert transformed.gpar.edge_count == 3

    def test_transformed_task_is_model_compliant(self):
        transformed = transform(figure3_task())
        assert validate_task(transformed.task).is_valid


class TestGuaranteeProperty:
    """The whole point of v_sync: G_par cannot start before v_off is ready."""

    @pytest.mark.parametrize("factory", [figure1_task, figure3_task])
    def test_every_gpar_node_is_a_descendant_of_sync(self, factory):
        transformed = transform(factory())
        graph = transformed.graph
        descendants = graph.descendants(transformed.sync_node)
        assert transformed.gpar_nodes <= descendants
        assert transformed.offloaded_node in descendants

    @pytest.mark.parametrize("factory", [figure1_task, figure3_task])
    def test_sync_is_preceded_exactly_by_offloaded_direct_predecessors(self, factory):
        transformed = transform(factory())
        graph = transformed.graph
        assert graph.predecessors(transformed.sync_node) == transformed.direct_predecessors

    @pytest.mark.parametrize("factory", [figure1_task, figure3_task])
    def test_offloaded_node_only_predecessor_is_sync(self, factory):
        transformed = transform(factory())
        graph = transformed.graph
        assert graph.predecessors(transformed.offloaded_node) == {transformed.sync_node}


class TestErrorsAndOptions:
    def test_homogeneous_task_cannot_be_transformed(self):
        task = DagTask.from_wcets({"a": 1, "b": 2}, [("a", "b")])
        with pytest.raises(TransformationError):
            transform(task)

    def test_sync_identifier_collision_rejected(self):
        task = figure1_task()
        with pytest.raises(TransformationError):
            transform(task, sync_node="v1")

    def test_cyclic_task_cannot_be_transformed(self):
        # Pred and Succ of v_off are undefined on a cycle; Algorithm 1 runs
        # on the dense kernel, which a cyclic graph never has.
        task = DagTask.from_wcets(
            {"a": 1, "b": 2, "c": 3}, [("a", "b"), ("b", "c"), ("c", "a")], offloaded_node="b"
        )
        with pytest.raises(CycleError):
            transform(task)

    def test_custom_sync_identifier(self):
        transformed = transform(figure1_task(), sync_node="barrier")
        assert transformed.sync_node == "barrier"
        assert "barrier" in transformed.graph

    def test_offloaded_node_is_source(self):
        task = DagTask.from_wcets(
            {"v_off": 3, "a": 2, "b": 1},
            [("v_off", "a"), ("a", "b")],
            offloaded_node="v_off",
        )
        transformed = transform(task)
        # No predecessors: the sync node simply precedes v_off; G_par is empty.
        assert transformed.gpar_nodes == set()
        assert transformed.graph.has_edge("v_sync", "v_off")
        assert transformed.transformed_volume() == task.volume

    def test_offloaded_node_is_sink(self):
        task = DagTask.from_wcets(
            {"a": 2, "b": 3, "v_off": 4},
            [("a", "b"), ("a", "v_off")],
            offloaded_node="v_off",
        )
        transformed = transform(task)
        assert transformed.gpar_nodes == {"b"}
        assert transformed.graph.predecessors("v_off") == {"v_sync"}
        assert transformed.graph.has_edge("v_sync", "b")

    def test_reduce_transitive_flag(self):
        # Two ordered parallel nodes that both lose every predecessor create a
        # transitive edge v_sync -> x -> y plus v_sync -> y.
        task = DagTask.from_wcets(
            {"s": 1, "p": 2, "x": 3, "y": 4, "v_off": 5, "t": 1},
            [
                ("s", "p"),
                ("s", "x"),
                ("s", "y"),
                ("x", "y"),
                ("p", "v_off"),
                ("v_off", "t"),
                ("y", "t"),
            ],
            offloaded_node="v_off",
        )
        # NOTE: (s, y) together with (s, x) and (x, y) is transitive in the
        # *input*, which violates the model; drop it first to stay compliant.
        task.graph.remove_edge("s", "y")
        reduced = transform(task, reduce_transitive=True)
        raw = transform(task, reduce_transitive=False)
        assert reduced.graph.transitive_edges() == []
        assert raw.transformed_volume() == reduced.transformed_volume()
        assert raw.transformed_length() == reduced.transformed_length()

    def test_single_node_plus_offload(self):
        task = DagTask.from_wcets(
            {"a": 2, "v_off": 3}, [("a", "v_off")], offloaded_node="v_off"
        )
        transformed = transform(task)
        assert transformed.gpar_nodes == set()
        assert transformed.transformed_length() == 5
        assert transformed.graph.has_edge("a", "v_sync")
