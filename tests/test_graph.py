"""Unit tests for the DAG substrate (:mod:`repro.core.graph`)."""

from __future__ import annotations

import math

import pytest

from repro.core.exceptions import (
    CycleError,
    DuplicateNodeError,
    EdgeError,
    NodeNotFoundError,
)
from repro.core.graph import DirectedAcyclicGraph


@pytest.fixture
def diamond() -> DirectedAcyclicGraph:
    """Classic diamond DAG: a -> {b, c} -> d with distinct WCETs."""
    return DirectedAcyclicGraph.from_dict(
        {"a": 1, "b": 2, "c": 5, "d": 3},
        [("a", "b"), ("a", "c"), ("b", "d"), ("c", "d")],
    )


class TestConstruction:
    def test_empty_graph(self):
        graph = DirectedAcyclicGraph()
        assert len(graph) == 0
        assert graph.node_count == 0
        assert graph.edge_count == 0
        assert graph.volume() == 0
        assert graph.critical_path_length() == 0
        assert graph.critical_path() == []

    def test_add_node_and_contains(self):
        graph = DirectedAcyclicGraph()
        graph.add_node("a", 3)
        assert "a" in graph
        assert "b" not in graph
        assert graph.wcet("a") == 3

    def test_add_duplicate_node_raises(self):
        graph = DirectedAcyclicGraph()
        graph.add_node("a", 1)
        with pytest.raises(DuplicateNodeError):
            graph.add_node("a", 2)

    def test_negative_wcet_rejected(self):
        graph = DirectedAcyclicGraph()
        with pytest.raises(ValueError):
            graph.add_node("a", -1)

    def test_set_negative_wcet_rejected(self, diamond):
        with pytest.raises(ValueError):
            diamond.set_wcet("a", -0.5)

    @pytest.mark.parametrize("wcet", [math.nan, math.inf, -math.inf])
    def test_non_finite_wcet_rejected(self, diamond, wcet):
        # ``nan < 0`` is false: a sign test alone let NaN in, and the
        # simulators then never retired the node.
        graph = DirectedAcyclicGraph()
        with pytest.raises(ValueError, match="finite"):
            graph.add_node("a", wcet)
        assert "a" not in graph
        with pytest.raises(ValueError, match="finite"):
            diamond.set_wcet("a", wcet)
        assert diamond.wcet("a") == 1

    def test_add_edge_unknown_node_raises(self):
        graph = DirectedAcyclicGraph()
        graph.add_node("a", 1)
        with pytest.raises(NodeNotFoundError):
            graph.add_edge("a", "missing")

    def test_self_loop_rejected(self):
        graph = DirectedAcyclicGraph()
        graph.add_node("a", 1)
        with pytest.raises(EdgeError):
            graph.add_edge("a", "a")

    def test_duplicate_edge_rejected(self, diamond):
        with pytest.raises(EdgeError):
            diamond.add_edge("a", "b")

    def test_remove_edge(self, diamond):
        diamond.remove_edge("a", "b")
        assert not diamond.has_edge("a", "b")
        assert "b" in diamond.sources()

    def test_remove_missing_edge_raises(self, diamond):
        with pytest.raises(EdgeError):
            diamond.remove_edge("b", "a")

    def test_remove_node_removes_incident_edges(self, diamond):
        diamond.remove_node("b")
        assert "b" not in diamond
        assert diamond.edge_count == 2
        assert diamond.successors("a") == {"c"}
        assert diamond.predecessors("d") == {"c"}

    def test_wcet_of_unknown_node_raises(self, diamond):
        with pytest.raises(NodeNotFoundError):
            diamond.wcet("zzz")

    def test_from_dict_round_trip(self, diamond):
        rebuilt = DirectedAcyclicGraph.from_dict(diamond.wcets(), diamond.edges())
        assert rebuilt == diamond

    def test_copy_is_independent(self, diamond):
        clone = diamond.copy()
        clone.add_node("extra", 7)
        clone.remove_edge("a", "b")
        assert "extra" not in diamond
        assert diamond.has_edge("a", "b")
        assert clone != diamond

    def test_equality_against_other_types(self, diamond):
        assert diamond != "not a graph"


class TestBasicQueries:
    def test_degrees(self, diamond):
        assert diamond.out_degree("a") == 2
        assert diamond.in_degree("a") == 0
        assert diamond.in_degree("d") == 2
        assert diamond.out_degree("d") == 0

    def test_sources_and_sinks(self, diamond):
        assert diamond.sources() == ["a"]
        assert diamond.sinks() == ["d"]

    def test_nodes_preserve_insertion_order(self):
        graph = DirectedAcyclicGraph.from_dict({"z": 1, "a": 1, "m": 1})
        assert graph.nodes() == ["z", "a", "m"]

    def test_successors_and_predecessors(self, diamond):
        assert diamond.successors("a") == {"b", "c"}
        assert diamond.predecessors("d") == {"b", "c"}
        assert diamond.successors("d") == set()

    def test_edge_count(self, diamond):
        assert diamond.edge_count == 4
        assert len(diamond.edges()) == 4


class TestOrderingAndReachability:
    def test_topological_order_is_valid(self, diamond):
        order = diamond.topological_order()
        position = {node: index for index, node in enumerate(order)}
        for src, dst in diamond.edges():
            assert position[src] < position[dst]

    def test_topological_order_deterministic(self, diamond):
        assert diamond.topological_order() == diamond.topological_order()

    def test_cycle_detection(self):
        graph = DirectedAcyclicGraph.from_dict(
            {"a": 1, "b": 1, "c": 1}, [("a", "b"), ("b", "c")]
        )
        assert graph.is_acyclic()
        graph.add_edge("c", "a")
        assert not graph.is_acyclic()
        with pytest.raises(CycleError) as excinfo:
            graph.topological_order()
        assert excinfo.value.cycle is not None
        assert set(excinfo.value.cycle) == {"a", "b", "c"}

    def test_find_cycle_none_for_acyclic(self, diamond):
        assert diamond.find_cycle() is None

    def test_check_acyclic_passes(self, diamond):
        diamond.check_acyclic()

    def test_descendants_and_ancestors(self, diamond):
        assert diamond.descendants("a") == {"b", "c", "d"}
        assert diamond.ancestors("d") == {"a", "b", "c"}
        assert diamond.descendants("d") == set()
        assert diamond.ancestors("a") == set()

    def test_has_path(self, diamond):
        assert diamond.has_path("a", "d")
        assert diamond.has_path("a", "a")
        assert not diamond.has_path("b", "c")
        assert not diamond.has_path("d", "a")

    def test_are_parallel(self, diamond):
        assert diamond.are_parallel("b", "c")
        assert not diamond.are_parallel("a", "b")
        assert not diamond.are_parallel("b", "b")


class TestMetrics:
    def test_volume(self, diamond):
        assert diamond.volume() == 11

    def test_critical_path_length(self, diamond):
        # Longest path a -> c -> d = 1 + 5 + 3.
        assert diamond.critical_path_length() == 9

    def test_critical_path_nodes(self, diamond):
        assert diamond.critical_path() == ["a", "c", "d"]

    def test_critical_path_of_chain(self):
        graph = DirectedAcyclicGraph.from_dict(
            {"a": 2, "b": 3, "c": 4}, [("a", "b"), ("b", "c")]
        )
        assert graph.critical_path_length() == 9
        assert graph.critical_path() == ["a", "b", "c"]

    def test_critical_path_single_node(self):
        graph = DirectedAcyclicGraph.from_dict({"only": 7})
        assert graph.critical_path_length() == 7
        assert graph.critical_path() == ["only"]

    def test_earliest_finish_times(self, diamond):
        finish = diamond.earliest_finish_times()
        assert finish == {"a": 1, "b": 3, "c": 6, "d": 9}

    def test_longest_tail_lengths(self, diamond):
        tail = diamond.longest_tail_lengths()
        assert tail == {"a": 9, "b": 5, "c": 8, "d": 3}

    def test_longest_path_through(self, diamond):
        assert diamond.longest_path_through("c") == 9
        assert diamond.longest_path_through("b") == 6

    def test_lies_on_critical_path(self, diamond):
        assert diamond.lies_on_critical_path("a")
        assert diamond.lies_on_critical_path("c")
        assert diamond.lies_on_critical_path("d")
        assert not diamond.lies_on_critical_path("b")

    def test_zero_wcet_nodes_do_not_contribute(self):
        graph = DirectedAcyclicGraph.from_dict(
            {"a": 0, "b": 4, "z": 0}, [("a", "b"), ("b", "z")]
        )
        assert graph.volume() == 4
        assert graph.critical_path_length() == 4


class TestTransitiveEdges:
    def test_detect_transitive_edge(self):
        graph = DirectedAcyclicGraph.from_dict(
            {"a": 1, "b": 1, "c": 1},
            [("a", "b"), ("b", "c"), ("a", "c")],
        )
        assert graph.transitive_edges() == [("a", "c")]

    def test_no_transitive_edges_in_diamond(self, diamond):
        assert diamond.transitive_edges() == []

    def test_transitive_reduction_preserves_metrics_and_reachability(self):
        graph = DirectedAcyclicGraph.from_dict(
            {"a": 1, "b": 2, "c": 3, "d": 4},
            [("a", "b"), ("b", "c"), ("a", "c"), ("c", "d"), ("a", "d")],
        )
        reduced = graph.transitive_reduction()
        assert reduced.transitive_edges() == []
        assert reduced.volume() == graph.volume()
        assert reduced.critical_path_length() == graph.critical_path_length()
        assert reduced.descendants("a") == graph.descendants("a")
        assert reduced.edge_count == 3

    def test_transitive_closure(self, diamond):
        closure = diamond.transitive_closure()
        assert closure["a"] == {"b", "c", "d"}
        assert closure["d"] == set()


class TestSubgraphsAndEdits:
    def test_subgraph_induced(self, diamond):
        sub = diamond.subgraph({"a", "b", "d"})
        assert set(sub.nodes()) == {"a", "b", "d"}
        assert sub.has_edge("a", "b")
        assert sub.has_edge("b", "d")
        assert not sub.has_edge("a", "d")
        assert sub.wcet("b") == 2

    def test_subgraph_unknown_node_raises(self, diamond):
        with pytest.raises(NodeNotFoundError):
            diamond.subgraph({"a", "nope"})

    def test_relabelled(self, diamond):
        renamed = diamond.relabelled({"a": "source", "d": "sink"})
        assert "source" in renamed and "sink" in renamed
        assert renamed.has_edge("source", "b")
        assert renamed.has_edge("c", "sink")
        assert renamed.volume() == diamond.volume()

    def test_relabelled_collision_rejected(self, diamond):
        with pytest.raises(EdgeError):
            diamond.relabelled({"a": "b"})

    def test_with_unique_source_and_sink_adds_dummies(self):
        graph = DirectedAcyclicGraph.from_dict(
            {"a": 1, "b": 2, "c": 3}, [("a", "c"), ("b", "c")]
        )
        fixed = graph.with_unique_source_and_sink()
        assert len(fixed.sources()) == 1
        assert len(fixed.sinks()) == 1
        assert fixed.volume() == graph.volume()
        assert fixed.critical_path_length() == graph.critical_path_length()

    def test_with_unique_source_and_sink_noop_when_already_unique(self, diamond):
        fixed = diamond.with_unique_source_and_sink()
        assert fixed == diamond
