"""Tests for JSON / DOT (de)serialisation (:mod:`repro.io`)."""

from __future__ import annotations

import pytest

from repro.core.examples import figure1_task, figure3_task
from repro.core.exceptions import SerializationError
from repro.core.task import TaskSet
from repro.core.transformation import transform
from repro.io.dot import load_dot, save_dot, task_from_dot, task_to_dot, transformed_to_dot
from repro.io.json_io import (
    load_task,
    load_taskset,
    save_task,
    save_taskset,
    task_from_dict,
    task_from_json,
    task_to_dict,
    task_to_json,
    taskset_from_dict,
    taskset_to_dict,
)


class TestJsonTasks:
    def test_dict_round_trip(self):
        task = figure1_task(period=50, deadline=40)
        task.metadata["origin"] = "unit-test"
        rebuilt = task_from_dict(task_to_dict(task))
        assert rebuilt.graph == task.graph
        assert rebuilt.offloaded_node == task.offloaded_node
        assert rebuilt.period == 50 and rebuilt.deadline == 40
        assert rebuilt.metadata["origin"] == "unit-test"

    def test_json_string_round_trip(self):
        task = figure3_task()
        rebuilt = task_from_json(task_to_json(task))
        assert rebuilt.graph == task.graph
        assert rebuilt.name == "figure3"

    def test_file_round_trip(self, tmp_path):
        task = figure1_task()
        path = save_task(task, tmp_path / "task.json")
        assert path.exists()
        assert load_task(path).graph == task.graph

    def test_analysis_results_survive_round_trip(self):
        from repro.analysis.heterogeneous import response_time

        task = figure1_task()
        rebuilt = task_from_json(task_to_json(task))
        assert response_time(rebuilt, 2).bound == response_time(task, 2).bound

    def test_missing_nodes_key_rejected(self):
        with pytest.raises(SerializationError):
            task_from_dict({"edges": []})

    def test_invalid_json_rejected(self):
        with pytest.raises(SerializationError):
            task_from_json("this is { not json")

    def test_edge_referencing_unknown_node_rejected(self):
        with pytest.raises(SerializationError):
            task_from_dict({"nodes": {"a": 1}, "edges": [["a", "b"]]})

    def test_malformed_edge_rejected(self):
        with pytest.raises(SerializationError):
            task_from_dict({"nodes": {"a": 1}, "edges": [["a"]]})

    def test_unknown_offloaded_node_rejected(self):
        with pytest.raises(SerializationError):
            task_from_dict({"nodes": {"a": 1}, "edges": [], "offloaded_node": "x"})

    @pytest.mark.parametrize(
        "timing",
        [
            {"period": "abc"},
            {"period": [1, 2]},
            {"period": True},
            {"period": 0},
            {"period": -5},
            {"period": 1e999},
            {"period": 10, "deadline": -3},
        ],
    )
    def test_invalid_timing_rejected(self, timing):
        field = "deadline" if "deadline" in timing else "period"
        document = {"nodes": {"a": 1, "b": 2}, "edges": [["a", "b"]], **timing}
        with pytest.raises(SerializationError, match=field):
            task_from_dict(document)

    def test_invalid_wcet_rejected(self):
        with pytest.raises(SerializationError):
            task_from_dict({"nodes": {"a": "heavy"}, "edges": []})

    def test_model_violation_rejected(self):
        with pytest.raises(SerializationError):
            # D > T violates the model and is caught while building the task.
            task_from_dict({"nodes": {"a": 1}, "edges": [], "period": 5, "deadline": 9})

    # Documents refused by the shape checks, each with its message: wrong
    # shapes and types, and references to nodes the mapping does not have.
    MALFORMED = {
        "task-not-object": ([["a", 1]], "a task document must be a JSON object"),
        "nodes-string": (
            {"nodes": "abc", "edges": []},
            "task document 'nodes' must map node names to WCETs",
        ),
        "nodes-list-of-pairs": (
            {"nodes": [["a", 1]], "edges": []},
            "task document 'nodes' must map node names to WCETs",
        ),
        "nodes-null": ({"nodes": None}, "task document 'nodes' must map node names to WCETs"),
        "edges-number": (
            {"nodes": {"a": 1}, "edges": 5},
            "task document 'edges' must be a list of pairs",
        ),
        "edges-string": (
            {"nodes": {"a": 1, "b": 2}, "edges": "ab"},
            "task document 'edges' must be a list of pairs",
        ),
        "edges-object": (
            {"nodes": {"a": 1, "b": 2}, "edges": {"a": "b"}},
            "task document 'edges' must be a list of pairs",
        ),
        "edge-string": ({"nodes": {"a": 1, "b": 2}, "edges": ["ab"]}, "invalid edge entry 'ab'"),
        "edge-number": ({"nodes": {"a": 1, "b": 2}, "edges": [5]}, "invalid edge entry 5"),
        "edge-triple": (
            {"nodes": {"a": 1, "b": 2}, "edges": [["a", "b", "a"]]},
            "invalid edge entry ['a', 'b', 'a']",
        ),
        "edge-object": (
            {"nodes": {"a": 1, "b": 2}, "edges": [{"a": 1, "b": 2}]},
            "invalid edge entry {'a': 1, 'b': 2}",
        ),
        "unknown-endpoint": (
            {"nodes": {"a": 1}, "edges": [["a", "b"]]},
            "edge ['a', 'b'] references an unknown node",
        ),
        "unknown-offloaded-node": (
            {"nodes": {"a": 1}, "offloaded_node": "x"},
            "offloaded node 'x' is not part of the node mapping",
        ),
        "wcet-not-a-number": (
            {"nodes": {"a": [1]}},
            "WCET of node 'a' must be a JSON number, got array",
        ),
        # A WCET must be a JSON number: neither a boolean nor a string, not
        # even one float() would read.
        "wcet-true": ({"nodes": {"a": True}}, "WCET of node 'a' must be a JSON number, got boolean"),
        "wcet-null": ({"nodes": {"a": None}}, "WCET of node 'a' must be a JSON number, got null"),
        "wcet-numeric-string": (
            {"nodes": {"a": "3"}},
            "WCET of node 'a' must be a JSON number, got string",
        ),
        "wcet-nan-string": (
            {"nodes": {"a": "nan"}},
            "WCET of node 'a' must be a JSON number, got string",
        ),
        "wcet-inf-string": (
            {"nodes": {"a": "inf"}},
            "WCET of node 'a' must be a JSON number, got string",
        ),
        "metadata-number": (
            {"nodes": {"a": 1}, "metadata": 5},
            "task document 'metadata' must be a JSON object",
        ),
        "metadata-list": (
            {"nodes": {"a": 1}, "metadata": [["k", "v"]]},
            "task document 'metadata' must be a JSON object",
        ),
        # A name was once read with str(), so ["x"] named the task "['x']".
        "name-array": (
            {"nodes": {"a": 1}, "name": ["x"]},
            "task document 'name' must be a JSON string, got array",
        ),
        "name-number": (
            {"nodes": {"a": 1}, "name": 5},
            "task document 'name' must be a JSON string, got number",
        ),
        "name-null": (
            {"nodes": {"a": 1}, "name": None},
            "task document 'name' must be a JSON string, got null",
        ),
    }

    # Well-shaped documents whose graph or timing breaks the task model:
    # the shape checks pass them, the build refuses them.
    INVALID_TASKS = {
        "duplicate-edge": (
            {"nodes": {"a": 1, "b": 2}, "edges": [["a", "b"], ["a", "b"]]},
            "edge ('a', 'b') already exists",
        ),
        "self-loop": (
            {"nodes": {"a": 1, "b": 2}, "edges": [["a", "a"]]},
            "self loop on node 'a' is not allowed",
        ),
        "cycle": (
            {"nodes": {"a": 1, "b": 2}, "edges": [["a", "b"], ["b", "a"]]},
            "graph contains a cycle",
        ),
        "negative-wcet": ({"nodes": {"a": -1}}, "WCET of node 'a' must be finite and >= 0, got -1.0"),
        "nan-wcet": (
            {"nodes": {"a": float("nan")}},
            "WCET of node 'a' must be finite and >= 0, got nan",
        ),
        "infinite-wcet": (
            {"nodes": {"a": float("inf")}},
            "WCET of node 'a' must be finite and >= 0, got inf",
        ),
        # Past the float range: read as infinite, like the literal 1e999.
        "huge-integer-wcet": (
            {"nodes": {"a": 10**400}},
            "WCET of node 'a' must be finite and >= 0, got inf",
        ),
        "deadline-past-period": (
            {"nodes": {"a": 1}, "period": 5, "deadline": 9},
            "constrained deadline required: D=9 > T=5",
        ),
        # The checks run in order: shape, WCETs and edges, timing, cycles.
        "edge-checks-before-timing": (
            {"nodes": {"a": 1}, "edges": [["a", "a"]], "period": -1},
            "self loop on node 'a' is not allowed",
        ),
        "timing-before-cycles": (
            {"nodes": {"a": 1, "b": 2}, "edges": [["a", "b"], ["b", "a"]], "period": 0},
            "period must be a finite number in (0, inf), got 0",
        ),
    }

    # Edge lists the one-pass decode maps, or refuses naming the first bad
    # entry in document order, with the per-edge loop's message.
    EDGE_ENTRIES = {
        "dict-with-two-keys": (
            [["a", "b"], {"a": 1, "b": 2}],
            "invalid edge entry {'a': 1, 'b': 2}",
        ),
        "two-character-string": ([["a", "b"], "ab"], "invalid edge entry 'ab'"),
        "wrong-length": ([["a", "b", "a"]], "invalid edge entry ['a', 'b', 'a']"),
        "integer-endpoints": ([[1, 2], [2, "3"]], [("1", "2"), ("2", "3")]),
        "unknown-node": (
            [["b", "a"], ["a", "c"]],
            "edge ['a', 'c'] references an unknown node",
        ),
        "first-bad-entry-wins": (
            [["a", "z"], "ab"],
            "edge ['a', 'z'] references an unknown node",
        ),
    }

    @pytest.mark.parametrize("name", sorted(EDGE_ENTRIES))
    def test_edge_entries_decode_in_one_pass(self, name):
        edges, outcome = self.EDGE_ENTRIES[name]
        if name == "integer-endpoints":
            nodes = {"1": 2, "2": 3.5, "3": 0}
        else:
            nodes = {"a": 1, "b": 2}
        document = {"nodes": nodes, "edges": edges}
        if isinstance(outcome, str):
            with pytest.raises(SerializationError) as refused:
                task_from_dict(document)
            assert str(refused.value) == outcome
        else:
            graph = task_from_dict(document).graph
            assert sorted(graph.edges()) == outcome
            assert [graph.wcet(node) for node in graph.nodes()] == [2.0, 3.5, 0.0]

    @pytest.mark.parametrize("name", sorted(MALFORMED))
    def test_malformed_shape_rejected_by_the_decode(self, name):
        document, message = self.MALFORMED[name]
        with pytest.raises(SerializationError) as refused:
            task_from_dict(document)
        assert str(refused.value) == message

    @pytest.mark.parametrize("name", sorted(INVALID_TASKS))
    def test_invalid_task_rejected_by_the_build(self, name):
        document, message = self.INVALID_TASKS[name]
        with pytest.raises(SerializationError) as refused:
            task_from_dict(document)
        assert str(refused.value) == f"cannot build task from document: {message}"

    @pytest.mark.parametrize(
        "wcet, kind", [("true", "boolean"), ('"3"', "string"), ("[1]", "array"), ("null", "null")]
    )
    def test_wcet_that_is_not_a_json_number_is_refused(self, tmp_path, wcet, kind):
        path = tmp_path / "task.json"
        path.write_text('{"nodes": {"a": 1, "b": %s}, "edges": [["a", "b"]]}' % wcet)
        message = f"WCET of node 'b' must be a JSON number, got {kind}"
        with pytest.raises(SerializationError, match=message):
            load_task(path)

    def test_graph_is_born_as_its_kernel(self):
        task = task_from_dict(task_to_dict(figure1_task(period=50, deadline=40)))
        assert task.graph._structure.kernel is not None
        assert task.graph._structure.rows is None

    def test_decode_converts_endpoints_and_defaults_the_deadline(self):
        task = task_from_dict(
            {"nodes": {"1": 2, "2": 3.5}, "edges": [[1, 2]], "period": 9, "name": "t"}
        )
        assert list(task.graph.nodes()) == ["1", "2"]
        assert [task.graph.wcet(node) for node in task.graph.nodes()] == [2.0, 3.5]
        assert list(task.graph.edges()) == [("1", "2")]
        assert (task.period, task.deadline, task.name) == (9, 9, "t")


class TestJsonTaskSets:
    def test_taskset_round_trip(self, tmp_path):
        tasks = TaskSet(
            [figure1_task(period=100), figure3_task(period=200)], name="system"
        )
        rebuilt = taskset_from_dict(taskset_to_dict(tasks))
        assert rebuilt.name == "system"
        assert len(rebuilt) == 2
        assert rebuilt[0].graph == tasks[0].graph
        path = save_taskset(tasks, tmp_path / "set.json")
        assert len(load_taskset(path)) == 2

    @pytest.mark.parametrize(
        "name, kind",
        [(["x"], "array"), (3, "number"), (None, "null"), (True, "boolean"), ({}, "object")],
    )
    def test_taskset_name_that_is_not_a_json_string_is_refused(self, name, kind):
        document = taskset_to_dict(TaskSet([figure1_task(period=100)], name="system"))
        document["name"] = name
        message = f"task set document 'name' must be a JSON string, got {kind}"
        with pytest.raises(SerializationError) as refused:
            taskset_from_dict(document)
        assert str(refused.value) == message

    def test_taskset_without_a_name_is_named_taskset(self):
        document = taskset_to_dict(TaskSet([figure1_task(period=100)], name="system"))
        del document["name"]
        assert taskset_from_dict(document).name == "taskset"

    def test_invalid_taskset_file(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("[not json")
        with pytest.raises(SerializationError):
            load_taskset(path)


class TestDot:
    def test_export_contains_nodes_edges_and_offload_marker(self):
        text = task_to_dot(figure1_task())
        assert text.startswith("digraph")
        assert '"v_off"' in text
        assert "fillcolor=lightgrey" in text
        assert '"v1" -> "v2"' in text

    def test_round_trip_preserves_structure(self):
        task = figure1_task()
        rebuilt = task_from_dot(task_to_dot(task))
        assert rebuilt.graph == task.graph
        assert rebuilt.offloaded_node == "v_off"

    def test_file_round_trip(self, tmp_path):
        task = figure3_task()
        path = save_dot(task, tmp_path / "task.dot")
        rebuilt = load_dot(path)
        assert rebuilt.graph == task.graph

    def test_transformed_export_highlights_sync_and_gpar(self, tmp_path):
        transformed = transform(figure1_task())
        text = transformed_to_dot(transformed)
        assert "indianred" in text  # the sync node
        assert "penwidth=2" in text  # G_par members
        assert "darkgreen" in text  # edges added by the transformation
        path = save_dot(transformed, tmp_path / "prime.dot")
        assert path.read_text().startswith("digraph")

    def test_hand_written_dot_with_wcet_attributes(self):
        document = """
        digraph demo {
          a [wcet=2];
          b [label="b (5)"];
          off [wcet=3, offloaded=true];
          a -> b;
          a -> off;
        }
        """
        task = task_from_dot(document)
        assert task.graph.wcet("a") == 2
        assert task.graph.wcet("b") == 5
        assert task.offloaded_node == "off"

    def test_unparseable_line_rejected(self):
        with pytest.raises(SerializationError):
            task_from_dot("digraph x {\n  ???\n}")

    def test_empty_document_rejected(self):
        with pytest.raises(SerializationError):
            task_from_dot("digraph empty {\n}")
