"""Tests for JSON / DOT (de)serialisation (:mod:`repro.io`)."""

from __future__ import annotations

import pytest

from repro.core.examples import figure1_task, figure3_task
from repro.core.exceptions import SerializationError
from repro.core.task import TaskSet
from repro.core.transformation import transform
from repro.io.dot import load_dot, save_dot, task_from_dot, task_to_dot, transformed_to_dot
from repro.io.json_io import (
    TaskDocument,
    build_task,
    decode_task,
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

    def test_invalid_wcet_rejected(self):
        with pytest.raises(SerializationError):
            task_from_dict({"nodes": {"a": "heavy"}, "edges": []})

    def test_model_violation_rejected(self):
        with pytest.raises(SerializationError):
            # D > T violates the model and is caught while building the task.
            task_from_dict({"nodes": {"a": 1}, "edges": [], "period": 5, "deadline": 9})

    # Documents the decode step itself refuses: wrong shapes and types,
    # and references to nodes the mapping does not have.
    MALFORMED = {
        "task-not-object": [["a", 1]],
        "nodes-string": {"nodes": "abc", "edges": []},
        "nodes-list-of-pairs": {"nodes": [["a", 1]], "edges": []},
        "nodes-null": {"nodes": None},
        "edges-number": {"nodes": {"a": 1}, "edges": 5},
        "edges-string": {"nodes": {"a": 1, "b": 2}, "edges": "ab"},
        "edges-object": {"nodes": {"a": 1, "b": 2}, "edges": {"a": "b"}},
        "edge-string": {"nodes": {"a": 1, "b": 2}, "edges": ["ab"]},
        "edge-number": {"nodes": {"a": 1, "b": 2}, "edges": [5]},
        "edge-triple": {"nodes": {"a": 1, "b": 2}, "edges": [["a", "b", "a"]]},
        "edge-object": {"nodes": {"a": 1, "b": 2}, "edges": [{"a": 1, "b": 2}]},
        "unknown-endpoint": {"nodes": {"a": 1}, "edges": [["a", "b"]]},
        "unknown-offloaded-node": {"nodes": {"a": 1}, "offloaded_node": "x"},
        "wcet-not-a-number": {"nodes": {"a": [1]}},
        "metadata-number": {"nodes": {"a": 1}, "metadata": 5},
        "metadata-list": {"nodes": {"a": 1}, "metadata": [["k", "v"]]},
    }

    # Well-shaped documents whose graph or timing breaks the task model:
    # the decode step passes them, the build refuses them.
    INVALID_TASKS = {
        "duplicate-edge": {"nodes": {"a": 1, "b": 2}, "edges": [["a", "b"], ["a", "b"]]},
        "self-loop": {"nodes": {"a": 1, "b": 2}, "edges": [["a", "a"]]},
        "cycle": {"nodes": {"a": 1, "b": 2}, "edges": [["a", "b"], ["b", "a"]]},
        "negative-wcet": {"nodes": {"a": -1}},
        "nan-wcet": {"nodes": {"a": "nan"}},
        "infinite-wcet": {"nodes": {"a": "inf"}},
        "deadline-past-period": {"nodes": {"a": 1}, "period": 5, "deadline": 9},
    }

    @pytest.mark.parametrize("name", sorted(MALFORMED))
    def test_malformed_shape_rejected_by_the_decode(self, name):
        with pytest.raises(SerializationError):
            decode_task(self.MALFORMED[name])
        with pytest.raises(SerializationError):
            task_from_dict(self.MALFORMED[name])

    @pytest.mark.parametrize("name", sorted(INVALID_TASKS))
    def test_invalid_task_rejected_by_the_build(self, name):
        document = decode_task(self.INVALID_TASKS[name])
        with pytest.raises(SerializationError):
            build_task(document)
        with pytest.raises(SerializationError):
            task_from_dict(self.INVALID_TASKS[name])

    def test_decode_then_build_equals_task_from_dict(self):
        task = figure1_task(period=50, deadline=40)
        task.metadata["origin"] = "unit-test"
        document = task_to_dict(task)
        decoded = decode_task(document)
        assert isinstance(decoded, TaskDocument)
        assert decoded.node_count == task.node_count
        for rebuilt in (build_task(decoded), task_from_dict(decoded)):
            assert rebuilt.graph == task.graph
            assert rebuilt.offloaded_node == task.offloaded_node
            assert (rebuilt.period, rebuilt.deadline) == (50, 40)
            assert rebuilt.metadata == {"origin": "unit-test"}

    def test_decode_converts_endpoints_and_defaults_the_deadline(self):
        decoded = decode_task(
            {"nodes": {"1": 2, "2": 3.5}, "edges": [[1, 2]], "period": 9}
        )
        assert decoded.names == ["1", "2"]
        assert decoded.wcets == [2.0, 3.5]
        assert decoded.edges == [(0, 1)]
        assert (decoded.period, decoded.deadline) == (9, 9)


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
