"""JSON (de)serialisation of heterogeneous DAG tasks and task sets.

The on-disk format is deliberately simple and explicit so that tasks can be
authored by hand, produced by external tools (e.g. a compiler pass extracting
an OpenMP task graph, as reference [22] of the paper does), or exchanged
between runs of the experiment harness::

    {
      "name": "tau",
      "period": 100,
      "deadline": 80,
      "offloaded_node": "v_off",
      "nodes": {"v1": 1, "v2": 4, "v_off": 4},
      "edges": [["v1", "v2"], ["v2", "v_off"]]
    }

Task sets are stored as ``{"name": ..., "tasks": [<task>, ...]}``.

:func:`task_from_dict` checks the document's shape (a WCET must be a JSON
number, never a boolean or a string), then builds the graph straight from
the edges' index pairs, so it is born as its dense kernel and its
acyclicity check costs nothing more.  It is the one decode of a task: the
evaluation service's HTTP transport builds each request's task with it
before the service sees the request.

:func:`read_fields` reads a JSON object through a table of its fields: the
service's request documents and the arrival specs are read that way.
"""

from __future__ import annotations

import json
import math
import sys
from collections.abc import Mapping
from numbers import Real
from pathlib import Path
from typing import Union

from ..core.exceptions import SerializationError, ValidationError, short_repr
from ..core.graph import DirectedAcyclicGraph
from ..core.task import DagTask, TaskSet

__all__ = [
    "REQUIRED",
    "read_fields",
    "task_to_dict",
    "task_from_dict",
    "task_to_json",
    "task_from_json",
    "save_task",
    "load_task",
    "taskset_to_dict",
    "taskset_from_dict",
    "save_taskset",
    "load_taskset",
]


#: The default of a field a document must carry (see :func:`read_fields`).
REQUIRED = object()


def read_fields(table: Mapping[str, object], document: object, where: str) -> dict:
    """The fields of ``document`` read through ``table``: each field the
    table names (mapped to its default, or :data:`REQUIRED`), absent ones
    at their default.

    Raises
    ------
    ValidationError
        Naming ``where`` and the field, for a document that is not a JSON
        object, a field the table does not name, or a missing required one.
    """
    if not isinstance(document, dict):
        raise ValidationError(f"{where} must be a JSON object")
    for name in document:
        if name not in table:
            fields = ", ".join(table)
            raise ValidationError(
                f"unknown field {short_repr(name)} in {where}; its fields are {fields}"
            )
    values = {name: document.get(name, default) for name, default in table.items()}
    for name, value in values.items():
        if value is REQUIRED:
            raise ValidationError(f"{where} is missing the {name!r} field")
    return values


def task_to_dict(task: DagTask) -> dict:
    """Convert a task to a JSON-serialisable dictionary."""
    return {
        "name": task.name,
        "period": task.period,
        "deadline": task.deadline,
        "offloaded_node": task.offloaded_node,
        "nodes": {str(node): task.graph.wcet(node) for node in task.graph.nodes()},
        "edges": [[str(src), str(dst)] for src, dst in task.graph.edges()],
        "metadata": dict(task.metadata),
    }


#: The types :func:`json.loads` gives a JSON number.
_NUMBER_TYPES = frozenset((int, float))
#: The types an edge entry may have (:func:`json.loads` gives lists).
_PAIR_TYPES = frozenset((list, tuple))
_FLOAT_MAX = sys.float_info.max

#: JSON names of the types :func:`json.loads` gives.
_JSON_TYPES = {
    bool: "boolean",
    int: "number",
    float: "number",
    str: "string",
    list: "array",
    dict: "object",
    type(None): "null",
}


def _json_type(value: object) -> str:
    """The JSON name of ``value``'s type (the Python name for other values)."""
    return _JSON_TYPES.get(type(value), type(value).__name__)


def _document_name(data: Mapping, kind: str, default: str) -> str:
    """The ``name`` of a ``kind`` document, ``default`` when it has none."""
    name = data.get("name", default)
    if not isinstance(name, str):
        raise SerializationError(
            f"{kind} document 'name' must be a JSON string, got {_json_type(name)}"
        )
    return name


def _refuse_edges(raw_edges: Union[list, tuple], index: Mapping[str, int]) -> None:
    """Raise for the first entry of ``raw_edges`` that is not a ``[src, dst]``
    pair of known node names."""
    for edge in raw_edges:
        if type(edge) not in _PAIR_TYPES or len(edge) != 2:
            raise SerializationError(f"invalid edge entry {short_repr(edge)}")
        src, dst = edge
        if str(src) not in index or str(dst) not in index:
            raise SerializationError(f"edge {short_repr(edge)} references an unknown node")


def task_from_dict(data: Mapping) -> DagTask:
    """Inverse of :func:`task_to_dict`.

    The document's shape is checked first: a WCET must be a JSON number (a
    boolean is not one), and ``name`` a JSON string.  The graph is then
    built from the edges' index pairs, with the checks of
    :meth:`~repro.core.graph.DirectedAcyclicGraph._from_indices` (WCETs in
    ``[0, inf)``, no self loop or duplicate edge), then the task's timing
    checks, then acyclicity.

    Raises
    ------
    SerializationError
        If the document is not an object, mandatory keys are missing, a
        value has the wrong shape or type, an edge or the offloaded node
        names an unknown node, or the graph or the timing parameters
        violate the task model (duplicate edge, self loop, cycle, invalid
        WCET, ``D > T``).
    """
    if not isinstance(data, Mapping):
        raise SerializationError("a task document must be a JSON object")
    if "nodes" not in data:
        raise SerializationError("task document is missing the 'nodes' mapping")
    nodes = data["nodes"]
    if not isinstance(nodes, Mapping):
        raise SerializationError("task document 'nodes' must map node names to WCETs")
    # JSON numbers decode to int and float; any other type of WCET takes
    # the per-node check, which names the first that is not a number.
    if not _NUMBER_TYPES.issuperset(map(type, nodes.values())):
        for node, wcet in nodes.items():
            if isinstance(wcet, bool) or not isinstance(wcet, Real):
                raise SerializationError(
                    f"WCET of node {short_repr(str(node))} must be a JSON number, "
                    f"got {_json_type(wcet)}"
                )
    try:
        wcet_of = {str(node): float(wcet) for node, wcet in nodes.items()}
    except OverflowError:
        # An integer past the float range reads as infinite, as a literal
        # like 1e999 does; the build refuses both.
        wcet_of = {
            str(node): (
                float(wcet) if abs(wcet) <= _FLOAT_MAX else math.inf if wcet > 0 else -math.inf
            )
            for node, wcet in nodes.items()
        }
    index = {name: position for position, name in enumerate(wcet_of)}
    raw_edges = data.get("edges", [])
    if not isinstance(raw_edges, (list, tuple)):
        raise SerializationError("task document 'edges' must be a list of pairs")
    # Every entry a list or tuple, then one pass; a pass that fails takes
    # the per-edge check, which names the first bad entry.
    try:
        if not _PAIR_TYPES.issuperset(map(type, raw_edges)):
            raise TypeError
        edges = [(index[str(src)], index[str(dst)]) for src, dst in raw_edges]
    except (TypeError, ValueError, KeyError):
        _refuse_edges(raw_edges, index)
    offloaded = data.get("offloaded_node")
    if offloaded is not None:
        offloaded = str(offloaded)
        if offloaded not in index:
            raise SerializationError(
                f"offloaded node {offloaded!r} is not part of the node mapping"
            )
    metadata = data.get("metadata", {})
    if not isinstance(metadata, Mapping):
        raise SerializationError("task document 'metadata' must be a JSON object")
    name = _document_name(data, "task", "tau")
    try:
        task = DagTask(
            DirectedAcyclicGraph._from_indices(list(wcet_of), list(wcet_of.values()), edges),
            offloaded_node=offloaded,
            period=data.get("period"),
            deadline=data.get("deadline"),
            name=name,
        )
        task.graph.check_acyclic()
    except Exception as error:  # noqa: BLE001 - wrap as serialisation problem
        raise SerializationError(f"cannot build task from document: {error}") from error
    task.metadata.update(metadata)
    return task


def task_to_json(task: DagTask, indent: int = 2) -> str:
    """Serialise a task to a JSON string."""
    return json.dumps(task_to_dict(task), indent=indent)


def task_from_json(document: str) -> DagTask:
    """Parse a task from a JSON string."""
    try:
        data = json.loads(document)
    except json.JSONDecodeError as error:
        raise SerializationError(f"invalid JSON: {error}") from error
    return task_from_dict(data)


def save_task(task: DagTask, path: Union[str, Path]) -> Path:
    """Write a task to a JSON file and return the path."""
    destination = Path(path)
    destination.write_text(task_to_json(task) + "\n", encoding="utf-8")
    return destination


def load_task(path: Union[str, Path]) -> DagTask:
    """Read a task from a JSON file."""
    return task_from_json(Path(path).read_text(encoding="utf-8"))


def taskset_to_dict(tasks: TaskSet) -> dict:
    """Convert a task set to a JSON-serialisable dictionary."""
    return {"name": tasks.name, "tasks": [task_to_dict(task) for task in tasks]}


def taskset_from_dict(data: dict) -> TaskSet:
    """Inverse of :func:`taskset_to_dict`."""
    name = _document_name(data, "task set", "taskset")
    tasks = [task_from_dict(entry) for entry in data.get("tasks", [])]
    return TaskSet(tasks=tasks, name=name)


def save_taskset(tasks: TaskSet, path: Union[str, Path]) -> Path:
    """Write a task set to a JSON file and return the path."""
    destination = Path(path)
    destination.write_text(
        json.dumps(taskset_to_dict(tasks), indent=2) + "\n", encoding="utf-8"
    )
    return destination


def load_taskset(path: Union[str, Path]) -> TaskSet:
    """Read a task set from a JSON file."""
    try:
        data = json.loads(Path(path).read_text(encoding="utf-8"))
    except json.JSONDecodeError as error:
        raise SerializationError(f"invalid JSON: {error}") from error
    return taskset_from_dict(data)
