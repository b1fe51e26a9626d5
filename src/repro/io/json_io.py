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

:func:`task_from_dict` runs two steps.  :func:`decode_task` checks the
document's shape and converts its values into a :class:`TaskDocument`
without building a graph (a WCET must be a JSON number, never a boolean or
a string); :func:`build_task` builds the graph and the task, with the
checks that need the graph.  The build goes through
:meth:`~repro.core.graph.DirectedAcyclicGraph.from_dict`, so the graph is
born as its dense kernel and its acyclicity check costs nothing more.  The
evaluation service fingerprints the decoded document and builds the task
only when the result cache has no answer for it.

:func:`read_fields` reads a JSON object through a table of its fields: the
service's request documents and the arrival specs are read that way.
"""

from __future__ import annotations

import json
import math
import sys
from collections.abc import Mapping
from dataclasses import dataclass, field
from numbers import Real
from pathlib import Path
from typing import Optional, Union

from ..core.exceptions import SerializationError, ValidationError, short_repr
from ..core.task import DagTask, TaskSet

__all__ = [
    "REQUIRED",
    "read_fields",
    "TaskDocument",
    "decode_task",
    "build_task",
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


@dataclass(frozen=True)
class TaskDocument:
    """A task document decoded to plain values, before any graph is built.

    :func:`decode_task` produces it with every shape check and conversion
    of the on-disk format applied; :func:`build_task` turns it into a
    :class:`~repro.core.task.DagTask`.  Node ``i`` is ``names[i]`` with WCET
    ``wcets[i]`` (document order), and ``edges`` are ``(src, dst)`` index
    pairs into ``names``.  ``deadline`` already defaults to ``period``, as
    in the built task.  The checks that need the graph -- duplicate edges,
    self loops, cycles, WCETs outside ``[0, inf)``, ``deadline > period``
    -- are left to the build.
    """

    names: list[str]
    wcets: list[float]
    edges: list[tuple[int, int]]
    offloaded_node: Optional[str] = None
    period: Optional[float] = None
    deadline: Optional[float] = None
    name: str = "tau"
    metadata: dict = field(default_factory=dict)

    @property
    def node_count(self) -> int:
        """Number of nodes (as :attr:`DagTask.node_count` of the build)."""
        return len(self.names)


#: The types :func:`json.loads` gives a JSON number.
_NUMBER_TYPES = frozenset((int, float))
#: The types an edge entry may have (:func:`json.loads` gives lists).
_PAIR_TYPES = frozenset((list, tuple))
_FLOAT_MAX = sys.float_info.max

#: JSON names of the types :func:`json.loads` gives that are not numbers.
_JSON_TYPES = {bool: "boolean", str: "string", list: "array", dict: "object", type(None): "null"}


def _json_type(value: object) -> str:
    """The JSON name of ``value``'s type (the Python name for other values)."""
    return _JSON_TYPES.get(type(value), type(value).__name__)


def _refuse_edges(raw_edges: Union[list, tuple], index: Mapping[str, int]) -> None:
    """Raise for the first entry of ``raw_edges`` that is not a ``[src, dst]``
    pair of known node names."""
    for edge in raw_edges:
        if type(edge) not in _PAIR_TYPES or len(edge) != 2:
            raise SerializationError(f"invalid edge entry {short_repr(edge)}")
        src, dst = edge
        if str(src) not in index or str(dst) not in index:
            raise SerializationError(f"edge {short_repr(edge)} references an unknown node")


def decode_task(data: Mapping) -> TaskDocument:
    """Check the shape of a task document and convert its values.

    A WCET must be a JSON number (a boolean is not one); whether it is
    finite and ``>= 0`` is checked by the build.

    Raises
    ------
    SerializationError
        If the document is not an object, mandatory keys are missing, a
        value has the wrong shape or type, or an edge or the offloaded node
        names an unknown node.
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
    period = data.get("period")
    deadline = data.get("deadline")
    return TaskDocument(
        names=list(wcet_of),
        wcets=list(wcet_of.values()),
        edges=edges,
        offloaded_node=offloaded,
        period=period,
        deadline=period if deadline is None else deadline,
        name=str(data.get("name", "tau")),
        metadata=dict(metadata),
    )


def build_task(document: TaskDocument) -> DagTask:
    """Build the task of a decoded document, graph checks included.

    Raises
    ------
    SerializationError
        If the graph or the timing parameters violate the task model
        (duplicate edge, self loop, cycle, invalid WCET, ``D > T``).
    """
    names = document.names
    try:
        task = DagTask.from_wcets(
            dict(zip(names, document.wcets)),
            [(names[src], names[dst]) for src, dst in document.edges],
            offloaded_node=document.offloaded_node,
            period=document.period,
            deadline=document.deadline,
            name=document.name,
        )
        task.graph.check_acyclic()
    except Exception as error:  # noqa: BLE001 - wrap as serialisation problem
        raise SerializationError(f"cannot build task from document: {error}") from error
    task.metadata.update(document.metadata)
    return task


def task_from_dict(data: Union[dict, TaskDocument]) -> DagTask:
    """Inverse of :func:`task_to_dict`: :func:`decode_task`, then :func:`build_task`.

    ``data`` may also be a :class:`TaskDocument` that was decoded already.

    Raises
    ------
    SerializationError
        If the document is malformed (see :func:`decode_task`) or describes
        no valid task (see :func:`build_task`).
    """
    if not isinstance(data, TaskDocument):
        data = decode_task(data)
    return build_task(data)


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
    tasks = [task_from_dict(entry) for entry in data.get("tasks", [])]
    return TaskSet(tasks=tasks, name=str(data.get("name", "taskset")))


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
