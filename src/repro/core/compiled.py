"""Public, picklable dense-index view of a weighted DAG task.

A paired ``C_off`` sweep simulates many re-weighted copies of few DAG
structures, so the compiled form is split along that line.  The *structure*
is the graph's dense kernel (``_DenseKernel`` of :mod:`repro.core.graph`):
node identifiers interned into dense indices, CSR adjacency, topological
order and in-degrees, built once per shape and shared by every copy,
re-weighting and transform of that shape.  :class:`CompiledTask` is that
structure plus the task's WCET vector, which is all a compile of an
already-compiled shape builds.

The simulation stack reads the view: the dense engine
(:mod:`repro.simulation.dense`) runs on integer indices and preallocated
lists, for one job or a stream of released jobs, and :func:`stack_compiled`
lays many views out for the C kernel's lanes with each distinct structure
and WCET vector once, from which :meth:`StackedViews.global_space` derives
the one global node space of the job-stream reference engine.  The view
exposes

* ``nodes`` / ``index`` -- the dense index <-> :data:`NodeId` maps (indices
  are insertion ranks, so index order *is* node-creation order);
* ``succ_ptr``/``succ_idx`` and ``pred_ptr``/``pred_idx`` -- CSR successor
  and predecessor lists (neighbour indices ascending, i.e. creation order);
* ``topo`` -- the topological order, and ``in_degree`` -- the initial
  in-degree of every node;
* ``succ_ptr_array``, ``succ_idx_array`` and ``in_degree_array`` -- the same
  data as ``int64`` arrays, built on first use once per structure;
* ``succ_rows`` -- each node's successor list, built on first use once per
  structure for the dense engine, so that every job of a shape shares them;
* ``wcet`` -- the WCET vector as a ``numpy.float64`` array, filled in one
  pass over the graph's weight map (which lists the nodes in the
  structure's order);
* ``wcet_list`` -- the same vector as plain Python floats, built on first
  read and then kept.  Its readers are the pure-Python loops: the dense
  engine, the static keys of critical-path-first
  (:meth:`~repro.simulation.schedulers.CriticalPathFirstPolicy.vector_keys`)
  and :meth:`CompiledTask.fingerprint`.  The C kernel reads ``wcet`` only,
  so a Figure 6 pass builds no list.

All but the WCETs are references to the shared structure.  Compilation is
cached on the owning graph's ``(structure, weights)`` generation stamp:
re-compiling an unmutated task is a dictionary lookup.

The view is immutable by convention -- mutate neither the lists nor the
arrays -- and picklable: it pickles as ``(structure, wcet, generation)``,
and views of one shape pickled together load back sharing one structure.
"""

from __future__ import annotations

import hashlib
import json
import struct
from collections.abc import Iterable, Sequence
from operator import attrgetter
from typing import TYPE_CHECKING, NamedTuple, Optional, Union

import numpy as np

from .graph import DirectedAcyclicGraph, _DenseKernel

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for type checkers
    from .task import DagTask

__all__ = [
    "CompiledTask",
    "StackedViews",
    "compile_graph",
    "compile_task",
    "concat_distinct",
    "graph_digest",
    "stack_compiled",
]


def _int64_arrays(structure: _DenseKernel) -> tuple[np.ndarray, ...]:
    """``(succ_ptr, succ_idx, in_degree)`` of ``structure`` as ``int64``
    arrays, built once and cached on the structure."""
    arrays = structure.arrays
    if arrays is None:
        arrays = structure.arrays = tuple(
            np.asarray(values, dtype=np.int64)
            for values in (structure.succ_ptr, structure.succ_idx, structure.in_degree)
        )
    return arrays


def _succ_rows(structure: _DenseKernel) -> list[list[int]]:
    """Each node's successors of ``structure``, built once and cached on
    the structure."""
    rows = structure.succ_rows
    if rows is None:
        ptr, idx = structure.succ_ptr, structure.succ_idx
        rows = structure.succ_rows = [
            idx[ptr[i] : ptr[i + 1]] for i in range(len(structure.nodes))
        ]
    return rows


def _shared(name: str) -> property:
    return property(attrgetter(f"structure.{name}"), doc=f"``structure.{name}``.")


def _shared_array(position: int, name: str) -> property:
    return property(
        lambda view: _int64_arrays(view.structure)[position],
        doc=f"``{name}`` as an ``int64`` array, shared by the structure.",
    )


class CompiledTask:
    """A shared dense structure plus one WCET vector (see module docstring)."""

    __slots__ = ("structure", "wcet", "generation", "_wcet_list", "_fingerprint")

    nodes = _shared("nodes")
    index = _shared("index")
    succ_ptr = _shared("succ_ptr")
    succ_idx = _shared("succ_idx")
    pred_ptr = _shared("pred_ptr")
    pred_idx = _shared("pred_idx")
    topo = _shared("topo")
    in_degree = _shared("in_degree")
    successors_of = _shared("successors_of")
    predecessors_of = _shared("predecessors_of")
    succ_ptr_array = _shared_array(0, "succ_ptr")
    succ_idx_array = _shared_array(1, "succ_idx")
    in_degree_array = _shared_array(2, "in_degree")
    succ_rows = property(
        lambda view: _succ_rows(view.structure),
        doc="Each node's successor list, shared by the structure.",
    )

    def __init__(
        self,
        structure: _DenseKernel,
        wcet: np.ndarray,
        generation: tuple[int, int],
    ) -> None:
        self.structure = structure
        self.wcet = wcet
        self.generation = generation
        self._wcet_list: list[float] | None = None
        self._fingerprint: str | None = None

    @property
    def wcet_list(self) -> list[float]:
        """``wcet`` as plain Python floats, built on first read."""
        if self._wcet_list is None:
            self._wcet_list = self.wcet.tolist()
        return self._wcet_list

    @property
    def node_count(self) -> int:
        """Number of nodes of the compiled view."""
        return len(self.wcet)

    def __len__(self) -> int:
        return len(self.wcet)

    # ------------------------------------------------------------------
    # Content fingerprint
    # ------------------------------------------------------------------
    def fingerprint(self) -> str:
        """Stable content hash of the weighted graph (structure + WCETs).

        :func:`graph_digest` of the stringified node identifiers, the WCETs
        and the successor arrays: it depends only on the graph's content
        (two structurally identical DAGs built in different node-insertion
        orders hash equal) and survives pickling, unlike the generation
        stamp.  The serving layer (:mod:`repro.service.fingerprint`) keys
        its memoised results on this value, which is why it lives on the
        compiled view: the stamp-cached compile and the result-cache key
        agree, so an unmutated task hashes exactly once.

        Node identifiers are stringified the same way as the JSON codec
        (:func:`repro.io.json_io.task_to_dict`); identifiers whose ``str``
        forms collide are not told apart by name, matching the on-disk
        format's own behaviour.
        """
        if self._fingerprint is None:
            succ_ptr, succ_idx = self.succ_ptr, self.succ_idx
            self._fingerprint = graph_digest(
                [str(node) for node in self.nodes],
                self.wcet_list,
                (
                    (src, dst)
                    for src in range(len(self.wcet))
                    for dst in succ_idx[succ_ptr[src] : succ_ptr[src + 1]]
                ),
            )
        return self._fingerprint

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return (
            f"CompiledTask(nodes={len(self.nodes)}, "
            f"edges={len(self.succ_idx)}, generation={self.generation})"
        )

    def __reduce__(self) -> tuple:
        # Pickle memoises the structure, so views of one shape pickled
        # together load back sharing it.
        return (CompiledTask, (self.structure, self.wcet, self.generation))


def concat_distinct(
    arrays: Sequence[Optional[np.ndarray]], dtype: type
) -> tuple[np.ndarray, list[int]]:
    """``arrays`` one after the other as one ``dtype`` table, each distinct
    object once, and the offset of each item's entries in the table.

    Items are told apart by identity, so an array shared by many items is
    stored once; a ``None`` item stores nothing and gets offset 0.
    """
    seen: dict[int, int] = {}
    parts: list[np.ndarray] = []
    offsets: list[int] = []
    size = 0
    for array in arrays:
        if array is None:
            offsets.append(0)
            continue
        offset = seen.get(id(array))
        if offset is None:
            offset = seen[id(array)] = size
            parts.append(array)
            size += len(array)
        offsets.append(offset)
    table = np.concatenate(parts) if parts else np.empty(0)
    return table.astype(dtype, copy=False), offsets


class StackedViews(NamedTuple):
    """Compiled views laid out with each distinct object once.

    Structure ``s`` owns the table rows ``node_off[s]:node_off[s + 1]``;
    ``succ_ptr`` gives each row's first edge in ``succ_idx``, whose entries
    are structure-local node indices.  View ``k`` is structure
    ``structure[k]`` weighted by ``wcet[wcet_off[k]:]`` (two lists).
    """

    node_off: np.ndarray
    succ_ptr: np.ndarray
    succ_idx: np.ndarray
    in_degree: np.ndarray
    wcet: np.ndarray
    structure: list[int]
    wcet_off: list[int]

    def global_space(self) -> tuple[np.ndarray, ...]:
        """The views one after the other in one global node space.

        Returns ``(node_off, wcet, succ_ptr, succ_idx, in_degree)``: view
        ``k`` owns the global nodes ``node_off[k]:node_off[k + 1]``, and the
        successor CSR is rebased onto global node and edge indices.  The
        job-stream reference engine (:mod:`repro.simulation.workload`)
        reads this layout.  The arrays are fresh, so callers may keep or
        modify them.
        """
        rows = self.node_off.tolist()
        first_edge = self.succ_ptr[self.node_off].tolist()
        tables = [
            (
                self.succ_ptr[start : end + 1] - first_edge[s],
                self.succ_idx[first_edge[s] : first_edge[s + 1]],
                self.in_degree[start:end],
            )
            for s, (start, end) in enumerate(zip(rows, rows[1:]))
        ]
        views = [tables[s] for s in self.structure]
        node_off, succ_ptr, succ_idx, in_degree = _stack(views)
        succ_idx += np.repeat(node_off[:-1], [len(idx) for _, idx, _ in views])
        wcet = np.concatenate(
            [np.empty(0)]
            + [
                self.wcet[offset : offset + len(degree)]
                for offset, (_, _, degree) in zip(self.wcet_off, views)
            ]
        )
        return node_off, wcet, succ_ptr, succ_idx, in_degree


def _stack(tables: Sequence[tuple[np.ndarray, ...]]) -> tuple[np.ndarray, ...]:
    """``(node_off, succ_ptr, succ_idx, in_degree)`` of ``(succ_ptr,
    succ_idx, in_degree)`` CSR tables laid one after the other: table ``k``
    owns the rows ``node_off[k]:node_off[k + 1]`` and ``succ_ptr`` points
    into the stacked ``succ_idx``, whose entries stay as given."""
    nodes = np.array([len(degree) for _, _, degree in tables], dtype=np.int64)
    edges = np.array([len(idx) for _, idx, _ in tables], dtype=np.int64)
    node_off = np.zeros(len(tables) + 1, dtype=np.int64)
    edge_off = np.zeros(len(tables) + 1, dtype=np.int64)
    np.cumsum(nodes, out=node_off[1:])
    np.cumsum(edges, out=edge_off[1:])
    empty = np.empty(0, dtype=np.int64)
    succ_ptr = np.concatenate([ptr[:-1] for ptr, _, _ in tables] + [edge_off[-1:]])
    succ_ptr[:-1] += np.repeat(edge_off[:-1], nodes)
    succ_idx = np.concatenate([empty] + [idx for _, idx, _ in tables])
    in_degree = np.concatenate([empty] + [degree for _, _, degree in tables])
    return node_off, succ_ptr, succ_idx, in_degree


def stack_compiled(views: Sequence[CompiledTask]) -> StackedViews:
    """Lay ``views`` out with each distinct structure and WCET vector once.

    A structure shared by many views (copies, re-weightings and the lanes
    of one task on many platforms) contributes its cached ``int64`` CSR and
    in-degrees once, and a view repeated in ``views`` its WCET vector once.
    The C kernel's lanes (:mod:`repro.simulation.vectorized_compiled`) read
    this form; :meth:`StackedViews.global_space` derives the global node
    space of the job-stream reference engine from it.  The arrays are
    fresh, so callers may keep or modify them.
    """
    index: dict[int, int] = {}
    tables: list[tuple[np.ndarray, ...]] = []
    structure = []
    for view in views:
        position = index.get(id(view.structure))
        if position is None:
            position = index[id(view.structure)] = len(tables)
            tables.append(_int64_arrays(view.structure))
        structure.append(position)
    wcet, wcet_off = concat_distinct([view.wcet for view in views], np.float64)
    return StackedViews(*_stack(tables), wcet, structure, wcet_off)


def graph_digest(
    names: Sequence[str],
    wcets: Sequence[float],
    edges: Iterable[tuple[int, int]],
) -> str:
    """SHA-256 hex digest of a weighted graph's content.

    Node ``i`` is called ``names[i]`` and weighs ``wcets[i]``; ``edges`` are
    ``(src, dst)`` index pairs.  The digest does not depend on the order of
    the nodes or of the edges: nodes are ranked by name, and the message is
    the node and edge counts, the sorted names (as JSON), the WCETs in name
    order (little-endian IEEE 754 doubles) and the sorted ``(src, dst)``
    rank pairs (``src * n + dst`` as 64-bit integers).  Every part has a
    known length, so the message -- and, up to SHA-256 collisions, the
    digest -- determines the graph.  An edge listed twice is hashed twice.
    """
    count = len(names)
    order = sorted(range(count), key=names.__getitem__)
    rank = [0] * count
    for position, node in enumerate(order):
        rank[node] = position
    pairs = sorted(rank[src] * count + rank[dst] for src, dst in edges)
    labels = json.dumps([names[node] for node in order]).encode("ascii")
    digest = hashlib.sha256(struct.pack("<3Q", count, len(labels), len(pairs)))
    digest.update(labels)
    digest.update(struct.pack(f"<{count}d", *[wcets[node] for node in order]))
    digest.update(struct.pack(f"<{len(pairs)}q", *pairs))
    return digest.hexdigest()


def compile_graph(graph: DirectedAcyclicGraph) -> CompiledTask:
    """Compile ``graph`` into a :class:`CompiledTask`, cached per generation.

    The structure is the graph's shared dense kernel; only the WCET vector
    is new, read in one pass from the weight map, which lists the nodes in
    the structure's order (see ``_Structure`` in :mod:`repro.core.graph`).

    Raises
    ------
    CycleError
        If the graph contains a cycle (the dense view only exists for DAGs).
    """

    def build() -> CompiledTask:
        structure = graph._kernel()
        wcet = np.fromiter(graph._wcet.values(), np.float64, count=len(structure.nodes))
        return CompiledTask(structure, wcet, graph.cache_generation)

    return graph._weighted("compiled_task", build)


def compile_task(source: Union["DagTask", DirectedAcyclicGraph]) -> CompiledTask:
    """Compile a :class:`~repro.core.task.DagTask` (or a bare graph).

    The result is cached on the underlying graph's generation stamp, so
    repeated calls between mutations are free and one compile serves every
    platform / policy / offload combination the task is simulated under.
    """
    graph = getattr(source, "graph", source)
    return compile_graph(graph)
