"""Public, picklable dense-index view of a weighted DAG task.

The private ``_DenseKernel`` of :mod:`repro.core.graph` interns node
identifiers into dense integer indices with CSR adjacency, but it is
structure-only and deliberately internal.  The simulation stack (PR 3) needs
the same view *plus the weights*, shippable between processes: the dense
simulation core (:mod:`repro.simulation.dense`) and the batched
:func:`~repro.simulation.batch.simulate_many` operate purely on integer
indices and preallocated arrays, and the batch layer compiles each task once
and reuses the compiled view across every ``(cores, variant)`` cell of a
sweep point.

:class:`CompiledTask` is that view:

* ``nodes`` / ``index`` -- the dense index <-> :data:`NodeId` maps (indices
  are insertion ranks, so index order *is* node-creation order);
* ``succ_ptr``/``succ_idx`` and ``pred_ptr``/``pred_idx`` -- CSR successor
  and predecessor arrays shared with the graph's kernel (neighbour indices
  ascending, i.e. creation order);
* ``wcet`` -- the WCET vector as a ``numpy.float64`` array (``wcet_list`` is
  the same vector as plain Python floats, the faster representation for the
  pure-Python event loop);
* ``topo`` -- the cached topological order (dense indices);
* ``instant`` -- the zero-WCET ("instant node") mask;
* ``in_degree`` -- the initial in-degree of every node.

Compilation is cached on the owning graph's ``(structure, weights)``
generation stamp: re-compiling an unmutated task is a dictionary lookup.
The structural arrays are the kernel's, which every copy of a graph shares
(see :meth:`~repro.core.graph.DirectedAcyclicGraph.copy`), so the paired
``C_off`` sweeps, whose tasks are re-weighted copies of one structure, only
build a new weight vector per task.

The view is immutable by convention -- mutate neither the lists nor the
arrays -- and picklable (unlike the graph's caches, which are dropped on
pickling); the arrays are shared, never copied, when shipped to worker
processes.
"""

from __future__ import annotations

import hashlib
import json
import struct
from collections.abc import Iterable, Sequence
from typing import TYPE_CHECKING, Union

import numpy as np

from .graph import DirectedAcyclicGraph, NodeId

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for type checkers
    from .task import DagTask

__all__ = ["CompiledTask", "compile_graph", "compile_task", "graph_digest"]


class CompiledTask:
    """Dense-index view of a weighted acyclic graph (see module docstring)."""

    __slots__ = (
        "nodes",
        "index",
        "succ_ptr",
        "succ_idx",
        "pred_ptr",
        "pred_idx",
        "topo",
        "wcet",
        "wcet_list",
        "instant",
        "in_degree",
        "generation",
        "_views",
        "_fingerprint",
    )

    def __init__(
        self,
        nodes: list[NodeId],
        index: dict[NodeId, int],
        succ_ptr: list[int],
        succ_idx: list[int],
        pred_ptr: list[int],
        pred_idx: list[int],
        topo: list[int],
        wcet: np.ndarray,
        generation: tuple[int, int],
    ) -> None:
        self.nodes = nodes
        self.index = index
        self.succ_ptr = succ_ptr
        self.succ_idx = succ_idx
        self.pred_ptr = pred_ptr
        self.pred_idx = pred_idx
        self.topo = topo
        self.wcet = wcet
        self.wcet_list = wcet.tolist()
        self.instant = wcet == 0.0
        self.in_degree = [
            pred_ptr[i + 1] - pred_ptr[i] for i in range(len(nodes))
        ]
        self.generation = generation
        self._views: dict[str, np.ndarray] = {}
        self._fingerprint: str | None = None

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    @property
    def node_count(self) -> int:
        """Number of nodes of the compiled view."""
        return len(self.nodes)

    def successors_of(self, i: int) -> list[int]:
        """Direct successor indices of dense index ``i`` (creation order)."""
        return self.succ_idx[self.succ_ptr[i] : self.succ_ptr[i + 1]]

    def predecessors_of(self, i: int) -> list[int]:
        """Direct predecessor indices of dense index ``i`` (creation order)."""
        return self.pred_idx[self.pred_ptr[i] : self.pred_ptr[i + 1]]

    def __len__(self) -> int:
        return len(self.nodes)

    # ------------------------------------------------------------------
    # Batch (array) views
    # ------------------------------------------------------------------
    # The C kernel (:mod:`repro.simulation.vectorized_compiled`) stacks
    # many simulations of compiled tasks into flat int64 arrays; it needs
    # the CSR and in-degree data as integer arrays rather than Python
    # lists.  The arrays are materialised once per view and cached (the view
    # is immutable); like the lists they must never be mutated.

    def _view(self, name: str, source: list[int]) -> np.ndarray:
        array = self._views.get(name)
        if array is None:
            array = np.asarray(source, dtype=np.int64)
            self._views[name] = array
        return array

    @property
    def succ_ptr_array(self) -> np.ndarray:
        """``succ_ptr`` as an ``int64`` array (cached)."""
        return self._view("succ_ptr", self.succ_ptr)

    @property
    def succ_idx_array(self) -> np.ndarray:
        """``succ_idx`` as an ``int64`` array (cached)."""
        return self._view("succ_idx", self.succ_idx)

    @property
    def in_degree_array(self) -> np.ndarray:
        """``in_degree`` as an ``int64`` array (cached)."""
        return self._view("in_degree", self.in_degree)

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
        agree, so an unmutated task hashes exactly once.  A decoded task
        document (:class:`repro.io.json_io.TaskDocument`) hashes through
        the same function and so equals the task built from it.

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
                    for src in range(len(self.nodes))
                    for dst in succ_idx[succ_ptr[src] : succ_ptr[src + 1]]
                ),
            )
        return self._fingerprint

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return (
            f"CompiledTask(nodes={len(self.nodes)}, "
            f"edges={len(self.succ_idx)}, generation={self.generation})"
        )

    # ------------------------------------------------------------------
    # Pickling (slots classes need explicit state)
    # ------------------------------------------------------------------
    def __getstate__(self) -> tuple:
        return (
            self.nodes,
            self.index,
            self.succ_ptr,
            self.succ_idx,
            self.pred_ptr,
            self.pred_idx,
            self.topo,
            self.wcet,
            self.generation,
        )

    def __setstate__(self, state: tuple) -> None:
        self.__init__(*state)


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

    Raises
    ------
    CycleError
        If the graph contains a cycle (the dense view only exists for DAGs).
    """

    def build() -> CompiledTask:
        kernel = graph._kernel()
        wcet = np.fromiter(
            map(graph._wcet.__getitem__, kernel.nodes),
            dtype=np.float64,
            count=len(kernel.nodes),
        )
        return CompiledTask(
            kernel.nodes,
            kernel.index,
            kernel.succ_ptr,
            kernel.succ_idx,
            kernel.pred_ptr,
            kernel.pred_idx,
            kernel.topo,
            wcet,
            graph.cache_generation,
        )

    return graph._weighted("compiled_task", build)


def compile_task(source: Union["DagTask", DirectedAcyclicGraph]) -> CompiledTask:
    """Compile a :class:`~repro.core.task.DagTask` (or a bare graph).

    The result is cached on the underlying graph's generation stamp, so
    repeated calls between mutations are free and one compile serves every
    platform / policy / offload combination the task is simulated under.
    """
    graph = getattr(source, "graph", source)
    return compile_graph(graph)
