"""Directed acyclic graph substrate used by the whole library.

The paper models a parallel real-time task as a DAG ``G = (V, E)`` whose
nodes carry a worst-case execution time (WCET) and whose edges encode
precedence constraints.  This module provides a small, dependency-free DAG
implementation with exactly the operations required by the analysis:

* structural manipulation (add/remove nodes and edges, copies, subgraphs),
* reachability (``Pred``/``Succ`` sets of the paper),
* the two key DAG metrics ``vol(G)`` (total WCET) and ``len(G)`` (length of
  the critical path, i.e. the longest weighted path),
* helpers used by Algorithm 1 and by Theorem 1 (direct predecessors, longest
  path through a given node, transitive-edge detection and reduction).

The implementation intentionally avoids :mod:`networkx` so that every
algorithmic step of the reproduction is explicit; networkx is only used as an
independent oracle in the test-suite.

Performance architecture
------------------------
Every analysis and experiment of the reproduction bottoms out in the same
handful of structural queries, repeated thousands of times over large DAG
ensembles, and the paired ``C_off`` sweeps of the experiments ask them of
many copies of one structure that differ only in WCETs.  The graph therefore
splits its state in two (see ``docs/performance.md``):

* the *structure* -- node order and adjacency -- is shared copy-on-write by
  :meth:`DirectedAcyclicGraph.copy`, together with the caches that depend on
  it alone: the per-node reachability bitmasks (Python integers used as
  bitsets, one sweep instead of one BFS per query) and memoised structural
  results (``transitive_closure``, Algorithm 1's weight-independent part).
  Whichever copy builds them first serves every copy; a structural mutation
  first takes a private copy of a shared structure;
* the adjacency lives in index space alone: node identifiers are interned
  into indices ``0..n-1`` in insertion order, and a structure holds each
  node's successor indices as ascending *rows*, the dense-index kernel
  built from them (CSR-style adjacency arrays in both directions,
  topological order), or both.  The generator,
  :meth:`~DirectedAcyclicGraph.from_dict` (and so the JSON task decode),
  :meth:`~DirectedAcyclicGraph.subgraph` and Algorithm 1 build a graph from
  index rows through one builder, and such a graph is *born as its
  kernel*, without rows.  A structural mutation turns the kernel back into
  rows and edits them (so does
  :meth:`~DirectedAcyclicGraph.invalidate_caches`), mutations and
  ``has_edge`` read the rows, and every other query reads the kernel,
  rebuilt from the rows on first use;
* the WCETs and the weight-dependent metrics (``volume``,
  ``critical_path_length``, ``earliest_finish_times``, ...) stay per graph,
  stamped with two generation counters: one bumped by structural mutation
  (nodes/edges) and one bumped by weight mutation (:meth:`set_wcet`), so that
  re-weighting a node preserves the structural caches.

All cached state is an implementation detail: mutating a returned container
never corrupts the cache (mutable results are copied on return), and
pickling drops the caches (a structure travels as its kernel's CSR).  A
graph with a cycle holds a kernel too, whose topological order comes out
short: the queries that need one raise :class:`CycleError`, and
reachability walks the CSR from each node instead of sweeping an order.
"""

from __future__ import annotations

import math
from bisect import insort
from collections.abc import Hashable, Iterable, Iterator, Mapping
from itertools import accumulate
from typing import Optional

from .exceptions import (
    CycleError,
    DuplicateNodeError,
    EdgeError,
    NodeNotFoundError,
    short_repr,
)

__all__ = ["NodeId", "DirectedAcyclicGraph"]

#: Type alias for node identifiers.  Any hashable value may be used; the
#: library itself uses short strings such as ``"v1"`` or ``"v_off"``.
NodeId = Hashable


class _DenseKernel:
    """Immutable dense-integer view of one graph structure.

    Node identifiers are interned into indices ``0..n-1`` in insertion order;
    adjacency is stored as CSR-style flat arrays (``ptr``/``idx`` pairs with
    neighbour indices sorted ascending, i.e. by insertion order), from which
    the rest derives (``topo`` comes out short on a cycle).  Every compiled
    view of the shape shares the kernel; its caches (reachability bitmasks,
    the ``int64`` ``arrays`` and the ``succ_rows`` of
    :mod:`repro.core.compiled`) are never pickled.
    """

    __slots__ = (
        "nodes",
        "index",
        "succ_ptr",
        "succ_idx",
        "pred_ptr",
        "pred_idx",
        "in_degree",
        "topo",
        "arrays",
        "succ_rows",
        "_desc_masks",
        "_anc_masks",
    )

    def __init__(self, nodes: list[NodeId], rows: list[list[int]]) -> None:
        """The kernel whose node ``i`` has the successors ``rows[i]``, a list
        of indices in ascending order."""
        self.nodes = nodes
        self.index = {node: i for i, node in enumerate(nodes)}
        self.succ_ptr = [0, *accumulate(map(len, rows))]
        self.succ_idx = [s for row in rows for s in row]
        # Sources ascend, so every predecessor list comes out sorted.
        preds: list[list[int]] = [[] for _ in nodes]
        for i, row in enumerate(rows):
            for s in row:
                preds[s].append(i)
        self.in_degree = [len(row) for row in preds]
        self.pred_ptr = [0, *accumulate(self.in_degree)]
        self.pred_idx = [p for row in preds for p in row]

        # Kahn's algorithm with insertion-order tie-breaking; dense indices
        # *are* insertion ranks, so queueing newly ready indices ascending
        # (rows are) reproduces the historical (pre-kernel) ordering exactly.
        # The order is its own queue: the loop reaches what it appends.
        in_degree = list(self.in_degree)
        self.topo = [i for i, degree in enumerate(in_degree) if not degree]
        for i in self.topo:
            for s in rows[i]:
                in_degree[s] -= 1
                if not in_degree[s]:
                    self.topo.append(s)
        self.arrays: Optional[tuple] = None
        self.succ_rows: Optional[list[list[int]]] = None
        self._desc_masks: Optional[list[int]] = None
        self._anc_masks: Optional[list[int]] = None

    @classmethod
    def of_csr(
        cls, nodes: list[NodeId], succ_ptr: list[int], succ_idx: list[int]
    ) -> "_DenseKernel":
        """The kernel of CSR successor lists (ascending within each node)."""
        return cls(nodes, [succ_idx[succ_ptr[i] : succ_ptr[i + 1]] for i in range(len(nodes))])

    def __reduce__(self) -> tuple:
        # Copies pickled together keep sharing one kernel (pickle memoises
        # it); the derived lists are rebuilt and the caches dropped.
        return (_DenseKernel.of_csr, (self.nodes, self.succ_ptr, self.succ_idx))

    def successors_of(self, i: int) -> list[int]:
        return self.succ_idx[self.succ_ptr[i] : self.succ_ptr[i + 1]]

    def predecessors_of(self, i: int) -> list[int]:
        return self.pred_idx[self.pred_ptr[i] : self.pred_ptr[i + 1]]

    @property
    def acyclic(self) -> bool:
        """Whether every node has its place in ``topo``."""
        return len(self.topo) == len(self.nodes)

    def descendant_masks(self) -> list[int]:
        """Bitmask of the descendants per dense index, built once."""
        if self._desc_masks is None:
            self._desc_masks = self._masks(reversed(self.topo), self.succ_ptr, self.succ_idx)
        return self._desc_masks

    def ancestor_masks(self) -> list[int]:
        """Bitmask of the ancestors per dense index, built once."""
        if self._anc_masks is None:
            self._anc_masks = self._masks(self.topo, self.pred_ptr, self.pred_idx)
        return self._anc_masks

    def _masks(self, order: Iterable[int], ptr: list[int], idx: list[int]) -> list[int]:
        """Per node, the bitmask of the nodes it reaches over the CSR lists
        ``ptr``/``idx``: one sweep of ``order``, in which every node comes
        after the nodes it reaches, or, without a topological order, one
        :func:`_walk` per node (a node on a cycle then reaches itself)."""
        if not self.acyclic:
            return [_walk(i, ptr, idx) for i in range(len(self.nodes))]
        masks = [0] * len(self.nodes)
        for i in order:
            acc = 0
            for s in idx[ptr[i] : ptr[i + 1]]:
                acc |= masks[s] | (1 << s)
            masks[i] = acc
        return masks

    def reach_masks(self, i: int) -> tuple[int, int]:
        """Bitmasks of the (strict) ancestors and descendants of node ``i``.

        One walk from ``i`` in each direction, for a caller that needs one
        node's entries of :meth:`ancestor_masks` and :meth:`descendant_masks`
        without the tables of every node.
        """
        return (
            _walk(i, self.pred_ptr, self.pred_idx),
            _walk(i, self.succ_ptr, self.succ_idx),
        )

    @staticmethod
    def bits(mask: int) -> Iterator[int]:
        """Indices of the set bits of ``mask``, ascending."""
        while mask:
            low = mask & -mask
            yield low.bit_length() - 1
            mask ^= low


def _walk(start: int, ptr: list[int], idx: list[int]) -> int:
    """Bitmask of the nodes reachable from ``start`` (excluded) over the CSR
    lists ``ptr``/``idx``."""
    mask = 0
    stack = [start]
    while stack:
        i = stack.pop()
        for j in idx[ptr[i] : ptr[i + 1]]:
            if not mask >> j & 1:
                mask |= 1 << j
                stack.append(j)
    return mask


class _Structure:
    """Node order and adjacency of a graph, with the caches derived from them.

    The adjacency lives in index space.  Node ``i`` is ``nodes[i]``, and
    ``index`` maps it back; the nodes are listed in insertion order, the
    order of the WCET map of every graph that holds the structure:
    :meth:`DirectedAcyclicGraph._sharing` requires it, and
    :func:`repro.core.compiled.compile_graph` reads the WCET vector off the
    map in that order.  A structure holds the successor ``rows`` (indices
    ascending), the dense ``kernel`` built from them, or both.  Builders
    store the kernel alone.  A structural mutation turns the kernel back
    into rows and edits them (:meth:`drop_caches`); the next read rebuilds
    the kernel from the rows (:meth:`dense`).  Graphs share one structure
    copy-on-write: it is edited only through a graph that holds it alone,
    so a reader of a shared structure at most publishes a kernel, in one
    assignment.
    """

    __slots__ = ("nodes", "index", "rows", "kernel", "memo")

    def __init__(
        self,
        nodes: list[NodeId],
        index: dict[NodeId, int],
        rows: Optional[list[list[int]]] = None,
        kernel: Optional[_DenseKernel] = None,
    ) -> None:
        self.nodes = nodes
        self.index = index
        self.rows = rows
        self.kernel = kernel
        #: Weight-independent results, memoised under any hashable key.
        self.memo: dict[Hashable, object] = {}

    @classmethod
    def of_kernel(cls, kernel: _DenseKernel) -> "_Structure":
        """The structure born as ``kernel``, without rows."""
        return cls(kernel.nodes, kernel.index, kernel=kernel)

    def dense(self) -> _DenseKernel:
        """The kernel, built from the rows on the first read after a
        mutation; ``topo`` comes out short on a cycle."""
        kernel = self.kernel
        if kernel is None:
            # The rows' node list is edited in place; the kernel gets a copy.
            kernel = self.kernel = _DenseKernel(list(self.nodes), self.rows)
        return kernel

    def successors_of(self, i: int) -> list[int]:
        """Node ``i``'s successors, ascending, read from the rows when there
        are any (do not mutate)."""
        if self.rows is None:
            return self.kernel.successors_of(i)
        return self.rows[i]

    def drop_caches(self) -> None:
        """Keep the adjacency as rows, then drop the kernel and the memo."""
        if self.rows is None:
            self.nodes, self.index, self.rows = self._copy()
        self.kernel = None
        self.memo.clear()

    def clone(self) -> "_Structure":
        """A private copy of the rows, with empty caches."""
        return _Structure(*self._copy())

    def _copy(self) -> tuple[list[NodeId], dict[NodeId, int], list[list[int]]]:
        rows = [list(self.successors_of(i)) for i in range(len(self.nodes))]
        return list(self.nodes), dict(self.index), rows

    def __reduce__(self) -> tuple:
        # Only the adjacency is pickled (the parallel experiment runner ships
        # graphs between processes), as the kernel's CSR, its compact form.
        return (_Structure.of_kernel, (self.dense(),))


def _check_wcet(node_id: NodeId, wcet: float) -> None:
    # ``nan < 0`` is false, so a plain sign test would let NaN through.
    if not 0 <= wcet < math.inf:
        raise ValueError(
            f"WCET of node {short_repr(node_id)} must be finite and >= 0, got {wcet}"
        )


class DirectedAcyclicGraph:
    """A weighted directed acyclic graph.

    Nodes are identified by arbitrary hashable values and carry a finite
    non-negative weight, interpreted throughout the library as the node's
    WCET.  Edges are ordered pairs ``(src, dst)`` meaning that ``src`` must
    complete before ``dst`` may start.

    The dense kernel lists the adjacency in both directions so that
    predecessor and successor queries are O(out-degree)/O(in-degree), and
    the class caches the derived metrics (see the module docstring) so that
    repeated queries between mutations cost a dictionary lookup.
    Acyclicity is *not* enforced on every mutation (generators build graphs
    incrementally); call :meth:`check_acyclic` or :meth:`topological_order`
    to verify it.

    Examples
    --------
    >>> g = DirectedAcyclicGraph()
    >>> g.add_node("a", wcet=2)
    >>> g.add_node("b", wcet=3)
    >>> g.add_edge("a", "b")
    >>> g.volume()
    5
    >>> g.critical_path_length()
    5
    """

    def __init__(self) -> None:
        self._wcet: dict[NodeId, float] = {}
        self._structure = _Structure([], {}, [])
        #: ``False`` while another graph may hold ``_structure`` too; the
        #: next structural mutation then takes a private copy first.
        self._owns_structure = True
        self._init_caches()

    # ------------------------------------------------------------------
    # Cache plumbing
    # ------------------------------------------------------------------
    def _init_caches(self) -> None:
        #: Bumped by every mutation of the node or edge sets.
        self._structure_generation: int = 0
        #: Bumped by every WCET update (and by node addition/removal).
        self._weights_generation: int = 0
        #: ``key -> ((structure, weights) generations, value)``.
        self._metric_cache: dict[str, tuple[object, object]] = {}

    def _mutable_structure(self) -> _Structure:
        """The structure, held by this graph alone, for a structural mutation.

        Copies the rows of a structure that other graphs may share, or turns
        this graph's own structure into rows and drops its caches; the
        caller edits the rows next.
        """
        structure = self._structure
        if not self._owns_structure:
            structure = self._structure = structure.clone()
            self._owns_structure = True
        else:
            structure.drop_caches()
        self._structure_generation += 1
        return structure

    @property
    def cache_generation(self) -> tuple[int, int]:
        """The ``(structure, weights)`` generation pair of the cache.

        Exposed for tests and benchmarks; two equal pairs on the same graph
        object guarantee that cached metrics were reused in between.
        """
        return (self._structure_generation, self._weights_generation)

    def invalidate_caches(self) -> None:
        """Drop every cached kernel and metric (results are unaffected).

        Normal code never needs this -- mutations invalidate automatically.
        The micro-benchmarks call it to measure the uncached baseline.  The
        structural caches are dropped for every copy sharing the structure;
        a graph born as its kernel turns it back into index rows first.
        """
        self._structure_generation += 1
        self._weights_generation += 1
        self._structure.drop_caches()
        self._metric_cache.clear()

    def _structural(self, key: Hashable, compute):
        """Memoise ``compute()`` on the structure until its next mutation.

        The value serves every graph sharing the structure, so ``compute``
        must not depend on the WCETs.
        """
        memo = self._structure.memo
        if key in memo:
            return memo[key]
        value = memo[key] = compute()
        return value

    def _weighted(self, key: str, compute):
        """Memoise ``compute()`` until the next structural or WCET mutation."""
        stamp = (self._structure_generation, self._weights_generation)
        entry = self._metric_cache.get(key)
        if entry is not None and entry[0] == stamp:
            return entry[1]
        value = compute()
        self._metric_cache[key] = (stamp, value)
        return value

    def _kernel(self) -> _DenseKernel:
        """The dense-index kernel for the current structure.

        Raises
        ------
        CycleError
            If the graph contains a cycle (the kernel stays cached, for the
            queries that answer on a cycle too).
        """
        kernel = self._structure.dense()
        if not kernel.acyclic:
            raise CycleError("graph contains a cycle", cycle=self.find_cycle())
        return kernel

    def _index_rows(self) -> tuple[list[NodeId], list[list[int]]]:
        """The node order and, per node, its successors' indices ascending."""
        kernel = self._structure.dense()
        return kernel.nodes, [kernel.successors_of(i) for i in range(len(kernel.nodes))]

    def __getstate__(self) -> dict:
        # Copies pickled together keep sharing one structure: pickle
        # memoises the structure object, and it pickles without its caches.
        return {"_wcet": self._wcet, "_structure": self._structure}

    def __setstate__(self, state: dict) -> None:
        self._wcet = state["_wcet"]
        self._structure = state["_structure"]
        # A graph unpickled from the same stream may hold the structure too.
        self._owns_structure = False
        self._init_caches()

    # ------------------------------------------------------------------
    # Construction helpers
    # ------------------------------------------------------------------
    @classmethod
    def from_dict(
        cls,
        wcets: Mapping[NodeId, float],
        edges: Iterable[tuple[NodeId, NodeId]] = (),
    ) -> "DirectedAcyclicGraph":
        """Build a graph from a mapping of WCETs and an iterable of edges.

        Parameters
        ----------
        wcets:
            Mapping from node identifier to WCET.
        edges:
            Iterable of ``(src, dst)`` pairs.  Both endpoints must appear in
            ``wcets``.

        The checks, their order and their exceptions are those of
        :meth:`add_node` for each WCET, then :meth:`add_edge` for each edge.
        """
        nodes = list(wcets)
        index = {node: i for i, node in enumerate(nodes)}

        def index_pairs() -> Iterator[tuple[int, int]]:
            for src, dst in edges:
                try:
                    yield index[src], index[dst]
                except KeyError:
                    raise NodeNotFoundError(dst if src in index else src) from None

        return cls._from_indices(nodes, list(wcets.values()), index_pairs())

    @classmethod
    def _from_indices(
        cls,
        nodes: list[NodeId],
        wcets: list[float],
        edges: Iterable[tuple[int, int]],
    ) -> "DirectedAcyclicGraph":
        """The graph whose node ``i`` is ``nodes[i]`` (distinct identifiers)
        with WCET ``wcets[i]``, and whose edges are the ``(src, dst)`` index
        pairs of ``edges``.

        The one builder from index space: the graph is born as its dense
        kernel, without rows.  It checks what :meth:`add_node` and
        :meth:`add_edge` check, in their order: every WCET, then every edge
        as ``edges`` yields it (a self loop or a duplicate raises
        :class:`EdgeError`).
        """
        for node, wcet in zip(nodes, wcets):
            _check_wcet(node, wcet)
        count = len(nodes)
        rows: list[list[int]] = [[] for _ in nodes]
        seen: set[int] = set()
        for src, dst in edges:
            if src == dst:
                raise EdgeError(f"self loop on node {short_repr(nodes[src])} is not allowed")
            key = src * count + dst
            if key in seen:
                raise EdgeError(
                    f"edge ({short_repr(nodes[src])}, {short_repr(nodes[dst])}) already exists"
                )
            seen.add(key)
            rows[src].append(dst)
        for row in rows:
            row.sort()
        return cls._from_rows(nodes, wcets, rows)

    @classmethod
    def _from_rows(
        cls, nodes: list[NodeId], wcets: list[float], rows: list[list[int]]
    ) -> "DirectedAcyclicGraph":
        """The graph whose node ``i`` is ``nodes[i]`` with WCET ``wcets[i]``
        and the successors ``rows[i]``, trusted as given: valid WCETs and
        ascending rows without self loops or duplicates.

        :meth:`_from_indices` ends here after its checks; callers whose rows
        come from an already validated kernel (Algorithm 1's ``G'``,
        :meth:`_induced`) start here.  The graph is born as its dense
        kernel, a graph with a cycle too (its ``topo`` comes out short).
        """
        graph = cls.__new__(cls)
        graph._wcet = dict(zip(nodes, wcets))
        graph._structure = _Structure.of_kernel(_DenseKernel(nodes, rows))
        graph._owns_structure = True
        graph._init_caches()
        return graph

    @staticmethod
    def _induced(
        nodes: list[NodeId], rows: list[list[int]], wcets: list[float], keep: list[int]
    ) -> "DirectedAcyclicGraph":
        """The subgraph induced by the nodes at the ascending indices ``keep``
        of ``nodes``, node ``i`` having the successors ``rows[i]`` and the
        WCET ``wcets[i]``."""
        position = [-1] * len(nodes)
        for new, old in enumerate(keep):
            position[old] = new
        # Positions ascend with the old indices, so every row stays sorted.
        return DirectedAcyclicGraph._from_rows(
            [nodes[i] for i in keep],
            [wcets[i] for i in keep],
            [[position[s] for s in rows[old] if position[s] >= 0] for old in keep],
        )

    def _sharing(self, wcet: dict[NodeId, float]) -> "DirectedAcyclicGraph":
        """A graph with WCET map ``wcet`` (in this graph's node order) that
        shares this graph's structure, with empty weighted caches."""
        clone = DirectedAcyclicGraph.__new__(DirectedAcyclicGraph)
        clone._wcet = wcet
        clone._structure = self._structure
        clone._owns_structure = self._owns_structure = False
        clone._init_caches()
        return clone

    def copy(self) -> "DirectedAcyclicGraph":
        """Return a copy of the graph, sharing its structure copy-on-write.

        The copy has its own WCETs.  It shares the adjacency, the dense
        kernel and the memoised structural results with this graph until
        either of them mutates its node or edge set, which first gives that
        graph a private copy of the adjacency.  Valid weighted cache entries
        are shared too: cached values are never mutated in place (public
        accessors return fresh containers).
        """
        clone = self._sharing(dict(self._wcet))
        clone._structure_generation = self._structure_generation
        clone._weights_generation = self._weights_generation
        clone._metric_cache = dict(self._metric_cache)
        return clone

    def _reweighted(self, wcets: Mapping[NodeId, float]) -> "DirectedAcyclicGraph":
        """A copy sharing this graph's structure, its WCETs read from
        ``wcets`` (which must map every node to a valid WCET)."""
        return self._sharing({node: wcets[node] for node in self._wcet})

    # ------------------------------------------------------------------
    # Basic mutation
    # ------------------------------------------------------------------
    def add_node(self, node_id: NodeId, wcet: float = 0) -> None:
        """Add a node with the given WCET.

        Raises
        ------
        DuplicateNodeError
            If the node already exists.
        ValueError
            If the WCET is negative, infinite or NaN.
        """
        if node_id in self._wcet:
            raise DuplicateNodeError(node_id)
        _check_wcet(node_id, wcet)
        structure = self._mutable_structure()
        self._wcet[node_id] = wcet
        structure.index[node_id] = len(structure.nodes)
        structure.nodes.append(node_id)
        structure.rows.append([])
        self._weights_generation += 1

    def remove_node(self, node_id: NodeId) -> None:
        """Remove a node together with all its incident edges."""
        self._require(node_id)
        structure = self._mutable_structure()
        gone = structure.index[node_id]
        del structure.nodes[gone], structure.rows[gone]
        # Every later node moves down one index; the rows stay ascending.
        structure.rows = [
            [s if s < gone else s - 1 for s in row if s != gone] for row in structure.rows
        ]
        structure.index = {node: i for i, node in enumerate(structure.nodes)}
        del self._wcet[node_id]
        self._weights_generation += 1

    def add_edge(self, src: NodeId, dst: NodeId) -> None:
        """Add the precedence edge ``src -> dst``.

        Raises
        ------
        NodeNotFoundError
            If either endpoint does not exist.
        EdgeError
            If the edge is a self loop or already present.
        """
        index = self._structure.index
        if src not in index:
            raise NodeNotFoundError(src)
        if dst not in index:
            raise NodeNotFoundError(dst)
        if src == dst:
            raise EdgeError(f"self loop on node {short_repr(src)} is not allowed")
        i, j = index[src], index[dst]
        if j in self._structure.successors_of(i):
            raise EdgeError(f"edge ({short_repr(src)}, {short_repr(dst)}) already exists")
        insort(self._mutable_structure().rows[i], j)

    def remove_edge(self, src: NodeId, dst: NodeId) -> None:
        """Remove the edge ``src -> dst``."""
        self._require(src)
        self._require(dst)
        if not self.has_edge(src, dst):
            raise EdgeError(f"edge ({src!r}, {dst!r}) does not exist")
        structure = self._mutable_structure()
        structure.rows[structure.index[src]].remove(structure.index[dst])

    def set_wcet(self, node_id: NodeId, wcet: float) -> None:
        """Update the WCET of an existing node.

        This invalidates only the weight-dependent caches; the structure and
        its caches stay shared (re-weighting is the hot path of the paired
        ``C_off`` sweeps).

        Raises
        ------
        ValueError
            If the WCET is negative, infinite or NaN.
        """
        self._require(node_id)
        _check_wcet(node_id, wcet)
        self._wcet[node_id] = wcet
        self._weights_generation += 1

    # ------------------------------------------------------------------
    # Basic queries
    # ------------------------------------------------------------------
    def _require(self, node_id: NodeId) -> None:
        if node_id not in self._wcet:
            raise NodeNotFoundError(node_id)

    def __contains__(self, node_id: object) -> bool:
        return node_id in self._wcet

    def __len__(self) -> int:
        return len(self._wcet)

    def __iter__(self) -> Iterator[NodeId]:
        return iter(self._wcet)

    @property
    def node_count(self) -> int:
        """Number of nodes in the graph."""
        return len(self._wcet)

    @property
    def edge_count(self) -> int:
        """Number of edges in the graph."""
        return len(self._structure.dense().succ_idx)

    def nodes(self) -> list[NodeId]:
        """Return the node identifiers in insertion order."""
        return list(self._wcet)

    def edges(self) -> list[tuple[NodeId, NodeId]]:
        """Return all edges as ``(src, dst)`` pairs."""
        nodes, rows = self._index_rows()
        return [
            (src, dst)
            for src, row in zip(nodes, rows)
            for dst in sorted([nodes[s] for s in row], key=repr)
        ]

    def wcet(self, node_id: NodeId) -> float:
        """Return the WCET of a node."""
        self._require(node_id)
        return self._wcet[node_id]

    def wcets(self) -> dict[NodeId, float]:
        """Return a copy of the ``node -> WCET`` mapping."""
        return dict(self._wcet)

    def has_edge(self, src: NodeId, dst: NodeId) -> bool:
        """Return ``True`` if the edge ``src -> dst`` exists.

        Read from the rows when there are any, so that a caller alternating
        ``has_edge`` and :meth:`add_edge` never rebuilds the kernel.
        """
        structure = self._structure
        index = structure.index
        return (
            src in index
            and dst in index
            and index[dst] in structure.successors_of(index[src])
        )

    def _adjacent(self, node_id: NodeId, forward: bool) -> list[NodeId]:
        """The direct successors (``forward``) or predecessors of a node."""
        self._require(node_id)
        kernel = self._structure.dense()
        i = kernel.index[node_id]
        row = kernel.successors_of(i) if forward else kernel.predecessors_of(i)
        return [kernel.nodes[j] for j in row]

    def successors(self, node_id: NodeId) -> set[NodeId]:
        """Direct successors of a node (nodes ``v`` with an edge ``node -> v``)."""
        return set(self._adjacent(node_id, forward=True))

    def predecessors(self, node_id: NodeId) -> set[NodeId]:
        """Direct predecessors of a node (nodes ``v`` with an edge ``v -> node``)."""
        return set(self._adjacent(node_id, forward=False))

    def out_degree(self, node_id: NodeId) -> int:
        """Number of outgoing edges of a node."""
        return len(self._adjacent(node_id, forward=True))

    def in_degree(self, node_id: NodeId) -> int:
        """Number of incoming edges of a node."""
        return len(self._adjacent(node_id, forward=False))

    def sources(self) -> list[NodeId]:
        """Nodes without incoming edges, in insertion order."""
        kernel = self._structure.dense()
        return [node for node, degree in zip(kernel.nodes, kernel.in_degree) if not degree]

    def sinks(self) -> list[NodeId]:
        """Nodes without outgoing edges, in insertion order."""
        kernel = self._structure.dense()
        ptr = kernel.succ_ptr
        return [node for i, node in enumerate(kernel.nodes) if ptr[i] == ptr[i + 1]]

    # ------------------------------------------------------------------
    # Ordering and reachability
    # ------------------------------------------------------------------
    def topological_order(self) -> list[NodeId]:
        """Return a topological ordering of the nodes (Kahn's algorithm).

        Ties are broken by node insertion order, which makes the ordering --
        and everything derived from it, such as the breadth-first scheduler --
        deterministic.  The ordering is cached until the next structural
        mutation.

        Raises
        ------
        CycleError
            If the graph contains a cycle.
        """
        kernel = self._kernel()
        return [kernel.nodes[i] for i in kernel.topo]

    def compiled(self):
        """The public dense-index view of the graph (weights included).

        Returns the cached :class:`~repro.core.compiled.CompiledTask` for the
        current ``(structure, weights)`` generation; see
        :mod:`repro.core.compiled`.

        Raises
        ------
        CycleError
            If the graph contains a cycle.
        """
        from .compiled import compile_graph

        return compile_graph(self)

    def is_acyclic(self) -> bool:
        """Return ``True`` if the graph contains no directed cycle."""
        return self._structure.dense().acyclic

    def check_acyclic(self) -> None:
        """Raise :class:`CycleError` if the graph contains a cycle."""
        self._kernel()

    def find_cycle(self) -> Optional[list[NodeId]]:
        """Return one directed cycle as a list of nodes, or ``None``.

        The returned list contains the nodes of the cycle in order; the edge
        from the last element back to the first closes the cycle.  The
        depth-first search starts from the nodes in insertion order and
        visits each node's successors in ``repr`` order of their identifiers.
        """
        kernel = self._structure.dense()
        if kernel.acyclic:
            return None
        nodes = kernel.nodes

        def successors_by_repr(i: int) -> Iterator[int]:
            return iter(sorted(kernel.successors_of(i), key=lambda j: repr(nodes[j])))

        WHITE, GREY, BLACK = 0, 1, 2
        colour = [WHITE] * len(nodes)
        parent = [-1] * len(nodes)
        for start in range(len(nodes)):
            if colour[start] != WHITE:
                continue
            stack = [(start, successors_by_repr(start))]
            colour[start] = GREY
            while stack:
                i, pending = stack[-1]
                for j in pending:
                    if colour[j] == WHITE:
                        colour[j] = GREY
                        parent[j] = i
                        stack.append((j, successors_by_repr(j)))
                        break
                    if colour[j] == GREY:
                        cycle = [j]
                        cursor = i
                        while cursor != j:
                            cycle.append(cursor)
                            cursor = parent[cursor]
                        return [nodes[k] for k in reversed(cycle)]
                else:
                    colour[i] = BLACK
                    stack.pop()
        return None

    def descendants(self, node_id: NodeId) -> set[NodeId]:
        """All nodes reachable from ``node_id`` (``Succ(v)`` in the paper).

        The node itself is *not* included, unless it lies on a cycle.
        Served from the cached bitmask reachability table.
        """
        self._require(node_id)
        kernel = self._structure.dense()
        mask = kernel.descendant_masks()[kernel.index[node_id]]
        return {kernel.nodes[i] for i in _DenseKernel.bits(mask)}

    def ancestors(self, node_id: NodeId) -> set[NodeId]:
        """All nodes from which ``node_id`` is reachable (``Pred(v)``).

        The node itself is *not* included, unless it lies on a cycle.
        """
        self._require(node_id)
        kernel = self._structure.dense()
        mask = kernel.ancestor_masks()[kernel.index[node_id]]
        return {kernel.nodes[i] for i in _DenseKernel.bits(mask)}

    def has_path(self, src: NodeId, dst: NodeId) -> bool:
        """Return ``True`` if there is a directed path from ``src`` to ``dst``."""
        self._require(src)
        self._require(dst)
        if src == dst:
            return True
        kernel = self._structure.dense()
        masks = kernel.descendant_masks()
        return bool(masks[kernel.index[src]] >> kernel.index[dst] & 1)

    def are_parallel(self, first: NodeId, second: NodeId) -> bool:
        """Return ``True`` when neither node can reach the other.

        Two parallel (a.k.a. independent or concurrent) nodes may execute at
        the same time; this is exactly the notion used to build ``G_par``.
        """
        if first == second:
            return False
        return not self.has_path(first, second) and not self.has_path(second, first)

    # ------------------------------------------------------------------
    # DAG metrics: volume and critical path
    # ------------------------------------------------------------------
    def volume(self) -> float:
        """``vol(G)``: the sum of the WCETs of all nodes.

        In the paper's system model the volume is the WCET of the task when
        executed entirely sequentially.
        """
        return self._weighted("volume", lambda: sum(self._wcet.values()))

    def critical_path_length(self) -> float:
        """``len(G)``: the length of the longest weighted path.

        Node weights (WCETs) are summed along the path; edge weights do not
        exist in this model.  For the empty graph the length is ``0``.
        """
        return self._weighted("critical_path_length", self._compute_length)

    def _compute_length(self) -> float:
        if not self._wcet:
            return 0
        return max(self._finish_map().values())

    def critical_path(self) -> list[NodeId]:
        """Return one critical (longest) path as an ordered list of nodes.

        Ties are broken deterministically by node insertion order so the
        returned path is stable across runs.
        """
        return list(self._weighted("critical_path", self._compute_critical_path))

    def _compute_critical_path(self) -> list[NodeId]:
        if not self._wcet:
            return []
        kernel = self._kernel()
        wcets = [self._wcet[node] for node in kernel.nodes]
        finish: list[float] = [0] * len(kernel.nodes)
        best_pred: list[Optional[int]] = [None] * len(kernel.nodes)
        for i in kernel.topo:
            best: Optional[int] = None
            best_finish = 0.0
            # Predecessor indices are sorted ascending (= insertion order)
            # and the comparison is strict, so ties resolve to the earliest
            # inserted predecessor, as they always have.
            for p in kernel.predecessors_of(i):
                if finish[p] > best_finish:
                    best_finish = finish[p]
                    best = p
            finish[i] = best_finish + wcets[i]
            best_pred[i] = best
        end = max(kernel.topo, key=lambda i: (finish[i], -i))
        path = [end]
        cursor = best_pred[end]
        while cursor is not None:
            path.append(cursor)
            cursor = best_pred[cursor]
        path.reverse()
        return [kernel.nodes[i] for i in path]

    def _finish_map(self) -> dict[NodeId, float]:
        """Cached ``earliest_finish_times`` mapping (do not mutate)."""
        return self._weighted("earliest_finish_times", self._compute_finish_map)

    def _compute_finish_map(self) -> dict[NodeId, float]:
        kernel = self._kernel()
        finish: dict[NodeId, float] = {}
        for i in kernel.topo:
            node = kernel.nodes[i]
            longest_pred = max(
                (finish[kernel.nodes[p]] for p in kernel.predecessors_of(i)),
                default=0,
            )
            finish[node] = longest_pred + self._wcet[node]
        return finish

    def earliest_finish_times(self) -> dict[NodeId, float]:
        """Length of the longest path *ending* at each node (inclusive).

        Equivalently, the earliest time each node can complete on an
        infinitely parallel machine.  Used both by the critical-path
        computation and by the simulator's sanity checks.
        """
        return dict(self._finish_map())

    def _tail_map(self) -> dict[NodeId, float]:
        """Cached ``longest_tail_lengths`` mapping (do not mutate)."""
        return self._weighted("longest_tail_lengths", self._compute_tail_map)

    def _compute_tail_map(self) -> dict[NodeId, float]:
        kernel = self._kernel()
        tail: dict[NodeId, float] = {}
        for i in reversed(kernel.topo):
            node = kernel.nodes[i]
            longest_succ = max(
                (tail[kernel.nodes[s]] for s in kernel.successors_of(i)),
                default=0,
            )
            tail[node] = longest_succ + self._wcet[node]
        return tail

    def longest_tail_lengths(self) -> dict[NodeId, float]:
        """Length of the longest path *starting* at each node (inclusive).

        This is the classical "bottom level" used by critical-path-first list
        scheduling heuristics.
        """
        return dict(self._tail_map())

    def longest_path_through(self, node_id: NodeId) -> float:
        """Length of the longest path constrained to pass through ``node_id``.

        Computed as ``top_level(node) + bottom_level(node) - C(node)`` so that
        the node's own WCET is only counted once.  Theorem 1 of the paper uses
        this quantity to decide whether the offloaded node belongs to a
        critical path of the transformed DAG.
        """
        self._require(node_id)
        finish = self._finish_map()
        tail = self._tail_map()
        return finish[node_id] + tail[node_id] - self._wcet[node_id]

    def lies_on_critical_path(self, node_id: NodeId, relative_tolerance: float = 1e-9) -> bool:
        """Return ``True`` when ``node_id`` belongs to *some* critical path.

        With floating-point WCETs the two longest-path computations can differ
        by a few ULPs even for mathematically equal values; ties are resolved
        *towards* the critical path (within ``relative_tolerance``), which is
        the conservative direction for the heterogeneous analysis (Scenario 1
        may only be used when the offloaded node is strictly off the critical
        path).
        """
        length = self.critical_path_length()
        tolerance = relative_tolerance * max(1.0, abs(length))
        return self.longest_path_through(node_id) >= length - tolerance

    # ------------------------------------------------------------------
    # Transitive edges
    # ------------------------------------------------------------------
    def transitive_edges(self) -> list[tuple[NodeId, NodeId]]:
        """Return every edge ``(u, v)`` that is implied by a longer path.

        The paper's system model assumes transitive edges do not exist; the
        transformation algorithm relies on this assumption.  This helper lets
        validators detect violations and :meth:`transitive_reduction` remove
        them.
        """
        kernel = self._structure.dense()
        masks = kernel.descendant_masks()
        redundant: list[tuple[NodeId, NodeId]] = []
        for i in range(len(kernel.nodes)):
            direct = kernel.successors_of(i)
            if len(direct) < 2:
                continue
            # A direct edge (src, dst) is transitive iff dst is reachable
            # from one of src's *other* direct successors (or, on a cycle,
            # from dst itself).
            reachable_via_others = 0
            for mid in direct:
                reachable_via_others |= masks[mid]
            for dst in direct:
                if reachable_via_others >> dst & 1:
                    redundant.append((kernel.nodes[i], kernel.nodes[dst]))
        return redundant

    def transitive_reduction(self) -> "DirectedAcyclicGraph":
        """Return a copy of the graph with all transitive edges removed."""
        reduced = self.copy()
        for src, dst in self.transitive_edges():
            if reduced.has_edge(src, dst):
                reduced.remove_edge(src, dst)
        return reduced

    def transitive_closure(self) -> dict[NodeId, set[NodeId]]:
        """Return the full reachability relation ``node -> descendants``.

        Derived from the cached bitmask tables in a single pass; the returned
        sets are fresh copies, safe to mutate.
        """
        closure = self._structural("transitive_closure", self._compute_closure)
        return {node: set(descendants) for node, descendants in closure.items()}

    def _compute_closure(self) -> dict[NodeId, frozenset[NodeId]]:
        kernel = self._structure.dense()
        nodes = kernel.nodes
        return {
            node: frozenset(nodes[j] for j in _DenseKernel.bits(mask))
            for node, mask in zip(nodes, kernel.descendant_masks())
        }

    # ------------------------------------------------------------------
    # Subgraphs and structural edits used by Algorithm 1
    # ------------------------------------------------------------------
    def subgraph(self, nodes: Iterable[NodeId]) -> "DirectedAcyclicGraph":
        """Return the subgraph induced by ``nodes`` (WCETs preserved)."""
        selected = set(nodes)
        for node in selected:
            self._require(node)
        return self._induced(
            *self._index_rows(),
            list(self._wcet.values()),
            [i for i, node in enumerate(self._wcet) if node in selected],
        )

    def relabelled(self, mapping: Mapping[NodeId, NodeId]) -> "DirectedAcyclicGraph":
        """Return a copy with node identifiers renamed according to ``mapping``.

        Identifiers absent from ``mapping`` are kept unchanged.  The mapping
        must not merge two distinct nodes into one.
        """
        new_ids = [mapping.get(node, node) for node in self._wcet]
        if len(set(new_ids)) != len(new_ids):
            raise EdgeError("relabelling would merge distinct nodes")
        _, rows = self._index_rows()
        return DirectedAcyclicGraph._from_indices(
            new_ids,
            list(self._wcet.values()),
            ((i, s) for i, row in enumerate(rows) for s in row),
        )

    def with_unique_source_and_sink(
        self,
        source_id: NodeId = "__source__",
        sink_id: NodeId = "__sink__",
    ) -> "DirectedAcyclicGraph":
        """Return a copy that has exactly one source and one sink.

        If the graph already has a single source (resp. sink) nothing is
        added; otherwise a zero-WCET dummy node is inserted, exactly as the
        system model of the paper prescribes.
        """
        result = self.copy()
        # Both read before the first mutation, from the shared kernel.
        sources = self.sources()
        sinks = [node for node in self.sinks() if node != source_id]
        if len(sources) != 1:
            result.add_node(source_id, 0)
            for node in sources:
                result.add_edge(source_id, node)
        if len(sinks) != 1:
            result.add_node(sink_id, 0)
            for node in sinks:
                result.add_edge(node, sink_id)
        return result

    # ------------------------------------------------------------------
    # Dunder helpers
    # ------------------------------------------------------------------
    def __eq__(self, other: object) -> bool:
        if not isinstance(other, DirectedAcyclicGraph):
            return NotImplemented
        if self._wcet != other._wcet:
            return False
        nodes, rows = self._index_rows()
        other_nodes, other_rows = other._index_rows()
        if nodes == other_nodes:
            return rows == other_rows
        # The same nodes, inserted in another order.
        return set(self.edges()) == set(other.edges())

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return (
            f"DirectedAcyclicGraph(nodes={self.node_count}, "
            f"edges={self.edge_count}, vol={self.volume()}, "
            f"len={self.critical_path_length()})"
        )
