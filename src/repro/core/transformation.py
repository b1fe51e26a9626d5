"""DAG transformation guaranteeing host/accelerator parallelism (Algorithm 1).

The key insight of the paper is that the interference reduction enabled by
offloading ``v_off`` to the accelerator is only *safe* if the sub-DAG that can
potentially run in parallel with ``v_off`` (named ``G_par``) is guaranteed to
actually run in parallel with it.  Algorithm 1 enforces this by inserting a
zero-WCET synchronisation node ``v_sync`` immediately before both ``v_off``
and ``G_par``:

1. every direct predecessor of ``v_off`` now precedes ``v_sync`` instead;
2. every edge from a (direct or indirect) predecessor of ``v_off`` towards a
   node parallel to ``v_off`` is rerouted to originate from ``v_sync``;
3. ``v_sync`` precedes ``v_off``.

As a consequence, once ``v_sync`` completes, ``v_off`` and the whole of
``G_par`` become ready simultaneously, which is exactly the property the
response-time analysis of Theorem 1 builds upon.

This module implements the algorithm faithfully (the comments of
:func:`_algorithm1` map each step to the pseudo-code line numbers) and
returns a :class:`TransformedTask` carrying the transformed task ``tau'``,
the parallel sub-DAG ``G_par`` and all intermediate sets, so that analyses,
tests and experiments can introspect every aspect of the transformation.

The algorithm runs in the index space of the task's dense kernel: ``Pred``
and ``Succ`` are two bitmasks from one walk each way from ``v_off``, lines
3-13 edit successor index rows, and ``tau'``'s graph and ``G_par`` (a node
mask over the original rows) are born as their kernels from those trusted
rows, without a second validation.  Transitive edges of ``G'`` are found
from its descendant bitmasks.  ``G_par`` is built only when a caller reads
it: Figure 6 simulates ``tau'`` alone.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

from .exceptions import TransformationError
from .graph import DirectedAcyclicGraph, NodeId, _DenseKernel
from .task import DagTask

__all__ = ["SYNC_NODE_DEFAULT_ID", "TransformedTask", "transform"]

#: Identifier given to the synchronisation node inserted by Algorithm 1.
SYNC_NODE_DEFAULT_ID: str = "v_sync"


@dataclass
class TransformedTask:
    """Result of applying Algorithm 1 to a heterogeneous DAG task.

    Attributes
    ----------
    original:
        The untouched input task ``tau``.
    task:
        The transformed task ``tau'`` whose graph is ``G' = (V', E')``.  It
        contains the extra synchronisation node and keeps the same offloaded
        node, period and deadline as the original task.
    sync_node:
        Identifier of the inserted synchronisation node ``v_sync``.
    direct_predecessors:
        The direct predecessors of ``v_off`` in the original DAG; after the
        transformation they are exactly the direct predecessors of ``v_sync``.
    predecessors:
        ``Pred(v_off)`` in the original DAG.
    successors:
        ``Succ(v_off)`` in the original DAG.
    rerouted_edges:
        Every original edge ``(v_i, v_j)`` that was replaced by
        ``(v_sync, v_j)``; useful for debugging and for the DOT exporter.
    metrics_cache:
        Scratch memoisation space for the analyses (e.g. ``R_hom(G_par)``
        per core count, which :func:`repro.analysis.heterogeneous.classify_scenario`
        and :func:`~repro.analysis.heterogeneous.response_time` would
        otherwise both re-derive).  A transformed task is never mutated after
        construction, so entries stay valid for the object's lifetime.

    The parallel sub-DAG ``G_par`` is the :attr:`gpar` property, built on
    first read.
    """

    original: DagTask
    task: DagTask
    sync_node: NodeId
    direct_predecessors: set[NodeId] = field(default_factory=set)
    predecessors: set[NodeId] = field(default_factory=set)
    successors: set[NodeId] = field(default_factory=set)
    rerouted_edges: list[tuple[NodeId, NodeId]] = field(default_factory=list)
    metrics_cache: dict = field(default_factory=dict, repr=False, compare=False)
    #: Algorithm 1's result for the structure, and the original's WCETs
    #: when it was transformed: what :attr:`gpar` is built from.
    _gpar_source: tuple = field(default=(), repr=False, compare=False)

    @cached_property
    def gpar(self) -> DirectedAcyclicGraph:
        """The parallel sub-DAG ``G_par = (V_par, E_par)``: the sub-graph
        induced (in the *original* edge set) by the nodes that may execute in
        parallel with ``v_off``, weighing the original's WCETs.

        Built on first read, from the structure's memoised ``G_par``; callers
        that never read it (Figure 6 simulates ``tau'`` only) never pay for
        it.  The graph is this task's own, so callers may mutate it.
        """
        shape, wcets = self._gpar_source
        return shape.gpar._reweighted(wcets)

    # ------------------------------------------------------------------
    # Convenience accessors used by the response-time analysis
    # ------------------------------------------------------------------
    @property
    def graph(self) -> DirectedAcyclicGraph:
        """The transformed graph ``G'``."""
        return self.task.graph

    @property
    def offloaded_node(self) -> NodeId:
        """Identifier of the offloaded node ``v_off``."""
        assert self.task.offloaded_node is not None
        return self.task.offloaded_node

    @property
    def offloaded_wcet(self) -> float:
        """``C_off``."""
        return self.task.offloaded_wcet

    @property
    def gpar_nodes(self) -> set[NodeId]:
        """``V_par``: the nodes of the parallel sub-DAG."""
        return set(self.gpar.nodes())

    def gpar_volume(self) -> float:
        """``vol(G_par)``."""
        return self.gpar.volume()

    def gpar_length(self) -> float:
        """``len(G_par)``."""
        return self.gpar.critical_path_length()

    def transformed_volume(self) -> float:
        """``vol(G')`` -- identical to ``vol(G)`` because ``C_sync = 0``."""
        return self.graph.volume()

    def transformed_length(self) -> float:
        """``len(G')`` -- may exceed ``len(G)`` because of the added sync."""
        return self.graph.critical_path_length()

    def offloaded_on_critical_path(self) -> bool:
        """Whether ``v_off`` lies on some critical path of ``G'``.

        This is the condition distinguishing Scenario 1 from Scenarios 2.x in
        Theorem 1 of the paper.
        """
        cached = self.metrics_cache.get("offloaded_on_critical_path")
        if cached is None:
            cached = self.graph.lies_on_critical_path(self.offloaded_node)
            self.metrics_cache["offloaded_on_critical_path"] = cached
        return cached

    def critical_path_elongation(self) -> float:
        """``len(G') - len(G)``: how much the sync point stretched the task."""
        return self.transformed_length() - self.original.critical_path_length


def transform(
    task: DagTask,
    sync_node: NodeId = SYNC_NODE_DEFAULT_ID,
    reduce_transitive: bool = True,
) -> TransformedTask:
    """Apply Algorithm 1 of the paper to a heterogeneous DAG task.

    Algorithm 1 does not read the WCETs, so its result is memoised on the
    graph's structure: every copy of one structure (the paired ``C_off``
    sweeps re-weight copies of each DAG) runs it once, and each call
    re-weights the memoised ``tau'`` from the caller's WCETs, and ``G_par``
    when it is first read (:attr:`TransformedTask.gpar`).  The returned
    graphs share their structure copy-on-write and the provenance containers
    are fresh, so callers may mutate both.

    Parameters
    ----------
    task:
        The heterogeneous task ``tau``.  It must designate an offloaded node.
    sync_node:
        Identifier to use for the inserted synchronisation node.  It must not
        collide with an existing node.
    reduce_transitive:
        The rerouting step can occasionally introduce transitive edges in
        ``G'`` (e.g. ``v_sync -> v_j`` together with ``v_sync -> v_i -> v_j``
        when two parallel nodes that are themselves ordered both lose all
        their predecessors).  Transitive edges are harmless for the analysis
        -- they change neither ``vol`` nor ``len`` nor reachability -- but the
        system model forbids them, so they are removed by default.

    Returns
    -------
    TransformedTask
        The transformed task ``tau'`` together with ``G_par`` and provenance
        information.

    Raises
    ------
    TransformationError
        If the task has no offloaded node or the sync identifier collides.
    CycleError
        If the task's graph has a cycle (``Pred`` and ``Succ`` are then
        undefined).
    """
    if task.offloaded_node is None:
        raise TransformationError(
            f"task {task.name!r} has no offloaded node; nothing to transform"
        )
    if sync_node in task.graph:
        raise TransformationError(
            f"synchronisation node id {sync_node!r} collides with an existing node"
        )

    graph = task.graph
    v_off = task.offloaded_node
    shape = graph._structural(
        ("transform", v_off, sync_node, reduce_transitive),
        lambda: _algorithm1(graph, v_off, sync_node, reduce_transitive),
    )
    # G' lists the task's nodes in their order, then v_sync.
    wcets = graph.wcets()
    transformed_task = DagTask(
        graph=shape.graph._sharing({**wcets, sync_node: 0}),
        offloaded_node=v_off,
        period=task.period,
        deadline=task.deadline,
        name=f"{task.name}'",
        metadata={**task.metadata, "sync_node": sync_node, "transformed_from": task.name},
    )

    return TransformedTask(
        original=task,
        task=transformed_task,
        sync_node=sync_node,
        direct_predecessors=set(shape.direct_predecessors),
        predecessors=set(shape.predecessors),
        successors=set(shape.successors),
        rerouted_edges=list(shape.rerouted_edges),
        _gpar_source=(shape, wcets),
    )


@dataclass(frozen=True)
class _Shape:
    """Algorithm 1's result for one structure, before weighting.

    ``graph`` (``G'``) carries the WCETs of the task that first computed the
    shape, and ``gpar`` zero WCETs; callers only ever read their structure.
    ``kernel`` is the original's, and ``parallel`` indexes ``V_par`` in it.
    """

    graph: DirectedAcyclicGraph
    kernel: _DenseKernel
    parallel: tuple[int, ...]
    direct_predecessors: frozenset
    predecessors: frozenset
    successors: frozenset
    rerouted_edges: tuple

    @cached_property
    def gpar(self) -> DirectedAcyclicGraph:
        """``G_par``, built on first read for every task of the structure."""
        return _parallel_subgraph(self.kernel, self.parallel)


def _parallel_subgraph(kernel: _DenseKernel, parallel: tuple[int, ...]) -> DirectedAcyclicGraph:
    """Lines 14-17: ``G_par`` is induced by the parallel nodes in the
    *original* node and edge sets (zero WCETs)."""
    count = len(kernel.nodes)
    return DirectedAcyclicGraph._induced(
        kernel.nodes,
        [kernel.successors_of(i) for i in range(count)],
        [0] * count,
        list(parallel),
    )


def _algorithm1(
    graph: DirectedAcyclicGraph,
    v_off: NodeId,
    sync_node: NodeId,
    reduce_transitive: bool,
) -> _Shape:
    """Run Algorithm 1 on the index rows of ``graph``'s dense kernel.

    Node ``i`` is ``nodes[i]`` and ``v_sync`` takes the next index, the last
    place, where :meth:`~DirectedAcyclicGraph.add_node` would put it.  Node
    sets are bitmasks.  The loops visit nodes in ``repr`` order of their
    identifiers, so ``rerouted_edges`` has a fixed order.
    """
    kernel = graph._kernel()
    nodes = kernel.nodes
    sync = len(nodes)
    off = kernel.index[v_off]

    def by_repr(indices) -> list[int]:
        return sorted(indices, key=lambda i: repr(nodes[i]))

    # Line 1: compute Pred(v_off) and Succ(v_off).
    predecessors, successors = kernel.reach_masks(off)

    # Line 2: V' = V u {v_sync}; E' = E; directPred = empty set.  Row i of
    # E' lists node i's successors.
    rows = [kernel.successors_of(i) for i in range(sync)]
    direct = by_repr(kernel.predecessors_of(off))
    rerouted: list[tuple[int, int]] = []
    sync_row: set[int] = set()

    def reroute(i: int, targets: list[int]) -> None:
        """Replace each edge ``(v_i, v_j)`` of ``targets`` by ``(v_sync, v_j)``."""
        rerouted.extend((i, j) for j in targets)
        sync_row.update(targets)

    # Lines 3-8: each direct predecessor v_i of v_off keeps the single edge
    # (v_i, v_sync) in place of (v_i, v_off), and its other successors become
    # successors of v_sync.  Because transitive edges do not exist, those
    # successors are necessarily parallel to v_off (Section 3.4.2).
    for i in direct:
        reroute(i, by_repr(j for j in rows[i] if j != off))
        rows[i] = [sync]

    # Line 9: E' = E' u {(v_sync, v_off)}.
    sync_row.add(off)

    # Lines 10-13: edges from an indirect predecessor of v_off towards a node
    # that is *not* itself a predecessor of v_off point to a parallel node
    # (again thanks to the absence of transitive edges) and are rerouted.
    indirect = predecessors & ~sum(1 << i for i in direct)
    for i in by_repr(_DenseKernel.bits(indirect)):
        reroute(i, by_repr(j for j in rows[i] if not predecessors >> j & 1))
        rows[i] = [j for j in rows[i] if predecessors >> j & 1]
    rows.append(sorted(sync_row))

    # The rows come from a validated kernel and stay ascending (v_sync has
    # the largest index), so G' skips the builder's edge checks.
    transformed = DirectedAcyclicGraph._from_rows(
        [*nodes, sync_node], [*graph._wcet.values(), 0], rows
    )
    if reduce_transitive:
        transformed = transformed.transitive_reduction()

    # Lines 14-17 (G_par) wait for a reader; keep V_par.
    parallel = ((1 << sync) - 1) & ~predecessors & ~successors & ~(1 << off)
    return _Shape(
        graph=transformed,
        kernel=kernel,
        parallel=tuple(_DenseKernel.bits(parallel)),
        direct_predecessors=frozenset(nodes[i] for i in direct),
        predecessors=frozenset(nodes[i] for i in _DenseKernel.bits(predecessors)),
        successors=frozenset(nodes[i] for i in _DenseKernel.bits(successors)),
        rerouted_edges=tuple((nodes[i], nodes[j]) for i, j in rerouted),
    )
