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
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from .exceptions import TransformationError
from .graph import DirectedAcyclicGraph, NodeId
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
    gpar:
        The parallel sub-DAG ``G_par = (V_par, E_par)``: the sub-graph induced
        (in the *original* edge set) by the nodes that may execute in parallel
        with ``v_off``.
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
    """

    original: DagTask
    task: DagTask
    gpar: DirectedAcyclicGraph
    sync_node: NodeId
    direct_predecessors: set[NodeId] = field(default_factory=set)
    predecessors: set[NodeId] = field(default_factory=set)
    successors: set[NodeId] = field(default_factory=set)
    rerouted_edges: list[tuple[NodeId, NodeId]] = field(default_factory=list)
    metrics_cache: dict = field(default_factory=dict, repr=False, compare=False)

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
    re-weights the memoised ``tau'`` and ``G_par`` from the caller's WCETs.
    The returned graphs share their structure copy-on-write and the
    provenance containers are fresh, so callers may mutate both.

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
    wcets = graph.wcets()
    gpar = shape.gpar._reweighted(wcets)
    wcets[sync_node] = 0
    transformed_task = DagTask(
        graph=shape.graph._reweighted(wcets),
        offloaded_node=v_off,
        period=task.period,
        deadline=task.deadline,
        name=f"{task.name}'",
        metadata={**task.metadata, "sync_node": sync_node, "transformed_from": task.name},
    )

    return TransformedTask(
        original=task,
        task=transformed_task,
        gpar=gpar,
        sync_node=sync_node,
        direct_predecessors=set(shape.direct_predecessors),
        predecessors=set(shape.predecessors),
        successors=set(shape.successors),
        rerouted_edges=list(shape.rerouted_edges),
    )


@dataclass(frozen=True)
class _Shape:
    """Algorithm 1's result for one structure, before weighting.

    ``graph`` (``G'``) and ``gpar`` carry the WCETs of the task that first
    computed the shape; :func:`transform` only ever reads their structure.
    """

    graph: DirectedAcyclicGraph
    gpar: DirectedAcyclicGraph
    direct_predecessors: frozenset
    predecessors: frozenset
    successors: frozenset
    rerouted_edges: tuple


def _algorithm1(
    graph: DirectedAcyclicGraph,
    v_off: NodeId,
    sync_node: NodeId,
    reduce_transitive: bool,
) -> _Shape:
    """Run Algorithm 1 edge by edge on a copy of ``graph``."""
    # Line 1: compute Pred(v_off) and Succ(v_off).
    predecessors = graph.ancestors(v_off)
    successors = graph.descendants(v_off)

    # Line 2: V' = V u {v_sync}; E' = E; directPred = empty set.
    transformed = graph.copy()
    transformed.add_node(sync_node, 0)
    direct_predecessors: set[NodeId] = set()
    rerouted: list[tuple[NodeId, NodeId]] = []

    def reroute(src: NodeId, dst: NodeId) -> None:
        """Replace edge ``(src, dst)`` by ``(v_sync, dst)`` in ``E'``."""
        transformed.remove_edge(src, dst)
        if not transformed.has_edge(sync_node, dst):
            transformed.add_edge(sync_node, dst)
        rerouted.append((src, dst))

    # Lines 3-8: loop over the direct predecessors of v_off.
    for v_i in sorted(graph.predecessors(v_off), key=repr):
        # Line 4: record v_i as a direct predecessor.
        direct_predecessors.add(v_i)
        # Line 5: E' = E' u {(v_i, v_sync)} \ {(v_i, v_off)}.
        transformed.remove_edge(v_i, v_off)
        if not transformed.has_edge(v_i, sync_node):
            transformed.add_edge(v_i, sync_node)
        # Lines 6-8: v_i's remaining successors become successors of v_sync.
        # Because transitive edges do not exist, those successors are
        # necessarily parallel to v_off (see Section 3.4.2 of the paper).
        for v_j in sorted(transformed.successors(v_i), key=repr):
            if v_j != sync_node:
                reroute(v_i, v_j)

    # Line 9: E' = E' u {(v_sync, v_off)}.
    transformed.add_edge(sync_node, v_off)

    # Lines 10-13: loop over the indirect predecessors of v_off.  Edges from
    # an indirect predecessor towards a node that is *not* itself a
    # predecessor of v_off point to a parallel node (again thanks to the
    # absence of transitive edges) and are rerouted to v_sync.
    for v_i in sorted(predecessors - direct_predecessors, key=repr):
        for v_j in sorted(transformed.successors(v_i), key=repr):
            if v_j not in predecessors:
                reroute(v_i, v_j)

    if reduce_transitive:
        # Remove the redundant edges in place rather than via
        # ``transitive_reduction()``, which would build a second full copy of
        # the graph.  ``transitive_edges()`` lists each redundant edge once.
        for src, dst in transformed.transitive_edges():
            transformed.remove_edge(src, dst)

    # Lines 14-17: build G_par from the *original* node and edge sets.
    parallel_nodes = set(graph.nodes()) - predecessors - successors - {v_off}
    return _Shape(
        graph=transformed,
        gpar=graph.subgraph(parallel_nodes),
        direct_predecessors=frozenset(direct_predecessors),
        predecessors=frozenset(predecessors),
        successors=frozenset(successors),
        rerouted_edges=tuple(rerouted),
    )
