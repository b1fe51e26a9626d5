"""Property-based tests of Algorithm 1 on randomly generated tasks.

Further tests cover the memoised transform: copies of one structure that
differ only in WCETs (the paired ``C_off`` sweeps) share Algorithm 1's
result, which must be indistinguishable from transforming a fresh rebuild.
``G_par`` is built when first read; wherever these tests transform a task
it must equal the subgraph of the original induced by the parallel nodes,
built eagerly.  The last tests hold ``transform``, which runs in the index
space of the dense kernel, to an independent edge-by-edge networkx
reference.
"""

from __future__ import annotations

import os
import pickle
import sys
import threading

import networkx as nx
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.batch import analyse_many
from repro.core import transformation
from repro.core.compiled import stack_compiled
from repro.core.graph import DirectedAcyclicGraph
from repro.core.task import DagTask
from repro.core.transformation import TransformedTask, transform
from repro.core.validation import validate_task
from repro.experiments.figure6 import run_figure6
from repro.generator.config import GeneratorConfig, OffloadConfig
from repro.generator.offload import pin_offloaded_fraction
from repro.generator.sweep import chunked_offload_fraction_sweep

from strategies import make_random_heterogeneous_task, make_random_host_task

_SEEDS = st.integers(min_value=0, max_value=5_000)
_FRACTIONS = st.floats(min_value=0.01, max_value=0.6, allow_nan=False)


def _assert_gpar_is_induced(task: DagTask, result: TransformedTask) -> None:
    """The lazy ``G_par`` equals the eager induced subgraph of the original:
    nodes in order, WCETs, edges and kernel."""
    eager = task.graph.subgraph(task.parallel_nodes_to_offloaded())
    gpar = result.gpar
    assert gpar.nodes() == eager.nodes()
    assert gpar.wcets() == eager.wcets()
    assert gpar.edges() == eager.edges()
    assert gpar.compiled().succ_idx == eager.compiled().succ_idx
    assert result.gpar is gpar, "read once, kept"


@settings(max_examples=50, deadline=None)
@given(seed=_SEEDS, fraction=_FRACTIONS)
def test_transformation_preserves_volume(seed, fraction):
    task = make_random_heterogeneous_task(seed, fraction)
    transformed = transform(task)
    assert transformed.transformed_volume() == task.volume


@settings(max_examples=50, deadline=None)
@given(seed=_SEEDS, fraction=_FRACTIONS)
def test_transformation_never_shortens_the_critical_path(seed, fraction):
    task = make_random_heterogeneous_task(seed, fraction)
    transformed = transform(task)
    assert transformed.transformed_length() >= task.critical_path_length - 1e-9


@settings(max_examples=50, deadline=None)
@given(seed=_SEEDS, fraction=_FRACTIONS)
def test_transformed_graph_satisfies_the_system_model(seed, fraction):
    task = make_random_heterogeneous_task(seed, fraction)
    transformed = transform(task)
    report = validate_task(transformed.task)
    assert report.is_valid, report.problems


@settings(max_examples=50, deadline=None)
@given(seed=_SEEDS, fraction=_FRACTIONS)
def test_gpar_is_exactly_the_set_of_parallel_nodes(seed, fraction):
    task = make_random_heterogeneous_task(seed, fraction)
    transformed = transform(task)
    _assert_gpar_is_induced(task, transformed)
    expected = task.parallel_nodes_to_offloaded()
    assert transformed.gpar_nodes == expected
    # Every G_par edge must already exist in the original graph.
    for src, dst in transformed.gpar.edges():
        assert task.graph.has_edge(src, dst)


@settings(max_examples=50, deadline=None)
@given(seed=_SEEDS, fraction=_FRACTIONS)
def test_sync_point_guarantees_parallel_start(seed, fraction):
    """After the transformation no G_par node can start before v_sync.

    Structurally: every G_par node is a descendant of v_sync in G', and
    v_off's only predecessor is v_sync.  This is the property Theorem 1
    relies on.
    """
    task = make_random_heterogeneous_task(seed, fraction)
    transformed = transform(task)
    graph = transformed.graph
    descendants = graph.descendants(transformed.sync_node)
    assert transformed.gpar_nodes <= descendants
    assert graph.predecessors(transformed.offloaded_node) == {transformed.sync_node}
    assert graph.predecessors(transformed.sync_node) == transformed.direct_predecessors


@settings(max_examples=50, deadline=None)
@given(seed=_SEEDS, fraction=_FRACTIONS)
def test_reachability_outside_gpar_is_preserved(seed, fraction):
    """Predecessor/successor relations w.r.t. v_off survive the transformation."""
    task = make_random_heterogeneous_task(seed, fraction)
    transformed = transform(task)
    graph = transformed.graph
    v_off = transformed.offloaded_node
    for node in transformed.predecessors:
        assert graph.has_path(node, v_off)
    for node in transformed.successors:
        assert graph.has_path(v_off, node)


@settings(max_examples=50, deadline=None)
@given(seed=_SEEDS, fraction=_FRACTIONS)
def test_node_set_only_gains_the_sync_node(seed, fraction):
    task = make_random_heterogeneous_task(seed, fraction)
    transformed = transform(task)
    original_nodes = set(task.graph.nodes())
    transformed_nodes = set(transformed.graph.nodes())
    assert transformed_nodes == original_nodes | {transformed.sync_node}
    for node in original_nodes:
        assert transformed.graph.wcet(node) == task.graph.wcet(node)


# ----------------------------------------------------------------------
# The transform shared by copies of one structure
# ----------------------------------------------------------------------
def _rebuild(task: DagTask) -> DagTask:
    """The same task built from scratch: no structure shared with ``task``."""
    graph = task.graph
    return DagTask.from_wcets(
        graph.wcets(),
        graph.edges(),
        offloaded_node=task.offloaded_node,
        period=task.period,
        deadline=task.deadline,
        name=task.name,
    )


def _graph_view(graph) -> tuple:
    return (graph.nodes(), graph.wcets(), graph.edges())


def _result_view(result: TransformedTask) -> tuple:
    """Everything a transform returns, node and edge order included."""
    return (
        _graph_view(result.graph),
        _graph_view(result.gpar),
        result.sync_node,
        result.direct_predecessors,
        result.predecessors,
        result.successors,
        result.rerouted_edges,
        result.task.name,
        result.task.metadata,
    )


def _compiled_view(compiled) -> tuple:
    return (
        compiled.nodes,
        compiled.succ_ptr,
        compiled.succ_idx,
        compiled.pred_ptr,
        compiled.pred_idx,
        compiled.topo,
        compiled.in_degree,
        compiled.wcet_list,
        compiled.succ_ptr_array.tolist(),
        compiled.succ_idx_array.tolist(),
        compiled.in_degree_array.tolist(),
    )


@settings(max_examples=40, deadline=None)
@given(
    seed=_SEEDS,
    pick=st.integers(min_value=0, max_value=1_000),
    fractions=st.lists(_FRACTIONS, min_size=1, max_size=4),
    reduce_transitive=st.booleans(),
)
def test_fraction_copies_transform_like_fresh_rebuilds(
    seed, pick, fractions, reduce_transitive
):
    host = make_random_host_task(seed)
    base = host.with_offloaded_node(host.graph.nodes()[pick % len(host.graph)])
    transform(base, reduce_transitive=reduce_transitive)
    for fraction in fractions:
        task = pin_offloaded_fraction(base, fraction)
        shared = transform(task, reduce_transitive=reduce_transitive)
        fresh = transform(_rebuild(task), reduce_transitive=reduce_transitive)
        _assert_gpar_is_induced(task, shared)
        assert _result_view(shared) == _result_view(fresh)
        assert shared.graph.wcet(task.offloaded_node) == task.offloaded_wcet


def test_mutating_a_result_leaves_sibling_results_alone():
    base = make_random_heterogeneous_task(17, 0.2, n_max=60)
    first = transform(base.with_offloaded_wcet(5.0))
    sibling = base.with_offloaded_wcet(9.0)
    expected = _result_view(transform(sibling))
    assert first.rerouted_edges, "the case must reroute something"

    first.graph.add_node("intruder", 1)
    first.graph.add_edge(first.sync_node, "intruder")
    first.graph.remove_edge(first.sync_node, first.offloaded_node)
    first.graph.set_wcet(first.sync_node, 3)
    first.gpar.add_node("intruder", 1)
    first.gpar.set_wcet(first.gpar.nodes()[0], 99)
    first.direct_predecessors.add("intruder")
    first.predecessors.clear()
    first.successors.add("intruder")
    first.rerouted_edges.append(("intruder", "intruder"))

    assert _result_view(transform(sibling)) == expected
    assert _result_view(transform(sibling)) == _result_view(transform(_rebuild(sibling)))


def test_sweep_fraction_copies_share_one_kernel():
    """Pins the sharing itself: without it the sweep is correct but slow."""
    config = GeneratorConfig(n_min=10, n_max=60, c_min=1, c_max=20)
    points = chunked_offload_fraction_sweep(
        fractions=[0.05, 0.2, 0.5],
        dags_per_point=3,
        generator_config=config,
        offload_config=OffloadConfig(),
        root_seed=3,
    )
    for index in range(3):
        tasks = [point.tasks[index] for point in points]
        assert len({task.offloaded_wcet for task in tasks}) == 3
        kernel = tasks[0].graph._kernel()
        assert all(task.graph._kernel() is kernel for task in tasks)
        transformed = [transform(task).graph for task in tasks]
        kernel = transformed[0]._kernel()
        assert all(graph._kernel() is kernel for graph in transformed)


def test_threads_sharing_one_structure_match_fresh_rebuilds():
    """Threads copy, re-weight, transform, read G_par, compile and mutate
    copies of one shared base at once; every answer must match a fresh
    rebuild."""
    threads_count = 2 * (os.cpu_count() or 1) + 2
    base = make_random_heterogeneous_task(23, 0.3, n_max=60)
    base_fresh = _rebuild(base)
    fractions = [0.02 + 0.6 * index / threads_count for index in range(threads_count)]
    results: list = [None] * threads_count
    errors: list[BaseException] = []
    barrier = threading.Barrier(threads_count)

    def work(index: int) -> None:
        try:
            barrier.wait(timeout=60)
            task = pin_offloaded_fraction(base, fractions[index])
            result = transform(task)
            result.gpar_volume()  # the threads race to build the shape's G_par
            compiled = (task.compiled(), result.task.compiled())
            stack_compiled(compiled)  # builds the shared int64 arrays
            extra = f"extra{index}"
            task.graph.add_node(extra, index)
            task.graph.add_edge(task.graph.nodes()[0], extra)
            result.graph.remove_edge(result.sync_node, result.offloaded_node)
            results[index] = (task, result, compiled)
        except BaseException as error:  # noqa: BLE001 - reported below
            errors.append(error)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [
            threading.Thread(target=work, args=(index,)) for index in range(threads_count)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
            assert not thread.is_alive()
    finally:
        sys.setswitchinterval(interval)
    assert not errors, errors

    for index, (task, result, compiled) in enumerate(results):
        fresh = pin_offloaded_fraction(_rebuild(base_fresh), fractions[index])
        fresh_result = transform(fresh)
        fresh_result.graph.remove_edge(result.sync_node, result.offloaded_node)
        assert _result_view(result) == _result_view(fresh_result)
        assert _compiled_view(compiled[0]) == _compiled_view(fresh.compiled())
        fresh_transformed = transform(fresh).task.compiled()
        assert _compiled_view(compiled[1]) == _compiled_view(fresh_transformed)
        fresh.graph.add_node(f"extra{index}", index)
        fresh.graph.add_edge(fresh.graph.nodes()[0], f"extra{index}")
        assert _graph_view(task.graph) == _graph_view(fresh.graph)
        assert task.graph.topological_order() == fresh.graph.topological_order()
    assert _graph_view(base.graph) == _graph_view(base_fresh.graph)
    assert base.graph.topological_order() == base_fresh.graph.topological_order()
    assert base.graph.transitive_closure() == base_fresh.graph.transitive_closure()


# ----------------------------------------------------------------------
# Algorithm 1 against an independent edge-by-edge reference
# ----------------------------------------------------------------------
def _reference_algorithm1(task: DagTask, sync_node, reduce_transitive: bool) -> dict:
    """Lines 1-17 of Algorithm 1, edge by edge on a networkx graph.

    The loops visit nodes in ``repr`` order, as :func:`transform` does.  An
    edge ``(u, v)`` out of a node with two or more successors is transitive
    when a path of two or more edges also leads from ``u`` to ``v``.  On a
    DAG that is the usual definition; on the cyclic ``G'`` that an input
    with transitive edges can give, it is the one
    :meth:`~repro.core.graph.DirectedAcyclicGraph.transitive_edges` applies.
    """
    original = nx.DiGraph()
    original.add_nodes_from(task.graph.nodes())
    original.add_edges_from(task.graph.edges())
    v_off = task.offloaded_node
    # Line 1.
    predecessors = nx.ancestors(original, v_off)
    successors = nx.descendants(original, v_off)
    # Line 2.
    graph = original.copy()
    graph.add_node(sync_node)
    direct: set = set()
    rerouted: list = []

    def reroute(src, dst) -> None:
        graph.remove_edge(src, dst)
        graph.add_edge(sync_node, dst)
        rerouted.append((src, dst))

    # Lines 3-8.
    for v_i in sorted(original.predecessors(v_off), key=repr):
        direct.add(v_i)
        graph.remove_edge(v_i, v_off)
        graph.add_edge(v_i, sync_node)
        for v_j in sorted(graph.successors(v_i), key=repr):
            if v_j != sync_node:
                reroute(v_i, v_j)
    # Line 9.
    graph.add_edge(sync_node, v_off)
    # Lines 10-13.
    for v_i in sorted(predecessors - direct, key=repr):
        for v_j in sorted(graph.successors(v_i), key=repr):
            if v_j not in predecessors:
                reroute(v_i, v_j)
    if reduce_transitive:
        redundant = []
        for u in graph:
            if graph.out_degree(u) < 2:
                continue
            longer = set()
            for w in graph.successors(u):
                for s in graph.successors(w):
                    longer |= {s} | nx.descendants(graph, s)
            redundant.extend((u, v) for v in graph.successors(u) if v in longer)
        graph.remove_edges_from(redundant)
    # Lines 14-17.
    parallel = set(original) - predecessors - successors - {v_off}
    gpar = original.subgraph(parallel)
    return {
        "nodes": [*task.graph.nodes(), sync_node],
        "edges": set(graph.edges()),
        "gpar_nodes": [node for node in task.graph.nodes() if node in parallel],
        "gpar_edges": set(gpar.edges()),
        "direct": direct,
        "predecessors": predecessors,
        "successors": successors,
        "rerouted": rerouted,
        "acyclic": nx.is_directed_acyclic_graph(graph),
    }


def _kernel_view(graph: DirectedAcyclicGraph) -> tuple:
    kernel = graph._kernel()
    return (
        kernel.nodes,
        kernel.succ_ptr,
        kernel.succ_idx,
        kernel.pred_ptr,
        kernel.pred_idx,
        kernel.topo,
    )


def _assert_matches_reference(task: DagTask, reduce_transitive: bool) -> None:
    result = transform(task, reduce_transitive=reduce_transitive)
    _assert_gpar_is_induced(task, result)
    expected = _reference_algorithm1(task, result.sync_node, reduce_transitive)
    assert result.graph.nodes() == expected["nodes"]
    assert set(result.graph.edges()) == expected["edges"]
    assert result.graph.edge_count == len(expected["edges"])
    assert result.gpar.nodes() == expected["gpar_nodes"]
    assert set(result.gpar.edges()) == expected["gpar_edges"]
    assert result.direct_predecessors == expected["direct"]
    assert result.predecessors == expected["predecessors"]
    assert result.successors == expected["successors"]
    assert result.rerouted_edges == expected["rerouted"]
    assert result.graph.is_acyclic() == expected["acyclic"]
    if expected["acyclic"]:
        # The kernel equals the one of G' built node by node, edge by edge.
        rebuilt = DirectedAcyclicGraph()
        for node in expected["nodes"]:
            rebuilt.add_node(node, 0)
        for src, dst in sorted(expected["edges"], key=repr):
            rebuilt.add_edge(src, dst)
        assert _kernel_view(result.graph) == _kernel_view(rebuilt)
        gpar = DirectedAcyclicGraph.from_dict(
            result.gpar.wcets(), sorted(expected["gpar_edges"], key=repr)
        )
        assert _kernel_view(result.gpar) == _kernel_view(gpar)


#: Node identifier schemes whose ``repr`` order differs from creation order.
_ID_SCHEMES = {
    "v-numbered": lambda i: f"v{i + 1}",
    "v-descending": lambda i: f"v{20 - i}",
    "ints-and-strings": lambda i: i if i % 2 else f"n{i}",
}


@st.composite
def _random_dag_tasks(draw) -> DagTask:
    """A random DAG (edges from earlier to later nodes, so transitive edges
    occur) with one offloaded node: any node, a source, a sink, or a node
    with many direct predecessors."""
    count = draw(st.integers(min_value=2, max_value=12), label="nodes")
    name = _ID_SCHEMES[draw(st.sampled_from(sorted(_ID_SCHEMES)), label="ids")]
    order = draw(st.permutations(range(count)), label="creation order")
    ids = [name(i) for i in order]
    pairs = [(i, j) for i in range(count) for j in range(i + 1, count)]
    edges = draw(st.sets(st.sampled_from(pairs), max_size=3 * count), label="edges")
    place = draw(st.sampled_from(["any", "source", "sink", "fan-in"]), label="v_off")
    if place == "fan-in":
        target = draw(st.integers(min_value=1, max_value=count - 1), label="target")
        edges |= {(i, target) for i in range(target)}
    graph = DirectedAcyclicGraph.from_dict(
        {node: 1 + index for index, node in enumerate(ids)},
        [(ids[i], ids[j]) for i, j in sorted(edges)],
    )
    candidates = {
        "any": graph.nodes(),
        "source": graph.sources(),
        "sink": graph.sinks(),
        "fan-in": [ids[target]] if place == "fan-in" else [],
    }[place]
    v_off = draw(st.sampled_from(candidates), label="offloaded")
    return DagTask(graph=graph, offloaded_node=v_off)


@settings(max_examples=300, deadline=None)
@given(task=_random_dag_tasks(), reduce_transitive=st.booleans())
def test_algorithm1_matches_the_edge_by_edge_reference_on_random_dags(
    task, reduce_transitive
):
    _assert_matches_reference(task, reduce_transitive)


@settings(max_examples=60, deadline=None)
@given(
    seed=_SEEDS,
    pick=st.integers(min_value=0, max_value=1_000),
    reduce_transitive=st.booleans(),
)
def test_algorithm1_matches_the_edge_by_edge_reference_on_generated_tasks(
    seed, pick, reduce_transitive
):
    host = make_random_host_task(seed, n_max=60)
    nodes = host.graph.nodes()
    _assert_matches_reference(host.with_offloaded_node(nodes[pick % len(nodes)]), reduce_transitive)


# ----------------------------------------------------------------------
# G_par, built only when read
# ----------------------------------------------------------------------
def test_quick_scale_figure6_builds_no_gpar(monkeypatch):
    """Figure 6 simulates tau and tau' only, so no G_par is built."""
    built = []
    build = transformation._parallel_subgraph

    def counted(*args):
        built.append(args)
        return build(*args)

    monkeypatch.setattr(transformation, "_parallel_subgraph", counted)
    run_figure6()
    assert built == []
    task = make_random_heterogeneous_task(5, 0.3)
    first, second = transform(task), transform(task.with_offloaded_wcet(2.0))
    assert built == []
    assert first.gpar.nodes() == second.gpar.nodes()
    assert len(built) == 1, "one G_par structure serves every copy of a structure"


def test_transformed_task_pickles_before_and_after_reading_gpar():
    task = make_random_heterogeneous_task(9, 0.25)
    unread = transform(task)
    restored = pickle.loads(pickle.dumps(unread))
    _assert_gpar_is_induced(task, restored)
    _assert_gpar_is_induced(task, unread)
    again = pickle.loads(pickle.dumps(unread))
    assert _result_view(again) == _result_view(unread)


def test_batched_analyses_return_the_induced_gpar():
    tasks = [make_random_heterogeneous_task(seed, 0.3) for seed in range(4)]
    for task, analysis in zip(tasks, analyse_many(tasks, cores=(2, 4))):
        _assert_gpar_is_induced(task, analysis.transformed)
        assert _result_view(analysis.transformed) == _result_view(transform(task))
