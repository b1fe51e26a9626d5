"""Property-based tests of the DAG substrate against a networkx oracle."""

from __future__ import annotations

import pickle

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.exceptions import CycleError
from repro.core.graph import DirectedAcyclicGraph

from strategies import make_random_host_task


def _to_networkx(graph: DirectedAcyclicGraph) -> nx.DiGraph:
    oracle = nx.DiGraph()
    for node in graph.nodes():
        oracle.add_node(node, wcet=graph.wcet(node))
    oracle.add_edges_from(graph.edges())
    return oracle


def _longest_path_length_weighted(oracle: nx.DiGraph) -> float:
    """Node-weighted longest path length computed independently with networkx."""
    best = 0.0
    finish: dict = {}
    for node in nx.topological_sort(oracle):
        incoming = max(
            (finish[p] for p in oracle.predecessors(node)), default=0.0
        )
        finish[node] = incoming + oracle.nodes[node]["wcet"]
        best = max(best, finish[node])
    return best


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(min_value=0, max_value=5_000))
def test_topological_order_respects_every_edge(seed):
    graph = make_random_host_task(seed).graph
    order = graph.topological_order()
    assert sorted(map(repr, order)) == sorted(map(repr, graph.nodes()))
    position = {node: index for index, node in enumerate(order)}
    for src, dst in graph.edges():
        assert position[src] < position[dst]


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(min_value=0, max_value=5_000))
def test_reachability_matches_networkx(seed):
    graph = make_random_host_task(seed).graph
    oracle = _to_networkx(graph)
    for node in graph.nodes():
        assert graph.descendants(node) == nx.descendants(oracle, node)
        assert graph.ancestors(node) == nx.ancestors(oracle, node)


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(min_value=0, max_value=5_000))
def test_critical_path_matches_networkx(seed):
    graph = make_random_host_task(seed).graph
    oracle = _to_networkx(graph)
    assert graph.critical_path_length() == _longest_path_length_weighted(oracle)
    # The reported critical path must itself be a path of that exact length.
    path = graph.critical_path()
    assert sum(graph.wcet(node) for node in path) == graph.critical_path_length()
    for first, second in zip(path, path[1:]):
        assert graph.has_edge(first, second)


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(min_value=0, max_value=5_000))
def test_longest_path_through_is_bounded_by_critical_path(seed):
    graph = make_random_host_task(seed).graph
    length = graph.critical_path_length()
    on_critical = 0
    for node in graph.nodes():
        through = graph.longest_path_through(node)
        assert through <= length + 1e-9
        if graph.lies_on_critical_path(node):
            on_critical += 1
            assert through == length
    # At least the nodes of the reported critical path lie on one.
    assert on_critical >= len(graph.critical_path())


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(min_value=0, max_value=5_000))
def test_transitive_reduction_matches_networkx(seed):
    graph = make_random_host_task(seed).graph
    # Add a few transitive shortcuts so the reduction has something to do.
    closure = graph.transitive_closure()
    added = 0
    for node in graph.nodes():
        for descendant in sorted(closure[node], key=repr):
            if not graph.has_edge(node, descendant) and added < 5:
                # Only add an edge if it is genuinely transitive (a longer
                # path exists), which is true by construction here.
                if any(
                    descendant in closure[mid] for mid in graph.successors(node)
                ):
                    graph.add_edge(node, descendant)
                    added += 1
    reduced = graph.transitive_reduction()
    oracle = nx.transitive_reduction(_to_networkx(graph))
    assert set(reduced.edges()) == set(oracle.edges())


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(min_value=0, max_value=5_000))
def test_generated_graphs_have_single_source_and_sink(seed):
    graph = make_random_host_task(seed).graph
    assert len(graph.sources()) == 1
    assert len(graph.sinks()) == 1
    assert graph.is_acyclic()
    assert graph.transitive_edges() == []


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(min_value=0, max_value=5_000))
def test_are_parallel_is_symmetric_and_consistent(seed):
    graph = make_random_host_task(seed, n_max=20).graph
    nodes = graph.nodes()
    for first in nodes[:8]:
        for second in nodes[:8]:
            if first == second:
                assert not graph.are_parallel(first, second)
                continue
            assert graph.are_parallel(first, second) == graph.are_parallel(
                second, first
            )
            assert graph.are_parallel(first, second) == (
                not graph.has_path(first, second)
                and not graph.has_path(second, first)
            )


@st.composite
def _cyclic_inputs(draw) -> tuple[dict, list]:
    """A WCET mapping and an edge list with at least one directed cycle;
    identifiers mix integers and strings, so ``repr`` order is not
    insertion order."""
    count = draw(st.integers(min_value=2, max_value=8), label="nodes")
    ids = [i if i % 3 == 1 else f"v{count - i}" for i in range(count)]
    pairs = [(a, b) for a in ids for b in ids if a != b]
    edges = draw(st.lists(st.sampled_from(pairs), unique=True, max_size=16), label="edges")
    loop = draw(st.lists(st.sampled_from(ids), min_size=2, unique=True), label="cycle")
    for edge in zip(loop, loop[1:] + loop[:1]):
        if edge not in edges:
            edges.insert(draw(st.integers(0, len(edges)), label="position"), edge)
    wcets = {node: draw(st.integers(0, 9), label="wcet") for node in ids}
    return wcets, edges


def _built_edge_by_edge(wcets: dict, edges: list) -> DirectedAcyclicGraph:
    graph = DirectedAcyclicGraph()
    for node, wcet in wcets.items():
        graph.add_node(node, wcet)
    for src, dst in edges:
        graph.add_edge(src, dst)
    return graph


_CYCLIC_BUILDS = {
    "from_dict": lambda wcets, edges: DirectedAcyclicGraph.from_dict(wcets, edges),
    "edge_by_edge": _built_edge_by_edge,
    "pickled_copy": lambda wcets, edges: pickle.loads(
        pickle.dumps(DirectedAcyclicGraph.from_dict(wcets, edges).copy())
    ),
}


@pytest.mark.parametrize("build", sorted(_CYCLIC_BUILDS))
@settings(max_examples=150, deadline=None)
@given(inputs=_cyclic_inputs())
def test_reachability_on_graphs_with_cycles_matches_networkx(build, inputs):
    """A node on a cycle counts among its own descendants and ancestors; an
    edge ``(u, v)`` out of a node with two or more successors is transitive
    when ``v`` is reachable from one of them (itself included, by a
    cycle)."""
    wcets, edges = inputs
    graph = _CYCLIC_BUILDS[build](wcets, edges)
    oracle = nx.DiGraph()
    oracle.add_nodes_from(wcets)
    oracle.add_edges_from(edges)
    on_cycle = {
        node
        for component in nx.strongly_connected_components(oracle)
        if len(component) > 1
        for node in component
    }

    def reach(node, forward: bool = True) -> set:
        found = nx.descendants(oracle, node) if forward else nx.ancestors(oracle, node)
        return found | ({node} & on_cycle)

    assert not graph.is_acyclic()
    with pytest.raises(CycleError):
        graph.topological_order()
    closure = graph.transitive_closure()
    assert list(closure) == list(wcets)
    for node in wcets:
        assert graph.descendants(node) == reach(node) == closure[node]
        assert graph.ancestors(node) == reach(node, forward=False)
        assert graph.successors(node) == set(oracle.successors(node))
        assert graph.predecessors(node) == set(oracle.predecessors(node))
        for other in wcets:
            assert graph.has_path(node, other) == nx.has_path(oracle, node, other)
    transitive = graph.transitive_edges()
    assert len(transitive) == len(set(transitive))
    assert set(transitive) == {
        (src, dst)
        for src in wcets
        if oracle.out_degree(src) >= 2
        for dst in oracle.successors(src)
        if any(dst in reach(mid) for mid in oracle.successors(src))
    }
    cycle = graph.find_cycle()
    assert len(cycle) >= 2 and len(set(cycle)) == len(cycle)
    assert all(oracle.has_edge(*edge) for edge in zip(cycle, cycle[1:] + cycle[:1]))
