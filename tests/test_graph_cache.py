"""Cache-invalidation tests of the dense-index graph kernel.

The graph memoises its derived metrics behind generation counters, and
copies share the structure and its caches copy-on-write (see
``docs/performance.md``).  These tests deliberately *warm* every cache, then
mutate the graph in each possible way, and assert that all recomputed values
match a freshly rebuilt graph -- i.e. the caches can never leak stale data,
and one copy's mutation never shows in another.  A Hypothesis property
interleaves random mutations, copies and queries to hunt for invalidation
orderings the unit tests missed.
"""

from __future__ import annotations

import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.graph import DirectedAcyclicGraph


def _rebuild(graph: DirectedAcyclicGraph) -> DirectedAcyclicGraph:
    """A cache-free reconstruction with the same node insertion order."""
    return DirectedAcyclicGraph.from_dict(
        {node: graph.wcet(node) for node in graph.nodes()}, graph.edges()
    )


def _snapshot(graph: DirectedAcyclicGraph) -> dict:
    """Every cached metric of the graph, via the public API."""
    nodes = graph.nodes()
    pair_sample = nodes[:8]
    return {
        "topo": graph.topological_order(),
        "volume": graph.volume(),
        "length": graph.critical_path_length(),
        "path": graph.critical_path(),
        "finish": graph.earliest_finish_times(),
        "tails": graph.longest_tail_lengths(),
        "closure": graph.transitive_closure(),
        "descendants": {node: graph.descendants(node) for node in nodes},
        "ancestors": {node: graph.ancestors(node) for node in nodes},
        "parallel": {
            (a, b): graph.are_parallel(a, b)
            for a in pair_sample
            for b in pair_sample
        },
        "transitive": graph.transitive_edges(),
    }


def _warm(graph: DirectedAcyclicGraph) -> dict:
    """Read every cached metric (filling the caches) and return the values."""
    return _snapshot(graph)


def _assert_matches_fresh(graph: DirectedAcyclicGraph) -> None:
    assert _snapshot(graph) == _snapshot(_rebuild(graph))


@pytest.fixture
def warm_diamond() -> DirectedAcyclicGraph:
    """A diamond DAG with every cache already populated."""
    graph = DirectedAcyclicGraph.from_dict(
        {"a": 1, "b": 2, "c": 5, "d": 3},
        [("a", "b"), ("a", "c"), ("b", "d"), ("c", "d")],
    )
    _warm(graph)
    return graph


class TestInvalidationAfterEveryMutation:
    def test_add_node_invalidates(self, warm_diamond):
        warm_diamond.add_node("e", 7)
        warm_diamond.add_edge("d", "e")
        _assert_matches_fresh(warm_diamond)

    def test_remove_node_invalidates(self, warm_diamond):
        warm_diamond.remove_node("c")
        _assert_matches_fresh(warm_diamond)

    def test_add_edge_invalidates(self, warm_diamond):
        warm_diamond.add_edge("b", "c")
        _assert_matches_fresh(warm_diamond)

    def test_remove_edge_invalidates(self, warm_diamond):
        warm_diamond.remove_edge("a", "c")
        _assert_matches_fresh(warm_diamond)

    def test_set_wcet_invalidates_weighted_metrics(self, warm_diamond):
        before = _snapshot(warm_diamond)
        warm_diamond.set_wcet("b", 50)
        after = _snapshot(warm_diamond)
        assert after["volume"] == before["volume"] + 48
        assert after["length"] == 1 + 50 + 3
        assert after["path"] == ["a", "b", "d"]
        _assert_matches_fresh(warm_diamond)

    def test_set_wcet_preserves_structural_caches(self, warm_diamond):
        structure_before = warm_diamond.cache_generation[0]
        warm_diamond.set_wcet("b", 50)
        warm_diamond.descendants("a")
        assert warm_diamond.cache_generation[0] == structure_before

    def test_mutation_after_reading_every_metric_chain(self, warm_diamond):
        # The full chain of the issue: read everything, mutate each way in
        # turn, re-reading (and re-warming) between mutations.
        warm_diamond.set_wcet("c", 9)
        _assert_matches_fresh(warm_diamond)
        warm_diamond.add_node("e", 4)
        _assert_matches_fresh(warm_diamond)
        warm_diamond.add_edge("d", "e")
        _assert_matches_fresh(warm_diamond)
        warm_diamond.remove_edge("a", "b")
        _assert_matches_fresh(warm_diamond)
        warm_diamond.remove_node("b")
        _assert_matches_fresh(warm_diamond)


class TestCacheHygiene:
    def test_returned_containers_are_copies(self, warm_diamond):
        warm_diamond.topological_order().append("junk")
        warm_diamond.earliest_finish_times()["junk"] = -1
        warm_diamond.longest_tail_lengths()["junk"] = -1
        warm_diamond.critical_path().append("junk")
        warm_diamond.transitive_closure()["a"].add("junk")
        warm_diamond.descendants("a").add("junk")
        _assert_matches_fresh(warm_diamond)

    def test_copy_shares_results_but_diverges_after_mutation(self, warm_diamond):
        original = _snapshot(warm_diamond)
        clone = warm_diamond.copy()
        assert _snapshot(clone) == original
        clone.set_wcet("c", 99)
        clone.add_edge("b", "c")
        _assert_matches_fresh(clone)
        # The original is untouched by the clone's mutations.
        assert _snapshot(warm_diamond) == original

    def test_copies_share_one_kernel_until_a_structural_mutation(self, warm_diamond):
        clone = warm_diamond.copy()
        clone.set_wcet("b", 40)
        assert clone.compiled().succ_idx is warm_diamond.compiled().succ_idx
        assert clone.compiled().wcet_list != warm_diamond.compiled().wcet_list
        # The original mutates this time; the copy keeps the old structure.
        warm_diamond.add_edge("b", "c")
        assert not clone.has_edge("b", "c")
        assert clone.compiled().succ_idx is not warm_diamond.compiled().succ_idx
        _assert_matches_fresh(clone)
        _assert_matches_fresh(warm_diamond)

    def test_unpickled_copies_do_not_share_mutations(self, warm_diamond):
        # Pickle memoises the shared structure, so the two graphs come back
        # sharing one; the first mutation after unpickling must un-share it.
        a, b = pickle.loads(pickle.dumps([warm_diamond, warm_diamond.copy()]))
        before = _snapshot(b)
        a.add_edge("b", "c")
        assert a.has_edge("b", "c")
        assert not b.has_edge("b", "c")
        assert _snapshot(b) == before
        _assert_matches_fresh(a)
        _assert_matches_fresh(b)

    def test_pickle_round_trip_drops_caches_but_not_results(self, warm_diamond):
        restored = pickle.loads(pickle.dumps(warm_diamond))
        assert restored == warm_diamond
        assert _snapshot(restored) == _snapshot(warm_diamond)
        restored.add_edge("b", "c")
        _assert_matches_fresh(restored)

    def test_invalidate_caches_changes_nothing(self, warm_diamond):
        before = _snapshot(warm_diamond)
        warm_diamond.invalidate_caches()
        assert _snapshot(warm_diamond) == before

    def test_cycle_then_repair_is_served_correctly(self):
        graph = DirectedAcyclicGraph.from_dict(
            {"a": 1, "b": 2, "c": 3}, [("a", "b"), ("b", "c")]
        )
        _warm(graph)
        graph.add_edge("c", "a")  # now cyclic
        assert not graph.is_acyclic()
        # BFS fallback on a cyclic graph: "a" reaches itself around the cycle.
        assert graph.descendants("a") == {"a", "b", "c"}
        graph.remove_edge("c", "a")  # acyclic again
        _assert_matches_fresh(graph)


def _model_graph(wcets: dict, edges: set) -> DirectedAcyclicGraph:
    """A fresh graph built from an independently tracked model."""
    return DirectedAcyclicGraph.from_dict(wcets, sorted(edges, key=repr))


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_interleaved_mutations_and_queries_match_a_fresh_graph(data):
    """Random mutation/copy/query interleavings never observe stale caches.

    The operations run over a small pool of graphs; ``copy`` adds a copy of
    a member, sharing its structure, so one sharer's mutations meet caches
    the others have warmed.  Each member is checked against a model kept
    apart from the graphs, which a leak between sharers would not match.
    Edges are only ever added from an earlier-inserted node to a later one,
    which keeps every graph acyclic by construction.
    """
    pool = [DirectedAcyclicGraph()]
    models: list[tuple[dict, set]] = [({}, set())]
    created = 0
    steps = data.draw(st.integers(min_value=1, max_value=25), label="steps")
    for _ in range(steps):
        member = data.draw(st.integers(0, len(pool) - 1), label="graph")
        graph, (wcets, edges) = pool[member], models[member]
        nodes = graph.nodes()
        operation = data.draw(
            st.sampled_from(
                [
                    "add_node",
                    "add_edge",
                    "remove_edge",
                    "remove_node",
                    "set_wcet",
                    "copy",
                    "check",
                ]
            ),
            label="operation",
        )
        if operation == "copy" and len(pool) < 4:
            pool.append(graph.copy())
            models.append((dict(wcets), set(edges)))
        elif operation == "add_node" or not nodes:
            wcet = data.draw(st.integers(0, 9), label="wcet")
            graph.add_node(f"n{created}", wcet)
            wcets[f"n{created}"] = wcet
            created += 1
        elif operation == "add_edge" and len(nodes) >= 2:
            i = data.draw(st.integers(0, len(nodes) - 2), label="src")
            j = data.draw(st.integers(i + 1, len(nodes) - 1), label="dst")
            if not graph.has_edge(nodes[i], nodes[j]):
                graph.add_edge(nodes[i], nodes[j])
                edges.add((nodes[i], nodes[j]))
        elif operation == "remove_edge" and graph.edge_count:
            current = graph.edges()
            index = data.draw(st.integers(0, len(current) - 1), label="edge")
            graph.remove_edge(*current[index])
            edges.discard(current[index])
        elif operation == "remove_node":
            node = nodes[data.draw(st.integers(0, len(nodes) - 1), label="node")]
            graph.remove_node(node)
            del wcets[node]
            edges -= {edge for edge in edges if node in edge}
        elif operation == "set_wcet":
            node = nodes[data.draw(st.integers(0, len(nodes) - 1), label="node")]
            wcet = data.draw(st.integers(0, 9), label="wcet")
            graph.set_wcet(node, wcet)
            wcets[node] = wcet
        else:
            for other, (other_wcets, other_edges) in zip(pool, models):
                assert _snapshot(other) == _snapshot(_model_graph(other_wcets, other_edges))
        # Keep every member's caches warm between mutations so every
        # mutation really does hit a populated (possibly shared) cache.
        for other in pool:
            other.volume()
            other.critical_path_length()
            if other.nodes():
                other.descendants(other.nodes()[0])
    for graph, (wcets, edges) in zip(pool, models):
        assert graph.nodes() == list(wcets)
        assert graph == _model_graph(wcets, edges)
        assert _snapshot(graph) == _snapshot(_model_graph(wcets, edges))
