"""Cache-invalidation tests of the dense-index graph kernel.

The graph memoises its derived metrics behind generation counters, and
copies share the structure and its caches copy-on-write (see
``docs/performance.md``).  These tests deliberately *warm* every cache, then
mutate the graph in each possible way, and assert that all recomputed values
match a freshly rebuilt graph -- i.e. the caches can never leak stale data,
and one copy's mutation never shows in another.  A Hypothesis property
interleaves random mutations, copies and queries to hunt for invalidation
orderings the unit tests missed.

The last tests hold graphs born as their dense kernel (``from_dict`` and
the other builders from index space) to graphs built through ``add_node``
and ``add_edge``, which hold index rows: the same answers and the same
exceptions, through mutation, cache invalidation, copies, pickling and
threads.
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


# ----------------------------------------------------------------------
# Graphs born as their dense kernel
# ----------------------------------------------------------------------
def _edge_by_edge(wcets: dict, edges: list) -> DirectedAcyclicGraph:
    """The graph built through ``add_node`` and ``add_edge`` alone."""
    graph = DirectedAcyclicGraph()
    for node, wcet in wcets.items():
        graph.add_node(node, wcet)
    for src, dst in edges:
        graph.add_edge(src, dst)
    return graph


def _outcome(build, *args) -> tuple:
    """``(graph, None)``, or ``(None, (exception type, message))``."""
    try:
        return build(*args), None
    except Exception as error:  # noqa: BLE001 - compared by the caller
        return None, (type(error), str(error))


def _structure_view(graph: DirectedAcyclicGraph) -> dict:
    """Every structural answer, read through the kernel and the rows."""
    view = {
        "edges": graph.edges(),
        "edge_count": graph.edge_count,
        "sources": graph.sources(),
        "sinks": graph.sinks(),
        "acyclic": graph.is_acyclic(),
        "cycle": graph.find_cycle(),
        "nodes": graph.nodes(),
        "wcets": graph.wcets(),
    }
    if view["acyclic"]:
        kernel = graph._kernel()
        view["kernel"] = (
            kernel.nodes,
            kernel.succ_ptr,
            kernel.succ_idx,
            kernel.pred_ptr,
            kernel.pred_idx,
            kernel.in_degree,
            kernel.topo,
        )
    for node in graph.nodes():
        view[node] = (
            graph.successors(node),
            graph.predecessors(node),
            graph.out_degree(node),
            graph.in_degree(node),
        )
    return view


#: Faults injected into an otherwise valid edge list.
_EDGE_FAULTS = ("self-loop", "duplicate", "unknown-src", "unknown-dst")


@st.composite
def _graph_inputs(draw, forward_only: bool = False) -> tuple[dict, list]:
    """A WCET mapping and an edge list for ``from_dict``: edges between
    distinct known nodes, some cycles unless ``forward_only``, and unless
    ``forward_only`` a bad WCET and up to two faulty edges."""
    count = draw(st.integers(min_value=0, max_value=7), label="nodes")
    ids = [i if i % 3 == 1 else f"v{count - i}" for i in range(count)]
    wcets = {node: draw(st.integers(0, 9), label="wcet") for node in ids}
    pairs = [
        (ids[i], ids[j])
        for i in range(count)
        for j in range(count)
        if i < j or (i != j and not forward_only)
    ]
    edges = draw(st.lists(st.sampled_from(pairs), unique=True, max_size=12)) if pairs else []
    if forward_only or not ids:
        return wcets, edges
    bad = draw(st.sampled_from([-1, float("nan"), float("inf"), "x", 0, 0, 0, 0]), label="WCET")
    if bad != 0:
        wcets[draw(st.sampled_from(ids), label="bad node")] = bad
    for fault in draw(st.lists(st.sampled_from(_EDGE_FAULTS), max_size=2), label="faults"):
        node = draw(st.sampled_from(ids), label="endpoint")
        if fault == "self-loop":
            edge = (node, node)
        elif fault == "duplicate" and edges:
            edge = draw(st.sampled_from(edges), label="duplicate")
        elif fault == "unknown-src":
            edge = ("ghost", node)
        else:
            edge = (node, 404)
        edges.insert(draw(st.integers(0, len(edges)), label="position"), edge)
    return wcets, edges


@settings(max_examples=300, deadline=None)
@given(inputs=_graph_inputs())
def test_from_dict_behaves_like_add_node_and_add_edge(inputs):
    wcets, edges = inputs
    born, born_error = _outcome(DirectedAcyclicGraph.from_dict, wcets, iter(edges))
    built, built_error = _outcome(_edge_by_edge, wcets, edges)
    assert born_error == built_error
    if born is not None:
        # Every graph, one with a cycle too, is born as its kernel without
        # rows; the graph built edge by edge holds its rows.
        assert born._structure.kernel is not None and born._structure.rows is None
        assert built._structure.rows is not None
        assert _structure_view(born) == _structure_view(built)
        assert born == built


def _kernel_born(wcets: dict, edges: list) -> DirectedAcyclicGraph:
    graph = DirectedAcyclicGraph.from_dict(wcets, edges)
    assert graph._structure.rows is None
    return graph


@settings(max_examples=100, deadline=None)
@given(inputs=_graph_inputs(forward_only=True), data=st.data())
def test_kernel_born_graphs_mutate_like_graphs_built_edge_by_edge(inputs, data):
    """Mutations, cache invalidation and copy-on-write siblings of a graph
    born as its kernel match a graph built edge by edge."""
    wcets, edges = inputs
    born, built = _kernel_born(wcets, edges), _edge_by_edge(wcets, edges)
    sibling = born.copy()
    sibling_before = _snapshot(sibling)
    created = 0
    for _ in range(data.draw(st.integers(1, 8), label="steps")):
        nodes = born.nodes()
        operation = data.draw(
            st.sampled_from(
                ["add_node", "add_edge", "remove_edge", "remove_node", "set_wcet", "invalidate"]
            ),
            label="operation",
        )
        if operation == "add_node" or not nodes:
            wcet = data.draw(st.integers(0, 9), label="wcet")
            for graph in (born, built):
                graph.add_node(f"new{created}", wcet)
            created += 1
        elif operation == "add_edge" and len(nodes) >= 2:
            i = data.draw(st.integers(0, len(nodes) - 2), label="src")
            j = data.draw(st.integers(i + 1, len(nodes) - 1), label="dst")
            if not built.has_edge(nodes[i], nodes[j]):
                for graph in (born, built):
                    graph.add_edge(nodes[i], nodes[j])
        elif operation == "remove_edge" and built.edge_count:
            edge = data.draw(st.sampled_from(built.edges()), label="edge")
            for graph in (born, built):
                graph.remove_edge(*edge)
        elif operation == "remove_node":
            node = data.draw(st.sampled_from(nodes), label="node")
            for graph in (born, built):
                graph.remove_node(node)
        elif operation == "set_wcet":
            node = data.draw(st.sampled_from(nodes), label="node")
            wcet = data.draw(st.integers(0, 9), label="wcet")
            for graph in (born, built):
                graph.set_wcet(node, wcet)
        else:
            born.invalidate_caches()
        assert _snapshot(born) == _snapshot(built)
        assert _structure_view(born) == _structure_view(built)
    assert _snapshot(sibling) == sibling_before
    assert sibling == _kernel_born(wcets, edges)


def test_invalidate_caches_turns_the_kernel_into_rows_before_dropping_it():
    graph = _kernel_born({"a": 1, "b": 2, "c": 3}, [("a", "b"), ("a", "c")])
    sibling = graph.copy()
    kernel = graph._kernel()
    before = _snapshot(graph)
    graph.invalidate_caches()
    # Dropped for every sharer: the rows are all the structure has left.
    structure = graph._structure
    assert structure is sibling._structure
    assert structure.kernel is None
    assert structure.rows == [[1, 2], [], []]
    assert structure.nodes is not kernel.nodes and structure.nodes == kernel.nodes
    assert _snapshot(graph) == before
    assert _snapshot(sibling) == before


def test_pickled_kernel_born_copies_share_one_structure():
    graph = _kernel_born(
        {"a": 1, "b": 2, "c": 3, "d": 4}, [("a", "b"), ("a", "c"), ("b", "d"), ("c", "d")]
    )
    copies = [graph, graph.copy(), graph.copy()]
    copies[1].set_wcet("b", 9)
    loaded = pickle.loads(pickle.dumps(copies))
    structure = loaded[0]._structure
    assert all(copy._structure is structure for copy in loaded)
    # The kernel's CSR travels, not rows.
    assert structure.kernel is not None and structure.rows is None
    assert [_snapshot(copy) for copy in loaded] == [_snapshot(copy) for copy in copies]
    assert [copy.wcets() for copy in loaded] == [copy.wcets() for copy in copies]
    loaded[0].add_edge("b", "c")
    assert not loaded[1].has_edge("b", "c")
    assert _snapshot(loaded[1]) == _snapshot(copies[1])
    _assert_matches_fresh(loaded[0])


def test_threads_read_and_mutate_copies_of_one_shared_structure():
    """Threads read copies of one kernel-born structure at once, through
    the queries that read rows (``has_edge``) and the kernel; the shared
    structure stays the kernel alone, and a thread that mutates its copy
    leaves the others alone."""
    import sys
    import threading

    count = 300
    wcets = {f"n{i}": i % 7 for i in range(count)}
    edges = [(f"n{i}", f"n{j}") for i in range(count) for j in (2 * i + 1, 2 * i + 2) if j < count]
    base = _kernel_born(wcets, edges)
    shared = base._structure
    expected = _edge_by_edge(wcets, edges)
    answers = _structure_view(expected)
    threads_count = 8
    copies = [base.copy() for _ in range(threads_count)]
    views: list = [None] * threads_count
    errors: list[BaseException] = []
    barrier = threading.Barrier(threads_count)

    def work(index: int) -> None:
        try:
            graph = copies[index]
            barrier.wait(timeout=60)
            assert graph.has_edge(*edges[index]) and not graph.has_edge(*edges[index][::-1])
            views[index] = _structure_view(graph)
            if index % 2:
                graph.add_node(f"extra{index}", 1)
                graph.add_edge("n0", f"extra{index}")
        except BaseException as error:  # noqa: BLE001 - reported below
            errors.append(error)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(index,)) for index in range(threads_count)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
            assert not thread.is_alive()
    finally:
        sys.setswitchinterval(interval)
    assert not errors, errors
    assert all(view == answers for view in views)
    assert base._structure is shared and shared.rows is None
    assert _structure_view(base) == answers
    for index, graph in enumerate(copies):
        assert graph.has_edge("n0", f"extra{index}") == bool(index % 2)
        assert (graph._structure is shared) == (not index % 2)


#: The generator's preset names (``repro.generator.presets.preset_by_name``).
_PRESET_NAMES = ("small", "small-fig7-m2", "small-fig7-m8", "large", "large-fig6", "large-upper")


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    count=st.integers(min_value=0, max_value=300),
    preset=st.sampled_from(_PRESET_NAMES),
    pending=st.booleans(),
)
def test_one_wcet_draw_equals_one_draw_per_node(seed, count, preset, pending):
    """``DagStructureGenerator.assign_wcets`` draws every WCET in one call;
    numpy gives the values, and leaves the RNG in the state, of one scalar
    draw per node, also with half of a 64-bit output buffered beforehand."""
    import numpy as np

    from repro.generator.presets import preset_by_name

    config = preset_by_name(preset)
    together, one_by_one = np.random.default_rng(seed), np.random.default_rng(seed)
    while pending and not together.bit_generator.state["has_uint32"]:
        together.integers(0, 10)
        one_by_one.integers(0, 10)
    values = together.integers(config.c_min, config.c_max + 1, size=count).tolist()
    expected = [int(one_by_one.integers(config.c_min, config.c_max + 1)) for _ in range(count)]
    assert values == expected
    assert all(type(value) is int for value in values)
    assert together.bit_generator.state == one_by_one.bit_generator.state
