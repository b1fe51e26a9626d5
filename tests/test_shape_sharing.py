"""What a paired ``C_off`` sweep builds once per DAG shape, and what per copy.

A Figure 6 pass re-weights a few shapes into many copies.  Per copy it
builds one WCET vector, read in one pass off the weight map; per shape it
builds the structure, Algorithm 1's result and the default device map of
the kernel lanes.  These tests pin the invariants that sharing rests on
and hold each shortcut to the longer way it replaced:

* every graph's weight map lists its nodes in its structure's order,
  whichever builder or mutation made it, so the one-pass vector is the
  per-node lookup vector; ``wcet_list`` is built on first read and kept;
* the copies of one shape share one device-assignment array, which equals
  a fresh build and is stored once per kernel call, and every error is
  raised as before;
* a column's lane table built with numpy equals one tuple per lane;
* Algorithm 1's single-source ``Pred``/``Succ`` masks equal the all-node
  tables' entries, and graphs built from trusted rows equal graphs built
  through the checking builder.
"""

from __future__ import annotations

import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.compiled import compile_graph, compile_task, concat_distinct, stack_compiled
from repro.core.exceptions import SimulationError
from repro.core.graph import DirectedAcyclicGraph
from repro.core.task import DagTask
from repro.core.transformation import transform
from repro.generator.offload import pin_offloaded_fraction
from repro.simulation import _kernels
from repro.simulation.engine import _device_assignment
from repro.simulation.platform import Platform
from repro.simulation.schedulers import (
    BreadthFirstPolicy,
    CriticalPathFirstPolicy,
    DepthFirstPolicy,
    RandomPolicy,
    ShortestFirstPolicy,
    policy_vector_kind,
)
from repro.simulation.vectorized_compiled import pack_column

from strategies import make_random_heterogeneous_task


# ----------------------------------------------------------------------
# The weight map lists the nodes in the structure's order
# ----------------------------------------------------------------------
@st.composite
def _shapes(draw, forward_only: bool = True) -> tuple[dict, list]:
    """WCETs over mixed identifiers (insertion order is not sorted order)
    and distinct edges; forward edges only, so a DAG, unless told so."""
    count = draw(st.integers(min_value=1, max_value=8), label="nodes")
    ids = [i if i % 3 == 1 else f"v{count - i}" for i in range(count)]
    wcets = {node: draw(st.sampled_from([0, 1, 2.5, 7]), label="wcet") for node in ids}
    pairs = [
        (ids[i], ids[j])
        for i in range(count)
        for j in range(count)
        if i < j or (i != j and not forward_only)
    ]
    edges = draw(st.lists(st.sampled_from(pairs), unique=True, max_size=12)) if pairs else []
    return wcets, edges


def _edge_by_edge(wcets: dict, edges: list) -> DirectedAcyclicGraph:
    graph = DirectedAcyclicGraph()
    for node, wcet in wcets.items():
        graph.add_node(node, wcet)
    for src, dst in edges:
        graph.add_edge(src, dst)
    return graph


def _index_pairs(wcets: dict, edges: list) -> tuple[list, list, list]:
    nodes = list(wcets)
    index = {node: i for i, node in enumerate(nodes)}
    return nodes, list(wcets.values()), [(index[src], index[dst]) for src, dst in edges]


def _rows(count: int, pairs: list) -> list[list[int]]:
    rows: list[list[int]] = [[] for _ in range(count)]
    for src, dst in pairs:
        rows[src].append(dst)
    return [sorted(row) for row in rows]


def _removed_and_readded(wcets, edges, data):
    graph = _edge_by_edge(wcets, edges)
    node = data.draw(st.sampled_from(list(wcets)), label="removed")
    incident = [(src, dst) for src, dst in edges if node in (src, dst)]
    graph.remove_node(node)
    graph.add_node(node, wcets[node])
    for src, dst in incident:
        graph.add_edge(src, dst)
    return graph


def _reweighted_copy(wcets, edges, data):
    graph = DirectedAcyclicGraph.from_dict(wcets, edges)
    graph.compiled()  # a cached view the copy must not reuse
    clone = graph.copy()
    clone.set_wcet(data.draw(st.sampled_from(list(wcets)), label="node"), 3.25)
    return clone


def _transformed(wcets, edges, data, gpar: bool = False):
    graph = DirectedAcyclicGraph.from_dict(wcets, edges)
    task = DagTask(graph=graph, offloaded_node=data.draw(st.sampled_from(list(wcets))))
    result = transform(task)
    return result.gpar if gpar else result.graph


def _subgraph(wcets, edges, data):
    graph = DirectedAcyclicGraph.from_dict(wcets, edges)
    return graph.subgraph(data.draw(st.sets(st.sampled_from(list(wcets))), label="kept"))


def _reduced(wcets, edges, data):
    # Every implied edge added, then removed again by the reduction.
    closure = DirectedAcyclicGraph.from_dict(wcets, edges).transitive_closure()
    implied = [
        (src, dst) for src, reach in closure.items() for dst in reach if (src, dst) not in edges
    ]
    return DirectedAcyclicGraph.from_dict(wcets, edges + implied).transitive_reduction()


def _invalidated(wcets, edges, data):
    graph = DirectedAcyclicGraph.from_dict(wcets, edges)
    graph.compiled()
    graph.invalidate_caches()
    return graph


#: Every way a graph comes about: its builders, mutations and round trips.
_PATHS = {
    "add_node-add_edge": lambda wcets, edges, data: _edge_by_edge(wcets, edges),
    "remove_node-readd": _removed_and_readded,
    "from_dict": lambda wcets, edges, data: DirectedAcyclicGraph.from_dict(wcets, edges),
    "_from_indices": lambda wcets, edges, data: DirectedAcyclicGraph._from_indices(
        *_index_pairs(wcets, edges)
    ),
    "_from_rows": lambda wcets, edges, data: DirectedAcyclicGraph._from_rows(
        list(wcets), list(wcets.values()), _rows(len(wcets), _index_pairs(wcets, edges)[2])
    ),
    "copy-set_wcet": _reweighted_copy,
    "transform": _transformed,
    "transform-gpar": lambda wcets, edges, data: _transformed(wcets, edges, data, gpar=True),
    "subgraph": _subgraph,
    "transitive_reduction": _reduced,
    "pickle": lambda wcets, edges, data: pickle.loads(
        pickle.dumps(_edge_by_edge(wcets, edges))
    ),
    "pickle-kernel-born": lambda wcets, edges, data: pickle.loads(
        pickle.dumps(DirectedAcyclicGraph.from_dict(wcets, edges))
    ),
    "invalidate_caches": _invalidated,
}


@pytest.mark.parametrize("path", _PATHS.values(), ids=_PATHS.keys())
@settings(max_examples=60, deadline=None)
@given(shape=_shapes(), data=st.data())
def test_the_weight_map_lists_the_structure_order(path, shape, data):
    graph = path(*shape, data)
    kernel = graph._kernel()
    assert list(graph._wcet) == kernel.nodes
    view = compile_graph(graph)
    lookup = np.array([graph.wcet(node) for node in kernel.nodes], dtype=np.float64)
    assert view.wcet.dtype == np.float64
    assert view.wcet.tolist() == lookup.tolist()
    assert view.node_count == len(view) == len(kernel.nodes)
    # The list is built on first read, equals the vector, and is kept.
    assert view._wcet_list is None
    first = view.wcet_list
    assert first == view.wcet.tolist()
    assert view.wcet_list is first


def test_a_pickled_view_builds_its_list_on_first_read():
    task = make_random_heterogeneous_task(3, 0.3, n_max=20)
    view = task.graph.compiled()
    read = view.wcet_list
    clone = pickle.loads(pickle.dumps(view))
    assert clone._wcet_list is None
    assert clone.wcet_list == read
    assert clone.fingerprint() == view.fingerprint()


# ----------------------------------------------------------------------
# One device map per shape
# ----------------------------------------------------------------------
def _reference_assigned(task, platform, offload_enabled=True):
    """The device array built per call, as before it was memoised."""
    compiled = compile_graph(task.graph)
    assigned = np.full(len(compiled.nodes), -1, dtype=np.int64)
    for node, device in _device_assignment(task, platform, offload_enabled, None).items():
        assigned[compiled.index[node]] = device
    return assigned


def _pack(tasks, platforms, offload_enabled=True, policy=None):
    """The kernel tables of a column of ``tasks``, breadth-first by default."""
    entries = [(task, compile_task(task)) for task in tasks]
    return pack_column(entries, platforms, policy or BreadthFirstPolicy(), offload_enabled)


#: Where :func:`pack_column` puts the device and draw tables and the lane
#: records (the argument order of ``run_lanes``).
_ASSIGNED, _DRAWS, _RECORDS = 5, 7, 8


def _assigned(task, platforms, offload_enabled=True):
    """The device array a column of ``task`` reads: its structure's memo."""
    _pack([task], platforms, offload_enabled)
    offloaded = task.offloaded_node if offload_enabled else None
    return task.graph._structure.memo[("assigned", offloaded)]


@pytest.fixture
def copies():
    """A heterogeneous task and two re-weighted copies of its shape."""
    task = make_random_heterogeneous_task(11, 0.2, n_max=30)
    return [task] + [pin_offloaded_fraction(task, fraction) for fraction in (0.4, 0.6)]


class TestDeviceMapPerShape:
    PLATFORMS = [Platform(2, 1), Platform(4, 1), Platform(8, 2)]

    def test_copies_of_one_shape_share_one_array(self, copies):
        transformed = [transform(task).task for task in copies]
        originals = [_assigned(task, self.PLATFORMS) for task in copies]
        moved = [_assigned(task, self.PLATFORMS) for task in transformed]
        for arrays in (originals, moved):
            assert all(array is arrays[0] for array in arrays)
        assert originals[0] is not moved[0]
        # One column of all six copies stores each shape's array once.
        tables = _pack(copies + transformed, self.PLATFORMS)
        size = len(originals[0])
        assert tables[_ASSIGNED].tolist() == originals[0].tolist() + moved[0].tolist()
        assert tables[_RECORDS][:, 2].tolist() == [0] * 9 + [size] * 9

    @pytest.mark.parametrize(
        "case", ["default", "another-offloaded-node", "offload-disabled", "no-offload"]
    )
    def test_arrays_match_a_fresh_build(self, copies, case):
        task = copies[0]
        offload_enabled = True
        if case == "another-offloaded-node":
            other = next(node for node in task.graph.nodes() if node != task.offloaded_node)
            task = task.with_offloaded_node(other)
        elif case == "offload-disabled":
            offload_enabled = False
        elif case == "no-offload":
            task = task.as_homogeneous()
        platforms = [Platform(2, 2), Platform(4, 2)]
        for _ in range(2):  # cold, then from the memo
            packed = _pack([task], platforms, offload_enabled)[_ASSIGNED]
            for platform in platforms:
                expected = _reference_assigned(task, platform, offload_enabled)
                assert packed.tolist() == expected.tolist()

    def test_offload_and_plain_copies_do_not_share_a_key(self, copies):
        task = copies[0]
        offloaded = _assigned(task, self.PLATFORMS)
        disabled = _assigned(task, self.PLATFORMS, offload_enabled=False)
        other = next(node for node in task.graph.nodes() if node != task.offloaded_node)
        moved = _assigned(task.with_offloaded_node(other), self.PLATFORMS)
        assert disabled.tolist() == [-1] * len(offloaded)
        assert sorted(offloaded.tolist()) == sorted(moved.tolist())
        assert offloaded.tolist() != moved.tolist()
        assert _assigned(task.as_homogeneous(), self.PLATFORMS) is disabled

    def test_every_platform_is_validated_per_call(self, copies):
        task = copies[0]
        valid = [Platform(2, 2), Platform(8, 1)]
        _pack([task], valid)  # warms the memo
        invalid = Platform(4, 0)
        with pytest.raises(SimulationError) as expected:
            _device_assignment(task, invalid, True, None)
        for platforms in (valid + [invalid], [invalid] + valid, [valid[0], invalid]):
            with pytest.raises(SimulationError) as raised:
                _pack([task.as_homogeneous(), task], platforms)
            assert str(raised.value) == str(expected.value)
        # A 0-accelerator platform is fine once offloading is off, or for a
        # task that offloads nothing.
        for tasks, offload_enabled in (([task], False), ([task.as_homogeneous()], True)):
            packed = _pack(tasks, [Platform(4, 0)], offload_enabled)[_ASSIGNED]
            assert packed.tolist() == [-1] * task.node_count

    def test_a_structural_mutation_drops_the_memo(self, copies):
        shared = _assigned(copies[0], self.PLATFORMS)
        # A copy that mutates takes a private structure; the others keep
        # the memoised array.
        mutated = copies[1]
        sink = mutated.graph.sinks()[0]
        mutated.graph.add_node("extra", 1.0)
        mutated.graph.add_edge(sink, "extra")
        rebuilt = _assigned(mutated, self.PLATFORMS)
        assert rebuilt is not shared
        assert rebuilt.tolist() == _reference_assigned(mutated, self.PLATFORMS[0]).tolist()
        assert _assigned(copies[2], self.PLATFORMS) is shared
        # A graph that holds its structure alone drops the memo in place.
        memo = mutated.graph._structure.memo
        assert ("assigned", mutated.offloaded_node) in memo
        mutated.graph.remove_node("extra")
        assert ("assigned", mutated.offloaded_node) not in memo
        again = _assigned(mutated, self.PLATFORMS)
        assert again is not rebuilt and again.tolist() == shared.tolist()


# ----------------------------------------------------------------------
# Lane records as one array
# ----------------------------------------------------------------------
def _tuple_records(tasks, platforms, policy) -> np.ndarray:
    """A column's lane table as one tuple per lane, the layout it replaced.

    ``policy`` is a fresh instance of the packed one: its static keys come
    out as the same objects, so they are stored alike."""
    kind = policy_vector_kind(policy)
    views = [compile_task(task) for task in tasks]
    stack = stack_compiled(views)
    _, assigned_off = concat_distinct(
        [task.graph._structure.memo[("assigned", task.offloaded_node)] for task in tasks],
        np.int64,
    )
    _, key_off = concat_distinct(
        [policy.vector_keys(view) if kind == "static" else None for view in views],
        np.float64,
    )
    draw = 0
    records: list[int] = []
    for view, shared in zip(views, zip(stack.structure, stack.wcet_off, assigned_off, key_off)):
        for platform in platforms:
            records += (
                *shared,
                draw,
                platform.host_cores,
                platform.accelerators,
                _kernels.KIND_CODES[kind],
            )
            if kind == "random":
                draw += int(np.count_nonzero(view.wcet))
    return np.array(records, dtype=np.int64).reshape(-1, len(_kernels.LANE_FIELDS))


@pytest.mark.parametrize(
    "factory",
    [
        BreadthFirstPolicy,
        DepthFirstPolicy,
        CriticalPathFirstPolicy,
        ShortestFirstPolicy,
        lambda: RandomPolicy(5),
    ],
    ids=["breadth-first", "depth-first", "critical-path-first", "shortest-first", "random"],
)
def test_the_array_lane_table_equals_one_tuple_per_lane(copies, factory):
    tasks = copies + [transform(task).task for task in copies]
    tasks.append(tasks[0])  # a repeated task shares its structure, WCET and device offsets
    platforms = [Platform(2, 1), Platform(4, 1), Platform(8, 2)]
    tables = _pack(tasks, platforms, policy=factory())
    records = tables[_RECORDS]
    assert records.dtype == np.int64 and records.flags.c_contiguous
    assert records.tolist() == _tuple_records(tasks, platforms, factory()).tolist()
    assert len(records) == len(tasks) * len(platforms)
    assert records[-3:, :3].tolist() == records[:3, :3].tolist()
    # A random column draws one pool per lane, in (task, platform) order.
    stream, pools = factory(), []
    if isinstance(stream, RandomPolicy):
        for task in tasks:
            nonzero = int(np.count_nonzero(compile_task(task).wcet))
            pools += [stream.vector_draws(nonzero) for _ in platforms]
    assert tables[_DRAWS].tolist() == [draw for pool in pools for draw in pool.tolist()]


# ----------------------------------------------------------------------
# Algorithm 1 from one source; graphs from trusted rows
# ----------------------------------------------------------------------
@settings(max_examples=200, deadline=None)
@given(shape=_shapes())
def test_single_source_masks_equal_the_all_node_tables(shape):
    kernel = DirectedAcyclicGraph.from_dict(*shape)._kernel()
    walked = [kernel.reach_masks(i) for i in range(len(kernel.nodes))]
    assert kernel._anc_masks is None and kernel._desc_masks is None
    assert walked == list(zip(kernel.ancestor_masks(), kernel.descendant_masks()))


@pytest.mark.parametrize("seed", range(6))
def test_algorithm1_builds_no_all_node_tables(seed):
    task = make_random_heterogeneous_task(seed, 0.3)
    kernel = task.graph._kernel()
    result = transform(task)
    assert kernel._anc_masks is None and kernel._desc_masks is None
    # The tables stay available to the other readers, and agree.
    assert result.predecessors == task.graph.ancestors(task.offloaded_node)
    assert result.successors == task.graph.descendants(task.offloaded_node)


def _kernel_lists(graph: DirectedAcyclicGraph):
    kernel = graph._structure.dense()
    return (
        kernel.nodes,
        kernel.index,
        kernel.succ_ptr,
        kernel.succ_idx,
        kernel.pred_ptr,
        kernel.pred_idx,
        kernel.in_degree,
        kernel.topo,
    )


@settings(max_examples=200, deadline=None)
@given(shape=_shapes(forward_only=False))
def test_trusted_rows_build_the_checked_builders_graph(shape):
    nodes, wcets, pairs = _index_pairs(*shape)
    checked = DirectedAcyclicGraph._from_indices(nodes, wcets, pairs)
    trusted = DirectedAcyclicGraph._from_rows(nodes, wcets, _rows(len(nodes), pairs))
    # List for list, topological order included (short on a cycle).
    assert trusted._structure.rows is None
    assert _kernel_lists(trusted) == _kernel_lists(checked)
    assert list(trusted._wcet.items()) == list(checked._wcet.items())
    assert _edge_by_edge(*shape).is_acyclic() == trusted.is_acyclic()
    assert trusted == checked


@pytest.mark.parametrize("seed", range(6))
def test_transform_and_subgraph_match_the_checked_builder(seed):
    task = make_random_heterogeneous_task(seed, 0.3)

    def rebuilt(graph: DirectedAcyclicGraph) -> DirectedAcyclicGraph:
        return DirectedAcyclicGraph.from_dict(graph.wcets(), graph.edges())

    result = transform(task, reduce_transitive=False)
    kept = task.graph.nodes()[::2]
    for graph in (result.graph, result.gpar, task.graph.subgraph(kept)):
        assert _kernel_lists(graph) == _kernel_lists(rebuilt(graph))
