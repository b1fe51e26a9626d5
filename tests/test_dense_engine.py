"""Bit-identity of the dense simulation core against the trace engine.

The dense fast path (:mod:`repro.simulation.dense`) and the batched
:func:`~repro.simulation.batch.simulate_many` must reproduce the reference
trace engine's makespans *exactly* -- same floats, not approximately -- for
every policy, platform shape, device assignment and offload mode.  These
properties drive both implementations over random DAGs from the shared
strategies and compare with ``==``.
"""

from __future__ import annotations

import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.compiled import CompiledTask, compile_task, stack_compiled
from repro.core.examples import figure1_task, figure3_task
from repro.core.exceptions import ValidationError
from repro.core.graph import DirectedAcyclicGraph
from repro.core.task import DagTask
from repro.core.transformation import transform
from repro.generator.offload import pin_offloaded_fraction
from repro.parallel import spawn_seeds
from repro.service import EvaluationService
from repro.simulation import _kernels, batch
from repro.simulation.batch import simulate_many
from repro.simulation.dense import simulate_makespan_dense
from repro.simulation.engine import simulate, simulate_makespan
from repro.simulation.platform import Platform
from repro.simulation.schedulers import (
    BreadthFirstPolicy,
    CriticalPathFirstPolicy,
    FixedPriorityPolicy,
    LongestFirstPolicy,
    RandomPolicy,
    SchedulingPolicy,
    ShortestFirstPolicy,
    policy_by_name,
    policy_vector_kind,
)
from repro.simulation.workload import (
    JobInstance,
    simulate_workload,
    simulate_workload_reference,
)

from strategies import make_random_heterogeneous_task

#: Skips a case that runs the C kernel where it cannot be built.
requires_kernel = pytest.mark.skipif(
    not _kernels.compiled_available(),
    reason="compiled kernel unavailable: "
    f"{_kernels.compiled_unavailable_reason()}",
)

_SEEDS = st.integers(min_value=0, max_value=4_000)
_FRACTIONS = st.floats(min_value=0.01, max_value=0.6, allow_nan=False)
_CORES = st.sampled_from([1, 2, 3, 4])

#: Every registered policy, as factories so that each engine run gets a
#: fresh instance (RandomPolicy must replay the same stream on both paths).
_POLICY_NAMES = (
    "breadth-first",
    "depth-first",
    "critical-path-first",
    "shortest-first",
    "longest-first",
    "random",
    "fixed-priority",
)


def _policy_factories(task: DagTask, seed: int):
    for name in _POLICY_NAMES:
        yield name, lambda name=name: policy_by_name(name, rng=seed)
    # fixed-priority via the registry has an empty table; also exercise a
    # populated one (the worst-case search's usage pattern) and distinct
    # integers near 2**60, which share float64 values.
    yield "fixed-priority(populated)", lambda: FixedPriorityPolicy(
        {node: (seed + rank) % 5 for rank, node in enumerate(task.graph.nodes())}
    )
    yield "fixed-priority(wide integers)", lambda: FixedPriorityPolicy(
        {node: 2**60 + (seed + 37 * rank) % 601 - 300
         for rank, node in enumerate(task.graph.nodes())}
    )


def _assert_identical(task, platform, factory, offload_enabled=True, assignment=None):
    reference = simulate(
        task,
        platform,
        factory(),
        offload_enabled=offload_enabled,
        device_assignment=assignment,
    ).makespan()
    dense = simulate_makespan_dense(
        task,
        platform,
        factory(),
        offload_enabled=offload_enabled,
        device_assignment=assignment,
    )
    assert dense == reference


class TestDenseBitIdentity:
    @settings(max_examples=30, deadline=None)
    @given(seed=_SEEDS, fraction=_FRACTIONS, cores=_CORES)
    def test_all_policies_match_on_heterogeneous_tasks(self, seed, fraction, cores):
        task = make_random_heterogeneous_task(seed, fraction, n_max=25)
        platform = Platform(cores, 1)
        for name, factory in _policy_factories(task, seed):
            _assert_identical(task, platform, factory)

    @settings(max_examples=25, deadline=None)
    @given(seed=_SEEDS, fraction=_FRACTIONS, cores=_CORES)
    def test_all_policies_match_on_transformed_tasks(self, seed, fraction, cores):
        # The transformed task carries the zero-WCET v_sync, exercising the
        # instant-node cascade on both paths.
        task = transform(make_random_heterogeneous_task(seed, fraction, n_max=25)).task
        platform = Platform(cores, 1)
        for name, factory in _policy_factories(task, seed):
            _assert_identical(task, platform, factory)

    @settings(max_examples=25, deadline=None)
    @given(
        seed=_SEEDS,
        fraction=_FRACTIONS,
        cores=_CORES,
        accelerators=st.sampled_from([1, 2, 3, 4]),
    )
    def test_multi_offload_assignments_match(self, seed, fraction, cores, accelerators):
        # Several offloaded regions spread over several devices (the
        # extensions' usage pattern): an explicit node -> device mapping.
        task = make_random_heterogeneous_task(seed, fraction, n_max=25)
        nodes = task.graph.nodes()
        assignment = {
            node: rank % accelerators for rank, node in enumerate(nodes[::3])
        }
        platform = Platform(cores, accelerators)
        for name, factory in _policy_factories(task, seed):
            _assert_identical(task, platform, factory, assignment=assignment)

    @settings(max_examples=25, deadline=None)
    @given(seed=_SEEDS, fraction=_FRACTIONS, cores=_CORES)
    def test_offload_disabled_matches(self, seed, fraction, cores):
        task = make_random_heterogeneous_task(seed, fraction, n_max=25)
        platform = Platform(cores, 1)
        for name, factory in _policy_factories(task, seed):
            _assert_identical(task, platform, factory, offload_enabled=False)

    @settings(max_examples=20, deadline=None)
    @given(seed=_SEEDS, fraction=_FRACTIONS, cores=_CORES)
    def test_makespan_shortcut_equals_trace_makespan(self, seed, fraction, cores):
        # simulate_makespan is served by the dense path; the public contract
        # is equality with the trace engine.
        task = make_random_heterogeneous_task(seed, fraction, n_max=25)
        assert simulate_makespan(task, cores) == simulate(task, cores).makespan()

    def test_instant_only_and_single_node_tasks(self):
        instant = DagTask.from_wcets({"a": 0, "b": 0}, [("a", "b")])
        assert simulate_makespan_dense(instant, 2) == simulate(instant, 2).makespan()
        assert simulate_makespan_dense(instant, 2) == 0.0
        single = DagTask.from_wcets({"a": 3}, [])
        assert simulate_makespan_dense(single, 1) == 3.0

    def test_empty_graph(self):
        empty = DagTask(graph=DirectedAcyclicGraph())
        assert simulate_makespan_dense(empty, 2) == 0.0

    def test_cyclic_graph_rejected(self):
        task = DagTask.from_wcets({"a": 1, "b": 1}, [("a", "b")])
        task.graph.add_edge("b", "a")
        with pytest.raises(Exception):
            simulate_makespan_dense(task, 2)

    def test_worked_examples(self):
        assert simulate_makespan_dense(figure1_task(), 2) == 12
        transformed = transform(figure1_task()).task
        assert simulate_makespan_dense(transformed, 2) == 10
        task = figure3_task()
        assert simulate_makespan_dense(task, 64) == task.critical_path_length


class TestSimulateMany:
    def _tasks(self, count=5):
        tasks = [make_random_heterogeneous_task(seed, 0.2, n_max=20) for seed in range(count)]
        return tasks + [transform(task).task for task in tasks]

    def test_matches_reference_engine_per_cell(self):
        tasks = self._tasks()
        platforms = [Platform(2, 1), Platform(4, 1)]
        makespans = simulate_many(tasks, platforms, BreadthFirstPolicy())
        assert makespans.shape == (len(tasks), 2, 1)
        for t, task in enumerate(tasks):
            for p, platform in enumerate(platforms):
                reference = simulate(task, platform, BreadthFirstPolicy()).makespan()
                assert makespans[t, p, 0] == reference

    @pytest.mark.parametrize(
        "engine",
        [
            "dense",
            pytest.param(
                "compiled",
                marks=requires_kernel,
            ),
        ],
    )
    def test_random_policy_draws_one_stream_per_chunk(self, engine, monkeypatch):
        # The chunk-seeding contract written out: chunk c of the tasks gets
        # one RandomPolicy(3).spawned(spawn_seeds(11, n_chunks)[c]), which
        # sees its cells in (task, platform) order.
        monkeypatch.setattr(batch, "CHUNK_SIZE", 3)
        tasks = self._tasks()
        starts = range(0, len(tasks), 3)
        expected = np.empty((len(tasks), 2, 1))
        for start, seed in zip(starts, spawn_seeds(11, len(starts))):
            policy = RandomPolicy(3).spawned(seed)
            for t in range(start, min(start + 3, len(tasks))):
                for p, cores in enumerate((2, 8)):
                    expected[t, p, 0] = simulate_makespan(tasks[t], cores, policy)
        makespans = simulate_many(tasks, [2, 8], RandomPolicy(3), root_seed=11, engine=engine)
        assert np.array_equal(makespans, expected)

    def test_multiple_policies_and_scalar_platform(self):
        tasks = self._tasks(count=3)
        policies = [BreadthFirstPolicy(), policy_by_name("critical-path-first")]
        makespans = simulate_many(tasks, 2, policies)
        assert makespans.shape == (len(tasks), 1, 2)
        for t, task in enumerate(tasks):
            for q, name in enumerate(("breadth-first", "critical-path-first")):
                assert makespans[t, 0, q] == simulate(
                    task, 2, policy_by_name(name)
                ).makespan()

    def test_offload_disabled_forwarded(self):
        tasks = self._tasks(count=2)
        makespans = simulate_many(tasks, [2], offload_enabled=False)
        for t, task in enumerate(tasks):
            assert makespans[t, 0, 0] == simulate(
                task, 2, offload_enabled=False
            ).makespan()

    def test_empty_tasks_and_bad_arguments(self):
        assert simulate_many([], [2]).shape == (0, 1, 1)
        with pytest.raises(ValueError):
            simulate_many(self._tasks(count=1), [])
        with pytest.raises(ValueError):
            simulate_many(self._tasks(count=1), [2], [])


class TestCompiledTask:
    def test_view_contents(self):
        task = figure1_task()
        compiled = task.compiled()
        assert compiled.nodes == task.graph.nodes()
        assert compiled.node_count == task.node_count
        assert compiled.wcet_list == [task.graph.wcet(node) for node in compiled.nodes]
        assert compiled.in_degree == [
            task.graph.in_degree(node) for node in compiled.nodes
        ]
        for i, node in enumerate(compiled.nodes):
            successors = {compiled.nodes[s] for s in compiled.successors_of(i)}
            assert successors == task.graph.successors(node)
            predecessors = {compiled.nodes[p] for p in compiled.predecessors_of(i)}
            assert predecessors == task.graph.predecessors(node)
        assert [compiled.nodes[i] for i in compiled.topo] == task.graph.topological_order()

    def test_cached_on_generation_stamp(self):
        task = figure1_task()
        first = task.compiled()
        assert task.compiled() is first  # unmutated: cache hit
        task.graph.set_wcet("v1", 9)
        second = task.compiled()
        assert second is not first  # weights changed: recompiled
        assert second.wcet_list[second.index["v1"]] == 9.0
        # The structural arrays survive the re-weighting (kernel shared).
        assert second.succ_idx is first.succ_idx

    def test_pickle_round_trip(self):
        compiled = figure1_task().compiled()
        clone = pickle.loads(pickle.dumps(compiled))
        assert isinstance(clone, CompiledTask)
        assert clone.nodes == compiled.nodes
        assert clone.index == compiled.index
        assert clone.wcet_list == compiled.wcet_list
        assert clone.topo == compiled.topo
        assert clone.in_degree == compiled.in_degree
        assert clone.generation == compiled.generation

    def test_compile_task_accepts_task_or_graph(self):
        task = figure1_task()
        assert compile_task(task) is compile_task(task.graph)


def _shape_family(seed: int = 11) -> list[DagTask]:
    """A task, its copy, a ``set_wcet`` re-pin of the copy and
    ``pin_offloaded_fraction`` re-weightings: one shape, many weightings."""
    task = make_random_heterogeneous_task(seed, 0.3, n_max=30)
    copy = task.copy()
    repinned = task.copy()
    repinned.graph.set_wcet(repinned.offloaded_node, 123.0)
    repinned.graph.set_wcet(repinned.graph.nodes()[0], 7.5)
    pinned = [pin_offloaded_fraction(task, fraction) for fraction in (0.1, 0.4)]
    return [task, copy, repinned, *pinned]


def _structure_view(view: CompiledTask) -> tuple:
    return (
        view.nodes,
        view.index,
        view.succ_ptr,
        view.succ_idx,
        view.pred_ptr,
        view.pred_idx,
        view.topo,
        view.in_degree,
    )


class TestOneStructurePerShape:
    def _assert_one_structure(self, tasks: list[DagTask]) -> list[CompiledTask]:
        views = [task.compiled() for task in tasks]
        first = views[0]
        for task, view in zip(tasks, views):
            assert view.structure is first.structure
            # The structural names are the structure's own objects, not copies.
            assert view.nodes is first.nodes
            assert view.succ_idx is first.succ_idx
            assert view.in_degree is first.in_degree
            assert view.topo is first.topo
            for name in ("succ_ptr_array", "succ_idx_array", "in_degree_array"):
                assert getattr(view, name) is getattr(first, name)
                assert getattr(view, name).dtype == np.int64
            # ... and the views differ only in their WCETs.
            assert view.wcet_list == [task.graph.wcet(node) for node in view.nodes]
        assert len({tuple(view.wcet_list) for view in views}) == len(views) - 1
        return views

    def test_copies_reweights_and_pins_share_one_structure(self):
        self._assert_one_structure(_shape_family())

    def test_transforms_of_every_weighting_share_one_structure(self):
        family = _shape_family()
        originals = self._assert_one_structure(family)
        transformed = self._assert_one_structure(
            [transform(task).task for task in family]
        )
        assert transformed[0].structure is not originals[0].structure
        assert len(transformed[0].nodes) == len(originals[0].nodes) + 1

    def test_compiling_a_compiled_shape_builds_only_the_wcets(self):
        task = make_random_heterogeneous_task(5, 0.2, n_max=30)
        view = task.compiled()
        arrays = (view.succ_ptr_array, view.succ_idx_array, view.in_degree_array)
        copy = task.copy()
        copy.graph.set_wcet(copy.offloaded_node, 99.0)
        again = copy.compiled()
        assert again is not view
        assert again.structure is view.structure
        assert again.in_degree is view.in_degree
        rebuilt = (again.succ_ptr_array, again.succ_idx_array, again.in_degree_array)
        assert all(mine is theirs for mine, theirs in zip(rebuilt, arrays))
        assert again.wcet is not view.wcet

    def test_pickled_views_of_one_shape_share_one_structure(self):
        family = _shape_family()
        views = [task.compiled() for task in family]
        loaded = pickle.loads(pickle.dumps(views))
        assert all(view.structure is loaded[0].structure for view in loaded)
        assert loaded[0].structure is not views[0].structure
        for before, after in zip(views, loaded):
            assert _structure_view(after) == _structure_view(before)
            assert after.wcet_list == before.wcet_list
            assert after.generation == before.generation
        # The int64 arrays are caches: rebuilt once, shared again.
        assert loaded[0].structure.arrays is None
        assert loaded[1].succ_idx_array is loaded[0].succ_idx_array
        assert np.array_equal(loaded[0].succ_idx_array, views[0].succ_idx_array)


def _stacked_reference(views: list[CompiledTask]) -> tuple[list, ...]:
    """``stack_compiled(...).global_space()`` rebuilt view by view from the
    plain lists."""
    node_off, wcet, succ_ptr, succ_idx, in_degree = [0], [], [], [], []
    for view in views:
        base = node_off[-1]
        edge_base = len(succ_idx)
        for i in range(view.node_count):
            succ_ptr.append(edge_base + view.succ_ptr[i])
            succ_idx.extend(base + s for s in view.successors_of(i))
            in_degree.append(len(view.predecessors_of(i)))
        wcet.extend(view.wcet_list)
        node_off.append(base + view.node_count)
    succ_ptr.append(len(succ_idx))
    return node_off, wcet, succ_ptr, succ_idx, in_degree


_STACK_POOL = [
    DirectedAcyclicGraph().compiled(),  # no nodes
    DirectedAcyclicGraph.from_dict({"a": 1.5, "b": 0, "c": 2}).compiled(),  # no edges
    *(
        make_random_heterogeneous_task(seed, 0.3, n_max=25).compiled()
        for seed in range(4)
    ),
    *(
        transform(make_random_heterogeneous_task(seed, 0.3, n_max=25)).task.compiled()
        for seed in range(2)
    ),
]


class TestStackCompiled:
    @settings(max_examples=60, deadline=None)
    @given(
        picks=st.lists(
            st.integers(min_value=0, max_value=len(_STACK_POOL) - 1), max_size=7
        )
    )
    def test_matches_a_per_view_reference(self, picks):
        views = [_STACK_POOL[pick] for pick in picks]
        stacked = stack_compiled(views).global_space()
        reference = _stacked_reference(views)
        dtypes = (np.int64, np.float64, np.int64, np.int64, np.int64)
        for array, expected, dtype in zip(stacked, reference, dtypes):
            assert array.dtype == dtype
            assert array.tolist() == expected
        # Fresh arrays: writing to them leaves every view intact.
        for view in views:
            for array in stacked:
                assert not np.shares_memory(array, view.in_degree_array)
                assert not np.shares_memory(array, view.succ_idx_array)

    @settings(max_examples=60, deadline=None)
    @given(
        picks=st.lists(
            st.integers(min_value=0, max_value=len(_STACK_POOL) - 1), max_size=7
        )
    )
    def test_stores_each_distinct_structure_and_view_once(self, picks):
        views = [_STACK_POOL[pick] for pick in picks]
        stack = stack_compiled(views)
        distinct = list({id(view): view for view in views}.values())
        structures = {id(view.structure) for view in views}
        assert len(stack.node_off) == len(structures) + 1
        assert len(stack.wcet) == sum(view.node_count for view in distinct)
        for view, s, offset in zip(views, stack.structure, stack.wcet_off):
            rows = range(stack.node_off[s], stack.node_off[s + 1])
            assert stack.in_degree[rows.start : rows.stop].tolist() == view.in_degree
            assert [
                stack.succ_idx[stack.succ_ptr[row] : stack.succ_ptr[row + 1]].tolist()
                for row in rows
            ] == [view.successors_of(i) for i in range(view.node_count)]
            assert stack.wcet[offset : offset + view.node_count].tolist() == (
                view.wcet_list
            )


class TestDenseProtocolGuards:
    def test_subclass_overriding_only_priority_is_honoured(self):
        # A subclass of a built-in that overrides only priority() has no
        # family, so the dense engine reads the override instead of the
        # parent's static keys: both public entry points honour it and agree.
        class ReversedShortestFirst(ShortestFirstPolicy):
            def priority(self, node, ready_time, arrival_index):
                return (-self._wcet.get(node, 0.0), arrival_index)

        assert policy_vector_kind(ReversedShortestFirst()) is None
        task = make_random_heterogeneous_task(7, 0.3, n_max=20)
        via_trace = simulate(task, 2, ReversedShortestFirst()).makespan()
        via_dense = simulate_makespan_dense(task, 2, ReversedShortestFirst())
        assert via_dense == via_trace
        # The override genuinely behaves like longest-first.
        assert via_dense == simulate(task, 2, LongestFirstPolicy()).makespan()

    def test_subclass_overriding_only_prepare_is_honoured(self):
        class DoubledTails(CriticalPathFirstPolicy):
            def prepare(self, graph):
                super().prepare(graph)
                self._bottom_level = {
                    node: 2.0 * tail for node, tail in self._bottom_level.items()
                }

        assert policy_vector_kind(DoubledTails()) is None
        task = make_random_heterogeneous_task(11, 0.2, n_max=20)
        assert simulate_makespan_dense(task, 2, DoubledTails()) == (
            simulate(task, 2, DoubledTails()).makespan()
        )

    def test_builtins_have_a_family_and_custom_policies_do_not(self):
        for name in _POLICY_NAMES:
            assert policy_vector_kind(policy_by_name(name)) is not None, name

        class Custom(SchedulingPolicy):
            def priority(self, node, ready_time, arrival_index):
                return (arrival_index,)

        assert policy_vector_kind(Custom()) is None
        task = make_random_heterogeneous_task(17, 0.2, n_max=20)
        assert simulate_makespan_dense(task, 2, Custom()) == (
            simulate(task, 2, Custom()).makespan()
        )

    @pytest.mark.parametrize("name", ["critical-path-first", "fixed-priority"])
    def test_static_keys_are_memoised_per_compiled_view(self, name):
        task = make_random_heterogeneous_task(19, 0.2, n_max=20)
        policy = (
            FixedPriorityPolicy({node: rank for rank, node in enumerate(task.graph.nodes())})
            if name == "fixed-priority"
            else CriticalPathFirstPolicy()
        )
        compiled = task.compiled()
        first = policy.vector_keys(compiled)
        assert policy.vector_keys(compiled) is first  # same view: no recomputation
        task.graph.set_wcet(task.offloaded_node, task.offloaded_wcet + 1)
        recompiled = task.compiled()
        assert policy.vector_keys(recompiled) is not first  # new view: recomputed
        assert policy.vector_keys(compiled) is not first  # only the last view is held


class TestFixedPriorityRegistration:
    def test_policy_by_name_reaches_fixed_priority(self):
        policy = policy_by_name("fixed-priority")
        assert isinstance(policy, FixedPriorityPolicy)
        assert policy.name == "fixed-priority"
        # Empty table: every node ties at +inf, arrival order decides; the
        # schedule is still legal and simulatable on both paths.
        task = figure1_task()
        assert simulate_makespan_dense(task, 2, policy_by_name("fixed-priority")) == (
            simulate(task, 2, policy_by_name("fixed-priority")).makespan()
        )


#: Fork s -> {a, b, x}, b -> c, join at t: on 2 host cores a and b start
#: first, and when b ends x and c (readied in that order) compete for the
#: free core.  The table gives c < b < x < a as integers, but all four
#: share the float64 value 2**60, so the arrival order decides: x runs
#: before c and the makespan is 15.0 (11.0 with exact integer compares).
_COLLIDING_TASK = DagTask.from_wcets(
    {"s": 0, "a": 5, "b": 1, "x": 5, "c": 10, "t": 0},
    [("s", "a"), ("s", "b"), ("s", "x"), ("b", "c"), ("a", "t"), ("x", "t"), ("c", "t")],
)
_COLLIDING_TABLE = {"c": 2**60 - 1, "b": 2**60, "x": 2**60 + 1, "a": 2**60 + 2}


def _colliding_policy() -> FixedPriorityPolicy:
    return FixedPriorityPolicy(_COLLIDING_TABLE)


def _many(engine: str) -> float:
    grid = simulate_many(
        [_COLLIDING_TASK], [2], _colliding_policy(), offload_enabled=False, engine=engine
    )
    return float(grid[0, 0, 0])


def _workload(simulate_jobs) -> float:
    result = simulate_jobs(
        [JobInstance(task=_COLLIDING_TASK, release=0.0)],
        2,
        _colliding_policy(),
        offload_enabled=False,
    )
    return float(result.completions[0])


def _facade() -> float:
    with EvaluationService() as service:
        return service.submit_simulation(
            _COLLIDING_TASK,
            2,
            policy="fixed-priority",
            priorities=_COLLIDING_TABLE,
            offload_enabled=False,
            timeout=120,
        )


_COLLIDING_ENGINES = {
    "simulate": lambda: simulate(
        _COLLIDING_TASK, 2, _colliding_policy(), offload_enabled=False
    ).makespan(),
    "simulate_makespan": lambda: simulate_makespan(
        _COLLIDING_TASK, 2, _colliding_policy(), offload_enabled=False
    ),
    "dense": lambda: simulate_makespan_dense(
        _COLLIDING_TASK, 2, _colliding_policy(), offload_enabled=False
    ),
    "simulate_many-auto": lambda: _many("auto"),
    "simulate_many-dense": lambda: _many("dense"),
    "simulate_many-compiled": lambda: _many("compiled"),
    "workload-reference": lambda: _workload(simulate_workload_reference),
    "workload": lambda: _workload(simulate_workload),
    "facade": _facade,
}


class TestFloat64PriorityTable:
    """One float64 priority table for every engine."""

    @pytest.mark.parametrize(
        "engine",
        [
            pytest.param(name, marks=requires_kernel)
            if name == "simulate_many-compiled"
            else name
            for name in _COLLIDING_ENGINES
        ],
    )
    def test_integers_sharing_a_float64_value_tie_on_every_engine(self, engine):
        assert _COLLIDING_ENGINES[engine]() == 15.0

    def test_table_holds_the_float64_values(self):
        policy = _colliding_policy()
        keys = policy.vector_keys(_COLLIDING_TASK.compiled()).tolist()
        assert keys == [float("inf"), *[2.0**60] * 4, float("inf")]
        assert policy.priority("c", 0.0, 7) == (2.0**60, 7)

    @pytest.mark.parametrize(
        "value", [float("nan"), float("inf"), -float("inf"), True, "1", None, 2**1024]
    )
    def test_a_value_without_a_finite_float64_is_refused(self, value):
        with pytest.raises(ValidationError, match=r"priorities\['b'\]"):
            FixedPriorityPolicy({"a": 1, "b": value})

    def test_a_table_that_is_not_a_mapping_is_refused(self):
        with pytest.raises(ValidationError, match="priorities"):
            FixedPriorityPolicy([("a", 1)])
