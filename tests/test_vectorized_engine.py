"""Bit-identity of the compiled C kernel against both scalar engines.

The C kernel's columns (:func:`repro.simulation.vectorized_compiled.run_column`)
and the batched :func:`~repro.simulation.batch.simulate_many` fast path must
reproduce the reference trace engine's makespans *exactly* -- same floats,
not approximately -- for every registered policy family, platform shape and
offload mode.  These properties mirror ``tests/test_dense_engine.py`` and
drive all three engines over random DAGs from the shared strategies,
comparing with ``==``.  Tests that run the kernel skip cleanly on hosts
without a working C compiler (or with ``REPRO_COMPILED=0``).
"""

from __future__ import annotations

import subprocess
import sys
from contextlib import contextmanager
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.compiled import stack_compiled
from repro.core.exceptions import SimulationError
from repro.core.task import DagTask
from repro.core.transformation import transform
from repro.parallel import spawn_seeds
from repro.simulation import _kernels, batch
from repro.simulation.batch import resolve_engine, simulate_many
from repro.simulation.dense import simulate_makespan_dense
from repro.simulation.engine import simulate, simulate_makespan
from repro.simulation.kernel_stats import collect_kernel_stats
from repro.simulation.platform import Platform
from repro.simulation.schedulers import (
    VECTOR_FIFO,
    VECTOR_LIFO,
    VECTOR_RANDOM,
    VECTOR_STATIC,
    BreadthFirstPolicy,
    CriticalPathFirstPolicy,
    FixedPriorityPolicy,
    RandomPolicy,
    SchedulingPolicy,
    ShortestFirstPolicy,
    policy_by_name,
    policy_vector_kind,
)
from repro.simulation.vectorized_compiled import run_column

from strategies import make_random_heterogeneous_task

#: Skips a test that runs the C kernel where it cannot be built.
requires_kernel = pytest.mark.skipif(
    not _kernels.compiled_available(),
    reason="compiled kernel unavailable: "
    f"{_kernels.compiled_unavailable_reason()}",
)

_SEEDS = st.integers(min_value=0, max_value=4_000)
_FRACTIONS = st.floats(min_value=0.01, max_value=0.6, allow_nan=False)
_CORES = st.sampled_from([1, 2, 3, 4])

#: Every registered policy, as factories so that each engine run gets a
#: fresh instance (RandomPolicy must replay the same stream on all paths).
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


def _kernel(task, platform, policy, offload_enabled=True) -> float:
    """One cell on the C kernel: a one-task, one-platform column."""
    return run_column([(task, task.compiled())], [platform], policy, offload_enabled)[0, 0]


def _entries(tasks):
    return [(task, task.compiled()) for task in tasks]


def _reference(task, platform, policy) -> float:
    return simulate(task, platform, policy).makespan()


def _reference_column(tasks, platforms, policy, engine=_reference) -> list:
    """The cells of a column in ``(task, platform)`` order on a scalar
    engine, through the one ``policy`` instance (a random stream runs on)."""
    return [[engine(task, platform, policy) for platform in platforms] for task in tasks]


def _assert_identical(task, platform, factory, offload_enabled=True):
    reference = simulate(
        task, platform, factory(), offload_enabled=offload_enabled
    ).makespan()
    dense = simulate_makespan_dense(
        task, platform, factory(), offload_enabled=offload_enabled
    )
    compiled = _kernel(task, platform, factory(), offload_enabled)
    assert compiled == dense == reference


class TestLockstepBitIdentity:
    @requires_kernel
    @settings(max_examples=25, deadline=None)
    @given(seed=_SEEDS, fraction=_FRACTIONS, cores=_CORES)
    def test_all_policies_match_on_heterogeneous_tasks(self, seed, fraction, cores):
        task = make_random_heterogeneous_task(seed, fraction, n_max=25)
        platform = Platform(cores, 1)
        for name, factory in _policy_factories(task, seed):
            _assert_identical(task, platform, factory)

    @requires_kernel
    @settings(max_examples=20, deadline=None)
    @given(seed=_SEEDS, fraction=_FRACTIONS, cores=_CORES)
    def test_all_policies_match_on_transformed_tasks(self, seed, fraction, cores):
        # The transformed task carries the zero-WCET v_sync, exercising the
        # instant-node cascade on every path.
        task = transform(make_random_heterogeneous_task(seed, fraction, n_max=25)).task
        platform = Platform(cores, 1)
        for name, factory in _policy_factories(task, seed):
            _assert_identical(task, platform, factory)

    @requires_kernel
    @settings(max_examples=20, deadline=None)
    @given(seed=_SEEDS, fraction=_FRACTIONS, cores=_CORES)
    def test_offload_disabled_matches(self, seed, fraction, cores):
        task = make_random_heterogeneous_task(seed, fraction, n_max=25)
        platform = Platform(cores, 1)
        for name, factory in _policy_factories(task, seed):
            _assert_identical(task, platform, factory, offload_enabled=False)

    @requires_kernel
    @settings(max_examples=15, deadline=None)
    @given(seed=_SEEDS, fraction=_FRACTIONS)
    def test_batched_cells_match_per_cell_runs(self, seed, fraction):
        # One column per family (original + transformed tasks, several
        # platforms) must equal the per-cell sequential runs: the kernel's
        # per-lane results may not depend on the column around them.
        base = make_random_heterogeneous_task(seed, fraction, n_max=20)
        tasks = [base, transform(base).task]
        platforms = [Platform(1, 1), Platform(3, 1)]
        for name in _POLICY_NAMES:
            column = run_column(
                _entries(tasks), platforms, policy_by_name(name, rng=seed)
            )
            assert column.tolist() == _reference_column(
                tasks, platforms, policy_by_name(name, rng=seed)
            )

    @requires_kernel
    def test_random_policy_shared_stream_matches_cell_order(self):
        # One RandomPolicy instance serving a column must consume its
        # stream in (task, platform) order, exactly like sequential
        # per-cell runs.
        tasks = [make_random_heterogeneous_task(seed, 0.2, n_max=20) for seed in range(4)]
        platforms = [Platform(2, 1), Platform(4, 1)]
        references = _reference_column(tasks, platforms, RandomPolicy(99))
        column = run_column(_entries(tasks), platforms, RandomPolicy(99))
        assert column.tolist() == references
        # Each lane draws its own pool: the stream does not restart per task.
        assert references != [
            _reference_column([task], platforms, RandomPolicy(99))[0] for task in tasks
        ]

    @requires_kernel
    def test_column_grid_matches_reference(self):
        tasks = [make_random_heterogeneous_task(seed, 0.3, n_max=20) for seed in range(5)]
        platforms = [Platform(2, 1), Platform(5, 1)]
        for name in ("breadth-first", "critical-path-first"):
            grid = run_column(_entries(tasks), platforms, policy_by_name(name))
            assert grid.shape == (len(tasks), len(platforms))
            assert grid.tolist() == _reference_column(
                tasks, platforms, policy_by_name(name)
            )

    @requires_kernel
    def test_near_tied_finishes_keep_fifo_order(self):
        # Float-sum divergence (0.1 + 0.2 != 0.3) produces completions that
        # differ by less than the engines' 1e-12 retire window: they retire
        # in the same window but with *different* finish times, so arrivals
        # of one window no longer tie on ready time and the ready queue
        # must fall back to the full (ready, index) ordering.  Chained
        # tenth WCETs generate such windows all over the schedule.
        tenths = [0.1, 0.2, 0.3]
        for cores in (1, 2, 3):
            for seed in range(6):
                rng = np.random.default_rng(seed)
                wcets = {
                    f"n{i}": float(tenths[int(rng.integers(3))]) for i in range(18)
                }
                edges = [
                    (f"n{i}", f"n{j}")
                    for i in range(18)
                    for j in range(i + 1, 18)
                    if rng.random() < 0.15
                ]
                task = DagTask.from_wcets(wcets, edges)
                reference = simulate(task, cores, BreadthFirstPolicy()).makespan()
                assert _kernel(task, Platform(cores, 1), BreadthFirstPolicy()) == reference
                assert (
                    simulate_makespan_dense(task, cores, BreadthFirstPolicy())
                    == reference
                )

    @requires_kernel
    def test_sub_tolerance_wcets_keep_reference_order(self):
        # A node started at `now` with a WCET under the 1e-12 retire
        # tolerance finishes inside the window it started in, so its
        # successor becomes ready *before* nodes that are already queued:
        # its breadth-first key is out of order, and appending it behind
        # them (say, after sorting the window's arrivals) starts the wrong
        # node.  1 + 5e-13 puts further completions inside those windows.
        wcets = (1e-13, 1 + 5e-13, 0.5, 1.0, 2.0, 3.0)
        tasks = []
        for seed in range(400):
            rng = np.random.default_rng(seed)
            n = int(rng.integers(5, 13))
            names = [f"n{i}" for i in range(n)]
            task = DagTask.from_wcets(
                {name: float(rng.choice(wcets)) for name in names},
                [
                    (names[i], names[j])
                    for i in range(n)
                    for j in range(i + 1, n)
                    if rng.random() < 0.15
                ],
                offloaded_node=names[int(rng.integers(n))],
            )
            tasks.append(task)
        platforms = [
            Platform(cores, accelerators) for cores in (1, 2, 3) for accelerators in (1, 2)
        ]
        for name in _POLICY_NAMES:
            column = run_column(_entries(tasks), platforms, policy_by_name(name, rng=7))
            assert column.tolist() == _reference_column(
                tasks, platforms, policy_by_name(name, rng=7)
            )

    def test_unsupported_policy_rejected(self):
        class Custom(SchedulingPolicy):
            def priority(self, node, ready_time, arrival_index):
                return (arrival_index,)

        task = make_random_heterogeneous_task(1, 0.2, n_max=10)
        with pytest.raises(ValueError, match="has no vector kind"):
            _kernel(task, Platform(2, 1), Custom())

    def test_vector_kind_registry(self):
        assert policy_vector_kind(BreadthFirstPolicy()) == VECTOR_FIFO
        assert policy_vector_kind(policy_by_name("depth-first")) == VECTOR_LIFO
        assert policy_vector_kind(RandomPolicy(0)) == VECTOR_RANDOM
        for name in ("critical-path-first", "shortest-first", "longest-first",
                     "fixed-priority"):
            assert policy_vector_kind(policy_by_name(name)) == VECTOR_STATIC

        # Subclasses have no vector kind, even when they override nothing:
        # the kernel cannot see what a subclass might change, so anything
        # that is not literally a built-in falls back to the dense engine.
        class SubtlyDifferent(ShortestFirstPolicy):
            def priority(self, node, ready_time, arrival_index):
                return (-self._wcet.get(node, 0.0), arrival_index)

        assert policy_vector_kind(SubtlyDifferent()) is None
        # ... and simulate_many still serves it, bit-identically, through
        # the dense fallback.
        task = make_random_heterogeneous_task(3, 0.2, n_max=15)
        grid = simulate_many([task], [2], SubtlyDifferent())
        assert grid[0, 0, 0] == simulate(task, 2, SubtlyDifferent()).makespan()

    def test_static_keys_match_dense_priorities(self):
        task = make_random_heterogeneous_task(7, 0.25, n_max=20)
        compiled = task.compiled()
        table = {node: 2**60 + rank for rank, node in enumerate(compiled.nodes[::2])}
        for policy in (
            *(policy_by_name(name) for name in
              ("critical-path-first", "shortest-first", "longest-first")),
            FixedPriorityPolicy(table),
        ):
            keys = policy.vector_keys(compiled)
            policy.prepare(task.graph)
            for index, node in enumerate(compiled.nodes):
                assert keys[index] == policy.priority(node, 0.0, 1)[0]


class TestSimulateManyEngines:
    def _tasks(self, count=5):
        tasks = [make_random_heterogeneous_task(seed, 0.2, n_max=20) for seed in range(count)]
        return tasks + [transform(task).task for task in tasks]

    def test_auto_equals_dense_engine(self, monkeypatch):
        monkeypatch.setattr(batch, "CHUNK_SIZE", 3)
        tasks = self._tasks()
        platforms = [Platform(2, 1), Platform(4, 1)]
        policies = [
            BreadthFirstPolicy(),
            policy_by_name("critical-path-first"),
            policy_by_name("depth-first"),
            RandomPolicy(5),
        ]
        auto = simulate_many(tasks, platforms, policies, root_seed=11)
        dense = simulate_many(tasks, platforms, policies, root_seed=11, engine="dense")
        assert np.array_equal(auto, dense)

    def test_mixed_policies_seed_each_chunk_then_policy(self, monkeypatch):
        # Chunk c's policy q is spawned from spawn_seeds(11, chunks *
        # policies)[c * policies + q], so a RandomPolicy column next to a
        # second policy draws a different stream than it does alone.
        monkeypatch.setattr(batch, "CHUNK_SIZE", 3)
        tasks = self._tasks()
        policies = [BreadthFirstPolicy(), RandomPolicy(3)]
        starts = range(0, len(tasks), 3)
        seeds = spawn_seeds(11, len(starts) * len(policies))
        expected = np.empty((len(tasks), 2, len(policies)))
        for c, start in enumerate(starts):
            for q, policy in enumerate(policies):
                spawned = policy.spawned(seeds[c * len(policies) + q])
                for t in range(start, min(start + 3, len(tasks))):
                    for p, cores in enumerate((2, 8)):
                        expected[t, p, q] = simulate_makespan(tasks[t], cores, spawned)
        makespans = simulate_many(tasks, [2, 8], policies, root_seed=11)
        assert np.array_equal(makespans, expected)
        alone = simulate_many(tasks, [2, 8], RandomPolicy(3), root_seed=11)
        assert not np.array_equal(alone[:, :, 0], makespans[:, :, 1])

    def test_matches_reference_engine_per_cell(self):
        tasks = self._tasks(count=3)
        platforms = [Platform(2, 1), Platform(4, 1)]
        policies = [BreadthFirstPolicy(), CriticalPathFirstPolicy()]
        makespans = simulate_many(tasks, platforms, policies)
        for t, task in enumerate(tasks):
            for p, platform in enumerate(platforms):
                for q, policy in enumerate(
                    (BreadthFirstPolicy(), CriticalPathFirstPolicy())
                ):
                    assert makespans[t, p, q] == simulate(
                        task, platform, policy
                    ).makespan()

    def test_offload_disabled_and_bad_engine(self):
        tasks = self._tasks(count=2)
        auto = simulate_many(tasks, [2], offload_enabled=False)
        dense = simulate_many(tasks, [2], offload_enabled=False, engine="dense")
        assert np.array_equal(auto, dense)
        with pytest.raises(ValueError):
            simulate_many(tasks, [2], engine="warp")


#: The kernel backend axis (its ids name the test rows): the C kernel.
_BACKENDS = [pytest.param("compiled", marks=requires_kernel)]


@pytest.mark.parametrize("backend", _BACKENDS)
class TestBackendBitIdentity:
    """The backend axis: the C kernel equals the scalar engines."""

    def _assert_backend_identical(self, task, platform, factory, backend):
        dense = simulate_makespan_dense(task, platform, factory())
        assert _kernel(task, platform, factory()) == dense

    def test_all_policies_on_original_and_transformed(self, backend):
        for seed in range(8):
            base = make_random_heterogeneous_task(seed, 0.25, n_max=22)
            for task in (base, transform(base).task):
                for cores in (1, 3):
                    platform = Platform(cores, 1)
                    for name, factory in _policy_factories(task, seed):
                        self._assert_backend_identical(
                            task, platform, factory, backend
                        )

    def test_non_uniform_steps(self, backend):
        # Tenth-sum float divergence: completions inside one 1e-12 retire
        # window with *different* finish floats, on every policy family.
        tenths = [0.1, 0.2, 0.3]
        for seed in range(4):
            rng = np.random.default_rng(seed)
            wcets = {
                f"n{i}": float(tenths[int(rng.integers(3))]) for i in range(16)
            }
            edges = [
                (f"n{i}", f"n{j}")
                for i in range(16)
                for j in range(i + 1, 16)
                if rng.random() < 0.15
            ]
            task = DagTask.from_wcets(wcets, edges)
            for cores in (1, 2):
                for name, factory in _policy_factories(task, seed):
                    self._assert_backend_identical(
                        task, Platform(cores, 1), factory, backend
                    )

    def test_stamped_ties_near_equal_keys(self, backend):
        # Equal static keys must fall to the arrival tie-breaker: uniform
        # WCETs tie every shortest/longest key, and tenth-sum ready times
        # land within 1e-12 retire windows -- the packed single-float
        # select must still replay the scalar (key, arrival) heap order.
        for seed in range(6):
            rng = np.random.default_rng(seed + 100)
            wcets = {f"n{i}": 0.1 for i in range(14)}
            edges = [
                (f"n{i}", f"n{j}")
                for i in range(14)
                for j in range(i + 1, 14)
                if rng.random() < 0.2
            ]
            task = DagTask.from_wcets(wcets, edges)
            for name in ("shortest-first", "longest-first", "fixed-priority"):
                for cores in (1, 2, 3):
                    self._assert_backend_identical(
                        task,
                        Platform(cores, 1),
                        lambda name=name: policy_by_name(name),
                        backend,
                    )

    def test_batch_composition_independent(self, backend):
        # One column per family equals the per-cell dense runs.
        base = make_random_heterogeneous_task(11, 0.25, n_max=20)
        tasks = [base, transform(base).task]
        platforms = [Platform(1, 1), Platform(3, 1)]
        for name in _POLICY_NAMES:
            column = run_column(_entries(tasks), platforms, policy_by_name(name, rng=11))
            assert column.tolist() == _reference_column(
                tasks, platforms, policy_by_name(name, rng=11), simulate_makespan_dense
            )

    def test_simulate_many_engine_equals_dense(self, backend, monkeypatch):
        monkeypatch.setattr(batch, "CHUNK_SIZE", 4)
        tasks = [
            make_random_heterogeneous_task(seed, 0.2, n_max=18)
            for seed in range(6)
        ]
        tasks += [transform(task).task for task in tasks[:3]]
        policies = [
            BreadthFirstPolicy(),
            policy_by_name("critical-path-first"),
            RandomPolicy(5),
        ]
        dense = simulate_many(tasks, [2, 4], policies, root_seed=7, engine="dense")
        kernel = simulate_many(tasks, [2, 4], policies, root_seed=7, engine=backend)
        assert np.array_equal(kernel, dense)


class TestCompiledBackendPlumbing:
    def test_resolve_engine_names(self):
        assert resolve_engine("dense") == "dense"
        auto = resolve_engine("auto")
        if _kernels.compiled_available():
            assert auto == "compiled"
        else:
            assert auto == "dense"
        # auto, dense and compiled are the only engine names.
        for name in ("warp", "lockstep"):
            with pytest.raises(ValueError):
                resolve_engine(name)

    def test_disabled_env_falls_back_cleanly(self, monkeypatch):
        # REPRO_COMPILED=0 must make "auto" degrade silently to the dense
        # engine and an explicit "compiled" request fail loudly -- the
        # no-compiler CI leg's contract.
        from repro.simulation.vectorized_compiled import resolve_backend

        monkeypatch.setenv("REPRO_COMPILED", "0")
        _kernels._reset_for_tests()
        try:
            assert not _kernels.compiled_available()
            assert "disabled" in _kernels.compiled_unavailable_reason()
            assert resolve_engine("auto") == "dense"
            assert resolve_backend("auto") == "dense"
            with pytest.raises(RuntimeError, match="disabled"):
                resolve_engine("compiled")
            task = make_random_heterogeneous_task(2, 0.2, n_max=15)
            grid = simulate_many([task], [2], BreadthFirstPolicy())
            assert grid[0, 0, 0] == simulate_makespan_dense(
                task, Platform(2, 1), BreadthFirstPolicy()
            )
            with pytest.raises(RuntimeError, match="disabled"):
                simulate_many([task], [2], engine="compiled")
            with pytest.raises(RuntimeError, match="disabled"):
                _kernel(task, Platform(2, 1), BreadthFirstPolicy())
        finally:
            monkeypatch.delenv("REPRO_COMPILED", raising=False)
            _kernels._reset_for_tests()


# ----------------------------------------------------------------------
# Threads and the per-structure layout: results never depend on either
# ----------------------------------------------------------------------
@contextmanager
def _threads(count: int):
    """Run every kernel call inside the block on ``count`` threads."""
    with mock.patch.object(_kernels, "_thread_count", lambda lanes, nodes: count):
        yield


def _reweighted(task: DagTask, seed: int, zero: bool) -> DagTask:
    """A copy of ``task`` (same structure) with new host WCETs; ``zero``
    sets every third host node's WCET to 0."""
    copy = task.copy()
    rng = np.random.default_rng(seed)
    for rank, node in enumerate(copy.host_nodes()):
        wcet = 0.0 if zero and rank % 3 == 0 else float(rng.integers(1, 9))
        copy.graph.set_wcet(node, wcet)
    return copy


#: One column: its tasks (variant indices), its platforms as (host cores,
#: accelerators), its policy and whether the offloaded node is offloaded.
_COLUMN_SPECS = st.tuples(
    st.lists(st.integers(min_value=0, max_value=3), min_size=1, max_size=6),
    st.lists(
        st.tuples(st.integers(min_value=1, max_value=4), st.integers(min_value=1, max_value=3)),
        min_size=1,
        max_size=4,
    ),
    st.sampled_from(_POLICY_NAMES),
    st.booleans(),
)


def _column(variants, spec, seed):
    """The tasks, platforms, fresh policy (so random streams replay) and
    offload flag of ``spec``."""
    picks, resources, name, offload_enabled = spec
    tasks = [variants[variant] for variant in picks]
    platforms = [Platform(cores, accelerators) for cores, accelerators in resources]
    return tasks, platforms, policy_by_name(name, rng=seed), offload_enabled


def _run_column(tasks, platforms, policy, offload_enabled, threads: int):
    with _threads(threads), collect_kernel_stats() as stats:
        makespans = run_column(_entries(tasks), platforms, policy, offload_enabled)
    return makespans.tolist(), stats.merged()


def _lane_tables():
    """Hand-built tables: a 3-node chain (structure 0), a 2-node structure
    whose second node waits for an edge that does not exist (structure 1),
    and an empty structure (2)."""
    return dict(
        node_off=np.array([0, 3, 5, 5]),
        succ_ptr=np.array([0, 1, 2, 2, 3, 3]),
        succ_idx=np.array([1, 2, 1]),
        in_degree=np.array([0, 1, 1, 0, 2]),
        wcet=np.array([1.0, 2.0, 3.0, 1.0, 1.0]),
        assigned=np.full(5, -1),
        static_key=np.zeros(0),
        draws=np.zeros(0),
    )


def _lanes(structures):
    """One fifo lane on 1 core per entry of ``structures``."""
    wcet_of = {0: 0, 1: 3, 2: 0}
    return np.array(
        [[s, wcet_of[s], wcet_of[s], 0, 0, 1, 0, 0] for s in structures]
    )


class TestKernelThreads:
    @requires_kernel
    @settings(max_examples=30, deadline=None)
    @given(
        seed=_SEEDS,
        fraction=_FRACTIONS,
        spec=_COLUMN_SPECS,
        threads=st.integers(min_value=2, max_value=5),
    )
    def test_columns_are_thread_invariant(self, seed, fraction, spec, threads):
        base = make_random_heterogeneous_task(seed, fraction, n_max=25)
        variants = [
            base,
            transform(base).task,  # zero-WCET v_sync
            _reweighted(base, seed, zero=False),
            _reweighted(base, seed + 1, zero=True),
        ]
        assert variants[3].compiled().structure is base.compiled().structure
        one = _run_column(*_column(variants, spec, seed), 1)
        many = _run_column(*_column(variants, spec, seed), threads)
        assert one == many
        tasks, platforms, policy, offload_enabled = _column(variants, spec, seed)
        dense = [
            [
                simulate_makespan_dense(task, platform, policy, offload_enabled)
                for platform in platforms
            ]
            for task in tasks
        ]
        assert one[0] == dense

    @requires_kernel
    def test_one_structure_with_two_weightings_does_not_alias(self):
        base = make_random_heterogeneous_task(11, 0.3, n_max=25)
        host = base.host_nodes()
        other = _reweighted(base, 5, zero=True).with_offloaded_node(host[-1])
        assert other.compiled().structure is base.compiled().structure
        stack = stack_compiled([base.compiled(), other.compiled()])
        assert len(stack.node_off) == 2
        assert stack.wcet_off == [0, base.node_count]
        tasks = [base, other, base, other]
        platforms = [Platform(2, 1)]
        for name in ("breadth-first", "critical-path-first"):
            dense = _reference_column(
                tasks, platforms, policy_by_name(name), simulate_makespan_dense
            )
            assert dense[0] != dense[1]
            for threads in (1, 2, 8):
                column = _run_column(tasks, platforms, policy_by_name(name), True, threads)
                assert column[0] == dense

    @requires_kernel
    def test_a_deadlocked_lane_raises_at_every_thread_count(self):
        tables = _lane_tables()
        structures = [0, 2] * 20
        structures[17] = structures[29] = 1
        lanes = _lanes(structures)
        for threads in (1, 2, 3, 8):
            with pytest.raises(SimulationError, match="deadlocked"):
                _kernels.run_lanes(**tables, lanes=lanes, _threads=threads)
            # The kernel's verdict names the lowest deadlocked lane.
            out = np.empty(len(lanes))
            stats = np.zeros(2, dtype=np.int64)
            arrays = [np.ascontiguousarray(tables[name]) for name in tables]
            status = _kernels.load_kernel().repro_run_lanes(
                len(lanes),
                threads,
                *(array.ctypes.data for array in [*arrays, lanes, out, stats]),
            )
            assert status == 18
        assert _kernels.run_lanes(**tables, lanes=_lanes([0, 2, 0]))[1] == 0.0

    @requires_kernel
    def test_failed_scratch_allocation_raises_memory_error(self):
        # A lane of 2**52 nodes needs more scratch than a 64-bit address
        # space holds, so its share's allocation fails before any table is
        # read; the other share's lanes run, and the call still raises.
        tables = _lane_tables()
        tables["node_off"] = np.array([0, 3, 5, 5, 5 + 2**52])
        lanes = _lanes([0, 0])
        lanes[0, 0] = 3
        for threads in (1, 2):
            with pytest.raises(MemoryError):
                _kernels.run_lanes(**tables, lanes=lanes, _threads=threads)

    @requires_kernel
    def test_zero_node_lanes_return_zero(self):
        tables = _lane_tables()
        lanes = _lanes([2, 0, 2, 2, 0, 0, 2] * 5)
        expected = [0.0 if s == 2 else 6.0 for s in lanes[:, 0]]
        for threads in (1, 2, 4, 64):
            with collect_kernel_stats() as stats:
                out = _kernels.run_lanes(**tables, lanes=lanes, _threads=threads)
            assert out.tolist() == expected
            assert stats.merged()["events"] == 3 * expected.count(6.0)
        assert _kernels.run_lanes(**tables, lanes=_lanes([2, 2])).tolist() == [0.0, 0.0]

    def test_thread_count_rule(self, monkeypatch):
        grain = _kernels.GRAIN_NODES
        monkeypatch.setattr(_kernels, "available_cpus", lambda: 4)
        assert _kernels._thread_count(1, 100 * grain) == 1
        assert _kernels._thread_count(800, grain) == 1
        assert _kernels._thread_count(800, 2 * grain) == 2
        assert _kernels._thread_count(3, 100 * grain) == 3
        assert _kernels._thread_count(800, 100 * grain) == 4
        monkeypatch.setattr(_kernels, "available_cpus", lambda: 1)
        assert _kernels._thread_count(800, 100 * grain) == 1

    def test_library_is_keyed_on_source_and_command(self, monkeypatch, tmp_path):
        commands = []

        def fake_compile(cmd, **kwargs):
            commands.append(cmd)
            open(cmd[-1], "w").close()
            return subprocess.CompletedProcess(cmd, 0, "", "")

        # The fake compiler is never run: any existing file will do.
        monkeypatch.setenv("REPRO_CC", sys.executable)
        monkeypatch.setenv("REPRO_KERNEL_CACHE", str(tmp_path))
        monkeypatch.setattr(_kernels.subprocess, "run", fake_compile)
        first = _kernels._build_library()
        assert _kernels._build_library() == first and len(commands) == 1
        assert commands[0][0] == sys.executable and "-pthread" in commands[0]
        targets = {first}
        monkeypatch.setattr(_kernels, "_FLAGS", (*_kernels._FLAGS, "-DNDEBUG"))
        targets.add(_kernels._build_library())
        monkeypatch.setattr(_kernels, "_C_SOURCE", _kernels._C_SOURCE + "\n")
        targets.add(_kernels._build_library())
        monkeypatch.setenv("REPRO_CC", str(tmp_path / "first.c"))
        (tmp_path / "first.c").touch()
        targets.add(_kernels._build_library())
        assert len(targets) == len(commands) == 4
