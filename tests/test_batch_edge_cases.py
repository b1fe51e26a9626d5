"""Edge cases of the batched simulation and generation entry points.

``simulate_many`` and ``chunked_offload_fraction_sweep`` sit under every
sweep driver; these tests pin their behaviour on the degenerate inputs a
sweep can produce -- empty ensembles, chunks larger than the ensemble,
single-policy batches, scalar and numpy-integer platforms, zero-node graphs
-- so refactors of the batching layers cannot silently change them.  The
last class pins the one domain check of seeds at the batch boundary.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.exceptions import ValidationError
from repro.core.graph import DirectedAcyclicGraph
from repro.core.task import DagTask
from repro.generator import sweep
from repro.generator.config import OffloadConfig
from repro.generator.presets import SMALL_TASKS
from repro.generator.sweep import chunked_offload_fraction_sweep
from repro.parallel import spawn_seeds
from repro.simulation import batch
from repro.simulation.batch import simulate_many
from repro.simulation.engine import simulate, simulate_makespan
from repro.simulation.schedulers import BreadthFirstPolicy, RandomPolicy

from strategies import make_random_heterogeneous_task


def _wcet_tables(point):
    return [task.graph.wcets() for task in point.tasks]


class TestSimulateManyEdgeCases:
    def test_empty_ensemble(self):
        assert simulate_many([], [2]).shape == (0, 1, 1)
        assert simulate_many([], [2, 4], [BreadthFirstPolicy()]).shape == (0, 2, 1)

    def test_chunk_size_larger_than_ensemble(self, monkeypatch):
        tasks = [make_random_heterogeneous_task(seed, 0.2, n_max=15) for seed in range(3)]
        huge = simulate_many(tasks, [2])
        assert batch.CHUNK_SIZE > len(tasks)
        monkeypatch.setattr(batch, "CHUNK_SIZE", 2)
        small = simulate_many(tasks, [2])
        # Chunking is part of the determinism contract only through spawned
        # policy streams; a deterministic policy must not see it at all.
        assert np.array_equal(small, huge)
        for t, task in enumerate(tasks):
            assert huge[t, 0, 0] == simulate(task, 2).makespan()

    # Platform and processor_count take numpy integers as core counts, so
    # a numpy integer is one platform here too.
    @pytest.mark.parametrize("cores", [2, np.int64(2), np.uint8(2)], ids=["int", "int64", "uint8"])
    def test_single_policy_batch_accepts_scalar_arguments(self, cores):
        task = make_random_heterogeneous_task(2, 0.2, n_max=15)
        grid = simulate_many([task], cores, BreadthFirstPolicy())
        assert grid.shape == (1, 1, 1)
        assert grid[0, 0, 0] == simulate(task, 2).makespan()

    def test_zero_node_graph_lane(self):
        empty = DagTask(graph=DirectedAcyclicGraph())
        task = make_random_heterogeneous_task(4, 0.2, n_max=15)
        grid = simulate_many([empty, task], [2, 4])
        assert grid.shape == (2, 2, 1)
        assert grid[0].tolist() == [[0.0], [0.0]]
        assert grid[1, 0, 0] == simulate(task, 2).makespan()

    def test_zero_node_lane_in_a_random_chunk(self):
        # The empty lane shares its chunk's one spawned RandomPolicy with
        # the task after it, whose cells must see the stream the reference
        # engine gives them.
        empty = DagTask(graph=DirectedAcyclicGraph())
        task = make_random_heterogeneous_task(5, 0.3, n_max=15)
        policy = RandomPolicy(7).spawned(spawn_seeds(3, 1)[0])
        expected = [
            [[simulate_makespan(each, cores, policy)] for cores in (2, 4)]
            for each in (empty, task)
        ]
        grid = simulate_many([empty, task], [2, 4], RandomPolicy(7), root_seed=3)
        assert grid[0].tolist() == [[0.0], [0.0]]
        assert grid.tolist() == expected

    def test_invalid_arguments(self):
        task = make_random_heterogeneous_task(1, 0.2, n_max=10)
        with pytest.raises(ValueError):
            simulate_many([task], [])
        with pytest.raises(ValueError):
            simulate_many([task], [2], [])
        with pytest.raises(ValueError):
            simulate_many([task], [2], engine="warp")


class TestChunkedSweepEdgeCases:
    def _sweep(self, **kwargs):
        defaults = dict(
            fractions=[0.1],
            dags_per_point=3,
            generator_config=SMALL_TASKS,
            offload_config=OffloadConfig(),
            root_seed=1,
        )
        defaults.update(kwargs)
        return chunked_offload_fraction_sweep(**defaults)

    def test_empty_ensemble_and_empty_grid(self):
        points = self._sweep(dags_per_point=0)
        assert [len(point) for point in points] == [0]
        assert self._sweep(fractions=[]) == []

    def test_chunk_size_larger_than_ensemble(self, monkeypatch):
        # Chunk boundaries seed the generator streams, so the draws are
        # allowed to differ between chunk sizes -- but each configuration
        # must be internally deterministic.
        assert sweep.CHUNK_SIZE > 3
        oversized = self._sweep()
        assert _wcet_tables(oversized[0]) == _wcet_tables(self._sweep()[0])
        monkeypatch.setattr(sweep, "CHUNK_SIZE", 1)
        reference = self._sweep()
        assert len(reference[0]) == len(oversized[0]) == 3

    def test_growing_the_ensemble_keeps_the_drawn_prefix(self, monkeypatch):
        # Chunk c draws from the c-th spawned child seed whatever the chunk
        # count, and a chunk draws its tasks in order, so a larger ensemble
        # (here ending on a partial chunk) starts with the smaller one.
        monkeypatch.setattr(sweep, "CHUNK_SIZE", 2)
        small = self._sweep(dags_per_point=3)
        large = self._sweep(dags_per_point=5)
        assert _wcet_tables(large[0])[:3] == _wcet_tables(small[0])
        assert [task.name for task in large[0].tasks][:3] == [
            task.name for task in small[0].tasks
        ]


#: Values that are not seeds: numpy's SeedSequence took ``True`` as 1 and
#: refused the others with its own text.
_NOT_SEEDS = {"True": True, "-1": -1, "2.5": 2.5, "str": "3"}


def _simulate_many(**kwargs):
    task = make_random_heterogeneous_task(1, 0.2, n_max=10)
    return simulate_many([task], [2], **kwargs)


def _sweep(**kwargs):
    return chunked_offload_fraction_sweep(
        fractions=[0.1], dags_per_point=2, generator_config=SMALL_TASKS, **kwargs
    )


class TestSeedDomain:
    """One check each, raising :class:`ValidationError` (a ``ValueError``)
    that names the argument, whatever the entry point."""

    @pytest.mark.parametrize("value", _NOT_SEEDS.values(), ids=_NOT_SEEDS.keys())
    @pytest.mark.parametrize(
        "call",
        [
            lambda seed: _simulate_many(root_seed=seed),
            lambda seed: simulate_many([], [2], root_seed=seed),
            lambda seed: _sweep(root_seed=seed),
            lambda seed: spawn_seeds(seed, 1),
        ],
        ids=["simulate_many", "simulate_many-empty", "sweep", "spawn_seeds"],
    )
    def test_root_seed_is_checked(self, call, value):
        with pytest.raises(ValidationError, match=r"^root_seed must be an integer >= 0, got "):
            call(value)

    @pytest.mark.parametrize("value", _NOT_SEEDS.values(), ids=_NOT_SEEDS.keys())
    def test_random_policy_seed_is_checked(self, value):
        with pytest.raises(ValidationError, match=r"^rng must be an integer >= 0, got "):
            RandomPolicy(value)

    def test_valid_values_pass_unchanged(self):
        generator = np.random.default_rng(5)
        assert RandomPolicy(generator)._rng is generator
        assert RandomPolicy(None).vector_draws(1).shape == (1,)
        assert RandomPolicy(np.int64(7)).vector_draws(3).tolist() == (
            RandomPolicy(7).vector_draws(3).tolist()
        )
        assert spawn_seeds(np.uint64(3), 2) == spawn_seeds(3, 2)
        assert np.array_equal(
            _simulate_many(root_seed=np.int64(4)), _simulate_many(root_seed=4)
        )
