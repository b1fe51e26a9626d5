"""Chunk-seeded DAG-ensemble generation (`repro.generator.sweep`).

The chunked scheme derives one child seed per chunk of
``repro.generator.sweep.CHUNK_SIZE`` tasks via ``repro.parallel.spawn_seeds``,
so the drawn ensemble is a pure function of ``(root_seed, dags_per_point,
configs)``.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np

from repro.generator import sweep
from repro.generator.config import OffloadConfig
from repro.generator.offload import pin_offloaded_fraction, select_offloaded_node
from repro.generator.presets import SMALL_TASKS
from repro.generator.random_dag import DagStructureGenerator
from repro.generator.sweep import chunked_offload_fraction_sweep
from repro.parallel import spawn_seeds

CONFIG = replace(SMALL_TASKS, n_min=4, n_max=12, c_max=20)


def _sweep(dags=10, root_seed=321):
    return chunked_offload_fraction_sweep(
        fractions=[0.05, 0.2, 0.4],
        dags_per_point=dags,
        generator_config=CONFIG,
        offload_config=OffloadConfig(),
        root_seed=root_seed,
    )


class TestChunkedGeneration:
    def test_chunk_draws_come_from_the_spawned_child_seed(self, monkeypatch):
        # The chunk-seeding contract written out: chunk c of 4 tasks draws
        # its structures and v_off selections from spawn_seeds(321, 3)[c].
        monkeypatch.setattr(sweep, "CHUNK_SIZE", 4)
        points = _sweep()
        assert len(points) == 3
        for c, seed in enumerate(spawn_seeds(321, 3)):
            rng = np.random.default_rng(seed)
            generator = DagStructureGenerator(CONFIG, rng)
            for index in range(4 * c, min(4 * c + 4, 10)):
                task = generator.generate_task(name=f"tau_{index}")
                base = select_offloaded_node(task, OffloadConfig(), rng)
                for point in points:
                    expected = pin_offloaded_fraction(
                        base, point.fraction, OffloadConfig().minimum_wcet
                    )
                    drawn = point.tasks[index]
                    assert drawn.graph == expected.graph
                    assert drawn.offloaded_node == expected.offloaded_node
                    assert drawn.name == expected.name

    def test_paired_design_shares_structures_across_fractions(self):
        points = _sweep()
        first, second = points[0], points[1]
        for task_a, task_b in zip(first.tasks, second.tasks):
            assert task_a.offloaded_node == task_b.offloaded_node
            # Same structure, only C_off re-pinned.
            assert task_a.graph.edges() == task_b.graph.edges()
            host_a = {n: task_a.graph.wcet(n) for n in task_a.host_nodes()}
            host_b = {n: task_b.graph.wcet(n) for n in task_b.host_nodes()}
            assert host_a == host_b

    def test_chunk_size_changes_draws_but_not_structure_of_result(self, monkeypatch):
        # The chunk partition is part of the determinism contract: a
        # different chunk size is a different (still reproducible) ensemble.
        monkeypatch.setattr(sweep, "CHUNK_SIZE", 2)
        small_chunks = _sweep()
        monkeypatch.setattr(sweep, "CHUNK_SIZE", 10)
        large_chunks = _sweep()
        assert [p.fraction for p in small_chunks] == [
            p.fraction for p in large_chunks
        ]
        assert all(len(p.tasks) == 10 for p in small_chunks + large_chunks)
        assert any(
            task_a.graph != task_b.graph
            for task_a, task_b in zip(small_chunks[0].tasks, large_chunks[0].tasks)
        )

    def test_root_seed_changes_draws(self):
        a = _sweep(root_seed=1)
        b = _sweep(root_seed=2)
        assert any(
            task_a.graph != task_b.graph
            for task_a, task_b in zip(a[0].tasks, b[0].tasks)
        )

    def test_spawn_seeds_partition_is_scheduling_independent(self):
        # The child seeds only depend on (root, count).
        assert spawn_seeds(7, 5) == spawn_seeds(7, 5)
        assert spawn_seeds(7, 5)[:3] != spawn_seeds(8, 5)[:3]
