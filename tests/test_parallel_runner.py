"""Serial/parallel equivalence of the experiment runner, and batched analysis.

The acceptance contract of the parallel layer is strict: ``jobs=N`` must
produce *bit-identical* results to the serial path, for every driver that
takes ``jobs``.  These tests run each such driver both ways at a tiny scale
and compare the full result documents.
"""

from __future__ import annotations

import os

import pytest

from repro.analysis import analyse, analyse_many
from repro.experiments.config import ExperimentScale
from repro.experiments.runner import parallel_experiments, run_all, run_experiment
from repro.generator.config import OffloadConfig
from repro.generator.presets import SMALL_TASKS
from repro.generator.sweep import offload_fraction_sweep
from repro.parallel import available_cpus, parallel_map, resolve_jobs, spawn_seeds

#: Small enough that running every figure twice stays in the seconds range.
TINY = ExperimentScale(
    dags_per_point=3,
    core_counts=(2, 8),
    fractions=[0.05, 0.30],
    small_task_fractions=[0.20],
    ilp_node_range=(3, 8),
    ilp_wcet_max=5,
    ilp_time_limit=10.0,
    seed=11,
)


def _double(value: int) -> int:
    """Module-level worker so that it is picklable by the process pool."""
    return 2 * value


def _tasks(count: int = 6):
    points = offload_fraction_sweep(
        [0.2], count, SMALL_TASKS, OffloadConfig(), rng=3, paired=True
    )
    return points[0].tasks


class TestParallelHelpers:
    def test_resolve_jobs(self):
        assert resolve_jobs(None) == 1
        assert resolve_jobs(0) == 1
        assert resolve_jobs(1) == 1
        assert resolve_jobs(4) == 4
        assert resolve_jobs(-1) >= 1

    def test_all_cores_means_the_cpus_the_process_may_run_on(self, monkeypatch):
        # Under ``taskset -c 0`` on a 2-CPU host, --jobs -1 once started two
        # workers on the one CPU the process may use.
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 8)
        assert available_cpus() == 1
        assert resolve_jobs(-1) == 1
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        assert available_cpus() == 8
        assert resolve_jobs(-1) == 8

    def test_parallel_map_preserves_order_serially_and_in_processes(self):
        items = list(range(20))
        expected = [2 * value for value in items]
        assert parallel_map(_double, items) == expected
        assert parallel_map(_double, items, jobs=2) == expected

    def test_spawn_seeds_deterministic_and_distinct(self):
        first = spawn_seeds(2018, 8)
        second = spawn_seeds(2018, 8)
        assert first == second
        assert len(set(first)) == len(first)
        assert spawn_seeds(2019, 8) != first
        with pytest.raises(ValueError):
            spawn_seeds(2018, -1)


class TestRunnerJobs:
    def test_jobs_reaches_only_the_oracle_driver(self):
        assert parallel_experiments() == ["figure7"]

    @pytest.mark.parametrize("name", parallel_experiments())
    def test_bit_identical_serial_vs_parallel(self, name):
        serial = run_experiment(name, TINY)
        parallel = run_experiment(name, TINY, jobs=2)
        assert serial.identical_to(parallel)
        assert serial.to_dict() == parallel.to_dict()

    @pytest.mark.parametrize(
        "name", ["figure6", "figure8", "figure9", "workload-schedulability"]
    )
    def test_serial_drivers_give_the_serial_result_under_jobs(self, name):
        # ``repro experiment NAME --jobs 2`` is accepted for every name; a
        # driver that takes no jobs must not be forwarded it.
        assert name not in parallel_experiments()
        serial = run_experiment(name, TINY)
        with_jobs = run_experiment(name, TINY, jobs=2)
        assert serial.to_dict() == with_jobs.to_dict()

    def test_run_all_forwards_jobs_only_where_taken(self):
        names = ["worked-example", "figure8", "workload-schedulability"]
        results = run_all(TINY, names=names, jobs=2)
        assert set(results) == set(names)
        reference = run_all(TINY, names=names)
        for name, result in results.items():
            assert result.identical_to(reference[name])

    def test_jobs_ignored_by_unsupporting_experiments(self):
        # The worked example takes no scale or jobs; forwarding must not blow up.
        result = run_experiment("worked-example", TINY, jobs=2)
        assert result.name == "worked-example"


class TestAnalyseMany:
    def test_matches_per_task_analyse(self):
        tasks = _tasks()
        batch = analyse_many(tasks, cores=(2, 4))
        assert len(batch) == len(tasks)
        for analysis, task in zip(batch, tasks):
            assert analysis.task is task
            assert analysis.transformed is not None
            for cores in (2, 4):
                reference = analyse(task, cores)
                assert set(analysis.results[cores]) == set(reference)
                for method, result in reference.items():
                    assert analysis.results[cores][method].bound == result.bound
                    assert analysis.results[cores][method].scenario == result.scenario

    def test_mixed_batch_from_an_iterator_keeps_input_order(self):
        heterogeneous = _tasks(count=3)
        tasks = [heterogeneous[0], heterogeneous[1].as_homogeneous(), heterogeneous[2]]
        batch = analyse_many(iter(tasks), cores=(2, 8))
        assert [analysis.task for analysis in batch] == tasks
        assert [analysis.transformed is None for analysis in batch] == [
            False,
            True,
            False,
        ]
        for analysis, task in zip(batch, tasks):
            for cores in (2, 8):
                reference = analyse(task, cores)
                assert {
                    method: result.bound
                    for method, result in analysis.results[cores].items()
                } == {method: result.bound for method, result in reference.items()}
        assert analyse_many([], cores=(2, 8)) == []

    def test_int_cores_and_helpers(self):
        tasks = _tasks(count=2)
        batch = analyse_many(tasks, cores=2, include_naive=False)
        assert batch[0].methods() == ["hom", "het"]
        assert batch[0].bound(2, "het") == batch[0].results[2]["het"].bound

    def test_homogeneous_tasks_get_only_hom(self):
        tasks = [task.as_homogeneous() for task in _tasks(count=2)]
        batch = analyse_many(tasks, cores=2)
        assert batch[0].transformed is None
        assert batch[0].methods() == ["hom"]

    def test_empty_cores_rejected(self):
        with pytest.raises(ValueError):
            analyse_many(_tasks(count=1), cores=())
