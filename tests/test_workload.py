"""Online multi-instance workloads: arrival processes, metrics, engines.

The load-bearing contract is bit-identity: ``simulate_workload`` (the
dense engine's event loop) must produce *exactly* the same per-instance
completion times as the scalar reference event loop, for every policy
family, arrival pattern, platform shape and seed -- enforced here with a
hypothesis harness.  A single instance released at time zero
must in turn reproduce :func:`repro.simulation.engine.simulate_makespan`
bit-for-bit, anchoring the whole subsystem to the engines already pinned
by the rest of the suite.
"""

from __future__ import annotations

import math
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.exceptions import SimulationError, ValidationError
from repro.core.task import DagTask
from repro.core.transformation import transform
from repro.generator.arrivals import (
    PeriodicArrivals,
    SporadicArrivals,
    TraceArrivals,
    arrival_from_dict,
    arrival_to_dict,
)
from repro.simulation.engine import simulate_makespan
from repro.simulation.kernel_stats import collect_kernel_stats
from repro.simulation.platform import Platform
from repro.simulation.schedulers import policy_by_name
from repro.simulation.workload import (
    JobInstance,
    JobStream,
    build_workload,
    simulate_workload,
    simulate_workload_reference,
)

from strategies import make_random_heterogeneous_task, make_random_host_task

_POLICY_NAMES = (
    "breadth-first",
    "depth-first",
    "critical-path-first",
    "shortest-first",
    "longest-first",
    "fixed-priority",
    "random",
)


def _policy(name: str, seed: int = 0):
    return policy_by_name(name, seed) if name == "random" else policy_by_name(name)


def _task(seed: int, heterogeneous: bool):
    if heterogeneous:
        return make_random_heterogeneous_task(
            seed, offload_fraction=0.3, n_max=16, c_max=8
        )
    return make_random_host_task(seed, n_max=16, c_max=8)


# ----------------------------------------------------------------------
# Arrival processes
# ----------------------------------------------------------------------
class TestArrivalProcesses:
    def test_periodic_without_jitter_is_exact(self):
        arrivals = PeriodicArrivals(period=10.0, offset=3.0)
        times = arrivals.release_times(45.0)
        assert times.tolist() == [3.0, 13.0, 23.0, 33.0, 43.0]

    def test_periodic_jitter_is_bounded_and_sorted(self):
        arrivals = PeriodicArrivals(period=10.0, jitter=4.0, seed=5)
        times = arrivals.release_times(200.0)
        base = np.arange(len(times)) * 10.0
        # Releases stay sorted even though each is independently jittered
        # within [k*period, k*period + jitter).
        assert np.all(np.diff(times) >= 0)
        assert np.all(times >= base) and np.all(times < base + 4.0)

    def test_periodic_jitter_is_seeded(self):
        one = PeriodicArrivals(period=7.0, jitter=2.0, seed=1).release_times(100.0)
        same = PeriodicArrivals(period=7.0, jitter=2.0, seed=1).release_times(100.0)
        other = PeriodicArrivals(period=7.0, jitter=2.0, seed=2).release_times(100.0)
        assert one.tolist() == same.tolist()
        assert one.tolist() != other.tolist()

    def test_sporadic_respects_gap_bounds(self):
        arrivals = SporadicArrivals(min_gap=3.0, max_gap=9.0, seed=11)
        times = arrivals.release_times(500.0)
        gaps = np.diff(times)
        assert len(times) > 10
        assert np.all(gaps >= 3.0) and np.all(gaps <= 9.0)
        assert np.all(times < 500.0)

    def test_trace_sorts_and_validates(self):
        assert TraceArrivals([5.0, 1.0, 3.0]).release_times(10.0).tolist() == [
            1.0,
            3.0,
            5.0,
        ]
        with pytest.raises(ValueError):
            TraceArrivals([-1.0, 2.0])

    def test_horizon_extension_preserves_prefix(self):
        # Growing the horizon must never change already-drawn releases
        # (the chunked seeded scheme draws per chunk, not per horizon).
        for arrivals in (
            PeriodicArrivals(period=2.0, jitter=1.0, seed=3),
            SporadicArrivals(min_gap=1.0, max_gap=4.0, seed=3),
        ):
            short = arrivals.release_times(100.0)
            long = arrivals.release_times(400.0)
            assert long[: len(short)].tolist() == short.tolist()

    def test_release_times_concatenate_the_chunk_draws_in_order(self):
        # Both random kinds written out over several ARRIVAL_CHUNK chunks:
        # draw k is uniform k of the concatenated child-seed chunks.
        from repro.generator.arrivals import ARRIVAL_CHUNK
        from repro.parallel import spawn_seeds

        def uniforms(seed, count):
            seeds = spawn_seeds(seed, -(-count // ARRIVAL_CHUNK))
            return np.concatenate(
                [np.random.default_rng(child).random(ARRIVAL_CHUNK) for child in seeds]
            )[:count]

        periodic = np.sort(np.arange(400) * 1.5 + 0.75 * uniforms(9, 400))
        sporadic = np.cumsum(0.5 + 1.5 * uniforms(9, 1200))
        for arrivals, expected in (
            (PeriodicArrivals(period=1.5, jitter=0.75, seed=9), periodic),
            (SporadicArrivals(min_gap=0.5, max_gap=2.0, seed=9), sporadic),
        ):
            drawn = arrivals.release_times(600.0)
            assert drawn.tolist() == expected[expected < 600.0].tolist()

    def test_chunk_draws_come_from_the_spawned_child_seed(self):
        from repro.generator.arrivals import ARRIVAL_CHUNK, _draw_chunk
        from repro.parallel import spawn_seeds

        for chunk in (0, 1, 63, 4095):
            child = spawn_seeds(9, chunk + 1)[chunk]
            expected = np.random.default_rng(child).random(ARRIVAL_CHUNK)
            drawn = _draw_chunk(9, chunk, ARRIVAL_CHUNK)
            assert drawn.tolist() == expected.tolist()

    def test_long_jittered_stream_draws_in_linear_time(self):
        # A chunk seed that costs O(chunk index) makes the whole draw
        # O(chunks^2): 1 000 chunks then take seconds.
        arrivals = PeriodicArrivals(period=1.0, jitter=0.5, seed=4)
        started = time.perf_counter()
        times = arrivals.release_times(64_000.0)
        elapsed = time.perf_counter() - started
        assert len(times) == 64_000
        assert elapsed < 2.0, f"64 000 jittered releases took {elapsed:.2f} s"

    def test_round_trip_through_dict(self):
        processes = [
            PeriodicArrivals(period=4.0, offset=1.0, jitter=0.5, seed=2),
            SporadicArrivals(min_gap=1.0, max_gap=3.0, offset=0.5, seed=4),
            TraceArrivals([0.0, 2.5, 2.5, 9.0]),
        ]
        for process in processes:
            clone = arrival_from_dict(arrival_to_dict(process))
            assert type(clone) is type(process)
            assert (
                clone.release_times(50.0).tolist()
                == process.release_times(50.0).tolist()
            )

    def test_max_releases_bounds_release_times_without_drawing(self):
        processes = [
            PeriodicArrivals(period=4.0, offset=1.0, jitter=3.5, seed=2),
            PeriodicArrivals(period=0.1),
            SporadicArrivals(min_gap=1.0, max_gap=3.0, offset=0.5, seed=4),
            TraceArrivals([0.0, 2.5, 2.5, 9.0, 50.0]),
        ]
        for process in processes:
            for horizon in (0.0, 0.5, 9.0, 50.0, 333.3):
                bound = process.max_releases(horizon)
                assert len(process.release_times(horizon)) <= bound
        assert TraceArrivals([0.0, 2.5, 2.5, 9.0]).max_releases(9.0) == 3
        assert PeriodicArrivals(period=1e-3).max_releases(1e3) == 1e6
        # Counts past any integer a request could unroll stay floats.
        assert PeriodicArrivals(period=1e-300).max_releases(1e300) == math.inf
        assert SporadicArrivals(min_gap=1e-9, max_gap=1.0).max_releases(1e3) == 1e12
        with pytest.raises(ValueError, match="horizon"):
            PeriodicArrivals(period=1.0).max_releases(math.inf)

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            arrival_from_dict({"kind": "poisson", "rate": 1.0})

    def test_invalid_parameters_rejected(self):
        with pytest.raises(ValueError):
            PeriodicArrivals(period=0.0)
        with pytest.raises(ValueError):
            SporadicArrivals(min_gap=0.0, max_gap=1.0)
        with pytest.raises(ValueError):
            SporadicArrivals(min_gap=2.0, max_gap=1.0)


# ----------------------------------------------------------------------
# Streams and workload assembly
# ----------------------------------------------------------------------
class TestStreamsAndAssembly:
    def test_instances_carry_absolute_deadlines(self):
        task = make_random_host_task(1, n_max=10)
        stream = JobStream(
            task=task, arrivals=PeriodicArrivals(period=10.0), deadline=8.0
        )
        jobs = stream.instances(35.0)
        assert [job.release for job in jobs] == [0.0, 10.0, 20.0, 30.0]
        assert [job.deadline for job in jobs] == [8.0, 18.0, 28.0, 38.0]

    def test_relative_deadline_falls_back_to_task(self):
        import dataclasses

        task = make_random_host_task(2, n_max=10)
        arrivals = PeriodicArrivals(period=5.0)
        assert JobStream(task, arrivals, deadline=3.0).relative_deadline() == 3.0
        untimed = dataclasses.replace(task, period=None, deadline=None)
        assert JobStream(untimed, arrivals).relative_deadline() is None
        # DagTask defaults an unset deadline to the period (implicit model).
        implicit = dataclasses.replace(task, period=9.0, deadline=None)
        assert JobStream(implicit, arrivals).relative_deadline() == 9.0
        constrained = dataclasses.replace(task, period=9.0, deadline=7.0)
        assert JobStream(constrained, arrivals).relative_deadline() == 7.0

    @pytest.mark.parametrize(
        "deadline", [True, False, 0, -5.0, math.inf, math.nan, "8"]
    )
    def test_relative_deadline_must_be_a_finite_positive_number(self, deadline):
        task = make_random_host_task(2, n_max=10)
        with pytest.raises(ValidationError, match="relative deadline"):
            JobStream(task, PeriodicArrivals(period=5.0), deadline=deadline)

    def test_build_workload_orders_by_release_then_stream(self):
        tasks = [make_random_host_task(s, n_max=8) for s in (3, 4)]
        streams = [
            JobStream(tasks[0], TraceArrivals([0.0, 6.0])),
            JobStream(tasks[1], TraceArrivals([0.0, 2.0])),
        ]
        workload = build_workload(streams, 10.0)
        assert [(job.release, job.stream, job.index) for job in workload] == [
            (0.0, 0, 0),
            (0.0, 1, 0),
            (2.0, 1, 1),
            (6.0, 0, 1),
        ]

    def test_build_workload_merges_each_streams_seeded_releases(self):
        tasks = [make_random_host_task(s, n_max=8) for s in (5, 6)]
        streams = [
            JobStream(tasks[0], PeriodicArrivals(period=1.0, jitter=0.5, seed=1)),
            JobStream(tasks[1], SporadicArrivals(min_gap=0.5, max_gap=1.5, seed=2)),
        ]
        workload = build_workload(streams, 300.0)
        keys = [(job.release, job.stream, job.index) for job in workload]
        assert keys == sorted(keys)
        for s, stream in enumerate(streams):
            jobs = [job for job in workload if job.stream == s]
            assert all(job.task is stream.task for job in jobs)
            assert [job.index for job in jobs] == list(range(len(jobs)))
            assert [job.release for job in jobs] == (
                stream.arrivals.release_times(300.0).tolist()
            )

    def test_releases_at_or_past_horizon_are_dropped(self):
        task = make_random_host_task(7, n_max=8)
        stream = JobStream(task, TraceArrivals([0.0, 9.0, 10.0, 11.0]))
        assert [job.release for job in stream.instances(10.0)] == [0.0, 9.0]


# ----------------------------------------------------------------------
# Result metrics
# ----------------------------------------------------------------------
class TestWorkloadMetrics:
    def _two_stream_result(self):
        tasks = [make_random_host_task(s, n_max=12) for s in (8, 9)]
        streams = [
            JobStream(tasks[0], PeriodicArrivals(period=30.0), deadline=25.0),
            JobStream(tasks[1], PeriodicArrivals(period=45.0, offset=5.0)),
        ]
        workload = build_workload(streams, 200.0)
        return workload, simulate_workload(workload, 2, None)

    def test_response_times_and_summary(self):
        workload, result = self._two_stream_result()
        assert result.count == len(workload)
        assert np.all(result.completions >= result.releases)
        responses = result.response_times
        assert responses.tolist() == (result.completions - result.releases).tolist()
        summary = result.summary()
        assert summary["instances"] == result.count
        assert summary["makespan"] == result.makespan()
        assert summary["miss_ratio"] == result.miss_ratio()
        assert summary["mean_response"] == result.mean_response()
        assert summary["peak_backlog"] == result.peak_backlog()

    def test_instances_without_deadline_never_miss(self):
        _, result = self._two_stream_result()
        # Stream 1 has no deadline anywhere: its instances cannot miss.
        stream1 = result.streams == 1
        assert not np.any(result.missed[stream1])

    def test_backlog_trajectory_is_conservative(self):
        _, result = self._two_stream_result()
        times, levels = result.backlog()
        assert np.all(np.diff(times) > 0)  # collapsed to one level per instant
        assert levels[-1] == 0  # everything eventually completes
        assert levels.max() == result.peak_backlog()
        # The trajectory is a counting process: it matches the
        # releases-minus-completions balance at every event time.
        for when, level in zip(times, levels):
            released = np.count_nonzero(result.releases <= when)
            done = np.count_nonzero(result.completions <= when)
            assert level == released - done

    def test_empty_workload(self):
        result = simulate_workload([], 2, None)
        assert result.count == 0
        assert result.makespan() == 0.0
        assert result.miss_ratio() == 0.0
        assert result.peak_backlog() == 0
        times, levels = result.backlog()
        assert len(times) == 0 and len(levels) == 0


# ----------------------------------------------------------------------
# Engine contracts
# ----------------------------------------------------------------------
class TestEngineContracts:
    def test_backend_resolution(self):
        task = make_random_host_task(10, n_max=8)
        jobs = [JobInstance(task=task, release=0.0)]
        assert simulate_workload(jobs, 2, None, backend="auto").count == 1
        # One engine: the reference is simulate_workload_reference, and
        # every other backend name is refused with the one valid value.
        for backend in ("numpy", "reference", "compiled", "cuda"):
            with pytest.raises(ValueError, match="'auto'"):
                simulate_workload(jobs, 2, None, backend=backend)

    def test_one_dense_batch_per_call(self):
        tasks = [_task(seed, True) for seed in (24, 25)]
        streams = [
            JobStream(tasks[0], PeriodicArrivals(period=20.0, jitter=3.0, seed=1)),
            JobStream(tasks[1], PeriodicArrivals(period=35.0, offset=2.0)),
        ]
        workload = build_workload(streams, 200.0)
        with collect_kernel_stats() as stats:
            simulate_workload(workload, Platform(2, 1), None)
        (batch,) = stats.batches
        assert batch.engine == "dense"
        assert batch.lanes == 1
        assert batch.events == sum(len(job.task.graph) for job in workload)
        assert batch.steps >= 1 and batch.lane_steps == batch.steps
        # A lone all-instant job still takes a step: its release.
        lone = DagTask.from_wcets({"a": 0.0, "b": 0.0}, [("a", "b")])
        with collect_kernel_stats() as stats:
            result = simulate_workload([JobInstance(lone, 3.0)], 2, None)
        (batch,) = stats.batches
        assert (batch.steps, batch.events) == (1, 2)
        assert result.completions.tolist() == [3.0]

    def test_instance_without_nodes_completes_at_its_release(self):
        empty = DagTask.from_wcets({}, [])
        task = make_random_host_task(12, n_max=8)
        jobs = [
            JobInstance(task=empty, release=0.0, index=0),
            JobInstance(task=task, release=1.0, index=1),
            JobInstance(task=empty, release=2.0, index=2),
        ]
        reference = simulate_workload_reference(jobs, 2, None)
        result = simulate_workload(jobs, 2, None)
        assert result.completions.tolist() == reference.completions.tolist()
        assert result.completions[0] == 0.0 and result.completions[2] == 2.0
        assert result.completions[1] == 1.0 + simulate_makespan(task, 2)

    def test_unsorted_workload_rejected(self):
        task = make_random_host_task(10, n_max=8)
        jobs = [
            JobInstance(task=task, release=5.0, stream=0, index=1),
            JobInstance(task=task, release=0.0, stream=0, index=0),
        ]
        with pytest.raises(SimulationError):
            simulate_workload(jobs, 2, None)

    def test_policy_without_vector_form_rejected(self):
        from repro.simulation.schedulers import FixedPriorityPolicy

        task = make_random_host_task(11, n_max=8)
        jobs = [JobInstance(task=task, release=0.0)]
        table = {node: 1.0 for node in task.graph.nodes()}

        class Opaque(FixedPriorityPolicy):
            @property
            def policy_vector_kind(self):
                return None

        with pytest.raises(SimulationError):
            simulate_workload(jobs, 2, Opaque(table))

    @pytest.mark.parametrize("policy_name", _POLICY_NAMES)
    def test_single_instance_anchors_to_simulate_makespan(self, policy_name):
        for seed, heterogeneous in ((21, False), (22, True)):
            task = _task(seed, heterogeneous)
            jobs = [JobInstance(task=task, release=0.0)]
            platform = Platform(2, 1)
            expected = simulate_makespan(task, platform, _policy(policy_name, 7))
            for simulate_jobs in (simulate_workload_reference, simulate_workload):
                result = simulate_jobs(jobs, platform, _policy(policy_name, 7))
                assert result.completions[0] == expected

    @pytest.mark.parametrize("policy_name", _POLICY_NAMES)
    def test_simultaneous_releases_bit_identical(self, policy_name):
        task = _task(23, True)
        jobs = [
            JobInstance(task=task, release=0.0, stream=0, index=k)
            for k in range(6)
        ]
        reference = simulate_workload_reference(jobs, 2, _policy(policy_name, 3))
        dense = simulate_workload(jobs, 2, _policy(policy_name, 3))
        assert reference.completions.tolist() == dense.completions.tolist()


# ----------------------------------------------------------------------
# The hypothesis harness: the dense loop == scalar reference, exactly
# ----------------------------------------------------------------------
@st.composite
def zeroed_tasks(draw, seed: int):
    """A random task, sometimes Algorithm 1's tau' (whose ``v_sync`` weighs
    zero), with WCETs zeroed at random -- the source nodes included when
    drawn -- so the engines' instant-node cascades are exercised."""
    heterogeneous = draw(st.booleans())
    task = _task(seed, heterogeneous)
    if heterogeneous and draw(st.booleans()):
        task = transform(task).task
    nodes = list(task.graph.nodes())
    zeroed = draw(st.sets(st.sampled_from(nodes), max_size=len(nodes)))
    if draw(st.booleans()):
        zeroed.update(task.graph.sources())
    if zeroed:
        task = task.copy()
        for node in zeroed:
            task.graph.set_wcet(node, 0.0)
    return task


@st.composite
def workload_cases(draw):
    stream_count = draw(st.integers(min_value=1, max_value=3))
    streams = []
    for index in range(stream_count):
        seed = draw(st.integers(min_value=0, max_value=3_000))
        task = draw(zeroed_tasks(seed))
        kind = draw(st.sampled_from(["periodic", "sporadic", "trace"]))
        if kind == "periodic":
            arrivals = PeriodicArrivals(
                period=draw(
                    st.floats(min_value=5.0, max_value=60.0, allow_nan=False)
                ),
                jitter=draw(
                    st.floats(min_value=0.0, max_value=10.0, allow_nan=False)
                ),
                seed=seed,
            )
        elif kind == "sporadic":
            arrivals = SporadicArrivals(
                min_gap=draw(
                    st.floats(min_value=2.0, max_value=20.0, allow_nan=False)
                ),
                max_gap=60.0,
                seed=seed,
            )
        else:
            count = draw(st.integers(min_value=1, max_value=5))
            arrivals = TraceArrivals(
                [
                    draw(
                        st.floats(
                            min_value=0.0, max_value=100.0, allow_nan=False
                        )
                    )
                    for _ in range(count)
                ]
            )
        streams.append(JobStream(task=task, arrivals=arrivals, deadline=40.0))
    horizon = draw(st.floats(min_value=10.0, max_value=120.0, allow_nan=False))
    policy_name = draw(st.sampled_from(_POLICY_NAMES))
    policy_seed = draw(st.integers(min_value=0, max_value=500))
    cores = draw(st.integers(min_value=1, max_value=4))
    accelerators = draw(st.integers(min_value=1, max_value=2))
    return streams, horizon, policy_name, policy_seed, Platform(cores, accelerators)


class TestDenseLoopBitIdentity:
    @given(case=workload_cases())
    @settings(max_examples=60, deadline=None)
    def test_dense_loop_matches_scalar_reference(self, case):
        streams, horizon, policy_name, policy_seed, platform = case
        workload = build_workload(streams, horizon)
        reference = simulate_workload_reference(
            workload, platform, _policy(policy_name, policy_seed)
        )
        dense = simulate_workload(
            workload, platform, _policy(policy_name, policy_seed)
        )
        assert reference.completions.tolist() == dense.completions.tolist()
        assert reference.releases.tolist() == dense.releases.tolist()
        assert reference.miss_ratio() == dense.miss_ratio()

    @given(case=workload_cases())
    @settings(max_examples=15, deadline=None)
    def test_offload_disabled_also_bit_identical(self, case):
        streams, horizon, policy_name, policy_seed, platform = case
        workload = build_workload(streams, horizon)
        reference = simulate_workload_reference(
            workload,
            platform,
            _policy(policy_name, policy_seed),
            offload_enabled=False,
        )
        dense = simulate_workload(
            workload,
            platform,
            _policy(policy_name, policy_seed),
            offload_enabled=False,
        )
        assert reference.completions.tolist() == dense.completions.tolist()
