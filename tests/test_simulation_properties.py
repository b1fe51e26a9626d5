"""Property-based tests of the simulator on randomly generated tasks."""

from __future__ import annotations

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.analysis.homogeneous import makespan_lower_bound
from repro.core.transformation import transform
from repro.simulation.engine import simulate
from repro.simulation.platform import ACCELERATOR, HOST, INSTANT, Platform
from repro.simulation.schedulers import (
    BreadthFirstPolicy,
    CriticalPathFirstPolicy,
    DepthFirstPolicy,
    RandomPolicy,
)

from strategies import make_random_heterogeneous_task, make_random_host_task

_SEEDS = st.integers(min_value=0, max_value=4_000)
_FRACTIONS = st.floats(min_value=0.01, max_value=0.6, allow_nan=False)
_CORES = st.sampled_from([1, 2, 3, 4, 8])
_POLICY_FACTORIES = (
    BreadthFirstPolicy,
    DepthFirstPolicy,
    CriticalPathFirstPolicy,
    lambda: RandomPolicy(0),
)


@settings(max_examples=40, deadline=None)
@given(seed=_SEEDS, fraction=_FRACTIONS, cores=_CORES)
# Two host completions one ulp apart are retired as one instant; the
# capacity check once counted the later one as still running.
@example(seed=1674, fraction=0.01171875, cores=2)
def test_every_trace_is_a_legal_schedule(seed, fraction, cores):
    task = make_random_heterogeneous_task(seed, fraction, n_max=30)
    platform = Platform(host_cores=cores, accelerators=1)
    for factory in _POLICY_FACTORIES:
        trace = simulate(task, platform, factory())
        trace.validate()
        assert len(trace) == task.node_count


@settings(max_examples=40, deadline=None)
@given(seed=_SEEDS, fraction=_FRACTIONS, cores=_CORES)
def test_makespan_respects_structural_lower_bounds(seed, fraction, cores):
    task = make_random_heterogeneous_task(seed, fraction, n_max=30)
    platform = Platform(host_cores=cores, accelerators=1)
    lower = makespan_lower_bound(task, cores)
    for factory in _POLICY_FACTORIES:
        makespan = simulate(task, platform, factory()).makespan()
        assert makespan >= lower - 1e-9
        assert makespan <= task.volume + 1e-9


@settings(max_examples=30, deadline=None)
@given(seed=_SEEDS, fraction=_FRACTIONS, cores=_CORES)
def test_offloaded_node_runs_on_the_accelerator_and_host_nodes_do_not(
    seed, fraction, cores
):
    task = make_random_heterogeneous_task(seed, fraction, n_max=25)
    trace = simulate(task, Platform(cores, 1))
    for record in trace.executions:
        if record.node == task.offloaded_node and record.duration > 0:
            assert record.resource_kind == ACCELERATOR
        elif record.duration > 0:
            assert record.resource_kind == HOST
        else:
            assert record.resource_kind == INSTANT


@settings(max_examples=30, deadline=None)
@given(seed=_SEEDS, fraction=_FRACTIONS, cores=_CORES)
def test_work_conservation_no_idle_core_while_work_is_pending(seed, fraction, cores):
    """At any node start, either it starts at its ready time or the start is
    justified by resource contention earlier (queueing delay only accrues
    when the resource class was saturated at the ready instant)."""
    task = make_random_heterogeneous_task(seed, fraction, n_max=25)
    platform = Platform(cores, 1)
    trace = simulate(task, platform)
    host_records = [r for r in trace.executions if r.resource_kind == HOST]
    for record in host_records:
        if record.queueing_delay <= 1e-9:
            continue
        # The node waited: at its ready instant all m cores must be busy.
        busy = sum(
            1
            for other in host_records
            if other is not record
            and other.start <= record.ready < other.finish
        )
        assert busy >= platform.host_cores


@settings(max_examples=30, deadline=None)
@given(seed=_SEEDS, fraction=_FRACTIONS)
def test_transformed_task_simulation_respects_the_sync_barrier(seed, fraction):
    task = make_random_heterogeneous_task(seed, fraction, n_max=25)
    transformed = transform(task)
    trace = simulate(transformed.task, Platform(2, 1))
    sync_finish = trace.execution_of(transformed.sync_node).finish
    assert trace.execution_of(transformed.offloaded_node).start >= sync_finish - 1e-9
    for node in transformed.gpar_nodes:
        assert trace.execution_of(node).start >= sync_finish - 1e-9


@settings(max_examples=25, deadline=None)
@given(seed=_SEEDS, cores=_CORES)
def test_homogeneous_and_offload_disabled_traces_match(seed, cores):
    """A heterogeneous task with offload disabled behaves exactly like the
    same task stripped of its offload designation."""
    task = make_random_heterogeneous_task(seed, 0.2, n_max=25)
    platform = Platform(cores, 1)
    disabled = simulate(task, platform, offload_enabled=False)
    stripped = simulate(task.as_homogeneous(), platform)
    assert disabled.makespan() == stripped.makespan()


@settings(max_examples=25, deadline=None)
@given(seed=_SEEDS, cores=_CORES)
def test_offloading_is_bounded_relative_to_the_homogeneous_execution(seed, cores):
    """Scheduling anomalies aside, offloading cannot blow the makespan up.

    Offloading is not *guaranteed* to help under a fixed work-conserving
    policy (removing v_off from the host changes the ready order, which can
    trigger Graham anomalies), but the heterogeneous makespan is bounded by
    Eq. 1 while the homogeneous one is at least ``max(len, vol/m)``, so the
    ratio can never exceed 2.
    """
    task = make_random_heterogeneous_task(seed, 0.3, n_max=25)
    platform = Platform(cores, 1)
    hetero = simulate(task, platform).makespan()
    homo = simulate(task, platform, offload_enabled=False).makespan()
    assert hetero <= 2 * homo + 1e-9
