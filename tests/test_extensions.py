"""Tests for the future-work extensions (:mod:`repro.extensions`)."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.homogeneous import response_time as homogeneous_response_time
from repro.core.exceptions import AnalysisError, ValidationError
from repro.core.task import DagTask
from repro.extensions.multi_device import (
    MultiDeviceTask,
    balance_devices,
    simulate_multi_device,
)
from repro.extensions.multi_device import response_time as multi_device_response_time
from repro.extensions.multi_offload import (
    MultiOffloadTask,
    simulate_multi_offload,
)
from repro.extensions.multi_offload import response_time as multi_offload_response_time
from repro.simulation.schedulers import BreadthFirstPolicy, RandomPolicy

from strategies import make_random_heterogeneous_task


def two_offload_task() -> MultiOffloadTask:
    """A task whose simulated makespan *exceeds* Equation 1 (see below).

    Two independent offloaded nodes serialise on the single accelerator
    while both host cores idle: with ``m = 2`` Equation 1 gives
    ``12 + 10/2 = 17`` but the only possible execution takes 22 time units.
    """
    task = DagTask.from_wcets(
        {"a": 1, "o1": 10, "o2": 10, "s": 1},
        [("a", "o1"), ("a", "o2"), ("o1", "s"), ("o2", "s")],
    )
    return MultiOffloadTask.from_task(task, extra_offloaded={"o1", "o2"})


class TestMultiOffloadModel:
    def test_from_task_collects_the_existing_offload(self):
        from repro.core.examples import figure1_task

        promoted = MultiOffloadTask.from_task(figure1_task(), extra_offloaded={"v2"})
        assert promoted.offloaded_nodes == {"v_off", "v2"}
        assert promoted.device_volume() == 8
        assert promoted.host_volume() == 10

    def test_unknown_offloaded_node_rejected(self):
        task = DagTask.from_wcets({"a": 1}, [])
        with pytest.raises(ValidationError):
            MultiOffloadTask(graph=task.graph, offloaded_nodes={"ghost"})

    def test_volume_accounting(self):
        task = two_offload_task()
        assert task.volume == 22
        assert task.device_volume() == 20
        assert task.host_volume() == 2
        assert task.critical_path_length == 12


class TestMultiOffloadAnalysis:
    def test_equation_one_is_unsafe_with_two_offloaded_nodes(self):
        """The motivating counterexample for the generalised bound."""
        multi = two_offload_task()
        plain_task = DagTask(graph=multi.graph, offloaded_node=None)
        equation_one = homogeneous_response_time(plain_task, 2).bound
        trace = simulate_multi_offload(multi, cores=2)
        trace.validate()
        assert equation_one == 17
        assert trace.makespan() == 22
        assert trace.makespan() > equation_one

    def test_generalised_bound_covers_the_counterexample(self):
        multi = two_offload_task()
        bound = multi_offload_response_time(multi, 2)
        assert bound.bound >= 22
        assert bound.method == "multi-offload"
        assert bound.terms["vol_dev"] == 20

    def test_single_offload_degenerates_sensibly(self):
        from repro.core.examples import figure1_task

        task = figure1_task()
        multi = MultiOffloadTask.from_task(task)
        bound = multi_offload_response_time(multi, 2)
        # max host path = v1+v3+v5 = 8; 8*(1/2) + 14/2 + 4 = 15.
        assert bound.bound == 15
        assert bound.bound >= homogeneous_response_time(task, 2).bound - 4 / 2

    def test_device_volume_is_summed_in_graph_order(self):
        # Summed over the offloaded set, the float followed hash order:
        # {3, 2, 1} iterates 1, 2, 3 and the bound read 0.6.  Summed in
        # graph order it is the one-device multi-device bound.
        task = DagTask.from_wcets(
            {"s": 0.0, 3: 0.1, 2: 0.2, 1: 0.3}, [("s", 3), ("s", 2), ("s", 1)]
        )
        multi = MultiOffloadTask(graph=task.graph, offloaded_nodes={3, 2, 1})
        one_device = MultiDeviceTask(
            graph=task.graph, device_assignment={3: 0, 2: 0, 1: 0}
        )
        bound = multi_offload_response_time(multi, 4).bound
        assert bound == multi_device_response_time(one_device, 4).bound
        assert bound == 0.6000000000000001

    def test_invalid_core_count_rejected(self):
        with pytest.raises(AnalysisError):
            multi_offload_response_time(two_offload_task(), 0)

    @settings(max_examples=25, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=2_000),
        cores=st.sampled_from([1, 2, 4]),
        extra=st.integers(min_value=0, max_value=3),
    )
    def test_bound_is_safe_against_simulation(self, seed, cores, extra):
        base = make_random_heterogeneous_task(seed, 0.2, n_max=25)
        # Offload the designated node plus up to `extra` further nodes.
        additional = [
            node
            for node in list(base.graph.nodes())[: extra + 1]
            if node != base.offloaded_node
        ][:extra]
        multi = MultiOffloadTask.from_task(base, extra_offloaded=additional)
        bound = multi_offload_response_time(multi, cores).bound
        for policy in (BreadthFirstPolicy(), RandomPolicy(seed)):
            trace = simulate_multi_offload(multi, cores, policy)
            trace.validate()
            assert trace.makespan() <= bound + 1e-6


class TestMultiDevice:
    def test_balance_devices_is_lpt(self):
        task = DagTask.from_wcets(
            {"a": 1, "x": 9, "y": 5, "z": 4, "s": 1},
            [("a", "x"), ("a", "y"), ("a", "z"), ("x", "s"), ("y", "s"), ("z", "s")],
        )
        multi = balance_devices(task, offloaded_nodes=["x", "y", "z"], device_count=2)
        assert multi.device_count == 2
        # LPT: x (9) alone on one device, y + z (9) on the other.
        assert multi.device_assignment["x"] != multi.device_assignment["y"]
        assert multi.device_assignment["y"] == multi.device_assignment["z"]
        assert multi.device_volume(0) + multi.device_volume(1) == 18

    def test_invalid_assignment_rejected(self):
        task = DagTask.from_wcets({"a": 1, "b": 2}, [("a", "b")])
        with pytest.raises(ValidationError):
            MultiDeviceTask(graph=task.graph, device_assignment={"b": 5}, device_count=2)
        with pytest.raises(ValidationError):
            MultiDeviceTask(graph=task.graph, device_assignment={"ghost": 0})
        with pytest.raises(ValidationError):
            MultiDeviceTask(graph=task.graph, device_count=0)
        with pytest.raises(ValidationError):
            balance_devices(task, offloaded_nodes=["ghost"], device_count=1)

    def test_simulation_uses_every_device(self):
        task = DagTask.from_wcets(
            {"a": 1, "x": 6, "y": 6, "s": 1},
            [("a", "x"), ("a", "y"), ("x", "s"), ("y", "s")],
        )
        multi = balance_devices(task, offloaded_nodes=["x", "y"], device_count=2)
        trace = simulate_multi_device(multi, cores=2)
        trace.validate()
        devices_used = {
            record.resource
            for record in trace.executions
            if record.resource_kind == "accelerator"
        }
        assert devices_used == {"acc0", "acc1"}
        # Two devices run x and y in parallel: 1 + 6 + 1.
        assert trace.makespan() == 8

    def test_two_devices_beat_one_in_simulation(self):
        task = DagTask.from_wcets(
            {"a": 1, "x": 6, "y": 6, "s": 1},
            [("a", "x"), ("a", "y"), ("x", "s"), ("y", "s")],
        )
        one = MultiOffloadTask.from_task(task, extra_offloaded={"x", "y"})
        two = balance_devices(task, offloaded_nodes=["x", "y"], device_count=2)
        assert (
            simulate_multi_device(two, 2).makespan()
            < simulate_multi_offload(one, 2).makespan()
        )

    def test_bound_is_safe_for_multi_device_simulation(self):
        task = DagTask.from_wcets(
            {"a": 2, "x": 6, "y": 6, "h": 5, "s": 1},
            [("a", "x"), ("a", "y"), ("a", "h"), ("x", "s"), ("y", "s"), ("h", "s")],
        )
        multi = balance_devices(task, offloaded_nodes=["x", "y"], device_count=2)
        bound = multi_device_response_time(multi, 2)
        trace = simulate_multi_device(multi, 2)
        trace.validate()
        assert trace.makespan() <= bound.bound + 1e-9
        assert bound.terms["devices"] == 2.0

    def test_invalid_core_count_rejected(self):
        task = DagTask.from_wcets({"a": 1}, [])
        multi = MultiDeviceTask(graph=task.graph)
        with pytest.raises(AnalysisError):
            multi_device_response_time(multi, 0)

    @settings(max_examples=20, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=2_000),
        cores=st.sampled_from([1, 2, 4]),
        devices=st.sampled_from([1, 2, 3]),
    )
    def test_bound_is_safe_against_simulation(self, seed, cores, devices):
        base = make_random_heterogeneous_task(seed, 0.25, n_max=25)
        offloaded = [base.offloaded_node] + [
            node
            for node in list(base.graph.nodes())[:3]
            if node != base.offloaded_node
        ][: devices - 1]
        multi = balance_devices(base, offloaded_nodes=offloaded, device_count=devices)
        bound = multi_device_response_time(multi, cores).bound
        for policy in (BreadthFirstPolicy(), RandomPolicy(seed)):
            trace = simulate_multi_device(multi, cores, policy)
            trace.validate()
            assert trace.makespan() <= bound + 1e-6
