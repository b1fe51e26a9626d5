"""Unit and cross-validation tests for the optimal-makespan solvers (:mod:`repro.ilp`)."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.examples import figure1_task
from repro.analysis import homogeneous
from repro.core.exceptions import AnalysisError, SolverError
from repro.core.task import DagTask
from repro.core.transformation import transform
from repro.ilp.bounds import list_schedule_upper_bound, makespan_lower_bound
from repro.ilp.branch_and_bound import branch_and_bound_makespan
from repro.ilp.formulation import build_formulation
from repro.ilp.makespan import MakespanMethod, MakespanResult, minimum_makespan, verify_schedule
from repro.ilp.solver import solve_formulation, solve_minimum_makespan
from repro.simulation.engine import simulate_makespan

from strategies import (
    make_random_heterogeneous_task,
    make_random_integer_heterogeneous_task,
)


class TestBounds:
    def test_lower_bound_components(self):
        task = figure1_task()
        assert makespan_lower_bound(task, 2) == 8
        assert makespan_lower_bound(task, 1) == 14

    def test_lower_bound_without_accelerator(self):
        task = figure1_task()
        # Offloaded work is folded back onto the host.
        assert makespan_lower_bound(task, 1, accelerators=0) == 18

    def test_one_lower_bound_serves_both_names(self):
        assert makespan_lower_bound is homogeneous.makespan_lower_bound

    @pytest.mark.parametrize(
        "cores", [0, -1, True, 2.5, "2", None], ids=["0", "-1", "True", "2.5", "str", "None"]
    )
    def test_lower_bound_refuses_a_core_count_that_is_not_one(self, cores):
        # The host load is divided by the core count: 0 divided by zero, a
        # boolean ran as one core and a fraction as a wider host.
        with pytest.raises(AnalysisError, match=r"^cores must be a positive integer, got "):
            makespan_lower_bound(figure1_task(), cores)

    def test_upper_bound_is_a_real_schedule(self):
        task = figure1_task()
        upper = list_schedule_upper_bound(task, 2)
        assert upper >= makespan_lower_bound(task, 2)
        assert upper <= task.volume

    def test_bounds_bracket_the_optimum(self):
        task = figure1_task()
        optimum = minimum_makespan(task, 2).makespan
        assert makespan_lower_bound(task, 2) <= optimum <= list_schedule_upper_bound(task, 2)


class TestFormulation:
    def test_dimensions_are_consistent(self):
        formulation = build_formulation(figure1_task(), 2)
        assert formulation.constraints_matrix.shape == (
            formulation.constraint_count,
            formulation.variable_count,
        )
        assert formulation.objective.shape[0] == formulation.variable_count
        assert formulation.integrality.shape[0] == formulation.variable_count
        # One binary block per (node, slot) pair plus the makespan variable.
        assert formulation.variable_count == len(formulation.start_variable_index) + 1

    def test_horizon_defaults_to_list_schedule(self):
        task = figure1_task()
        formulation = build_formulation(task, 2)
        assert formulation.horizon == int(list_schedule_upper_bound(task, 2))

    def test_horizon_below_lower_bound_rejected(self):
        with pytest.raises(SolverError):
            build_formulation(figure1_task(), 2, horizon=5)

    def test_fractional_wcets_rejected(self):
        task = DagTask.from_wcets({"a": 1.5, "b": 2}, [("a", "b")])
        with pytest.raises(SolverError):
            build_formulation(task, 2)

    def test_invalid_cores_rejected(self):
        with pytest.raises(SolverError):
            build_formulation(figure1_task(), 0)

    def test_decoding_rejects_unassigned_solution(self):
        formulation = build_formulation(figure1_task(), 2)
        with pytest.raises(SolverError):
            formulation.start_times_from_solution(np.zeros(formulation.variable_count))


class TestIlpSolver:
    def test_figure1_optimal_makespan(self):
        solution = solve_minimum_makespan(figure1_task(), 2)
        assert solution.makespan == 8
        assert solution.optimal
        verify_schedule(figure1_task(), solution.start_times, 2)

    def test_single_core_serialises_host_work(self):
        solution = solve_minimum_makespan(figure1_task(), 1)
        # Host work (14) can fully overlap the offloaded work (4).
        assert solution.makespan == 14

    def test_larger_horizon_does_not_change_the_optimum(self):
        base = solve_minimum_makespan(figure1_task(), 2)
        wide = solve_formulation(build_formulation(figure1_task(), 2, horizon=25))
        assert base.makespan == wide.makespan

    def test_homogeneous_task_supported(self):
        task = figure1_task().as_homogeneous()
        solution = solve_minimum_makespan(task, 2)
        assert solution.makespan >= makespan_lower_bound(task, 2)
        verify_schedule(task, solution.start_times, 2)

    def test_without_accelerator_everything_runs_on_host(self):
        solution = solve_minimum_makespan(figure1_task(), 2, accelerators=0)
        # 18 units of work on 2 cores with len(G) = 8 -> at least 9.
        assert solution.makespan >= 9


class TestBranchAndBound:
    def test_figure1_optimal_makespan(self):
        result = branch_and_bound_makespan(figure1_task(), 2)
        assert result.makespan == 8
        assert result.optimal
        verify_schedule(figure1_task(), result.start_times, 2)

    def test_transformed_task_optimum_is_not_better(self):
        # The added synchronisation can only constrain the schedule further.
        original = branch_and_bound_makespan(figure1_task(), 2).makespan
        transformed = transform(figure1_task()).task
        constrained = branch_and_bound_makespan(transformed, 2).makespan
        assert constrained >= original

    def test_fractional_wcets_rejected(self):
        task = DagTask.from_wcets({"a": 1.5, "b": 2}, [("a", "b")])
        with pytest.raises(SolverError):
            branch_and_bound_makespan(task, 2)

    def test_large_tasks_rejected(self):
        task = make_random_integer_heterogeneous_task(0, 0.2, n_max=40)
        if task.node_count <= 20:  # pragma: no cover - defensive
            pytest.skip("generated task unexpectedly small")
        with pytest.raises(SolverError):
            branch_and_bound_makespan(task, 2)

    def test_state_limit_returns_incumbent(self):
        # Five independent jobs {3, 3, 2, 2, 2} on two cores: the LPT-style
        # list schedule yields 7 while the optimum is 6, so the search has
        # real work to do and a tiny state limit must truncate it.
        task = DagTask.from_wcets({f"j{i}": w for i, w in enumerate([3, 3, 2, 2, 2])}, [])
        full = branch_and_bound_makespan(task, 2)
        assert full.optimal and full.makespan == 6
        truncated = branch_and_bound_makespan(task, 2, state_limit=3)
        assert not truncated.optimal
        assert 6 <= truncated.makespan <= 7  # the incumbent list schedule


class TestCrossValidation:
    @settings(max_examples=12, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=500),
        cores=st.sampled_from([1, 2, 4]),
    )
    def test_ilp_and_branch_and_bound_agree(self, seed, cores):
        task = make_random_integer_heterogeneous_task(seed, 0.25, n_max=9, c_max=6)
        ilp = solve_minimum_makespan(task, cores)
        bnb = branch_and_bound_makespan(task, cores)
        assert ilp.makespan == pytest.approx(bnb.makespan)

    @settings(max_examples=12, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=500),
        cores=st.sampled_from([1, 2, 4]),
    )
    def test_optimum_is_bracketed_by_bounds_and_simulation(self, seed, cores):
        task = make_random_integer_heterogeneous_task(seed, 0.3, n_max=9, c_max=6)
        optimum = minimum_makespan(task, cores).makespan
        assert optimum >= makespan_lower_bound(task, cores) - 1e-9
        assert optimum <= simulate_makespan(task, cores) + 1e-9


class TestMinimumMakespanFacade:
    def test_auto_selects_branch_and_bound_for_tiny_tasks(self):
        result = minimum_makespan(figure1_task(), 2)
        assert isinstance(result, MakespanResult)
        assert result.method is MakespanMethod.BRANCH_AND_BOUND
        assert result.makespan == 8

    def test_auto_selects_ilp_for_larger_tasks(self):
        task = make_random_integer_heterogeneous_task(3, 0.2, n_max=25, c_max=5)
        if task.node_count <= 12:
            pytest.skip("generated task unexpectedly small")
        result = minimum_makespan(task, 4)
        assert result.method is MakespanMethod.ILP
        verify_schedule(task, result.start_times, 4)

    def test_explicit_method_selection(self):
        ilp = minimum_makespan(figure1_task(), 2, method=MakespanMethod.ILP)
        bnb = minimum_makespan(figure1_task(), 2, method=MakespanMethod.BRANCH_AND_BOUND)
        assert ilp.makespan == bnb.makespan == 8
        assert float(ilp) == 8.0

    def test_verify_schedule_detects_violations(self):
        task = figure1_task()
        result = minimum_makespan(task, 2)
        broken = dict(result.start_times)
        broken["v5"] = 0.0  # violates every precedence into v5
        with pytest.raises(SolverError):
            verify_schedule(task, broken, 2)
        incomplete = dict(result.start_times)
        del incomplete["v1"]
        with pytest.raises(SolverError):
            verify_schedule(task, incomplete, 2)

    def test_verify_schedule_detects_capacity_violation(self):
        task = figure1_task()
        # Every host node at time 0 on two cores is a capacity violation.
        starts = {node: 0.0 for node in task.graph.nodes()}
        with pytest.raises(SolverError):
            verify_schedule(task, starts, 2)
