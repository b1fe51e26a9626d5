"""Time-indexed ILP formulation of the minimum-makespan problem.

The paper evaluates the accuracy of its response-time bounds against "an ILP
formulation (based on [13]) that computes the minimum time interval needed to
execute a given heterogeneous DAG task on ``m`` cores and one accelerator
device", solved with IBM CPLEX.  CPLEX is not available offline, so this
module builds the equivalent mixed-integer program in the standard
time-indexed form and :mod:`repro.ilp.solver` solves it with the HiGHS solver
shipped with SciPy (:func:`scipy.optimize.milp`).

Model
-----
Let ``H`` be a horizon no smaller than the optimal makespan (a list-schedule
makespan is used).  For every node ``i`` and slot ``t in {0, ..., H - C_i}``
the binary variable ``x[i, t]`` equals 1 iff node ``i`` starts at time ``t``.
A continuous variable ``M`` models the makespan.

* each node starts exactly once: ``sum_t x[i, t] = 1``;
* precedence ``(i, j)``: ``start_j >= start_i + C_i`` with
  ``start_i = sum_t t * x[i, t]``;
* host capacity: for every slot ``t``, the number of host nodes executing at
  ``t`` (i.e. started in ``(t - C_i, t]``) is at most ``m``;
* accelerator capacity: likewise, at most the number of devices (1);
* makespan: ``M >= start_i + C_i`` for every node;
* objective: minimise ``M``.

Warm-start window tightening (PR 2)
-----------------------------------
The number of binary variables is ``sum_i |window_i|``, so the model size is
governed by the per-node start windows.  With ``tighten_windows=True`` (the
default) the window of node ``i`` is reduced from ``[0, H - C_i]`` to
``[est_i, H - tail_i]`` where ``est_i`` is the precedence-based earliest
start (longest path into ``i``) and ``tail_i`` the bottom level (longest
path from ``i``, inclusive), both read from the cached graph kernel.  Any
schedule with makespan ``<= H`` satisfies ``start_i >= est_i`` and
``start_i + tail_i <= H``, so the reduction never cuts off a feasible
schedule within the horizon -- it only removes slots no optimal schedule
can use.  Combined with a warm-start horizon equal to the best known upper
bound (list schedule, optionally improved by a truncated branch-and-bound
probe; see :func:`repro.ilp.solver.solve_minimum_makespan`) this typically
shrinks the model severalfold.

WCETs must be integers (the paper draws them from ``[1, 100]``); the
formulation refuses fractional WCETs rather than silently rounding them.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Optional

import numpy as np

from ..core.exceptions import SolverError
from ..core.graph import NodeId
from ..core.task import DagTask
from .bounds import list_schedule_upper_bound, makespan_lower_bound

if TYPE_CHECKING:
    from scipy import sparse

__all__ = ["TimeIndexedFormulation", "build_formulation"]


@dataclass
class TimeIndexedFormulation:
    """A fully materialised time-indexed MILP instance.

    The arrays follow the conventions of :func:`scipy.optimize.milp`:
    minimise ``c @ x`` subject to ``lower <= A @ x <= upper``, with
    integrality flags and variable bounds.

    Attributes
    ----------
    task, cores, accelerators, horizon:
        Problem description the formulation was built for.
    objective:
        The cost vector ``c``.
    constraints_matrix:
        Sparse constraint matrix ``A`` (CSR).
    constraints_lower, constraints_upper:
        Row bounds.
    integrality:
        Per-variable integrality flags (1 = integer).
    variable_lower, variable_upper:
        Variable bounds.
    start_variable_index:
        ``(node, t) -> column`` mapping for the binary start variables.
    makespan_index:
        Column of the makespan variable ``M``.
    slot_windows:
        Per-node inclusive start-slot window ``node -> (first, last)`` used
        to build the model (tightened when ``tighten_windows`` was set).
    """

    task: DagTask
    cores: int
    accelerators: int
    horizon: int
    objective: np.ndarray
    constraints_matrix: sparse.csr_matrix
    constraints_lower: np.ndarray
    constraints_upper: np.ndarray
    integrality: np.ndarray
    variable_lower: np.ndarray
    variable_upper: np.ndarray
    start_variable_index: dict[tuple[NodeId, int], int] = field(default_factory=dict)
    makespan_index: int = 0
    slot_windows: dict[NodeId, tuple[int, int]] = field(default_factory=dict)

    @property
    def variable_count(self) -> int:
        """Total number of decision variables."""
        return int(self.objective.shape[0])

    @property
    def constraint_count(self) -> int:
        """Total number of constraint rows."""
        return int(self.constraints_matrix.shape[0])

    def start_times_from_solution(self, solution: np.ndarray) -> dict[NodeId, float]:
        """Decode the per-node start times from a solver solution vector."""
        starts: dict[NodeId, float] = {}
        for (node, slot), column in self.start_variable_index.items():
            if solution[column] > 0.5:
                starts[node] = float(slot)
        missing = set(self.task.graph.nodes()) - set(starts)
        if missing:
            raise SolverError(
                f"solution does not assign a start slot to nodes {sorted(map(repr, missing))}"
            )
        return starts


def _integer_wcets(task: DagTask) -> dict[NodeId, int]:
    wcets: dict[NodeId, int] = {}
    for node in task.graph.nodes():
        wcet = task.graph.wcet(node)
        if abs(wcet - round(wcet)) > 1e-9:
            raise SolverError(
                "the time-indexed ILP requires integer WCETs; "
                f"node {node!r} has WCET {wcet}"
            )
        wcets[node] = int(round(wcet))
    return wcets


def build_formulation(
    task: DagTask,
    cores: int,
    accelerators: int = 1,
    horizon: Optional[int] = None,
    tighten_windows: bool = True,
) -> TimeIndexedFormulation:
    """Construct the time-indexed MILP for a heterogeneous DAG task.

    Parameters
    ----------
    task:
        The task to schedule.  A homogeneous task (no offloaded node) is
        accepted: every node is then a host node.
    cores:
        Number of identical host cores ``m``.
    accelerators:
        Number of accelerator devices (the paper's model uses one).
    horizon:
        Scheduling horizon ``H``.  Defaults to the makespan of a list
        schedule, which is always sufficient; passing a smaller value makes
        the model infeasible if it cuts the optimum off.
    tighten_windows:
        Restrict each node's start window to ``[est_i, H - tail_i]``
        (see the module docstring) instead of ``[0, H - C_i]``.  Never
        changes the optimum; ``False`` reproduces the pre-PR-2 model and is
        used by benchmarks to measure the reduction.
    """
    if cores < 1:
        raise SolverError(f"cores must be >= 1, got {cores}")
    if accelerators < 0:
        raise SolverError(f"accelerators must be >= 0, got {accelerators}")
    wcets = _integer_wcets(task)
    graph = task.graph
    offloaded = task.offloaded_node if accelerators > 0 else None

    if horizon is None:
        horizon = int(round(list_schedule_upper_bound(task, cores, accelerators)))
    lower_bound = makespan_lower_bound(task, cores, accelerators)
    if horizon < lower_bound:
        raise SolverError(
            f"horizon {horizon} is below the makespan lower bound {lower_bound}"
        )

    nodes = graph.nodes()
    if tighten_windows:
        finish = graph.earliest_finish_times()
        tails = graph.longest_tail_lengths()
        windows = {
            node: (
                int(round(finish[node] - graph.wcet(node))),
                horizon - int(round(tails[node])),
            )
            for node in nodes
        }
    else:
        windows = {node: (0, horizon - wcets[node]) for node in nodes}

    columns: dict[tuple[NodeId, int], int] = {}
    next_column = 0
    for node in nodes:
        first, last = windows[node]
        if first > last:
            raise SolverError(
                f"node {node!r} (WCET {wcets[node]}) does not fit in horizon {horizon}"
            )
        for slot in range(first, last + 1):
            columns[(node, slot)] = next_column
            next_column += 1
    makespan_index = next_column
    variable_count = next_column + 1

    rows: list[int] = []
    cols: list[int] = []
    data: list[float] = []
    lower: list[float] = []
    upper: list[float] = []
    row = 0

    def add_entry(r: int, c: int, value: float) -> None:
        rows.append(r)
        cols.append(c)
        data.append(value)

    def slots_of(node: NodeId) -> range:
        first, last = windows[node]
        return range(first, last + 1)

    # (1) Every node starts exactly once.
    for node in nodes:
        for slot in slots_of(node):
            add_entry(row, columns[(node, slot)], 1.0)
        lower.append(1.0)
        upper.append(1.0)
        row += 1

    # (2) Precedence constraints: start_j - start_i >= C_i.
    for src, dst in graph.edges():
        for slot in slots_of(src):
            add_entry(row, columns[(src, slot)], -float(slot))
        for slot in slots_of(dst):
            add_entry(row, columns[(dst, slot)], float(slot))
        lower.append(float(wcets[src]))
        upper.append(np.inf)
        row += 1

    # (3) Host capacity per slot.
    host_nodes = [node for node in nodes if node != offloaded and wcets[node] > 0]
    for slot in range(horizon):
        touched = False
        for node in host_nodes:
            first, last = windows[node]
            earliest = max(first, slot - wcets[node] + 1)
            latest = min(slot, last)
            for start in range(earliest, latest + 1):
                add_entry(row, columns[(node, start)], 1.0)
                touched = True
        if touched:
            lower.append(-np.inf)
            upper.append(float(cores))
            row += 1
        else:
            # Remove the empty row bookkeeping (no entries were added).
            pass

    # (4) Accelerator capacity per slot (only when an offloaded node exists).
    if offloaded is not None and wcets[offloaded] > 0 and accelerators >= 0:
        first, last = windows[offloaded]
        for slot in range(horizon):
            earliest = max(first, slot - wcets[offloaded] + 1)
            latest = min(slot, last)
            if earliest > latest:
                continue
            for start in range(earliest, latest + 1):
                add_entry(row, columns[(offloaded, start)], 1.0)
            lower.append(-np.inf)
            upper.append(float(max(accelerators, 0)))
            row += 1

    # (5) Makespan definition: M - start_i >= C_i for every node.
    for node in nodes:
        for slot in slots_of(node):
            add_entry(row, columns[(node, slot)], -float(slot))
        add_entry(row, makespan_index, 1.0)
        lower.append(float(wcets[node]))
        upper.append(np.inf)
        row += 1

    from scipy import sparse  # imported here: only the ILP pays its import

    matrix = sparse.csr_matrix(
        (data, (rows, cols)), shape=(row, variable_count)
    )
    objective = np.zeros(variable_count)
    objective[makespan_index] = 1.0
    integrality = np.ones(variable_count)
    integrality[makespan_index] = 0.0
    variable_lower = np.zeros(variable_count)
    variable_upper = np.ones(variable_count)
    variable_lower[makespan_index] = float(lower_bound)
    variable_upper[makespan_index] = float(horizon)

    return TimeIndexedFormulation(
        task=task,
        cores=cores,
        accelerators=accelerators,
        horizon=horizon,
        objective=objective,
        constraints_matrix=matrix,
        constraints_lower=np.array(lower),
        constraints_upper=np.array(upper),
        integrality=integrality,
        variable_lower=variable_lower,
        variable_upper=variable_upper,
        start_variable_index=columns,
        makespan_index=makespan_index,
        slot_windows=windows,
    )
