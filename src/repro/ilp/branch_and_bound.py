"""Exact branch-and-bound minimum-makespan solver with dominance pruning.

An independent exact solver used to cross-check the ILP.  The paper only had
CPLEX as its makespan oracle; having two independent oracles materially
increases confidence in the reproduction (see the ``oracle`` case of
``benchmarks/suite.py`` and ``tests/test_oracle_properties.py``).

Approach
--------
The search enumerates *precedence-feasible node sequences* (linear
extensions) and turns each prefix into a schedule with the serial
schedule-generation scheme: every dispatched node starts at the earliest
instant compatible with its already-scheduled predecessors and with the
host/accelerator capacity profile.  This is exact:

  Take any optimal schedule and sort its nodes by ``(start time, dense
  index)``.  Replaying that sequence with earliest-feasible placement can
  only left-shift nodes -- a node placed earlier never newly overlaps the
  window of a later node of the sequence, because every earlier node of the
  sequence originally *ended* at or before the later node's start or already
  overlapped it -- so the replay produces a feasible schedule whose makespan
  is no larger than the optimum.  Enumerating all sequences therefore visits
  an optimal schedule.

On top of the enumeration the search applies three dominance rules and an
incremental lower bound, all computed from the cached graph kernel of
``repro.core.graph`` (topological order, bottom levels):

* **symmetric-core canonicalisation** -- resources are modelled as capacity
  profiles (``usage[t] <= m``), never as labelled cores, so the ``m!``
  per-core relabellings of every schedule collapse into one search state;
* **equal-WCET node ordering** -- *twin* nodes (equal WCET, same resource
  class, identical predecessor and successor sets) are interchangeable;
  the search only dispatches a twin once all its lower-indexed twins are
  scheduled, removing the factorial blow-up of parallel sections with
  repeated WCETs;
* **scheduled-prefix memoisation** -- two sequence prefixes that schedule
  the same node set with the same resource profiles and the same finish
  times of nodes that still have unscheduled successors generate identical
  subtrees; revisited states are cut (sound because the incumbent only
  improves over time, so the first visit explored the subtree at least as
  permissively);
* **incremental lower-bound pruning** -- each state is bounded by the
  critical path of the remainder (precedence-based earliest starts plus
  cached bottom levels) and by an energetic host-work bound
  ``t + ceil((work released at or after t + committed host work after t)
  / m)``; states that cannot beat the incumbent are discarded, and a state
  in which some unscheduled node can no longer start early enough to beat
  the incumbent is discarded outright (earliest feasible starts only grow
  along a branch).

The incumbent is initialised with the better of two list schedules
(critical-path-first and breadth-first), which is also returned when it
happens to be optimal.

The pre-PR-2 engine -- depth-first enumeration of integer start times in
topological order with only the tail/host-load bound -- is retained verbatim
as ``pruning=False``; the benchmark harness uses it as the unpruned
reference the pruned search must agree with (``BENCH_PR2.json``).
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from typing import Optional

from ..core.exceptions import SolverError
from ..core.graph import NodeId
from ..core.task import DagTask
from .bounds import best_list_schedule, makespan_lower_bound

__all__ = ["BranchAndBoundResult", "branch_and_bound_makespan"]

#: Hard limit on the number of non-zero-WCET nodes the search will accept.
_MAX_NODES = 20

#: Safety cap on the memory held by the scheduled-prefix memo.  Each
#: signature embeds two horizon-length byte strings, so the per-call entry
#: budget is derived from the horizon rather than fixed in entries.
_MEMO_BYTE_LIMIT = 64 << 20


@dataclass
class BranchAndBoundResult:
    """Outcome of the branch-and-bound search.

    Attributes
    ----------
    makespan:
        The minimum makespan (equal to the incumbent when the search was
        truncated by ``state_limit``; see ``optimal``).
    start_times:
        A start-time assignment achieving ``makespan``.
    explored_states:
        Number of partial assignments visited.
    optimal:
        ``True`` when the search ran to completion, i.e. the result is the
        proven optimum.
    engine:
        ``"pruned"`` for the PR-2 dominance-pruned sequence search,
        ``"reference"`` for the retained unpruned start-time enumeration.
    memo_hits:
        Number of states cut by the scheduled-prefix memo (``0`` for the
        reference engine).
    """

    makespan: float
    start_times: dict[NodeId, float]
    explored_states: int
    optimal: bool
    engine: str = "pruned"
    memo_hits: int = 0

    def __float__(self) -> float:
        return float(self.makespan)


def branch_and_bound_makespan(
    task: DagTask,
    cores: int,
    accelerators: int = 1,
    state_limit: int = 5_000_000,
    pruning: bool = True,
    time_limit: Optional[float] = None,
    _seed_bounds: Optional[tuple[float, dict, float]] = None,
) -> BranchAndBoundResult:
    """Exact minimum makespan of a (small) heterogeneous DAG task.

    Parameters
    ----------
    task:
        The task to schedule; WCETs must be integers.
    cores:
        Number of identical host cores ``m``.
    accelerators:
        Number of accelerator devices; ``0`` forces the offloaded node (if
        any) onto the host.
    state_limit:
        Safety cap on the number of explored partial assignments; when hit,
        the best incumbent is returned with ``optimal=False``.
    pruning:
        ``True`` (default) runs the dominance-pruned sequence search;
        ``False`` runs the retained pre-PR-2 start-time enumeration, kept
        as the unpruned reference for benchmarks and cross-checks.
    time_limit:
        Optional wall-clock budget in seconds for the pruned search
        (checked every few thousand states); when exceeded the incumbent is
        returned with ``optimal=False``.  A tripped limit trades the
        bit-determinism of the result for bounded runtime, exactly like the
        ILP solver's ``time_limit``.  Ignored by the frozen reference
        engine.
    _seed_bounds:
        Internal: precomputed ``(upper, upper_starts, lower)`` incumbent
        bounds, so callers that already evaluated the list schedules (the
        ILP warm start) do not pay for them twice.

    Raises
    ------
    SolverError
        If the task has more than 20 non-trivial nodes or fractional WCETs.
    """
    graph = task.graph
    graph.check_acyclic()
    if cores < 1:
        raise SolverError(f"cores must be >= 1, got {cores}")
    nodes = graph.topological_order()
    for node in nodes:
        wcet = graph.wcet(node)
        if abs(wcet - round(wcet)) > 1e-9:
            raise SolverError(
                f"branch-and-bound requires integer WCETs; node {node!r} has {wcet}"
            )
    busy_nodes = [node for node in nodes if graph.wcet(node) > 0]
    if len(busy_nodes) > _MAX_NODES:
        raise SolverError(
            f"branch-and-bound is limited to {_MAX_NODES} non-trivial nodes, "
            f"task has {len(busy_nodes)}; use the ILP solver instead"
        )
    if pruning:
        return _search_pruned(
            task, cores, accelerators, state_limit, time_limit, _seed_bounds
        )
    return _search_reference(task, cores, accelerators, state_limit)


def _search_pruned(
    task: DagTask,
    cores: int,
    accelerators: int,
    state_limit: int,
    time_limit: Optional[float] = None,
    seed_bounds: Optional[tuple[float, dict, float]] = None,
) -> BranchAndBoundResult:
    """Dominance-pruned serial schedule-generation search (see module docs)."""
    graph = task.graph
    nodes = graph.topological_order()
    n = len(nodes)
    if seed_bounds is None:
        ub, ub_starts = best_list_schedule(task, cores, accelerators)
        lower = makespan_lower_bound(task, cores, accelerators)
    else:
        ub, ub_starts, lower = seed_bounds
    incumbent = int(round(ub))
    incumbent_starts = {node: float(ub_starts[node]) for node in nodes}
    global_lower = int(math.ceil(lower - 1e-9))
    if not nodes or incumbent <= global_lower:
        # The list schedule already matches the lower bound: proven optimal.
        return BranchAndBoundResult(
            makespan=float(incumbent),
            start_times=incumbent_starts,
            explored_states=0,
            optimal=True,
        )

    index = {node: i for i, node in enumerate(nodes)}
    wcet = [int(round(graph.wcet(node))) for node in nodes]
    offloaded: Optional[int] = (
        index[task.offloaded_node]
        if task.offloaded_node is not None and accelerators > 0
        else None
    )
    accel_cap = max(accelerators, 1)
    # Dense indices follow the cached topological order, so predecessors of a
    # node always carry a smaller index than the node itself.
    preds = [sorted(index[p] for p in graph.predecessors(node)) for node in nodes]
    succs = [sorted(index[s] for s in graph.successors(node)) for node in nodes]
    tail_map = graph.longest_tail_lengths()
    tail = [int(round(tail_map[node])) for node in nodes]

    # Equal-WCET node ordering: twins (same WCET, same resource class, same
    # neighbourhoods) may only be dispatched in dense-index order.
    twin_prev = [-1] * n
    twin_groups: dict[tuple, int] = {}
    for i in range(n):
        key = (wcet[i], i == offloaded, tuple(preds[i]), tuple(succs[i]))
        if key in twin_groups:
            twin_prev[i] = twin_groups[key]
        twin_groups[key] = i

    horizon = incumbent  # every considered interval ends before the incumbent
    host_usage = bytearray(horizon)
    accel_usage = bytearray(horizon)
    starts = [-1] * n
    finish = [0] * n
    unscheduled_preds = [len(preds[i]) for i in range(n)]
    host_intervals: list[tuple[int, int]] = []
    scheduled_mask = 0
    full_mask = (1 << n) - 1

    explored = 0
    truncated = False
    memo_hits = 0
    memo: set[tuple] = set()
    # Entry budget sized so the memo stays within _MEMO_BYTE_LIMIT even for
    # horizon-length profile strings (~2*horizon bytes plus tuple overhead).
    memo_limit = max(1 << 14, _MEMO_BYTE_LIMIT // (2 * horizon + 128))

    def earliest_start(i: int, latest: int) -> Optional[int]:
        """Earliest feasible start of node ``i``, or ``None`` if > ``latest``."""
        ready = 0
        for p in preds[i]:
            if finish[p] > ready:
                ready = finish[p]
        duration = wcet[i]
        if duration == 0:
            return ready if ready <= latest else None
        usage, cap = (
            (accel_usage, accel_cap) if i == offloaded else (host_usage, cores)
        )
        t = ready
        while t <= latest:
            conflict = -1
            for x in range(t + duration - 1, t - 1, -1):
                if usage[x] >= cap:
                    conflict = x
                    break
            if conflict < 0:
                return t
            t = conflict + 1
        return None

    def lower_bound(current_makespan: int) -> int:
        """Critical-path-of-remainder and energetic host-work bound."""
        est = [0] * n
        bound = current_makespan
        host_events: set[int] = set()
        for i in range(n):  # topological order
            if scheduled_mask >> i & 1:
                continue
            ready = 0
            for p in preds[i]:
                done = finish[p] if scheduled_mask >> p & 1 else est[p] + wcet[p]
                if done > ready:
                    ready = done
            est[i] = ready
            if ready + tail[i] > bound:
                bound = ready + tail[i]
            if i != offloaded and wcet[i] > 0:
                host_events.add(ready)
        for t in host_events:
            work = 0
            for i in range(n):
                if (
                    not scheduled_mask >> i & 1
                    and i != offloaded
                    and est[i] >= t
                ):
                    work += wcet[i]
            committed = 0
            for s, e in host_intervals:
                if e > t:
                    committed += e - max(s, t)
            candidate = t + -(-(work + committed) // cores)
            if candidate > bound:
                bound = candidate
        return bound

    def signature() -> tuple:
        """Canonical state key: scheduled set, profiles, relevant finishes."""
        relevant = []
        for i in range(n):
            if scheduled_mask >> i & 1:
                for s in succs[i]:
                    if not scheduled_mask >> s & 1:
                        relevant.append(finish[i])
                        break
        return (
            scheduled_mask,
            bytes(host_usage),
            bytes(accel_usage),
            tuple(relevant),
        )

    def place(i: int, start: int) -> None:
        nonlocal scheduled_mask
        starts[i] = start
        end = start + wcet[i]
        finish[i] = end
        if wcet[i]:
            if i == offloaded:
                for x in range(start, end):
                    accel_usage[x] += 1
            else:
                for x in range(start, end):
                    host_usage[x] += 1
                host_intervals.append((start, end))
        for s in succs[i]:
            unscheduled_preds[s] -= 1
        scheduled_mask |= 1 << i

    def unplace(i: int) -> None:
        nonlocal scheduled_mask
        scheduled_mask &= ~(1 << i)
        for s in succs[i]:
            unscheduled_preds[s] += 1
        start, end = starts[i], finish[i]
        if wcet[i]:
            if i == offloaded:
                for x in range(start, end):
                    accel_usage[x] -= 1
            else:
                for x in range(start, end):
                    host_usage[x] -= 1
                host_intervals.pop()
        starts[i] = -1

    deadline = time.perf_counter() + time_limit if time_limit is not None else None

    def dfs(current_makespan: int) -> None:
        nonlocal incumbent, incumbent_starts, explored, truncated, memo_hits
        if truncated:
            return
        explored += 1
        if explored > state_limit:
            truncated = True
            return
        if (
            deadline is not None
            and explored % 2048 == 0
            and time.perf_counter() > deadline
        ):
            truncated = True
            return
        if scheduled_mask == full_mask:
            if current_makespan < incumbent:
                incumbent = current_makespan
                incumbent_starts = {nodes[i]: float(starts[i]) for i in range(n)}
            return
        if lower_bound(current_makespan) >= incumbent:
            return
        key = signature()
        if key in memo:
            memo_hits += 1
            return
        if len(memo) < memo_limit:
            memo.add(key)

        children: list[tuple[int, int, int]] = []
        for i in range(n):
            if scheduled_mask >> i & 1 or unscheduled_preds[i]:
                continue
            if twin_prev[i] >= 0 and not scheduled_mask >> twin_prev[i] & 1:
                continue  # equal-WCET ordering: earlier twin goes first
            start = earliest_start(i, incumbent - 1 - tail[i])
            if start is None:
                # Earliest feasible starts only grow along a branch, so no
                # extension of this prefix can beat the incumbent.
                return
            children.append((start, -tail[i], i))
        children.sort()
        for start, _neg_tail, i in children:
            if truncated:
                return
            if start + tail[i] >= incumbent:
                continue  # the incumbent improved since the child was built
            place(i, start)
            dfs(current_makespan if finish[i] < current_makespan else finish[i])
            unplace(i)

    dfs(0)

    return BranchAndBoundResult(
        makespan=float(incumbent),
        start_times=incumbent_starts,
        explored_states=explored,
        optimal=not truncated,
        memo_hits=memo_hits,
    )


def _search_reference(
    task: DagTask, cores: int, accelerators: int, state_limit: int
) -> BranchAndBoundResult:
    """Unpruned pre-PR-2 engine: integer start-time enumeration.

    Kept verbatim (modulo the shared incumbent initialisation) as the
    reference the pruned search is benchmarked and cross-checked against.
    """
    graph = task.graph
    nodes = graph.topological_order()
    offloaded: Optional[NodeId] = task.offloaded_node if accelerators > 0 else None
    wcet = {node: int(round(graph.wcet(node))) for node in nodes}
    predecessors = {node: graph.predecessors(node) for node in nodes}
    tail = graph.longest_tail_lengths()
    total_host_work = sum(wcet[node] for node in nodes if node != offloaded)

    ub, ub_starts = best_list_schedule(task, cores, accelerators)
    incumbent = int(round(ub))
    incumbent_starts = {node: float(ub_starts[node]) for node in nodes}
    global_lower = makespan_lower_bound(task, cores, accelerators)

    explored = 0
    truncated = False

    starts: dict[NodeId, int] = {}
    # Busy intervals committed so far, per resource class.
    host_intervals: list[tuple[int, int]] = []
    accel_intervals: list[tuple[int, int]] = []

    def capacity_ok(
        intervals: list[tuple[int, int]], start: int, end: int, capacity: int
    ) -> bool:
        """Can an interval [start, end) be added while respecting capacity?"""
        if start == end:
            return True
        points = sorted(
            {start}
            | {s for s, e in intervals if start < s < end}
        )
        for point in points:
            overlap = sum(1 for s, e in intervals if s <= point < e)
            if overlap + 1 > capacity:
                return False
        return True

    def dfs(index: int, current_makespan: int, scheduled_host_work: int) -> None:
        nonlocal incumbent, incumbent_starts, explored, truncated
        if truncated:
            return
        explored += 1
        if explored > state_limit:
            truncated = True
            return
        if index == len(nodes):
            if current_makespan < incumbent:
                incumbent = current_makespan
                incumbent_starts = {node: float(starts[node]) for node in nodes}
            return
        # Optimistic completion of what remains.
        remaining_host = total_host_work - scheduled_host_work
        load_bound = current_makespan if cores == 0 else remaining_host / cores
        if max(current_makespan, load_bound, global_lower) >= incumbent:
            return

        node = nodes[index]
        duration = wcet[node]
        ready = max(
            (starts[p] + wcet[p] for p in predecessors[node]), default=0
        )
        # A node may never start so late that even a perfect continuation
        # fails to beat the incumbent: start + tail(node) <= incumbent - 1.
        latest_start = incumbent - 1 - int(tail[node])
        if duration == 0:
            # Zero-WCET nodes (sync / dummy) are placed at their ready time;
            # delaying them can never help any successor.
            candidate_range = [ready] if ready <= latest_start else []
        else:
            candidate_range = range(ready, latest_start + 1)

        for start in candidate_range:
            end = start + duration
            if duration > 0:
                if node == offloaded:
                    if not capacity_ok(accel_intervals, start, end, accelerators):
                        continue
                    accel_intervals.append((start, end))
                else:
                    if not capacity_ok(host_intervals, start, end, cores):
                        continue
                    host_intervals.append((start, end))
            starts[node] = start
            dfs(
                index + 1,
                max(current_makespan, end),
                scheduled_host_work + (duration if node != offloaded else 0),
            )
            del starts[node]
            if duration > 0:
                if node == offloaded:
                    accel_intervals.pop()
                else:
                    host_intervals.pop()
            if truncated:
                return

    dfs(0, 0, 0)

    return BranchAndBoundResult(
        makespan=float(incumbent),
        start_times=incumbent_starts,
        explored_states=explored,
        optimal=not truncated,
        engine="reference",
    )
