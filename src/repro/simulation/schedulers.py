"""Work-conserving ready-queue ordering policies.

The simulator is a list scheduler: whenever a host core (or the accelerator)
is free and at least one compatible node is ready, a node is started
immediately -- this is what makes every policy *work-conserving*, the only
assumption required by both Equation 1 and Theorem 1.  Policies only decide
the *order* in which ready nodes are picked.

The paper's Section 5.2 simulates "the work-conserving breadth-first
scheduler implemented in GOMP, the OpenMP implementation in GCC":
:class:`BreadthFirstPolicy` reproduces it (a FIFO ready queue -- tasks are
executed in the order in which they became ready, ties broken by node
creation order, which corresponds to the order in which an OpenMP program
creates the tasks).  Alternative policies are provided for the scheduler
ablation study (``repro experiment ablation-scheduler``, checked by
``tests/test_figure_shapes.py``).
"""

from __future__ import annotations

import abc
import copy
import math
from collections.abc import Mapping
from typing import TYPE_CHECKING, Optional

import numpy as np

from ..core.exceptions import ValidationError, short_repr
from ..core.graph import DirectedAcyclicGraph, NodeId
from ..core.task import check_number, check_seed

if TYPE_CHECKING:  # pragma: no cover - type-only import
    from ..core.compiled import CompiledTask

__all__ = [
    "SchedulingPolicy",
    "BreadthFirstPolicy",
    "DepthFirstPolicy",
    "CriticalPathFirstPolicy",
    "ShortestFirstPolicy",
    "LongestFirstPolicy",
    "RandomPolicy",
    "FixedPriorityPolicy",
    "policy_by_name",
    "policy_class",
    "policy_vector_kind",
    "priority_table",
    "VECTOR_FIFO",
    "VECTOR_LIFO",
    "VECTOR_STATIC",
    "VECTOR_RANDOM",
]

#: Vector-kind labels of the C kernel's priority families (see
#: :func:`policy_vector_kind`).
VECTOR_FIFO = "fifo"  # key (ready_time, creation index): BreadthFirstPolicy
VECTOR_LIFO = "lifo"  # key (-arrival,): DepthFirstPolicy
VECTOR_STATIC = "static"  # key (static per-node value, arrival)
VECTOR_RANDOM = "random"  # key (seeded draw per arrival, arrival)


class SchedulingPolicy(abc.ABC):
    """Interface of a ready-queue ordering policy.

    The trace-producing reference engine (:mod:`repro.simulation.engine`)
    calls :meth:`prepare` once per simulation with the graph being
    scheduled, then :meth:`priority` for every node when it becomes ready.
    Nodes with *smaller* priority tuples are started first.

    Every other engine -- the dense engine, the C kernel and both workload
    engines -- keys a built-in policy by its family
    (:func:`policy_vector_kind`) instead: static per-node keys from
    :meth:`vector_keys`, seeded draws from :meth:`RandomPolicy.vector_draws`.
    A policy without a family (a custom policy, or any subclass of a
    built-in) is simulated by the reference engine and by the dense engine,
    which calls its :meth:`prepare`/:meth:`priority` pair through an
    index -> node table; so custom policies keep working unmodified.
    """

    #: Human-readable policy name used in traces and experiment reports.
    name: str = "policy"

    def prepare(self, graph: DirectedAcyclicGraph) -> None:
        """Pre-compute per-graph data (called once before the simulation)."""

    @abc.abstractmethod
    def priority(
        self, node: NodeId, ready_time: float, arrival_index: int
    ) -> tuple:
        """Return the sort key of a node that just became ready.

        Parameters
        ----------
        node:
            The ready node.
        ready_time:
            Time at which its last predecessor completed.
        arrival_index:
            Monotonically increasing counter of ready-queue insertions; using
            it as a final tie-breaker makes every policy deterministic.
        """

    def vector_keys(self, compiled: "CompiledTask") -> np.ndarray:
        """Per-node primary priority values of the ``static`` family.

        Only meaningful for policies of the ``static`` vector kind (see
        :func:`policy_vector_kind`): the returned ``float64`` array holds,
        for every dense index, the first component of the policy's
        :meth:`priority` tuple, with the arrival index as the tie-breaker.
        The array may share storage with the compiled view or a memo and
        must not be mutated.
        """
        raise NotImplementedError(
            f"{type(self).__name__} does not provide static vector keys"
        )

    def spawned(self, seed: int) -> "SchedulingPolicy":
        """An independent instance of this policy for one work chunk.

        Deterministic policies return a plain deep copy, which is
        indistinguishable from sharing the instance.  Stochastic policies
        must override this and reseed from ``seed`` (derived via
        :func:`repro.parallel.spawn_seeds`) so that chunks draw independent
        random streams regardless of execution order.
        """
        return copy.deepcopy(self)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}()"


class BreadthFirstPolicy(SchedulingPolicy):
    """FIFO ready queue: the GOMP-style breadth-first scheduler of the paper.

    Nodes are executed in the order in which they became ready; among nodes
    that become ready simultaneously, the node created first (smaller
    insertion index in the DAG) goes first.
    """

    name = "breadth-first"

    def prepare(self, graph: DirectedAcyclicGraph) -> None:
        self._creation_order = {node: index for index, node in enumerate(graph.nodes())}

    def priority(self, node: NodeId, ready_time: float, arrival_index: int) -> tuple:
        return (ready_time, self._creation_order.get(node, 0), arrival_index)


class DepthFirstPolicy(SchedulingPolicy):
    """LIFO ready queue: most recently readied node first.

    This approximates the behaviour of depth-first (work-first) OpenMP
    runtimes; it is the natural counterpart of the breadth-first policy for
    the scheduler ablation.
    """

    name = "depth-first"

    def priority(self, node: NodeId, ready_time: float, arrival_index: int) -> tuple:
        return (-arrival_index,)


class CriticalPathFirstPolicy(SchedulingPolicy):
    """Largest bottom-level first (classical HLFET list scheduling).

    The bottom level of a node is the length of the longest path from the
    node (inclusive) to the sink; prioritising large bottom levels keeps the
    critical path moving and is a common makespan-oriented heuristic.
    """

    name = "critical-path-first"

    def prepare(self, graph: DirectedAcyclicGraph) -> None:
        self._bottom_level = graph.longest_tail_lengths()

    def priority(self, node: NodeId, ready_time: float, arrival_index: int) -> tuple:
        return (-self._bottom_level.get(node, 0.0), arrival_index)

    def vector_keys(self, compiled: "CompiledTask") -> np.ndarray:
        # Memoised on the (immutable) compiled view: batch drivers key the
        # same task once per (platform, policy) grid cell.  The pair is
        # published in one assignment, so a reader never sees the keys of
        # another view.
        memo = getattr(self, "_keys", None)
        if memo is not None and memo[0] is compiled:
            return memo[1]
        # Same recurrence as DirectedAcyclicGraph.longest_tail_lengths(),
        # evaluated over the compiled arrays (numerically identical values).
        wcet = compiled.wcet_list
        succ_ptr, succ_idx = compiled.succ_ptr, compiled.succ_idx
        tail = [0.0] * len(wcet)
        for i in reversed(compiled.topo):
            longest = 0.0
            for s in succ_idx[succ_ptr[i] : succ_ptr[i + 1]]:
                if tail[s] > longest:
                    longest = tail[s]
            tail[i] = longest + wcet[i]
        keys = -np.asarray(tail, dtype=np.float64)
        self._keys = (compiled, keys)
        return keys


class ShortestFirstPolicy(SchedulingPolicy):
    """Smallest WCET first (SJF-like, tends to increase the makespan)."""

    name = "shortest-first"

    def prepare(self, graph: DirectedAcyclicGraph) -> None:
        self._wcet = graph.wcets()

    def priority(self, node: NodeId, ready_time: float, arrival_index: int) -> tuple:
        return (self._wcet.get(node, 0.0), arrival_index)

    def vector_keys(self, compiled: "CompiledTask") -> np.ndarray:
        return compiled.wcet


class LongestFirstPolicy(SchedulingPolicy):
    """Largest WCET first (LPT-like)."""

    name = "longest-first"

    def prepare(self, graph: DirectedAcyclicGraph) -> None:
        self._wcet = graph.wcets()

    def priority(self, node: NodeId, ready_time: float, arrival_index: int) -> tuple:
        return (-self._wcet.get(node, 0.0), arrival_index)

    def vector_keys(self, compiled: "CompiledTask") -> np.ndarray:
        return -compiled.wcet


class RandomPolicy(SchedulingPolicy):
    """Uniformly random ready-queue order (seeded, hence reproducible).

    Useful for estimating the spread of work-conserving schedules and for the
    randomised worst-case search of
    :mod:`repro.simulation.worst_case`.
    """

    name = "random"

    def __init__(self, rng: np.random.Generator | int | None = None) -> None:
        """``rng`` is a :class:`numpy.random.Generator`, ``None`` (fresh OS
        entropy) or a seed, an integer >= 0 that is not a boolean
        (:func:`~repro.core.task.check_seed`)."""
        if rng is not None and not isinstance(rng, np.random.Generator):
            rng = check_seed("rng", rng)
        self._rng = np.random.default_rng(rng)

    def spawned(self, seed: int) -> "RandomPolicy":
        """Reseeded copy: chunks must not replay the same stream."""
        return RandomPolicy(seed)

    def priority(self, node: NodeId, ready_time: float, arrival_index: int) -> tuple:
        return (float(self._rng.random()), arrival_index)

    def vector_draws(self, count: int) -> np.ndarray:
        """Consume ``count`` draws from the policy's stream as one array.

        ``Generator.random(count)`` consumes the underlying bit stream
        exactly like ``count`` successive scalar ``random()`` calls, so an
        engine can pre-draw one simulation's priority values (one per
        non-instant node, assigned in arrival order) and stay bit-identical
        to the per-arrival draws of :meth:`priority`.
        """
        return self._rng.random(count)


def priority_table(priorities: Mapping) -> dict[NodeId, float]:
    """A fixed-priority table with every value as the float64 it is compared as.

    Every engine compares priorities as float64 (the C kernel cannot do
    otherwise), so integers that share a float64 value tie.  Each value must
    be a finite real number, not a boolean (:func:`check_number`).

    Raises
    ------
    ValidationError
        If ``priorities`` is not a mapping or a value is refused, naming it.
    """
    if not isinstance(priorities, Mapping):
        raise ValidationError(
            f"priorities must map node names to numbers, got {short_repr(priorities)}"
        )
    return {
        node: check_number(f"priorities[{short_repr(node)}]", value, -math.inf, strict=True)
        for node, value in priorities.items()
    }


class FixedPriorityPolicy(SchedulingPolicy):
    """Explicit per-node priorities (smaller value = higher priority).

    The table is checked by :func:`priority_table` and held as float64
    values; a node missing from it has priority ``+inf``.  The exhaustive
    worst-case search enumerates permutations of node priorities through
    this policy.
    """

    name = "fixed-priority"

    def __init__(self, priorities: Optional[Mapping[NodeId, float]] = None) -> None:
        self._priorities = priority_table(priorities) if priorities is not None else {}

    def priority(self, node: NodeId, ready_time: float, arrival_index: int) -> tuple:
        return (self._priorities.get(node, math.inf), arrival_index)

    def vector_keys(self, compiled: "CompiledTask") -> np.ndarray:
        # Memoised per compiled view and published in one assignment, as in
        # CriticalPathFirstPolicy.vector_keys.
        memo = getattr(self, "_keys", None)
        if memo is not None and memo[0] is compiled:
            return memo[1]
        get = self._priorities.get
        keys = np.array([get(node, math.inf) for node in compiled.nodes], dtype=np.float64)
        self._keys = (compiled, keys)
        return keys


#: Exact-type map of the built-in policies onto the C kernel's
#: priority families.  Keyed by concrete class on purpose: a subclass may
#: override ``priority()``/``prepare()`` in ways no family can express, so
#: anything that is not literally one of the seven built-ins has no family
#: and takes the object-keyed path of the reference and dense engines.
_VECTOR_KINDS: dict[type, str] = {
    BreadthFirstPolicy: VECTOR_FIFO,
    DepthFirstPolicy: VECTOR_LIFO,
    CriticalPathFirstPolicy: VECTOR_STATIC,
    ShortestFirstPolicy: VECTOR_STATIC,
    LongestFirstPolicy: VECTOR_STATIC,
    RandomPolicy: VECTOR_RANDOM,
    FixedPriorityPolicy: VECTOR_STATIC,
}


def policy_vector_kind(policy: SchedulingPolicy) -> Optional[str]:
    """Vector-kind label of ``policy`` (its priority family), or ``None``.

    ``None`` means no engine but the reference and dense ones can simulate
    this policy (a custom or subclassed policy whose behaviour is only
    defined by its object-keyed methods); the dense engine adapts it
    bit-identically.  The four families, read by the dense engine, the C
    kernel and both workload engines:

    * :data:`VECTOR_FIFO` -- priority ``(ready time, creation index)``
      (:class:`BreadthFirstPolicy`); needs no arrival bookkeeping because
      the key pair is already unique per lane.
    * :data:`VECTOR_LIFO` -- priority ``(-arrival,)``
      (:class:`DepthFirstPolicy`).
    * :data:`VECTOR_STATIC` -- priority ``(static per-node value, arrival)``
      with the per-node values from :meth:`SchedulingPolicy.vector_keys`.
    * :data:`VECTOR_RANDOM` -- priority ``(seeded draw, arrival)`` with the
      draws pre-consumed via :meth:`RandomPolicy.vector_draws`.
    """
    return _VECTOR_KINDS.get(type(policy))


_POLICIES: dict[str, type[SchedulingPolicy]] = {
    BreadthFirstPolicy.name: BreadthFirstPolicy,
    DepthFirstPolicy.name: DepthFirstPolicy,
    CriticalPathFirstPolicy.name: CriticalPathFirstPolicy,
    ShortestFirstPolicy.name: ShortestFirstPolicy,
    LongestFirstPolicy.name: LongestFirstPolicy,
    RandomPolicy.name: RandomPolicy,
    FixedPriorityPolicy.name: FixedPriorityPolicy,
}


def policy_class(name: str) -> type[SchedulingPolicy]:
    """The policy class named ``name``; a ``KeyError`` names the valid ones."""
    cls = _POLICIES.get(name) if isinstance(name, str) else None
    if cls is None:
        valid = ", ".join(sorted(_POLICIES))
        raise KeyError(f"unknown policy {short_repr(name)}; valid policies: {valid}")
    return cls


def policy_by_name(name: str, rng: Optional[int] = None) -> SchedulingPolicy:
    """Instantiate a policy from its short name.

    Valid names: ``breadth-first``, ``depth-first``, ``critical-path-first``,
    ``shortest-first``, ``longest-first``, ``random``, ``fixed-priority``.
    A ``fixed-priority`` policy built this way starts with an empty priority
    table (every node ties at ``+inf`` and the arrival index decides, i.e.
    ready-queue FIFO); the scheduler-ablation CLI uses it as a baseline, and
    programmatic callers pass an explicit table to the constructor instead.
    """
    cls = policy_class(name)
    if cls is RandomPolicy:
        return RandomPolicy(rng)
    return cls()
