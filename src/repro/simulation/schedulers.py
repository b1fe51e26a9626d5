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
from typing import TYPE_CHECKING, Optional

import numpy as np

from ..core.exceptions import short_repr
from ..core.graph import DirectedAcyclicGraph, NodeId

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
    "policy_supports_dense",
    "policy_vector_kind",
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

    The trace-producing simulator calls :meth:`prepare` once per simulation
    with the graph being scheduled, then :meth:`priority` for every node when
    it becomes ready.  Nodes with *smaller* priority tuples are started
    first.

    The dense fast path (:mod:`repro.simulation.dense`) uses the *dense
    protocol* instead: :meth:`prepare_dense` once per simulation with the
    :class:`~repro.core.compiled.CompiledTask` view, then
    :meth:`dense_priority` with integer node indices.  The protocol is
    opt-in: dense-native policies override both methods (vectorised
    per-index keys, no ``NodeId`` hashing) and declare it via
    :attr:`supports_dense`; every other policy -- including custom
    subclasses that override only the object-keyed pair -- is adapted by
    the dense engine internally (it calls :meth:`prepare` and routes
    :meth:`priority` through the index->node table), so custom policies
    keep working unmodified.  A dense override must return priority keys
    numerically equal to :meth:`priority` -- the dense engine is required
    to be bit-identical to the reference engine.
    """

    #: Human-readable policy name used in traces and experiment reports.
    name: str = "policy"

    #: ``True`` when :meth:`prepare_dense`/:meth:`dense_priority` are native
    #: (index-based) overrides; the dense engine then skips :meth:`prepare`.
    #: Inherited by subclasses -- the dense engine therefore consults
    #: :func:`policy_supports_dense`, which additionally rejects subclasses
    #: whose object-keyed ``priority()``/``prepare()`` override is *newer*
    #: than the inherited dense implementation (a stale dense pair would
    #: silently ignore the override).
    supports_dense: bool = False

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

    def prepare_dense(self, compiled: "CompiledTask") -> None:
        """Pre-compute per-index data for the dense engine.

        Only called for dense-native policies (those passing
        :func:`policy_supports_dense`); object-keyed policies never reach
        this hook -- the dense engine adapts their
        :meth:`prepare`/:meth:`priority` pair internally.  Overrides must be
        paired with a :meth:`dense_priority` override.
        """

    def dense_priority(
        self, index: int, ready_time: float, arrival_index: int
    ) -> tuple:
        """Sort key of the ready node with dense index ``index``.

        Only called for dense-native policies; must return keys numerically
        equal to :meth:`priority` for the same node.
        """
        raise NotImplementedError(
            f"{type(self).__name__} sets supports_dense but does not "
            "implement the dense protocol"
        )

    def vector_keys(self, compiled: "CompiledTask") -> np.ndarray:
        """Per-node primary priority values for the C kernel.

        Only meaningful for policies of the ``static`` vector kind (see
        :func:`policy_vector_kind`): the returned ``float64`` array holds,
        for every dense index, the first component of the policy's priority
        tuple -- numerically identical to what :meth:`dense_priority` (and
        therefore :meth:`priority`) would return, with the arrival index as
        the tie-breaker.  The array may share storage with the compiled
        view and must not be mutated.
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
    supports_dense = True

    def prepare(self, graph: DirectedAcyclicGraph) -> None:
        self._creation_order = {node: index for index, node in enumerate(graph.nodes())}

    def priority(self, node: NodeId, ready_time: float, arrival_index: int) -> tuple:
        return (ready_time, self._creation_order.get(node, 0), arrival_index)

    def prepare_dense(self, compiled: "CompiledTask") -> None:
        """Nothing to prepare: dense indices *are* creation ranks."""

    def dense_priority(
        self, index: int, ready_time: float, arrival_index: int
    ) -> tuple:
        return (ready_time, index, arrival_index)


class DepthFirstPolicy(SchedulingPolicy):
    """LIFO ready queue: most recently readied node first.

    This approximates the behaviour of depth-first (work-first) OpenMP
    runtimes; it is the natural counterpart of the breadth-first policy for
    the scheduler ablation.
    """

    name = "depth-first"
    supports_dense = True

    def priority(self, node: NodeId, ready_time: float, arrival_index: int) -> tuple:
        return (-arrival_index,)

    def prepare_dense(self, compiled: "CompiledTask") -> None:
        """Stateless: the key only depends on the arrival index."""

    def dense_priority(
        self, index: int, ready_time: float, arrival_index: int
    ) -> tuple:
        return (-arrival_index,)


class CriticalPathFirstPolicy(SchedulingPolicy):
    """Largest bottom-level first (classical HLFET list scheduling).

    The bottom level of a node is the length of the longest path from the
    node (inclusive) to the sink; prioritising large bottom levels keeps the
    critical path moving and is a common makespan-oriented heuristic.
    """

    name = "critical-path-first"
    supports_dense = True

    def prepare(self, graph: DirectedAcyclicGraph) -> None:
        self._bottom_level = graph.longest_tail_lengths()

    def priority(self, node: NodeId, ready_time: float, arrival_index: int) -> tuple:
        return (-self._bottom_level.get(node, 0.0), arrival_index)

    def prepare_dense(self, compiled: "CompiledTask") -> None:
        # Memoised on the (immutable) compiled view: batch drivers prepare
        # the same task once per (platform, policy) grid cell.
        if getattr(self, "_dense_for", None) is compiled:
            return
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
        self._dense_tail = tail
        self._dense_for = compiled

    def dense_priority(
        self, index: int, ready_time: float, arrival_index: int
    ) -> tuple:
        return (-self._dense_tail[index], arrival_index)

    def vector_keys(self, compiled: "CompiledTask") -> np.ndarray:
        self.prepare_dense(compiled)
        return -np.asarray(self._dense_tail, dtype=np.float64)


class ShortestFirstPolicy(SchedulingPolicy):
    """Smallest WCET first (SJF-like, tends to increase the makespan)."""

    name = "shortest-first"
    supports_dense = True

    def prepare(self, graph: DirectedAcyclicGraph) -> None:
        self._wcet = graph.wcets()

    def priority(self, node: NodeId, ready_time: float, arrival_index: int) -> tuple:
        return (self._wcet.get(node, 0.0), arrival_index)

    def prepare_dense(self, compiled: "CompiledTask") -> None:
        self._dense_wcet = compiled.wcet_list

    def dense_priority(
        self, index: int, ready_time: float, arrival_index: int
    ) -> tuple:
        return (self._dense_wcet[index], arrival_index)

    def vector_keys(self, compiled: "CompiledTask") -> np.ndarray:
        return compiled.wcet


class LongestFirstPolicy(SchedulingPolicy):
    """Largest WCET first (LPT-like)."""

    name = "longest-first"
    supports_dense = True

    def prepare(self, graph: DirectedAcyclicGraph) -> None:
        self._wcet = graph.wcets()

    def priority(self, node: NodeId, ready_time: float, arrival_index: int) -> tuple:
        return (-self._wcet.get(node, 0.0), arrival_index)

    def prepare_dense(self, compiled: "CompiledTask") -> None:
        self._dense_wcet = compiled.wcet_list

    def dense_priority(
        self, index: int, ready_time: float, arrival_index: int
    ) -> tuple:
        return (-self._dense_wcet[index], arrival_index)

    def vector_keys(self, compiled: "CompiledTask") -> np.ndarray:
        return -compiled.wcet


class RandomPolicy(SchedulingPolicy):
    """Uniformly random ready-queue order (seeded, hence reproducible).

    Useful for estimating the spread of work-conserving schedules and for the
    randomised worst-case search of
    :mod:`repro.simulation.worst_case`.
    """

    name = "random"
    supports_dense = True

    def __init__(self, rng: np.random.Generator | int | None = None) -> None:
        self._rng = np.random.default_rng(rng)

    def spawned(self, seed: int) -> "RandomPolicy":
        """Reseeded copy: chunks must not replay the same stream."""
        return RandomPolicy(seed)

    def priority(self, node: NodeId, ready_time: float, arrival_index: int) -> tuple:
        return (float(self._rng.random()), arrival_index)

    def prepare_dense(self, compiled: "CompiledTask") -> None:
        """Stateless per graph; the RNG stream carries across simulations."""

    def dense_priority(
        self, index: int, ready_time: float, arrival_index: int
    ) -> tuple:
        # One draw per ready-queue insertion, exactly like priority(): the
        # dense engine enqueues in the same order as the reference engine,
        # so both consume the identical stream.
        return (float(self._rng.random()), arrival_index)

    def vector_draws(self, count: int) -> np.ndarray:
        """Consume ``count`` draws from the policy's stream as one array.

        ``Generator.random(count)`` consumes the underlying bit stream
        exactly like ``count`` successive scalar ``random()`` calls, so the
        C kernel can pre-draw one simulation's priority values (one
        per non-instant node, assigned in arrival order) and stay
        bit-identical to the per-arrival draws of the other engines.
        """
        return self._rng.random(count)


class FixedPriorityPolicy(SchedulingPolicy):
    """Explicit per-node priorities (smaller value = higher priority).

    The exhaustive worst-case search enumerates permutations of node
    priorities through this policy.
    """

    name = "fixed-priority"
    supports_dense = True

    def __init__(self, priorities: Optional[dict[NodeId, float]] = None) -> None:
        self._priorities = dict(priorities) if priorities is not None else {}

    def priority(self, node: NodeId, ready_time: float, arrival_index: int) -> tuple:
        return (self._priorities.get(node, float("inf")), arrival_index)

    def prepare_dense(self, compiled: "CompiledTask") -> None:
        if getattr(self, "_dense_for", None) is compiled:
            return
        missing = float("inf")
        get = self._priorities.get
        self._dense_priorities = [get(node, missing) for node in compiled.nodes]
        self._dense_for = compiled

    def dense_priority(
        self, index: int, ready_time: float, arrival_index: int
    ) -> tuple:
        return (self._dense_priorities[index], arrival_index)

    def vector_keys(self, compiled: "CompiledTask") -> np.ndarray:
        self.prepare_dense(compiled)
        return np.asarray(self._dense_priorities, dtype=np.float64)


def _providing_class(cls: type, name: str) -> type:
    """The class in ``cls``'s MRO whose ``__dict__`` defines ``name``."""
    for klass in cls.__mro__:
        if name in klass.__dict__:
            return klass
    return SchedulingPolicy


def policy_supports_dense(policy: SchedulingPolicy) -> bool:
    """``True`` when the dense engine may use the policy's dense protocol.

    Requires :attr:`SchedulingPolicy.supports_dense` *and* that neither
    object-keyed method is overridden below the class providing its dense
    counterpart: a subclass of a built-in policy that overrides only
    ``priority()`` (or only ``prepare()``) would otherwise inherit a stale
    dense implementation and the dense engine would silently ignore the
    override.  Such policies fall back to the object-keyed path, which the
    dense engine adapts internally -- bit-identity is preserved either way.
    """
    if not policy.supports_dense:
        return False
    cls = type(policy)
    for object_name, dense_name in (
        ("prepare", "prepare_dense"),
        ("priority", "dense_priority"),
    ):
        object_provider = _providing_class(cls, object_name)
        dense_provider = _providing_class(cls, dense_name)
        if dense_provider is not object_provider and issubclass(
            object_provider, dense_provider
        ):
            return False
    return True


#: Exact-type map of the built-in policies onto the C kernel's
#: priority families.  Keyed by concrete class on purpose: a subclass may
#: override ``priority()``/``prepare()`` in ways the kernel cannot see, so
#: anything that is not literally one of the seven built-ins falls back to
#: the dense (or object-keyed) engine -- mirroring the conservative rule of
#: :func:`policy_supports_dense`.
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
    """Vector-kind label of ``policy`` for the C kernel, or ``None``.

    ``None`` means the vectorised engine must not simulate this policy (a
    custom or subclassed policy whose behaviour is only defined by its
    object-keyed methods); callers fall back to the dense engine, which
    adapts any policy and is bit-identical by contract.  The four families:

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
