"""The bridge into the compiled C kernel: engine resolution and columns.

:func:`resolve_engine` names the engine that serves a vectorisable
simulation grid on this host: the C kernel when it can be built, the dense
engine otherwise.  :func:`pack_column` turns one ``task x platform`` column
under one policy into the tables of :func:`repro.simulation._kernels.run_lanes`
and :func:`run_column` runs them: every cell of the column is a *lane* of one
native call.  Per task it packs the compiled view, the device-assignment
array (memoised on the structure, so every copy of a shape shares it) and,
for a static policy, the priority keys; per lane, the host cores, the
accelerators and a random policy's draws.  The structures and WCET vectors
are stored each distinct object once (:func:`repro.core.compiled.stack_compiled`)
and the lane records are built with numpy.
:func:`repro.simulation.batch.simulate_many` is the one caller in the
package.

Policy families
---------------
The kernel understands the four priority families of the built-in policies
(:func:`repro.simulation.schedulers.policy_vector_kind`), one per call:

* ``fifo`` (breadth-first): key ``(ready time, creation index)``;
* ``static`` (critical-path/shortest/longest/fixed-priority): key
  ``(static per-node value, arrival index)``, with the per-node values from
  :meth:`~repro.simulation.schedulers.SchedulingPolicy.vector_keys`;
* ``lifo`` (depth-first): key ``(-arrival,)``;
* ``random``: key ``(draw, arrival)`` with the draws *pre-consumed* from the
  policy's stream, one pool per lane in ``(task, platform)`` order and one
  draw per non-instant node (``Generator.random(k)`` consumes the bit
  stream exactly like ``k`` scalar draws), so the stream matches the scalar
  engines' nested loops.

Custom or subclassed policies have no family; ``simulate_many`` serves them
with the dense engine, and :func:`pack_column` refuses them.

Bit-identity contract
---------------------
Every lane returns **exactly** ``simulate(...).makespan()`` of its cell --
same floats, same tie-breaking -- whatever other lanes share the call.  The
property suite in ``tests/test_vectorized_engine.py`` enforces identity
against both scalar engines across all seven registered policies, original
and transformed DAGs and offload modes.
"""

from __future__ import annotations

from functools import partial
from operator import attrgetter
from typing import Optional, Sequence

import numpy as np

from ..core.compiled import CompiledTask, concat_distinct, stack_compiled
from ..core.graph import NodeId
from ..core.task import DagTask
from . import _kernels
from .engine import _device_assignment
from .platform import Platform
from .schedulers import VECTOR_RANDOM, VECTOR_STATIC, SchedulingPolicy, policy_vector_kind

__all__ = [
    "ENGINES",
    "pack_column",
    "resolve_backend",
    "resolve_engine",
    "run_column",
]

#: Engine names :func:`repro.simulation.batch.simulate_many` accepts.
ENGINES = ("auto", "dense", "compiled")


def resolve_engine(engine: str) -> str:
    """The concrete engine ``engine`` names on this host.

    ``auto`` is ``compiled`` when the C kernel can be built and ``dense``
    otherwise (no C compiler, or ``REPRO_COMPILED=0``); it never compares
    a grid's size with anything.  An *explicit* ``compiled`` request raises
    :class:`RuntimeError` with the reason instead -- callers asking for the
    kernel by name want its absence to be loud.  The first call builds and
    loads the kernel.
    """
    if engine not in ENGINES:
        raise ValueError(f"engine must be one of {ENGINES}, got {engine!r}")
    if engine == "auto":
        return "compiled" if _kernels.compiled_available() else "dense"
    if engine == "compiled" and not _kernels.compiled_available():
        raise RuntimeError(
            "compiled kernel backend unavailable: "
            f"{_kernels.compiled_unavailable_reason()}"
        )
    return engine


#: The name scripts call (``resolve_backend("auto")``) to build the kernel
#: before they start timing.
resolve_backend = resolve_engine


def _assigned_array(compiled: CompiledTask, offloaded: Optional[NodeId]) -> np.ndarray:
    """The device of every dense index of ``compiled`` (-1 = host): the
    offloaded node, if any, on device 0."""
    assigned = np.full(len(compiled.nodes), -1, dtype=np.int64)
    if offloaded is not None:
        assigned[compiled.index[offloaded]] = 0
    return assigned


def pack_column(
    entries: Sequence[tuple[DagTask, CompiledTask]],
    platforms: Sequence[Platform],
    policy: SchedulingPolicy,
    offload_enabled: bool,
) -> tuple[np.ndarray, ...]:
    """The arguments of :func:`repro.simulation._kernels.run_lanes` for every
    ``(task, platform)`` cell of a column, lanes in that order.

    ``entries`` pairs each task with its compiled view.  Raises
    :class:`ValueError` for a policy without a family and
    :class:`~repro.core.exceptions.SimulationError` when an offloaded node
    meets a platform without an accelerator.
    """
    kind = policy_vector_kind(policy)
    if kind is None:
        raise ValueError(
            f"policy {type(policy).__name__!r} has no vector kind; "
            "simulate it with the dense engine instead"
        )
    # The platform with the fewest accelerators is the one that may not
    # hold a task's offloaded node; the engines' own check refuses it.
    narrowest = min(platforms, key=attrgetter("accelerators"))
    assigned, keys, pools = [], [], []
    for task, compiled in entries:
        resolved = _device_assignment(task, narrowest, offload_enabled, None)
        offloaded = task.offloaded_node if resolved else None
        assigned.append(
            task.graph._structural(
                ("assigned", offloaded), partial(_assigned_array, compiled, offloaded)
            )
        )
        keys.append(
            np.asarray(policy.vector_keys(compiled), dtype=np.float64)
            if kind == VECTOR_STATIC
            else None
        )
        if kind == VECTOR_RANDOM:
            nonzero = int(np.count_nonzero(compiled.wcet))
            pools += [policy.vector_draws(nonzero) for _ in platforms]
    stack = stack_compiled([compiled for _, compiled in entries])
    assigned, assigned_off = concat_distinct(assigned, np.int64)
    keys, key_off = concat_distinct(keys, np.float64)
    draws, draw_off = concat_distinct(pools, np.float64)
    # One record of LANE_FIELDS per lane: a task's four offsets (struct,
    # wcet, assigned, key) repeated over the platforms, then each lane's
    # draw offset, cores and accelerators, and the call's family code.
    per_task = np.array(
        [stack.structure, stack.wcet_off, assigned_off, key_off], dtype=np.int64
    )
    resources = [(platform.host_cores, platform.accelerators) for platform in platforms]
    records = np.empty(
        (len(entries) * len(platforms), len(_kernels.LANE_FIELDS)), dtype=np.int64
    )
    records[:, :4] = np.repeat(per_task.T, len(platforms), axis=0)
    records[:, 4] = draw_off or 0
    records[:, 5:7] = np.tile(resources, (len(entries), 1))
    records[:, 7] = _kernels.KIND_CODES[kind]
    return (
        stack.node_off,
        stack.succ_ptr,
        stack.succ_idx,
        stack.in_degree,
        stack.wcet,
        assigned,
        keys,
        draws,
        records,
    )


def run_column(
    entries: Sequence[tuple[DagTask, CompiledTask]],
    platforms: Sequence[Platform],
    policy: SchedulingPolicy,
    offload_enabled: bool = True,
) -> np.ndarray:
    """Makespans of a ``task x platform`` column under one policy with a
    family, shaped ``(len(entries), len(platforms))``, in one kernel call.

    A stateful :class:`~repro.simulation.schedulers.RandomPolicy` consumes
    its stream in ``(task, platform)`` order, like the scalar engines'
    nested loops.  Raises :class:`RuntimeError` when the kernel cannot be
    built, besides the refusals of :func:`pack_column`.
    """
    tables = pack_column(entries, platforms, policy, offload_enabled)
    return _kernels.run_lanes(*tables).reshape(len(entries), len(platforms))
