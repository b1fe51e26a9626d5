"""Batched makespans on the compiled C step loop.

A figure 6 sweep runs thousands of independent simulations, one per
``(task, platform, policy)`` cell.  This module turns each cell into a
*lane* and runs every lane of a call in one native call of the C kernel
(:mod:`repro.simulation._kernels`, packed by
:mod:`repro.simulation.vectorized_compiled`, split across the CPUs the
process may run on).  A task's lanes on several platforms form one group
that shares the compiled task view, the device-assignment array and the
static priority keys; only the platform and a random policy's draws differ
per lane.

Policy families
---------------
The kernel understands the four priority families of the built-in policies
(:func:`repro.simulation.schedulers.policy_vector_kind`):

* ``fifo`` (breadth-first): key ``(ready time, creation index)``;
* ``static`` (critical-path/shortest/longest/fixed-priority): key
  ``(static per-node value, arrival index)``, with the per-node values from
  :meth:`~repro.simulation.schedulers.SchedulingPolicy.vector_keys`;
* ``lifo`` (depth-first): key ``(-arrival,)``;
* ``random``: key ``(draw, arrival)`` with the draws *pre-consumed* from the
  policy's stream (``Generator.random(k)`` consumes the bit stream exactly
  like ``k`` scalar draws, one draw per non-instant arrival, so the stream
  semantics of the scalar engines are preserved; when one policy instance
  serves several cells, the draws are consumed in cell order).

Mixed families share one call: the kernel switches per lane.  Custom or
subclassed policies have no vector kind; callers
(:func:`repro.simulation.batch.simulate_many`) serve those cells with the
dense engine.  Every entry point here needs the C kernel and raises
:class:`RuntimeError`, with the reason, when it cannot be built.

Bit-identity contract
---------------------
Every lane returns **exactly** ``simulate(...).makespan()`` of its cell --
same floats, same tie-breaking -- whatever other lanes share the call.  The
property suite in ``tests/test_vectorized_engine.py`` enforces identity
against both scalar engines across all seven registered policies, original
and transformed DAGs, multi-device assignments and offload modes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Optional, Sequence, Union

import numpy as np

from ..core.compiled import CompiledTask, compile_task
from ..core.graph import NodeId
from ..core.task import DagTask
from .engine import _as_platform, _device_assignment
from .platform import Platform
from .schedulers import (
    VECTOR_RANDOM,
    VECTOR_STATIC,
    BreadthFirstPolicy,
    SchedulingPolicy,
    policy_vector_kind,
)
from .vectorized_compiled import resolve_engine, run_lanes_compiled

__all__ = [
    "VectorCell",
    "simulate_makespans_vectorized",
    "simulate_column_vectorized",
]


@dataclass(frozen=True)
class VectorCell:
    """One simulation of a kernel call (a *lane*).

    Mirrors the parameters of :func:`repro.simulation.engine.simulate`; the
    optional ``compiled`` view lets batch drivers compile once per task and
    share the view across every cell of that task.
    """

    task: DagTask
    platform: Union[Platform, int]
    policy: Optional[SchedulingPolicy] = None
    offload_enabled: bool = True
    device_assignment: Optional[Mapping[NodeId, int]] = None
    compiled: Optional[CompiledTask] = None


@dataclass
class _TaskLanes:
    """One task's lanes, one per platform, and what they share (internal)."""

    compiled: CompiledTask
    kind: str
    platforms: Sequence[Platform]
    assigned: np.ndarray  # (n,) device per node, -1 = host; shared, read only
    static_keys: Optional[np.ndarray] = None  # static kind
    draws: Optional[list[np.ndarray]] = None  # random kind, one per platform


def _vector_kind(policy: Optional[SchedulingPolicy]) -> str:
    """Priority family of ``policy`` (``None`` is breadth-first); raises
    :class:`ValueError` for policies the kernel cannot serve."""
    policy = policy if policy is not None else BreadthFirstPolicy()
    kind = policy_vector_kind(policy)
    if kind is None:
        raise ValueError(
            f"policy {type(policy).__name__!r} has no vector kind; "
            "simulate it with the dense engine instead"
        )
    return kind


def _assigned_array(compiled: CompiledTask, assignment: Mapping[NodeId, int]) -> np.ndarray:
    """The device of every dense index of ``compiled`` (-1 = host)."""
    assigned = np.full(len(compiled.nodes), -1, dtype=np.int64)
    for node, device in assignment.items():
        assigned[compiled.index[node]] = device
    return assigned


def _task_lanes(
    task: DagTask,
    compiled: Optional[CompiledTask],
    platforms: Sequence[Platform],
    policy: SchedulingPolicy,
    kind: str,
    offload_enabled: bool,
    device_assignment: Optional[Mapping[NodeId, int]] = None,
) -> _TaskLanes:
    """The lanes of ``task`` on each of ``platforms``, in platform order.

    The compiled view, the device-assignment array and the static keys are
    built once and shared by every lane; a random policy draws each lane's
    pool in turn, one draw per non-instant node (each is enqueued exactly
    once), which preserves the stream semantics of the scalar engines.
    Without an explicit ``device_assignment`` the array depends on the
    structure and the offloaded node only, so it is memoised on the
    structure and every copy of a shape shares it.
    """
    if compiled is None:
        compiled = compile_task(task)
    static = (
        np.asarray(policy.vector_keys(compiled), dtype=np.float64)
        if kind == VECTOR_STATIC
        else None
    )
    # The resolved assignment does not depend on the platform, only its
    # validation does: resolve once, re-validate (and surface the exact
    # error) only for platforms that cannot satisfy it.
    assignment = _device_assignment(
        task, platforms[0], offload_enabled, device_assignment
    )
    max_device = max(assignment.values(), default=-1)
    if device_assignment is None:
        assigned = task.graph._structural(
            ("assigned", task.offloaded_node if offload_enabled else None),
            lambda: _assigned_array(compiled, assignment),
        )
    else:
        assigned = _assigned_array(compiled, assignment)
    for platform in platforms:
        if max_device >= platform.accelerators:
            _device_assignment(task, platform, offload_enabled, device_assignment)
    draws = None
    if kind == VECTOR_RANDOM:
        nonzero = int(np.count_nonzero(compiled.wcet))
        draws = [policy.vector_draws(nonzero) for _ in platforms]
    return _TaskLanes(compiled, kind, platforms, assigned, static, draws)


def simulate_column_vectorized(
    entries: Sequence[tuple[DagTask, Optional[CompiledTask]]],
    platforms: Sequence[Union[Platform, int]],
    policy: SchedulingPolicy,
    offload_enabled: bool = True,
) -> np.ndarray:
    """Makespans of a ``task x platform`` grid under one vectorisable policy.

    The batch-construction fast path of
    :func:`repro.simulation.batch.simulate_many`: per-task preparation (the
    compiled view, the device-assignment array, static priority keys) is
    done once and shared across the whole platform axis.  Lanes run in
    ``(task, platform)`` order, so a stateful :class:`RandomPolicy` consumes
    its stream exactly like the scalar engines' nested loops.  Returns an
    array of shape ``(len(entries), len(platforms))``.
    """
    kind = _vector_kind(policy)
    resolve_engine("compiled")
    platform_list = [_as_platform(platform) for platform in platforms]
    if not platform_list:
        raise ValueError("simulate_column_vectorized needs at least one platform")
    groups = [
        _task_lanes(task, compiled, platform_list, policy, kind, offload_enabled)
        for task, compiled in entries
    ]
    # Lanes sit in (task, platform) order, which is the output order.
    return run_lanes_compiled(groups).reshape(len(entries), len(platform_list))


def simulate_makespans_vectorized(cells: Sequence[VectorCell]) -> np.ndarray:
    """Makespans of many independent simulations, in one kernel call.

    Cells may mix policy families; results come back in cell order, each
    bit-identical to ``simulate(...).makespan()`` for the same cell.
    Raises :class:`ValueError` for policies without a vector kind (custom
    or subclassed policies -- use the dense engine for those).
    """
    cells = list(cells)
    kinds = [_vector_kind(cell.policy) for cell in cells]
    resolve_engine("compiled")
    groups = [
        _task_lanes(
            cell.task,
            cell.compiled,
            [_as_platform(cell.platform)],
            cell.policy if cell.policy is not None else BreadthFirstPolicy(),
            kind,
            cell.offload_enabled,
            cell.device_assignment,
        )
        for cell, kind in zip(cells, kinds)
    ]
    return run_lanes_compiled(groups)
