"""Engine resolution and lane packing for the compiled C kernel.

:func:`resolve_engine` names the engine that serves a vectorisable
simulation grid on this host: the C kernel when it can be built, the dense
engine otherwise.  :func:`run_lanes_compiled` is the bridge between the
lane groups of :mod:`repro.simulation.vectorized` (one ``_TaskLanes`` per
task: compiled view, priority family, platforms, device-assignment array,
optional static keys / pre-consumed draws) and the C step loop in
:mod:`repro.simulation._kernels`.  Its packing half, :func:`pack_lanes`,
stores each distinct object once -- structures and WCET vectors through
:func:`repro.core.compiled.stack_compiled`, each group's assignment and
static keys, each lane's draws -- and builds the table of one record of
offsets, resources and family code per lane with numpy (a group's shared
offsets repeated over its platforms); every lane then runs in **one**
native call (mixed families are fine; the kernel switches per lane).

It deliberately imports nothing from ``vectorized`` so the dependency chain
stays a straight line (``vectorized`` -> here -> ``_kernels``); groups are
duck-typed on the ``_TaskLanes`` attributes.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from ..core.compiled import concat_distinct, stack_compiled
from . import _kernels

__all__ = [
    "ENGINES",
    "pack_lanes",
    "resolve_backend",
    "resolve_engine",
    "run_lanes_compiled",
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


def run_lanes_compiled(groups: Sequence) -> np.ndarray:
    """Makespans of every lane of ``groups`` via the C kernel.

    Returns the makespans group by group, each group's lanes in platform
    order; bit-identical to the scalar engines by the contract of
    :mod:`repro.simulation._kernels`.
    """
    if not groups:
        return np.empty(0, dtype=np.float64)
    return _kernels.run_lanes(*pack_lanes(groups))


def pack_lanes(groups: Sequence) -> tuple[np.ndarray, ...]:
    """The arguments of :func:`repro.simulation._kernels.run_lanes` for the
    lanes of ``groups`` (at least one): the shared tables, each distinct
    object once, then the lane records, group by group, each group's lanes
    in platform order.
    """
    stack = stack_compiled([group.compiled for group in groups])
    assigned, assigned_off = concat_distinct(
        [group.assigned for group in groups], np.int64
    )
    keys, key_off = concat_distinct(
        [group.static_keys for group in groups], np.float64
    )
    draws, draw_off = concat_distinct(
        [
            pool
            for group in groups
            for pool in (group.draws or [None] * len(group.platforms))
        ],
        np.float64,
    )
    # One record of LANE_FIELDS per lane: a group's four offsets (struct,
    # wcet, assigned, key) and its family code (kind) repeated over its
    # platforms, then each lane's draw offset, cores and accelerators.
    kinds = [_kernels.KIND_CODES[group.kind] for group in groups]
    shared = np.array(
        [stack.structure, stack.wcet_off, assigned_off, key_off, kinds], dtype=np.int64
    )
    lanes = [len(group.platforms) for group in groups]
    records = np.empty((sum(lanes), len(_kernels.LANE_FIELDS)), dtype=np.int64)
    records[:, [0, 1, 2, 3, 7]] = np.repeat(shared.T, lanes, axis=0)
    records[:, 4] = draw_off
    records[:, 5:7] = [
        (platform.host_cores, platform.accelerators)
        for group in groups
        for platform in group.platforms
    ]
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
