"""Engine resolution and lane packing for the compiled C kernel.

:func:`resolve_engine` names the engine that serves a vectorisable
simulation grid on this host: the C kernel when it can be built, the dense
engine otherwise.  :func:`run_lanes_compiled` is the bridge between the
lane groups of :mod:`repro.simulation.vectorized` (one ``_TaskLanes`` per
task: compiled view, priority family, platforms, device-assignment array,
optional static keys / pre-consumed draws) and the C step loop in
:mod:`repro.simulation._kernels`.  It stores each distinct object once --
structures and WCET vectors through
:func:`repro.core.compiled.stack_compiled`, each group's assignment and
static keys, each lane's draws -- writes one record of offsets, resources
and family code per lane, and runs every lane in **one** native call
(mixed families are fine; the kernel switches per lane).

It deliberately imports nothing from ``vectorized`` so the dependency chain
stays a straight line (``vectorized`` -> here -> ``_kernels``); groups are
duck-typed on the ``_TaskLanes`` attributes.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from ..core.compiled import concat_distinct, stack_compiled
from . import _kernels

__all__ = ["ENGINES", "resolve_backend", "resolve_engine", "run_lanes_compiled"]

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
    draw_offsets = iter(draw_off)
    records: list[int] = []  # LANE_FIELDS per lane, in that order
    for group, shared in zip(
        groups, zip(stack.structure, stack.wcet_off, assigned_off, key_off)
    ):
        kind = _kernels.KIND_CODES[group.kind]
        for platform in group.platforms:
            records += (
                *shared,
                next(draw_offsets),
                platform.host_cores,
                platform.accelerators,
                kind,
            )
    return _kernels.run_lanes(
        stack.node_off,
        stack.succ_ptr,
        stack.succ_idx,
        stack.in_degree,
        stack.wcet,
        assigned,
        keys,
        draws,
        np.array(records, dtype=np.int64),
    )
