"""Engine resolution and lane packing for the compiled C kernel.

:func:`resolve_engine` names the engine that serves a vectorisable
simulation grid on this host: the C kernel when it can be built, the dense
engine otherwise.  :func:`run_lanes_compiled` is the bridge between the
lane representation of :mod:`repro.simulation.vectorized` (a list of
``_Lane`` records: compiled task view, platform, device-assignment array,
optional static keys / pre-consumed draws) and the C step loop in
:mod:`repro.simulation._kernels`: it lays the lanes out in the flat global
node space the kernel expects -- node offsets, WCETs, the globally rebased
CSR and initial in-degrees from :func:`repro.core.compiled.stack_compiled`,
plus device assignments, per-lane resources and priority-family codes --
and runs them all in **one** native call (mixed families are fine; the
kernel switches per lane).

It deliberately imports nothing from ``vectorized`` so the dependency chain
stays a straight line (``vectorized`` -> here -> ``_kernels``); lanes are
duck-typed on the ``_Lane`` attributes.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from ..core.compiled import stack_compiled
from . import _kernels
from .schedulers import VECTOR_RANDOM, VECTOR_STATIC

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


def run_lanes_compiled(lanes: Sequence, kinds: Sequence[str]) -> np.ndarray:
    """Makespans of ``lanes`` (parallel ``kinds`` list) via the C kernel.

    Returns the per-lane makespans in input order; bit-identical to the
    scalar engines by the contract of :mod:`repro.simulation._kernels`.
    """
    B = len(lanes)
    if B == 0:
        return np.empty(0, dtype=np.float64)
    node_off, wcet, ptr, idx, in_degree = stack_compiled(
        [lane.compiled for lane in lanes]
    )
    assigned = np.concatenate([lane.assigned for lane in lanes])

    static_key = np.zeros(int(node_off[-1]), dtype=np.float64)
    draw_off = np.zeros(B, dtype=np.int64)
    draw_parts: list[np.ndarray] = []
    total_draws = 0
    kind_codes = np.empty(B, dtype=np.int64)
    for i, (lane, kind) in enumerate(zip(lanes, kinds)):
        kind_codes[i] = _kernels.KIND_CODES[kind]
        draw_off[i] = total_draws
        if kind == VECTOR_STATIC:
            static_key[node_off[i] : node_off[i + 1]] = lane.static_keys
        elif kind == VECTOR_RANDOM:
            draws = np.asarray(lane.draws, dtype=np.float64)
            if len(draws):
                draw_parts.append(draws)
                total_draws += len(draws)
    draws_flat = (
        np.concatenate(draw_parts)
        if draw_parts
        else np.empty(0, dtype=np.float64)
    )
    host_cores = np.array(
        [lane.platform.host_cores for lane in lanes], dtype=np.int64
    )
    accelerators = np.array(
        [lane.platform.accelerators for lane in lanes], dtype=np.int64
    )
    return _kernels.run_lanes(
        node_off,
        wcet,
        ptr,
        idx,
        in_degree,
        assigned,
        static_key,
        draws_flat,
        draw_off,
        host_cores,
        accelerators,
        kind_codes,
    )
