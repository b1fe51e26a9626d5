"""Batched simulation over task x platform x policy grids.

The figure 6 sweep (and the scheduler ablation built on it) evaluates the
same tasks on every host size and for both task variants (original and
transformed).  :func:`simulate_many` is the batch entry point that

* resolves the engine and normalises the platforms once per call;
* compiles each task **once** (:func:`repro.core.compiled.compile_task`) and
  reuses the compiled view across every ``(platform, policy)`` cell -- one
  compile serves all ``m`` values and both variants of a sweep point;
* runs every policy column with a priority family through the **compiled C
  kernel** (:func:`~repro.simulation.vectorized_compiled.run_column`): all
  cells of a column are lanes of one native call, which is what makes the
  paper-scale figure 6 sweep (100 DAGs x 15 fractions x 4 host sizes x 2
  variants) a few kernel calls instead of thousands of Python event loops;
* serves everything else with the trace-free dense engine
  (:func:`~repro.simulation.dense.simulate_makespan_dense`): custom or
  subclassed policies without a family, every cell on a host where the
  kernel cannot be built, and every cell under ``engine="dense"`` (the
  benchmark baseline);
* splits the tasks into chunks of :data:`CHUNK_SIZE` that seed the
  stochastic policies: every chunk receives its own policy instances via
  :meth:`~repro.simulation.schedulers.SchedulingPolicy.spawned` with
  :func:`repro.parallel.spawn_seeds`-derived child seeds (a plain copy for
  deterministic policies, an independently seeded stream for
  ``RandomPolicy``), so the draws depend only on ``(tasks, root_seed)``.

Engine-equivalence contract
---------------------------
Every path produces bit-identical makespans: the C kernel and the dense
engine both reproduce ``simulate(...).makespan()`` exactly (enforced by
``tests/test_vectorized_engine.py`` / ``tests/test_dense_engine.py``), and
the kernel's per-lane results do not depend on how cells are grouped into
calls -- which is why a deterministic policy's whole column may be one call
while ``RandomPolicy`` runs chunk by chunk.  ``RandomPolicy`` draws are
consumed per chunk in ``(task, platform)`` cell order on every engine, so
the chunk-seeded streams match the dense path draw for draw.
"""

from __future__ import annotations

from typing import Sequence, Union

import numpy as np

from ..core.compiled import compile_task
from ..core.task import DagTask
from ..parallel import spawn_seeds
from .engine import _as_platform
from .platform import Platform
from .schedulers import (
    VECTOR_RANDOM,
    BreadthFirstPolicy,
    SchedulingPolicy,
    policy_vector_kind,
)
from .vectorized_compiled import resolve_engine, run_column

__all__ = ["simulate_many", "resolve_engine"]

#: Tasks per policy-seeding chunk: chunk boundaries root the spawned
#: ``RandomPolicy`` streams, so changing it changes the draws.
CHUNK_SIZE = 16


def _dense_column(entries, platforms, policy, offload_enabled) -> np.ndarray:
    """One policy column via the dense engine, cells in (task, platform) order."""
    from .dense import simulate_makespan_dense

    out = np.empty((len(entries), len(platforms)), dtype=np.float64)
    for t, (task, compiled) in enumerate(entries):
        for p, platform in enumerate(platforms):
            out[t, p] = simulate_makespan_dense(
                task, platform, policy, offload_enabled, compiled=compiled
            )
    return out


def simulate_many(
    tasks: Sequence[DagTask],
    platforms: Union[Platform, int, Sequence[Union[Platform, int]]],
    policies: Union[SchedulingPolicy, Sequence[SchedulingPolicy], None] = None,
    *,
    offload_enabled: bool = True,
    root_seed: int = 0,
    engine: str = "auto",
):
    """Simulate every task on every platform under every policy.

    Parameters
    ----------
    tasks:
        The DAG tasks to simulate.  Each is compiled once; the compiled view
        is reused for every ``(platform, policy)`` cell.
    platforms:
        One platform -- or a sequence of platforms -- as :class:`Platform`
        objects or integer host-core counts (``int`` or numpy integer; one
        accelerator assumed).
    policies:
        One policy or a sequence; defaults to the GOMP-style
        :class:`~repro.simulation.schedulers.BreadthFirstPolicy`.  Policies
        are never used directly: every chunk of :data:`CHUNK_SIZE` tasks
        simulates with its own ``policy.spawned(child_seed)`` instances,
        the child seeds derived from ``root_seed`` via
        :func:`repro.parallel.spawn_seeds` (one per ``(chunk, policy)``
        pair), so stochastic policies draw independent per-chunk streams.
    offload_enabled:
        Forwarded to the engine (``False`` models a homogeneous execution).
    root_seed:
        Root of the spawned per-chunk policy seeds.
    engine:
        ``"auto"`` (default): the C kernel for vectorisable policies when
        it can be built on this host, the dense engine otherwise (see
        :func:`resolve_engine`).  ``"compiled"``: the C kernel, raising
        :class:`RuntimeError` when it is unavailable.  ``"dense"``: the
        dense per-cell engine everywhere (the benchmark baseline).  Custom
        policies always take the dense engine.  All engines are
        bit-identical.

    Returns
    -------
    numpy.ndarray
        ``float64`` makespans of shape ``(len(tasks), len(platforms),
        len(policies))``, indexed ``[task, platform, policy]``.  A cell's
        schedule comes from :func:`~repro.simulation.engine.simulate`.
    """
    engine = resolve_engine(engine)
    task_list = list(tasks)
    if isinstance(platforms, (Platform, int, np.integer)):
        platforms = [platforms]
    platform_list = [_as_platform(platform) for platform in platforms]
    if policies is None:
        policies = [BreadthFirstPolicy()]
    elif isinstance(policies, SchedulingPolicy):
        policies = [policies]
    policy_list = list(policies)
    if not platform_list:
        raise ValueError("simulate_many needs at least one platform")
    if not policy_list:
        raise ValueError("simulate_many needs at least one policy")

    starts = range(0, len(task_list), CHUNK_SIZE)
    seeds = spawn_seeds(root_seed, len(starts) * len(policy_list))
    shape = (len(task_list), len(platform_list), len(policy_list))
    if not task_list:
        return np.empty(shape, dtype=np.float64)

    # One compile per task; cached on the graph, shared across every cell.
    entries = [(task, compile_task(task)) for task in task_list]
    # Deterministic policies behave identically through any spawned copy,
    # so one instance serves a whole column in one kernel call;
    # RandomPolicy keeps the chunked per-instance streams of the
    # determinism contract, so its column runs chunk by chunk (matching
    # the dense path draw for draw).  Custom policies take the dense
    # per-cell fallback.
    out = np.empty(shape, dtype=np.float64)
    for q, policy in enumerate(policy_list):
        kind = policy_vector_kind(policy) if engine == "compiled" else None
        if kind is not None and kind != VECTOR_RANDOM:
            out[:, :, q] = run_column(
                entries, platform_list, policy.spawned(seeds[q]), offload_enabled
            )
            continue
        column = _dense_column if kind is None else run_column
        for c, start in enumerate(starts):
            chunk = entries[start : start + CHUNK_SIZE]
            spawned = policy.spawned(seeds[c * len(policy_list) + q])
            out[start : start + len(chunk), :, q] = column(
                chunk, platform_list, spawned, offload_enabled
            )
    return out
