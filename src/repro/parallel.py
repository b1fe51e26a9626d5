"""Deterministic process-based parallelism helpers.

A process pool pays off only where each item is heavy: pickling the inputs
and starting workers costs more than the C kernel, which already runs its
lanes on every CPU, takes for a whole figure sweep.  One caller keeps a
pool: the exact-makespan oracles
(:func:`repro.ilp.batch.minimum_makespans_many`, behind figure 7,
``/makespan`` and ``repro serve --jobs``).  This module provides its small
substrate:

* :func:`parallel_map` -- an order-preserving ``map`` over a
  :class:`~concurrent.futures.ProcessPoolExecutor` that survives worker
  death: a crashed worker breaks the pool, so the pool is respawned and
  only the items whose results were lost are retried.  Falls back to a
  plain serial loop for ``jobs <= 1`` so that callers have a single code
  path;
* :func:`spawn_seeds` -- deterministic per-chunk child seeds derived from a
  root seed via :class:`numpy.random.SeedSequence`, so that splitting work
  into chunks never changes the random draws;
* :func:`resolve_jobs` -- normalisation of the user-facing ``--jobs`` flag
  (``None``/``0``/``1`` mean serial, negative values mean "all cores");
* :func:`available_cpus` -- the CPUs this process may run on, which sizes
  both ``--jobs -1`` and the C kernel's threads.

Determinism contract
--------------------
Workers receive *pickled copies* of their inputs, so a worker can never
mutate shared state.  Every caller draws its random inputs before it
distributes anything and only distributes deterministic evaluation, which
is why ``jobs=N`` produces bit-identical results to ``jobs=1`` -- and why
retrying a lost item after a worker crash is sound: re-evaluating a pure
function of pickled inputs yields the same values the dead worker would
have produced.
"""

from __future__ import annotations

import os
import signal
import threading
from concurrent.futures import BrokenExecutor, ProcessPoolExecutor
from typing import Callable, Iterable, Optional, TypeVar

from .core.exceptions import WorkerCrashError
from .core.task import check_seed
from .resilience import fault_point

__all__ = [
    "available_cpus",
    "parallel_map",
    "resolve_jobs",
    "spawn_seeds",
    "worker_respawn_count",
]

_ItemT = TypeVar("_ItemT")
_ResultT = TypeVar("_ResultT")

#: Fresh pools :func:`parallel_map` starts after worker crashes before it
#: gives up with :class:`~repro.core.exceptions.WorkerCrashError`.
MAX_RESPAWNS = 2

_respawn_lock = threading.Lock()
_respawn_count = 0


def worker_respawn_count() -> int:
    """Process-lifetime count of pool respawns after worker crashes."""
    with _respawn_lock:
        return _respawn_count


def _note_respawn() -> None:
    global _respawn_count
    with _respawn_lock:
        _respawn_count += 1


def available_cpus() -> int:
    """The number of CPUs this process may run on.

    Its CPU affinity mask where the OS has one (``taskset``, cgroup
    cpusets), else :func:`os.cpu_count`; at least 1.
    """
    try:
        return max(1, len(os.sched_getaffinity(0)))
    except (AttributeError, OSError):
        return max(1, os.cpu_count() or 1)


def resolve_jobs(jobs: Optional[int]) -> int:
    """Normalise a ``--jobs`` value to a concrete worker count.

    ``None``, ``0`` and ``1`` mean "serial"; negative values request one
    worker per CPU the process may run on (:func:`available_cpus`);
    positive values are taken literally.
    """
    if jobs is None or jobs == 0 or jobs == 1:
        return 1
    if jobs < 0:
        return available_cpus()
    return jobs


def _start_worker() -> None:
    """Worker initialiser: restore SIGTERM's default action.

    Fork copies the parent's handlers, and ``repro serve`` handles SIGTERM
    (its graceful drain): a worker that kept that handler survived the
    ``terminate()`` a broken pool sends, so the respawn waited for its item.
    """
    signal.signal(signal.SIGTERM, signal.SIG_DFL)


def _apply(fn: Callable[[_ItemT], _ResultT], item: _ItemT) -> _ResultT:
    """Worker entry point: apply ``fn`` to one item."""
    fault_point("parallel.chunk")
    return fn(item)


def parallel_map(
    fn: Callable[[_ItemT], _ResultT],
    items: Iterable[_ItemT],
    jobs: Optional[int] = None,
) -> list[_ResultT]:
    """Apply ``fn`` to every item, preserving order, surviving worker death.

    With ``jobs <= 1`` (or fewer than two items) this is a plain serial loop
    -- no processes, no pickling.  Otherwise each item is submitted as one
    future to a :class:`~concurrent.futures.ProcessPoolExecutor`; ``fn``
    must be a module-level callable and both items and results must be
    picklable.

    When a worker dies (OOM kill, segfault, hard ``os._exit``), the pool
    breaks and every unfinished future fails with
    :class:`~concurrent.futures.BrokenExecutor`.  Completed items are
    keepers; the pool is respawned and only the lost items are retried, up
    to :data:`MAX_RESPAWNS` fresh pools, after which
    :class:`~repro.core.exceptions.WorkerCrashError` is raised.  Exceptions
    raised by ``fn`` itself are *not* crashes and propagate on first
    occurrence, exactly as in the serial path.
    """
    work = list(items)
    workers = resolve_jobs(jobs)
    if workers == 1 or len(work) <= 1:
        return [fn(item) for item in work]

    results: list = [None] * len(work)
    pending = list(range(len(work)))
    respawns = 0
    while pending:
        lost: list[int] = []
        with ProcessPoolExecutor(
            max_workers=min(workers, len(pending)), initializer=_start_worker
        ) as pool:
            futures = {}
            for index in pending:
                try:
                    futures[pool.submit(_apply, fn, work[index])] = index
                except BrokenExecutor:
                    lost.append(index)
            for future, index in futures.items():
                try:
                    results[index] = future.result()
                except BrokenExecutor:
                    lost.append(index)
        if not lost:
            break
        respawns += 1
        if respawns > MAX_RESPAWNS:
            raise WorkerCrashError(
                f"parallel workers kept dying: {len(lost)} item(s) still "
                f"unfinished after {MAX_RESPAWNS} pool respawn(s)"
            )
        _note_respawn()
        pending = sorted(lost)

    return results


def spawn_seeds(root_seed: int, count: int) -> list[int]:
    """Derive ``count`` independent child seeds from ``root_seed``.

    Uses :meth:`numpy.random.SeedSequence.spawn`, the canonical way to split
    one reproducible stream into statistically independent sub-streams: the
    result depends only on ``(root_seed, count)``, never on scheduling order,
    so chunked parallel generation stays reproducible.  ``root_seed`` must
    be an integer >= 0, not a boolean (:func:`~repro.core.task.check_seed`).
    """
    from numpy.random import SeedSequence

    root_seed = check_seed("root_seed", root_seed)
    if count < 0:
        raise ValueError(f"count must be >= 0, got {count}")
    return [
        int(child.generate_state(1, dtype="uint64")[0])
        for child in SeedSequence(root_seed).spawn(count)
    ]
