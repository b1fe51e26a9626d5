"""Per-batch kernel step profiles (thread-local, near-zero cost when off).

The engines (the dense event loop, the compiled C step loop and the
workload reference) each run an event/step loop whose shape — how many steps
it took, how many node retirements it processed, how full the lanes were —
is exactly the information a latency trace needs at its leaves and the
`/metrics` endpoint needs to aggregate.  This module is the collection
substrate: an engine calls :func:`record_kernel_batch` once per batch run,
and the call is a no-op (one ``getattr`` on a ``threading.local``) unless
the caller wrapped the run in :func:`collect_kernel_stats` — the same
disarmed-cheapness contract the PR 6 fault points follow.

Semantics of the counters (uniform across engines):

``steps``
    Iterations of the engine's main loop.  For the compiled C kernel that
    is the number of retire windows, summed over lanes (it advances one
    lane at a time).  The dense engine and the workload reference run one
    event loop per call and record one single-lane batch for it; a step is
    an iteration that advances time to the next completion or release.  A
    single job's dense call so takes its retire windows plus one step, its
    release at 0, and a non-empty workload at least one step.
``events``
    Node retirements processed (every node retires exactly once, so for a
    complete run this equals the total node count of the batch).
``lane_steps``
    Sum over steps of the number of active lanes — ``lane_steps / steps``
    is the mean number of lanes each step advanced, and
    ``lane_steps / (steps * lanes)`` the mean lane occupancy in ``[0, 1]``
    (1.0 means no lane idles; the C kernel is per-lane, so its occupancy
    is ``1 / lanes`` by construction and honest about it).  This holds
    when the C kernel splits a call's lanes across threads: each retire
    window still advances one lane, whichever thread runs it, so
    ``lane_steps`` stays the number of windows and ``steps`` and
    ``events`` are the per-thread counts summed.

Collectors are thread-local: the facade wraps each engine call of a batch
in one collector and hands the merged profile to the trace span and the
metrics registry.  The engines always run in the calling process (only the
exact-makespan oracles use worker processes, and they record no kernel
batches), so every engine call of the service path is covered.
"""

from __future__ import annotations

import threading
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Iterator, List, Optional

__all__ = [
    "KernelBatchStats",
    "KernelStatsCollector",
    "collect_kernel_stats",
    "record_kernel_batch",
]

_STATE = threading.local()


@dataclass(frozen=True)
class KernelBatchStats:
    """Step profile of one kernel batch run."""

    engine: str  # "dense" | "compiled" | "workload.reference"
    lanes: int
    steps: int
    events: int
    lane_steps: int

    @property
    def mean_active_lanes(self) -> float:
        """Mean number of lanes advanced per step."""
        return self.lane_steps / self.steps if self.steps else 0.0

    @property
    def occupancy(self) -> float:
        """Mean fraction of lanes active per step, in ``[0, 1]``."""
        if not self.steps or not self.lanes:
            return 0.0
        return self.lane_steps / (self.steps * self.lanes)

    def as_dict(self) -> dict:
        return {
            "engine": self.engine,
            "lanes": self.lanes,
            "steps": self.steps,
            "events": self.events,
            "lane_steps": self.lane_steps,
            "occupancy": self.occupancy,
        }


class KernelStatsCollector:
    """Accumulates the :class:`KernelBatchStats` of one logical operation."""

    def __init__(self) -> None:
        self.batches: List[KernelBatchStats] = []

    def record(self, stats: KernelBatchStats) -> None:
        self.batches.append(stats)

    def merged(self) -> Optional[dict]:
        """One aggregate profile over every recorded batch (None if empty).

        ``occupancy`` is the lane-step-weighted mean across batches —
        equivalently ``sum(lane_steps) / sum(steps * lanes)``.
        """
        if not self.batches:
            return None
        lanes = sum(b.lanes for b in self.batches)
        steps = sum(b.steps for b in self.batches)
        events = sum(b.events for b in self.batches)
        lane_steps = sum(b.lane_steps for b in self.batches)
        capacity = sum(b.steps * b.lanes for b in self.batches)
        return {
            "engines": sorted({b.engine for b in self.batches}),
            "batches": len(self.batches),
            "lanes": lanes,
            "steps": steps,
            "events": events,
            "lane_steps": lane_steps,
            "occupancy": lane_steps / capacity if capacity else 0.0,
        }


def record_kernel_batch(
    engine: str, *, lanes: int, steps: int, events: int, lane_steps: int
) -> None:
    """Record one batch run on the active collector (no-op without one)."""
    collector = getattr(_STATE, "collector", None)
    if collector is not None:
        collector.record(
            KernelBatchStats(
                engine=engine,
                lanes=int(lanes),
                steps=int(steps),
                events=int(events),
                lane_steps=int(lane_steps),
            )
        )


@contextmanager
def collect_kernel_stats() -> Iterator[KernelStatsCollector]:
    """Collect every kernel batch run on this thread inside the block."""
    collector = KernelStatsCollector()
    previous = getattr(_STATE, "collector", None)
    _STATE.collector = collector
    try:
        yield collector
    finally:
        _STATE.collector = previous
