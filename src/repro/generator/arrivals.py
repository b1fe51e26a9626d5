"""Seeded arrival processes for online multi-instance workloads.

A :class:`JobStream <repro.simulation.workload.JobStream>` couples one DAG
task with an *arrival process* describing when new job instances of that
task are released.  Three models cover the standard real-time taxonomy:

* :class:`PeriodicArrivals` -- strictly periodic releases ``offset + k * T``,
  optionally perturbed by a per-release uniform jitter in ``[0, jitter)``;
* :class:`SporadicArrivals` -- consecutive releases separated by a uniform
  random gap in ``[min_gap, max_gap)`` (``min_gap`` is the classical minimum
  inter-arrival time of the sporadic task model);
* :class:`TraceArrivals` -- an explicit, replayable release-time list
  (measured traces, hand-built edge cases).

Draw-identity contract
----------------------
Random processes are **stateless**: every call to :meth:`release_times`
regenerates the same values from the stored seed, which is what makes
workload requests fingerprintable and cacheable by the service layer.
Generation is *chunked* exactly like the library's task generator: draw
``k`` of chunk ``c`` always comes from chunk ``c``'s child seed, the
``c``-th child ``SeedSequence(seed, spawn_key=(c,))`` that
``spawn_seeds(seed, c + 1)[c]`` also yields, built in O(1) without its
siblings.  No draw comes from a sequential stream, so growing the horizon
never changes a release already drawn, and the test-suite asserts it.
"""

from __future__ import annotations

import bisect
import dataclasses
import math
from dataclasses import dataclass
from typing import Sequence, Union

import numpy as np

from ..core.exceptions import ValidationError, short_repr
from ..core.task import check_number, check_seed
from ..io.json_io import REQUIRED, read_fields

__all__ = [
    "ArrivalProcess",
    "PeriodicArrivals",
    "SporadicArrivals",
    "TraceArrivals",
    "ARRIVAL_SPECS",
    "arrival_from_dict",
    "arrival_to_dict",
]

#: Releases generated per child seed.  Small enough that quick workloads
#: exercise several chunks (so the draw-identity contract is really tested),
#: large enough that chunking overhead is invisible.
ARRIVAL_CHUNK = 64


def _draw_chunk(seed: int, chunk: int, count: int) -> np.ndarray:
    """``count`` uniform draws of chunk ``chunk``, from its child seed."""
    child = np.random.SeedSequence(seed, spawn_key=(chunk,))
    return np.random.default_rng(
        int(child.generate_state(1, dtype="uint64")[0])
    ).random(count)


def _chunked_uniform(seed: int, count: int) -> np.ndarray:
    """``count`` uniform [0, 1) draws, chunk ``c`` from child seed ``c``.

    The value of draw ``k`` depends only on ``(seed, k)``, not on ``count``:
    children of a :class:`~numpy.random.SeedSequence` are independent of how
    many siblings are spawned.
    """
    if count <= 0:
        return np.empty(0, dtype=np.float64)
    n_chunks = math.ceil(count / ARRIVAL_CHUNK)
    sizes = [
        min(ARRIVAL_CHUNK, count - chunk * ARRIVAL_CHUNK)
        for chunk in range(n_chunks)
    ]
    chunks = [_draw_chunk(seed, chunk, size) for chunk, size in enumerate(sizes)]
    return np.concatenate(chunks) if len(chunks) > 1 else chunks[0]


class ArrivalProcess:
    """Base protocol of an arrival process (see module docstring)."""

    kind: str = "arrivals"

    def release_times(self, horizon: float) -> np.ndarray:
        """Sorted float64 release times in ``[0, horizon)``."""
        raise NotImplementedError

    def max_releases(self, horizon: float) -> float:
        """Upper bound on the releases in ``[0, horizon)``, without drawing
        them: a float, ``inf`` where the count overflows."""
        raise NotImplementedError

    def to_dict(self) -> dict:
        """Canonical JSON-style spec (wire format and fingerprint input)."""
        raise NotImplementedError


def _steps_before(horizon: float, offset: float, step: float) -> float:
    """``ceil((horizon - offset) / step)`` in floats (``inf`` on overflow);
    0 when ``offset`` is not before ``horizon``."""
    span = check_number("horizon", horizon) - offset
    if span <= 0:
        return 0.0
    steps = span / step
    return float(math.ceil(steps)) if math.isfinite(steps) else math.inf


@dataclass(frozen=True)
class PeriodicArrivals(ArrivalProcess):
    """Releases at ``offset + k * period (+ jitter_k)`` for ``k = 0, 1, ...``.

    ``jitter_k`` is uniform in ``[0, jitter)``, drawn per release from the
    stored seed; ``jitter=0`` (the default) is the strictly periodic model
    and consumes no randomness.  Releases pushed past the horizon by their
    jitter are dropped, mirroring the "release after horizon" rule of
    :func:`repro.simulation.workload.build_workload`.
    """

    period: float
    offset: float = 0.0
    jitter: float = 0.0
    seed: int = 0

    kind = "periodic"

    def __post_init__(self) -> None:
        check_number("period", self.period, strict=True)
        check_number("offset", self.offset)
        check_number("jitter", self.jitter)
        check_seed("seed", self.seed)

    def max_releases(self, horizon: float) -> float:
        return _steps_before(horizon, self.offset, self.period)

    def release_times(self, horizon: float) -> np.ndarray:
        horizon = check_number("horizon", horizon)
        count = int(self.max_releases(horizon))
        base = self.offset + np.arange(count, dtype=np.float64) * self.period
        base = base[base < horizon]
        if self.jitter > 0 and base.size:
            base = base + self.jitter * _chunked_uniform(self.seed, base.size)
            base = np.sort(base[base < horizon])
        return base

    def to_dict(self) -> dict:
        return {
            "kind": self.kind,
            "period": float(self.period),
            "offset": float(self.offset),
            "jitter": float(self.jitter),
            "seed": int(self.seed),
        }


@dataclass(frozen=True)
class SporadicArrivals(ArrivalProcess):
    """Releases separated by uniform random gaps in ``[min_gap, max_gap)``.

    The first release happens at ``offset + gap_0``: a sporadic source that
    has *just* released (at the origin) and then honours its minimum
    inter-arrival time.  ``min_gap`` must be positive so any horizon is
    covered by finitely many draws.
    """

    min_gap: float
    max_gap: float
    offset: float = 0.0
    seed: int = 0

    kind = "sporadic"

    def __post_init__(self) -> None:
        min_gap = check_number("min_gap", self.min_gap, strict=True)
        check_number("max_gap", self.max_gap, min_gap)
        check_number("offset", self.offset)
        check_seed("seed", self.seed)

    def max_releases(self, horizon: float) -> float:
        return _steps_before(horizon, self.offset, self.min_gap)

    def release_times(self, horizon: float) -> np.ndarray:
        # Upper-bound the number of gaps that can fit before the horizon and
        # draw them all at once: gap k always comes from chunk k // CHUNK, so
        # the (deliberately generous) count never changes any draw.
        count = int(self.max_releases(horizon))
        draws = _chunked_uniform(self.seed, count)
        gaps = self.min_gap + (self.max_gap - self.min_gap) * draws
        releases = self.offset + np.cumsum(gaps)
        return releases[releases < horizon]

    def to_dict(self) -> dict:
        return {
            "kind": self.kind,
            "min_gap": float(self.min_gap),
            "max_gap": float(self.max_gap),
            "offset": float(self.offset),
            "seed": int(self.seed),
        }


@dataclass(frozen=True)
class TraceArrivals(ArrivalProcess):
    """An explicit release-time trace, replayed verbatim (then sorted)."""

    times: tuple = ()

    kind = "trace"

    def __init__(self, times: Union[Sequence[float], np.ndarray] = ()) -> None:
        if not isinstance(times, (list, tuple, np.ndarray)):
            raise ValidationError(
                f"times must be an array of release times, got {short_repr(times)}"
            )
        values = sorted(
            check_number(f"times[{index}]", value) for index, value in enumerate(times)
        )
        object.__setattr__(self, "times", tuple(values))

    def max_releases(self, horizon: float) -> float:
        return float(bisect.bisect_left(self.times, check_number("horizon", horizon)))

    def release_times(self, horizon: float) -> np.ndarray:
        count = int(self.max_releases(horizon))
        return np.asarray(self.times[:count], dtype=np.float64)

    def to_dict(self) -> dict:
        return {"kind": self.kind, "times": [float(value) for value in self.times]}


_ARRIVAL_KINDS: dict[str, type] = {
    cls.kind: cls for cls in (PeriodicArrivals, SporadicArrivals, TraceArrivals)
}

#: Each arrival kind's spec: field -> default, or ``REQUIRED`` (read by
#: :func:`~repro.io.json_io.read_fields`).  The fields are ``kind`` and the
#: kind's dataclass fields, whose domains the dataclass checks.
ARRIVAL_SPECS: dict[str, dict[str, object]] = {
    kind: {
        "kind": REQUIRED,
        **{
            spec.name: REQUIRED if spec.default is dataclasses.MISSING else spec.default
            for spec in dataclasses.fields(cls)
        },
    }
    for kind, cls in _ARRIVAL_KINDS.items()
}


def arrival_to_dict(process: ArrivalProcess) -> dict:
    """Canonical dict spec of ``process`` (inverse of :func:`arrival_from_dict`)."""
    return process.to_dict()


def arrival_from_dict(document: dict) -> ArrivalProcess:
    """Rebuild an arrival process from its canonical dict spec, read through
    its kind's table in :data:`ARRIVAL_SPECS`."""
    if not isinstance(document, dict):
        raise ValidationError(f"arrivals must be a JSON object, got {short_repr(document)}")
    kind = document.get("kind")
    if not isinstance(kind, str) or kind not in ARRIVAL_SPECS:
        valid = ", ".join(ARRIVAL_SPECS)
        raise ValidationError(
            f"unknown arrival kind {short_repr(kind)}; valid kinds: {valid}"
        )
    spec = read_fields(ARRIVAL_SPECS[kind], document, f"a {kind!r} arrival spec")
    del spec["kind"]
    return _ARRIVAL_KINDS[kind](**spec)
