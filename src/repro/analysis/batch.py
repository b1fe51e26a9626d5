"""Batched response-time analysis over task ensembles.

Every evaluation figure of the paper, the schedulability study and the
acceptance-ratio experiments all follow the same pattern: analyse *many*
tasks under *several* host sizes.  Doing that with the single-task helpers
re-runs Algorithm 1 per core count and re-derives every graph metric per
call.  :func:`analyse_many` is the batched entry point that

* transforms each heterogeneous task exactly once (sharing the
  :class:`~repro.core.transformation.TransformedTask` and its memoised
  metrics across all requested core counts), and
* reuses the graph kernel caches for every bound of the same task.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Optional, Sequence, Union

from ..core.exceptions import ServiceRequestTooLargeError, ValidationError, short_repr
from ..core.task import DagTask
from ..core.transformation import TransformedTask, transform
from .heterogeneous import naive_unsafe_response_time
from .heterogeneous import response_time as heterogeneous_response_time
from .homogeneous import check_cores
from .homogeneous import response_time as homogeneous_response_time
from .results import ResponseTimeResult

__all__ = ["MAX_CORE_COUNTS", "TaskAnalysis", "analyse_many", "normalise_cores"]


@dataclass
class TaskAnalysis:
    """All response-time bounds computed for one task of a batch.

    Attributes
    ----------
    task:
        The analysed task.
    transformed:
        The result of Algorithm 1 (``None`` for homogeneous tasks); exposed
        so callers can inspect ``G_par`` or reuse the transformation.
    results:
        ``cores -> method -> result``, with the same method keys as
        :func:`repro.analysis.heterogeneous.analyse` (``"hom"`` always;
        ``"het"`` and ``"naive"`` for heterogeneous tasks).
    """

    task: DagTask
    transformed: Optional[TransformedTask] = None
    results: dict[int, dict[str, ResponseTimeResult]] = field(default_factory=dict)

    def bound(self, cores: int, method: str = "het") -> float:
        """Shortcut for ``results[cores][method].bound``."""
        return self.results[cores][method].bound

    def methods(self) -> list[str]:
        """Method names available for every analysed core count."""
        first = next(iter(self.results.values()), {})
        return list(first)


#: Core counts one batch may ask for.  Each costs every bound of every task
#: and a row of the answer: 20 000 counts took 2.28 s and answered 13 MB for
#: one 6-node task.  The paper's figures ask for four.
MAX_CORE_COUNTS = 256


def normalise_cores(cores: Union[int, Sequence[int]]) -> tuple[int, ...]:
    """The host sizes of a batch: one count, or a non-empty list or tuple of
    at most :data:`MAX_CORE_COUNTS` counts, each checked by
    :func:`~repro.analysis.homogeneous.check_cores`.

    A longer list raises
    :class:`~repro.core.exceptions.ServiceRequestTooLargeError` naming
    ``cores`` (the HTTP transport answers 413), before any count is checked.
    """
    counts = cores if isinstance(cores, (list, tuple)) else [cores]
    if not counts:
        raise ValidationError(
            f"cores must hold at least one core count, got {short_repr(cores)}"
        )
    if len(counts) > MAX_CORE_COUNTS:
        raise ServiceRequestTooLargeError(
            f"cores has {len(counts)} core counts, over the cap of {MAX_CORE_COUNTS} "
            "core counts per request"
        )
    return tuple(check_cores(count) for count in counts)


def _analyse_one(
    task: DagTask, core_counts: tuple[int, ...], include_naive: bool
) -> TaskAnalysis:
    """Analyse one task for every requested core count."""
    transformed = transform(task) if task.is_heterogeneous else None
    analysis = TaskAnalysis(task=task, transformed=transformed)
    for cores in core_counts:
        entry: dict[str, ResponseTimeResult] = {
            "hom": homogeneous_response_time(task, cores)
        }
        if transformed is not None:
            entry["het"] = heterogeneous_response_time(transformed, cores)
            if include_naive:
                entry["naive"] = naive_unsafe_response_time(task, cores)
        analysis.results[cores] = entry
    return analysis


def analyse_many(
    tasks: Iterable[DagTask],
    cores: Union[int, Sequence[int]] = 2,
    include_naive: bool = True,
) -> list[TaskAnalysis]:
    """Analyse a batch of tasks, transforming each one exactly once.

    Parameters
    ----------
    tasks:
        The tasks to analyse (order is preserved in the result).
    cores:
        One host size ``m``, or a list or tuple of them.
    include_naive:
        Also compute the unsafe naive bound of Section 3.2 for heterogeneous
        tasks (matching :func:`repro.analysis.heterogeneous.analyse`).

    Returns
    -------
    list[TaskAnalysis]
        One entry per task, aligned with the input order.
    """
    core_counts = normalise_cores(cores)
    return [_analyse_one(task, core_counts, include_naive) for task in tasks]
