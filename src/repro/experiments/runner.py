"""Unified experiment runner: one entry point per paper artefact.

:func:`run_experiment` dispatches an experiment name (``figure6`` ...
``figure9``, ``worked-example``, the ablations) to its driver and returns the
:class:`~repro.experiments.base.ExperimentResult`; :func:`run_all` runs every
experiment of the paper.  The CLI (:mod:`repro.cli`) and the benchmark
harness are thin wrappers around these functions.

Parallel execution
------------------
A driver that takes a ``jobs`` argument (surfaced here and as the CLI's
``--jobs`` flag) spreads items heavy enough to pay for a process over a
:func:`~repro.parallel.parallel_map` pool: figure 7's exact-makespan oracles
(:func:`parallel_experiments`).  The other drivers run in process, where
the C kernel already runs its lanes on every CPU.  Random inputs are
drawn before any work is distributed, so ``jobs=N`` produces
bit-identical results to the serial path -- the test-suite asserts this
with :meth:`~repro.experiments.base.ExperimentResult.identical_to`.
"""

from __future__ import annotations

import inspect
from typing import Callable, Optional

from .ablations import run_ilp_ablation, run_scheduler_ablation
from .base import ExperimentResult
from .config import ExperimentScale, paper_scale, quick_scale
from .figure6 import run_figure6
from .figure7 import run_figure7
from .figure8 import run_figure8
from .figure9 import run_figure9
from .worked_example import run_worked_example
from .workload import run_workload_schedulability

__all__ = [
    "EXPERIMENTS",
    "run_experiment",
    "run_all",
    "available_experiments",
    "parallel_experiments",
]

#: Mapping of experiment names to their driver functions.
EXPERIMENTS: dict[str, Callable[..., ExperimentResult]] = {
    "worked-example": lambda scale=None: run_worked_example(),
    "figure6": run_figure6,
    "figure7": run_figure7,
    "figure8": run_figure8,
    "figure9": run_figure9,
    "ablation-scheduler": run_scheduler_ablation,
    "ablation-ilp": run_ilp_ablation,
    "workload-schedulability": run_workload_schedulability,
}


def available_experiments() -> list[str]:
    """Names accepted by :func:`run_experiment`, in canonical order."""
    return list(EXPERIMENTS)


def parallel_experiments() -> list[str]:
    """Names whose drivers take ``jobs``, in canonical order."""
    return [
        name
        for name, driver in EXPERIMENTS.items()
        if "jobs" in inspect.signature(driver).parameters
    ]


def run_experiment(
    name: str,
    scale: Optional[ExperimentScale] = None,
    jobs: Optional[int] = None,
) -> ExperimentResult:
    """Run one experiment by name.

    Parameters
    ----------
    name:
        One of :func:`available_experiments`.
    scale:
        Sampling effort; ``None`` uses the quick (seconds-scale) preset.
    jobs:
        Worker-process count (``None``/``1`` = serial; negative = all CPUs),
        forwarded only to the drivers of :func:`parallel_experiments`;
        results never depend on it.
    """
    try:
        driver = EXPERIMENTS[name]
    except KeyError:
        valid = ", ".join(available_experiments())
        raise KeyError(f"unknown experiment {name!r}; valid names: {valid}") from None
    if name in parallel_experiments():
        return driver(scale=scale, jobs=jobs)
    return driver(scale=scale)


def run_all(
    scale: Optional[ExperimentScale] = None,
    names: Optional[list[str]] = None,
    jobs: Optional[int] = None,
) -> dict[str, ExperimentResult]:
    """Run every requested experiment and return the results by name.

    Parameters
    ----------
    scale:
        Sampling effort shared by all experiments.
    names:
        Subset of :func:`available_experiments`; ``None`` runs everything.
    jobs:
        Worker-process count forwarded to each driver that takes it; the
        results are bit-identical to ``jobs=None``.
    """
    selected = names if names is not None else available_experiments()
    return {name: run_experiment(name, scale, jobs=jobs) for name in selected}
