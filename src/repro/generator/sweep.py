"""Parameter sweeps over the offloaded-workload fraction.

Every figure of the paper's evaluation varies the percentage of ``C_off``
over the task volume while keeping the structural distribution fixed, and
generates "100 DAGs for each target value of ``C_off``".  This module
provides that machinery:

* :class:`SweepPoint` -- one (fraction, tasks) pair;
* :func:`offload_fraction_sweep` -- generate a batch of heterogeneous tasks
  for every requested fraction, reusing the same structural draws across
  fractions (paired design) or drawing fresh structures per fraction
  (independent design).

The paired design -- the default -- mirrors how the original experiments
compare quantities "for the same DAG" while sweeping ``C_off``, and it
substantially reduces the sampling noise of the reproduced curves.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np

from ..core.task import DagTask
from ..parallel import spawn_seeds
from .config import GeneratorConfig, OffloadConfig
from .offload import pin_offloaded_fraction, select_offloaded_node
from .random_dag import DagStructureGenerator

__all__ = [
    "SweepPoint",
    "offload_fraction_sweep",
    "chunked_offload_fraction_sweep",
    "default_fraction_grid",
]

#: Base structures per generation chunk of
#: :func:`chunked_offload_fraction_sweep`: chunk boundaries root the spawned
#: generator streams, so changing it changes the drawn ensemble.
CHUNK_SIZE = 8


@dataclass
class SweepPoint:
    """All tasks generated for one target offloaded fraction.

    Attributes
    ----------
    fraction:
        The target value of ``C_off / vol(G)``.
    tasks:
        The heterogeneous tasks generated for this point, each with ``C_off``
        pinned so that its offloaded fraction equals ``fraction`` (up to the
        ``minimum_wcet`` floor for tiny fractions).
    """

    fraction: float
    tasks: list[DagTask] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.tasks)

    def realised_fractions(self) -> list[float]:
        """The actually realised ``C_off / vol`` of every task of the point."""
        return [task.offloaded_fraction() for task in self.tasks]


def default_fraction_grid(
    start: float = 0.01, stop: float = 0.50, points: int = 12
) -> list[float]:
    """A geometric grid of offloaded fractions.

    The paper sweeps ``C_off`` from fractions of a percent up to 50-70 % of
    the volume and its x-axes are logarithmic-ish; a geometric grid captures
    the small-fraction region (where the crossovers happen) with enough
    resolution while keeping the number of points manageable.
    """
    if points < 2:
        return [start]
    grid = np.geomspace(start, stop, points)
    return [float(value) for value in grid]


def offload_fraction_sweep(
    fractions: Sequence[float] | Iterable[float],
    dags_per_point: int,
    generator_config: GeneratorConfig,
    offload_config: OffloadConfig = OffloadConfig(),
    rng: np.random.Generator | int | None = None,
    paired: bool = True,
) -> list[SweepPoint]:
    """Generate heterogeneous tasks for every target offloaded fraction.

    Parameters
    ----------
    fractions:
        Target values of ``C_off / vol(G)``.
    dags_per_point:
        Number of DAG tasks per fraction (the paper uses 100).
    generator_config:
        Structural parameters of the DAG generator.
    offload_config:
        Offloaded-node selection policy (``target_fraction`` is overridden by
        the sweep).
    rng:
        Seed or generator for reproducibility.
    paired:
        When ``True`` (default) the same ``dags_per_point`` structures -- and
        the same ``v_off`` selections -- are reused for every fraction, with
        only ``C_off`` re-pinned.  When ``False`` fresh structures are drawn
        for every fraction.

    Returns
    -------
    list[SweepPoint]
        One entry per requested fraction, in the given order.
    """
    rng = np.random.default_rng(rng)
    fraction_list = [float(value) for value in fractions]
    structure_generator = DagStructureGenerator(generator_config, rng)

    if paired:
        base_tasks = [
            select_offloaded_node(
                structure_generator.generate_task(name=f"tau_{index}"),
                offload_config,
                rng,
            )
            for index in range(dags_per_point)
        ]
        points = []
        for fraction in fraction_list:
            tasks = [
                pin_offloaded_fraction(task, fraction, offload_config.minimum_wcet)
                for task in base_tasks
            ]
            points.append(SweepPoint(fraction=fraction, tasks=tasks))
        return points

    points = []
    for fraction in fraction_list:
        tasks = []
        for index in range(dags_per_point):
            task = structure_generator.generate_task(name=f"tau_{fraction:g}_{index}")
            task = select_offloaded_node(task, offload_config, rng)
            task = pin_offloaded_fraction(task, fraction, offload_config.minimum_wcet)
            tasks.append(task)
        points.append(SweepPoint(fraction=fraction, tasks=tasks))
    return points


def chunked_offload_fraction_sweep(
    fractions: Sequence[float] | Iterable[float],
    dags_per_point: int,
    generator_config: GeneratorConfig,
    offload_config: OffloadConfig = OffloadConfig(),
    root_seed: int = 0,
) -> list[SweepPoint]:
    """Paired offload-fraction sweep with chunk-seeded generation.

    The ``dags_per_point`` base structures are generated in fixed chunks of
    :data:`CHUNK_SIZE` tasks; every chunk draws from its own child seed
    derived via :func:`repro.parallel.spawn_seeds`, so the drawn ensemble
    depends only on ``(root_seed, dags_per_point, configs)``.

    The fraction grid is then applied exactly like the paired design of
    :func:`offload_fraction_sweep`: the same structures and ``v_off``
    selections are reused for every fraction with only ``C_off`` re-pinned.
    """
    fraction_list = [float(value) for value in fractions]
    chunk_counts = [
        min(CHUNK_SIZE, dags_per_point - start)
        for start in range(0, dags_per_point, CHUNK_SIZE)
    ]
    base_tasks = []
    for seed, count in zip(spawn_seeds(root_seed, len(chunk_counts)), chunk_counts):
        rng = np.random.default_rng(seed)
        structure_generator = DagStructureGenerator(generator_config, rng)
        for _ in range(count):
            task = structure_generator.generate_task(name=f"tau_{len(base_tasks)}")
            base_tasks.append(select_offloaded_node(task, offload_config, rng))

    points = []
    for fraction in fraction_list:
        tasks = [
            pin_offloaded_fraction(task, fraction, offload_config.minimum_wcet)
            for task in base_tasks
        ]
        points.append(SweepPoint(fraction=fraction, tasks=tasks))
    return points
