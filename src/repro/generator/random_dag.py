"""Random DAG structure generation by recursive fork/join expansion.

Section 5.1 of the paper: "Random DAG tasks are generated by recursively
expanding nodes either to terminal nodes or parallel sub-DAGs, until a
maximum recursion depth ``maxdepth`` is reached.  ``maxdepth`` also
determines the longest possible path of the DAG.  The probabilities of
generating a parallel sub-DAG or a terminal node are ``p_par`` and
``1 - p_par`` respectively.  Moreover, the maximum number of branches for any
parallel sub-DAG is ``n_par`` and the minimum and maximum number of nodes of
each DAG are ``n_min`` and ``n_max``."

This is the classical nested fork/join generator introduced by Melani et al.
(ECRTS 2015, reference [12] of the paper) and reused in reference [18].  The
resulting graphs are series-parallel: every parallel sub-DAG consists of a
fork node, 2..n_par recursively-expanded branches, and a join node.  Such
graphs have a single source, a single sink and -- by construction -- no
transitive edges, so they satisfy every assumption of the system model.

WCETs are drawn uniformly from ``[c_min, c_max]``, all of a task's in one
call; the offloaded node is selected and sized separately by
:mod:`repro.generator.offload` because the experiments sweep ``C_off`` while
keeping the structure distribution fixed.

A draw records its edges as index pairs in creation order, and the accepted
draw becomes a graph born as its dense kernel (node ``i`` is named
``v{i + 1}``).  At paper scale about four of every five draws are rejected,
so the rejection loop runs in the compiled kernel where it can: it replays
numpy's PCG64 draws exactly, and the numpy expansion below is its fallback
and its test oracle.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from ..core.exceptions import GenerationError
from ..core.graph import DirectedAcyclicGraph
from ..core.task import DagTask
from .config import GeneratorConfig

__all__ = ["DagStructureGenerator", "generate_graph", "generate_host_task"]


@dataclass
class _Draw:
    """One recursive expansion: its node count, and its edges as index
    pairs in creation order (node ``i`` is the ``i + 1``-th node created).

    A draw whose node count falls outside ``[n_min, n_max]`` is thrown away,
    so only the accepted draw is turned into a graph (:meth:`graph`).
    """

    nodes: int = 0
    edges: list[tuple[int, int]] = field(default_factory=list)

    def new_node(self) -> int:
        self.nodes += 1
        return self.nodes - 1

    def graph(self, wcets: Optional[list[int]] = None) -> DirectedAcyclicGraph:
        """The drawn structure, born as its dense kernel: nodes ``v1..vN``
        in creation order, weighing ``wcets`` (zero by default)."""
        return DirectedAcyclicGraph._from_indices(
            [f"v{number}" for number in range(1, self.nodes + 1)],
            [0] * self.nodes if wcets is None else wcets,
            self.edges,
        )


class DagStructureGenerator:
    """Generator of random series-parallel DAG structures.

    Parameters
    ----------
    config:
        The structural parameters (see :class:`GeneratorConfig`).
    rng:
        A :class:`numpy.random.Generator` or an integer seed.  Every draw of
        the generator goes through this RNG, so runs are fully reproducible.

    Examples
    --------
    >>> generator = DagStructureGenerator(GeneratorConfig(n_min=10, n_max=50), rng=0)
    >>> graph = generator.generate_structure()
    >>> 10 <= graph.node_count <= 50
    True
    """

    def __init__(
        self,
        config: GeneratorConfig,
        rng: np.random.Generator | int | None = None,
    ) -> None:
        self.config = config
        self.rng = np.random.default_rng(rng)

    # ------------------------------------------------------------------
    # Structure generation
    # ------------------------------------------------------------------
    def generate_structure(self) -> DirectedAcyclicGraph:
        """Generate one DAG whose node count lies in ``[n_min, n_max]``.

        WCETs of the returned graph are all zero; use
        :meth:`assign_wcets` (or :func:`generate_host_task`) to draw them.

        Raises
        ------
        GenerationError
            If ``max_attempts`` consecutive draws fall outside the node-count
            range, which indicates inconsistent configuration parameters.
        """
        return self._draw().graph()

    def _draw(self) -> _Draw:
        """The first draw whose node count lies in ``[n_min, n_max]``.

        The compiled kernel replays the rejection loop from a PCG64
        generator (:func:`~repro.simulation._kernels.draw_structure`); any
        other bit generator, or a host without the kernel, draws with numpy
        (:meth:`_numpy_draw`).  Both draw the same numbers, and leave the
        generator in the same state, accepted or not.
        """
        from ..simulation._kernels import draw_structure

        config = self.config
        replayed = draw_structure(self.rng.bit_generator, config)
        draw = self._numpy_draw() if replayed is None else _Draw(*replayed)
        if not draw.nodes:
            raise GenerationError(
                f"could not generate a DAG with {config.n_min}..{config.n_max} nodes "
                f"after {config.max_attempts} attempts; "
                "check p_par / n_par / max_depth consistency"
            )
        return draw

    def _numpy_draw(self) -> _Draw:
        """The rejection loop with numpy's scalar draws: the first accepted
        draw, or an empty one when all ``max_attempts`` are rejected."""
        config = self.config
        for _ in range(config.max_attempts):
            draw = _Draw()
            self._expand(draw, depth=0, force_parallel=config.force_root_expansion)
            if config.n_min <= draw.nodes <= config.n_max:
                return draw
        return _Draw()

    def _expand(
        self, draw: _Draw, depth: int, force_parallel: bool = False
    ) -> tuple[int, int]:
        """Recursively expand one node; return its (entry, exit) pair."""
        config = self.config
        expand_parallel = force_parallel or (
            depth < config.max_depth and self.rng.random() < config.p_par
        )
        if depth >= config.max_depth:
            expand_parallel = False
        if not expand_parallel:
            node = draw.new_node()
            return node, node
        fork = draw.new_node()
        join = draw.new_node()
        branch_count = int(self.rng.integers(2, config.n_par + 1))
        for _ in range(branch_count):
            entry, exit_ = self._expand(draw, depth + 1)
            draw.edges.append((fork, entry))
            draw.edges.append((exit_, join))
        return fork, join

    # ------------------------------------------------------------------
    # WCET assignment
    # ------------------------------------------------------------------
    def _wcets(self, count: int) -> list[int]:
        """Uniform integer WCETs in ``[c_min, c_max]`` for ``count`` nodes.

        One draw of ``count`` values: numpy's bounded integers come from the
        same generator output whether drawn one by one or together, so this
        gives the values, and leaves the RNG in the state, of one scalar
        draw per node.
        """
        config = self.config
        return self.rng.integers(config.c_min, config.c_max + 1, size=count).tolist()

    def assign_wcets(self, graph: DirectedAcyclicGraph) -> None:
        """Draw a uniform integer WCET in ``[c_min, c_max]`` for every node."""
        for node, wcet in zip(graph.nodes(), self._wcets(len(graph))):
            graph.set_wcet(node, wcet)

    def generate_task(self, name: str = "tau") -> DagTask:
        """Generate a complete *host-only* task (no offloaded node yet): a
        structure, then its WCETs in node order."""
        draw = self._draw()
        return DagTask(graph=draw.graph(self._wcets(draw.nodes)), offloaded_node=None, name=name)

    def generate_many(self, count: int, prefix: str = "tau") -> list[DagTask]:
        """Generate ``count`` independent host-only tasks."""
        return [self.generate_task(name=f"{prefix}_{index}") for index in range(count)]


def generate_graph(
    config: GeneratorConfig, rng: np.random.Generator | int | None = None
) -> DirectedAcyclicGraph:
    """Convenience wrapper: one structure draw with WCETs assigned."""
    return DagStructureGenerator(config, rng).generate_task().graph


def generate_host_task(
    config: GeneratorConfig,
    rng: np.random.Generator | int | None = None,
    name: str = "tau",
) -> DagTask:
    """Convenience wrapper: one host-only task draw."""
    return DagStructureGenerator(config, rng).generate_task(name)
