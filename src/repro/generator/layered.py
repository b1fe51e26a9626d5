"""Layered (Erdős–Rényi style) random DAG generator.

The paper's generator produces nested fork/join (series-parallel) graphs.
Many related works (e.g. the conditional-DAG analyses of reference [12] and
the fixed-priority analysis of reference [18]) additionally evaluate on
*layered* random DAGs, where nodes are organised in layers and edges connect
earlier layers to later layers with a given probability.  This generator is
provided as an ablation: it produces graphs that are *not* series-parallel
(arbitrary fan-in/fan-out across layers), allowing the robustness of the
transformation and of Theorem 1 to be exercised on a structurally different
population.  The generated graphs still satisfy every system-model
assumption: single source, single sink, no transitive edges (a transitive
reduction is applied), acyclicity by construction.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..core.exceptions import GenerationError
from ..core.graph import DirectedAcyclicGraph
from ..core.task import DagTask

__all__ = ["LayeredConfig", "LayeredDagGenerator", "generate_layered_task"]


@dataclass(frozen=True)
class LayeredConfig:
    """Parameters of the layered DAG generator.

    Attributes
    ----------
    n_min, n_max:
        Node-count range of the generated DAG (dummy source/sink included).
    layers_min, layers_max:
        Number of layers the inner nodes are spread over.
    edge_probability:
        Probability of adding an edge between a node and each node of the
        next layer; at least one incoming and one outgoing edge per inner
        node is always guaranteed so the graph stays connected.
    c_min, c_max:
        Uniform integer WCET range.
    """

    n_min: int = 20
    n_max: int = 60
    layers_min: int = 3
    layers_max: int = 8
    edge_probability: float = 0.3
    c_min: int = 1
    c_max: int = 100

    def __post_init__(self) -> None:
        if self.n_min < 3 or self.n_max < self.n_min:
            raise GenerationError(
                f"invalid node-count range [{self.n_min}, {self.n_max}]"
            )
        if self.layers_min < 1 or self.layers_max < self.layers_min:
            raise GenerationError(
                f"invalid layer range [{self.layers_min}, {self.layers_max}]"
            )
        if not 0.0 <= self.edge_probability <= 1.0:
            raise GenerationError("edge_probability must lie in [0, 1]")
        if self.c_min < 0 or self.c_max < self.c_min:
            raise GenerationError(f"invalid WCET range [{self.c_min}, {self.c_max}]")


class LayeredDagGenerator:
    """Generator of layered random DAG tasks."""

    def __init__(
        self,
        config: LayeredConfig = LayeredConfig(),
        rng: np.random.Generator | int | None = None,
    ) -> None:
        self.config = config
        self.rng = np.random.default_rng(rng)

    def generate_structure(self) -> DirectedAcyclicGraph:
        """Generate one layered DAG with a single source and sink."""
        config = self.config
        rng = self.rng
        total = int(rng.integers(config.n_min, config.n_max + 1))
        inner = max(1, total - 2)  # source and sink are added explicitly
        layer_count = int(
            rng.integers(config.layers_min, min(config.layers_max, inner) + 1)
        )

        graph = DirectedAcyclicGraph()
        graph.add_node("source", 0)
        graph.add_node("sink", 0)

        # Distribute the inner nodes over the layers (every layer non-empty).
        assignment = sorted(int(rng.integers(0, layer_count)) for _ in range(inner))
        layers: list[list[str]] = [[] for _ in range(layer_count)]
        for index, layer in enumerate(assignment):
            node_id = f"v{index + 1}"
            graph.add_node(node_id, 0)
            layers[layer].append(node_id)
        layers = [layer for layer in layers if layer]

        # Connect consecutive layers with the configured probability,
        # guaranteeing at least one predecessor and one successor per node.
        previous = ["source"]
        for layer in layers:
            # The nodes of the previous layer given a successor so far: their
            # only successors are in this layer.
            linked: set[str] = set()
            for node in layer:
                predecessors = [
                    candidate
                    for candidate in previous
                    if rng.random() < config.edge_probability
                ]
                if not predecessors:
                    predecessors = [previous[int(rng.integers(0, len(previous)))]]
                for candidate in predecessors:
                    graph.add_edge(candidate, node)
                linked.update(predecessors)
            # Every node of the previous layer needs at least one successor.
            for candidate in previous:
                if candidate not in linked:
                    graph.add_edge(candidate, layer[int(rng.integers(0, len(layer)))])
            previous = layer
        for node in previous:
            graph.add_edge(node, "sink")
        # Inner nodes with no successor (possible when a later layer skipped
        # them) are wired to the sink as well.
        for node in graph.nodes():
            if node != "sink" and not graph.successors(node):
                graph.add_edge(node, "sink")

        graph = graph.transitive_reduction()
        return graph

    def assign_wcets(self, graph: DirectedAcyclicGraph) -> None:
        """Draw a uniform integer WCET in ``[c_min, c_max]`` for inner nodes.

        The dummy source and sink keep a zero WCET, matching the system
        model's treatment of added dummy nodes.
        """
        for node in graph.nodes():
            if node in ("source", "sink"):
                continue
            graph.set_wcet(node, int(self.rng.integers(self.config.c_min, self.config.c_max + 1)))

    def generate_task(self, name: str = "tau") -> DagTask:
        """Generate a complete host-only layered task."""
        graph = self.generate_structure()
        self.assign_wcets(graph)
        return DagTask(graph=graph, offloaded_node=None, name=name)


def generate_layered_task(
    config: LayeredConfig = LayeredConfig(),
    rng: np.random.Generator | int | None = None,
    name: str = "tau",
) -> DagTask:
    """Convenience wrapper: one layered host-only task draw."""
    return LayeredDagGenerator(config, rng).generate_task(name)
