"""The compiled replay of the structure generator's draws, held to numpy.

:meth:`DagStructureGenerator._draw` runs the rejection loop in the compiled
kernel from a PCG64 generator (:func:`repro.simulation._kernels.draw_structure`)
and with numpy's scalar draws otherwise (:meth:`_numpy_draw`).  Here twin
generators, one per path, must agree on everything a draw leaves behind:
the node count and the edges of the accepted draw (or the same
``GenerationError``), the full bit-generator state, and the vector and
scalar draws that follow.  The cases include ``n_par = 2`` (no branch
draw), ``max_depth`` 0 and 1, no forced root expansion, a buffered 32-bit
half pending at the start, ``max_attempts`` running out, and accepted
draws too large for the first edge buffer.
"""

from __future__ import annotations

import dataclasses
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.exceptions import GenerationError
from repro.generator.config import GeneratorConfig
from repro.generator.presets import LARGE_TASKS_FIG6, SMALL_TASKS
from repro.generator.random_dag import DagStructureGenerator
from repro.simulation._kernels import compiled_available, draw_structure

needs_kernel = pytest.mark.skipif(
    not compiled_available(), reason="compiled kernel unavailable (REPRO_COMPILED=0 or no cc)"
)


def _twins(seed: int, pending: bool) -> tuple[np.random.Generator, np.random.Generator]:
    """Two generators in one state; with ``pending``, a 32-bit half is buffered."""
    twins = np.random.default_rng(seed), np.random.default_rng(seed)
    for rng in twins:
        if pending:
            rng.integers(0, 7)
            assert rng.bit_generator.state["has_uint32"] == 1
    return twins


def _assert_replay_matches_numpy(config, seed: int, pending: bool, draws: int = 3) -> None:
    replayed_rng, numpy_rng = _twins(seed, pending)
    replayed = DagStructureGenerator(config, replayed_rng)
    oracle = DagStructureGenerator(config, numpy_rng)
    for _ in range(draws):
        expected = oracle._numpy_draw()
        if expected.nodes:
            draw = replayed._draw()
            assert draw.nodes == expected.nodes
            assert draw.edges == expected.edges
        else:
            with pytest.raises(GenerationError, match="could not generate a DAG"):
                replayed._draw()
        assert replayed_rng.bit_generator.state == numpy_rng.bit_generator.state
    assert replayed_rng.integers(0, 1000, size=9).tolist() == numpy_rng.integers(
        0, 1000, size=9
    ).tolist()
    assert replayed_rng.random() == numpy_rng.random()
    assert replayed_rng.integers(2, 9) == numpy_rng.integers(2, 9)
    assert replayed_rng.bit_generator.state == numpy_rng.bit_generator.state


_CONFIGS = st.builds(
    GeneratorConfig,
    p_par=st.floats(0.0, 0.65),
    n_par=st.integers(2, 8),
    max_depth=st.integers(1, 5),
    n_min=st.integers(1, 40),
    n_max=st.integers(40, 160),
    force_root_expansion=st.booleans(),
    max_attempts=st.integers(1, 30),
)


@needs_kernel
@settings(max_examples=100, deadline=None)
@given(config=_CONFIGS, seed=st.integers(0, 2**32 - 1), pending=st.booleans())
@example(config=LARGE_TASKS_FIG6, seed=2018, pending=False)
@example(config=SMALL_TASKS, seed=7, pending=True)
@example(config=GeneratorConfig(n_par=2, n_min=3, n_max=60), seed=1, pending=True)
@example(config=GeneratorConfig(max_depth=1, n_min=1, n_max=10), seed=2, pending=False)
@example(
    config=GeneratorConfig(force_root_expansion=False, max_depth=3, n_min=1, n_max=80),
    seed=3,
    pending=True,
)
@example(
    config=GeneratorConfig(n_min=10_000, n_max=20_000, max_attempts=5), seed=4, pending=True
)
@example(  # accepted draws of over 1 024 edges: the kernel is run twice
    config=GeneratorConfig(p_par=0.9, n_par=6, n_min=600, n_max=5_000), seed=6, pending=False
)
def test_replay_matches_the_numpy_path(config, seed, pending):
    _assert_replay_matches_numpy(config, seed, pending)


@needs_kernel
@pytest.mark.parametrize("force_root_expansion", [True, False])
def test_max_depth_zero_matches_the_numpy_path(force_root_expansion):
    """The config class refuses ``max_depth = 0``; both paths still define
    it (every draw is one node, no draw is made)."""
    fields = dataclasses.asdict(GeneratorConfig(n_min=1, n_max=5))
    config = SimpleNamespace(
        **{**fields, "max_depth": 0, "force_root_expansion": force_root_expansion}
    )
    _assert_replay_matches_numpy(config, seed=11, pending=True)


@needs_kernel
def test_exhaustion_raises_after_consuming_every_attempt():
    config = GeneratorConfig(n_min=5_000, n_max=6_000, max_attempts=7)
    replayed_rng, numpy_rng = _twins(5, pending=False)
    with pytest.raises(GenerationError, match="after 7 attempts"):
        DagStructureGenerator(config, replayed_rng).generate_structure()
    assert not DagStructureGenerator(config, numpy_rng)._numpy_draw().nodes
    assert replayed_rng.bit_generator.state == numpy_rng.bit_generator.state


@needs_kernel
def test_generated_tasks_match_the_numpy_path(monkeypatch):
    """Whole tasks, WCETs included, from the replay and from numpy."""
    replayed = DagStructureGenerator(LARGE_TASKS_FIG6, 42).generate_many(5)
    monkeypatch.setattr("repro.simulation._kernels.draw_structure", lambda *args: None)
    drawn = DagStructureGenerator(LARGE_TASKS_FIG6, 42).generate_many(5)
    for first, second in zip(replayed, drawn):
        assert first.graph.wcets() == second.graph.wcets()
        assert first.graph.edges() == second.graph.edges()


def test_a_non_pcg64_generator_takes_the_numpy_path(monkeypatch):
    calls = []
    numpy_draw = DagStructureGenerator._numpy_draw

    def counted(self):
        calls.append(type(self.rng.bit_generator).__name__)
        return numpy_draw(self)

    monkeypatch.setattr(DagStructureGenerator, "_numpy_draw", counted)
    config = GeneratorConfig(n_min=5, n_max=60)
    assert draw_structure(np.random.MT19937(3), config) is None
    first = np.random.Generator(np.random.MT19937(3))
    second = np.random.Generator(np.random.MT19937(3))
    draw = DagStructureGenerator(config, first)._draw()
    assert calls == ["MT19937"]
    assert draw == numpy_draw(DagStructureGenerator(config, second))
    state, other = first.bit_generator.state["state"], second.bit_generator.state["state"]
    assert state["pos"] == other["pos"] and np.array_equal(state["key"], other["key"])

    DagStructureGenerator(config, np.random.default_rng(3))._draw()
    expected = ["MT19937"] if compiled_available() else ["MT19937", "PCG64"]
    assert calls == expected
