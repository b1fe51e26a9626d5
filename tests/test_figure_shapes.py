"""Qualitative shapes of the paper's evaluation (Section 5) at quick scale.

Each test regenerates one artefact -- a figure, the worked example, the
upper node range or an ablation -- with :func:`quick_scale` and checks the
shape the paper reports.  The goldens pin exact numbers at other scales;
these pin the conclusions.  ``repro experiment <name> --csv/--json``
renders and exports the same results.
"""

from __future__ import annotations

from dataclasses import replace

import pytest

from repro.experiments.ablations import run_ilp_ablation, run_scheduler_ablation
from repro.experiments.config import quick_scale
from repro.experiments.figure6 import run_figure6
from repro.experiments.figure7 import run_figure7
from repro.experiments.figure8 import run_figure8
from repro.experiments.figure9 import run_figure9
from repro.experiments.worked_example import EXPECTED_VALUES, run_worked_example
from repro.generator.presets import LARGE_TASKS_UPPER_RANGE


@pytest.fixture(scope="module")
def scale():
    return quick_scale()


def test_figure6(scale):
    """Percentage change of the simulated makespan of ``tau`` w.r.t. ``tau'``.

    For very small ``C_off`` the transformation hurts (the paper reports
    crossovers around 11 %, 8 %, 6 % and 4.5 % of the volume for m = 2, 4,
    8 and 16); beyond the crossover it pays off, because the
    synchronisation point keeps the host from idling while the accelerator
    works (Figure 1(c)).
    """
    result = run_figure6(scale=scale)

    for cores in scale.core_counts:
        series = result.series_by_label(f"m={cores}")
        # The transformation must win for a sufficiently large offloaded
        # fraction: the largest sampled fractions show a positive change.
        assert max(series.y) > 0, f"transformation never paid off for m={cores}"
        # The peak benefit is not at the smallest fraction.
        assert series.y[0] < max(series.y)

    # Small-C_off penalty grows with the core count (more parallelism lost),
    # so the first sample for the largest host is no better than for the
    # smallest host.
    smallest = result.series_by_label(f"m={min(scale.core_counts)}")
    largest = result.series_by_label(f"m={max(scale.core_counts)}")
    assert largest.y[0] <= smallest.y[0] + 1e-9


def test_figure7(scale):
    """Increment of ``R_hom(tau)`` and ``R_het(tau')`` over the ILP optimum.

    Both bounds lie above the optimum, and the pessimism of ``R_het``
    decreases as ``C_off`` grows until it is tighter than ``R_hom``.  The
    paper used CPLEX with WCETs in ``[1, 100]``; quick scale uses HiGHS with
    a reduced WCET range.
    """
    result = run_figure7(scale=scale)

    evaluated = [m for m in scale.core_counts if m in (2, 8)] or list(
        scale.core_counts[:2]
    )
    for cores in evaluated:
        hom = result.series_by_label(f"R_hom m={cores}")
        het = result.series_by_label(f"R_het m={cores}")
        # Upper bounds never undercut the optimal makespan.
        assert all(value >= -1e-6 for value in hom.y)
        assert all(value >= -1e-6 for value in het.y)
        # The heterogeneous bound tightens as the offloaded share grows ...
        assert het.y[-1] <= het.y[0] + 1e-9
        # ... and ends up at least as tight as the homogeneous bound.
        assert het.y[-1] <= hom.y[-1] + 1e-9


def test_figure8(scale):
    """Occurrence of Theorem 1's three scenarios as the offloaded share grows.

    Scenario 1 dominates small fractions and fades, Scenario 2.2 takes over
    for intermediate ones, and Scenario 2.1 grows for large fractions,
    earlier for larger hosts because ``R_hom(G_par)`` shrinks with ``m``.
    """
    result = run_figure8(scale=scale)

    fractions = scale.fractions
    for cores in scale.core_counts:
        scenario1 = result.series_by_label(f"scenario 1 m={cores}")
        scenario21 = result.series_by_label(f"scenario 2.1 m={cores}")
        scenario22 = result.series_by_label(f"scenario 2.2 m={cores}")
        for index in range(len(fractions)):
            total = scenario1.y[index] + scenario21.y[index] + scenario22.y[index]
            assert total == pytest.approx(100.0)
        # Scenario 1 fades as the offloaded fraction grows.
        assert scenario1.y[0] >= scenario1.y[-1]
        # Scenario 2.1 eventually appears (large fractions push C_off past
        # R_hom(G_par)).
        assert max(scenario21.y) > 0 or max(fractions) < 0.2

    # Larger hosts reach Scenario 2.1 earlier (or at least as early).
    smallest, largest = min(scale.core_counts), max(scale.core_counts)
    small_21 = result.series_by_label(f"scenario 2.1 m={smallest}")
    large_21 = result.series_by_label(f"scenario 2.1 m={largest}")
    assert sum(large_21.y) >= sum(small_21.y) - 1e-9


def test_figure9(scale):
    """Percentage change of ``R_hom(tau)`` w.r.t. ``R_het(tau')``.

    The heterogeneous analysis wins for all but the smallest fractions, the
    gain peaks where ``C_off = R_hom(G_par)`` (the paper reports roughly
    70 %, 55 %, 40 % and 30 % for m = 2, 4, 8, 16), and smaller hosts gain
    more because the interference term is divided by ``m``.
    """
    result = run_figure9(scale=scale)

    core_counts = list(scale.core_counts)
    peaks = {}
    for cores in core_counts:
        series = result.series_by_label(f"m={cores}")
        peak_x, peak_y = series.max_point()
        peaks[cores] = (peak_x, peak_y)
        # The heterogeneous bound wins decisively for large fractions.
        assert peak_y > 0
        assert series.y[-1] > series.y[0]
        # The maximum observed single-task difference dominates the average.
        assert series.metadata["max_observed_difference"] >= peak_y - 1e-9

    # Gain ordering across host sizes at the peak: smaller m gains more.
    ordered = sorted(core_counts)
    for small, large in zip(ordered, ordered[1:]):
        assert peaks[small][1] >= peaks[large][1] - 5.0  # allow sampling noise


def test_figure9_upper_node_range(scale):
    """Sections 5.2 and 5.4: "similar trends" for n in [250, 400]."""
    # Generating 250-400 node DAGs is ~2x the work of the main figure; trim
    # the number of DAGs accordingly.
    scale = replace(scale, dags_per_point=max(3, scale.dags_per_point // 2))
    result = run_figure9(scale=scale, generator_config=LARGE_TASKS_UPPER_RANGE)

    core_counts = sorted(scale.core_counts)
    peak = {}
    for cores in core_counts:
        series = result.series_by_label(f"m={cores}")
        peak[cores] = series.max_point()[1]
        assert peak[cores] > 0
        assert series.y[-1] > series.y[0]
    for small, large in zip(core_counts, core_counts[1:]):
        assert peak[small] >= peak[large] - 5.0


def test_ablation_ilp(scale):
    """The HiGHS ILP and the exact branch-and-bound agree on every task."""
    result = run_ilp_ablation(scale=scale, cores=2, task_count=8)

    assert result.metadata["disagreements"] == 0
    ilp = result.series_by_label("ilp").y
    bnb = result.series_by_label("bnb").y
    assert len(ilp) == len(bnb) == 8
    assert all(abs(a - b) < 1e-6 for a, b in zip(ilp, bnb))


def test_ablation_scheduler(scale):
    """Figure 6's conclusion is not an artefact of the breadth-first policy."""
    cores = 4 if 4 in scale.core_counts else scale.core_counts[0]
    result = run_scheduler_ablation(scale=scale, cores=cores)

    for label in ("breadth-first", "depth-first"):
        series = result.series_by_label(label)
        assert max(series.y) > 0, f"{label}: the transformation never paid off"

    # The critical-path-first policy already avoids most host idling, so the
    # transformation helps it the least at the largest fraction.
    cp_first = result.series_by_label("critical-path-first")
    breadth = result.series_by_label("breadth-first")
    assert max(cp_first.y) <= max(breadth.y) + 15.0  # generous noise margin


def test_worked_example():
    """Every number Sections 3.2-3.3 quote for Figures 1 and 2."""
    result = run_worked_example()

    values = result.series[0].metadata["values"]
    for name, expected in EXPECTED_VALUES.items():
        assert values[name] == expected, f"{name}: got {values[name]}, paper says {expected}"
