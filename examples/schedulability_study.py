#!/usr/bin/env python3
"""Domain example: system-level schedulability study on random workloads.

A typical use of a response-time analysis inside a design-space exploration
loop: generate many random heterogeneous applications (with the paper's own
workload generator), and measure the *acceptance ratio* -- the fraction of
applications certified schedulable -- under

* the classical homogeneous analysis (Eq. 1), and
* the heterogeneous analysis of the paper (Theorem 1),

for host sizes m = 2, 4, 8, 16 and several offloaded-workload shares.  It
also demonstrates the federated task-set partitioning built on top of the
per-task bounds.

The acceptance study uses the batched analysis layer
(:func:`repro.analysis.analyse_many`): every application is transformed once
and analysed for all host sizes in one pass.

Run with:  python examples/schedulability_study.py
"""

from __future__ import annotations

import argparse

import numpy as np

from repro import DagTask, GeneratorConfig, OffloadConfig
from repro.analysis import (
    AnalysisKind,
    analyse_many,
    federated_assignment,
    is_schedulable,
)
from repro.core import TaskSet
from repro.generator import DagStructureGenerator, make_heterogeneous

#: Number of random applications per configuration (increase for smoother
#: curves; 40 keeps the example under ~10 s).
APPLICATIONS = 40

#: Structural distribution: mid-size OpenMP-like task graphs.
STRUCTURE = GeneratorConfig(
    p_par=0.5, n_par=6, max_depth=4, n_min=30, n_max=90, c_min=1, c_max=100
)


def generate_applications(
    offload_share: float, seed: int
) -> list[DagTask]:
    """Generate random heterogeneous applications with a deadline.

    The relative deadline is drawn so that the task is feasible on an
    infinitely parallel machine (D > len(G)) but tight enough for the number
    of cores to matter: D = len(G) + u * (vol(G) - len(G)) with u ~ U(0.15, 0.5).
    """
    rng = np.random.default_rng(seed)
    generator = DagStructureGenerator(STRUCTURE, rng)
    applications = []
    for index in range(APPLICATIONS):
        task = generator.generate_task(name=f"app_{index}")
        task = make_heterogeneous(
            task, OffloadConfig(), rng, target_fraction=offload_share
        )
        slack_factor = float(rng.uniform(0.15, 0.5))
        deadline = task.critical_path_length + slack_factor * (
            task.volume - task.critical_path_length
        )
        task.deadline = deadline
        task.period = deadline * float(rng.uniform(1.0, 1.4))
        # Constrained-deadline model: D <= T by construction above.
        applications.append(task)
    return applications


def acceptance_study() -> None:
    print("Acceptance ratio (fraction of applications certified schedulable)")
    print()
    header = (
        f"{'offload %':>10} | "
        + " | ".join(f"m={m:<2} hom   het" for m in (2, 4, 8, 16))
    )
    print(header)
    print("-" * len(header))
    for share in (0.05, 0.15, 0.30, 0.45):
        applications = generate_applications(share, seed=int(share * 1000))
        # One batched pass: each application is transformed once and analysed
        # for every host size.
        analyses = analyse_many(applications, cores=(2, 4, 8, 16), include_naive=False)
        cells = []
        for cores in (2, 4, 8, 16):
            hom = sum(
                analysis.results[cores]["hom"].meets_deadline(analysis.task.deadline)
                for analysis in analyses
            ) / len(analyses)
            het = sum(
                analysis.results[cores]["het"].meets_deadline(analysis.task.deadline)
                for analysis in analyses
            ) / len(analyses)
            cells.append(f"{hom:6.2f} {het:6.2f}")
        print(f"{100 * share:>9.0f}% | " + " | ".join(cells))
    print()
    print("The heterogeneous analysis certifies at least as many applications as")
    print("the homogeneous one, and the margin widens with the offloaded share and")
    print("shrinks with the host size -- the system-level view of Figure 9.")


def federated_demo() -> None:
    print()
    print("Federated scheduling of a mixed task set on a 16-core host + GPU")
    print("-" * 64)
    applications = generate_applications(0.3, seed=77)
    system = TaskSet(applications[:6], name="ecu")
    for analysis in (AnalysisKind.HOMOGENEOUS, AnalysisKind.HETEROGENEOUS):
        assignment = federated_assignment(system, cores=16, analysis=analysis)
        label = "homogeneous " if analysis is AnalysisKind.HOMOGENEOUS else "heterogeneous"
        if assignment.schedulable:
            detail = ", ".join(
                f"{name}:{cores}c" for name, cores in sorted(assignment.heavy.items())
            )
            print(
                f"{label}: SCHEDULABLE  "
                f"(dedicated cores: {assignment.cores_used}; {detail or 'no heavy tasks'};"
                f" {len(assignment.light)} light tasks share the rest)"
            )
        else:
            print(f"{label}: NOT schedulable -- {assignment.reason}")

    # Per-task detail under the heterogeneous analysis on 16 cores.
    print()
    print(f"{'task':<8} {'density':>8} {'R_het':>10} {'deadline':>10} {'verdict':>10}")
    for task in system:
        result = is_schedulable(task, 16)
        print(
            f"{task.name:<8} {task.density():>8.2f} "
            f"{result.response_time.bound:>10.1f} {task.deadline:>10.1f} "
            f"{'ok' if result.schedulable else 'MISS':>10}"
        )


def main() -> None:
    argparse.ArgumentParser(description=__doc__).parse_args()
    print("=" * 72)
    print("System-level schedulability study")
    print("=" * 72)
    acceptance_study()
    federated_demo()


if __name__ == "__main__":
    main()
