#!/usr/bin/env python3
"""Benchmark of the PR-5 evaluation service on a figure-6-shaped request mix.

Models the serving scenario the ROADMAP's north star describes: many
concurrent clients asking single-cell questions ("makespan of this task on
``m`` cores") drawn from the quick-scale figure 6 ensemble (original +
transformed variants, ``m in {2, 4, 8, 16}``), with each unique request
appearing ``REPEAT`` times in the (deterministically shuffled) mix -- live
traffic re-asks popular questions.

Three ways to serve the same mix, all of which must return **identical**
makespans:

* **naive per-request** -- what every pre-PR-5 entry point pays: each
  request parses its task document (``task_from_dict``), compiles it and
  runs one ``simulate_makespan`` -- no state survives between requests
  (the one-shot-process model of the CLI and drivers, minus process
  startup, so the baseline is conservative);
* **service, cold** -- a long-lived :class:`~repro.service.EvaluationService`
  receiving the burst from one thread per request: documents are parsed
  once per unique task, concurrent requests coalesce in the micro-batch
  queue (duplicates join in flight), and each flush runs one batched
  engine call;
* **service, warm** -- the identical burst again: pure fingerprint-keyed
  cache hits.

A fourth measurement times cache hits whose task arrives the way the HTTP
handler receives it: a freshly ``json.loads``-ed document, decoded with
``decode_task`` and fingerprinted without building a graph.  It is
compared with the full path, ``task_from_dict`` (graph build, compile and
fingerprint) before the same lookup.

Acceptance (enforced by ``--smoke`` in CI, next to the PR 2-4 smokes):
the cold service must beat the naive path by ``SERVICE_SPEEDUP_TARGET``
(the batching/amortisation gain), the warm service must beat it by
``HIT_SPEEDUP_TARGET`` (the hit-path gain), and a hit from a decoded
document must beat the full path by ``DOCUMENT_HIT_SPEEDUP_TARGET``, with
bit-identical results throughout.

``--faults`` switches to the PR-6 resilience benchmark instead: the cost
of a *disabled* fault point on the hot path (must be attribute-read cheap,
since ``fault_point`` calls are compiled into the engines permanently) and
the throughput of the degraded bound-sandwich oracle mode against full
exact solves -- written to ``BENCH_PR6.json``.

Run with:  python benchmarks/bench_service.py  [--smoke] [--faults]
"""

from __future__ import annotations

import json
import random
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

_REPO_ROOT = Path(__file__).resolve().parent.parent
_SRC = _REPO_ROOT / "src"
if _SRC.is_dir() and str(_SRC) not in sys.path:
    sys.path.insert(0, str(_SRC))

import numpy as np  # noqa: E402

from repro.core.transformation import transform  # noqa: E402
from repro.experiments.config import quick_scale  # noqa: E402
from repro.generator.config import OffloadConfig  # noqa: E402
from repro.generator.presets import LARGE_TASKS_FIG6  # noqa: E402
from repro.generator.sweep import chunked_offload_fraction_sweep  # noqa: E402
from repro.io.json_io import decode_task, task_from_dict, task_to_dict  # noqa: E402
from repro.service import EvaluationService  # noqa: E402
from repro.simulation.engine import simulate_makespan  # noqa: E402
from repro.simulation.platform import Platform  # noqa: E402
from repro.simulation.schedulers import policy_by_name  # noqa: E402

OUTPUT = _REPO_ROOT / "BENCH_PR5.json"
FAULTS_OUTPUT = _REPO_ROOT / "BENCH_PR6.json"

#: Acceptance: cold service vs naive per-request (batching/amortisation).
SERVICE_SPEEDUP_TARGET = 2.0

#: Acceptance: warm service vs naive per-request (cache-hit path).
HIT_SPEEDUP_TARGET = 10.0

#: Acceptance: a cache hit from a decoded document vs the same hit after a
#: full ``task_from_dict`` (graph build + compile + fingerprint).
DOCUMENT_HIT_SPEEDUP_TARGET = 2.0

#: How often each unique request appears in the mix (live traffic re-asks
#: popular questions; the report carries both unique and total counts).
REPEAT = 3

#: Timed repetitions; the best (minimum) time is reported.
REPEATS = 3


def figure6_request_mix(smoke: bool):
    """``(documents, requests)``: task documents + shuffled (doc, m) mix."""
    scale = quick_scale()
    fractions = scale.fractions
    dags_per_point = 8 if smoke else scale.dags_per_point
    points = chunked_offload_fraction_sweep(
        fractions=fractions,
        dags_per_point=dags_per_point,
        generator_config=LARGE_TASKS_FIG6,
        offload_config=OffloadConfig(),
        root_seed=scale.seed,
    )
    tasks = [task for point in points for task in point.tasks]
    tasks = tasks + [transform(task).task for task in tasks]
    documents = [task_to_dict(task) for task in tasks]
    unique = [
        (index, cores)
        for index in range(len(documents))
        for cores in (2, 4, 8, 16)
    ]
    requests = unique * REPEAT
    random.Random(2018).shuffle(requests)
    return documents, requests


def bench_naive(documents, requests) -> tuple[float, list[float]]:
    """One-shot evaluation per request: parse + compile + simulate."""

    def run() -> list[float]:
        return [
            simulate_makespan(
                task_from_dict(documents[index]),
                Platform(cores),
                policy_by_name("breadth-first"),
            )
            for index, cores in requests
        ]

    best_s, result = float("inf"), None
    for _ in range(REPEATS):
        t0 = time.perf_counter()
        result = run()
        best_s = min(best_s, time.perf_counter() - t0)
    return best_s, result


def bench_service(documents, requests):
    """Thread-per-request burst against a fresh service; then the warm burst.

    Returns ``(cold_s, warm_s, cold_results, warm_results, stats)``; the
    cold time includes parsing each unique document once (the long-lived
    client keeps parsed tasks, unlike the one-shot baseline).
    """
    workers = min(len(requests), 256)
    best = None
    for _ in range(REPEATS):
        service = EvaluationService()
        pool = ThreadPoolExecutor(max_workers=workers)
        list(pool.map(lambda value: value, range(workers)))  # pre-spawn

        t0 = time.perf_counter()
        tasks = [task_from_dict(document) for document in documents]
        cold = list(
            pool.map(
                lambda request: service.submit_simulation(
                    tasks[request[0]], request[1], timeout=600
                ),
                requests,
            )
        )
        cold_s = time.perf_counter() - t0

        warm_s = float("inf")
        warm = None
        for _ in range(REPEATS):
            t0 = time.perf_counter()
            warm = list(
                pool.map(
                    lambda request: service.submit_simulation(
                        tasks[request[0]], request[1], timeout=600
                    ),
                    requests,
                )
            )
            warm_s = min(warm_s, time.perf_counter() - t0)

        stats = service.stats()
        pool.shutdown()
        service.close()
        if best is None or cold_s < best[0]:
            best = (cold_s, warm_s, cold, warm, stats)
    return best


def bench_document_hits(documents, requests):
    """Cache hits from freshly ``json.loads``-ed documents, two ways.

    Returns ``(full_s, document_s, full_results, document_results)``: the
    best time over the mix when each request's task is built with
    ``task_from_dict`` before the lookup, and when it is only decoded with
    ``decode_task`` (what the HTTP handler passes the service).  Parsing the
    JSON body is common to both and not timed.
    """
    bodies = [json.dumps(document) for document in documents]
    with EvaluationService() as service:
        for index, cores in sorted(set(requests)):
            service.submit_simulation(
                task_from_dict(documents[index]), cores, timeout=600
            )

        def run(decode) -> tuple[float, list[float]]:
            fresh = [json.loads(bodies[index]) for index, _ in requests]
            t0 = time.perf_counter()
            results = [
                service.submit_simulation(decode(document), cores, timeout=600)
                for document, (_, cores) in zip(fresh, requests)
            ]
            return time.perf_counter() - t0, results

        full_s = document_s = float("inf")
        for _ in range(REPEATS):
            elapsed, full = run(task_from_dict)
            full_s = min(full_s, elapsed)
            elapsed, decoded = run(decode_task)
            document_s = min(document_s, elapsed)
        misses = service.stats()["cache"]["misses"]
    if misses != len(set(requests)):
        raise RuntimeError(f"{misses} misses: every timed request must be a hit")
    return full_s, document_s, full, decoded


#: Acceptance: a disabled fault point must cost no more than this per call
#: (it is one global load + one attribute read; the margin is generous so
#: the check holds on loaded CI machines).
FAULT_OVERHEAD_TARGET_NS = 1000.0

#: Acceptance: the degraded bound-sandwich path must beat the exact solver
#: by at least this factor -- it exists to shed load, so it has to be cheap.
DEGRADED_SPEEDUP_TARGET = 2.0


def _solver_tasks(count: int, root_seed: int = 2018):
    """Solver-sized heterogeneous tasks with integer WCETs."""
    from repro.generator.config import GeneratorConfig, OffloadConfig
    from repro.generator.offload import make_heterogeneous
    from repro.generator.random_dag import DagStructureGenerator

    config = GeneratorConfig(
        p_par=0.6, n_par=3, max_depth=2, n_min=4, n_max=10, c_min=1, c_max=12
    )
    tasks = []
    for seed in range(root_seed, root_seed + count):
        host = DagStructureGenerator(
            config, np.random.default_rng(seed)
        ).generate_task()
        task = make_heterogeneous(
            host, OffloadConfig(), np.random.default_rng(seed + 1),
            target_fraction=0.25,
        )
        tasks.append(
            task.with_offloaded_wcet(max(1.0, float(round(task.offloaded_wcet))))
        )
    return tasks


def bench_faults(smoke: bool) -> dict:
    """PR-6 resilience benchmark: fault-point overhead + degraded throughput."""
    from repro.ilp.batch import minimum_makespans_many, oracle_cache_size
    from repro.resilience import FAULTS, fault_point

    assert not FAULTS.enabled, "fault injection must be disarmed for timing"

    # --- disabled fault-point overhead ---------------------------------
    calls = 200_000 if smoke else 1_000_000

    def noop() -> None:
        return None

    def time_loop(fn) -> float:
        best = float("inf")
        for _ in range(REPEATS):
            t0 = time.perf_counter()
            for _ in range(calls):
                fn("bench.disabled")
            best = min(best, time.perf_counter() - t0)
        return best / calls * 1e9

    overhead_ns = time_loop(fault_point)
    baseline_ns = time_loop(lambda _name: noop())

    # --- degraded-mode throughput vs exact solves ----------------------
    tasks = _solver_tasks(12 if smoke else 48)

    exact_s = float("inf")
    for _ in range(REPEATS):
        t0 = time.perf_counter()
        exact = minimum_makespans_many(tasks, 2, use_cache=False)
        exact_s = min(exact_s, time.perf_counter() - t0)

    cache_before = oracle_cache_size()
    degraded_s = float("inf")
    for _ in range(REPEATS):
        t0 = time.perf_counter()
        degraded = minimum_makespans_many(tasks, 2, budget=0.0)
        degraded_s = min(degraded_s, time.perf_counter() - t0)

    all_flagged = all(result.degraded and not result.optimal for result in degraded)
    sandwich_holds = all(
        loose.engine_stats["lower_bound"] <= tight.makespan <= loose.makespan
        for loose, tight in zip(degraded, exact)
    )
    nothing_cached = oracle_cache_size() == cache_before
    degraded_speedup = exact_s / max(degraded_s, 1e-9)

    document = {
        "benchmark": "service_resilience",
        "pr": 6,
        "description": (
            "Resilience-layer costs: per-call overhead of a disabled "
            "fault point (repro/resilience/faults.py, compiled into the "
            "engine hot paths) and throughput of the degraded "
            "bound-sandwich oracle mode vs full exact solves "
            "(see docs/service.md, failure-mode runbook)."
        ),
        "smoke": smoke,
        "fault_point_calls": calls,
        "fault_point_disabled_ns": overhead_ns,
        "noop_call_baseline_ns": baseline_ns,
        "oracle_tasks": len(tasks),
        "exact_batch_s": exact_s,
        "degraded_batch_s": degraded_s,
        "exact_tasks_per_s": len(tasks) / exact_s,
        "degraded_tasks_per_s": len(tasks) / degraded_s,
        "degraded_speedup": degraded_speedup,
        "acceptance": {
            "fault_point_disabled_ns": overhead_ns,
            "fault_point_overhead_target_ns": FAULT_OVERHEAD_TARGET_NS,
            "fault_point_overhead_met": overhead_ns <= FAULT_OVERHEAD_TARGET_NS,
            "degraded_speedup": degraded_speedup,
            "degraded_speedup_target": DEGRADED_SPEEDUP_TARGET,
            "degraded_speedup_met": degraded_speedup >= DEGRADED_SPEEDUP_TARGET,
            "all_degraded_flagged": all_flagged,
            "bound_sandwich_holds": sandwich_holds,
            "degraded_never_cached": nothing_cached,
        },
    }

    print(
        f"disabled fault point: {overhead_ns:.0f} ns/call "
        f"(no-op call baseline {baseline_ns:.0f} ns) over {calls} calls"
    )
    print(
        f"oracle batch of {len(tasks)}: exact {exact_s:.3f}s "
        f"({document['exact_tasks_per_s']:.0f} tasks/s) | degraded "
        f"{degraded_s:.4f}s ({document['degraded_tasks_per_s']:.0f} tasks/s, "
        f"x{degraded_speedup:.1f})"
    )
    if not smoke:
        FAULTS_OUTPUT.write_text(
            json.dumps(document, indent=2) + "\n", encoding="utf-8"
        )
        print(f"results written to {FAULTS_OUTPUT}")
    accepted = document["acceptance"]
    print(
        f"acceptance: fault point {overhead_ns:.0f} ns "
        f"(target <= {FAULT_OVERHEAD_TARGET_NS:.0f}) -> "
        f"{'PASS' if accepted['fault_point_overhead_met'] else 'FAIL'}; "
        f"degraded x{degraded_speedup:.1f} "
        f"(target x{DEGRADED_SPEEDUP_TARGET:.0f}) -> "
        f"{'PASS' if accepted['degraded_speedup_met'] else 'FAIL'}; "
        f"flagged/sandwich/uncached -> "
        f"{'PASS' if accepted['all_degraded_flagged'] and accepted['bound_sandwich_holds'] and accepted['degraded_never_cached'] else 'FAIL'}"
    )
    return document


def main() -> dict:
    smoke = "--smoke" in sys.argv
    if "--faults" in sys.argv:
        return bench_faults(smoke)
    documents, requests = figure6_request_mix(smoke)
    unique = len(set(requests))
    print(
        f"figure 6 request mix: {len(requests)} requests "
        f"({unique} unique, x{REPEAT} repetition, "
        f"{len(documents)} task variants, m in [2, 4, 8, 16])"
    )

    naive_s, naive = bench_naive(documents, requests)
    cold_s, warm_s, cold, warm, stats = bench_service(documents, requests)
    full_hit_s, document_hit_s, full_hits, document_hits = bench_document_hits(
        documents, requests
    )

    identical = naive == cold == warm
    document_hits_identical = naive == full_hits == document_hits
    service_speedup = naive_s / max(cold_s, 1e-9)
    hit_speedup = naive_s / max(warm_s, 1e-9)
    document_hit_speedup = full_hit_s / max(document_hit_s, 1e-9)
    mean_nodes = sum(len(document["nodes"]) for document in documents) / len(
        documents
    )

    document = {
        "benchmark": "evaluation_service",
        "pr": 5,
        "description": (
            "Long-lived evaluation service (micro-batching queue + "
            "fingerprint-keyed LRU cache over the batched engines; "
            "repro/service/) vs naive one-shot per-request "
            "simulate_makespan calls on a figure-6-shaped request mix "
            "(see docs/service.md)."
        ),
        "smoke": smoke,
        "requests": len(requests),
        "unique_requests": unique,
        "repetition": REPEAT,
        "task_variants": len(documents),
        "platforms": [2, 4, 8, 16],
        "naive_per_request_s": naive_s,
        "service_cold_s": cold_s,
        "service_warm_s": warm_s,
        "naive_requests_per_s": len(requests) / naive_s,
        "service_cold_requests_per_s": len(requests) / cold_s,
        "service_warm_requests_per_s": len(requests) / warm_s,
        "service_speedup": service_speedup,
        "hit_speedup": hit_speedup,
        "document_mean_nodes": mean_nodes,
        "full_decode_hit_ms": 1e3 * full_hit_s / len(requests),
        "document_hit_ms": 1e3 * document_hit_s / len(requests),
        "document_hit_speedup": document_hit_speedup,
        "batches": stats["batching"]["batches"],
        "largest_batch": stats["batching"]["largest_batch"],
        "evaluated_cells": stats["engine"]["evaluated_cells"],
        "inflight_joins": stats["engine"]["inflight_joins"],
        "cache": {
            key: stats["cache"][key] for key in ("hits", "misses", "bytes")
        },
        "makespans_identical": bool(identical),
        "acceptance": {
            "service_speedup": service_speedup,
            "service_speedup_target": SERVICE_SPEEDUP_TARGET,
            "service_speedup_met": service_speedup >= SERVICE_SPEEDUP_TARGET,
            "hit_speedup": hit_speedup,
            "hit_speedup_target": HIT_SPEEDUP_TARGET,
            "hit_speedup_met": hit_speedup >= HIT_SPEEDUP_TARGET,
            "makespans_identical": bool(identical),
            "document_hit_speedup": document_hit_speedup,
            "document_hit_speedup_target": DOCUMENT_HIT_SPEEDUP_TARGET,
            "document_hit_speedup_met": (
                document_hit_speedup >= DOCUMENT_HIT_SPEEDUP_TARGET
            ),
            "document_hits_identical": bool(document_hits_identical),
        },
    }

    print(
        f"naive one-shot: {naive_s:.3f}s ({document['naive_requests_per_s']:.0f} "
        f"req/s) | service cold: {cold_s:.3f}s "
        f"({document['service_cold_requests_per_s']:.0f} req/s, "
        f"x{service_speedup:.2f}) | service warm: {warm_s:.4f}s "
        f"({document['service_warm_requests_per_s']:.0f} req/s, "
        f"x{hit_speedup:.1f})"
    )
    print(
        f"cache hit from a fresh JSON document ({mean_nodes:.0f} nodes on "
        f"average): full decode {document['full_decode_hit_ms']:.3f} ms | "
        f"decoded document {document['document_hit_ms']:.3f} ms "
        f"(x{document_hit_speedup:.2f})"
    )
    print(
        f"coalescing: {len(requests)} requests -> {document['batches']} batches "
        f"(largest {document['largest_batch']}), "
        f"{document['evaluated_cells']} evaluated cells, "
        f"{document['inflight_joins']} in-flight joins"
    )
    if not smoke:
        OUTPUT.write_text(json.dumps(document, indent=2) + "\n", encoding="utf-8")
        print(f"results written to {OUTPUT}")
    accepted = document["acceptance"]
    print(
        f"acceptance: batching x{accepted['service_speedup']:.2f} "
        f"(target x{accepted['service_speedup_target']:.1f}) -> "
        f"{'PASS' if accepted['service_speedup_met'] else 'FAIL'}; "
        f"hit path x{accepted['hit_speedup']:.1f} "
        f"(target x{accepted['hit_speedup_target']:.0f}) -> "
        f"{'PASS' if accepted['hit_speedup_met'] else 'FAIL'}; "
        f"makespans identical -> "
        f"{'PASS' if accepted['makespans_identical'] else 'FAIL'}; "
        f"document hit x{document_hit_speedup:.2f} "
        f"(target x{DOCUMENT_HIT_SPEEDUP_TARGET:.0f}) -> "
        f"{'PASS' if accepted['document_hit_speedup_met'] else 'FAIL'}; "
        f"document hits identical -> "
        f"{'PASS' if accepted['document_hits_identical'] else 'FAIL'}"
    )
    return document


if __name__ == "__main__":
    result = main()
    accepted = result["acceptance"]
    if not all(value for key, value in accepted.items() if key.endswith("_met")):
        sys.exit(1)
    if not all(
        value
        for key, value in accepted.items()
        if isinstance(value, bool) and not key.endswith("_met")
    ):
        sys.exit(1)
