#!/usr/bin/env python3
"""Serving quickstart: the long-lived evaluation service, in process.

Walks through the PR-5 serving layer (see ``docs/service.md``):

1. start an :class:`~repro.service.EvaluationService` in process;
2. fire a concurrent burst of figure-6-style simulation and analysis
   requests and watch the micro-batcher coalesce them (batches << requests);
3. fire the identical burst again and compare warm (cache-hit) latencies
   against the cold run;
4. expose the same service over HTTP on an ephemeral port and talk to it
   with :class:`~repro.service.ServiceClient` -- tasks cross the wire in
   the plain JSON form of ``repro.io.json_io``.

Run with:  python examples/serving_quickstart.py
"""

from __future__ import annotations

import time
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from repro.core.transformation import transform
from repro.generator.config import GeneratorConfig, OffloadConfig
from repro.generator.offload import make_heterogeneous
from repro.generator.random_dag import DagStructureGenerator
from repro.service import EvaluationService, ServiceClient, start_server


def make_workload(count: int = 24):
    """A small figure-6-shaped ensemble: random DAGs + transformed twins."""
    config = GeneratorConfig(
        p_par=0.8, n_par=6, max_depth=4, n_min=80, n_max=150, c_min=1, c_max=100
    )
    tasks = []
    for seed in range(count):
        rng = np.random.default_rng(seed)
        task = DagStructureGenerator(config, rng).generate_task(name=f"tau_{seed}")
        tasks.append(
            make_heterogeneous(task, OffloadConfig(), rng, target_fraction=0.2)
        )
    return tasks, [transform(task).task for task in tasks]


def fire_burst(service: EvaluationService, requests, pool) -> tuple[list, float]:
    def one(entry):
        kind, task, argument = entry
        if kind == "simulate":
            return service.submit_simulation(task, argument)
        return service.submit_analysis(task, argument)

    start = time.perf_counter()
    results = list(pool.map(one, requests))
    return results, time.perf_counter() - start


def main() -> None:
    originals, transformed = make_workload()
    tasks = originals + transformed
    requests = []
    for task in tasks:
        requests.append(("simulate", task, 2))
        requests.append(("simulate", task, 8))
    for task in originals:  # tau' cannot be re-transformed for analysis
        requests.append(("analyse", task, (2, 4, 8)))
    print(f"workload: {len(requests)} mixed requests over {len(tasks)} tasks\n")

    with EvaluationService() as service, ThreadPoolExecutor(32) as pool:
        cold, cold_s = fire_burst(service, requests, pool)
        warm, warm_s = fire_burst(service, requests, pool)
        assert warm == cold  # memoised answers are bit-identical

        stats = service.stats()
        print(f"cold burst: {cold_s * 1000:7.1f} ms "
              f"({len(requests) / cold_s:7.0f} requests/s)")
        print(f"warm burst: {warm_s * 1000:7.1f} ms "
              f"({len(requests) / warm_s:7.0f} requests/s, "
              f"x{cold_s / warm_s:.0f} from the cache)")
        print(
            f"coalescing: {stats['requests']['total']} requests -> "
            f"{stats['batching']['batches']} batches "
            f"(largest {stats['batching']['largest_batch']}), "
            f"{stats['engine']['evaluated_cells']} engine cells, "
            f"{stats['cache']['hits']} cache hits\n"
        )

        # The same service over HTTP, on an ephemeral port.
        server, thread = start_server(service, port=0)
        client = ServiceClient(port=server.port)
        print(f"HTTP facade on port {server.port}: {client.health()['status']}")
        task = tasks[0]
        start = time.perf_counter()
        makespan = client.simulate(task, cores=4)
        http_ms = 1000 * (time.perf_counter() - start)
        print(f"POST /simulate (m=4): makespan {makespan:g} "
              f"in {http_ms:.1f} ms")
        bounds = client.analyse(task, [2, 4])["bounds"]
        print(f"POST /analyse: R_het(m=2) = "
              f"{bounds[0]['methods']['het']['bound']:g}")
        client.close()  # the calls above shared one keep-alive connection
        server.shutdown()
        server.server_close()
        thread.join(timeout=5)
    print("\nservice closed (queue drained).")


if __name__ == "__main__":
    main()
