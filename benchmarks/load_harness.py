#!/usr/bin/env python3
"""Sustained open-loop load harness of the evaluation service (PR 7).

The ``service`` case of ``suite.py`` fires one closed-loop burst: every
thread waits for its answer before asking again, so a slow server quietly
*reduces* the offered load and the measured latency flatters it
(coordinated omission).
This harness is the opposite shape -- the one "millions of users" actually
presents:

* per-endpoint target rates are compiled into a repeating **dispatch
  programme** by :func:`compute_schedule`: each endpoint's period is
  rounded to an integer number of scheduler ticks and the programme covers
  one LCM hyperperiod, so arbitrary rate mixes repeat exactly -- the same
  hyperperiod-expansion idiom the paper uses for periodic task sets;
* a dispatcher thread fires each programme entry at its **due time**
  regardless of how many answers are still outstanding (open loop), onto a
  pool of client workers;
* latency is measured **from the due time**, not from when a worker got
  around to sending -- backlog shows up as latency instead of silently
  thinning the load.

While the window runs, a sampler polls ``/stats`` and derives the
cache-hit-ratio and mean-batch-size trajectories from counter deltas; at
the end the harness cross-checks ``/metrics`` against ``/stats`` and the
client-side dispatch ledger (zero lost requests, counter reconciliation).

PR 10 adds a **trace-derived stage breakdown**: the server is booted with
a ring large enough to keep every trace, the harness pulls each span tree
from ``GET /traces/<id>`` and attributes the observed latency to stages
(queue wait, batch overhead, engine time, transport write), then
reconciles the per-endpoint trace totals against the
``repro_http_request_seconds`` histogram sums -- per-request truth and
aggregate truth must describe the same workload.

``--smoke`` runs a short sustained window and *asserts* the committed SLOs
-- the CI regression gate for every later serving PR.  A full run writes
the time-series document to ``BENCH_PR7.json``.

Run with:  python benchmarks/load_harness.py  [--smoke] [--port N]
           [--duration S] [--workers N]
"""

from __future__ import annotations

import argparse
import json
import math
import os
import signal
import subprocess
import sys
import tempfile
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

_REPO_ROOT = Path(__file__).resolve().parent.parent
_SRC = _REPO_ROOT / "src"
if _SRC.is_dir() and str(_SRC) not in sys.path:
    sys.path.insert(0, str(_SRC))

import numpy as np  # noqa: E402

from repro.generator.config import GeneratorConfig, OffloadConfig  # noqa: E402
from repro.generator.offload import make_heterogeneous  # noqa: E402
from repro.generator.random_dag import DagStructureGenerator  # noqa: E402
from repro.io.json_io import task_to_dict  # noqa: E402
from repro.service import ServiceClient  # noqa: E402

OUTPUT = _REPO_ROOT / "BENCH_PR7.json"

#: Committed SLOs, asserted by ``--smoke`` in CI.  p99 is end-to-end over
#: loopback HTTP at the smoke rates below, measured from the *scheduled*
#: due time (so dispatcher backlog counts against it).  Generous enough
#: for a loaded shared CI box, tight enough that an accidental O(n) in the
#: request path or a lost flush trigger fails the gate.
SLO_P99_MS = {"/simulate": 250.0, "/analyse": 400.0, "/health": 150.0}

#: Every endpoint must complete at least this fraction of its offered rate.
SLO_ACHIEVED_RATIO = 0.9

#: Offered request rates (requests/second) per endpoint.
SMOKE_RATES = {"/simulate": 40.0, "/analyse": 10.0, "/health": 5.0}
FULL_RATES = {"/simulate": 120.0, "/analyse": 20.0, "/health": 10.0}

#: Distinct tasks cycled through per endpoint: small enough that the cache
#: warms within the first seconds (the steady state a long-lived service
#: lives in), large enough that the first hyperperiods exercise the
#: batched cold path.
SIMULATE_TASKS = 12
ANALYSE_TASKS = 6
SIMULATE_CORES = (2, 4)

_CONFIG = GeneratorConfig(
    p_par=0.6, n_par=3, max_depth=2, n_min=4, n_max=12, c_min=1, c_max=12
)


def _tasks(count: int, root_seed: int) -> list:
    tasks = []
    for seed in range(root_seed, root_seed + count):
        host = DagStructureGenerator(
            _CONFIG, np.random.default_rng(seed)
        ).generate_task()
        tasks.append(
            make_heterogeneous(
                host, OffloadConfig(), np.random.default_rng(seed + 1),
                target_fraction=0.25,
            )
        )
    return tasks


# ----------------------------------------------------------------------
# Dispatch programme
# ----------------------------------------------------------------------
def compute_schedule(
    rates: dict[str, float], tick: float = 0.001
) -> tuple[float, list[tuple[float, str]]]:
    """Compile per-endpoint rates into one repeating dispatch programme.

    Each endpoint's period is rounded to an integer number of ``tick``
    seconds; the programme spans the LCM of those periods (the
    hyperperiod), so replaying it back to back reproduces every target
    rate exactly -- no drift, no per-dispatch randomness.

    Returns ``(cycle_seconds, [(offset_seconds, endpoint), ...])`` with the
    programme sorted by offset.  The *achieved* offered rate can differ
    from the requested one by the period rounding; read it back as
    ``count(endpoint) / cycle_seconds``.
    """
    if tick <= 0:
        raise ValueError(f"tick must be positive, got {tick}")
    periods: dict[str, int] = {}
    for endpoint, rate in rates.items():
        if rate <= 0:
            raise ValueError(f"rate for {endpoint} must be positive, got {rate}")
        periods[endpoint] = max(1, round(1.0 / (rate * tick)))
    cycle_ticks = math.lcm(*periods.values())
    programme = [
        (k * period * tick, endpoint)
        for endpoint, period in periods.items()
        for k in range(cycle_ticks // period)
    ]
    programme.sort()
    return cycle_ticks * tick, programme


def offered_rates(
    cycle_s: float, programme: list[tuple[float, str]]
) -> dict[str, float]:
    """Actual offered rate per endpoint after period rounding."""
    counts: dict[str, int] = {}
    for _, endpoint in programme:
        counts[endpoint] = counts.get(endpoint, 0) + 1
    return {endpoint: count / cycle_s for endpoint, count in counts.items()}


# ----------------------------------------------------------------------
# Open-loop driver
# ----------------------------------------------------------------------
class LoadResult:
    """Dispatch ledger + latency samples + service trajectory of one run."""

    def __init__(self) -> None:
        self.lock = threading.Lock()
        self.samples: list[tuple[str, float, float, str]] = []
        self.dispatched: dict[str, int] = {}
        self.trajectory: list[dict] = []
        self.duration_s = 0.0
        self.workers = 0
        self.connections_accepted = 0

    def record(
        self, endpoint: str, due_offset: float, latency: float, status: str
    ) -> None:
        with self.lock:
            self.samples.append((endpoint, due_offset, latency, status))


def _request_factories(client: ServiceClient) -> dict:
    """One callable per endpoint, cycling a fixed seeded request set.

    Tasks ship as pre-serialised documents: the harness measures the
    service, so per-dispatch client-side work is kept to one JSON dump.
    """
    simulate_docs = [task_to_dict(t) for t in _tasks(SIMULATE_TASKS, 7000)]
    analyse_docs = [task_to_dict(t) for t in _tasks(ANALYSE_TASKS, 7500)]
    counters = {"/simulate": 0, "/analyse": 0}
    lock = threading.Lock()

    def next_index(endpoint: str) -> int:
        with lock:
            counters[endpoint] += 1
            return counters[endpoint] - 1

    def simulate() -> None:
        index = next_index("/simulate")
        document = simulate_docs[index % len(simulate_docs)]
        cores = SIMULATE_CORES[(index // len(simulate_docs)) % len(SIMULATE_CORES)]
        client.simulate(document, cores=cores)

    def analyse() -> None:
        index = next_index("/analyse")
        client.analyse(analyse_docs[index % len(analyse_docs)], cores=[2, 4])

    def health() -> None:
        status = client.health()["status"]
        if status != "ok":
            raise RuntimeError(f"health probe returned {status!r}")

    return {"/simulate": simulate, "/analyse": analyse, "/health": health}


def _sample_trajectory(
    client: ServiceClient,
    result: LoadResult,
    stop: threading.Event,
    started: float,
    interval: float = 0.5,
) -> None:
    """Poll ``/stats`` and derive trajectory points from counter deltas."""
    previous = None
    while not stop.wait(interval):
        try:
            stats = client.stats()
        except Exception:  # noqa: BLE001 - the run outlives a lost sample
            continue
        now = time.perf_counter() - started
        cache = stats["cache"]
        batching = stats["batching"]
        point = {
            "t_s": now,
            "cache_hits": cache["hits"],
            "cache_misses": cache["misses"],
            "batches": batching["batches"],
            "batched_requests": batching["submitted"],
            "pending": batching["pending"],
            "requests_total": stats["requests"]["total"],
        }
        if previous is not None:
            d_hits = point["cache_hits"] - previous["cache_hits"]
            d_misses = point["cache_misses"] - previous["cache_misses"]
            d_batches = point["batches"] - previous["batches"]
            d_batched = point["batched_requests"] - previous["batched_requests"]
            lookups = d_hits + d_misses
            point["cache_hit_ratio"] = d_hits / lookups if lookups else None
            point["mean_batch_size"] = (
                d_batched / d_batches if d_batches else None
            )
        result.trajectory.append(point)
        previous = point


def _accepted_connections(client: ServiceClient) -> int:
    """Connections the server has accepted since it started."""
    counter = client.metrics()["counters"]["repro_http_connections_total"]
    return sum(
        series["value"]
        for series in counter["series"]
        if series["labels"]["outcome"] == "accepted"
    )


def run_load(
    client: ServiceClient,
    rates: dict[str, float],
    duration: float,
    workers: int,
    tick: float = 0.001,
) -> LoadResult:
    """Drive ``client`` open-loop at ``rates`` for ``duration`` seconds."""
    cycle_s, programme = compute_schedule(rates, tick)
    factories = _request_factories(client)
    unknown = set(rates) - set(factories)
    if unknown:
        raise ValueError(f"no request factory for endpoints {sorted(unknown)}")
    result = LoadResult()
    result.workers = workers
    accepted_before = _accepted_connections(client)
    pool = ThreadPoolExecutor(max_workers=workers)
    stop_sampler = threading.Event()

    started = time.perf_counter()
    sampler_client = ServiceClient(base_url=client.base_url, retries=0)
    sampler = threading.Thread(
        target=_sample_trajectory,
        args=(sampler_client, result, stop_sampler, started),
        daemon=True,
    )
    sampler.start()

    def fire(endpoint: str, due: float) -> None:
        try:
            factories[endpoint]()
            status = "ok"
        except Exception as error:  # noqa: BLE001 - classified, not fatal
            status = type(error).__name__
        # Open-loop latency: from the *scheduled* due time, so queueing in
        # the dispatcher/pool counts against the service, as a user would
        # experience it (no coordinated omission).
        result.record(endpoint, due - started, time.perf_counter() - due, status)

    end = started + duration
    cycle_index = 0
    futures = []
    while True:
        base = started + cycle_index * cycle_s
        if base >= end:
            break
        for offset, endpoint in programme:
            due = base + offset
            if due >= end:
                break
            delay = due - time.perf_counter()
            if delay > 0:
                time.sleep(delay)
            with result.lock:
                result.dispatched[endpoint] = (
                    result.dispatched.get(endpoint, 0) + 1
                )
            futures.append(pool.submit(fire, endpoint, due))
        cycle_index += 1
    pool.shutdown(wait=True)
    stop_sampler.set()
    sampler.join(timeout=5.0)
    sampler_client.close()
    result.duration_s = time.perf_counter() - started
    result.connections_accepted = _accepted_connections(client) - accepted_before
    return result


# ----------------------------------------------------------------------
# Analysis
# ----------------------------------------------------------------------
def exact_percentile(sorted_values: list[float], quantile: float) -> float:
    """Nearest-rank-with-interpolation percentile of pre-sorted values."""
    if not sorted_values:
        return float("nan")
    rank = quantile * (len(sorted_values) - 1)
    low = int(math.floor(rank))
    high = min(low + 1, len(sorted_values) - 1)
    fraction = rank - low
    return sorted_values[low] * (1 - fraction) + sorted_values[high] * fraction


def summarise(
    result: LoadResult, offered: dict[str, float], window_s: float = 1.0
) -> dict:
    """Per-endpoint summary + per-window latency time series."""
    by_endpoint: dict[str, list[tuple[float, float, str]]] = {}
    for endpoint, due, latency, status in result.samples:
        by_endpoint.setdefault(endpoint, []).append((due, latency, status))

    endpoints: dict[str, dict] = {}
    for endpoint, rows in sorted(by_endpoint.items()):
        ok = sorted(latency for _, latency, status in rows if status == "ok")
        errors: dict[str, int] = {}
        for _, _, status in rows:
            if status != "ok":
                errors[status] = errors.get(status, 0) + 1
        dispatched = result.dispatched.get(endpoint, 0)
        endpoints[endpoint] = {
            "dispatched": dispatched,
            "completed": len(rows),
            "ok": len(ok),
            "errors": errors,
            "lost": dispatched - len(rows),
            "offered_rps": offered.get(endpoint, 0.0),
            "achieved_rps": len(ok) / result.duration_s,
            "p50_ms": exact_percentile(ok, 0.50) * 1000,
            "p95_ms": exact_percentile(ok, 0.95) * 1000,
            "p99_ms": exact_percentile(ok, 0.99) * 1000,
            "max_ms": ok[-1] * 1000 if ok else float("nan"),
        }

    window_count = max(1, math.ceil(result.duration_s / window_s))
    windows = []
    for index in range(window_count):
        start = index * window_s
        entry: dict = {"start_s": start, "end_s": start + window_s}
        per_endpoint = {}
        for endpoint, rows in sorted(by_endpoint.items()):
            values = sorted(
                latency
                for due, latency, status in rows
                if status == "ok" and start <= due < start + window_s
            )
            if values:
                per_endpoint[endpoint] = {
                    "count": len(values),
                    "p50_ms": exact_percentile(values, 0.50) * 1000,
                    "p95_ms": exact_percentile(values, 0.95) * 1000,
                    "p99_ms": exact_percentile(values, 0.99) * 1000,
                }
        entry["endpoints"] = per_endpoint
        windows.append(entry)
    return {
        "endpoints": endpoints,
        "latency_windows": windows,
        "connections": {
            "accepted": result.connections_accepted,
            "workers": result.workers,
        },
    }


def check_consistency(client: ServiceClient, summary: dict) -> dict:
    """Reconcile ``/metrics`` against ``/stats`` and the dispatch ledger.

    Exact equalities -- both documents render the same underlying counter
    objects, so any difference is a bookkeeping bug, not noise -- plus one
    bound: ``connections_reused``.
    Scraping order matters: the ledger endpoints are quiesced by the time
    this runs, and the probe's own GETs touch only /stats and /metrics.
    """
    stats = client.stats()
    metrics = client.metrics()
    service_requests = {
        series["labels"]["kind"]: series["value"]
        for series in metrics["counters"]["repro_service_requests_total"][
            "series"
        ]
    }
    http_responses: dict[str, int] = {}
    for series in metrics["counters"]["repro_http_responses_total"]["series"]:
        endpoint = series["labels"]["endpoint"]
        http_responses[endpoint] = (
            http_responses.get(endpoint, 0) + series["value"]
        )
    latency_counts = {
        series["labels"]["endpoint"]: series["count"]
        for series in metrics["histograms"]["repro_http_request_seconds"][
            "series"
        ]
    }
    sim_engines = {
        series["labels"]["engine"]: series["value"]
        for series in metrics["counters"]
        .get("repro_service_sim_engine_total", {})
        .get("series", [])
    }
    checks = {}
    for kind in ("simulate", "analyse", "makespan"):
        checks[f"requests_{kind}"] = (
            stats["requests"][kind] == service_requests.get(kind, 0)
        )
    for endpoint in ("/simulate", "/analyse"):
        expected = summary["endpoints"].get(endpoint, {}).get("dispatched", 0)
        checks[f"http_responses_{endpoint}"] = (
            http_responses.get(endpoint, 0) == expected
        )
        checks[f"http_latency_count_{endpoint}"] = (
            latency_counts.get(endpoint, 0) == expected
        )
    # Engine attribution: every simulation batch/solo evaluation carries a
    # concrete engine label, /stats reads the same counter /metrics renders,
    # and the per-engine sum never exceeds the overall batch count (which
    # also covers analyse/makespan groups).
    engine_stats = stats["engine"]["by_engine"]
    for name in ("dense", "compiled"):
        checks[f"sim_engine_{name}"] = (
            engine_stats.get(name, 0) == sim_engines.get(name, 0)
        )
    checks["sim_engine_bounded"] = (
        sum(sim_engines.values()) <= stats["engine"]["batches"]
    )
    # Keep-alive: over the run the server accepts one connection per
    # worker thread, one for the sampler and one for the main client, plus
    # one spare for a resend after an idle close -- not one per request.
    connections = summary["connections"]
    checks["connections_reused"] = (
        connections["accepted"] <= connections["workers"] + 3
    )
    return {
        "stats_requests": stats["requests"],
        "metrics_requests": service_requests,
        "metrics_http_responses": http_responses,
        "metrics_sim_engines": sim_engines,
        "checks": checks,
        "consistent": all(checks.values()),
    }


#: Span names counted as engine time in the stage breakdown.
_ENGINE_SPANS = ("engine.", "oracle.solve", "workload.simulate")


def trace_stage_breakdown(client: ServiceClient) -> dict:
    """Attribute every kept trace's latency to pipeline stages, per endpoint.

    Stages (exclusive, summing to the root ``http.request`` duration):

    * ``cache``   -- fingerprint + cache lookup
    * ``queue``   -- ``batcher.queue``: enqueue until the flush picked the
      request up (micro-batching wait)
    * ``engine``  -- engine/oracle/workload evaluation spans
    * ``batch``   -- the rest of ``batcher.flush``: batch assembly, result
      distribution (the cost of batching itself)
    * ``write``   -- ``http.request`` minus ``facade.submit``: body read +
      response serialisation/write
    * ``other``   -- residual inside ``facade.submit`` (dedupe joins,
      cache-hit returns, bookkeeping)

    Requires the server to keep *every* trace (big ring, ``sample=1.0``):
    the per-endpoint counts and totals are then reconcilable against the
    ``repro_http_request_seconds`` histogram, which is asserted by the
    smoke gate.
    """
    # The handler finishes a trace *after* flushing its response (the root
    # span covers the write), so the last few traces can still be on their
    # way to the ring when the burst's final response lands -- settle first.
    deadline = time.monotonic() + 5.0
    listing = client.traces(limit=1_000_000)
    while (
        listing["ring"]["kept"] + listing["ring"]["sampled_out"]
        < listing["ring"]["started"]
        and time.monotonic() < deadline
    ):
        time.sleep(0.02)
        listing = client.traces(limit=1_000_000)
    ring = listing["ring"]
    stages: dict[str, dict] = {}
    for entry in listing["traces"]:
        payload = client.trace(entry["trace_id"])
        spans = payload["spans"]
        root = next(s for s in spans if s.get("parent_id") is None)
        endpoint = root["attributes"].get("path", "?")
        total = payload["duration_ms"]
        submit = cache = queue = flush = engine = 0.0
        for span in spans:
            name = span["name"]
            duration = span["duration_ms"]
            if name == "facade.submit":
                submit += duration
            elif name == "cache.lookup":
                cache += duration
            elif name == "batcher.queue":
                queue += duration
            elif name == "batcher.flush":
                flush += duration
            elif name.startswith(_ENGINE_SPANS[0]) or name in _ENGINE_SPANS[1:]:
                engine += duration
        entry_stages = stages.setdefault(
            endpoint,
            {
                "count": 0,
                "total_ms": 0.0,
                "cache_ms": 0.0,
                "queue_ms": 0.0,
                "batch_ms": 0.0,
                "engine_ms": 0.0,
                "write_ms": 0.0,
                "other_ms": 0.0,
            },
        )
        entry_stages["count"] += 1
        entry_stages["total_ms"] += total
        entry_stages["cache_ms"] += cache
        entry_stages["queue_ms"] += queue
        entry_stages["engine_ms"] += engine
        entry_stages["batch_ms"] += max(flush - engine, 0.0)
        entry_stages["write_ms"] += max(total - submit, 0.0)
        entry_stages["other_ms"] += max(
            submit - cache - queue - flush, 0.0
        )
    for entry_stages in stages.values():
        total = entry_stages["total_ms"]
        if total > 0:
            entry_stages["stage_fractions"] = {
                stage: round(entry_stages[f"{stage}_ms"] / total, 4)
                for stage in ("cache", "queue", "batch", "engine", "write", "other")
            }
    return {"ring": ring, "endpoints": stages}


def check_traces(client: ServiceClient, breakdown: dict) -> dict:
    """Reconcile the trace-derived stage breakdown against the histograms.

    * the ring kept every started trace (nothing sampled out or evicted),
      so per-request truth is complete;
    * per endpoint, the number of kept traces equals the HTTP latency
      histogram count -- one complete trace per accepted request;
    * per endpoint, the summed trace duration never exceeds the histogram
      sum (the root span nests inside the instrumented window) and covers
      most of it (the wrapper adds microseconds, not milliseconds).
    """
    ring = breakdown["ring"]
    metrics = client.metrics()
    histogram = {
        series["labels"]["endpoint"]: series
        for series in metrics["histograms"]["repro_http_request_seconds"][
            "series"
        ]
    }
    checks: dict[str, bool] = {
        "ring_complete": (
            ring["kept"] == ring["started"]
            and ring["sampled_out"] == 0
            and ring["evicted"] == 0
        ),
        "ring_within_cap": ring["ring_bytes"] <= ring["ring_capacity_bytes"],
    }
    for endpoint, stages in sorted(breakdown["endpoints"].items()):
        series = histogram.get(endpoint)
        if series is None:
            checks[f"trace_histogram_present_{endpoint}"] = False
            continue
        hist_ms = series["sum"] * 1000.0
        checks[f"trace_count_{endpoint}"] = stages["count"] == series["count"]
        # 1 ms slack per request for clock granularity on either side.
        slack = stages["count"] * 1.0
        checks[f"trace_time_bounded_{endpoint}"] = (
            stages["total_ms"] <= hist_ms + slack
        )
        checks[f"trace_time_covers_{endpoint}"] = (
            stages["total_ms"] >= 0.8 * hist_ms - slack
        )
    return checks


# ----------------------------------------------------------------------
# Server management / entry point
# ----------------------------------------------------------------------
def _boot_server(tmp: Path) -> tuple[subprocess.Popen, int]:
    port_file = tmp / "port"
    env = dict(os.environ)
    env["PYTHONPATH"] = str(_SRC)
    process = subprocess.Popen(
        [
            sys.executable, "-m", "repro", "serve",
            "--port", "0",
            "--port-file", str(port_file),
            # Keep every trace: the stage breakdown reconciles per-request
            # truth against the histograms, so nothing may be sampled out
            # or evicted during the window.
            "--trace-ring-bytes", str(256 * 1024 * 1024),
        ],
        env=env,
        cwd=_REPO_ROOT,
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
    )
    deadline = time.monotonic() + 30.0
    while time.monotonic() < deadline:
        if port_file.is_file() and port_file.read_text().strip():
            return process, int(port_file.read_text().strip())
        if process.poll() is not None:
            print(process.stdout.read())
            raise SystemExit("server died before writing its port")
        time.sleep(0.05)
    process.kill()
    raise SystemExit("server never wrote its port file")


def evaluate_slos(summary: dict, consistency: dict) -> dict:
    """The committed gate: zero lost, zero errors, p99 SLOs, throughput."""
    checks: dict[str, bool] = {"metrics_stats_consistent": consistency["consistent"]}
    for endpoint, entry in summary["endpoints"].items():
        checks[f"zero_lost_{endpoint}"] = entry["lost"] == 0
        checks[f"zero_errors_{endpoint}"] = not entry["errors"]
        slo = SLO_P99_MS.get(endpoint)
        if slo is not None:
            checks[f"p99_{endpoint}"] = entry["p99_ms"] <= slo
        checks[f"throughput_{endpoint}"] = (
            entry["achieved_rps"] >= SLO_ACHIEVED_RATIO * entry["offered_rps"]
        )
    return checks


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--smoke", action="store_true",
                        help="short sustained window + SLO assertions (CI)")
    parser.add_argument("--port", type=int, default=None,
                        help="drive an already-running service instead of "
                        "booting one")
    parser.add_argument("--duration", type=float, default=None,
                        help="sustained window in seconds "
                        "(default: 10 smoke / 30 full)")
    parser.add_argument("--workers", type=int, default=32,
                        help="client worker threads")
    parser.add_argument("--tick", type=float, default=0.001,
                        help="dispatch programme tick in seconds")
    args = parser.parse_args(argv)

    duration = args.duration or (10.0 if args.smoke else 30.0)
    rates = SMOKE_RATES if args.smoke else FULL_RATES
    cycle_s, programme = compute_schedule(rates, args.tick)
    offered = offered_rates(cycle_s, programme)
    print(
        f"dispatch programme: {len(programme)} entries per {cycle_s * 1000:g} ms "
        f"hyperperiod -> offered "
        + ", ".join(f"{ep} {rps:g}/s" for ep, rps in sorted(offered.items()))
        + f"; window {duration:g}s, {args.workers} workers"
    )

    process = None
    tmp = Path(tempfile.mkdtemp(prefix="repro-load-"))
    try:
        if args.port is not None:
            port = args.port
        else:
            process, port = _boot_server(tmp)
            print(f"booted repro serve on port {port}, pid {process.pid}")
        client = ServiceClient(port=port, timeout=60, retries=0)
        assert client.health()["status"] == "ok"

        result = run_load(client, rates, duration, args.workers, args.tick)
        summary = summarise(result, offered)
        consistency = check_consistency(client, summary)
        checks = evaluate_slos(summary, consistency)
        breakdown = trace_stage_breakdown(client)
        checks.update(check_traces(client, breakdown))

        for endpoint, entry in sorted(summary["endpoints"].items()):
            print(
                f"{endpoint}: {entry['ok']}/{entry['dispatched']} ok "
                f"({entry['achieved_rps']:.1f}/{entry['offered_rps']:.1f} rps) "
                f"p50 {entry['p50_ms']:.1f} ms, p95 {entry['p95_ms']:.1f} ms, "
                f"p99 {entry['p99_ms']:.1f} ms, max {entry['max_ms']:.1f} ms"
                + (f", errors {entry['errors']}" if entry["errors"] else "")
            )
        hit_points = [
            point["cache_hit_ratio"]
            for point in result.trajectory
            if point.get("cache_hit_ratio") is not None
        ]
        if hit_points:
            print(
                f"cache hit ratio trajectory: first {hit_points[0]:.2f} "
                f"-> last {hit_points[-1]:.2f} over {len(hit_points)} samples"
            )
        print(
            f"connections accepted over the run: "
            f"{summary['connections']['accepted']} ({args.workers} workers)"
        )
        print(f"metrics/stats reconciliation: {consistency['checks']}")
        for endpoint, stages in sorted(breakdown["endpoints"].items()):
            fractions = stages.get("stage_fractions", {})
            print(
                f"trace stages {endpoint} ({stages['count']} traces): "
                + ", ".join(
                    f"{stage} {fraction * 100:.1f}%"
                    for stage, fraction in fractions.items()
                )
            )

        document = {
            "benchmark": "service_sustained_load",
            "pr": 7,
            "description": (
                "Open-loop sustained-load run against repro serve: "
                "per-endpoint rates compiled into an LCM-hyperperiod "
                "dispatch programme, latency measured from scheduled due "
                "times (coordinated-omission-free), with cache-hit and "
                "mean-batch-size trajectories sampled from /stats and a "
                "final /metrics vs /stats reconciliation "
                "(benchmarks/load_harness.py; see docs/service.md)."
            ),
            "smoke": args.smoke,
            "duration_s": result.duration_s,
            "workers": args.workers,
            "tick_s": args.tick,
            "cycle_s": cycle_s,
            "programme_entries": len(programme),
            "offered_rps": offered,
            "slo_p99_ms": SLO_P99_MS,
            "slo_achieved_ratio": SLO_ACHIEVED_RATIO,
            "endpoints": summary["endpoints"],
            "latency_windows": summary["latency_windows"],
            "service_trajectory": result.trajectory,
            "consistency": consistency,
            "trace_stages": breakdown,
            "acceptance": checks,
        }
        if not args.smoke:
            OUTPUT.write_text(
                json.dumps(document, indent=2) + "\n", encoding="utf-8"
            )
            print(f"results written to {OUTPUT}")

        failed = sorted(name for name, passed in checks.items() if not passed)
        if failed:
            print(f"SLO gate FAIL: {failed}")
            return 1
        print(
            f"SLO gate PASS: {len(checks)} checks "
            f"(zero lost, zero errors, p99 under "
            + ", ".join(
                f"{ep} {ms:g}ms" for ep, ms in sorted(SLO_P99_MS.items())
            )
            + ")"
        )
        return 0
    finally:
        if process is not None and process.poll() is None:
            process.send_signal(signal.SIGTERM)
            try:
                output = process.communicate(timeout=30)[0]
                if process.returncode != 0:
                    print(output)
                    print(f"server exited {process.returncode}", file=sys.stderr)
            except subprocess.TimeoutExpired:
                process.kill()
                process.communicate()


if __name__ == "__main__":
    sys.exit(main())
