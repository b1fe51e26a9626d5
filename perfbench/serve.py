"""serve-wire: ``repro serve`` driven over HTTP with paper-sized tasks.

The server runs in its own process with default flags (ephemeral port).
This process is its only client: ``SENDERS`` threads, each with its own
``ServiceClient`` (which opens one connection per request).

Requests carry Figure 6 preset task documents (n in [100, 250]):
``/simulate`` on one host size drawn from {2, 4, 8, 16} and ``/analyse``
on all four, 3 : 1.  In every block of four consecutive requests one is
new -- a document never sent before, so a cache miss -- and three repeat,
byte for byte, a request at least ``LAG`` positions earlier that has been
answered, so they are cache hits and never joins of an in-flight request.
A hit costs transport, JSON and task decode, compile and fingerprint; a
miss also goes through the micro-batcher, ``transform`` and the engines.

After set-up and ``PRIMING`` sequential new requests the window runs
``SLICES`` slices, each:

* open loop -- a fixed schedule of ``OPEN_RATE`` requests per second (about
  a third of the closed-loop throughput of the commit that defined the
  benchmark); latency is timed from each request's due time;
* closed loop -- ``CLOSED_REQUESTS`` requests from the ``SENDERS`` clients
  back to back.

The server's CPU time over each phase is taken in reference seconds (see
:class:`harness.Speedometer`; the calibration samples run on this
process's main thread, which only waits for the senders meanwhile).

After the window every response is compared with the one-shot in-process
answer for its decoded document.

The gated metrics are ``setup_s``, ``peak_rss_mb`` (of the server) and
``work_s``, the server's CPU time over the window in reference seconds;
the latency percentiles, throughput and open-loop CPU per request are
printed on the notes line (see :func:`serve_wire` for why).
"""

from __future__ import annotations

import json
import os
import random
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

from harness import (
    CACHE,
    ROOT,
    SETUP_LAUNCHES,
    HostCounters,
    Outcome,
    Speedometer,
    Timing,
    end_to_end,
    percentile,
    proc_cpu_s,
    proc_peak_rss_mb,
    program_env,
    supported,
    timing_notes,
)
from layers import (
    Recorder,
    compile_metrics,
    engine_metrics,
    generator_metrics,
    not_called,
    transform_metrics,
)

#: Sender threads and connections of the client process (the host's nproc).
SENDERS = 2
#: Open-loop arrival rate in requests per second.
OPEN_RATE = 64.0
#: Share of the window spent in the open loop; the closed loop gets the rest.
OPEN_SHARE = 0.75
#: Requests of one closed-loop burst: about 0.6 s at the defining commit,
#: 2 s when the hypervisor steals a third of the host.
CLOSED_REQUESTS = 150
#: The window alternates open and closed loops in this many slices.  The
#: gated burst time, the p50s, CPU per request and throughput are medians
#: over the slices; the p95s pool the open-loop samples of every slice.
SLICES = 4
#: A repeat references a request at least this many positions earlier.
LAG = 8
#: New requests sent one by one before the window, so repeats have targets.
PRIMING = 16
#: Figure 6 preset structures in the task pool, each pinned at the paper's
#: 15 offloaded fractions: 1 500 tasks, 7 500 distinct requests.  A pool
#: this wide keeps the mean task size, and so the work of a window, within
#: a few percent between seeds.
POOL_DAGS = 100
CORES = (2, 4, 8, 16)
#: Every fourth new request is an ``/analyse``, the others ``/simulate``:
#: a fixed 3 : 1 mix, so the misses of every window cost alike.
ANALYSE_EVERY = 4


class Exhausted(Exception):
    """Every distinct request document has been sent."""


@dataclass
class Request:
    position: int
    document: int
    target: Optional[int]  # position of the repeated request; None when new
    due: float = 0.0
    sent: float = 0.0
    done: float = 0.0
    response: object = None
    error: Optional[str] = None
    answered: threading.Event = field(default_factory=threading.Event)

    @property
    def ok(self) -> bool:
        return self.error is None


class Plan:
    """The seeded request sequence: which document each position sends.

    Positions are drawn in order under the load generator's lock, so the
    sequence depends only on the seed, never on thread timing.
    """

    def __init__(self, seed: int, tasks: list[dict]) -> None:
        self.tasks = tasks
        self._rng = random.Random(seed)
        simulate = [(index, cores) for index in range(len(tasks)) for cores in CORES]
        analyse = list(range(len(tasks)))
        self._rng.shuffle(simulate)
        self._rng.shuffle(analyse)
        self._fresh = {"simulate": simulate, "analyse": analyse}
        self.documents: list[tuple[str, object]] = []
        self.requests: list[Request] = []
        self._new_offset = 0

    def next(self) -> Request:
        position = len(self.requests)
        if position < PRIMING:
            new = True
        else:
            offset = (position - PRIMING) % 4
            if offset == 0:
                self._new_offset = self._rng.randrange(4)
            new = offset == self._new_offset
        if new:
            last = len(self.documents) % ANALYSE_EVERY == ANALYSE_EVERY - 1
            endpoint = "analyse" if last else "simulate"
            if not self._fresh[endpoint]:
                raise Exhausted(endpoint)
            self.documents.append((endpoint, self._fresh[endpoint].pop()))
            request = Request(position, len(self.documents) - 1, None)
        else:
            target = self._rng.randrange(position - LAG + 1)
            request = Request(position, self.requests[target].document, target)
        self.requests.append(request)
        return request


def _task_pool(seed: int, recorder: Optional[Recorder] = None) -> list[dict]:
    from repro.experiments.config import paper_scale
    from repro.generator.presets import LARGE_TASKS_FIG6
    from repro.generator.sweep import chunked_offload_fraction_sweep
    from repro.io.json_io import task_to_dict

    def generate():
        return chunked_offload_fraction_sweep(
            fractions=paper_scale().fractions,
            dags_per_point=POOL_DAGS,
            generator_config=LARGE_TASKS_FIG6,
            root_seed=seed,
        )

    points = generate() if recorder is None else recorder.call("generator", generate)
    tasks = [task for point in points for task in point.tasks]
    if recorder is not None:
        for task in tasks:
            recorder.count("generator.tasks")
            recorder.count("generator.nodes", len(task.graph))
            recorder.count("generator.edges", task.graph.edge_count)
    return [task_to_dict(task) for task in tasks]


class Server:
    """One ``repro serve`` process on an ephemeral port, up to its first
    answered simulation and analysis (the lazy part of its set-up)."""

    def __init__(self, summary: Optional[Path] = None) -> None:
        from repro.core.examples import figure1_task
        from repro.io.json_io import task_to_dict
        from repro.service.client import ServiceClient
        from repro.core.exceptions import ServiceError

        port_file = CACHE / f"serve-{os.getpid()}.port"
        port_file.unlink(missing_ok=True)
        flags = ["--port", "0", "--port-file", str(port_file)]
        if summary is None:
            argv = [sys.executable, "-m", "repro", "serve", *flags]
        else:
            launcher = Path(__file__).with_name("serve_launcher.py")
            argv = [sys.executable, str(launcher), str(summary), *flags]
        self.log = open(CACHE / f"serve-{os.getpid()}.log", "ab")
        started = time.perf_counter()
        self.process = subprocess.Popen(
            argv, cwd=ROOT, env=program_env(), stdout=self.log, stderr=subprocess.STDOUT
        )

        def waiting() -> bool:
            if self.process.poll() is not None or time.perf_counter() - started > 60:
                raise RuntimeError("the server did not start; see .perfbench_cache logs")
            time.sleep(0.002)
            return True

        try:
            while not (port_file.is_file() and port_file.read_text().endswith("\n")):
                waiting()
            self.port = int(port_file.read_text())
            client = ServiceClient(port=self.port, retries=0, timeout=30.0)
            while waiting():
                try:
                    if client.health()["status"] == "ok":
                        break
                except ServiceError:
                    pass
            warm = task_to_dict(figure1_task())
            client.simulate(warm, cores=2)
            client.analyse(warm, cores=list(CORES))
            self.setup_s = time.perf_counter() - started
            self.setup_cpu_s = self.cpu_s()
        except BaseException:
            self.stop()
            raise

    def cpu_s(self) -> float:
        return proc_cpu_s(self.process.pid)

    def peak_rss_mb(self) -> float:
        return proc_peak_rss_mb(self.process.pid)

    def stop(self) -> None:
        """SIGTERM, which drains the service; waits until the process has ended."""
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGTERM)
            try:
                self.process.wait(timeout=60)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait()
        self.log.close()


class LoadGenerator:
    """Sends a plan's requests to one server from ``SENDERS`` threads."""

    def __init__(self, plan: Plan, port: int) -> None:
        from repro.service.client import ServiceClient

        self.plan = plan
        self.clients = [
            ServiceClient(port=port, retries=0, timeout=60.0) for _ in range(SENDERS)
        ]
        self.lock = threading.Lock()
        self.repeat_waits = 0

    def send(self, client, request: Request) -> None:
        if request.target is not None:
            target = self.plan.requests[request.target]
            if not target.answered.is_set():
                with self.lock:
                    self.repeat_waits += 1
                target.answered.wait(120)
        endpoint, item = self.plan.documents[request.document]
        request.sent = time.perf_counter()
        try:
            if endpoint == "simulate":
                task, cores = item
                request.response = client.simulate(self.plan.tasks[task], cores=cores)
            else:
                request.response = client.analyse(self.plan.tasks[item], cores=list(CORES))
        except Exception as error:  # noqa: BLE001 - a failed request is reported, not fatal
            request.error = f"{type(error).__name__}: {error}"
        request.done = time.perf_counter()
        request.answered.set()

    def _run(self, sender) -> None:
        threads = [threading.Thread(target=sender, args=(client,)) for client in self.clients]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()

    def prime(self) -> None:
        for _ in range(PRIMING):
            self.send(self.clients[0], self.plan.next())

    def open_loop(self, count: int) -> list[Request]:
        """``count`` requests due every ``1 / OPEN_RATE`` seconds."""
        taken: list[Request] = []
        start = time.perf_counter() + 0.01

        def sender(client) -> None:
            while True:
                with self.lock:
                    if len(taken) >= count:
                        return
                    try:
                        request = self.plan.next()
                    except Exhausted:
                        return
                    request.due = start + len(taken) / OPEN_RATE
                    taken.append(request)
                delay = request.due - time.perf_counter()
                if delay > 0:
                    time.sleep(delay)
                self.send(client, request)

        self._run(sender)
        return taken

    def closed_loop(self, count: int) -> list[Request]:
        """``count`` requests sent back to back."""
        taken: list[Request] = []

        def sender(client) -> None:
            while True:
                with self.lock:
                    if len(taken) >= count:
                        return
                    try:
                        request = self.plan.next()
                    except Exhausted:
                        return
                    taken.append(request)
                request.due = time.perf_counter()
                self.send(client, request)

        self._run(sender)
        return taken


# ----------------------------------------------------------------------
# Server-side counters (GET /stats, GET /metrics)
# ----------------------------------------------------------------------
def _series(metrics: dict, kind: str, name: str, endpoints=None) -> list[dict]:
    series = metrics[kind].get(name, {}).get("series", [])
    if endpoints is None:
        return series
    return [entry for entry in series if entry["labels"].get("endpoint") in endpoints]


def _counter(metrics: dict, name: str, endpoints=None) -> float:
    return sum(entry["value"] for entry in _series(metrics, "counters", name, endpoints))


def _histogram(metrics: dict, name: str, endpoints=None) -> tuple[float, float]:
    """``(count, sum)`` of a histogram over the matching series."""
    series = _series(metrics, "histograms", name, endpoints)
    return sum(entry["count"] for entry in series), sum(entry["sum"] for entry in series)


POSTS = ("/simulate", "/analyse")


# ----------------------------------------------------------------------
# Checks
# ----------------------------------------------------------------------
def _expected(plan: Plan) -> list[object]:
    """One-shot in-process answer for every document the plan sent."""
    from repro.analysis.batch import analyse_many
    from repro.io.json_io import task_from_dict
    from repro.service.facade import analysis_payload, build_policy
    from repro.simulation.engine import simulate_makespan
    from repro.simulation.platform import Platform

    answers = []
    for endpoint, item in plan.documents:
        if endpoint == "simulate":
            task, cores = item
            answers.append(simulate_makespan(
                task_from_dict(plan.tasks[task]),
                Platform(host_cores=cores, accelerators=1),
                build_policy("breadth-first"),
            ))
        else:
            analysis = analyse_many([task_from_dict(plan.tasks[item])], cores=CORES)[0]
            answers.append(json.loads(json.dumps(analysis_payload(analysis))))
    return answers


def _check(outcome: Outcome, plan: Plan, label: str) -> None:
    expected = _expected(plan)
    for request in plan.requests:
        operation = f"{label}#{request.position}"
        if not request.ok:
            outcome.fail(operation, request.error)
        else:
            outcome.check(
                request.response == expected[request.document], operation,
                "response differs from the one-shot in-process answer",
            )
    outcome.attempted += len(plan.requests)


def _phase(requests: list[Request]) -> dict:
    return {
        "sent": len(requests),
        "succeeded": sum(request.ok for request in requests),
        "failed": sum(not request.ok for request in requests),
    }


def _lateness(outcome: Outcome, slices: list[list[Request]]) -> None:
    """Generator lateness per open-loop phase, and whether the backlog
    grew: pooled over every phase, the last tenth of each started more
    than three arrival gaps late in the median.

    A growing backlog is reported, not counted as a failed operation: it
    says the server could not keep up with the fixed rate, which on this
    shared host happens when the hypervisor steals a third of the time,
    while every answer can still be right.
    """
    tails = []
    for requests in slices:
        late_ms = [1e3 * (request.sent - request.due) for request in requests]
        tail = late_ms[-max(1, len(late_ms) // 10):]
        tails.extend(tail)
        outcome.notes.setdefault("open_lateness_ms", []).append({
            "p50": statistics.median(late_ms),
            "max": max(late_ms),
            "last_tenth_p50": statistics.median(tail),
        })
    growing = statistics.median(tails) > 3e3 / OPEN_RATE
    outcome.notes["open_backlog_growing"] = growing
    if growing:
        print("perfbench: the open-loop backlog grew; the latency notes of this run "
              "describe an overloaded server", file=sys.stderr)


def _latencies_ms(requests: list[Request], hits: bool) -> list[float]:
    return [
        1e3 * (request.done - request.due)
        for request in requests
        if request.ok and (request.target is not None) == hits
    ]


@dataclass
class Slice:
    """One open-loop phase and the closed-loop burst after it."""

    opened: list[Request]
    phase: Timing  # server CPU time over the open-loop phase
    closed: list[Request]
    burst: Timing  # server CPU time over the closed-loop burst
    steal_pct: Optional[float]

    def p50_ms(self, hits: bool) -> float:
        return statistics.median(_latencies_ms(self.opened, hits))

    def cpu_ms_per_req(self) -> float:
        return 1e3 * self.phase.seconds / sum(request.ok for request in self.opened)

    def rps(self) -> float:
        return sum(request.ok for request in self.closed) / self.burst.wall_s

    def summary(self) -> dict:
        return {
            "hit_p50_ms": self.p50_ms(True),
            "miss_p50_ms": self.p50_ms(False),
            "cpu_ms_per_req": self.cpu_ms_per_req(),
            "rps": self.rps(),
            "open_reference_s": self.phase.reference_s,
            "burst_reference_s": self.burst.reference_s,
            "steal_pct": self.steal_pct,
        }


def _launch(meter: Speedometer, summary: Optional[Path] = None) -> tuple[Server, Timing]:
    """Start a server; its CPU time up to ready, at the CPU-clock speed
    meanwhile.  The server does not exist before the launch, so its CPU
    time starts from zero."""
    timing, server = meter.measure(lambda: Server(summary), lambda: 0.0)
    return server, Timing(server.setup_cpu_s, timing.speed, server.setup_s)


# ----------------------------------------------------------------------
# The workload
# ----------------------------------------------------------------------
def serve_wire(seed: int, seconds: float, trace: bool) -> Outcome:
    from repro.service.client import ServiceClient
    from repro.simulation.vectorized_compiled import resolve_backend

    resolve_backend("auto")  # builds the pinned kernel cache now, outside setup_s
    host = HostCounters()
    meter = Speedometer()
    outcome = Outcome()
    if trace:
        return _traced(outcome, seed, seconds, host, meter)
    tasks = _task_pool(seed)

    setups = []
    for _ in range(SETUP_LAUNCHES - 1):
        server, timing = _launch(meter)
        server.stop()
        setups.append(timing)
    server, timing = _launch(meter)
    setups.append(timing)
    slices: list[Slice] = []
    open_count = round(OPEN_RATE * OPEN_SHARE * seconds / SLICES)
    try:
        plan = Plan(seed, tasks)
        load = LoadGenerator(plan, server.port)
        control = ServiceClient(port=server.port, retries=0, timeout=30.0)
        load.prime()
        before = control.stats()
        for _ in range(SLICES):
            steal = HostCounters()
            phase, opened = meter.measure(lambda: load.open_loop(open_count), server.cpu_s)
            burst, closed = meter.measure(lambda: load.closed_loop(CLOSED_REQUESTS), server.cpu_s)
            slices.append(Slice(opened, phase, closed, burst, steal.summary()["steal_pct"]))
        after = control.stats()
        peak_rss_mb = server.peak_rss_mb()
    finally:
        server.stop()

    open_requests = [request for piece in slices for request in piece.opened]
    closed_requests = [request for piece in slices for request in piece.closed]
    phases = [timing for piece in slices for timing in (piece.phase, piece.burst)]
    # The pass is the whole window: the server's CPU time over every
    # phase, each at the CPU-clock speed measured during it.
    outcome.metrics = end_to_end(setups, peak_rss_mb, sum(timing.reference_s for timing in phases))
    outcome.notes.update(timing_notes(setups, phases))
    # Served latency, throughput and server CPU per request are printed on
    # the notes line of every run but not gated.  On a 2-vCPU guest shared
    # with other tenants the host's speed drifts by a quarter within
    # seconds; the open-loop percentiles cannot be rescaled by it (they
    # mix waiting and work), and in four sets of ten seeds their quartile
    # spread was 0.21-0.47 for the p50s and 0.39-0.99 for the p95s,
    # against a cap of 0.25 on any bound.
    ungated = {}
    for label, hits in (("hit", True), ("miss", False)):
        ungated[f"{label}_p50_ms"] = statistics.median(piece.p50_ms(hits) for piece in slices)
        pooled = _latencies_ms(open_requests, hits)
        if supported(len(pooled), 0.95):
            ungated[f"{label}_p95_ms"] = percentile(pooled, 0.95)
        outcome.notes[f"open_{label}_samples"] = len(pooled)
    ungated["max_rps"] = statistics.median(piece.rps() for piece in slices)
    ungated["cpu_ms_per_req"] = statistics.median(piece.cpu_ms_per_req() for piece in slices)
    outcome.notes["ungated"] = {
        name: {"value": value, "unit": "1/s" if name == "max_rps" else "ms"}
        for name, value in ungated.items()
    }
    outcome.notes["phases"] = {"open": _phase(open_requests), "closed": _phase(closed_requests)}
    outcome.notes["slices"] = [piece.summary() for piece in slices]
    outcome.notes["repeat_waits"] = load.repeat_waits
    outcome.notes.update(host.summary())
    _lateness(outcome, [piece.opened for piece in slices])
    joins = after["engine"]["inflight_joins"] - before["engine"]["inflight_joins"]
    outcome.check(joins == 0, "joins", f"{joins} repeats joined an in-flight request")
    _check(outcome, plan, "req")
    return outcome


def _traced(outcome: Outcome, seed: int, seconds: float, host, meter: Speedometer) -> Outcome:
    """A plain server, the instrumented launcher and a plain server again
    take the same plan: an open-loop phase, then a closed-loop burst.
    Per-layer metrics come from the instrumented server; the overhead
    compares its CPU time in reference seconds with the plain servers'."""
    from repro.service.client import ServiceClient

    recorder = Recorder()
    tasks = _task_pool(seed, recorder)
    open_count = round(OPEN_RATE * seconds / 4)
    untraced_plans: list[Plan] = []
    untraced_s: list[float] = []  # server CPU over each plain server's window

    def untraced_phase() -> None:
        untraced_plans.append(Plan(seed, tasks))
        server, _ = _launch(meter)
        try:
            load = LoadGenerator(untraced_plans[-1], server.port)
            load.prime()
            phase, _ = meter.measure(lambda: load.open_loop(open_count), server.cpu_s)
            burst, _ = meter.measure(lambda: load.closed_loop(CLOSED_REQUESTS), server.cpu_s)
            untraced_s.append(phase.reference_s + burst.reference_s)
        finally:
            server.stop()

    untraced_phase()
    summary_path = CACHE / f"serve-{os.getpid()}-layers.json"
    summary_path.unlink(missing_ok=True)
    plan = Plan(seed, tasks)
    server, _ = _launch(meter, summary_path)
    try:
        load = LoadGenerator(plan, server.port)
        control = ServiceClient(port=server.port, retries=0, timeout=30.0)
        load.prime()
        stats_before, metrics_before = control.stats(), control.metrics()
        phase, opened = meter.measure(lambda: load.open_loop(open_count), server.cpu_s)
        burst, closed = meter.measure(lambda: load.closed_loop(CLOSED_REQUESTS), server.cpu_s)
        traced_s = phase.reference_s + burst.reference_s
        stats_after, metrics_after = control.stats(), control.metrics()
    finally:
        server.stop()
    untraced_phase()
    summary = json.loads(summary_path.read_text(encoding="utf-8"))
    layers, counts = summary["layers"], summary["counts"]
    counts.update(recorder.counts)
    layers.update(recorder.layers())

    window = opened + closed
    sent = len(window)
    new = [request for request in window if request.target is None]
    analyse_new = sum(plan.documents[request.document][0] == "analyse" for request in new)

    def delta(section: str, key: str) -> float:
        return stats_after[section][key] - stats_before[section][key]

    def counter(name: str, endpoints=None) -> float:
        return _counter(metrics_after, name, endpoints) - _counter(metrics_before, name, endpoints)

    def histogram(name: str, endpoints=None) -> tuple[float, float]:
        after = _histogram(metrics_after, name, endpoints)
        before = _histogram(metrics_before, name, endpoints)
        return after[0] - before[0], after[1] - before[1]

    http_count, http_s = histogram("repro_http_request_seconds", POSTS)
    batch_count, batch_sum = histogram("repro_service_batch_size")
    occupancy_count, occupancy_sum = histogram("repro_kernel_lane_occupancy")
    client_s = sum(request.done - request.sent for request in window)
    transport_s = client_s - http_s
    hits = delta("cache", "hits")

    def busy(*names: str) -> float:
        return sum(layers[name]["busy_s"] for name in names if name in layers)

    def own(*names: str) -> float:
        return sum(layers[name]["self_s"] for name in names if name in layers)

    request_path = busy("json.decode", "task.decode", "facade.hit", "facade.miss", "json.encode")
    outcome.metrics = {
        "trace.coverage": ((transport_s + request_path) / client_s, "ratio"),
        "tracing.overhead_pct": (100.0 * (traced_s / statistics.fmean(untraced_s) - 1.0), "%"),
        **generator_metrics(layers, counts),
        **compile_metrics(layers),
        **engine_metrics(
            layers, counter("repro_kernel_steps_total"), counter("repro_kernel_events_total"),
            occupancy_sum / occupancy_count,
        ),
        **transform_metrics(layers, counts, client_s),
        "decode.share": (busy("json.decode", "task.decode") / client_s, "ratio"),
        # The fingerprint compiles the task first; that part is compile.busy_s.
        "fingerprint.share": (own("fingerprint") / client_s, "ratio"),
        "facade.share": (own("facade.hit", "facade.miss") / client_s, "ratio"),
        "analyse.share": (own("analyse") / client_s, "ratio"),
        "encode.share": (busy("json.encode") / client_s, "ratio"),
        "transport.share": (transport_s / client_s, "ratio"),
        "cache.hit_ratio": (hits / (hits + delta("cache", "misses")), "ratio"),
        "batcher.batches": (delta("batching", "batches"), "count"),
        "batcher.batch_size": (batch_sum / batch_count, "count"),
        "http.request_bytes": (counter("repro_http_request_bytes_total", POSTS) / http_count, "B"),
        "http.response_bytes": (counter("repro_http_response_bytes_total", POSTS) / http_count, "B"),
        **not_called("experiments", "workload"),
    }
    outcome.notes["layers"] = layers
    outcome.notes["counts"] = counts
    outcome.notes["requests"] = {"sent": sent, "new": len(new), "analyse_new": analyse_new}
    outcome.notes["phases"] = {"traced_open": _phase(opened), "traced_closed": _phase(closed)}
    outcome.notes["server_reference_s"] = {"untraced": untraced_s, "traced": traced_s}
    outcome.notes.update(host.summary())
    for index, untraced_plan in enumerate(untraced_plans):
        _check(outcome, untraced_plan, f"untraced{index}")
    _check(outcome, plan, "traced")
    return outcome
