"""End-to-end observability tests (PR 7): /metrics over HTTP, lifecycle
states in /health, the transport regressions the layer flushed out, and a
short in-process run of the sustained-load harness.

These tests exercise the full serving stack -- ``EvaluationService`` +
``ServiceHTTPServer`` on an ephemeral port, driven through
``ServiceClient`` -- and assert the PR 7 reconciliation contract: the
``/stats`` document, the ``/metrics`` JSON rendering and the Prometheus
text exposition all read the *same* counter objects, so their request
totals must agree exactly, never approximately.
"""

from __future__ import annotations

import http.client
import json
import socket
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import pytest

from repro.core.examples import figure1_task
from repro.core.exceptions import ServiceError
from repro.io.json_io import task_to_dict
from repro.service import (
    BatchRequest,
    EvaluationService,
    MicroBatcher,
    ServiceClient,
    start_server,
)
from repro.simulation.engine import simulate_makespan
from repro.simulation.platform import Platform
from repro.simulation.schedulers import policy_by_name

from batcher_plug import Plug
from strategies import make_random_heterogeneous_task
from test_metrics import parse_prometheus

_BENCHMARKS = str(Path(__file__).resolve().parent.parent / "benchmarks")
if _BENCHMARKS not in sys.path:
    sys.path.insert(0, _BENCHMARKS)

import load_harness  # noqa: E402  (benchmarks/ is not a package)


@pytest.fixture()
def served():
    """A fresh service + HTTP server + client (clean counters per test)."""
    service = EvaluationService()
    server, thread = start_server(service, port=0)
    client = ServiceClient(port=server.port, timeout=120)
    yield service, server, client
    client.close()
    server.shutdown()
    server.server_close()
    thread.join(timeout=10)
    service.close()


# ----------------------------------------------------------------------
# /metrics over HTTP: parity and reconciliation
# ----------------------------------------------------------------------
class TestMetricsEndpoint:
    def test_stats_and_metrics_reconcile_after_burst(self, served):
        service, _, client = served
        tasks = [make_random_heterogeneous_task(seed, 0.2) for seed in range(6)]
        with ThreadPoolExecutor(max_workers=12) as pool:
            futures = [
                pool.submit(client.simulate, task, cores)
                for task in tasks
                for cores in (2, 4)
            ] + [pool.submit(client.analyse, task, 2) for task in tasks[:3]]
            for future in futures:
                future.result(timeout=120)

        stats = client.stats()
        metrics = client.metrics()
        requests_by_kind = {
            series["labels"]["kind"]: series["value"]
            for series in metrics["counters"]["repro_service_requests_total"][
                "series"
            ]
        }
        assert requests_by_kind["simulate"] == stats["requests"]["simulate"] == 12
        assert requests_by_kind["analyse"] == stats["requests"]["analyse"] == 3
        assert sum(requests_by_kind.values()) == stats["requests"]["total"]

        latency_series = {
            series["labels"]["endpoint"]: series
            for series in metrics["histograms"]["repro_http_request_seconds"][
                "series"
            ]
        }
        assert latency_series["/simulate"]["count"] == 12
        assert latency_series["/analyse"]["count"] == 3
        for series in latency_series.values():
            assert series["count"] == sum(series["counts"])
            assert 0.0 <= series["p50"] <= series["p95"] <= series["p99"]

        responses = {
            (series["labels"]["endpoint"], series["labels"]["status"]):
                series["value"]
            for series in metrics["counters"]["repro_http_responses_total"][
                "series"
            ]
        }
        assert responses[("/simulate", "200")] == 12
        assert responses[("/analyse", "200")] == 3

    def test_kernel_counters_reconcile_with_trace_spans(self, served):
        """PR 10: ``repro_kernel_*`` rows equal the trace-leaf profiles.

        Both views are fed from the identical :class:`KernelBatchStats`
        records -- the counters aggregate them, the engine spans carry the
        merged profile in their ``kernel`` attribute -- so summing the
        (deduplicated) span profiles across every kept trace must
        reproduce the ``/metrics`` totals exactly.
        """
        service, _, client = served
        tasks = [make_random_heterogeneous_task(seed, 0.3) for seed in range(4)]
        for task in tasks:  # distinct tasks: all cache misses, engine runs
            assert client.simulate(task, cores=2) > 0

        # Traces finish after the response write -- let them land.
        deadline = time.monotonic() + 5.0
        while (
            service.tracer.ring_stats()["kept"] < len(tasks)
            and time.monotonic() < deadline
        ):
            time.sleep(0.01)

        metrics = client.metrics()
        steps_total = sum(
            series["value"]
            for series in metrics["counters"]["repro_kernel_steps_total"][
                "series"
            ]
        )
        events_total = sum(
            series["value"]
            for series in metrics["counters"]["repro_kernel_events_total"][
                "series"
            ]
        )
        occupancy_batches = sum(
            series["count"]
            for series in metrics["histograms"]["repro_kernel_lane_occupancy"][
                "series"
            ]
        )

        span_steps = span_events = span_batches = 0
        seen: set = set()  # shared spans recur in every member trace
        for summary in client.traces(limit=100)["traces"]:
            payload = client.trace(summary["trace_id"])
            for span in payload["spans"]:
                kernel = span["attributes"].get("kernel")
                if not kernel or span["span_id"] in seen:
                    continue
                seen.add(span["span_id"])
                span_steps += kernel["steps"]
                span_events += kernel["events"]
                span_batches += kernel["batches"]
                assert 0.0 <= kernel["occupancy"] <= 1.0

        assert span_steps > 0 and span_events > 0
        assert steps_total == span_steps
        assert events_total == span_events
        assert occupancy_batches == span_batches

    def test_prometheus_text_matches_json_over_http(self, served):
        _, _, client = served
        task = figure1_task(period=20, deadline=15)
        client.simulate(task, cores=2)
        client.simulate(task, cores=4)

        document = client.metrics()  # JSON rendering
        samples = parse_prometheus(client.metrics(format="text"))

        for name, payload in document["counters"].items():
            for series in payload["series"]:
                key = (name, tuple(sorted(series["labels"].items())))
                # The text scrape itself is one /metrics response ahead of
                # the JSON scrape on exactly the /metrics-endpoint series.
                if series["labels"].get("endpoint") == "/metrics":
                    assert samples[key] >= series["value"]
                else:
                    assert samples[key] == series["value"], name
        histogram = document["histograms"]["repro_service_queue_wait_seconds"]
        for series in histogram["series"]:
            labels = tuple(sorted(series["labels"].items()))
            assert samples[(
                "repro_service_queue_wait_seconds_count", labels
            )] == series["count"]

    def test_metrics_content_negotiation(self, served):
        _, server, _ = served
        for accept, expected_type in (
            ("application/json", "application/json"),
            ("text/plain", "text/plain; version=0.0.4; charset=utf-8"),
            (None, "text/plain; version=0.0.4; charset=utf-8"),
        ):
            connection = http.client.HTTPConnection("127.0.0.1", server.port)
            headers = {"Accept": accept} if accept else {}
            connection.request("GET", "/metrics", headers=headers)
            response = connection.getresponse()
            body = response.read()
            assert response.status == 200
            assert response.headers["Content-Type"] == expected_type
            if expected_type == "application/json":
                assert "counters" in json.loads(body)
            else:
                assert b"# TYPE repro_http_request_seconds histogram" in body
            connection.close()

    def test_unknown_path_folds_into_other_label(self, served):
        _, _, client = served
        with pytest.raises(ServiceError):
            client._request("/definitely-not-an-endpoint")
        responses = client.metrics()["counters"]["repro_http_responses_total"]
        labelled = {
            series["labels"]["endpoint"] for series in responses["series"]
        }
        assert "other" in labelled
        assert "/definitely-not-an-endpoint" not in labelled

    def test_gauges_report_live_cache_state(self, served):
        _, _, client = served
        task = figure1_task(period=20, deadline=15)
        client.simulate(task, cores=2)
        client.simulate(task, cores=2)  # second hit comes from the cache
        gauges = client.metrics()["gauges"]
        [entries] = gauges["repro_service_cache_entries"]["series"]
        [ratio] = gauges["repro_service_cache_hit_ratio"]["series"]
        assert entries["value"] == 1
        assert ratio["value"] == pytest.approx(0.5)


# ----------------------------------------------------------------------
# /health lifecycle (satellite 2)
# ----------------------------------------------------------------------
class TestHealthLifecycle:
    def test_ok_then_closed_over_http(self, served):
        service, server, client = served
        assert client.health()["status"] == "ok"
        service.close()
        document = client.health()
        assert document["status"] == "closed"
        # and the transport reported it as a non-200 readiness failure:
        connection = http.client.HTTPConnection("127.0.0.1", server.port)
        connection.request("GET", "/health")
        response = connection.getresponse()
        response.read()
        assert response.status == 503
        connection.close()

    def test_draining_window_between_close_and_drained(self):
        """lifecycle() == 'draining' while the close-flush is in flight."""
        release = threading.Event()
        executing = threading.Event()

        def execute(batch):
            executing.set()
            assert release.wait(timeout=30)
            for request in batch:
                request.resolve(0.0)

        batcher = MicroBatcher(execute)
        Plug(batcher)  # the request below parks until close() flushes it
        try:
            batcher.submit(
                BatchRequest(
                    kind="simulate",
                    fingerprint="f" * 40,
                    group_key=(),
                    task=None,
                    params={},
                )
            )
            closer = threading.Thread(target=batcher.close)
            closer.start()
            assert executing.wait(timeout=30)  # close-flush has been taken
            assert batcher.closed
            assert not batcher.drained  # the observable "draining" state
        finally:
            release.set()
        closer.join(timeout=30)
        assert batcher.drained


# ----------------------------------------------------------------------
# Transfer-encoding regressions (satellite 3)
# ----------------------------------------------------------------------
def _raw_post(port: int, payload: bytes, headers: dict[str, str]) -> tuple[int, dict]:
    connection = http.client.HTTPConnection("127.0.0.1", port, timeout=30)
    connection.putrequest("POST", "/simulate", skip_accept_encoding=True)
    for name, value in headers.items():
        connection.putheader(name, value)
    connection.endheaders()
    if payload:
        connection.send(payload)
    response = connection.getresponse()
    body = json.loads(response.read().decode("utf-8"))
    status = response.status
    connection.close()
    return status, body


class TestTransferEncoding:
    def test_chunked_body_is_decoded(self, served):
        _, server, _ = served
        task = figure1_task(period=20, deadline=15)
        document = json.dumps({"task": task_to_dict(task), "cores": 2}).encode()
        # split into two chunks to exercise reassembly
        half = len(document) // 2
        chunked = b"".join(
            b"%x\r\n%s\r\n" % (len(part), part)
            for part in (document[:half], document[half:])
            if part
        ) + b"0\r\n\r\n"
        status, body = _raw_post(
            server.port, chunked, {"Transfer-Encoding": "chunked"}
        )
        assert status == 200
        assert body["makespan"] == simulate_makespan(
            task, Platform(2), policy_by_name("breadth-first")
        )

    def test_unsupported_transfer_encoding_rejected_501(self, served):
        _, server, _ = served
        status, body = _raw_post(
            server.port, b"", {"Transfer-Encoding": "gzip, chunked"}
        )
        assert status == 501
        assert body["error"]["code"] == "unsupported-transfer-encoding"
        assert body["error"]["retryable"] is False

    def test_malformed_chunk_size_rejected_400(self, served):
        _, server, _ = served
        status, body = _raw_post(
            server.port,
            b"zzz\r\nnot hex\r\n0\r\n\r\n",
            {"Transfer-Encoding": "chunked"},
        )
        assert status == 400
        assert body["error"]["code"] == "bad-request"

    def test_bodyless_post_rejected_400(self, served):
        _, server, _ = served
        status, body = _raw_post(server.port, b"", {"Content-Length": "0"})
        assert status == 400
        assert "chunked transfer-encoding" in body["error"]["message"]

    @pytest.mark.parametrize(
        ("length", "status", "code"),
        [
            ("-1", 400, "bad-request"),  # int() takes it; read(-1) reads to EOF
            ("1e3", 400, "bad-request"),
            ("99999999999", 413, "payload-too-large"),
        ],
    )
    def test_bad_content_length_answered_and_closed(
        self, served, length, status, code
    ):
        _, server, _ = served
        # The body is never sent: the server must answer from the header
        # alone and close the connection, or this read times out.
        with socket.create_connection(("127.0.0.1", server.port), timeout=5) as sock:
            sock.sendall(
                b"POST /simulate HTTP/1.1\r\nHost: localhost\r\n"
                b"Content-Length: %s\r\n\r\n" % length.encode()
            )
            response = b""
            while chunk := sock.recv(65536):
                response += chunk
        head, _, body = response.partition(b"\r\n\r\n")
        assert int(head.split()[1]) == status
        assert b"\r\nconnection: close" in head.lower()
        assert json.loads(body)["error"]["code"] == code

        task = figure1_task(period=20, deadline=15)
        with ServiceClient(port=server.port, timeout=5, retries=0) as client:
            assert client.simulate(task, cores=2) == simulate_makespan(
                task, Platform(2), policy_by_name("breadth-first")
            )


# ----------------------------------------------------------------------
# Load harness, in process (satellite 4)
# ----------------------------------------------------------------------
class TestLoadHarnessInProcess:
    def test_short_run_complete_and_monotone(self, served):
        _, server, _ = served
        client = ServiceClient(port=server.port, timeout=60, retries=0)
        rates = {"/simulate": 20.0, "/analyse": 5.0, "/health": 5.0}
        duration = 2.0

        result = load_harness.run_load(
            client, rates, duration=duration, workers=16
        )
        cycle_s, programme = load_harness.compute_schedule(rates)
        offered = load_harness.offered_rates(cycle_s, programme)
        summary = load_harness.summarise(result, offered)

        # complete: every dispatched request produced exactly one sample
        for endpoint, entry in summary["endpoints"].items():
            assert entry["lost"] == 0, (endpoint, entry)
            assert entry["errors"] == {}, (endpoint, entry)
            assert entry["dispatched"] == entry["completed"]
            assert entry["p50_ms"] <= entry["p99_ms"] <= entry["max_ms"]

        # the dispatch programme replays the hyperperiod without drift
        expected = {
            endpoint: sum(1 for _, e in programme if e == endpoint)
            for endpoint in rates
        }
        cycles = duration / cycle_s
        for endpoint, per_cycle in expected.items():
            dispatched = summary["endpoints"][endpoint]["dispatched"]
            assert dispatched >= per_cycle * int(cycles)

        # windows tile the run: monotone starts, no window missing
        windows = summary["latency_windows"]
        starts = [window["start_s"] for window in windows]
        assert starts == sorted(starts)
        assert len(windows) >= int(duration)
        sampled = sum(
            entry["count"]
            for window in windows
            for entry in window["endpoints"].values()
        )
        assert sampled == sum(
            entry["ok"] for entry in summary["endpoints"].values()
        )

        # /metrics reconciles exactly with /stats and the dispatch ledger
        consistency = load_harness.check_consistency(client, summary)
        assert consistency["consistent"], consistency["checks"]
        client.close()

    def test_compute_schedule_rates_exact_over_hyperperiod(self):
        rates = {"/simulate": 40.0, "/analyse": 10.0, "/health": 5.0}
        cycle_s, programme = load_harness.compute_schedule(rates, tick=0.001)
        offered = load_harness.offered_rates(cycle_s, programme)
        for endpoint, rate in rates.items():
            assert offered[endpoint] == pytest.approx(rate, rel=0.05)
        offsets = [offset for offset, _ in programme]
        assert offsets == sorted(offsets)
        assert all(0.0 <= offset < cycle_s for offset in offsets)

    def test_compute_schedule_rejects_bad_input(self):
        with pytest.raises(ValueError, match="tick"):
            load_harness.compute_schedule({"/health": 1.0}, tick=0.0)
        with pytest.raises(ValueError, match="positive"):
            load_harness.compute_schedule({"/health": -1.0})
