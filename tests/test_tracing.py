"""Request-tracing tests (PR 10): span trees, the tail-sampled ring, and
trace-carrying structured logs.

Three layers are exercised:

* the :mod:`repro.service.tracing` substrate in isolation -- trace-id
  coercion, disabled-mode inertness, tail sampling, the ring's byte-cap
  invariant, span nesting, the Chrome export and the tree renderer;
* the traced serving stack end to end -- ``X-Repro-Trace-Id`` propagation
  through :class:`ServiceClient`, span trees for real ``/simulate``
  requests, one shared ``batcher.flush`` span per coalesced batch, and
  the burst invariant that every accepted request yields exactly one
  complete trace;
* the error path -- the HTTP envelope carries ``trace_id`` across
  429/500/503/504 and the mapped client exceptions surface it.
"""

from __future__ import annotations

import io
import json
import logging
import threading
import time
import urllib.error
import urllib.request
from collections import deque
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.core.examples import figure1_task
from repro.core.exceptions import (
    ServiceClosedError,
    ServiceError,
    ServiceOverloadedError,
    ServiceTimeoutError,
)
from repro.io.json_io import task_to_dict
from repro.service import (
    EvaluationService,
    JsonLogFormatter,
    ServiceClient,
    Tracer,
    chrome_trace,
    configure_logging,
    current_trace_id,
    new_trace_id,
    start_server,
)
from repro.service.tracing import (
    NULL_SPAN,
    TRACE_HEADER,
    coerce_trace_id,
    render_trace_tree,
)
from repro.simulation.platform import Platform

from batcher_plug import Plug
from strategies import make_random_heterogeneous_task


#: Monotonic-clock readings taken on different threads can disagree by a
#: hair; span-nesting assertions allow this much slack (milliseconds).
CLOCK_SLACK_MS = 1.0


@pytest.fixture()
def served():
    """A fresh traced service + HTTP server + client per test."""
    service = EvaluationService()
    server, thread = start_server(service, port=0)
    client = ServiceClient(port=server.port, timeout=120)
    yield service, server, client
    client.close()
    server.shutdown()
    server.server_close()
    thread.join(timeout=10)
    service.close()


def _wait_for_trace(tracer, trace_id, timeout=5.0):
    """Poll the ring for ``trace_id``.

    The handler finishes a trace *after* flushing the response (the root
    span covers the write), so a client that reacts immediately can beat
    the server thread's ``finally`` to the ring.
    """
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        payload = tracer.get_trace(trace_id)
        if payload is not None:
            return payload
        time.sleep(0.005)
    raise AssertionError(f"trace {trace_id} never reached the ring")


def _finished_trace(tracer, name="t", *, spans=(), error=False):
    """Start, populate and finish one trace; return its id."""
    trace = tracer.start_trace(name)
    with tracer.activate(trace):
        for span_name in spans:
            with tracer.span(span_name):
                pass
    tracer.finish_trace(trace, error=error)
    return trace.trace_id


# ----------------------------------------------------------------------
# Substrate: ids, sampling, the ring, payload shape
# ----------------------------------------------------------------------
class TestTracerUnit:
    def test_trace_id_coercion(self):
        good = new_trace_id()
        assert coerce_trace_id(good) == good
        for junk in (None, "", "not hex!", "ABC", "x" * 200):
            coerced = coerce_trace_id(junk)
            assert coerced != junk
            int(coerced, 16)  # replacement ids are well-formed hex
        # Distinct calls never collide on the replacement path.
        assert coerce_trace_id(None) != coerce_trace_id(None)

    def test_invalid_construction_rejected(self):
        with pytest.raises(ValueError, match="sample"):
            Tracer(sample=1.5)
        with pytest.raises(ValueError, match="ring_bytes"):
            Tracer(ring_bytes=-1)

    def test_disabled_tracer_is_inert(self):
        tracer = Tracer(enabled=False)
        assert tracer.start_trace("x") is None
        with tracer.activate(None) as active:
            assert active is None
            with tracer.span("child") as span:
                assert span is NULL_SPAN
                span.set("k", "v")  # must swallow silently
        tracer.finish_trace(None)
        assert tracer.new_shared_span("flush") is NULL_SPAN
        assert tracer.list_traces() == []
        stats = tracer.ring_stats()
        assert stats["enabled"] is False
        assert stats["started"] == stats["kept"] == 0

    def test_tail_sampling_always_keeps_errors(self):
        tracer = Tracer(sample=0.0)
        for _ in range(10):
            _finished_trace(tracer)
        error_id = _finished_trace(tracer, error=True)
        stats = tracer.ring_stats()
        assert stats["started"] == 11
        assert stats["sampled_out"] == 10
        assert stats["kept"] == 1
        assert tracer.get_trace(error_id)["error"] is True
        only_errors = tracer.list_traces(errors=True)
        assert [t["trace_id"] for t in only_errors] == [error_id]

    def test_only_kept_traces_are_built_and_sized(self, monkeypatch):
        from repro.service import tracing

        built = []

        def counted(trace):
            payload = original(trace)
            built.append(payload)
            return payload

        original = tracing._trace_payload
        monkeypatch.setattr(tracing, "_trace_payload", counted)
        tracer = Tracer(sample=0.0)
        for _ in range(10):
            _finished_trace(tracer, spans=["a", "b", "c"])
        assert built == []  # sampled out: never built
        kept = [_finished_trace(tracer, error=True) for _ in range(3)]
        assert [payload["trace_id"] for payload in built] == kept
        stats = tracer.ring_stats()
        assert stats["sampled_out"] == 10 and stats["kept"] == 3
        assert stats["ring_bytes"] == sum(
            len(json.dumps(payload, separators=(",", ":"), default=str))
            for payload in built
        )

    def test_slow_threshold_recomputed_every_16th_finished_trace(
        self, monkeypatch
    ):
        # The duration window holds the last 512 traces; once it is full its
        # length stays 512, so a recompute keyed on the length ran on every
        # trace.  Keyed on finished traces: 31 over the first 512, 63 over
        # 1 024.
        recomputes = []
        original = Tracer._update_slow_threshold

        def counted(self):
            recomputes.append(self._finished)
            original(self)

        monkeypatch.setattr(Tracer, "_update_slow_threshold", counted)
        tracer = Tracer(sample=0.0)  # keeps only the slow traces
        window: deque = deque(maxlen=512)
        threshold = float("inf")
        expected = []
        for position in range(1024):
            trace_id = f"trace-{position:04d}"
            trace = tracer.start_trace("req", trace_id=trace_id)
            trace.root.end = trace.root.start + ((position * 7919) % 1000) / 1e5
            duration_ms = (trace.root.end - trace.root.start) * 1e3
            tracer.finish_trace(trace)
            # The rule, written out: a trace is slow at or above the 95th
            # percentile of the window, recomputed after every 16th trace.
            if duration_ms >= threshold:
                expected.append(trace_id)
            window.append(duration_ms)
            if position + 1 >= 32 and (position + 1) % 16 == 0:
                threshold = sorted(window)[int(len(window) * 0.95)]
        assert len([count for count in recomputes if count <= 512]) == 31
        assert len(recomputes) == 63
        kept = [t["trace_id"] for t in tracer.list_traces(limit=2048)]
        assert kept[::-1] == expected
        assert expected

    def test_ring_byte_cap_evicts_oldest_first(self):
        tracer = Tracer(ring_bytes=4096)
        ids = [
            _finished_trace(tracer, spans=[f"step.{i}" for i in range(8)])
            for _ in range(64)
        ]
        stats = tracer.ring_stats()
        assert stats["ring_bytes"] <= stats["ring_capacity_bytes"]
        assert stats["evicted"] > 0
        assert stats["ring_traces"] + stats["evicted"] == 64
        # Oldest evicted, newest retained.
        assert tracer.get_trace(ids[0]) is None
        assert tracer.get_trace(ids[-1]) is not None
        newest_first = [t["trace_id"] for t in tracer.list_traces(limit=1000)]
        assert newest_first[0] == ids[-1]
        assert newest_first == list(reversed(ids[-len(newest_first):]))

    def test_single_trace_larger_than_cap_is_dropped(self):
        tracer = Tracer(ring_bytes=64)
        _finished_trace(tracer, spans=["a", "b", "c"])
        stats = tracer.ring_stats()
        assert stats["ring_traces"] == 0
        assert stats["ring_bytes"] == 0

    def test_span_payload_nesting_and_error_flag(self):
        tracer = Tracer()
        trace = tracer.start_trace("req", attributes={"path": "/x"})
        with tracer.activate(trace):
            assert current_trace_id() == trace.trace_id
            with tracer.span("outer", attributes={"k": 1}):
                with tracer.span("inner"):
                    pass
            with pytest.raises(RuntimeError):
                with tracer.span("boom"):
                    raise RuntimeError("fail inside span")
        assert current_trace_id() is None
        tracer.finish_trace(trace)
        payload = tracer.get_trace(trace.trace_id)
        by_name = {span["name"]: span for span in payload["spans"]}
        assert by_name["req"]["parent_id"] is None
        assert by_name["req"]["attributes"]["path"] == "/x"
        assert by_name["outer"]["parent_id"] == by_name["req"]["span_id"]
        assert by_name["inner"]["parent_id"] == by_name["outer"]["span_id"]
        assert by_name["boom"].get("error") is True
        for span in payload["spans"]:
            assert "incomplete" not in span
            parent = next(
                (
                    s
                    for s in payload["spans"]
                    if s["span_id"] == span["parent_id"]
                ),
                None,
            )
            if parent is not None:
                assert span["start_ms"] >= parent["start_ms"] - CLOCK_SLACK_MS
                assert (
                    span["start_ms"] + span["duration_ms"]
                    <= parent["start_ms"]
                    + parent["duration_ms"]
                    + CLOCK_SLACK_MS
                )


# ----------------------------------------------------------------------
# Exports: the tree renderer and the Chrome trace-event JSON
# ----------------------------------------------------------------------
class TestTraceExports:
    def _payload(self):
        tracer = Tracer()
        trace_id = _finished_trace(
            tracer, "http.request", spans=["facade.submit", "cache.lookup"]
        )
        return tracer.get_trace(trace_id)

    def test_render_trace_tree_layout(self):
        payload = self._payload()
        text = render_trace_tree(payload)
        lines = text.splitlines()
        assert payload["trace_id"] in lines[0]
        assert "http.request" in lines[0]
        assert "ms" in lines[0]
        for name in ("facade.submit", "cache.lookup"):
            assert any(name in line and "%" in line for line in lines[1:])

    def test_render_marks_errors(self):
        tracer = Tracer()
        trace_id = _finished_trace(tracer, error=True)
        assert "[ERROR]" in render_trace_tree(tracer.get_trace(trace_id))

    def test_chrome_trace_events(self):
        payload = self._payload()
        document = chrome_trace(payload)
        events = document["traceEvents"]
        slices = [e for e in events if e["ph"] == "X"]
        assert {e["name"] for e in slices} == {
            "http.request",
            "facade.submit",
            "cache.lookup",
        }
        base_us = payload["start_unix"] * 1e6
        for event in slices:
            assert event["ts"] >= base_us - 1  # absolute microseconds
            assert event["dur"] >= 0
            assert event["args"]["span_id"]
        assert any(e["ph"] == "M" for e in events)  # track metadata
        assert document["otherData"]["trace_id"] == payload["trace_id"]


# ----------------------------------------------------------------------
# Structured logs carry the ambient trace id
# ----------------------------------------------------------------------
class TestJsonLogging:
    def _format(self, record_args, extra=None):
        formatter = JsonLogFormatter()
        record = logging.LogRecord(
            "repro.service.test", logging.INFO, __file__, 1,
            *record_args, None,
        )
        for key, value in (extra or {}).items():
            setattr(record, key, value)
        return json.loads(formatter.format(record))

    def test_plain_record_shape(self):
        document = self._format(("hello %s", ("world",)))
        assert document["message"] == "hello world"
        assert document["level"] == "info"
        assert document["logger"] == "repro.service.test"
        assert isinstance(document["ts"], float)
        assert "trace_id" not in document  # no ambient trace, no key

    def test_trace_id_from_record_and_data_merge(self):
        document = self._format(
            ("%s %s", ("GET", "/health")),
            extra={"trace_id": "cafe01", "data": {"status": 200}},
        )
        assert document["trace_id"] == "cafe01"
        assert document["status"] == 200

    def test_trace_id_from_ambient_trace(self):
        tracer = Tracer()
        trace = tracer.start_trace("req")
        with tracer.activate(trace):
            document = self._format(("in-request", ()))
        tracer.finish_trace(trace)
        assert document["trace_id"] == trace.trace_id

    def test_configure_logging_idempotent_and_validating(self):
        stream = io.StringIO()
        logger = configure_logging("info", stream=stream)
        again = configure_logging("info", stream=stream)
        assert logger is again
        assert len(logger.handlers) == 1
        logger.info("probe %d", 7)
        assert json.loads(stream.getvalue())["message"] == "probe 7"
        with pytest.raises(ValueError, match="log level"):
            configure_logging("loud")


# ----------------------------------------------------------------------
# End to end over HTTP: propagation, span trees, listings
# ----------------------------------------------------------------------
class TestHTTPTracing:
    def test_simulate_returns_trace_with_nested_spans(self, served):
        service, _, client = served
        task = figure1_task(period=20, deadline=15)
        makespan = client.simulate(task, cores=2)
        assert makespan > 0
        trace_id = client.last_trace_id
        assert trace_id

        _wait_for_trace(service.tracer, trace_id)
        payload = client.trace(trace_id)
        assert payload["trace_id"] == trace_id
        assert payload["error"] is False
        by_name = {span["name"]: span for span in payload["spans"]}
        for name in (
            "http.request",
            "facade.submit",
            "cache.lookup",
            "batcher.queue",
            "batcher.flush",
        ):
            assert name in by_name, f"missing span {name}"
        root = by_name["http.request"]
        assert root["parent_id"] is None
        assert root["attributes"]["path"] == "/simulate"
        assert root["attributes"]["status"] == 200
        assert by_name["batcher.flush"].get("shared") is True
        # An engine leaf ran under the shared flush span.
        engines = [
            span
            for span in payload["spans"]
            if span["name"].startswith(("engine.", "oracle.", "workload."))
        ]
        assert engines
        assert all(
            span["parent_id"] == by_name["batcher.flush"]["span_id"]
            for span in engines
        )
        # Request-local spans nest inside the root and inside each other.
        submit = by_name["facade.submit"]
        for child in (by_name["cache.lookup"], by_name["batcher.queue"]):
            assert child["parent_id"] == submit["span_id"]
            assert child["start_ms"] >= submit["start_ms"] - CLOCK_SLACK_MS
            assert (
                child["start_ms"] + child["duration_ms"]
                <= submit["start_ms"] + submit["duration_ms"] + CLOCK_SLACK_MS
            )
        assert (
            submit["duration_ms"] <= root["duration_ms"] + CLOCK_SLACK_MS
        )

    def test_trace_header_round_trips_and_listing_sees_it(self, served):
        service, server, client = served
        task = figure1_task(period=20, deadline=15)
        chosen = new_trace_id()
        document = {"task": task_to_dict(task), "cores": 2}
        request = urllib.request.Request(
            f"http://127.0.0.1:{server.port}/simulate",
            data=json.dumps(document).encode(),
            headers={
                "Content-Type": "application/json",
                TRACE_HEADER: chosen,
            },
        )
        with urllib.request.urlopen(request) as response:
            assert response.headers[TRACE_HEADER] == chosen
        _wait_for_trace(service.tracer, chosen)
        listing = client.traces(limit=10)
        assert chosen in [t["trace_id"] for t in listing["traces"]]
        assert listing["ring"]["kept"] >= 1

    def test_chrome_format_and_not_found(self, served):
        service, _, client = served
        task = figure1_task(period=20, deadline=15)
        client.simulate(task, cores=2)
        _wait_for_trace(service.tracer, client.last_trace_id)
        chrome = client.trace(client.last_trace_id, format="chrome")
        assert any(e["ph"] == "X" for e in chrome["traceEvents"])
        with pytest.raises(ValueError, match="format"):
            client.trace(client.last_trace_id, format="svg")
        with pytest.raises(ServiceError, match="trace"):
            client.trace("feedfacefeedface")

    def test_mixed_burst_yields_one_complete_trace_per_request(self, served):
        service, _, client = served
        tasks = [make_random_heterogeneous_task(seed, 0.2) for seed in range(5)]
        with ThreadPoolExecutor(max_workers=12) as pool:
            futures = (
                [
                    pool.submit(client.simulate, task, cores)
                    for task in tasks
                    for cores in (2, 4)
                ]
                + [pool.submit(client.analyse, task, 2) for task in tasks[:3]]
                # The exact oracle needs integer WCETs; figure1 qualifies.
                + [
                    pool.submit(
                        client.makespan, figure1_task(period=20, deadline=15),
                        cores,
                    )
                    for cores in (2, 4)
                ]
            )
            for future in futures:
                future.result(timeout=120)

        # The root span covers the response write, so the handler finishes
        # the trace *after* flushing the response -- give each server
        # thread a beat to run its ``finally`` before asserting.
        deadline = time.monotonic() + 5.0
        while (
            service.tracer.ring_stats()["kept"] < len(futures)
            and time.monotonic() < deadline
        ):
            time.sleep(0.01)
        stats = service.tracer.ring_stats()
        assert stats["started"] == len(futures)
        assert stats["kept"] == len(futures)  # sample=1.0: nothing dropped
        assert stats["sampled_out"] == 0
        assert stats["ring_bytes"] <= stats["ring_capacity_bytes"]

        listing = client.traces(limit=len(futures) + 10)
        assert len(listing["traces"]) == len(futures)
        for summary in listing["traces"]:
            payload = client.trace(summary["trace_id"])
            roots = [s for s in payload["spans"] if s["parent_id"] is None]
            assert len(roots) == 1
            assert roots[0]["name"] == "http.request"
            assert not payload["error"]
            for span in payload["spans"]:
                # Request-local spans must all be closed.  Shared spans
                # (the batch flush subtree) are snapshotted at this
                # member's finish and may legitimately still be open --
                # the flush keeps distributing to the other members.
                if not span.get("shared"):
                    assert "incomplete" not in span, span

    def test_stats_document_reports_tracing(self, served):
        _, _, client = served
        tracing = client.stats()["tracing"]
        assert tracing["enabled"] is True
        assert tracing["sample"] == 1.0


# ----------------------------------------------------------------------
# Coalesced batches share exactly one flush span
# ----------------------------------------------------------------------
class TestCoalescedFlushSpan:
    def test_members_of_one_batch_link_the_same_flush_span(self):
        # Four distinct requests parked behind the plug land in a single
        # coalesced batch once it is released.
        service = EvaluationService()
        plug = Plug(service)
        tracer = service.tracer
        tasks = [
            make_random_heterogeneous_task(seed, 0.2) for seed in range(4)
        ]
        trace_ids = [None] * len(tasks)
        barrier = threading.Barrier(len(tasks))

        def submit(index):
            trace = tracer.start_trace("bench.request")
            trace_ids[index] = trace.trace_id
            barrier.wait()
            try:
                with tracer.activate(trace):
                    service.submit_simulation(
                        tasks[index], Platform(host_cores=2, accelerators=1)
                    )
            finally:
                tracer.finish_trace(trace)

        threads = [
            threading.Thread(target=submit, args=(i,))
            for i in range(len(tasks))
        ]
        try:
            for thread in threads:
                thread.start()
            plug.wait_parked(len(tasks))
            plug.release()
            for thread in threads:
                thread.join(timeout=30.0)
                assert not thread.is_alive()
        finally:
            service.close()

        flush_ids = set()
        for trace_id in trace_ids:
            payload = tracer.get_trace(trace_id)
            flush_spans = [
                s for s in payload["spans"] if s["name"] == "batcher.flush"
            ]
            assert len(flush_spans) == 1
            flush = flush_spans[0]
            assert flush.get("shared") is True
            assert flush["attributes"]["batch_size"] == len(tasks)
            # The shared span hangs under this member's own queue span.
            queue = next(
                s for s in payload["spans"] if s["name"] == "batcher.queue"
            )
            assert flush["parent_id"] == queue["span_id"]
            links = [l for l in payload["links"] if "span_id" in l]
            assert [l["kind"] for l in links] == ["flush"]
            flush_ids.add(flush["span_id"])
        assert len(flush_ids) == 1  # one batch, one shared span for all four


# ----------------------------------------------------------------------
# Error envelopes: trace_id across 429/500/503/504
# ----------------------------------------------------------------------
def _post_simulate(port, task):
    request = urllib.request.Request(
        f"http://127.0.0.1:{port}/simulate",
        data=json.dumps({"task": task_to_dict(task), "cores": 2}).encode(),
        headers={"Content-Type": "application/json"},
    )
    return urllib.request.urlopen(request)


class TestErrorEnvelopeTraceIds:
    @pytest.mark.parametrize(
        "boom, status, code, retryable",
        [
            (
                lambda *a, **k: (_ for _ in ()).throw(
                    ServiceOverloadedError("queue full", retry_after=2.5)
                ),
                429,
                "overloaded",
                True,
            ),
            (
                lambda *a, **k: (_ for _ in ()).throw(
                    RuntimeError("secret internal detail")
                ),
                500,
                "internal",
                False,
            ),
            (
                lambda *a, **k: (_ for _ in ()).throw(
                    ServiceClosedError("service is closed")
                ),
                503,
                "closed",
                True,
            ),
            (
                lambda *a, **k: (_ for _ in ()).throw(
                    ServiceTimeoutError("deadline exceeded")
                ),
                504,
                "timeout",
                True,
            ),
        ],
        ids=["429-overloaded", "500-internal", "503-closed", "504-timeout"],
    )
    def test_envelope_shape_carries_trace_id(
        self, served, boom, status, code, retryable
    ):
        service, server, _ = served
        service.submit_simulation = boom  # type: ignore[method-assign]
        task = figure1_task(period=20, deadline=15)
        with pytest.raises(urllib.error.HTTPError) as info:
            _post_simulate(server.port, task)
        assert info.value.code == status
        header_id = info.value.headers[TRACE_HEADER]
        assert header_id
        document = json.loads(info.value.read().decode("utf-8"))
        envelope = document["error"]
        assert envelope["code"] == code
        assert envelope["retryable"] is retryable
        assert envelope["trace_id"] == header_id
        assert "secret" not in json.dumps(document)

        # Error traces are always kept (tail sampling) and marked.
        payload = _wait_for_trace(service.tracer, header_id)
        assert payload["error"] is True
        root = next(s for s in payload["spans"] if s["parent_id"] is None)
        assert root["attributes"]["status"] == status

    def test_client_exceptions_surface_the_trace_id(self, served):
        service, server, _ = served

        def shed(*args, **kwargs):
            raise ServiceOverloadedError("queue full", retry_after=0.1)

        service.submit_simulation = shed  # type: ignore[method-assign]
        client = ServiceClient(port=server.port, timeout=30, retries=0)
        task = figure1_task(period=20, deadline=15)
        with pytest.raises(ServiceOverloadedError) as info:
            client.simulate(task, cores=2)
        assert info.value.trace_id
        assert client.last_trace_id == info.value.trace_id
        client.close()
        payload = _wait_for_trace(service.tracer, info.value.trace_id)
        assert payload["error"] is True

    def test_bad_request_envelope_also_traced(self, served):
        _, server, _ = served
        request = urllib.request.Request(
            f"http://127.0.0.1:{server.port}/simulate",
            data=b'{"cores": 2}',
            headers={"Content-Type": "application/json"},
        )
        with pytest.raises(urllib.error.HTTPError) as info:
            urllib.request.urlopen(request)
        assert info.value.code == 400
        document = json.loads(info.value.read().decode("utf-8"))
        assert document["error"]["trace_id"] == info.value.headers[TRACE_HEADER]


# ----------------------------------------------------------------------
# Tracing disabled: the serving stack still works, header-free
# ----------------------------------------------------------------------
class TestTracingDisabled:
    def test_untraced_service_serves_without_header_or_ring(self):
        service = EvaluationService(tracing=False)
        server, thread = start_server(service, port=0)
        client = ServiceClient(port=server.port, timeout=120)
        try:
            task = figure1_task(period=20, deadline=15)
            assert client.simulate(task, cores=2) > 0
            assert client.last_trace_id is None
            listing = client.traces()
            assert listing["traces"] == []
            assert listing["ring"]["enabled"] is False
        finally:
            client.close()
            server.shutdown()
            server.server_close()
            thread.join(timeout=10)
            service.close()
