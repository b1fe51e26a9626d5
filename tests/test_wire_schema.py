"""The service's wire schema, fuzzed from the request tables.

``repro.service.http.REQUESTS`` (one table per POST endpoint), ``STREAM``
(one ``/workload`` stream) and ``repro.generator.arrivals.ARRIVAL_SPECS``
(one per arrival kind) name every field a request may carry, with its
default.  ``FIELDS``, ``STREAM_FIELDS`` and ``ARRIVAL_FIELDS`` below hold a
strategy of valid values and a list of invalid ones for each field, and a
test pins their keys to the code's tables, so no field goes unfuzzed.
Every example goes to one in-process server:

* a valid document gets a 200 equal to the in-process facade's answer;
* a document with one field made invalid (wrong JSON type, out of domain,
  a boolean or a string where a number belongs, an unknown field, a
  missing required field) gets a 400 that names the field;
* structural junk gets a 4xx;
* no answer is a 500, no message leaks a Python or numpy internal, and a
  canary sent after each example gets a 200.

Before the tables, each named regression row got a 200, a 400 that
leaked an internal or misread the value, or a 500.  Further rows pin the
size bounds: too many core counts is a 413, and a 400 shows a long refused
value cut short.  The docs' tables are checked against the code's here too.
"""

from __future__ import annotations

import dataclasses
import http.client
import inspect
import json
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.analysis.batch import MAX_CORE_COUNTS, analyse_many
from repro.analysis.heterogeneous import response_time as heterogeneous_response_time
from repro.analysis.homogeneous import response_time as homogeneous_response_time
from repro.core.examples import figure1_task
from repro.core.exceptions import (
    AnalysisError,
    ServiceRequestTooLargeError,
    SimulationError,
    ValidationError,
)
from repro.extensions.multi_device import MultiDeviceTask
from repro.extensions.multi_device import response_time as multi_device_response_time
from repro.extensions.multi_offload import MultiOffloadTask
from repro.extensions.multi_offload import response_time as multi_offload_response_time
from repro.generator.arrivals import (
    ARRIVAL_SPECS,
    PeriodicArrivals,
    SporadicArrivals,
    TraceArrivals,
    arrival_from_dict,
)
from repro.ilp.bounds import list_schedule_upper_bound, makespan_lower_bound
from repro.io.json_io import REQUIRED, task_from_dict, task_to_dict
from repro.service import EvaluationService, start_server
from repro.service.http import REQUESTS, STREAM
from repro.simulation.engine import simulate_makespan
from repro.simulation.platform import Platform
from repro.simulation.schedulers import FixedPriorityPolicy
from repro.simulation.workload import JobStream

ROOT = Path(__file__).resolve().parent.parent

#: Figure 1 of the paper, with its offloaded node ``v_off``.
FIGURE1 = task_to_dict(figure1_task(period=20, deadline=15))
#: A host-only task of the same size class.
HOST = {"nodes": {"a": 1, "b": 2, "c": 3, "d": 1},
        "edges": [["a", "b"], ["a", "c"], ["b", "d"], ["c", "d"]], "period": 12}
TASKS = (FIGURE1, HOST)

#: Substrings of Python and numpy messages that must never reach a client.
LEAKS = ("unhashable", "could not convert", "invalid literal", "SeedSequence",
         "__init__()", "not supported between", "is not a valid")

POLICIES = ("breadth-first", "depth-first", "critical-path-first", "shortest-first",
            "longest-first", "random", "fixed-priority")
NOT_FLAGS = ["false", "no", 0, 1, None, []]
NOT_TIMEOUTS = [-1, True, "5", [5], 1e10]
NOT_SEEDS = [-1, 1.5, True, "abc", [1]]


#: Top-level request fields: (valid values, [(invalid value, the field the
#: 400 names) or invalid value]).  A bare invalid value names the field.
FIELDS = {
    "task": (st.sampled_from(TASKS), [3, "x", [], None, {"edges": []}]),
    "cores": (st.integers(1, 4), [0, -3, 1.5, True, "2", None, {"a": 1}, []]),
    "accelerators": (st.integers(1, 2), [-1, 1.5, True, "1", None, [1], 5000]),
    "policy": (st.sampled_from(POLICIES), ["no-such", ["x"], 3, None, True]),
    "policy_seed": (st.none() | st.integers(0, 2**40), NOT_SEEDS),
    "priorities": (
        st.none() | st.dictionaries(st.sampled_from(["v1", "v2", "a", "zz"]),
                                    st.integers(-5, 5) | st.floats(-9, 9), max_size=3),
        ["abc", [1], True, {"a": "x"}, {"a": None}, {"a": True}],
    ),
    "offload_enabled": (st.booleans(), NOT_FLAGS),
    "include_naive": (st.booleans(), NOT_FLAGS),
    "timeout": (st.none() | st.sampled_from([30, 60.5]), NOT_TIMEOUTS),
    "method": (st.sampled_from(["auto", "bnb", "ilp"]), ["no", ["x"], 1, None, True]),
    "time_limit": (st.none() | st.just(60), [0, -1, True, "5", [5]]),
    "horizon": (st.sampled_from([0, 10, 25.5, 40]), [-1, True, "10", None, [10]]),
    # streams: its valid values are drawn from STREAM_FIELDS below.
    "streams": (None, [[], "x", {}, None, ([1], "streams[0]")]),
}

#: Fields of one arrival spec, by kind.
ARRIVAL_FIELDS = {
    "periodic": {
        "period": (st.sampled_from([1.0, 5, 12.5]), [0, -1, True, "1", None, [1]]),
        "offset": (st.sampled_from([0, 0.5, 3]), [-1, True, "0", None]),
        "jitter": (st.sampled_from([0, 0.5, 2]), [-1, True, "0", None]),
        "seed": (st.integers(0, 1000), [-1, 1.5, True, "x", None]),
    },
    "sporadic": {
        "min_gap": (st.sampled_from([1.0, 2, 4.5]), [0, -1, True, "1", None]),
        "max_gap": (st.sampled_from([5.0, 8]), [0.5, True, "x", None]),
        "offset": (st.sampled_from([0, 0.5, 3]), [-1, True, "0", None]),
        "seed": (st.integers(0, 1000), [-1, 1.5, True, "x", None]),
    },
    "trace": {
        "times": (st.lists(st.integers(0, 50) | st.floats(0, 50), max_size=5),
                  ["abc", [3, 1, "x"], [-1], [True], 5, None]),
    },
}

#: Fields of one ``/workload`` stream.
STREAM_FIELDS = {
    "task": FIELDS["task"],
    "arrivals": (None, ["x", [], 3, None, ({"kind": "nope"}, "kind"),
                        ({"kind": ["periodic"], "period": 1}, "kind")]),
    "deadline": (st.none() | st.sampled_from([30, 12.5]), [0, -1, True, "5", [1]]),
    "name": (st.none() | st.sampled_from(["camera", ""]), [["x"], 1, True, {"a": 1}]),
}


def _object(fields: dict, table: dict) -> st.SearchStrategy:
    """Objects of ``table``: every required field, any optional one."""
    def strategy(name):
        return fields[name][0]

    return st.fixed_dictionaries(
        {name: strategy(name) for name, default in table.items() if default is REQUIRED},
        optional={name: strategy(name) for name, default in table.items()
                  if default is not REQUIRED},
    )


def _arrivals() -> st.SearchStrategy:
    return st.sampled_from(sorted(ARRIVAL_FIELDS)).flatmap(
        lambda kind: _object(
            {"kind": (st.just(kind), []), **ARRIVAL_FIELDS[kind]}, ARRIVAL_SPECS[kind]
        )
    )


STREAM_FIELDS["arrivals"] = (_arrivals(), STREAM_FIELDS["arrivals"][1])
FIELDS["streams"] = (
    st.lists(_object(STREAM_FIELDS, STREAM), min_size=1, max_size=2),
    FIELDS["streams"][1],
)


def _consistent(document: dict) -> dict:
    """``document`` with its policy fields made to agree: ``random`` gets a
    seed, and a priority table the policy that reads it."""
    if document.get("priorities") is not None:
        document["policy"] = "fixed-priority"
    if document.get("policy") == "random" and document.get("policy_seed") is None:
        document["policy_seed"] = 7
    return document


def _documents(path: str) -> st.SearchStrategy:
    return _object(FIELDS, REQUESTS[path]).map(_consistent)


def _named(entry) -> tuple:
    """An invalid entry as ``(value, the name its 400 must carry)``."""
    return entry if isinstance(entry, tuple) else (entry, None)


# ----------------------------------------------------------------------
# The server under test and the in-process reference
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def wire():
    service = EvaluationService()
    reference = EvaluationService()
    server, thread = start_server(service)
    yield server.port, reference
    server.shutdown()
    server.server_close()
    thread.join(timeout=10)
    service.close()
    reference.close()


def _post_raw(port: int, path: str, body) -> tuple[int, bytes]:
    """POST ``body`` (JSON-encoded unless it is ``bytes``); the raw answer."""
    data = body if isinstance(body, bytes) else json.dumps(body).encode("utf-8")
    connection = http.client.HTTPConnection("127.0.0.1", port, timeout=60)
    try:
        connection.request("POST", path, data, {"Content-Type": "application/json"})
        response = connection.getresponse()
        return response.status, response.read()
    finally:
        connection.close()


def _post(port: int, path: str, body) -> tuple[int, dict]:
    """POST ``body`` (JSON-encoded unless it is ``bytes``)."""
    status, raw = _post_raw(port, path, body)
    return status, json.loads(raw)


def _answered(port: int, status: int, document: dict) -> None:
    """No 500, no leaked internal, and the canary after it gets a 200."""
    assert status < 500, document
    message = document.get("error", {}).get("message", "")
    for leak in LEAKS:
        assert leak not in message, message
    canary = _post(port, "/simulate", {"task": HOST, "cores": 2})
    assert canary == (200, {"makespan": 5.0}), canary


def _refused(port: int, status: int, document: dict, name: str) -> None:
    _answered(port, status, document)
    assert status == 400, document
    assert document["error"]["code"] == "bad-request"
    assert name in document["error"]["message"], (name, document)


def _in_process(service: EvaluationService, path: str, document: dict) -> dict:
    """The facade's answer to ``document``, with tasks and streams built."""
    values = {name: document.get(name, default) for name, default in REQUESTS[path].items()}
    if "task" in values:
        values["task"] = task_from_dict(values["task"])
    if path == "/analyse":
        return service.submit_analysis(**values)
    if path == "/makespan":
        return service.submit_makespan(**values)
    platform = Platform(values.pop("cores"), values.pop("accelerators"))
    if path == "/simulate":
        return {"makespan": service.submit_simulation(platform=platform, **values)}
    values["streams"] = [
        JobStream(task_from_dict(stream["task"]), arrival_from_dict(stream["arrivals"]),
                  stream.get("deadline"), stream.get("name"))
        for stream in values["streams"]
    ]
    return service.submit_workload(platform=platform, **values)


FUZZ = settings(max_examples=40, deadline=None,
                suppress_health_check=[HealthCheck.function_scoped_fixture,
                                       HealthCheck.too_slow, HealthCheck.data_too_large])


# ----------------------------------------------------------------------
# The strategies cover the tables
# ----------------------------------------------------------------------
def test_every_table_field_has_a_strategy():
    fields = {name for table in REQUESTS.values() for name in table}
    assert set(FIELDS) == fields
    assert set(STREAM_FIELDS) == set(STREAM)
    assert set(ARRIVAL_FIELDS) == set(ARRIVAL_SPECS)
    for kind, table in ARRIVAL_SPECS.items():
        assert set(ARRIVAL_FIELDS[kind]) == set(table) - {"kind"}


# ----------------------------------------------------------------------
# Valid documents are answered as in process
# ----------------------------------------------------------------------
@FUZZ
@given(data=st.data(), path=st.sampled_from(sorted(REQUESTS)))
def test_valid_document_is_answered_as_in_process(wire, data, path):
    port, reference = wire
    document = data.draw(_documents(path))
    status, answer = _post(port, path, document)
    _answered(port, status, answer)
    assert status == 200, answer
    assert answer == json.loads(json.dumps(_in_process(reference, path, document)))


# ----------------------------------------------------------------------
# One invalid field is a 400 that names it
# ----------------------------------------------------------------------
@FUZZ
@given(data=st.data(), path=st.sampled_from(sorted(REQUESTS)))
def test_one_invalid_field_is_a_400_naming_it(wire, data, path):
    port, _ = wire
    document = data.draw(_documents(path))
    table = REQUESTS[path]
    field = data.draw(st.sampled_from([*table, "unknown", "missing"]))
    if field == "unknown":
        name = data.draw(st.sampled_from(["core", "Task", "timeouts", "extra"]))
        document[name] = 1
    elif field == "missing":
        name = data.draw(st.sampled_from([f for f, d in table.items() if d is REQUIRED]))
        del document[name]
    else:
        value, name = _named(data.draw(st.sampled_from(FIELDS[field][1])))
        document[field] = value
        name = name or field
        if field == "priorities":
            document["policy"] = "fixed-priority"
    _refused(port, *_post(port, path, document), name)


@FUZZ
@given(data=st.data())
def test_one_invalid_stream_or_arrival_field_is_a_400_naming_it(wire, data):
    port, _ = wire
    document = data.draw(_documents("/workload"))
    stream = document["streams"][0]
    field = data.draw(st.sampled_from([*STREAM, "arrivals.field", "unknown"]))
    if field == "unknown":
        stream[name := "weight"] = 1
    elif field == "arrivals.field":
        kind = stream["arrivals"]["kind"]
        field = data.draw(st.sampled_from(sorted(ARRIVAL_FIELDS[kind])))
        value, name = _named(data.draw(st.sampled_from(ARRIVAL_FIELDS[kind][field][1])))
        stream["arrivals"][field] = value
        name = name or field
    else:
        value, name = _named(data.draw(st.sampled_from(STREAM_FIELDS[field][1])))
        stream[field] = value
        name = name or field
    _refused(port, *_post(port, "/workload", document), name)


# ----------------------------------------------------------------------
# Structural junk is a 4xx
# ----------------------------------------------------------------------
JUNK = st.one_of(
    st.sampled_from([b"[]", b"1", b'"x"', b"null", b"true", b"{", b"", b"[" * 5000,
                     b'{"task": ' * 3000]),
    st.integers(10, 100_000).map(lambda n: b"[" * n + b"]" * n),
    st.integers(1, 50_000).map(lambda n: json.dumps([0] * n).encode()),
    st.integers(1, 20_000).map(lambda n: json.dumps(
        {"task": HOST, "cores": [2] * n, "policy": ["x"] * n}).encode()),
    st.recursive(st.integers() | st.text(max_size=3) | st.none(),
                 lambda inner: st.lists(inner, max_size=3)
                 | st.dictionaries(st.text(max_size=3), inner, max_size=3),
                 max_leaves=20).map(lambda value: json.dumps(value).encode()),
)


@FUZZ
@given(body=JUNK, path=st.sampled_from(sorted(REQUESTS)))
def test_structural_junk_is_a_4xx(wire, body, path):
    port, _ = wire
    status, document = _post(port, path, body)
    _answered(port, status, document)
    assert 400 <= status < 500, document


# ----------------------------------------------------------------------
# Named regression rows
# ----------------------------------------------------------------------
def _stream(**fields) -> dict:
    return {"task": FIGURE1, "arrivals": {"kind": "trace", "times": [0.0]}, **fields}


def _workload(**fields) -> dict:
    return {"streams": [_stream()], "horizon": 10.0, **fields}


def _arrivals_of(arrivals: dict) -> dict:
    return _workload(streams=[_stream(arrivals=arrivals)])


PERIODIC = {"kind": "periodic", "period": 5.0}
SPORADIC = {"kind": "sporadic", "min_gap": 1.0, "max_gap": 2.0}
TRACE = {"kind": "trace"}

REGRESSIONS = {
    # Each was answered 200.
    "policy_seed-true": ("/simulate", {"task": FIGURE1, "policy_seed": True}, "policy_seed"),
    "timeout-true": ("/simulate", {"task": FIGURE1, "timeout": True}, "timeout"),
    "core-unknown": ("/simulate", {"task": FIGURE1, "core": 4}, "core"),
    "horizon-true": ("/workload", _workload(horizon=True), "horizon"),
    "horizon-string": ("/workload", _workload(horizon="10"), "horizon"),
    "period-true": ("/workload", _arrivals_of({**PERIODIC, "period": True}), "period"),
    "sporadic-seed-true": ("/workload", _arrivals_of({**SPORADIC, "seed": True}), "seed"),
    "stream-name-list": ("/workload", _workload(streams=[_stream(name=["x"])]), "name"),
    "stream-extra": ("/workload", _workload(streams=[_stream(extra=1)]), "extra"),
    # Each was a 400 that leaked an internal.
    "policy-list": ("/simulate", {"task": FIGURE1, "policy": ["x"]}, "policy"),
    "kind-list": ("/workload", _arrivals_of({**PERIODIC, "kind": ["periodic"]}), "kind"),
    "timeout-string": ("/simulate", {"task": FIGURE1, "timeout": "5"}, "timeout"),
    "policy_seed-string": ("/simulate", {"task": FIGURE1, "policy": "random",
                                         "policy_seed": "abc"}, "policy_seed"),
    "policy_seed-fraction": ("/simulate", {"task": FIGURE1, "policy": "random",
                                           "policy_seed": 1.5}, "policy_seed"),
    "sporadic-seed-string": ("/workload", _arrivals_of({**SPORADIC, "seed": "x"}), "seed"),
    "trace-times-item": ("/workload", _arrivals_of({**TRACE, "times": [3, 1, "x"]}), "times"),
    "trace-times-string": ("/workload", _arrivals_of({**TRACE, "times": "abc"}), "times"),
    "priorities-string-value": ("/simulate", {"task": FIGURE1, "policy": "fixed-priority",
                                              "priorities": {"a": "x"}}, "priorities"),
    "arrival-bogus": ("/workload", _arrivals_of({**TRACE, "times": [1], "bogus": 1}), "bogus"),
    "method-list": ("/makespan", {"task": FIGURE1, "method": ["x"]}, "method"),
    # Each was read as its keys or its characters, and refused as 'a' or '1'.
    "analyse-cores-dict": ("/analyse", {"task": FIGURE1, "cores": {"a": 1}},
                           "cores must be a positive integer, got {'a': 1}"),
    "analyse-cores-string": ("/analyse", {"task": FIGURE1, "cores": "12"},
                             "cores must be a positive integer, got '12'"),
    # Was a 500: the decoder's recursion limit.
    "deep-nesting": ("/simulate", b"[" * 100_000 + b"]" * 100_000, "JSON"),
}


@pytest.mark.parametrize("row", sorted(REGRESSIONS))
def test_regression_row_is_a_400_naming_the_field(wire, row):
    port, _ = wire
    path, body, name = REGRESSIONS[row]
    _refused(port, *_post(port, path, body), name)


@pytest.mark.parametrize(
    "build, error, name",
    [
        (lambda: PeriodicArrivals(period=True), ValidationError, "period"),
        (lambda: SporadicArrivals(1.0, 2.0, seed=True), ValidationError, "seed"),
        (lambda: TraceArrivals("123"), ValidationError, "times"),
        (lambda: JobStream(figure1_task(), TraceArrivals([0.0]), name=["x"]),
         ValidationError, "name"),
        (lambda: homogeneous_response_time(figure1_task(), True), AnalysisError, "cores"),
        (lambda: heterogeneous_response_time(figure1_task(), True), AnalysisError, "cores"),
        (lambda: multi_offload_response_time(
            MultiOffloadTask(graph=figure1_task().graph, offloaded_nodes={"v_off"}), True),
         AnalysisError, "cores"),
        (lambda: multi_device_response_time(MultiDeviceTask(graph=figure1_task().graph), True),
         AnalysisError, "cores"),
        (lambda: analyse_many([figure1_task()], cores=True), AnalysisError, "cores"),
        (lambda: analyse_many([figure1_task()], cores={"a": 1}), AnalysisError,
         r"cores .* got \{'a': 1\}"),
        (lambda: analyse_many([figure1_task()], cores="12"), AnalysisError, "cores .* got '12'"),
        # Was answered: 20 000 counts took 2.28 s and 13 MB for one task.
        (lambda: analyse_many([figure1_task()], cores=list(range(1, 20_001))),
         ServiceRequestTooLargeError, "cores has 20000 core counts"),
    ],
    ids=["periodic-period-true", "sporadic-seed-true", "trace-string", "stream-name-list",
         "hom-cores-true", "het-cores-true", "multi-offload-cores-true",
         "multi-device-cores-true", "batch-cores-true", "batch-cores-dict",
         "batch-cores-string", "batch-cores-20000"],
)
def test_in_process_regression_row_raises_naming_the_field(build, error, name):
    with pytest.raises(error, match=name):
        build()


def test_analyses_still_take_any_positive_core_count():
    assert analyse_many([figure1_task()], cores=(1, 10_000))[0].results.keys() == {1, 10_000}
    counts = list(range(1, MAX_CORE_COUNTS + 1))
    assert list(analyse_many([figure1_task()], cores=counts)[0].results) == counts


def test_too_many_core_counts_is_a_413_naming_cores(wire):
    """Was a 200: 20 000 distinct counts took 2.28 s and answered 13 MB."""
    port, _ = wire
    status, document = _post(port, "/analyse", {"task": FIGURE1, "cores": list(range(1, 20_001))})
    _answered(port, status, document)
    assert status == 413, document
    assert document["error"]["code"] == "payload-too-large"
    assert "cores has 20000 core counts" in document["error"]["message"]
    status, document = _post(
        port, "/analyse", {"task": FIGURE1, "cores": list(range(1, MAX_CORE_COUNTS + 1))}
    )
    assert status == 200 and len(document["bounds"]) == MAX_CORE_COUNTS


#: Each 400 echoed its refused value in full (a 60 KB message for a 60 KB
#: value); now each shows it cut short and still names the field.
LONG_VALUES = {
    "simulate-cores-list": ("/simulate", {"task": FIGURE1, "cores": [2] * 20_000}, "cores"),
    "simulate-timeout-string": ("/simulate", {"task": FIGURE1, "timeout": "5" * 60_000},
                                "timeout"),
    "simulate-policy_seed-list": ("/simulate", {"task": FIGURE1, "policy": "random",
                                                "policy_seed": [1] * 20_000}, "policy_seed"),
    "simulate-unknown-field": ("/simulate", {"task": FIGURE1, "x" * 60_000: 1}, "unknown field"),
    "analyse-cores-dict": ("/analyse", {"task": FIGURE1, "cores": {"a" * 60_000: 1}}, "cores"),
    "makespan-method-string": ("/makespan", {"task": FIGURE1, "method": "x" * 60_000}, "method"),
    "workload-times-string": ("/workload", _arrivals_of({**TRACE, "times": "x" * 60_000}),
                              "times"),
}


@pytest.mark.parametrize("row", sorted(LONG_VALUES))
def test_a_long_refused_value_is_shown_short(wire, row):
    port, _ = wire
    path, body, name = LONG_VALUES[row]
    status, raw = _post_raw(port, path, body)
    assert len(raw) < 1024, raw[:200]
    _refused(port, status, json.loads(raw), name)


# ----------------------------------------------------------------------
# One 0-accelerator rule
# ----------------------------------------------------------------------
def test_offloading_task_without_accelerator_is_refused_on_every_endpoint(wire):
    port, _ = wire
    platform = {"cores": 1, "accelerators": 0}
    for path, body in (
        ("/simulate", {"task": FIGURE1, **platform}),
        ("/makespan", {"task": FIGURE1, **platform}),
        ("/workload", _workload(**platform)),
    ):
        _refused(port, *_post(port, path, body), "accelerators")
    # Without the offload the same platform is served.
    for path, body in (
        ("/simulate", {"task": FIGURE1, **platform, "offload_enabled": False}),
        ("/makespan", {"task": HOST, **platform}),
        ("/workload", _workload(**platform, offload_enabled=False)),
    ):
        status, document = _post(port, path, body)
        assert status == 200, (path, document)
    host_only = {"task": FIGURE1, **platform, "offload_enabled": False}
    assert _post(port, "/simulate", host_only) == (200, {"makespan": 18.0})


def test_oracle_sandwich_holds_on_every_platform_the_service_accepts():
    with EvaluationService() as service:
        for document in TASKS:
            task = task_from_dict(document)
            for cores in (1, 2, 3, 4):
                for accelerators in (0, 1, 2):
                    if task.offloaded_node is not None and accelerators == 0:
                        with pytest.raises(SimulationError, match="accelerators"):
                            service.submit_makespan(task, cores, accelerators=accelerators)
                        continue
                    exact = service.submit_makespan(
                        task, cores, accelerators=accelerators, timeout=120
                    )["makespan"]
                    lower = makespan_lower_bound(task, cores, accelerators)
                    upper = list_schedule_upper_bound(task, cores, accelerators)
                    assert lower - 1e-9 <= exact <= upper + 1e-9


# ----------------------------------------------------------------------
# Priorities are compared as float64
# ----------------------------------------------------------------------
#: c < b < x < a as integers, one float64 value 2**60: the arrival order
#: decides, x runs before c, and every engine reads 15.0 (11.0 with exact
#: integer compares).  Was answered 15.0 here and 11.0 by simulate_makespan.
COLLIDING = {
    "task": {"nodes": {"s": 0, "a": 5, "b": 1, "x": 5, "c": 10, "t": 0},
             "edges": [["s", "a"], ["s", "b"], ["s", "x"], ["b", "c"], ["a", "t"],
                       ["x", "t"], ["c", "t"]]},
    "cores": 2,
    "offload_enabled": False,
    "policy": "fixed-priority",
    "priorities": {"c": 2**60 - 1, "b": 2**60, "x": 2**60 + 1, "a": 2**60 + 2},
}


def test_priorities_sharing_a_float64_value_tie_as_in_process(wire):
    port, _ = wire
    assert _post(port, "/simulate", COLLIDING) == (200, {"makespan": 15.0})
    task = task_from_dict(COLLIDING["task"])
    policy = FixedPriorityPolicy(COLLIDING["priorities"])
    assert simulate_makespan(task, 2, policy, offload_enabled=False) == 15.0


# ----------------------------------------------------------------------
# The docs say what the code accepts
# ----------------------------------------------------------------------
def _doc_tables(path: Path) -> dict[str, dict[str, str]]:
    """Every ``| Field | Domain | Default |`` table of a document, by the
    heading above it (by kind where the table has a Kind column):
    field -> default cell."""
    tables: dict[str, dict[str, str]] = {}
    heading, columns = "", None
    for line in path.read_text(encoding="utf-8").splitlines():
        if line.startswith("#"):
            heading = line.lstrip("#").strip()
        cells = [cell.strip() for cell in line.strip().strip("|").split("|")]
        if not line.startswith("|"):
            columns = None
        elif columns is None:
            columns = cells if cells[-3:] == ["Field", "Domain", "Default"] else None
        elif not set(line) <= set("|-"):
            row = dict(zip(columns, cells))
            key = row["Kind"].strip("`") if "Kind" in row else heading
            tables.setdefault(key, {})[row["Field"].strip("`")] = row["Default"]
    return tables


def _same(documented: dict[str, str], table: dict[str, object]) -> None:
    assert list(documented) == list(table)
    for name, cell in documented.items():
        default = table[name]
        if default is REQUIRED:
            assert cell == "required", name
        else:
            assert json.dumps(json.loads(cell.strip("`"))) == json.dumps(default), name


FACADE_CALLS = {"/simulate": "submit_simulation", "/analyse": "submit_analysis",
                "/makespan": "submit_makespan", "/workload": "submit_workload"}


def test_docs_tables_match_the_code():
    service_doc = _doc_tables(ROOT / "docs" / "service.md")
    for path, table in REQUESTS.items():
        _same(service_doc[f"`POST {path}`"], table)
    _same(service_doc["A `/workload` stream"], STREAM)
    workloads_doc = _doc_tables(ROOT / "docs" / "workloads.md")
    assert set(workloads_doc) == set(ARRIVAL_SPECS)
    for kind, table in ARRIVAL_SPECS.items():
        _same({"kind": "required", **workloads_doc[kind]}, table)


@pytest.mark.parametrize("path", sorted(REQUESTS))
def test_tables_match_the_facade_signature_defaults(path):
    parameters = inspect.signature(getattr(EvaluationService, FACADE_CALLS[path])).parameters
    table = REQUESTS[path]
    for name, default in table.items():
        if name in parameters:
            expected = parameters[name].default
            assert (REQUIRED if expected is inspect.Parameter.empty else expected) == default
    if "platform" in parameters:
        assert Platform(parameters["platform"].default) == Platform(
            table["cores"], table["accelerators"]
        )
    assert set(table) <= set(parameters) | {"cores", "accelerators"}


def test_stream_table_matches_job_stream_fields():
    assert STREAM == {
        field.name: REQUIRED if field.default is dataclasses.MISSING else field.default
        for field in dataclasses.fields(JobStream)
    }
