"""Deterministic fault-injection tests of the resilience layer (PR 6).

Every recovery path is exercised by *injected*, seeded, reproducible
faults -- never by timing luck:

* the primitives themselves (:class:`Deadline`, :func:`retry_call`,
  :class:`CircuitBreaker`, :class:`FaultInjector`) under fake clocks and
  fake sleeps;
* the parallel runner surviving genuine worker death (``os._exit`` in a
  pool worker, gated by an atomically consumed token file) with results
  bit-identical to the serial path;
* the oracle layer's verified bound-sandwich degraded mode under time
  budgets and an open circuit breaker, and the guarantee that degraded
  answers are never cached as exact;
* the evaluation service resolving **every accepted request exactly
  once** under injected solver hangs, executor exceptions, queue-deadline
  expiries, load shedding and mid-drain faults;
* the HTTP transport's stable error envelope (429 + ``Retry-After``,
  504, internal errors without leaked tracebacks) and the client's
  retry-with-backoff honouring ``Retry-After``.
"""

from __future__ import annotations

import math
import signal
import threading
import time
import urllib.request

import pytest

from repro.core.examples import figure1_task
from repro.core.exceptions import (
    CircuitOpenError,
    DeadlineExceededError,
    FaultInjectedError,
    ServiceClosedError,
    ServiceError,
    ServiceOverloadedError,
    ServiceTimeoutError,
    WorkerCrashError,
)
from repro.ilp.batch import minimum_makespans_many
from repro.ilp.makespan import degraded_makespan_result, minimum_makespan
from repro.parallel import parallel_map, worker_respawn_count
from repro.resilience import (
    FAULTS,
    CircuitBreaker,
    Deadline,
    FaultInjector,
    fault_point,
    retry_call,
)
from repro.service import EvaluationService, MicroBatcher, ServiceClient, start_server

from batcher_plug import Plug
from strategies import (
    make_random_heterogeneous_task,
    make_random_integer_heterogeneous_task,
)


@pytest.fixture(autouse=True)
def _clean_faults():
    """No test may leak armed faults into its neighbours."""
    FAULTS.disarm()
    yield
    FAULTS.disarm()


def small_tasks(count: int, start_seed: int = 100):
    return [
        make_random_heterogeneous_task(seed, 0.2, n_max=8)
        for seed in range(start_seed, start_seed + count)
    ]


def small_solver_tasks(count: int, start_seed: int = 100):
    """Integer-WCET tasks sized for the exact oracles."""
    return [
        make_random_integer_heterogeneous_task(seed, 0.2, n_max=8)
        for seed in range(start_seed, start_seed + count)
    ]


# ----------------------------------------------------------------------
# Deadline
# ----------------------------------------------------------------------
class TestDeadline:
    def test_unbounded_never_expires(self):
        deadline = Deadline.after(None)
        assert deadline.unbounded
        assert deadline.remaining() is None
        assert not deadline.expired
        deadline.check()  # must not raise

    def test_finite_deadline_expires(self):
        deadline = Deadline.after(0.01)
        assert not deadline.unbounded
        assert deadline.remaining() <= 0.01
        time.sleep(0.02)
        assert deadline.expired
        assert deadline.remaining() == 0.0
        with pytest.raises(DeadlineExceededError, match="solve"):
            deadline.check("solve")

    def test_negative_seconds_rejected(self):
        with pytest.raises(ValueError):
            Deadline.after(-1.0)

    @pytest.mark.parametrize("seconds", [math.nan, math.inf, True, "1"])
    def test_seconds_outside_the_domain_rejected(self, seconds):
        # A NaN deadline never expired; a boolean or a string is no time.
        with pytest.raises(ValueError, match="deadline seconds"):
            Deadline.after(seconds)

    def test_cap_takes_the_tighter_bound(self):
        assert Deadline.after(None).cap(None) is None
        assert Deadline.after(None).cap(3.0) == 3.0
        finite = Deadline.after(10.0)
        assert finite.cap(None) == pytest.approx(10.0, abs=0.1)
        assert finite.cap(2.0) == 2.0
        assert Deadline.after(0.0).cap(5.0) == 0.0


# ----------------------------------------------------------------------
# retry_call
# ----------------------------------------------------------------------
class _Flaky:
    """Callable failing ``failures`` times before succeeding."""

    def __init__(self, failures: int, error=ValueError("transient")):
        self.failures = failures
        self.error = error
        self.calls = 0

    def __call__(self):
        self.calls += 1
        if self.calls <= self.failures:
            raise self.error
        return "ok"


class TestRetryCall:
    def test_success_without_retries(self):
        sleeps = []
        assert retry_call(lambda: 42, sleep=sleeps.append) == 42
        assert sleeps == []

    def test_backoff_schedule_is_deterministic_without_seed(self):
        fn = _Flaky(3)
        sleeps = []
        assert (
            retry_call(
                fn,
                attempts=4,
                base_delay=0.1,
                factor=2.0,
                max_delay=10.0,
                sleep=sleeps.append,
            )
            == "ok"
        )
        assert fn.calls == 4
        assert sleeps == [0.1, 0.2, 0.4]  # exact: no seed => zero jitter

    def test_seeded_jitter_is_replayable(self):
        def run():
            sleeps = []
            with pytest.raises(ValueError):
                retry_call(
                    _Flaky(10),
                    attempts=4,
                    base_delay=0.1,
                    seed=1234,
                    sleep=sleeps.append,
                )
            return sleeps

        first, second = run(), run()
        assert first == second  # same seed, same delays
        assert all(
            base <= delay <= base * 1.25
            for base, delay in zip([0.1, 0.2, 0.4], first)
        )

    def test_exhaustion_raises_the_last_error(self):
        fn = _Flaky(99)
        with pytest.raises(ValueError, match="transient"):
            retry_call(fn, attempts=3, sleep=lambda _: None)
        assert fn.calls == 3

    def test_non_matching_error_propagates_immediately(self):
        fn = _Flaky(99, error=KeyError("fatal"))
        with pytest.raises(KeyError):
            retry_call(fn, attempts=5, retry_on=(ValueError,), sleep=lambda _: None)
        assert fn.calls == 1

    def test_should_retry_veto(self):
        fn = _Flaky(99)
        with pytest.raises(ValueError):
            retry_call(
                fn,
                attempts=5,
                should_retry=lambda error: False,
                sleep=lambda _: None,
            )
        assert fn.calls == 1

    def test_retry_after_floors_the_delay(self):
        error = ServiceOverloadedError("busy", retry_after=1.5)
        fn = _Flaky(1, error=error)
        sleeps = []
        retry_call(
            fn,
            attempts=2,
            base_delay=0.01,
            retry_after=lambda err: getattr(err, "retry_after", None),
            sleep=sleeps.append,
        )
        assert sleeps == [1.5]

    def test_deadline_stops_retrying(self):
        fn = _Flaky(99)
        deadline = Deadline.after(0.0)  # already expired
        with pytest.raises(ValueError):
            retry_call(fn, attempts=5, deadline=deadline, sleep=lambda _: None)
        assert fn.calls == 1

    def test_on_retry_observes_each_attempt(self):
        seen = []
        retry_call(
            _Flaky(2),
            attempts=3,
            base_delay=0.5,
            on_retry=lambda attempt, error, delay: seen.append((attempt, delay)),
            sleep=lambda _: None,
        )
        assert seen == [(0, 0.5), (1, 1.0)]


# ----------------------------------------------------------------------
# CircuitBreaker
# ----------------------------------------------------------------------
class _FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


class TestCircuitBreaker:
    def test_trips_after_threshold_and_counts(self):
        clock = _FakeClock()
        breaker = CircuitBreaker(failure_threshold=3, reset_timeout=10.0, clock=clock)
        assert breaker.state == CircuitBreaker.CLOSED
        for _ in range(2):
            breaker.record_failure()
        assert breaker.state == CircuitBreaker.CLOSED
        breaker.record_failure()
        assert breaker.state == CircuitBreaker.OPEN
        assert not breaker.allow()
        assert not breaker.allow()
        stats = breaker.stats()
        assert stats["trips"] == 1
        assert stats["rejections"] == 2
        assert stats["failures"] == 3
        assert stats["consecutive_failures"] == 3

    def test_half_open_probe_success_closes(self):
        clock = _FakeClock()
        breaker = CircuitBreaker(failure_threshold=1, reset_timeout=10.0, clock=clock)
        breaker.record_failure()
        assert not breaker.allow()
        clock.now = 10.0
        assert breaker.state == CircuitBreaker.HALF_OPEN
        assert breaker.allow()  # the probe
        breaker.record_success()
        assert breaker.state == CircuitBreaker.CLOSED
        assert breaker.allow()

    def test_half_open_probe_failure_reopens(self):
        clock = _FakeClock()
        breaker = CircuitBreaker(failure_threshold=5, reset_timeout=10.0, clock=clock)
        for _ in range(5):
            breaker.record_failure()
        clock.now = 10.0
        assert breaker.allow()
        breaker.record_failure()  # one probe failure is enough
        assert breaker.state == CircuitBreaker.OPEN
        assert breaker.stats()["trips"] == 2
        assert not breaker.allow()

    @pytest.mark.parametrize(
        ("options", "setting"),
        [
            ({"failure_threshold": True}, "failure_threshold"),
            ({"failure_threshold": 2.5}, "failure_threshold"),
            ({"failure_threshold": "3"}, "failure_threshold"),
            ({"reset_timeout": math.nan}, "reset_timeout"),
            ({"reset_timeout": math.inf}, "reset_timeout"),
            ({"reset_timeout": True}, "reset_timeout"),
        ],
    )
    def test_settings_outside_the_domain_rejected(self, options, setting):
        # A NaN reset once left a tripped breaker open forever: allow()
        # stayed False after 1e9 s on a fake clock.
        with pytest.raises(ValueError, match=setting):
            CircuitBreaker(**options)

    def test_success_heals_consecutive_failures(self):
        breaker = CircuitBreaker(failure_threshold=2)
        breaker.record_failure()
        breaker.record_success()
        breaker.record_failure()
        assert breaker.state == CircuitBreaker.CLOSED

    def test_call_wrapper_and_reset(self):
        clock = _FakeClock()
        breaker = CircuitBreaker(failure_threshold=1, reset_timeout=99.0, clock=clock)
        with pytest.raises(RuntimeError):
            breaker.call(lambda: (_ for _ in ()).throw(RuntimeError("down")))
        with pytest.raises(CircuitOpenError, match="open"):
            breaker.call(lambda: "never runs")
        breaker.reset()
        assert breaker.call(lambda: "up") == "up"


# ----------------------------------------------------------------------
# FaultInjector
# ----------------------------------------------------------------------
class TestFaultInjector:
    def test_disabled_points_are_noops(self):
        injector = FaultInjector()
        assert not injector.enabled
        injector.fire("anything")  # no fault armed: silently nothing

    def test_raise_action_fires_once_by_default(self):
        injector = FaultInjector()
        injector.arm("solve", "raise", message="injected solver failure")
        with pytest.raises(FaultInjectedError, match="injected solver failure"):
            injector.fire("solve")
        injector.fire("solve")  # times=1 consumed
        stats = injector.stats()["points"]["solve"]
        assert stats["hits"] == 2
        assert stats["fires"] == 1

    def test_after_skips_and_times_caps(self):
        injector = FaultInjector()
        injector.arm("p", "raise", after=2, times=2)
        outcomes = []
        for _ in range(6):
            try:
                injector.fire("p")
                outcomes.append("ok")
            except FaultInjectedError:
                outcomes.append("boom")
        assert outcomes == ["ok", "ok", "boom", "boom", "ok", "ok"]

    def test_hang_action_sleeps(self):
        injector = FaultInjector()
        injector.arm("slow", "hang", delay=0.05)
        before = time.monotonic()
        injector.fire("slow")
        assert time.monotonic() - before >= 0.05

    def test_token_file_is_consumed_exactly_once(self, tmp_path):
        token = tmp_path / "one-shot"
        token.write_text("x")
        injector = FaultInjector()
        injector.arm("p", "raise", times=None, token=str(token))
        with pytest.raises(FaultInjectedError):
            injector.fire("p")
        assert not token.exists()
        injector.fire("p")  # token gone: never fires again
        assert injector.stats()["points"]["p"]["fires"] == 1

    def test_armed_context_manager_disarms(self):
        with FAULTS.armed("ctx.point", "raise"):
            assert FAULTS.enabled
            with pytest.raises(FaultInjectedError):
                fault_point("ctx.point")
        assert not FAULTS.enabled
        fault_point("ctx.point")  # disarmed: no-op

    def test_configure_parses_the_env_grammar(self):
        injector = FaultInjector()
        injector.configure(
            "oracle.solve:hang:delay=0.4:times=2; parallel.chunk:kill:"
            "token=/tmp/t:after=1;x.y:raise:times=inf:message=boom"
        )
        points = injector.stats()["points"]
        assert points["oracle.solve"] == {
            "action": "hang", "hits": 0, "fires": 0, "times": 2, "after": 0,
        }
        assert points["parallel.chunk"]["action"] == "kill"
        assert points["parallel.chunk"]["after"] == 1
        assert points["x.y"]["times"] is None

    @pytest.mark.parametrize(
        "spec",
        ["solo-entry", "p:explode", "p:raise:times", "p:raise:bogus=1"],
    )
    def test_configure_rejects_malformed_specs(self, spec):
        with pytest.raises(ValueError):
            FaultInjector().configure(spec)


# ----------------------------------------------------------------------
# Parallel runner: pool respawn after worker death
# ----------------------------------------------------------------------
def _double(x: int) -> int:
    return 2 * x


def _refuse(x: int) -> int:
    raise ValueError("not a crash")


def _sigterm_is_default(_item: int) -> bool:
    return signal.getsignal(signal.SIGTERM) == signal.SIG_DFL


class TestParallelRespawn:
    def test_single_worker_kill_is_survived_bit_identically(self, tmp_path):
        token = tmp_path / "kill-once"
        token.write_text("x")
        serial = parallel_map(_double, range(24), jobs=1)
        before = worker_respawn_count()
        with FAULTS.armed(
            "parallel.chunk", "kill", times=None, token=str(token)
        ):
            survived = parallel_map(_double, range(24), jobs=2)
        assert survived == serial
        assert not token.exists()  # exactly one worker consumed the kill
        assert worker_respawn_count() == before + 1

    def test_persistent_worker_death_raises_worker_crash(self):
        with FAULTS.armed("parallel.chunk", "kill", times=None):
            with pytest.raises(WorkerCrashError, match="respawn"):
                parallel_map(_double, range(8), jobs=2)

    def test_function_exceptions_are_not_crashes(self):
        with pytest.raises(ValueError, match="not a crash"):
            parallel_map(_refuse, range(4), jobs=2)

    def test_workers_take_sigterm_under_a_handling_parent(self):
        # `repro serve` handles SIGTERM (its graceful drain) and fork copies
        # the handler into pool workers: a broken pool's terminate() then
        # left a surviving worker running its item, so the respawn waited
        # out a hung solve.  Workers restore the default action.
        previous = signal.signal(signal.SIGTERM, lambda signum, frame: None)
        try:
            assert parallel_map(_sigterm_is_default, range(2), jobs=2) == [True, True]
        finally:
            signal.signal(signal.SIGTERM, previous)

    def test_oracle_results_identical_across_worker_death(self, tmp_path):
        tasks = small_solver_tasks(6, start_seed=340)
        reference = minimum_makespans_many(tasks, 2)
        token = tmp_path / "kill-oracle-worker"
        token.write_text("x")
        before = worker_respawn_count()
        with FAULTS.armed(
            "parallel.chunk", "kill", times=None, token=str(token)
        ):
            survived = minimum_makespans_many(tasks, 2, jobs=2)
        assert [result.makespan for result in survived] == [
            result.makespan for result in reference
        ]
        assert [result.optimal for result in survived] == [
            result.optimal for result in reference
        ]
        assert not token.exists()
        assert worker_respawn_count() == before + 1


# ----------------------------------------------------------------------
# Oracle degraded mode
# ----------------------------------------------------------------------
class TestOracleDegradedMode:
    def test_degraded_result_is_a_verified_sandwich(self):
        task = figure1_task(period=20, deadline=15)
        exact = minimum_makespan(task, 2)
        degraded = degraded_makespan_result(task, 2, reason="test")
        stats = degraded.engine_stats
        assert degraded.degraded
        assert not degraded.optimal
        assert stats["engine"] == "degraded-bounds"
        assert stats["reason"] == "test"
        assert stats["lower_bound"] <= exact.makespan <= stats["upper_bound"]
        assert degraded.makespan == stats["upper_bound"]

    def test_zero_budget_degrades_and_never_caches(self):
        tasks = small_solver_tasks(4, start_seed=300)
        degraded = minimum_makespans_many(tasks, 2, budget=0.0)
        assert all(result.degraded for result in degraded)
        exact = minimum_makespans_many(tasks, 2)
        assert not any(result.degraded for result in exact)
        for loose, tight in zip(degraded, exact):
            assert loose.engine_stats["lower_bound"] <= tight.makespan
            assert tight.makespan <= loose.makespan

    def test_parallel_batch_degrades_instances_taken_up_late(self):
        # Each instance checks the batch budget when a pool worker takes it
        # up: the two workers start the first two inside the budget, and a
        # hang that outlives it must degrade every later instance instead
        # of starting more solves behind a budget that is already spent.
        tasks = small_solver_tasks(6, start_seed=380)
        with FAULTS.armed("oracle.solve", "hang", delay=0.3, times=None):
            results = minimum_makespans_many(tasks, 2, jobs=2, budget=0.15)
        assert [result.degraded for result in results] == [False] * 2 + [True] * 4
        for result in results[2:]:
            assert result.engine_stats["reason"] == "budget-exhausted"
            assert result.engine_stats["lower_bound"] <= result.makespan

    def test_open_breaker_short_circuits_to_degraded(self):
        clock = _FakeClock()
        breaker = CircuitBreaker(failure_threshold=1, reset_timeout=99.0, clock=clock)
        tasks = small_solver_tasks(2, start_seed=320)
        minimum_makespans_many(tasks, 2, budget=0.0, breaker=breaker)
        assert breaker.state == CircuitBreaker.OPEN  # degraded batch = failure
        results = minimum_makespans_many(tasks, 2, breaker=breaker)
        assert all(result.degraded for result in results)
        assert all(
            result.engine_stats["reason"] == "breaker-open" for result in results
        )
        assert breaker.stats()["rejections"] == 1

    def test_exact_batches_close_the_breaker_again(self):
        clock = _FakeClock()
        breaker = CircuitBreaker(failure_threshold=1, reset_timeout=5.0, clock=clock)
        tasks = small_solver_tasks(2, start_seed=340)
        minimum_makespans_many(tasks, 2, budget=0.0, breaker=breaker)
        clock.now = 5.0  # reset timeout elapses -> half-open probe allowed
        results = minimum_makespans_many(tasks, 2, breaker=breaker)
        assert not any(result.degraded for result in results)
        assert breaker.state == CircuitBreaker.CLOSED

    def test_engine_exception_records_breaker_failure(self):
        breaker = CircuitBreaker(failure_threshold=1, reset_timeout=99.0)
        with FAULTS.armed("oracle.solve", "raise"):
            with pytest.raises(FaultInjectedError):
                minimum_makespans_many(
                    small_solver_tasks(1, start_seed=360), 2, breaker=breaker
                )
        assert breaker.state == CircuitBreaker.OPEN


# ----------------------------------------------------------------------
# MicroBatcher worker hardening
# ----------------------------------------------------------------------
def _resolve_all(batch):
    for request in batch:
        request.resolve({"value": request.params["i"]})


def _request(i):
    from repro.service import BatchRequest

    return BatchRequest(
        kind="simulate",
        fingerprint=f"fp-{i:04d}",
        group_key=("g",),
        task=None,
        params={"i": i},
    )


class _DyingWorkerBatcher(MicroBatcher):
    """Worker thread that dies the moment a request is parked."""

    def _take_batch(self):
        with self._condition:
            while not self._pending:
                if self._closed:
                    return [], None
                self._condition.wait()
        raise RuntimeError("worker thread died")


class TestBatcherHardening:
    @pytest.mark.filterwarnings(
        "ignore::pytest.PytestUnhandledThreadExceptionWarning"
    )
    def test_worker_death_fails_parked_requests_and_closes(self):
        batcher = _DyingWorkerBatcher(_resolve_all)
        request = batcher.submit(_request(0))
        with pytest.raises(ServiceError, match="abandoned"):
            request.wait(5.0)
        deadline = time.monotonic() + 5.0
        while not batcher.closed and time.monotonic() < deadline:
            time.sleep(0.005)
        assert batcher.closed
        with pytest.raises(ServiceClosedError):
            batcher.submit(_request(1))
        batcher.close(timeout=5.0)

    def test_on_abandon_routes_executor_failures(self):
        abandoned = []

        def explode(batch):
            raise RuntimeError("executor exploded")

        batcher = MicroBatcher(
            explode,
            on_abandon=lambda request, error: abandoned.append(
                (request.fingerprint, type(error).__name__)
            ),
                    )
        request = batcher.submit(_request(7))
        with pytest.raises(RuntimeError, match="executor exploded"):
            request.wait(5.0)
        batcher.close(timeout=5.0)
        assert abandoned == [("fp-0007", "RuntimeError")]

    def test_admission_bounds_shed_with_retry_after(self):
        batcher = MicroBatcher(_resolve_all, max_pending=2)
        Plug(batcher)
        first, second = batcher.submit(_request(0)), batcher.submit(_request(1))
        with pytest.raises(ServiceOverloadedError, match="max_pending") as info:
            batcher.submit(_request(2))
        assert info.value.retry_after > 0
        assert batcher.stats()["shed"] == 1
        batcher.close(timeout=5.0)  # the accepted two still resolve
        assert first.result == {"value": 0}
        assert second.result == {"value": 1}

    def test_cost_bound_sheds_but_single_oversized_request_is_served(self):
        batcher = MicroBatcher(_resolve_all, max_pending_cost=10)
        Plug(batcher)
        huge = _request(0)
        huge.cost = 50
        batcher.submit(huge)  # oversized but alone: must stay servable
        small = _request(1)
        small.cost = 1
        with pytest.raises(ServiceOverloadedError, match="pending cost"):
            batcher.submit(small)
        batcher.close(timeout=5.0)
        assert huge.result == {"value": 0}

    def test_submit_vs_close_hammer_loses_no_request(self):
        # Satellite regression: under a submit/close race every submission
        # must either be accepted (and then resolved by the drain) or
        # rejected with ServiceClosedError -- never accepted-and-lost,
        # never hung.
        for round_no in range(20):
            batcher = MicroBatcher(_resolve_all)
            accepted: list = []
            rejected: list = []
            lock = threading.Lock()
            start = threading.Barrier(9)

            def submitter(base):
                start.wait()
                for i in range(base, base + 5):
                    try:
                        request = batcher.submit(_request(i))
                        with lock:
                            accepted.append(request)
                    except ServiceClosedError:
                        with lock:
                            rejected.append(i)

            threads = [
                threading.Thread(target=submitter, args=(worker * 5,))
                for worker in range(8)
            ]
            for thread in threads:
                thread.start()
            start.wait()
            batcher.close(timeout=10.0)
            for thread in threads:
                thread.join(timeout=10.0)
                assert not thread.is_alive()
            assert len(accepted) + len(rejected) == 40
            for request in accepted:
                value = request.wait(5.0)  # resolved, exactly once, no hang
                assert value == {"value": request.params["i"]}


# ----------------------------------------------------------------------
# Service chaos: every accepted request resolves exactly once
# ----------------------------------------------------------------------
class TestServiceChaos:
    def _submit_all(self, service, tasks, outcomes, kind="makespan", **kwargs):
        """Submit one request per task from its own thread; record outcomes."""

        def run(task):
            try:
                if kind == "makespan":
                    value = service.submit_makespan(task, 2, **kwargs)
                else:
                    value = service.submit_simulation(task, 2, **kwargs)
                outcomes.append(("ok", task, value))
            except BaseException as error:  # noqa: BLE001 - recorded for asserts
                outcomes.append(("error", task, error))

        threads = [threading.Thread(target=run, args=(task,)) for task in tasks]
        for thread in threads:
            thread.start()
        return threads

    def test_solver_hang_degrades_trips_breaker_and_is_not_cached(self):
        tasks = small_solver_tasks(3, start_seed=400)
        service = EvaluationService(oracle_budget=0.15, breaker_threshold=1)
        plug = Plug(service)
        outcomes: list = []
        try:
            # One hang longer than the whole batch budget: the first
            # instance survives (it started inside the budget), the rest of
            # the batch must degrade instead of queueing behind the hang.
            FAULTS.arm("oracle.solve", "hang", delay=0.3, times=1)
            threads = self._submit_all(service, tasks, outcomes)
            plug.wait_parked(3)  # all three parked in one close-flushed batch
            service.close()
            for thread in threads:
                thread.join(timeout=10.0)
                assert not thread.is_alive()
        finally:
            FAULTS.disarm()
        assert len(outcomes) == 3  # exactly once each
        payloads = [
            (task, payload) for status, task, payload in outcomes if status == "ok"
        ]
        assert len(payloads) == 3
        degraded = [payload for _, payload in payloads if payload["degraded"]]
        exact = [payload for _, payload in payloads if not payload["degraded"]]
        assert degraded and exact  # the hang split the batch
        for payload in degraded:
            assert not payload["optimal"]
            assert payload["engine_stats"]["engine"] == "degraded-bounds"
        stats = service.stats()["resilience"]
        assert stats["degraded"] == len(degraded)
        assert stats["breaker"]["trips"] == 1
        assert stats["breaker"]["state"] == "open"

        # Degraded answers were not cached as exact: a fresh service serving
        # the same fingerprints recomputes and returns the true optimum.
        verify = EvaluationService()
        try:
            for task, payload in payloads:
                fresh = verify.submit_makespan(task, 2)
                assert not fresh["degraded"]
                reference = minimum_makespan(task, 2)
                assert fresh["makespan"] == reference.makespan
                if payload["degraded"]:
                    assert payload["makespan"] >= fresh["makespan"]
                else:
                    assert payload["makespan"] == fresh["makespan"]
        finally:
            verify.close()

    def test_degraded_answer_is_solved_again_by_the_same_service(self):
        # The result cache is the one store of an oracle answer and never
        # takes a degraded one, so the service that degraded a request
        # solves it again when it is resent.  The threshold keeps the
        # breaker closed through the degraded batch.
        tasks = small_solver_tasks(2, start_seed=420)
        service = EvaluationService(oracle_budget=0.15, breaker_threshold=100)
        plug = Plug(service)
        outcomes: list = []
        try:
            # The first instance starts inside the budget and hangs past
            # it; the second is taken up late and degrades.
            FAULTS.arm("oracle.solve", "hang", delay=0.3, times=1)
            threads = self._submit_all(service, tasks, outcomes)
            plug.wait_parked(2)
            plug.release()
            for thread in threads:
                thread.join(timeout=10.0)
                assert not thread.is_alive()
            FAULTS.disarm()
            degraded = [
                (task, payload)
                for status, task, payload in outcomes
                if status == "ok" and payload["degraded"]
            ]
            assert len(outcomes) == 2 and len(degraded) == 1
            task, loose = degraded[0]
            misses = service.stats()["cache"]["misses"]
            again = service.submit_makespan(task, 2)
            assert service.stats()["cache"]["misses"] == misses + 1
            assert not again["degraded"] and again["optimal"]
            assert again["makespan"] == minimum_makespan(task, 2).makespan
            assert loose["makespan"] >= again["makespan"]
            assert service.stats()["resilience"]["breaker"]["state"] == "closed"
        finally:
            FAULTS.disarm()
            service.close()

    def test_executor_fault_fails_cleanly_without_poisoning(self):
        task = figure1_task(period=20, deadline=15)
        service = EvaluationService()
        try:
            with FAULTS.armed("service.batch", "raise"):
                with pytest.raises(FaultInjectedError):
                    service.submit_simulation(task, 2)
            # The fingerprint is not poisoned: the same request succeeds.
            makespan = service.submit_simulation(task, 2)
            assert makespan > 0
        finally:
            service.close()

    def test_mid_drain_fault_still_resolves_every_request(self):
        tasks = small_tasks(4, start_seed=420)
        service = EvaluationService()
        plug = Plug(service)
        outcomes: list = []
        try:
            FAULTS.arm(
                "service.drain", "raise", times=None, message="drain interrupted"
            )
            threads = self._submit_all(service, tasks, outcomes, kind="simulate")
            plug.wait_parked(4)  # everyone parked; only close() can flush
            service.close()
            for thread in threads:
                thread.join(timeout=10.0)
                assert not thread.is_alive()
        finally:
            FAULTS.disarm()
        assert len(outcomes) == 4  # exactly one outcome per accepted request
        statuses = {status for status, _, _ in outcomes}
        assert statuses == {"error"}
        for _, _, error in outcomes:
            assert isinstance(error, FaultInjectedError)
        assert service.closed
        with pytest.raises(ServiceClosedError):
            service.submit_simulation(tasks[0], 2)

    def test_queue_deadline_expiry_times_out_before_any_engine_runs(self):
        task = figure1_task(period=20, deadline=15)
        service = EvaluationService()
        Plug(service)
        try:
            with pytest.raises(ServiceTimeoutError):
                service.submit_simulation(task, 2, timeout=0.05)
            stats = service.stats()
            assert stats["resilience"]["timeouts"] >= 1
            assert stats["engine"]["batches"] == 0  # nothing evaluated
        finally:
            service.close()
        # The drain then expires the parked request batch-side as well.
        assert service.stats()["engine"]["batches"] == 0

    def test_default_timeout_applies_when_call_passes_none(self):
        task = figure1_task(period=20, deadline=15)
        service = EvaluationService(default_timeout=0.05)
        Plug(service)
        try:
            with pytest.raises(ServiceTimeoutError):
                service.submit_simulation(task, 2)
        finally:
            service.close()

    def test_shedding_rejects_excess_but_resolves_the_accepted(self):
        tasks = small_tasks(6, start_seed=440)
        service = EvaluationService(max_pending=2)
        Plug(service)
        outcomes: list = []
        threads = self._submit_all(service, tasks, outcomes, kind="simulate")
        time.sleep(0.4)  # let all six race admission; two park, four shed
        service.close()
        for thread in threads:
            thread.join(timeout=10.0)
            assert not thread.is_alive()
        assert len(outcomes) == 6
        ok = [payload for status, _, payload in outcomes if status == "ok"]
        errors = [error for status, _, error in outcomes if status == "error"]
        assert len(ok) == 2  # every accepted request resolved with a value
        assert len(errors) == 4
        for error in errors:
            assert isinstance(error, ServiceOverloadedError)
            assert error.retry_after > 0
        assert service.stats()["resilience"]["shed"] == 4


# ----------------------------------------------------------------------
# HTTP + client resilience
# ----------------------------------------------------------------------
@pytest.fixture()
def http_service():
    service = EvaluationService()
    server, thread = start_server(service, port=0)
    try:
        yield service, server
    finally:
        server.shutdown()
        server.server_close()
        service.close()
        thread.join(timeout=5.0)


class TestHTTPResilience:
    def test_internal_errors_use_the_envelope_and_leak_nothing(self, http_service):
        service, server = http_service
        task = figure1_task(period=20, deadline=15)

        def explode(*args, **kwargs):
            raise RuntimeError("secret internal detail")

        service.submit_simulation = explode  # type: ignore[method-assign]
        with ServiceClient(port=server.port, timeout=30, retries=0) as client:
            with pytest.raises(ServiceError, match="internal server error") as info:
                client.simulate(task, cores=2)
        assert "secret" not in str(info.value)
        assert not getattr(info.value, "retryable", True)

    def test_not_found_envelope(self, http_service):
        _, server = http_service
        with pytest.raises(urllib.error.HTTPError) as info:
            urllib.request.urlopen(f"http://127.0.0.1:{server.port}/nope")
        import json

        document = json.loads(info.value.read().decode("utf-8"))
        assert document["error"]["code"] == "not-found"
        assert document["error"]["retryable"] is False
        assert "endpoints" in document

    def test_overload_maps_to_429_with_retry_after_header(self, http_service):
        service, server = http_service
        task = figure1_task(period=20, deadline=15)

        def shed(*args, **kwargs):
            raise ServiceOverloadedError("queue full", retry_after=2.5)

        service.submit_simulation = shed  # type: ignore[method-assign]
        import json as json_module

        request = urllib.request.Request(
            f"http://127.0.0.1:{server.port}/simulate",
            data=json_module.dumps(
                {"task": _task_document(task), "cores": 2}
            ).encode(),
            headers={"Content-Type": "application/json"},
        )
        with pytest.raises(urllib.error.HTTPError) as info:
            urllib.request.urlopen(request)
        assert info.value.code == 429
        assert info.value.headers["Retry-After"] == "3"  # ceil(2.5)
        envelope = json_module.loads(info.value.read().decode())["error"]
        assert envelope["code"] == "overloaded"
        assert envelope["retryable"] is True
        assert envelope["retry_after"] == 2.5

    def test_client_retries_honouring_retry_after(self, http_service):
        service, server = http_service
        task = figure1_task(period=20, deadline=15)
        calls = {"n": 0}
        original = service.submit_simulation

        def flaky(*args, **kwargs):
            calls["n"] += 1
            if calls["n"] == 1:
                raise ServiceOverloadedError("transient overload", retry_after=0.1)
            return original(*args, **kwargs)

        service.submit_simulation = flaky  # type: ignore[method-assign]
        sleeps = []
        client = ServiceClient(port=server.port, timeout=30, retries=2, backoff=0.01)
        import repro.service.client as client_module

        real_retry_call = client_module.retry_call
        client_module.retry_call = lambda fn, **kw: real_retry_call(
            fn, **{**kw, "sleep": sleeps.append}
        )
        try:
            makespan = client.simulate(task, cores=2)
        finally:
            client_module.retry_call = real_retry_call
            client.close()
        assert calls["n"] == 2
        assert makespan > 0
        assert sleeps == [0.1]  # Retry-After floored the 0.01 backoff

    def test_client_timeout_deadline_maps_to_504(self):
        service = EvaluationService()
        Plug(service)
        server, thread = start_server(service, port=0)
        client = ServiceClient(port=server.port, timeout=30, retries=0)
        try:
            task = figure1_task(period=20, deadline=15)
            with pytest.raises(ServiceTimeoutError) as info:
                client.simulate(task, cores=2, deadline=0.05)
            assert getattr(info.value, "retryable", False)
        finally:
            client.close()
            server.shutdown()
            server.server_close()
            service.close()
            thread.join(timeout=5.0)

    def test_per_call_timeout_overrides_the_default(self, http_service):
        _, server = http_service
        client = ServiceClient(port=server.port, timeout=0.000001, retries=0)
        # The default timeout is hopeless; the per-call override must win.
        assert client.health(timeout=30)["status"] == "ok"
        client.close()

    def test_unreachable_server_stays_fast_with_retries(self):
        client = ServiceClient(port=1, timeout=1, retries=2, backoff=0.01)
        before = time.monotonic()
        with pytest.raises(ServiceError, match="cannot reach"):
            client.health()
        assert time.monotonic() - before < 5.0


def _task_document(task):
    from repro.io.json_io import task_to_dict

    return task_to_dict(task)
