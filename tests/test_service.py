"""Tests of the long-lived evaluation service (:mod:`repro.service`, PR 5).

Covers the acceptance criteria of the serving layer:

* fingerprint stability (node-ordering permutations, pickle round trips)
  and sensitivity (any behavioural change alters the hash);
* LRU byte-cap eviction with hit/miss/eviction counters;
* micro-batcher coalescing, drain-on-close and failure fan-out;
* a threaded burst of >= 100 mixed simulate/analyse requests returning
  **bit-identical** results to sequential single-cell evaluation, with
  ``stats()`` proving coalescing (batches << requests) and a second
  identical burst served >= 10x faster from the cache;
* HTTP round trips through the ``json_io`` payloads on an ephemeral port;
* a hypothesis property: cached and uncached answers always agree.
"""

from __future__ import annotations

import http.client
import json
import math
import pickle
import threading
import time
from concurrent.futures import ThreadPoolExecutor

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.batch import analyse_many
from repro.core.examples import figure1_task
from repro.core.exceptions import (
    SerializationError,
    ServiceClosedError,
    ServiceError,
    ServiceOverloadedError,
    ServiceTimeoutError,
)
from repro.core.task import DagTask
from repro.ilp.makespan import minimum_makespan
from repro.io.json_io import decode_task, task_from_dict, task_to_dict
from repro.service import (
    BatchRequest,
    EvaluationService,
    MicroBatcher,
    ResultCache,
    ServiceClient,
    analysis_payload,
    makespan_payload,
    platform_fingerprint,
    policy_fingerprint,
    request_fingerprint,
    start_server,
    task_fingerprint,
)
from repro.service.cache import estimate_size
from repro.simulation.engine import simulate_makespan
from repro.simulation.platform import Platform
from repro.simulation.schedulers import RandomPolicy, policy_by_name

from strategies import make_random_heterogeneous_task

# ----------------------------------------------------------------------
# Helpers
# ----------------------------------------------------------------------
FAST_BATCHING = dict(flush_interval=0.05, quiet_interval=0.001)


def permuted_copy(task: DagTask) -> DagTask:
    """Rebuild ``task`` with reversed node/edge insertion order."""
    graph = task.graph
    wcets = {node: graph.wcet(node) for node in reversed(graph.nodes())}
    edges = list(reversed(graph.edges()))
    clone = DagTask.from_wcets(
        wcets,
        edges,
        offloaded_node=task.offloaded_node,
        period=task.period,
        deadline=task.deadline,
        name="permuted-" + task.name,
    )
    return clone


# ----------------------------------------------------------------------
# Fingerprints
# ----------------------------------------------------------------------
class TestFingerprints:
    def test_node_ordering_permutation_hashes_equal(self):
        task = figure1_task(period=20, deadline=15)
        clone = permuted_copy(task)
        assert list(clone.graph.nodes()) != list(task.graph.nodes())
        assert task_fingerprint(clone) == task_fingerprint(task)
        assert clone.compiled().fingerprint() == task.compiled().fingerprint()

    @given(seed=st.integers(0, 2**20), fraction=st.sampled_from([0.05, 0.2, 0.5]))
    @settings(max_examples=20, deadline=None)
    def test_random_tasks_permutation_stable(self, seed, fraction):
        task = make_random_heterogeneous_task(seed, fraction, n_max=25)
        assert task_fingerprint(permuted_copy(task)) == task_fingerprint(task)

    def test_pickle_round_trip_stable(self):
        task = make_random_heterogeneous_task(7, 0.2)
        clone = pickle.loads(pickle.dumps(task))
        assert task_fingerprint(clone) == task_fingerprint(task)
        compiled = pickle.loads(pickle.dumps(task.compiled()))
        assert compiled.fingerprint() == task.compiled().fingerprint()

    def test_name_and_metadata_are_ignored(self):
        task = make_random_heterogeneous_task(3, 0.2)
        renamed = task.copy()
        renamed.name = "other"
        renamed.metadata["note"] = "ignored"
        assert task_fingerprint(renamed) == task_fingerprint(task)

    def test_behavioural_changes_alter_the_hash(self):
        task = make_random_heterogeneous_task(11, 0.2)
        fingerprint = task_fingerprint(task)
        assert task_fingerprint(task.with_offloaded_wcet(task.offloaded_wcet + 1)) \
            != fingerprint
        assert task_fingerprint(task.as_homogeneous()) != fingerprint
        other_offload = next(
            node for node in task.graph.nodes() if node != task.offloaded_node
        )
        assert task_fingerprint(task.with_offloaded_node(other_offload)) \
            != fingerprint
        retimed = task.copy()
        retimed.period = (task.period or 0) + 1000
        retimed.deadline = retimed.period
        assert task_fingerprint(retimed) != fingerprint

    def test_platform_and_policy_fingerprints(self):
        assert platform_fingerprint(4) == platform_fingerprint(Platform(4, 1))
        assert platform_fingerprint(Platform(4, 2)) != platform_fingerprint(4)
        assert policy_fingerprint("random", 1) != policy_fingerprint("random", 2)
        assert policy_fingerprint("breadth-first") != policy_fingerprint(
            "depth-first"
        )
        assert policy_fingerprint("fixed-priority", None, {"a": 1.0, "b": 2.0}) \
            == policy_fingerprint("fixed-priority", None, {"b": 2.0, "a": 1.0})
        # Keys are looked up by raw identity by FixedPriorityPolicy, so an
        # int-keyed and a str-keyed table are different specs.
        assert policy_fingerprint("fixed-priority", None, {3: 0.0}) \
            != policy_fingerprint("fixed-priority", None, {"3": 0.0})

    def test_request_fingerprint_separates_kinds(self):
        task_fp = task_fingerprint(figure1_task())
        assert request_fingerprint("simulate", task_fp, 2) != request_fingerprint(
            "analyse", task_fp, 2
        )


# ----------------------------------------------------------------------
# Result cache
# ----------------------------------------------------------------------
class TestResultCache:
    def test_lru_byte_cap_eviction_order(self):
        payload = {"makespan": 1.0}
        entry = estimate_size("k0") + estimate_size(payload) + 128
        cache = ResultCache(max_bytes=entry * 3)
        for key in ("k0", "k1", "k2"):
            assert cache.put(key, dict(payload))
        assert cache.get("k0") is not None  # refresh k0: k1 becomes LRU
        cache.put("k3", dict(payload))
        assert "k1" not in cache and "k0" in cache
        assert "k2" in cache and "k3" in cache
        stats = cache.stats()
        assert stats["evictions"] == 1
        assert stats["entries"] == 3
        assert stats["bytes"] <= cache.max_bytes

    def test_oversized_entry_rejected(self):
        cache = ResultCache(max_bytes=256)
        assert not cache.put("huge", "x" * 10_000)
        assert cache.stats()["rejected"] == 1
        assert len(cache) == 0

    def test_replacement_does_not_leak_bytes(self):
        cache = ResultCache(max_bytes=1 << 20)
        cache.put("key", {"makespan": 1.0})
        before = cache.bytes_used
        for _ in range(10):
            cache.put("key", {"makespan": 2.0})
        assert cache.bytes_used == before
        assert cache.get("key") == {"makespan": 2.0}

    def test_hit_miss_counters_and_peek(self):
        cache = ResultCache()
        assert cache.get("absent") is None
        cache.put("key", 1)
        assert cache.get("key") == 1
        assert cache.peek("key") == 1
        stats = cache.stats()
        assert stats["hits"] == 1 and stats["misses"] == 1

    def test_threaded_access_is_safe(self):
        cache = ResultCache(max_bytes=1 << 16)

        def worker(base: int) -> None:
            for i in range(200):
                cache.put(f"k{base}-{i % 17}", {"value": i})
                cache.get(f"k{base}-{(i + 3) % 17}")

        threads = [threading.Thread(target=worker, args=(b,)) for b in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert cache.bytes_used <= cache.max_bytes


# ----------------------------------------------------------------------
# Micro-batcher
# ----------------------------------------------------------------------
def _request(index: int) -> BatchRequest:
    return BatchRequest(
        kind="simulate",
        fingerprint=f"request-{index}",
        group_key=("group",),
        task=None,
        params={},
    )


class TestMicroBatcher:
    def test_burst_coalesces_into_few_batches(self):
        def execute(batch):
            time.sleep(0.005)
            for request in batch:
                request.resolve(len(batch))

        batcher = MicroBatcher(execute, **FAST_BATCHING)
        requests = [_request(i) for i in range(60)]
        with ThreadPoolExecutor(30) as pool:
            sizes = list(
                pool.map(lambda r: batcher.submit(r).wait(timeout=30), requests)
            )
        stats = batcher.stats()
        batcher.close()
        assert stats["submitted"] == 60
        assert stats["batches"] < 20  # batches << requests
        assert max(sizes) == stats["largest_batch"] > 1

    def test_executor_failure_fans_out(self):
        def execute(batch):
            raise RuntimeError("engine exploded")

        batcher = MicroBatcher(execute, **FAST_BATCHING)
        request = batcher.submit(_request(0))
        with pytest.raises(RuntimeError, match="engine exploded"):
            request.wait(timeout=30)
        batcher.close()

    def test_unresolved_requests_fail_defensively(self):
        def execute(batch):
            batch[0].resolve("served")  # forget the rest

        batcher = MicroBatcher(execute, **FAST_BATCHING)
        first = batcher.submit(_request(0))
        second = batcher.submit(_request(1))
        assert first.wait(timeout=30) == "served"
        with pytest.raises(ServiceError, match="unresolved"):
            second.wait(timeout=30)
        batcher.close()

    def test_close_drains_pending_requests(self):
        served: list[str] = []

        def execute(batch):
            for request in batch:
                served.append(request.fingerprint)
                request.resolve(True)

        # Long quiet/deadline windows: the requests are still parked when
        # close() runs, so the drain path must serve them.
        batcher = MicroBatcher(execute, flush_interval=30.0, quiet_interval=10.0)
        requests = [batcher.submit(_request(i)) for i in range(10)]
        assert batcher.stats()["pending"] == 10
        batcher.close(timeout=30)
        assert all(request.wait(timeout=1) for request in requests)
        assert len(served) == 10
        assert batcher.stats()["flushes"]["close"] == 1
        with pytest.raises(ServiceClosedError):
            batcher.submit(_request(99))

    def test_lone_request_flushes_on_quiet_not_deadline(self):
        def execute(batch):
            for request in batch:
                request.resolve(True)

        batcher = MicroBatcher(execute, flush_interval=30.0, quiet_interval=0.002)
        start = time.perf_counter()
        assert batcher.submit(_request(0)).wait(timeout=30)
        elapsed = time.perf_counter() - start
        batcher.close()
        assert elapsed < 5.0  # quiet trigger, not the 30 s deadline


# ----------------------------------------------------------------------
# Evaluation service: the acceptance burst
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def burst_workload():
    """>= 100 mixed simulate/analyse requests over fresh (cold-cache) tasks.

    The sequential reference is computed *by the test, after* the service's
    cold burst: evaluating it first would warm the shared graph/transform
    caches and flatten the cold-vs-cached timing comparison the acceptance
    criterion asserts on.  (Values are cache-state-independent either way.)
    """
    import numpy as np

    from repro.generator.config import GeneratorConfig, OffloadConfig
    from repro.generator.offload import make_heterogeneous
    from repro.generator.random_dag import DagStructureGenerator

    # Uniformly large, dense DAGs (the paper's upper range): the cold burst
    # must do real engine work for the >= 10x cached-speedup assertion to
    # have headroom on noisy CI runners.
    config = GeneratorConfig(
        p_par=0.8, n_par=6, max_depth=5, n_min=150, n_max=250, c_min=1, c_max=100
    )
    tasks = []
    for seed in range(40):
        rng = np.random.default_rng(seed)
        task = DagStructureGenerator(config, rng).generate_task()
        tasks.append(
            make_heterogeneous(task, OffloadConfig(), rng, target_fraction=0.2)
        )
    requests = []
    for task in tasks:
        # Each request carries its *own* task object (``task.copy()`` drops
        # the graph caches), the shape an HTTP client produces -- every
        # request parses its own document.  The service must still dedupe
        # and cache across them: fingerprints are content hashes, not
        # object identities.
        for cores in (2, 8):
            requests.append(("simulate", task.copy(), cores))
        requests.append(("analyse", task.copy(), (2, 4, 8, 16)))
        requests.append(("analyse", task.copy(), (3,)))
    assert len(requests) >= 100
    return requests


def _sequential_reference(requests) -> list:
    reference = []
    for kind, task, arg in requests:
        if kind == "simulate":
            reference.append(
                simulate_makespan(
                    task, Platform(arg), policy_by_name("breadth-first")
                )
            )
        else:
            reference.append(analysis_payload(analyse_many([task], arg)[0]))
    return reference


def _fire_burst(service: EvaluationService, requests, pool) -> list:
    def one(entry):
        kind, task, arg = entry
        if kind == "simulate":
            return service.submit_simulation(task, arg, timeout=120)
        return service.submit_analysis(task, arg, timeout=120)

    return list(pool.map(one, requests))


class TestEvaluationServiceBurst:
    def test_threaded_burst_matches_sequential_and_caches(self, burst_workload):
        requests = burst_workload
        with EvaluationService(**FAST_BATCHING) as service, ThreadPoolExecutor(
            32
        ) as pool:
            list(pool.map(lambda x: x, range(64)))  # spawn the pool threads
            start = time.perf_counter()
            cold = _fire_burst(service, requests, pool)
            cold_s = time.perf_counter() - start

            # Bit-identical to sequential single-cell evaluation (floats
            # compare exactly; analysis payloads compare structurally).
            reference = _sequential_reference(requests)
            assert cold == reference

            stats = service.stats()
            total = stats["requests"]["total"]
            assert total == len(requests)
            # Coalescing proof: batches << requests.
            assert stats["batching"]["batches"] * 4 <= total
            assert stats["batching"]["largest_batch"] > 1
            # Grid coalescing may evaluate a few unrequested cells, but the
            # waste is bounded by the facade's 2x grid-density limit.
            assert stats["engine"]["evaluated_cells"] <= 2 * total

            # Second identical burst: pure cache hits, >= 10x faster.
            warm_s = float("inf")
            for _ in range(3):  # best of three shields against scheduler noise
                start = time.perf_counter()
                warm = _fire_burst(service, requests, pool)
                warm_s = min(warm_s, time.perf_counter() - start)
            assert warm == reference
            warm_stats = service.stats()
            hits = warm_stats["cache"]["hits"]
            assert hits >= len(requests)  # the whole second burst was hits
            assert warm_stats["engine"]["evaluated_cells"] == stats["engine"][
                "evaluated_cells"
            ]
            assert cold_s >= 10 * warm_s, (
                f"cached burst not >= 10x faster: cold {cold_s:.3f}s vs "
                f"warm {warm_s:.3f}s"
            )

    def test_duplicate_requests_coalesce_to_one_evaluation(self):
        task = make_random_heterogeneous_task(99, 0.3, n_max=40)
        with EvaluationService(**FAST_BATCHING) as service:
            with ThreadPoolExecutor(25) as pool:
                results = list(
                    pool.map(
                        lambda _: service.submit_simulation(task, 4, timeout=120),
                        range(50),
                    )
                )
            assert len(set(results)) == 1
            stats = service.stats()
            assert stats["engine"]["evaluated_cells"] == 1
            joins_and_hits = (
                stats["engine"]["inflight_joins"] + stats["cache"]["hits"]
            )
            assert joins_and_hits == 49


class TestEvaluationServiceSemantics:
    def test_makespan_requests_use_the_exact_oracles(self):
        task = figure1_task(period=20, deadline=15)
        with EvaluationService(**FAST_BATCHING) as service:
            payload = service.submit_makespan(task, 2, timeout=300)
            reference = makespan_payload(minimum_makespan(task, 2))
            assert payload["makespan"] == reference["makespan"] == 8.0
            assert payload["optimal"]
            assert payload["start_times"] == reference["start_times"]
            assert service.submit_makespan(task, 2, timeout=300) == payload

    def test_random_policy_requires_a_seed(self):
        with EvaluationService(**FAST_BATCHING) as service:
            with pytest.raises(ValueError, match="policy_seed"):
                service.submit_simulation(figure1_task(), 2, policy="random")

    def test_seeded_random_policy_matches_one_shot_and_caches(self):
        task = make_random_heterogeneous_task(5, 0.2, n_max=40)
        with EvaluationService(**FAST_BATCHING) as service:
            value = service.submit_simulation(
                task, 2, policy="random", policy_seed=42, timeout=120
            )
            again = service.submit_simulation(
                task, 2, policy="random", policy_seed=42, timeout=120
            )
            expected = simulate_makespan(task, Platform(2), RandomPolicy(42))
            assert value == again == expected
            assert service.stats()["engine"]["solo_evaluations"] == 1

    def test_fixed_priority_table_round_trip(self):
        task = figure1_task()
        table = {node: float(i) for i, node in enumerate(task.graph.nodes())}
        with EvaluationService(**FAST_BATCHING) as service:
            value = service.submit_simulation(
                task, 2, policy="fixed-priority", priorities=table, timeout=120
            )
        expected = simulate_makespan(
            task, Platform(2), policy_by_name("fixed-priority")
        )
        # A complete creation-order table reproduces breadth-like FIFO only
        # by accident; just assert the service agrees with the one-shot run.
        from repro.simulation.schedulers import FixedPriorityPolicy

        assert value == simulate_makespan(
            task, Platform(2), FixedPriorityPolicy(table)
        )

    def test_priority_table_key_types_do_not_collide(self):
        # An int-keyed table matches the int node ids; a str-keyed one
        # matches nothing (every node falls back to +inf).  The service
        # must serve each spec its own one-shot answer rather than letting
        # them share a cache entry.
        from repro.simulation.schedulers import FixedPriorityPolicy

        # Fork of three parallel nodes (wcets 4, 3, 3) on m=2: which pair
        # starts first changes the makespan, so the int-keyed table (which
        # matches the int node ids) and the str-keyed one (which matches
        # nothing -> FIFO fallback) give different, individually-verified
        # answers.
        task = DagTask.from_wcets(
            {1: 1.0, 2: 4.0, 3: 3.0, 4: 3.0, 5: 1.0},
            [(1, 2), (1, 3), (1, 4), (2, 5), (3, 5), (4, 5)],
        )
        int_table = {3: 0.0, 4: 1.0}
        str_table = {str(node): value for node, value in int_table.items()}
        int_expected = simulate_makespan(
            task, Platform(2), FixedPriorityPolicy(int_table)
        )
        str_expected = simulate_makespan(
            task, Platform(2), FixedPriorityPolicy(str_table)
        )
        assert int_expected != str_expected  # the specs genuinely differ
        with EvaluationService(**FAST_BATCHING) as service:
            int_value = service.submit_simulation(
                task, 2, policy="fixed-priority", priorities=int_table, timeout=120
            )
            str_value = service.submit_simulation(
                task, 2, policy="fixed-priority", priorities=str_table, timeout=120
            )
        assert int_value == int_expected
        assert str_value == str_expected

    def test_seed_is_normalised_for_deterministic_policies(self):
        task = make_random_heterogeneous_task(31, 0.2, n_max=30)
        with EvaluationService(**FAST_BATCHING) as service:
            seeded = service.submit_simulation(
                task, 2, policy="breadth-first", policy_seed=7, timeout=120
            )
            unseeded = service.submit_simulation(
                task, 2, policy="breadth-first", timeout=120
            )
            assert seeded == unseeded
            # The seed is ignored by deterministic policies, so both
            # requests share one fingerprint: one evaluation, one hit.
            stats = service.stats()
            assert stats["engine"]["evaluated_cells"] == 1
            assert stats["cache"]["hits"] == 1

    def test_returned_payloads_are_copies(self):
        task = make_random_heterogeneous_task(17, 0.2, n_max=30)
        with EvaluationService(**FAST_BATCHING) as service:
            payload = service.submit_analysis(task, 2, timeout=120)
            payload["bounds"].clear()  # vandalise the caller's copy
            fresh = service.submit_analysis(task, 2, timeout=120)
            assert fresh["bounds"], "cache was poisoned by caller mutation"

    def test_cache_disabled_still_correct(self):
        task = make_random_heterogeneous_task(23, 0.2, n_max=30)
        with EvaluationService(cache_bytes=0, **FAST_BATCHING) as service:
            first = service.submit_simulation(task, 2, timeout=120)
            second = service.submit_simulation(task, 2, timeout=120)
            assert first == second == simulate_makespan(
                task, Platform(2), policy_by_name("breadth-first")
            )
            assert service.stats()["cache"]["entries"] == 0

    def test_unknown_policy_and_method_rejected(self):
        with EvaluationService(**FAST_BATCHING) as service:
            with pytest.raises(KeyError):
                service.submit_simulation(figure1_task(), 2, policy="no-such")
            with pytest.raises(ValueError):
                service.submit_makespan(figure1_task(), 2, method="no-such")

    def test_leader_enqueue_failure_releases_joiners(self):
        # If the leader's enqueue into the batcher fails (e.g. a close()
        # race), concurrent duplicates parked on its in-flight entry must
        # receive the failure instead of waiting forever.
        task = figure1_task()
        with EvaluationService(**FAST_BATCHING) as service:
            entered = threading.Event()
            release = threading.Event()

            def failing_submit(request):
                entered.set()
                assert release.wait(10)
                raise ServiceClosedError("forced enqueue failure")

            service._batcher.submit = failing_submit
            outcomes = []

            def submit(role):
                try:
                    service.submit_simulation(task, 2, timeout=30)
                    outcomes.append((role, "ok"))
                except ServiceClosedError:
                    outcomes.append((role, "closed"))

            leader = threading.Thread(target=submit, args=("leader",))
            leader.start()
            assert entered.wait(10)
            joiner = threading.Thread(target=submit, args=("joiner",))
            joiner.start()
            time.sleep(0.05)  # let the joiner park on the leader's event
            release.set()
            leader.join(timeout=10)
            joiner.join(timeout=10)
            assert not leader.is_alive() and not joiner.is_alive()
            assert sorted(outcomes) == [("joiner", "closed"), ("leader", "closed")]

    def test_infeasible_unrequested_grid_cell_does_not_fail_group_mates(self):
        # Hetero task on an accelerator platform + homogeneous task on an
        # accelerator-less one: both fine sequentially, but one flush grids
        # {both tasks} x {both platforms} and the *unrequested* cell
        # (hetero task, no accelerator) is infeasible.  The group must fall
        # back to per-request evaluation, not fail both clients.
        from strategies import make_random_host_task

        hetero = make_random_heterogeneous_task(1, 0.2, n_max=20)
        plain = make_random_host_task(2, n_max=20)
        service = EvaluationService(flush_interval=30.0, quiet_interval=10.0)
        with ThreadPoolExecutor(2) as pool:
            first = pool.submit(
                service.submit_simulation, hetero, Platform(2, 1), timeout=60
            )
            second = pool.submit(
                service.submit_simulation, plain, Platform(4, 0), timeout=60
            )
            while service.stats()["batching"]["pending"] < 2:
                time.sleep(0.001)
            service.close(timeout=60)
            policy = policy_by_name("breadth-first")
            assert first.result(60) == simulate_makespan(
                hetero, Platform(2, 1), policy
            )
            assert second.result(60) == simulate_makespan(
                plain, Platform(4, 0), policy
            )

    def test_invalid_request_fails_alone_in_a_coalesced_group(self):
        # A genuinely invalid request (offloading task, accelerator-less
        # platform) coalesced with a valid one: only the offender errors.
        from repro.core.exceptions import SimulationError

        bad_task = make_random_heterogeneous_task(3, 0.2, n_max=20)
        good_task = make_random_heterogeneous_task(4, 0.2, n_max=20)
        service = EvaluationService(flush_interval=30.0, quiet_interval=10.0)
        with ThreadPoolExecutor(2) as pool:
            bad = pool.submit(
                service.submit_simulation, bad_task, Platform(2, 0), timeout=60
            )
            good = pool.submit(
                service.submit_simulation, good_task, Platform(2, 1), timeout=60
            )
            while service.stats()["batching"]["pending"] < 2:
                time.sleep(0.001)
            service.close(timeout=60)
            assert good.result(60) == simulate_makespan(
                good_task, Platform(2, 1), policy_by_name("breadth-first")
            )
            with pytest.raises(SimulationError):
                bad.result(60)

    def test_close_drains_and_rejects_afterwards(self):
        tasks = [make_random_heterogeneous_task(s, 0.2, n_max=30) for s in range(8)]
        # Long quiet window: requests are still parked when close() runs.
        service = EvaluationService(flush_interval=30.0, quiet_interval=10.0)
        with ThreadPoolExecutor(8) as pool:
            futures = [
                pool.submit(service.submit_simulation, task, 2, timeout=120)
                for task in tasks
            ]
            while service.stats()["batching"]["pending"] < len(tasks):
                time.sleep(0.001)
            service.close(timeout=60)
            results = [future.result(timeout=60) for future in futures]
        expected = [
            simulate_makespan(task, Platform(2), policy_by_name("breadth-first"))
            for task in tasks
        ]
        assert results == expected
        with pytest.raises(ServiceClosedError):
            service.submit_simulation(tasks[0], 2)


# ----------------------------------------------------------------------
# Engine selection: measured crossover threshold + per-engine accounting
# ----------------------------------------------------------------------
class TestEngineSelectionAndThreshold:
    def test_constructor_threshold_overrides_calibration(self):
        with EvaluationService(vector_threshold=3, **FAST_BATCHING) as service:
            assert service.stats()["engine"]["vector_threshold"] == 3

    def test_env_threshold_overrides_calibration(self, monkeypatch):
        monkeypatch.setenv("REPRO_VECTOR_THRESHOLD", "7")
        with EvaluationService(**FAST_BATCHING) as service:
            assert service.stats()["engine"]["vector_threshold"] == 7

    def test_explicit_threshold_beats_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_VECTOR_THRESHOLD", "7")
        with EvaluationService(vector_threshold=2, **FAST_BATCHING) as service:
            assert service.stats()["engine"]["vector_threshold"] == 2

    def test_default_threshold_comes_from_calibration_table(self):
        from repro.simulation.calibration import vector_threshold

        with EvaluationService(**FAST_BATCHING) as service:
            assert (
                service.stats()["engine"]["vector_threshold"] == vector_threshold()
            )

    def test_by_engine_counters_and_prometheus_series(self):
        from repro.simulation.batch import resolve_engine

        tasks = [make_random_heterogeneous_task(s, 0.2, n_max=30) for s in range(4)]

        def burst(service):
            with ThreadPoolExecutor(4) as pool:
                return list(
                    pool.map(
                        lambda t: service.submit_simulation(t, 2, timeout=120),
                        tasks,
                    )
                )

        # Below the (huge) threshold every group runs on the dense engine.
        with EvaluationService(vector_threshold=10**6, **FAST_BATCHING) as service:
            dense_values = burst(service)
            by_engine = service.stats()["engine"]["by_engine"]
            assert by_engine["dense"] >= 1
            assert by_engine["lockstep"] == 0 and by_engine["compiled"] == 0
            rendered = service.metrics.render_prometheus()
            assert 'repro_service_sim_engine_total{engine="dense"}' in rendered

        # Threshold 1: every grid goes through the vector path, served by
        # whichever concrete engine "auto" resolves to on this machine.
        with EvaluationService(vector_threshold=1, **FAST_BATCHING) as service:
            vector_values = burst(service)
            by_engine = service.stats()["engine"]["by_engine"]
            assert by_engine["dense"] == 0
            assert by_engine[resolve_engine("auto")] >= 1
        # Engine choice never changes answers (the bit-identity contract).
        assert vector_values == dense_values

    def test_multi_policy_burst_coalesces_into_one_grid(self):
        # An ablation-shaped burst (every task under every deterministic
        # policy on one platform) must flush as a single task x platform x
        # policy grid: one batch, zero wasted cells.
        tasks = [
            make_random_heterogeneous_task(40 + s, 0.2, n_max=30) for s in range(3)
        ]
        policies = ["breadth-first", "shortest-first", "longest-first"]
        platform = Platform(2, 1)
        service = EvaluationService(
            flush_interval=30.0, quiet_interval=10.0, vector_threshold=1
        )
        with ThreadPoolExecutor(9) as pool:
            futures = {
                (index, name): pool.submit(
                    service.submit_simulation,
                    task,
                    platform,
                    policy=name,
                    timeout=60,
                )
                for index, task in enumerate(tasks)
                for name in policies
            }
            while service.stats()["batching"]["pending"] < 9:
                time.sleep(0.001)
            service.close(timeout=60)
            for index, task in enumerate(tasks):
                for name in policies:
                    assert futures[(index, name)].result(60) == (
                        simulate_makespan(task, platform, policy_by_name(name))
                    )
        stats = service.stats()
        assert stats["batching"]["batches"] == 1
        assert stats["engine"]["evaluated_cells"] == 9  # 3 tasks x 1 x 3 policies
        assert stats["engine"]["batches"] == 1


# ----------------------------------------------------------------------
# Property: cached and uncached answers always agree
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def property_service():
    with EvaluationService(**FAST_BATCHING) as service:
        yield service


class TestCachedUncachedAgreement:
    @given(
        seed=st.integers(0, 500),
        fraction=st.sampled_from([0.05, 0.2, 0.5]),
        cores=st.sampled_from([1, 2, 4, 8]),
    )
    @settings(max_examples=25, deadline=None)
    def test_simulation_and_analysis_agree_with_one_shot(
        self, property_service, seed, fraction, cores
    ):
        task = make_random_heterogeneous_task(seed, fraction, n_max=25)
        uncached = property_service.submit_simulation(task, cores, timeout=120)
        cached = property_service.submit_simulation(task, cores, timeout=120)
        direct = simulate_makespan(
            task, Platform(cores), policy_by_name("breadth-first")
        )
        assert uncached == cached == direct

        first = property_service.submit_analysis(task, cores, timeout=120)
        second = property_service.submit_analysis(task, cores, timeout=120)
        assert first == second == analysis_payload(analyse_many([task], cores)[0])


# ----------------------------------------------------------------------
# HTTP transport round trip (ephemeral port)
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def http_service():
    service = EvaluationService(**FAST_BATCHING)
    server, thread = start_server(service, port=0)
    client = ServiceClient(port=server.port, timeout=120)
    yield service, server, client
    server.shutdown()
    server.server_close()
    thread.join(timeout=10)
    service.close()


class TestHTTPTransport:
    def test_health(self, http_service):
        _, _, client = http_service
        document = client.health()
        assert document["status"] == "ok"

    def test_simulate_round_trip(self, http_service):
        _, _, client = http_service
        task = figure1_task(period=20, deadline=15)
        makespan = client.simulate(task, cores=2)
        assert makespan == simulate_makespan(
            task, Platform(2), policy_by_name("breadth-first")
        )

    def test_analyse_round_trip(self, http_service):
        _, _, client = http_service
        task = figure1_task(period=20, deadline=15)
        payload = client.analyse(task, [2, 4])
        assert payload == analysis_payload(analyse_many([task], (2, 4))[0])
        methods = payload["bounds"][0]["methods"]
        assert {"hom", "het", "naive"} <= set(methods)

    def test_makespan_round_trip(self, http_service):
        _, _, client = http_service
        task = figure1_task(period=20, deadline=15)
        payload = client.makespan(task, 2, method="bnb")
        assert payload["makespan"] == 8.0
        assert payload["optimal"]

    def test_stats_reports_requests(self, http_service):
        service, _, client = http_service
        document = client.stats()
        assert document["requests"]["total"] >= 1
        assert document["requests"] == service.stats()["requests"]

    def test_error_paths(self, http_service):
        _, _, client = http_service
        task = figure1_task()
        with pytest.raises(ServiceError, match="unknown policy"):
            client.simulate(task, cores=2, policy="no-such")
        with pytest.raises(ServiceError, match="policy_seed"):
            client.simulate(task, cores=2, policy="random")
        with pytest.raises(ServiceError):
            client._request("/no-such-endpoint")
        with pytest.raises(ServiceError, match="missing the 'task'"):
            client._request("/simulate", {"cores": 2})

    @pytest.mark.parametrize(
        "wcet, timeout, seed",
        [
            (b"NaN", b"60", 11),
            (b"Infinity", b"60", 12),
            (b"-Infinity", b"60", 13),
            (b'"nan"', b"60", 14),
            (b"2", b"NaN", 15),
            (b"3.25", b"1e10", 16),
            (b"3.5", b"1e999", 17),
        ],
    )
    def test_non_finite_number_is_refused_and_the_next_request_served(
        self, http_service, wcet, timeout, seed
    ):
        # A NaN WCET once passed validation and spun the dense engine
        # forever, wedging the micro-batcher for every later request.  A
        # timeout past threading.TIMEOUT_MAX (1e999 decodes to inf) once
        # overflowed the wait of a task never cached and answered 500.
        _, server, client = http_service
        body = (
            b'{"cores": 2, "timeout": %s, "task": '
            b'{"nodes": {"a": 1, "b": %s}, "edges": [["a", "b"]]}}' % (timeout, wcet)
        )
        connection = http.client.HTTPConnection("127.0.0.1", server.port, timeout=60)
        try:
            connection.request(
                "POST", "/simulate", body, {"Content-Type": "application/json"}
            )
            response = connection.getresponse()
            document = json.loads(response.read())
        finally:
            connection.close()
        assert response.status == 400
        assert document["error"]["code"] == "bad-request"
        # A task the cache has never seen, so the batcher must serve it.
        task = make_random_heterogeneous_task(seed, 0.2)
        assert client.simulate(task, cores=2) == simulate_makespan(
            task, Platform(2), policy_by_name("breadth-first")
        )

    def test_non_finite_response_is_a_500_envelope(self, http_service, monkeypatch):
        # JSON cannot carry NaN: the server answers with an error envelope
        # rather than a body no strict client can parse.
        service, server, _ = http_service
        monkeypatch.setattr(service, "stats", lambda: {"ratio": math.nan})
        connection = http.client.HTTPConnection("127.0.0.1", server.port, timeout=60)
        try:
            connection.request("GET", "/stats")
            response = connection.getresponse()
            document = json.loads(response.read(), parse_constant=pytest.fail)
        finally:
            connection.close()
        assert response.status == 500
        assert document["error"]["code"] == "internal"

    def test_unreachable_server_raises_service_error(self):
        client = ServiceClient(port=1, timeout=1)
        with pytest.raises(ServiceError, match="cannot reach"):
            client.health()


# ----------------------------------------------------------------------
# PR 7 regression: fixed-priority tables must bind identically on the wire
# ----------------------------------------------------------------------
class TestPriorityTableWireBinding:
    """JSON stringifies node ids; the client must preserve *binding*.

    ``FixedPriorityPolicy`` looks nodes up with plain ``==``/``hash``, so
    which table entries bind depends on key identity, not on how keys
    print.  A naive ``{str(k): v}`` serialisation changed the policy:
    int-keyed tables on int-noded tasks stopped binding server-side
    (the round-tripped task carries *string* nodes), and an int key that
    merely printed like some node name started binding where it never did
    in process.  The client now resolves binding against the actual task
    nodes and ships only bound entries under the node's wire name.
    """

    # Fork of three parallel nodes (wcets 4, 3, 3) on m=2: which pair
    # starts first changes the makespan, so bound and unbound tables give
    # provably different answers.
    _WCETS = {1: 1.0, 2: 4.0, 3: 3.0, 4: 3.0, 5: 1.0}
    _EDGES = [(1, 2), (1, 3), (1, 4), (2, 5), (3, 5), (4, 5)]

    def _simulate_local(self, task, table):
        from repro.simulation.schedulers import FixedPriorityPolicy

        return simulate_makespan(task, Platform(2), FixedPriorityPolicy(table))

    def test_int_keyed_table_bit_identical_via_client(self, http_service):
        service, _, client = http_service
        task = DagTask.from_wcets(self._WCETS, self._EDGES)
        table = {3: 0.0, 4: 1.0}
        expected = self._simulate_local(task, table)
        fallback = self._simulate_local(task, {})
        assert expected != fallback  # the table genuinely changes the run
        assert service.submit_simulation(
            task, 2, policy="fixed-priority", priorities=table, timeout=120
        ) == expected
        assert client.simulate(
            task, cores=2, policy="fixed-priority", priorities=table
        ) == expected

    def test_float_keys_bind_by_equality_not_representation(self, http_service):
        # 3.0 == 3 and hash(3.0) == hash(3): the float-keyed table binds
        # the int nodes in process, so it must bind over the wire too --
        # even though str(3.0) == "3.0" names no node.
        _, _, client = http_service
        task = DagTask.from_wcets(self._WCETS, self._EDGES)
        table = {3.0: 0.0, 4.0: 1.0}
        expected = self._simulate_local(task, table)
        assert expected != self._simulate_local(task, {})
        assert client.simulate(
            task, cores=2, policy="fixed-priority", priorities=table
        ) == expected

    def test_decoy_int_key_stays_inert_on_string_noded_task(self, http_service):
        # The same fork, but with nodes *named* "1".."5": an int key 3
        # prints like node "3" yet binds nothing in process (3 != "3"),
        # so it must bind nothing through the transport either.
        _, _, client = http_service
        task = DagTask.from_wcets(
            {str(node): wcet for node, wcet in self._WCETS.items()},
            [(str(src), str(dst)) for src, dst in self._EDGES],
        )
        decoy = {3: 0.0, 4: 1.0}
        inert = self._simulate_local(task, decoy)
        assert inert == self._simulate_local(task, {})  # inert in process
        bound = self._simulate_local(task, {"3": 0.0, "4": 1.0})
        assert bound != inert  # a naive str(k) wiring would return this
        assert client.simulate(
            task, cores=2, policy="fixed-priority", priorities=decoy
        ) == inert


# ----------------------------------------------------------------------
# PR 6 resilience: failure counters and lifecycle races
# ----------------------------------------------------------------------
PARKED_BATCHING = dict(flush_interval=30.0, quiet_interval=10.0)


class TestServiceResilience:
    def test_submit_vs_close_race_never_loses_a_request(self):
        # Hammer the submit()/close() race at the service level: every
        # submission must either return a real result or raise
        # ServiceClosedError -- never hang, never vanish.
        task = figure1_task(period=20, deadline=15)
        reference = simulate_makespan(
            task, Platform(2), policy_by_name("breadth-first")
        )
        for _ in range(10):
            service = EvaluationService(
                flush_interval=0.002, quiet_interval=0.0005
            )
            outcomes: list = []
            lock = threading.Lock()
            start = threading.Barrier(5)

            def submitter(seed, service=service, outcomes=outcomes, lock=lock, start=start):
                start.wait()
                for _ in range(5):
                    try:
                        value = service.submit_simulation(task, 2, timeout=30)
                        with lock:
                            outcomes.append(("ok", value))
                    except ServiceClosedError:
                        with lock:
                            outcomes.append(("closed", None))

            threads = [
                threading.Thread(target=submitter, args=(i,)) for i in range(4)
            ]
            for thread in threads:
                thread.start()
            start.wait()
            service.close()
            for thread in threads:
                thread.join(timeout=30)
                assert not thread.is_alive()
            assert len(outcomes) == 20
            for status, value in outcomes:
                if status == "ok":
                    assert value == reference

    def test_failure_counters_stay_consistent(self):
        # One service, every failure mode at once: a caller-side timeout, a
        # batch-side parked expiry (same request -- the documented double
        # count), one shed request and one degraded oracle batch tripping
        # the breaker.  stats() must partition them consistently.
        from strategies import make_random_integer_heterogeneous_task

        tasks = [
            make_random_integer_heterogeneous_task(seed, 0.2, n_max=8)
            for seed in (500, 501, 502)
        ]
        service = EvaluationService(
            max_pending=2,
            oracle_budget=0.0,
            breaker_threshold=1,
            **PARKED_BATCHING,
        )
        outcome: dict = {}

        def background(task=tasks[0]):
            outcome["payload"] = service.submit_makespan(task, 2)

        worker = threading.Thread(target=background)
        worker.start()
        deadline = time.monotonic() + 10.0
        while (
            service.stats()["batching"]["pending"] < 1
            and time.monotonic() < deadline
        ):
            time.sleep(0.005)
        with pytest.raises(ServiceTimeoutError):
            service.submit_makespan(tasks[1], 2, timeout=0.05)
        with pytest.raises(ServiceOverloadedError) as shed_info:
            service.submit_makespan(tasks[2], 2)
        assert shed_info.value.retry_after > 0
        service.close()
        worker.join(timeout=30)
        assert not worker.is_alive()

        payload = outcome["payload"]  # the accepted request was resolved
        assert payload["degraded"] and not payload["optimal"]

        stats = service.stats()
        resilience = stats["resilience"]
        # tasks[1] timed out twice: once caller-side, once when its parked
        # deadline expired in the drain flush.
        assert resilience["timeouts"] == 2
        assert resilience["shed"] == 1
        assert resilience["shed"] == stats["batching"]["shed"]
        assert resilience["degraded"] == 1
        breaker = resilience["breaker"]
        assert breaker["trips"] == 1
        assert breaker["failures"] == 1
        assert breaker["state"] == "open"
        assert resilience["faults"]["enabled"] is False
        # All three submissions were counted; only tasks[0] reached an engine.
        assert stats["requests"]["makespan"] == 3
        assert stats["engine"]["batches"] == 1


# ----------------------------------------------------------------------
# Decoded task documents: a hit is answered without building a graph
# ----------------------------------------------------------------------
def _post(port: int, path: str, body: dict) -> tuple[int, dict]:
    """POST ``body`` as JSON; ``(status, response document)``."""
    connection = http.client.HTTPConnection("127.0.0.1", port, timeout=60)
    try:
        connection.request(
            "POST",
            path,
            json.dumps(body).encode("utf-8"),
            {"Content-Type": "application/json"},
        )
        response = connection.getresponse()
        return response.status, json.loads(response.read())
    finally:
        connection.close()


@pytest.fixture
def fresh_server():
    """Start servers over fresh services; all are stopped afterwards."""
    started = []

    def start():
        service = EvaluationService(**FAST_BATCHING)
        server, thread = start_server(service, port=0)
        started.append((service, server, thread))
        return service, server.port

    yield start
    for service, server, thread in started:
        server.shutdown()
        server.server_close()
        thread.join(timeout=10)
        service.close()


@st.composite
def task_documents(draw):
    """A random task document in one of the shapes clients send: any node
    and edge order, int or float WCETs, string or int edge endpoints, and
    ``offloaded_node``/``period``/``deadline`` each present or absent."""
    task = make_random_heterogeneous_task(
        draw(st.integers(0, 2**16)),
        draw(st.sampled_from([0.05, 0.2, 0.5])),
        n_max=25,
    )
    graph = task.graph
    int_endpoints = draw(st.booleans())
    name = {
        node: position if int_endpoints else str(node)
        for position, node in enumerate(graph.nodes())
    }
    int_wcets = draw(st.booleans())
    nodes = {}
    for node in draw(st.permutations(list(graph.nodes()))):
        wcet = float(graph.wcet(node))
        nodes[str(name[node])] = (
            int(wcet) if int_wcets and wcet.is_integer() else wcet
        )
    document = {
        "nodes": nodes,
        "edges": [
            [name[src], name[dst]]
            for src, dst in draw(st.permutations(list(graph.edges())))
        ],
    }
    if draw(st.booleans()):
        document["offloaded_node"] = name[task.offloaded_node]
    period = draw(st.sampled_from([None, 40, 40.0, 1e3]))
    if period is not None:
        document["period"] = period
    deadline = draw(st.sampled_from([None, 25, 30.5]))
    if deadline is not None:
        document["deadline"] = deadline
    return document


class TestTaskDocumentFingerprint:
    @given(document=task_documents())
    @settings(max_examples=60, deadline=None)
    def test_document_hashes_like_the_task_built_from_it(self, document):
        decoded = decode_task(document)
        assert task_fingerprint(decoded) == task_fingerprint(
            task_from_dict(document)
        )
        # The shipped form of the same task hashes equal as well.
        shipped = json.loads(json.dumps(task_to_dict(task_from_dict(document))))
        assert task_fingerprint(decode_task(shipped)) == task_fingerprint(decoded)

    def test_duplicate_edge_changes_the_document_hash(self):
        document = task_to_dict(figure1_task(period=20, deadline=15))
        duplicated = dict(document, edges=document["edges"] + document["edges"][:1])
        assert task_fingerprint(decode_task(duplicated)) != task_fingerprint(
            decode_task(document)
        )


class TestDocumentHits:
    BASE = {
        "nodes": {"a": 1.0, "b": 2.0, "c": 4.0, "d": 1.0},
        "edges": [["a", "b"], ["a", "c"], ["b", "d"], ["c", "d"]],
        "offloaded_node": "c",
        "period": 20,
        "deadline": 15,
    }

    @staticmethod
    def _variant(change) -> dict:
        document = json.loads(json.dumps(TestDocumentHits.BASE))
        change(document)
        return document

    # Documents the full decode rejects; none may be answered from a cache
    # primed with BASE.
    REJECTED = {
        "duplicate-edge": lambda d: d["edges"].append(["a", "b"]),
        "self-loop": lambda d: d["edges"].append(["b", "b"]),
        "cycle": lambda d: d["edges"].append(["d", "a"]),
        "unknown-endpoint": lambda d: d["edges"].append(["a", "z"]),
        "negative-wcet": lambda d: d["nodes"].update(b=-2.0),
        "nan-wcet": lambda d: d["nodes"].update(b="nan"),
        "metadata-number": lambda d: d.update(metadata=5),
        "unknown-offloaded-node": lambda d: d.update(offloaded_node="z"),
        "deadline-past-period": lambda d: d.update(deadline=25),
    }

    def test_primed_cache_rejects_what_a_cold_server_rejects(self, fresh_server):
        _, primed = fresh_server()
        _, cold = fresh_server()
        for path, extra in (("/simulate", {"cores": 2}), ("/analyse", {"cores": [2, 4]})):
            status, _ = _post(primed, path, {"task": self.BASE, **extra})
            assert status == 200
            for name, change in self.REJECTED.items():
                body = {"task": self._variant(change), **extra}
                statuses = [_post(port, path, body)[0] for port in (primed, cold)]
                assert statuses == [400, 400], (path, name)

    def test_reordered_edges_and_int_wcets_still_hit(self, fresh_server, monkeypatch):
        from repro.service import http as service_http

        service, port = fresh_server()
        status, first = _post(port, "/simulate", {"task": self.BASE, "cores": 2})
        assert status == 200
        builds = []
        original = service_http.task_from_dict
        monkeypatch.setattr(
            service_http,
            "task_from_dict",
            lambda document: builds.append(document) or original(document),
        )
        hits = service.stats()["cache"]["hits"]

        def reorder(document):
            document["edges"].reverse()
            document["nodes"] = {
                node: int(wcet) for node, wcet in reversed(document["nodes"].items())
            }

        status, second = _post(
            port, "/simulate", {"task": self._variant(reorder), "cores": 2}
        )
        assert (status, second) == (200, first)
        assert service.stats()["cache"]["hits"] == hits + 1
        assert builds == []

    def test_concurrent_identical_documents_build_once(self, monkeypatch):
        from repro.service import http as service_http

        document = task_to_dict(make_random_heterogeneous_task(77, 0.2))
        original = service_http.task_from_dict
        builds = []
        with EvaluationService(**FAST_BATCHING) as service:

            def held_build(decoded):
                # Hold the leader's build until the duplicate has joined it.
                builds.append(decoded)
                deadline = time.monotonic() + 30
                while (
                    service.stats()["engine"]["inflight_joins"] < 1
                    and time.monotonic() < deadline
                ):
                    time.sleep(0.001)
                return original(decoded)

            monkeypatch.setattr(service_http, "task_from_dict", held_build)
            with ThreadPoolExecutor(max_workers=2) as pool:
                answers = list(
                    pool.map(
                        lambda _: service.submit_simulation(
                            decode_task(json.loads(json.dumps(document))),
                            2,
                            timeout=60,
                        ),
                        range(2),
                    )
                )
            assert service.stats()["engine"]["inflight_joins"] == 1
        assert len(builds) == 1
        expected = simulate_makespan(
            task_from_dict(document), Platform(2), policy_by_name("breadth-first")
        )
        assert answers == [expected, expected]

    def test_failed_build_fails_the_joined_duplicate_too(self):
        document = self._variant(lambda d: d["edges"].append(["d", "a"]))
        with EvaluationService(**FAST_BATCHING) as service:
            with ThreadPoolExecutor(max_workers=2) as pool:
                futures = [
                    pool.submit(
                        service.submit_simulation, decode_task(document), 2, timeout=60
                    )
                    for _ in range(2)
                ]
                for future in futures:
                    with pytest.raises(SerializationError, match="cycle"):
                        future.result()
            # Nothing stays in flight: the valid task is served afterwards.
            assert service.submit_simulation(
                decode_task(self.BASE), 2, timeout=60
            ) == simulate_makespan(
                task_from_dict(self.BASE), Platform(2), policy_by_name("breadth-first")
            )


# ----------------------------------------------------------------------
# Malformed task shapes and out-of-range timeouts are refused, never a 500
# ----------------------------------------------------------------------
MALFORMED_TASKS = {
    "nodes-string": {"nodes": "abc", "edges": []},
    "nodes-list-of-pairs": {"nodes": [["a", 1]], "edges": []},
    "edges-number": {"nodes": {"a": 1}, "edges": 5},
    "edges-string": {"nodes": {"a": 1, "b": 2}, "edges": "ab"},
    "edge-string": {"nodes": {"a": 1, "b": 2}, "edges": ["ab"]},
    "edge-triple": {"nodes": {"a": 1, "b": 2}, "edges": [["a", "b", "a"]]},
}


class TestMalformedRequests:
    @pytest.mark.parametrize("name", sorted(MALFORMED_TASKS))
    def test_malformed_task_shape_is_a_400(self, http_service, name):
        _, server, client = http_service
        task = MALFORMED_TASKS[name]
        stream = {"task": task, "arrivals": {"kind": "trace", "times": [0.0]}}
        for path, body in (
            ("/simulate", {"task": task, "cores": 2}),
            ("/workload", {"streams": [stream], "horizon": 10.0, "cores": 2}),
        ):
            status, document = _post(server.port, path, body)
            assert status == 400, (path, document)
            assert document["error"]["code"] == "bad-request"
        valid = figure1_task(period=20, deadline=15)
        assert client.simulate(valid, cores=3) == simulate_makespan(
            valid, Platform(3), policy_by_name("breadth-first")
        )
        payload = client.workload(
            [{"task": valid, "arrivals": {"kind": "trace", "times": [0.0]}}], 10.0
        )
        assert payload["instances"] == 1

    @pytest.mark.parametrize("timeout", [math.inf, math.nan, -1.0, 1e10])
    def test_timeout_outside_the_wait_limit_raises_in_process(self, timeout):
        with pytest.raises(ValueError, match="timeout"):
            EvaluationService(default_timeout=timeout)
        with EvaluationService(**FAST_BATCHING) as service:
            task = figure1_task(period=20, deadline=15)
            with pytest.raises(ValueError, match="timeout"):
                service.submit_simulation(task, 2, timeout=timeout)
            # A cache hit validates its timeout too.
            service.submit_simulation(task, 2, timeout=threading.TIMEOUT_MAX)
            with pytest.raises(ValueError, match="timeout"):
                service.submit_simulation(task, 2, timeout=timeout)
