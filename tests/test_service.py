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
import socket
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.analysis.batch import analyse_many
from repro.core.examples import figure1_task
from repro.core.exceptions import (
    ServiceClosedError,
    ServiceError,
    ServiceOverloadedError,
    ServiceTimeoutError,
    SimulationError,
)
from repro.core.task import DagTask
from repro.ilp.makespan import minimum_makespan
from repro.io.json_io import task_from_dict, task_to_dict
from repro.resilience import FAULTS
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
from repro.service import http as http_module
from repro.service.cache import estimate_size
from repro.service.facade import build_policy
from repro.simulation.engine import simulate_makespan
from repro.simulation.platform import Platform
from repro.simulation.schedulers import RandomPolicy, policy_by_name

from batcher_plug import Plug
from strategies import make_random_heterogeneous_task, make_random_host_task

# ----------------------------------------------------------------------
# Helpers
# ----------------------------------------------------------------------


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

    def test_alias_reads_its_payload_and_counts_as_no_lookup(self):
        cache = ResultCache()
        digest = b"\x01" * 32
        assert not cache.put_alias(digest, "fp")  # no payload, no alias
        assert cache.get(digest) is None and digest not in cache
        cache.put("fp", {"makespan": 1.0})
        assert cache.put_alias(digest, "fp")
        assert digest in cache
        assert cache.stats()["hits"] == 0 and cache.stats()["misses"] == 0
        assert cache.get(digest) == {"makespan": 1.0}
        stats = cache.stats()
        # The alias is held in bytes but is not an entry: entries count answers.
        assert (stats["hits"], stats["misses"], stats["entries"]) == (1, 0, 1)
        assert len(cache) == 1 and list(cache) == ["fp"]
        assert cache.bytes_used > estimate_size("fp") + estimate_size(
            {"makespan": 1.0}
        ) + 128

    def test_alias_of_an_evicted_payload_counts_nothing(self):
        payload = {"makespan": 1.0}
        entry = estimate_size("k0") + estimate_size(payload) + 128
        alias = estimate_size(b"\x00" * 32) + estimate_size("k0") + 128
        cache = ResultCache(max_bytes=2 * entry + alias)
        cache.put("k0", dict(payload))
        cache.put_alias(b"\x00" * 32, "k0")
        cache.put("k1", dict(payload))
        cache.put("k2", dict(payload))  # evicts k0, the least recent
        assert "k0" not in cache and "k1" in cache and "k2" in cache
        before = cache.stats()
        assert b"\x00" * 32 not in cache
        assert cache.get(b"\x00" * 32) is None
        after = cache.stats()
        assert (after["hits"], after["misses"]) == (before["hits"], before["misses"])
        assert after["evictions"] == 1 and after["entries"] == 2

    def test_alias_bookkeeping_holds_under_threads(self):
        # A cap of a few entries keeps every insertion evicting; the alias
        # count must stay the number of aliases held, or len() drifts from
        # the fingerprints iteration lists.
        cache = ResultCache(max_bytes=4_000)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:

            def worker(seed: int) -> None:
                for step in range(3_000):
                    key = f"k{(seed * 31 + step * 17) % 24}"
                    action = (seed + step) % 3
                    if action == 0:
                        cache.put(key, {"makespan": float(step)})
                    elif action == 1:
                        cache.put_alias(key.encode().ljust(32, b"."), key)
                    else:
                        cache.get(key.encode().ljust(32, b"."))

            with ThreadPoolExecutor(max_workers=8) as pool:
                for future in [pool.submit(worker, seed) for seed in range(8)]:
                    future.result(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        stats = cache.stats()
        assert stats["evictions"] > 0
        assert len(cache) == len(list(cache)) == stats["entries"]
        assert 0 < cache.bytes_used <= cache.max_bytes

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

        batcher = MicroBatcher(execute)
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

        batcher = MicroBatcher(execute)
        request = batcher.submit(_request(0))
        with pytest.raises(RuntimeError, match="engine exploded"):
            request.wait(timeout=30)
        batcher.close()

    def test_unresolved_requests_fail_defensively(self):
        def execute(batch):
            batch[0].resolve("served")  # forget the rest

        batcher = MicroBatcher(execute)
        plug = Plug(batcher)
        first = batcher.submit(_request(0))
        second = batcher.submit(_request(1))
        plug.release()  # both flush in one batch
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

        # The plug holds the worker: the requests are still parked when
        # close() runs, so the drain path must serve them.
        batcher = MicroBatcher(execute)
        Plug(batcher)
        requests = [batcher.submit(_request(i)) for i in range(10)]
        assert batcher.stats()["pending"] == 10
        batcher.close(timeout=30)
        assert all(request.wait(timeout=1) for request in requests)
        assert len(served) == 10
        assert batcher.stats()["flushes"] == {"ready": 1, "close": 1}
        with pytest.raises(ServiceClosedError):
            batcher.submit(_request(99))

    def test_lone_request_is_flushed_at_once(self):
        def execute(batch):
            for request in batch:
                request.resolve(len(batch))

        batcher = MicroBatcher(execute)
        # An idle worker takes the request as soon as it parks: no window,
        # no deadline, nothing else to wait for.
        assert batcher.submit(_request(0)).wait(timeout=30) == 1
        stats = batcher.stats()
        batcher.close()
        assert stats["batches"] == 1
        assert stats["flushes"] == {"ready": 1, "close": 0}

    def test_requests_submitted_during_a_flush_form_the_next_batch(self):
        flushed: list[list[str]] = []
        flushing = threading.Event()
        release = threading.Event()

        def execute(batch):
            flushed.append([request.fingerprint for request in batch])
            if len(flushed) == 1:
                flushing.set()
                assert release.wait(timeout=30)
            for request in batch:
                request.resolve(len(batch))

        batcher = MicroBatcher(execute)
        first = batcher.submit(_request(0))
        assert flushing.wait(timeout=30)  # the worker is inside that flush
        rest = [batcher.submit(_request(i)) for i in range(1, 6)]
        release.set()
        assert first.wait(timeout=30) == 1
        assert [request.wait(timeout=30) for request in rest] == [5] * 5
        stats = batcher.stats()
        batcher.close()
        assert flushed == [["request-0"], [f"request-{i}" for i in range(1, 6)]]
        assert stats["batches"] == 2
        assert stats["largest_batch"] == 5
        assert stats["flushes"] == {"ready": 2, "close": 0}


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
        with EvaluationService() as service, ThreadPoolExecutor(32) as pool:
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
            # Every lane is a requested cell: a simulate group is one
            # (offload, platform, policy) column, with one lane per request.
            assert stats["engine"]["evaluated_cells"] <= total

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
        with EvaluationService() as service:
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
        with EvaluationService() as service:
            payload = service.submit_makespan(task, 2, timeout=300)
            reference = makespan_payload(minimum_makespan(task, 2))
            assert payload["makespan"] == reference["makespan"] == 8.0
            assert payload["optimal"]
            assert payload["start_times"] == reference["start_times"]
            assert service.submit_makespan(task, 2, timeout=300) == payload

    def test_random_policy_requires_a_seed(self):
        with EvaluationService() as service:
            with pytest.raises(ValueError, match="policy_seed"):
                service.submit_simulation(figure1_task(), 2, policy="random")

    def test_seeded_random_policy_matches_one_shot_and_caches(self):
        task = make_random_heterogeneous_task(5, 0.2, n_max=40)
        with EvaluationService() as service:
            value = service.submit_simulation(
                task, 2, policy="random", policy_seed=42, timeout=120
            )
            again = service.submit_simulation(
                task, 2, policy="random", policy_seed=42, timeout=120
            )
            expected = simulate_makespan(task, Platform(2), RandomPolicy(42))
            assert value == again == expected
            assert service.stats()["engine"]["solo_evaluations"] == 1
            steps = service.metrics.render_json()["counters"][
                "repro_kernel_steps_total"
            ]["series"]
            assert sum(
                series["value"]
                for series in steps
                if series["labels"] == {"engine": "dense"}
            ) > 0

    def test_fixed_priority_table_round_trip(self):
        task = figure1_task()
        table = {node: float(i) for i, node in enumerate(task.graph.nodes())}
        with EvaluationService() as service:
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
        with EvaluationService() as service:
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
        with EvaluationService() as service:
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
        with EvaluationService() as service:
            payload = service.submit_analysis(task, 2, timeout=120)
            payload["bounds"].clear()  # vandalise the caller's copy
            fresh = service.submit_analysis(task, 2, timeout=120)
            assert fresh["bounds"], "cache was poisoned by caller mutation"

    def test_cache_disabled_still_correct(self):
        task = make_random_heterogeneous_task(23, 0.2, n_max=30)
        with EvaluationService(cache_bytes=0) as service:
            first = service.submit_simulation(task, 2, timeout=120)
            second = service.submit_simulation(task, 2, timeout=120)
            assert first == second == simulate_makespan(
                task, Platform(2), policy_by_name("breadth-first")
            )
            assert service.stats()["cache"]["entries"] == 0

    def test_cache_disabled_solves_each_makespan_request(self):
        # `--cache-bytes 0` disables memoisation for /makespan too: nothing
        # beside the result cache keeps an oracle answer, so two identical
        # requests solve twice.  The armed point never fires; its hits
        # count the solves.
        task = figure1_task()
        with EvaluationService(cache_bytes=0) as service:
            with FAULTS.armed("oracle.solve", "raise", after=10**9):
                first = service.submit_makespan(task, 2)
                second = service.submit_makespan(task, 2)
                solves = FAULTS.stats()["points"]["oracle.solve"]["hits"]
            assert solves == 2
            assert first == second
            assert first["makespan"] == minimum_makespan(task, 2).makespan
            assert service.stats()["cache"]["misses"] == 2

    def test_unknown_policy_and_method_rejected(self):
        with EvaluationService() as service:
            with pytest.raises(KeyError):
                service.submit_simulation(figure1_task(), 2, policy="no-such")
            with pytest.raises(ValueError):
                service.submit_makespan(figure1_task(), 2, method="no-such")

    def test_leader_enqueue_failure_releases_joiners(self):
        # If the leader's enqueue into the batcher fails (e.g. a close()
        # race), concurrent duplicates parked on its in-flight entry must
        # receive the failure instead of waiting forever.
        task = figure1_task()
        with EvaluationService() as service:
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
        # accelerator-less one: both fine sequentially.  A task x platform
        # grid of the flush would hold the infeasible *unrequested* cell
        # (hetero task, no accelerator); one column per platform never
        # does, so the two share no call and need no solo fallback.
        hetero = make_random_heterogeneous_task(1, 0.2, n_max=20)
        plain = make_random_host_task(2, n_max=20)
        service = EvaluationService()
        plug = Plug(service)
        with ThreadPoolExecutor(2) as pool:
            first = pool.submit(
                service.submit_simulation, hetero, Platform(2, 1), timeout=60
            )
            second = pool.submit(
                service.submit_simulation, plain, Platform(4, 0), timeout=60
            )
            plug.wait_parked(2)
            service.close(timeout=60)
            policy = policy_by_name("breadth-first")
            assert first.result(60) == simulate_makespan(
                hetero, Platform(2, 1), policy
            )
            assert second.result(60) == simulate_makespan(
                plain, Platform(4, 0), policy
            )
        # Each request ran as a one-lane column on the engine "auto"
        # resolves to.
        from repro.simulation.batch import resolve_engine

        engine = service.stats()["engine"]
        assert engine["by_engine"][resolve_engine("auto")] == 2
        assert engine["batches"] == engine["evaluated_cells"] == 2
        assert engine["solo_evaluations"] == 0

    def test_invalid_request_fails_alone_in_a_coalesced_group(self):
        # A genuinely invalid request (offloading task, accelerator-less
        # platform) submitted alongside a valid one: the offender is refused
        # at submission, so only the valid request parks and its flush
        # needs no per-request fallback.
        bad_task = make_random_heterogeneous_task(3, 0.2, n_max=20)
        good_task = make_random_heterogeneous_task(4, 0.2, n_max=20)
        service = EvaluationService()
        plug = Plug(service)
        with ThreadPoolExecutor(2) as pool:
            bad = pool.submit(
                service.submit_simulation, bad_task, Platform(2, 0), timeout=60
            )
            good = pool.submit(
                service.submit_simulation, good_task, Platform(2, 1), timeout=60
            )
            with pytest.raises(SimulationError, match="accelerators"):
                bad.result(10)
            plug.wait_parked(1)
            service.close(timeout=60)
            assert good.result(60) == simulate_makespan(
                good_task, Platform(2, 1), policy_by_name("breadth-first")
            )
        stats = service.stats()
        assert stats["batching"]["submitted"] == 2  # the plug's, the good one
        assert stats["engine"]["solo_evaluations"] == 0

    def test_offload_without_accelerator_is_refused_before_it_parks(self):
        # A host-only and an offloading task on one accelerator-less
        # platform share a column.  Were both parked, the offloader would
        # fail the column's call and send the host-only request through the
        # solo fallback; refused at submission, it never parks.
        host = make_random_host_task(5, n_max=20)
        offloading = make_random_heterogeneous_task(6, 0.2, n_max=20)
        platform = Platform(2, 0)
        service = EvaluationService()
        plug = Plug(service)
        with ThreadPoolExecutor(2) as pool:
            good = pool.submit(
                service.submit_simulation, host, platform, timeout=60
            )
            bad = pool.submit(
                service.submit_simulation, offloading, platform, timeout=60
            )
            with pytest.raises(SimulationError, match="accelerators"):
                bad.result(10)
            plug.wait_parked(1)
            service.close(timeout=60)
            assert good.result(60) == simulate_makespan(
                host, platform, policy_by_name("breadth-first")
            )
        stats = service.stats()
        assert stats["engine"]["solo_evaluations"] == 0
        assert stats["engine"]["evaluated_cells"] == 1
        # A request refused by a domain check is not counted.
        assert stats["requests"]["simulate"] == 1

    def test_workload_offloading_without_accelerator_is_refused(self):
        from repro.generator.arrivals import TraceArrivals
        from repro.simulation.workload import JobStream

        streams = [
            JobStream(make_random_host_task(7, n_max=12), TraceArrivals([0.0])),
            JobStream(
                make_random_heterogeneous_task(8, 0.2, n_max=12),
                TraceArrivals([1.0]),
            ),
        ]
        with EvaluationService() as service:
            with pytest.raises(SimulationError, match="accelerators"):
                service.submit_workload(streams, 10.0, Platform(2, 0))
            assert service.stats()["requests"]["workload"] == 0
            served = service.submit_workload(
                streams, 10.0, Platform(2, 0), offload_enabled=False
            )
            assert served["instances"] == 2

    def test_close_drains_and_rejects_afterwards(self):
        tasks = [make_random_heterogeneous_task(s, 0.2, n_max=30) for s in range(8)]
        # The plug holds the worker: requests are still parked when close()
        # runs.
        service = EvaluationService()
        plug = Plug(service)
        with ThreadPoolExecutor(8) as pool:
            futures = [
                pool.submit(service.submit_simulation, task, 2, timeout=120)
                for task in tasks
            ]
            plug.wait_parked(len(tasks))
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
# Engine selection: the engine "auto" resolves to + per-engine accounting
# ----------------------------------------------------------------------
class TestEngineSelectionAndThreshold:
    def test_by_engine_counters_and_prometheus_series(self):
        from repro.simulation.batch import resolve_engine
        from repro.simulation.dense import simulate_makespan_dense

        tasks = [make_random_heterogeneous_task(s, 0.2, n_max=30) for s in range(4)]

        def burst(service):
            with ThreadPoolExecutor(4) as pool:
                return list(
                    pool.map(
                        lambda t: service.submit_simulation(t, 2, timeout=120),
                        tasks,
                    )
                )

        # Every grid runs on the engine "auto" resolves to on this host:
        # the C kernel, or the dense engine without a C compiler.
        engine = resolve_engine("auto")
        with EvaluationService() as service:
            values = burst(service)
            by_engine = service.stats()["engine"]["by_engine"]
            assert by_engine[engine] >= 1
            assert all(
                count == 0 for name, count in by_engine.items() if name != engine
            )
            rendered = service.metrics.render_prometheus()
            assert f'repro_service_sim_engine_total{{engine="{engine}"}}' in rendered
        # Engine choice never changes answers (the bit-identity contract).
        policy = policy_by_name("breadth-first")
        assert values == [
            simulate_makespan_dense(task, Platform(2, 1), policy) for task in tasks
        ]

    def test_multi_policy_burst_runs_one_call_per_policy(self):
        # An ablation-shaped burst (every task under every deterministic
        # policy on one platform) flushes as one batch of three (offload,
        # platform, policy) columns: one engine call of three lanes each,
        # zero unrequested cells.
        tasks = [
            make_random_heterogeneous_task(40 + s, 0.2, n_max=30) for s in range(3)
        ]
        policies = ["breadth-first", "shortest-first", "longest-first"]
        platform = Platform(2, 1)
        service = EvaluationService()
        plug = Plug(service)
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
            plug.wait_parked(9)
            service.close(timeout=60)
            for index, task in enumerate(tasks):
                for name in policies:
                    assert futures[(index, name)].result(60) == (
                        simulate_makespan(task, platform, policy_by_name(name))
                    )
        stats = service.stats()
        assert stats["batching"]["batches"] == 2  # the plug's, then the burst
        assert stats["engine"]["evaluated_cells"] == 9  # 3 tasks x 1 x 3 policies
        assert stats["engine"]["batches"] == 3  # one column per policy


# ----------------------------------------------------------------------
# Property: one engine call per (offload, platform, policy) column
# ----------------------------------------------------------------------
_COLUMN_TASKS = (
    make_random_heterogeneous_task(60, 0.2, n_max=15),
    make_random_heterogeneous_task(61, 0.4, n_max=15),
    make_random_host_task(62, n_max=15),
)
#: One fixed-priority table for every task (later nodes first), so the
#: policy is one column per (offload, platform), as any shared spec is.
_COLUMN_TABLE = {f"v{index}": -index for index in range(1, 16)}
_COLUMN_POLICIES = {
    "breadth-first": (None, None),
    "shortest-first": (None, None),
    "fixed-priority": (None, _COLUMN_TABLE),
    "random": (11, None),
}


class TestColumnRule:
    @given(
        cells=st.lists(
            st.tuples(
                st.integers(0, len(_COLUMN_TASKS) - 1),
                st.sampled_from([2, 4, 8]),
                st.sampled_from([0, 1]),
                st.booleans(),
                st.sampled_from(sorted(_COLUMN_POLICIES)),
            ),
            min_size=1,
            max_size=10,
            unique=True,
        )
    )
    @settings(max_examples=20, deadline=None)
    def test_plugged_burst_runs_one_call_per_column(self, cells):
        # An offloading task on an accelerator-less platform is refused at
        # submission (tested above); every other cell is a request.
        cells = [
            (index, cores, accelerators, offload, policy)
            for index, cores, accelerators, offload, policy in cells
            if not (
                offload
                and accelerators == 0
                and _COLUMN_TASKS[index].offloaded_node is not None
            )
        ]
        assume(cells)
        service = EvaluationService()
        plug = Plug(service)
        with ThreadPoolExecutor(len(cells)) as pool:
            futures = [
                pool.submit(
                    service.submit_simulation,
                    _COLUMN_TASKS[index],
                    Platform(cores, accelerators),
                    policy=policy,
                    policy_seed=_COLUMN_POLICIES[policy][0],
                    priorities=_COLUMN_POLICIES[policy][1],
                    offload_enabled=offload,
                    timeout=60,
                )
                for index, cores, accelerators, offload, policy in cells
            ]
            plug.wait_parked(len(cells))
            service.close(timeout=60)
            answers = [future.result(60) for future in futures]
        assert answers == [
            simulate_makespan(
                _COLUMN_TASKS[index],
                Platform(cores, accelerators),
                build_policy(policy, *_COLUMN_POLICIES[policy]),
                offload,
            )
            for index, cores, accelerators, offload, policy in cells
        ]
        columns = {
            (offload, cores, accelerators, policy)
            for _, cores, accelerators, offload, policy in cells
            if policy != "random"
        }
        solo = sum(1 for cell in cells if cell[-1] == "random")
        engine = service.stats()["engine"]
        assert engine["evaluated_cells"] == len(cells)
        assert engine["batches"] == len(columns) + solo


# ----------------------------------------------------------------------
# Property: cached and uncached answers always agree
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def property_service():
    with EvaluationService() as service:
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
    service = EvaluationService()
    server, thread = start_server(service, port=0)
    client = ServiceClient(port=server.port, timeout=120)
    yield service, server, client
    client.close()
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
            # An integer WCET past the float range once got a 500.
            pytest.param(b"1" + b"0" * 400, b"60", 18, id="huge-integer"),
            pytest.param(b"-1" + b"0" * 400, b"60", 19, id="huge-negative-integer"),
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

    @pytest.mark.parametrize(
        "path, count, field, seed",
        [
            ("/simulate", b'"cores": 1.5', "cores", 31),
            ("/simulate", b'"cores": 2.5', "cores", 32),
            ("/simulate", b'"cores": true', "cores", 33),
            ("/simulate", b'"cores": 1e999', "cores", 34),
            ("/simulate", b'"cores": 4097', "cores", 35),
            ("/simulate", b'"cores": 2, "accelerators": 0.5', "accelerators", 36),
            ("/analyse", b'"cores": 1.5', "cores", 37),
            ("/analyse", b'"cores": 1e999', "cores", 38),
            ("/analyse", b'"cores": true', "cores", 39),
            ("/analyse", b'"cores": [2, 1.5]', "cores", 40),
            ("/makespan", b'"cores": 1.5', "cores", 41),
            ("/makespan", b'"cores": true', "cores", 42),
            ("/makespan", b'"cores": 1e999', "cores", 43),
            ("/makespan", b'"cores": 2, "accelerators": true', "accelerators", 44),
        ],
    )
    def test_non_integral_core_count_is_refused_and_the_next_request_served(
        self, http_service, path, count, field, seed
    ):
        # Fractional, boolean and infinite core counts once got a 200 from
        # /simulate (each engine reading them its own way), a 400 with an
        # unrelated message from /analyse and a 500 from /makespan.
        _, server, client = http_service
        body = (
            b'{%s, "task": {"nodes": {"a": 1, "b": 2}, "edges": [["a", "b"]]}}'
            % count
        )
        connection = http.client.HTTPConnection("127.0.0.1", server.port, timeout=60)
        try:
            connection.request(
                "POST", path, body, {"Content-Type": "application/json"}
            )
            response = connection.getresponse()
            document = json.loads(response.read())
        finally:
            connection.close()
        assert response.status == 400
        assert document["error"]["code"] == "bad-request"
        assert document["error"]["message"].startswith(f"{field} must be")
        task = make_random_heterogeneous_task(seed, 0.2)
        assert client.simulate(task, cores=2) == simulate_makespan(
            task, Platform(2), policy_by_name("breadth-first")
        )

    def test_reused_connection_is_not_delayed_by_nagle(self, http_service):
        # A response goes out as two sends; with Nagle's algorithm on, the
        # body on a reused connection waited for the client's delayed ACK
        # of the headers, ~44 ms per request against ~2 ms fresh.
        _, server, _ = http_service
        body = json.dumps(
            {"task": task_to_dict(figure1_task(period=21)), "cores": 2}
        ).encode("utf-8")
        connection = http.client.HTTPConnection("127.0.0.1", server.port, timeout=60)
        elapsed = []
        try:
            for _ in range(6):  # one warm-up miss, then five cache hits
                started = time.perf_counter()
                connection.request(
                    "POST", "/simulate", body, {"Content-Type": "application/json"}
                )
                response = connection.getresponse()
                response.read()
                elapsed.append(time.perf_counter() - started)
                assert response.status == 200
        finally:
            connection.close()
        assert sorted(elapsed[1:])[2] < 0.020, elapsed

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
# Connections: reuse, idle and stalled timeouts, the cap, client close()
# ----------------------------------------------------------------------
@pytest.fixture
def connection_server():
    """A server over a fresh service, so its connection counts start at 0."""
    service = EvaluationService()
    server, thread = start_server(service, port=0)
    yield server
    server.shutdown()
    server.server_close()
    thread.join(timeout=10)
    service.close()


#: Breadth-first makespan of the Figure 1 task on two cores.
FIGURE1_ON_2 = simulate_makespan(
    figure1_task(), Platform(2), policy_by_name("breadth-first")
)


def _connections(server, outcome: str) -> int:
    return server.metric_connections.value(outcome=outcome)


def _wait_open(server, count: int) -> None:
    """Wait until the server counts ``count`` open connections."""
    deadline = time.monotonic() + 5.0
    while server.metric_connections_open.value() != count:
        assert time.monotonic() < deadline, server.metric_connections_open.value()
        time.sleep(0.01)


def _read_to_close(sock) -> tuple[int, dict, dict]:
    """Read one response off a raw socket up to the server's close."""
    response = b""
    while chunk := sock.recv(65536):
        response += chunk
    head, _, body = response.partition(b"\r\n\r\n")
    lines = head.decode("latin-1").split("\r\n")
    headers = dict(line.lower().split(": ", 1) for line in lines[1:])
    return int(lines[0].split()[1]), headers, json.loads(body)


class TestConnections:
    def test_calls_from_one_thread_reuse_one_connection(self, connection_server):
        server = connection_server
        task = figure1_task(period=20, deadline=15)
        with ServiceClient(port=server.port, timeout=10, retries=0) as client:
            for index in range(20):
                if index % 4 == 0:
                    client.health()
                elif index % 4 == 1:
                    client.stats()
                else:
                    assert client.simulate(task, cores=2) == FIGURE1_ON_2
        assert _connections(server, "accepted") == 1
        assert _connections(server, "refused") == 0

    def test_idle_connection_is_closed_and_the_request_resent(
        self, connection_server, monkeypatch
    ):
        monkeypatch.setattr(http_module._RequestHandler, "timeout", 0.2)
        server = connection_server
        task = figure1_task(period=20, deadline=15)
        client = ServiceClient(port=server.port, timeout=5, retries=0)
        assert client.simulate(task, cores=2) == FIGURE1_ON_2
        time.sleep(0.5)  # the server closes the idle connection meanwhile
        assert _connections(server, "timed_out") == 1
        # retries=0, yet the call succeeds: a reused connection the server
        # had closed is resent once on a fresh one.
        assert client.simulate(task, cores=2) == FIGURE1_ON_2
        assert _connections(server, "accepted") == 2
        client.close()

    def test_stalled_body_is_answered_408_and_closed(
        self, connection_server, monkeypatch
    ):
        monkeypatch.setattr(http_module._RequestHandler, "timeout", 0.2)
        server = connection_server
        with socket.create_connection(("127.0.0.1", server.port), timeout=5) as sock:
            started = time.monotonic()
            sock.sendall(
                b"POST /simulate HTTP/1.1\r\nHost: localhost\r\n"
                b"Content-Type: application/json\r\n"
                b"Content-Length: 100\r\n\r\n" + b'{"cores": '
            )
            status, headers, document = _read_to_close(sock)
            elapsed = time.monotonic() - started
        assert status == 408
        assert headers["connection"] == "close"
        assert document["error"]["code"] == "request-timeout"
        assert document["error"]["retryable"] is False
        assert elapsed < 0.2 + 1.0
        assert _connections(server, "timed_out") == 1
        _wait_open(server, 0)
        task = figure1_task(period=20, deadline=15)
        with ServiceClient(port=server.port, timeout=5, retries=0) as client:
            assert client.simulate(task, cores=2) == FIGURE1_ON_2

    def test_connection_past_the_cap_is_answered_429_not_reset(
        self, connection_server, monkeypatch
    ):
        monkeypatch.setattr(http_module.ServiceHTTPServer, "max_connections", 2)
        server = connection_server
        idle = [
            socket.create_connection(("127.0.0.1", server.port), timeout=5)
            for _ in range(2)
        ]
        try:
            _wait_open(server, 2)
            body = json.dumps(
                {"task": task_to_dict(figure1_task(period=20)), "cores": 2}
            ).encode("utf-8")
            connection = http.client.HTTPConnection(
                "127.0.0.1", server.port, timeout=5
            )
            try:
                connection.request(
                    "POST", "/simulate", body, {"Content-Type": "application/json"}
                )
                response = connection.getresponse()
                document = json.loads(response.read())
            finally:
                connection.close()
            assert response.status == 429
            assert response.getheader("Connection") == "close"
            assert response.getheader("Retry-After") == "1"
            assert document["error"]["code"] == "overloaded"
            assert document["error"]["retryable"] is True
            assert _connections(server, "refused") == 1
            idle.pop().close()
            _wait_open(server, 1)
            with ServiceClient(port=server.port, timeout=5, retries=0) as client:
                task = figure1_task(period=20)
                assert client.simulate(task, cores=2) == FIGURE1_ON_2
        finally:
            for sock in idle:
                sock.close()

    def test_a_closed_service_closes_every_connection_it_answers(
        self, connection_server
    ):
        server = connection_server
        server.service.close()
        connection = http.client.HTTPConnection("127.0.0.1", server.port, timeout=5)
        try:
            for path in ("/health", "/stats"):
                connection.request("GET", path)
                response = connection.getresponse()
                response.read()
                assert response.getheader("Connection") == "close", path
                assert response.will_close
        finally:
            connection.close()
        _wait_open(server, 0)
        assert _connections(server, "accepted") == 2

    def test_close_closes_the_connections_of_every_thread(self, connection_server):
        server = connection_server
        client = ServiceClient(port=server.port, timeout=5, retries=0)
        client.health()
        worker = threading.Thread(target=client.health)
        worker.start()
        worker.join(timeout=10)
        assert not worker.is_alive()
        _wait_open(server, 2)
        client.close()
        _wait_open(server, 0)
        client.health()  # a closed client opens a fresh connection
        assert _connections(server, "accepted") == 3
        client.close()
        _wait_open(server, 0)

    def test_threads_sharing_a_client_each_keep_one_connection(
        self, connection_server
    ):
        server = connection_server
        client = ServiceClient(port=server.port, timeout=10, retries=0)
        start, done = threading.Barrier(8), threading.Barrier(8)

        def calls() -> None:
            start.wait(timeout=10)
            for _ in range(10):
                assert client.health()["status"] == "ok"
            done.wait(timeout=10)  # no thread ends before all have connected

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            workers = [threading.Thread(target=calls) for _ in range(8)]
            for worker in workers:
                worker.start()
            for worker in workers:
                worker.join(timeout=30)
                assert not worker.is_alive()
        finally:
            sys.setswitchinterval(interval)
        assert _connections(server, "accepted") == 8
        _wait_open(server, 8)
        client.close()
        _wait_open(server, 0)

    def test_connections_of_ended_threads_are_closed(self, connection_server):
        server = connection_server
        client = ServiceClient(port=server.port, timeout=5, retries=0)
        for _ in range(5):
            worker = threading.Thread(target=client.health)
            worker.start()
            worker.join(timeout=10)
            assert not worker.is_alive()
        # Each thread's first call closes the connections of ended threads.
        _wait_open(server, 1)
        assert _connections(server, "accepted") == 5
        client.close()


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
            service = EvaluationService()
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
            max_pending=2, oracle_budget=0.0, breaker_threshold=1
        )
        plug = Plug(service)
        outcome: dict = {}

        def background(task=tasks[0]):
            outcome["payload"] = service.submit_makespan(task, 2)

        worker = threading.Thread(target=background)
        worker.start()
        plug.wait_parked(1)
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
# Task documents: the transport builds the task, the cache keys its content
# ----------------------------------------------------------------------
def _post(port: int, path: str, body: dict | str) -> tuple[int, dict]:
    """POST ``body`` as JSON (a ``str`` is sent as it is); ``(status,
    response document)``."""
    text = body if isinstance(body, str) else json.dumps(body)
    connection = http.client.HTTPConnection("127.0.0.1", port, timeout=60)
    try:
        connection.request(
            "POST",
            path,
            text.encode("utf-8"),
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

    def start(**options):
        service = EvaluationService(**options)
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


def _reversed_keys(value):
    """``value`` with the keys of every JSON object in reverse order."""
    if isinstance(value, dict):
        return {key: _reversed_keys(value[key]) for key in reversed(list(value))}
    if isinstance(value, list):
        return [_reversed_keys(item) for item in value]
    return value


class TestDocumentFingerprint:
    @given(document=task_documents())
    @settings(max_examples=60, deadline=None)
    def test_reserialised_documents_hash_like_the_document(self, document):
        # The cache key of a task does not depend on how its document was
        # written: the task_to_dict round trip, the same JSON with its keys
        # (nodes included) in another order, and the same JSON with every
        # integer timing field as a float and every float one that is whole
        # as an integer hash as the document does.
        expected = task_fingerprint(task_from_dict(document))
        shipped = json.loads(json.dumps(task_to_dict(task_from_dict(document))))
        reordered = _reversed_keys(json.loads(json.dumps(document)))
        retyped = {
            key: (
                (float(value) if isinstance(value, int) else int(value))
                if key in ("period", "deadline") and float(value).is_integer()
                else value
            )
            for key, value in document.items()
        }
        assert task_fingerprint(task_from_dict(shipped)) == expected
        assert task_fingerprint(task_from_dict(reordered)) == expected
        assert task_fingerprint(task_from_dict(retyped)) == expected


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

    # Documents the decode rejects; none may be answered from a cache primed
    # with BASE.
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
        before = service.stats()["cache"]

        def reorder(document):
            document["edges"].reverse()
            document["nodes"] = {
                node: int(wcet) for node, wcet in reversed(document["nodes"].items())
            }

        status, second = _post(
            port, "/simulate", {"task": self._variant(reorder), "cores": 2}
        )
        assert (status, second) == (200, first)
        # Another body, so no repeat: the task is built once and hits by
        # its fingerprint.
        after = service.stats()["cache"]
        assert after["hits"] == before["hits"] + 1
        assert after["repeats"] == before["repeats"]
        assert after["misses"] == before["misses"]
        assert len(builds) == 1

    def test_concurrent_identical_documents_are_evaluated_once(
        self, fresh_server, counted_parses
    ):
        # Two identical bodies at once: each builds its own task, and the
        # second joins the first in flight, so one evaluation serves both.
        service, port = fresh_server()
        document = task_to_dict(make_random_heterogeneous_task(77, 0.2))
        body = json.dumps({"task": document, "cores": 2}).encode()
        plug = Plug(service)
        with ThreadPoolExecutor(max_workers=2) as pool:
            first = pool.submit(_exchange, port, "/simulate", body)
            plug.wait_parked(1)
            second = pool.submit(_exchange, port, "/simulate", body)
            deadline = time.monotonic() + 30
            while (
                service.stats()["engine"]["inflight_joins"] < 1
                and time.monotonic() < deadline
            ):
                time.sleep(0.001)
            plug.release()
            answers = [first.result(60), second.result(60)]
        stats = service.stats()
        assert stats["engine"]["inflight_joins"] == 1
        assert stats["engine"]["evaluated_cells"] == 1
        # Both looked the request up before it was answered.
        assert (stats["cache"]["misses"], stats["cache"]["hits"]) == (2, 0)
        assert counted_parses.count("task_from_dict") == 2
        expected = simulate_makespan(
            task_from_dict(document), Platform(2), policy_by_name("breadth-first")
        )
        assert answers[0] == answers[1] and answers[0][0] == 200, answers
        assert json.loads(answers[0][1]) == {"makespan": expected}

    def test_cyclic_task_is_refused_before_it_is_counted_or_parked(self, fresh_server):
        service, port = fresh_server()
        cyclic = self._variant(lambda d: d["edges"].append(["d", "a"]))
        status, answer = _post(port, "/simulate", {"task": cyclic, "cores": 2})
        assert status == 400, answer
        assert answer["error"]["message"] == (
            "cannot build task from document: graph contains a cycle"
        )
        stats = service.stats()
        assert stats["requests"]["total"] == 0
        assert stats["batching"]["submitted"] == 0
        assert (stats["cache"]["misses"], stats["cache"]["hits"]) == (0, 0)
        # The valid task is served afterwards.
        status, answer = _post(port, "/simulate", {"task": self.BASE, "cores": 2})
        assert (status, answer) == (
            200,
            {
                "makespan": simulate_makespan(
                    task_from_dict(self.BASE),
                    Platform(2),
                    policy_by_name("breadth-first"),
                )
            },
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
    # A WCET must be a JSON number: true and "3" were once served as 1.0
    # and 3.0, [1] and null got Python's own float() message.
    "wcet-true": {"nodes": {"a": True, "b": 2}, "edges": [["a", "b"]]},
    "wcet-string": {"nodes": {"a": "3", "b": 2}, "edges": [["a", "b"]]},
    "wcet-list": {"nodes": {"a": [1], "b": 2}, "edges": [["a", "b"]]},
    "wcet-null": {"nodes": {"a": None, "b": 2}, "edges": [["a", "b"]]},
    # A task name was once read with str(), so ["x"] named the task "['x']".
    "name-array": {"nodes": {"a": 1, "b": 2}, "edges": [["a", "b"]], "name": ["x"]},
    "name-number": {"nodes": {"a": 1, "b": 2}, "edges": [["a", "b"]], "name": 7},
}

#: The JSON type the 400 of each ``wcet-*`` row of MALFORMED_TASKS names.
WCET_TYPES = {"wcet-true": "boolean", "wcet-string": "string", "wcet-list": "array",
              "wcet-null": "null"}


#: Timing fields a task document may not carry.  ``"1e999"`` is sent as the
#: bare number literal, which JSON decodes to infinity.
BAD_TIMINGS = {
    "period-string": {"period": "abc"},
    "period-list": {"period": [1, 2]},
    "period-true": {"period": True},
    "period-zero": {"period": 0},
    "period-negative": {"period": -5},
    "period-overflow": {"period": "1e999"},
    "deadline-negative": {"period": 10, "deadline": -3},
}


#: A task whose makespan on one core tells the offload flag apart: 12.0
#: with ``off`` on the accelerator beside ``b``, 22.0 with all on the host.
FLAG_TASK = {
    "nodes": {"a": 1, "off": 10, "b": 10, "z": 1},
    "edges": [["a", "off"], ["a", "b"], ["off", "z"], ["b", "z"]],
    "offloaded_node": "off",
}

#: Flag values that are not a JSON boolean; each was once read by truth
#: value, so ``"false"`` and ``"no"`` switched offloading on.
BAD_FLAGS = {"string-false": "false", "string-no": "no", "zero": 0, "one": 1,
             "list": [], "null": None}

#: ``time_limit`` values /makespan refuses; each was once accepted with a
#: 200, except ``[5]``, which got "unhashable type: 'list'".
BAD_TIME_LIMITS = {"string": "abc", "negative": -1, "zero": 0, "true": True,
                   "list": [5], "overflow": "1e999"}


def _chain_document(nodes: int) -> dict:
    """A task document: a chain of ``nodes`` unit nodes."""
    return {
        "nodes": {f"n{i}": 1 for i in range(nodes)},
        "edges": [[f"n{i}", f"n{i + 1}"] for i in range(nodes - 1)],
    }


def _two_layer_document(edges: int) -> dict:
    """A task document: the first ``edges`` edges of a complete two-layer
    DAG from 257 sources to 512 sinks."""
    names = [f"s{i}" for i in range(257)] + [f"k{i}" for i in range(512)]
    pairs = [[f"s{s}", f"k{k}"] for s in range(257) for k in range(512)]
    return {"nodes": dict.fromkeys(names, 1), "edges": pairs[:edges]}


class TestMalformedRequests:
    @pytest.mark.parametrize("name", sorted(MALFORMED_TASKS))
    def test_malformed_task_shape_is_a_400(self, http_service, name):
        _, server, client = http_service
        task = MALFORMED_TASKS[name]
        stream = {"task": task, "arrivals": {"kind": "trace", "times": [0.0]}}
        valid = figure1_task(period=20, deadline=15)
        for path, body in (
            ("/simulate", {"task": task, "cores": 2}),
            ("/analyse", {"task": task, "cores": 2}),
            ("/makespan", {"task": task, "cores": 2}),
            ("/workload", {"streams": [stream], "horizon": 10.0, "cores": 2}),
        ):
            status, document = _post(server.port, path, body)
            assert status == 400, (path, document)
            assert document["error"]["code"] == "bad-request"
            message = document["error"]["message"]
            if name in WCET_TYPES:
                assert "WCET of node 'a' must be a JSON number" in message, message
                assert message.endswith(f"got {WCET_TYPES[name]}"), message
            if name.startswith("name-"):
                assert "task document 'name' must be a JSON string" in message, message
            assert client.simulate(valid, cores=3) == simulate_makespan(
                valid, Platform(3), policy_by_name("breadth-first")
            )
        payload = client.workload(
            [{"task": valid, "arrivals": {"kind": "trace", "times": [0.0]}}], 10.0
        )
        assert payload["instances"] == 1

    @pytest.mark.parametrize("name", sorted(BAD_TIMINGS))
    def test_invalid_period_or_deadline_is_a_400(self, http_service, name):
        # Each was accepted once: /analyse answered 200 for a string or list
        # period, and /workload answered 200 with every instance missed for
        # a stream whose task period was 0 or negative.
        _, server, client = http_service
        timing = BAD_TIMINGS[name]
        task = {"nodes": {"a": 1, "b": 2}, "edges": [["a", "b"]], **timing}
        stream = {"task": task, "arrivals": {"kind": "trace", "times": [0.0]}}
        field = "deadline" if "deadline" in timing else "period"
        for path, body in (
            ("/analyse", {"task": task, "cores": 2}),
            ("/workload", {"streams": [stream], "horizon": 10.0, "cores": 2}),
        ):
            text = json.dumps(body).replace('"1e999"', "1e999")
            status, document = _post(server.port, path, text)
            assert status == 400, (path, document)
            assert document["error"]["code"] == "bad-request"
            assert field in document["error"]["message"]
            valid = figure1_task(period=20, deadline=15)
            assert client.simulate(valid, cores=3) == simulate_makespan(
                valid, Platform(3), policy_by_name("breadth-first")
            )

    @pytest.mark.parametrize("deadline", [True, 0, -5])
    def test_invalid_stream_deadline_is_a_400(self, http_service, deadline):
        _, server, client = http_service
        stream = {
            "task": task_to_dict(figure1_task()),
            "arrivals": {"kind": "trace", "times": [0.0]},
            "deadline": deadline,
        }
        status, document = _post(
            server.port,
            "/workload",
            {"streams": [stream], "horizon": 10.0, "cores": 2},
        )
        assert status == 400, document
        assert "relative deadline" in document["error"]["message"]
        stream["deadline"] = 30
        assert client.workload([stream], 10.0)["instances"] == 1

    @pytest.mark.parametrize("name", sorted(BAD_FLAGS))
    def test_non_boolean_flag_is_a_400(self, http_service, name):
        _, server, _ = http_service
        value = BAD_FLAGS[name]
        stream = {"task": FLAG_TASK, "arrivals": {"kind": "trace", "times": [0.0]}}
        for path, field, body in (
            ("/simulate", "offload_enabled", {"task": FLAG_TASK, "cores": 1}),
            ("/workload", "offload_enabled",
             {"streams": [stream], "horizon": 50.0, "cores": 1}),
            ("/analyse", "include_naive", {"task": FLAG_TASK, "cores": 1}),
        ):
            status, document = _post(server.port, path, {**body, field: value})
            assert status == 400, (path, document)
            assert document["error"]["code"] == "bad-request"
            assert field in document["error"]["message"]
            status, document = _post(server.port, path, {**body, field: False})
            assert status == 200, (path, document)
        for flag, makespan in ((True, 12.0), (False, 22.0)):
            status, document = _post(
                server.port,
                "/simulate",
                {"task": FLAG_TASK, "cores": 1, "offload_enabled": flag},
            )
            assert (status, document) == (200, {"makespan": makespan})
        status, document = _post(
            server.port, "/analyse",
            {"task": FLAG_TASK, "cores": 1, "include_naive": False},
        )
        assert status == 200 and "naive" not in json.dumps(document), document

    @pytest.mark.parametrize("name", sorted(BAD_TIME_LIMITS))
    def test_invalid_time_limit_is_a_400(self, http_service, name):
        _, server, _ = http_service
        body = {"task": FLAG_TASK, "cores": 1, "time_limit": BAD_TIME_LIMITS[name]}
        text = json.dumps(body).replace('"1e999"', "1e999")
        status, document = _post(server.port, "/makespan", text)
        assert status == 400, document
        assert document["error"]["code"] == "bad-request"
        assert "time_limit" in document["error"]["message"]
        for time_limit in (None, 5):
            status, document = _post(
                server.port, "/makespan", {**body, "time_limit": time_limit}
            )
            assert status == 200, document
            assert document["makespan"] == 12.0

    @pytest.mark.parametrize("key", ["nodes", "edges"])
    def test_task_over_a_size_cap_is_a_413(self, http_service, key, monkeypatch):
        # A chain of a million nodes fits under the body cap and once took
        # 17 s to build and simulate; a document over a cap is now refused
        # before it is decoded, on every endpoint that takes a task.  The
        # server runs in this process, so the decodes are counted.
        _, server, client = http_service
        decodes: list[str] = []
        original = http_module.task_from_dict

        def counted(*args, **kwargs):
            decodes.append("task_from_dict")
            return original(*args, **kwargs)

        monkeypatch.setattr(http_module, "task_from_dict", counted)
        if key == "nodes":
            cap = http_module._MAX_TASK_NODES
            task = _chain_document(cap + 1)
        else:
            cap = http_module._MAX_TASK_EDGES
            task = _two_layer_document(cap + 1)
        stream = {"task": task, "arrivals": {"kind": "trace", "times": [0.0]}}
        for seed, (path, body) in enumerate((
            ("/simulate", {"task": task, "cores": 2}),
            ("/analyse", {"task": task, "cores": 2}),
            ("/makespan", {"task": task, "cores": 2}),
            ("/workload", {"streams": [stream], "horizon": 10.0, "cores": 2}),
        ), start=60 if key == "nodes" else 64):
            text = json.dumps(body)
            decodes.clear()
            started = time.monotonic()
            status, document = _post(server.port, path, text)
            assert time.monotonic() - started < 0.5, path
            assert status == 413, (path, document)
            assert decodes == [], path
            assert document["error"]["code"] == "payload-too-large"
            assert document["error"]["retryable"] is False
            message = document["error"]["message"]
            assert f"{cap + 1} {key}" in message and f"cap of {cap}" in message
            # A fresh canary each time (the server is shared by both keys):
            # a byte-identical resend would be answered from its body
            # digest, without a decode to count.
            canary = make_random_heterogeneous_task(seed, 0.2)
            assert client.simulate(canary, cores=2, timeout=5) == simulate_makespan(
                canary, Platform(2), policy_by_name("breadth-first")
            )
            assert decodes, "the count must see the canary's decode"

    @pytest.mark.parametrize("key", ["nodes", "edges"])
    def test_task_at_a_size_cap_is_served(self, http_service, key):
        _, server, _ = http_service
        if key == "nodes":
            task = _chain_document(http_module._MAX_TASK_NODES)
        else:
            task = _two_layer_document(http_module._MAX_TASK_EDGES)
        status, document = _post(
            server.port, "/simulate", {"task": task, "cores": 2, "timeout": 60}
        )
        assert status == 200, document
        assert document["makespan"] == simulate_makespan(
            task_from_dict(task), Platform(2), policy_by_name("breadth-first")
        )

    @pytest.mark.parametrize(
        "arrivals, horizon",
        [
            ({"kind": "periodic", "period": 1e-300}, 1e300),  # count overflows
            ({"kind": "periodic", "period": 1e-9}, 1e3),  # 10^12 jobs
            ({"kind": "periodic", "period": 1e-3}, 1e3),  # 10^6 jobs
            ({"kind": "sporadic", "min_gap": 1e-9, "max_gap": 1.0}, 1e3),
        ],
    )
    def test_workload_over_the_release_cap_is_a_413(
        self, http_service, arrivals, horizon
    ):
        # Each once unrolled every job before its size was checked: a 500
        # from an OverflowError or a failed allocation, or 10^6 jobs that
        # held the batcher past the next request's deadline.
        _, server, client = http_service
        task = task_to_dict(figure1_task())
        started = time.monotonic()
        status, document = _post(
            server.port,
            "/workload",
            {
                "streams": [{"task": task, "arrivals": arrivals}],
                "horizon": horizon,
                "cores": 2,
                "timeout": 2,
            },
        )
        assert time.monotonic() - started < 0.5
        assert status == 413, document
        assert document["error"]["code"] == "payload-too-large"
        assert document["error"]["retryable"] is False
        assert "1048576" in document["error"]["message"]
        canary = make_random_heterogeneous_task(60, 0.2)
        assert client.simulate(canary, cores=2, timeout=5) == simulate_makespan(
            canary, Platform(2), policy_by_name("breadth-first")
        )

    @pytest.mark.parametrize("timeout", [math.inf, math.nan, -1.0, 1e10])
    def test_timeout_outside_the_wait_limit_raises_in_process(self, timeout):
        with pytest.raises(ValueError, match="timeout"):
            EvaluationService(default_timeout=timeout)
        with EvaluationService() as service:
            task = figure1_task(period=20, deadline=15)
            with pytest.raises(ValueError, match="timeout"):
                service.submit_simulation(task, 2, timeout=timeout)
            # A cache hit validates its timeout too.
            service.submit_simulation(task, 2, timeout=threading.TIMEOUT_MAX)
            with pytest.raises(ValueError, match="timeout"):
                service.submit_simulation(task, 2, timeout=timeout)


    @pytest.mark.parametrize(
        ("options", "setting"),
        [
            ({"oracle_budget": -1.0}, "oracle_budget"),
            ({"oracle_budget": math.nan}, "oracle_budget"),
            ({"oracle_budget": math.inf}, "oracle_budget"),
            ({"oracle_budget": True}, "oracle_budget"),
            ({"breaker_reset": math.nan}, "reset_timeout"),
            ({"breaker_threshold": True}, "failure_threshold"),
        ],
    )
    def test_oracle_settings_outside_their_domain_refuse_to_build(
        self, options, setting
    ):
        # The service's own settings are checked when it is built: a
        # negative budget once built a service whose every makespan
        # request was refused as the client's fault.
        with pytest.raises(ValueError, match=setting):
            EvaluationService(**options)


# ----------------------------------------------------------------------
# Repeats: a byte-identical body is answered from its digest, unparsed
# ----------------------------------------------------------------------
def _exchange(
    port: int, path: str, body: bytes, *, chunked: bool = False, headers=None
) -> tuple[int, bytes]:
    """POST ``body`` as it is, sized or chunked; ``(status, response bytes)``."""
    connection = http.client.HTTPConnection("127.0.0.1", port, timeout=60)
    try:
        if chunked:
            half = len(body) // 2
            connection.request(
                "POST",
                path,
                iter([body[:half], body[half:]]),
                {"Content-Type": "application/json", **(headers or {})},
                encode_chunked=True,
            )
        else:
            connection.request(
                "POST",
                path,
                body,
                {"Content-Type": "application/json", **(headers or {})},
            )
        response = connection.getresponse()
        return response.status, response.read()
    finally:
        connection.close()


def _small_task_body(path: str, seed: int = 3) -> bytes:
    """A valid request body for ``path`` around one small random task
    (integer WCETs, which the exact-makespan oracle needs)."""
    task = task_to_dict(make_random_heterogeneous_task(seed, 0.2, n_max=12))
    task["nodes"] = {node: math.ceil(wcet) for node, wcet in task["nodes"].items()}
    if path == "/workload":
        stream = {"task": task, "arrivals": {"kind": "trace", "times": [0.0, 5.0]}}
        return json.dumps({"streams": [stream], "horizon": 20.0}).encode()
    return json.dumps({"task": task, "cores": 2}).encode()


@pytest.fixture
def counted_parses(monkeypatch):
    """Count the transport's body parses and task decodes."""
    calls: list[str] = []
    for attribute in ("_parse_body", "task_from_dict"):
        original = getattr(http_module, attribute)

        def counted(*args, _original=original, _name=attribute, **kwargs):
            calls.append(_name)
            return _original(*args, **kwargs)

        monkeypatch.setattr(http_module, attribute, counted)
    return calls


class TestRepeatAnswers:
    @pytest.mark.parametrize("chunked", [False, True], ids=["sized", "chunked"])
    @pytest.mark.parametrize("path", ["/simulate", "/analyse", "/makespan", "/workload"])
    def test_repeat_returns_the_first_answers_bytes(
        self, fresh_server, counted_parses, path, chunked
    ):
        service, port = fresh_server()
        body = _small_task_body(path)
        status, first = _exchange(port, path, body, chunked=chunked)
        assert status == 200, first
        assert counted_parses and counted_parses[0] == "_parse_body"
        before = service.stats()
        counted_parses.clear()
        for _ in range(2):
            assert _exchange(port, path, body, chunked=chunked) == (200, first)
        assert counted_parses == []  # neither parsed nor decoded
        after = service.stats()
        assert after["cache"]["repeats"] == before["cache"]["repeats"] + 2
        assert after["cache"]["hits"] == before["cache"]["hits"] + 2
        assert after["cache"]["misses"] == before["cache"]["misses"]
        assert after["requests"]["total"] == before["requests"]["total"] + 2
        kind = path[1:]
        assert after["requests"][kind] == before["requests"][kind] + 2

    def test_same_body_on_another_path_is_not_aliased(
        self, fresh_server, counted_parses
    ):
        service, port = fresh_server()
        body = _small_task_body("/simulate")
        answers = {}
        for path in ("/simulate", "/analyse", "/makespan"):
            counted_parses.clear()
            status, answers[path] = _exchange(port, path, body)
            assert status == 200, answers[path]
            assert "_parse_body" in counted_parses, path
        assert len(set(answers.values())) == 3
        assert service.stats()["cache"]["repeats"] == 0
        assert service.stats()["cache"]["misses"] == 3

    def test_refused_body_stays_refused(self, fresh_server, counted_parses):
        service, port = fresh_server()
        cyclic = {"nodes": {"a": 1, "b": 2}, "edges": [["a", "b"], ["b", "a"]]}
        bodies = {
            "build": json.dumps({"task": cyclic, "cores": 2}).encode(),
            "field": json.dumps(
                {"task": task_to_dict(figure1_task()), "core": 2}
            ).encode(),
            "json": b'{"task": ',
        }
        for name, body in bodies.items():
            errors = set()
            for _ in range(3):
                counted_parses.clear()
                status, answer = _exchange(port, "/simulate", body)
                assert status == 400, (name, answer)
                assert "_parse_body" in counted_parses, name
                errors.add(json.loads(answer)["error"]["message"])
            assert len(errors) == 1, (name, errors)
        assert service.stats()["cache"]["repeats"] == 0

    def test_repeat_after_its_payload_was_evicted_recomputes(self, fresh_server):
        # Size a cache that keeps one answer and its alias but not two.
        body = _small_task_body("/simulate", seed=3)
        other = _small_task_body("/simulate", seed=4)
        probe, probe_port = fresh_server()
        assert _exchange(probe_port, "/simulate", body)[0] == 200
        one = probe.cache.bytes_used
        service, port = fresh_server(cache_bytes=one + one // 2)
        status, first = _exchange(port, "/simulate", body)
        assert status == 200
        assert _exchange(port, "/simulate", other)[0] == 200
        assert service.cache.stats()["evictions"] == 1  # the first payload
        before = service.stats()["cache"]
        assert _exchange(port, "/simulate", body) == (200, first)
        after = service.stats()["cache"]
        assert after["misses"] == before["misses"] + 1
        assert (after["hits"], after["repeats"]) == (before["hits"], before["repeats"])
        # Answered again, the body is aliased again.
        assert _exchange(port, "/simulate", body) == (200, first)
        assert service.stats()["cache"]["repeats"] == after["repeats"] + 1

    def test_repeat_of_a_request_in_flight_joins_it(self, fresh_server):
        service, port = fresh_server()
        plug = Plug(service)
        body = _small_task_body("/simulate")
        with ThreadPoolExecutor(max_workers=2) as pool:
            first = pool.submit(_exchange, port, "/simulate", body)
            plug.wait_parked(1)
            second = pool.submit(_exchange, port, "/simulate", body)
            deadline = time.monotonic() + 30
            while service.stats()["engine"]["inflight_joins"] < 1:
                assert time.monotonic() < deadline, "the resend never joined"
                time.sleep(0.005)
            plug.release()
            assert first.result(60)[0] == 200
            assert second.result(60) == first.result(60)
        cache = service.stats()["cache"]
        assert (cache["misses"], cache["hits"], cache["repeats"]) == (2, 0, 0)

    def test_repeat_copies_no_payload_and_an_in_process_hit_copies_one(
        self, fresh_server, monkeypatch
    ):
        import copy

        from repro.service import facade

        copies = []

        def counted(value):
            copies.append(value)
            return copy.deepcopy(value)

        monkeypatch.setattr(facade, "_copy_payload", counted)
        service, port = fresh_server()
        body = _small_task_body("/analyse", seed=6)
        status, first = _exchange(port, "/analyse", body)
        assert status == 200, first
        copies.clear()
        assert _exchange(port, "/analyse", body) == (200, first)
        assert copies == []  # the transport only encodes the cached payload
        request = json.loads(body)
        task = task_from_dict(request["task"])
        payload = service.submit_analysis(task, request["cores"])
        assert len(copies) == 1 and payload == json.loads(first)
        payload["bounds"].clear()  # the caller's private copy
        assert service.submit_analysis(task, request["cores"]) == json.loads(first)
        assert _exchange(port, "/analyse", body) == (200, first)

    def test_draining_service_answers_a_repeat_503(self, fresh_server):
        service, port = fresh_server()
        body = _small_task_body("/simulate")
        assert _exchange(port, "/simulate", body)[0] == 200
        service.close()
        status, answer = _exchange(port, "/simulate", body)
        assert status == 503, answer
        assert json.loads(answer)["error"]["code"] == "closed"

    def test_stats_equal_the_full_paths_plus_repeats(
        self, fresh_server, monkeypatch
    ):
        full, full_port = fresh_server()
        monkeypatch.setattr(full, "answer_repeat", lambda kind, digest: None)
        served, served_port = fresh_server()
        a = _small_task_body("/simulate", seed=3)
        b = _small_task_body("/simulate", seed=4)
        c = _small_task_body("/analyse", seed=5)
        sequence = [
            ("/simulate", a), ("/simulate", a), ("/simulate", b),
            ("/analyse", c), ("/simulate", a), ("/analyse", c),
            ("/makespan", a), ("/simulate", b),
        ]
        for port in (full_port, served_port):
            for path, body in sequence:
                assert _exchange(port, path, body)[0] == 200
        expected, actual = full.stats(), served.stats()
        for key in ("hits", "misses", "entries"):
            assert actual["cache"][key] == expected["cache"][key], key
        assert actual["requests"] == expected["requests"]
        assert (expected["cache"]["repeats"], actual["cache"]["repeats"]) == (0, 4)
        [series] = served.metrics.render_json()["counters"][
            "repro_service_cache_repeats_total"
        ]["series"]
        assert series["value"] == 4

    def test_repeat_trace_has_the_lookup_spans(self, fresh_server):
        service, port = fresh_server()
        body = _small_task_body("/simulate")
        assert _exchange(port, "/simulate", body)[0] == 200
        trace_id = "repeat-trace-0001"
        status, _ = _exchange(
            port, "/simulate", body, headers={"X-Repro-Trace-Id": trace_id}
        )
        assert status == 200
        deadline = time.monotonic() + 5.0
        while (payload := service.tracer.get_trace(trace_id)) is None:
            assert time.monotonic() < deadline
            time.sleep(0.005)
        spans = {span["name"]: span for span in payload["spans"]}
        assert set(spans) == {"http.request", "facade.submit", "cache.lookup"}
        assert spans["http.request"]["parent_id"] is None
        assert spans["facade.submit"]["parent_id"] == spans["http.request"]["span_id"]
        assert spans["cache.lookup"]["parent_id"] == spans["facade.submit"]["span_id"]
        assert spans["cache.lookup"]["attributes"]["hit"] is True
