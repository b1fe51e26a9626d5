#!/usr/bin/env python3
"""Chaos smoke of the evaluation service (PR 6): faults on, nothing lost.

Boots a real ``repro serve`` subprocess with ``REPRO_FAULTS`` arming three
injected failures --

* ``service.batch:hang`` -- the first executor flush wedges for a second,
  so a concurrent burst piles up behind it and overflows the bounded
  admission queue (deterministic HTTP 429 shedding);
* ``parallel.chunk:kill`` (token-gated) -- exactly one worker of the
  ``/makespan`` oracle pool (``--jobs 2``) hard-exits mid-batch, forcing a
  pool respawn;
* ``oracle.solve:hang`` -- an exact-makespan solve outlives the oracle
  budget, degrading the rest of its batch to verified bounds;

then fires a mixed burst through :class:`repro.service.ServiceClient` and
checks the PR-6 resilience contract from the outside:

* **zero lost requests** -- every submission gets exactly one outcome
  (a result, or a structured 429/5xx error envelope); nothing hangs;
* the outcome partition is exactly {200, 429}: shed requests got 429 with
  ``Retry-After``, everything accepted resolved with the right answer;
* at least one makespan response is flagged ``degraded`` (and none of the
  degraded ones claims optimality), at least one is exact;
* ``/stats`` shows the worker respawn, the shed count, the degraded count
  and the tripped oracle breaker; the kill token was consumed;
* ``SIGTERM`` drains cleanly *and visibly*: a fourth fault
  (``service.drain:hang``) wedges the close-flush so the drain window is
  wide enough to probe -- ``/health`` must report ``draining`` (503), a
  POST during the drain must be refused ``closed``, every request accepted
  before the drain must still resolve, and the process exits 0.

Run with:  python benchmarks/chaos_smoke.py
"""

from __future__ import annotations

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

from repro.core.exceptions import (  # noqa: E402
    ServiceClosedError,
    ServiceError,
    ServiceOverloadedError,
)
from repro.generator.config import GeneratorConfig, OffloadConfig  # noqa: E402
from repro.generator.offload import make_heterogeneous  # noqa: E402
from repro.generator.random_dag import DagStructureGenerator  # noqa: E402
from repro.service import ServiceClient  # noqa: E402

#: Bounded admission: the hung flush lets the burst pile past this.
MAX_PENDING = 64

#: Burst sizes (distinct tasks each -- duplicates would coalesce in flight
#: and bypass admission, muddying the shed accounting).
PLUG_REQUESTS = 4
BURST_REQUESTS = 80
MAKESPAN_REQUESTS = 6

_CONFIG = GeneratorConfig(
    p_par=0.6, n_par=3, max_depth=2, n_min=4, n_max=12, c_min=1, c_max=12
)


def _tasks(count: int, root_seed: int, integer_wcets: bool = False) -> list:
    tasks = []
    for seed in range(root_seed, root_seed + count):
        host = DagStructureGenerator(
            _CONFIG, np.random.default_rng(seed)
        ).generate_task()
        task = make_heterogeneous(
            host, OffloadConfig(), np.random.default_rng(seed + 1),
            target_fraction=0.25,
        )
        if integer_wcets:  # the exact solvers require integer WCETs
            task = task.with_offloaded_wcet(
                max(1.0, float(round(task.offloaded_wcet)))
            )
        tasks.append(task)
    return tasks


def _boot_server(tmp: Path, token: Path) -> tuple[subprocess.Popen, int]:
    port_file = tmp / "port"
    env = dict(os.environ)
    env["PYTHONPATH"] = str(_SRC)
    env["REPRO_FAULTS"] = (
        "service.batch:hang:delay=1.0:times=2;"
        f"parallel.chunk:kill:token={token}:times=inf;"
        "oracle.solve:hang:delay=0.25:times=inf;"
        "service.drain:hang:delay=1.5:times=1"
    )
    process = subprocess.Popen(
        [
            sys.executable, "-m", "repro", "serve",
            "--port", "0",
            "--port-file", str(port_file),
            "--jobs", "2",
            "--max-pending", str(MAX_PENDING),
            "--oracle-budget", "0.2",
            "--breaker-threshold", "1",
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


def _classify(call) -> tuple[str, object]:
    """One outcome per request: ('ok', value) or the mapped error class."""
    try:
        return ("ok", call())
    except ServiceOverloadedError as error:
        assert getattr(error, "retry_after", None), "429 must carry Retry-After"
        return ("shed", error)
    except ServiceError as error:  # anything else structured is a failure
        return ("unexpected", error)


def main() -> int:
    tmp = Path(tempfile.mkdtemp(prefix="repro-chaos-"))
    token = tmp / "kill-one-worker"
    token.write_text("armed\n")
    process, port = _boot_server(tmp, token)
    client = ServiceClient(port=port, timeout=120, retries=0)
    print(f"chaos server on port {port} (REPRO_FAULTS armed), pid {process.pid}")

    try:
        assert client.health()["status"] == "ok"

        # --- phase 1: hang the first flush, overflow admission ----------
        plug = _tasks(PLUG_REQUESTS, root_seed=9000)
        burst = _tasks(BURST_REQUESTS, root_seed=9100)
        pool = ThreadPoolExecutor(max_workers=PLUG_REQUESTS + BURST_REQUESTS)
        plug_futures = [
            pool.submit(_classify, lambda t=t: client.simulate(t, cores=2))
            for t in plug
        ]
        time.sleep(0.3)  # the plug flush is now wedged in service.batch:hang
        burst_futures = [
            pool.submit(_classify, lambda t=t: client.simulate(t, cores=2))
            for t in burst
        ]

        # --- phase 2 (submission): park the oracle burst NOW ------------
        # The burst flush above is still wedged (service.batch fires twice),
        # so every makespan request parks behind it and coalesces into one
        # oracle batch.  Inside that batch the per-solve hang (0.25 s)
        # outlives the 0.2 s oracle budget: the instance that hangs still
        # returns exact, everything after it degrades to verified bounds.
        solver_tasks = _tasks(
            MAKESPAN_REQUESTS, root_seed=9300, integer_wcets=True
        )
        time.sleep(1.0)
        payload_futures = [
            pool.submit(lambda t=t: client.makespan(t, cores=2))
            for t in solver_tasks
        ]

        outcomes = [f.result(timeout=120) for f in plug_futures + burst_futures]

        total = PLUG_REQUESTS + BURST_REQUESTS
        assert len(outcomes) == total  # exactly one outcome each, none lost
        by_status: dict[str, int] = {}
        for status, _ in outcomes:
            by_status[status] = by_status.get(status, 0) + 1
        print(f"simulate burst of {total}: {by_status}")
        assert by_status.get("unexpected", 0) == 0, [
            error for status, error in outcomes if status == "unexpected"
        ]
        assert by_status.get("ok", 0) >= MAX_PENDING, by_status
        assert by_status.get("shed", 0) >= 1, "bounded admission never shed"
        for status, value in outcomes:
            if status == "ok":
                assert float(value) > 0.0

        # --- phase 2 (collection): the coalesced oracle batch degraded --
        payloads = [f.result(timeout=120) for f in payload_futures]
        pool.shutdown()
        degraded = [p for p in payloads if p["degraded"]]
        exact = [p for p in payloads if not p["degraded"]]
        print(
            f"makespan burst of {len(payloads)}: "
            f"{len(exact)} exact, {len(degraded)} degraded"
        )
        assert len(payloads) == MAKESPAN_REQUESTS
        assert degraded, "oracle budget never degraded anything"
        assert exact, "the whole batch degraded (hang should spare one)"
        for payload in degraded:
            assert not payload["optimal"]
            stats = payload["engine_stats"]
            assert stats["engine"] == "degraded-bounds"
            assert stats["lower_bound"] <= payload["makespan"]

        # --- phase 3: server-side counters saw all of it -----------------
        resilience = client.stats()["resilience"]
        print(
            f"server counters: shed={resilience['shed']} "
            f"degraded={resilience['degraded']} "
            f"respawns={resilience['worker_respawns']} "
            f"breaker={resilience['breaker']['state']}"
            f"/{resilience['breaker']['trips']} trip(s)"
        )
        assert resilience["shed"] == by_status.get("shed", 0)
        assert resilience["degraded"] == len(degraded)
        assert resilience["worker_respawns"] >= 1, "killed worker never respawned"
        assert resilience["breaker"]["trips"] >= 1
        assert not token.exists(), "kill token was never consumed"

        # --- phase 4: SIGTERM drains cleanly, and /health says so -------
        # A stream of fresh simulate requests keeps the queue non-empty,
        # so the close-flush exists and service.drain:hang wedges it for
        # 1.5 s -- a wide, deterministic window in which /health must
        # report "draining" and a new POST must be refused "closed".
        stream_outcomes: list[str] = []
        outcome_lock = threading.Lock()
        stream_stop = threading.Event()

        def stream(worker: int) -> None:
            seed = 20000 + worker * 1000
            while not stream_stop.is_set():
                task = _tasks(1, root_seed=seed)[0]
                seed += 1
                try:
                    makespan = client.simulate(task, cores=2)
                    assert float(makespan) > 0.0
                    outcome = "ok"
                except ServiceClosedError:
                    outcome = "closed"
                except ServiceOverloadedError:
                    outcome = "shed"
                except ServiceError as error:
                    # Connection-level failure on a *new* request after the
                    # listener went down is equivalent to "closed"; anything
                    # else structured is a real failure.
                    outcome = (
                        "closed"
                        if getattr(error, "retryable", False)
                        else "unexpected"
                    )
                with outcome_lock:
                    stream_outcomes.append(outcome)
                if outcome in ("closed", "unexpected"):
                    return

        streamers = [
            threading.Thread(target=stream, args=(i,)) for i in range(8)
        ]
        for thread in streamers:
            thread.start()
        time.sleep(0.5)  # the stream is established
        process.send_signal(signal.SIGTERM)

        draining_seen = False
        probe_samples: list[tuple[float, str]] = []
        probe_start = time.monotonic()
        probe_deadline = probe_start + 5.0
        while time.monotonic() < probe_deadline:
            try:
                status = client.health(timeout=2)["status"]
            except ServiceError as error:
                probe_samples.append(
                    (time.monotonic() - probe_start, f"error: {error}")
                )
                break  # listener already torn down
            probe_samples.append((time.monotonic() - probe_start, status))
            if status == "draining":
                draining_seen = True
                break
            time.sleep(0.02)
        if not draining_seen:
            for offset, status in probe_samples:
                print(f"  probe +{offset:.3f}s: {status}", flush=True)
        assert draining_seen, "/health never reported 'draining' during drain"
        try:
            client.simulate(_tasks(1, root_seed=31000)[0], cores=2)
            raise AssertionError("POST accepted during the drain")
        except (ServiceClosedError, ServiceError):
            pass  # refused (503 closed) or the listener is already gone
        stream_stop.set()
        for thread in streamers:
            thread.join(timeout=120)
        assert "unexpected" not in stream_outcomes, stream_outcomes
        print(
            f"drain stream: {stream_outcomes.count('ok')} ok, "
            f"{stream_outcomes.count('shed')} shed, "
            f"{stream_outcomes.count('closed')} refused after close; "
            f"/health reported 'draining' during the drain window"
        )
        output = process.communicate(timeout=60)[0]
        print(output, end="")
        assert process.returncode == 0, f"exit {process.returncode}"
        assert "draining" in output
        print("chaos smoke PASS: nothing lost, clean drain, exit 0")
        return 0
    finally:
        if process.poll() is None:
            process.kill()
            process.communicate()


if __name__ == "__main__":
    sys.exit(main())
