"""Plumbing shared by every workload: pinned environment, set-up probes,
host speed, host counters and the order statistics the metrics are
reported with.

Nothing here imports ``repro`` (numpy, which it uses, is a dependency of
the program); the workload modules import ``repro`` after
:func:`pin_environment` has pointed the interpreter at the checkout's
``src/`` tree and pinned the compiled-kernel cache.
"""

from __future__ import annotations

import json
import math
import os
import resource
import signal
import statistics
import subprocess
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Iterator, Optional, Sequence

import numpy

#: Root of the checkout the benchmark runs in (the parent of this package).
ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
MANIFEST = ROOT / "BENCHMARK.json"
#: Everything the benchmark writes at run time lives below this directory.
CACHE = ROOT / ".perfbench_cache"
#: The compiled step kernel is built once into the checkout and reused, so
#: no run's ``setup_s`` depends on whether a one-off C compile happened.
KERNEL_CACHE = CACHE / "kernels"

#: Launches per run that measure set-up; ``setup_s`` is their median.
SETUP_LAUNCHES = 3


def manifest_metrics(trace: bool) -> dict[str, str]:
    """``{name: unit}`` of the metrics BENCHMARK.json lists for this kind of run."""
    manifest = json.loads(MANIFEST.read_text(encoding="utf-8"))
    return {entry["name"]: entry["unit"] for entry in manifest["per_layer" if trace else "end_to_end"]}


@dataclass
class Outcome:
    """What one workload run reports.

    ``attempted`` counts the program operations run (figure runs, sweep
    cells, requests); an operation that raised or whose output failed a
    check is failed once, whatever the number of checks it failed.
    """

    attempted: int = 0
    metrics: dict = field(default_factory=dict)
    notes: dict = field(default_factory=dict)
    failures: dict = field(default_factory=dict)

    def fail(self, operation: object, reason: str) -> None:
        self.failures.setdefault(operation, reason)

    def check(self, ok: bool, operation: object, reason: str) -> None:
        if not ok:
            self.fail(operation, reason)

    @property
    def failed(self) -> int:
        return len(self.failures)

    def report(self, expected: dict[str, str]) -> dict:
        """The result line; every metric of ``expected`` (``{name: unit}``)
        must have been measured, in that unit, and nothing else."""
        measured = {name: unit for name, (_, unit) in self.metrics.items()}
        if measured != expected:
            raise RuntimeError(f"measured metrics {measured} differ from the manifest's {expected}")
        return {
            "correct": self.failed == 0,
            "attempted": self.attempted,
            "failed": self.failed,
            "metrics": {
                name: {"value": value, "unit": unit}
                for name, (value, unit) in self.metrics.items()
            },
        }


# ----------------------------------------------------------------------
# Host speed
# ----------------------------------------------------------------------
#: The calibration loop does fixed work in the program's three styles:
#: integer arithmetic in the interpreter, dict traffic over a few thousand
#: keys, and numpy calls on small arrays.  On ten seeds of stream-fine it
#: tracked the host's speed to a quartile spread of 0.027, where a loop of
#: integer arithmetic alone left 0.128 (raw wall time: 0.467).
CALIBRATION_ITERATIONS = 15_000
CALIBRATION_KEYS = [(index * 7919) % 65_521 for index in range(3_000)]
CALIBRATION_ARRAY = numpy.arange(64.0)
CALIBRATION_ARRAY_STEPS = 150
#: Duration of one calibration loop at the reference speed.  A time in
#: reference seconds is the time the work would take on a host running
#: the loop this fast (the fast state of the 2-vCPU guest the benchmark
#: was defined on).
REFERENCE_LOOP_S = 0.0017
#: Seconds between calibration samples taken while timed work runs.
SAMPLE_INTERVAL_S = 0.1


def _calibration_loop() -> int:
    total = 0
    for value in range(CALIBRATION_ITERATIONS):
        total += value * value % 7
    table = {}
    for key in CALIBRATION_KEYS:
        table[key] = key
    for key in CALIBRATION_KEYS:
        total += table.get(key + 1, 0)
    array = CALIBRATION_ARRAY
    for _ in range(CALIBRATION_ARRAY_STEPS):
        array = numpy.maximum(array, 3.0) + array[::-1] * 0.5
        total += int(numpy.argmin(array))
    return total


@dataclass
class Timing:
    """One timed piece of work.

    ``seconds`` is what the metric measures (wall or CPU seconds),
    ``speed`` the host speed measured meanwhile, and ``wall_s`` the wall
    time the work took.
    """

    seconds: float
    speed: float
    wall_s: float

    @property
    def reference_s(self) -> float:
        return self.seconds * self.speed


class Speedometer:
    """Host speed relative to the reference, from a fixed calibration loop.

    The shared guest's CPU speed drifts by a quarter or more within
    seconds, and the hypervisor steals up to a third of its time in
    bursts, so equal work takes unequal time from one minute to the next.
    Every time metric is therefore reported in reference seconds: the
    measured time multiplied by the host speed, ``REFERENCE_LOOP_S``
    over the mean duration of calibration loops run while, or right
    around, the work ran.  The loops are timed the way the work is: by
    wall clock for this process's own work (a loop caught by a steal
    burst is slowed like the work around it), by CPU clock for another
    process's CPU time (which excludes stolen time).  A change that makes
    the program do less work lowers the metric; the host's drift mostly
    cancels out of it.
    """

    def __init__(self) -> None:
        self.samples: list[tuple[float, float]] = []  # (wall, CPU) seconds per loop

    def sample(self) -> None:
        wall, cpu = time.perf_counter(), time.thread_time()
        _calibration_loop()
        self.samples.append((time.perf_counter() - wall, time.thread_time() - cpu))

    def speed(self, first: int = 0, cpu: bool = False) -> float:
        """Relative speed over the samples from index ``first`` on."""
        clock = 1 if cpu else 0
        return REFERENCE_LOOP_S / statistics.fmean(sample[clock] for sample in self.samples[first:])

    @contextmanager
    def _sampling(self) -> Iterator[None]:
        """Take a sample every ``SAMPLE_INTERVAL_S`` in this (main) thread."""
        previous = signal.signal(signal.SIGALRM, lambda signum, frame: self.sample())
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_INTERVAL_S, SAMPLE_INTERVAL_S)
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)

    def measure(
        self, run: Callable[[], object], cpu_s: Optional[Callable[[], float]] = None
    ) -> tuple[Timing, object]:
        """Time ``run``, sampling the speed once before it, every
        ``SAMPLE_INTERVAL_S`` on this (main) thread while it runs, and once
        after it.

        Without ``cpu_s`` the work is this process's own: ``seconds`` is
        its wall time less that of the samples, which interrupt it.  With
        ``cpu_s``, which reads another process's CPU seconds, ``seconds``
        is the CPU time that process spent meanwhile.
        """
        first = len(self.samples)
        self.sample()
        inside = len(self.samples)
        started = time.perf_counter()
        cpu = cpu_s() if cpu_s else 0.0
        with self._sampling():
            result = run()
        wall_s = time.perf_counter() - started
        if cpu_s:
            seconds = cpu_s() - cpu
        else:
            seconds = wall_s - sum(wall for wall, _ in self.samples[inside:])
        self.sample()
        return Timing(seconds, self.speed(first, cpu=cpu_s is not None), wall_s), result


def program_env() -> dict:
    """Environment of every process running the program.

    ``REPRO_*`` switches inherited from the caller are dropped, so engine
    choice, fault injection and tracing defaults are the program's own.
    """
    env = {key: value for key, value in os.environ.items() if not key.startswith("REPRO_")}
    env["PYTHONPATH"] = str(SRC)
    env["REPRO_KERNEL_CACHE"] = str(KERNEL_CACHE)
    return env


def pin_environment() -> None:
    """Apply :func:`program_env` to this process and make ``repro`` importable."""
    if not (SRC / "repro" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no program sources at {SRC}; run from a full checkout")
    env = program_env()
    for key in [key for key in os.environ if key not in env]:
        del os.environ[key]
    os.environ.update(env)
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    CACHE.mkdir(exist_ok=True)


def time_to_ready(argv: Sequence[str]) -> float:
    """Seconds from launching ``argv`` until it prints ``ready``; waits for exit."""
    started = time.perf_counter()
    process = subprocess.Popen(
        list(argv), cwd=ROOT, env=program_env(), stdout=subprocess.PIPE, text=True
    )
    try:
        for line in process.stdout:
            if line.strip() == "ready":
                elapsed = time.perf_counter() - started
                break
        else:
            raise RuntimeError(f"{argv!r} exited before it was ready")
        process.stdout.read()
        if process.wait(timeout=60) != 0:
            raise RuntimeError(f"{argv!r} exited with code {process.returncode}")
        return elapsed
    finally:
        if process.poll() is None:
            process.kill()
            process.wait()
        process.stdout.close()


def children_cpu_s() -> float:
    """User + system CPU seconds of this process's waited-for children."""
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


def offline_setup(workload: str, meter: Speedometer) -> list[Timing]:
    """CPU times of fresh interpreters loading the program up to ready
    (the probe exits as soon as it is ready).

    The first probe builds the kernel into :data:`KERNEL_CACHE` when it is
    missing, and fills the bytecode caches, and is not counted.
    """
    argv = [sys.executable, str(Path(__file__).with_name("probe.py")), workload]
    time_to_ready(argv)
    return [
        meter.measure(lambda: time_to_ready(argv), children_cpu_s)[0] for _ in range(SETUP_LAUNCHES)
    ]


def end_to_end(setups: list[Timing], peak_rss_mb: float, work_s: float) -> dict:
    """The end-to-end metrics every workload reports."""
    return {
        "setup_s": (statistics.median(timing.reference_s for timing in setups), "s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
        "work_s": (work_s, "s"),
    }


def timing_notes(setups: list[Timing], passes: list[Timing]) -> dict:
    """Raw times and measured speeds behind the reference seconds."""
    return {
        "setup_wall_s": [timing.wall_s for timing in setups],
        "pass_s": [timing.seconds for timing in passes],
        "pass_wall_s": [timing.wall_s for timing in passes],
        "pass_speed": [timing.speed for timing in passes],
    }


def self_peak_rss_mb() -> float:
    """Peak resident memory of this process so far (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def proc_peak_rss_mb(pid: int) -> float:
    """Peak resident memory (``VmHWM``) of a live process."""
    for line in Path(f"/proc/{pid}/status").read_text().splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for pid {pid}")


def proc_cpu_s(pid: int) -> float:
    """User + system CPU seconds consumed so far by a live process."""
    fields = Path(f"/proc/{pid}/stat").read_text().rpartition(")")[2].split()
    return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")


class HostCounters:
    """Host CPU ticks over a run, from the aggregate ``cpu`` line of ``/proc/stat``.

    Steal is time the hypervisor ran another guest while this one had work;
    a run with high steal is slow for reasons outside the program.
    """

    def __init__(self) -> None:
        self._start = self._read()

    @staticmethod
    def _read() -> list[int]:
        try:
            with open("/proc/stat", encoding="ascii") as handle:
                return [int(value) for value in handle.readline().split()[1:]]
        except OSError:
            return []

    def summary(self) -> dict:
        end = self._read()
        if not end or not self._start:
            return {"steal_ticks": None, "steal_pct": None}
        delta = [after - before for after, before in zip(end, self._start)]
        steal = delta[7] if len(delta) > 7 else 0
        total = sum(delta[:8]) or 1
        return {"steal_ticks": steal, "steal_pct": 100.0 * steal / total}


def repeat_for(
    seconds: float, run: Callable[[], object], meter: Speedometer
) -> list[tuple[Timing, object]]:
    """Run ``run`` at least once, and again while another run ends within
    half a run of ``seconds``.

    Each run is timed with :meth:`Speedometer.measure`.  A further run
    starts when the elapsed time plus half the median run time so far
    stays within the budget, so the measured time misses ``seconds`` by at
    most half a run either way; a 15 s window holds three 5-6 s passes of
    fig6-paper rather than two.
    """
    started = time.perf_counter()
    runs: list[tuple[Timing, object]] = []
    while True:
        runs.append(meter.measure(run))
        typical = statistics.median(timing.wall_s for timing, _ in runs)
        if time.perf_counter() - started + typical / 2 > seconds:
            return runs


def percentile(values: Sequence[float], quantile: float) -> float:
    """Nearest-rank percentile of ``values`` (``quantile`` in ``(0, 1]``)."""
    ordered = sorted(values)
    rank = max(1, math.ceil(quantile * len(ordered)))
    return ordered[rank - 1]


def supported(count: int, quantile: float, beyond: int = 10) -> bool:
    """Whether ``count`` samples leave at least ``beyond`` above the percentile."""
    return count - max(1, math.ceil(quantile * count)) >= beyond
