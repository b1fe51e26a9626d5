"""Compiled C step-loop kernel (the engine behind every vectorisable grid).

A Python event loop pays interpreter dispatch for every heap operation of
every simulation.  Compiling the step loop removes that overhead at the
root: in native code a plain per-lane event loop (the dense engine's heaps,
verbatim) runs each step as a few dozen heap operations, not a few dozen
interpreter round-trips.  This module therefore lowers the *scalar* event
loop of :mod:`repro.simulation.dense` to C, once, for every priority family
of the built-in policies (:func:`~repro.simulation.schedulers.policy_vector_kind`):

* ``fifo`` (breadth-first): ready key ``(ready time, creation index)``;
* ``static`` (critical-path/shortest/longest/fixed-priority): ``(per-node
  key, arrival index)``;
* ``lifo`` (depth-first): ``(-arrival, arrival)``;
* ``random``: ``(pre-consumed draw, arrival)`` -- the draws are consumed on
  the Python side, one per non-instant node in cell order, so the stream
  semantics of the scalar engines are preserved.

Bit-identity holds by construction: the C loop performs the *same
floating-point operations in the same order* as ``simulate_makespan_dense``
(IEEE-754 double adds and compares, the ``1e-12`` retire window, the
arrival/start counters, FIFO instant-node cascades), and binary heaps over
unique keys pop in a total order independent of their internal layout.

Toolchain
---------
The kernel is plain C99 with no Python.h dependency: it is compiled on
first use with the system C compiler (``cc``/``gcc``/``clang``; override
with ``REPRO_CC``) into a shared library cached by source hash under
``REPRO_KERNEL_CACHE`` (default: a per-user directory in the system temp
dir), and loaded with :mod:`ctypes`.  No third-party package is required --
``pip install .[compiled]`` is a documented no-op kept as the opt-in
marker.  When no compiler is available (or ``REPRO_COMPILED=0`` disables
the backend) ``engine="auto"`` serves every grid with the dense engine
(:func:`~repro.simulation.vectorized_compiled.resolve_engine`); nothing in
the repository *requires* the compiled backend.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import shutil
import subprocess
import sys
import tempfile
import threading
from typing import Optional

import numpy as np

from ..core.exceptions import SimulationError
from .kernel_stats import record_kernel_batch

__all__ = [
    "KIND_CODES",
    "compiled_available",
    "compiled_unavailable_reason",
    "load_kernel",
    "run_lanes",
]

#: Priority-family codes shared with the C source below.
KIND_CODES = {"fifo": 0, "static": 1, "lifo": 2, "random": 3}

_C_SOURCE = r"""
#include <stdint.h>
#include <stdlib.h>
#include <string.h>

/* Ready-queue heap entry: lexicographic (prim, sec), both doubles.  The
 * (prim, sec) pairs are unique per lane (see the Python module docstring),
 * so heap pops realise a total order -- identical to the scalar engines'
 * tuple heaps regardless of internal layout. */
typedef struct { double prim; double sec; int64_t node; } rentry;

/* Running-set heap entry: (finish, start sequence); the sequence is unique. */
typedef struct { double finish; int64_t seq; int64_t node; int64_t dev; } runentry;

static int rless(const rentry *a, const rentry *b) {
    if (a->prim < b->prim) return 1;
    if (a->prim > b->prim) return 0;
    return a->sec < b->sec;
}

static void rpush(rentry *heap, int64_t *len, rentry e) {
    int64_t i = (*len)++;
    heap[i] = e;
    while (i > 0) {
        int64_t p = (i - 1) >> 1;
        if (!rless(&heap[i], &heap[p])) break;
        rentry t = heap[p]; heap[p] = heap[i]; heap[i] = t;
        i = p;
    }
}

static rentry rpop(rentry *heap, int64_t *len) {
    rentry top = heap[0];
    int64_t n = --(*len);
    heap[0] = heap[n];
    int64_t i = 0;
    for (;;) {
        int64_t l = 2 * i + 1, r = l + 1, m = i;
        if (l < n && rless(&heap[l], &heap[m])) m = l;
        if (r < n && rless(&heap[r], &heap[m])) m = r;
        if (m == i) break;
        rentry t = heap[m]; heap[m] = heap[i]; heap[i] = t;
        i = m;
    }
    return top;
}

static int runless(const runentry *a, const runentry *b) {
    if (a->finish < b->finish) return 1;
    if (a->finish > b->finish) return 0;
    return a->seq < b->seq;
}

static void runpush(runentry *heap, int64_t *len, runentry e) {
    int64_t i = (*len)++;
    heap[i] = e;
    while (i > 0) {
        int64_t p = (i - 1) >> 1;
        if (!runless(&heap[i], &heap[p])) break;
        runentry t = heap[p]; heap[p] = heap[i]; heap[i] = t;
        i = p;
    }
}

static runentry runpop(runentry *heap, int64_t *len) {
    runentry top = heap[0];
    int64_t n = --(*len);
    heap[0] = heap[n];
    int64_t i = 0;
    for (;;) {
        int64_t l = 2 * i + 1, r = l + 1, m = i;
        if (l < n && runless(&heap[l], &heap[m])) m = l;
        if (r < n && runless(&heap[r], &heap[m])) m = r;
        if (m == i) break;
        runentry t = heap[m]; heap[m] = heap[i]; heap[i] = t;
        i = m;
    }
    return top;
}

/* Push one non-instant global node onto its ready heap, stamping the lane's
 * arrival counter -- the C twin of the scalar engines' enqueue fast path. */
#define PUSH_READY(gnode) do { \
    int64_t pr_g = (gnode); \
    arrival += 1; \
    rentry pr_e; \
    pr_e.node = pr_g; \
    switch (kv) { \
    case 0: pr_e.prim = ready[pr_g - base]; pr_e.sec = (double)(pr_g - base); break; \
    case 1: pr_e.prim = static_key[pr_g]; pr_e.sec = (double)arrival; break; \
    case 2: pr_e.prim = -(double)arrival; pr_e.sec = (double)arrival; break; \
    default: pr_e.prim = lane_draws[arrival - 1]; pr_e.sec = (double)arrival; break; \
    } \
    int64_t pr_d = assigned[pr_g]; \
    if (pr_d < 0) rpush(host_heap, &host_len, pr_e); \
    else rpush(dev_heap + pr_d * max_n, &dev_len[pr_d], pr_e); \
} while (0)

/* Enqueue a ready node, resolving zero-WCET ("instant") nodes through the
 * same FIFO cascade as the scalar engines' pending deque. */
#define ENQUEUE(gnode) do { \
    int64_t eq_head = 0, eq_tail = 0; \
    pending[eq_tail++] = (gnode); \
    while (eq_head < eq_tail) { \
        int64_t eq_cur = pending[eq_head++]; \
        if (wcet[eq_cur] != 0.0) { PUSH_READY(eq_cur); continue; } \
        double eq_when = ready[eq_cur - base]; \
        if (eq_when > makespan) makespan = eq_when; \
        remaining -= 1; \
        for (int64_t eq_e = succ_ptr[eq_cur]; eq_e < succ_ptr[eq_cur + 1]; eq_e++) { \
            int64_t eq_s = succ_idx[eq_e]; \
            if (eq_when > ready[eq_s - base]) ready[eq_s - base] = eq_when; \
            if (--in_deg[eq_s - base] == 0) pending[eq_tail++] = eq_s; \
        } \
    } \
} while (0)

/* Run every lane's event loop; lanes are independent.
 *
 * Returns 0 on success, (lane index + 1) when that lane deadlocks, or -1
 * when scratch allocation fails.  All node indices are global (lane l owns
 * [node_off[l], node_off[l+1])); succ_ptr/succ_idx are the globally
 * rebased CSR.  Per-lane scratch is indexed locally (global - base).
 */
int64_t repro_run_lanes(
    int64_t n_lanes,
    const int64_t *node_off,     /* n_lanes + 1 */
    const double  *wcet,         /* N */
    const int64_t *succ_ptr,     /* N + 1 */
    const int64_t *succ_idx,     /* E */
    const int64_t *in_degree,    /* N, initial (read-only) */
    const int64_t *assigned,     /* N, device id or -1 (host) */
    const double  *static_key,   /* N (static lanes; zeros elsewhere) */
    const double  *draws,        /* concatenated draws of random lanes */
    const int64_t *draw_off,     /* n_lanes */
    const int64_t *host_cores,   /* n_lanes */
    const int64_t *accelerators, /* n_lanes */
    const int64_t *kind,         /* n_lanes: 0 fifo, 1 static, 2 lifo, 3 random */
    double        *out,          /* n_lanes */
    int64_t       *stats         /* 2: [0] += retire windows, [1] += nodes retired */
) {
    int64_t max_n = 0, max_a = 0;
    for (int64_t l = 0; l < n_lanes; l++) {
        int64_t n = node_off[l + 1] - node_off[l];
        if (n > max_n) max_n = n;
        if (accelerators[l] > max_a) max_a = accelerators[l];
    }
    if (max_n == 0) {
        for (int64_t l = 0; l < n_lanes; l++) out[l] = 0.0;
        return 0;
    }

    int64_t  *in_deg    = malloc(sizeof(int64_t) * max_n);
    double   *ready     = malloc(sizeof(double) * max_n);
    int64_t  *pending   = malloc(sizeof(int64_t) * max_n);
    int64_t  *newly     = malloc(sizeof(int64_t) * max_n);
    rentry   *host_heap = malloc(sizeof(rentry) * max_n);
    rentry   *dev_heap  = max_a ? malloc(sizeof(rentry) * max_a * max_n) : NULL;
    int64_t  *dev_len   = max_a ? malloc(sizeof(int64_t) * max_a) : NULL;
    uint8_t  *dev_free  = max_a ? malloc(sizeof(uint8_t) * max_a) : NULL;
    runentry *running   = malloc(sizeof(runentry) * max_n);
    if (!in_deg || !ready || !pending || !newly || !host_heap || !running ||
        (max_a && (!dev_heap || !dev_len || !dev_free))) {
        free(in_deg); free(ready); free(pending); free(newly);
        free(host_heap); free(dev_heap); free(dev_len); free(dev_free);
        free(running);
        return -1;
    }

    int64_t status = 0;
    for (int64_t l = 0; l < n_lanes; l++) {
        const int64_t base = node_off[l];
        const int64_t n = node_off[l + 1] - base;
        out[l] = 0.0;
        if (n == 0) continue;
        const int64_t kv = kind[l];
        const double *lane_draws = draws + draw_off[l];
        const int64_t n_acc = accelerators[l];

        memcpy(in_deg, in_degree + base, sizeof(int64_t) * n);
        memset(ready, 0, sizeof(double) * n);
        for (int64_t d = 0; d < n_acc; d++) { dev_len[d] = 0; dev_free[d] = 1; }
        int64_t free_cores = host_cores[l];
        int64_t host_len = 0, run_len = 0;
        int64_t arrival = 0, seq = 0;
        int64_t remaining = n;
        double makespan = 0.0, now = 0.0;

        /* Seed: snapshot the sources before any instant cascade mutates the
         * in-degree array, then enqueue each in creation order. */
        int64_t n_src = 0;
        for (int64_t i = 0; i < n; i++)
            if (in_deg[i] == 0) newly[n_src++] = base + i;
        for (int64_t i = 0; i < n_src; i++) ENQUEUE(newly[i]);

        while (remaining > 0) {
            /* Start phase: work conserving, host cores then each device. */
            while (free_cores > 0 && host_len > 0) {
                rentry e = rpop(host_heap, &host_len);
                free_cores -= 1;
                seq += 1;
                runentry r = { now + wcet[e.node], seq, e.node, -1 };
                runpush(running, &run_len, r);
            }
            for (int64_t d = 0; d < n_acc; d++) {
                while (dev_free[d] && dev_len[d] > 0) {
                    rentry e = rpop(dev_heap + d * max_n, &dev_len[d]);
                    dev_free[d] = 0;
                    seq += 1;
                    runentry r = { now + wcet[e.node], seq, e.node, d };
                    runpush(running, &run_len, r);
                }
            }
            if (remaining == 0) break;
            if (run_len == 0) { status = l + 1; goto done; }

            /* Advance to the earliest completion; retire the whole window. */
            stats[0] += 1;
            now = running[0].finish;
            double threshold = now + 1e-12;
            while (run_len > 0 && running[0].finish <= threshold) {
                runentry r = runpop(running, &run_len);
                if (r.finish > makespan) makespan = r.finish;
                remaining -= 1;
                if (r.dev < 0) free_cores += 1;
                else dev_free[r.dev] = 1;
                int64_t n_new = 0;
                for (int64_t e = succ_ptr[r.node]; e < succ_ptr[r.node + 1]; e++) {
                    int64_t s = succ_idx[e];
                    if (r.finish > ready[s - base]) ready[s - base] = r.finish;
                    if (--in_deg[s - base] == 0) newly[n_new++] = s;
                }
                for (int64_t j = 0; j < n_new; j++) {
                    int64_t s = newly[j];
                    if (wcet[s] != 0.0) { PUSH_READY(s); }
                    else ENQUEUE(s);
                }
            }
        }
        out[l] = makespan;
        stats[1] += n;
    }

done:
    free(in_deg); free(ready); free(pending); free(newly);
    free(host_heap); free(dev_heap); free(dev_len); free(dev_free);
    free(running);
    return status;
}
"""

_lock = threading.Lock()
_lib: Optional[ctypes.CDLL] = None
_reason: Optional[str] = None
_probed = False


def _source_digest() -> str:
    return hashlib.sha256(_C_SOURCE.encode()).hexdigest()[:16]


def _find_compiler() -> Optional[str]:
    override = os.environ.get("REPRO_CC", "").strip()
    if override:
        return shutil.which(override) or (
            override if os.path.exists(override) else None
        )
    for name in ("cc", "gcc", "clang"):
        path = shutil.which(name)
        if path:
            return path
    return None


def _cache_dir() -> str:
    configured = os.environ.get("REPRO_KERNEL_CACHE", "").strip()
    if configured:
        return configured
    try:
        user = os.getlogin()
    except OSError:
        user = str(os.getuid()) if hasattr(os, "getuid") else "user"
    return os.path.join(tempfile.gettempdir(), f"repro-kernels-{user}")


def _build_library() -> str:
    """Compile the kernel (once per source version) and return its path.

    The library name carries the source hash, so editing the C source can
    never pick up a stale cache; concurrent builders race benignly through
    an atomic rename.
    """
    cache = _cache_dir()
    suffix = "dll" if sys.platform == "win32" else "so"
    target = os.path.join(cache, f"repro_step_kernel_{_source_digest()}.{suffix}")
    if os.path.exists(target):
        return target
    compiler = _find_compiler()
    if compiler is None:
        raise RuntimeError(
            "no C compiler found (looked for cc/gcc/clang; set REPRO_CC)"
        )
    os.makedirs(cache, exist_ok=True)
    src = os.path.join(cache, f"repro_step_kernel_{_source_digest()}.c")
    with open(src, "w", encoding="utf-8") as handle:
        handle.write(_C_SOURCE)
    tmp = f"{target}.tmp.{os.getpid()}"
    cmd = [compiler, "-O2", "-std=c99", "-fPIC", "-shared", src, "-o", tmp]
    result = subprocess.run(cmd, capture_output=True, text=True, timeout=120)
    if result.returncode != 0:
        raise RuntimeError(
            f"kernel compilation failed ({' '.join(cmd)}):\n{result.stderr}"
        )
    os.replace(tmp, target)  # atomic: concurrent builds converge
    return target


def load_kernel() -> Optional[ctypes.CDLL]:
    """The loaded kernel library, or ``None`` with a recorded reason.

    Memoised (including the failure); thread-safe.  Disabled outright by
    ``REPRO_COMPILED=0`` -- the switch the no-compiler CI leg and the
    fallback tests use to force the dense path on hosts that *do* have a
    compiler.
    """
    global _lib, _reason, _probed
    with _lock:
        if _probed:
            return _lib
        _probed = True
        if os.environ.get("REPRO_COMPILED", "").strip() == "0":
            _reason = "disabled by REPRO_COMPILED=0"
            return None
        try:
            lib = ctypes.CDLL(_build_library())
            fn = lib.repro_run_lanes
            fn.restype = ctypes.c_int64
            fn.argtypes = [ctypes.c_int64] + [ctypes.c_void_p] * 14
            _lib = lib
        except Exception as error:  # noqa: BLE001 - any failure means "absent"
            _reason = str(error)
        return _lib


def compiled_available() -> bool:
    """Whether the compiled backend can serve lanes on this host."""
    return load_kernel() is not None


def compiled_unavailable_reason() -> Optional[str]:
    """Why :func:`compiled_available` is ``False`` (``None`` when it isn't)."""
    load_kernel()
    return _reason


def _reset_for_tests() -> None:
    """Drop the memoised probe so tests can re-probe under changed env."""
    global _lib, _reason, _probed
    with _lock:
        _lib = None
        _reason = None
        _probed = False


def _i64(array: np.ndarray) -> np.ndarray:
    return np.ascontiguousarray(array, dtype=np.int64)


def _f64(array: np.ndarray) -> np.ndarray:
    return np.ascontiguousarray(array, dtype=np.float64)


def run_lanes(
    node_off: np.ndarray,
    wcet: np.ndarray,
    succ_ptr: np.ndarray,
    succ_idx: np.ndarray,
    in_degree: np.ndarray,
    assigned: np.ndarray,
    static_key: np.ndarray,
    draws: np.ndarray,
    draw_off: np.ndarray,
    host_cores: np.ndarray,
    accelerators: np.ndarray,
    kinds: np.ndarray,
) -> np.ndarray:
    """Run every lane through the compiled loop; returns per-lane makespans.

    Raises :class:`RuntimeError` when the backend is unavailable and
    :class:`~repro.core.exceptions.SimulationError` on a deadlocked lane
    (same message as the scalar engines).  The GIL is released for the
    duration of the C call.
    """
    lib = load_kernel()
    if lib is None:
        raise RuntimeError(f"compiled kernel unavailable: {_reason}")
    n_lanes = len(node_off) - 1
    out = np.empty(n_lanes, dtype=np.float64)
    stats = np.zeros(2, dtype=np.int64)
    arrays = (
        _i64(node_off),
        _f64(wcet),
        _i64(succ_ptr),
        _i64(succ_idx),
        _i64(in_degree),
        _i64(assigned),
        _f64(static_key),
        _f64(draws),
        _i64(draw_off),
        _i64(host_cores),
        _i64(accelerators),
        _i64(kinds),
        out,
        stats,
    )
    status = lib.repro_run_lanes(
        ctypes.c_int64(n_lanes), *(a.ctypes.data for a in arrays)
    )
    if status > 0:
        raise SimulationError(
            "simulation deadlocked: nodes remain but nothing is running "
            "(is the graph connected and acyclic?)"
        )
    if status < 0:
        raise MemoryError("compiled kernel scratch allocation failed")
    # The C loop advances one lane per retire window, so each step has
    # exactly one active lane (occupancy 1/n_lanes by construction).
    record_kernel_batch(
        "compiled",
        lanes=n_lanes,
        steps=int(stats[0]),
        events=int(stats[1]),
        lane_steps=int(stats[0]),
    )
    return out
