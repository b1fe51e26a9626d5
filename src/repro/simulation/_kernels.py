"""Compiled C kernels: the step loop behind every vectorisable grid, and
the structure generator's rejection loop.

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

Layout
------
A call shares a few tables among its lanes, each distinct object once: the
structure tables (``node_off``, ``succ_ptr``, ``succ_idx``, ``in_degree``
of :func:`repro.core.compiled.stack_compiled`) and the WCET, device
assignment, static key and draw vectors.  A lane is one record of
:data:`LANE_FIELDS` integers: its structure, offsets into the value tables,
its host cores and accelerators, and its priority family.  The loop works
in lane-local node indices, so nothing is rebased.

Threads
-------
:func:`run_lanes` cuts a call's lanes into contiguous shares of about equal
node count and runs each share on its own POSIX thread with its own
scratch (``O(largest lane)``); the calling thread runs the first share and
joins the rest before returning, so no thread outlives a call and forking
process pools stay safe.  The thread count is the smallest of the CPUs the
process may run on (:func:`repro.parallel.available_cpus`), the lanes, and
the call's nodes over :data:`GRAIN_NODES`, so a one-lane call (a service
miss) never starts a thread.  Lanes are independent, so makespans, step
and event counts and errors do not depend on the thread count: the counts
are summed over the shares, and a deadlock reports the lowest deadlocked
lane.

Structure draws
---------------
The library's second entry point, :func:`draw_structure`, runs the random
DAG generator's rejection loop (Section 5.1: recursive fork/join expansion,
re-drawn until the node count fits) on a copy of a numpy PCG64 state: the
128-bit LCG with its XSL-RR output, ``random()`` as ``(next64 >> 11) *
2**-53`` and ``integers`` as Lemire's rejection over the bit generator's
buffered 32-bit halves.  It makes numpy's draws in numpy's order, rejected
draws included, and writes the state back, so the draws after it are those
of the numpy path (:mod:`repro.generator.random_dag`, its fallback and test
oracle).

Toolchain
---------
The kernel is plain C99 with no Python.h dependency: it is compiled on
first use with the system C compiler (``cc``/``gcc``/``clang``; override
with ``REPRO_CC``) and ``-pthread`` into a shared library cached under
``REPRO_KERNEL_CACHE`` (default: a per-user directory in the system temp
dir), named by a hash of the source and the compile command, and loaded
with :mod:`ctypes`.  No third-party package is required --
``pip install .[compiled]`` is a documented no-op kept as the opt-in
marker.  When no compiler is available (or ``REPRO_COMPILED=0`` disables
the backend) ``engine="auto"`` serves every grid with the dense engine
(:func:`~repro.simulation.vectorized_compiled.resolve_engine`) and the
generator draws with numpy; nothing in the repository *requires* the
compiled backend.
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
from ..parallel import available_cpus
from .kernel_stats import record_kernel_batch

__all__ = [
    "GRAIN_NODES",
    "KIND_CODES",
    "LANE_FIELDS",
    "compiled_available",
    "compiled_unavailable_reason",
    "draw_structure",
    "load_kernel",
    "run_lanes",
]

#: Priority-family codes shared with the C source below.
KIND_CODES = {"fifo": 0, "static": 1, "lifo": 2, "random": 3}

#: The fields of a lane record, in the C source's ``L_*`` order.
LANE_FIELDS = (
    "struct", "wcet", "assigned", "key", "draw", "cores", "accelerators", "kind"
)

#: Nodes of work per thread.  Measured on the quick-scale Figure 6 tasks
#: (~170 nodes a lane, 2 vCPUs): a second thread lost ~0.07 ms on 2 lanes,
#: broke even at 6-8 lanes (~1 100-1 400 nodes) and won from 12 lanes
#: (~2 000 nodes) on, so two threads start at 2 048 nodes.
GRAIN_NODES = 1024

_C_SOURCE = r"""
#define _POSIX_C_SOURCE 200809L
#include <pthread.h>
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

/* Lane record fields (LANE_FIELDS int64 per lane; the Python side mirrors
 * them).  Each offset points into one of the call's shared tables. */
enum {
    L_STRUCT,   /* structure: table rows node_off[s]..node_off[s + 1] */
    L_WCET,     /* first entry of the lane's WCET vector */
    L_ASSIGNED, /* first entry of its device assignment (-1 = host) */
    L_KEY,      /* first entry of its static keys (static lanes) */
    L_DRAW,     /* first of its pre-consumed draws (random lanes) */
    L_CORES,    /* host cores */
    L_ACCEL,    /* accelerators */
    L_KIND,     /* 0 fifo, 1 static, 2 lifo, 3 random */
    LANE_FIELDS
};

/* The read-only inputs of one call, shared by every thread. */
typedef struct {
    const int64_t *node_off;   /* S + 1 */
    const int64_t *succ_ptr;   /* table rows + 1: each row's first edge */
    const int64_t *succ_idx;   /* successors, structure-local indices */
    const int64_t *in_degree;  /* table rows, initial */
    const double  *wcet;
    const int64_t *assigned;
    const double  *static_key;
    const double  *draws;
    const int64_t *lanes;      /* n_lanes x LANE_FIELDS */
    double        *out;        /* n_lanes */
} call_t;

/* One thread's share of a call: a contiguous lane range and its verdict. */
typedef struct {
    const call_t *call;
    int64_t first, last;       /* lanes [first, last) */
    int64_t steps, events;     /* retire windows, nodes retired */
    int64_t status;            /* 0, first deadlocked lane + 1, or -1 */
} share_t;

static int64_t lane_nodes(const call_t *c, int64_t l) {
    int64_t s = c->lanes[l * LANE_FIELDS + L_STRUCT];
    return c->node_off[s + 1] - c->node_off[s];
}

/* Push one non-instant node onto its ready heap, stamping the lane's
 * arrival counter -- the C twin of the scalar engines' enqueue fast path. */
#define PUSH_READY(v) do { \
    int64_t pr_v = (v); \
    arrival += 1; \
    rentry pr_e; \
    pr_e.node = pr_v; \
    switch (kv) { \
    case 0: pr_e.prim = ready[pr_v]; pr_e.sec = (double)pr_v; break; \
    case 1: pr_e.prim = key[pr_v]; pr_e.sec = (double)arrival; break; \
    case 2: pr_e.prim = -(double)arrival; pr_e.sec = (double)arrival; break; \
    default: pr_e.prim = lane_draws[arrival - 1]; pr_e.sec = (double)arrival; break; \
    } \
    int64_t pr_d = asg[pr_v]; \
    if (pr_d < 0) rpush(host_heap, &host_len, pr_e); \
    else rpush(dev_heap + dev_base[pr_d], &dev_len[pr_d], pr_e); \
} while (0)

/* Enqueue a ready node, resolving zero-WCET ("instant") nodes through the
 * same FIFO cascade as the scalar engines' pending deque. */
#define ENQUEUE(v) do { \
    int64_t eq_head = 0, eq_tail = 0; \
    pending[eq_tail++] = (v); \
    while (eq_head < eq_tail) { \
        int64_t eq_cur = pending[eq_head++]; \
        if (w[eq_cur] != 0.0) { PUSH_READY(eq_cur); continue; } \
        double eq_when = ready[eq_cur]; \
        if (eq_when > makespan) makespan = eq_when; \
        remaining -= 1; \
        for (int64_t eq_e = ptr[eq_cur]; eq_e < ptr[eq_cur + 1]; eq_e++) { \
            int64_t eq_s = idx[eq_e]; \
            if (eq_when > ready[eq_s]) ready[eq_s] = eq_when; \
            if (--in_deg[eq_s] == 0) pending[eq_tail++] = eq_s; \
        } \
    } \
} while (0)

/* Run a share's lanes in order on this thread's own scratch, sized by its
 * largest lane; stop at its first deadlocked lane. */
static void run_share(share_t *sh) {
    const call_t *c = sh->call;
    const int64_t *idx = c->succ_idx;
    int64_t steps = 0, events = 0;
    int64_t max_n = 0, max_a = 0;
    for (int64_t l = sh->first; l < sh->last; l++) {
        int64_t n = lane_nodes(c, l), n_acc = c->lanes[l * LANE_FIELDS + L_ACCEL];
        if (n > max_n) max_n = n;
        if (n_acc > max_a) max_a = n_acc;
        c->out[l] = 0.0;
    }
    if (max_n == 0) return;

    /* The device heaps together never hold more than the lane's nodes: each
     * gets the slice of dev_heap its assigned node count needs. */
    int64_t  *in_deg    = malloc(sizeof(int64_t) * max_n);
    double   *ready     = malloc(sizeof(double) * max_n);
    int64_t  *pending   = malloc(sizeof(int64_t) * max_n);
    int64_t  *newly     = malloc(sizeof(int64_t) * max_n);
    rentry   *host_heap = malloc(sizeof(rentry) * max_n);
    rentry   *dev_heap  = max_a ? malloc(sizeof(rentry) * max_n) : NULL;
    int64_t  *dev_base  = max_a ? malloc(sizeof(int64_t) * max_a) : NULL;
    int64_t  *dev_len   = max_a ? malloc(sizeof(int64_t) * max_a) : NULL;
    uint8_t  *dev_free  = max_a ? malloc(sizeof(uint8_t) * max_a) : NULL;
    runentry *running   = malloc(sizeof(runentry) * max_n);
    if (!in_deg || !ready || !pending || !newly || !host_heap || !running ||
        (max_a && (!dev_heap || !dev_base || !dev_len || !dev_free))) {
        sh->status = -1;
        goto done;
    }

    for (int64_t l = sh->first; l < sh->last; l++) {
        const int64_t *lane = c->lanes + l * LANE_FIELDS;
        const int64_t base = c->node_off[lane[L_STRUCT]];
        const int64_t n = c->node_off[lane[L_STRUCT] + 1] - base;
        if (n == 0) continue;
        const int64_t *ptr = c->succ_ptr + base;
        const double *w = c->wcet + lane[L_WCET];
        const int64_t *asg = c->assigned + lane[L_ASSIGNED];
        const double *key = c->static_key + lane[L_KEY];
        const double *lane_draws = c->draws + lane[L_DRAW];
        const int64_t kv = lane[L_KIND];
        const int64_t n_acc = lane[L_ACCEL];

        memcpy(in_deg, c->in_degree + base, sizeof(int64_t) * n);
        memset(ready, 0, sizeof(double) * n);
        if (n_acc > 0) {
            for (int64_t d = 0; d < n_acc; d++) {
                dev_base[d] = 0; dev_len[d] = 0; dev_free[d] = 1;
            }
            for (int64_t i = 0; i < n; i++)
                if (asg[i] >= 0) dev_base[asg[i]] += 1;
            for (int64_t d = 0, start = 0; d < n_acc; d++) {
                int64_t count = dev_base[d];
                dev_base[d] = start;
                start += count;
            }
        }
        int64_t free_cores = lane[L_CORES];
        int64_t host_len = 0, run_len = 0;
        int64_t arrival = 0, seq = 0;
        int64_t remaining = n;
        double makespan = 0.0, now = 0.0;

        /* Seed: snapshot the sources before any instant cascade mutates the
         * in-degree array, then enqueue each in creation order. */
        int64_t n_src = 0;
        for (int64_t i = 0; i < n; i++)
            if (in_deg[i] == 0) newly[n_src++] = i;
        for (int64_t i = 0; i < n_src; i++) ENQUEUE(newly[i]);

        while (remaining > 0) {
            /* Start phase: work conserving, host cores then each device. */
            while (free_cores > 0 && host_len > 0) {
                rentry e = rpop(host_heap, &host_len);
                free_cores -= 1;
                seq += 1;
                runentry r = { now + w[e.node], seq, e.node, -1 };
                runpush(running, &run_len, r);
            }
            for (int64_t d = 0; d < n_acc; d++) {
                while (dev_free[d] && dev_len[d] > 0) {
                    rentry e = rpop(dev_heap + dev_base[d], &dev_len[d]);
                    dev_free[d] = 0;
                    seq += 1;
                    runentry r = { now + w[e.node], seq, e.node, d };
                    runpush(running, &run_len, r);
                }
            }
            if (remaining == 0) break;
            if (run_len == 0) { sh->status = l + 1; goto done; }

            /* Advance to the earliest completion; retire the whole window. */
            steps += 1;
            now = running[0].finish;
            double threshold = now + 1e-12;
            while (run_len > 0 && running[0].finish <= threshold) {
                runentry r = runpop(running, &run_len);
                if (r.finish > makespan) makespan = r.finish;
                remaining -= 1;
                if (r.dev < 0) free_cores += 1;
                else dev_free[r.dev] = 1;
                int64_t n_new = 0;
                for (int64_t e = ptr[r.node]; e < ptr[r.node + 1]; e++) {
                    int64_t s = idx[e];
                    if (r.finish > ready[s]) ready[s] = r.finish;
                    if (--in_deg[s] == 0) newly[n_new++] = s;
                }
                for (int64_t j = 0; j < n_new; j++) {
                    int64_t s = newly[j];
                    if (w[s] != 0.0) { PUSH_READY(s); }
                    else ENQUEUE(s);
                }
            }
        }
        c->out[l] = makespan;
        events += n;
    }

done:
    sh->steps = steps;
    sh->events = events;
    free(in_deg); free(ready); free(pending); free(newly);
    free(host_heap); free(dev_heap); free(dev_base); free(dev_len);
    free(dev_free); free(running);
}

static void *share_main(void *arg) {
    run_share((share_t *)arg);
    return NULL;
}

/* Run every lane's event loop; lanes are independent.
 *
 * Lane l reads structure lanes[l].struct (table rows node_off[s] to
 * node_off[s + 1], its CSR in structure-local node indices) and the WCET,
 * assignment, key and draw vectors its record points at.  The lanes are
 * cut into n_threads contiguous shares of about equal node count; share 0
 * runs on the calling thread, the rest on threads joined before return
 * (a share whose thread cannot start runs on the calling thread too).
 *
 * Returns 0 on success, (lane index + 1) of the lowest deadlocked lane, or
 * -1 when scratch allocation fails.  stats[0] += retire windows, stats[1]
 * += nodes retired, summed over the shares.
 */
int64_t repro_run_lanes(
    int64_t n_lanes,
    int64_t n_threads,
    const int64_t *node_off,
    const int64_t *succ_ptr,
    const int64_t *succ_idx,
    const int64_t *in_degree,
    const double  *wcet,
    const int64_t *assigned,
    const double  *static_key,
    const double  *draws,
    const int64_t *lanes,
    double        *out,
    int64_t       *stats
) {
    call_t call = { node_off, succ_ptr, succ_idx, in_degree, wcet, assigned,
                    static_key, draws, lanes, out };
    if (n_threads > n_lanes) n_threads = n_lanes;
    if (n_threads < 1) n_threads = 1;

    share_t one;
    share_t *shares = &one;
    pthread_t *threads = NULL;
    uint8_t *started = NULL;
    if (n_threads > 1) {
        shares = malloc(sizeof(share_t) * n_threads);
        threads = malloc(sizeof(pthread_t) * n_threads);
        started = calloc(n_threads, sizeof(uint8_t));
        if (!shares || !threads || !started) {
            free(shares); free(threads); free(started);
            return -1;
        }
    }

    int64_t total = 0;
    for (int64_t l = 0; l < n_lanes; l++) total += lane_nodes(&call, l);
    for (int64_t t = 0, l = 0, done_nodes = 0; t < n_threads; t++) {
        share_t sh = { &call, l, l, 0, 0, 0 };
        int64_t goal = total / n_threads * (t + 1) + total % n_threads * (t + 1) / n_threads;
        while (l < n_lanes && (done_nodes < goal || t == n_threads - 1))
            done_nodes += lane_nodes(&call, l++);
        sh.last = l;
        shares[t] = sh;
    }

    for (int64_t t = 1; t < n_threads; t++)
        started[t] = pthread_create(&threads[t], NULL, share_main, &shares[t]) == 0;
    run_share(&shares[0]);
    for (int64_t t = 1; t < n_threads; t++)
        if (!started[t]) run_share(&shares[t]);
    for (int64_t t = 1; t < n_threads; t++)
        if (started[t]) pthread_join(threads[t], NULL);

    int64_t status = 0;
    for (int64_t t = 0; t < n_threads; t++) {
        stats[0] += shares[t].steps;
        stats[1] += shares[t].events;
        if (shares[t].status < 0) status = -1;
        else if (shares[t].status > 0 && status == 0) status = shares[t].status;
    }
    if (n_threads > 1) { free(shares); free(threads); free(started); }
    return status;
}

/* ---- The structure generator's rejection loop ------------------------ */

/* numpy's PCG64 (128-bit LCG, XSL-RR output) with the 32-bit half that its
 * next_uint32 buffers: the fields of the bit generator's state dict. */
typedef struct { uint64_t hi, lo, inc_hi, inc_lo, has_half, half; } pcg_t;

static void mul64(uint64_t a, uint64_t b, uint64_t *hi, uint64_t *lo) {
    uint64_t a0 = a & 0xffffffffu, a1 = a >> 32, b0 = b & 0xffffffffu, b1 = b >> 32;
    uint64_t p00 = a0 * b0, p01 = a0 * b1, p10 = a1 * b0;
    uint64_t mid = (p00 >> 32) + (p01 & 0xffffffffu) + (p10 & 0xffffffffu);
    *lo = (mid << 32) | (p00 & 0xffffffffu);
    *hi = a1 * b1 + (p01 >> 32) + (p10 >> 32) + (mid >> 32);
}

/* state = state * multiplier + inc (mod 2^128), then the output of the new
 * state: rotate (high ^ low) right by its top six bits. */
static uint64_t pcg_next64(pcg_t *g) {
    const uint64_t m_hi = 0x2360ED051FC65DA4ull, m_lo = 0x4385DF649FCCF645ull;
    uint64_t hi, lo;
    mul64(g->lo, m_lo, &hi, &lo);
    hi += g->lo * m_hi + g->hi * m_lo;
    lo += g->inc_lo;
    hi += g->inc_hi + (lo < g->inc_lo);
    g->hi = hi;
    g->lo = lo;
    uint64_t x = hi ^ lo;
    unsigned r = (unsigned)(hi >> 58);
    return (x >> r) | (x << ((64 - r) & 63));
}

/* Generator.random(). */
static double pcg_random(pcg_t *g) {
    return (double)(pcg_next64(g) >> 11) * (1.0 / 9007199254740992.0);
}

/* next_uint32: the buffered high half first, else the low half of a new
 * draw whose high half is buffered. */
static uint32_t pcg_next32(pcg_t *g) {
    if (g->has_half) { g->has_half = 0; return (uint32_t)g->half; }
    uint64_t x = pcg_next64(g);
    g->has_half = 1;
    g->half = x >> 32;
    return (uint32_t)x;
}

/* Generator.integers(0, rng + 1) for rng < 2^32 - 1: Lemire's rejection
 * over next_uint32; rng == 0 draws nothing. */
static uint32_t pcg_bounded(pcg_t *g, uint32_t rng) {
    if (rng == 0) return 0;
    uint32_t excl = rng + 1;
    uint64_t m = (uint64_t)pcg_next32(g) * excl;
    uint32_t leftover = (uint32_t)m;
    if (leftover < excl) {
        uint32_t threshold = (UINT32_MAX - rng) % excl;
        while (leftover < threshold) {
            m = (uint64_t)pcg_next32(g) * excl;
            leftover = (uint32_t)m;
        }
    }
    return (uint32_t)(m >> 32);
}

/* An open parallel sub-DAG: its fork and join, the branches still to
 * expand and its depth. */
typedef struct { int64_t fork, join, left, depth; } frame_t;

/* Run the structure generator's rejection loop from the PCG64 state in
 * rng[6] (state high and low, inc high and low, has_uint32, uinteger):
 * up to max_attempts recursive expansions, each the numpy path's draws in
 * its order (a node at depth < max_depth expands when forced or when
 * random() < p_par, into integers(2, n_par + 1) branches), until one has
 * n_min..n_max nodes.  Every rejected draw is consumed.
 *
 * The accepted draw's edges go to edges[] as index pairs in creation order,
 * its first cap pairs.  Returns its node count and stores its edge count in
 * *n_edges, or returns 0 when every attempt was rejected; either way the
 * state after the last draw is written back to rng.  Returns -1, with rng
 * untouched, when the expansion stack cannot be allocated.
 */
int64_t repro_draw_structure(
    uint64_t *rng,
    double p_par,
    int64_t n_par,
    int64_t max_depth,
    int64_t n_min,
    int64_t n_max,
    int64_t force_root,
    int64_t max_attempts,
    int64_t *edges,
    int64_t cap,
    int64_t *n_edges
) {
    pcg_t g = { rng[0], rng[1], rng[2], rng[3], rng[4], rng[5] };
    const uint32_t branches = (uint32_t)(n_par - 2);
    int64_t stack_cap = 64, accepted = 0;
    frame_t *stack = malloc(sizeof(frame_t) * stack_cap);
    if (!stack) return -1;

#define EDGE(a, b) do { \
    if (count < cap) { edges[2 * count] = (a); edges[2 * count + 1] = (b); } \
    count += 1; \
} while (0)

    for (int64_t attempt = 0; attempt < max_attempts && !accepted; attempt++) {
        int64_t nodes = 0, count = 0, sp = 0, depth = 0;
        int force = force_root != 0;
        for (;;) {
            int parallel = force || (depth < max_depth && pcg_random(&g) < p_par);
            if (depth >= max_depth) parallel = 0;
            if (parallel) {
                if (sp == stack_cap) {
                    frame_t *grown = realloc(stack, sizeof(frame_t) * stack_cap * 2);
                    if (!grown) { free(stack); return -1; }
                    stack = grown;
                    stack_cap *= 2;
                }
                frame_t *f = &stack[sp++];
                f->fork = nodes;
                f->join = nodes + 1;
                nodes += 2;
                f->left = 2 + (int64_t)pcg_bounded(&g, branches);
                f->depth = depth;
                depth += 1;
                force = 0;
                continue;  /* expand its first branch */
            }
            /* A terminal node: hand (entry, exit) back to the open forks. */
            int64_t entry = nodes, exit_ = nodes;
            nodes += 1;
            while (sp > 0) {
                frame_t *f = &stack[sp - 1];
                EDGE(f->fork, entry);
                EDGE(exit_, f->join);
                if (--f->left > 0) break;
                entry = f->fork;
                exit_ = f->join;
                sp -= 1;
            }
            if (sp == 0) break;
            depth = stack[sp - 1].depth + 1;  /* expand the next branch */
        }
        if (n_min <= nodes && nodes <= n_max) {
            accepted = nodes;
            *n_edges = count;
        }
    }
#undef EDGE
    free(stack);
    rng[0] = g.hi; rng[1] = g.lo; rng[2] = g.inc_hi; rng[3] = g.inc_lo;
    rng[4] = g.has_half; rng[5] = g.half;
    return accepted;
}
"""

_lock = threading.Lock()
_lib: Optional[ctypes.CDLL] = None
_reason: Optional[str] = None
_probed = False


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


#: Compiler flags of the kernel build; the sources follow, then ``-o``.
_FLAGS = ("-O2", "-std=c99", "-fPIC", "-shared", "-pthread")


def _build_library() -> str:
    """Compile the kernel (once per source and command) and return its path.

    The library name carries a hash of the C source and the compile command
    (compiler and flags), so neither an edited source nor a changed flag
    can pick up a stale cache; concurrent builders race benignly through an
    atomic rename.
    """
    compiler = _find_compiler()
    if compiler is None:
        raise RuntimeError(
            "no C compiler found (looked for cc/gcc/clang; set REPRO_CC)"
        )
    key = "\0".join((_C_SOURCE, compiler, *_FLAGS))
    stem = f"repro_step_kernel_{hashlib.sha256(key.encode()).hexdigest()[:16]}"
    cache = _cache_dir()
    suffix = "dll" if sys.platform == "win32" else "so"
    target = os.path.join(cache, f"{stem}.{suffix}")
    if os.path.exists(target):
        return target
    os.makedirs(cache, exist_ok=True)
    src = os.path.join(cache, f"{stem}.c")
    with open(src, "w", encoding="utf-8") as handle:
        handle.write(_C_SOURCE)
    tmp = f"{target}.tmp.{os.getpid()}"
    cmd = [compiler, *_FLAGS, src, "-o", tmp]
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
            fn.argtypes = [ctypes.c_int64] * 2 + [ctypes.c_void_p] * 11
            fn = lib.repro_draw_structure
            fn.restype = ctypes.c_int64
            fn.argtypes = [
                ctypes.c_void_p, ctypes.c_double, *[ctypes.c_int64] * 6,
                ctypes.c_void_p, ctypes.c_int64, ctypes.c_void_p,
            ]
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


def _thread_count(n_lanes: int, nodes: int) -> int:
    """Threads for a call of ``n_lanes`` lanes and ``nodes`` nodes in all:
    one per :data:`GRAIN_NODES`, at most one per lane and per CPU the
    process may run on."""
    threads = min(n_lanes, nodes // GRAIN_NODES)
    return 1 if threads < 2 else min(threads, available_cpus())


def run_lanes(
    node_off: np.ndarray,
    succ_ptr: np.ndarray,
    succ_idx: np.ndarray,
    in_degree: np.ndarray,
    wcet: np.ndarray,
    assigned: np.ndarray,
    static_key: np.ndarray,
    draws: np.ndarray,
    lanes: np.ndarray,
    *,
    _threads: Optional[int] = None,
) -> np.ndarray:
    """Run every lane through the compiled loop; returns per-lane makespans.

    The first eight arguments are the call's shared tables: the structure
    tables (``node_off``, ``succ_ptr``, ``succ_idx`` and ``in_degree``, as
    :func:`repro.core.compiled.stack_compiled` lays them out) and the value
    tables each lane takes a vector from.  ``lanes`` holds one record of
    :data:`LANE_FIELDS` integers per lane.  ``_threads`` overrides the
    thread count (tests only); results never depend on it.

    Raises :class:`RuntimeError` when the backend is unavailable,
    :class:`~repro.core.exceptions.SimulationError` on a deadlocked lane
    (same message as the scalar engines) and :class:`MemoryError` when the
    kernel cannot allocate its scratch.  The GIL is released for the
    duration of the C call.
    """
    lib = load_kernel()
    if lib is None:
        raise RuntimeError(f"compiled kernel unavailable: {_reason}")
    lanes = _i64(lanes).reshape(-1, len(LANE_FIELDS))
    node_off = _i64(node_off)
    n_lanes = len(lanes)
    threads = _threads
    if threads is None:
        # A one-lane call (a service miss) skips the node count.
        structures = lanes[:, LANE_FIELDS.index("struct")]
        nodes = int(np.diff(node_off)[structures].sum()) if n_lanes > 1 else 0
        threads = _thread_count(n_lanes, nodes)
    out = np.empty(n_lanes, dtype=np.float64)
    stats = np.zeros(2, dtype=np.int64)
    arrays = (
        node_off,
        _i64(succ_ptr),
        _i64(succ_idx),
        _i64(in_degree),
        _f64(wcet),
        _i64(assigned),
        _f64(static_key),
        _f64(draws),
        lanes,
        out,
        stats,
    )
    status = lib.repro_run_lanes(
        n_lanes, threads, *(a.ctypes.data for a in arrays)
    )
    if status > 0:
        raise SimulationError(
            "simulation deadlocked: nodes remain but nothing is running "
            "(is the graph connected and acyclic?)"
        )
    if status < 0:
        raise MemoryError("compiled kernel scratch allocation failed")
    # Each retire window advances one lane, whichever thread runs it, so
    # each step has exactly one active lane (occupancy 1/n_lanes).
    record_kernel_batch(
        "compiled",
        lanes=n_lanes,
        steps=int(stats[0]),
        events=int(stats[1]),
        lane_steps=int(stats[0]),
    )
    return out


#: Edge pairs a structure draw first gets room for; an accepted draw with
#: more edges is replayed once more from the same state into a larger buffer.
_EDGE_ROOM = 1024

#: The C entry takes 64-bit counts.  A bound at or past 2**62 can never be
#: reached by a draw, so clamping it there draws the same numbers.
_COUNT_LIMIT = 1 << 62


def draw_structure(bit_generator: object, config) -> Optional[tuple[int, list]]:
    """Run :class:`~repro.generator.random_dag.DagStructureGenerator`'s
    rejection loop in C from ``bit_generator``'s PCG64 state.

    ``config`` is the generator's
    :class:`~repro.generator.config.GeneratorConfig`.  Returns the accepted
    draw's node count and its edges as ``(src, dst)`` index pairs in
    creation order, or ``(0, [])`` when all ``max_attempts`` draws were
    rejected.  Returns ``None`` -- the caller draws with numpy then -- for a
    bit generator other than :class:`numpy.random.PCG64`, a configuration
    whose branch draw is not numpy's 32-bit one, or a host without the
    kernel.

    The draws are numpy's: ``random()`` is ``(next64 >> 11) * 2**-53`` and
    ``integers(2, n_par + 1)`` is Lemire's rejection over PCG64's buffered
    ``next_uint32`` half (no draw when ``n_par == 2``), and rejected draws
    are consumed.  The state after the last draw -- state, increment and the
    buffered half -- is written back under the bit generator's lock, held
    from reading the state on, so every later draw sees the numbers the
    numpy path leaves it.
    """
    if (
        type(bit_generator) is not np.random.PCG64
        or config.n_par - 2 >= 0xFFFFFFFF
        or not isinstance(config.p_par, (int, float))
    ):
        return None
    lib = load_kernel()
    if lib is None:
        return None
    counts = [
        min(int(value), _COUNT_LIMIT)
        for value in (config.n_par, config.max_depth, config.n_min, config.n_max,
                      config.force_root_expansion, config.max_attempts)
    ]
    room = min(2 * counts[3], _EDGE_ROOM)
    word = (1 << 64) - 1
    with bit_generator.lock:
        state = bit_generator.state
        pcg = state["state"]
        start = (pcg["state"] >> 64, pcg["state"] & word, pcg["inc"] >> 64,
                 pcg["inc"] & word, state["has_uint32"], state["uinteger"])
        while True:
            words = (ctypes.c_uint64 * 6)(*start)
            edges = np.empty(2 * room, dtype=np.int64)
            count = ctypes.c_int64(0)
            nodes = lib.repro_draw_structure(
                words, float(config.p_par), *counts,
                edges.ctypes.data, room, ctypes.byref(count),
            )
            if nodes < 0:
                return None
            if count.value <= room:
                break
            room = count.value
        pcg["state"] = words[0] << 64 | words[1]
        pcg["inc"] = words[2] << 64 | words[3]
        state["has_uint32"], state["uinteger"] = words[4], words[5]
        bit_generator.state = state
    if not nodes:
        return 0, []
    flat = edges[: 2 * count.value].tolist()
    return nodes, list(zip(flat[0::2], flat[1::2]))
