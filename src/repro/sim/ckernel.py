"""Compiled stepping kernel for the vectorized simulator core.

:mod:`repro.sim.vector` packs a batch of tiles' simulation state into
batch-major numpy struct-of-arrays; this module owns the C stepping
kernel that advances that packed state.  Its one entry point,
``repro_step_batch(BatchState*, n)``, takes one struct of array
pointers (built once per call), points a stack ``TileState`` at each
region's slices and steps the regions one after another to completion,
writing ``status[r]`` — a whole batch costs one ctypes call.  There are
no lock-step lanes: short regions are stepped cycle by cycle (the event
skip almost never fires on them) and the loop is data-dependent scalar
code bound by FP divides, so the win is the per-call cost; no threads
either, process-level sharding (``repro.jobs``, soak shards, the serve
pool) already owns the CPUs.

The kernel is an *exact transliteration* of the object-model inner loop
(``components.py`` + ``Region.step_object``, the reference driver
loop): every floating-point operation appears in the same order as the
Python source, so IEEE-754 double results — and therefore cycle counts —
are bit-identical to the reference simulator.  Integer index arithmetic
is free to differ (ring and round-robin wraps compare instead of
dividing).  That contract is load-bearing (the differential-fuzz oracle
keys on exact cycle counts) and is enforced by
``tests/test_sim_vector.py``.

Why C and not numpy ufuncs: the inner loop is a chain of data-dependent
scalar ``min``/compare/accumulate steps across *heterogeneous* coupled
components (engines arbitrating shared bandwidth pools, FIFOs feeding a
retiring pipeline).  There is no per-cycle data parallelism to
vectorize across — the win is removing interpreter dispatch from the
stepping loop, plus event-driven skip-ahead over idle cycles.
The packed numpy arrays are the data plane; the C kernel is the only
consumer of their raw buffers.

Toolchain policy: the kernel is built once per process from the
in-repo source string with the *system* C compiler (``cc``, source on
stdin, output renamed into place), cached on disk keyed by a source
digest; a cached object that does not load or lacks the entry point is
discarded and rebuilt once.  No new Python dependency is introduced;
when no compiler is available :func:`load_kernel` returns ``None`` and
the simulator transparently falls back to the object core.

Float-determinism flags: ``-ffp-contract=off`` (no fused multiply-add —
CPython never contracts) and no ``-ffast-math`` (IEEE semantics).  On
x86-64 / aarch64 doubles are evaluated in 64-bit registers, matching
CPython's ``float`` exactly.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import subprocess
import tempfile
import threading
from typing import Dict, Optional

#: Incremented whenever KERNEL_SOURCE changes semantics; part of the
#: on-disk cache key so stale shared objects are never reused.
KERNEL_VERSION = 2

#: Per-region statuses ``repro_step_batch`` writes (must match the C enum).
STATUS_DONE = 0
STATUS_HARD_CAP = 1
STATUS_DEADLOCK = 2
STATUS_STUCK = 3

KERNEL_SOURCE = r"""
/* Exact C transliteration of repro/sim/components.py stepping +
 * the per-region driver loop (Region.step_object).  See
 * repro/sim/ckernel.py for the bit-identity contract.  Compiled with
 * -ffp-contract=off. */
#include <stdint.h>

/* One region: pointers into its slices of the BatchState arrays. */
typedef struct {
    /* streams (flattened engine-by-engine, add_stream order) */
    int64_t n_streams;
    double *s_total;     /* total_elements */
    double *s_cap;       /* elements_per_cycle_cap */
    double *s_eb;        /* element_bytes */
    double *s_l2f;       /* l2_fraction */
    double *s_dramf;     /* dram_fraction */
    double *s_moved;     /* moved (in/out) */
    double *s_done_tol;  /* 1e-6 * max(1.0, total_elements) */
    int64_t *s_disp;     /* dispatched_at */
    int64_t *s_is_read;
    int64_t *s_fifo;     /* port fifo index */
    int64_t *s_fwd;      /* forward_to fifo index, -1 if none */
    /* port FIFOs */
    int64_t n_fifos;
    double *f_cap;
    double *f_level;     /* in/out */
    /* engines (insertion order == driver step order) */
    int64_t n_engines;
    int64_t *e_start;    /* [start, end) into the stream arrays */
    int64_t *e_end;
    double *e_bw;        /* bandwidth_bytes */
    int64_t *e_onehot;
    int64_t *e_has_pools;
    int64_t *e_rr;       /* in/out */
    int64_t *e_last;     /* _last_issued as stream index, -1 = None */
    int64_t *e_issued;   /* in/out */
    int64_t *e_busy;     /* in/out */
    /* bandwidth pools: index 0 = l2, 1 = dram */
    int64_t n_pools;
    double *p_rate;      /* bytes_per_cycle */
    double *p_avail;     /* in/out */
    double *p_consumed;  /* in/out */
    /* fabric */
    int64_t n_in;
    int64_t *in_fifo;
    double *in_rate;
    int64_t n_out;
    int64_t *out_fifo;
    double *out_rate;
    double fab_total;       /* total_firings */
    double fab_done_tol;    /* 1e-6 * max(1.0, total_firings) */
    int64_t fab_depth;
    double *fab_firings;    /* [1] in/out */
    int64_t *fab_stalls;    /* [1] in/out */
    /* pipeline ring buffer (<= depth+1 live entries) */
    int64_t pipe_cap;
    int64_t *pipe_due;
    double *pipe_count;
    int64_t *pipe_head;     /* [1] in/out */
    int64_t *pipe_len;      /* [1] in/out */
    /* driver parameters */
    int64_t exact;
    int64_t hard_cap;
    int64_t measure_window;
    int64_t *now;           /* [1] out */
    double *window_firings; /* [1] out */
    int64_t *window_cycle;  /* [1] out */
} TileState;

/* A whole batch, one array per field.  Region r owns the slice
 * [off[r], off[r + 1]) of every array of a component class (s_off for
 * the s_* stream arrays and cand, f_off, e_off, p_off, in_off, out_off,
 * pipe_off likewise) and element r of the per-region arrays.  All
 * indices stored in the arrays (s_fifo, s_fwd, e_start, e_end, e_last,
 * in_fifo, out_fifo) are relative to the region's own slices.  Field
 * order must match ckernel.BATCH_ARRAYS. */
typedef struct {
    int64_t *s_off, *f_off, *e_off, *p_off, *in_off, *out_off, *pipe_off;
    double *s_total, *s_cap, *s_eb, *s_l2f, *s_dramf, *s_moved, *s_done_tol;
    int64_t *s_disp, *s_is_read, *s_fifo, *s_fwd;
    double *f_cap, *f_level;
    int64_t *e_start, *e_end;
    double *e_bw;
    int64_t *e_onehot, *e_has_pools, *e_rr, *e_last, *e_issued, *e_busy;
    double *p_rate, *p_avail, *p_consumed;
    int64_t *in_fifo;
    double *in_rate;
    int64_t *out_fifo;
    double *out_rate;
    int64_t *pipe_due;
    double *pipe_count;
    /* one element per region */
    double *fab_total, *fab_done_tol;
    int64_t *fab_depth;
    double *fab_firings;
    int64_t *fab_stalls, *pipe_head, *pipe_len;
    int64_t *now;
    double *window_firings;
    int64_t *window_cycle, *status;
    /* candidate-index scratch, sliced like the stream arrays */
    int64_t *cand;
    /* driver parameters, constant across the batch */
    int64_t exact;
    int64_t hard_cap;
    int64_t measure_window;
} BatchState;

enum {
    STATUS_DONE = 0,
    STATUS_HARD_CAP = 1,
    STATUS_DEADLOCK = 2,
    STATUS_STUCK = 3
};

/* PortFifo.push: taken = min(amount, free); level += taken */
static void fifo_push(TileState *st, int64_t f, double amount) {
    double fr = st->f_cap[f] - st->f_level[f];
    if (fr < 0.0) fr = 0.0;
    double taken = (fr < amount) ? fr : amount;
    st->f_level[f] += taken;
}

/* PortFifo.pop: taken = min(amount, level); level -= taken */
static void fifo_pop(TileState *st, int64_t f, double amount) {
    double lv = st->f_level[f];
    double taken = (lv < amount) ? lv : amount;
    st->f_level[f] = lv - taken;
}

/* StreamState.done: max(0, total - moved) <= 1e-6 * max(1, total) */
static int stream_done(const TileState *st, int64_t s) {
    double remaining = st->s_total[s] - st->s_moved[s];
    if (remaining < 0.0) remaining = 0.0;
    return remaining <= st->s_done_tol[s];
}

/* EngineSim._serve */
static double serve(TileState *st, int64_t ei, int64_t s,
                    double budget_elems) {
    double remaining = st->s_total[s] - st->s_moved[s];
    if (remaining < 0.0) remaining = 0.0;
    double want = remaining;
    if (st->s_cap[s] < want) want = st->s_cap[s];
    if (budget_elems < want) want = budget_elems;
    int64_t f = st->s_fifo[s];
    if (st->s_is_read[s]) {
        double fr = st->f_cap[f] - st->f_level[f];
        if (fr < 0.0) fr = 0.0;
        if (fr < want) want = fr;
    } else {
        if (st->f_level[f] < want) want = st->f_level[f];
    }
    if (want > 0.0 && st->e_has_pools[ei]) {
        /* zip(pools, (l2_fraction, dram_fraction)) */
        double frac = st->s_l2f[s];
        if (frac > 0.0) {
            double need = want * frac * st->s_eb[s];
            double got = (st->p_avail[0] < need) ? st->p_avail[0] : need;
            st->p_avail[0] -= got;
            st->p_consumed[0] += got;
            if (got < need - 1e-9) want = got / (frac * st->s_eb[s]);
        }
        frac = st->s_dramf[s];
        if (frac > 0.0) {
            double need = want * frac * st->s_eb[s];
            double got = (st->p_avail[1] < need) ? st->p_avail[1] : need;
            st->p_avail[1] -= got;
            st->p_consumed[1] += got;
            if (got < need - 1e-9) want = got / (frac * st->s_eb[s]);
        }
    }
    if (want <= 1e-12) return 0.0;
    if (st->s_is_read[s]) {
        fifo_push(st, f, want);
    } else {
        fifo_pop(st, f, want);
        if (st->s_fwd[s] >= 0) fifo_push(st, st->s_fwd[s], want);
    }
    st->s_moved[s] += want;
    return want;
}

/* EngineSim.step; returns 1 when any persistent engine state changed
 * (moved / rr / last_issued) — pool consumption is checked by the
 * driver.  The change flag feeds the event-skip frozen-cycle test. */
static int engine_step(TileState *st, int64_t ei, int64_t now,
                       int64_t *cand) {
    int64_t start = st->e_start[ei], end = st->e_end[ei];
    int64_t n = 0, n_active = 0, first_active = -1;
    for (int64_t s = start; s < end; s++) {
        int done = stream_done(st, s);
        if (!done) {
            if (first_active < 0) first_active = s;
            n_active++;
        }
        if (done || now < st->s_disp[s]) continue;
        int64_t f = st->s_fifo[s];
        if (st->s_is_read[s]) {
            double fr = st->f_cap[f] - st->f_level[f];
            if (fr < 0.0) fr = 0.0;
            if (!(fr > 1e-9)) continue;
        } else {
            if (!(st->f_level[f] > 1e-9)) continue;
        }
        cand[n++] = s;
    }
    int64_t last_old = st->e_last[ei];
    if (n == 0) {
        st->e_last[ei] = -1;
        return last_old != -1;
    }
    if (n_active == 1 && !st->e_onehot[ei] && last_old == first_active) {
        st->e_last[ei] = -1;
        return 1; /* last_old was first_active (>= 0), now cleared */
    }
    double budget = st->e_bw[ei];
    double moved = 0.0;
    int64_t rr = st->e_rr[ei];
    /* candidates[(rr + off) % n] by wrap-compare: rr is below the
     * previous cycle's candidate count, so it needs reducing only when
     * that count shrank. */
    int64_t at = rr;
    if (at >= n) at %= n;
    int64_t rr_new = (at + 1 == n) ? 0 : at + 1;  /* (rr + 1) % n */
    for (int64_t off = 0; off < n; off++) {
        int64_t s = cand[at];
        if (++at == n) at = 0;
        double got = serve(st, ei, s, budget / st->s_eb[s]);
        moved += got;
        budget -= got * st->s_eb[s];
        if (budget <= 1e-12) break;
    }
    st->e_rr[ei] = rr_new;
    int64_t last_new;
    if (moved > 0.0) {
        last_new = (n_active == 1) ? first_active : -1;
        st->e_issued[ei] += 1;
        st->e_busy[ei] += 1;
    } else {
        last_new = -1;
    }
    st->e_last[ei] = last_new;
    return (moved > 0.0) || rr_new != rr || last_new != last_old;
}

/* FabricSim.step; returns 1 when pipeline/firings/fifo state changed
 * (stall_cycles increments are replayed analytically by the skip). */
static int fabric_step(TileState *st, int64_t now) {
    int changed = 0;
    int64_t head = *st->pipe_head, len = *st->pipe_len;
    while (len > 0 && st->pipe_due[head] <= now) {
        double count = st->pipe_count[head];
        double can_push = count;
        for (int64_t i = 0; i < st->n_out; i++) {
            double rate = st->out_rate[i];
            if (rate > 0.0) {
                int64_t f = st->out_fifo[i];
                double fr = st->f_cap[f] - st->f_level[f];
                if (fr < 0.0) fr = 0.0;
                double q = fr / rate;
                if (q < can_push) can_push = q;
            }
        }
        if (can_push <= 1e-12) break;
        for (int64_t i = 0; i < st->n_out; i++)
            fifo_push(st, st->out_fifo[i], can_push * st->out_rate[i]);
        changed = 1;
        if (can_push >= count - 1e-12) {
            if (++head == st->pipe_cap) head = 0;
            len -= 1;
        } else {
            st->pipe_count[head] = count - can_push;
            break;
        }
    }
    *st->pipe_head = head;
    *st->pipe_len = len;
    int blocked = (len > 0 && st->pipe_due[head] <= now);
    double remaining = st->fab_total - *st->fab_firings;
    if (remaining <= st->fab_done_tol) remaining = 0.0;
    if (remaining <= 0.0) return changed;
    if (blocked) {
        *st->fab_stalls += 1;
        return changed;
    }
    double can = (remaining < 1.0) ? remaining : 1.0;
    for (int64_t i = 0; i < st->n_in; i++) {
        double rate = st->in_rate[i];
        if (rate <= 0.0) continue;
        double q = st->f_level[st->in_fifo[i]] / rate;
        if (q < can) can = q;
    }
    if (can <= 1e-12) {
        *st->fab_stalls += 1;
        return changed;
    }
    for (int64_t i = 0; i < st->n_in; i++)
        fifo_pop(st, st->in_fifo[i], can * st->in_rate[i]);
    int64_t tail = head + len;  /* head < pipe_cap, len <= pipe_cap */
    if (tail >= st->pipe_cap) tail -= st->pipe_cap;
    st->pipe_due[tail] = now + st->fab_depth;
    st->pipe_count[tail] = can;
    *st->pipe_len = len + 1;
    *st->fab_firings += can;
    return 1;
}

/* FabricSim.done */
static int fabric_done(const TileState *st) {
    double remaining = st->fab_total - *st->fab_firings;
    if (remaining <= st->fab_done_tol) remaining = 0.0;
    return remaining <= 0.0 && *st->pipe_len == 0;
}

/* The per-region driver loop.  `cand` is caller-provided scratch of
 * n_streams int64s.  Event-skip invariant: a cycle whose
 * step changed no persistent state (stream/fifo/pool/pipeline/rr/
 * last_issued/firings) except possibly stall_cycles is "frozen"; all
 * following cycles are identical until the next event — the earliest
 * of: a stream's dispatched_at, the pipeline head's due cycle, the
 * hard cap, and the no-progress deadline.  Skipped cycles replay
 * stall_cycles increments analytically. */
static int64_t step_region(TileState *st, int64_t *cand) {
    int64_t now = 0;
    int64_t last_progress = 0;
    double last_firings = -1.0;
    int64_t status;
    *st->window_firings = 0.0;
    *st->window_cycle = 0;
    for (;;) {
        if (fabric_done(st)) {
            /* Residual read elements terminate with the region. */
            for (int64_t s = 0; s < st->n_streams; s++) {
                if (st->s_is_read[s] && !stream_done(st, s))
                    st->s_moved[s] = st->s_total[s];
            }
            int all_done = 1;
            for (int64_t s = 0; s < st->n_streams; s++) {
                if (!stream_done(st, s)) { all_done = 0; break; }
            }
            if (all_done) { status = STATUS_DONE; break; }
        }
        if (!st->exact && now >= st->hard_cap) {
            status = STATUS_HARD_CAP;
            break;
        }
        for (int64_t p = 0; p < st->n_pools; p++)
            st->p_avail[p] = st->p_rate[p];
        double consumed0 = (st->n_pools > 0) ? st->p_consumed[0] : 0.0;
        double consumed1 = (st->n_pools > 1) ? st->p_consumed[1] : 0.0;
        int64_t stalls_before = *st->fab_stalls;
        int changed = 0;
        for (int64_t e = 0; e < st->n_engines; e++)
            changed |= engine_step(st, e, now, cand);
        changed |= fabric_step(st, now);
        if (st->n_pools > 0 && st->p_consumed[0] != consumed0) changed = 1;
        if (st->n_pools > 1 && st->p_consumed[1] != consumed1) changed = 1;
        if (*st->fab_firings != last_firings) {
            last_firings = *st->fab_firings;
            last_progress = now;
        }
        int fdone = fabric_done(st);
        if (now - last_progress > 20000 && !fdone) {
            status = STATUS_DEADLOCK;
            break;
        }
        now += 1;
        if (now == st->measure_window) {
            *st->window_firings = *st->fab_firings;
            *st->window_cycle = now;
        }
        if (!changed) {
            int64_t stall_delta = *st->fab_stalls - stalls_before;
            int64_t next = INT64_MAX;
            for (int64_t s = 0; s < st->n_streams; s++) {
                if (!stream_done(st, s) && st->s_disp[s] >= now
                        && st->s_disp[s] < next)
                    next = st->s_disp[s];
            }
            if (*st->pipe_len > 0) {
                int64_t due = st->pipe_due[*st->pipe_head];
                if (due >= now && due < next) next = due;
            }
            if (!st->exact && st->hard_cap < next) next = st->hard_cap;
            if (!fdone) {
                /* The no-progress check fires after stepping cycle
                 * last_progress + 20001; frozen cycles cannot move
                 * firings, so jump straight to the deadline. */
                int64_t deadline = last_progress + 20001;
                if (deadline < next) {
                    now = deadline;
                    status = STATUS_DEADLOCK;
                    break;
                }
            } else if (next == INT64_MAX) {
                /* Frozen with a drained fabric and no future event:
                 * the object loop would spin forever.  Surface it. */
                status = STATUS_STUCK;
                break;
            }
            if (next > now) {
                int64_t skipped = next - now;
                *st->fab_stalls += skipped * stall_delta;
                if (st->measure_window > now
                        && st->measure_window <= next) {
                    *st->window_firings = *st->fab_firings;
                    *st->window_cycle = st->measure_window;
                }
                now = next;
            }
        }
    }
    *st->now = now;
    return status;
}

/* Step regions [0, n) of the batch one after another, each to
 * completion; status[r] says how region r ended. */
#define SLICE(field, first) st.field = b->field + (first)
void repro_step_batch(const BatchState *b, int64_t n) {
    for (int64_t r = 0; r < n; r++) {
        TileState st;
        int64_t s0 = b->s_off[r], f0 = b->f_off[r], e0 = b->e_off[r];
        int64_t p0 = b->p_off[r], in0 = b->in_off[r], out0 = b->out_off[r];
        int64_t pipe0 = b->pipe_off[r];
        st.n_streams = b->s_off[r + 1] - s0;
        SLICE(s_total, s0); SLICE(s_cap, s0); SLICE(s_eb, s0);
        SLICE(s_l2f, s0); SLICE(s_dramf, s0); SLICE(s_moved, s0);
        SLICE(s_done_tol, s0); SLICE(s_disp, s0); SLICE(s_is_read, s0);
        SLICE(s_fifo, s0); SLICE(s_fwd, s0);
        st.n_fifos = b->f_off[r + 1] - f0;
        SLICE(f_cap, f0); SLICE(f_level, f0);
        st.n_engines = b->e_off[r + 1] - e0;
        SLICE(e_start, e0); SLICE(e_end, e0); SLICE(e_bw, e0);
        SLICE(e_onehot, e0); SLICE(e_has_pools, e0); SLICE(e_rr, e0);
        SLICE(e_last, e0); SLICE(e_issued, e0); SLICE(e_busy, e0);
        st.n_pools = b->p_off[r + 1] - p0;
        SLICE(p_rate, p0); SLICE(p_avail, p0); SLICE(p_consumed, p0);
        st.n_in = b->in_off[r + 1] - in0;
        SLICE(in_fifo, in0); SLICE(in_rate, in0);
        st.n_out = b->out_off[r + 1] - out0;
        SLICE(out_fifo, out0); SLICE(out_rate, out0);
        st.pipe_cap = b->pipe_off[r + 1] - pipe0;
        SLICE(pipe_due, pipe0); SLICE(pipe_count, pipe0);
        /* one element per region: [1] views and plain values */
        SLICE(fab_firings, r); SLICE(fab_stalls, r); SLICE(pipe_head, r);
        SLICE(pipe_len, r); SLICE(now, r); SLICE(window_firings, r);
        SLICE(window_cycle, r);
        st.fab_total = b->fab_total[r];
        st.fab_done_tol = b->fab_done_tol[r];
        st.fab_depth = b->fab_depth[r];
        st.exact = b->exact;
        st.hard_cap = b->hard_cap;
        st.measure_window = b->measure_window;
        b->status[r] = step_region(&st, b->cand + s0);
    }
}
"""

_F8, _I8 = "f8", "i8"

#: ``BatchState``'s arrays in C field order -> numpy dtype.  This is the
#: batch layout contract between :func:`repro.sim.vector.pack_batch`
#: (which fills one array per name) and the C struct (whose pointer
#: fields are declared in exactly this order).
BATCH_ARRAYS: Dict[str, str] = {
    # region r owns [off[r], off[r + 1]) of its component class's arrays
    "s_off": _I8, "f_off": _I8, "e_off": _I8, "p_off": _I8,
    "in_off": _I8, "out_off": _I8, "pipe_off": _I8,
    # streams
    "s_total": _F8, "s_cap": _F8, "s_eb": _F8, "s_l2f": _F8,
    "s_dramf": _F8, "s_moved": _F8, "s_done_tol": _F8,
    "s_disp": _I8, "s_is_read": _I8, "s_fifo": _I8, "s_fwd": _I8,
    # port FIFOs
    "f_cap": _F8, "f_level": _F8,
    # engines
    "e_start": _I8, "e_end": _I8, "e_bw": _F8, "e_onehot": _I8,
    "e_has_pools": _I8, "e_rr": _I8, "e_last": _I8, "e_issued": _I8,
    "e_busy": _I8,
    # bandwidth pools
    "p_rate": _F8, "p_avail": _F8, "p_consumed": _F8,
    # fabric ports and the pipeline ring
    "in_fifo": _I8, "in_rate": _F8, "out_fifo": _I8, "out_rate": _F8,
    "pipe_due": _I8, "pipe_count": _F8,
    # one element per region
    "fab_total": _F8, "fab_done_tol": _F8, "fab_depth": _I8,
    "fab_firings": _F8, "fab_stalls": _I8, "pipe_head": _I8,
    "pipe_len": _I8, "now": _I8, "window_firings": _F8,
    "window_cycle": _I8, "status": _I8,
    # candidate-index scratch, sliced like the stream arrays
    "cand": _I8,
}


class BatchStateStruct(ctypes.Structure):
    """ctypes mirror of the C ``BatchState``: one address per array of
    :data:`BATCH_ARRAYS`, then the batch-wide driver parameters."""

    _fields_ = [(name, ctypes.c_void_p) for name in BATCH_ARRAYS] + [
        ("exact", ctypes.c_int64),
        ("hard_cap", ctypes.c_int64),
        ("measure_window", ctypes.c_int64),
    ]


#: Compiler flags that preserve CPython's float semantics: IEEE doubles,
#: no FMA contraction, no value-unsafe reassociation.
CFLAGS = ("-O2", "-fPIC", "-shared", "-ffp-contract=off", "-fno-fast-math")

_lock = threading.Lock()
_kernel: Optional["Kernel"] = None
_load_attempted = False
_load_error: Optional[str] = None


class Kernel:
    """A loaded stepping kernel: the shared library + bound entry point."""

    def __init__(self, lib: ctypes.CDLL, path: str):
        self.lib = lib
        self.path = path
        self.step_batch = lib.repro_step_batch
        self.step_batch.argtypes = [
            ctypes.POINTER(BatchStateStruct),
            ctypes.c_int64,
        ]
        self.step_batch.restype = None


def _cache_dir() -> str:
    override = os.environ.get("REPRO_KERNEL_CACHE")
    if override:
        return override
    uid = os.getuid() if hasattr(os, "getuid") else 0
    return os.path.join(tempfile.gettempdir(), f"repro-sim-kernel-{uid}")


def _source_digest() -> str:
    payload = f"v{KERNEL_VERSION}\n{KERNEL_SOURCE}".encode()
    return hashlib.sha256(payload).hexdigest()[:16]


def _compile(cache_dir: str) -> str:
    """Compile the kernel into the cache; returns the .so path.

    Nothing shared is ever written in place: the source goes to ``cc``
    on stdin and the object to a private temp name that is renamed over
    the digest name, so concurrent cold builders cannot install a
    truncated library for each other.
    """
    os.makedirs(cache_dir, exist_ok=True)
    so_path = os.path.join(
        cache_dir, f"repro_sim_kernel_{_source_digest()}.so"
    )
    if os.path.exists(so_path):
        return so_path
    cc = os.environ.get("CC", "cc")
    fd, tmp_so = tempfile.mkstemp(dir=cache_dir, suffix=".so.tmp")
    os.close(fd)
    try:
        subprocess.run(
            [cc, *CFLAGS, "-x", "c", "-o", tmp_so, "-"],
            input=KERNEL_SOURCE.encode(),
            check=True,
            capture_output=True,
            timeout=120,
        )
        os.replace(tmp_so, so_path)  # atomic: concurrent builders race safely
    finally:
        if os.path.exists(tmp_so):
            os.unlink(tmp_so)
    return so_path


def _load(cache_dir: str) -> Kernel:
    """Build-or-reuse the cached library and bind its entry point.

    A cached object that does not load, or loads without the entry
    point (a build interrupted or poisoned by an older writer), is
    corrupt: it is unlinked and rebuilt once; a second failure raises.
    """
    so_path = _compile(cache_dir)
    try:
        lib = ctypes.CDLL(so_path)
    except OSError:
        lib = None
    if lib is not None:
        try:
            return Kernel(lib, so_path)
        except AttributeError:
            # dlopen answers a path it already holds from its own table:
            # close the stale handle or the rebuilt file is never read.
            import _ctypes

            _ctypes.dlclose(lib._handle)
    os.unlink(so_path)
    so_path = _compile(cache_dir)
    return Kernel(ctypes.CDLL(so_path), so_path)


def load_kernel() -> Optional[Kernel]:
    """Compile (once, cached on disk) and load the stepping kernel.

    Returns ``None`` when no C compiler is available or the build
    fails; the failure is remembered so a broken toolchain costs one
    subprocess per process, not one per region.
    """
    global _kernel, _load_attempted, _load_error
    with _lock:
        if _kernel is not None or _load_attempted:
            return _kernel
        _load_attempted = True
        try:
            _kernel = _load(_cache_dir())
        except Exception as exc:  # noqa: BLE001 - any toolchain failure
            _load_error = f"{type(exc).__name__}: {exc}"
            _kernel = None
        return _kernel


def load_error() -> Optional[str]:
    """Why the kernel failed to load (None when loaded or untried)."""
    return _load_error
