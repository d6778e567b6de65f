"""Compiled stepping kernel for the vectorized simulator core.

:mod:`repro.sim.vector` packs one tile's simulation state into numpy
struct-of-arrays; this module owns the C stepping kernel that advances
that packed state.  The kernel is an *exact transliteration* of the
object-model inner loop (``components.py`` + the ``simulate_schedule``
driver): every floating-point operation appears in the same order as
the Python source, so IEEE-754 double results — and therefore cycle
counts — are bit-identical to the reference simulator.  That contract
is load-bearing (the differential-fuzz oracle and the memo both key on
exact cycle counts) and is enforced by ``tests/test_sim_vector.py``.

Why C and not numpy ufuncs: the inner loop is a chain of data-dependent
scalar ``min``/compare/accumulate steps across *heterogeneous* coupled
components (engines arbitrating shared bandwidth pools, FIFOs feeding a
retiring pipeline).  There is no per-cycle data parallelism to
vectorize across — the win is removing interpreter dispatch from the
~10^5-cycle regions, plus event-driven skip-ahead over idle cycles.
The packed numpy arrays are the data plane; the C kernel is the only
consumer of their raw buffers.

Toolchain policy: the kernel is built once per process from the
in-repo source string with the *system* C compiler (``cc``), cached on
disk keyed by a source digest.  No new Python dependency is introduced;
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
from typing import Optional

#: Incremented whenever KERNEL_SOURCE changes semantics; part of the
#: on-disk cache key so stale shared objects are never reused.
KERNEL_VERSION = 1

#: Statuses returned by ``repro_step_region`` (must match the C enum).
STATUS_DONE = 0
STATUS_HARD_CAP = 1
STATUS_DEADLOCK = 2
STATUS_STUCK = 3

KERNEL_SOURCE = r"""
/* Exact C transliteration of repro/sim/components.py stepping +
 * the simulate_schedule driver loop.  See repro/sim/ckernel.py for
 * the bit-identity contract.  Compiled with -ffp-contract=off. */
#include <stdint.h>

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
    int64_t *now;           /* [1] in/out */
    int64_t *last_progress; /* [1] in/out */
    double *last_firings;   /* [1] in/out */
    double *window_firings; /* [1] out */
    int64_t *window_cycle;  /* [1] out */
} TileState;

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
    for (int64_t off = 0; off < n; off++) {
        int64_t s = cand[(rr + off) % n];
        double got = serve(st, ei, s, budget / st->s_eb[s]);
        moved += got;
        budget -= got * st->s_eb[s];
        if (budget <= 1e-12) break;
    }
    int64_t rr_new = (rr + 1) % n;
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
            head = (head + 1) % st->pipe_cap;
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
    int64_t tail = (head + len) % st->pipe_cap;
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

/* The simulate_schedule driver loop.  `cand` is caller-provided
 * scratch of n_streams int64s.  Event-skip invariant: a cycle whose
 * step changed no persistent state (stream/fifo/pool/pipeline/rr/
 * last_issued/firings) except possibly stall_cycles is "frozen"; all
 * following cycles are identical until the next event — the earliest
 * of: a stream's dispatched_at, the pipeline head's due cycle, the
 * hard cap, and the no-progress deadline.  Skipped cycles replay
 * stall_cycles increments analytically. */
int64_t repro_step_region(TileState *st, int64_t *cand) {
    int64_t now = *st->now;
    int64_t last_progress = *st->last_progress;
    double last_firings = *st->last_firings;
    int64_t status;
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
    *st->last_progress = last_progress;
    *st->last_firings = last_firings;
    return status;
}
"""

_P_DOUBLE = ctypes.POINTER(ctypes.c_double)
_P_INT64 = ctypes.POINTER(ctypes.c_int64)


class TileStateStruct(ctypes.Structure):
    """ctypes mirror of the C ``TileState`` (field order must match)."""

    _fields_ = [
        ("n_streams", ctypes.c_int64),
        ("s_total", _P_DOUBLE),
        ("s_cap", _P_DOUBLE),
        ("s_eb", _P_DOUBLE),
        ("s_l2f", _P_DOUBLE),
        ("s_dramf", _P_DOUBLE),
        ("s_moved", _P_DOUBLE),
        ("s_done_tol", _P_DOUBLE),
        ("s_disp", _P_INT64),
        ("s_is_read", _P_INT64),
        ("s_fifo", _P_INT64),
        ("s_fwd", _P_INT64),
        ("n_fifos", ctypes.c_int64),
        ("f_cap", _P_DOUBLE),
        ("f_level", _P_DOUBLE),
        ("n_engines", ctypes.c_int64),
        ("e_start", _P_INT64),
        ("e_end", _P_INT64),
        ("e_bw", _P_DOUBLE),
        ("e_onehot", _P_INT64),
        ("e_has_pools", _P_INT64),
        ("e_rr", _P_INT64),
        ("e_last", _P_INT64),
        ("e_issued", _P_INT64),
        ("e_busy", _P_INT64),
        ("n_pools", ctypes.c_int64),
        ("p_rate", _P_DOUBLE),
        ("p_avail", _P_DOUBLE),
        ("p_consumed", _P_DOUBLE),
        ("n_in", ctypes.c_int64),
        ("in_fifo", _P_INT64),
        ("in_rate", _P_DOUBLE),
        ("n_out", ctypes.c_int64),
        ("out_fifo", _P_INT64),
        ("out_rate", _P_DOUBLE),
        ("fab_total", ctypes.c_double),
        ("fab_done_tol", ctypes.c_double),
        ("fab_depth", ctypes.c_int64),
        ("fab_firings", _P_DOUBLE),
        ("fab_stalls", _P_INT64),
        ("pipe_cap", ctypes.c_int64),
        ("pipe_due", _P_INT64),
        ("pipe_count", _P_DOUBLE),
        ("pipe_head", _P_INT64),
        ("pipe_len", _P_INT64),
        ("exact", ctypes.c_int64),
        ("hard_cap", ctypes.c_int64),
        ("measure_window", ctypes.c_int64),
        ("now", _P_INT64),
        ("last_progress", _P_INT64),
        ("last_firings", _P_DOUBLE),
        ("window_firings", _P_DOUBLE),
        ("window_cycle", _P_INT64),
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
        self.step_region = lib.repro_step_region
        self.step_region.argtypes = [
            ctypes.POINTER(TileStateStruct),
            _P_INT64,
        ]
        self.step_region.restype = ctypes.c_int64


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
    """Compile the kernel into the cache; returns the .so path."""
    os.makedirs(cache_dir, exist_ok=True)
    digest = _source_digest()
    so_path = os.path.join(cache_dir, f"repro_sim_kernel_{digest}.so")
    if os.path.exists(so_path):
        return so_path
    cc = os.environ.get("CC", "cc")
    src_path = os.path.join(cache_dir, f"repro_sim_kernel_{digest}.c")
    tmp_so = f"{so_path}.tmp.{os.getpid()}"
    with open(src_path, "w") as f:
        f.write(KERNEL_SOURCE)
    subprocess.run(
        [cc, *CFLAGS, "-o", tmp_so, src_path],
        check=True,
        capture_output=True,
        timeout=120,
    )
    os.replace(tmp_so, so_path)  # atomic: concurrent builders race safely
    return so_path


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
            so_path = _compile(_cache_dir())
            _kernel = Kernel(ctypes.CDLL(so_path), so_path)
        except Exception as exc:  # noqa: BLE001 - any toolchain failure
            _load_error = f"{type(exc).__name__}: {exc}"
            _kernel = None
        return _kernel


def load_error() -> Optional[str]:
    """Why the kernel failed to load (None when loaded or untried)."""
    return _load_error
