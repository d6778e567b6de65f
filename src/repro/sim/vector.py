"""Batch-major state packing for the vectorized simulator core.

The object model in :mod:`repro.sim.components` stays the reference
implementation; this module packs a *batch* of built tiles (engines,
fabric, pools) into stdlib ``array.array`` columns and steps all of them
in one call to the compiled kernel (:mod:`repro.sim.ckernel`).  After the run
the packed state is written back into the original objects, so result
assembly and all introspection (engine busy counters, pool bytes, FIFO
levels, pipeline contents) are identical between cores.  One tile is
the batch of one: there is no per-region packing path.

Batch layout (``ckernel.BATCH_ARRAYS`` names every array; documented in
DESIGN.md's sim-core row).  Each component class is one set of parallel
arrays holding every region's members back to back, plus an offset array
of ``regions + 1`` entries — region ``r`` owns ``[off[r], off[r + 1])``:

* streams (``s_off``): flattened engine-by-engine in the driver's step
  order; per-stream FIFO and forward-FIFO indices.
* FIFOs (``f_off``): capacity/level; every FIFO referenced by any stream
  or fabric port of the region gets one slot (identity-deduplicated).
* engines (``e_off``): ``[start, end)`` stream ranges plus bandwidth,
  bypass flag, round-robin pointer, last-issued stream (-1 = None).
* pools (``p_off``): slots 0 = l2, 1 = dram (the only shape
  ``build_tile`` produces; :func:`packable` rejects anything else).
* fabric ports (``in_off`` / ``out_off``) and the pipeline as a
  (due, count) ring of ``depth + 8`` slots per region (``pipe_off``).
* one element per region: firings, stalls, ring head/length, and the
  outcome (``status``, ``now``, the measurement-window snapshot).

Indices stored *in* the arrays are relative to the region's own slices,
so the kernel's per-region code never sees the batch.  Columns are
filled as Python tuples across the whole batch and converted with one
``array(code, column)`` per field per batch (``code`` is the field's
``BATCH_ARRAYS`` typecode, ``"d"`` for ``double`` and ``"q"`` for
``int64_t``); the kernel reads each column at ``buffer_info()[0]``.

The kernel is an exact transliteration of the object stepping order, so
all synced-back floats are bit-identical to an object-core run.
"""

from __future__ import annotations

import ctypes
from array import array
from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

from ..profile.tracer import add_counter
from .ckernel import BATCH_ARRAYS, BatchStateStruct, load_kernel
from .components import (
    BandwidthPool,
    EngineSim,
    FabricSim,
    PortFifo,
    StreamState,
)

#: What ``build_tile`` returns: one region's engines, fabric and pools.
Tile = Tuple[Sequence[EngineSim], FabricSim, Sequence[BandwidthPool]]


def vector_core_available() -> bool:
    """True when the compiled stepping kernel can be built and loaded."""
    return load_kernel() is not None


@dataclass
class BatchPack:
    """A batch of tiles as batch-major struct-of-arrays.

    The object lists are batch-flat, region by region, in the order of
    the arrays they were packed into (``fabrics`` has one per region).
    """

    fabrics: List[FabricSim]
    engines: List[EngineSim]
    streams: List[StreamState]
    fifos: List[PortFifo]
    pools: List[BandwidthPool]
    arrays: Dict[str, array]


def packable(
    engines: Sequence[EngineSim],
    fabric: FabricSim,
    pools: Sequence[BandwidthPool],
) -> bool:
    """False if the tile's shape is outside what the kernel models
    (the caller steps it on the object core)."""
    for engine in engines:
        # The kernel hard-codes pool slots (0=l2, 1=dram) in build_tile's
        # engine order; any other pool wiring is not representable.
        if engine.pools and (
            len(pools) != 2
            or len(engine.pools) != 2
            or engine.pools[0] is not pools[0]
            or engine.pools[1] is not pools[1]
        ):
            return False
        last = engine._last_issued
        if last is not None and not any(s is last for s in engine.streams):
            return False
    return True


#: Offset array -> the parallel arrays of that component class, in the
#: order :func:`pack_batch` builds each member's row.
_CLASS_FIELDS: Dict[str, Tuple[str, ...]] = {
    "s_off": (
        "s_total", "s_cap", "s_eb", "s_l2f", "s_dramf", "s_moved",
        "s_done_tol", "s_disp", "s_is_read", "s_fifo", "s_fwd",
    ),
    "f_off": ("f_cap", "f_level"),
    "e_off": (
        "e_start", "e_end", "e_bw", "e_onehot", "e_has_pools", "e_rr",
        "e_last", "e_issued", "e_busy",
    ),
    "p_off": ("p_rate", "p_avail", "p_consumed"),
    "in_off": ("in_fifo", "in_rate"),
    "out_off": ("out_fifo", "out_rate"),
}
#: One row per region: fabric scalars, ring state, then where the
#: region's slice of every class (and of the pipeline ring) starts.
_REGION_FIELDS = (
    "fab_total", "fab_done_tol", "fab_depth", "fab_firings", "fab_stalls",
    "pipe_head", "pipe_len", "pipe_off", *_CLASS_FIELDS,
)
#: Per-region arrays the kernel only writes: how each region ended.
_OUTCOME_FIELDS = ("status", "now", "window_firings", "window_cycle")


def pack_batch(tiles: Sequence[Tile]) -> BatchPack:
    """Pack :func:`packable` tiles batch-major (layout: module docstring)."""
    pack = BatchPack([], [], [], [], [], {})
    rows: Dict[str, List[tuple]] = {name: [] for name in _CLASS_FIELDS}
    stream_rows, fifo_rows, engine_rows = (
        rows["s_off"], rows["f_off"], rows["e_off"]
    )
    region_rows: List[tuple] = []
    pipe_due: List[int] = []
    pipe_count: List[float] = []
    for engines, fabric, pools in tiles:
        offsets = [len(members) for members in rows.values()]
        s_base, f_base = len(stream_rows), len(fifo_rows)
        fifo_ids: Dict[int, int] = {}

        def fifo_index(fifo: PortFifo) -> int:
            index = fifo_ids.get(id(fifo))
            if index is None:
                index = fifo_ids[id(fifo)] = len(fifo_ids)
                pack.fifos.append(fifo)
            return index

        for engine in engines:
            start = len(stream_rows) - s_base
            last = -1
            for s in engine.streams:
                if s is engine._last_issued:
                    last = len(stream_rows) - s_base
                forward = getattr(s, "forward_to", None)
                stream_rows.append((
                    s.total_elements,
                    s.elements_per_cycle_cap,
                    s.element_bytes,
                    s.l2_fraction,
                    s.dram_fraction,
                    s.moved,
                    # Same product the done property computes every call.
                    1e-6 * max(1.0, s.total_elements),
                    s.dispatched_at,
                    1 if s.is_read else 0,
                    fifo_index(s.port),
                    -1 if forward is None else fifo_index(forward),
                ))
            engine_rows.append((
                start,
                len(stream_rows) - s_base,
                engine.bandwidth_bytes,
                1 if engine.onehot_bypass else 0,
                1 if engine.pools else 0,
                engine._rr,
                last,
                engine.issued_cycles,
                engine.busy_cycles,
            ))
            pack.streams.extend(engine.streams)
        pack.engines.extend(engines)

        cfg = fabric.config
        rows["in_off"] += [(fifo_index(f), rate) for f, rate in cfg.inputs]
        rows["out_off"] += [(fifo_index(f), rate) for f, rate in cfg.outputs]
        fifo_rows += [(f.capacity, f.level) for f in pack.fifos[f_base:]]
        rows["p_off"] += [
            (p.bytes_per_cycle, p.available, p.consumed_total) for p in pools
        ]
        pack.pools.extend(pools)

        total = cfg.total_firings
        depth = int(cfg.pipeline_depth)
        live = fabric._pipeline
        region_rows.append((
            total,
            # Same product FabricSim.remaining computes every call.
            1e-6 * max(1.0, total),
            depth,
            fabric.firings,
            fabric.stall_cycles,
            0,
            len(live),
            len(pipe_due),
            *offsets,
        ))
        # The ring: live entries first (head at slot 0), then free slots.
        free = depth + 8 - len(live)
        pipe_due += [due for due, _ in live] + [0] * free
        pipe_count += [count for _, count in live] + [0.0] * free
        pack.fabrics.append(fabric)

    # One column per field across the whole batch; the offset columns
    # close with the class totals (region r's slice ends where r + 1's
    # starts).
    columns: Dict[str, Sequence] = {
        "pipe_due": pipe_due, "pipe_count": pipe_count,
    }

    def transpose(names: Sequence[str], members: List[tuple]) -> None:
        columns.update(
            zip(names, zip(*members) if members else [()] * len(names))
        )

    transpose(_REGION_FIELDS, region_rows)
    for off, members in rows.items():
        transpose(_CLASS_FIELDS[off], members)
        columns[off] += (len(members),)
    columns["pipe_off"] += (len(pipe_due),)

    # What the kernel only writes is allocated, not filled.
    unfilled = dict.fromkeys(_OUTCOME_FIELDS, len(region_rows))
    unfilled["cand"] = len(stream_rows)
    for name, code in BATCH_ARRAYS.items():
        pack.arrays[name] = (
            array(code, columns[name])
            if name in columns
            else array(code, bytes(8 * unfilled[name]))
        )
    return pack


def _sync_back(pack: BatchPack) -> None:
    """Write the packed state back into the component objects."""
    a = {
        name: pack.arrays[name].tolist()
        for name in (
            "s_moved", "f_level", "e_rr", "e_last", "e_issued", "e_busy",
            "p_avail", "p_consumed", "fab_firings", "fab_stalls",
            "pipe_head", "pipe_len", "pipe_due", "pipe_count",
            "s_off", "e_off", "pipe_off",
        )
    }
    for stream, moved in zip(pack.streams, a["s_moved"]):
        stream.moved = moved
    for fifo, level in zip(pack.fifos, a["f_level"]):
        fifo.level = level
    for pool, available, consumed in zip(
        pack.pools, a["p_avail"], a["p_consumed"]
    ):
        pool.available = available
        pool.consumed_total = consumed
    for r, fabric in enumerate(pack.fabrics):
        s_base = a["s_off"][r]
        for e in range(a["e_off"][r], a["e_off"][r + 1]):
            engine = pack.engines[e]
            engine._rr = a["e_rr"][e]
            last = a["e_last"][e]
            engine._last_issued = (
                None if last < 0 else pack.streams[s_base + last]
            )
            engine.issued_cycles = a["e_issued"][e]
            engine.busy_cycles = a["e_busy"][e]
        fabric.firings = a["fab_firings"][r]
        fabric.stall_cycles = a["fab_stalls"][r]
        base = a["pipe_off"][r]
        cap = a["pipe_off"][r + 1] - base
        head = a["pipe_head"][r]
        fabric._pipeline = [
            (
                a["pipe_due"][base + (head + k) % cap],
                a["pipe_count"][base + (head + k) % cap],
            )
            for k in range(a["pipe_len"][r])
        ]


def step_batch(
    pack: BatchPack,
    exact: bool,
    hard_cap: int,
    measure_window: int,
) -> List[Tuple[int, int, float, int]]:
    """Step every packed region to completion in ONE kernel call.

    Needs :func:`vector_core_available`.  On return the component
    objects hold the same state an object-core run would have left
    (bit-identical floats); the result is one ``(status, now,
    window_firings, window_cycle)`` row per region — the driver-loop
    fields the caller needs for extrapolation/raising.
    """
    a = pack.arrays
    state = BatchStateStruct()
    for name in BATCH_ARRAYS:
        setattr(state, name, a[name].buffer_info()[0])
    state.exact = 1 if exact else 0
    state.hard_cap = hard_cap
    state.measure_window = measure_window
    load_kernel().step_batch(ctypes.byref(state), len(pack.fabrics))
    add_counter("sim.kernel_calls")
    _sync_back(pack)
    return list(zip(*(a[name].tolist() for name in _OUTCOME_FIELDS)))
