"""Topology builders: mesh CGRAs, the hand-designed General overlay, and
DSE seed designs.

The General overlay follows Table III's right column: a 4x6 PE mesh with 35
switches, every functional unit at maximum (512-bit) vectorization width, a
32 KiB indirect-capable scratchpad, one generate/recurrence/register engine
each, and a fully-connected memory side (every engine reaches every port).
"""

from __future__ import annotations

import math
from typing import Dict, FrozenSet, Iterable, Sequence, Tuple

from ..compiler import lower
from ..ir import DType, Op
from .capability import FuCap, caps_for_dtype, universal_caps
from .graph import ADG
from .system import SysADG, SystemParams


def mesh_adg(
    rows: int,
    cols: int,
    caps: FrozenSet[FuCap],
    width_bits: int = 64,
    in_port_widths: Sequence[int] = (8, 8, 8, 8),
    out_port_widths: Sequence[int] = (8, 8),
    spad_specs: Sequence[Tuple[int, int, bool]] = ((16384, 32, False),),
    dma_bandwidth: int = 32,
    dma_indirect: bool = True,
    with_generate: bool = True,
    with_recurrence: bool = True,
    with_register: bool = True,
    port_padding: bool = True,
) -> ADG:
    """Build a rows x cols PE mesh with a (rows+1) x (cols+1) switch grid.

    Every PE connects bidirectionally to its four corner switches; switches
    connect to their grid neighbors; input ports feed the top switch row and
    output ports drain the bottom row.  The memory side is fully connected
    (every engine linked to every port) — the spatial-memory DSE later
    *prunes* this, which is exactly the Fig. 4(a) -> 4(b) transition.

    Args:
        spad_specs: one (capacity_bytes, bandwidth, indirect) per scratchpad.
    """
    adg = ADG()
    sw: Dict[Tuple[int, int], int] = {}
    for r in range(rows + 1):
        for c in range(cols + 1):
            sw[(r, c)] = adg.add_switch(width_bits=width_bits)
    # Down-flowing switch mesh: values enter at the top row, progress
    # downward, and drain at the bottom row.  Horizontal links are
    # bidirectional so any column can reach any port row position.
    for r in range(rows + 1):
        for c in range(cols + 1):
            if c + 1 <= cols:
                adg.add_link(sw[(r, c)], sw[(r, c + 1)])
                adg.add_link(sw[(r, c + 1)], sw[(r, c)])
            if r + 1 <= rows:
                adg.add_link(sw[(r, c)], sw[(r + 1, c)])
    # Each PE reads operands from its north/west corner switches and writes
    # to its south-east corner, so dataflow chains can progress both down
    # and across the array.
    for r in range(rows):
        for c in range(cols):
            pe = adg.add_pe(caps=caps, width_bits=width_bits)
            for corner in ((r, c), (r, c + 1), (r + 1, c)):
                adg.add_link(sw[corner], pe)
            adg.add_link(pe, sw[(r + 1, c + 1)])

    in_ports = []
    for idx, width in enumerate(in_port_widths):
        port = adg.add_in_port(
            width_bytes=width,
            supports_padding=port_padding,
            supports_meta=True,
        )
        in_ports.append(port)
        adg.add_link(port, sw[(0, idx % (cols + 1))])
    out_ports = []
    for idx, width in enumerate(out_port_widths):
        port = adg.add_out_port(width_bytes=width)
        out_ports.append(port)
        adg.add_link(sw[(rows, idx % (cols + 1))], port)

    engines = [adg.add_dma(bandwidth_bytes=dma_bandwidth, indirect=dma_indirect)]
    for capacity, bandwidth, indirect in spad_specs:
        engines.append(
            adg.add_spad(
                capacity_bytes=capacity,
                read_bandwidth=bandwidth,
                write_bandwidth=bandwidth,
                indirect=indirect,
            )
        )
    if with_generate:
        engines.append(adg.add_generate(bandwidth_bytes=8))
    if with_recurrence:
        engines.append(adg.add_recurrence(bandwidth_bytes=32, buffer_bytes=4096))
    if with_register:
        engines.append(adg.add_register())
    for engine in engines:
        for port in in_ports:
            adg.add_link(engine, port)
        for port in out_ports:
            adg.add_link(port, engine)
    adg.validate()
    return adg


def general_overlay(num_tiles: int = 4) -> SysADG:
    """The hand-designed General overlay of Table III (right column).

    24 universal PEs, 35 switches, 512-bit datapaths, 224 B/cyc of input
    port bandwidth and 160 B/cyc of output, one 32 KiB indirect scratchpad,
    and all three auxiliary engines.  At this cost only ~4 tiles fit the
    XCVU9P (Q1), with a 4-bank 512 KiB L2 and a 32-byte NoC.
    """
    adg = mesh_adg(
        rows=4,
        cols=6,
        caps=universal_caps(),
        width_bits=512,
        # 224 B/cyc of input and 160 B/cyc of output bandwidth (Table III),
        # split across enough ports for high-fan-in kernels (stencils).
        in_port_widths=(64, 32, 32, 16, 16, 16, 8, 8, 8, 8, 8, 4, 4),
        out_port_widths=(64, 32, 16, 16, 8, 8, 8, 8),
        spad_specs=((32 * 1024, 32, True),),
        dma_bandwidth=64,
        dma_indirect=True,
    )
    params = SystemParams(
        num_tiles=num_tiles,
        l2_banks=4,
        l2_kib=512,
        noc_bytes_per_cycle=32,
    )
    return SysADG(adg=adg, params=params, name="general-OG")


def seed_adg(
    dtypes: Iterable[DType],
    ops: Iterable[Op],
    width_bits: int = 128,
    rows: int = 2,
    cols: int = 2,
    n_in_ports: int = 4,
    n_out_ports: int = 2,
    port_bytes: int = 16,
) -> ADG:
    """A modest starting point for the spatial DSE.

    A mesh whose PEs carry just the capabilities the target workloads need,
    with generous (fully-connected) memory-side links for the DSE to prune,
    one scratchpad, and all auxiliary engines.
    """
    caps: set = set()
    ops = list(ops)
    for dtype in dtypes:
        caps |= set(caps_for_dtype(dtype, ops))
    # Address/index arithmetic is always available at 64-bit integer.
    caps |= set(caps_for_dtype(DType("i64", 64, False), (Op.ADD, Op.MUL)))
    return mesh_adg(
        rows=rows,
        cols=cols,
        caps=frozenset(caps),
        width_bits=width_bits,
        in_port_widths=(port_bytes,) * n_in_ports,
        out_port_widths=(port_bytes,) * n_out_ports,
        spad_specs=((16384, 32, True),),
        dma_bandwidth=32,
    )


def seed_for_workloads(workloads, width_bits: int = 512) -> ADG:
    """Seed ADG sized so every workload's *least aggressive* variant maps.

    The DSE abandons any candidate where some workload has no schedulable
    variant, so the starting point must already fit the fattest scalar
    (unroll-1, memory read-modify-write) mDFG: enough PEs for its compute
    nodes and enough ports for its streams.  Everything beyond that is the
    explorer's job to grow or shrink.  A search study builds it once and
    mutates a clone per proposal.
    """
    dtypes = {w.dtype for w in workloads}
    ops: set = set()
    need_pes = 1
    need_ivp = 1
    need_ovp = 1
    for w in workloads:
        for a in w.arrays:
            dtypes.add(w.array_dtype(a.name))
        ops |= set(w.op_counts())
        if any(s.is_reduction for s in w.statements):
            ops.add(Op.ADD)
        mdfg = lower(w, unroll=1, use_recurrence=False)
        need_pes = max(need_pes, len(mdfg.compute_nodes))
        need_ivp = max(need_ivp, len(mdfg.input_ports))
        need_ovp = max(need_ovp, len(mdfg.output_ports))
    # 50% slack over the strict minimum: greedy placement needs headroom
    # to route dense graphs (deep stencils) without stranding outputs.
    slack = math.ceil(need_pes * 1.5) + 1
    cols = max(2, math.ceil(math.sqrt(slack)))
    rows = max(2, math.ceil(slack / cols))
    return seed_adg(
        frozenset(dtypes),
        frozenset(ops or {Op.ADD}),
        width_bits=width_bits,
        rows=rows,
        cols=cols,
        n_in_ports=need_ivp + 2,
        n_out_ports=need_ovp + 2,
        port_bytes=16,
    )
