"""Analytical per-component FPGA resource costs.

This is the ground-truth cost model standing in for Vivado out-of-context
synthesis: the ML dataset generator (Table I) samples it (plus synthesis
noise), and the trained MLP approximates it during DSE.  Constants are
calibrated so the paper's headline utilization shapes hold on the XCVU9P:

* the 24-PE universal 512-bit General tile costs ~200+ kLUT so only 4 fit;
* suite-specialized tiles land in the 60-120 kLUT range, allowing 7-13;
* the crossbar NoC is among the largest single LUT components at high tile
  counts (Q4);
* scratchpads/ROBs land in BRAM, floating point lands in DSP.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Tuple

from ...adg import (
    ADG,
    AdgNode,
    DmaEngine,
    ENGINE_KINDS,
    FuCap,
    GenerateEngine,
    InputPortHW,
    NodeKind,
    OutputPortHW,
    ProcessingElement,
    RecurrenceEngine,
    RegisterEngine,
    SpadEngine,
    Switch,
)
from ...ir import Op
from .device import Resources

#: LUT cost of one lane of a simple integer ALU op, per bit.
_INT_ALU_LUT_PER_BIT = 0.2

#: Iterative (shared, non-pipelined-per-lane) divider cost per bit.
_INT_DIV_LUT_PER_BIT = 6.0

#: Floating-point unit costs per lane: (lut, dsp) by (op-class, bits).
_FP_COSTS: Dict[Tuple[str, int], Tuple[float, float]] = {
    ("add", 32): (160.0, 0.0),
    ("add", 64): (225.0, 0.0),
    ("mul", 32): (80.0, 1.0),
    ("mul", 64): (150.0, 2.0),
}
#: Shared iterative fp units: cost per PE if present at all (not per lane).
_FP_SHARED: Dict[Tuple[str, int], float] = {
    ("div", 32): 1200.0,
    ("div", 64): 2000.0,
    ("sqrt", 32): 1400.0,
    ("sqrt", 64): 2400.0,
}


def _fu_cost(caps: Iterable[FuCap], width_bits: int) -> Resources:
    """Cost of a PE's functional units under subword-SIMD and unit sharing.

    Two sharing rules reflect how FPGA PEs are actually built:

    * *Subword SIMD*: within a unit class the hardware is provisioned at the
      widest requested scalar width; narrower widths ride the same unit in
      subword mode (an i8 add on a 64-bit SIMD adder is free once the adder
      exists).
    * *Unit classes*: add-class ops (add/sub/min/max/cmp/abs/select) and the
      logic/shift ops share one ALU per lane with a small incremental cost
      per extra opcode; multiply, divide, and sqrt are their own units.
      Divide/sqrt are iterative shared units (one per PE, not per lane).
    """
    int_alu_ops: set = set()
    int_alu_bits = 0
    int_mul_bits = 0
    int_div_bits = 0
    fp_add_ops: set = set()
    fp_add_bits = 0
    fp_mul_bits = 0
    fp_div_bits = 0
    fp_sqrt_bits = 0
    for cap in caps:
        if cap.is_float:
            if cap.op is Op.MUL:
                fp_mul_bits = max(fp_mul_bits, cap.bits)
            elif cap.op is Op.DIV:
                fp_div_bits = max(fp_div_bits, cap.bits)
            elif cap.op is Op.SQRT:
                fp_sqrt_bits = max(fp_sqrt_bits, cap.bits)
            else:
                fp_add_ops.add(cap.op)
                fp_add_bits = max(fp_add_bits, cap.bits)
        else:
            if cap.op is Op.MUL:
                int_mul_bits = max(int_mul_bits, cap.bits)
            elif cap.op is Op.DIV:
                int_div_bits = max(int_div_bits, cap.bits)
            else:
                int_alu_ops.add(cap.op)
                int_alu_bits = max(int_alu_bits, cap.bits)
    lut = 0.0
    dsp = 0.0
    if int_alu_ops:
        lanes = max(1, width_bits // int_alu_bits)
        share = 1.0 + 0.15 * (len(int_alu_ops) - 1)
        lut += _INT_ALU_LUT_PER_BIT * int_alu_bits * lanes * share
    if int_mul_bits:
        lanes = max(1, width_bits // int_mul_bits)
        dsp += max(1.0, int_mul_bits / 24.0) * lanes * 0.5
        lut += int_mul_bits * 1.5 * lanes / 8.0
    if int_div_bits:
        lut += _INT_DIV_LUT_PER_BIT * int_div_bits
    if fp_add_ops:
        lanes = max(1, width_bits // fp_add_bits)
        share = 1.0 + 0.06 * (len(fp_add_ops) - 1)
        unit = _FP_COSTS[("add", fp_add_bits)]
        lut += unit[0] * lanes * share
        dsp += unit[1] * lanes
    if fp_mul_bits:
        lanes = max(1, width_bits // fp_mul_bits)
        unit = _FP_COSTS[("mul", fp_mul_bits)]
        lut += unit[0] * lanes
        dsp += unit[1] * lanes
    if fp_div_bits and fp_sqrt_bits:
        # A combined iterative div/sqrt unit shares the datapath.
        lut += max(
            _FP_SHARED[("div", fp_div_bits)],
            _FP_SHARED[("sqrt", fp_sqrt_bits)],
        ) + 600.0
    elif fp_div_bits:
        lut += _FP_SHARED[("div", fp_div_bits)]
    elif fp_sqrt_bits:
        lut += _FP_SHARED[("sqrt", fp_sqrt_bits)]
    return Resources(lut=lut, dsp=dsp)


def pe_resources(pe: ProcessingElement) -> Resources:
    """One processing element: control + delay FIFOs + functional units."""
    base = Resources(lut=400.0, ff=500.0)
    # Per-operand delay FIFOs: three operand slots of width_bits, depth
    # max_delay_fifo, built from SRL LUTs.
    fifo_lut = 3 * pe.width_bits * max(1, pe.max_delay_fifo) / 24.0
    fifo = Resources(lut=fifo_lut, ff=pe.width_bits * 1.5)
    return base + fifo + _fu_cost(pe.caps, pe.width_bits)


def switch_resources(sw: Switch, in_degree: int, out_degree: int) -> Resources:
    """A circuit-switched crossbar switch: muxes scale with in x out x width."""
    in_degree = max(1, in_degree)
    out_degree = max(1, out_degree)
    mux_lut = (in_degree / 2.0) * (out_degree / 2.0) * sw.width_bits / 6.0
    return Resources(
        lut=150.0 + mux_lut,
        ff=sw.width_bits * out_degree * 0.6,
    )


def in_port_resources(port: InputPortHW, feeders: int = 1) -> Resources:
    """``feeders`` = stream engines linked into this port: each extra one
    adds a mux leg on the fill path (the spatial-memory topology cost that
    motivates Fig. 4's pruned memory networks)."""
    lut = 150.0 + port.width_bytes * 24.0
    lut += max(0, feeders - 1) * (port.width_bytes * 1.5 + 20.0)
    if port.supports_padding:
        lut += port.width_bytes * 6.0
    if port.supports_meta:
        lut += 40.0
    return Resources(
        lut=lut,
        ff=port.width_bytes * 8.0 * max(2, port.fifo_depth),
    )


def out_port_resources(port: OutputPortHW, drains: int = 1) -> Resources:
    lut = 120.0 + port.width_bytes * 18.0
    lut += max(0, drains - 1) * (port.width_bytes * 1.2 + 15.0)
    return Resources(
        lut=lut,
        ff=port.width_bytes * 8.0 * max(2, port.fifo_depth),
    )


def dma_resources(dma: DmaEngine) -> Resources:
    """DMA engine: request generation, TLB interface, and the ROB."""
    lut = 5000.0 + dma.bandwidth_bytes * 45.0
    bram = 1.0 + dma.rob_entries * dma.bandwidth_bytes / 4608.0
    if dma.indirect:
        lut += 800.0 + dma.bandwidth_bytes * 10.0
    return Resources(lut=lut, ff=lut * 1.2, bram=bram)


def spad_resources(spad: SpadEngine) -> Resources:
    """Scratchpad engine: BRAM banks + stream pipeline + indirect adders."""
    bram = max(1.0, spad.capacity_bytes / 4608.0)  # BRAM36 = 36 Kib
    # Wider access needs more parallel banks even at small capacity.
    bram = max(bram, (spad.read_bandwidth + spad.write_bandwidth) / 16.0)
    lut = 1200.0 + (spad.read_bandwidth + spad.write_bandwidth) * 20.0
    if spad.indirect:
        lut += 600.0 + spad.read_bandwidth * 12.0
        bram += 1.0  # reorder buffer
    return Resources(lut=lut, ff=lut * 1.1, bram=bram)


def generate_resources(gen: GenerateEngine) -> Resources:
    return Resources(lut=350.0 + gen.bandwidth_bytes * 10.0, ff=500.0)


def recurrence_resources(rec: RecurrenceEngine) -> Resources:
    return Resources(
        lut=400.0 + rec.bandwidth_bytes * 12.0,
        ff=600.0,
        bram=max(0.5, rec.buffer_bytes / 4608.0),
    )


def register_resources(reg: RegisterEngine) -> Resources:
    return Resources(lut=250.0, ff=350.0)


def dispatcher_resources(num_engines: int, num_ports: int) -> Resources:
    """Stream dispatcher: register file, dispatch queue, scoreboards."""
    lut = 3000.0 + 150.0 * num_engines + 50.0 * num_ports
    return Resources(lut=lut, ff=lut * 1.5, bram=1.0)


def control_core_resources() -> Resources:
    """One Rocket control core with small private caches."""
    return Resources(lut=24_000.0, ff=14_000.0, bram=16.0, dsp=4.0)


def l2_resources(l2_kib: int, banks: int) -> Resources:
    """Banked inclusive L2: data BRAM + per-bank control/MSHR logic."""
    data_bram = l2_kib * 1024 / 4608.0
    tag_bram = banks * 2.0
    lut = 6000.0 + banks * 2600.0
    return Resources(lut=lut, ff=lut * 1.4, bram=data_bram + tag_bram)


def noc_resources(num_tiles: int, noc_bytes: int) -> Resources:
    """Crossbar TileLink NoC.

    Endpoints = tiles (core+accelerator share a port) + L2 + peripherals.
    The quadratic crossbar term is why the paper observes the NoC among the
    biggest LUT components (Q4).
    """
    endpoints = num_tiles + 2
    lut = 2000.0 + endpoints * endpoints * noc_bytes * 14.0
    return Resources(lut=lut, ff=lut * 1.1)


def system_total(
    per_tile: Resources, num_tiles: int, l2: Resources, noc_bytes: int
) -> Resources:
    """THE footprint of a full overlay: ``(tile + core) * tiles + l2 + noc``.

    ``per_tile`` is one accelerator tile plus its control core.  The DSE's
    fit decision and every reported system total go through this one
    expression, so a design has exactly one footprint, bit for bit.
    """
    return per_tile * num_tiles + l2 + noc_resources(num_tiles, noc_bytes)


def node_resources(adg: ADG, node: AdgNode) -> Resources:
    """Dispatch to the per-kind cost function."""
    if isinstance(node, ProcessingElement):
        return pe_resources(node)
    if isinstance(node, Switch):
        return switch_resources(
            node,
            len(adg.predecessors(node.node_id)),
            len(adg.successors(node.node_id)),
        )
    if isinstance(node, InputPortHW):
        feeders = sum(
            1
            for p in adg.predecessors(node.node_id)
            if adg.node(p).kind in ENGINE_KINDS
        )
        return in_port_resources(node, feeders=max(1, feeders))
    if isinstance(node, OutputPortHW):
        drains = sum(
            1
            for p in adg.successors(node.node_id)
            if adg.node(p).kind in ENGINE_KINDS
        )
        return out_port_resources(node, drains=max(1, drains))
    if isinstance(node, DmaEngine):
        return dma_resources(node)
    if isinstance(node, SpadEngine):
        return spad_resources(node)
    if isinstance(node, GenerateEngine):
        return generate_resources(node)
    if isinstance(node, RecurrenceEngine):
        return recurrence_resources(node)
    if isinstance(node, RegisterEngine):
        return register_resources(node)
    raise TypeError(f"no resource model for {type(node).__name__}")


#: Fig. 16 component categories.
CATEGORIES = ("pe", "n/w", "vp", "spad", "dma", "core", "noc")


def _category(node: AdgNode) -> str:
    if isinstance(node, ProcessingElement):
        return "pe"
    if isinstance(node, Switch):
        return "n/w"
    if isinstance(node, (InputPortHW, OutputPortHW)):
        return "vp"
    if isinstance(node, SpadEngine):
        return "spad"
    if isinstance(node, (DmaEngine, GenerateEngine, RecurrenceEngine, RegisterEngine)):
        return "dma"
    raise TypeError(f"no category for {type(node).__name__}")
