"""Backend-neutral structural RTL representation of a sysADG.

The emitter used to be a single string-builder; this module is the seam
that replaced it.  :func:`build_design` walks the ADG once and produces a
:class:`Design` — a tree of :class:`Module`/:class:`Port`/:class:`Wire`/
:class:`Instance` records — which every registered backend renders into
its own surface syntax (``repro.rtl.backends``).  The IR carries enough
formatting metadata (header comment lines, port-group comments, trailing
wire comments) for the ``verilog`` backend to reproduce the legacy
emitter byte-for-byte, while staying abstract enough for structurally
different backends (the migen one) to ignore those hints.

Everything here is deterministic: nodes are walked in ADG order and
instances are sorted by node id, so golden files and content hashes are
stable across runs and PYTHONHASHSEED values.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple, Union

from ..adg import (
    ADG,
    AdgNode,
    DmaEngine,
    InputPortHW,
    OutputPortHW,
    ProcessingElement,
    RecurrenceEngine,
    SpadEngine,
    SysADG,
    Switch,
)


def _module_name(node: AdgNode) -> str:
    return f"{node.kind.value}_{node.node_id}"


def _width_bits(node: AdgNode) -> int:
    if isinstance(node, (ProcessingElement, Switch)):
        return node.width_bits
    if isinstance(node, (InputPortHW, OutputPortHW)):
        return node.width_bytes * 8
    return 64


@dataclass(frozen=True)
class Port:
    """One module port.  ``width=None`` is a scalar (no range)."""

    name: str
    direction: str  # "input" | "output"
    width: Optional[int] = None
    group: str = ""  # comment line introducing a port group, if any


@dataclass(frozen=True)
class Wire:
    """A named interconnect wire inside a module body."""

    name: str
    width: int
    comment: str = ""


@dataclass(frozen=True)
class Comment:
    """A body comment line (without the comment leader)."""

    text: str


@dataclass(frozen=True)
class Instance:
    """A submodule (or blackbox) instantiation.

    ``params`` holds ``#(.NAME(value))``-style parameter overrides;
    instances without parameters are rendered as clk/rst-wired stubs.
    """

    module: str
    name: str
    params: Tuple[Tuple[str, int], ...] = ()


BodyItem = Union[Comment, Wire, Instance]


@dataclass(frozen=True)
class Module:
    """One hardware module: header comments, ports, and an ordered body."""

    name: str
    kind: str  # "pe" | "switch" | "port" | "engine" | "tile" | "system"
    header: Tuple[str, ...] = ()  # raw comment lines ("" renders blank)
    decl_comment: str = ""  # trailing comment on the declaration line
    ports: Tuple[Port, ...] = ()
    body: Tuple[BodyItem, ...] = ()


@dataclass(frozen=True)
class Design:
    """A full emission unit: leaf modules, the tile wrapper, and (for
    system designs) the SoC top plus its banner."""

    name: str
    tile_banner: str
    modules: Tuple[Module, ...]
    tile: Module
    banner: Tuple[str, ...] = ()
    top: Optional[Module] = None


# ---------------------------------------------------------------------------
# sysADG -> IR construction
# ---------------------------------------------------------------------------


def build_pe_module(pe: ProcessingElement) -> Module:
    caps = ", ".join(sorted(c.name for c in pe.caps)) or "none"
    ports: List[Port] = [Port("clk", "input"), Port("rst", "input")]
    for i in range(3):
        ports.append(Port(f"operand{i}", "input", pe.width_bits))
        ports.append(Port(f"operand{i}_valid", "input"))
    ports.append(Port("result", "output", pe.width_bits))
    ports.append(Port("result_valid", "output"))
    return Module(
        name=f"pe_{pe.node_id}",
        kind="pe",
        header=(
            f"// Processing element: caps = {caps}",
            f"// delay FIFOs: depth {pe.max_delay_fifo} per operand",
        ),
        ports=tuple(ports),
        body=(
            Comment(
                "Dedicated-dataflow datapath (configured instruction; "
                "fires when all"
            ),
            Comment(f"operands are valid). Functional units: {caps}."),
        ),
    )


def build_switch_module(adg: ADG, sw: Switch) -> Module:
    n_in = max(1, len(adg.predecessors(sw.node_id)))
    n_out = max(1, len(adg.successors(sw.node_id)))
    return Module(
        name=f"sw_{sw.node_id}",
        kind="switch",
        header=(
            f"// Circuit-switched operand router ({n_in} in x {n_out} out)",
        ),
        ports=(
            Port("clk", "input"),
            Port("rst", "input"),
            Port("in_bus", "input", n_in * sw.width_bits),
            Port("in_valid", "input", n_in),
            Port("out_bus", "output", n_out * sw.width_bits),
            Port("out_valid", "output", n_out),
            Port("route_config", "input", n_in * n_out),
        ),
        body=(
            Comment("Statically-configured crossbar: each output selects "
                    "one input."),
        ),
    )


def build_engine_module(node: AdgNode) -> Module:
    detail = ""
    if isinstance(node, DmaEngine):
        detail = (
            f"// bandwidth {node.bandwidth_bytes} B/cyc, "
            f"indirect={node.indirect}, ROB {node.rob_entries} entries"
        )
    elif isinstance(node, SpadEngine):
        detail = (
            f"// capacity {node.capacity_bytes} B, "
            f"rd/wr {node.read_bandwidth}/{node.write_bandwidth} B/cyc, "
            f"indirect={node.indirect}"
        )
    elif isinstance(node, RecurrenceEngine):
        detail = f"// buffer {node.buffer_bytes} B"
    return Module(
        name=_module_name(node),
        kind="engine",
        header=(detail,),
        ports=(
            Port("clk", "input"),
            Port("rst", "input"),
            Port("stream_entry", "input", 256,
                 group="stream-dispatcher command interface"),
            Port("stream_entry_valid", "input"),
            Port("stream_done", "output"),
            Port("rd_data", "output", 512, group="memory-side data"),
            Port("rd_valid", "output"),
            Port("wr_data", "input", 512),
            Port("wr_valid", "input"),
        ),
        body=(
            Comment("Stream Issue -> Stream Request -> Stream Generation "
                    "pipeline with"),
            Comment("one-hot stream-table bypass (Fig. 11)."),
        ),
    )


def build_port_module(node: AdgNode) -> Module:
    width = _width_bits(node)
    direction = "input" if isinstance(node, InputPortHW) else "output"
    extras = ""
    if isinstance(node, InputPortHW):
        extras = (
            f"// padding={node.supports_padding} meta={node.supports_meta} "
            f"fifo_depth={node.fifo_depth}"
        )
    return Module(
        name=_module_name(node),
        kind="port",
        header=(extras,),
        decl_comment=f"vector {direction} port, {width // 8} B/cyc",
        ports=(
            Port("clk", "input"),
            Port("rst", "input"),
            Port("enq_data", "input", width),
            Port("enq_valid", "input"),
            Port("enq_ready", "output"),
            Port("deq_data", "output", width),
            Port("deq_valid", "output"),
            Port("deq_ready", "input"),
        ),
    )


def build_tile_module(adg: ADG, tile_index: int = 0) -> Module:
    body: List[BodyItem] = [
        Comment("stream dispatcher"),
        Wire("dispatch_bus", 256),
    ]
    for src, dst in adg.links():
        src_node, dst_node = adg.node(src), adg.node(dst)
        width = min(_width_bits(src_node), _width_bits(dst_node))
        body.append(
            Wire(
                f"link_{src}_{dst}",
                width,
                comment=f"{src_node.name} -> {dst_node.name}",
            )
        )
    for node in sorted(adg.nodes(), key=lambda n: n.node_id):
        name = _module_name(node)
        body.append(Instance(name, f"u_{name}"))
    return Module(
        name=f"overgen_tile_{tile_index}",
        kind="tile",
        ports=(
            Port("clk", "input"),
            Port("rst", "input"),
            Port("rocc_cmd", "input", 64,
                 group="RoCC command interface from the control core"),
            Port("rocc_cmd_valid", "input"),
            Port("tl_a", "output", 512, group="TileLink memory interface"),
            Port("tl_d", "input", 512),
        ),
        body=tuple(body),
    )


def build_tile_design(adg: ADG, tile_index: int = 0) -> Design:
    """IR for one tile: every node's module plus the tile wrapper."""
    modules: List[Module] = []
    for pe in adg.pes:
        modules.append(build_pe_module(pe))
    for sw in adg.switches:
        modules.append(build_switch_module(adg, sw))
    for port in adg.in_ports + adg.out_ports:
        modules.append(build_port_module(port))
    for engine in adg.engines:
        modules.append(build_engine_module(engine))
    return Design(
        name=f"tile_{tile_index}",
        tile_banner=(
            f"// ---- OverGen tile {tile_index}: "
            f"{len(adg.pes)} PEs, {len(adg.switches)} switches ----"
        ),
        modules=tuple(modules),
        tile=build_tile_module(adg, tile_index),
    )


def build_design(sysadg: SysADG) -> Design:
    """IR for the full SoC: tiles + cores + NoC + L2 (Fig. 8 structure)."""
    p = sysadg.params
    banner = (
        "// ====================================================="
        "================",
        f"// OverGen overlay: {sysadg.name}",
        f"// tiles={p.num_tiles} l2={p.l2_kib}KiB x {p.l2_banks} banks",
        f"// noc={p.noc_bytes_per_cycle}B/cyc "
        f"dram_channels={p.dram_channels}",
        f"// target: XCVU9P @ {p.frequency_mhz} MHz",
        "// ====================================================="
        "================",
    )
    tile_design = build_tile_design(sysadg.adg)
    body: List[BodyItem] = [
        Comment(f"crossbar NoC: {p.num_tiles} tiles + L2 + peripherals"),
        Instance(
            "tilelink_xbar",
            "u_noc",
            params=(
                ("ENDPOINTS", p.num_tiles + 2),
                ("WIDTH", p.noc_bytes_per_cycle * 8),
            ),
        ),
        Instance(
            "inclusive_l2",
            "u_l2",
            params=(("KIB", p.l2_kib), ("BANKS", p.l2_banks)),
        ),
    ]
    for t in range(p.num_tiles):
        body.append(Instance("overgen_tile_0", f"u_tile_{t}"))
        body.append(Instance("rocket_core", f"u_core_{t}"))
    top = Module(
        name="overgen_system",
        kind="system",
        ports=(
            Port("clk", "input"),
            Port("rst", "input"),
            Port("axi_mem", "output", p.dram_channels * 512,
                 group="AXI4 DRAM channel(s)"),
        ),
        body=tuple(body),
    )
    return Design(
        name=sysadg.name,
        tile_banner=tile_design.tile_banner,
        modules=tile_design.modules,
        tile=tile_design.tile,
        banner=banner,
        top=top,
    )


# ---------------------------------------------------------------------------
# Backend-independent structural accounting
# ---------------------------------------------------------------------------


def all_modules(design: Design) -> Tuple[Module, ...]:
    """Every module of a design in emission order (leaves, tile, top)."""
    mods = list(design.modules) + [design.tile]
    if design.top is not None:
        mods.append(design.top)
    return tuple(mods)


def design_stats(design: Design) -> Dict[str, int]:
    """Structural inventory computed on the IR (shared by all backends)."""
    mods = all_modules(design)
    return {
        "modules": len(mods),
        "ports": sum(len(m.ports) for m in mods),
        "wires": sum(
            1 for m in mods for item in m.body if isinstance(item, Wire)
        ),
        "instances": sum(
            1 for m in mods for item in m.body if isinstance(item, Instance)
        ),
    }
