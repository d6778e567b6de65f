"""ASCII rendering of ADGs — a quick look at what the DSE produced.

Prints the tile in three bands, mirroring Fig. 2(c)/Fig. 8: the memory
side (engines), the port row, and the compute fabric with per-node
annotations (capabilities, widths, degree).
"""

from __future__ import annotations

from typing import List

from .graph import ADG
from .nodes import (
    DmaEngine,
    GenerateEngine,
    ProcessingElement,
    RecurrenceEngine,
    RegisterEngine,
    SpadEngine,
)
from .system import SysADG


def _pe_label(adg: ADG, pe: ProcessingElement) -> str:
    ops = sorted({c.op.value for c in pe.caps})
    shown = ",".join(ops[:3]) + ("..." if len(ops) > 3 else "")
    return f"{pe.name}[{pe.width_bits}b:{shown or 'empty'}]"


def _engine_label(engine) -> str:
    if isinstance(engine, DmaEngine):
        extra = f"{engine.bandwidth_bytes}B" + ("/ind" if engine.indirect else "")
    elif isinstance(engine, SpadEngine):
        extra = f"{engine.capacity_bytes // 1024}KiB" + (
            "/ind" if engine.indirect else ""
        )
    elif isinstance(engine, RecurrenceEngine):
        extra = f"{engine.buffer_bytes}B buf"
    elif isinstance(engine, (GenerateEngine, RegisterEngine)):
        extra = f"{engine.bandwidth_bytes}B"
    else:  # pragma: no cover - defensive
        extra = ""
    return f"{engine.name}({extra})"


def render_adg(adg: ADG, width: int = 78) -> str:
    """Multi-line ASCII summary of one tile ADG."""
    lines: List[str] = [adg.summary()]

    lines.append("memory side:")
    lines.append(
        "  " + "  ".join(_engine_label(e) for e in adg.engines)
    )

    in_ports = "  ".join(
        f"{p.name}<{p.width_bytes}B,{len(adg.predecessors(p.node_id))}fed>"
        for p in adg.in_ports
    )
    out_ports = "  ".join(
        f"{p.name}<{p.width_bytes}B>" for p in adg.out_ports
    )
    lines.append("input ports:")
    lines.extend(_wrap(in_ports, width))
    lines.append("fabric:")
    pes = "  ".join(_pe_label(adg, pe) for pe in adg.pes)
    lines.extend(_wrap(pes, width))
    switches = "  ".join(
        f"{s.name}(r{adg.radix(s.node_id)})" for s in adg.switches
    )
    lines.extend(_wrap(switches, width))
    lines.append("output ports:")
    lines.extend(_wrap(out_ports, width))
    return "\n".join(lines)


def render_sysadg(sysadg: SysADG) -> str:
    """System-level view: parameters + one rendered tile."""
    p = sysadg.params
    header = (
        f"=== {sysadg.name} ===\n"
        f"tiles={p.num_tiles}  L2={p.l2_kib}KiB x {p.l2_banks} banks  "
        f"NoC={p.noc_bytes_per_cycle}B/cyc  DRAMx{p.dram_channels}  "
        f"@{p.frequency_mhz}MHz\n"
        f"--- per-tile accelerator ---"
    )
    return header + "\n" + render_adg(sysadg.adg)


def _wrap(text: str, width: int) -> List[str]:
    words = text.split("  ")
    lines: List[str] = []
    current = "  "
    for word in words:
        if not word:
            continue
        if len(current) + len(word) + 2 > width and current.strip():
            lines.append(current)
            current = "  "
        current += word + "  "
    if current.strip():
        lines.append(current)
    return lines or ["  (none)"]
