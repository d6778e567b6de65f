"""ADG mutation operators for the spatial DSE.

Two families:

* **Random transforms** — the graph-based simulated-annealing moves
  inherited from DSAGEN: add/remove PEs, switches, links, ports, FU
  capabilities, scratchpads; resize widths, capacities and bandwidths.
  The memory-side link toggles are OverGen's spatial-memory extension
  (which engine reaches which port is part of the explored space).

* **Schedule-preserving transforms** (Section V-B) — hardware *removals*
  guided by existing schedules that add back the minimum capability needed
  to keep those schedules valid: node collapsing (delete a routing switch,
  bridge its through-routes with direct links), edge-delay preservation
  (grow delay FIFOs to cover new skew), and module-capability pruning
  (drop FU caps / ports / engines no schedule uses).
"""

from __future__ import annotations

import random
from typing import (
    Callable,
    Dict,
    Iterable,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
)

from ..adg import (
    ADG,
    AdgError,
    FuCap,
    NodeKind,
    ProcessingElement,
    SpadEngine,
    Switch,
)
from ..scheduler import Schedule

PORT_WIDTHS = (4, 8, 16, 32, 64)
SPAD_CAPACITIES = (4096, 8192, 16384, 32768, 65536)
BANDWIDTHS = (8, 16, 32, 64)
PE_WIDTHS = (64, 128, 256, 512)


class TransformFailed(Exception):
    """The chosen mutation is inapplicable to this ADG; pick another."""


# ----------------------------------------------------------------------
# Random transforms
# ----------------------------------------------------------------------
def _random_cap_pool(adg: ADG) -> List[FuCap]:
    pool: Set[FuCap] = set()
    for pe in adg.pes:
        pool |= set(pe.caps)
    if not pool:
        raise TransformFailed("no capability pool")
    return sorted(pool, key=lambda c: c.name)


def add_pe(adg: ADG, rng: random.Random) -> str:
    switches = adg.switches
    if len(switches) < 2:
        raise TransformFailed("not enough switches")
    pool = _random_cap_pool(adg)
    caps = frozenset(rng.sample(pool, k=min(len(pool), rng.randint(1, 3))))
    width = rng.choice(PE_WIDTHS)
    pe = adg.add_pe(caps=caps, width_bits=width)
    for src in rng.sample(switches, k=min(2, len(switches))):
        adg.add_link(src.node_id, pe)
    dst = rng.choice(switches)
    adg.add_link(pe, dst.node_id)
    return f"add_pe({width}b)"


def remove_pe(adg: ADG, rng: random.Random) -> str:
    pes = adg.pes
    if len(pes) <= 1:
        raise TransformFailed("cannot remove the last PE")
    victim = rng.choice(pes)
    adg.remove_node(victim.node_id)
    return f"remove_pe({victim.node_id})"


def add_switch(adg: ADG, rng: random.Random) -> str:
    switches = adg.switches
    if len(switches) < 2:
        raise TransformFailed("not enough switches")
    width = max(s.width_bits for s in switches)
    new = adg.add_switch(width_bits=width)
    others = rng.sample(switches, k=min(3, len(switches)))
    adg.add_link(others[0].node_id, new)
    for other in others[1:]:
        adg.add_link(new, other.node_id)
    return "add_switch"


def remove_switch(adg: ADG, rng: random.Random) -> str:
    switches = adg.switches
    # Keep a routing fabric: real overlays retain roughly one switch per
    # PE (Table III); total collapse destroys cross-workload flexibility.
    if len(switches) <= max(2, int(0.8 * len(adg.pes))):
        raise TransformFailed("too few switches")
    victim = rng.choice(switches)
    adg.remove_node(victim.node_id)
    return f"remove_switch({victim.node_id})"


def add_fabric_link(adg: ADG, rng: random.Random) -> str:
    switches = adg.switches
    if len(switches) < 2:
        raise TransformFailed("not enough switches")
    a, b = rng.sample(switches, k=2)
    if adg.has_link(a.node_id, b.node_id):
        raise TransformFailed("link exists")
    adg.add_link(a.node_id, b.node_id)
    return "add_link"


def remove_fabric_link(adg: ADG, rng: random.Random) -> str:
    fabric_kinds = {NodeKind.SWITCH, NodeKind.PE}
    links = [
        (s, d)
        for s, d in adg.links()
        if adg.node(s).kind in fabric_kinds and adg.node(d).kind in fabric_kinds
    ]
    if not links:
        raise TransformFailed("no fabric links")
    s, d = rng.choice(links)
    adg.remove_link(s, d)
    return "remove_link"


def toggle_memory_link(adg: ADG, rng: random.Random) -> str:
    """Add or remove one engine<->port link (spatial-memory exploration)."""
    engines = adg.engines
    if not engines:
        raise TransformFailed("no engines")
    engine = rng.choice(engines)
    if rng.random() < 0.5 and adg.in_ports:
        port = rng.choice(adg.in_ports)
        if adg.has_link(engine.node_id, port.node_id):
            adg.remove_link(engine.node_id, port.node_id)
            return "unlink_engine_port"
        adg.add_link(engine.node_id, port.node_id)
        return "link_engine_port"
    if not adg.out_ports:
        raise TransformFailed("no out ports")
    port = rng.choice(adg.out_ports)
    if adg.has_link(port.node_id, engine.node_id):
        adg.remove_link(port.node_id, engine.node_id)
        return "unlink_port_engine"
    adg.add_link(port.node_id, engine.node_id)
    return "link_port_engine"


def add_cap(adg: ADG, rng: random.Random) -> str:
    pes = adg.pes
    if not pes:
        raise TransformFailed("no PEs")
    pool = _random_cap_pool(adg)
    pe = rng.choice(pes)
    cap = rng.choice(pool)
    if cap in pe.caps:
        raise TransformFailed("cap already present")
    adg.replace_node(pe.node_id, caps=pe.caps | {cap})
    return f"add_cap({cap.name})"


def remove_cap(adg: ADG, rng: random.Random) -> str:
    pes = [p for p in adg.pes if len(p.caps) > 1]
    if not pes:
        raise TransformFailed("no prunable PEs")
    pe = rng.choice(pes)
    cap = rng.choice(sorted(pe.caps, key=lambda c: c.name))
    adg.replace_node(pe.node_id, caps=pe.caps - {cap})
    return f"remove_cap({cap.name})"


def resize_pe_width(adg: ADG, rng: random.Random) -> str:
    pes = adg.pes
    if not pes:
        raise TransformFailed("no PEs")
    pe = rng.choice(pes)
    width = rng.choice([w for w in PE_WIDTHS if w != pe.width_bits])
    adg.replace_node(pe.node_id, width_bits=width)
    return f"pe_width({width})"


def resize_port(adg: ADG, rng: random.Random) -> str:
    ports = adg.in_ports + adg.out_ports
    if not ports:
        raise TransformFailed("no ports")
    port = rng.choice(ports)
    width = rng.choice([w for w in PORT_WIDTHS if w != port.width_bytes])
    adg.replace_node(port.node_id, width_bytes=width)
    return f"port_width({width})"


def add_port(adg: ADG, rng: random.Random) -> str:
    switches = adg.switches
    engines = adg.engines
    if not switches or not engines:
        raise TransformFailed("no fabric/engines")
    width = rng.choice(PORT_WIDTHS)
    if rng.random() < 0.6:
        port = adg.add_in_port(
            width_bytes=width, supports_padding=True, supports_meta=True
        )
        adg.add_link(port, rng.choice(switches).node_id)
        for engine in engines:
            adg.add_link(engine.node_id, port)
        return f"add_in_port({width})"
    port = adg.add_out_port(width_bytes=width)
    adg.add_link(rng.choice(switches).node_id, port)
    for engine in engines:
        adg.add_link(port, engine.node_id)
    return f"add_out_port({width})"


def remove_port(adg: ADG, rng: random.Random) -> str:
    ports = adg.in_ports + adg.out_ports
    if len(adg.in_ports) <= 1 or len(adg.out_ports) <= 1:
        raise TransformFailed("too few ports")
    port = rng.choice(ports)
    adg.remove_node(port.node_id)
    return "remove_port"


def mutate_spad(adg: ADG, rng: random.Random) -> str:
    """Add, remove, or resize a scratchpad (capacity/bandwidth/indirect)."""
    spads = adg.spads
    roll = rng.random()
    if roll < 0.25 or not spads:
        capacity = rng.choice(SPAD_CAPACITIES)
        bw = rng.choice(BANDWIDTHS)
        spad = adg.add_spad(
            capacity_bytes=capacity,
            read_bandwidth=bw,
            write_bandwidth=bw,
            indirect=rng.random() < 0.3,
        )
        for port in adg.in_ports:
            adg.add_link(spad, port.node_id)
        for port in adg.out_ports:
            adg.add_link(port.node_id, spad)
        return f"add_spad({capacity})"
    spad = rng.choice(spads)
    if roll < 0.4:
        adg.remove_node(spad.node_id)
        return "remove_spad"
    if roll < 0.6:
        capacity = rng.choice(SPAD_CAPACITIES)
        adg.replace_node(spad.node_id, capacity_bytes=capacity)
        return f"spad_capacity({capacity})"
    if roll < 0.8:
        bw = rng.choice(BANDWIDTHS)
        adg.replace_node(
            spad.node_id, read_bandwidth=bw, write_bandwidth=bw
        )
        return f"spad_bw({bw})"
    adg.replace_node(spad.node_id, indirect=not spad.indirect)
    return "spad_indirect_toggle"


def mutate_engine_bandwidth(adg: ADG, rng: random.Random) -> str:
    dmas = adg.dmas
    recs = adg.of_kind(NodeKind.RECURRENCE)
    choices = []
    if dmas:
        choices.append("dma")
    if recs:
        choices.append("rec")
    if not choices:
        raise TransformFailed("no engines")
    which = rng.choice(choices)
    if which == "dma":
        dma = rng.choice(dmas)
        bw = rng.choice([b for b in BANDWIDTHS if b != dma.bandwidth_bytes])
        adg.replace_node(dma.node_id, bandwidth_bytes=bw)
        return f"dma_bw({bw})"
    rec = rng.choice(recs)
    if rng.random() < 0.5:
        bw = rng.choice([b for b in BANDWIDTHS if b != rec.bandwidth_bytes])
        adg.replace_node(rec.node_id, bandwidth_bytes=bw)
        return f"rec_bw({bw})"
    buf = rng.choice((256, 512, 1024, 2048, 4096, 8192))
    adg.replace_node(rec.node_id, buffer_bytes=buf)
    return f"rec_buffer({buf})"


RANDOM_TRANSFORMS = (
    add_pe,
    remove_pe,
    add_switch,
    remove_switch,
    add_fabric_link,
    remove_fabric_link,
    toggle_memory_link,
    add_cap,
    remove_cap,
    resize_pe_width,
    resize_port,
    add_port,
    remove_port,
    mutate_spad,
    mutate_engine_bandwidth,
)


def apply_random_transform(adg: ADG, rng: random.Random, tries: int = 8) -> str:
    """Apply one applicable random transform; raises after ``tries`` misses."""
    for _ in range(tries):
        op = rng.choice(RANDOM_TRANSFORMS)
        try:
            return op(adg, rng)
        except (TransformFailed, AdgError):
            continue
    raise TransformFailed("no applicable transform found")


# ----------------------------------------------------------------------
# Schedule-preserving transforms (Section V-B)
# ----------------------------------------------------------------------
def collapse_switch(
    adg: ADG,
    switch_id: int,
    schedules: Sequence[Schedule],
) -> bool:
    """Node collapsing: delete a switch, bridging routes that pass through.

    For every scheduled route traversing the switch, a direct link from the
    preceding hop to the following hop is added before deletion, so the
    route remains realizable (Fig. 7a).  Returns False when the switch is a
    route *endpoint* somewhere (cannot collapse) or not a switch.
    """
    node = adg.node(switch_id) if adg.has_node(switch_id) else None
    if node is None or node.kind is not NodeKind.SWITCH:
        return False
    bridges: Set[Tuple[int, int]] = set()
    for schedule in schedules:
        for key in schedule.routes_through(switch_id):
            path = schedule.routes[key]
            if path[0] == switch_id or path[-1] == switch_id:
                return False
            idx = path.index(switch_id)
            bridges.add((path[idx - 1], path[idx + 1]))
    for src, dst in bridges:
        if src == dst:
            continue
        try:
            if not adg.has_link(src, dst):
                adg.add_link(src, dst)
        except AdgError:
            return False
    adg.remove_node(switch_id)
    # Patch the stored routes so they stay valid without rescheduling.
    for schedule in schedules:
        for key in schedule.routes_through(switch_id):
            path = schedule.routes[key]
            schedule.routes[key] = tuple(n for n in path if n != switch_id)
    return True


def preserve_edge_delays(
    adg: ADG,
    schedules: Sequence[Schedule],
) -> int:
    """Edge-delay preservation: deepen PE delay FIFOs to cover skew.

    After collapses shorten some operand paths, the per-PE operand skew can
    exceed the configured FIFO depth; this grows ``max_delay_fifo`` to the
    observed requirement (Fig. 7b).  Returns the number of PEs adjusted.
    """
    adjusted = 0
    needed: Dict[int, int] = {}
    for schedule in schedules:
        per_pe: Dict[int, List[int]] = {}
        for (src, dst, _slot), path in schedule.routes.items():
            node = schedule.mdfg.node(dst)
            from ..dfg import ComputeNode

            if isinstance(node, ComputeNode):
                pe = schedule.placement.get(dst)
                if pe is not None:
                    per_pe.setdefault(pe, []).append(len(path) - 1)
        for pe, lengths in per_pe.items():
            if len(lengths) >= 2:
                skew = max(lengths) - min(lengths)
                needed[pe] = max(needed.get(pe, 0), skew)
    for pe_id, depth in needed.items():
        if not adg.has_node(pe_id):
            continue
        pe = adg.node(pe_id)
        if isinstance(pe, ProcessingElement) and pe.max_delay_fifo < depth:
            adg.replace_node(pe_id, max_delay_fifo=depth)
            adjusted += 1
    return adjusted


def prune_capabilities(
    adg: ADG,
    schedules: Sequence[Schedule],
) -> int:
    """Module-capability pruning: drop hardware no schedule uses.

    Removes unused FU capabilities from PEs, narrows over-wide ports to the
    widest scheduled use, and deletes engines that no stream binds to.
    Returns the number of modifications made.
    """
    from ..adg import cap_for
    from ..dfg import ComputeNode, InputPortNode, OutputPortNode, StreamNode

    changes = 0
    used_caps: Dict[int, Set[FuCap]] = {}
    used_width: Dict[int, int] = {}
    used_engines: Set[int] = set()
    pes_in_use: Set[int] = set()
    ports_in_use: Set[int] = set()
    for schedule in schedules:
        for dfg_id, hw_id in schedule.placement.items():
            node = schedule.mdfg.node(dfg_id)
            if isinstance(node, ComputeNode):
                used_caps.setdefault(hw_id, set()).add(
                    cap_for(node.op, node.dtype)
                )
                pes_in_use.add(hw_id)
            elif isinstance(node, (InputPortNode, OutputPortNode)):
                used_width[hw_id] = max(
                    used_width.get(hw_id, 0), node.width_bytes
                )
                ports_in_use.add(hw_id)
            elif isinstance(node, StreamNode):
                used_engines.add(hw_id)
    for pe in adg.pes:
        needed = used_caps.get(pe.node_id)
        if needed is None:
            continue  # unused PE: removal is the random DSE's call
        if pe.caps - needed:
            adg.replace_node(pe.node_id, caps=frozenset(needed))
            changes += 1
    for port in adg.in_ports + adg.out_ports:
        width = used_width.get(port.node_id)
        if width is not None and port.width_bytes > width:
            snapped = min(w for w in PORT_WIDTHS if w >= width)
            if snapped < port.width_bytes:
                adg.replace_node(port.node_id, width_bytes=snapped)
                changes += 1
    for engine in adg.engines:
        if engine.kind is NodeKind.DMA:
            continue  # always keep a DMA: fallback path for everything
        if engine.node_id not in used_engines:
            adg.remove_node(engine.node_id)
            changes += 1
    return changes


def collapse_random_switch(
    adg: ADG,
    schedules: Sequence[Schedule],
    rng: random.Random,
) -> Optional[str]:
    """Try collapsing one randomly chosen switch; None if nothing worked."""
    switches = adg.switches
    if len(switches) <= max(2, int(0.8 * len(adg.pes))):
        return None
    rng.shuffle(switches)
    for sw in switches[: min(6, len(switches))]:
        if collapse_switch(adg, sw.node_id, schedules):
            preserve_edge_delays(adg, schedules)
            return f"collapse_switch({sw.node_id})"
    return None


# ----------------------------------------------------------------------
# Generality padding (monotone growth after the anneal)
# ----------------------------------------------------------------------
#: ``fits()`` answers "does the chosen tile count still fit the FPGA?" for
#: the ADG as it stands; every padding step keeps a change only if it does.
Fits = Callable[[], bool]


def _try_link(adg: ADG, src: int, dst: int, fits: Fits) -> bool:
    adg.add_link(src, dst)
    if fits():
        return True
    adg.remove_link(src, dst)
    return False


def _try_replace(adg: ADG, node, fits: Fits, **fields) -> bool:
    old = {name: getattr(node, name) for name in fields}
    adg.replace_node(node.node_id, **fields)
    if fits():
        return True
    adg.replace_node(node.node_id, **old)
    return False


def _try_next_rung(
    adg: ADG, nodes: Iterable, attr: str, ladder: Sequence[int], fits: Fits
) -> bool:
    """Move the smallest node not yet at the top of ``ladder`` up one rung."""
    for node in sorted(nodes, key=lambda n: (getattr(n, attr), n.node_id)):
        higher = [v for v in ladder if v > getattr(node, attr)]
        if higher:
            return _try_replace(adg, node, fits, **{attr: higher[0]})
    return False


def _switch_neighbours(adg: ADG, node_ids: Iterable[int]) -> List[int]:
    return [n for n in node_ids if adg.node(n).kind is NodeKind.SWITCH]


def pad_reattach_ports(adg: ADG, fits: Fits) -> bool:
    switches = adg.switches
    if not switches:
        return False
    for port in adg.in_ports:
        if not _switch_neighbours(adg, adg.successors(port.node_id)):
            sw = switches[port.node_id % len(switches)].node_id
            if _try_link(adg, port.node_id, sw, fits):
                return True
    for port in adg.out_ports:
        feeders = _switch_neighbours(adg, adg.predecessors(port.node_id))
        if len(feeders) < 2:
            candidates = [sw for sw in switches if sw.node_id not in feeders]
            if candidates:
                sw = candidates[port.node_id % len(candidates)].node_id
                if _try_link(adg, sw, port.node_id, fits):
                    return True
    return False


def pad_switch_ring(adg: ADG, fits: Fits) -> bool:
    ring = sorted(sw.node_id for sw in adg.switches)
    if len(ring) < 2:
        return False
    for a, b in zip(ring, ring[1:] + ring[:1]):
        if not adg.has_link(a, b) and _try_link(adg, a, b, fits):
            return True
    return False


def pad_pe_fan(adg: ADG, fits: Fits) -> bool:
    switches = adg.switches
    if not switches:
        return False
    for pe in adg.pes:
        sw_in = _switch_neighbours(adg, adg.predecessors(pe.node_id))
        sw_out = _switch_neighbours(adg, adg.successors(pe.node_id))
        if len(sw_in) < 3:
            candidates = [sw for sw in switches if sw.node_id not in sw_in]
            if candidates:
                sw = candidates[pe.node_id % len(candidates)].node_id
                if _try_link(adg, sw, pe.node_id, fits):
                    return True
        if not sw_out:
            sw = switches[pe.node_id % len(switches)].node_id
            if _try_link(adg, pe.node_id, sw, fits):
                return True
    return False


def pad_missing_caps(adg: ADG, fits: Fits) -> bool:
    pool: Set[FuCap] = set().union(*(pe.caps for pe in adg.pes))
    for pe in sorted(adg.pes, key=lambda p: (len(p.caps), p.node_id)):
        missing = sorted(pool - pe.caps, key=lambda c: c.name)
        if missing:
            return _try_replace(adg, pe, fits, caps=pe.caps | {missing[0]})
    return False


def pad_memory_links(adg: ADG, fits: Fits) -> bool:
    for engine in adg.engines:
        for port in adg.in_ports:
            if not adg.has_link(engine.node_id, port.node_id):
                return _try_link(adg, engine.node_id, port.node_id, fits)
        for port in adg.out_ports:
            if not adg.has_link(port.node_id, engine.node_id):
                return _try_link(adg, port.node_id, engine.node_id, fits)
    return False


def pad_add_ports(adg: ADG, fits: Fits) -> bool:
    switches = adg.switches
    if not switches:
        return False
    if len(adg.in_ports) < 12:
        port = adg.add_in_port(
            width_bytes=8, supports_padding=True, supports_meta=True
        )
        adg.add_link(port, switches[0].node_id)
        for engine in adg.engines:
            adg.add_link(engine.node_id, port)
        if fits():
            return True
        adg.remove_node(port)
    if len(adg.out_ports) < 6:
        port = adg.add_out_port(width_bytes=8)
        adg.add_link(switches[-1].node_id, port)
        for engine in adg.engines:
            adg.add_link(port, engine.node_id)
        if fits():
            return True
        adg.remove_node(port)
    return False


def pad_add_pe(adg: ADG, fits: Fits) -> bool:
    switches = adg.switches
    if not switches or not adg.pes:
        return False
    donor = max(adg.pes, key=lambda p: (len(p.caps), p.node_id))
    pe_id = adg.add_pe(caps=donor.caps, width_bits=donor.width_bits)
    sw = switches[pe_id % len(switches)]
    adg.add_link(sw.node_id, pe_id)
    adg.add_link(pe_id, sw.node_id)
    if fits():
        return True
    adg.remove_node(pe_id)
    return False


def pad_widen_ports(adg: ADG, fits: Fits) -> bool:
    ports = adg.in_ports + adg.out_ports
    return _try_next_rung(adg, ports, "width_bytes", PORT_WIDTHS, fits)


def pad_widen_pes(adg: ADG, fits: Fits) -> bool:
    return _try_next_rung(adg, adg.pes, "width_bits", PE_WIDTHS, fits)


def pad_grow_spad(adg: ADG, fits: Fits) -> bool:
    return _try_next_rung(
        adg, adg.spads, "capacity_bytes", SPAD_CAPACITIES, fits
    )


#: Repair steps (re-attaching ports, restoring PE fan-in, adding missing
#: capabilities) run before pure growth (extra ports and PEs, wider ports,
#: bigger scratchpads), so cross-workload flexibility is restored before
#: bandwidth is gold-plated.
PADDING_STEPS = (
    pad_reattach_ports,
    pad_switch_ring,
    pad_pe_fan,
    pad_missing_caps,
    pad_memory_links,
    pad_add_ports,
    pad_add_pe,
    pad_widen_ports,
    pad_widen_pes,
    pad_grow_spad,
)


def pad_for_generality(adg: ADG, fits: Fits) -> int:
    """Grow ``adg`` into spare FPGA budget; returns the step count.

    Only monotone *additions* are applied, so every existing schedule
    stays valid.  After each successful step the scan restarts from the
    first step, so a repair that growth made possible runs first.
    """
    steps = 0
    while steps < 1000 and any(step(adg, fits) for step in PADDING_STEPS):
        steps += 1
    return steps
