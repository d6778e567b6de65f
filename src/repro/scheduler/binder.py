"""Memory-side binding: array nodes -> engines, streams -> engines + ports.

This implements the mDFG scheduling constraints of Section IV-B:

1. a scratchpad must have remaining capacity for the array (double-buffered
   footprint already included by the compiler);
2. there must be a legal (point-to-point) route from the engine to the
   hardware port the stream uses;
3. the engine must support the stream's access pattern (indirect access
   needs indirect-capable hardware; recurrences must fit the recurrence
   engine's buffer).

Each rule is one predicate here (:func:`spad_misfit`, :func:`indirect_ok`,
:func:`recurrence_fits`, :func:`linked_ports`): the engine contract, which
the binder applies and :func:`repro.scheduler.legality.engine_violations`
checks.  :func:`bind_engines` binds arrays and streams to engines;
:func:`bind_memory` then gives each stream a hardware port.

Arrays are bound highest-memory-reuse first, and arrays whose reuse is
already captured at the port (stationary) yield the scratchpad to others —
the prioritization the paper motivates with the FIR example.
"""

from __future__ import annotations

from itertools import islice
from typing import Dict, Optional, Set, Tuple, Union

from ..adg import ADG, DmaEngine, NodeKind, RecurrenceEngine, SpadEngine
from ..dfg import (
    ArrayNode,
    ArrayPlacement,
    InputPortNode,
    MDFG,
    StreamKind,
    StreamNode,
)
from .schedule import Schedule, ScheduleError


def _required_port_bytes(mdfg: MDFG, stream: StreamNode) -> int:
    port = mdfg.node(stream.port)
    return port.width_bytes


def effective_footprint(array: ArrayNode, mdfg: MDFG) -> float:
    """Scratchpad bytes the array needs on ONE tile.

    Partitionable arrays split across tiles along the parallel loop, so a
    tile only buffers its slice (the unified DSE reasons per tile).
    """
    if not array.partitionable:
        return float(array.footprint_bytes)
    share = max(1.0, min(16.0, mdfg.tile_parallelism))
    return array.footprint_bytes / share


def _array_priority(array: ArrayNode, mdfg: MDFG) -> float:
    """Scratchpad desirability: reuse not already captured at ports.

    Stationary port reuse shrinks the bandwidth an array actually demands,
    so such arrays gain less from scratchpad placement (Section IV-B).
    """
    stationary = 1.0
    for sid in array.streams:
        stream = mdfg.node(sid)
        stationary = max(stationary, float(stream.stationary_reuse))
    return array.memory_reuse / stationary


def spad_misfit(
    spad: SpadEngine, array: ArrayNode, need: float, free: float
) -> Optional[str]:
    """Which of rules 1 and 3 ``array``, needing ``need`` bytes
    (:func:`effective_footprint`), breaks on ``spad`` with ``free`` left."""
    if free < need:
        return "capacity"
    if array.indirect_target and not spad.indirect:
        return "indirect"
    return None


def indirect_ok(engine: Union[SpadEngine, DmaEngine], indirect: bool) -> bool:
    """Rule 3: indirect access needs an indirect-capable engine."""
    return not indirect or engine.indirect


def recurrence_fits(stream: StreamNode, engine: RecurrenceEngine) -> bool:
    """Rule 3: a recurrence's window fits the recurrence engine's buffer."""
    return stream.recurrence_depth * stream.dtype.bytes <= engine.buffer_bytes


def linked_ports(adg: ADG, engine_id: int, inbound: bool) -> Set[int]:
    """Rule 2: the hardware ports a stream on ``engine_id`` may use — input
    ports it feeds over a link engine -> port (``inbound``), or output
    ports that drain into it over a link port -> engine."""
    return adg.successors(engine_id) if inbound else adg.predecessors(engine_id)


def bind_engines(mdfg: MDFG, adg: ADG) -> Dict[int, int]:
    """Bind arrays, then streams, to engines: dfg node id -> engine id.

    Arrays lead the map, highest priority first; streams follow in mDFG
    order.  No port is chosen yet, so this is the binding the scheduler
    starts from (``MemoryBinding`` reads only its streams).

    Raises:
        ScheduleError: when an array or stream finds no engine.
    """
    spads = adg.spads
    free_capacity = {s.node_id: float(s.capacity_bytes) for s in spads}
    dmas = adg.dmas
    streams = mdfg.streams
    if not dmas and any(s.is_memory for s in streams):
        raise ScheduleError("no DMA engine for memory streams", stage="binding")

    # Array -> engine decisions (streams follow their array).
    engine_of: Dict[int, int] = {}
    array_engine: Dict[str, int] = {}
    arrays = sorted(
        mdfg.arrays, key=lambda a: (-_array_priority(a, mdfg), a.array)
    )
    for array in arrays:
        target: Optional[int] = None
        if array.preferred is ArrayPlacement.SPAD:
            need = effective_footprint(array, mdfg)
            fits = [
                s for s in spads
                if spad_misfit(s, array, need, free_capacity[s.node_id]) is None
            ]
            if fits:
                # Prefer the most free capacity (load balance across spads).
                target = min(
                    fits, key=lambda s: (-free_capacity[s.node_id], s.node_id)
                ).node_id
                free_capacity[target] -= need
        if target is None:
            if not dmas:
                raise ScheduleError(f"array {array.array}: no engine available", stage="binding")
            target = dmas[0].node_id
            if not indirect_ok(dmas[0], array.indirect_target):
                raise ScheduleError(
                    f"array {array.array}: indirect access unsupported by DMA",
                    stage="binding",
                )
        array_engine[array.array] = target
        engine_of[array.node_id] = target

    # Stream -> engine (+ auxiliary engine constraints).
    for stream in streams:
        if stream.kind is StreamKind.RECURRENCE:
            fitting = [
                r
                for r in adg.of_kind(NodeKind.RECURRENCE)
                if recurrence_fits(stream, r)
            ]
            if not fitting:
                raise ScheduleError(
                    f"recurrence of depth {stream.recurrence_depth} does not "
                    f"fit any recurrence engine",
                    stage="binding",
                )
            engine_of[stream.node_id] = fitting[0].node_id
        elif stream.kind is StreamKind.GENERATE:
            gens = adg.of_kind(NodeKind.GENERATE)
            if not gens:
                raise ScheduleError("no generate engine available", stage="binding")
            engine_of[stream.node_id] = gens[0].node_id
        elif stream.kind is StreamKind.REGISTER:
            regs = adg.of_kind(NodeKind.REGISTER)
            if not regs:
                raise ScheduleError("no register engine available", stage="binding")
            engine_of[stream.node_id] = regs[0].node_id
        else:
            engine = adg.node(array_engine[stream.array])
            if not indirect_ok(engine, stream.indirect):
                if isinstance(engine, SpadEngine):
                    engine = dmas[0]
                if not indirect_ok(engine, stream.indirect):
                    raise ScheduleError(
                        f"indirect stream on {stream.array}: no indirect-"
                        f"capable engine",
                        stage="binding",
                    )
            engine_of[stream.node_id] = engine.node_id
    return engine_of


def bind_memory(mdfg: MDFG, adg: ADG, schedule: Schedule) -> None:
    """Bind arrays, streams, and DFG ports to engines and hardware ports.

    Raises:
        ScheduleError: when any constraint cannot be met (the variant is
            unschedulable on this ADG).
    """
    engine_of = bind_engines(mdfg, adg)
    streams = mdfg.streams
    arrays = len(engine_of) - len(streams)  # the arrays lead engine_of
    schedule.placement.update(islice(engine_of.items(), arrays))

    # ------------------------------------------------------------------
    # Stream -> hardware port, respecting engine->port reachability.
    # Widest streams first (hardest to place).
    # ------------------------------------------------------------------
    used_ports: Set[int] = set()
    ports = (adg.in_ports, adg.out_ports)
    order = sorted(
        streams,
        key=lambda s: (-_required_port_bytes(mdfg, s), s.node_id),
    )
    for stream in order:
        engine_id = engine_of[stream.node_id]
        hw_port = _choose_port(mdfg, adg, ports, stream, engine_id, used_ports)
        if hw_port is None and stream.is_memory:
            # Fallback: rebind the whole array to DMA and retry (a spad may
            # simply not reach any suitable port on this topology).  A
            # memory stream implies a DMA (bind_engines checked).
            fallback = adg.dmas[0].node_id
            if engine_id != fallback:
                engine_id = fallback
                schedule.placement[
                    _array_node_id(mdfg, stream.array)
                ] = engine_id
                hw_port = _choose_port(
                    mdfg, adg, ports, stream, engine_id, used_ports
                )
        if hw_port is None:
            raise ScheduleError(
                f"stream {stream.node_id} ({stream.kind}, "
                f"{_required_port_bytes(mdfg, stream)}B) has no reachable port",
                stage="binding",
            )
        used_ports.add(hw_port)
        schedule.placement[stream.node_id] = engine_id
        schedule.placement[stream.port] = hw_port


def _array_node_id(mdfg: MDFG, array: str) -> int:
    for node in mdfg.arrays:
        if node.array == array:
            return node.node_id
    raise ScheduleError(f"unknown array {array}", stage="binding")


def _choose_port(
    mdfg: MDFG,
    adg: ADG,
    ports: Tuple[list, list],
    stream: StreamNode,
    engine_id: int,
    used: Set[int],
) -> Optional[int]:
    """Smallest adequate unused hardware port reachable from the engine;
    ``ports`` is the ADG's ``(in_ports, out_ports)``."""
    needed = _required_port_bytes(mdfg, stream)
    dfg_port = mdfg.node(stream.port)
    inbound = isinstance(dfg_port, InputPortNode)
    linked = linked_ports(adg, engine_id, inbound)
    if inbound:
        padding = dfg_port.needs_padding
        candidates = [
            p
            for p in ports[0]
            if p.node_id not in used
            and p.width_bytes >= needed
            and p.node_id in linked
            and (not padding or p.supports_padding)
        ]
    else:
        candidates = [
            p
            for p in ports[1]
            if p.node_id not in used
            and p.width_bytes >= needed
            and p.node_id in linked
        ]
    if not candidates:
        return None
    candidates.sort(key=lambda p: (p.width_bytes, p.node_id))
    return candidates[0].node_id
