"""Compute placement and fabric routing.

Instructions place onto dedicated PEs (one instruction each) in topological
order; each candidate PE is scored by the routed distance from the already-
placed operand producers, and the best candidate whose operand routes all
succeed is committed.  After placement, result edges route to the bound
output ports, and per-PE operand arrival skew is checked against the PE's
delay-FIFO depth (pipeline-balance requirement, Section V-B).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set, Tuple

from ..adg import ADG, ProcessingElement, cap_for
from ..dfg import (
    ComputeNode,
    InputPortNode,
    MDFG,
    OutputPortNode,
)
from .router import RoutingState, find_route, route_distances
from .schedule import EdgeKey, Schedule, ScheduleError


def _value_width_bits(mdfg: MDFG, dfg_node: int) -> int:
    node = mdfg.node(dfg_node)
    if isinstance(node, ComputeNode):
        return node.width_bits
    if isinstance(node, InputPortNode):
        return node.width_bytes * 8
    if isinstance(node, OutputPortNode):
        return node.width_bytes * 8
    raise ScheduleError(
        f"node {dfg_node} does not carry a fabric value", stage="placement"
    )


def topo_compute_order(mdfg: MDFG) -> List[ComputeNode]:
    """Compute nodes in dependency order (operands first)."""
    nodes = {n.node_id: n for n in mdfg.compute_nodes}
    order: List[ComputeNode] = []
    visited: Set[int] = set()

    def visit(nid: int) -> None:
        if nid in visited or nid not in nodes:
            return
        visited.add(nid)
        for operand in nodes[nid].operands:
            visit(operand)
        order.append(nodes[nid])

    for nid in sorted(nodes):
        visit(nid)
    return order


def place_and_route(
    mdfg: MDFG,
    adg: ADG,
    schedule: Schedule,
    state: RoutingState,
    pinned: Optional[Dict[int, int]] = None,
) -> None:
    """Place all compute nodes and route every fabric edge.

    ``pinned`` optionally fixes some compute placements (schedule repair
    keeps surviving placements and re-places only the broken ones).

    Raises:
        ScheduleError: if any instruction or route cannot be mapped.
    """
    pinned = pinned or {}
    pes = adg.pes
    used_pes: Set[int] = set(pinned.values())
    used_pes.update(
        hw
        for dfg, hw in schedule.placement.items()
        if isinstance(mdfg.node(dfg), ComputeNode)
    )

    for compute in topo_compute_order(mdfg):
        if compute.node_id in schedule.placement:
            continue
        if compute.node_id in pinned:
            _commit_placement(
                mdfg, adg, schedule, state, compute, pinned[compute.node_id]
            )
            used_pes.add(pinned[compute.node_id])
            continue
        candidates = _candidate_pes(pes, compute, used_pes)
        if not candidates:
            raise ScheduleError(
                f"no PE supports {compute.op} x{compute.lanes} "
                f"{compute.dtype.name}",
                stage="placement",
            )
        placed = False
        for pe_id, _score in _rank_candidates(
            mdfg, adg, schedule, state, compute, candidates
        ):
            if _try_commit(mdfg, adg, schedule, state, compute, pe_id):
                used_pes.add(pe_id)
                placed = True
                break
        if not placed:
            raise ScheduleError(
                f"could not route operands of compute {compute.node_id} "
                f"({compute.op})",
                stage="routing",
            )

    _route_output_edges(mdfg, adg, schedule, state)
    _check_delay_skew(mdfg, adg, schedule)


def _candidate_pes(
    pes: List[ProcessingElement], compute: ComputeNode, used: Set[int]
) -> List[ProcessingElement]:
    """Free PEs of ``pes`` that :meth:`ProcessingElement.supports`
    ``compute``."""
    cap = cap_for(compute.op, compute.dtype)
    bits = compute.lanes * compute.dtype.bits
    return [
        pe
        for pe in pes
        if pe.node_id not in used and cap in pe.caps and bits <= pe.width_bits
    ]


def _rank_candidates(mdfg, adg, schedule, state, compute, candidates):
    """Candidates sorted by total route distance from placed sources."""
    reach = [
        route_distances(adg, state, src_hw, src_dfg, width)
        for src_hw, src_dfg, width in _operand_sources(mdfg, schedule, compute)
    ]
    scored = []
    for pe in candidates:
        hops = [hops_from.get(pe.node_id) for hops_from in reach]
        if None not in hops:
            scored.append((pe.node_id, sum(hops)))
    scored.sort(key=lambda item: (item[1], item[0]))
    return scored


def _operand_sources(mdfg, schedule, compute) -> List[Tuple[int, int, int]]:
    """(src hardware, src dfg node, width bits) per routed operand."""
    out = []
    for edge in mdfg.fabric_in_edges(compute.node_id):
        src_dfg = edge[0]
        src_hw = schedule.placement.get(src_dfg)
        if src_hw is None:
            raise ScheduleError(
                f"operand {src_dfg} of compute {compute.node_id} is unplaced",
                stage="placement",
            )
        out.append((src_hw, src_dfg, _value_width_bits(mdfg, src_dfg)))
    return out


def _try_commit(mdfg, adg, schedule, state, compute, pe_id) -> bool:
    """Route all operand edges to ``pe_id``; commit on success."""
    trial = state.clone()
    routes: Dict[EdgeKey, Tuple[int, ...]] = {}
    for edge in mdfg.fabric_in_edges(compute.node_id):
        src_dfg = edge[0]
        src_hw = schedule.placement[src_dfg]
        width = _value_width_bits(mdfg, src_dfg)
        path = find_route(adg, trial, src_hw, pe_id, src_dfg, width)
        if path is None:
            return False
        trial.claim_path(path, src_dfg)
        routes[edge] = path
    state.link_owner = trial.link_owner
    schedule.placement[compute.node_id] = pe_id
    schedule.routes.update(routes)
    return True


def _commit_placement(mdfg, adg, schedule, state, compute, pe_id) -> None:
    if not _try_commit(mdfg, adg, schedule, state, compute, pe_id):
        raise ScheduleError(
            f"pinned placement of compute {compute.node_id} on pe{pe_id} "
            f"cannot be routed",
            stage="routing",
        )


def _route_output_edges(mdfg, adg, schedule, state) -> None:
    """Route fabric edges terminating at output ports (results + passthrough).

    If the port chosen by the memory binder turns out to be unreachable
    from the producer (link congestion), the edge is re-bound to another
    compatible unused output port before giving up.
    """
    for node in mdfg.output_ports:
        hw_port = schedule.placement.get(node.node_id)
        if hw_port is None:
            raise ScheduleError(
                f"output port {node.node_id} is unbound", stage="placement"
            )
        for edge in mdfg.fabric_in_edges(node.node_id):
            if edge in schedule.routes:
                continue
            src_dfg = edge[0]
            src_hw = schedule.placement.get(src_dfg)
            if src_hw is None:
                raise ScheduleError(
                    f"producer {src_dfg} unplaced", stage="placement"
                )
            width = _value_width_bits(mdfg, src_dfg)
            path = find_route(adg, state, src_hw, hw_port, src_dfg, width)
            if path is None:
                path = _rebind_output_port(
                    mdfg, adg, schedule, state, node, src_dfg, src_hw, width
                )
                if path is None:
                    raise ScheduleError(
                        f"no route from {src_hw} to output port {hw_port}",
                        stage="routing",
                    )
                hw_port = path[-1]
            state.claim_path(path, src_dfg)
            schedule.routes[edge] = path


def _rebind_output_port(
    mdfg, adg, schedule, state, port_node, src_dfg, src_hw, width
):
    """Try alternative hardware output ports for an unroutable result edge."""
    streams = [s for s in mdfg.streams if s.port == port_node.node_id]
    used = {
        hw
        for dfg, hw in schedule.placement.items()
        if isinstance(mdfg.node(dfg), OutputPortNode)
    }
    for candidate in adg.out_ports:
        if candidate.node_id in used:
            continue
        if candidate.width_bytes < port_node.width_bytes:
            continue
        # The port must still reach every engine its streams bind to.
        reachable = all(
            adg.has_link(candidate.node_id, schedule.placement[s.node_id])
            for s in streams
            if s.node_id in schedule.placement
        )
        if not reachable:
            continue
        path = find_route(
            adg, state, src_hw, candidate.node_id, src_dfg, width
        )
        if path is not None:
            schedule.placement[port_node.node_id] = candidate.node_id
            return path
    return None


def _check_delay_skew(mdfg, adg, schedule) -> None:
    """Operand arrival skew per PE must fit its delay FIFOs."""
    for compute in mdfg.compute_nodes:
        pe_id = schedule.placement.get(compute.node_id)
        if pe_id is None:
            continue
        lengths = []
        for edge in mdfg.fabric_in_edges(compute.node_id):
            path = schedule.routes.get(edge)
            if path is not None:
                lengths.append(len(path) - 1)
        if len(lengths) >= 2:
            skew = max(lengths) - min(lengths)
            schedule.delay_fifo_needed[pe_id] = max(
                schedule.delay_fifo_needed.get(pe_id, 0), skew
            )
            pe = adg.node(pe_id)
            if skew > pe.max_delay_fifo:
                raise ScheduleError(
                    f"operand skew {skew} exceeds pe{pe_id} delay FIFO "
                    f"depth {pe.max_delay_fifo}",
                    stage="skew",
                )
