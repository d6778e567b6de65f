"""What a schedule needs from its ADG: the one legality rule.

:func:`hardware_violations` names what an ADG edit can break, one
:class:`Finding` per broken piece:

* ``missing_node`` — a DFG node is placed on hardware that is gone;
* ``capability`` — a compute node's PE does not support its op, dtype
  and lanes;
* ``port_width`` — a DFG port sits on a narrower hardware port;
* ``missing_link`` — a route uses a link that is gone (``ADG.remove_node``
  drops every link touching the node, so links cover route hops too).

The preservation ladder reads only these: rung 0 accepts a schedule iff
there are none, rung 1 reroutes iff every one is a ``missing_link``.
Both read :func:`edit_violations`, the same findings from a walk of only
what the ADG's edits touched since the schedule was last found clean.
:func:`engine_violations` checks the binder's own rules (the engine
contract of :mod:`.binder`), one finding per array or stream: ``indirect``
(indirect access on an engine without it), ``capacity`` (a scratchpad's
arrays outgrow it, or a recurrence its engine's buffer) and
``engine_link`` (a stream's engine lacks its link with the stream's
port).  The ladder does not read these yet (ROADMAP item 1).
:func:`schedule_violations` yields all of the above, then what only a
scheduler bug can break — ``endpoint`` (a route's ends are not its
placements), ``interior_hop`` (a hop that is not a switch),
``shared_link`` (one link carrying two values) and ``shared_pe`` (one PE
holding two nodes) — and is what the fuzzer's invariant checks.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Tuple, Union

from ..adg import ADG, DmaEngine, NodeKind, ProcessingElement, RecurrenceEngine
from ..adg import SpadEngine
from ..adg.graph import Footprint
from ..dfg import ArrayNode, ComputeNode, InputPortNode, OutputPortNode, StreamNode
from .binder import effective_footprint, indirect_ok, linked_ports
from .binder import recurrence_fits, spad_misfit
from .schedule import EdgeKey, Schedule


@dataclass(frozen=True)
class Finding:
    """One thing ``schedule`` needs that ``adg`` does not provide."""

    kind: str
    #: The broken piece: a DFG node id, or a route's edge key.
    piece: Union[int, EdgeKey]
    detail: str

    def __str__(self) -> str:
        return self.detail


def hardware_violations(
    schedule: Schedule, adg: ADG, footprint: Optional[Footprint] = None
) -> Iterator[Finding]:
    """What the ADG no longer provides: one walk of placements, then routes.

    With ``footprint``, only the placements on its nodes and the routes
    through one of them or an end of one of its links (a removed node's
    links end on it): nothing else moved since the schedule was clean."""
    placement = schedule.placement.items()
    routes = schedule.routes.items()
    if footprint is not None:
        nodes, links = footprint
        ends = nodes.union(*links)
        placement = [(d, h) for d, h in placement if h in nodes]
        routes = [(k, p) for k, p in routes if not ends.isdisjoint(p)]
    node_of, has_node, hw_of = schedule.mdfg.node, adg.has_node, adg.node
    for dfg_id, hw_id in placement:
        if not has_node(hw_id):
            yield Finding("missing_node", dfg_id, f"dfg node {dfg_id} placed "
                          f"on missing hw {hw_id}")
            continue
        node, hw = node_of(dfg_id), hw_of(hw_id)
        if isinstance(node, ComputeNode):
            if not isinstance(hw, ProcessingElement) or not hw.supports(
                node.op, node.dtype, node.lanes
            ):
                yield Finding("capability", dfg_id, f"{hw.name} cannot run dfg "
                              f"node {dfg_id} ({node.op.name} {node.dtype.name} "
                              f"x{node.lanes})")
        elif isinstance(node, (InputPortNode, OutputPortNode)):
            if getattr(hw, "width_bytes", 0) < node.width_bytes:
                yield Finding("port_width", dfg_id, f"{hw.name} is narrower "
                              f"than dfg port {dfg_id} ({node.width_bytes}B)")
    has_link = adg.has_link
    for key, path in routes:
        for a, b in zip(path, path[1:]):
            if not has_link(a, b):
                yield Finding("missing_link", key, f"route {key[0]}->{key[1]}"
                              f"#{key[2]} uses missing link {a}->{b}")


def edit_violations(schedule: Schedule, adg: ADG) -> List[Finding]:
    """``list(hardware_violations(schedule, adg))``, walking only what the
    edits since ``schedule.clean_at`` touched; the whole walk when ``adg``
    does not know that stamp (pickled, another ADG's, rewritten since)."""
    footprint = adg.touched_since(schedule.clean_at)
    if footprint is not None and not (footprint.nodes or footprint.links):
        return []
    return list(hardware_violations(schedule, adg, footprint))


def engine_violations(schedule: Schedule, adg: ADG) -> Iterator[Finding]:
    """What the arrays and streams need from their engines.  Placements are
    walked in order, so a scratchpad's capacity is spent in the order the
    binder spent it; a piece on missing hardware is
    :func:`hardware_violations`' ``missing_node``."""
    mdfg, placement = schedule.mdfg, schedule.placement
    node_of, has_node, hw_of = mdfg.node, adg.has_node, adg.node
    free: Dict[int, float] = {}
    for dfg_id, hw_id in placement.items():
        if not has_node(hw_id):
            continue
        node, hw = node_of(dfg_id), hw_of(hw_id)
        if isinstance(node, ArrayNode):
            misfit = None
            if isinstance(hw, SpadEngine):
                need = effective_footprint(node, mdfg)
                left = free.get(hw_id, float(hw.capacity_bytes))
                free[hw_id] = left - need
                misfit = spad_misfit(hw, node, need, left)
            elif isinstance(hw, DmaEngine):
                misfit = None if indirect_ok(hw, node.indirect_target) else "indirect"
            if misfit:
                yield Finding(misfit, dfg_id, f"{hw.name} cannot hold array "
                              f"{node.array} (dfg node {dfg_id}): {misfit}")
        elif isinstance(node, StreamNode):
            if isinstance(hw, (SpadEngine, DmaEngine)):
                if not indirect_ok(hw, node.indirect):
                    yield Finding("indirect", dfg_id, f"{hw.name} lacks indirect "
                                  f"support for stream {dfg_id}")
            elif isinstance(hw, RecurrenceEngine) and not recurrence_fits(node, hw):
                yield Finding("capacity", dfg_id, f"recurrence {dfg_id} of depth "
                              f"{node.recurrence_depth} overflows {hw.name}")
            port = placement.get(node.port)
            inbound = isinstance(node_of(node.port), InputPortNode)
            if has_node(port) and port not in linked_ports(adg, hw_id, inbound):
                yield Finding("engine_link", dfg_id, f"stream {dfg_id} on "
                              f"{hw.name} has no link with hw port {port}")


def schedule_violations(schedule: Schedule, adg: ADG) -> Iterator[Finding]:
    """:func:`hardware_violations` and :func:`engine_violations`, then the
    scheduler's own consistency."""
    yield from hardware_violations(schedule, adg)
    yield from engine_violations(schedule, adg)
    placement, has_node, hw_of = schedule.placement, adg.has_node, adg.node
    link_owner: Dict[Tuple[int, int], int] = {}
    for key, path in schedule.routes.items():
        src, dst, slot = key
        name = f"route {src}->{dst}#{slot}"
        if not path:
            yield Finding("endpoint", key, f"empty {name}")
            continue
        for end, dfg_id, hw_id in (("starts", src, path[0]), ("ends", dst, path[-1])):
            if placement.get(dfg_id) != hw_id:
                yield Finding("endpoint", key, f"{name} {end} at {hw_id}, dfg "
                              f"node {dfg_id} placed on {placement.get(dfg_id)}")
        for hop in path[1:-1]:
            if not has_node(hop) or hw_of(hop).kind is not NodeKind.SWITCH:
                yield Finding("interior_hop", key,
                              f"{name} interior hop {hop} is not a switch")
        # One value per physical link (the same value may fan out).
        for a, b in zip(path, path[1:]):
            owner = link_owner.setdefault((a, b), src)
            if owner != src:
                yield Finding("shared_link", key, f"link {a}->{b} carries "
                              f"values from both dfg nodes {owner} and {src}")
    claimed: Dict[int, int] = {}
    for dfg_id, hw_id in placement.items():
        if has_node(hw_id) and hw_of(hw_id).kind is NodeKind.PE:
            prev = claimed.setdefault(hw_id, dfg_id)
            if prev != dfg_id:
                yield Finding("shared_pe", dfg_id, f"PE {hw_id} claimed by dfg "
                              f"nodes {prev} and {dfg_id}")
