"""Fabric routing: circuit-switched paths through the switch network.

Each directed ADG link carries at most one *value* (one DFG source node);
fan-out of the same value may share links (multicast through a switch is
free).  Intermediate hops must be switches — PEs and ports cannot forward
traffic.  Width is checked at every hop: a 512-bit value cannot squeeze
through a 64-bit switch.
"""

from __future__ import annotations

from collections import deque
from typing import Dict, Iterable, List, Optional, Set, Tuple

from ..adg import ADG, NodeKind, ProcessingElement, Switch

Link = Tuple[int, int]


class RoutingState:
    """Tracks link occupancy during one scheduling pass."""

    def __init__(self, adg: ADG):
        self.adg = adg
        #: link -> dfg source-node id currently driving it.
        self.link_owner: Dict[Link, int] = {}

    def clone(self) -> "RoutingState":
        other = RoutingState(self.adg)
        other.link_owner = dict(self.link_owner)
        return other

    def link_free_for(self, link: Link, source: int) -> bool:
        owner = self.link_owner.get(link)
        return owner is None or owner == source

    def claim_path(self, path: Iterable[int], source: int) -> None:
        nodes = list(path)
        for link in zip(nodes, nodes[1:]):
            self.link_owner[link] = source


def _hop_allowed(adg: ADG, node_id: int, width_bits: int) -> bool:
    """May a route pass *through* this node (not as an endpoint)?"""
    node = adg.node(node_id)
    if node.kind is not NodeKind.SWITCH:
        return False
    return node.width_bits >= width_bits


def find_route(
    adg: ADG,
    state: RoutingState,
    src_hw: int,
    dst_hw: int,
    source_dfg: int,
    width_bits: int,
    max_hops: int = 24,
) -> Optional[Tuple[int, ...]]:
    """Shortest free path from ``src_hw`` to ``dst_hw`` for one value.

    BFS over links that are free (or already carry the same source value,
    enabling multicast reuse).  Interior nodes must be wide-enough switches.
    Returns the inclusive node path, or None.
    """
    if src_hw == dst_hw:
        return (src_hw,)
    queue = deque([(src_hw, (src_hw,))])
    seen: Set[int] = {src_hw}
    while queue:
        here, path = queue.popleft()
        if len(path) > max_hops:
            continue
        for nxt in sorted(adg.successors(here)):
            link = (here, nxt)
            if not state.link_free_for(link, source_dfg):
                continue
            if nxt == dst_hw:
                return path + (nxt,)
            if nxt in seen:
                continue
            if not _hop_allowed(adg, nxt, width_bits):
                continue
            seen.add(nxt)
            queue.append((nxt, path + (nxt,)))
    return None


def route_distances(
    adg: ADG,
    state: RoutingState,
    src_hw: int,
    source_dfg: int,
    width_bits: int,
    max_hops: int = 24,
) -> Dict[int, int]:
    """Hop count of :func:`find_route` from ``src_hw`` to every endpoint.

    One BFS with the same rules: links must be free or already carry
    ``source_dfg``, only wide-enough switches are expanded, any node may
    end a route, and nodes ``max_hops`` away are reached but not expanded.
    ``dst`` is absent exactly when ``find_route(..., dst, ...)`` is None.
    """
    hops = {src_hw: 0}
    queue = deque([src_hw])
    while queue:
        here = queue.popleft()
        depth = hops[here] + 1
        if depth > max_hops:
            break
        for nxt in adg.successors(here):
            if nxt in hops or not state.link_free_for((here, nxt), source_dfg):
                continue
            hops[nxt] = depth
            if _hop_allowed(adg, nxt, width_bits):
                queue.append(nxt)
    return hops
