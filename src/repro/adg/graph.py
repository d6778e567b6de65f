"""The ADG container: nodes, directed links, mutation, and validation.

Structure follows Fig. 4(b) of the paper: the *fabric side* (input ports ->
switches/PEs -> output ports) is circuit-switched and routable, while the
*memory side* is point-to-point — each stream engine owns direct links to a
subset of ports.  Which engine reaches which ports is precisely the spatial
memory design space the DSE explores.

Kind and id-order queries (``nodes``, ``of_kind``, ``pes``, ``engines``, ...)
read one *view*, the router another (:meth:`ADG.routing`).  Each is built on
the first query after an edit that can move it and dropped by
:meth:`ADG._touch`, the one place ``version`` moves: a link edit drops only
the routing view, any other edit both.  Views are instance state, shared
with a clone, never pickled.

A removal or replacement records its *footprint* (nodes removed or
replaced, links removed) under a new process-unique :attr:`ADG.stamp`, so a
schedule found clean at a stamp re-checks only what :meth:`touched_since`
it meets.  A clone inherits the record; it is never serialized.
"""

from __future__ import annotations

import itertools
from dataclasses import replace
from typing import Callable, Dict, Iterator, List, NamedTuple, Optional, Set, Tuple

from .nodes import (
    AdgNode,
    DmaEngine,
    ENGINE_KINDS,
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


class AdgError(ValueError):
    """Raised when an ADG violates a structural invariant."""


#: Legal (source-kind, destination-kind) pairs for ADG links.
_LEGAL_LINKS: Set[Tuple[NodeKind, NodeKind]] = set()
for _engine in ENGINE_KINDS:
    _LEGAL_LINKS.add((_engine, NodeKind.IN_PORT))
    _LEGAL_LINKS.add((NodeKind.OUT_PORT, _engine))
for _src in (NodeKind.IN_PORT, NodeKind.PE, NodeKind.SWITCH):
    for _dst in (NodeKind.PE, NodeKind.SWITCH, NodeKind.OUT_PORT):
        _LEGAL_LINKS.add((_src, _dst))
_LEGAL_LINKS.discard((NodeKind.IN_PORT, NodeKind.OUT_PORT))
# Pass-through without any fabric hop is still representable via a switch.


#: Edit stamps, unique in the process: a stamp names one state of one ADG
#: lineage (an object and its clones), never of a load or another build.
_STAMPS = itertools.count(1)
#: How many edits :meth:`ADG.touched_since` reaches back; older stamps are unknown.
_REACH = 64

Link = Tuple[int, int]


class Footprint(NamedTuple):
    """What the edits since a stamp removed or replaced."""

    nodes: Set[int]
    links: Set[Link]


class _View(NamedTuple):
    """An ADG's nodes at one ``version``, every list in ascending id order."""

    ids: List[int]
    nodes: List[AdgNode]
    by_kind: Dict[NodeKind, List[AdgNode]]
    engines: List[AdgNode]


class Routing(NamedTuple):
    """What the router reads of an ADG at one ``version``."""

    #: node id -> successor ids, ascending.
    succ: Dict[int, Tuple[int, ...]]
    #: switch id -> ``width_bits``; a node absent here cannot be a hop.
    hop_width: Dict[int, int]


class ADG:
    """One tile's architecture description graph (mutable, clonable)."""

    #: The current ``version``'s views, or None (the class default: a view
    #: is never pickled, and an ADG stored without one loads).
    _view: Optional[_View] = None
    _routing: Optional[Routing] = None
    #: The last ``_REACH + 1`` recorded edits, oldest first, each ``(stamp,
    #: node ids removed or replaced, links removed)``.  Empty (the class
    #: default, as for a loaded ADG) until :attr:`stamp` starts a record.
    _edits: Tuple[Tuple[int, Tuple[int, ...], Tuple[Link, ...]], ...] = ()

    def __init__(self) -> None:
        self._nodes: Dict[int, AdgNode] = {}
        self._out: Dict[int, Set[int]] = {}
        self._in: Dict[int, Set[int]] = {}
        self._next_id = 0
        #: edit counter: repeats across clones and loads (see :attr:`stamp`).
        self.version = 0

    def __getstate__(self) -> Dict[str, object]:
        local = ("_view", "_routing", "_edits")
        return {k: v for k, v in self.__dict__.items() if k not in local}

    # ------------------------------------------------------------------
    # Mutation
    # ------------------------------------------------------------------
    def _touch(self, version: Optional[int] = None, links_only=False) -> None:
        """Move ``version`` (by one, or to ``version``); drop the views
        (only the routing view when only links moved)."""
        self.version = self.version + 1 if version is None else version
        if not links_only:
            self._view = None
        self._routing = None

    def _record(self, nodes: Tuple[int, ...], links: Tuple[Link, ...]) -> None:
        """Stamp a mutation that removed or replaced ``nodes`` / ``links``."""
        self._edits = self._edits[-_REACH:] + ((next(_STAMPS), nodes, links),)

    @property
    def stamp(self) -> int:
        """This state's edit stamp: process-unique, never serialized."""
        if not self._edits:
            self._record((), ())
        return self._edits[-1][0]

    def touched_since(self, stamp: Optional[int]) -> Optional[Footprint]:
        """The union of the footprints recorded after ``stamp``; None when
        ``stamp`` is not a state this ADG's record reaches (None, a loaded
        or another ADG's stamp, or more than ``_REACH`` edits back)."""
        nodes: Set[int] = set()
        links: Set[Link] = set()
        for at, removed, cut in reversed(self._edits):
            if at == stamp:
                return Footprint(nodes, links)
            nodes.update(removed)
            links.update(cut)
        return None

    def add_node(
        self,
        factory: Callable[[int], AdgNode],
        node_id: Optional[int] = None,
    ) -> int:
        """Add a node; ``node_id`` pins an explicit id (deserialization —
        keeping ids stable lets schedules survive a save/load round trip)."""
        if node_id is None:
            node_id = self._next_id
        elif node_id in self._nodes:
            raise AdgError(f"node id {node_id} already in use")
        self._next_id = max(self._next_id, node_id + 1)
        self._nodes[node_id] = factory(node_id)
        self._out[node_id] = set()
        self._in[node_id] = set()
        self._touch()
        return node_id

    def add_pe(self, **kwargs) -> int:
        return self.add_node(lambda i: ProcessingElement(i, **kwargs))

    def add_switch(self, **kwargs) -> int:
        return self.add_node(lambda i: Switch(i, **kwargs))

    def add_in_port(self, **kwargs) -> int:
        return self.add_node(lambda i: InputPortHW(i, **kwargs))

    def add_out_port(self, **kwargs) -> int:
        return self.add_node(lambda i: OutputPortHW(i, **kwargs))

    def add_dma(self, **kwargs) -> int:
        return self.add_node(lambda i: DmaEngine(i, **kwargs))

    def add_spad(self, **kwargs) -> int:
        return self.add_node(lambda i: SpadEngine(i, **kwargs))

    def add_generate(self, **kwargs) -> int:
        return self.add_node(lambda i: GenerateEngine(i, **kwargs))

    def add_recurrence(self, **kwargs) -> int:
        return self.add_node(lambda i: RecurrenceEngine(i, **kwargs))

    def add_register(self, **kwargs) -> int:
        return self.add_node(lambda i: RegisterEngine(i, **kwargs))

    def add_link(self, src: int, dst: int) -> None:
        """Add a directed hardware link; validates endpoint kinds."""
        if src not in self._nodes or dst not in self._nodes:
            raise AdgError(f"link {src}->{dst} references unknown node")
        pair = (self._nodes[src].kind, self._nodes[dst].kind)
        if pair not in _LEGAL_LINKS:
            raise AdgError(
                f"illegal link {self._nodes[src].name} -> {self._nodes[dst].name}"
            )
        self._out[src].add(dst)
        self._in[dst].add(src)
        self._touch(links_only=True)

    def remove_link(self, src: int, dst: int) -> None:
        self._out.get(src, set()).discard(dst)
        self._in.get(dst, set()).discard(src)
        self._record((), ((src, dst),))
        self._touch(links_only=True)

    def remove_node(self, node_id: int) -> None:
        """Remove a node and every link touching it."""
        if node_id not in self._nodes:
            raise AdgError(f"cannot remove unknown node {node_id}")
        for dst in list(self._out[node_id]):
            self._in[dst].discard(node_id)
        for src in list(self._in[node_id]):
            self._out[src].discard(node_id)
        del self._out[node_id]
        del self._in[node_id]
        del self._nodes[node_id]
        self._record((node_id,), ())
        self._touch()

    def replace_node(self, node_id: int, **changes) -> None:
        """Replace a node's parameters in place (links unchanged).  An
        equal replacement is no edit: the node, its identity and
        ``version`` stay as they were."""
        if node_id not in self._nodes:
            raise AdgError(f"cannot replace unknown node {node_id}")
        new = replace(self._nodes[node_id], **changes)
        if new != self._nodes[node_id]:
            self._nodes[node_id] = new
            self._record((node_id,), ())
            self._touch()

    def clone(self) -> "ADG":
        other = ADG()
        other._nodes = dict(self._nodes)
        other._out = {k: set(v) for k, v in self._out.items()}
        other._in = {k: set(v) for k, v in self._in.items()}
        other._next_id = self._next_id
        other.version = self.version
        # Views and edit records are never mutated; each side drops or
        # extends its own.
        other._view, other._routing = self._view, self._routing
        other._edits = self._edits
        return other

    def restore_counters(self, next_id: int, version: int) -> None:
        """Pin the id allocator and edit stamp after a deserialization.

        ``adg_from_dict`` recomputes ``_next_id`` as max(id)+1 and counts
        ``version`` up from zero, but an ADG that lived through mutations
        may hold a higher allocator (removed high ids) and edit stamp.
        Checkpoint/resume restores both so a resumed explorer allocates the
        same ids the uninterrupted run would."""
        if next_id < self._next_id:
            raise AdgError(
                f"next_id {next_id} below live allocator {self._next_id}"
            )
        self._next_id = next_id
        self._touch(version)

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def node(self, node_id: int) -> AdgNode:
        return self._nodes[node_id]

    def has_node(self, node_id: int) -> bool:
        return node_id in self._nodes

    def has_link(self, src: int, dst: int) -> bool:
        return dst in self._out.get(src, ())

    def nodes(self) -> Iterator[AdgNode]:
        """Nodes in ascending id order.

        Sorted (rather than insertion) order keeps float accumulations over
        the graph bit-identical between a live ADG and its serialize
        round-trip, which checkpoint/resume relies on.
        """
        return iter(self._views().nodes)

    def node_ids(self) -> List[int]:
        return list(self._views().ids)

    def successors(self, node_id: int) -> Set[int]:
        return self._out.get(node_id, set())

    def predecessors(self, node_id: int) -> Set[int]:
        return self._in.get(node_id, set())

    def links(self) -> List[Tuple[int, int]]:
        return sorted(
            (src, dst) for src, dsts in self._out.items() for dst in dsts
        )

    def _views(self) -> _View:
        if self._view is None:
            ids = sorted(self._nodes)
            nodes = [self._nodes[i] for i in ids]
            # By class: a type hashes by identity, a kind once per class.
            by_class: Dict[type, List[AdgNode]] = {}
            for node in nodes:
                by_class.setdefault(type(node), []).append(node)
            by_kind = {cls.kind: members for cls, members in by_class.items()}
            engine_classes = {c for c in by_class if c.kind in ENGINE_KINDS}
            engines = [n for n in nodes if type(n) in engine_classes]
            self._view = _View(ids, nodes, by_kind, engines)
        return self._view

    def routing(self) -> Routing:
        """Successors and hop widths at this ``version`` (shared: read only)."""
        if self._routing is None:
            switches = self._views().by_kind.get(NodeKind.SWITCH, ())
            self._routing = Routing(
                {i: tuple(sorted(out)) for i, out in self._out.items()},
                {s.node_id: s.width_bits for s in switches},
            )
        return self._routing

    def of_kind(self, kind: NodeKind) -> List[AdgNode]:
        """Nodes of ``kind`` in id order (a fresh list, the caller's own)."""
        return list(self._views().by_kind.get(kind, ()))

    @property
    def pes(self) -> List[ProcessingElement]:
        return self.of_kind(NodeKind.PE)

    @property
    def switches(self) -> List[Switch]:
        return self.of_kind(NodeKind.SWITCH)

    @property
    def in_ports(self) -> List[InputPortHW]:
        return self.of_kind(NodeKind.IN_PORT)

    @property
    def out_ports(self) -> List[OutputPortHW]:
        return self.of_kind(NodeKind.OUT_PORT)

    @property
    def spads(self) -> List[SpadEngine]:
        return self.of_kind(NodeKind.SPAD)

    @property
    def dmas(self) -> List[DmaEngine]:
        return self.of_kind(NodeKind.DMA)

    @property
    def engines(self) -> List[AdgNode]:
        return list(self._views().engines)

    def radix(self, node_id: int) -> int:
        """Total degree of a node (drives switch resource cost)."""
        return len(self._out.get(node_id, ())) + len(self._in.get(node_id, ()))

    def avg_switch_radix(self) -> float:
        switches = self.switches
        if not switches:
            return 0.0
        return sum(self.radix(s.node_id) for s in switches) / len(switches)

    # ------------------------------------------------------------------
    # Validation
    # ------------------------------------------------------------------
    def validate(self) -> None:
        """Check structural invariants; raises :class:`AdgError`."""
        for src, dsts in self._out.items():
            for dst in dsts:
                pair = (self._nodes[src].kind, self._nodes[dst].kind)
                if pair not in _LEGAL_LINKS:
                    raise AdgError(
                        f"illegal link {self._nodes[src].name} -> "
                        f"{self._nodes[dst].name}"
                    )
        for port in self.in_ports:
            feeders = {
                self._nodes[p].kind for p in self._in[port.node_id]
            }
            if feeders and not feeders & ENGINE_KINDS:
                raise AdgError(f"{port.name} has no stream-engine feeder")
        for node in self._nodes.values():
            if isinstance(node, SpadEngine) and node.capacity_bytes <= 0:
                raise AdgError(f"{node.name} has non-positive capacity")
            if isinstance(node, ProcessingElement) and node.width_bits <= 0:
                raise AdgError(f"{node.name} has non-positive width")

    def summary(self) -> str:
        return (
            f"ADG(pe={len(self.pes)}, sw={len(self.switches)}, "
            f"ip={len(self.in_ports)}, op={len(self.out_ports)}, "
            f"spad={len(self.spads)}, dma={len(self.dmas)}, "
            f"links={len(self.links())})"
        )
