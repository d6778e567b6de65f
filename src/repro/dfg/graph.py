"""The mDFG container and its invariants.

An :class:`MDFG` is produced per (workload, transformation-variant) by the
compiler.  It owns four node families (compute / ports / streams / arrays)
plus value edges, and carries enough metadata for the performance model
(instruction bandwidth, loop structure) and the dispatcher (stream counts,
configuration size).
"""

from __future__ import annotations

from typing import Dict, Iterator, List, NamedTuple, Optional, Tuple, Union

from ..ir import DType
from .nodes import (
    ArrayNode,
    ComputeNode,
    DfgEdge,
    InputPortNode,
    OutputPortNode,
    StreamKind,
    StreamNode,
)

Node = Union[ComputeNode, InputPortNode, OutputPortNode, StreamNode, ArrayNode]


class MdfgError(ValueError):
    """Raised when an mDFG violates a structural invariant."""


class _Index(NamedTuple):
    """An mDFG's lookup tables, every list in insertion order."""

    by_type: Dict[type, List[Node]]
    #: consumer id -> its fabric in-edges as ``(src, dst, slot)``.
    fabric_in: Dict[int, List[Tuple[int, int, int]]]
    insts_per_cycle: float


class MDFG:
    """Memory-enhanced dataflow graph for one compiled program region."""

    #: Type, in-edge and ``insts_per_cycle`` queries read an index built on
    #: the first query after an edit and dropped by ``_add`` / ``add_edge``,
    #: the only structural mutators.  None is the class default: an index
    #: is never pickled.
    _index: Optional[_Index] = None

    def __init__(
        self,
        workload: str,
        variant: str,
        unroll: int,
        dtype: DType,
        iterations: float,
        inner_trip: int,
        tile_parallelism: float = 1.0,
    ):
        self.workload = workload
        self.variant = variant
        self.unroll = unroll
        self.dtype = dtype
        #: total innermost-iteration count of the region (effective, i.e.
        #: variable-trip loops counted at their average trip).
        self.iterations = iterations
        #: innermost-loop trip count (bounds useful vectorization).
        self.inner_trip = inner_trip
        #: independent coarse-grain work items available for multi-tile
        #: partitioning (trip of the outermost parallel loop).
        self.tile_parallelism = tile_parallelism
        self._nodes: Dict[int, Node] = {}
        self._edges: List[DfgEdge] = []
        self._next_id = 0

    def __getstate__(self) -> Dict[str, object]:
        return {k: v for k, v in self.__dict__.items() if k != "_index"}

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    def _add(self, factory) -> int:
        node_id = self._next_id
        self._next_id += 1
        node = factory(node_id)
        self._nodes[node_id] = node
        self._index = None
        return node_id

    def add_compute(self, op, dtype, lanes=1, operands=(), accumulator=False) -> int:
        nid = self._add(
            lambda i: ComputeNode(i, op, dtype, lanes, tuple(operands), accumulator)
        )
        for slot, src in enumerate(operands):
            self.add_edge(src, nid, slot)
        return nid

    def add_input_port(self, width_bytes, stationary=1, needs_padding=False) -> int:
        return self._add(
            lambda i: InputPortNode(i, width_bytes, stationary, needs_padding)
        )

    def add_output_port(self, width_bytes) -> int:
        return self._add(lambda i: OutputPortNode(i, width_bytes))

    def add_stream(self, **kwargs) -> int:
        nid = self._add(lambda i: StreamNode(node_id=i, **kwargs))
        stream = self._nodes[nid]
        assert isinstance(stream, StreamNode)
        # Streams feeding the fabric produce into their (input) port; streams
        # draining the fabric consume from their (output) port.  Record the
        # direction as a value edge so the scheduler can route memory<->port
        # connections on the ADG.  Recurrence streams come in both flavors.
        if isinstance(self._nodes[stream.port], OutputPortNode):
            self.add_edge(stream.port, nid)
        else:
            self.add_edge(nid, stream.port)
        return nid

    def add_array(self, **kwargs) -> int:
        return self._add(lambda i: ArrayNode(node_id=i, **kwargs))

    def add_edge(self, src: int, dst: int, slot: int = 0) -> None:
        if src not in self._nodes or dst not in self._nodes:
            raise MdfgError(f"edge {src}->{dst} references unknown node")
        self._edges.append(DfgEdge(src, dst, slot))
        self._index = None

    def attach_streams(self, array_id: int, stream_ids: Tuple[int, ...]) -> None:
        node = self.array_node(array_id)
        node.streams = tuple(node.streams) + tuple(stream_ids)

    # ------------------------------------------------------------------
    # Access
    # ------------------------------------------------------------------
    def node(self, node_id: int) -> Node:
        return self._nodes[node_id]

    def array_node(self, node_id: int) -> ArrayNode:
        node = self._nodes[node_id]
        if not isinstance(node, ArrayNode):
            raise MdfgError(f"node {node_id} is not an array node")
        return node

    @property
    def edges(self) -> Tuple[DfgEdge, ...]:
        return tuple(self._edges)

    def nodes(self) -> Iterator[Node]:
        return iter(self._nodes.values())

    def _indexed(self) -> _Index:
        if self._index is None:
            by_type: Dict[type, List[Node]] = {}
            for node in self._nodes.values():
                by_type.setdefault(type(node), []).append(node)
            fabric_in: Dict[int, List[Tuple[int, int, int]]] = {}
            for e in self.fabric_edges():
                fabric_in.setdefault(e.dst, []).append((e.src, e.dst, e.slot))
            compute = sum(n.lanes for n in by_type.get(ComputeNode, ()))
            memory = sum(
                s.lanes for s in by_type.get(StreamNode, ()) if s.is_memory
            )
            self._index = _Index(by_type, fabric_in, float(compute + memory))
        return self._index

    def _of_type(self, cls) -> List:
        """Nodes of exactly ``cls`` in id order (a fresh list)."""
        return list(self._indexed().by_type.get(cls, ()))

    @property
    def compute_nodes(self) -> List[ComputeNode]:
        return self._of_type(ComputeNode)

    @property
    def input_ports(self) -> List[InputPortNode]:
        return self._of_type(InputPortNode)

    @property
    def output_ports(self) -> List[OutputPortNode]:
        return self._of_type(OutputPortNode)

    @property
    def streams(self) -> List[StreamNode]:
        return self._of_type(StreamNode)

    @property
    def arrays(self) -> List[ArrayNode]:
        return self._of_type(ArrayNode)

    def fabric_edges(self) -> List[DfgEdge]:
        """Edges routed over the compute fabric (port/compute endpoints)."""
        fabric_types = (ComputeNode, InputPortNode, OutputPortNode)
        return [
            e
            for e in self._edges
            if isinstance(self._nodes[e.src], fabric_types)
            and isinstance(self._nodes[e.dst], fabric_types)
        ]

    def fabric_in_edges(self, node_id: int) -> Tuple[Tuple[int, int, int], ...]:
        """``(src, dst, slot)`` of each fabric edge into ``node_id``."""
        return tuple(self._indexed().fabric_in.get(node_id, ()))

    def predecessors(self, node_id: int) -> List[int]:
        return [e.src for e in self._edges if e.dst == node_id]

    def successors(self, node_id: int) -> List[int]:
        return [e.dst for e in self._edges if e.src == node_id]

    # ------------------------------------------------------------------
    # Derived metrics
    # ------------------------------------------------------------------
    @property
    def insts_per_cycle(self) -> float:
        """Peak instruction bandwidth of this DFG (Eq. 1's ``mDFG Insts``).

        Every compute node fires each cycle in steady state; memory
        operations (one per memory stream) are counted too so that pure
        data-movement DFGs still reward vectorization.  Lanes multiply.
        """
        return self._indexed().insts_per_cycle

    @property
    def total_instructions(self) -> float:
        """Dynamic instruction count of the region (for IPC accounting).

        Defined as instructions-per-firing x firings so that simulator IPC
        (instructions / measured cycles) is directly comparable with the
        analytical model's Eq. 1 (which also counts lane-weighted
        instructions per cycle).
        """
        firings = self.iterations / max(1, self.unroll)
        return self.insts_per_cycle * firings

    @property
    def config_words(self) -> int:
        """Size of the spatial configuration bitstream, in 64-bit words.

        Each mapped entity contributes configuration state; used for the
        reconfiguration-time model (Fig. 17).
        """
        return (
            4 * len(self.compute_nodes)
            + 2 * (len(self.input_ports) + len(self.output_ports))
            + 6 * len(self.streams)
        )

    # ------------------------------------------------------------------
    # Validation
    # ------------------------------------------------------------------
    def validate(self) -> None:
        """Check structural invariants; raises :class:`MdfgError`."""
        for edge in self._edges:
            if edge.src not in self._nodes or edge.dst not in self._nodes:
                raise MdfgError(f"dangling edge {edge}")
        for node in self.compute_nodes:
            for operand in node.operands:
                if operand not in self._nodes:
                    raise MdfgError(
                        f"compute node {node.node_id} operand {operand} missing"
                    )
        for stream in self.streams:
            port = self._nodes.get(stream.port)
            if stream.kind in (StreamKind.MEMORY_WRITE, StreamKind.REGISTER):
                if not isinstance(port, OutputPortNode):
                    raise MdfgError(
                        f"write/register stream {stream.node_id} must target "
                        f"an output port, got {type(port).__name__}"
                    )
            elif stream.kind is StreamKind.RECURRENCE:
                if not isinstance(port, (InputPortNode, OutputPortNode)):
                    raise MdfgError(
                        f"recurrence stream {stream.node_id} must target a "
                        f"port, got {type(port).__name__}"
                    )
            elif not isinstance(port, InputPortNode):
                raise MdfgError(
                    f"stream {stream.node_id} ({stream.kind}) must target an "
                    f"input port, got {type(port).__name__}"
                )
            if stream.is_memory and stream.array is None:
                raise MdfgError(f"memory stream {stream.node_id} has no array")
        stream_ids = {s.node_id for s in self.streams}
        for array in self.arrays:
            for sid in array.streams:
                if sid not in stream_ids:
                    raise MdfgError(
                        f"array {array.array} references unknown stream {sid}"
                    )
        # Recurrence pairing must be symmetric.
        by_id = {s.node_id: s for s in self.streams}
        for stream in self.streams:
            pair = stream.recurrent_pair
            if pair is not None:
                other = by_id.get(pair)
                if other is None or other.recurrent_pair != stream.node_id:
                    raise MdfgError(
                        f"stream {stream.node_id} has asymmetric recurrence "
                        f"pairing with {pair}"
                    )

    def summary(self) -> str:
        """One-line human-readable description."""
        return (
            f"{self.workload}/{self.variant}: unroll={self.unroll} "
            f"compute={len(self.compute_nodes)} ivp={len(self.input_ports)} "
            f"ovp={len(self.output_ports)} streams={len(self.streams)} "
            f"arrays={len(self.arrays)}"
        )
