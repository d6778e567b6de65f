"""Node types of the memory-enhanced dataflow graph (mDFG).

The mDFG (Section IV of the paper) extends a classic spatial DFG — compute
instructions plus vector ports — with *stream* nodes carrying access-pattern
and reuse annotations, and *array* nodes representing the data structures
those streams touch.  Array nodes are what the spatial scheduler binds to
memory engines (scratchpad/DMA), making the memory system part of the
spatial design space.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Optional, Tuple

from ..ir import Affine, DType, Op


class StreamKind(enum.Enum):
    """Which stream-engine family can execute a stream (Section III-B)."""

    MEMORY_READ = "read"       # DMA or scratchpad read
    MEMORY_WRITE = "write"     # DMA or scratchpad write
    RECURRENCE = "recurrence"  # loop-carried value, out-port -> in-port
    GENERATE = "generate"      # affine value sequence
    REGISTER = "register"      # scalar collection to the control core

    def __str__(self) -> str:  # pragma: no cover - trivial
        return self.value


class ArrayPlacement(enum.Enum):
    """Where the compiler would like an array to live."""

    SPAD = "spad"
    DRAM = "dram"

    def __str__(self) -> str:  # pragma: no cover - trivial
        return self.value


@dataclass
class ComputeNode:
    """One (possibly vectorized) instruction of the compute fabric.

    ``lanes`` counts SIMD lanes from unrolling; a lane executes on one
    functional unit, so a node with 4 lanes of ``f64`` needs a 256-bit PE
    datapath (or decomposes onto subword-SIMD units).
    """

    node_id: int
    op: Op
    dtype: DType
    lanes: int = 1
    operands: Tuple[int, ...] = ()
    #: accumulator nodes keep a running value in the PE (self-loop operand);
    #: they implement innermost-loop reductions without memory traffic.
    accumulator: bool = False

    @property
    def width_bits(self) -> int:
        return self.dtype.bits * self.lanes


@dataclass
class InputPortNode:
    """A vector input port: synchronizes a stream with the fabric.

    Attributes:
        width_bytes: ingest rate in bytes/cycle (lanes * element size).
        stationary: number of fabric firings each value is held/replayed
            for (stationary reuse captured in the port FIFO; 1 = none).
        needs_padding: stream length is not a multiple of the port width,
            so the port must support automatic padding (Section III-B).
    """

    node_id: int
    width_bytes: int
    stationary: int = 1
    needs_padding: bool = False


@dataclass
class OutputPortNode:
    """A vector output port: carries fabric results to a stream."""

    node_id: int
    width_bytes: int


@dataclass
class StreamNode:
    """A coarse-grained access/communication pattern (one stream).

    Reuse annotations follow Section IV-B:

    * ``traffic`` — elements touched over the region (product of trip
      counts for every loop, divided across vector lanes at execution).
    * ``footprint`` — distinct elements touched (affine range size).
    * ``stationary_reuse`` — consecutive reuses of one element at the port
      (innermost loop absent from the index expression).
    * ``recurrent_pair`` — node id of the matching write/read stream when
      this stream participates in a read-modify-write recurrence.
    """

    node_id: int
    kind: StreamKind
    array: Optional[str]
    dtype: DType
    port: int                      # node id of the Input/OutputPortNode
    lanes: int = 1
    pattern: Optional[Affine] = None
    indirect: bool = False
    traffic: int = 0
    footprint: int = 0
    stationary_reuse: int = 1
    #: DRAM/L2 line-overfetch multiplier for strided access: a stream with
    #: inner stride s touches s-x more line bytes than it consumes (until
    #: the whole line is skipped).  1.0 for unit-stride/stationary access.
    stride_overfetch: float = 1.0
    recurrent_pair: Optional[int] = None
    #: elements between recurrence hand-offs (pipeline concurrency needed)
    recurrence_depth: int = 0

    @property
    def is_memory(self) -> bool:
        return self.kind in (StreamKind.MEMORY_READ, StreamKind.MEMORY_WRITE)

    @property
    def general_reuse(self) -> float:
        """Average times each element is touched (traffic / footprint)."""
        if self.footprint <= 0:
            return 1.0
        return max(1.0, self.traffic / self.footprint)

    @property
    def bytes_per_cycle(self) -> int:
        """Peak bandwidth demand when the fabric runs at full rate."""
        return self.lanes * self.dtype.bytes


@dataclass
class ArrayNode:
    """A data structure referenced by one or more streams.

    ``footprint_bytes`` already includes double-buffering headroom when the
    array is a scratchpad candidate, per Section IV-A.
    """

    node_id: int
    array: str
    dtype: DType
    size_elems: int
    footprint_bytes: int
    traffic_bytes: int
    preferred: ArrayPlacement = ArrayPlacement.DRAM
    streams: Tuple[int, ...] = ()
    indirect_target: bool = False
    #: the array splits across tiles (its access patterns involve a
    #: parallel loop), so each tile's scratchpad only needs its slice.
    partitionable: bool = False

    @property
    def memory_reuse(self) -> float:
        """Array-level reuse (traffic/footprint); >1 favors scratchpad."""
        if self.footprint_bytes <= 0:
            return 1.0
        return max(1.0, self.traffic_bytes / self.footprint_bytes)


@dataclass(frozen=True)
class DfgEdge:
    """A value edge: producer node -> consumer node (operand ``slot``)."""

    src: int
    dst: int
    slot: int = 0
