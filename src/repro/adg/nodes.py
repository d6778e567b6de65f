"""Hardware node types of the architecture description graph (ADG).

These mirror the primitives of Fig. 2(c) and Section III-B of the paper:
processing elements, switches, vector ports, and the five stream-engine
families (DMA, scratchpad, recurrence, generate, register).  Nodes are
*immutable*: parameter changes during DSE replace the node, which keeps
ADG cloning cheap and schedules easy to invalidate precisely.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field, replace
from typing import FrozenSet, Optional

from ..ir import DType, Op
from .capability import FuCap, cap_for


class NodeKind(enum.Enum):
    PE = "pe"
    SWITCH = "sw"
    IN_PORT = "ip"
    OUT_PORT = "op"
    DMA = "dma"
    SPAD = "spad"
    GENERATE = "gen"
    RECURRENCE = "rec"
    REGISTER = "reg"

    def __str__(self) -> str:  # pragma: no cover - trivial
        return self.value


#: Node kinds forming the compute fabric (routable side).
FABRIC_KINDS = frozenset({NodeKind.PE, NodeKind.SWITCH})

#: Node kinds that execute streams.
ENGINE_KINDS = frozenset(
    {
        NodeKind.DMA,
        NodeKind.SPAD,
        NodeKind.GENERATE,
        NodeKind.RECURRENCE,
        NodeKind.REGISTER,
    }
)


@dataclass(frozen=True)
class AdgNode:
    """Base hardware node; ``node_id`` is unique within one ADG."""

    node_id: int

    @property
    def kind(self) -> NodeKind:
        raise NotImplementedError

    @property
    def name(self) -> str:
        return f"{self.kind.value}{self.node_id}"


@dataclass(frozen=True)
class ProcessingElement(AdgNode):
    """A dedicated-dataflow PE.

    Attributes:
        caps: functional-unit capabilities (op x dtype-class pairs).
        width_bits: datapath width; when wider than a capability's scalar
            width the PE executes subword-SIMD (Section III-B).
        max_delay_fifo: deepest per-operand delay FIFO, used to balance
            operand arrival times (Section V-B, edge-delay preservation).
    """

    caps: FrozenSet[FuCap] = frozenset()
    width_bits: int = 64
    max_delay_fifo: int = 8

    @property
    def kind(self) -> NodeKind:
        return NodeKind.PE

    def supports(self, op: Op, dtype: DType, lanes: int = 1) -> bool:
        """Can this PE execute ``lanes`` lanes of ``op`` on ``dtype``?"""
        if cap_for(op, dtype) not in self.caps:
            return False
        return lanes * dtype.bits <= self.width_bits


@dataclass(frozen=True)
class Switch(AdgNode):
    """An operand-routing switch; radix comes from graph degree."""

    width_bits: int = 64

    @property
    def kind(self) -> NodeKind:
        return NodeKind.SWITCH


@dataclass(frozen=True)
class InputPortHW(AdgNode):
    """A vector input port: memory-side to fabric-side synchronization.

    Attributes:
        width_bytes: peak ingest rate (bytes/cycle).
        fifo_depth: elements buffered (bounds stationary replay and
            recurrence depth).
        supports_padding: can pad streams shorter than the vector width.
        supports_meta: carries stream-state metadata (loop-dimension
            completion flags, Section III-B).
    """

    width_bytes: int = 8
    fifo_depth: int = 4
    supports_padding: bool = False
    supports_meta: bool = False

    @property
    def kind(self) -> NodeKind:
        return NodeKind.IN_PORT


@dataclass(frozen=True)
class OutputPortHW(AdgNode):
    """A vector output port: fabric-side to memory-side."""

    width_bytes: int = 8
    fifo_depth: int = 4

    @property
    def kind(self) -> NodeKind:
        return NodeKind.OUT_PORT


@dataclass(frozen=True)
class DmaEngine(AdgNode):
    """Memory stream engine for the shared L2 / DRAM path.

    ``indirect`` enables parallel indirect access (requires reordering
    hardware, i.e. an ROB — Section III-B).
    """

    bandwidth_bytes: int = 32
    indirect: bool = False
    rob_entries: int = 16

    @property
    def kind(self) -> NodeKind:
        return NodeKind.DMA


@dataclass(frozen=True)
class SpadEngine(AdgNode):
    """Private scratchpad memory engine.

    Read and write bandwidth are separate ports (Section V-C); capacity is
    in bytes.  ``indirect`` adds indirect-access support.
    """

    capacity_bytes: int = 16384
    read_bandwidth: int = 32
    write_bandwidth: int = 32
    indirect: bool = False

    @property
    def kind(self) -> NodeKind:
        return NodeKind.SPAD


@dataclass(frozen=True)
class GenerateEngine(AdgNode):
    """Generates affine value sequences (loop-variable streams)."""

    bandwidth_bytes: int = 8

    @property
    def kind(self) -> NodeKind:
        return NodeKind.GENERATE


@dataclass(frozen=True)
class RecurrenceEngine(AdgNode):
    """Forwards loop-carried values from output ports back to input ports.

    ``buffer_bytes`` bounds the concurrent recurring working set
    (recurrence depth x element size must fit).
    """

    bandwidth_bytes: int = 32
    buffer_bytes: int = 512

    @property
    def kind(self) -> NodeKind:
        return NodeKind.RECURRENCE


@dataclass(frozen=True)
class RegisterEngine(AdgNode):
    """Collects scalar results from an output port to the control core."""

    bandwidth_bytes: int = 8

    @property
    def kind(self) -> NodeKind:
        return NodeKind.REGISTER
