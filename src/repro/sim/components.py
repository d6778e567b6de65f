"""Cycle-level simulator components.

These model the microarchitecture of Section VI at stream/port/firing
granularity: stream dispatch (each stream starts at its
``dispatched_at`` cycle; :func:`~repro.sim.simulator.build_tile` issues
one stream per cycle from the 2-cycle minimum latency on, with no hazard
tracking), stream engines (fully-pipelined issue with the one-hot bypass of
Fig. 11, bandwidth-limited transfers, shared-memory arbitration), vector
port FIFOs, and the dedicated-dataflow fabric (II=1 firings gated on
operand availability and output space).

Quantities move as fractional elements ("fluid" below one element per
cycle) which keeps per-cycle arbitration exact for the rates that matter
while avoiding per-element event queues.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple


@dataclass
class PortFifo:
    """A vector-port FIFO, measured in elements."""

    name: str
    capacity: float
    level: float = 0.0

    @property
    def free(self) -> float:
        return max(0.0, self.capacity - self.level)

    def push(self, amount: float) -> float:
        taken = min(amount, self.free)
        self.level += taken
        return taken

    def pop(self, amount: float) -> float:
        taken = min(amount, self.level)
        self.level -= taken
        return taken


@dataclass
class StreamState:
    """One in-flight stream on an engine.

    Attributes:
        total_elements: elements this stream must move over the region.
        elements_per_cycle_cap: engine-side transfer width for this stream
            (bandwidth / element size, in elements).
        port: destination (read) or source (write) FIFO.
        is_read: direction — reads fill the port, writes drain it.
        l2_fraction / dram_fraction: share of each transferred element that
            consumes L2/NoC and DRAM bandwidth (0 for scratchpad streams).
        element_bytes: size of one element in bytes.
    """

    name: str
    total_elements: float
    elements_per_cycle_cap: float
    port: PortFifo
    is_read: bool
    element_bytes: float
    l2_fraction: float = 0.0
    dram_fraction: float = 0.0
    dispatched_at: int = 0
    moved: float = 0.0

    @property
    def remaining(self) -> float:
        return max(0.0, self.total_elements - self.moved)

    @property
    def done(self) -> bool:
        # Relative tolerance: fractional transfers accumulate float error.
        return self.remaining <= 1e-6 * max(1.0, self.total_elements)


@dataclass
class BandwidthPool:
    """A shared per-cycle byte budget (L2 banks, NoC link, DRAM channels)."""

    name: str
    bytes_per_cycle: float
    available: float = 0.0
    consumed_total: float = 0.0

    def refill(self) -> None:
        self.available = self.bytes_per_cycle

    def take(self, want_bytes: float) -> float:
        got = min(want_bytes, self.available)
        self.available -= got
        self.consumed_total += got
        return got


class EngineSim:
    """One stream engine: issues one stream per cycle, round-robin.

    Implements the Fig. 11 behavior: a flip-flop-based stream table cannot
    re-issue the same stream on back-to-back cycles, so a *single* active
    stream issues every other cycle — unless the one-hot bypass is enabled,
    which forwards the updated entry combinationally and restores full
    rate.  With two or more ready streams the table is naturally pipelined.
    """

    def __init__(
        self,
        name: str,
        bandwidth_bytes: float,
        pools: Tuple[BandwidthPool, ...] = (),
        onehot_bypass: bool = True,
    ):
        self.name = name
        self.bandwidth_bytes = bandwidth_bytes
        self.pools = pools
        self.onehot_bypass = onehot_bypass
        self.streams: List[StreamState] = []
        self._rr = 0
        self._last_issued: Optional[StreamState] = None
        self.issued_cycles = 0
        self.busy_cycles = 0

    def add_stream(self, stream: StreamState) -> None:
        self.streams.append(stream)

    @property
    def active_streams(self) -> List[StreamState]:
        return [s for s in self.streams if not s.done]

    def _ready(self, stream: StreamState, now: int) -> bool:
        if stream.done or now < stream.dispatched_at:
            return False
        if stream.is_read:
            return stream.port.free > 1e-9
        return stream.port.level > 1e-9

    def _serve(self, stream: StreamState, budget_elems: float) -> float:
        """Transfer up to ``budget_elems`` of one stream; returns elements."""
        want = min(
            stream.remaining,
            stream.elements_per_cycle_cap,
            budget_elems,
        )
        if stream.is_read:
            want = min(want, stream.port.free)
        else:
            want = min(want, stream.port.level)
        # Shared-bandwidth arbitration: L2/NoC and DRAM byte budgets.
        if want > 0 and self.pools:
            for pool, fraction in zip(
                self.pools, (stream.l2_fraction, stream.dram_fraction)
            ):
                if fraction <= 0:
                    continue
                need_bytes = want * fraction * stream.element_bytes
                got = pool.take(need_bytes)
                if got < need_bytes - 1e-9:
                    want = got / (fraction * stream.element_bytes)
        if want <= 1e-12:
            return 0.0
        if stream.is_read:
            stream.port.push(want)
        else:
            stream.port.pop(want)
            forward = getattr(stream, "forward_to", None)
            if forward is not None:
                forward.push(want)
        stream.moved += want
        return want

    def step(self, now: int) -> float:
        """Advance one cycle; returns elements moved.

        The engine issues requests for its ready streams round-robin within
        one cycle's byte budget; responses fill each stream's port in
        parallel (the ROB completes multiple transactions per cycle, as in
        Section VI-C).  The serialization hazard is the *stream table*:
        without the one-hot bypass a solitary active stream can only issue
        every other cycle (Fig. 11a).
        """
        candidates = [s for s in self.streams if self._ready(s, now)]
        if not candidates:
            self._last_issued = None
            return 0.0
        active = self.active_streams
        if (
            len(active) == 1
            and not self.onehot_bypass
            and self._last_issued is active[0]
        ):
            self._last_issued = None
            return 0.0
        budget = self.bandwidth_bytes
        moved = 0.0
        n = len(candidates)
        for offset in range(n):
            stream = candidates[(self._rr + offset) % n]
            got = self._serve(stream, budget / stream.element_bytes)
            moved += got
            budget -= got * stream.element_bytes
            if budget <= 1e-12:
                break
        self._rr = (self._rr + 1) % n
        if moved > 0:
            self._last_issued = active[0] if len(active) == 1 else None
            self.issued_cycles += 1
            self.busy_cycles += 1
        else:
            self._last_issued = None
        return moved

    @property
    def done(self) -> bool:
        return all(s.done for s in self.streams)


@dataclass
class FabricConfig:
    """Static description of one tile's compute configuration."""

    #: (port fifo, elements consumed per firing) for every input port.
    inputs: List[Tuple[PortFifo, float]]
    #: (port fifo, elements produced per firing) for every output port.
    outputs: List[Tuple[PortFifo, float]]
    total_firings: float
    pipeline_depth: int
    insts_per_firing: float


class FabricSim:
    """Dedicated-dataflow fabric: one firing per cycle when operands are
    ready and downstream FIFOs have space (II = 1)."""

    def __init__(self, config: FabricConfig):
        self.config = config
        self.firings = 0.0
        #: results in flight: (completion cycle, firing count)
        self._pipeline: List[Tuple[int, float]] = []
        self.stall_cycles = 0

    @property
    def remaining(self) -> float:
        remaining = self.config.total_firings - self.firings
        if remaining <= 1e-6 * max(1.0, self.config.total_firings):
            return 0.0
        return remaining

    @property
    def done(self) -> bool:
        return self.remaining <= 0.0 and not self._pipeline

    def step(self, now: int) -> float:
        # Retire pipeline outputs into output ports, in order.  A full
        # output FIFO stalls retirement — and therefore the whole pipeline.
        while self._pipeline and self._pipeline[0][0] <= now:
            due, count = self._pipeline[0]
            can_push = count
            for port, rate in self.config.outputs:
                if rate > 0:
                    can_push = min(can_push, port.free / rate)
            if can_push <= 1e-12:
                break
            for port, rate in self.config.outputs:
                port.push(can_push * rate)
            if can_push >= count - 1e-12:
                self._pipeline.pop(0)
            else:
                self._pipeline[0] = (due, count - can_push)
                break
        blocked = bool(self._pipeline) and self._pipeline[0][0] <= now
        if self.remaining <= 0.0:
            return 0.0
        if blocked:
            self.stall_cycles += 1
            return 0.0
        # How many firings can launch this cycle (up to 1)?
        can = min(1.0, self.remaining)
        for port, rate in self.config.inputs:
            if rate <= 0:
                continue
            can = min(can, port.level / rate)
        if can <= 1e-12:
            self.stall_cycles += 1
            return 0.0
        for port, rate in self.config.inputs:
            port.pop(can * rate)
        self._pipeline.append((now + self.config.pipeline_depth, can))
        self.firings += can
        return can
