"""Tile/system simulation of a scheduled mDFG on an overlay.

A :class:`Region` is one tile's worth of engines/ports/fabric built from a
:class:`~repro.scheduler.Schedule`; it shares L2/NoC/DRAM bandwidth pools
with the other (homogeneous) tiles and is stepped until it drains.
Because every tile runs the same kernel on its slice of the outer parallel
loop, one simulated tile against 1/N of the shared bandwidth reproduces the
full-system behavior at a fraction of the cost.

This module owns everything about *one* region: building it
(:func:`build_tile`), the reference per-cycle loop
(:meth:`Region.step_object`) and result assembly (:meth:`Region.result`).
Stepping is always driven by :func:`repro.sim.batch.simulate_batch`;
:func:`simulate_schedule` is that call with a batch of one.

Modeling notes (substitutions documented in DESIGN.md):

* Scratchpad-resident arrays are assumed double-buffered, with fills
  overlapped — steady-state behavior, as in the paper's kernels.
* Recurrence input ports start primed (the initial values are architected
  to arrive before the hot loop).
* Long regions are simulated exactly for a warm-up + measurement window
  and extrapolated at the measured steady-state rate; `exact=True` forces
  a full run.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from ..adg import ADG, NodeKind, SysADG
from ..dfg import (
    ComputeNode,
    InputPortNode,
    MDFG,
    OutputPortNode,
    StreamKind,
    StreamNode,
)
from ..ir import op_latency
from ..scheduler import Schedule
from .components import (
    BandwidthPool,
    EngineSim,
    FabricConfig,
    FabricSim,
    PortFifo,
    StreamState,
)
from .dispatcher import MIN_DISPATCH_LATENCY

#: Port FIFO depth in vector lines (elements = depth x port lanes).
PORT_FIFO_LINES = 8


@dataclass
class SimResult:
    """Outcome of simulating one workload region on the overlay."""

    workload: str
    variant: str
    cycles: float
    instructions: float
    tiles_used: int
    extrapolated: bool
    #: cycles actually stepped by the event loop (== cycles - config
    #: reload when not extrapolated); the denominator of cycles/sec rates.
    stepped_cycles: int = 0
    engine_busy: Dict[str, int] = field(default_factory=dict)
    pool_bytes: Dict[str, float] = field(default_factory=dict)
    fabric_stalls: int = 0

    @property
    def ipc(self) -> float:
        """Whole-FPGA achieved IPC (all tiles)."""
        if self.cycles <= 0:
            return 0.0
        return self.instructions / self.cycles

    def seconds(self, frequency_mhz: float) -> float:
        return self.cycles / (frequency_mhz * 1e6)


class SimulationError(RuntimeError):
    """Raised when the simulated system deadlocks or cannot be built."""


def critical_path_depth(mdfg: MDFG, schedule: Schedule) -> int:
    """Pipeline depth: longest (route hops + op latency) path to an output."""
    depth: Dict[int, int] = {}
    #: destination node -> (source node, route hops) of every routed edge
    into: Dict[int, List[Tuple[int, int]]] = {}
    for (src, dst, _slot), path in schedule.routes.items():
        into.setdefault(dst, []).append((src, len(path) - 1))

    def node_depth(nid: int) -> int:
        if nid in depth:
            return depth[nid]
        node = mdfg.node(nid)
        best = 0
        for src, hops in into.get(nid, ()):
            best = max(best, node_depth(src) + hops)
        if isinstance(node, ComputeNode):
            best += op_latency(node.op, node.dtype.is_float)
        depth[nid] = best
        return best

    outs = [p.node_id for p in mdfg.output_ports]
    if not outs:
        return 4
    return max(4, max(node_depth(o) for o in outs))


def _stream_elements_per_firing(mdfg: MDFG, stream: StreamNode) -> float:
    """Engine-supplied elements of this stream per fabric firing.

    Stationary values are held and replayed by the port FIFO, so the engine
    only transfers one element per ``held`` firings (Section IV-B).
    """
    firings = mdfg.iterations / mdfg.unroll
    if firings <= 0:
        return 0.0
    held = max(1.0, stream.stationary_reuse / max(1, mdfg.unroll))
    return stream.traffic / held / firings


def build_tile(
    schedule: Schedule,
    sysadg: SysADG,
    tiles_used: int,
    onehot_bypass: bool = True,
) -> Tuple[List[EngineSim], FabricSim, List[BandwidthPool]]:
    """Construct one tile's simulation from a schedule."""
    mdfg = schedule.mdfg
    adg = sysadg.adg
    params = sysadg.params
    # Each of these is a scan over every mDFG node: read them once.
    streams = mdfg.streams
    input_ports = mdfg.input_ports
    output_ports = mdfg.output_ports
    arrays = mdfg.arrays
    eps_of = {
        s.node_id: _stream_elements_per_firing(mdfg, s) for s in streams
    }

    # Shared bandwidth: each tile sees its NoC link and a 1/N share of the
    # L2 banks and DRAM channels.
    l2_share = min(
        float(params.noc_bytes_per_cycle),
        params.l2_bank_bandwidth * params.l2_banks / tiles_used,
    )
    l2_pool = BandwidthPool("l2", l2_share)
    dram_pool = BandwidthPool(
        "dram", params.dram_bytes_per_cycle / tiles_used
    )

    firings_total = mdfg.iterations / mdfg.unroll / tiles_used

    # Port FIFOs.
    fifos: Dict[int, PortFifo] = {}
    for port_node in input_ports + output_ports:
        hw_id = schedule.placement.get(port_node.node_id)
        if hw_id is None:
            raise SimulationError(f"port {port_node.node_id} unplaced")
        lanes = max(
            1.0, port_node.width_bytes / mdfg.dtype.bytes
        )
        fifos[port_node.node_id] = PortFifo(
            name=f"port{port_node.node_id}",
            capacity=lanes * PORT_FIFO_LINES,
        )

    # Engines.
    engines: Dict[int, EngineSim] = {}

    def engine_for(hw_id: int) -> EngineSim:
        if hw_id in engines:
            return engines[hw_id]
        hw = adg.node(hw_id)
        if hw.kind is NodeKind.SPAD:
            bw = float(hw.read_bandwidth + hw.write_bandwidth) / 2
            pools: Tuple[BandwidthPool, ...] = ()
        elif hw.kind is NodeKind.DMA:
            bw = float(hw.bandwidth_bytes)
            pools = (l2_pool, dram_pool)
        elif hw.kind is NodeKind.RECURRENCE:
            bw = float(hw.bandwidth_bytes)
            pools = ()
        elif hw.kind is NodeKind.GENERATE:
            bw = float(hw.bandwidth_bytes)
            pools = ()
        else:  # register engine
            bw = 8.0
            pools = ()
        engines[hw_id] = EngineSim(
            name=hw.name,
            bandwidth_bytes=bw,
            pools=pools,
            onehot_bypass=onehot_bypass,
        )
        return engines[hw_id]

    # Streams.
    dispatch_order = 0
    rec_handled: set = set()
    for stream in sorted(streams, key=lambda s: s.node_id):
        engine_id = schedule.placement.get(stream.node_id)
        if engine_id is None:
            raise SimulationError(f"stream {stream.node_id} unbound")
        hw = adg.node(engine_id)
        port_fifo = fifos[stream.port]
        total = eps_of[stream.node_id] * firings_total
        if total <= 0:
            continue
        if stream.kind is StreamKind.RECURRENCE:
            if stream.node_id in rec_handled:
                continue
            pair = mdfg.node(stream.recurrent_pair)
            out_stream = (
                stream
                if isinstance(mdfg.node(stream.port), OutputPortNode)
                else pair
            )
            in_stream = pair if out_stream is stream else stream
            out_fifo = fifos[out_stream.port]
            in_fifo = fifos[in_stream.port]
            # The recurrence engine's buffer extends the in-port FIFO: the
            # recurring working set (Fig. 5's "32 concurrent instances")
            # lives in buffer + FIFO + pipeline while it cycles.
            in_fifo.capacity += hw.buffer_bytes / stream.dtype.bytes
            # Prime the recurrence input with its initial values.
            in_fifo.level = in_fifo.capacity
            state = StreamState(
                name=f"rec{stream.node_id}",
                total_elements=total,
                elements_per_cycle_cap=out_fifo.capacity,
                port=out_fifo,
                is_read=False,
                element_bytes=stream.dtype.bytes,
                dispatched_at=MIN_DISPATCH_LATENCY + dispatch_order,
            )
            state.forward_to = in_fifo  # type: ignore[attr-defined]
            engine_for(engine_id).add_stream(state)
            rec_handled.add(stream.node_id)
            rec_handled.add(pair.node_id)
            dispatch_order += 1
            continue
        is_read = not isinstance(mdfg.node(stream.port), OutputPortNode)
        l2_frac = 0.0
        dram_frac = 0.0
        if hw.kind is NodeKind.DMA:
            l2_frac = stream.stride_overfetch
            array = next(
                (a for a in arrays if a.array == stream.array), None
            )
            footprint_bytes = stream.footprint * stream.dtype.bytes
            if array is None or not array.partitionable:
                footprint_bytes *= tiles_used
            fits_l2 = footprint_bytes <= params.l2_bytes
            if fits_l2:
                reuse = array.memory_reuse if array else 1.0
                dram_frac = stream.stride_overfetch / max(1.0, reuse)
            else:
                dram_frac = stream.stride_overfetch
        hw_port = adg.node(schedule.placement[stream.port])
        cap_elems = hw_port.width_bytes / stream.dtype.bytes
        engine_for(engine_id).add_stream(
            StreamState(
                name=f"s{stream.node_id}",
                total_elements=total,
                elements_per_cycle_cap=cap_elems,
                port=port_fifo,
                is_read=is_read,
                element_bytes=stream.dtype.bytes,
                l2_fraction=l2_frac,
                dram_fraction=dram_frac,
                dispatched_at=MIN_DISPATCH_LATENCY + dispatch_order,
            )
        )
        dispatch_order += 1

    # Fabric configuration: per port, its streams' rates summed in
    # mdfg.streams order.
    port_eps = dict.fromkeys(fifos, 0)
    for stream in streams:
        port_eps[stream.port] += eps_of[stream.node_id]
    inputs = [(fifos[p.node_id], port_eps[p.node_id]) for p in input_ports]
    outputs = [(fifos[p.node_id], port_eps[p.node_id]) for p in output_ports]
    fabric = FabricSim(
        FabricConfig(
            inputs=inputs,
            outputs=outputs,
            total_firings=firings_total,
            pipeline_depth=critical_path_depth(mdfg, schedule),
            insts_per_firing=mdfg.insts_per_cycle,
        )
    )
    return list(engines.values()), fabric, [l2_pool, dram_pool]


def _resolve_core(core: Optional[str]) -> str:
    """Pick the stepping core: explicit arg > $REPRO_SIM_CORE > auto."""
    import os

    name = core or os.environ.get("REPRO_SIM_CORE") or "auto"
    if name not in ("auto", "vector", "object"):
        raise SimulationError(
            f"unknown simulator core {name!r}; expected "
            "'auto', 'vector', or 'object'"
        )
    return name


@dataclass
class Region:
    """One schedule's tile, built and ready to step, plus what the
    stepping loop (either core) leaves behind for :meth:`result`."""

    mdfg: MDFG
    tiles_used: int
    engines: List[EngineSim]
    fabric: FabricSim
    pools: List[BandwidthPool]
    #: cycles stepped by the driver loop
    now: int = 0
    #: the loop stopped at the exact-cycle cap, not at the drain
    extrapolated: bool = False
    #: firings / cycle when the steady-state measurement window opened
    window_firings: float = 0.0
    window_cycle: int = 0
    #: why stepping gave up on this region, if it did
    error: Optional[SimulationError] = None

    @classmethod
    def build(
        cls, schedule: Schedule, sysadg: SysADG, onehot_bypass: bool
    ) -> "Region":
        mdfg = schedule.mdfg
        tiles_used = max(
            1, min(sysadg.params.num_tiles, int(mdfg.tile_parallelism))
        )
        engines, fabric, pools = build_tile(
            schedule, sysadg, tiles_used, onehot_bypass=onehot_bypass
        )
        return cls(mdfg, tiles_used, engines, fabric, pools)

    @property
    def name(self) -> str:
        return f"{self.mdfg.workload}/{self.mdfg.variant}"

    @property
    def tile(self) -> Tuple[List[EngineSim], FabricSim, List[BandwidthPool]]:
        """What :func:`build_tile` returned (the packer's input)."""
        return self.engines, self.fabric, self.pools

    def no_progress(self) -> SimulationError:
        fabric = self.fabric
        return SimulationError(
            f"{self.name}: no progress for 20k cycles at cycle {self.now} "
            f"(firings={fabric.firings:.1f}/"
            f"{fabric.config.total_firings:.1f})"
        )

    def step_object(
        self, exact: bool, hard_cap: int, measure_window: int
    ) -> None:
        """The reference per-cycle loop over the component objects; the
        C kernel is its transliteration.  Raises on deadlock."""
        engines, fabric, pools = self.engines, self.fabric, self.pools
        now = 0
        last_progress_cycle = 0
        last_firings = -1.0
        while True:
            if fabric.done:
                # Residual read elements (rounding of stationary hold
                # factors) are terminated with the region: streams end when
                # their consumer configuration completes.
                for engine in engines:
                    for stream in engine.streams:
                        if stream.is_read and not stream.done:
                            stream.moved = stream.total_elements
            if fabric.done and all(e.done for e in engines):
                break
            if not exact and now >= hard_cap:
                self.extrapolated = True
                break
            for pool in pools:
                pool.refill()
            for engine in engines:
                engine.step(now)
            fabric.step(now)
            if fabric.firings != last_firings:
                last_firings = fabric.firings
                last_progress_cycle = now
            if now - last_progress_cycle > 20_000 and not fabric.done:
                self.now = now
                raise self.no_progress()
            now += 1
            if now == measure_window:
                self.window_firings = fabric.firings
                self.window_cycle = now
        self.now = now

    def result(self) -> SimResult:
        """Extrapolate if the loop stopped at the cap; assemble the result."""
        mdfg, fabric, now = self.mdfg, self.fabric, self.now
        if self.extrapolated:
            rate = (fabric.firings - self.window_firings) / max(
                1, now - self.window_cycle
            )
            if rate <= 0:
                raise SimulationError(
                    f"{self.name}: zero steady-state rate"
                )
            remaining = fabric.config.total_firings - fabric.firings
            total_cycles = now + remaining / rate
        else:
            total_cycles = float(now)
        # 1 word/cycle reconfiguration reload
        total_cycles += mdfg.config_words
        return SimResult(
            workload=mdfg.workload,
            variant=mdfg.variant,
            cycles=total_cycles,
            instructions=mdfg.total_instructions,
            tiles_used=self.tiles_used,
            extrapolated=self.extrapolated,
            stepped_cycles=now,
            engine_busy={e.name: e.busy_cycles for e in self.engines},
            pool_bytes={p.name: p.consumed_total for p in self.pools},
            fabric_stalls=fabric.stall_cycles,
        )


def simulate_schedule(
    schedule: Schedule, sysadg: SysADG, **options: Any
) -> SimResult:
    """Simulate one scheduled region on the overlay; returns cycles/IPC.

    The batch of one: ``options`` are
    :func:`~repro.sim.batch.simulate_batch`'s keywords
    (``onehot_bypass``, ``exact``, ``max_exact_cycles``,
    ``measure_window``, ``core``) and its defaults are the only
    defaults.
    """
    from .batch import simulate_batch

    return simulate_batch([(schedule, sysadg)], dedupe=False, **options)[0]
