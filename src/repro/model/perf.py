"""Bottleneck-based performance model (Section V-C, Equations 1-2).

An mDFG's estimated IPC is::

    IPC = (mDFG insts) x (# tiles) x min over levels (R_prod / R_cons)

where the levels are the scratchpads (L1), the shared L2, and DRAM, plus
the auxiliary recurrence/generate engine bandwidths.  Consumption rates are
reuse-discounted: a stream whose value is held stationary at its port only
fetches once per ``held`` firings, and a stream whose array lives in the
scratchpad or hits in L2 stops consuming downstream bandwidth.

Every factor is capped at 1, so :func:`ipc_ceiling` — Eq. 1 with the
bottleneck term at its cap — bounds the IPC of any binding without one.

A :class:`BottleneckProfile` holds what the system grid cannot change —
the classified streams, the per-engine factors and their minimum — and one
routine, ``_levels``, for the three levels it can (NoC, L2, DRAM), shared by
``at`` (the full :class:`PerfEstimate`) and ``ipc_at`` (the same float alone).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from ..adg import ADG, NodeKind, SystemParams
from ..dfg import MDFG, ArrayNode, StreamKind, StreamNode


@dataclass(frozen=True)
class MemoryBinding:
    """Where each memory stream of an mDFG executes.

    ``stream_engine`` maps stream node-id -> ADG engine node-id; the engine
    kind determines the level (scratchpad vs DMA/L2/DRAM).  Produced by the
    spatial scheduler; before scheduling, wrap the map of
    :func:`repro.scheduler.bind_engines` (its array entries go unread).
    """

    stream_engine: Mapping[int, int]

    def engine_of(self, stream_id: int) -> Optional[int]:
        return self.stream_engine.get(stream_id)


@dataclass(frozen=True)
class PerfEstimate:
    """Result of the bottleneck analysis for one (mDFG, system) pair."""

    ipc: float
    tiles_used: float
    insts_per_cycle: float
    factors: Dict[str, float]

    @property
    def bottleneck(self) -> str:
        """The level that limits performance ('none' when compute-bound)."""
        limiting = min(self.factors, key=lambda k: self.factors[k], default="none")
        if not self.factors or self.factors[limiting] >= 1.0:
            return "none"
        return limiting


def stream_demand_bytes(
    stream: StreamNode, unroll: int, reuse_aware: bool = True
) -> float:
    """Bytes/cycle this stream pulls from its engine at full fabric rate.

    Stationary reuse at the port divides the demand: the stream delivers one
    value per ``held`` firings (``held`` = stationary trips / unroll).
    ``reuse_aware=False`` disables the discount (the ablation of Section
    IV's reuse-annotated model).
    """
    if not reuse_aware:
        return stream.lanes * stream.dtype.bytes
    held = max(1.0, stream.stationary_reuse / max(1, unroll))
    return stream.lanes * stream.dtype.bytes / held


@dataclass(frozen=True)
class BottleneckProfile:
    """The half of Eq. 1-2 that does not read :class:`SystemParams`.

    Built once per (mDFG, binding, ADG) by :func:`bottleneck_profile`;
    :meth:`at` / :meth:`ipc_at` add the grid-dependent levels (NoC, L2, DRAM)
    for one system point, so a sweep pays for stream classification once.
    """

    insts_per_cycle: float
    tile_parallelism: float
    #: Scratchpad read, scratchpad write and DMA-issue factors, in the
    #: order :attr:`PerfEstimate.factors` lists them (before noc/l2/dram).
    engine_factors: Tuple[Tuple[str, float], ...]
    #: Recurrence/generate engine factors (after noc/l2/dram).
    aux_factors: Tuple[Tuple[str, float], ...]
    #: Bytes/cycle one tile's DMA-bound streams pull past the tile.
    dma_demand: float
    #: Per DMA-bound stream: (demand, array footprint bytes, partitionable,
    #: L2-reuse divisor).  The divisor is ``max(1, array reuse)``, or 1.0
    #: in a reuse-blind profile, where a stream that fits L2 still pays.
    dma_streams: Tuple[Tuple[float, float, bool, float], ...]
    #: min over ``engine_factors`` + ``aux_factors`` — the factors no system
    #: point moves; inf when there are none.
    static_min: float = field(init=False)

    def __post_init__(self) -> None:
        fixed = [f for _key, f in self.engine_factors + self.aux_factors]
        object.__setattr__(self, "static_min", min(fixed, default=math.inf))

    def at(
        self, params: SystemParams, num_tiles: Optional[int] = None
    ) -> PerfEstimate:
        """The estimate at one system point (``num_tiles`` overrides)."""
        tiles = params.num_tiles if num_tiles is None else num_tiles
        tiles_used, *levels = self._levels(
            tiles, params.l2_banks, params.l2_bytes, params.noc_bytes_per_cycle, params
        )
        factors: Dict[str, float] = dict(self.engine_factors)
        for key, level in zip(("noc", "l2", "dram"), levels):
            if level is not None:
                factors[key] = level
        factors.update(self.aux_factors)
        bottleneck = min(factors.values()) if factors else 1.0
        return PerfEstimate(
            ipc=self.insts_per_cycle * tiles_used * min(1.0, bottleneck),
            tiles_used=tiles_used,
            insts_per_cycle=self.insts_per_cycle,
            factors=factors,
        )

    def ipc_at(self, tiles, l2_banks, l2_kib, noc_bytes, platform) -> float:
        """``at(...).ipc`` at one grid point, bit for bit, and nothing else;
        ``platform`` (a :class:`SystemParams`) supplies the grid-invariant
        L2 bank bandwidth and DRAM bytes per cycle."""
        tiles_used, noc, l2, dram = self._levels(
            tiles, l2_banks, l2_kib * 1024, noc_bytes, platform
        )
        bottleneck = self.static_min
        for level in (noc, l2, dram):
            if level is not None and level < bottleneck:
                bottleneck = level
        return self.insts_per_cycle * tiles_used * min(1.0, bottleneck)

    def _levels(self, tiles, l2_banks, l2_bytes, noc_bytes, platform):
        """``(tiles_used, noc, l2, dram)``; a level without demand is None."""
        tiles_used = min(float(tiles), self.tile_parallelism)
        noc = l2 = dram = None
        dma_demand = self.dma_demand
        if dma_demand > 0:
            # NoC: each tile's crossbar link bounds its own L2 traffic.
            noc = noc_bytes / dma_demand
            # L2: shared across tiles; banks multiply production (Eq. 2).
            production = platform.l2_bank_bandwidth * l2_banks
            l2 = production / (dma_demand * tiles_used)

        # DRAM: streams whose working set misses in L2 keep their demand;
        # those whose footprint fits are filtered by L2 reuse.  Arrays
        # shared by every tile are replicated in the working set;
        # partitionable ones split across tiles (one copy in total).
        copies = max(1, int(tiles_used))
        dram_demand_tile = 0.0
        for demand, footprint, partitionable, reuse in self.dma_streams:
            if not partitionable:
                footprint = footprint * copies
            if footprint <= l2_bytes:
                demand /= reuse
            dram_demand_tile += demand
        if dram_demand_tile > 0:
            dram = platform.dram_bytes_per_cycle / (
                dram_demand_tile * tiles_used
            )
        return tiles_used, noc, l2, dram


def ipc_ceiling(mdfg: MDFG, params: SystemParams) -> float:
    """An upper bound on ``estimate_ipc(mdfg, binding, adg, params).ipc``
    over every binding and ADG, computed without one.

    :meth:`BottleneckProfile.at` multiplies this very product by
    ``min(1.0, bottleneck)``; rounding is monotone, so the bound holds bit
    for bit.
    """
    return mdfg.insts_per_cycle * min(
        float(params.num_tiles), mdfg.tile_parallelism
    )


def bottleneck_profile(
    mdfg: MDFG,
    binding: MemoryBinding,
    adg: ADG,
    reuse_aware: bool = True,
) -> BottleneckProfile:
    """Classify every stream by its engine and sum per-engine demand.

    ``reuse_aware=False`` builds the ablated model: no stationary-port
    discount and no L2-reuse filtering of DRAM demand (every stream pays
    full bandwidth at every level).
    """
    arrays: Dict[str, ArrayNode] = {}
    for array in mdfg.arrays:
        arrays.setdefault(array.array, array)

    # L1: per-scratchpad read/write bandwidth (private per tile, banks=1).
    spad_read: Dict[int, float] = {}
    spad_write: Dict[int, float] = {}
    dma_streams: List[Tuple[float, float, bool, float]] = []
    rec_demand = 0.0
    gen_demand = 0.0
    for stream in mdfg.streams:
        engine_id = binding.engine_of(stream.node_id)
        if engine_id is None or not adg.has_node(engine_id):
            continue
        kind = adg.node(engine_id).kind
        demand = stream_demand_bytes(stream, mdfg.unroll, reuse_aware)
        if kind is NodeKind.SPAD:
            if stream.kind is StreamKind.MEMORY_READ:
                spad_read[engine_id] = spad_read.get(engine_id, 0.0) + demand
            else:
                spad_write[engine_id] = spad_write.get(engine_id, 0.0) + demand
        elif kind is NodeKind.DMA:
            demand *= stream.stride_overfetch
            array = arrays.get(stream.array)
            if array is None:
                dma_streams.append((demand, 0.0, True, 1.0))
            else:
                reuse = max(1.0, array.memory_reuse) if reuse_aware else 1.0
                footprint = float(array.footprint_bytes)
                dma_streams.append(
                    (demand, footprint, array.partitionable, reuse)
                )
        elif kind is NodeKind.RECURRENCE:
            rec_demand += demand
        elif kind is NodeKind.GENERATE:
            gen_demand += demand
        # register engine bandwidth is negligible (scalar collection)
    engine_factors: List[Tuple[str, float]] = []
    for engine_id, demand in spad_read.items():
        if demand > 0:
            bandwidth = adg.node(engine_id).read_bandwidth
            engine_factors.append((f"spad{engine_id}.read", bandwidth / demand))
    for engine_id, demand in spad_write.items():
        if demand > 0:
            bandwidth = adg.node(engine_id).write_bandwidth
            engine_factors.append((f"spad{engine_id}.write", bandwidth / demand))

    # DMA engine issue bandwidth (per tile).
    dma_demand = sum((stream[0] for stream in dma_streams), 0.0)
    if dma_demand > 0:
        dma_bw = max((d.bandwidth_bytes for d in adg.dmas), default=0)
        if dma_bw:
            engine_factors.append(("dma", dma_bw / dma_demand))

    # Auxiliary engines.
    aux_factors: List[Tuple[str, float]] = []
    for key, kind, demand in (
        ("rec", NodeKind.RECURRENCE, rec_demand),
        ("gen", NodeKind.GENERATE, gen_demand),
    ):
        if demand > 0:
            bandwidth = max(
                (e.bandwidth_bytes for e in adg.of_kind(kind)), default=0
            )
            if bandwidth:
                aux_factors.append((key, bandwidth / demand))

    return BottleneckProfile(
        insts_per_cycle=mdfg.insts_per_cycle,
        tile_parallelism=mdfg.tile_parallelism,
        engine_factors=tuple(engine_factors),
        aux_factors=tuple(aux_factors),
        dma_demand=dma_demand,
        dma_streams=tuple(dma_streams),
    )


def estimate_ipc(
    mdfg: MDFG,
    binding: MemoryBinding,
    adg: ADG,
    params: SystemParams,
    num_tiles: Optional[int] = None,
    reuse_aware: bool = True,
) -> PerfEstimate:
    """Equations 1-2: bottleneck-limited IPC of ``mdfg`` on the overlay.

    ``reuse_aware=False`` runs the ablated model (see
    :func:`bottleneck_profile`).
    """
    return bottleneck_profile(mdfg, binding, adg, reuse_aware).at(
        params, num_tiles
    )


def estimate_cycles(
    mdfg: MDFG,
    binding: MemoryBinding,
    adg: ADG,
    params: SystemParams,
) -> float:
    """Estimated execution cycles of the region on the full overlay."""
    est = estimate_ipc(mdfg, binding, adg, params)
    if est.ipc <= 0:
        return float("inf")
    return mdfg.total_instructions / est.ipc


def geomean_ipc(estimates: List[PerfEstimate], weights=None) -> float:
    """Weighted geometric-mean IPC across workloads (the DSE objective)."""
    return geomean([est.ipc for est in estimates], weights)


def geomean(ipcs: Sequence[float], weights=None) -> float:
    """Weighted geometric mean of IPCs, each floored at 1e-9."""
    if not ipcs:
        return 0.0
    if weights is None:
        weights = [1.0] * len(ipcs)
    elif len(weights) != len(ipcs):
        raise ValueError(f"{len(weights)} weights for {len(ipcs)} estimates")
    total_w = sum(weights)
    log_sum = 0.0
    for ipc, w in zip(ipcs, weights):
        log_sum += w * math.log(max(ipc, 1e-9))
    return math.exp(log_sum / total_w)
