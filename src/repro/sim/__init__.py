"""Cycle-level simulator for generated overlays (Section VI hardware)."""

from .components import (
    BandwidthPool,
    EngineSim,
    FabricConfig,
    FabricSim,
    PortFifo,
    StreamState,
)
from .dispatcher import (
    Barrier,
    DispatchRecord,
    MIN_DISPATCH_LATENCY,
    StreamCommand,
    StreamDispatcher,
)
from .batch import simulate_batch
from .multiplex import (
    MultiplexResult,
    reconfiguration_cycles,
    run_sequence,
)
from .vector import vector_core_available
from .simulator import (
    SimResult,
    SimulationError,
    build_tile,
    critical_path_depth,
    simulate_schedule,
)

__all__ = [
    "BandwidthPool",
    "Barrier",
    "DispatchRecord",
    "MIN_DISPATCH_LATENCY",
    "MultiplexResult",
    "StreamCommand",
    "StreamDispatcher",
    "reconfiguration_cycles",
    "run_sequence",
    "EngineSim",
    "FabricConfig",
    "FabricSim",
    "PortFifo",
    "SimResult",
    "SimulationError",
    "StreamState",
    "build_tile",
    "critical_path_depth",
    "simulate_batch",
    "simulate_schedule",
    "vector_core_available",
]
