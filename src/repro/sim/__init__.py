"""Cycle-level simulator for generated overlays (Section VI hardware)."""

from .components import (
    BandwidthPool,
    EngineSim,
    FabricConfig,
    FabricSim,
    PortFifo,
    StreamState,
)
from .batch import simulate_batch
from .multiplex import reconfiguration_cycles, run_sequence
from .vector import vector_core_available
from .simulator import (
    MIN_DISPATCH_LATENCY,
    SimResult,
    SimulationError,
    build_tile,
    critical_path_depth,
    simulate_schedule,
)
