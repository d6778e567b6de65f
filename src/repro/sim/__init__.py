"""Cycle-level simulator for generated overlays (Section VI hardware).

:mod:`~repro.sim.simulator` builds and steps one region;
:mod:`~repro.sim.batch` holds the one stepping driver,
:func:`simulate_batch`, and :func:`simulate_schedule`, its batch of one.
"""

from .components import (
    BandwidthPool,
    EngineSim,
    FabricConfig,
    FabricSim,
    PortFifo,
    StreamState,
)
from .batch import simulate_batch, simulate_schedule
from .multiplex import reconfiguration_cycles, run_sequence
from .vector import vector_core_available
from .simulator import (
    MIN_DISPATCH_LATENCY,
    SimResult,
    SimulationError,
    build_tile,
    critical_path_depth,
)
