"""Performance and FPGA-resource models used by the DSE."""

from .perf import (
    MemoryBinding,
    PerfEstimate,
    estimate_cycles,
    estimate_ipc,
    geomean_ipc,
    preferred_binding,
    stream_demand_bytes,
)
from .resource import (
    AnalyticEstimator,
    MlEstimator,
    Resources,
    XCVU9P,
    usable_budget,
)

__all__ = [
    "AnalyticEstimator",
    "MemoryBinding",
    "MlEstimator",
    "PerfEstimate",
    "Resources",
    "XCVU9P",
    "estimate_cycles",
    "estimate_ipc",
    "geomean_ipc",
    "preferred_binding",
    "stream_demand_bytes",
    "usable_budget",
]
