"""Performance and FPGA-resource models used by the DSE."""

from .perf import (
    estimate_cycles,
    estimate_ipc,
    geomean_ipc,
    stream_demand_bytes,
)
