"""The AutoDSE/HLS baseline (Merlin + Vivado), modeled analytically."""

from .autodse import (
    AutoDseResult,
    HLS_BUDGET_FRACTION,
    run_autodse,
)
from .kernels import (
    HlsKernelInfo,
    KERNEL_INFO,
    OVERGEN_TUNED_WORKLOADS,
    kernel_info,
)
from .model import (
    HLS_FREQUENCY_MHZ,
    HlsDesign,
    design_resources,
    evaluate_design,
    hls_dram_bytes_per_cycle,
    unroll_cap,
)

__all__ = [
    "AutoDseResult",
    "HLS_BUDGET_FRACTION",
    "HLS_FREQUENCY_MHZ",
    "HlsDesign",
    "HlsKernelInfo",
    "KERNEL_INFO",
    "OVERGEN_TUNED_WORKLOADS",
    "design_resources",
    "evaluate_design",
    "hls_dram_bytes_per_cycle",
    "kernel_info",
    "run_autodse",
    "unroll_cap",
]
