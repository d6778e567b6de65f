"""The AutoDSE/HLS baseline (Merlin + Vivado), modeled analytically."""

from .autodse import AutoDseResult, run_autodse
from .kernels import KERNEL_INFO, kernel_info
from .model import (
    HLS_FREQUENCY_MHZ,
    design_resources,
    evaluate_design,
    hls_dram_bytes_per_cycle,
    unroll_cap,
)
