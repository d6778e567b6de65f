"""FPGA resource modeling: device budgets, analytic costs, ML predictor."""

from .analytic import (
    CATEGORIES,
    control_core_resources,
    dispatcher_resources,
    dma_resources,
    in_port_resources,
    l2_resources,
    noc_resources,
    node_resources,
    out_port_resources,
    pe_resources,
    spad_resources,
    switch_resources,
    system_total,
)
from .dataset import (
    ComponentDataset,
    GENERATORS,
    TABLE1_COUNTS,
    generate_all,
)
from .device import Resources, USABLE_FRACTION, XCVU9P, usable_budget
from .mlp import MlpConfig, ResourceMlp
from .predictor import AnalyticEstimator, MlEstimator

__all__ = [
    "AnalyticEstimator",
    "CATEGORIES",
    "ComponentDataset",
    "GENERATORS",
    "MlEstimator",
    "MlpConfig",
    "ResourceMlp",
    "Resources",
    "TABLE1_COUNTS",
    "USABLE_FRACTION",
    "XCVU9P",
    "control_core_resources",
    "dispatcher_resources",
    "dma_resources",
    "generate_all",
    "in_port_resources",
    "l2_resources",
    "noc_resources",
    "node_resources",
    "out_port_resources",
    "pe_resources",
    "spad_resources",
    "switch_resources",
    "system_total",
    "usable_budget",
]
