"""FPGA resource modeling: device budgets, analytic costs, ML predictor."""

from .analytic import (
    CATEGORIES,
    control_core_resources,
    dispatcher_resources,
    footprint,
    l2_resources,
    pe_resources,
    switch_resources,
    system_total,
)
from .dataset import TABLE1_COUNTS, generate_all
from .device import Resources, XCVU9P, usable_budget
from .predictor import AnalyticEstimator, MlEstimator
