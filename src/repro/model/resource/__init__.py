"""FPGA resource modeling: device budgets, analytic costs, ML predictor.

The ML predictor (:mod:`.mlp`'s ``MlEstimator``) and its dataset
(:mod:`.dataset`'s ``generate_all``, ``TABLE1_COUNTS``) are imported from
their own modules, not from here: they are the only numpy users, and the
pipeline never loads numpy."""

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
from .device import Resources, XCVU9P, usable_budget
from .predictor import AnalyticEstimator
