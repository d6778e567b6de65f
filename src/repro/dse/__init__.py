"""Unified spatial + system design-space exploration (Section V)."""

from .explorer import DseConfig, DseResult, Explorer, TimeModel, explore
from .system import max_tiles_that_fit, system_dse
from .transforms import (
    RANDOM_TRANSFORMS,
    TransformFailed,
    apply_random_transform,
    collapse_random_switch,
    collapse_switch,
    preserve_edge_delays,
    prune_capabilities,
)
