"""Experiment harness: drivers, caching, rendering, reporting."""

from .experiments import (
    FIG18_ORDER,
    autodse,
    fig13_geomeans,
    fig13_overall,
    fig14_tuning,
    fig15_dse_time,
    fig15_summary,
    fig16_autodse,
    fig16_overlays,
    fig17_leave_one_out,
    fig18_generality_cost,
    fig18_incremental,
    fig19_dram_channels,
    fig20_schedule_preserving,
    leave_one_out_overlay,
    og_seconds_suite,
    suite_overlay,
    table2_workload_specs,
    table3_suite_overlays,
    table4_hls_ii,
)
from .tables import geomean, render_series, render_table

