"""Nested system-level DSE (Section V-A).

For a fixed tile ADG (with workloads already scheduled), exhaustively sweep
the system grid — L2 banks, L2 capacity, NoC bandwidth — and for each point
derive the largest tile count that fits the FPGA budget.  The objective
favors estimated performance first, then fewer resources per accelerator
(the secondary objective that gives the spatial DSE an incentive to prune).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict, List, Optional, Sequence, Tuple

from ..adg import ADG, SysADG, SystemParams, system_param_space
from ..model.perf import PerfEstimate, estimate_ipc, geomean_ipc
from ..model.resource import (
    AnalyticEstimator,
    Resources,
    control_core_resources,
    l2_resources,
    noc_resources,
    usable_budget,
)
from ..profile.tracer import span
from ..scheduler import Schedule


@dataclass
class SystemChoice:
    """The best system configuration found for one candidate ADG."""

    params: SystemParams
    objective: float            # weighted geomean estimated IPC
    tile_resources: Resources   # one accelerator tile (secondary objective)
    system_total: Resources
    estimates: Dict[str, PerfEstimate]


def max_tiles_that_fit(
    tile: Resources,
    params: SystemParams,
    budget: Resources,
    cap: int = 16,
) -> int:
    """Largest tile count whose full system fits ``budget`` (0 if none)."""
    core = control_core_resources()
    l2 = l2_resources(params.l2_kib, params.l2_banks)
    for tiles in range(cap, 0, -1):
        total = (
            (tile + core) * tiles
            + l2
            + noc_resources(tiles, params.noc_bytes_per_cycle)
        )
        if total.fits_in(budget):
            return tiles
    return 0


def system_dse(
    adg: ADG,
    schedules: Sequence[Schedule],
    estimator: Optional[AnalyticEstimator] = None,
    budget: Optional[Resources] = None,
    max_tiles: int = 16,
    weights: Optional[Sequence[float]] = None,
) -> Optional[SystemChoice]:
    """Exhaustive sweep of the system grid for one candidate ADG.

    Returns None when no grid point fits even one tile.  This is the one
    ``dse.system`` span site, so every caller (explorer loop, seed and
    polish sweeps, ``search.evaluate``) is attributed.
    """
    estimator = estimator or AnalyticEstimator()
    budget = budget or usable_budget()
    best: Optional[SystemChoice] = None
    with span("dse.system"):
        tile = estimator.tile(adg)
        for l2_banks, l2_kib, noc_bytes in system_param_space():
            params = SystemParams(
                num_tiles=1,
                l2_banks=l2_banks,
                l2_kib=l2_kib,
                noc_bytes_per_cycle=noc_bytes,
            )
            tiles = max_tiles_that_fit(tile, params, budget, cap=max_tiles)
            if tiles == 0:
                continue
            params = replace(params, num_tiles=tiles)
            estimates = {}
            for schedule in schedules:
                est = estimate_ipc(
                    schedule.mdfg, schedule.binding(), adg, params
                )
                estimates[schedule.mdfg.workload] = est
            objective = geomean_ipc(list(estimates.values()), weights)
            core = control_core_resources()
            total = (
                (tile + core) * tiles
                + l2_resources(l2_kib, l2_banks)
                + noc_resources(tiles, noc_bytes)
            )
            candidate = SystemChoice(
                params=params,
                objective=objective,
                tile_resources=tile,
                system_total=total,
                estimates=estimates,
            )
            if best is None or _better(candidate, best):
                best = candidate
    return best


def _better(a: SystemChoice, b: SystemChoice) -> bool:
    """Objective order: performance first, then resources-per-accelerator."""
    if a.objective != b.objective:
        return a.objective > b.objective
    return a.tile_resources.lut < b.tile_resources.lut
