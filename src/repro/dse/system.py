"""Nested system-level DSE (Section V-A).

For a fixed tile ADG (with workloads already scheduled), exhaustively sweep
the system grid — L2 banks, L2 capacity, NoC bandwidth — and for each point
derive the largest tile count that fits the FPGA budget.  The objective
favors estimated performance first, then fewer resources per accelerator
(the secondary objective that gives the spatial DSE an incentive to prune).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from ..adg import ADG, SysADG, SystemParams, system_param_space
from ..model.perf import PerfEstimate, bottleneck_profile, geomean_ipc
from ..model.resource import (
    AnalyticEstimator,
    Resources,
    control_core_resources,
    l2_resources,
    system_total,
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
    tiles, _total = _largest_fit(
        tile + control_core_resources(),
        l2_resources(params.l2_kib, params.l2_banks),
        params.noc_bytes_per_cycle,
        budget,
        cap,
    )
    return tiles


def _largest_fit(
    per_tile: Resources,
    l2: Resources,
    noc_bytes: int,
    budget: Resources,
    cap: int,
) -> Tuple[int, Optional[Resources]]:
    """``(tiles, system total)`` at the largest fitting count, or (0, None).

    ``per_tile`` is one accelerator tile plus its control core.
    """
    for tiles in range(cap, 0, -1):
        total = system_total(per_tile, tiles, l2, noc_bytes)
        if total.fits_in(budget):
            return tiles, total
    return 0, None


def system_dse(
    adg: ADG,
    schedules: Sequence[Schedule],
    estimator: Optional[AnalyticEstimator] = None,
    budget: Optional[Resources] = None,
    max_tiles: int = 16,
    weights: Optional[Sequence[float]] = None,
) -> Optional[SystemChoice]:
    """Exhaustive sweep of the system grid for one candidate ADG.

    Each schedule's stream classification (:func:`bottleneck_profile`)
    does not depend on the grid point, so it is built once and only the
    NoC/L2/DRAM levels are re-evaluated per point.

    Returns None when no grid point fits even one tile.  This is the one
    ``dse.system`` span site, so every caller (explorer loop, seed and
    polish sweeps, ``search.evaluate``) is attributed.
    """
    estimator = estimator or AnalyticEstimator()
    budget = budget or usable_budget()
    best: Optional[SystemChoice] = None
    with span("dse.system"):
        tile = estimator.tile(adg)
        per_tile = tile + control_core_resources()
        profiles = [
            (s.mdfg.workload, bottleneck_profile(s.mdfg, s.binding(), adg))
            for s in schedules
        ]
        for l2_banks, l2_kib, noc_bytes in system_param_space():
            tiles, total = _largest_fit(
                per_tile,
                l2_resources(l2_kib, l2_banks),
                noc_bytes,
                budget,
                max_tiles,
            )
            if tiles == 0:
                continue
            params = SystemParams(
                num_tiles=tiles,
                l2_banks=l2_banks,
                l2_kib=l2_kib,
                noc_bytes_per_cycle=noc_bytes,
            )
            estimates = {
                workload: profile.at(params) for workload, profile in profiles
            }
            candidate = SystemChoice(
                params=params,
                objective=geomean_ipc(list(estimates.values()), weights),
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
