"""Nested system-level DSE (Section V-A).

For a fixed tile ADG (with workloads already scheduled), exhaustively sweep
the system grid — L2 banks, L2 capacity, NoC bandwidth — and for each point
derive the largest tile count that fits the FPGA budget.  The objective
favors estimated performance first, then fewer resources per accelerator
(the secondary objective that gives the spatial DSE an incentive to prune).

A grid point costs a tile count and one float.  ``system_total(...)
.fits_in(budget)`` is monotone in the tile count, the NoC width and the L2
vector (every term of the footprint is non-decreasing in each, and IEEE
rounding is monotone, so the rounded sums are too): a point's answer is at
most that of each grid predecessor, one step down one axis, and its downward
scan starts at the smallest of those instead of at ``max_tiles`` — still
exact, because the test stays the one ``system_total`` expression.  The
objective is ``BottleneckProfile.ipc_at``, a bare float per workload;
``SystemParams``, ``PerfEstimate`` s and the :class:`SystemChoice` are built
once, for the winning point.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterator, Optional, Sequence, Tuple

from ..adg import ADG, SystemParams
from ..adg.system import SYSTEM_GRID_AXES
from ..model.perf import PerfEstimate, bottleneck_profile, geomean
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
    objective: float            # geomean estimated IPC
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
    bound: int,
) -> Tuple[int, Optional[Resources]]:
    """``(tiles, system total)`` at the largest fitting count, or (0, None).

    ``per_tile`` is one accelerator tile plus its control core; ``bound``
    is a count the answer is known not to exceed.
    """
    for tiles in range(bound, 0, -1):
        total = system_total(per_tile, tiles, l2, noc_bytes)
        if total.fits_in(budget):
            return tiles, total
    return 0, None


def _grid_fits(
    per_tile: Resources, budget: Resources, max_tiles: int
) -> Iterator[Tuple[int, int, int, int, Resources]]:
    """``(l2_banks, l2_kib, noc_bytes, tiles, system total)`` of every grid
    point that fits a tile, in grid order; each scan is bounded by the
    point's already-solved grid predecessors (see the module docstring)."""
    banks_axis, kib_axis, noc_axis = SYSTEM_GRID_AXES
    solved: Dict[Tuple[int, int, int], int] = {}
    for b, l2_banks in enumerate(banks_axis):
        for k, l2_kib in enumerate(kib_axis):
            l2 = l2_resources(l2_kib, l2_banks)
            for n, noc_bytes in enumerate(noc_axis):
                bound = min(
                    solved.get((b - 1, k, n), max_tiles),
                    solved.get((b, k - 1, n), max_tiles),
                    solved.get((b, k, n - 1), max_tiles),
                )
                tiles, total = _largest_fit(per_tile, l2, noc_bytes, budget, bound)
                solved[b, k, n] = tiles
                if tiles:
                    yield l2_banks, l2_kib, noc_bytes, tiles, total


def system_dse(
    adg: ADG,
    schedules: Sequence[Schedule],
    estimator: Optional[AnalyticEstimator] = None,
    budget: Optional[Resources] = None,
    max_tiles: int = 16,
) -> Optional[SystemChoice]:
    """Exhaustive sweep of the system grid for one candidate ADG.

    Each schedule's stream classification (:func:`bottleneck_profile`)
    does not depend on the grid point, so it is built once and only the
    NoC/L2/DRAM levels are re-evaluated per point.  The winner is the first
    strict maximum in grid order (the tile, the secondary objective, is
    the same at every point of one sweep).

    Returns None when no grid point fits even one tile.  This is the one
    ``dse.system`` span site, so every caller (explorer loop, seed and
    polish sweeps, ``search.evaluate``) is attributed.
    """
    estimator = estimator or AnalyticEstimator()
    budget = budget or usable_budget()
    with span("dse.system"):
        tile = estimator.tile(adg)
        profiles = {
            s.mdfg.workload: bottleneck_profile(s.mdfg, s.binding(), adg)
            for s in schedules
        }
        platform = SystemParams()
        best = None
        for point in _grid_fits(tile + control_core_resources(), budget, max_tiles):
            l2_banks, l2_kib, noc_bytes, tiles, _total = point
            objective = geomean(
                [
                    profile.ipc_at(tiles, l2_banks, l2_kib, noc_bytes, platform)
                    for profile in profiles.values()
                ]
            )
            if best is None or objective > best[0]:
                best = (objective, point)
        if best is None:
            return None
        objective, (l2_banks, l2_kib, noc_bytes, tiles, total) = best
        params = SystemParams(
            num_tiles=tiles,
            l2_banks=l2_banks,
            l2_kib=l2_kib,
            noc_bytes_per_cycle=noc_bytes,
        )
        return SystemChoice(
            params=params,
            objective=objective,
            tile_resources=tile,
            system_total=total,
            estimates={name: p.at(params) for name, p in profiles.items()},
        )
