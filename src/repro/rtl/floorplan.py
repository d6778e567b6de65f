"""FPGA floorplanner for multi-tile overlays (Fig. 12 stand-in).

The XCVU9P is three stacked dies (SLRs) joined by interposer crossings;
the DRAM controller is pinned to the bottom die.  The floorplanner packs
tiles into SLR-aligned regions, places each tile's DMA engine edge nearest
the DRAM controller (Section VI-D's guidance), and reports die crossings —
the quantity the conservative-pipelining design rule exists to tolerate.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

from ..adg import SysADG
from ..model.resource import AnalyticEstimator, XCVU9P, control_core_resources

#: XCVU9P geometry: 3 super-logic regions, each about a third of the LUTs.
NUM_SLRS = 3
SLR_LUTS = XCVU9P.lut / NUM_SLRS

#: Normalized chip coordinates: x in [0, 1), y in [0, NUM_SLRS).
DRAM_CONTROLLER_XY = (0.5, 0.15)  # bottom die, center column


@dataclass(frozen=True)
class TilePlacement:
    tile: int
    slr: int
    x: float
    y: float
    lut: float

    def distance_to_dram(self) -> float:
        dx = self.x - DRAM_CONTROLLER_XY[0]
        dy = self.y - DRAM_CONTROLLER_XY[1]
        return (dx * dx + dy * dy) ** 0.5


class FloorplanError(ValueError):
    """The overlay does not fit the target device."""


@dataclass
class Floorplan:
    overlay: str
    frequency_mhz: float
    placements: List[TilePlacement]
    slr_utilization: Dict[int, float]
    die_crossings: int
    #: False when the overlay demands more LUTs than the device has; the
    #: placements are then a best-effort sketch (overflow tiles pile onto
    #: the top die) and the top-die utilization exceeds 100%.
    feasible: bool = True

    def ascii_art(self) -> str:
        """Fig. 12-style sketch: one row of boxes per SLR."""
        title = f"Floorplan: {self.overlay} @ {self.frequency_mhz} MHz"
        if not self.feasible:
            title += "  ** INFEASIBLE: exceeds device capacity **"
        lines = [title]
        for slr in reversed(range(NUM_SLRS)):
            tiles = [p for p in self.placements if p.slr == slr]
            boxes = " ".join(f"[T{p.tile:02d}]" for p in tiles) or "(empty)"
            util = self.slr_utilization.get(slr, 0.0)
            lines.append(f"SLR{slr} ({util:4.0%}): {boxes}")
            if slr > 0:
                lines.append("  ~~~~ interposer crossing ~~~~")
        lines.append("        [DRAM controller]")
        return "\n".join(lines)


def floorplan(sysadg: SysADG, strict: bool = False) -> Floorplan:
    """Greedy SLR packing: tiles fill the bottom die (nearest DRAM) first.

    Tiles are identical, so the packer simply assigns them to SLRs in
    order of remaining capacity, lowest die first; positions within an SLR
    spread across the x axis.

    An overlay that demands more LUTs than the XCVU9P has cannot be
    packed: the returned plan is marked ``feasible=False`` (overflow
    tiles pile onto the top die, whose reported utilization then exceeds
    100%), or, with ``strict=True``, a :class:`FloorplanError` is raised.
    """
    est = AnalyticEstimator()
    tile_lut = est.tile(sysadg.adg).lut + control_core_resources().lut
    n = sysadg.params.num_tiles
    capacity = NUM_SLRS * SLR_LUTS
    feasible = n * tile_lut <= capacity
    if strict and not feasible:
        raise FloorplanError(
            f"overlay {sysadg.name!r} needs {n * tile_lut:,.0f} LUTs but "
            f"the XCVU9P has {capacity:,.0f} across {NUM_SLRS} SLRs"
        )
    slr_load = {s: 0.0 for s in range(NUM_SLRS)}
    # Linear packing through the stacked dies: tiles may straddle an SLR
    # boundary (as the paper's quad-tile floorplan does); a straddling tile
    # is attributed to the die holding its center of mass.
    offset = 0.0
    straddles = 0
    assigned: List[int] = []
    for t in range(n):
        start, end = offset, offset + tile_lut
        center = (start + end) / 2.0
        # Overflow tiles (center past the top die) sit on the top SLR so
        # the plan stays renderable, but the demand is not silently
        # dropped: their load lands on SLR2 and the plan is infeasible.
        slr = min(NUM_SLRS - 1, int(center / SLR_LUTS))
        if int(start / SLR_LUTS) != int(max(start, end - 1) / SLR_LUTS):
            straddles += 1
        for s in range(NUM_SLRS):
            lo, hi = s * SLR_LUTS, (s + 1) * SLR_LUTS
            if s == NUM_SLRS - 1:
                hi = float("inf")  # overflow demand counts against SLR2
            slr_load[s] += max(0.0, min(end, hi) - max(start, lo))
        assigned.append(slr)
        offset = end
    # Positions spread across each die's actual occupants, so x stays in
    # the documented [0, 1) whatever the packing looks like.
    per_slr_total: Dict[int, int] = {s: 0 for s in range(NUM_SLRS)}
    for slr in assigned:
        per_slr_total[slr] += 1
    per_slr_seen: Dict[int, int] = {s: 0 for s in range(NUM_SLRS)}
    placements: List[TilePlacement] = []
    for t, slr in enumerate(assigned):
        idx = per_slr_seen[slr]
        per_slr_seen[slr] += 1
        placements.append(
            TilePlacement(
                tile=t,
                slr=slr,
                x=(idx + 0.5) / per_slr_total[slr],
                y=slr + 0.5,
                lut=tile_lut,
            )
        )
    # NoC and L2 sit with the DRAM controller on SLR0; every tile on a
    # higher die contributes one die crossing on its memory path, and a
    # straddling tile crosses within its own datapath.
    crossings = sum(p.slr for p in placements) + straddles
    return Floorplan(
        overlay=sysadg.name,
        frequency_mhz=sysadg.params.frequency_mhz,
        placements=placements,
        slr_utilization={s: slr_load[s] / SLR_LUTS for s in range(NUM_SLRS)},
        die_crossings=crossings,
        feasible=feasible,
    )


def estimated_frequency(plan: Floorplan, base_mhz: float = 115.0) -> float:
    """Clock estimate: die crossings and SLR pressure erode the base clock.

    Calibrated so the paper's quad-tile General overlay lands near its
    reported 92.87 MHz (its critical path sits in the L2 MSHR logic under
    full-die congestion).
    """
    pressure = max(plan.slr_utilization.values()) if plan.slr_utilization else 0
    penalty = 1.0 + 0.12 * plan.die_crossings / max(1, len(plan.placements))
    penalty += 0.4 * max(0.0, pressure - 0.8)
    return base_mhz / penalty
