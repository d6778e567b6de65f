"""Figure 12: quad-tile General overlay floorplan.

Paper: four General tiles fill the XCVU9P (three stacked dies), the DRAM
controller's fixed location pulls DMA paths toward the bottom die, and the
critical path of the resulting clock (``fig12.clock_mhz`` in
``repro.harness.paper``) sits in L2 MSHR logic.
"""

import pytest

from repro.adg import general_overlay
from repro.harness.paper import claim
from repro.rtl import NUM_SLRS, estimated_frequency, floorplan


def test_fig12_floorplan(once):
    plan = once(lambda: floorplan(general_overlay()))
    print()
    print(plan.ascii_art())
    freq = estimated_frequency(plan)
    print(f"estimated clock: {freq:.1f} MHz "
          f"(paper: {claim('fig12.clock_mhz').shown})")
    assert len(plan.placements) == claim("fig12.general_tiles").value
    # Tiles spread over all three dies (the device is nearly full).
    assert len({p.slr for p in plan.placements}) == NUM_SLRS
    # Die crossings exist (the motivation for conservative pipelining).
    assert plan.die_crossings >= 2
    # Clock lands in the paper's neighborhood.
    assert 75.0 < freq < 110.0
    # Bottom die (nearest DRAM) is the fullest or tied.
    assert plan.slr_utilization[0] >= plan.slr_utilization[NUM_SLRS - 1] - 0.05


@pytest.mark.tier2
def test_fig12_suite_overlay_floorplans(once):
    from repro.harness import suite_overlay

    plans = once(
        lambda: [floorplan(suite_overlay(s).sysadg) for s in
                 ("dsp", "machsuite", "vision")]
    )
    print()
    for plan in plans:
        print(plan.ascii_art())
        print()
    for plan in plans:
        # Suite overlays fit more (smaller) tiles than General.
        assert len(plan.placements) > claim("fig12.general_tiles").value
