"""Figure 19: effect of DRAM channel count.

Paper (via VCS RTL simulation): memory-intensive kernels gain from extra
DRAM channels — AutoDSE on MachSuite, OverGen workload overlays on a
similar kernel set (``fig19.*`` in ``repro.harness.paper``); compute-bound
kernels are flat.
"""

import pytest

from repro.harness import fig19_dram_channels, geomean, render_table
from repro.harness.paper import FIG19_BENEFITING

#: Full-DSE sweeps: deselect with -m 'not tier2' for the fast path.
pytestmark = pytest.mark.tier2


def test_fig19_dram_channels(once):
    rows = once(fig19_dram_channels)
    print()
    print(
        render_table(
            ["workload", "OG x2", "OG x4", "AD x2", "AD x4"],
            [
                (
                    r.workload,
                    f"{r.og_speedup[2]:.2f}", f"{r.og_speedup[4]:.2f}",
                    f"{r.ad_speedup[2]:.2f}", f"{r.ad_speedup[4]:.2f}",
                )
                for r in rows
            ],
            title="Fig. 19: speedup vs single DRAM channel",
        )
    )
    by_name = {r.workload: r for r in rows}
    # More channels never hurt.
    for r in rows:
        assert r.og_speedup[4] >= r.og_speedup[2] >= 0.99, r.workload
        assert r.ad_speedup[4] >= r.ad_speedup[2] >= 0.99, r.workload
    # Memory-bound kernels benefit measurably on the overlay side.
    og_gain = geomean([by_name[n].og_speedup[4] for n in FIG19_BENEFITING])
    assert og_gain > 1.1
    # Somebody benefits on the AutoDSE side too.
    ad_gain = max(r.ad_speedup[4] for r in rows)
    assert ad_gain > 1.1