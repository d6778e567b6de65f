"""Figure 18: incremental design optimization (MachSuite).

Paper: adding workloads one at a time, the per-tile datapath grows (more
general PEs/ports/network) and the tile count falls from 15 to 10, at a
mean ~8% performance cost for the earlier workloads.
"""

import pytest

from repro.harness import (
    FIG18_ORDER,
    fig18_generality_cost,
    fig18_incremental,
    render_table,
)

#: Full-DSE sweeps: deselect with -m 'not tier2' for the fast path.
pytestmark = pytest.mark.tier2



def test_fig18_incremental(once):
    rows = once(fig18_incremental)
    print()
    print(
        render_table(
            ["added", "#workloads", "tiles", "LUT/tile", "datapath/tile",
             "geomean est IPC"],
            [
                (
                    r.added, r.num_workloads, r.tiles,
                    f"{r.lut_per_tile_fraction:.1%}",
                    f"{r.datapath_fraction:.1%}",
                    f"{r.geomean_ipc:.0f}",
                )
                for r in rows
            ],
            title="Fig. 18: incremental workload addition (MachSuite)",
        )
    )
    assert [r.added for r in rows] == [f"+{n}" for n in FIG18_ORDER]
    first, last = rows[0], rows[-1]
    # Generality costs tiles: the count shrinks as workloads accumulate.
    assert last.tiles <= first.tiles
    # And each tile's datapath gets bigger/more general.
    assert last.lut_per_tile_fraction >= first.lut_per_tile_fraction * 0.9
    # Supporting the whole suite costs the first workload only modest
    # performance (paper: mean ~8% across the suite).
    retained = fig18_generality_cost()
    print(f"\n{FIG18_ORDER[0]} retains {retained:.0%} of its dedicated-"
          "overlay performance on the shared overlay (paper: ~92%)")
    assert retained > 0.5