"""Figure 17: "leave-one-out" flexibility (MachSuite).

Paper: an overlay generated WITHOUT one workload can still map it with a
modest mean performance loss; compiling to an existing overlay is orders
of magnitude faster than the HLS flow, and reconfiguration orders of
magnitude faster than reflashing the FPGA (``fig17.*`` in
``repro.harness.paper``).
"""

import pytest

from repro.harness import fig17_leave_one_out, render_table
from repro.harness.paper import claim

#: Full-DSE sweeps: deselect with -m 'not tier2' for the fast path.
pytestmark = pytest.mark.tier2



def test_fig17_leave_one_out(once):
    rows = once(fig17_leave_one_out)
    print()
    print(
        render_table(
            ["left-out workload", "maps?", "perf vs suite-OG",
             "compile speedup", "reconfig speedup"],
            [
                (
                    r.workload,
                    "yes" if r.mapped else "NO",
                    f"{r.relative_performance:.0%}" if r.mapped else "-",
                    f"{r.compile_speedup:,.0f}x" if r.mapped else "-",
                    f"{r.reconfig_speedup:,.0f}x" if r.mapped else "-",
                )
                for r in rows
            ],
            title="Fig. 17: leave-one-out flexibility (paper: mean "
            f"~{claim('fig17.degradation').shown} loss, "
            f"{claim('fig17.compile_speedup').shown} compile, "
            f"{claim('fig17.reconfig_speedup').shown} reconfig)",
        )
    )
    mapped = [r for r in rows if r.mapped]
    # Most workloads map onto the overlay that never saw them.
    assert len(mapped) >= 3
    for r in mapped:
        # Modest degradation, not collapse.
        assert r.relative_performance > 0.3, r.workload
        # Compilation is about four orders of magnitude faster than HLS.
        assert 1e3 < r.compile_speedup < 1e6, r.workload
        # Reconfiguration is about 10^4-10^5x faster than a reflash.
        assert 1e4 < r.reconfig_speedup < 1e6, r.workload