"""Figure 15: DSE and synthesis time comparison.

Paper: AutoDSE spends tens of hours per suite on per-kernel designs;
OverGen's suite DSE builds ONE overlay covering the whole suite in a
fraction of the combined time (``fig15.*`` in ``repro.harness.paper``).
Times here are modeled
toolchain costs (see TimeModel / AutoDSE cost constants), so the shape —
one overlay DSE is far cheaper than per-kernel AutoDSE — is the claim.
"""

import pytest

from repro.harness import fig15_dse_time, fig15_summary, render_table
from repro.harness.paper import claim
from repro.workloads import PAPER_SUITE_NAMES

#: Full-DSE sweeps: deselect with -m 'not tier2' for the fast path.
pytestmark = pytest.mark.tier2


def test_fig15_dse_time(once):
    rows = once(fig15_dse_time)
    print()
    print(
        render_table(
            ["suite", "design", "DSE h", "synth h", "total h"],
            [
                (r.suite, r.label, f"{r.dse_hours:.1f}", f"{r.synth_hours:.1f}",
                 f"{r.total_hours:.1f}")
                for r in rows
            ],
            title="Fig. 15: DSE + synthesis time (modeled hours)",
        )
    )
    summary = fig15_summary(rows)
    print()
    print(
        render_table(
            ["suite", "AutoDSE total (paper)", "AutoDSE total (ours)",
             "OverGen suite"],
            [
                (s, claim(f"fig15.autodse_h.{s}").shown,
                 f"{summary[f'{s}_autodse_h']:.1f}h",
                 f"{summary[f'{s}_overgen_h']:.1f}h")
                for s in PAPER_SUITE_NAMES
            ],
            title="Fig. 15 summary (paper fraction: "
            f"{claim('fig15.fraction').shown}, ours: "
            f"{summary['fraction']:.0%})",
        )
    )
    # The single suite overlay costs a fraction of per-kernel AutoDSE.
    assert summary["fraction"] < 0.6
    # And it is not trivially free: the DSE is hours-scale work.
    for s in PAPER_SUITE_NAMES:
        assert summary[f"{s}_overgen_h"] > 3.0
        # AutoDSE totals land in the paper's ballpark (tens of hours).
        assert 25.0 < summary[f"{s}_autodse_h"] < 150.0