"""Figure 16: FPGA resource breakdown.

Paper: (a) every generated overlay consumes most of the device's LUTs
(``fig16.overlay_lut`` in ``repro.harness.paper``) — LUTs are the limiting
resource, the DSE greedily consumes the device, and the NoC is among the
biggest components at high tile counts; (b) AutoDSE designs use far less
since generality is not their goal.
"""

import pytest

from repro.harness import fig16_autodse, fig16_overlays, render_table

#: Full-DSE sweeps: deselect with -m 'not tier2' for the fast path.
pytestmark = pytest.mark.tier2



def test_fig16_overlay_breakdown(once):
    rows = once(fig16_overlays)
    print()
    print(
        render_table(
            ["design", "LUT", "FF", "BRAM", "DSP", "pe", "n/w", "vp",
             "spad", "dma", "core", "noc"],
            [
                (
                    r.label, f"{r.lut:.0%}", f"{r.ff:.0%}", f"{r.bram:.0%}",
                    f"{r.dsp:.0%}",
                    *(f"{r.by_category[c]:.0%}" for c in
                      ("pe", "n/w", "vp", "spad", "dma", "core", "noc")),
                )
                for r in rows
            ],
            title="Fig. 16a: overlay resource occupation (fraction of device)",
        )
    )
    for r in rows:
        # LUTs are the limiting resource for every overlay...
        assert r.lut >= max(r.ff, r.bram, r.dsp), r.label
        # ...and the DSE fills most of the device.
        assert r.lut > 0.6, r.label
        assert r.lut <= 1.0, r.label
    # At high tile counts the NoC is a major LUT component (paper Q4).
    assert any(r.by_category["noc"] > 0.05 for r in rows)


def test_fig16_autodse_breakdown(once):
    rows = once(fig16_autodse)
    print()
    print(
        render_table(
            ["kernel", "LUT", "FF", "BRAM", "DSP"],
            [
                (r.label, f"{r.lut:.1%}", f"{r.ff:.1%}", f"{r.bram:.1%}",
                 f"{r.dsp:.1%}")
                for r in rows
            ],
            title="Fig. 16b: AutoDSE (tuned) resource occupation",
        )
    )
    # AutoDSE consumes far fewer resources than the overlays.
    assert max(r.lut for r in rows) < 0.65
    assert sum(r.lut for r in rows) / len(rows) < 0.25