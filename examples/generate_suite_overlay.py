#!/usr/bin/env python3
"""Generate a domain-specific overlay for a whole workload suite.

This is the headline OverGen flow (Fig. 3): feed a *domain* of applications
to the unified spatial + system DSE, get back one overlay that runs all of
them, then lower it to RTL and floorplan it.

Run:  python examples/generate_suite_overlay.py [dsp|machsuite|vision]
"""

import sys

from repro.dse import DseConfig, explore
from repro.model.resource import XCVU9P, AnalyticEstimator
from repro.rtl import emit_system, estimated_frequency, floorplan, rtl_stats
from repro.sim import simulate_schedule
from repro.workloads import get_suite


def main(suite: str = "dsp") -> None:
    workloads = get_suite(suite)
    print(f"running OverGen DSE for the {suite} suite "
          f"({', '.join(w.name for w in workloads)}) ...")
    result = explore(
        workloads,
        DseConfig(iterations=150, seed=2),
        name=f"{suite}-OG",
    )

    print(f"\nchosen design: {result.sysadg.summary()}")
    print(f"modeled DSE time: {result.modeled_hours:.1f} h "
          f"(stats: {result.stats.accepted} accepted / "
          f"{result.stats.iterations} iterations, "
          f"{result.stats.preserved_hits} schedules preserved)")

    est = AnalyticEstimator()
    util = est.system(result.sysadg).utilization(XCVU9P)
    print("\nFPGA utilization: "
          + "  ".join(f"{k.upper()} {v:.0%}" for k, v in util.items()))
    print("per-category LUT share:")
    for cat, res in est.system_breakdown(result.sysadg).items():
        print(f"  {cat:5s} {res.lut / XCVU9P.lut:6.1%}")

    print("\nper-workload performance on the overlay:")
    for w in workloads:
        schedule = result.schedules[w.name]
        sim = simulate_schedule(schedule, result.sysadg)
        print(f"  {w.name:12s} variant={schedule.mdfg.variant:8s} "
              f"IPC={sim.ipc:7.1f}  cycles={sim.cycles:10,.0f}")

    plan = floorplan(result.sysadg)
    print("\n" + plan.ascii_art())
    print(f"estimated clock: {estimated_frequency(plan):.1f} MHz")

    rtl = emit_system(result.sysadg)
    out_path = f"/tmp/{suite}_overlay.v"
    with open(out_path, "w") as f:
        f.write(rtl)
    print(f"\nemitted RTL: {out_path} ({rtl_stats(rtl)['modules']} modules, "
          f"{rtl_stats(rtl)['lines']} lines)")


if __name__ == "__main__":
    main(sys.argv[1] if len(sys.argv) > 1 else "dsp")
