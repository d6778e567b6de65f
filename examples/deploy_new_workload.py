#!/usr/bin/env python3
"""Deploy a NEW application onto an overlay that has never seen it.

The usability pitch of the paper (Fig. 1 and Q5): once an overlay exists
for a domain, a new application in that domain needs only a software
compile (seconds) and a reconfiguration (microseconds) — versus hours or
days of HLS + synthesis + a full bitstream reflash.

We generate an overlay for four MachSuite kernels, then bring up ellpack —
which the DSE never saw — on it.

Run:  python examples/deploy_new_workload.py
"""

import time

from repro.compiler import generate_variants
from repro.dse import DseConfig, explore
from repro.hls import run_autodse
from repro.scheduler import advise, schedule_workload
from repro.sim import simulate_schedule
from repro.workloads import get_suite, get_workload

NEW_APP = "ellpack"


def main() -> None:
    domain = [w for w in get_suite("machsuite") if w.name != NEW_APP]
    print(f"domain: {', '.join(w.name for w in domain)}")
    print("generating the domain overlay (one-time cost) ...")
    result = explore(domain, DseConfig(iterations=150, seed=2),
                     name="machsuite-domain")
    print(f"  overlay: {result.sysadg.summary()}")
    print(f"  one-time DSE+synthesis: {result.modeled_hours:.1f} modeled hours")

    # ---- a new application arrives ------------------------------------
    print(f"\nnew application: {NEW_APP}")
    new_workload = get_workload(NEW_APP)

    wall = time.perf_counter()
    variants = generate_variants(new_workload)
    schedule = schedule_workload(variants, result.sysadg.adg,
                                 result.sysadg.params)
    compile_wall = time.perf_counter() - wall
    if schedule is None:
        print("  does not map on this overlay: rerun the DSE with it included")
        return

    # The advisor's verdict on whether re-specializing would pay (Q5).
    advice = advise(new_workload, result.sysadg.adg, result.sysadg.params,
                    variants=variants)
    print("\n" + advice.summary())
    print(f"  compiled + spatially scheduled in {compile_wall*1000:.0f} ms "
          f"of real time (variant {schedule.mdfg.variant})")

    reconfig_cycles = 1000 + 4 * schedule.mdfg.config_words
    reconfig_us = reconfig_cycles / result.sysadg.params.frequency_mhz
    print(f"  reconfiguration: {schedule.mdfg.config_words} config words "
          f"-> {reconfig_us:.1f} us (an FPGA reflash takes >1 s)")

    sim = simulate_schedule(schedule, result.sysadg)
    og_seconds = sim.seconds(result.sysadg.params.frequency_mhz)
    print(f"  runs at IPC {sim.ipc:.1f}, {og_seconds*1e6:.1f} us per frame")

    # ---- versus the HLS route ------------------------------------------
    ad = run_autodse(new_workload, tuned=False)
    print(f"\nthe HLS route for {NEW_APP} would cost "
          f"{ad.total_hours:.1f} hours of DSE + synthesis and a bitstream "
          f"reflash, to run in {ad.design.seconds*1e6:.1f} us "
          f"({ad.design.seconds / og_seconds:.2f}x our overlay's time)")


if __name__ == "__main__":
    main()
