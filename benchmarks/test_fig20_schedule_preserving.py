"""Figure 20: the effect of schedule-preserving transformations.

Paper: with node collapsing / edge-delay preservation / capability pruning
enabled, the DSE converges faster to designs with better estimated IPC
(``fig20.*`` in ``repro.harness.paper``).
"""

import pytest

import statistics

from repro.harness import fig20_schedule_preserving, render_series, render_table
from repro.harness.paper import claim
from repro.workloads import SUITE_NAMES

#: Full-DSE sweeps: deselect with -m 'not tier2' for the fast path.
pytestmark = pytest.mark.tier2



def test_fig20_schedule_preserving(once):
    results = once(lambda: [fig20_schedule_preserving(s) for s in SUITE_NAMES])
    print()
    print(
        render_table(
            ["suite", "IPC (preserved)", "IPC (non-preserved)",
             "IPC ratio", "time (p)", "time (np)"],
            [
                (
                    r.suite,
                    f"{r.preserved_ipc:.1f}", f"{r.nonpreserved_ipc:.1f}",
                    f"{r.ipc_improvement:.2f}x",
                    f"{r.preserved_hours:.1f}h", f"{r.nonpreserved_hours:.1f}h",
                )
                for r in results
            ],
            title="Fig. 20: schedule-preserving transforms (paper: "
            f"{claim('fig20.ipc_ratio').shown} IPC, "
            f"{claim('fig20.time_reduction').shown} less DSE time)",
        )
    )
    for r in results:
        tail = r.preserved_history[-6:]
        print(
            render_series(
                f"{r.suite} estimated-IPC trajectory (preserved, last points)",
                [(f"@{h:.1f}h" , ipc) for _, h, ipc in tail],
            )
        )
    ratios = [r.ipc_improvement for r in results]
    # Preserving transforms never hurt the converged design quality much
    # (annealing noise makes individual suites wobble)...
    assert min(ratios) > 0.7
    # ...and help in aggregate.
    assert statistics.geometric_mean(ratios) > 1.0
    # Both configurations produce hours-scale DSE runs.
    for r in results:
        assert r.preserved_hours > 1.0 and r.nonpreserved_hours > 1.0