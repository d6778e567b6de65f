"""Absolute pin of the bottleneck model (Eq. 1-2) over the whole system grid.

``tests/golden/perf_estimates.json`` was generated before ``estimate_ipc``
was split into ``bottleneck_profile(...).at(...)``.  For each of the 28
workloads it holds the variant scheduled on the General overlay and, per
``reuse_aware`` setting, a sha256 over one line per grid point — all 60
``system_param_space()`` points x tiles in {1, 4, 16} — giving ``repr(ipc)``,
``tiles_used`` and the ordered ``(key, repr(value))`` factor list.  Factor
order feeds ``PerfEstimate.bottleneck`` and the floats feed the DSE
objective, so both are pinned to the last bit.  (Digests, not the 10 080
literal lines: those are ~2 MB.)

Regenerate (only when a change is *meant* to move the model):
``PYTHONPATH=src python tests/test_perf_golden.py``.
"""

import hashlib
import json
from pathlib import Path

import pytest

from repro.adg import SystemParams, general_overlay, system_param_space
from repro.compiler import generate_variants
from repro.model.perf import bottleneck_profile, estimate_ipc
from repro.scheduler import schedule_workload
from repro.workloads import all_workloads

GOLDEN = Path(__file__).parent / "golden" / "perf_estimates.json"
TILES = (1, 4, 16)


def grid():
    for l2_banks, l2_kib, noc_bytes in system_param_space():
        for tiles in TILES:
            yield SystemParams(
                num_tiles=tiles,
                l2_banks=l2_banks,
                l2_kib=l2_kib,
                noc_bytes_per_cycle=noc_bytes,
            )


def estimate_line(params, est) -> str:
    factors = [[key, repr(value)] for key, value in est.factors.items()]
    point = [
        params.l2_banks,
        params.l2_kib,
        params.noc_bytes_per_cycle,
        params.num_tiles,
    ]
    return json.dumps([point, repr(est.ipc), repr(est.tiles_used), factors])


def digest(lines) -> str:
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


def scheduled_on_general():
    """``(adg, {workload: schedule})`` for every registered workload."""
    overlay = general_overlay()
    out = {}
    for workload in all_workloads():
        schedule = schedule_workload(
            generate_variants(workload), overlay.adg, overlay.params
        )
        assert schedule is not None, workload.name
        out[workload.name] = schedule
    return overlay.adg, out


@pytest.fixture(scope="module")
def general():
    return scheduled_on_general()


def golden_doc(estimate, adg, schedules) -> dict:
    """The golden document under ``estimate(schedule, adg, params, aware)``."""
    doc = {}
    for name, schedule in sorted(schedules.items()):
        entry = {"variant": schedule.mdfg.variant}
        for label, aware in (("reuse_aware", True), ("reuse_blind", False)):
            entry[label] = digest(
                estimate_line(params, estimate(schedule, adg, params, aware))
                for params in grid()
            )
        doc[name] = entry
    return doc


def via_estimate_ipc(schedule, adg, params, aware):
    return estimate_ipc(
        schedule.mdfg, schedule.binding(), adg, params, reuse_aware=aware
    )


def via_explicit_tiles(schedule, adg, params, aware):
    """The ``num_tiles=`` override must read like ``params.num_tiles``."""
    return estimate_ipc(
        schedule.mdfg,
        schedule.binding(),
        adg,
        SystemParams(
            num_tiles=1,
            l2_banks=params.l2_banks,
            l2_kib=params.l2_kib,
            noc_bytes_per_cycle=params.noc_bytes_per_cycle,
        ),
        num_tiles=params.num_tiles,
        reuse_aware=aware,
    )


def via_profile():
    """One profile per (schedule, reuse_aware), walked with ``.at``."""
    profiles = {}

    def estimate(schedule, adg, params, aware):
        key = (schedule.mdfg.workload, aware)
        if key not in profiles:
            profiles[key] = bottleneck_profile(
                schedule.mdfg, schedule.binding(), adg, reuse_aware=aware
            )
        return profiles[key].at(params)

    return estimate


def test_golden_covers_every_workload():
    golden = json.loads(GOLDEN.read_text())
    assert sorted(golden) == sorted(w.name for w in all_workloads())
    assert len(golden) == 28
    assert len(list(grid())) == 60 * len(TILES)


@pytest.mark.parametrize("path", ["estimate_ipc", "explicit_tiles", "profile"])
def test_perf_estimates_match_committed_golden(path, general):
    estimate = {
        "estimate_ipc": via_estimate_ipc,
        "explicit_tiles": via_explicit_tiles,
        "profile": via_profile(),
    }[path]
    golden = json.loads(GOLDEN.read_text())
    got = golden_doc(estimate, *general)
    moved = sorted(name for name in golden if got.get(name) != golden[name])
    assert not moved, f"bottleneck model moved for {moved}"


if __name__ == "__main__":
    doc = golden_doc(via_estimate_ipc, *scheduled_on_general())
    GOLDEN.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
    print(f"wrote {GOLDEN}")
