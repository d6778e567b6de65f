"""Absolute pin of the spatial scheduler's output.

``tests/golden/schedule_digests.json`` holds, per (overlay, workload), a
sha256 over what ``schedule_workload`` chose: the variant, the sorted
placement and routes, the delay-FIFO demand and ``repr(estimate.ipc)`` —
or the unmapped verdict.  The overlays are General and the seed fabric of
each paper suite (dsp, machsuite, vision) under General's system params,
and every one of the 28 workloads is scheduled onto each: the kernel
deploy path, with no DSE.  The file was generated before the router, the
placer and the compiler started keeping per-graph lookup tables, so a
table that goes stale shows up here as a moved digest.

The loop that takes the digests also asserts that no fresh schedule has
an :func:`~repro.scheduler.engine_violations` finding.

The same test pins the pickled bytes of one ``Schedule`` (which carries
its mDFG) and of General's ADG: the lookup tables are instance state that
is never pickled.  Frozenset order in the ADG follows string hashing, so
those bytes are taken in a child interpreter with a fixed hash seed.

Regenerate (only when a change is *meant* to move schedules):
``PYTHONPATH=src python tests/test_schedule_golden.py``.
"""

import hashlib
import json
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

from repro.adg import general_overlay, seed_for_workloads
from repro.compiler import generate_variants
from repro.scheduler import engine_violations, schedule_workload
from repro.workloads import PAPER_SUITE_NAMES, all_workloads, get_suite

GOLDEN = Path(__file__).parent / "golden" / "schedule_digests.json"
SRC = Path(__file__).resolve().parent.parent / "src"

#: sha256 of ``pickle.dumps(obj, protocol=4)`` under ``PYTHONHASHSEED=0``
#: for fir's schedule on General, then General's ADG (see ``_PICKLES``).
PICKLE_DIGESTS = [
    "64ed02d8612b941370132ed4958f6ec191670addf4744d49e76c56f3301824ec",
    "ad58ab762cb4f8d1fe3d061a34ff466d149cd2d5173293e40b87e57adcca3a7d",
]

_PICKLES = """
import hashlib, pickle
from repro.adg import general_overlay
from repro.compiler import generate_variants
from repro.scheduler import schedule_workload
from repro.workloads import get_workload
general = general_overlay()
schedule = schedule_workload(
    generate_variants(get_workload("fir")), general.adg, general.params
)
for obj in (schedule, general.adg):
    print(hashlib.sha256(pickle.dumps(obj, protocol=4)).hexdigest())
"""


def overlays():
    """General, then each paper suite's seed fabric with General's params."""
    general = general_overlay()
    yield general
    for suite in PAPER_SUITE_NAMES:
        yield replace(
            general, adg=seed_for_workloads(get_suite(suite)), name=suite
        )


def schedule_digest(schedule) -> str:
    if schedule is None:
        doc = "unmapped"
    else:
        doc = [
            schedule.mdfg.variant,
            sorted(schedule.placement.items()),
            sorted(schedule.routes.items()),
            sorted(schedule.delay_fifo_needed.items()),
            repr(schedule.estimate.ipc),
        ]
    text = json.dumps(doc, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def digests() -> dict:
    """Every pair's digest; a fresh schedule keeps the engine contract."""
    workloads = all_workloads()
    families = {w.name: generate_variants(w) for w in workloads}
    out = {}
    for sysadg in overlays():
        for name, variants in families.items():
            schedule = schedule_workload(variants, sysadg.adg, sysadg.params)
            if schedule is not None:
                found = list(engine_violations(schedule, sysadg.adg))
                assert not found, (sysadg.name, name, found)
            out[f"{sysadg.name}/{name}"] = schedule_digest(schedule)
    return out


def pickle_digests() -> list:
    env = dict(os.environ, PYTHONHASHSEED="0", PYTHONPATH=str(SRC))
    out = subprocess.run(
        [sys.executable, "-c", _PICKLES],
        env=env,
        capture_output=True,
        text=True,
        check=True,
        timeout=60,
    )
    return out.stdout.split()


def test_schedules_and_pickles_match_committed_golden():
    golden = json.loads(GOLDEN.read_text())
    assert len(golden) == 4 * 28
    got = digests()
    moved = sorted(key for key in golden if got.get(key) != golden[key])
    assert not moved, f"schedules moved for {moved}"
    assert sorted(got) == sorted(golden)
    assert pickle_digests() == PICKLE_DIGESTS


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps(digests(), indent=2, sort_keys=True) + "\n")
    print(f"wrote {GOLDEN}")
    print("\n".join(pickle_digests()))
