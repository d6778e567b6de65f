"""Absolute pin of the annealer's paper-facing output.

``tests/golden/dse_result_digests.json`` holds a sha256 over a canonical
JSON of ``explore()`` results, captured before ``Explorer.run`` and
``AnnealStrategy`` were merged into one loop.  The relative golden test in
``test_search.py`` compares the two drivers to each other and so cannot
see a drift they share; this one can.  JSON, not pickle, so the digest
holds on every supported interpreter.

Regenerate (only when a change is *meant* to move DSE results):
``PYTHONPATH=src python tests/test_dse_golden.py``.
"""

import dataclasses
import hashlib
import json
from pathlib import Path

import pytest

from repro.adg import adg_to_dict
from repro.dse import DseConfig, explore
from repro.workloads import get_workload

GOLDEN = Path(__file__).parent / "golden" / "dse_result_digests.json"
CFG = DseConfig(iterations=24, seed=3)
CASES = {
    "vecmax": ("vecmax",),
    "fir+mm+vecmax": ("fir", "mm", "vecmax"),
}


def result_digest(names, run=explore) -> str:
    result = run([get_workload(n) for n in names], CFG)
    doc = {
        "history": result.history,
        "points": result.points,
        "stats": dataclasses.asdict(result.stats),
        "modeled_seconds": result.modeled_seconds,
        "adg": adg_to_dict(result.sysadg.adg),
        "params": dataclasses.asdict(result.sysadg.params),
        "schedules": {
            name: [s.mdfg.variant, s.estimate.ipc]
            for name, s in result.schedules.items()
        },
    }
    text = json.dumps(doc, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.mark.parametrize("case", sorted(CASES))
def test_dse_result_matches_committed_digest(case):
    assert result_digest(CASES[case]) == json.loads(GOLDEN.read_text())[case]


@pytest.mark.parametrize("case", sorted(CASES))
def test_engine_default_strategy_matches_committed_digest(case):
    """``DseEngine`` runs the annealer as one ``run_search`` study; its
    ``.result`` is the same ``DseResult``, to the digest."""
    from repro.engine import DseEngine

    def through_engine(workloads, config):
        return DseEngine().explore(workloads, config).result

    digest = result_digest(CASES[case], run=through_engine)
    assert digest == json.loads(GOLDEN.read_text())[case]


if __name__ == "__main__":
    digests = {case: result_digest(names) for case, names in CASES.items()}
    GOLDEN.write_text(json.dumps(digests, indent=2, sort_keys=True) + "\n")
    print(GOLDEN.read_text(), end="")
