"""Edit footprints: rung 0 re-checks only what an ADG edit touched.

Every removal or replacement on an ADG records what it took away under a
new process-unique stamp, and a schedule remembers the stamp it was last
found clean on.  The oracle: on the 112 (overlay, workload) pairs of
``tests/golden/schedule_digests.json``, every DSE move leaves the scoped
walk equal to the full one.  The fallbacks: a stamp the ADG cannot reach
back to (a pickled schedule, another ADG object, a rewritten schedule)
takes the full walk, and no stamp is ever serialized.
"""

import pickle
from collections import Counter

import pytest

from repro.adg import ADG, adg_to_dict, general_overlay
from repro.adg.graph import Footprint
from repro.compiler import generate_variants
from repro.dse import collapse_switch
from repro.scheduler import legality, revalidate_schedule, schedule_workload
from repro.serve import ops
from repro.validate import check_case, random_case, run_oracle
from repro.validate.invariants import (
    DISAGREEMENTS,
    SCOPE_MOVES,
    edit_scope_outcomes,
)
from repro.workloads import all_workloads, get_workload

from .test_schedule_golden import overlays


@pytest.fixture(scope="module")
def pairs():
    """The golden pairs that map: ``(overlay, workload name, schedule)``."""
    families = {w.name: generate_variants(w) for w in all_workloads()}
    out = []
    for sysadg in overlays():
        for name, variants in families.items():
            schedule = schedule_workload(variants, sysadg.adg, sysadg.params)
            if schedule is not None:
                out.append((sysadg, name, schedule))
    return out


@pytest.fixture()
def walks(monkeypatch):
    """The footprint of every ``hardware_violations`` walk (None: full)."""
    seen = []
    walk = legality.hardware_violations

    def spy(schedule, adg, footprint=None):
        seen.append(footprint)
        return walk(schedule, adg, footprint)

    monkeypatch.setattr(legality, "hardware_violations", spy)
    return seen


def test_scoped_walk_equals_the_full_walk_for_every_move(pairs):
    assert len(pairs) == 65
    outcomes = Counter()
    for sysadg, name, schedule in pairs:
        seed = f"{sysadg.name}/{name}"
        for move, outcome in edit_scope_outcomes(schedule, sysadg.adg, seed):
            outcomes[move, outcome] += 1
    # No false accept, false reject or mismatch, for any move.
    assert {k: n for k, n in outcomes.items() if k[1] in DISAGREEMENTS} == {}
    # Every move ran (``add_cap`` never applies: every PE of these
    # overlays already holds every capability of its pool), and some
    # broke a schedule for rung 0 to find.
    ran = {move for move, outcome in outcomes if outcome != "inapplicable"}
    assert ran == set(SCOPE_MOVES) - {"add_cap"}
    assert sum(n for (_, outcome), n in outcomes.items() if outcome == "broken") > 50


def test_every_fuzz_case_checks_a_taking_move(monkeypatch):
    """A ``remove_link`` that records nothing is caught by the fuzz
    checks within the first 80 cases of seed 0: every case runs one
    removing or replacing move, not one move on one case in four."""
    record = ADG._record
    monkeypatch.setattr(
        ADG, "_record", lambda self, nodes, links: record(self, nodes, ())
    )
    found = []
    for i in range(80):
        result = run_oracle(random_case(f"0:{i}"))
        if result.adg is not None:
            found += [
                v.detail for v in check_case(result.adg, result.schedule)
                if v.invariant == "edit_scope"
            ]
    assert found and all("false_accept" in f for f in found)


def test_an_untouched_schedule_costs_no_walk(pairs, walks):
    sysadg, _name, schedule = pairs[0]
    adg = sysadg.adg.clone()
    kept = revalidate_schedule(schedule.clone(), adg, sysadg.params)
    assert walks == [None]                    # never checked: the full walk
    pe = next(p for p in adg.pes if p.node_id not in kept.placement.values())
    adg.add_link(adg.switches[0].node_id, pe.node_id)    # adds take nothing
    assert revalidate_schedule(kept, adg, sysadg.params) is kept
    adg.remove_node(pe.node_id)
    assert revalidate_schedule(kept, adg, sysadg.params) is kept
    assert walks[1:] == [Footprint({pe.node_id}, set())]


def _stamped(pairs):
    """A schedule found clean on a clone of its overlay's ADG."""
    sysadg, _name, schedule = pairs[0]
    adg = sysadg.adg.clone()
    kept = revalidate_schedule(schedule.clone(), adg, sysadg.params)
    assert kept is not None and kept.clean_at == adg.stamp
    return sysadg, adg, kept


def test_a_pickled_schedule_takes_the_full_walk(pairs, walks):
    sysadg, adg, kept = _stamped(pairs)
    loaded = pickle.loads(pickle.dumps(kept))
    assert loaded.clean_at is None
    del walks[:]
    assert revalidate_schedule(loaded, adg, sysadg.params) is loaded
    assert walks == [None]


def test_a_pickled_adg_takes_the_full_walk(pairs, walks):
    sysadg, adg, kept = _stamped(pairs)
    loaded = pickle.loads(pickle.dumps(adg))
    assert loaded.stamp != adg.stamp
    del walks[:]
    assert revalidate_schedule(kept, loaded, sysadg.params) is kept
    assert walks == [None]


def test_a_schedule_from_another_adg_object_takes_the_full_walk(walks):
    """The serve remap path: the prior schedule was found clean on the
    previous version's ADG, a separately built object."""
    fir = generate_variants(get_workload("fir"))
    old, new = general_overlay(), general_overlay()
    prior = schedule_workload(fir, old.adg, old.params)
    assert revalidate_schedule(prior, old.adg, old.params) is prior
    del walks[:]
    schedule, path = ops._remap_schedule(new, "fir", prior)
    assert path == "preserved" and walks == [None]
    assert schedule.clean_at == new.adg.stamp != prior.clean_at


def test_a_collapsed_schedule_takes_the_full_walk(pairs, walks):
    sysadg, adg, kept = _stamped(pairs)
    hops = sorted({hop for path in kept.routes.values() for hop in path[1:-1]})
    assert any(collapse_switch(adg, hop, [kept]) for hop in hops)
    assert kept.clean_at is None
    del walks[:]
    revalidate_schedule(kept, adg, sysadg.params)
    assert walks == [None]


def test_no_stamp_is_serialized(pairs):
    sysadg, _name, schedule = pairs[0]
    adg, probe = general_overlay().adg, schedule.clone()
    cold = pickle.dumps(adg, 4), pickle.dumps(probe, 4), adg_to_dict(adg)
    assert revalidate_schedule(probe, adg, sysadg.params) is probe
    adg.clone()
    assert probe.clean_at == adg.stamp
    assert (pickle.dumps(adg, 4), pickle.dumps(probe, 4), adg_to_dict(adg)) == cold
    for obj in (adg, probe):
        state = pickle.loads(pickle.dumps(obj)).__dict__
        assert not {"_edits", "clean_at", "_priced"} & set(state)
