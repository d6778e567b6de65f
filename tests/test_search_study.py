"""Tests for the persistent study service (repro.search.study) and the
HTML report renderer."""

import json

import pytest

from repro.dse import DseConfig
from repro.engine import ArtifactStore
from repro.search import (
    SEARCH_SCHEMA,
    Study,
    Trial,
    export_study,
    frontier_doc,
    list_studies,
    load_study,
    merge_studies,
    render_html,
    save_study,
    study_key,
)
from repro.workloads import get_workload


def _trial(index, objective, lut=100.0, strategy="t", kind="params"):
    return Trial(
        index=index,
        strategy=strategy,
        kind=kind,
        lineage={"i": index},
        seed=0,
        feasible=True,
        objective=objective,
        modeled_seconds=1.0,
        lut=lut,
        ff=50.0,
        bram=4.0,
        dsp=2.0,
        bottleneck="none",
    )


def _study(key="k1", trials=(), strategy="t"):
    return Study(
        key=key,
        strategy=strategy,
        seed=0,
        batch=2,
        workloads=["vecmax"],
        config_fingerprint="cfg",
        trials=list(trials),
    )


class TestStudyBasics:
    def test_best_trial_prefers_objective_then_earliest(self):
        study = _study(trials=[_trial(0, 5.0), _trial(1, 9.0), _trial(2, 9.0)])
        assert study.best_trial().index == 1

    def test_infeasible_trials_are_excluded(self):
        bad = _trial(0, None)
        bad.feasible = False
        study = _study(trials=[bad])
        assert study.best_trial() is None
        assert study.feasible_trials() == []

    def test_trial_round_trips_through_dict(self):
        trial = _trial(3, 7.5)
        assert Trial.from_dict(trial.as_dict()) == trial.stripped()

    def test_study_key_ignores_nothing_it_should_include(self):
        w = [get_workload("vecmax")]
        cfg = DseConfig(iterations=4, seed=1)
        base = study_key(w, cfg, "tpe", 1, 2)
        assert study_key(w, cfg, "tpe", 1, 2) == base
        assert study_key(w, cfg, "tpe", 2, 2) != base
        assert study_key(w, cfg, "tpe", 1, 3) != base
        assert study_key(w, cfg, "anneal", 1, 2) != base
        assert study_key(w, DseConfig(iterations=5, seed=1), "tpe", 1, 2) != base


class TestPersistence:
    def test_save_load_round_trip_with_state(self, tmp_path):
        store = ArtifactStore(tmp_path)
        study = _study(trials=[_trial(0, 1.0), _trial(1, 2.0)])
        save_study(store, study, strategy_state={"salt": 7})
        loaded, state = load_study(store, study.key)
        assert loaded == study
        assert state == {"salt": 7}

    def test_missing_key_loads_none(self, tmp_path):
        assert load_study(ArtifactStore(tmp_path), "nope") == (None, None)

    def test_list_studies_filters_by_kind(self, tmp_path):
        store = ArtifactStore(tmp_path)
        save_study(store, _study(key="a" * 64))
        store.put("b" * 64, {"not": "a study"}, meta={"kind": "dse"})
        rows = list_studies(store)
        assert [r["key"] for r in rows] == ["a" * 64]
        assert rows[0]["strategy"] == "t"
        assert rows[0]["trials"] == 0


class TestMerge:
    def test_merge_is_order_independent(self):
        a = _study(key="a" * 64, trials=[_trial(0, 1.0)])
        b = _study(key="b" * 64, trials=[_trial(0, 2.0)])
        ab, ba = merge_studies([a, b]), merge_studies([b, a])
        assert ab.key == ba.key
        assert ab.trials == ba.trials
        assert ab.strategy == "merged"

    def test_merge_dedups_identical_content(self):
        a = _study(key="a" * 64, trials=[_trial(0, 1.0), _trial(1, 2.0)])
        merged = merge_studies([a, a])
        assert len(merged.trials) == 2
        assert [t.index for t in merged.trials] == [0, 1]

    def test_merge_reindexes_across_studies(self):
        a = _study(key="a" * 64, trials=[_trial(0, 1.0)])
        b = _study(key="b" * 64, trials=[_trial(0, 2.0)])
        merged = merge_studies([a, b])
        assert [t.index for t in merged.trials] == [0, 1]
        assert sorted(t.objective for t in merged.trials) == [1.0, 2.0]

    def test_merge_nothing_raises(self):
        with pytest.raises(ValueError):
            merge_studies([])


class TestExportAndReport:
    def test_export_study_embeds_frontier(self):
        study = _study(trials=[_trial(0, 1.0, lut=50.0), _trial(1, 2.0)])
        doc = json.loads(export_study(study))
        assert doc["schema"] == SEARCH_SCHEMA
        assert doc["pareto"]["points"]
        assert len(doc["trials"]) == 2

    def test_render_html_is_deterministic_and_self_contained(self):
        study = _study(
            trials=[_trial(0, 1.0, lut=50.0), _trial(1, 2.0), _trial(2, 1.5)]
        )
        page = render_html(study)
        assert page == render_html(study)
        assert "<svg" in page and "</html>" in page
        assert study.key[:16] in page
        # One table row per trial plus the header.
        assert page.count("<tr") == len(study.trials) + 1
        # No external assets or scripts.
        assert "http" not in page and "<script" not in page

    def test_render_html_survives_empty_study(self):
        page = render_html(_study())
        assert "no feasible trials" in page

    def test_frontier_doc_on_real_search_axes(self):
        study = _study(
            trials=[_trial(0, 5.0, lut=100.0), _trial(1, 5.0, lut=90.0)]
        )
        doc = frontier_doc(study)
        # Trial 1 dominates trial 0 (same objective, less LUT).
        assert [p["trial"] for p in doc["points"]] == [1]
