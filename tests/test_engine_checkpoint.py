"""Checkpoint/resume: a killed DSE run resumes bit-identically.

The per-seed study in the engine's artifact store (study + strategy
snapshot, ``search.save_study`` / ``load_study``) is the only checkpoint
there is; ``Explorer`` itself only offers ``snapshot()`` /
``begin(resume=)``.
"""

import dataclasses
import math

import pytest

from repro.adg import adg_to_dict
from repro.dse import DseConfig, Explorer
from repro.engine import ArtifactStore, DseEngine, EngineError, MetricsLogger
from repro.search import (
    SearchSettings,
    Study,
    export_study,
    list_studies,
    load_study,
    run_search,
    save_study,
    study_key,
)
from repro.workloads import get_workload


FIR = [get_workload("fir")]
CFG = DseConfig(iterations=36, seed=2)
ANNEAL = SearchSettings(strategy="anneal", trials=CFG.iterations, seed=CFG.seed)
KEY = study_key(FIR, CFG, "anneal", CFG.seed, 1)


def assert_results_equal(a, b):
    """Bit-identical DseResults (everything the trajectory determines)."""
    assert a.choice.objective == b.choice.objective
    assert a.choice.params == b.choice.params
    assert a.stats == b.stats
    assert a.history == b.history
    assert a.modeled_seconds == b.modeled_seconds
    assert adg_to_dict(a.sysadg.adg) == adg_to_dict(b.sysadg.adg)


def drive(explorer, until=None):
    """``Explorer.run``'s loop, stopping once ``until`` iterations are done."""
    while until is None or explorer.iteration < until:
        candidate = explorer.propose()
        if candidate is None:
            break
        _, adg, schedules = candidate
        explorer.decide(candidate, explorer._sweep(adg, schedules))


def snapshot_at(iteration):
    explorer = Explorer(FIR, CFG, name="fir")
    explorer.begin()
    drive(explorer, until=iteration)
    return explorer.snapshot()


def resume_from(state):
    explorer = Explorer(FIR, CFG, name="fir")
    explorer.begin(resume=state)
    drive(explorer)
    return explorer.finish()


def stored_study(snapshot):
    return Study(
        key=KEY, strategy="anneal", seed=CFG.seed, batch=1,
        workloads=["fir"], config_fingerprint="",
    ), snapshot


class TestExplorerResume:
    def test_resume_matches_uninterrupted(self):
        straight = Explorer(FIR, CFG, name="fir").run()
        mid = snapshot_at(24)  # as if killed there
        assert mid.iteration == 24
        assert_results_equal(resume_from(mid), straight)

    def test_resume_after_pickle_round_trip(self, tmp_path):
        """A snapshot that crossed a process boundary (via the stored
        study) must restore just as faithfully as a live one."""
        straight = Explorer(FIR, CFG, name="fir").run()
        snap = snapshot_at(24)
        save_study(ArtifactStore(tmp_path), *stored_study(snap))
        _study, loaded = load_study(ArtifactStore(tmp_path), KEY)
        assert loaded is not snap and loaded.iteration == snap.iteration
        assert_results_equal(resume_from(loaded), straight)

    def test_on_iteration_streams_progress(self):
        """Progress streams as ``study_batch`` events: one per evaluated
        candidate, in order."""
        metrics = MetricsLogger()
        outcome = run_search(FIR, CFG, ANNEAL, metrics=metrics, name="fir")
        totals = [e["total"] for e in metrics.of_type("study_batch")]
        assert totals == list(range(1, len(outcome.study.trials) + 1))
        assert metrics.of_type("study_end")[0]["best_objective"] > 0

    def test_failed_proposal_still_checkpoints(self, monkeypatch):
        """An iteration whose proposal fails is skipped inside ``propose``;
        the snapshot taken after it counts it, and resuming from that
        snapshot is bit-identical."""
        real = Explorer._propose

        def fail_on_2(self, adg, schedules):
            out = real(self, adg, schedules)
            return None if self.stats.iterations == 2 else out

        monkeypatch.setattr(Explorer, "_propose", fail_on_2)
        straight = Explorer(FIR, CFG, name="fir").run()
        snap = snapshot_at(2)
        assert snap.iteration == 3  # 2 failed; its boundary is not lost
        assert_results_equal(resume_from(snap), straight)


class TestCheckpointFiles:
    """Studies live in an ArtifactStore: its atomic write and
    corrupt-is-a-miss read, plus ``load_study``'s type guard."""

    def test_missing_file_is_none(self, tmp_path):
        assert load_study(ArtifactStore(tmp_path), KEY) == (None, None)

    def test_corrupt_file_is_none(self, tmp_path):
        store = ArtifactStore(tmp_path)
        store.put(KEY, "placeholder")
        store._path(KEY).write_bytes(b"garbage")
        assert load_study(store, KEY) == (None, None)
        assert store.stats.corrupt == 1 and KEY not in store

    def test_wrong_type_is_none(self, tmp_path):
        store = ArtifactStore(tmp_path)
        store.put(KEY, {"not": "a study"})
        assert load_study(store, KEY) == (None, None)
        store.put(KEY, {"study": "not a Study"})
        assert load_study(store, KEY) == (None, None)

    def test_write_is_atomic(self, tmp_path):
        """A write that dies mid-pickle leaves the previous snapshot (and
        no temp file) behind."""
        store = ArtifactStore(tmp_path)
        save_study(store, *stored_study(snapshot_at(18)))

        class Unpicklable:
            def __reduce__(self):
                raise RuntimeError("killed mid-write")

        with pytest.raises(RuntimeError):
            store.put(KEY, Unpicklable())
        assert load_study(store, KEY)[1].iteration == 18
        assert not list(tmp_path.rglob("*.tmp"))

    def test_stale_config_fingerprint_rejected(self, tmp_path, study_saves):
        """A study written under another config is never resumed: the
        study key hashes the config, so it is not even looked at."""
        store = ArtifactStore(tmp_path)
        study_saves.kill_after = 2
        with pytest.raises(RuntimeError, match="simulated kill"):
            run_search(FIR, CFG, ANNEAL, store=store)
        study_saves.kill_after = None
        other = dataclasses.replace(CFG, iterations=30)
        moved = dataclasses.replace(ANNEAL, trials=30)
        assert not run_search(FIR, other, moved, store=store).resumed
        assert run_search(FIR, CFG, ANNEAL, store=store).resumed

    def test_manager_round_trip_and_discard(self, tmp_path):
        store = ArtifactStore(tmp_path)
        save_study(store, *stored_study(snapshot_at(18)))
        study, state = load_study(store, KEY)
        assert study.key == KEY and state.iteration == 18
        other_seed = study_key(FIR, CFG, "anneal", 3, 1)
        assert other_seed != KEY
        assert load_study(store, other_seed) == (None, None)
        store.discard(KEY)
        assert load_study(store, KEY) == (None, None)


class TestEngineResume:
    def kill_then_resume(self, settings, tmp_path, study_saves):
        """Simulate a mid-run kill: the store dies on the third study
        save, leaving the second where the engine expects it; then
        ``explore(resume=True)`` — the finished job must equal a run that
        was never interrupted."""
        eng = DseEngine(cache_dir=str(tmp_path), checkpoint_every=4)
        study_saves.kill_after = 2
        with pytest.raises(EngineError, match="simulated kill"):
            eng.explore(FIR, CFG, name="fir", settings=settings)
        study_saves.kill_after = None
        (row,) = list_studies(eng.store)
        assert row["trials"] == 8 and study_saves == [4, 8]

        res = eng.explore(FIR, CFG, name="fir", settings=settings, resume=True)
        assert not res.from_cache
        assert res.metrics.resumed_seeds == [CFG.seed]
        assert res.outcomes[0].outcome.resumed

        straight = DseEngine().explore(FIR, CFG, name="fir", settings=settings)
        assert export_study(res.outcome.study) == export_study(
            straight.outcome.study
        )
        assert res.objective == straight.objective
        return res, straight

    def test_kill_then_resume_reaches_uninterrupted_objective(
        self, tmp_path, study_saves
    ):
        res, straight = self.kill_then_resume(None, tmp_path, study_saves)
        assert_results_equal(res.result, straight.result)

    def test_kill_then_resume_with_a_sampler(self, tmp_path, study_saves):
        tpe = SearchSettings(strategy="tpe", trials=12, batch=2)
        res, _straight = self.kill_then_resume(tpe, tmp_path, study_saves)
        assert res.result is None and res.outcome.sysadg is not None

    def test_unfinished_study_is_not_read_without_resume(
        self, tmp_path, study_saves
    ):
        eng = DseEngine(cache_dir=str(tmp_path), checkpoint_every=4)
        study_saves.kill_after = 2
        with pytest.raises(EngineError):
            eng.explore(FIR, CFG, name="fir")
        study_saves.kill_after = None
        res = eng.explore(FIR, CFG, name="fir")
        assert res.metrics.resumed_seeds == []
        assert res.metrics.iterations == CFG.iterations

    def test_completed_job_keeps_its_studies(self, tmp_path):
        """The study is the checkpoint *and* the record: it stays in the
        one store, where ``repro study`` sees it — no second store."""
        eng = DseEngine(cache_dir=str(tmp_path), checkpoint_every=12)
        res = eng.explore(FIR, CFG, name="fir", seeds=[2, 3])
        assert not res.from_cache
        rows = list_studies(eng.store)
        assert sorted((r["strategy"], r["seed"]) for r in rows) == [
            ("anneal", 2), ("anneal", 3),
        ]
        assert not (tmp_path / "checkpoints").exists()

    def test_resume_flag_without_checkpoint_is_fresh_run(self, tmp_path):
        eng = DseEngine(cache_dir=str(tmp_path))
        res = eng.explore(FIR, CFG, name="fir", resume=True)
        assert not res.from_cache
        assert res.metrics.resumed_seeds == []
        straight = DseEngine().explore(FIR, CFG, name="fir")
        assert_results_equal(res.result, straight.result)


class TestCadence:
    def test_bare_run_search_saves_every_batch(self, tmp_path, study_saves):
        outcome = run_search(FIR, CFG, ANNEAL, store=ArtifactStore(tmp_path))
        assert study_saves == list(range(1, len(outcome.study.trials) + 1))

    @pytest.mark.parametrize("every", [25, 10, 0])
    def test_engine_cadence_bounds_study_writes(
        self, every, tmp_path, study_saves
    ):
        eng = DseEngine(cache_dir=str(tmp_path), checkpoint_every=every)
        res = eng.explore(FIR, CFG, name="fir")
        trials = len(res.outcome.study.trials)
        assert study_saves[-1] == trials  # the finished study, always
        assert len(study_saves) <= (
            math.ceil(trials / every) if every else 0
        ) + 1
