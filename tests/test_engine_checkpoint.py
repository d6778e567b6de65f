"""Checkpoint/resume: a killed DSE run resumes bit-identically."""

import dataclasses

import pytest

from repro.adg import adg_to_dict
from repro.dse import DseConfig, Explorer
from repro.engine import (
    ArtifactStore,
    DseEngine,
    checkpoint_key,
    config_fingerprint,
    job_key,
    load_checkpoint,
)
from repro.workloads import get_workload


FIR = [get_workload("fir")]
CFG = DseConfig(iterations=36, seed=2)
KEY = checkpoint_key("k" * 64, 2)


def assert_results_equal(a, b):
    """Bit-identical DseResults (everything the trajectory determines)."""
    assert a.choice.objective == b.choice.objective
    assert a.choice.params == b.choice.params
    assert a.stats == b.stats
    assert a.history == b.history
    assert a.modeled_seconds == b.modeled_seconds
    assert adg_to_dict(a.sysadg.adg) == adg_to_dict(b.sysadg.adg)


class TestExplorerResume:
    def test_resume_matches_uninterrupted(self):
        straight = Explorer(FIR, CFG, name="fir").run()

        snaps = []
        interrupted = Explorer(FIR, CFG, name="fir")
        interrupted.run(checkpoint_every=12, checkpoint_sink=snaps.append)
        assert len(snaps) == CFG.iterations // 12
        mid = snaps[1]  # the iteration-24 snapshot, as if killed there
        assert mid.iteration == 24

        resumed = Explorer(FIR, CFG, name="fir").run(resume=mid)
        assert_results_equal(resumed, straight)

    def test_resume_after_pickle_round_trip(self, tmp_path):
        """A snapshot that crossed a process boundary (via the checkpoint
        file) must restore just as faithfully as a live one."""
        straight = Explorer(FIR, CFG, name="fir").run()

        snaps = []
        Explorer(FIR, CFG, name="fir").run(
            checkpoint_every=12, checkpoint_sink=snaps.append
        )
        store = ArtifactStore(tmp_path)
        store.put(KEY, snaps[-1])
        loaded = load_checkpoint(ArtifactStore(tmp_path), KEY)
        assert loaded is not None and loaded.iteration == snaps[-1].iteration

        resumed = Explorer(FIR, CFG, name="fir").run(resume=loaded)
        assert_results_equal(resumed, straight)

    def test_on_iteration_streams_progress(self):
        seen = []
        Explorer(FIR, CFG, name="fir").run(
            checkpoint_every=1,
            checkpoint_sink=lambda s: seen.append(
                (s.iteration, s.choice.objective)
            ),
        )
        # Fires at every iteration boundary, abandoned proposals included.
        assert [i for i, _ in seen] == list(range(1, CFG.iterations + 1))
        assert all(obj > 0 for _, obj in seen)

    def test_failed_proposal_still_checkpoints(self, monkeypatch):
        """An iteration whose proposal fails is still an iteration
        boundary: the checkpoint due there is written (not deferred to the
        next multiple), and resuming from it is bit-identical."""
        real = Explorer._propose

        def fail_on_2(self, adg, schedules):
            out = real(self, adg, schedules)
            return None if self.stats.iterations == 2 else out

        monkeypatch.setattr(Explorer, "_propose", fail_on_2)
        straight = Explorer(FIR, CFG, name="fir").run()

        snaps = []
        Explorer(FIR, CFG, name="fir").run(
            checkpoint_every=2, checkpoint_sink=snaps.append
        )
        assert [s.iteration for s in snaps] == list(
            range(2, CFG.iterations + 1, 2)
        )

        resumed = Explorer(FIR, CFG, name="fir").run(resume=snaps[0])
        assert_results_equal(resumed, straight)


class TestCheckpointFiles:
    """Snapshots live in an ArtifactStore: its atomic write and
    corrupt-is-a-miss read, plus the snapshot-type and fingerprint guards."""

    def test_missing_file_is_none(self, tmp_path):
        assert load_checkpoint(ArtifactStore(tmp_path), KEY) is None

    def test_corrupt_file_is_none(self, tmp_path):
        store = ArtifactStore(tmp_path)
        store.put(KEY, "placeholder")
        store._path(KEY).write_bytes(b"garbage")
        assert load_checkpoint(store, KEY) is None
        assert store.stats.corrupt == 1 and KEY not in store

    def test_wrong_type_is_none(self, tmp_path):
        store = ArtifactStore(tmp_path)
        store.put(KEY, {"not": "a checkpoint"})
        assert load_checkpoint(store, KEY) is None

    def test_write_is_atomic(self, tmp_path):
        """A write that dies mid-pickle leaves the previous snapshot (and
        no temp file) behind."""
        store = ArtifactStore(tmp_path)
        snaps = []
        Explorer(FIR, CFG, name="fir").run(
            checkpoint_every=18, checkpoint_sink=snaps.append
        )
        store.put(KEY, snaps[0])

        class Unpicklable:
            def __reduce__(self):
                raise RuntimeError("killed mid-write")

        with pytest.raises(RuntimeError):
            store.put(KEY, Unpicklable())
        assert load_checkpoint(store, KEY).iteration == snaps[0].iteration
        assert not list(tmp_path.rglob("*.tmp"))

    def test_stale_config_fingerprint_rejected(self, tmp_path):
        snaps = []
        Explorer(FIR, CFG, name="fir").run(
            checkpoint_every=12, checkpoint_sink=snaps.append
        )
        state = snaps[0]
        state.config_fingerprint = config_fingerprint(CFG)
        store = ArtifactStore(tmp_path)
        store.put(KEY, state)
        assert load_checkpoint(store, KEY, config_fingerprint(CFG)) is not None
        other = config_fingerprint(dataclasses.replace(CFG, iterations=99))
        assert load_checkpoint(store, KEY, other) is None

    def test_manager_round_trip_and_discard(self, tmp_path):
        store = ArtifactStore(tmp_path)
        snaps = []
        Explorer(FIR, CFG, name="fir").run(
            checkpoint_every=18, checkpoint_sink=snaps.append
        )
        store.put(KEY, snaps[0])
        assert load_checkpoint(store, KEY) is not None
        assert load_checkpoint(store, checkpoint_key("k" * 64, 3)) is None
        assert checkpoint_key("j" * 64, 2) != KEY
        store.discard(KEY)
        assert load_checkpoint(store, KEY) is None


class TestEngineResume:
    def test_kill_then_resume_reaches_uninterrupted_objective(self, tmp_path):
        """Simulate a mid-run kill: run the explorer until its checkpoint
        sink aborts the process, leave the last snapshot where the engine
        expects it, then ``explore(resume=True)`` — the finished job must
        equal a run that was never interrupted."""
        eng = DseEngine(cache_dir=str(tmp_path), checkpoint_every=12)
        key = job_key(FIR, CFG, [CFG.seed])
        cfg_key = config_fingerprint(CFG)

        class Killed(RuntimeError):
            pass

        ckpt = checkpoint_key(key, CFG.seed)

        def killing_sink(state):
            state.config_fingerprint = cfg_key
            eng.checkpoints.put(ckpt, state)
            if state.iteration >= 24:
                raise Killed("simulated kill -9")

        with pytest.raises(Killed):
            Explorer(FIR, CFG, name="fir").run(
                checkpoint_every=12, checkpoint_sink=killing_sink
            )
        assert load_checkpoint(eng.checkpoints, ckpt, cfg_key) is not None

        res = eng.explore(FIR, CFG, name="fir", resume=True)
        assert not res.from_cache
        assert res.metrics.resumed_seeds == [CFG.seed]
        assert res.outcomes[0].resumed

        straight = DseEngine().explore(FIR, CFG, name="fir")
        assert_results_equal(res.result, straight.result)

    def test_completed_job_discards_checkpoints(self, tmp_path):
        eng = DseEngine(cache_dir=str(tmp_path), checkpoint_every=12)
        res = eng.explore(FIR, CFG, name="fir")
        assert not res.from_cache
        # run_seed_job checkpointed along the way; success cleaned them up.
        # (the key's shard directory is what the puts left behind)
        assert any(eng.checkpoints.root.iterdir())
        assert eng.checkpoints.size() == 0

    def test_resume_flag_without_checkpoint_is_fresh_run(self, tmp_path):
        eng = DseEngine(cache_dir=str(tmp_path))
        res = eng.explore(FIR, CFG, name="fir", resume=True)
        assert not res.from_cache
        assert res.metrics.resumed_seeds == []
        straight = DseEngine().explore(FIR, CFG, name="fir")
        assert_results_equal(res.result, straight.result)
