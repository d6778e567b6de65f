"""Tests for the parallel DSE engine: hashing, store, orchestration."""

import dataclasses
import json
import os
import subprocess
import sys

import pytest

from repro.dse import DseConfig, TimeModel, explore
from repro.engine import (
    ArtifactStore,
    DseEngine,
    EngineError,
    MetricsLogger,
    fingerprint,
    job_key,
    workload_fingerprint,
)
from repro.workloads import get_suite, get_workload


FIR = [get_workload("fir")]
FAST = DseConfig(iterations=12, seed=2)


# ----------------------------------------------------------------------
# Content hashing
# ----------------------------------------------------------------------
class TestHashing:
    def test_key_is_stable(self):
        assert job_key(FIR, FAST, [2]) == job_key(FIR, FAST, [2])

    def test_key_ignores_seed_order(self):
        assert job_key(FIR, FAST, [3, 2]) == job_key(FIR, FAST, [2, 3])

    def test_config_field_changes_key(self):
        for change in (
            {"iterations": 13},
            {"seed": 3},
            {"preserving_prob": 0.4},
            {"schedule_preserving": False},
            {"time_model": TimeModel(full_compile=1.0)},
        ):
            other = dataclasses.replace(FAST, **change)
            assert job_key(FIR, other, [2]) != job_key(FIR, FAST, [2]), change

    def test_workload_body_changes_key(self):
        fir = get_workload("fir")
        renamed = dataclasses.replace(fir, name="fir2")
        resized = dataclasses.replace(fir, size_desc="other")
        assert workload_fingerprint(renamed) != workload_fingerprint(fir)
        assert job_key([resized], FAST, [2]) != job_key([fir], FAST, [2])

    def test_workload_set_changes_key(self):
        assert job_key(get_suite("dsp"), FAST, [2]) != job_key(
            FIR, FAST, [2]
        )

    def test_schema_version_changes_key(self, monkeypatch):
        from repro.engine import hashing

        before = job_key(FIR, FAST, [2])
        monkeypatch.setattr(hashing, "CODE_SCHEMA_VERSION", 999)
        assert job_key(FIR, FAST, [2]) != before

    def test_fingerprint_independent_of_set_order(self):
        assert fingerprint({"a", "b", "c"}) == fingerprint({"c", "a", "b"})

    def test_rejects_uncanonicalizable(self):
        with pytest.raises(TypeError):
            fingerprint(object())


# ----------------------------------------------------------------------
# Artifact store
# ----------------------------------------------------------------------
class TestArtifactStore:
    def test_round_trip(self, tmp_path):
        store = ArtifactStore(tmp_path)
        store.put("ab" * 32, {"x": 1}, meta={"why": "test"})
        assert store.get("ab" * 32) == {"x": 1}
        assert store.meta("ab" * 32) == {"why": "test"}
        assert store.stats.hits == 1 and store.stats.puts == 1

    def test_miss(self, tmp_path):
        store = ArtifactStore(tmp_path)
        assert store.get("cd" * 32) is None
        assert store.stats.misses == 1

    def test_corrupt_entry_is_a_miss_and_dropped(self, tmp_path):
        store = ArtifactStore(tmp_path)
        key = "ef" * 32
        store.put(key, [1, 2, 3])
        path = store._path(key)
        path.write_bytes(b"not a pickle")
        assert store.get(key) is None
        assert store.stats.corrupt == 1
        assert key not in store

    def test_keys_and_clear(self, tmp_path):
        store = ArtifactStore(tmp_path)
        store.put("11" * 32, 1)
        store.put("22" * 32, 2)
        assert store.size() == 2
        store.clear()
        assert store.size() == 0


# ----------------------------------------------------------------------
# Orchestration
# ----------------------------------------------------------------------
class TestEngine:
    def test_miss_then_memory_hit(self, tmp_path):
        eng = DseEngine(cache_dir=str(tmp_path))
        first = eng.explore(FIR, FAST, name="fir")
        again = eng.explore(FIR, FAST, name="fir")
        assert not first.from_cache
        assert again.from_cache and again.metrics.cache_tier == "memory"
        assert again.result is first.result

    def test_disk_hit_across_engines_runs_zero_iterations(self, tmp_path):
        cold = DseEngine(cache_dir=str(tmp_path))
        first = cold.explore(FIR, FAST, name="fir")
        warm = DseEngine(cache_dir=str(tmp_path))
        hit = warm.explore(FIR, FAST, name="fir")
        assert hit.from_cache and hit.metrics.cache_tier == "disk"
        assert warm.stats.iterations_run == 0
        assert warm.stats.cache_hits == 1
        assert hit.objective == first.objective

    def test_no_cache_dir_still_memoizes(self):
        eng = DseEngine()
        assert eng.store is None
        first = eng.explore(FIR, FAST, name="fir")
        assert eng.explore(FIR, FAST, name="fir").from_cache
        assert first.objective > 0

    def test_best_of_seeds_beats_or_ties_single(self):
        eng = DseEngine()
        multi = eng.explore(FIR, FAST, name="fir", seeds=[2, 3, 4])
        single = eng.explore(FIR, FAST, name="fir", seeds=[2])
        assert multi.objective >= single.objective
        assert multi.metrics.best_seed in (2, 3, 4)

    @pytest.mark.parametrize(
        "strategy", ["anneal", "bottleneck", "evolutionary", "tpe"]
    )
    def test_every_strategy_runs_the_one_path(self, strategy, tmp_path):
        """Serial vs pool, per strategy: same winner, same design, and
        byte-identical per-seed studies in the two stores."""
        from repro.adg import sysadg_to_dict
        from repro.search import (
            SearchSettings, export_study, list_studies, load_study,
        )

        settings = SearchSettings(strategy=strategy, trials=6, batch=3)
        runs, studies = [], []
        for workers in (1, 2):
            eng = DseEngine(workers=workers, cache_dir=str(tmp_path / str(workers)))
            runs.append(eng.explore(
                FIR, FAST, name="fir", seeds=[2, 3], settings=settings
            ))
            rows = list_studies(eng.store)
            assert sorted(r["seed"] for r in rows) == [2, 3]
            assert {r["strategy"] for r in rows} == {strategy}
            studies.append({
                r["seed"]: export_study(load_study(eng.store, r["key"])[0])
                for r in rows
            })
        a, b = runs
        assert a.metrics.best_seed == b.metrics.best_seed
        assert a.objective == b.objective and a.objective > 0
        assert sysadg_to_dict(a.outcome.sysadg) == sysadg_to_dict(
            b.outcome.sysadg
        )
        assert studies[0] == studies[1]

    def test_parallel_matches_serial(self, tmp_path):
        serial = DseEngine(workers=1)
        parallel = DseEngine(workers=2, cache_dir=str(tmp_path))
        a = serial.explore(FIR, FAST, name="fir", seeds=[2, 3])
        b = parallel.explore(FIR, FAST, name="fir", seeds=[2, 3])
        assert a.objective == b.objective
        assert a.metrics.best_seed == b.metrics.best_seed
        assert a.result.stats == b.result.stats

    def test_crashed_seed_degrades_to_survivors(self):
        eng = DseEngine()
        res = eng.explore(
            FIR, FAST, name="fir", seeds=[2, 3], inject_crash_seeds=[2]
        )
        assert not res.from_cache
        assert res.metrics.crashed_seeds == [2]
        assert res.metrics.best_seed == 3
        assert eng.stats.worker_crashes == 1
        baseline = explore(FIR, dataclasses.replace(FAST, seed=3), name="fir")
        assert res.objective == baseline.choice.objective

    def test_crashed_seed_in_pool_degrades_to_survivors(self, tmp_path):
        eng = DseEngine(workers=2, cache_dir=str(tmp_path))
        res = eng.explore(
            FIR, FAST, name="fir", seeds=[2, 3], inject_crash_seeds=[3]
        )
        assert res.metrics.crashed_seeds == [3]
        assert res.metrics.best_seed == 2

    def test_all_seeds_crashed_raises(self):
        eng = DseEngine()
        with pytest.raises(EngineError, match="all 2 seed workers failed"):
            eng.explore(
                FIR, FAST, name="fir", seeds=[2, 3], inject_crash_seeds=[2, 3]
            )

    def test_crash_is_not_cached(self, tmp_path):
        eng = DseEngine(cache_dir=str(tmp_path))
        with pytest.raises(EngineError):
            eng.explore(FIR, FAST, name="fir", inject_crash_seeds=[2])
        res = eng.explore(FIR, FAST, name="fir")
        assert not res.from_cache

    def test_metrics_stream(self, tmp_path):
        log_path = tmp_path / "events.jsonl"
        eng = DseEngine(metrics=MetricsLogger(str(log_path)))
        eng.explore(FIR, FAST, name="fir")
        eng.explore(FIR, FAST, name="fir")
        events = [e["event"] for e in eng.metrics.events]
        assert events.count("run_start") == 1
        seeds_done = [
            e for e in eng.metrics.of_type("job_done")
            if e["runner"] == "engine.seeds"
        ]
        assert [e["job"] for e in seeds_done] == [FAST.seed]
        assert not eng.metrics.of_type("seed_done")  # job_* is the schema
        assert events.count("run_end") == 1
        assert events.count("cache_hit") == 1
        run_end = eng.metrics.of_type("run_end")[0]
        assert run_end["iterations"] == FAST.iterations
        assert 0.0 <= run_end["acceptance_rate"] <= 1.0
        # The JSONL file is the in-memory stream plus what the seed's
        # study appends from wherever it runs (study_*, search.eval jobs).
        logged = [
            json.loads(line)
            for line in log_path.read_text().strip().splitlines()
        ]
        from_study = [
            e["event"] for e in logged
            if e["event"].startswith("study_") or e.get("runner") == "search.eval"
        ]
        assert {"study_start", "study_batch", "study_end"} <= set(from_study)
        assert len(logged) - len(from_study) == len(events)

    def test_event_buffer_is_bounded_but_the_file_is_not(self, tmp_path):
        """A server emits one event per request for as long as it lives:
        memory keeps the most recent EVENT_BUFFER, the JSONL mirror all."""
        from repro.engine.metrics import EVENT_BUFFER

        log_path = tmp_path / "events.jsonl"
        logger = MetricsLogger(str(log_path))
        total = EVENT_BUFFER + 1000
        for i in range(total):
            logger.emit("request", index=i)
        assert len(logger.events) == EVENT_BUFFER
        assert logger.events[0]["index"] == 1000
        assert len(logger.of_type("request")) == EVENT_BUFFER
        with open(log_path) as f:
            assert [json.loads(line)["index"] for line in f] == list(
                range(total)
            )

    def test_seed_timeout_degrades_to_survivors(self, tmp_path):
        """A hung worker no longer blocks the job: the timed-out seed is
        recorded as a failure and the best survivor wins (satellite)."""
        eng = DseEngine(workers=2, cache_dir=str(tmp_path), seed_timeout=0.5)
        res = eng.explore(
            FIR, FAST, name="fir", seeds=[2, 3],
            inject_hang={3: 15.0},
        )
        assert res.metrics.timed_out_seeds == [3]
        assert res.metrics.crashed_seeds == [3]  # recorded as a failure
        assert res.metrics.best_seed == 2
        hung = [o for o in res.outcomes if o.seed == 3][0]
        assert hung.timed_out and "seed_timeout" in (hung.error or "")
        timeouts = [
            e for e in eng.metrics.of_type("job_timeout")
            if e["runner"] == "engine.seeds"
        ]
        assert [e["job"] for e in timeouts] == [3]
        baseline = explore(FIR, dataclasses.replace(FAST, seed=2), name="fir")
        assert res.objective == baseline.choice.objective

    def test_all_seeds_timing_out_raises(self, tmp_path):
        eng = DseEngine(workers=2, cache_dir=str(tmp_path), seed_timeout=0.2)
        with pytest.raises(EngineError, match="timed out"):
            eng.explore(
                FIR, FAST, name="fir", seeds=[2, 3],
                inject_hang={2: 15.0, 3: 15.0},
            )

    def test_no_timeout_when_seeds_finish_in_time(self, tmp_path):
        eng = DseEngine(workers=2, cache_dir=str(tmp_path), seed_timeout=120.0)
        res = eng.explore(FIR, FAST, name="fir", seeds=[2, 3])
        assert res.metrics.timed_out_seeds == []
        assert res.metrics.crashed_seeds == []
        ref = DseEngine(workers=2).explore(FIR, FAST, name="fir", seeds=[2, 3])
        assert res.objective == ref.objective

    def test_cleared_memory_tier_without_store_recomputes(self):
        eng = DseEngine()
        eng.explore(FIR, FAST, name="fir")
        assert eng.cache.stats()["entries"] == 1
        eng.cache.clear()
        res = eng.explore(FIR, FAST, name="fir")
        assert not res.from_cache  # no disk tier: cleared means recompute


# ----------------------------------------------------------------------
# Harness integration: the experiment drivers ride the engine
# ----------------------------------------------------------------------
class TestHarnessIntegration:
    def test_warm_cache_suite_overlay_runs_zero_iterations(self, tmp_path):
        """Acceptance check: the second (warm-cache) Table-III style
        invocation answers from the artifact store with zero annealer
        iterations, even in a fresh engine (fresh process stand-in)."""
        from repro.harness.experiments import set_engine, suite_overlay

        cold = DseEngine(cache_dir=str(tmp_path))
        previous = set_engine(cold)
        try:
            first = suite_overlay("dsp", iterations=20)
            assert cold.stats.iterations_run > 0

            warm = DseEngine(cache_dir=str(tmp_path))
            set_engine(warm)
            second = suite_overlay("dsp", iterations=20)
            assert warm.stats.iterations_run == 0
            assert warm.stats.cache_hits == 1
            assert second.choice.objective == first.choice.objective
        finally:
            set_engine(previous)

    def test_multi_seed_beats_or_ties_serial_single_seed(self):
        """Acceptance check: best-of-N through the engine is at least as
        good as the serial single-seed baseline, reproducibly."""
        from repro.harness.experiments import DSE_RESTART_SEEDS, DSE_SEED

        cfg = DseConfig(iterations=20, seed=DSE_SEED)
        workloads = get_suite("dsp")
        baseline = explore(workloads, cfg, name="dsp")
        eng = DseEngine(workers=4)
        multi = eng.explore(
            workloads, cfg, name="dsp", seeds=DSE_RESTART_SEEDS
        )
        rerun = DseEngine(workers=4).explore(
            workloads, cfg, name="dsp", seeds=DSE_RESTART_SEEDS
        )
        assert multi.objective >= baseline.choice.objective
        assert multi.objective == rerun.objective
        assert multi.metrics.best_seed == rerun.metrics.best_seed


# ----------------------------------------------------------------------
# Seed threading / determinism (satellite: every RNG flows from the seed)
# ----------------------------------------------------------------------
class TestDeterminism:
    def test_same_seed_bit_identical(self):
        a = explore(FIR, FAST, name="fir")
        b = explore(FIR, FAST, name="fir")
        assert a.choice.objective == b.choice.objective
        assert a.stats == b.stats
        assert a.history == b.history
        assert a.modeled_seconds == b.modeled_seconds

    def test_distinct_seeds_distinct_trajectories(self):
        cfg = DseConfig(iterations=30, seed=2)
        a = explore(get_suite("dsp"), cfg, name="d")
        b = explore(
            get_suite("dsp"),
            dataclasses.replace(cfg, seed=9),
            name="d",
        )
        assert a.stats != b.stats

    def test_identical_across_hash_randomization(self):
        """A worker process with a different PYTHONHASHSEED must reproduce
        the parent's run bit-for-bit (no RNG escapes the seeded Random,
        no set-iteration order leaks into the trajectory)."""
        code = (
            "from repro.dse import DseConfig, explore\n"
            "from repro.workloads import get_workload\n"
            "r = explore([get_workload('fir')],"
            " DseConfig(iterations=12, seed=2), name='fir')\n"
            "print(repr((r.choice.objective, r.stats)))\n"
        )
        outs = []
        for hashseed in ("1", "4242"):
            env = dict(os.environ, PYTHONHASHSEED=hashseed)
            env["PYTHONPATH"] = os.pathsep.join(
                p for p in sys.path if p
            )
            proc = subprocess.run(
                [sys.executable, "-c", code],
                capture_output=True,
                text=True,
                env=env,
                check=True,
            )
            outs.append(proc.stdout.strip())
        assert outs[0] == outs[1]
        local = explore(FIR, FAST, name="fir")
        assert repr((local.choice.objective, local.stats)) == outs[0]
