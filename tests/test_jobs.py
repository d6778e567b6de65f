"""Tests for the repro.jobs runtime: ShardPlan, JobRunner, executors,
fault policies, checkpoint/resume, and the golden serial-vs-pool
comparisons that pin the consumers' byte-identity contract."""

import time

import pytest

from repro.engine.store import ArtifactStore
from repro.jobs import (
    Checkpointing,
    FaultPolicy,
    InProcessExecutor,
    JobRunner,
    JobsFailedError,
    ProcessPoolJobExecutor,
    ShardPlan,
    make_worker_pool,
)
from repro.profile.tracer import tracing


# ----------------------------------------------------------------------
# Job functions (module-level so they pickle to worker processes).
# ----------------------------------------------------------------------
def square(x):
    return x * x


def crash(x):
    raise RuntimeError(f"boom {x}")


def crash_on_two(x):
    if x == 2:
        raise RuntimeError("boom 2")
    return x


def sleepy(seconds):
    time.sleep(seconds)
    return seconds


class PoisonOnUnpickle:
    """Payload that crosses to a worker but explodes on arrival."""

    def __init__(self, value):
        self.value = value

    def __setstate__(self, state):
        raise RuntimeError("poisoned payload")


def poison_value(p):
    return p.value


class Recorder:
    """Minimal MetricsLogger stand-in: captures (event, fields)."""

    def __init__(self):
        self.events = []

    def emit(self, event, **fields):
        self.events.append((event, fields))

    def names(self):
        return [e for e, _ in self.events]


# ----------------------------------------------------------------------
# ShardPlan
# ----------------------------------------------------------------------
class TestShardPlan:
    @pytest.mark.parametrize("total,shards", [
        (12, 5), (12, 1), (12, 12), (7, 3), (0, 4), (3, 8), (100, 7),
    ])
    def test_ranges_cover_total_contiguously(self, total, shards):
        plan = ShardPlan(total=total, shards=shards)
        ranges = plan.ranges()
        assert len(ranges) == plan.count
        assert sum(c for _, c in ranges) == total
        start = 0
        for s, c in ranges:
            assert s == start and c >= 0
            start += c

    def test_split_is_deterministic_and_balanced(self):
        assert ShardPlan(12, 5).ranges() == [
            (0, 3), (3, 3), (6, 2), (8, 2), (10, 2)
        ]
        counts = [c for _, c in ShardPlan(100, 7).ranges()]
        assert max(counts) - min(counts) <= 1

    def test_shard_count_below_one_clamps(self):
        assert ShardPlan(10, 0).ranges() == [(0, 10)]
        assert ShardPlan(10, -3).count == 1

    def test_negative_total_raises(self):
        with pytest.raises(ValueError):
            ShardPlan(-1, 2)

    def test_shard_of_matches_owning_slice(self):
        for total, shards in [(12, 5), (7, 3), (9, 9), (100, 7)]:
            plan = ShardPlan(total, shards)
            for shard in plan:
                for index in shard.indices():
                    assert plan.shard_of(index) == shard.index
        with pytest.raises(IndexError):
            ShardPlan(5, 2).shard_of(5)

    def test_scatter_partitions_in_order(self):
        items = list("abcdefg")
        parts = ShardPlan(7, 3).scatter(items)
        assert [list(p) for p in parts] == [
            ["a", "b", "c"], ["d", "e"], ["f", "g"]
        ]
        with pytest.raises(ValueError):
            ShardPlan(6, 3).scatter(items)

    def test_matches_soak_campaign_split(self):
        from repro.validate.soak import CampaignConfig

        for budget, shards in [(12, 5), (200, 4), (8, 2)]:
            config = CampaignConfig(budget=budget, shards=shards)
            assert config.shard_ranges() == ShardPlan(budget, shards).ranges()


# ----------------------------------------------------------------------
# The one serial-fallback rule
# ----------------------------------------------------------------------
class TestSerialFallbackRule:
    def test_single_worker_runs_serial(self):
        ex = ProcessPoolJobExecutor(workers=1)
        outs = JobRunner(executor=ex).run(square, [1, 2, 3])
        assert [o.result for o in outs] == [1, 4, 9]
        assert ex.last_mode == "serial"

    def test_single_job_runs_serial_even_with_workers(self):
        ex = ProcessPoolJobExecutor(workers=4)
        outs = JobRunner(executor=ex).run(square, [5])
        assert outs[0].result == 25
        assert ex.last_mode == "serial"

    def test_multi_worker_multi_job_uses_pool(self):
        ex = ProcessPoolJobExecutor(workers=2)
        outs = JobRunner(executor=ex).run(square, [1, 2, 3])
        assert [o.result for o in outs] == [1, 4, 9]
        assert ex.last_mode == "pool"

    def test_serial_and_pool_emit_identical_checkpoints(self, tmp_path):
        """Regression for the satellite: one fallback rule means the
        checkpoint artifacts cannot depend on which path executed."""
        blobs = {}
        for mode, workers in (("serial", 1), ("pool", 2)):
            store = ArtifactStore(str(tmp_path / mode))
            ckpt = Checkpointing(
                store=store,
                key_fn=lambda job: f"job-{job}",
                meta_fn=lambda job, result: {"job": job, "result": result},
            )
            ex = ProcessPoolJobExecutor(workers=workers)
            JobRunner(executor=ex).run(square, [3, 4, 5], checkpoint=ckpt)
            assert ex.last_mode == mode
            blobs[mode] = {
                p.name: p.read_bytes()
                for p in sorted((tmp_path / mode).glob("*/*"))
            }
        assert blobs["serial"] == blobs["pool"]
        assert any(n.endswith(".pkl") for n in blobs["serial"])


# ----------------------------------------------------------------------
# Fault injection: crash / hang / unpickle poison / all-failed
# ----------------------------------------------------------------------
EXECUTORS = [
    lambda: InProcessExecutor(),
    lambda: ProcessPoolJobExecutor(workers=2),
]


class TestFaultInjection:
    @pytest.mark.parametrize("make_executor", EXECUTORS)
    def test_crash_degrades_to_survivors(self, make_executor):
        runner = JobRunner(executor=make_executor())
        outs = runner.run(crash_on_two, [1, 2, 3])
        assert [o.ok for o in outs] == [True, False, True]
        assert "boom 2" in outs[1].error
        assert [o.result for o in outs if o.ok] == [1, 3]

    @pytest.mark.parametrize("make_executor", EXECUTORS)
    def test_crash_under_fail_policy_raises_and_cancels(self, make_executor):
        runner = JobRunner(
            executor=make_executor(), policy=FaultPolicy(mode="fail")
        )
        with pytest.raises(JobsFailedError) as err:
            runner.run(crash_on_two, [1, 2, 3])
        outs = err.value.outcomes
        assert len(outs) == 3
        assert outs[0].ok and not outs[1].ok
        assert "boom 2" in str(err.value)

    def test_fail_policy_cancels_rest_serially(self):
        runner = JobRunner(
            executor=InProcessExecutor(), policy=FaultPolicy(mode="fail")
        )
        with pytest.raises(JobsFailedError) as err:
            runner.run(crash_on_two, [1, 2, 3, 4])
        assert [o.error for o in err.value.outcomes[2:]] == [
            "cancelled (fail policy)", "cancelled (fail policy)"
        ]

    def test_hang_times_out_on_pool(self):
        runner = JobRunner(
            executor=ProcessPoolJobExecutor(workers=2),
            policy=FaultPolicy(timeout_s=1.5),
        )
        outs = runner.run(sleepy, [0.01, 30.0])
        assert outs[0].ok and outs[0].result == 0.01
        assert outs[1].timed_out and not outs[1].ok
        assert "timed out" in outs[1].error

    def test_hang_timeout_under_fail_policy_raises(self):
        runner = JobRunner(
            executor=ProcessPoolJobExecutor(workers=2),
            policy=FaultPolicy(mode="fail", timeout_s=1.5),
        )
        with pytest.raises(JobsFailedError):
            runner.run(sleepy, [0.01, 30.0])

    def test_serial_path_cannot_preempt_and_ignores_timeout(self):
        runner = JobRunner(
            executor=InProcessExecutor(),
            policy=FaultPolicy(timeout_s=0.01),
        )
        outs = runner.run(sleepy, [0.05, 0.05])
        assert all(o.ok for o in outs)
        assert not any(o.timed_out for o in outs)

    def test_unpickle_poison_fails_on_pool_succeeds_in_process(self):
        jobs = [PoisonOnUnpickle(1), PoisonOnUnpickle(2)]
        # In-process: no pickling, the payloads are fine.
        outs = JobRunner(executor=InProcessExecutor()).run(poison_value, jobs)
        assert [o.result for o in outs] == [1, 2]
        # Pool: unpickling kills the worker; every job in the batch is
        # poisoned (BrokenProcessPool), so the all-failed backstop fires.
        runner = JobRunner(executor=ProcessPoolJobExecutor(workers=2))
        with pytest.raises(JobsFailedError):
            runner.run(poison_value, jobs)

    @pytest.mark.parametrize("make_executor", EXECUTORS)
    @pytest.mark.parametrize("mode", ["degrade", "fail"])
    def test_all_failed_raises_in_every_mode(self, make_executor, mode):
        runner = JobRunner(
            executor=make_executor(), policy=FaultPolicy(mode=mode)
        )
        with pytest.raises(JobsFailedError) as err:
            runner.run(crash, [1, 2])
        assert all(not o.ok for o in err.value.outcomes)

    @pytest.mark.parametrize("make_executor", EXECUTORS)
    def test_all_failed_suppressed_for_consumer_owned_errors(
        self, make_executor
    ):
        runner = JobRunner(
            executor=make_executor(),
            policy=FaultPolicy(all_failed_raises=False),
        )
        outs = runner.run(crash, [1, 2])
        assert [o.ok for o in outs] == [False, False]

    def test_cached_survivors_suppress_all_failed(self, tmp_path):
        """All *pending* jobs failing is not a failed batch when resumed
        checkpoints already cover part of it."""
        store = ArtifactStore(str(tmp_path))
        ckpt = Checkpointing(store=store, key_fn=lambda job: f"job-{job}")
        runner = JobRunner(executor=InProcessExecutor())
        runner.run(square, [1, 2], checkpoint=ckpt)
        outs = runner.run(crash, [1, 2, 3], checkpoint=ckpt, resume=True)
        assert [o.cached for o in outs] == [True, True, False]
        assert not outs[2].ok

    def test_bad_policy_mode_rejected(self):
        with pytest.raises(ValueError):
            FaultPolicy(mode="explode")


# ----------------------------------------------------------------------
# Checkpoint / resume
# ----------------------------------------------------------------------
class TestCheckpointing:
    def test_resume_answers_from_store_without_rerun(self, tmp_path):
        store = ArtifactStore(str(tmp_path))
        ckpt = Checkpointing(
            store=store,
            key_fn=lambda job: f"job-{job}",
            meta_fn=lambda job, result: {"job": job},
        )
        metrics = Recorder()
        runner = JobRunner(executor=InProcessExecutor(), metrics=metrics)
        runner.run(square, [2, 3], checkpoint=ckpt)
        assert store.meta("job-2") == {"job": 2}
        metrics.events.clear()
        outs = runner.run(crash, [2, 3], checkpoint=ckpt, resume=True)
        assert [o.result for o in outs] == [4, 9]
        assert all(o.cached for o in outs)
        assert metrics.names().count("job_cached") == 2
        assert "job_done" not in metrics.names()

    def test_validate_fn_rejects_foreign_artifacts(self, tmp_path):
        store = ArtifactStore(str(tmp_path))
        store.put("job-2", "not-an-int")
        ckpt = Checkpointing(
            store=store,
            key_fn=lambda job: f"job-{job}",
            validate_fn=lambda cached: isinstance(cached, int),
        )
        outs = JobRunner(executor=InProcessExecutor()).run(
            square, [2], checkpoint=ckpt, resume=True
        )
        assert not outs[0].cached and outs[0].result == 4


# ----------------------------------------------------------------------
# Metrics events and span hierarchy
# ----------------------------------------------------------------------
class TestObservability:
    def test_job_events_bracket_batch_and_split_overhead(self):
        metrics = Recorder()
        runner = JobRunner(
            executor=InProcessExecutor(), metrics=metrics, name="t"
        )
        runner.run(square, [1, 2], label_fn=lambda j: f"j{j}")
        names = metrics.names()
        assert names[0] == "job_batch_start" and names[-1] == "job_batch_end"
        assert names.count("job_done") == 2
        done = [f for e, f in metrics.events if e == "job_done"]
        assert [f["job"] for f in done] == ["j1", "j2"]
        end = metrics.events[-1][1]
        assert end["mode"] == "serial" and end["ok"] == 2
        assert end["wall_s"] >= end["execute_s"] >= 0
        assert end["schedule_s"] >= 0
        assert end["wall_s"] == pytest.approx(
            end["execute_s"] + end["schedule_s"], abs=1e-4
        )

    def test_failure_and_timeout_events(self):
        metrics = Recorder()
        runner = JobRunner(
            executor=ProcessPoolJobExecutor(workers=2),
            policy=FaultPolicy(timeout_s=1.5),
            metrics=metrics,
        )
        runner.run(sleepy, [0.01, 30.0])
        assert "job_timeout" in metrics.names()
        metrics.events.clear()
        JobRunner(executor=InProcessExecutor(), metrics=metrics).run(
            crash_on_two, [1, 2]
        )
        assert "job_failed" in metrics.names()

    def test_span_hierarchy(self):
        with tracing() as t:
            JobRunner(executor=InProcessExecutor(), name="spans").run(
                square, [1, 2, 3]
            )
        names = [s.name for s in t.spans()]
        assert names.count("jobs.run") == 1
        assert names.count("jobs.job") == 3
        run_span = next(s for s in t.spans() if s.name == "jobs.run")
        assert run_span.attrs["jobs"] == 3


# ----------------------------------------------------------------------
# make_worker_pool
# ----------------------------------------------------------------------
class TestWorkerPool:
    def test_zero_workers_gives_threads(self):
        pool, kind = make_worker_pool(0)
        try:
            assert kind == "thread"
            assert pool.submit(square, 3).result() == 9
        finally:
            pool.shutdown()

    def test_positive_workers_gives_processes(self):
        pool, kind = make_worker_pool(2)
        try:
            assert kind == "process"
            assert pool.submit(square, 3).result() == 9
        finally:
            pool.shutdown()


# ----------------------------------------------------------------------
# Golden serial-vs-pool comparisons at the consumer level
# ----------------------------------------------------------------------
class TestConsumerGoldens:
    def test_soak_checkpoints_byte_identical_serial_vs_pool(self, tmp_path):
        from repro.validate import ToleranceBands
        from repro.validate.soak import CampaignConfig, soak_run

        config = CampaignConfig(
            budget=8, seed=3, shards=2, shrink_budget=20,
            bands=ToleranceBands(
                compute=0.0, memory=0.0, aux=0.0, abs_floor=0.0
            ),
        )
        renders = {}
        blobs = {}
        for mode, workers in (("serial", 1), ("pool", 2)):
            state = tmp_path / mode
            report = soak_run(config, state_dir=str(state), workers=workers)
            renders[mode] = report.render()
            blobs[mode] = {
                p.name: p.read_bytes()
                for p in sorted(state.glob("shards/*/*.pkl"))
            }
        assert renders["serial"] == renders["pool"]
        assert blobs["serial"] == blobs["pool"] and blobs["serial"]

    def test_engine_result_identical_serial_vs_pool(self):
        from repro.adg import sysadg_to_dict
        from repro.dse import DseConfig
        from repro.engine import DseEngine
        from repro.serve import canonical_dumps
        from repro.workloads import get_workload

        docs = {}
        for workers in (1, 2):
            engine = DseEngine(cache_dir=None, workers=workers)
            res = engine.explore(
                [get_workload("vecmax")],
                DseConfig(iterations=10, seed=4),
                seeds=[2, 3],
            )
            docs[workers] = (
                canonical_dumps(sysadg_to_dict(res.result.sysadg)),
                res.objective,
                res.metrics.best_seed,
            )
        assert docs[1] == docs[2]
