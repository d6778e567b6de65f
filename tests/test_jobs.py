"""Tests for the repro.jobs runtime: ShardPlan, run_jobs (serial rule,
process pool, deadlines, events, spans), and the golden serial-vs-pool
comparisons that pin the consumers' byte-identity contract."""

import asyncio
import os
import pickle
import time
from dataclasses import dataclass

import pytest

from repro.jobs import ShardPlan, run_jobs
from repro.jobs import runner as runner_module
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


@dataclass
class Row:
    ok: int


def row_and_name(x):
    """In-process, the literal ``"ok"`` is the interned attribute name
    itself; after crossing a pipe it is a string of its own, so the raw
    pickles of the serial and pool results differ."""
    return [Row(x), "ok"]


def sleepy(seconds):
    time.sleep(seconds)
    return seconds


def pid_then_sleep(job):
    path, seconds = job
    with open(path, "w") as f:
        f.write(str(os.getpid()))
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

    def of(self, event):
        return [f for e, f in self.events if e == event]


def run(fn, jobs, workers, **kw):
    """``run_jobs`` under the name ``t``, with its events recorded."""
    metrics = Recorder()
    outs = run_jobs(fn, jobs, workers=workers, metrics=metrics, name="t", **kw)
    return outs, metrics


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
            for number, (start, count) in enumerate(plan.ranges()):
                for index in range(start, start + count):
                    assert plan.shard_of(index) == number
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
def mode_of(metrics):
    return metrics.of("job_batch_end")[0]["mode"]


class TestSerialFallbackRule:
    def test_single_worker_runs_serial(self):
        outs, metrics = run(square, [1, 2, 3], 1)
        assert [o.result for o in outs] == [1, 4, 9]
        assert mode_of(metrics) == "serial"

    def test_single_job_runs_serial_even_with_workers(self):
        outs, metrics = run(square, [5], 4)
        assert outs[0].result == 25
        assert mode_of(metrics) == "serial"

    def test_multi_worker_multi_job_uses_pool(self):
        outs, metrics = run(square, [1, 2, 3], 2)
        assert [o.result for o in outs] == [1, 4, 9]
        assert [o.index for o in outs] == [0, 1, 2]
        assert mode_of(metrics) == "pool"

    def test_serial_and_pool_emit_identical_checkpoints(self):
        """A result that crossed a worker boundary pickles differently
        from the same value built in-process; one pickle round-trip (what
        soak and the study runner do before storing) erases that, so what
        a caller checkpoints cannot depend on which path ran the job."""
        blobs = {}
        for workers in (1, 2):
            outs, metrics = run(row_and_name, [3, 4, 5], workers)
            assert mode_of(metrics) == ("serial", "pool")[workers - 1]
            blobs[workers] = [
                pickle.dumps(pickle.loads(pickle.dumps(o.result)))
                for o in outs
            ]
        assert blobs[1] == blobs[2]

    def test_no_multiprocessing_degrades_to_serial(self, monkeypatch):
        def no_pool(*args, **kwargs):
            raise OSError("no semaphores here")

        monkeypatch.setattr(runner_module, "ProcessPoolExecutor", no_pool)
        with tracing() as t:
            outs, metrics = run(square, [1, 2, 3], 2)
        assert [o.result for o in outs] == [1, 4, 9]
        assert metrics.of("pool_unavailable") == [{"runner": "t", "workers": 2}]
        assert mode_of(metrics) == "serial-fallback"
        assert [s.name for s in t.spans()].count("jobs.job") == 3


# ----------------------------------------------------------------------
# Fault injection: crash / hang / unpickle poison — recorded, never raised
# ----------------------------------------------------------------------
#: Both paths of ``run_jobs``: serial (one worker), then the pool.
PATHS = [
    lambda fn, jobs, **kw: run(fn, jobs, 1, **kw),
    lambda fn, jobs, **kw: run(fn, jobs, 2, **kw),
]


class TestFaultInjection:
    @pytest.mark.parametrize("run_path", PATHS)
    def test_crash_degrades_to_survivors(self, run_path):
        outs, metrics = run_path(crash_on_two, [1, 2, 3])
        assert [o.ok for o in outs] == [True, False, True]
        assert "boom 2" in outs[1].error
        assert [o.result for o in outs if o.ok] == [1, 3]
        end = metrics.of("job_batch_end")[0]
        assert (end["ok"], end["failed"]) == (2, 1)

    @pytest.mark.parametrize("run_path", PATHS)
    def test_all_failed_suppressed_for_consumer_owned_errors(self, run_path):
        """Every job failing is still a list of outcomes: the caller
        raises its own error (EngineError, SoakError, ...) if it must."""
        outs, _ = run_path(crash, [1, 2])
        assert [o.ok for o in outs] == [False, False]
        assert ["boom 1" in o.error for o in outs] == [True, False]

    def test_hang_times_out_on_pool(self):
        outs, _ = run(sleepy, [0.01, 30.0], 2, timeout_s=1.0)
        assert outs[0].ok and outs[0].result == 0.01
        assert outs[1].timed_out and not outs[1].ok
        assert "timed out" in outs[1].error

    def test_serial_path_cannot_preempt_and_ignores_timeout(self):
        outs, _ = run(sleepy, [0.05, 0.05], 1, timeout_s=0.01)
        assert all(o.ok for o in outs)
        assert not any(o.timed_out for o in outs)

    def test_unpickle_poison_fails_on_pool_succeeds_in_process(self):
        jobs = [PoisonOnUnpickle(1), PoisonOnUnpickle(2)]
        # In-process: no pickling, the payloads are fine.
        outs, _ = run(poison_value, jobs, 1)
        assert [o.result for o in outs] == [1, 2]
        # Pool: unpickling breaks the pool, every job is a recorded
        # failure, and nothing is raised — the caller owns that rule.
        outs, metrics = run(poison_value, jobs, 2)
        assert [o.ok for o in outs] == [False, False]
        assert metrics.of("job_batch_end")[0]["failed"] == 2

    def test_timed_out_worker_is_killed(self, tmp_path):
        """A timed-out job no longer outlives the batch: its worker is
        killed once the batch is collected, so interpreter exit has
        nothing to join (a hung ``--seed-timeout`` seed used to keep
        ``repro dse`` alive until it finished)."""
        jobs = [(str(tmp_path / "fast"), 0.01), (str(tmp_path / "hung"), 600)]
        outs, _ = run(pid_then_sleep, jobs, 2, timeout_s=1.0)
        assert outs[0].ok and outs[1].timed_out
        pid = int((tmp_path / "hung").read_text())
        deadline = time.monotonic() + 2.0
        while True:
            try:
                os.kill(pid, 0)
            except ProcessLookupError:
                break
            assert time.monotonic() < deadline, f"worker {pid} still alive"
            time.sleep(0.05)


# ----------------------------------------------------------------------
# Metrics events and spans
# ----------------------------------------------------------------------
class TestObservability:
    def test_job_events_bracket_batch_and_split_overhead(self):
        metrics = Recorder()
        run_jobs(square, [1, 2], workers=1, metrics=metrics, name="t",
                 label_fn=lambda j: f"j{j}")
        names = metrics.names()
        assert names[0] == "job_batch_start" and names[-1] == "job_batch_end"
        assert [f["job"] for f in metrics.of("job_done")] == ["j1", "j2"]
        assert {f["runner"] for _, f in metrics.events} == {"t"}
        end = metrics.of("job_batch_end")[0]
        assert end["mode"] == "serial" and end["ok"] == 2
        assert end["wall_s"] >= end["execute_s"] >= 0
        assert end["schedule_s"] >= 0
        assert end["wall_s"] == pytest.approx(
            end["execute_s"] + end["schedule_s"], abs=1e-4
        )

    def test_failure_and_timeout_events(self):
        _, metrics = run(sleepy, [0.01, 30.0], 2, timeout_s=0.5)
        assert [f["index"] for f in metrics.of("job_done")] == [0]
        assert [f["index"] for f in metrics.of("job_timeout")] == [1]
        _, metrics = run(crash_on_two, [1, 2], 1)
        assert [f["index"] for f in metrics.of("job_failed")] == [1]
        assert "boom 2" in metrics.of("job_failed")[0]["error"]

    def test_pool_times_each_job_where_it_runs(self):
        """``job_done.wall_s`` is the job's own time, not time since the
        batch started, and ``execute_s`` is the sum of those times."""
        outs, metrics = run(sleepy, [0.5] * 4, 2)
        assert all(o.ok for o in outs)
        walls = [f["wall_s"] for f in metrics.of("job_done")]
        assert len(walls) == 4 and all(0.5 <= w < 0.75 for w in walls)
        end = metrics.of("job_batch_end")[0]
        assert end["mode"] == "pool"
        assert end["execute_s"] == pytest.approx(2.0, abs=0.2)
        assert 0 <= end["schedule_s"] < end["wall_s"]

    def test_span_hierarchy(self):
        with tracing() as t:
            run_jobs(square, [1, 2, 3], workers=1, name="spans")
        names = [s.name for s in t.spans()]
        assert names.count("jobs.run") == 1
        assert names.count("jobs.job") == 3
        run_span = next(s for s in t.spans() if s.name == "jobs.run")
        assert run_span.attrs["jobs"] == 3


# ----------------------------------------------------------------------
# The serve compute workers' long-lived pools
# ----------------------------------------------------------------------
class TestWorkerPool:
    @staticmethod
    def executor(workers):
        from repro.serve.server import OverlayServer, ServeConfig

        server = OverlayServer(ServeConfig(workers=workers))
        return server._make_executor(), server._executor_kind

    def test_zero_workers_gives_threads(self):
        pool, kind = self.executor(0)
        try:
            assert kind == "thread"
            assert pool.submit(square, 3).result() == 9
        finally:
            pool.shutdown()

    def test_positive_workers_gives_processes(self):
        async def main():
            # A compute process is driven from the server's event loop.
            pool, kind = self.executor(2)
            try:
                assert kind == "process"
                assert await pool.submit(square, 3) == 9
            finally:
                pool.shutdown()

        asyncio.run(main())

    def test_a_large_job_to_a_busy_process_waits_in_its_outbox(self):
        """A frame larger than the socket buffer, sent while the worker
        computes, must not stall the event loop until the worker reads."""

        async def main():
            pool, _ = self.executor(1)
            try:
                busy = pool.submit(sleepy, 0.4)
                start = time.perf_counter()
                large = pool.submit(len, b"x" * (8 << 20))
                assert time.perf_counter() - start < 0.2
                assert await busy == 0.4 and await large == 8 << 20
            finally:
                pool.shutdown()

        asyncio.run(main())


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
        from repro.search import DseEngine
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
