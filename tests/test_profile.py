"""Tests for repro.profile: span tracer and the bench CLI."""

import json
import threading

import pytest

from repro.profile import (
    NULL_SPAN,
    Tracer,
    add_counter,
    current,
    drop_memo,
    install,
    span,
    tracing,
    uninstall,
)
from repro.profile.bench import (
    BenchBudget,
    compare_reports,
    measure_overhead,
    run_bench,
)


@pytest.fixture(autouse=True)
def _no_leaked_tracer():
    """Tests must not leave a tracer installed for the rest of the suite."""
    yield
    uninstall()


class TestTracer:
    def test_span_records_nesting_and_attrs(self):
        tracer = install(Tracer())
        with span("outer", workload="fir"):
            with span("inner"):
                pass
        spans = tracer.spans()
        assert [s.name for s in spans] == ["outer", "inner"]  # start order
        by_name = {s.name: s for s in spans}
        assert by_name["outer"].depth == 0
        assert by_name["inner"].depth == 1
        assert by_name["outer"].attrs == {"workload": "fir"}
        assert by_name["inner"].start >= by_name["outer"].start
        assert by_name["inner"].end <= by_name["outer"].end

    def test_no_tracer_installed_is_null_span(self):
        uninstall()
        assert span("anything") is NULL_SPAN
        add_counter("anything")  # must not raise

    def test_disabled_tracer_records_nothing(self):
        tracer = install(Tracer(enabled=False))
        assert span("x") is NULL_SPAN
        with span("x"):
            pass
        add_counter("c")
        assert tracer.spans() == []
        assert tracer.counters() == {}
        tracer.enable()
        with span("x"):
            pass
        assert len(tracer.spans()) == 1
        tracer.disable()
        assert span("x") is NULL_SPAN

    def test_counters_accumulate(self):
        tracer = install(Tracer())
        add_counter("hits")
        add_counter("hits")
        add_counter("cycles", 500)
        assert tracer.counters() == {"hits": 2.0, "cycles": 500.0}

    def test_exception_inside_span_still_recorded(self):
        tracer = install(Tracer())
        with pytest.raises(RuntimeError):
            with span("doomed"):
                raise RuntimeError("boom")
        assert [s.name for s in tracer.spans()] == ["doomed"]

    def test_summarize_aggregates(self):
        tracer = install(Tracer())
        for _ in range(5):
            with span("work"):
                pass
        stats = tracer.summarize()["work"]
        assert stats.count == 5
        assert stats.min_s <= stats.mean_s <= stats.max_s
        assert stats.total_s == pytest.approx(stats.mean_s * 5)
        d = stats.as_dict()
        assert set(d) == {"count", "total_s", "mean_s", "min_s", "max_s"}

    def test_chrome_trace_document(self, tmp_path):
        tracer = install(Tracer())
        with span("scheduler.repair", workload="mm"):
            pass
        doc = tracer.chrome_trace()
        (event,) = doc["traceEvents"]
        assert event["ph"] == "X"
        assert event["cat"] == "scheduler"
        assert event["args"] == {"workload": "mm"}
        assert event["ts"] >= 0 and event["dur"] >= 0
        path = tmp_path / "trace.json"
        tracer.write_chrome_trace(str(path))
        assert json.loads(path.read_text())["traceEvents"]

    def test_flush_to_metrics(self, tmp_path):
        from repro.engine import MetricsLogger

        tracer = install(Tracer())
        with span("sim.region"):
            pass
        add_counter("sim.regions")
        path = tmp_path / "metrics.jsonl"
        tracer.flush_to_metrics(MetricsLogger(str(path)))
        (line,) = path.read_text().splitlines()
        event = json.loads(line)
        assert event["event"] == "trace_summary"
        assert "sim.region" in event["spans"]
        assert event["counters"] == {"sim.regions": 1.0}

    def test_thread_safety(self):
        tracer = install(Tracer())
        # Hold all threads alive together: thread idents are reused after
        # exit, so without the barrier distinct tids are not guaranteed.
        barrier = threading.Barrier(4)

        def work():
            for _ in range(100):
                with span("threaded"):
                    pass
                add_counter("n")
            barrier.wait()

        threads = [threading.Thread(target=work) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert len(tracer.spans()) == 400
        assert tracer.counters()["n"] == 400.0
        assert len({s.tid for s in tracer.spans()}) == 4

    def test_tracing_context_restores_previous(self):
        outer = install(Tracer())
        inner = Tracer()
        with tracing(inner) as t:
            assert t is inner
            assert current() is inner
        assert current() is outer
        uninstall()
        with tracing():
            assert current() is not None
        assert current() is None


def test_drop_memo_stays_importable_for_bench_worker():
    assert drop_memo("x") is None


class TestCompareReports:
    BASE = {"kind": "dse", "candidates_per_second": 100.0,
            "fast_path_speedup": 5.0}

    def test_improvement_and_unchanged(self):
        cur = dict(self.BASE, candidates_per_second=200.0)
        cmp = compare_reports(cur, self.BASE, tolerance=0.25)
        assert cmp["ok"]
        statuses = {r["metric"]: r["status"] for r in cmp["rows"]}
        assert statuses["candidates_per_second"] == "improvement"
        assert statuses["fast_path_speedup"] == "unchanged"

    def test_regression_fails(self):
        cur = dict(self.BASE, candidates_per_second=50.0)
        cmp = compare_reports(cur, self.BASE, tolerance=0.25)
        assert not cmp["ok"]
        assert cmp["regressions"] == ["candidates_per_second"]

    def test_missing_metric_never_fails(self):
        """Absent or zero in the *baseline*: nothing to compare against."""
        baseline = dict(self.BASE, candidates_per_second=0.0)
        del baseline["fast_path_speedup"]
        cmp = compare_reports(self.BASE, baseline, tolerance=0.25)
        assert cmp["ok"]
        statuses = {r["metric"]: r["status"] for r in cmp["rows"]}
        assert statuses["fast_path_speedup"] == "missing"
        assert statuses["candidates_per_second"] == "missing"

    def test_metric_lost_by_current_run_is_a_regression(self):
        """A rate the baseline has that drops to zero (or vanishes) must
        fail the gate, not slip through as ``missing``."""
        cur = dict(self.BASE, candidates_per_second=0.0)
        del cur["fast_path_speedup"]
        cmp = compare_reports(cur, self.BASE, tolerance=0.25)
        assert not cmp["ok"]
        assert cmp["regressions"] == [
            "candidates_per_second", "fast_path_speedup"
        ]
        assert {r["ratio"] for r in cmp["rows"]} == {0.0}

    def test_kind_mismatch_rejected(self):
        with pytest.raises(ValueError):
            compare_reports({"kind": "sim"}, self.BASE)
        with pytest.raises(ValueError):
            compare_reports({"kind": "dse"}, {"kind": "nonsense"})


TINY = BenchBudget(
    name="tiny",
    dse_workloads=("vecmax",),
    dse_iterations=4,
    sim_workloads=("vecmax",),
    overhead_calls=2_000,
)


class TestBench:
    @pytest.mark.parametrize(
        "kinds", [("dse", "sim"), ("sim",), ("search",)], ids="+".join
    )
    def test_run_bench_writes_one_report_per_kind(self, kinds, tmp_path):
        docs = run_bench(
            kinds,
            TINY,
            seed=5,
            out_dir=str(tmp_path),
            trace_path=str(tmp_path / "trace.json"),
        )
        assert tuple(docs) == kinds
        assert sorted(p.name for p in tmp_path.glob("BENCH_*.json")) == sorted(
            f"BENCH_{kind}.json" for kind in kinds
        )
        for kind in kinds:
            doc = json.loads((tmp_path / f"BENCH_{kind}.json").read_text())
            assert doc == docs[kind]
            assert doc["schema"] == 1 and doc["kind"] == kind
            assert doc["seed"] == 5 and doc["spans"]
        # Each document's spans are its own kind's, not the whole run's.
        if kinds == ("dse", "sim"):
            assert "dse.system" in docs["dse"]["spans"]
            assert "dse.system" not in docs["sim"]["spans"]
        trace = json.loads((tmp_path / "trace.json").read_text())
        assert trace["traceEvents"]  # --trace is honoured for every kind
        assert current() is None  # bench must not leak its tracer

    def test_run_bench_writes_reports(self, tmp_path):
        report = run_bench(("dse", "sim"), TINY, seed=5, out_dir=str(tmp_path))
        dse = json.loads((tmp_path / "BENCH_dse.json").read_text())
        sim = json.loads((tmp_path / "BENCH_sim.json").read_text())
        assert dse["iterations"] == TINY.dse_iterations
        assert dse["wall_seconds"] > 0
        assert 0.0 <= dse["preserved_hit_rate"] <= 1.0
        assert dse["candidates_per_second"] > 0
        assert "scheduler.revalidate" in dse["spans"] or dse["repairs"] > 0
        assert dse["overhead"]["ratio"] > 0
        assert sim["stepped_cycles"] > 0
        assert sim["cycles_per_second"] > 0
        assert sim["batch"]["identical_to_serial"] is True
        assert report == {"dse": dse, "sim": sim}

    def test_measure_overhead_restores_tracer(self):
        mine = install(Tracer())
        out = measure_overhead(500, repeats=2)
        assert current() is mine
        assert out["no_tracer_s"] > 0 and out["disabled_tracer_s"] > 0
        assert out["ratio"] > 0
        uninstall()
        measure_overhead(100, repeats=1)
        assert current() is None
