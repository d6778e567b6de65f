"""Tests for repro.profile: the span tracer."""

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


class TestBench:
    @pytest.mark.parametrize("kinds", [("search",)], ids="+".join)
    def test_run_bench_writes_one_report_per_kind(self, kinds, tmp_path):
        """``repro bench`` under a tracer writes one BENCH_<kind>.json per
        kind, traces every strategy's run, and leaves the tracer as found.
        """
        from repro.cli import main

        with tracing(Tracer()) as tracer:
            argv = ["bench", "--budget", "smoke", "--seed", "5",
                    "--out-dir", str(tmp_path)]
            assert main(argv) == 0
        assert sorted(p.name for p in tmp_path.glob("BENCH_*.json")) == sorted(
            f"BENCH_{kind}.json" for kind in kinds
        )
        for kind in kinds:
            doc = json.loads((tmp_path / f"BENCH_{kind}.json").read_text())
            assert doc["schema"] == 1 and doc["kind"] == kind
            assert doc["seed"] == 5 and doc["strategies"]
            runs = {
                s.attrs["strategy"]
                for s in tracer.spans()
                if s.name == "search.run"
            }
            assert runs == set(doc["strategies"])
        assert current() is None  # bench must not leak its tracer


def test_drop_memo_stays_importable_for_bench_worker():
    assert drop_memo("x") is None
