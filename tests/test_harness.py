"""Tests for the experiment harness (cheap paths only; DSE-heavy drivers
are exercised by the benchmark suite)."""

import pytest

from repro.harness import (
    autodse,
    geomean,
    render_series,
    render_table,
    table2_workload_specs,
    table4_hls_ii,
)


class TestRendering:
    def test_render_table_aligns(self):
        text = render_table(["name", "value"], [("a", 1.0), ("bbbb", 22.5)])
        lines = text.splitlines()
        assert len(lines) == 4
        assert len(set(len(l) for l in lines[1:2])) == 1

    def test_render_table_title(self):
        text = render_table(["x"], [(1,)], title="T")
        assert text.startswith("T\n")

    def test_render_series(self):
        text = render_series("s", [("a", 1.0), ("b", 2.0)])
        assert "#" in text
        assert "a" in text and "b" in text

    def test_render_series_zero_safe(self):
        text = render_series("s", [("a", 0.0)])
        assert "a" in text

    def test_geomean(self):
        assert geomean([2.0, 8.0]) == pytest.approx(4.0)
        assert geomean([]) == 0.0
        assert geomean([0.0, 4.0]) == pytest.approx(4.0)  # zeros skipped


class TestCheapDrivers:
    def test_table2_has_19_rows(self):
        rows = table2_workload_specs()
        assert len(rows) == 19
        assert {r["suite"] for r in rows} == {"dsp", "machsuite", "vision"}

    def test_table4_matches_kernel_info(self):
        rows = table4_hls_ii()
        names = {r["workload"] for r in rows}
        assert names == {
            "cholesky", "crs", "fft", "bgr2grey", "blur", "channel-ext",
            "stencil-3d",
        }
        for r in rows:
            assert r["untuned_ii"] > r["tuned_ii"] or r["tuned_ii"] == 1

    def test_autodse_driver_caches(self):
        a = autodse("fir", tuned=False)
        b = autodse("fir", tuned=False)
        assert a is b

    def test_fig17_reconfig_is_the_multiplexer_model(self, monkeypatch):
        """One definition: Fig. 17's reconfiguration time is
        ``sim.reconfiguration_cycles`` against ``FPGA_REFLASH_SECONDS`` —
        ``==``, no tolerance (the overlays are stubbed, so no DSE runs)."""
        from types import SimpleNamespace

        from repro.adg import general_overlay
        from repro.compiler import generate_variants
        from repro.harness import experiments
        from repro.scheduler import schedule_workload
        from repro.sim import reconfiguration_cycles
        from repro.sim.multiplex import FPGA_REFLASH_SECONDS
        from repro.workloads import get_workload

        fir = get_workload("fir")
        general = general_overlay()
        monkeypatch.setattr(experiments, "get_suite", lambda suite: [fir])
        monkeypatch.setattr(
            experiments,
            "leave_one_out_overlay",
            lambda suite, excluded: SimpleNamespace(sysadg=general),
        )
        monkeypatch.setattr(
            experiments, "og_seconds_suite", lambda suite, name: 1.0
        )
        (row,) = experiments.fig17_leave_one_out("stub")
        schedule = schedule_workload(
            generate_variants(fir), general.adg, general.params
        )
        reconfig_s = reconfiguration_cycles(schedule) / (
            general.params.frequency_mhz * 1e6
        )
        assert row.mapped
        assert row.reconfig_speedup == FPGA_REFLASH_SECONDS / reconfig_s


class TestReportWriter:
    def test_committed_report_is_fully_generated(self):
        """No hand-maintained tail; the cluster rows are generated by the
        serve section."""
        import pathlib

        text = (
            pathlib.Path(__file__).parent.parent / "EXPERIMENTS.md"
        ).read_text(encoding="utf-8")
        assert "hand-maintained" not in text and "2 shards  dsp@v2" in text

    def test_fig20_wall_clock_lines_read_bench_pipeline(
        self, tmp_path, monkeypatch
    ):
        """Fig. 20's measured paragraphs quote BENCH_pipeline.json, and
        only a traced schema-1 run of it."""
        import json

        from repro.harness.report import _wall_clock_lines

        def e2e(ops, cycles=None):
            doc = {"ops_per_s": {"value": ops}}
            if cycles is not None:
                doc["sim_cycles_per_s"] = {"value": cycles}
            return {"end_to_end": doc, "per_layer": {}}

        overlay_gen = e2e(371.0)
        overlay_gen["per_layer"] = {
            "scheduler.revalidate_ms": 56.0,
            "scheduler.revalidate_calls": 700.0,
            "scheduler.repair_ms": 20.0,
            "scheduler.repair_calls": 20.0,
            "scheduler.preserved_hit_share": 0.991,
        }
        doc = {
            "schema": 1,
            "seed": 2,
            "workloads": {
                "overlay_gen": overlay_gen,
                "sim_long": e2e(45.1, 1.8e7),
                "sim_batch_short": e2e(3850.0, 1.1e5),
            },
        }
        monkeypatch.chdir(tmp_path)
        path = tmp_path / "BENCH_pipeline.json"
        path.write_text(json.dumps(doc))
        fast_path, simulator = _wall_clock_lines()
        assert "0.080 ms over 700 revalidations" in fast_path
        assert "1.000 ms over 20 repairs (12.5x faster)" in fast_path
        assert "99.1%" in fast_path and "371 candidates/s" in fast_path
        assert "`sim_long` steps 18,000,000 cycles/s" in simulator
        assert "3,850 regions/s" in simulator
        untraced = json.loads(json.dumps(doc))
        for workload in untraced["workloads"].values():
            del workload["per_layer"]
        for text in (json.dumps(untraced), json.dumps(dict(doc, schema=2)),
                     "{not json"):
            path.write_text(text)
            assert _wall_clock_lines() == []
        path.unlink()
        assert _wall_clock_lines() == []


def test_legality_audit_lists_the_shipped_illegal_schedules(monkeypatch):
    """One row per shipped schedule with an engine finding: crs on its seed
    fabric is no row; on a copy whose scratchpad lost indirect support it
    is one row, with its indirect array's and its gather's finding."""
    from types import SimpleNamespace

    from repro.adg import SpadEngine, SysADG, SystemParams, seed_for_workloads
    from repro.compiler import generate_variants
    from repro.harness import experiments as ex
    from repro.scheduler import schedule_workload
    from repro.workloads import get_workload

    workload = get_workload("crs")
    adg = seed_for_workloads([workload])
    schedule = schedule_workload(generate_variants(workload), adg, SystemParams())
    (spad,) = {
        hw for hw in schedule.placement.values()
        if isinstance(adg.node(hw), SpadEngine)
    }
    lost = adg.clone()
    lost.replace_node(spad, indirect=False)
    shipped = [
        SimpleNamespace(sysadg=SysADG(a, name=name), schedules={"crs": schedule})
        for a, name in ((adg, "kept"), (lost, "lost"))
    ]
    monkeypatch.setattr(ex, "shipped_results", lambda: shipped)
    rows, results, schedules = ex.legality_audit()
    assert (results, schedules) == (2, 2)
    (row,) = rows
    assert (row.run, row.workload) == ("lost", "crs")
    mdfg = schedule.mdfg
    assert {f.piece for f in row.findings} == (
        {a.node_id for a in mdfg.arrays if a.indirect_target}
        | {s.node_id for s in mdfg.streams if s.indirect}
    )
    assert {f.kind for f in row.findings} == {"indirect"}
