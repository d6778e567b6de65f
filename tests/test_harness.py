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
    def test_keeps_the_hand_maintained_tail(
        self, tmp_path, monkeypatch, capsys
    ):
        """``repro report`` regenerates what has a section function and
        carries the rest of the file, from the marker line on, over."""
        from repro.cli import main
        from repro.harness import report

        calls = []
        monkeypatch.setattr(report, "HEADER", "# stub header\n")
        monkeypatch.setattr(
            report, "SECTIONS",
            (lambda: calls.append(1) or f"## generated {len(calls)}",),
        )
        path = tmp_path / "EXPERIMENTS.md"
        tail = f"{report.HAND_MARKER}\n\n## By hand\n\nkept — verbatim\n"
        path.write_text(
            "# old header\n\n## generated 0\n\n" + tail, encoding="utf-8"
        )
        for n in (1, 2):              # regenerating twice stacks nothing
            assert main(["report", "-o", str(path)]) == 0
            assert path.read_text(encoding="utf-8") == (
                f"# stub header\n\n\n## generated {n}\n\n" + tail
            )
        # No file yet, or no marker in it: just the generated report.
        fresh = tmp_path / "fresh.md"
        assert main(["report", "-o", str(fresh)]) == 0
        assert fresh.read_text() == "# stub header\n\n\n## generated 3\n"
        capsys.readouterr()

    def test_committed_report_has_the_marker_above_its_manual_section(self):
        import pathlib

        from repro.harness.report import HAND_MARKER

        text = (
            pathlib.Path(__file__).parent.parent / "EXPERIMENTS.md"
        ).read_text(encoding="utf-8")
        head, _, tail = text.partition(HAND_MARKER + "\n")
        assert tail.lstrip().startswith("## Distributed serve")
        assert HAND_MARKER not in tail and "## Distributed serve" not in head
