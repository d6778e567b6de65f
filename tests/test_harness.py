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
