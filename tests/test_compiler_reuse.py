"""Tests for the reuse analyzer — keyed to the paper's Fig. 5 FIR example."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.compiler import (
    affine_span,
    analyze_access,
    analyze_workload,
    find_recurrence,
    stationary_factor,
)
from repro.ir import Affine, F64, WorkloadBuilder
from repro.workloads import get_workload


def fig5_fir():
    """The exact tiled FIR of the paper's Figure 5 (4x128x32)."""
    wb = WorkloadBuilder("fig5", suite="test", dtype=F64)
    a = wb.array("a", 255)
    b = wb.array("b", 128)
    c = wb.array("c", 128)
    io = wb.loop("io", 4)
    j = wb.loop("j", 128)
    ii = wb.loop("ii", 32)
    wb.accumulate(c[io * 32 + ii], a[io * 32 + ii + j] * b[j])
    return wb.build()


class TestFig5Numbers:
    """The paper works these numbers out explicitly in Section IV-B."""

    def test_a_footprint_is_255(self):
        w = fig5_fir()
        info = analyze_access(
            w, "a", Affine.of({"io": 32, "ii": 1, "j": 1}), is_write=False
        )
        assert info.footprint == 255  # 128 + 128 - 1

    def test_a_traffic_is_trip_product(self):
        w = fig5_fir()
        info = analyze_access(
            w, "a", Affine.of({"io": 32, "ii": 1, "j": 1}), is_write=False
        )
        assert info.traffic == 4 * 128 * 32  # 16384

    def test_a_general_reuse(self):
        w = fig5_fir()
        info = analyze_access(
            w, "a", Affine.of({"io": 32, "ii": 1, "j": 1}), is_write=False
        )
        assert info.general_reuse == pytest.approx(16384 / 255)

    def test_b_has_stationary_reuse_32(self):
        w = fig5_fir()
        info = analyze_access(w, "b", Affine.of({"j": 1}), is_write=False)
        assert info.stationary_reuse == 32  # innermost ii absent
        assert info.footprint == 128

    def test_c_recurrence_detected(self):
        w = fig5_fir()
        rec = find_recurrence(w, w.statements[0])
        assert rec is not None
        assert rec.array == "c"
        assert rec.carried_over == "j"
        assert rec.recurrences == 128
        assert rec.depth == 32  # 32 concurrent instances in flight


class TestSpan:
    def test_constant_index_span_is_one(self):
        w = fig5_fir()
        assert affine_span(w, Affine.of({}, 5)) == 1

    def test_single_var(self):
        w = fig5_fir()
        assert affine_span(w, Affine.of({"j": 1})) == 128

    def test_strided(self):
        w = fig5_fir()
        assert affine_span(w, Affine.of({"j": 4})) == 4 * 127 + 1

    def test_negative_coefficient(self):
        w = fig5_fir()
        span_pos = affine_span(w, Affine.of({"j": 1}))
        span_neg = affine_span(w, Affine.of({"j": -1}))
        assert span_pos == span_neg

    @given(st.integers(1, 8), st.integers(1, 8))
    def test_span_lower_bounded_by_each_extent(self, c1, c2):
        w = fig5_fir()
        span = affine_span(w, Affine.of({"io": c1, "ii": c2}))
        assert span >= c1 * 3 + 1
        assert span >= c2 * 31 + 1


class TestStationary:
    def test_innermost_involved_means_none(self):
        w = fig5_fir()
        assert stationary_factor(w, Affine.of({"ii": 1})) == 1

    def test_innermost_absent_gives_inner_trip(self):
        w = fig5_fir()
        assert stationary_factor(w, Affine.of({"io": 1})) == 32


class TestIndirect:
    def test_indirect_uses_target_array_footprint(self):
        w = get_workload("crs")
        analysis = analyze_workload(w)
        gathers = [a for a in analysis.accesses if a.indirect]
        assert gathers, "crs must have an indirect access"
        assert gathers[0].array == "x"
        assert gathers[0].footprint == w.array("x").size


class TestRecurrenceEdgeCases:
    def test_no_recurrence_without_target_read(self):
        wb = WorkloadBuilder("t", suite="test", dtype=F64)
        a = wb.array("a", 64)
        b = wb.array("b", 64)
        i = wb.loop("i", 8)
        j = wb.loop("j", 8)
        wb.assign(b[j], a[i * 8 + j])
        w = wb.build()
        assert find_recurrence(w, w.statements[0]) is None

    def test_innermost_reduction_is_not_recurrence(self):
        # mm: c[i][j] += ... over innermost k -> accumulator, not recurrence.
        w = get_workload("mm")
        assert find_recurrence(w, w.statements[0]) is None

    def test_full_index_has_no_recurrence(self):
        wb = WorkloadBuilder("t", suite="test", dtype=F64)
        a = wb.array("a", 64)
        i = wb.loop("i", 8)
        j = wb.loop("j", 8)
        wb.accumulate(a[i * 8 + j], a[i * 8 + j] * 2)
        w = wb.build()
        # target index involves every loop: nothing carries a recurrence
        assert find_recurrence(w, w.statements[0]) is None

    def test_accumulate_recurrence_depth_is_frame(self):
        w = get_workload("accumulate")
        rec = find_recurrence(w, w.statements[0])
        assert rec is not None
        assert rec.carried_over == "f"
        assert rec.depth == 128 * 128


class TestWorkloadAnalysis:
    def test_analyze_covers_every_access(self):
        w = fig5_fir()
        analysis = analyze_workload(w)
        touched = {a.array for a in analysis.accesses}
        assert touched == {"a", "b", "c"}

    def test_array_traffic_sums_reads_and_writes(self):
        w = fig5_fir()
        analysis = analyze_workload(w)
        # c is read and written every iteration: 2x trip product
        assert sum(a.traffic for a in analysis.for_array("c")) == 2 * 16384
