"""Tests for the AutoDSE/HLS baseline model."""

import pytest

from repro.hls import (
    HLS_FREQUENCY_MHZ,
    design_resources,
    evaluate_design,
    hls_dram_bytes_per_cycle,
    kernel_info,
    run_autodse,
    unroll_cap,
)
from repro.model.resource import XCVU9P
from repro.workloads import all_workloads, get_suite, get_workload


class TestKernelInfo:
    def test_table4_values(self):
        assert kernel_info("cholesky").untuned_ii == 10
        assert kernel_info("cholesky").tuned_ii == 5
        assert kernel_info("bgr2grey").untuned_ii == 9
        assert kernel_info("channel-ext").untuned_ii == 8

    def test_all_workloads_covered(self):
        for w in all_workloads():
            kernel_info(w.name)

    def test_unknown_kernel(self):
        with pytest.raises(KeyError):
            kernel_info("quicksort")

    def test_line_buffer_kernels(self):
        for name in ("stencil-2d", "blur", "derivative"):
            assert kernel_info(name).line_buffer, name

    def test_gemm_prebuilt_database(self):
        assert kernel_info("gemm").prebuilt_db


class TestDesignModel:
    def test_unroll_speeds_compute_bound(self):
        w = get_workload("mm")
        one = evaluate_design(w, 1, tuned=False)
        four = evaluate_design(w, 4, tuned=False)
        assert four.cycles < one.cycles

    def test_memory_floor(self):
        # channel-ext at huge unroll is DRAM-bound: cycles stop improving.
        w = get_workload("channel-ext")
        a = evaluate_design(w, 8, tuned=True)
        b = evaluate_design(w, 64, tuned=True)
        floor = w.footprint_bytes() / hls_dram_bytes_per_cycle(1)
        assert b.cycles >= floor

    def test_tuning_improves_ii_kernels(self):
        # Fixed unroll: strided-access kernels gain directly from the II fix.
        for name in ("blur", "stencil-3d", "channel-ext"):
            w = get_workload(name)
            untuned = evaluate_design(w, 4, tuned=False)
            tuned = evaluate_design(w, 4, tuned=True)
            assert tuned.cycles < untuned.cycles, name
        # Variable-trip kernels pay iteration padding at fixed unroll; the
        # win only materializes end-to-end (AutoDSE picks a bigger unroll).
        chol = get_workload("cholesky")
        assert (
            run_autodse(chol, tuned=True).design.cycles
            <= run_autodse(chol, tuned=False).design.cycles
        )

    def test_variable_trip_padding_costs_iterations(self):
        w = get_workload("cholesky")
        tuned = evaluate_design(w, 1, tuned=True)
        # Padded iteration space: nominal trips, not effective.
        assert tuned.cycles >= w.trip_product * tuned.ii / 1 * 0.99

    def test_resources_grow_with_unroll(self):
        w = get_workload("gemm")
        assert design_resources(w, 8, True).lut > design_resources(w, 1, True).lut

    def test_seconds_use_hls_clock(self):
        w = get_workload("vecmax")
        d = evaluate_design(w, 4, tuned=False)
        assert d.seconds == pytest.approx(
            d.cycles / (HLS_FREQUENCY_MHZ * 1e6)
        )

    def test_unroll_cap_hierarchy(self):
        w = get_workload("stencil-2d")
        assert unroll_cap(w, tuned=True) > unroll_cap(w, tuned=False)

    def test_unroll_cap_bounded_by_two_inner_loops(self):
        w = get_workload("gemm")  # inner two loops are 8 x 8
        assert unroll_cap(w, tuned=True) <= 64


class TestAutoDse:
    def test_picks_feasible_design(self):
        for w in get_suite("machsuite"):
            res = run_autodse(w)
            assert res.design.resources.fits_in(XCVU9P * 0.85), w.name
            assert res.design.unroll >= 1

    def test_deterministic(self):
        a = run_autodse(get_workload("fir"))
        b = run_autodse(get_workload("fir"))
        assert a.design == b.design
        assert a.dse_hours == b.dse_hours

    def test_dse_time_is_hours_scale(self):
        for w in get_suite("dsp"):
            res = run_autodse(w)
            assert 1.0 < res.total_hours < 40.0, w.name

    def test_tuned_never_slower(self):
        for w in all_workloads():
            untuned = run_autodse(w, tuned=False).design
            tuned = run_autodse(w, tuned=True).design
            assert tuned.cycles <= untuned.cycles * 1.01, w.name

    def test_prebuilt_db_shortens_exploration(self):
        gemm_tuned = run_autodse(get_workload("gemm"), tuned=True)
        gemm_untuned = run_autodse(get_workload("gemm"), tuned=False)
        assert gemm_tuned.evaluated_points < gemm_untuned.evaluated_points
