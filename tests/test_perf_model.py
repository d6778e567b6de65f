"""Tests for the bottleneck performance model (Eq. 1-2)."""

import pytest

from repro.adg import SystemParams, general_overlay
from repro.compiler import lower
from repro.model import (
    estimate_cycles,
    estimate_ipc,
    geomean_ipc,
    preferred_binding,
    stream_demand_bytes,
)
from repro.workloads import get_workload


@pytest.fixture(scope="module")
def overlay():
    return general_overlay()


def estimate(name, unroll, overlay, **params):
    mdfg = lower(get_workload(name), unroll=unroll)
    binding = preferred_binding(mdfg, overlay.adg)
    p = overlay.params
    if params:
        from dataclasses import replace

        p = replace(p, **params)
    return mdfg, estimate_ipc(mdfg, binding, overlay.adg, p)


class TestStreamDemand:
    def test_vector_stream_demand(self, overlay):
        mdfg = lower(get_workload("fir"), unroll=4)
        a = next(s for s in mdfg.streams if s.array == "a")
        assert stream_demand_bytes(a, mdfg.unroll) == 4 * 8

    def test_stationary_stream_demand_is_discounted(self, overlay):
        mdfg = lower(get_workload("fir"), unroll=4)
        b = next(s for s in mdfg.streams if s.array == "b")
        # b[j] held for 32/4 firings: one 8-byte fetch per 8 cycles.
        assert stream_demand_bytes(b, mdfg.unroll) == pytest.approx(1.0)


class TestBottlenecks:
    def test_more_tiles_help_until_parallelism(self, overlay):
        mdfg = lower(get_workload("mm"), unroll=1)
        binding = preferred_binding(mdfg, overlay.adg)
        one = estimate_ipc(mdfg, binding, overlay.adg, overlay.params, num_tiles=1)
        four = estimate_ipc(mdfg, binding, overlay.adg, overlay.params, num_tiles=4)
        assert four.ipc > one.ipc

    def test_tiles_capped_by_parallelism(self, overlay):
        mdfg = lower(get_workload("channel-ext"), unroll=32)
        binding = preferred_binding(mdfg, overlay.adg)
        est = estimate_ipc(
            mdfg, binding, overlay.adg, overlay.params, num_tiles=64
        )
        assert est.tiles_used <= mdfg.tile_parallelism

    def test_memory_bound_kernel_hits_bandwidth(self, overlay):
        # vecmax streams 3 arrays with no reuse: must be bandwidth-bound.
        _, est = estimate("vecmax", 16, overlay)
        assert est.bottleneck in ("l2", "dram", "dma")
        assert est.ipc < est.insts_per_cycle * est.tiles_used

    def test_more_l2_banks_raise_l2_production(self, overlay):
        _, few = estimate("vecmax", 16, overlay, l2_banks=1)
        _, many = estimate("vecmax", 16, overlay, l2_banks=16)
        assert many.ipc >= few.ipc

    def test_dram_channels_help_streaming(self, overlay):
        _, one = estimate("accumulate", 16, overlay, l2_banks=16)
        mdfg = lower(get_workload("accumulate"), unroll=16)
        binding = preferred_binding(mdfg, overlay.adg)
        from dataclasses import replace

        p2 = replace(overlay.params, l2_banks=16, dram_channels=4)
        four = estimate_ipc(mdfg, binding, overlay.adg, p2)
        assert four.ipc >= one.ipc

    def test_compute_bound_has_no_bottleneck(self, overlay):
        # mm at unroll 1-2 with spad-resident tiles is compute bound.
        _, est = estimate("mm", 1, overlay)
        assert est.bottleneck == "none"
        assert est.ipc == pytest.approx(
            est.insts_per_cycle * est.tiles_used
        )

    def test_ipc_never_negative_or_infinite(self, overlay):
        from repro.workloads import all_workloads
        from repro.compiler import generate_variants

        for w in all_workloads():
            for mdfg in generate_variants(w).variants:
                binding = preferred_binding(mdfg, overlay.adg)
                est = estimate_ipc(mdfg, binding, overlay.adg, overlay.params)
                assert 0 <= est.ipc < float("inf"), w.name


class TestRecurrenceValue:
    def test_recurrence_variant_offloads_l2(self, overlay):
        rec = lower(get_workload("fir"), unroll=2, use_recurrence=True)
        rmw = lower(get_workload("fir"), unroll=2, use_recurrence=False)
        b_rec = preferred_binding(rec, overlay.adg)
        b_rmw = preferred_binding(rmw, overlay.adg)
        e_rec = estimate_ipc(rec, b_rec, overlay.adg, overlay.params)
        e_rmw = estimate_ipc(rmw, b_rmw, overlay.adg, overlay.params)
        # The recurrence form must not demand more L2 bandwidth.
        assert e_rec.factors.get("l2", 99) >= e_rmw.factors.get("l2", 0)


class TestCyclesAndGeomean:
    def test_cycles_inverse_to_ipc(self, overlay):
        mdfg = lower(get_workload("mm"), unroll=2)
        binding = preferred_binding(mdfg, overlay.adg)
        cycles = estimate_cycles(mdfg, binding, overlay.adg, overlay.params)
        est = estimate_ipc(mdfg, binding, overlay.adg, overlay.params)
        assert cycles == pytest.approx(mdfg.total_instructions / est.ipc)

    def test_geomean(self, overlay):
        from repro.model.perf import PerfEstimate

        ests = [
            PerfEstimate(ipc=4.0, tiles_used=1, insts_per_cycle=1, factors={}),
            PerfEstimate(ipc=16.0, tiles_used=1, insts_per_cycle=1, factors={}),
        ]
        assert geomean_ipc(ests) == pytest.approx(8.0)

    def test_geomean_empty(self):
        assert geomean_ipc([]) == 0.0

    def test_geomean_weights(self):
        from repro.model.perf import PerfEstimate

        ests = [
            PerfEstimate(ipc=4.0, tiles_used=1, insts_per_cycle=1, factors={}),
            PerfEstimate(ipc=16.0, tiles_used=1, insts_per_cycle=1, factors={}),
        ]
        heavy_first = geomean_ipc(ests, weights=[3, 1])
        assert heavy_first < 8.0

    @pytest.mark.parametrize("weights", [[1.0], [1.0, 1.0, 1.0]])
    def test_geomean_rejects_mismatched_weights(self, weights):
        from repro.model.perf import PerfEstimate

        ests = [
            PerfEstimate(ipc=4.0, tiles_used=1, insts_per_cycle=1, factors={}),
            PerfEstimate(ipc=16.0, tiles_used=1, insts_per_cycle=1, factors={}),
        ]
        # zip() used to drop the extra term while total_w summed them all.
        with pytest.raises(ValueError, match="weights for 2 estimates"):
            geomean_ipc(ests, weights=weights)
