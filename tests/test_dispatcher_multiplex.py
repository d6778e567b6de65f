"""Tests for stream dispatch in the simulator and temporal multiplexing."""

import pytest

from repro.adg import general_overlay
from repro.compiler import generate_variants
from repro.scheduler import schedule_workload
from repro.sim import (
    MIN_DISPATCH_LATENCY,
    build_tile,
    reconfiguration_cycles,
    run_sequence,
)
from repro.workloads import get_workload


class TestDispatcher:
    """Section VI-B's contract as ``build_tile`` models it: streams leave
    the dispatcher in stream order, one per cycle, the first one
    ``MIN_DISPATCH_LATENCY`` cycles after the region starts."""

    @pytest.fixture(scope="class")
    def dispatched(self):
        overlay = general_overlay()
        schedule = schedule_workload(
            generate_variants(get_workload("fir")), overlay.adg, overlay.params
        )
        assert schedule is not None
        engines, _fabric, _pools = build_tile(schedule, overlay, 1)
        return sorted(s.dispatched_at for e in engines for s in e.streams)

    def test_min_dispatch_latency(self, dispatched):
        assert dispatched[0] == MIN_DISPATCH_LATENCY

    def test_one_dispatch_per_cycle_across_ports(self, dispatched):
        assert len(dispatched) > 1
        assert dispatched == list(
            range(MIN_DISPATCH_LATENCY, MIN_DISPATCH_LATENCY + len(dispatched))
        )


class TestMultiplex:
    @pytest.fixture(scope="class")
    def setup(self):
        overlay = general_overlay()
        schedules = []
        for name in ("vecmax", "convert-bit", "accumulate"):
            s = schedule_workload(
                generate_variants(get_workload(name)), overlay.adg, overlay.params
            )
            assert s is not None
            schedules.append(s)
        return overlay, schedules

    def test_sequence_accounts_compute_and_reconfig(self, setup):
        overlay, schedules = setup
        result = run_sequence(schedules, overlay)
        assert result.switches == 3
        assert result.compute_cycles > 0
        assert result.reconfig_cycles == sum(
            reconfiguration_cycles(s) for s in schedules
        )

    def test_same_kernel_twice_skips_reconfig(self, setup):
        overlay, schedules = setup
        result = run_sequence([schedules[0], schedules[0]], overlay)
        assert result.switches == 1

    def test_repeats_multiply_switches(self, setup):
        overlay, schedules = setup
        once = run_sequence(schedules, overlay, repeats=1)
        thrice = run_sequence(schedules, overlay, repeats=3)
        assert thrice.switches == 3 * once.switches

    def test_reconfig_overhead_is_small(self, setup):
        overlay, schedules = setup
        result = run_sequence(schedules, overlay)
        assert result.reconfig_overhead < 0.5

    def test_reflash_alternative_is_catastrophic(self, setup):
        overlay, schedules = setup
        result = run_sequence(schedules, overlay)
        freq = overlay.params.frequency_mhz
        assert result.reflash_alternative_seconds(freq) > 1000 * result.seconds(
            freq
        )

    def test_empty_sequence_rejected(self, setup):
        overlay, _ = setup
        with pytest.raises(ValueError):
            run_sequence([], overlay)
