"""Tests for the cycle-level simulator (components + whole-region runs)."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.adg import SysADG, SystemParams, general_overlay, seed_for_workloads
from repro.compiler import generate_variants, lower
from repro.scheduler import schedule_mdfg, schedule_workload
from repro.sim import (
    BandwidthPool,
    EngineSim,
    FabricConfig,
    FabricSim,
    PortFifo,
    SimulationError,
    StreamState,
    critical_path_depth,
    simulate_schedule,
)
from repro.workloads import all_workloads, get_workload


@pytest.fixture(scope="module")
def overlay():
    return general_overlay()


def scheduled(name, overlay, **kwargs):
    mdfg = lower(get_workload(name), **kwargs)
    s = schedule_mdfg(mdfg, overlay.adg, overlay.params)
    assert s is not None
    return s


class TestPortFifo:
    def test_push_pop(self):
        f = PortFifo("p", capacity=8)
        assert f.push(5) == 5
        assert f.push(5) == 3  # clipped at capacity
        assert f.pop(6) == 6
        assert f.level == pytest.approx(2)

    @given(st.lists(st.floats(0, 10), min_size=1, max_size=50))
    def test_level_never_escapes_bounds(self, amounts):
        f = PortFifo("p", capacity=16)
        for i, a in enumerate(amounts):
            if i % 2:
                f.pop(a)
            else:
                f.push(a)
            assert 0 <= f.level <= 16 + 1e-9


class TestBandwidthPool:
    def test_take_bounded_by_refill(self):
        pool = BandwidthPool("l2", 32)
        pool.refill()
        assert pool.take(20) == 20
        assert pool.take(20) == 12
        assert pool.take(5) == 0
        pool.refill()
        assert pool.take(5) == 5
        assert pool.consumed_total == pytest.approx(37)


class TestEngineSim:
    def _engine(self, n_streams, bw=32, onehot=True):
        engine = EngineSim("e", bw, onehot_bypass=onehot)
        ports = []
        for i in range(n_streams):
            port = PortFifo(f"p{i}", capacity=1e9)
            ports.append(port)
            engine.add_stream(
                StreamState(f"s{i}", 1e9, 4.0, port, True, 8.0)
            )
        return engine, ports

    def test_bandwidth_shared_across_streams(self):
        engine, ports = self._engine(2, bw=32)
        for t in range(100):
            engine.step(t)
        total = sum(p.level for p in ports)
        assert total == pytest.approx(100 * 32 / 8, rel=0.05)

    def test_stream_cap_respected(self):
        engine, ports = self._engine(1, bw=800)
        for t in range(50):
            engine.step(t)
        # capped at 4 elements/cycle despite huge engine bandwidth
        assert ports[0].level <= 50 * 4 + 1e-6

    def test_dispatch_latency_respected(self):
        port = PortFifo("p", 1e9)
        engine = EngineSim("e", 32)
        engine.add_stream(
            StreamState("s", 1e9, 4.0, port, True, 8.0, dispatched_at=10)
        )
        for t in range(10):
            engine.step(t)
        assert port.level == 0
        engine.step(10)
        assert port.level > 0

    def test_write_stream_drains_port(self):
        port = PortFifo("p", 64, level=64)
        engine = EngineSim("e", 16)
        engine.add_stream(StreamState("s", 64, 8.0, port, False, 8.0))
        for t in range(100):
            engine.step(t)
        assert port.level == pytest.approx(0, abs=1e-6)

    def test_pool_throttles(self):
        pool = BandwidthPool("dram", 8)
        port = PortFifo("p", 1e9)
        engine = EngineSim("e", 64, pools=(pool, pool))
        engine.add_stream(
            StreamState("s", 1e9, 8.0, port, True, 8.0, l2_fraction=1.0)
        )
        for t in range(100):
            pool.refill()
            engine.step(t)
        # 8 bytes/cycle = 1 element/cycle despite 64 B/cyc engine bandwidth
        assert port.level == pytest.approx(100, rel=0.05)


class TestFabric:
    def _fabric(self, depth=4, eps=2.0, out_capacity=64.0):
        in_port = PortFifo("in", capacity=1e9, level=1e9)
        out_port = PortFifo("out", capacity=out_capacity)
        fabric = FabricSim(
            FabricConfig(
                inputs=[(in_port, eps)],
                outputs=[(out_port, eps)],
                total_firings=100.0,
                pipeline_depth=depth,
                insts_per_firing=3.0,
            )
        )
        return fabric, in_port, out_port

    def test_ii_one_when_unblocked(self):
        fabric, _, out = self._fabric(out_capacity=1e9)
        for t in range(104):
            fabric.step(t)
        assert fabric.firings == pytest.approx(100.0)

    def test_output_backpressure_stalls(self):
        fabric, _, out = self._fabric(out_capacity=4.0)
        for t in range(50):
            fabric.step(t)  # out port never drained
        assert fabric.firings < 10

    def test_pipeline_latency_delays_results(self):
        fabric, _, out = self._fabric(depth=10, out_capacity=1e9)
        for t in range(5):
            fabric.step(t)
        assert out.level == 0  # results still in flight
        for t in range(5, 15):
            fabric.step(t)
        assert out.level > 0

    def test_starved_input_stalls(self):
        in_port = PortFifo("in", capacity=8, level=0)
        out_port = PortFifo("out", capacity=1e9)
        fabric = FabricSim(
            FabricConfig([(in_port, 2.0)], [(out_port, 1.0)], 10, 2, 1.0)
        )
        fabric.step(0)
        assert fabric.firings == 0
        assert fabric.stall_cycles == 1


class TestWholeRegion:
    def test_all_workloads_simulate(self, overlay):
        for w in all_workloads():
            schedule = schedule_workload(
                generate_variants(w), overlay.adg, overlay.params
            )
            result = simulate_schedule(schedule, overlay)
            assert result.cycles > 0, w.name
            assert result.ipc > 0, w.name

    def test_sim_tracks_model_for_streaming_kernels(self, overlay):
        # Long, regular kernels reach the model's steady-state rate.
        for name in ("vecmax", "accumulate", "convert-bit", "bgr2grey"):
            schedule = schedule_workload(
                generate_variants(get_workload(name)), overlay.adg, overlay.params
            )
            sim = simulate_schedule(schedule, overlay)
            assert sim.ipc == pytest.approx(
                schedule.estimate.ipc, rel=0.25
            ), name

    def test_onehot_bypass_helps_single_stream_kernel(self, overlay):
        schedule = scheduled("accumulate", overlay, unroll=16, use_recurrence=False)
        fast = simulate_schedule(schedule, overlay, onehot_bypass=True)
        slow = simulate_schedule(schedule, overlay, onehot_bypass=False)
        assert slow.cycles >= fast.cycles

    def test_more_dram_channels_speed_streaming(self, overlay):
        schedule = scheduled("vecmax", overlay, unroll=16)
        # Provision L2/NoC generously so DRAM is the binding constraint.
        roomy = overlay.with_params(l2_banks=16, noc_bytes_per_cycle=64)
        one = simulate_schedule(schedule, roomy)
        four = simulate_schedule(
            schedule, roomy.with_params(dram_channels=4)
        )
        assert four.cycles < one.cycles

    def test_exact_matches_extrapolated_direction(self, overlay):
        schedule = scheduled("mm", overlay, unroll=2)
        exact = simulate_schedule(schedule, overlay, exact=True)
        assert not exact.extrapolated
        quick = simulate_schedule(
            schedule, overlay, max_exact_cycles=500
        )
        if quick.extrapolated:
            assert quick.cycles == pytest.approx(exact.cycles, rel=0.25)

    @pytest.mark.xfail(
        strict=True,
        reason="ROADMAP item 1b: the simulator pools a scratchpad's read and "
        "write ports into one engine at their mean bandwidth",
    )
    def test_spad_read_and_write_ports_agree_with_the_model(self):
        # fir and gemm on their seed fabrics: spad factors read 1.0 / 2.0
        # and 0.94 / 2.0, so the pooled port delivers about 2/3 of the
        # model's min(read, write).
        params = SystemParams()
        for name in ("fir", "gemm"):
            workload = get_workload(name)
            adg = seed_for_workloads([workload])
            schedule = schedule_workload(generate_variants(workload), adg, params)
            sim = simulate_schedule(schedule, SysADG(adg, params, name))
            assert abs(schedule.estimate.ipc / sim.ipc - 1) <= 0.05, name

    def test_small_cap_clamps_measure_window(self, overlay):
        # max_exact_cycles below the default 4k measurement window used to
        # extrapolate from a window that never opened (rate measured from
        # cycle 0, warm-up included).  The clamp keeps the estimate close
        # to the exact run.
        schedule = scheduled("mm", overlay, unroll=2)
        exact = simulate_schedule(schedule, overlay, exact=True)
        quick = simulate_schedule(schedule, overlay, max_exact_cycles=600)
        assert quick.extrapolated
        assert quick.stepped_cycles <= 600
        assert quick.cycles == pytest.approx(exact.cycles, rel=0.25)

    def test_tiny_cap_raises_cleanly(self, overlay):
        schedule = scheduled("vecmax", overlay, unroll=16)
        for cap in (0, 1):
            with pytest.raises(SimulationError, match="max_exact_cycles"):
                simulate_schedule(schedule, overlay, max_exact_cycles=cap)

    def test_stepped_cycles_reported(self, overlay):
        schedule = scheduled("vecmax", overlay, unroll=16)
        exact = simulate_schedule(schedule, overlay, exact=True)
        assert not exact.extrapolated
        # For an exact run, total cycles = stepped + config reload.
        assert exact.cycles == pytest.approx(
            exact.stepped_cycles + schedule.mdfg.config_words
        )

    def test_no_progress_deadlock_detected(self, overlay, monkeypatch):
        import repro.sim.simulator as simmod

        schedule = scheduled("vecmax", overlay, unroll=16)
        monkeypatch.setattr(simmod.FabricSim, "step", lambda self, t: None)
        # Patching the Python-level step only affects the object core; the
        # vector core's deadlock parity is covered in test_sim_vector.py.
        with pytest.raises(SimulationError, match="no progress"):
            simulate_schedule(schedule, overlay, exact=True, core="object")

    def test_critical_path_depth_positive(self, overlay):
        schedule = scheduled("bgr2grey", overlay, unroll=4)
        depth = critical_path_depth(schedule.mdfg, schedule)
        assert depth >= 4

    def test_config_reload_adds_cycles(self, overlay):
        schedule = scheduled("vecmax", overlay, unroll=16)
        sim = simulate_schedule(schedule, overlay)
        assert sim.cycles > schedule.mdfg.config_words
