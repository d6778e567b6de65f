"""End-to-end integration tests across the whole stack.

Each test exercises the full pipeline — workload -> compiler -> scheduler
-> (DSE) -> simulator / RTL — the way the examples and benches do, but with
assertions on the cross-module contracts.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import (
    DseConfig,
    explore,
    general_overlay,
    generate_variants,
    get_suite,
    get_workload,
    schedule_workload,
    simulate_schedule,
)
from repro.adg import sysadg_from_dict, sysadg_to_dict
from repro.model.resource import AnalyticEstimator, usable_budget
from repro.rtl import emit_system, floorplan, rtl_stats
from repro.scheduler import hardware_violations
from repro.sim import simulate_schedule as sim


class TestFullPipelineOnGeneralOverlay:
    @pytest.fixture(scope="class")
    def overlay(self):
        return general_overlay()

    @pytest.mark.parametrize(
        "name", [w.name for w in get_suite("dsp") + get_suite("machsuite")]
    )
    def test_compile_schedule_simulate(self, overlay, name):
        variants = generate_variants(get_workload(name))
        schedule = schedule_workload(variants, overlay.adg, overlay.params)
        assert schedule is not None, name
        result = simulate_schedule(schedule, overlay)
        assert result.cycles > 0
        # Simulated throughput never exceeds the model's bound by much
        # (the model is the optimizer's objective; the sim is the ground
        # truth — agreement within a band is the contract).
        assert result.ipc <= schedule.estimate.ipc * 1.4, name


class TestDseToRtl:
    @pytest.fixture(scope="class")
    def result(self):
        return explore(
            get_suite("dsp"), DseConfig(iterations=30, seed=11), name="it-dsp"
        )

    def test_design_fits_budget(self, result):
        assert AnalyticEstimator().system(result.sysadg).fits_in(
            usable_budget()
        )

    def test_design_simulates_every_workload(self, result):
        for name, schedule in result.schedules.items():
            r = sim(schedule, result.sysadg)
            assert r.ipc > 0, name

    def test_design_serializes_and_reloads(self, result):
        doc = sysadg_to_dict(result.sysadg)
        again = sysadg_from_dict(doc)
        # Node ids are stable across a save/load round trip, so the DSE's
        # schedules remain valid against the reloaded hardware.
        for name, schedule in result.schedules.items():
            assert list(hardware_violations(schedule, again.adg)) == [], name

    def test_design_emits_rtl(self, result):
        rtl = emit_system(result.sysadg)
        stats = rtl_stats(rtl)
        assert stats["modules"] == stats["endmodules"]
        assert stats["modules"] >= len(result.sysadg.adg.node_ids())

    def test_design_floorplans(self, result):
        plan = floorplan(result.sysadg)
        assert len(plan.placements) == result.sysadg.params.num_tiles


class TestNewFamiliesEndToEnd:
    """The fsm/tdm/irregular scenario families run the whole pipeline:
    schedule -> simulate -> RTL (both backends) -> floorplan."""

    FAMILIES = ("fsm", "tdm", "irregular")

    @pytest.fixture(scope="class")
    def overlay(self):
        return general_overlay()

    @pytest.mark.parametrize(
        "name",
        [w.name for f in FAMILIES for w in get_suite(f)],
    )
    def test_schedule_and_simulate(self, overlay, name):
        variants = generate_variants(get_workload(name))
        schedule = schedule_workload(variants, overlay.adg, overlay.params)
        assert schedule is not None, name
        result = simulate_schedule(schedule, overlay)
        assert result.cycles > 0
        assert result.ipc > 0

    @pytest.mark.parametrize("family", FAMILIES)
    def test_family_seed_overlay_emits_and_floorplans(self, family):
        from repro.adg import SysADG, SystemParams, seed_for_workloads
        from repro.rtl import get_backend

        sysadg = SysADG(
            adg=seed_for_workloads(get_suite(family)),
            params=SystemParams(num_tiles=2),
            name=f"{family}-seed",
        )
        for backend_name in ("verilog", "migen"):
            text = get_backend(backend_name).emit_system(sysadg)
            assert len(text.splitlines()) > 50, backend_name
        plan = floorplan(sysadg)
        assert plan.feasible
        assert len(plan.placements) == 2


class TestCustomWorkloadPath:
    """The bring-your-own-kernel path used by examples/custom_workload.py."""

    def _workload(self, n=256, batches=4):
        from repro.ir import F32, WorkloadBuilder

        wb = WorkloadBuilder("saxpy", suite="custom", dtype=F32)
        x = wb.array("x", n * batches)
        y = wb.array("y", n * batches)
        a = wb.array("a", 1)
        b = wb.loop("b", batches)
        i = wb.loop("i", n)
        wb.assign(y[b * n + i], a[0] * x[b * n + i] + y[b * n + i])
        return wb.build()

    def test_compiles_and_maps_on_general(self):
        overlay = general_overlay()
        variants = generate_variants(self._workload())
        schedule = schedule_workload(variants, overlay.adg, overlay.params)
        assert schedule is not None
        result = simulate_schedule(schedule, overlay)
        assert result.ipc > 0

    def test_dedicated_dse(self):
        res = explore(
            [self._workload()], DseConfig(iterations=12, seed=9)
        )
        assert res.choice.objective > 0

    @settings(max_examples=6, deadline=None)
    @given(
        n=st.sampled_from([64, 128, 1024]),
        batches=st.integers(1, 8),
    )
    def test_any_size_compiles(self, n, batches):
        variants = generate_variants(self._workload(n, batches))
        assert variants.variants
        for mdfg in variants.variants:
            mdfg.validate()
