"""Tests for the unified DSE (system sweep + annealing explorer)."""

import pytest

from repro.adg import SystemParams, general_overlay
from repro.dse import DseConfig, explore, max_tiles_that_fit, system_dse
from repro.model.resource import (
    AnalyticEstimator,
    Resources,
    XCVU9P,
    usable_budget,
)
from repro.workloads import get_suite, get_workload


@pytest.fixture(scope="module")
def dsp_result():
    return explore(
        get_suite("dsp"), DseConfig(iterations=40, seed=7), name="dsp-test"
    )


class TestSystemDse:
    def test_max_tiles_monotone_in_tile_cost(self):
        params = SystemParams()
        budget = usable_budget()
        small = Resources(lut=30_000, ff=30_000, bram=10, dsp=20)
        big = small * 4
        assert max_tiles_that_fit(small, params, budget) >= max_tiles_that_fit(
            big, params, budget
        )

    def test_zero_when_nothing_fits(self):
        params = SystemParams()
        monster = Resources(lut=2e6, ff=1e6, bram=100, dsp=100)
        assert max_tiles_that_fit(monster, params, usable_budget()) == 0

    def test_system_dse_returns_fitting_choice(self, dsp_result):
        # re-run the nested sweep on the final design
        choice = system_dse(
            dsp_result.sysadg.adg,
            list(dsp_result.schedules.values()),
        )
        assert choice is not None
        assert choice.system_total.fits_in(usable_budget())
        assert choice.objective > 0

    def test_general_overlay_system_fits(self):
        g = general_overlay()
        assert AnalyticEstimator().system(g).fits_in(usable_budget())


class TestExplorer:
    def test_produces_valid_overlay(self, dsp_result):
        dsp_result.sysadg.validate()
        assert dsp_result.sysadg.params.num_tiles >= 1

    def test_all_workloads_scheduled(self, dsp_result):
        names = {w.name for w in get_suite("dsp")}
        assert set(dsp_result.schedules) == names
        for schedule in dsp_result.schedules.values():
            assert schedule.is_valid_for(dsp_result.sysadg.adg)
            assert schedule.estimate is not None

    def test_objective_improves_over_seed(self, dsp_result):
        first = dsp_result.history[0][2]
        last = dsp_result.choice.objective
        assert last >= first

    def test_deterministic_given_seed(self):
        a = explore(
            [get_workload("vecmax")], DseConfig(iterations=15, seed=3)
        )
        b = explore(
            [get_workload("vecmax")], DseConfig(iterations=15, seed=3)
        )
        assert a.choice.objective == b.choice.objective
        assert a.sysadg.params == b.sysadg.params

    def test_history_is_monotone_in_time(self, dsp_result):
        hours = [h for _, h, _ in dsp_result.history]
        assert hours == sorted(hours)

    def test_modeled_time_is_hours_scale(self, dsp_result):
        assert 1.0 < dsp_result.modeled_hours < 100.0

    def test_stats_account_iterations(self, dsp_result):
        s = dsp_result.stats
        assert s.iterations == 40
        assert s.accepted + s.rejected_annealing <= s.iterations
        assert s.preserved_hits + s.repairs > 0

    def test_reported_footprint_is_the_dse_total(self, dsp_result):
        """One definition: what ``inspect`` / Fig. 16 print IS the number
        the DSE decided "fits" with — ``==``, no tolerance."""
        total = AnalyticEstimator().system(dsp_result.sysadg)
        assert total == dsp_result.choice.system_total

    def test_final_design_fills_fpga(self, dsp_result):
        util = AnalyticEstimator().system(dsp_result.sysadg).utilization(XCVU9P)
        assert util["lut"] > 0.6  # generality padding consumes the device
        assert util["lut"] <= 1.0

    def test_schedule_preserving_off_still_works(self):
        res = explore(
            [get_workload("vecmax")],
            DseConfig(iterations=15, seed=5, schedule_preserving=False),
        )
        assert res.stats.preserving_transforms == 0
        assert res.choice.objective > 0

    def test_empty_workloads_rejected(self):
        with pytest.raises(ValueError):
            explore([], DseConfig(iterations=1))

    def test_fast_path_skips_repair(self, monkeypatch):
        """A no-op transform must take revalidation, never repair (V-B)."""
        from repro.dse import explorer as mod
        from repro.compiler import generate_variants

        workloads = [get_workload("vecmax"), get_workload("accumulate")]
        cfg = DseConfig(iterations=1, seed=3, preserving_prob=1.0)
        ex = mod.Explorer(workloads, cfg)
        adg = ex._initial_adg()
        variant_sets = {w.name: generate_variants(w) for w in workloads}
        schedules = ex._schedule_all(variant_sets, adg)
        assert schedules is not None

        repair_calls = []
        monkeypatch.setattr(
            mod, "collapse_random_switch", lambda *a, **k: True
        )
        monkeypatch.setattr(
            mod,
            "repair_schedule",
            lambda *a, **k: repair_calls.append(1) or None,
        )
        hits0 = ex.stats.preserved_hits
        modeled0 = ex.modeled_seconds
        out = ex._propose(adg, schedules)
        assert out is not None
        assert repair_calls == []
        assert ex.stats.preserved_hits - hits0 == len(workloads)
        # Preserved hits are charged as revalidations, not repair fractions.
        assert ex.modeled_seconds - modeled0 == pytest.approx(
            cfg.time_model.revalidate * len(workloads)
        )
        candidate, repaired = out
        for schedule in repaired.values():
            assert schedule.is_valid_for(candidate)
            assert schedule.adg_version == candidate.version
            assert schedule.estimate is not None

    def test_repair_path_charges_repair(self, monkeypatch):
        """When revalidation fails, repair runs and is charged in full."""
        from repro.dse import explorer as mod
        from repro.compiler import generate_variants

        workloads = [get_workload("vecmax")]
        cfg = DseConfig(iterations=1, seed=3, preserving_prob=1.0)
        ex = mod.Explorer(workloads, cfg)
        adg = ex._initial_adg()
        variant_sets = {w.name: generate_variants(w) for w in workloads}
        schedules = ex._schedule_all(variant_sets, adg)
        assert schedules is not None

        monkeypatch.setattr(
            mod, "collapse_random_switch", lambda *a, **k: True
        )
        monkeypatch.setattr(mod, "revalidate_schedule", lambda *a, **k: None)
        repairs0 = ex.stats.repairs
        modeled0 = ex.modeled_seconds
        out = ex._propose(adg, schedules)
        assert out is not None
        assert ex.stats.repairs - repairs0 == 1
        assert ex.modeled_seconds - modeled0 == pytest.approx(
            cfg.time_model.repair
        )

    def test_upgrade_variants_survives_estimateless_schedule(self, monkeypatch):
        """A variant that schedules without an estimate must not crash the
        anneal; the incumbent (comparable) schedule is kept instead."""
        from repro.adg import SystemParams
        from repro.dse import explorer as mod
        from repro.compiler import generate_variants
        from repro.scheduler import schedule_workload

        w = get_workload("vecmax")
        ex = mod.Explorer([w], DseConfig(iterations=1, seed=11))
        adg = ex._initial_adg()
        variant_sets = {w.name: generate_variants(w)}
        baseline = schedule_workload(variant_sets[w.name], adg, SystemParams())
        assert baseline is not None and baseline.estimate is not None

        broken = baseline.clone()
        broken.estimate = None
        monkeypatch.setattr(
            mod, "schedule_workload", lambda *a, **k: broken
        )
        out = ex._upgrade_variants(variant_sets, adg, {w.name: baseline})
        assert out[w.name] is baseline  # incumbent kept, no AttributeError
        # Without an incumbent the estimateless schedule is still adopted
        # (mapping validity matters more than comparability).
        out2 = ex._upgrade_variants(variant_sets, adg, {})
        assert out2[w.name].estimate is None

    def test_simulation_agrees_with_model_direction(self, dsp_result):
        # The analytical model is an upper-bound-style estimate; simulated
        # IPC lands within a sane band of it for the chosen designs.
        from repro.sim import simulate_schedule

        for name, schedule in dsp_result.schedules.items():
            sim = simulate_schedule(schedule, dsp_result.sysadg)
            est = schedule.estimate
            # re-estimate with final system params
            assert sim.ipc > 0
            assert sim.ipc <= dsp_result.choice.estimates[name].ipc * 1.6, name
