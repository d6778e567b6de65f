"""Tests for the unified DSE (system sweep + annealing explorer)."""

import random
from collections import Counter
from dataclasses import replace

import pytest

from repro.adg import SystemParams, general_overlay
from repro.dse import (
    DseConfig,
    TimeModel,
    explore,
    max_tiles_that_fit,
    system_dse,
)
from repro.model.resource import (
    AnalyticEstimator,
    Resources,
    XCVU9P,
    usable_budget,
)
from repro.scheduler import hardware_violations
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
            assert list(hardware_violations(schedule, dsp_result.sysadg.adg)) == []
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

    def test_a_sweep_is_priced_per_system_grid_point(self):
        """The grid size comes from the grid's axes, not a literal."""
        from repro.adg.system import system_param_space

        tm = TimeModel()
        assert tm.sweep() == tm.model_eval * len(list(system_param_space()))
        assert tm.reschedule(5, 0.4) == tm.full_schedule * 5 * 0.4

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

    def test_padding_runs_under_one_span(self):
        from repro.profile.tracer import Tracer, tracing

        with tracing(Tracer()) as tracer:
            explore([get_workload("vecmax")], DseConfig(iterations=2, seed=3))
        assert Counter(s.name for s in tracer.spans())["dse.pad"] == 1

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

    @staticmethod
    def _ladder_calls(monkeypatch):
        """Record every call to the ladder's rungs 1 and 2."""
        from repro.scheduler import spatial

        calls = []
        for rung in ("_reroute_only", "schedule_mdfg"):
            real = getattr(spatial, rung)

            def recorded(*args, _rung=rung, _real=real, **kwargs):
                calls.append(_rung)
                return _real(*args, **kwargs)

            monkeypatch.setattr(spatial, rung, recorded)
        return calls

    @staticmethod
    def _pruning_explorer(monkeypatch, names, **config):
        """An explorer past ``begin`` at iteration 1 (no upgrade due) whose
        every proposal is ``prune_capabilities``, the schedule-preserving
        edit that ``collapse_random_switch`` falls back to."""
        from repro.dse import explorer as mod

        cfg = DseConfig(iterations=1, seed=3, preserving_prob=1.0, **config)
        ex = mod.Explorer([get_workload(n) for n in names], cfg)
        ex.begin()
        ex.iteration = 1
        monkeypatch.setattr(
            mod, "collapse_random_switch", lambda *a, **k: False
        )
        return ex

    def test_fast_path_skips_repair(self, monkeypatch):
        """A schedule-preserving edit takes revalidation, never repair
        (V-B)."""
        names = ("vecmax", "accumulate")
        ex = self._pruning_explorer(monkeypatch, names)
        adg, schedules, _ = ex.best
        calls = self._ladder_calls(monkeypatch)
        hits0 = ex.stats.preserved_hits
        modeled0, seconds0 = ex.modeled_seconds, dict(ex.stats.seconds)
        out = ex._propose(adg, schedules)
        assert out is not None
        candidate, repaired = out
        assert candidate.version > adg.version  # the prune edited the ADG
        assert calls == []
        assert ex.stats.preserved_hits - hits0 == len(names)
        # Preserved hits are charged as revalidations, not repair fractions.
        assert _charged(ex, seconds0) == pytest.approx(
            {"revalidate": ex.config.time_model.revalidate * len(names)}
        )
        assert ex.modeled_seconds - modeled0 == pytest.approx(
            ex.config.time_model.revalidate * len(names)
        )
        for schedule in repaired.values():
            assert list(hardware_violations(schedule, candidate)) == []
            assert schedule.adg_version == candidate.version
            assert schedule.estimate is not None

    def test_repair_path_charges_repair(self, monkeypatch):
        """When revalidation fails, repair runs and is charged in full."""
        from repro.scheduler import spatial

        ex = self._pruning_explorer(monkeypatch, ("vecmax",))
        adg, schedules, _ = ex.best
        monkeypatch.setattr(
            spatial, "revalidate_schedule", lambda *a, **k: None
        )
        calls = self._ladder_calls(monkeypatch)
        repairs0 = ex.stats.repairs
        modeled0, seconds0 = ex.modeled_seconds, dict(ex.stats.seconds)
        out = ex._propose(adg, schedules)
        assert out is not None
        assert out[0].version > adg.version
        # Nothing broke, so rung 1 keeps every placement and route.
        assert calls == ["_reroute_only"]
        assert ex.stats.repairs - repairs0 == 1
        assert _charged(ex, seconds0) == pytest.approx(
            {"repair": ex.config.time_model.repair}
        )
        assert ex.stats.moves["prune_capabilities"]["repaired"] == 1
        assert ex.modeled_seconds - modeled0 == pytest.approx(
            ex.config.time_model.repair
        )

    def test_failed_repair_is_charged(self, monkeypatch):
        """A repair that fails is a repair the toolchain still ran."""
        from repro.dse import explorer as mod

        ex = self._pruning_explorer(monkeypatch, ("vecmax",))
        adg, schedules, _ = ex.best
        monkeypatch.setattr(mod, "repair_schedule", lambda *a, **k: None)
        rejected0 = ex.stats.rejected_unschedulable
        modeled0, seconds0 = ex.modeled_seconds, dict(ex.stats.seconds)
        assert ex._propose(adg, schedules) is None
        assert ex.stats.rejected_unschedulable - rejected0 == 1
        assert _charged(ex, seconds0) == pytest.approx(
            {"repair": ex.config.time_model.repair}
        )
        assert ex.stats.moves["prune_capabilities"]["unrepairable"] == 1
        assert ex.modeled_seconds - modeled0 == ex.config.time_model.repair


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


class TestNoopEdit:
    """An edit that leaves the ADG's ``version`` where it was cannot win:
    the sweep would price the incumbent again and reject it on an equal
    objective and LUT count, with no rng draw.  Off an upgrade iteration
    it is booked as that rejection, unrevalidated, unswept and uncharged,
    and it still uses up its iteration."""

    @staticmethod
    def _noop_explorer(monkeypatch, **config):
        from repro.dse import explorer as mod

        cfg = DseConfig(seed=3, preserving_prob=1.0, **config)
        ex = mod.Explorer([get_workload("vecmax")], cfg)
        monkeypatch.setattr(
            mod, "collapse_random_switch", lambda *a, **k: True
        )
        ladder, sweeps = [], []
        repair, sweep = mod.repair_schedule, mod.system_dse

        def recorded_repair(*args):
            ladder.append(args)
            return repair(*args)

        def recorded_sweep(*args, **kwargs):
            sweeps.append(args)
            return sweep(*args, **kwargs)

        monkeypatch.setattr(mod, "repair_schedule", recorded_repair)
        monkeypatch.setattr(mod, "system_dse", recorded_sweep)
        return ex, ladder, sweeps

    def test_noop_proposals_are_rejected_unswept(self, monkeypatch):
        ex, ladder, _ = self._noop_explorer(monkeypatch, iterations=12)
        ex.begin()
        rng = random.Random()
        rng.setstate(ex.rng.getstate())
        modeled0 = ex.modeled_seconds
        stats0 = replace(ex.stats)
        candidate = ex.propose()
        # Iterations 1-11 are no-ops; 12 is due an upgrade, so it is swept.
        assert candidate is not None and candidate[0] == 12
        assert ex.stats.rejected_noop == 11
        assert ex.stats.rejected_annealing == stats0.rejected_annealing
        assert len(ladder) == 1  # iteration 12's one workload
        for _ in range(12):
            rng.random()  # one preserving-or-random draw per iteration
        assert ex.rng.getstate() == rng.getstate()
        # Only iteration 12 is charged: its revalidation and its upgrade.
        time_model, variants = ex.config.time_model, _family_size(ex)
        assert ex.modeled_seconds - modeled0 == pytest.approx(
            time_model.revalidate + 0.4 * time_model.full_schedule * variants
        )

    def test_a_run_of_noops_sweeps_only_the_seed_and_the_finish(
        self, monkeypatch
    ):
        ex, ladder, sweeps = self._noop_explorer(monkeypatch, iterations=6)
        result = ex.run()
        assert result.stats.rejected_noop == 6
        assert result.stats.iterations == 6
        assert ladder == []
        assert len(sweeps) == 3  # the seed, the polish and after padding
        time_model, variants = ex.config.time_model, _family_size(ex)
        assert result.stats.seconds == pytest.approx({
            "compile": time_model.full_compile,
            "schedule": (1.0 + 0.4 + 0.4) * time_model.full_schedule * variants,
            "revalidate": 0.0,
            "repair": 0.0,
            "sweep": 3 * time_model.model_eval * 60,
            "synthesis": time_model.synthesis_hours * 3600,
        })
        assert result.stats.moves == {"collapse_switch": {
            "proposed": 6, "noop": 6, "unrepairable": 0, "repaired": 0,
            "accepted": 0,
        }}
        assert result.modeled_seconds == pytest.approx(
            time_model.full_compile
            + (1.0 + 0.4 + 0.4) * time_model.full_schedule * variants
            + 3 * time_model.model_eval * 60
            + time_model.synthesis_hours * 3600
        )

    def test_an_equal_replace_node_is_no_edit(self, monkeypatch):
        """Replacing a node with an equal one keeps the node, ``version``
        and a schedule's kept profile; so a ``mutate_spad`` draw of the
        current capacity is a no-op edit, rejected unswept."""
        from repro.compiler import generate_variants
        from repro.dse import explorer as mod
        from repro.dse.transforms import mutate_spad
        from repro.scheduler import schedule_workload

        general = general_overlay()
        adg = general.adg.clone()
        schedule = schedule_workload(
            generate_variants(get_workload("fir")), adg, general.params
        )
        profile, version = schedule.profile(adg), adg.version
        spad = adg.spads[0]
        adg.replace_node(spad.node_id, capacity_bytes=spad.capacity_bytes)
        assert adg.version == version and adg.spads[0] is spad
        assert schedule.profile(adg) is profile

        class ResizeToCurrent:
            """``mutate_spad``'s resize branch, drawing the first spad and
            its current capacity."""

            def __init__(self):
                self.spad = None

            def random(self):
                return 0.5

            def choice(self, seq):
                if self.spad is None:
                    self.spad = seq[0]
                    return self.spad
                return self.spad.capacity_bytes

        def resize_to_current(adg, rng):
            mutate_spad(adg, ResizeToCurrent())
            return "mutate_spad"

        monkeypatch.setattr(mod, "apply_random_transform", resize_to_current)
        cfg = DseConfig(seed=3, iterations=12, preserving_prob=0.0)
        ex = mod.Explorer([get_workload("vecmax")], cfg)
        ex.begin()
        assert ex.propose()[0] == 12
        assert ex.stats.rejected_noop == 11
        assert ex.stats.random_transforms == 12


def _charged(ex, seconds0):
    """The modeled seconds booked since ``seconds0``, by charge kind."""
    return {
        kind: seconds - seconds0[kind]
        for kind, seconds in ex.stats.seconds.items()
        if seconds != seconds0[kind]
    }


def _family_size(ex):
    return len(ex.variant_sets["vecmax"].variants)
