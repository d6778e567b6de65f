"""The nested system sweep against the loop it replaced.

``reference_system_dse`` below is the sweep as it stood before it ran on
scalars, kept verbatim: a linear tile-count scan from ``max_tiles`` at
every grid point, a ``PerfEstimate`` per (point, workload), a
``SystemChoice`` per point and ``_better`` to pick among them.
``system_dse`` must return the same ``SystemChoice`` field for field —
same floats, same factor order — while evaluating ``system_total`` at most
twice per grid point and, with a run's objective memo, calling ``ipc_at``
once per distinct (profiles, grid point, tile count).  The profiles it
reads are the ones the schedules were priced with on that ADG version,
never stale ones.
"""

import random

import pytest

from repro.adg import (
    SystemParams,
    adg_from_dict,
    general_overlay,
    seed_for_workloads,
    system_param_space,
)
from repro.compiler import generate_variants, lower
from repro.dse import DseConfig, explore, system_dse
from repro.dse import explorer as dse_explorer
from repro.dse import system as dse_system
from repro.dse.system import SystemChoice, _grid_fits, _largest_fit
from repro.dse.transforms import PADDING_STEPS
from repro.model.perf import (
    BottleneckProfile,
    MemoryBinding,
    bottleneck_profile,
    geomean_ipc,
)
from repro.model.resource import (
    AnalyticEstimator,
    Resources,
    control_core_resources,
    l2_resources,
    system_total,
    usable_budget,
)
from repro.profile.tracer import tracing
from repro.scheduler import (
    Schedule,
    ScheduleError,
    bind_engines,
    revalidate_schedule,
    schedule_workload,
)
from repro.scheduler import schedule as schedule_module
from repro.validate.generators import random_adg_doc
from repro.workloads import SUITE_NAMES, all_workloads, get_suite, get_workload


# ----------------------------------------------------------------------
# The parent's loop, verbatim (6f52662 src/repro/dse/system.py)
# ----------------------------------------------------------------------
def reference_largest_fit(per_tile, l2, noc_bytes, budget, cap):
    for tiles in range(cap, 0, -1):
        total = system_total(per_tile, tiles, l2, noc_bytes)
        if total.fits_in(budget):
            return tiles, total
    return 0, None


def reference_system_dse(
    adg, schedules, estimator=None, budget=None, max_tiles=16, weights=None
):
    estimator = estimator or AnalyticEstimator()
    budget = budget or usable_budget()
    best = None
    tile = estimator.tile(adg)
    per_tile = tile + control_core_resources()
    profiles = [
        (s.mdfg.workload, bottleneck_profile(s.mdfg, s.binding(), adg))
        for s in schedules
    ]
    for l2_banks, l2_kib, noc_bytes in system_param_space():
        tiles, total = reference_largest_fit(
            per_tile,
            l2_resources(l2_kib, l2_banks),
            noc_bytes,
            budget,
            max_tiles,
        )
        if tiles == 0:
            continue
        params = SystemParams(
            num_tiles=tiles,
            l2_banks=l2_banks,
            l2_kib=l2_kib,
            noc_bytes_per_cycle=noc_bytes,
        )
        estimates = {
            workload: profile.at(params) for workload, profile in profiles
        }
        candidate = SystemChoice(
            params=params,
            objective=geomean_ipc(list(estimates.values()), weights),
            tile_resources=tile,
            system_total=total,
            estimates=estimates,
        )
        if best is None or reference_better(candidate, best):
            best = candidate
    return best


def reference_better(a, b):
    if a.objective != b.objective:
        return a.objective > b.objective
    return a.tile_resources.lut < b.tile_resources.lut


def assert_same_choice(got, want):
    if want is None:
        assert got is None
        return
    assert got.params == want.params
    assert got.objective == want.objective
    assert got.tile_resources == want.tile_resources
    assert got.system_total == want.system_total
    assert list(got.estimates) == list(want.estimates)
    for name, est in want.estimates.items():
        assert got.estimates[name] == est, name
        assert list(got.estimates[name].factors.items()) == list(
            est.factors.items()
        ), name


def seed_and_schedules(workloads):
    adg = seed_for_workloads(workloads)
    schedules = [
        schedule_workload(generate_variants(w), adg, SystemParams())
        for w in workloads
    ]
    assert all(s is not None for s in schedules)
    return adg, schedules


@pytest.fixture(scope="module")
def dsp_seed():
    return seed_and_schedules(get_suite("dsp"))


# ----------------------------------------------------------------------
# (a) sweep equivalence
# ----------------------------------------------------------------------
class TestSweepEquivalence:
    @pytest.mark.parametrize("suite", SUITE_NAMES)
    def test_seed_adg_of_every_suite(self, suite, dsp_seed):
        adg, schedules = (
            dsp_seed if suite == "dsp" else seed_and_schedules(get_suite(suite))
        )
        assert_same_choice(
            system_dse(adg, schedules), reference_system_dse(adg, schedules)
        )

    def test_mutated_adgs(self):
        """``validate``'s mutated-ADG generator, 60 seeds: designs the
        explorer's own trajectory never visits, some unschedulable (they
        sweep with no schedules, which still exercises every fit)."""
        workload = get_workload("vecmax")
        variants = generate_variants(workload)
        scheduled = 0
        for seed in range(60):
            rng = random.Random(f"sweep-{seed}")
            adg = adg_from_dict(random_adg_doc(rng, workload))
            schedule = schedule_workload(variants, adg, SystemParams())
            schedules = [] if schedule is None else [schedule]
            scheduled += len(schedules)
            reserve = rng.choice((0.0, 0.1, 0.5, 0.9))
            budget = usable_budget() * (1.0 - reserve)
            assert_same_choice(
                system_dse(adg, schedules, budget=budget),
                reference_system_dse(adg, schedules, budget=budget),
            )
        assert scheduled >= 30

    @pytest.mark.parametrize("max_tiles", [1, 4, 16])
    def test_max_tiles(self, dsp_seed, max_tiles):
        adg, schedules = dsp_seed
        got = system_dse(adg, schedules, max_tiles=max_tiles)
        assert got.params.num_tiles <= max_tiles
        assert_same_choice(
            got, reference_system_dse(adg, schedules, max_tiles=max_tiles)
        )

    def test_budget_nothing_fits(self, dsp_seed):
        adg, schedules = dsp_seed
        budget = Resources(lut=1.0, ff=1.0, bram=1.0, dsp=1.0)
        assert reference_system_dse(adg, schedules, budget=budget) is None
        assert system_dse(adg, schedules, budget=budget) is None

    def test_empty_schedule_list(self, dsp_seed):
        adg, _schedules = dsp_seed
        got = system_dse(adg, [])
        assert got.objective == 0.0 and got.estimates == {}
        assert_same_choice(got, reference_system_dse(adg, []))


# ----------------------------------------------------------------------
# (b) tile-count exactness
# ----------------------------------------------------------------------
def random_resources(rng, lut):
    return Resources(
        lut=rng.uniform(0.2, 1.0) * lut,
        ff=rng.uniform(0.2, 1.5) * lut,
        bram=rng.uniform(0.0, 400.0),
        dsp=rng.uniform(0.0, 900.0),
    )


class TestTileCount:
    def test_grid_fits_equal_the_linear_scan(self):
        """All 60 points, bounds seeded from grid predecessors, against a
        scan from the cap — including budgets sitting exactly on a
        ``system_total`` field, where ``<=`` decides."""
        rng = random.Random(22)
        grid = list(system_param_space())
        assert len(grid) == 60
        for trial in range(40):
            per_tile = random_resources(rng, rng.choice((4e4, 1.2e5, 4e5)))
            budget = usable_budget() * rng.choice((1.0, 0.9, 0.5, 0.2))
            max_tiles = rng.choice((1, 4, 16))
            if trial % 2:
                # The boundary: one resource of the budget IS the footprint
                # of some (point, tile count).
                l2_banks, l2_kib, noc_bytes = rng.choice(grid)
                edge = system_total(
                    per_tile,
                    rng.randint(1, max_tiles),
                    l2_resources(l2_kib, l2_banks),
                    noc_bytes,
                )
                field = rng.choice(("lut", "ff", "bram", "dsp"))
                budget = Resources(
                    **{**budget.as_dict(), field: getattr(edge, field)}
                )
            want = []
            for l2_banks, l2_kib, noc_bytes in grid:
                tiles, total = reference_largest_fit(
                    per_tile,
                    l2_resources(l2_kib, l2_banks),
                    noc_bytes,
                    budget,
                    max_tiles,
                )
                if tiles:
                    want.append((l2_banks, l2_kib, noc_bytes, tiles, total))
            assert list(_grid_fits(per_tile, budget, max_tiles)) == want

    def test_largest_fit_from_any_valid_bound(self):
        rng = random.Random(23)
        for _ in range(200):
            per_tile = random_resources(rng, 1.5e5)
            l2 = random_resources(rng, 5e4)
            noc_bytes = rng.choice((8, 16, 32, 64, 128))
            budget = usable_budget() * rng.uniform(0.1, 1.0)
            want = reference_largest_fit(per_tile, l2, noc_bytes, budget, 16)
            for bound in range(want[0], 17):
                assert _largest_fit(
                    per_tile, l2, noc_bytes, budget, bound
                ) == want

    def test_at_most_two_footprints_per_grid_point(self, monkeypatch):
        """Scanning every point down from the cap evaluated the footprint
        8.8 times per fit over this run; padding probes count against the
        bound too."""
        calls = {"fits": 0, "footprints": 0}

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)

            monkeypatch.setattr(dse_system, fn.__name__, wrapper)

        counted("fits", dse_system._largest_fit)
        counted("footprints", dse_system.footprint)
        explore(get_suite("dsp"), DseConfig(iterations=40, seed=2))
        assert calls["footprints"] >= 60 * 40
        assert calls["footprints"] / calls["fits"] <= 2.0

    def test_padding_probe_is_one_footprint_test(self, monkeypatch):
        """Padding asks "do ``num_tiles`` still fit?" with one footprint
        per probe, not a scan down from ``max_tiles``."""
        footprints = [0]
        probes = []
        footprint = dse_system.footprint
        pad = dse_explorer.pad_for_generality

        def counted_footprint(*args):
            footprints[0] += 1
            return footprint(*args)

        def counted_pad(adg, fits):
            def probe():
                before = footprints[0]
                answer = fits()
                probes.append(footprints[0] - before)
                return answer

            return pad(adg, probe)

        monkeypatch.setattr(dse_system, "footprint", counted_footprint)
        monkeypatch.setattr(dse_explorer, "pad_for_generality", counted_pad)
        explore(get_suite("dsp"), DseConfig(iterations=40, seed=2))
        assert len(probes) >= 20
        assert set(probes) == {1}


# ----------------------------------------------------------------------
# (c) the objective memo
# ----------------------------------------------------------------------
class TestGridMemo:
    @pytest.mark.parametrize("suite", ["dsp", "machsuite", "vision"])
    def test_memoised_sweeps_equal_the_reference(self, suite, monkeypatch):
        """Every sweep of two runs — seed, accepted and rejected
        candidates, polish — against the parent's loop, while the run's
        memo answers some of their points."""
        sweep = dse_explorer.system_dse
        checked = [0]

        def checked_sweep(adg, schedules, **kwargs):
            got = sweep(adg, schedules, **kwargs)
            assert kwargs["objectives"] is not None
            assert_same_choice(
                got,
                reference_system_dse(
                    adg,
                    schedules,
                    budget=kwargs["budget"],
                    max_tiles=kwargs["max_tiles"],
                ),
            )
            checked[0] += 1
            return got

        monkeypatch.setattr(dse_explorer, "system_dse", checked_sweep)
        workloads = get_suite(suite)
        with tracing() as tracer:
            for seed in (2, 3):
                explore(workloads, DseConfig(iterations=5, seed=seed))
        counters = tracer.counters()
        assert checked[0] >= 10
        assert 0 < counters["dse.grid_priced"] < counters["dse.grid_points"]

    def test_ipc_at_once_per_distinct_point(self, monkeypatch):
        """``ipc_at`` runs once per (profiles, grid point, tile count) of a
        run, not once per sweep that visits it."""
        calls = [0]
        sweep_profiles = []
        distinct = set()
        ipc_at = BottleneckProfile.ipc_at
        sweep = dse_explorer.system_dse
        profile = Schedule.profile
        grid_fits = dse_system._grid_fits

        def counted_ipc_at(self, *args):
            calls[0] += 1
            return ipc_at(self, *args)

        def recorded_sweep(*args, **kwargs):
            sweep_profiles.clear()  # drop the ones pricing asked for
            return sweep(*args, **kwargs)

        def recorded_profile(self, adg):
            sweep_profiles.append(profile(self, adg))
            return sweep_profiles[-1]

        def recorded_grid_fits(*args):
            profiles = tuple(sweep_profiles)
            for point in grid_fits(*args):
                distinct.add((profiles, point[:4]))
                yield point

        monkeypatch.setattr(BottleneckProfile, "ipc_at", counted_ipc_at)
        monkeypatch.setattr(dse_explorer, "system_dse", recorded_sweep)
        monkeypatch.setattr(Schedule, "profile", recorded_profile)
        monkeypatch.setattr(dse_system, "_grid_fits", recorded_grid_fits)
        explore(get_suite("dsp"), DseConfig(iterations=40, seed=2))
        assert distinct
        assert calls[0] <= sum(len(profiles) for profiles, _ in distinct)


# ----------------------------------------------------------------------
# (d) one profile per candidate
# ----------------------------------------------------------------------
def swept_profiles(monkeypatch, adg, schedules):
    """The profiles one ``system_dse`` sweep of ``adg`` reads."""
    seen = []
    profile = Schedule.profile

    def recorded(self, adg):
        seen.append(profile(self, adg))
        return seen[-1]

    with monkeypatch.context() as patch:
        patch.setattr(Schedule, "profile", recorded)
        system_dse(adg, schedules)
    return seen


def fresh_profiles(adg, schedules):
    return [bottleneck_profile(s.mdfg, s.binding(), adg) for s in schedules]


def widen_dma(adg, factor):
    """Scale every DMA's bandwidth in place (a factor the profile reads)."""
    for dma in adg.dmas:
        adg.replace_node(dma.node_id, bandwidth_bytes=dma.bandwidth_bytes * factor)


class TestKeptProfile:
    """A schedule keeps the profile it was priced with, keyed by what the
    profile reads: the ADG's engine nodes, by identity, and the binding.
    A clone carries it; the sweep reuses it, never a stale one."""

    def test_a_clone_keeps_its_profile_until_an_engine_or_binding_changes(
        self, monkeypatch
    ):
        adg, schedules = seed_and_schedules(get_suite("dsp"))
        for schedule in schedules:
            schedule.profile(adg)
        builds = []
        build = schedule_module.bottleneck_profile

        def counted_build(*args):
            builds.append(args)
            return build(*args)

        monkeypatch.setattr(schedule_module, "bottleneck_profile", counted_build)

        # A fabric-only edit on a clone: no engine moved, nothing rebuilt.
        child = adg.clone()
        switch = child.switches[0].node_id
        child.remove_link(switch, min(child.successors(switch)))
        clones = [s.clone() for s in schedules]
        kept = [s.profile(child) for s in clones]
        assert builds == []
        assert kept == fresh_profiles(child, clones)

        # An engine edit on the clone rebuilds every profile.
        widen_dma(child, 2)
        assert [s.profile(child) for s in clones] == fresh_profiles(child, clones)
        assert len(builds) == len(clones)

        # An in-place binding edit rebuilds that schedule's profile only.
        moved = clones[0]
        stream = next(iter(moved.binding().stream_engine))
        other = next(
            e.node_id for e in child.engines
            if e.node_id != moved.placement[stream]
        )
        moved.placement[stream] = other
        del builds[:]
        assert [s.profile(child) for s in clones] == fresh_profiles(child, clones)
        assert len(builds) == 1
        # The parent's schedules never saw either edit.
        assert [s.profile(adg) for s in schedules] == fresh_profiles(
            adg, schedules
        )

    def test_never_stale_after_an_in_place_edit_or_on_a_sibling(
        self, monkeypatch
    ):
        adg, schedules = seed_and_schedules(get_suite("dsp"))
        priced = [s.profile(adg) for s in schedules]
        assert swept_profiles(monkeypatch, adg, schedules) == priced

        # In place, as ``finish()`` pads the accepted ADG: one padding
        # step, then an edit the profiles read.
        assert any(step(adg, lambda: True) for step in PADDING_STEPS)
        assert swept_profiles(monkeypatch, adg, schedules) == fresh_profiles(
            adg, schedules
        )
        widen_dma(adg, 2)
        assert fresh_profiles(adg, schedules) != priced
        assert swept_profiles(monkeypatch, adg, schedules) == fresh_profiles(
            adg, schedules
        )

        # Two clones of one parent at one version, with different edits:
        # the version alone does not name the content.
        left, right = adg.clone(), adg.clone()
        widen_dma(left, 2)
        widen_dma(right, 4)
        assert left.version == right.version
        kept = [
            revalidate_schedule(s.clone(), left, SystemParams())
            for s in schedules
        ]
        assert swept_profiles(monkeypatch, left, kept) == fresh_profiles(
            left, kept
        )
        assert fresh_profiles(right, kept) != fresh_profiles(left, kept)
        assert swept_profiles(monkeypatch, right, kept) == fresh_profiles(
            right, kept
        )

    def test_a_candidate_is_modelled_once(self, monkeypatch):
        """Every sweep of a run reads the profiles its candidate's
        schedules were priced with; only the sweep after padding, which
        edits the accepted ADG in place, builds any."""
        builds = [0]
        per_sweep = []
        build = schedule_module.bottleneck_profile
        sweep = dse_explorer.system_dse

        def counted_build(*args):
            builds[0] += 1
            return build(*args)

        def counted_sweep(*args, **kwargs):
            before = builds[0]
            choice = sweep(*args, **kwargs)
            per_sweep.append(builds[0] - before)
            return choice

        monkeypatch.setattr(schedule_module, "bottleneck_profile", counted_build)
        monkeypatch.setattr(dse_explorer, "system_dse", counted_sweep)
        workloads = get_suite("dsp")
        explore(workloads, DseConfig(iterations=40, seed=2))
        assert len(per_sweep) >= 20
        assert sum(per_sweep[:-1]) == 0
        assert per_sweep[-1] <= len(workloads)


# ----------------------------------------------------------------------
# (e) the scalar objective
# ----------------------------------------------------------------------
def test_ipc_at_is_at_ipc_bit_for_bit():
    """28 workloads x 60 grid points x tiles 1..16, both models."""
    adg = general_overlay().adg
    platform = SystemParams()
    grid = list(system_param_space())
    for workload in all_workloads():
        try:
            mdfg = lower(workload)
            engines = bind_engines(mdfg, adg)
        except ScheduleError:  # a recurrence General cannot hold: rmw form
            mdfg = lower(workload, use_recurrence=False)
            engines = bind_engines(mdfg, adg)
        binding = MemoryBinding(engines)
        for reuse_aware in (True, False):
            profile = bottleneck_profile(mdfg, binding, adg, reuse_aware)
            for l2_banks, l2_kib, noc_bytes in grid:
                for tiles in range(1, 17):
                    params = SystemParams(
                        num_tiles=tiles,
                        l2_banks=l2_banks,
                        l2_kib=l2_kib,
                        noc_bytes_per_cycle=noc_bytes,
                    )
                    assert profile.ipc_at(
                        tiles, l2_banks, l2_kib, noc_bytes, platform
                    ) == profile.at(params).ipc, (workload.name, params)
