"""Tests for DSE mutation operators and schedule-preserving transforms."""

import random

import pytest

from repro.adg import (
    NodeKind,
    adg_to_dict,
    caps_for_dtype,
    general_overlay,
    mesh_adg,
    seed_for_workloads,
)
from repro.compiler import lower
from repro.dse import (
    RANDOM_TRANSFORMS,
    TransformFailed,
    apply_random_transform,
    collapse_random_switch,
    collapse_switch,
    preserve_edge_delays,
    prune_capabilities,
)
from repro.dse.transforms import (
    PADDING_STEPS,
    pad_for_generality,
    pad_missing_caps,
    pad_reattach_ports,
    remove_cap,
    remove_fabric_link,
    remove_port,
)
from repro.ir import I64, Op
from repro.model.resource import AnalyticEstimator
from repro.scheduler import hardware_violations, schedule_mdfg
from repro.workloads import get_suite, get_workload


@pytest.fixture()
def overlay():
    return general_overlay()


@pytest.fixture()
def scheduled(overlay):
    adg = overlay.adg.clone()
    mdfg = lower(get_workload("mm"), unroll=2)
    schedule = schedule_mdfg(mdfg, adg, overlay.params)
    assert schedule is not None
    return adg, schedule


class TestRandomTransforms:
    def test_apply_random_transform_mutates(self, overlay):
        adg = overlay.adg.clone()
        before = adg.version
        rng = random.Random(0)
        name = apply_random_transform(adg, rng)
        assert name in {op.__name__ for op in RANDOM_TRANSFORMS}
        assert adg.version > before

    def test_transforms_keep_adg_valid(self, overlay):
        rng = random.Random(1)
        adg = overlay.adg.clone()
        for _ in range(60):
            try:
                apply_random_transform(adg, rng)
            except TransformFailed:
                continue
            adg.validate()

    def test_every_operator_runs_or_declines(self, overlay):
        rng = random.Random(2)
        for op in RANDOM_TRANSFORMS:
            adg = overlay.adg.clone()
            try:
                op(adg, rng)
                adg.validate()
            except TransformFailed:
                pass  # legitimately inapplicable

    def test_remove_switch_keeps_routing_floor(self):
        # A design with switches == 0.8*PEs must refuse further removal.
        from repro.dse.transforms import remove_switch

        adg = mesh_adg(2, 2, caps=caps_for_dtype(I64, (Op.ADD,)))
        rng = random.Random(3)
        removed = 0
        for _ in range(50):
            try:
                remove_switch(adg, rng)
                removed += 1
            except TransformFailed:
                break
        assert len(adg.switches) >= max(2, int(0.8 * len(adg.pes)))


class TestCollapseSwitch:
    def test_collapse_preserves_routes(self, scheduled):
        adg, schedule = scheduled
        # Find a switch that routes traffic but is not an endpoint.
        candidates = [
            sw.node_id
            for sw in adg.switches
            if schedule.routes_through(sw.node_id)
        ]
        target = None
        for sw_id in candidates:
            keys = schedule.routes_through(sw_id)
            if all(
                schedule.routes[k][0] != sw_id and schedule.routes[k][-1] != sw_id
                for k in keys
            ):
                target = sw_id
                break
        if target is None:
            pytest.skip("no pass-through switch in this schedule")
        assert collapse_switch(adg, target, [schedule])
        assert not adg.has_node(target)
        # Patched routes remain valid links on the mutated ADG.
        assert list(hardware_violations(schedule, adg)) == []

    def test_collapse_refuses_endpoint(self, scheduled):
        adg, schedule = scheduled
        pe_id = next(
            hw
            for dfg, hw in schedule.placement.items()
            if adg.has_node(hw) and adg.node(hw).kind is NodeKind.PE
        )
        assert not collapse_switch(adg, pe_id, [schedule])

    def test_collapse_unused_switch_is_free(self, scheduled):
        adg, schedule = scheduled
        unused = [
            sw.node_id
            for sw in adg.switches
            if not schedule.routes_through(sw.node_id)
        ]
        if not unused:
            pytest.skip("every switch in use")
        assert collapse_switch(adg, unused[0], [schedule])
        assert list(hardware_violations(schedule, adg)) == []

    def test_collapse_random_respects_floor(self, overlay):
        from repro.ir import I16

        adg = mesh_adg(2, 2, caps=caps_for_dtype(I16, (Op.ADD, Op.MAX)))
        # switches (9) > 0.8 * PEs (4): allowed; after enough collapses the
        # helper starts returning False.
        mdfg = lower(get_workload("vecmax"), unroll=1)
        schedule = schedule_mdfg(mdfg, adg)
        assert schedule is not None
        rng = random.Random(4)
        for _ in range(30):
            if not collapse_random_switch(adg, [schedule], rng):
                break
        assert len(adg.switches) >= max(2, int(0.8 * len(adg.pes)))


class TestPruning:
    def test_prune_capabilities_drops_unused(self, scheduled):
        adg, schedule = scheduled
        pe_id = schedule.placement[
            next(n.node_id for n in schedule.mdfg.compute_nodes)
        ]
        before = len(adg.node(pe_id).caps)
        changes = prune_capabilities(adg, [schedule])
        after = len(adg.node(pe_id).caps)
        assert changes > 0
        assert after < before
        # The schedule still fits the pruned hardware.
        assert list(hardware_violations(schedule, adg)) == []

    def test_prune_keeps_dma(self, scheduled):
        adg, schedule = scheduled
        prune_capabilities(adg, [schedule])
        assert adg.dmas, "DMA must survive pruning (fallback path)"

    def test_preserve_edge_delays_grows_fifos(self, scheduled):
        adg, schedule = scheduled
        # Artificially shrink every PE's delay FIFO, then restore via the
        # transform.
        for pe in adg.pes:
            adg.replace_node(pe.node_id, max_delay_fifo=0)
        adjusted = preserve_edge_delays(adg, [schedule])
        needed = schedule.delay_fifo_needed
        if any(v > 0 for v in needed.values()):
            assert adjusted > 0
            for pe_id, depth in needed.items():
                assert adg.node(pe_id).max_delay_fifo >= depth


class TestPaddingCursor:
    """Padding's structural scans resume past what they found saturated,
    and pad exactly what a scan from the first piece every step pads."""

    @staticmethod
    def _worn(seed):
        """A dsp seed fabric with some links and ports gone: padding work."""
        rng = random.Random(seed)
        adg = seed_for_workloads(get_suite("dsp"))
        for _ in range(12):
            op = rng.choice((remove_fabric_link, remove_port, remove_cap))
            try:
                op(adg, rng)
            except TransformFailed:
                pass
        return adg

    @pytest.mark.parametrize("seed", range(3))
    def test_pads_what_a_scan_from_scratch_pads(self, seed):
        def pad_from_scratch(adg, fits):
            steps = 0
            while steps < 1000 and any(step(adg, fits) for step in PADDING_STEPS):
                steps += 1
            return steps

        padded = []
        for pad in (pad_for_generality, pad_from_scratch):
            adg, estimator, probes = self._worn(seed), AnalyticEstimator(), []
            cap = estimator.tile(adg).lut * 1.2

            def fits():
                probes.append(estimator.tile(adg).lut <= cap)
                return probes[-1]

            padded.append((pad(adg, fits), adg_to_dict(adg), probes))
        # The same steps, the same trials in the same order, the same ADG.
        assert padded[0] == padded[1]
        steps, _doc, probes = padded[0]
        assert steps > 20 and not all(probes)

    def test_a_failed_trial_holds_the_cursor(self, overlay):
        adg = overlay.adg.clone()
        first, second = adg.in_ports[1:3]
        for port in (first, second):
            for succ in list(adg.successors(port.node_id)):
                adg.remove_link(port.node_id, succ)
        cursor = {}
        assert not pad_reattach_ports(adg, lambda: False, cursor)
        assert cursor["in_ports"] == 1        # past port 0, not past port 1
        assert pad_reattach_ports(adg, lambda: True, cursor)
        assert adg.successors(first.node_id) and not adg.successors(second.node_id)
        assert pad_reattach_ports(adg, lambda: True, cursor)
        assert cursor["in_ports"] == 2 and adg.successors(second.node_id)

    def test_missing_caps_picks_the_fewest_caps_then_the_lowest_id(self, overlay):
        adg = overlay.adg.clone()
        pes = adg.pes
        pool = sorted(set().union(*(pe.caps for pe in pes)), key=lambda c: c.name)
        adg.replace_node(pes[5].node_id, caps=frozenset(pool[2:]))
        adg.replace_node(pes[3].node_id, caps=frozenset(pool[2:]))
        adg.replace_node(pes[4].node_id, caps=frozenset(pool[1:]))
        assert pad_missing_caps(adg, lambda: True)
        assert adg.node(pes[3].node_id).caps == frozenset(pool[:1] + pool[2:])
        assert adg.node(pes[5].node_id).caps == frozenset(pool[2:])
