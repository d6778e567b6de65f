"""Tests for the spatial scheduler: binding, placement, routing, repair."""

import itertools
import math
import random
from collections import Counter

import pytest

from repro.adg import (
    NodeKind,
    SpadEngine,
    SystemParams,
    cap_for,
    caps_for_dtype,
    general_overlay,
    mesh_adg,
    seed_for_workloads,
)
from repro.compiler import VariantSet, generate_variants, lower
from repro.dfg import InputPortNode
from repro.dse.transforms import (
    TransformFailed,
    apply_random_transform,
    collapse_random_switch,
    prune_capabilities,
)
from repro.ir import F64, I16, I64, Op
from repro.model.perf import estimate_ipc, ipc_ceiling
from repro.profile.tracer import Tracer, tracing
from repro.scheduler import (
    RoutingState,
    Schedule,
    ScheduleError,
    ScheduleFailure,
    attempt_schedule,
    bind_memory,
    find_route,
    hardware_violations,
    repair_schedule,
    revalidate_schedule,
    schedule_mdfg,
    schedule_violations,
    schedule_workload,
)
from repro.validate.generators import random_case
from repro.validate.invariants import Violation, check_schedule
from repro.workloads import all_workloads, get_workload

from .test_schedule_golden import overlays, schedule_digest


@pytest.fixture(scope="module")
def overlay():
    return general_overlay()


class TestRouting:
    def test_route_exists_on_mesh(self, overlay):
        adg = overlay.adg
        ip = adg.in_ports[0]
        pe = adg.pes[0]
        state = RoutingState(adg)
        path = find_route(adg, state, ip.node_id, pe.node_id, 0, 64)
        assert path is not None
        assert path[0] == ip.node_id and path[-1] == pe.node_id

    def test_interior_hops_are_switches(self, overlay):
        adg = overlay.adg
        state = RoutingState(adg)
        path = find_route(
            adg, state, adg.in_ports[0].node_id, adg.pes[10].node_id, 0, 64
        )
        for hop in path[1:-1]:
            assert adg.node(hop).kind is NodeKind.SWITCH

    def test_link_conflict_forces_detour_or_failure(self, overlay):
        adg = overlay.adg
        state = RoutingState(adg)
        src = adg.in_ports[0].node_id
        dst = adg.pes[0].node_id
        first = find_route(adg, state, src, dst, source_dfg=1, width_bits=64)
        state.claim_path(first, 1)
        second = find_route(adg, state, src, dst, source_dfg=2, width_bits=64)
        if second is not None:
            # A different value must not reuse the first value's links.
            first_links = set(zip(first, first[1:]))
            second_links = set(zip(second, second[1:]))
            assert not (first_links & second_links)

    def test_multicast_shares_links(self, overlay):
        adg = overlay.adg
        state = RoutingState(adg)
        src = adg.in_ports[0].node_id
        path = find_route(adg, state, src, adg.pes[0].node_id, 7, 64)
        state.claim_path(path, 7)
        again = find_route(adg, state, src, adg.pes[0].node_id, 7, 64)
        assert again == path  # same source may reuse its own links

    def test_width_blocks_narrow_switches(self):
        adg = mesh_adg(
            1, 1, caps=caps_for_dtype(I64, (Op.ADD,)), width_bits=64
        )
        state = RoutingState(adg)
        ip = adg.in_ports[0]
        pe = adg.pes[0]
        wide = find_route(adg, state, ip.node_id, pe.node_id, 0, 512)
        assert wide is None  # 512-bit value cannot cross 64-bit switches


class TestScheduling:
    def test_all_workloads_schedule_on_general(self, overlay):
        for w in all_workloads():
            s = schedule_workload(
                generate_variants(w), overlay.adg, overlay.params
            )
            assert s is not None, w.name
            assert s.estimate is not None and s.estimate.ipc > 0

    def test_every_compute_node_on_distinct_pe(self, overlay):
        mdfg = lower(get_workload("bgr2grey"), unroll=4)
        s = schedule_mdfg(mdfg, overlay.adg, overlay.params)
        pes = [
            s.placement[c.node_id] for c in mdfg.compute_nodes
        ]
        assert len(pes) == len(set(pes))

    def test_ports_not_shared(self, overlay):
        mdfg = lower(get_workload("stencil-2d"), unroll=1)
        s = schedule_mdfg(mdfg, overlay.adg, overlay.params)
        assert s is not None
        ports = [
            s.placement[p.node_id]
            for p in mdfg.input_ports + mdfg.output_ports
        ]
        assert len(ports) == len(set(ports))

    def test_spad_array_lands_on_spad(self, overlay):
        mdfg = lower(get_workload("mm"), unroll=1)
        s = schedule_mdfg(mdfg, overlay.adg, overlay.params)
        placed_kinds = {
            a.array: overlay.adg.node(s.placement[a.node_id]).kind
            for a in mdfg.arrays
        }
        assert NodeKind.SPAD in placed_kinds.values()

    def test_capacity_respected(self):
        # One tiny scratchpad: high-reuse arrays must spill to DMA.
        adg = mesh_adg(
            2,
            2,
            caps=caps_for_dtype(F64, (Op.ADD, Op.MUL)),
            width_bits=512,
            spad_specs=((256, 32, False),),
        )
        mdfg = lower(get_workload("mm"), unroll=1)
        s = schedule_mdfg(mdfg, adg)
        assert s is not None
        spad_bytes = 0.0
        for a in mdfg.arrays:
            hw = adg.node(s.placement[a.node_id])
            if hw.kind is NodeKind.SPAD:
                spad_bytes += a.footprint_bytes
        assert spad_bytes <= 256

    def test_indirect_needs_capable_engine(self):
        adg = mesh_adg(
            2,
            2,
            caps=caps_for_dtype(F64, (Op.ADD, Op.MUL)),
            width_bits=256,
            spad_specs=((16384, 32, False),),
            dma_indirect=False,
        )
        mdfg = lower(get_workload("ellpack"), unroll=1)
        assert schedule_mdfg(mdfg, adg) is None

    def test_recurrence_depth_enforced(self, overlay):
        # accumulate's recurrence depth is a whole frame (16K elements):
        # the rec-engine variant must fail, the rmw variant must map.
        rec = lower(get_workload("accumulate"), unroll=1, use_recurrence=True)
        assert schedule_mdfg(rec, overlay.adg) is None
        rmw = lower(get_workload("accumulate"), unroll=1, use_recurrence=False)
        assert schedule_mdfg(rmw, overlay.adg) is not None

    def test_relaxation_picks_best_schedulable(self, overlay):
        s = schedule_workload(
            generate_variants(get_workload("stencil-2d")),
            overlay.adg,
            overlay.params,
        )
        assert s is not None
        # stencil-2d at full unroll needs 9 wide ports; must have relaxed.
        assert s.mdfg.unroll < 8

    def test_missing_capability_fails(self):
        adg = mesh_adg(
            2, 2, caps=caps_for_dtype(I64, (Op.ADD,)), width_bits=512
        )
        mdfg = lower(get_workload("mm"), unroll=1)  # needs f64 mul
        assert schedule_mdfg(mdfg, adg) is None


def _exhaustive_walk(variants, adg, params):
    """``schedule_workload`` as it was: map every variant, keep the first
    with the highest estimated IPC ("strictly greater replaces")."""
    best = None
    for mdfg in variants.variants:
        schedule = schedule_mdfg(mdfg, adg, params)
        if schedule is None:
            continue
        if best is None or schedule.estimate.ipc > best.estimate.ipc:
            best = schedule
    return best


def _outcome(walk, variants, adg, params):
    """The golden's digest of what ``walk`` chose, or the exception type."""
    try:
        return schedule_digest(walk(variants, adg, params))
    except Exception as exc:
        return type(exc)


class TestBestFirst:
    """``schedule_workload`` routes variants best estimate first and stops
    at the first that maps; it must choose what mapping all of them did."""

    def test_matches_exhaustive_walk_on_golden_overlays(self):
        families = [generate_variants(w) for w in all_workloads()]
        for sysadg in overlays():
            for variants in families:
                args = (variants, sysadg.adg, sysadg.params)
                assert _outcome(schedule_workload, *args) == _outcome(
                    _exhaustive_walk, *args
                ), (sysadg.name, variants.workload.name)

    def test_matches_exhaustive_walk_on_random_cases(self):
        for i in range(30):
            case = random_case(f"best-first:{i}")
            args = (
                generate_variants(case.program.build()),
                case.adg(),
                case.system_params(),
            )
            assert _outcome(schedule_workload, *args) == _outcome(
                _exhaustive_walk, *args
            ), i

    def test_work_counts_on_general(self, overlay):
        """Work, not time: every variant is lowered once, the IPC ceiling
        leaves 56 of 158 unbound, 65 of the 102 bound are priced and 29 are
        placed and routed (binding and pricing every variant bound 158 and
        priced 111; mapping every bound variant routed all 111; lowering
        both forms everywhere lowered 268)."""
        generate_variants.cache_clear()
        with tracing(Tracer()) as tracer:
            families = [generate_variants(w) for w in all_workloads()]
            for variants in families:
                schedule_workload(variants, overlay.adg, overlay.params)
        spans = Counter(s.name for s in tracer.spans())
        assert sum(len(v.variants) for v in families) == 158
        assert spans["compiler.lower"] == 158
        assert spans["scheduler.order"] == 28
        assert spans["scheduler.bind"] == 102
        assert spans["scheduler.price"] == 65
        assert spans["scheduler.place_route"] == 29
        assert tracer.counters() == {
            "scheduler.variants": 158.0,
            "scheduler.bound": 56.0,
        }


class TestBeat:
    """With ``beat``, ``schedule_workload`` returns the unpruned winner
    when its IPC is above ``beat`` and None otherwise, and it places and
    routes no more variants than the unpruned run."""

    def test_prunes_only_what_cannot_beat(self, monkeypatch):
        from repro.scheduler import spatial

        routed = [0]
        place_route = spatial._place_route

        def counted(*args):
            routed[0] += 1
            return place_route(*args)

        monkeypatch.setattr(spatial, "_place_route", counted)

        def run(*args):
            routed[0] = 0
            schedule = schedule_workload(*args)
            return schedule, schedule_digest(schedule), routed[0]

        families = [generate_variants(w) for w in all_workloads()]
        for sysadg in overlays():
            for variants in families:
                args = (variants, sysadg.adg, sysadg.params)
                winner, unpruned, most = run(*args)
                ipc = winner.estimate.ipc if winner else 0.0
                for beat, expected in (
                    (math.nextafter(ipc, -math.inf), unpruned),
                    (ipc, schedule_digest(None)),
                ):
                    _, outcome, work = run(*args, beat)
                    where = (sysadg.name, variants.workload.name, beat)
                    assert outcome == expected, where
                    assert work <= most, where


def _bound_estimates(variants, adg, params):
    """``(estimate.ipc, ipc_ceiling)`` of every variant that binds."""
    out = []
    for mdfg in variants.variants:
        schedule = Schedule(mdfg=mdfg, adg_version=adg.version)
        try:
            bind_memory(mdfg, adg, schedule)
        except ScheduleError:
            continue
        estimate = estimate_ipc(mdfg, schedule.binding(), adg, params)
        out.append((estimate.ipc, ipc_ceiling(mdfg, params)))
    return out


class TestIpcCeiling:
    """No binding prices a variant above its binding-free ceiling, so the
    variants ``schedule_workload`` leaves unbound could not have won."""

    def test_bound_holds_on_golden_overlays(self):
        families = [generate_variants(w) for w in all_workloads()]
        for sysadg in overlays():
            for variants in families:
                pairs = _bound_estimates(variants, sysadg.adg, sysadg.params)
                for ipc, ceiling in pairs:
                    assert ipc <= ceiling, (sysadg.name, variants.workload.name)

    def test_bound_holds_on_random_cases(self):
        for i in range(30):
            case = random_case(f"best-first:{i}")
            variants = generate_variants(case.program.build())
            params = case.system_params()
            for ipc, ceiling in _bound_estimates(variants, case.adg(), params):
                assert ipc <= ceiling, i

    def test_equal_variants_tie_to_family_order(self, overlay):
        """Two equal lowerings of one kernel, priced below their ceiling so
        both are bound: the first wins, as it does in the walk that maps
        both."""
        workload = get_workload("stencil-2d")
        variants = VariantSet(workload, [lower(workload, unroll=1) for _ in "ab"])
        args = (variants, overlay.adg, overlay.params)
        assert schedule_workload(*args).mdfg is variants.variants[0]
        assert _exhaustive_walk(*args).mdfg is variants.variants[0]


class TestStructuredFailure:
    """Infeasible mappings come back as data, never exceptions."""

    def test_success_has_no_failure(self, overlay):
        mdfg = lower(get_workload("fir"), unroll=1, use_recurrence=False)
        attempt = attempt_schedule(mdfg, overlay.adg, overlay.params)
        assert attempt.ok
        assert attempt.failure is None
        assert attempt.schedule.estimate is not None

    def test_missing_capability_reports_placement(self):
        # Integer-only PEs cannot host mm's f64 multiplies.
        adg = mesh_adg(
            2, 2, caps=caps_for_dtype(I64, (Op.ADD,)), width_bits=512
        )
        mdfg = lower(get_workload("mm"), unroll=1)
        attempt = attempt_schedule(mdfg, adg)
        assert not attempt.ok and attempt.schedule is None
        assert isinstance(attempt.failure, ScheduleFailure)
        assert attempt.failure.stage == "placement"
        assert "no PE supports" in attempt.failure.reason

    def test_oversubscribed_pes_fail_structurally(self):
        # A 1x1 mesh has a single PE; any multi-op DFG over-subscribes it.
        adg = mesh_adg(
            1, 1, caps=caps_for_dtype(F64, (Op.ADD, Op.MUL)), width_bits=512
        )
        mdfg = lower(get_workload("mm"), unroll=1)
        attempt = attempt_schedule(mdfg, adg)
        assert not attempt.ok
        assert attempt.failure.stage in (
            "binding", "placement", "routing", "skew"
        )

    def test_indirect_unsupported_reports_binding(self):
        adg = mesh_adg(
            2,
            2,
            caps=caps_for_dtype(F64, (Op.ADD, Op.MUL)),
            width_bits=256,
            spad_specs=((16384, 32, False),),
            dma_indirect=False,
        )
        mdfg = lower(get_workload("ellpack"), unroll=1)
        attempt = attempt_schedule(mdfg, adg)
        assert not attempt.ok
        assert attempt.failure.stage == "binding"
        assert "indirect" in attempt.failure.reason

    def test_schedule_error_carries_stage(self):
        err = ScheduleError("boom")
        assert err.stage == "schedule"
        err = ScheduleError("boom", stage="routing")
        assert err.stage == "routing"

    def test_every_workload_gets_schedule_or_diagnosis(self, overlay):
        # On a starved ADG nothing escapes as an exception.
        adg = mesh_adg(
            1, 1, caps=caps_for_dtype(I16, (Op.ADD,)), width_bits=64
        )
        for w in all_workloads():
            for mdfg in generate_variants(w).variants:
                attempt = attempt_schedule(mdfg, adg)
                assert attempt.ok or attempt.failure.reason


class TestRepair:
    def _scheduled(self, overlay):
        adg = overlay.adg.clone()
        mdfg = lower(get_workload("fir"), unroll=2, use_recurrence=False)
        s = schedule_mdfg(mdfg, adg, overlay.params)
        assert s is not None
        return adg, mdfg, s

    def test_noop_mutation_keeps_schedule(self, overlay):
        adg, mdfg, s = self._scheduled(overlay)
        #

        used = set(s.placement.values()).union(*s.routes.values())
        unused_pes = [p.node_id for p in adg.pes if p.node_id not in used]
        adg.remove_node(unused_pes[0])
        repaired = repair_schedule(s, adg, overlay.params)
        assert repaired is not None
        assert repaired.placement == s.placement

    def test_removing_used_pe_triggers_reschedule(self, overlay):
        adg, mdfg, s = self._scheduled(overlay)
        used_pe = next(
            s.placement[c.node_id] for c in mdfg.compute_nodes
        )
        adg.remove_node(used_pe)
        repaired = repair_schedule(s, adg, overlay.params)
        assert repaired is not None  # plenty of spare PEs
        assert check_schedule(repaired, adg) == []
        assert used_pe not in repaired.placement.values()

    def test_capability_pruning_detected(self, overlay):
        adg, mdfg, s = self._scheduled(overlay)
        mul_node = next(
            c for c in mdfg.compute_nodes if c.op is Op.MUL
        )
        pe_id = s.placement[mul_node.node_id]
        from repro.adg import caps_for_dtype as cfd

        adg.replace_node(pe_id, caps=cfd(F64, (Op.ADD,)))  # drop MUL
        repaired = repair_schedule(s, adg, overlay.params)
        assert repaired is not None
        new_pe = repaired.placement[mul_node.node_id]
        assert new_pe != pe_id

    def test_schedule_validity_check(self, overlay):
        adg, mdfg, s = self._scheduled(overlay)
        assert list(hardware_violations(s, adg)) == []
        used = sorted(set(s.placement.values()).union(*s.routes.values()))
        adg.remove_node(used[0])
        assert any(hardware_violations(s, adg))

    def test_ladder_contract(self):
        """Golden (overlay, workload) pairs x seeded DSE edits: rung 0
        returns the schedule itself exactly when revalidation accepts a
        clone; anything else is a new, valid, legal schedule, repaired
        under one ``scheduler.repair`` span."""
        edits = {
            "collapse": lambda adg, s, rng: collapse_random_switch(
                adg, [s], rng
            ),
            "prune": lambda adg, s, rng: prune_capabilities(adg, [s]),
            "random": lambda adg, s, rng: apply_random_transform(adg, rng),
        }
        outcomes = Counter()
        for ov in overlays():
            for name in ("fir", "crs"):
                base = schedule_workload(
                    generate_variants(get_workload(name)), ov.adg, ov.params
                )
                if base is None:
                    continue
                for (edit, apply), seed in itertools.product(
                    edits.items(), range(4)
                ):
                    adg, s = ov.adg.clone(), base.clone()
                    try:
                        apply(adg, s, random.Random(seed))
                    except TransformFailed:
                        continue
                    kept = revalidate_schedule(s.clone(), adg, ov.params)
                    with tracing(Tracer()) as tracer:
                        out = repair_schedule(s, adg, ov.params)
                    spans = Counter(x.name for x in tracer.spans())
                    case = (ov.name, name, edit, seed)
                    assert (out is s) == (kept is not None), case
                    assert spans["scheduler.revalidate"] == 1, case
                    assert spans["scheduler.repair"] == (out is not s), case
                    if out is not None and out is not s:
                        assert check_schedule(out, adg) == [], case
                    outcomes[out is s] += 1
        assert outcomes[True] and outcomes[False]


# ----------------------------------------------------------------------
# The one legality rule: each corruption of fir on General (of crs on its
# seed fabric where named in _ON_CRS), and the one finding kind it must
# raise.
# ----------------------------------------------------------------------
def _first_stream(s):
    """A placed stream: no route touches its engine."""
    return s.mdfg.streams[0].node_id


def _remove_placed_engine(adg, s):
    adg.remove_node(s.placement[_first_stream(s)])


def _place_on_missing_hw(adg, s):
    s.placement[_first_stream(s)] = 10_000


def _remove_route_link(adg, s):
    path = next(iter(s.routes.values()))
    adg.remove_link(path[0], path[1])


def _drop_pe_capability(adg, s):
    node = s.mdfg.compute_nodes[0]
    pe = adg.node(s.placement[node.node_id])
    adg.replace_node(pe.node_id, caps=pe.caps - {cap_for(node.op, node.dtype)})


def _narrow_port(adg, s):
    port = next(n for n in s.mdfg.nodes() if isinstance(n, InputPortNode))
    adg.replace_node(s.placement[port.node_id], width_bytes=port.width_bytes // 2)


def _move_route_end(adg, s):
    key = max(s.routes, key=lambda k: len(s.routes[k]))
    s.routes[key] = s.routes[key][:-1]      # now ends on a switch


def _share_link(adg, s):
    """Detour one value through a switch-to-switch link another drives."""
    (ka, a), (kb, b) = next(
        (ra, rb)
        for ra, rb in itertools.permutations(s.routes.items(), 2)
        if len(ra[1]) >= 4 and ra[0][0] != rb[0][0]
    )
    state = RoutingState(adg)
    s.routes[kb] = find_route(adg, state, b[0], a[1], kb[0], 0) + find_route(
        adg, state, a[2], b[-1], kb[0], 0
    )


def _share_pe(adg, s):
    """Move one compute node onto the other's PE and reroute its values."""
    first, second = (c.node_id for c in s.mdfg.compute_nodes)
    s.placement[second] = s.placement[first]
    moved = [k for k in s.routes if second in k[:2]]
    state = RoutingState(adg)
    for key, path in s.routes.items():
        if key not in moved:
            state.claim_path(path, key[0])
    for key in moved:
        src, dst, _slot = key
        path = find_route(adg, state, s.placement[src], s.placement[dst], src, 0)
        state.claim_path(path, src)
        s.routes[key] = path


def _shrink_spad(adg, s):
    """fir's three arrays share one scratchpad; halve it."""
    spad = adg.node(s.placement[_first_stream(s)])
    adg.replace_node(spad.node_id, capacity_bytes=spad.capacity_bytes // 2)


def _unlink_engine(adg, s):
    stream = _first_stream(s)
    adg.remove_link(s.placement[stream], s.placement[s.mdfg.node(stream).port])


def _drop_indirect_support(adg, s):
    """crs gathers x through an indirect scratchpad."""
    (spad,) = {hw for hw in s.placement.values() if isinstance(adg.node(hw), SpadEngine)}
    adg.replace_node(spad, indirect=False)


_HARDWARE_KINDS = {"missing_node", "capability", "port_width", "missing_link"}
_ROUTE_KINDS = {"missing_link", "endpoint", "interior_hop", "shared_link"}
_ON_CRS = {"spad-loses-indirect"}
_CORRUPTIONS = {
    "placed-hardware-removed": ("missing_node", _remove_placed_engine),
    "placed-on-missing-hardware": ("missing_node", _place_on_missing_hw),
    "route-link-removed": ("missing_link", _remove_route_link),
    "pe-capability-dropped": ("capability", _drop_pe_capability),
    "port-narrowed": ("port_width", _narrow_port),
    "route-endpoint-moved": ("endpoint", _move_route_end),
    "two-values-on-one-link": ("shared_link", _share_link),
    "two-instructions-on-one-pe": ("shared_pe", _share_pe),
    "spad-over-capacity": ("capacity", _shrink_spad),
    "engine-port-link-removed": ("engine_link", _unlink_engine),
    "spad-loses-indirect": ("indirect", _drop_indirect_support),
}


class TestLegality:
    @pytest.fixture(scope="class")
    def fir(self, overlay):
        s = schedule_workload(
            generate_variants(get_workload("fir")), overlay.adg, overlay.params
        )
        assert len(s.mdfg.compute_nodes) == 2 and len(s.routes) == 5
        return s

    def test_scheduled_fir_is_legal(self, overlay, fir):
        assert list(schedule_violations(fir, overlay.adg)) == []

    @pytest.mark.parametrize("corruption", list(_CORRUPTIONS))
    def test_corruption_matrix(self, overlay, fir, corruption):
        kind, corrupt = _CORRUPTIONS[corruption]
        if corruption in _ON_CRS:
            adg, s = self._on_seed("crs")
        else:
            adg, s = overlay.adg.clone(), fir.clone()
        corrupt(adg, s)
        found = list(schedule_violations(s, adg))
        hardware = list(hardware_violations(s, adg))
        assert {f.kind for f in found} == {kind}, found
        for f in found:
            assert f.piece in (s.routes if kind in _ROUTE_KINDS else s.placement)
        assert hardware == [f for f in found if f.kind in _HARDWARE_KINDS]
        rejected = revalidate_schedule(s.clone(), adg, overlay.params) is None
        assert rejected == bool(hardware)
        assert check_schedule(s, adg) == [
            Violation("schedule", str(f)) for f in found
        ]

    @staticmethod
    def _on_seed(name):
        workload = get_workload(name)
        adg = seed_for_workloads([workload])
        s = schedule_workload(generate_variants(workload), adg, SystemParams())
        assert s is not None
        return adg, s

    @pytest.mark.xfail(
        strict=True,
        reason="ROADMAP item 1: legality does not check a spad's indirect "
        "support",
    )
    def test_indirect_gather_needs_an_indirect_spad(self):
        adg, s = self._on_seed("crs")
        spad = next(
            s.placement[n.node_id]
            for n in s.mdfg.streams
            if n.indirect and isinstance(adg.node(s.placement[n.node_id]), SpadEngine)
        )
        adg.replace_node(spad, indirect=False)
        assert revalidate_schedule(s, adg, SystemParams()) is None

    @pytest.mark.xfail(
        strict=True,
        reason="ROADMAP item 1: legality does not check a stream's "
        "engine-to-port link",
    )
    def test_bound_stream_needs_its_port_link(self):
        kept = []
        for name in ("crs", "fir", "mm", "gemm", "ellpack", "stencil-2d"):
            adg, s = self._on_seed(name)
            stream = s.mdfg.node(1)
            engine, port = s.placement[1], s.placement[stream.port]
            if isinstance(s.mdfg.node(stream.port), InputPortNode):
                adg.remove_link(engine, port)
            else:
                adg.remove_link(port, engine)
            if revalidate_schedule(s, adg, SystemParams()) is not None:
                kept.append(name)
        assert kept == []
