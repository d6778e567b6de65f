"""Cross-cutting property-based tests on core invariants.

These pin down the contracts the subsystems rely on:

* reuse analysis agrees with brute-force enumeration of small loop nests;
* scheduler routes are link-contiguous, switch-interior, and exclusive;
* single-source route distances agree with per-destination ``find_route``,
  and both match the per-hop reference BFS through every ADG edit;
* the performance model is monotone in every provisioned resource;
* simulator accounting conserves stream totals.
"""

import itertools
from collections import deque

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.adg import (
    NodeKind,
    general_overlay,
    mesh_adg,
    universal_caps,
)
from repro.compiler import affine_span, generate_variants, lower
from repro.ir import Affine, F64, WorkloadBuilder
from repro.model.perf import MemoryBinding, estimate_ipc
from repro.scheduler import (
    RoutingState,
    bind_engines,
    find_route,
    route_distances,
    schedule_mdfg,
    schedule_workload,
)
from repro.workloads import get_workload


# ----------------------------------------------------------------------
# Reuse analysis vs brute force
# ----------------------------------------------------------------------
@st.composite
def small_nest(draw):
    trips = draw(
        st.lists(st.integers(1, 6), min_size=1, max_size=3)
    )
    coeffs = draw(
        st.lists(st.integers(-4, 4), min_size=len(trips), max_size=len(trips))
    )
    const = draw(st.integers(0, 5))
    return trips, coeffs, const


@given(small_nest())
@settings(max_examples=60, deadline=None)
def test_affine_span_covers_brute_force(case):
    trips, coeffs, const = case
    names = [f"v{i}" for i in range(len(trips))]
    wb = WorkloadBuilder("t", suite="test", dtype=F64)
    arr = wb.array("a", 10_000)
    for name, trip in zip(names, trips):
        wb.loop(name, trip)
    index = Affine.of(dict(zip(names, coeffs)), const)
    wb.assign(arr[0], arr[index])
    w = wb.build()
    # Brute force: enumerate every iteration point.
    touched = {
        index.evaluate(dict(zip(names, point)))
        for point in itertools.product(*(range(t) for t in trips))
    }
    span = affine_span(w, index)
    distinct = max(touched) - min(touched) + 1 if touched else 1
    # span is the exact interval width the analysis claims.
    assert span == distinct


# ----------------------------------------------------------------------
# Scheduler route invariants
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def overlay():
    return general_overlay()


@pytest.mark.parametrize(
    "name", ["fir", "mm", "bgr2grey", "stencil-3d", "crs", "blur"]
)
def test_route_invariants(overlay, name):
    schedule = schedule_workload(
        generate_variants(get_workload(name)), overlay.adg, overlay.params
    )
    assert schedule is not None
    adg = overlay.adg
    link_owner = {}
    for (src_dfg, dst_dfg, _slot), path in schedule.routes.items():
        # Endpoints match the placements.
        assert path[0] == schedule.placement[src_dfg]
        assert path[-1] == schedule.placement[dst_dfg]
        # Contiguous hardware links, interior hops are switches.
        for a, b in zip(path, path[1:]):
            assert adg.has_link(a, b), (name, a, b)
        for hop in path[1:-1]:
            assert adg.node(hop).kind is NodeKind.SWITCH
        # Link exclusivity: one value per link (same source may share).
        for link in zip(path, path[1:]):
            owner = link_owner.setdefault(link, src_dfg)
            assert owner == src_dfg, (name, link)


@pytest.mark.parametrize("name", ["fir", "gemm", "acc-weight"])
def test_dedicated_pe_exclusivity(overlay, name):
    schedule = schedule_workload(
        generate_variants(get_workload(name)), overlay.adg, overlay.params
    )
    pes = [
        hw
        for dfg, hw in schedule.placement.items()
        if overlay.adg.node(hw).kind.value == "pe"
    ]
    assert len(pes) == len(set(pes))


@st.composite
def congested_fabric(draw):
    """A small mesh with links dropped, switch widths mixed, links owned."""
    rng = draw(st.randoms(use_true_random=False))
    adg = mesh_adg(
        draw(st.integers(1, 3)),
        draw(st.integers(1, 3)),
        caps=universal_caps(),
        width_bits=64,
    )
    for link in adg.links():
        if rng.random() < 0.15:
            adg.remove_link(*link)
    for switch in adg.switches:
        adg.replace_node(switch.node_id, width_bits=rng.choice((32, 64, 128)))
    state = RoutingState(adg)
    for link in adg.links():
        if rng.random() < 0.3:
            state.link_owner[link] = rng.choice((1, 2, 3))
    return adg, state


@given(
    congested_fabric(),
    st.integers(1, 3),
    st.sampled_from([0, 1, 2, 3, 5, 24]),
)
@settings(max_examples=40, deadline=None)
def test_route_distances_agree_with_find_route(fabric, source_dfg, max_hops):
    """One BFS per source reports exactly ``find_route``'s hop counts,
    reachability and ``max_hops`` cut-off, for every endpoint."""
    adg, state = fabric
    for src in adg.node_ids():
        for width in (32, 64, 128):
            hops = route_distances(
                adg, state, src, source_dfg, width, max_hops=max_hops
            )
            for dst in adg.node_ids():
                path = find_route(
                    adg, state, src, dst, source_dfg, width, max_hops=max_hops
                )
                want = None if path is None else len(path) - 1
                assert hops.get(dst) == want, (src, dst, width)
            assert set(hops) <= set(adg.node_ids())


# The router before it read ``ADG.routing()``: every hop asked the graph
# for the node, its kind and width, and the successor set, re-sorted.
# Kept as the oracle the view-based router must match route for route.
def reference_find_route(adg, state, src_hw, dst_hw, source_dfg, width_bits,
                         max_hops=24):
    if src_hw == dst_hw:
        return (src_hw,)
    queue = deque([(src_hw, (src_hw,))])
    seen = {src_hw}
    while queue:
        here, path = queue.popleft()
        if len(path) > max_hops:
            continue
        for nxt in sorted(adg.successors(here)):
            owner = state.link_owner.get((here, nxt))
            if owner is not None and owner != source_dfg:
                continue
            if nxt == dst_hw:
                return path + (nxt,)
            if nxt in seen or not reference_hop_ok(adg, nxt, width_bits):
                continue
            seen.add(nxt)
            queue.append((nxt, path + (nxt,)))
    return None


def reference_route_distances(adg, state, src_hw, source_dfg, width_bits,
                              max_hops=24):
    hops = {src_hw: 0}
    queue = deque([src_hw])
    while queue:
        here = queue.popleft()
        depth = hops[here] + 1
        if depth > max_hops:
            break
        for nxt in adg.successors(here):
            owner = state.link_owner.get((here, nxt))
            if nxt in hops or (owner is not None and owner != source_dfg):
                continue
            hops[nxt] = depth
            if reference_hop_ok(adg, nxt, width_bits):
                queue.append(nxt)
    return hops


def reference_hop_ok(adg, node_id, width_bits):
    node = adg.node(node_id)
    return node.kind is NodeKind.SWITCH and node.width_bits >= width_bits


def routes(adg, state, source_dfg, find=find_route, distances=route_distances):
    """Every (src, dst, width) route and every source's hop map."""
    out = {}
    for src in adg.node_ids():
        for width in (32, 64, 128):
            out[src, width] = distances(adg, state, src, source_dfg, width)
            for dst in adg.node_ids():
                out[src, dst, width] = find(
                    adg, state, src, dst, source_dfg, width
                )
    return out


def assert_routes_match_reference(adg, state, source_dfg):
    got = routes(adg, state, source_dfg)
    want = routes(
        adg, state, source_dfg, reference_find_route, reference_route_distances
    )
    assert got == want


@st.composite
def adg_edits(draw, adg):
    """One edit of each kind the routing view must follow."""
    switches = [s.node_id for s in adg.switches]
    links = adg.links()
    edits = []
    if len(switches) >= 2:
        src, dst = draw(st.permutations(switches))[:2]
        edits.append(("add_link", src, dst))
    if links:
        edits.append(("remove_link", *draw(st.sampled_from(links))))
    if switches:
        edits.append(("replace_node", draw(st.sampled_from(switches))))
        edits.append(("remove_node", draw(st.sampled_from(switches))))
    return draw(st.permutations(edits))


def apply_edit(adg, edit):
    kind, *args = edit
    if kind == "replace_node":
        (node_id,) = args
        if adg.has_node(node_id):
            adg.replace_node(node_id, width_bits=32)  # a narrowed switch
    elif kind == "remove_node":
        if adg.has_node(args[0]):
            adg.remove_node(args[0])
    elif all(adg.has_node(n) for n in args):
        getattr(adg, kind)(*args)


@given(congested_fabric(), st.integers(1, 3), st.data())
@settings(max_examples=15, deadline=None)
def test_routing_view_follows_every_edit(fabric, source_dfg, data):
    """Routes are the reference BFS's before and after each edit."""
    adg, state = fabric
    assert_routes_match_reference(adg, state, source_dfg)
    for edit in data.draw(adg_edits(adg)):
        apply_edit(adg, edit)
        assert_routes_match_reference(adg, state, source_dfg)


@given(congested_fabric(), st.integers(1, 3), st.data())
@settings(max_examples=25, deadline=None)
def test_editing_a_clone_leaves_the_original_routes(fabric, source_dfg, data):
    adg, state = fabric
    before = routes(adg, state, source_dfg)
    other = adg.clone()
    for edit in data.draw(adg_edits(adg)):
        apply_edit(other, edit)
    assert routes(adg, state, source_dfg) == before
    assert_routes_match_reference(other, state, source_dfg)


# ----------------------------------------------------------------------
# Performance-model monotonicity
# ----------------------------------------------------------------------
class TestModelMonotonicity:
    def _ipc(self, mdfg, overlay, **changes):
        from dataclasses import replace

        params = replace(overlay.params, **changes)
        binding = MemoryBinding(bind_engines(mdfg, overlay.adg))
        return estimate_ipc(mdfg, binding, overlay.adg, params).ipc

    @pytest.mark.parametrize("name", ["vecmax", "fir", "ellpack", "blur"])
    def test_more_l2_banks_never_hurt(self, overlay, name):
        mdfg = lower(get_workload(name), unroll=2)
        assert self._ipc(mdfg, overlay, l2_banks=16) >= self._ipc(
            mdfg, overlay, l2_banks=1
        )

    @pytest.mark.parametrize("name", ["vecmax", "accumulate", "mm"])
    def test_more_noc_never_hurts(self, overlay, name):
        # The rmw form: accumulate's recurrence outgrows General's buffer.
        mdfg = lower(get_workload(name), unroll=2, use_recurrence=False)
        assert self._ipc(mdfg, overlay, noc_bytes_per_cycle=64) >= self._ipc(
            mdfg, overlay, noc_bytes_per_cycle=16
        )

    @pytest.mark.parametrize("name", ["vecmax", "channel-ext"])
    def test_more_dram_never_hurts(self, overlay, name):
        mdfg = lower(get_workload(name), unroll=2)
        assert self._ipc(mdfg, overlay, dram_channels=4) >= self._ipc(
            mdfg, overlay, dram_channels=1
        )

    @pytest.mark.parametrize("name", ["fir", "mm", "bgr2grey"])
    def test_more_tiles_never_hurt(self, overlay, name):
        mdfg = lower(get_workload(name), unroll=2)
        binding = MemoryBinding(bind_engines(mdfg, overlay.adg))
        a = estimate_ipc(
            mdfg, binding, overlay.adg, overlay.params, num_tiles=1
        ).ipc
        b = estimate_ipc(
            mdfg, binding, overlay.adg, overlay.params, num_tiles=8
        ).ipc
        assert b >= a

    @pytest.mark.parametrize("name", ["fir", "blur", "gemm"])
    def test_reuse_awareness_never_hurts(self, overlay, name):
        mdfg = lower(get_workload(name), unroll=2)
        binding = MemoryBinding(bind_engines(mdfg, overlay.adg))
        aware = estimate_ipc(mdfg, binding, overlay.adg, overlay.params).ipc
        blind = estimate_ipc(
            mdfg, binding, overlay.adg, overlay.params, reuse_aware=False
        ).ipc
        assert aware >= blind


# ----------------------------------------------------------------------
# Simulator conservation
# ----------------------------------------------------------------------
@pytest.mark.parametrize("name", ["vecmax", "bgr2grey", "mm"])
def test_sim_conserves_stream_totals(overlay, name):
    from repro.sim.simulator import build_tile

    mdfg = lower(get_workload(name), unroll=2)
    schedule = schedule_mdfg(mdfg, overlay.adg, overlay.params)
    tiles = max(1, min(overlay.params.num_tiles, int(mdfg.tile_parallelism)))
    engines, fabric, pools = build_tile(schedule, overlay, tiles)
    for now in range(300_000):
        if fabric.done:
            for e in engines:
                for s in e.streams:
                    if s.is_read and not s.done:
                        s.moved = s.total_elements
        if fabric.done and all(e.done for e in engines):
            break
        for p in pools:
            p.refill()
        for e in engines:
            e.step(now)
        fabric.step(now)
    assert fabric.done
    for engine in engines:
        for stream in engine.streams:
            # Moved never exceeds the stream's total.
            assert stream.moved <= stream.total_elements * (1 + 1e-6)
    for pool in pools:
        # Pools never hand out more than refill x cycles.
        assert pool.consumed_total <= pool.bytes_per_cycle * (now + 1) + 1e-6
