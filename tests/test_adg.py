"""Tests for ADG construction, mutation, and validation."""

import pickle
from pathlib import Path

import pytest

from repro.adg import (
    ADG,
    ENGINE_KINDS,
    AdgError,
    FuCap,
    NodeKind,
    ProcessingElement,
    Switch,
    SystemParams,
    cap_for,
    caps_for_dtype,
    general_overlay,
    mesh_adg,
    seed_for_workloads,
    universal_caps,
)
from repro.ir import F64, I16, I64, Op
from repro.workloads import get_suite


def tiny_adg():
    adg = ADG()
    sw = adg.add_switch()
    pe = adg.add_pe(caps=frozenset({FuCap(Op.ADD, False, 64)}))
    ip = adg.add_in_port(width_bytes=8)
    op = adg.add_out_port(width_bytes=8)
    dma = adg.add_dma()
    adg.add_link(dma, ip)
    adg.add_link(ip, sw)
    adg.add_link(sw, pe)
    adg.add_link(pe, sw)
    adg.add_link(sw, op)
    adg.add_link(op, dma)
    return adg, sw, pe, ip, op, dma


class TestGraphBasics:
    def test_build_and_validate(self):
        adg, *_ = tiny_adg()
        adg.validate()
        assert len(adg.pes) == 1
        assert len(adg.links()) == 6

    def test_illegal_link_rejected(self):
        adg = ADG()
        dma = adg.add_dma()
        pe = adg.add_pe()
        with pytest.raises(AdgError, match="illegal link"):
            adg.add_link(dma, pe)

    def test_in_port_to_out_port_direct_rejected(self):
        adg = ADG()
        ip = adg.add_in_port()
        op = adg.add_out_port()
        with pytest.raises(AdgError):
            adg.add_link(ip, op)

    def test_remove_node_cleans_links(self):
        adg, sw, pe, ip, *_ = tiny_adg()
        adg.remove_node(sw)
        assert not adg.has_node(sw)
        assert all(sw not in (s, d) for s, d in adg.links())

    def test_remove_unknown_node(self):
        adg, *_ = tiny_adg()
        with pytest.raises(AdgError):
            adg.remove_node(999)

    def test_replace_node_keeps_links(self):
        adg, sw, pe, *_ = tiny_adg()
        before = adg.links()
        adg.replace_node(pe, width_bits=128)
        assert adg.node(pe).width_bits == 128
        assert adg.links() == before

    def test_version_bumps_on_mutation(self):
        adg, sw, pe, *_ = tiny_adg()
        v = adg.version
        adg.replace_node(pe, width_bits=256)
        assert adg.version > v

    def test_clone_is_independent(self):
        adg, sw, pe, *_ = tiny_adg()
        other = adg.clone()
        other.remove_node(pe)
        assert adg.has_node(pe)
        assert not other.has_node(pe)

    def test_radix(self):
        adg, sw, *_ = tiny_adg()
        assert adg.radix(sw) == 4  # ip->sw, pe->sw in; sw->pe, sw->op out


def scan(adg):
    """Every kind / id-order query answered from scratch, off ``_nodes``."""
    nodes = [adg._nodes[i] for i in sorted(adg._nodes)]
    doc = {kind: [n for n in nodes if n.kind is kind] for kind in NodeKind}
    doc["ids"] = [n.node_id for n in nodes]
    doc["nodes"] = nodes
    doc["engines"] = [n for n in nodes if n.kind in ENGINE_KINDS]
    doc["routing"] = (
        {n.node_id: tuple(sorted(adg._out[n.node_id])) for n in nodes},
        {n.node_id: n.width_bits for n in doc[NodeKind.SWITCH]},
    )
    return doc


def queries(adg):
    doc = {kind: adg.of_kind(kind) for kind in NodeKind}
    for kind, by_property in (
        (NodeKind.PE, adg.pes),
        (NodeKind.SWITCH, adg.switches),
        (NodeKind.IN_PORT, adg.in_ports),
        (NodeKind.OUT_PORT, adg.out_ports),
        (NodeKind.SPAD, adg.spads),
        (NodeKind.DMA, adg.dmas),
    ):
        assert by_property == doc[kind]
    doc["ids"] = adg.node_ids()
    doc["nodes"] = list(adg.nodes())
    doc["engines"] = adg.engines
    doc["routing"] = tuple(adg.routing())
    return doc


class TestViews:
    """Queries come from a per-``version`` view; no edit may outlive it."""

    def test_every_mutator_drops_the_view(self):
        adg, sw, pe, ip, op, dma = tiny_adg()
        edits = [
            lambda a: a.add_node(Switch),
            lambda a: a.add_spad(capacity_bytes=4096),
            lambda a: a.add_link(a.spads[0].node_id, ip),
            lambda a: a.remove_link(a.spads[0].node_id, ip),
            lambda a: a.replace_node(pe, width_bits=256),
            lambda a: a.remove_node(a.spads[0].node_id),
            lambda a: a.restore_counters(a._next_id + 3, a.version + 7),
        ]
        for edit in edits:
            assert queries(adg) == scan(adg)  # warm the view, then edit
            edit(adg)
            assert queries(adg) == scan(adg)
        clone = adg.clone()
        assert queries(clone) == scan(clone) == scan(adg)

    def test_a_link_edit_keeps_the_node_view(self):
        adg, sw, pe, ip, op, dma = tiny_adg()
        view, routing = adg._views(), adg.routing()
        adg.remove_link(ip, sw)
        assert adg._views() is view and adg.routing() != routing
        adg.add_link(ip, sw)
        assert adg._views() is view and adg.routing() == routing
        adg.replace_node(pe, width_bits=256)
        assert adg._views() is not view

    def test_returned_lists_are_the_callers(self):
        adg, *_ = tiny_adg()
        for take in (
            lambda: adg.pes, lambda: adg.engines, adg.node_ids,
            lambda: adg.of_kind(NodeKind.SWITCH),
        ):
            first = take()
            first.clear()
            assert take() and queries(adg) == scan(adg)

    def test_clone_and_original_edit_apart(self):
        adg, sw, pe, *_ = tiny_adg()
        assert len(adg.pes) == 1           # view is current when cloned
        clone = adg.clone()
        clone.add_pe()
        assert len(clone.pes) == 2 and len(adg.pes) == 1
        adg.remove_node(pe)
        assert len(clone.pes) == 2 and adg.pes == []
        assert queries(adg) == scan(adg) and queries(clone) == scan(clone)

    def test_view_is_not_pickled(self):
        adg, *_ = tiny_adg()
        cold = pickle.dumps(adg)
        queries(adg)
        assert pickle.dumps(adg) == cold
        assert pickle.dumps(adg.clone()) == cold
        loaded = pickle.loads(cold)
        assert "_view" not in vars(loaded) and "_routing" not in vars(loaded)
        assert queries(loaded) == scan(loaded)

    def test_a_pickle_from_before_views_loads(self):
        """``fixtures/adg_parent_6f52662.pkl``: ``pickle.dumps(adg, 4)`` at
        the commit before views existed (dma, ip, sw, pe, op; a sixth node
        added and removed, so the allocator is past max id + 1)."""
        blob = (
            Path(__file__).parent / "fixtures" / "adg_parent_6f52662.pkl"
        ).read_bytes()
        adg = pickle.loads(blob)
        assert pickle.dumps(adg, protocol=4) == blob
        assert queries(adg) == scan(adg)
        assert [n.kind.value for n in adg.nodes()] == [
            "dma", "ip", "sw", "pe", "op",
        ]
        assert adg.add_switch() == 6 and len(adg.switches) == 2
        assert pickle.dumps(pickle.loads(blob), protocol=4) == blob

    def test_restore_counters_to_an_equal_stamp_drops_the_view(self):
        """``adg_from_dict`` + ``restore_counters`` can land on the stamp
        a view was cached at; the stamp alone must not keep it alive."""
        adg, sw, pe, *_ = tiny_adg()
        stale = adg.pes
        adg._nodes[pe] = ProcessingElement(pe, width_bits=512)
        adg.restore_counters(adg._next_id, adg.version)
        assert adg.pes != stale and adg.pes[0].width_bits == 512


class TestAllocator:
    def test_explicit_ids_out_of_order_do_not_over_advance(self):
        """ids 5 then 3 left the allocator at 7, and ``restore_counters(6)``
        then refused a valid checkpoint."""
        adg = ADG()
        adg.add_node(Switch, node_id=5)
        adg.add_node(Switch, node_id=3)
        assert adg._next_id == 6
        adg.restore_counters(6, 2)
        assert adg.add_switch() == 6


class TestCapabilities:
    def test_cap_for_dtype(self):
        cap = cap_for(Op.MUL, F64)
        assert cap.is_float and cap.bits == 64

    def test_cap_for_is_memoised(self):
        assert cap_for(Op.MUL, I16) is cap_for(Op.MUL, I16)
        assert cap_for(Op.MUL, I16) == FuCap(Op.MUL, False, 16)
        with pytest.raises(ValueError):
            cap_for(Op.SHL, F64)

    def test_f32x2_uses_scalar_width(self):
        from repro.ir import F32X2

        assert cap_for(Op.ADD, F32X2).bits == 32

    def test_int_only_op_rejects_float(self):
        with pytest.raises(ValueError):
            FuCap(Op.SHL, True, 32)

    def test_float_only_op_rejects_int(self):
        with pytest.raises(ValueError):
            FuCap(Op.SQRT, False, 32)

    def test_bad_width_rejected(self):
        with pytest.raises(ValueError):
            FuCap(Op.ADD, False, 12)

    def test_caps_for_dtype_filters(self):
        caps = caps_for_dtype(I64, (Op.ADD, Op.SQRT))
        assert all(not c.is_float for c in caps)
        assert len(caps) == 1  # sqrt has no integer variant

    def test_universal_caps_cover_everything(self):
        caps = universal_caps()
        assert cap_for(Op.DIV, F64) in caps
        assert cap_for(Op.SHL, I16) in caps

    def test_pe_supports_checks_width(self):
        from repro.adg import ProcessingElement

        pe = ProcessingElement(
            0, caps=frozenset({cap_for(Op.ADD, F64)}), width_bits=128
        )
        assert pe.supports(Op.ADD, F64, lanes=2)
        assert not pe.supports(Op.ADD, F64, lanes=4)
        assert not pe.supports(Op.MUL, F64, lanes=1)


class TestBuilders:
    def test_mesh_dimensions(self):
        adg = mesh_adg(2, 3, caps=frozenset({cap_for(Op.ADD, I64)}))
        assert len(adg.pes) == 6
        assert len(adg.switches) == 12  # (2+1) x (3+1)
        adg.validate()

    def test_general_overlay_matches_table3(self):
        g = general_overlay()
        assert len(g.adg.pes) == 24
        assert len(g.adg.switches) == 35
        assert g.params.num_tiles == 4
        assert g.params.l2_kib == 512
        assert sum(p.width_bytes for p in g.adg.in_ports) == 224
        assert sum(p.width_bytes for p in g.adg.out_ports) == 160
        pe = g.adg.pes[0]
        assert pe.width_bits == 512  # max vectorization width

    def test_general_overlay_spad(self):
        g = general_overlay()
        spads = g.adg.spads
        assert len(spads) == 1
        assert spads[0].capacity_bytes == 32 * 1024
        assert spads[0].indirect

    def test_seed_for_workloads_covers_ops(self):
        adg = seed_for_workloads(get_suite("dsp"))
        adg.validate()
        ops = {c.op for pe in adg.pes for c in pe.caps if c.is_float}
        assert Op.MUL in ops and Op.DIV in ops

    def test_memory_side_fully_connected_in_mesh(self):
        adg = mesh_adg(1, 1, caps=frozenset({cap_for(Op.ADD, I64)}))
        for engine in adg.engines:
            for port in adg.in_ports:
                assert adg.has_link(engine.node_id, port.node_id)


class TestSystemParams:
    def test_defaults_valid(self):
        SystemParams()

    def test_l2_banks_power_of_two(self):
        with pytest.raises(ValueError):
            SystemParams(l2_banks=3)

    def test_tiles_positive(self):
        with pytest.raises(ValueError):
            SystemParams(num_tiles=0)

    def test_dram_bandwidth_scales_with_channels(self):
        one = SystemParams(dram_channels=1)
        two = SystemParams(dram_channels=2)
        assert two.dram_bytes_per_cycle == pytest.approx(
            2 * one.dram_bytes_per_cycle
        )

    def test_with_params(self):
        g = general_overlay()
        h = g.with_params(num_tiles=2)
        assert h.params.num_tiles == 2
        assert g.params.num_tiles == 4
        assert h.adg is g.adg
