"""Tests for ADG serialization round-trips and ASCII rendering."""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.adg import (
    ADG,
    SerializationError,
    adg_from_dict,
    adg_to_dict,
    caps_for_dtype,
    general_overlay,
    load_sysadg,
    mesh_adg,
    render_adg,
    render_sysadg,
    save_sysadg,
    sysadg_from_dict,
    sysadg_to_dict,
)
from repro.ir import F64, I16, I64, Op


def _structurally_equal(a: ADG, b: ADG) -> bool:
    if len(a.node_ids()) != len(b.node_ids()):
        return False
    if len(a.links()) != len(b.links()):
        return False
    for na, nb in zip(
        (a.node(i) for i in a.node_ids()), (b.node(i) for i in b.node_ids())
    ):
        if type(na) is not type(nb):
            return False
        if na.kind is not nb.kind:
            return False
    return True


class TestRoundTrip:
    def test_general_overlay_roundtrip(self, tmp_path):
        g = general_overlay()
        path = tmp_path / "overlay.json"
        save_sysadg(g, str(path))
        h = load_sysadg(str(path))
        assert h.params == g.params
        assert h.name == g.name
        assert _structurally_equal(g.adg, h.adg)

    def test_pe_caps_survive(self):
        adg = mesh_adg(1, 1, caps=caps_for_dtype(F64, (Op.ADD, Op.DIV)))
        again = adg_from_dict(adg_to_dict(adg))
        caps_a = {c.name for pe in adg.pes for c in pe.caps}
        caps_b = {c.name for pe in again.pes for c in pe.caps}
        assert caps_a == caps_b

    def test_engine_parameters_survive(self):
        adg = mesh_adg(
            1,
            1,
            caps=caps_for_dtype(I64, (Op.ADD,)),
            spad_specs=((4096, 16, True),),
            dma_bandwidth=64,
        )
        again = adg_from_dict(adg_to_dict(adg))
        spad = again.spads[0]
        assert spad.capacity_bytes == 4096
        assert spad.indirect
        assert again.dmas[0].bandwidth_bytes == 64

    def test_json_is_plain_data(self):
        doc = sysadg_to_dict(general_overlay())
        json.dumps(doc)  # must not raise

    def test_dse_output_roundtrips(self):
        # A pruned/padded evolved design survives serialization too.
        from repro.dse import DseConfig, explore
        from repro.workloads import get_workload

        res = explore(
            [get_workload("vecmax")], DseConfig(iterations=12, seed=6)
        )
        doc = sysadg_to_dict(res.sysadg)
        again = sysadg_from_dict(doc)
        assert again.params == res.sysadg.params
        assert _structurally_equal(res.sysadg.adg, again.adg)

    def test_version_check(self):
        doc = adg_to_dict(general_overlay().adg)
        doc["version"] = 99
        with pytest.raises(SerializationError):
            adg_from_dict(doc)

    def test_unknown_kind_rejected(self):
        doc = adg_to_dict(general_overlay().adg)
        doc["nodes"][0]["kind"] = "fpga"
        with pytest.raises(SerializationError):
            adg_from_dict(doc)

    @pytest.mark.parametrize(
        "damage",
        [
            lambda d: d["adg"]["nodes"].append(dict(d["adg"]["nodes"][0])),
            lambda d: d["adg"]["nodes"][0].pop("id"),
            lambda d: d["adg"]["nodes"][3].pop("width_bits"),
            lambda d: d["adg"]["nodes"][0].update(id="seven"),
            lambda d: d["adg"].update(nodes=7),
            lambda d: d["adg"].pop("links"),
            lambda d: d["adg"]["links"].append([0]),
            lambda d: d["adg"]["links"].append([0, 10 ** 6]),
            lambda d: d.pop("params"),
            lambda d: d["params"].update(l2_ways=4),
            lambda d: d["params"].update(l2_banks=3),
            lambda d: d.update(adg=[]),
        ],
        ids=[
            "duplicate-id", "no-id", "no-node-field", "id-not-int",
            "nodes-not-list", "no-links", "short-link", "link-to-nowhere",
            "no-params", "unknown-param", "invalid-param", "adg-not-object",
        ],
    )
    def test_malformed_document_is_a_serialization_error(self, damage):
        """Duplicate ids, missing keys and wrong types used to escape as
        AdgError / KeyError / TypeError; only bad links were typed."""
        doc = sysadg_to_dict(general_overlay())
        damage(doc)
        with pytest.raises(SerializationError):
            sysadg_from_dict(doc)

    def test_a_document_that_is_not_an_object(self):
        for doc in ([], "overlay", None, 3):
            with pytest.raises(SerializationError):
                sysadg_from_dict(doc)
            with pytest.raises(SerializationError):
                adg_from_dict(doc)

    @settings(max_examples=10, deadline=None)
    @given(
        rows=st.integers(1, 3),
        cols=st.integers(1, 3),
        width=st.sampled_from([64, 128, 512]),
    )
    def test_mesh_roundtrip_property(self, rows, cols, width):
        adg = mesh_adg(
            rows, cols, caps=caps_for_dtype(I16, (Op.ADD, Op.MUL)),
            width_bits=width,
        )
        again = adg_from_dict(adg_to_dict(adg))
        assert _structurally_equal(adg, again)
        again.validate()


    def test_equal_capabilities_decode_to_one_fucap(self):
        """A design repeats a few dozen capabilities over its PEs: every
        decode shares one frozen FuCap per distinct capability."""
        doc = adg_to_dict(mesh_adg(2, 2, caps=caps_for_dtype(I64, (Op.ADD,))))

        def decoded_caps(doc):
            return [
                sorted(pe.caps, key=lambda c: c.name)
                for pe in adg_from_dict(doc).pes
            ]

        first, *rest = decoded_caps(doc)
        rest += decoded_caps(json.loads(json.dumps(doc)))
        assert first and len(rest) == 7
        assert all(a is b for caps in rest for a, b in zip(first, caps))


class TestRender:
    def test_render_contains_all_sections(self):
        text = render_adg(general_overlay().adg)
        for token in ("memory side", "input ports", "fabric", "output ports"):
            assert token in text

    def test_render_sysadg_header(self):
        text = render_sysadg(general_overlay())
        assert "tiles=4" in text
        assert "512KiB" in text

    def test_render_names_every_engine(self):
        adg = general_overlay().adg
        text = render_adg(adg)
        for engine in adg.engines:
            assert engine.name in text

    def test_render_handles_empty_ports(self):
        adg = ADG()
        adg.add_switch()
        text = render_adg(adg)
        assert "(none)" in text
