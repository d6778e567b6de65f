"""Tests for the mapping advisor (Q5's re-DSE recommendation feature)."""

import pytest

from repro.adg import general_overlay, mesh_adg, caps_for_dtype
from repro.compiler import generate_variants
from repro.ir import I16, I64, Op
from repro.model.perf import ipc_ceiling
from repro.scheduler import REDSE_GAIN_THRESHOLD, advise
from repro.workloads import get_workload


@pytest.fixture(scope="module")
def overlay():
    return general_overlay()


class TestAdvise:
    def test_wellserved_workload_not_flagged(self, overlay):
        # vecmax's best variants all map on the General overlay.
        advice = advise(get_workload("vecmax"), overlay.adg, overlay.params)
        assert advice.best_mapped is not None
        assert not advice.recommend_redse
        assert advice.potential_gain == 1.0

    def test_bandwidth_bound_workload_not_flagged(self, overlay):
        # stencil-2d's wide variants need 9 wide ports and only u1 maps —
        # but on this overlay even the wide variants would be L2-bound, so
        # honest advice is that re-specializing would not pay.
        advice = advise(get_workload("stencil-2d"), overlay.adg, overlay.params)
        assert advice.best_mapped is not None
        assert advice.best_mapped.variant == "u1"
        assert any(not v.mapped for v in advice.verdicts)
        assert not advice.recommend_redse

    def test_port_starved_workload_flagged(self):
        # A compute-capable but port-starved overlay: bgr2grey's wide
        # variants would be much faster but cannot find ports.
        from repro.adg import SystemParams, mesh_adg

        adg = mesh_adg(
            2,
            3,
            caps=caps_for_dtype(I16, (Op.ADD, Op.MUL, Op.SHR)),
            width_bits=512,
            in_port_widths=(2, 2, 2, 2),
            out_port_widths=(2, 2),
        )
        params = SystemParams(l2_banks=16, noc_bytes_per_cycle=64)
        advice = advise(get_workload("bgr2grey"), adg, params)
        assert advice.best_mapped is not None
        assert advice.potential_gain >= REDSE_GAIN_THRESHOLD
        assert advice.recommend_redse

    def test_unmappable_workload_flagged(self):
        # An integer-only fabric cannot host f64 mm at all.
        adg = mesh_adg(2, 2, caps=caps_for_dtype(I64, (Op.ADD,)))
        from repro.adg import SystemParams

        advice = advise(get_workload("mm"), adg, SystemParams())
        assert advice.best_mapped is None
        assert advice.recommend_redse
        assert advice.potential_gain == float("inf")

    def test_failure_reasons_are_strings(self, overlay):
        advice = advise(get_workload("stencil-2d"), overlay.adg, overlay.params)
        failed = [v for v in advice.verdicts if not v.mapped]
        assert failed
        for verdict in failed:
            assert verdict.failure_reason
            assert "port" in verdict.failure_reason or "PE" in (
                verdict.failure_reason
            ) or "route" in verdict.failure_reason

    def test_summary_readable(self, overlay):
        advice = advise(get_workload("stencil-2d"), overlay.adg, overlay.params)
        text = advice.summary()
        assert "stencil-2d" in text
        assert "FAIL" in text and "OK" in text

    def test_summary_flags_unmappable(self):
        from repro.adg import SystemParams

        adg = mesh_adg(2, 2, caps=caps_for_dtype(I64, (Op.ADD,)))
        advice = advise(get_workload("mm"), adg, SystemParams())
        assert "rerun the DSE" in advice.summary()

    def test_accepts_precompiled_variants(self, overlay):
        variants = generate_variants(get_workload("fir"))
        advice = advise(
            get_workload("fir"), overlay.adg, overlay.params, variants=variants
        )
        assert len(advice.verdicts) == len(variants.variants)

    def test_a_variant_no_engine_holds_is_projected_at_its_ceiling(self, overlay):
        # cholesky u8's recurrence is deeper than General's recurrence
        # buffer, so the binder gives it no engines: its projection is the
        # binding-free ceiling, not a binding the scheduler would refuse.
        variants = generate_variants(get_workload("cholesky"))
        advice = advise(
            get_workload("cholesky"), overlay.adg, overlay.params, variants
        )
        u8 = next(v for v in advice.verdicts if v.variant == "u8")
        mdfg = next(m for m in variants.variants if m.variant == "u8")
        assert not u8.mapped and "recurrence" in u8.failure_reason
        assert u8.projected_ipc == ipc_ceiling(mdfg, overlay.params) == 200.0
        assert advice.recommend_redse
