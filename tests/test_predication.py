"""Tests for predicated (if-converted) dataflow execution.

The paper's PEs support a predication-based control lookup table for
conditional execution (Section VI-E); the IR's ``Select`` expression is the
compiler-facing form.  These tests run a ReLU-style conditional kernel
through the whole stack.
"""

from repro.adg import general_overlay, mesh_adg, caps_for_dtype
from repro.compiler import generate_variants, lower
from repro.ir import (
    F32,
    I16,
    Op,
    Select,
    WorkloadBuilder,
    as_expr,
    compare,
)
from repro.scheduler import schedule_mdfg, schedule_workload
from repro.sim import simulate_schedule


def relu_workload(n=4096):
    """out[i] = x[i] > 0 ? x[i] : 0  — classic if-conversion target."""
    wb = WorkloadBuilder("relu", suite="custom", dtype=F32)
    x = wb.array("x", n)
    out = wb.array("out", n)
    i = wb.loop("i", n)
    load = x[i]
    wb.assign(out[i], Select(compare(load, 0), load, as_expr(0.0)))
    return wb.build()


def clamp_workload(n=1024):
    """Two-sided clamp via nested selects."""
    wb = WorkloadBuilder("clamp", suite="custom", dtype=I16)
    x = wb.array("x", n)
    lohi = wb.array("lohi", 2)
    out = wb.array("out", n)
    i = wb.loop("i", n)
    v = x[i]
    low = Select(compare(v, lohi[0]), v, lohi[0])
    wb.assign(out[i], Select(compare(low, lohi[1]), lohi[1], low))
    return wb.build()


class TestLowering:
    def test_select_becomes_compute_node(self):
        mdfg = lower(relu_workload(), unroll=1)
        ops = [n.op for n in mdfg.compute_nodes]
        assert Op.SELECT in ops
        assert Op.CMP in ops

    def test_select_vectorizes(self):
        mdfg = lower(relu_workload(), unroll=8)
        select = next(n for n in mdfg.compute_nodes if n.op is Op.SELECT)
        assert select.lanes == 8

    def test_select_operand_count(self):
        mdfg = lower(relu_workload(), unroll=1)
        select = next(n for n in mdfg.compute_nodes if n.op is Op.SELECT)
        # pred + then (the else is a constant immediate)
        assert 2 <= len(select.operands) <= 3

    def test_nested_selects(self):
        mdfg = lower(clamp_workload(), unroll=1)
        selects = [n for n in mdfg.compute_nodes if n.op is Op.SELECT]
        # The inner select is reused twice and the compiler does not CSE
        # value expressions, so 2-3 select nodes are acceptable.
        assert 2 <= len(selects) <= 3


class TestEndToEnd:
    def test_relu_maps_and_simulates_on_general(self):
        overlay = general_overlay()
        schedule = schedule_workload(
            generate_variants(relu_workload()), overlay.adg, overlay.params
        )
        assert schedule is not None
        result = simulate_schedule(schedule, overlay)
        assert result.ipc > 0

    def test_select_needs_capability(self):
        # A fabric without SELECT/CMP capabilities must reject the kernel.
        adg = mesh_adg(2, 2, caps=caps_for_dtype(F32, (Op.ADD, Op.MUL)))
        mdfg = lower(relu_workload(), unroll=1)
        assert schedule_mdfg(mdfg, adg) is None

    def test_select_capable_fabric_accepts(self):
        adg = mesh_adg(
            2,
            2,
            caps=caps_for_dtype(F32, (Op.SELECT, Op.CMP)),
            width_bits=256,
        )
        mdfg = lower(relu_workload(), unroll=1)
        assert schedule_mdfg(mdfg, adg) is not None

    def test_dse_provisions_select(self):
        from repro.dse import DseConfig, explore

        res = explore([relu_workload()], DseConfig(iterations=10, seed=3))
        caps = {
            c.op
            for pe in res.sysadg.adg.pes
            for c in pe.caps
        }
        assert Op.SELECT in caps and Op.CMP in caps
