"""Tests for workload -> mDFG lowering and variant generation."""

import pickle
from collections import Counter
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.compiler import (
    LoweringError,
    VariantSet,
    analyze_workload,
    generate_variants,
    lower,
    max_unroll,
    unroll_candidates,
    uses_recurrence_engine,
)
from repro.compiler.lowering import _lower
from repro.compiler.variants import VARIANT_MEMO_SIZE, _same_structure
from repro.dfg import ArrayPlacement, StreamKind
from repro.ir import F64, I16, Const, Op, WorkloadBuilder
from repro.profile.tracer import Tracer, tracing
from repro.validate.generators import random_case
from repro.workloads import all_workloads, get_workload


def _fig5_fir():
    """Fig. 5's FIR: ``c[]`` is an outer recurrence over ``j``."""
    wb = WorkloadBuilder("fig5", suite="test", dtype=F64)
    a = wb.array("a", 255)
    b = wb.array("b", 128)
    c = wb.array("c", 128)
    io = wb.loop("io", 4)
    j = wb.loop("j", 128)
    ii = wb.loop("ii", 32)
    wb.accumulate(c[io * 32 + ii], a[io * 32 + ii + j] * b[j])
    return wb.build()


class TestBasicLowering:
    def test_fir_scalar(self):
        mdfg = lower(get_workload("fir"), unroll=1)
        mdfg.validate()
        ops = [n.op for n in mdfg.compute_nodes]
        assert Op.MUL in ops and Op.ADD in ops

    def test_unroll_multiplies_lanes(self):
        m1 = lower(get_workload("mm"), unroll=1)
        m4 = lower(get_workload("mm"), unroll=4)
        mul1 = next(n for n in m1.compute_nodes if n.op is Op.MUL)
        mul4 = next(n for n in m4.compute_nodes if n.op is Op.MUL)
        assert mul1.lanes == 1
        assert mul4.lanes == 4

    def test_unroll_beyond_max_rejected(self):
        w = get_workload("mm")  # f64: max 512/64 = 8 lanes
        with pytest.raises(LoweringError):
            lower(w, unroll=16)

    def test_unroll_zero_rejected(self):
        with pytest.raises(LoweringError):
            lower(get_workload("mm"), unroll=0)

    def test_max_unroll_respects_dtype(self):
        assert max_unroll(get_workload("mm")) == 8  # f64
        assert max_unroll(get_workload("accumulate")) == 32  # i16

    def test_max_unroll_respects_trip(self):
        wb = WorkloadBuilder("tiny", suite="test", dtype=I16)
        a = wb.array("a", 4)
        i = wb.loop("i", 4)
        wb.assign(a[i], a[i] + 1)
        assert max_unroll(wb.build()) == 4


class TestStreams:
    def test_loads_deduplicated(self):
        # acc-sqr reads src twice in in[p]*in[p]; one stream suffices.
        mdfg = lower(get_workload("acc-sqr"), unroll=1)
        reads = [
            s for s in mdfg.streams if s.kind is StreamKind.MEMORY_READ
        ]
        src_reads = [s for s in reads if s.array == "src"]
        assert len(src_reads) == 1

    def test_stationary_operand_gets_scalar_stream(self):
        mdfg = lower(get_workload("fir"), unroll=4)
        b_stream = next(s for s in mdfg.streams if s.array == "b")
        assert b_stream.lanes == 1  # b[j] does not vary with ii
        assert b_stream.stationary_reuse == 32
        b_port = mdfg.node(b_stream.port)
        assert b_port.stationary == 32 // 4  # held for inner_trip/unroll firings

    def test_vector_operand_lanes_follow_unroll(self):
        mdfg = lower(get_workload("fir"), unroll=4)
        a_stream = next(s for s in mdfg.streams if s.array == "a")
        assert a_stream.lanes == 4

    def test_indirect_stream_flagged(self):
        mdfg = lower(get_workload("ellpack"), unroll=1)
        x_stream = next(s for s in mdfg.streams if s.array == "x")
        assert x_stream.indirect
        # And the index stream itself (cols) exists as an affine read.
        assert any(s.array == "cols" for s in mdfg.streams)

    def test_padding_flag_for_nonmultiple_trip(self):
        wb = WorkloadBuilder("odd", suite="test", dtype=I16)
        a = wb.array("a", 12)
        b = wb.array("b", 12)
        i = wb.loop("i", 12)
        wb.assign(b[i], a[i] + 1)
        mdfg = lower(wb.build(), unroll=8)
        a_stream = next(s for s in mdfg.streams if s.array == "a")
        assert mdfg.node(a_stream.port).needs_padding


class TestReductions:
    def test_mm_gets_accumulator_and_tree(self):
        mdfg = lower(get_workload("mm"), unroll=8)
        accs = [n for n in mdfg.compute_nodes if n.accumulator]
        assert len(accs) == 1
        # log2(8) = 3 tree levels
        adds = [
            n
            for n in mdfg.compute_nodes
            if n.op is Op.ADD and not n.accumulator
        ]
        assert len(adds) == 3

    def test_mm_write_traffic_is_outer_iters_only(self):
        w = get_workload("mm")
        mdfg = lower(w, unroll=4)
        c_writes = [
            s
            for s in mdfg.streams
            if s.array == "c" and s.kind is StreamKind.MEMORY_WRITE
        ]
        assert len(c_writes) == 1
        assert c_writes[0].traffic == 32 * 32  # one write per (i, j)

    def test_fir_recurrence_variant(self):
        mdfg = lower(get_workload("fir"), unroll=2, use_recurrence=True)
        assert uses_recurrence_engine(mdfg)
        recs = [s for s in mdfg.streams if s.kind is StreamKind.RECURRENCE]
        assert len(recs) == 2
        assert recs[0].recurrent_pair == recs[1].node_id
        assert recs[1].recurrent_pair == recs[0].node_id
        assert recs[0].recurrence_depth == 32

    def test_fir_rmw_variant_has_memory_rmw(self):
        mdfg = lower(get_workload("fir"), unroll=2, use_recurrence=False)
        assert not uses_recurrence_engine(mdfg)
        kinds = {
            (s.array, s.kind)
            for s in mdfg.streams
            if s.array == "c"
        }
        assert ("c", StreamKind.MEMORY_READ) in kinds
        assert ("c", StreamKind.MEMORY_WRITE) in kinds


class TestArrayNodes:
    def test_every_memory_stream_has_an_array(self):
        for w in all_workloads():
            mdfg = lower(w, unroll=1)
            arrays = {a.array for a in mdfg.arrays}
            for s in mdfg.streams:
                assert not s.is_memory or s.array in arrays, f"{w.name}: {s.array}"

    def test_high_reuse_array_prefers_spad(self):
        mdfg = lower(get_workload("fir"), unroll=1)
        a_node = next(a for a in mdfg.arrays if a.array == "a")
        assert a_node.preferred is ArrayPlacement.SPAD
        assert a_node.memory_reuse > 2

    def test_streaming_array_prefers_dram(self):
        mdfg = lower(get_workload("vecmax"), unroll=1)
        a_node = next(a for a in mdfg.arrays if a.array == "a")
        assert a_node.preferred is ArrayPlacement.DRAM

    def test_indirect_target_prefers_spad(self):
        mdfg = lower(get_workload("ellpack"), unroll=1)
        x_node = next(a for a in mdfg.arrays if a.array == "x")
        assert x_node.indirect_target
        assert x_node.preferred is ArrayPlacement.SPAD

    def test_spad_candidate_includes_double_buffer(self):
        # Fig. 5's exact FIR: footprint of a is 255 elements; the spad
        # allocation doubles it for double-buffering.
        mdfg = lower(_fig5_fir(), unroll=1)
        a_node = next(n for n in mdfg.arrays if n.array == "a")
        assert a_node.footprint_bytes == 2 * 255 * 8


class TestVariants:
    def test_all_workloads_generate_variants(self):
        for w in all_workloads():
            vs = generate_variants(w)
            assert vs.variants, w.name
            for m in vs.variants:
                m.validate()

    def test_variants_sorted_most_aggressive_first(self):
        vs = generate_variants(get_workload("mm"))
        rates = [m.insts_per_cycle for m in vs.variants]
        assert rates == sorted(rates, reverse=True)

    def test_unroll_candidates_are_powers_of_two(self):
        for w in all_workloads():
            for u in unroll_candidates(w):
                assert u & (u - 1) == 0

    def test_by_name(self):
        vs = generate_variants(get_workload("fir"))
        m = vs.by_name("u2")
        assert m.unroll == 2
        with pytest.raises(KeyError):
            vs.by_name("u999")


def _lower_both_forms(workload):
    """The family as built before the rmw gate: lower both forms at every
    unroll, then drop an rmw form whose streams match a kept form."""
    reuse = analyze_workload(workload)
    kept = []
    for unroll in unroll_candidates(workload):
        for use_rec in (True, False):
            try:
                mdfg = _lower(workload, unroll, use_rec, reuse)
            except LoweringError:
                continue
            if not use_rec and any(_same_structure(mdfg, k) for k in kept):
                continue
            kept.append(mdfg)
    if not kept:
        raise LoweringError(f"{workload.name}: no lowerable variants")
    return VariantSet(workload=workload, variants=kept)


def _family(make, workload):
    """Each variant's name and pickled bytes, or the exception type."""
    try:
        family = make(workload)
    except Exception as exc:
        return type(exc)
    return [(m.variant, pickle.dumps(m)) for m in family.variants]


def _lower_spans(make):
    with tracing(Tracer()) as tracer:
        out = make()
    return out, Counter(s.name for s in tracer.spans())["compiler.lower"]


class TestFamilyMemo:
    """``generate_variants`` lowers a workload body once per process."""

    def test_equal_workloads_share_one_family(self):
        first, again = get_workload("fir"), get_workload("fir")
        assert first is not again and first == again
        family = generate_variants(first)
        shared, lowered = _lower_spans(lambda: generate_variants(again))
        assert shared is family
        assert lowered == 0

    def test_a_different_body_gets_its_own_family(self):
        fir = get_workload("fir")
        inner = fir.loops[-1]
        halved = replace(
            fir, loops=fir.loops[:-1] + (replace(inner, trip=inner.trip // 2),)
        )
        family, lowered = _lower_spans(lambda: generate_variants(halved))
        assert family is not generate_variants(fir)
        assert family.workload is halved and lowered > 0
        assert family.best.iterations < generate_variants(fir).best.iterations

    def test_a_lowering_error_is_raised_every_time(self):
        wb = WorkloadBuilder("const-store", suite="test", dtype=F64)
        out = wb.array("out", 64)
        wb.assign(out[wb.loop("i", 64)], Const(1.0))
        workload = wb.build()
        for _ in range(2):  # lowered again each time: never cached
            with tracing(Tracer()) as tracer, pytest.raises(LoweringError):
                generate_variants(workload)
            spans = Counter(s.name for s in tracer.spans())
            assert spans["compiler.lower"] > 0

    def test_the_memo_is_bounded(self):
        vecmax = get_workload("vecmax")
        assert generate_variants.cache_info().maxsize == VARIANT_MEMO_SIZE
        for i in range(VARIANT_MEMO_SIZE + 1):
            generate_variants(replace(vecmax, name=f"vecmax-{i}"))
        assert generate_variants.cache_info().currsize == VARIANT_MEMO_SIZE
        generate_variants.cache_clear()


class TestRmwGate:
    """``generate_variants`` lowers the rmw form only where it can differ,
    and still returns the family that lowering both forms did."""

    def test_same_family_as_lowering_both_forms(self):
        # The random programs reduce over the innermost loop only, so they
        # exercise the gated path; the recurrences come from the suites
        # and Fig. 5.
        workloads = list(all_workloads()) + [_fig5_fir()] + [
            random_case(f"rmw-gate:{i}").program.build() for i in range(30)
        ]
        for i, w in enumerate(workloads):
            assert _family(generate_variants, w) == _family(
                _lower_both_forms, w
            ), (i, w.name)

    def test_rmw_kept_only_where_the_recurrence_engine_applies(self):
        with_rmw = {
            w.name
            for w in all_workloads()
            if any(
                m.variant.endswith("-rmw")
                for m in generate_variants(w).variants
            )
        }
        assert with_rmw == {"accumulate", "acc-sqr", "cholesky", "fir", "gemm"}


class TestMdfgMetrics:
    def test_insts_per_cycle_counts_memory_ops(self):
        # channel-ext has zero compute; vectorization must still pay off.
        m1 = lower(get_workload("channel-ext"), unroll=1)
        m8 = lower(get_workload("channel-ext"), unroll=8)
        assert m8.insts_per_cycle > m1.insts_per_cycle

    def test_config_words_positive(self):
        for w in all_workloads():
            assert lower(w, unroll=1).config_words > 0

    @settings(max_examples=10, deadline=None)
    @given(st.sampled_from(["mm", "fir", "blur", "vecmax", "gemm"]))
    def test_validate_never_raises_for_legal_unrolls(self, name):
        w = get_workload(name)
        for u in unroll_candidates(w):
            lower(w, unroll=u).validate()
