"""Tests for the 19 Table II workloads and the new scenario families."""

import pytest

from repro.ir import Op, Select
from repro.workloads import (
    PAPER_SUITE_NAMES,
    SUITE_NAMES,
    all_workloads,
    get_suite,
    get_workload,
)

#: Scenario families beyond the paper's Table II.
NEW_FAMILIES = {
    "fsm": ("threshold-fsm", "debounce", "edge-count"),
    "tdm": ("horner", "biquad-cascade", "mac-bank"),
    "irregular": ("ragged-rows", "hash-probe", "frontier-gather"),
}

#: Table II of the paper: workload -> (dtype name, suite).
TABLE2 = {
    "cholesky": ("f64", "dsp"),
    "fft": ("f32x2", "dsp"),
    "fir": ("f64", "dsp"),
    "solver": ("f64", "dsp"),
    "mm": ("f64", "dsp"),
    "stencil-3d": ("i64", "machsuite"),
    "crs": ("f64", "machsuite"),
    "gemm": ("i64", "machsuite"),
    "stencil-2d": ("i64", "machsuite"),
    "ellpack": ("f64", "machsuite"),
    "channel-ext": ("i16", "vision"),
    "bgr2grey": ("i16", "vision"),
    "blur": ("i16", "vision"),
    "accumulate": ("i16", "vision"),
    "acc-sqr": ("i16", "vision"),
    "vecmax": ("i16", "vision"),
    "acc-weight": ("i16", "vision"),
    "convert-bit": ("i16", "vision"),
    "derivative": ("i16", "vision"),
}


class TestRegistry:
    def test_all_28_workloads_present(self):
        names = [w.name for w in all_workloads()]
        assert len(names) == 28
        expected = set(TABLE2)
        for family_names in NEW_FAMILIES.values():
            expected |= set(family_names)
        assert set(names) == expected

    def test_paper_suites_stay_table2(self):
        # The harness pins its figures/tables to the paper suites; adding
        # scenario families must never change them.
        assert PAPER_SUITE_NAMES == ("dsp", "machsuite", "vision")
        paper = [w.name for s in PAPER_SUITE_NAMES for w in get_suite(s)]
        assert len(paper) == 19
        assert set(paper) == set(TABLE2)

    def test_suite_names(self):
        assert SUITE_NAMES == (
            "dsp", "machsuite", "vision", "fsm", "tdm", "irregular"
        )

    def test_suite_sizes(self):
        assert len(get_suite("dsp")) == 5
        assert len(get_suite("machsuite")) == 5
        assert len(get_suite("vision")) == 9
        for family in NEW_FAMILIES:
            assert len(get_suite(family)) == 3

    def test_unknown_suite(self):
        with pytest.raises(KeyError):
            get_suite("audio")

    def test_unknown_workload_lists_known(self):
        with pytest.raises(KeyError, match="unknown workload"):
            get_workload("quicksort")

    def test_factories_return_fresh_instances(self):
        a = get_workload("fir")
        b = get_workload("fir")
        assert a is not b
        assert a.name == b.name

    def test_index_built_once_not_per_lookup(self):
        # Regression: get_workload used to instantiate every workload on
        # every call; the cached index pays one build pass, then only the
        # requested factory runs per lookup.
        import repro.workloads as wl

        calls = []
        original = wl.SUITES["dsp"][2]  # fir

        def counting_fir():
            calls.append(1)
            return original()

        patched = list(wl.SUITES["dsp"])
        patched[2] = counting_fir
        wl.SUITES["dsp"] = tuple(patched)
        try:
            wl._WORKLOAD_INDEX.clear()
            get_workload("gemm")  # build pass: each factory runs once
            assert calls == [1]
            get_workload("gemm")
            get_workload("mm")  # further lookups reuse the index
            assert calls == [1]
            get_workload("fir")  # only now does fir's factory run again
            assert calls == [1, 1]
        finally:
            patched[2] = original
            wl.SUITES["dsp"] = tuple(patched)
            wl._WORKLOAD_INDEX.clear()

    def test_duplicate_workload_name_rejected(self):
        import repro.workloads as wl
        from repro.workloads.dsp import fir

        def impostor():
            return fir()  # same workload name, different factory

        wl.SUITES["dup-test"] = (impostor,)
        try:
            wl._WORKLOAD_INDEX.clear()
            with pytest.raises(ValueError, match="duplicate workload"):
                get_workload("fir")
        finally:
            del wl.SUITES["dup-test"]
            wl._WORKLOAD_INDEX.clear()


@pytest.mark.parametrize("name", sorted(TABLE2))
class TestPerWorkload:
    def test_validates(self, name):
        w = get_workload(name)
        w.validate()  # must not raise

    def test_dtype_matches_table2(self, name):
        w = get_workload(name)
        assert w.dtype.name == TABLE2[name][0]

    def test_suite_matches_table2(self, name):
        w = get_workload(name)
        assert w.suite == TABLE2[name][1]

    def test_has_work(self, name):
        w = get_workload(name)
        assert w.trip_product > 0
        assert w.memory_op_count() >= 1


class TestWorkloadCharacter:
    """Spot-check the architectural character the paper relies on."""

    def test_fir_matches_figure5_structure(self):
        w = get_workload("fir")
        assert [l.var for l in w.loops] == ["io", "j", "ii"]
        assert w.statements[0].is_reduction

    def test_variable_trip_workloads(self):
        # Table IV: cholesky, crs (and solver's triangular loop) have
        # variable trip counts.
        for name in ("cholesky", "crs", "solver"):
            assert get_workload(name).has_variable_trip, name

    def test_fixed_trip_workloads(self):
        for name in ("mm", "gemm", "blur", "accumulate"):
            assert not get_workload(name).has_variable_trip, name

    def test_indirect_workloads(self):
        from repro.ir import IndirectIndex

        for name in ("crs", "ellpack"):
            w = get_workload(name)
            assert any(
                isinstance(idx, IndirectIndex)
                for _, idx, _ in w.all_accesses()
            ), name

    def test_channel_extract_is_pure_data_movement(self):
        w = get_workload("channel-ext")
        assert sum(w.op_counts().values()) == 0

    def test_blur_has_no_multiplies(self):
        counts = get_workload("blur").op_counts()
        assert counts.get(Op.MUL, 0) == 0
        assert counts.get(Op.ADD, 0) == 8

    def test_bgr2grey_op_mix(self):
        counts = get_workload("bgr2grey").op_counts()
        assert counts[Op.MUL] == 3
        assert counts[Op.ADD] == 2
        assert counts[Op.SHR] == 1

    def test_cholesky_has_divides(self):
        counts = get_workload("cholesky").op_counts()
        assert counts.get(Op.DIV, 0) == 2

    def test_reductions(self):
        for name in ("mm", "gemm", "fir", "crs", "ellpack", "accumulate"):
            w = get_workload(name)
            assert any(s.is_reduction for s in w.statements), name

    def test_vision_frame_sizes(self):
        w = get_workload("accumulate")
        assert w.array("src").size == 128 * 128 * 4

    def test_derivative_uses_halo_frame(self):
        w = get_workload("derivative")
        assert w.array("src").size == 130 * 130 * 4


@pytest.mark.parametrize(
    "name", [n for family in NEW_FAMILIES.values() for n in family]
)
class TestNewFamilyWorkloads:
    def test_validates(self, name):
        get_workload(name).validate()

    def test_suite_assignment(self, name):
        w = get_workload(name)
        assert name in NEW_FAMILIES[w.suite]

    def test_has_work(self, name):
        w = get_workload(name)
        assert w.trip_product > 0
        assert w.memory_op_count() >= 1


class TestNewFamilyCharacter:
    """The three scenario families carry their defining traits."""

    def test_fsm_workloads_are_control_dominated(self):
        # Every fsm kernel predicates its datapath with Select.
        import dataclasses

        from repro.ir.expr import Expr

        def has_select(expr):
            if isinstance(expr, Select):
                return True
            return any(
                has_select(getattr(expr, f.name))
                for f in dataclasses.fields(expr)
                if isinstance(getattr(expr, f.name), Expr)
            )

        for w in get_suite("fsm"):
            assert any(
                has_select(s.expr) for s in w.statements
            ), w.name

    def test_irregular_workloads_have_variable_trips(self):
        for w in get_suite("irregular"):
            assert w.has_variable_trip, w.name

    def test_indirect_gather_in_irregular(self):
        from repro.ir import IndirectIndex

        for name in ("hash-probe", "frontier-gather"):
            w = get_workload(name)
            assert any(
                isinstance(idx, IndirectIndex)
                for _, idx, _ in w.all_accesses()
            ), name

    def test_tdm_workloads_time_share_multipliers(self):
        # Time-multiplexed DSP kernels: either a long static multiply
        # chain (horner, biquad-cascade) or one multiplier reused across
        # a reduction loop (mac-bank).
        for w in get_suite("tdm"):
            counts = w.op_counts()
            assert counts.get(Op.MUL, 0) >= 1, w.name
            assert counts[Op.MUL] >= 4 or any(
                s.is_reduction for s in w.statements
            ), w.name

    def test_horner_chain_depth(self):
        counts = get_workload("horner").op_counts()
        assert counts[Op.MUL] == 8
        assert counts[Op.ADD] == 8
