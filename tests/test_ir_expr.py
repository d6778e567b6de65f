"""Tests for affine index expressions and value expression trees."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.ir import (
    Affine,
    BinOp,
    Const,
    IndirectIndex,
    Load,
    LoopVar,
    Op,
    as_affine,
    as_expr,
    count_ops,
    loads_in,
    sqrt,
    vmax,
    walk,
)


class TestAffine:
    def test_loopvar_arithmetic_builds_affine(self):
        i, j = LoopVar("i"), LoopVar("j")
        expr = i * 32 + j + 1
        assert isinstance(expr, Affine)
        assert expr.coefficient("i") == 32
        assert expr.coefficient("j") == 1
        assert expr.const == 1

    def test_zero_coefficients_dropped(self):
        expr = Affine.of({"i": 0, "j": 2})
        assert expr.variables() == ("j",)

    def test_addition_merges_coefficients(self):
        i = LoopVar("i")
        expr = as_affine(i) + (i * 3)
        assert expr.coefficient("i") == 4

    def test_subtraction(self):
        i, j = LoopVar("i"), LoopVar("j")
        expr = (i + 5) - j - 2
        assert expr.coefficient("i") == 1
        assert expr.coefficient("j") == -1
        assert expr.const == 3

    def test_scalar_multiplication_distributes(self):
        i = LoopVar("i")
        expr = (i + 3) * 4
        assert expr.coefficient("i") == 4
        assert expr.const == 12

    def test_evaluate(self):
        expr = Affine.of({"i": 4, "j": 1}, 7)
        assert expr.evaluate({"i": 2, "j": 3}) == 18

    def test_involves(self):
        expr = Affine.of({"i": 1})
        assert expr.involves("i")
        assert not expr.involves("j")

    def test_hashable_and_equal(self):
        a = Affine.of({"i": 2}, 1)
        b = Affine.of({"i": 2}, 1)
        assert a == b
        assert hash(a) == hash(b)

    @given(
        st.dictionaries(
            st.sampled_from(["i", "j", "k"]),
            st.integers(-50, 50),
            max_size=3,
        ),
        st.integers(-100, 100),
        st.dictionaries(
            st.sampled_from(["i", "j", "k"]),
            st.integers(-50, 50),
            max_size=3,
        ),
        st.integers(-100, 100),
    )
    def test_addition_is_pointwise(self, c1, k1, c2, k2):
        env = {"i": 3, "j": 5, "k": 7}
        a = Affine.of(c1, k1)
        b = Affine.of(c2, k2)
        assert (a + b).evaluate(env) == a.evaluate(env) + b.evaluate(env)

    @given(
        st.dictionaries(
            st.sampled_from(["i", "j"]), st.integers(-20, 20), max_size=2
        ),
        st.integers(-20, 20),
        st.integers(-10, 10),
    )
    def test_scalar_mul_matches_evaluation(self, coeffs, const, factor):
        env = {"i": 2, "j": 9}
        a = Affine.of(coeffs, const)
        assert (a * factor).evaluate(env) == factor * a.evaluate(env)


class TestIndirect:
    def test_indirect_from_nested_load(self):
        from repro.ir import F64, WorkloadBuilder

        wb = WorkloadBuilder("t", suite="s", dtype=F64)
        x = wb.array("x", 16)
        col = wb.array("col", 16)
        i = wb.loop("i", 16)
        gathered = x[col[i]]
        assert isinstance(gathered.index, IndirectIndex)
        assert gathered.index.index_array == "col"

    def test_indirect_involves(self):
        idx = IndirectIndex("col", Affine.of({"i": 1}))
        assert idx.involves("i")
        assert not idx.involves("j")


class TestValueExpr:
    def test_operator_overloading(self):
        a = Load("a", Affine.of({"i": 1}))
        b = Load("b", Affine.of({"i": 1}))
        expr = a * b + 3
        assert isinstance(expr, BinOp)
        assert expr.op is Op.ADD
        assert isinstance(expr.lhs, BinOp)
        assert expr.lhs.op is Op.MUL

    def test_reverse_operators(self):
        a = Load("a", Affine.of({"i": 1}))
        expr = 2 * a
        assert isinstance(expr, BinOp)
        assert isinstance(expr.lhs, Const)

    def test_shift_operators(self):
        a = Load("a", Affine.of({"i": 1}))
        assert (a >> 4).op is Op.SHR
        assert (a << 2).op is Op.SHL

    def test_loads_in_collects_all_leaves(self):
        a = Load("a", Affine.of({"i": 1}))
        b = Load("b", Affine.of({"j": 1}))
        expr = sqrt(a * b + a)
        found = loads_in(expr)
        assert found.count(a) == 2
        assert found.count(b) == 1

    def test_count_ops(self):
        a = Load("a", Affine.of({"i": 1}))
        expr = a * a + a * a
        counts = count_ops(expr)
        assert counts[Op.MUL] == 2
        assert counts[Op.ADD] == 1

    def test_walk_visits_every_node(self):
        a = Load("a", Affine.of({"i": 1}))
        expr = vmax(a, a + 1)
        kinds = [type(n).__name__ for n in walk(expr)]
        assert kinds.count("Load") == 2
        assert "BinOp" in kinds

    def test_as_expr_rejects_junk(self):
        with pytest.raises(TypeError):
            as_expr("nope")

    def test_as_affine_rejects_junk(self):
        with pytest.raises(TypeError):
            as_affine(3.5)
