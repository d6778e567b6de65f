"""Property-based tests for the Pareto math (repro.search.pareto).

The frontier routines are pure functions over numeric vectors, so
hypothesis can hammer the contracts directly: frontier invariance under
permutation and duplication, dominance consistency, hypervolume
indifference to dominated points and monotonicity under additions, and
exact JSON round-trips of the frontier document.
"""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.search import (
    Axis,
    default_reference,
    dominates,
    export_frontier,
    frontier_doc,
    hypervolume,
    non_dominated,
    parse_axis,
)
from repro.search.study import Study, Trial


@st.composite
def cloud(draw, max_points=12):
    dim = draw(st.integers(2, 3))
    senses = draw(
        st.lists(st.sampled_from(["min", "max"]), min_size=dim, max_size=dim)
    )
    coord = st.integers(0, 8).map(float)
    points = draw(
        st.lists(
            st.lists(coord, min_size=dim, max_size=dim),
            min_size=1,
            max_size=max_points,
        )
    )
    extra = draw(st.lists(coord, min_size=dim, max_size=dim))
    return points, extra, senses


class TestDominates:
    def test_strict_on_at_least_one_axis(self):
        senses = ["max", "min"]
        assert dominates([2.0, 1.0], [1.0, 1.0], senses)
        assert dominates([1.0, 0.5], [1.0, 1.0], senses)
        assert not dominates([1.0, 1.0], [1.0, 1.0], senses)
        assert not dominates([2.0, 2.0], [1.0, 1.0], senses)

    def test_dimension_mismatch_raises(self):
        with pytest.raises(ValueError):
            dominates([1.0], [1.0, 2.0], ["min", "min"])

    @given(cloud())
    @settings(max_examples=60, deadline=None)
    def test_antisymmetric(self, c):
        points, _, senses = c
        for a in points:
            for b in points:
                assert not (
                    dominates(a, b, senses) and dominates(b, a, senses)
                )


class TestNonDominated:
    @given(cloud(), st.randoms(use_true_random=False))
    @settings(max_examples=60, deadline=None)
    def test_frontier_values_invariant_under_permutation(self, c, rnd):
        points, _, senses = c
        front_a = sorted(tuple(points[i]) for i in non_dominated(points, senses))
        shuffled = list(points)
        rnd.shuffle(shuffled)
        front_b = sorted(
            tuple(shuffled[i]) for i in non_dominated(shuffled, senses)
        )
        assert front_a == front_b

    @given(cloud())
    @settings(max_examples=60, deadline=None)
    def test_duplicating_input_duplicates_frontier(self, c):
        points, _, senses = c
        front = sorted(tuple(points[i]) for i in non_dominated(points, senses))
        doubled = sorted(
            tuple((points + points)[i])
            for i in non_dominated(points + points, senses)
        )
        assert doubled == sorted(front + front)

    @given(cloud())
    @settings(max_examples=60, deadline=None)
    def test_no_frontier_point_is_dominated(self, c):
        points, _, senses = c
        for i in non_dominated(points, senses):
            assert not any(
                dominates(q, points[i], senses)
                for j, q in enumerate(points)
                if j != i
            )


class TestHypervolume:
    @given(cloud())
    @settings(max_examples=60, deadline=None)
    def test_dominated_points_contribute_nothing(self, c):
        points, _, senses = c
        reference = default_reference(points, senses)
        front = [points[i] for i in non_dominated(points, senses)]
        assert hypervolume(points, senses, reference) == pytest.approx(
            hypervolume(front, senses, reference)
        )

    @given(cloud())
    @settings(max_examples=60, deadline=None)
    def test_monotone_under_additions(self, c):
        points, extra, senses = c
        reference = default_reference(points + [extra], senses)
        assert hypervolume(
            points + [extra], senses, reference
        ) >= hypervolume(points, senses, reference) - 1e-9

    @given(cloud())
    @settings(max_examples=60, deadline=None)
    def test_positive_for_any_nonempty_cloud(self, c):
        points, _, senses = c
        # The default reference sits one unit beyond the worst value on
        # every axis, so every point dominates it strictly.
        assert hypervolume(points, senses) > 0.0

    def test_empty_is_zero(self):
        assert hypervolume([], ["min", "max"]) == 0.0


class TestAxisParsing:
    def test_explicit_sense(self):
        assert parse_axis("lut:min") == Axis("lut", "min")
        assert parse_axis("objective:max") == Axis("objective", "max")

    def test_sense_defaults_to_min(self):
        assert parse_axis("bram") == Axis("bram", "min")

    def test_bad_sense_raises(self):
        with pytest.raises(ValueError):
            parse_axis("lut:sideways")

    def test_empty_name_raises(self):
        with pytest.raises(ValueError):
            parse_axis(":max")

    def test_str_round_trip(self):
        for axis in (Axis("objective", "max"), Axis("lut", "min")):
            assert parse_axis(str(axis)) == axis


def _study_of(rows):
    trials = [
        Trial(
            index=i,
            strategy="t",
            kind="params",
            lineage={},
            seed=0,
            feasible=True,
            objective=float(objective),
            modeled_seconds=0.0,
            lut=float(lut),
            bram=float(bram),
            dsp=float(dsp),
        )
        for i, (objective, lut, bram, dsp) in enumerate(rows)
    ]
    return Study(
        key="k",
        strategy="t",
        seed=0,
        batch=1,
        workloads=["w"],
        config_fingerprint="",
        trials=trials,
    )


@given(
    st.lists(
        st.tuples(
            st.integers(1, 50),
            st.integers(1, 9),
            st.integers(0, 9),
            st.integers(0, 9),
        ),
        min_size=1,
        max_size=10,
    )
)
@settings(max_examples=60, deadline=None)
def test_frontier_doc_round_trips_through_json(rows):
    study = _study_of(rows)
    doc = frontier_doc(study)
    assert json.loads(json.dumps(doc)) == doc
    assert json.loads(export_frontier(study)) == doc
    # The export is canonical: re-exporting yields identical bytes.
    assert export_frontier(study) == export_frontier(study)
    # Frontier trials reference real feasible trials.
    indices = {t.index for t in study.feasible_trials()}
    assert all(p["trial"] in indices for p in doc["points"])
