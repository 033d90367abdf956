"""Constraint bodies: the capped linear oracle and membership tests."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import submax as sm
from submax import CapParam, Point

from helpers import random_constraint


class TestLinearMaximizeExamples:
    def test_cardinality_capped(self):
        C = sm.CardinalityPolytope(3, 2)
        w = [3.0, 2.0, 1.0]
        c = C.linear_maximize(w, CapParam(0.5))
        assert np.allclose(c.v, [0.5, 0.5, 0.5])
        assert np.dot(w, c.v) == pytest.approx(3.0)
        assert np.dot(w, c.v) == pytest.approx(sm.lp_brute_force(C, w, 0.5))

    def test_cardinality_uncapped_negative_zeroed(self):
        C = sm.CardinalityPolytope(3, 2)
        w = [3.0, 2.0, -1.0]
        c = C.linear_maximize(w, CapParam(1.0))
        assert np.allclose(c.v, [1.0, 1.0, 0.0])
        assert np.dot(w, c.v) == pytest.approx(5.0)
        assert np.dot(w, c.v) == pytest.approx(sm.lp_brute_force(C, w, 1.0))

    def test_knapsack_fractional(self):
        C = sm.KnapsackPolytope(2, [1.0, 2.0], 2.0)
        w = [3.0, 2.0]
        c = C.linear_maximize(w, CapParam(0.5))
        assert np.allclose(c.v, [0.5, 0.5])
        assert np.dot(w, c.v) == pytest.approx(2.5)
        assert np.dot(w, c.v) == pytest.approx(sm.lp_brute_force(C, w, 0.5))

    def test_budget_exhaustion_leftover(self):
        # k=1, cap 0.7: best coordinate gets 0.7, next gets the 0.3 leftover
        C = sm.CardinalityPolytope(3, 1)
        c = C.linear_maximize([5.0, 4.0, 3.0], CapParam(0.7))
        assert np.allclose(c.v, [0.7, 0.3, 0.0])

    @pytest.mark.parametrize("C, w, expect", [
        (sm.CardinalityPolytope(4, 1), [2.0, 2.0, 2.0, 2.0], [0.5, 0.5, 0.0, 0.0]),
        # blocks listed out of order; ties go to the lower index in each
        (sm.PartitionMatroidPolytope(6, [[5, 3, 4], [2, 1, 0]], [1, 1]),
         [2.0] * 6, [0.5, 0.5, 0.0, 0.5, 0.5, 0.0]),
        # equal w/cost = 1 throughout: items 0 and 1 fill the budget of 1.5
        (sm.KnapsackPolytope(4, [1.0, 2.0, 1.0, 2.0], 1.5),
         [1.0, 2.0, 1.0, 2.0], [0.5, 0.5, 0.0, 0.0]),
    ], ids=["cardinality", "partition", "knapsack"])
    def test_deterministic_tie_break_low_index_first(self, C, w, expect):
        c = C.linear_maximize(w, CapParam(0.5))
        assert c.v.tolist() == expect

    def test_nonfinite_weights_rejected(self):
        C = sm.CardinalityPolytope(2, 1)
        with pytest.raises(ValueError):
            C.linear_maximize([np.inf, 0.0])


def contains(C, S) -> bool:
    """Membership of the set S by its indicator point, checked against the
    integer-mask oracle wherever S fits an int64 bitmask."""
    inside = C.contains_point(Point.indicator(C.n, S))
    if max(S, default=0) < 63:
        mask = np.array([sum(1 << i for i in S)], dtype=np.int64)
        assert bool(C.contains_mask_batch(mask)[0]) == inside
    return inside


class TestContains:
    def test_cardinality_sets(self):
        C = sm.CardinalityPolytope(3, 2)
        assert contains(C, {0, 1})
        assert not contains(C, {0, 1, 2})

    def test_knapsack_set_boundary(self):
        C = sm.KnapsackPolytope(2, [1.0, 2.0], 2.0)
        assert contains(C, {1})        # cost 2 <= 2
        assert not contains(C, {0, 1})  # cost 3 > 2

    def test_partition_sets(self):
        C = sm.PartitionMatroidPolytope(4, [[0, 1], [2, 3]], [1, 2])
        assert contains(C, {0, 2, 3})
        assert not contains(C, {0, 1})

    def test_set_beyond_int64_bitmask(self):
        C = sm.CardinalityPolytope(100, 5)
        assert contains(C, {80})
        assert not contains(C, {60, 70, 80, 90, 95, 99})

    def test_points(self):
        C2 = sm.CardinalityPolytope(3, 2)
        assert C2.contains_point([0.5, 0.5, 0.5])
        C1 = sm.CardinalityPolytope(3, 1)
        assert not C1.contains_point([0.6, 0.6, 0.0])
        for C in (C1, C2, sm.KnapsackPolytope(3, [1.0, 1.0, 1.0], 1.5)):
            assert C.contains_point(np.zeros(3))

    def test_point_outside_unit_box(self):
        C = sm.CardinalityPolytope(2, 2)
        assert not C.contains_point([1.5, 0.0])


class TestConstruction:
    def test_zero_cost_rejected(self):
        with pytest.raises(ValueError, match="positive"):
            sm.KnapsackPolytope(2, [0.0, 1.0], 1.0)

    def test_nonpositive_budget_rejected(self):
        with pytest.raises(ValueError):
            sm.CardinalityPolytope(2, 0)
        with pytest.raises(ValueError):
            sm.KnapsackPolytope(2, [1.0, 1.0], -1.0)

    def test_partition_must_cover_disjointly(self):
        with pytest.raises(ValueError, match="disjoint"):
            sm.PartitionMatroidPolytope(3, [[0, 1], [1, 2]], [1, 1])
        with pytest.raises(ValueError, match="cover"):
            sm.PartitionMatroidPolytope(3, [[0, 1]], [1])

    def test_cap_range(self):
        with pytest.raises(ValueError):
            CapParam(0.0)
        with pytest.raises(ValueError):
            CapParam(1.2)


class TestOracleOptimality:
    def test_matches_vertex_enumeration(self):
        rng = np.random.default_rng(101)
        for _ in range(60):
            n = int(rng.integers(2, 7))
            C = random_constraint(rng, n)
            w = rng.normal(size=n)
            alpha = float(rng.choice([0.5, 0.7, 1.0]))
            got = float(w @ C.linear_maximize(w, CapParam(alpha)).v)
            assert got == pytest.approx(sm.lp_brute_force(C, w, alpha), abs=1e-7)

    def test_enumeration_dominates_random_feasible_points(self):
        # oracle-of-the-oracle: no sampled feasible capped point beats it
        rng = np.random.default_rng(55)
        for _ in range(20):
            n = int(rng.integers(2, 6))
            C = random_constraint(rng, n)
            w = rng.normal(size=n)
            alpha = float(rng.choice([0.5, 1.0]))
            lp = sm.lp_brute_force(C, w, alpha)
            for _ in range(200):
                c = rng.random(n) * alpha
                if C.contains_point(c):
                    assert w @ c <= lp + 1e-9

    def test_monotone_in_alpha(self):
        rng = np.random.default_rng(9)
        for _ in range(40):
            n = int(rng.integers(2, 8))
            C = random_constraint(rng, n)
            w = rng.normal(size=n)
            lo = float(w @ C.linear_maximize(w, CapParam(0.5)).v)
            hi = float(w @ C.linear_maximize(w, CapParam(1.0)).v)
            assert hi >= lo - 1e-12


@given(st.integers(0, 10_000), st.integers(2, 8))
@settings(max_examples=80, deadline=None)
def test_oracle_output_feasible_and_capped(seed, n):
    rng = np.random.default_rng(seed)
    C = random_constraint(rng, n)
    w = rng.normal(size=n)
    alpha = float(rng.choice([0.5, 0.7, 1.0]))
    c = C.linear_maximize(w, CapParam(alpha))
    assert C.contains_point(c)
    assert c.norm_inf() <= alpha + 1e-12
    assert np.all(c.v[np.asarray(w) <= 0] == 0.0)


@given(st.integers(0, 10_000), st.integers(2, 8))
@settings(max_examples=80, deadline=None)
def test_down_closedness_probe(seed, n):
    rng = np.random.default_rng(seed)
    C = random_constraint(rng, n)
    x = rng.random(n)
    if C.contains_point(x):
        assert C.contains_point(x * rng.random(n))
