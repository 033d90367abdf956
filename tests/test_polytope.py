"""Constraint bodies: the capped linear oracle and membership tests."""

import copy
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import submax as sm
from submax import Point
from submax.polytope import FEAS_TOL

from helpers import random_constraint, reference_greedy_fill


class TestLinearMaximizeExamples:
    def test_cardinality_capped(self):
        C = sm.CardinalityPolytope(3, 2)
        w = [3.0, 2.0, 1.0]
        c = C.linear_maximize(w, 0.5)
        assert np.allclose(c.v, [0.5, 0.5, 0.5])
        assert np.dot(w, c.v) == pytest.approx(3.0)
        assert np.dot(w, c.v) == pytest.approx(sm.lp_brute_force(C, w, 0.5))

    def test_cardinality_uncapped_negative_zeroed(self):
        C = sm.CardinalityPolytope(3, 2)
        w = [3.0, 2.0, -1.0]
        c = C.linear_maximize(w, 1.0)
        assert np.allclose(c.v, [1.0, 1.0, 0.0])
        assert np.dot(w, c.v) == pytest.approx(5.0)
        assert np.dot(w, c.v) == pytest.approx(sm.lp_brute_force(C, w, 1.0))

    def test_knapsack_fractional(self):
        C = sm.KnapsackPolytope(2, [1.0, 2.0], 2.0)
        w = [3.0, 2.0]
        c = C.linear_maximize(w, 0.5)
        assert np.allclose(c.v, [0.5, 0.5])
        assert np.dot(w, c.v) == pytest.approx(2.5)
        assert np.dot(w, c.v) == pytest.approx(sm.lp_brute_force(C, w, 0.5))

    def test_lp_brute_force_slack_scales_with_the_budget(self):
        # with subnormal costs an absolute slack would let every pattern fit
        C = sm.KnapsackPolytope(3, [5e-324] * 3, 5e-324)
        w = [0.1, 0.5, 0.3]
        assert sm.lp_brute_force(C, w, 1.0) == 0.5 == np.dot(w, C.linear_maximize(w).v)

    def test_budget_exhaustion_leftover(self):
        # k=1, cap 0.7: best coordinate gets 0.7, next gets the 0.3 leftover
        C = sm.CardinalityPolytope(3, 1)
        c = C.linear_maximize([5.0, 4.0, 3.0], 0.7)
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
        c = C.linear_maximize(w, 0.5)
        assert c.v.tolist() == expect

    def test_nonfinite_weights_rejected(self):
        C = sm.CardinalityPolytope(2, 1)
        with pytest.raises(ValueError):
            C.linear_maximize([np.inf, 0.0])

    @pytest.mark.parametrize("w", [[np.nan, 0.0], [0.0, -np.inf]])
    def test_nan_and_negative_infinite_weights_rejected(self, w):
        with pytest.raises(ValueError):
            sm.CardinalityPolytope(2, 1).linear_maximize(w)

    @pytest.mark.parametrize("n, costs, budget, w, best", [
        # every w/cost overflows to inf
        (3, [5e-324] * 3, 5e-324, [0.1, 0.5, 0.3], [0.0, 1.0, 0.0]),
        # both w/cost underflow to 0
        (2, [1e300] * 2, 1e300, [1e-30, 2e-30], [0.0, 1.0]),
        # ratios 2e308, 3.4e308, 4e308 (overflowing), 1: filled from the top
        (4, [0.5, 0.5, 0.25, 1.0], 1.0, [1e308, 1.7e308, 1e308, 1.0],
         [0.5, 1.0, 1.0, 0.0]),
    ], ids=["overflow", "underflow", "huge-weights"])
    def test_out_of_range_ratios_rank_exactly(self, n, costs, budget, w, best):
        C = sm.KnapsackPolytope(n, costs, budget)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            c = C.linear_maximize(w)
        assert c.v.tolist() == best

    def test_fill_matches_float_ratio_greedy(self):
        # on normal-range ratios the exact ranking is the float quotient's,
        # ties included, so the fill is the per-row float greedy's, bit for bit
        rng = np.random.default_rng(5)
        for k in range(2, 40):
            w = np.exp(rng.normal(0.0, 40.0, k)) * rng.choice([-1.0, 0.0, 1.0, 1.0], k)
            cost = np.exp(rng.normal(0.0, 40.0, k))
            if k % 2:  # rounded, so that ratios tie
                w, cost = np.round(w, 1), np.round(cost) + 1.0
            blocks = np.array_split(rng.permutation(k), int(rng.integers(1, min(4, k) + 1)))
            for C in (sm.KnapsackPolytope(k, cost, rng.uniform(0.2, 0.8) * cost.sum()),
                      sm.PartitionMatroidPolytope(k, blocks, [max(1, b.size // 2) for b in blocks])):
                for alpha in (0.5, 1.0):
                    got = C.linear_maximize(w, alpha).v
                    assert got.tobytes() == float_ratio_greedy(C, w, alpha).tobytes()


class TestBatchOracle:
    """An (R, n) batch of weights is answered row by row, each row exactly
    as the one-row call answers it."""

    @pytest.mark.parametrize("R", [1, 2, 7, 51])
    @pytest.mark.parametrize("alpha", [0.5, 1.0])
    @pytest.mark.parametrize("body", ["cardinality", "partition", "knapsack"])
    def test_rows_match_one_row(self, body, alpha, R):
        rng = np.random.default_rng(900 + R)
        n = 11
        costs = 0.5 + rng.random(n)
        C = {"cardinality": sm.CardinalityPolytope(n, 3),
             "partition": sm.PartitionMatroidPolytope(
                 n, [[0, 4, 8], [1, 2, 3, 5, 6], [7, 9, 10]], [1, 2, 1.5]),
             "knapsack": sm.KnapsackPolytope(n, costs, 0.4 * costs.sum())}[body]
        W = rng.normal(size=(R, n))
        W[::2] = np.round(W[::2], 1)  # some rows with tied weights
        got = C.linear_maximize(W, alpha)
        assert got.shape == (R, n)
        for w, row in zip(W, got):
            assert row.tobytes() == C.linear_maximize(w, alpha).v.tobytes()

    def test_cap_per_row(self):
        C = sm.CardinalityPolytope(3, 1)
        W = np.array([[5.0, 4.0, 3.0]] * 3)
        got = C.linear_maximize(W, [0.25, 1.0, 0.5])
        assert got.tolist() == [[0.25, 0.25, 0.25], [1.0, 0.0, 0.0], [0.5, 0.5, 0.0]]
        with pytest.raises(ValueError, match="caps"):
            C.linear_maximize(W, [0.5] * 2)

    @pytest.mark.parametrize("body", ["cardinality", "partition", "knapsack"])
    def test_empty_batch_gets_an_empty_answer(self, body):
        C = {"cardinality": sm.CardinalityPolytope(3, 1),
             "partition": sm.PartitionMatroidPolytope(3, [[0, 2], [1]], [1, 1]),
             "knapsack": sm.KnapsackPolytope(3, [1.0, 2.0, 0.5], 1.5)}[body]
        for cap in (0.5, []):
            got = C.linear_maximize(np.zeros((0, 3)), cap)
            assert got.shape == (0, 3) and got.dtype == float
        assert C.contains_point(np.zeros((0, 3))).shape == (0,)

    @pytest.mark.parametrize("cap", [
        0.0, -0.5, 1.2, np.inf, np.nan, [0.5, np.nan], "0.5", None, True,
        [0.5, "x"], [0.5], [0.5, 1.0, 1.0], [[0.5, 1.0]]],
        ids=["zero", "negative", "above-one", "inf", "nan", "nan-in-row", "str",
             "none", "bool", "str-in-row", "too-few", "too-many", "two-axes"])
    def test_bad_caps_rejected(self, cap):
        # a cap outside (0, 1], NaN, a non-number, a wrong count or more
        # than one axis, for a batch of two weight rows
        C = sm.CardinalityPolytope(3, 1)
        with pytest.raises(ValueError, match="caps"):
            C.linear_maximize(np.ones((2, 3)), cap)

    def test_huge_budget_over_tiny_costs(self):
        # what is left over a tiny cost overflows to inf, without a warning
        C = sm.KnapsackPolytope(3, [1e-300, 1e300, 1e308], 1.7e308)
        W = np.array([[3.0, 2.0, 1.0], [1.0, 1.0, 1.0], [0.0, 0.0, 5.0]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = C.linear_maximize(W, [1.0, 0.5, 1.0])
        want = reference_greedy_fill(C, W, np.array([1.0, 0.5, 1.0]))
        assert got.tobytes() == want.tobytes()

    def test_packing_rows_of_unequal_length_and_a_free_coordinate(self):
        # rows of 2, 1 and 3 entries, and coordinate 2 in no row, which the
        # greedy never fills
        class Rows(sm.polytope.Polytope):
            def __init__(self):
                super().__init__(7)
                self.rows = [(np.array([1, 3]), np.array([1.0, 2.0]), 1.5),
                             (np.array([4]), np.array([0.5]), 0.2),
                             (np.array([0, 5, 6]), np.array([0.3, 0.7, 1.1]), 0.9)]
        C = Rows()
        rng = np.random.default_rng(9)
        W = rng.normal(size=(9, 7))
        alpha = rng.choice([0.3, 0.5, 1.0], 9)
        got = C.linear_maximize(W, alpha)
        assert got.tobytes() == reference_greedy_fill(C, W, alpha).tobytes()
        assert not got[:, 2].any()

    @pytest.mark.parametrize("n, costs, budget, w, best", [
        (3, [5e-324] * 3, 5e-324, [0.1, 0.5, 0.3], [0.0, 1.0, 0.0]),
        (2, [1e300] * 2, 1e300, [1e-30, 2e-30], [0.0, 1.0]),
        (4, [0.5, 0.5, 0.25, 1.0], 1.0, [1e308, 1.7e308, 1e308, 1.0],
         [0.5, 1.0, 1.0, 0.0]),
    ], ids=["overflow", "underflow", "huge-weights"])
    def test_out_of_range_ratios_rank_exactly_stacked(self, n, costs, budget, w, best):
        # the cases of test_out_of_range_ratios_rank_exactly between rows of
        # nonpositive weights, which take nothing, in one batch of twelve
        C = sm.KnapsackPolytope(n, costs, budget)
        W = np.stack([-np.array(w), w, np.zeros(n), w] * 3)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = C.linear_maximize(W)
        assert got.tolist() == [[0.0] * n, best, [0.0] * n, best] * 3

    def test_fill_matches_float_ratio_greedy_stacked(self):
        # the inputs of test_fill_matches_float_ratio_greedy, nine weight
        # rows per body and size in one batch, caps alternating per row
        rng = np.random.default_rng(5)
        for k in range(2, 40):
            W = np.exp(rng.normal(0.0, 40.0, (9, k))) \
                * rng.choice([-1.0, 0.0, 1.0, 1.0], (9, k))
            cost = np.exp(rng.normal(0.0, 40.0, k))
            if k % 2:  # rounded, so that ratios tie
                W, cost = np.round(W, 1), np.round(cost) + 1.0
            blocks = np.array_split(rng.permutation(k), int(rng.integers(1, min(4, k) + 1)))
            alphas = [0.5, 1.0] * 4 + [0.5]
            for C in (sm.KnapsackPolytope(k, cost, rng.uniform(0.2, 0.8) * cost.sum()),
                      sm.PartitionMatroidPolytope(k, blocks, [max(1, b.size // 2) for b in blocks])):
                got = C.linear_maximize(W, alphas)
                for w, alpha, row in zip(W, alphas, got):
                    assert row.tobytes() == float_ratio_greedy(C, w, alpha).tobytes()


def float_ratio_greedy(C, w, alpha):
    """The capped fractional-knapsack greedy row by row, ranking by the float
    quotient w/cost with a stable sort."""
    out = np.zeros(C.n)
    for idx, cost, budget in C.rows:
        pos = w[idx] > 0
        idx, cost = idx[pos], cost[pos]
        order = np.argsort(-(w[idx] / cost), kind="stable")
        remaining = budget
        for i, ci in zip(idx[order].tolist(), cost[order].tolist()):
            if remaining <= 0:
                break
            out[i] = fill = min(alpha, remaining / ci)
            remaining -= fill * ci
    return out


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

    def test_batch_is_answered_row_by_row(self):
        C = sm.PartitionMatroidPolytope(4, [[0, 1], [2, 3]], [1, 2])
        X = np.array([[0.5, 0.5, 1.0, 1.0], [0.6, 0.6, 0.0, 0.0],
                      [0.0, 0.0, 1.2, 0.0], [np.nan, 0.0, 0.0, 0.0],
                      [0.0, -1e-3, 0.0, 0.0]])
        got = C.contains_point(X)
        assert got.tolist() == [True, False, False, False, False]
        assert got.tolist() == [C.contains_point(x) for x in X]

    @pytest.mark.parametrize("R", [1, 2, 7, 51])
    @pytest.mark.parametrize("body", ["cardinality", "partition", "knapsack"])
    def test_rows_at_the_tolerance_edge_match_one_row(self, body, R):
        # points scaled onto budget + FEAS_TOL, where rounding in a packing
        # row's sum decides the answer: each row of a batch is answered as
        # the one-row call answers it
        rng = np.random.default_rng(40 + R)
        n = 37
        costs = 0.5 + rng.random(n)
        blocks = [np.arange(0, n, 3), np.arange(1, n, 3), np.arange(2, n, 3)]
        C = {"cardinality": sm.CardinalityPolytope(n, 5),
             "partition": sm.PartitionMatroidPolytope(n, blocks, [2, 3, 4]),
             "knapsack": sm.KnapsackPolytope(n, costs, 0.3 * costs.sum())}[body]
        X = rng.random((R, n))
        for idx, cost, budget in C.rows:
            X[:, idx] *= ((budget + FEAS_TOL) / (X[:, idx] @ cost))[:, None]
        X = X * (1.0 + rng.integers(-2, 3, (R, 1)) * 1e-16)
        got = C.contains_point(X)
        assert got.tolist() == [C.contains_point(x) for x in X]


class TestConstruction:
    @pytest.mark.parametrize("n", [2.7, 2.0, "3", True, 0])
    @pytest.mark.parametrize("make", [
        lambda n: sm.CardinalityPolytope(n, 1),
        lambda n: sm.PartitionMatroidPolytope(n, [[0, 1]], [1]),
        lambda n: sm.KnapsackPolytope(n, [1.0, 1.0], 1.0)],
        ids=["cardinality", "partition", "knapsack"])
    def test_ground_size_must_be_a_positive_integer(self, make, n):
        with pytest.raises(ValueError, match="ground set size must be a positive integer"):
            make(n)

    def test_zero_cost_rejected(self):
        with pytest.raises(ValueError, match="positive"):
            sm.KnapsackPolytope(2, [0.0, 1.0], 1.0)

    def test_nonpositive_budget_rejected(self):
        with pytest.raises(ValueError):
            sm.CardinalityPolytope(2, 0)
        with pytest.raises(ValueError):
            sm.KnapsackPolytope(2, [1.0, 1.0], -1.0)

    @pytest.mark.parametrize("budget", [True, None, "2", float("nan"), np.inf,
                                        10**400, -1.0, 0])
    @pytest.mark.parametrize("make, what", [
        (lambda b: sm.CardinalityPolytope(3, b), "cardinality budget k"),
        (lambda b: sm.KnapsackPolytope(3, [1.0, 2.0, 3.0], b), "knapsack budget")],
        ids=["cardinality", "knapsack"])
    def test_budget_must_be_a_positive_finite_number(self, make, what, budget):
        # one scalar check names the field; a bool, None or a string is
        # rejected, never converted or compared raw
        with pytest.raises(ValueError, match=f"{what} must be positive and finite"):
            make(budget)

    @pytest.mark.parametrize("budget", [2, 2.5, np.int64(2), np.float32(2.5)])
    def test_budget_is_a_plain_float(self, budget):
        assert type(sm.CardinalityPolytope(3, budget).k) is float
        C = sm.KnapsackPolytope(3, [1.0, 2.0, 3.0], budget)
        assert type(C.budget) is float and C.budget == float(budget)

    def test_partition_must_cover_disjointly(self):
        with pytest.raises(ValueError, match="disjoint"):
            sm.PartitionMatroidPolytope(3, [[0, 1], [1, 2]], [1, 1])
        with pytest.raises(ValueError, match="cover"):
            sm.PartitionMatroidPolytope(3, [[0, 1]], [1])

    def test_cap_range(self):
        C = sm.CardinalityPolytope(2, 1)
        for alpha in (0.0, 1.2):
            with pytest.raises(ValueError, match="caps"):
                C.linear_maximize([1.0, 2.0], alpha)
        assert C.linear_maximize([1.0, 2.0], 1).v.tolist() == [0.0, 1.0]


class TestOracleOptimality:
    def test_matches_vertex_enumeration(self):
        rng = np.random.default_rng(101)
        for _ in range(60):
            n = int(rng.integers(2, 7))
            C = random_constraint(rng, n)
            w = rng.normal(size=n)
            alpha = float(rng.choice([0.5, 0.7, 1.0]))
            got = float(w @ C.linear_maximize(w, alpha).v)
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
            lo = float(w @ C.linear_maximize(w, 0.5).v)
            hi = float(w @ C.linear_maximize(w, 1.0).v)
            assert hi >= lo - 1e-12


@given(st.integers(0, 10_000), st.integers(2, 8))
@settings(max_examples=80, deadline=None)
def test_oracle_output_feasible_and_capped(seed, n):
    rng = np.random.default_rng(seed)
    C = random_constraint(rng, n)
    w = rng.normal(size=n)
    alpha = float(rng.choice([0.5, 0.7, 1.0]))
    c = C.linear_maximize(w, alpha)
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


@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 12),
       R=st.sampled_from([1, 2, 7, 52]),
       body=st.sampled_from(["cardinality", "partition", "knapsack"]),
       tied=st.booleans(), exact=st.booleans())
@settings(max_examples=200, deadline=None)
def test_greedy_fill_matches_the_per_row_walk(seed, n, R, body, tied, exact):
    # stacked weight rows with mixed caps: tied ratios come from rounded
    # weights over equal costs, some rows are all nonpositive, and exact
    # budgets (sums of small integer costs under dyadic caps) run out to 0
    rng = np.random.default_rng(seed)
    W = rng.normal(size=(R, n))
    if tied:
        W = np.round(W * 2.0) / 2.0
    nonpositive = rng.random(R) < 0.25
    W[nonpositive] = -np.abs(W[nonpositive])
    alpha = rng.choice([0.25, 0.5, 0.75, 1.0] if exact else [0.3, 0.5, 0.7, 1.0], R)
    if exact or tied:
        costs = rng.choice([1.0, 2.0, 4.0] if exact else [1.0], n)
    else:
        costs = 0.5 + rng.random(n)

    def budget(cs):
        if exact:  # a sum of costs: every fill below stays exact
            return float(cs[: int(rng.integers(1, cs.size + 1))].sum())
        return float(rng.uniform(0.2, 0.9) * cs.sum())

    if body == "cardinality":
        C = sm.CardinalityPolytope(n, budget(np.ones(n)))
    elif body == "knapsack":
        C = sm.KnapsackPolytope(n, costs, budget(costs))
    else:
        blocks = np.array_split(rng.permutation(n), int(rng.integers(1, min(3, n) + 1)))
        C = sm.PartitionMatroidPolytope(n, blocks, [budget(np.ones(b.size)) for b in blocks])
    got = C._greedy_fill(W, alpha)
    assert got.tobytes() == reference_greedy_fill(C, W, alpha).tobytes()


class _UnitRows(sm.polytope.Polytope):
    # unit-cost packing rows of 3 and 2 places; coordinate 4 in no row
    def __init__(self):
        super().__init__(6)
        self.rows = [(np.array([0, 2, 5]), np.ones(3), 1.3),
                     (np.array([1, 3]), np.ones(2), 0.6)]


SHORTCUT_BODIES = {
    # name: (body, its grid's unit and ident flags)
    "cardinality": (lambda: sm.CardinalityPolytope(7, 2.5), True, True),
    "cardinality-below-a-cap": (lambda: sm.CardinalityPolytope(7, 0.2), True, True),
    "partition": (lambda: sm.PartitionMatroidPolytope(
        7, [[0, 3, 5], [1, 2, 4, 6]], [1.5, 0.7]), True, False),
    "partition-one-block": (lambda: sm.PartitionMatroidPolytope(
        7, [[6, 0, 1, 2, 3, 4, 5]], [2.2]), True, True),
    "knapsack-unit-costs": (lambda: sm.KnapsackPolytope(7, [1.0] * 7, 3.7), True, True),
    "knapsack": (lambda: sm.KnapsackPolytope(
        7, [0.5, 1.0, 2.0, 1.0, 0.25, 3.0, 1.5], 2.9), False, True),
    "unit-rows-and-a-free-coordinate": (_UnitRows, True, False),
}
EXTREME_WEIGHTS = [5e-324, -5e-324, 0.0, -0.0, 1.0, 1.0, 2.0, 0.5, 1e300, -1e300,
                   1e-300, -1e-300, 1.7e308, -1.0]


def general_path(C):
    """C with the unit-cost and identity shortcuts off: the same grid, read
    by the general fill and membership."""
    G = copy.copy(C)
    G.__dict__["_grid"] = C._grid._replace(unit=False, ident=False)
    return G


def extreme_batch(n, seed, R=40):
    # weights drawn from the extremes, plus rows of exact ties and rows with
    # no positive weight; one cap per row from {0.3, 0.5, 0.7, 1}
    rng = np.random.default_rng(seed)
    W = rng.choice(EXTREME_WEIGHTS, (R, n))
    W[0], W[1], W[2] = 1.0, -0.0, [5e-324, 0.0] * (n // 2) + [5e-324] * (n % 2)
    W[3] = rng.choice([1e300, 1e-300, 1.0], n)
    return W, rng.choice([0.3, 0.5, 0.7, 1.0], R)


class TestShortcuts:
    @pytest.mark.parametrize("name", SHORTCUT_BODIES)
    def test_grid_records_unit_costs_and_identity_layouts(self, name):
        make, unit, ident = SHORTCUT_BODIES[name]
        grid = make()._grid
        assert (grid.unit, grid.ident) == (unit, ident)

    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("name", SHORTCUT_BODIES)
    def test_fill_matches_the_walk_and_the_general_path(self, name, seed):
        # byte for byte, as a batch and one row at a time
        C = SHORTCUT_BODIES[name][0]()
        W, alpha = extreme_batch(C.n, seed)
        want = reference_greedy_fill(C, W, alpha)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert C._greedy_fill(W, alpha).tobytes() == want.tobytes()
            assert C.linear_maximize(W, alpha).tobytes() == want.tobytes()
            for w, a, row in zip(W, alpha, want):
                assert C.linear_maximize(w, a).v.tobytes() == row.tobytes()
        assert general_path(C)._greedy_fill(W, alpha).tobytes() == want.tobytes()

    @pytest.mark.parametrize("name", SHORTCUT_BODIES)
    def test_membership_matches_the_general_path(self, name):
        # points on the budget (the fills) and just off it, row by row too
        C = SHORTCUT_BODIES[name][0]()
        W, alpha = extreme_batch(C.n, 7)
        fills = C.linear_maximize(np.abs(W) + 1.0, alpha)
        X = np.concatenate([fills, fills * (1 + FEAS_TOL), fills * (1 + 2 * FEAS_TOL),
                            fills + FEAS_TOL / C.n, np.random.default_rng(7).random((20, C.n))])
        got = C.contains_point(X)
        assert got.tolist() == general_path(C).contains_point(X).tolist()
        assert got.any() and not got.all()
        assert [C.contains_point(x) for x in X] == got.tolist()

    @pytest.mark.parametrize("name", SHORTCUT_BODIES)
    def test_inputs_are_only_read(self, name):
        # the identity layout reads the caller's weights in place
        C = SHORTCUT_BODIES[name][0]()
        W, alpha = extreme_batch(C.n, 3)
        before = W.copy()
        W.flags.writeable = False
        c = C.linear_maximize(W, alpha)
        one = C.linear_maximize(W[5], 0.5)
        assert W.tobytes() == before.tobytes()
        assert not np.shares_memory(c, W) and not np.shares_memory(one.v, W)
        X = np.random.default_rng(3).random((9, C.n))
        X_before = X.copy()
        X.flags.writeable = False
        C.contains_point(X)
        C.contains_point(X[4])
        assert X.tobytes() == X_before.tobytes()
