"""Brute-force oracles, the approximation constant, and the check suite."""

import dataclasses
from itertools import combinations

import numpy as np
import pytest

import submax as sm
from submax import ConfigError, EstimatorConfig, EstimatorError, Point
from submax.cli import main

from helpers import random_table_function


class TestBruteForceOpt:
    def test_one_arc_cardinality(self):
        f = sm.DirectedCut(2, [(0, 1, 1.0)])
        C = sm.CardinalityPolytope(2, 1)
        S, val = sm.brute_force_opt(f, C)
        assert S == frozenset({0}) and val == 1.0

    def test_zero_function_prefers_empty_set(self):
        f = sm.ExplicitTable(3, np.zeros(8))
        C = sm.CardinalityPolytope(3, 2)
        S, val = sm.brute_force_opt(f, C)
        assert S == frozenset() and val == 0.0

    def test_matches_nested_loop_enumeration(self):
        # second, independently coded enumeration with feasibility counted
        # from the block lists (not contains_mask_batch)
        rng = np.random.default_rng(70)
        f = random_table_function(rng, 8)
        blocks = [[0, 1, 2], [3, 4], [5, 6, 7]]
        budgets = [2, 1, 2]
        C = sm.PartitionMatroidPolytope(8, blocks, budgets)
        best_val, best_set = -np.inf, None
        for r in range(9):
            for T in combinations(range(8), r):
                counts = [sum(1 for e in T if e in b) for b in blocks]
                if any(c > k for c, k in zip(counts, budgets)):
                    continue
                v = f.value(set(T))
                if v > best_val:
                    best_val, best_set = v, frozenset(T)
        S, val = sm.brute_force_opt(f, C)
        assert val == pytest.approx(best_val, abs=1e-12)
        assert f.value(S) == pytest.approx(best_val, abs=1e-12)

    def test_dominates_feasible_indicator_points(self):
        rng = np.random.default_rng(71)
        f = random_table_function(rng, 7)
        C = sm.KnapsackPolytope(7, 0.5 + rng.random(7), 2.0)
        _, val = sm.brute_force_opt(f, C)
        for mask in range(1 << 7):
            if C.contains_point(Point.indicator(7, mask)):
                assert f.value(mask) <= val + 1e-12

    def test_size_limit(self):
        f = sm.DirectedCut(21, [(0, 1, 1.0)])
        with pytest.raises(EstimatorError, match="brute force limited to n <= 20"):
            sm.brute_force_opt(f, sm.CardinalityPolytope(21, 2))
        with pytest.raises(EstimatorError, match="brute force limited to n <= 20"):
            sm.brute_force_box_opt(f, Point.zeros(21), Point.ones(21))


class TestBruteForceBoxOpt:
    def test_degenerate_box(self):
        rng = np.random.default_rng(1)
        f = random_table_function(rng, 4)
        u = Point(rng.random(4))
        x, val = sm.brute_force_box_opt(f, u, u)
        assert np.allclose(x.v, u.v)
        assert val == pytest.approx(sm.multilinear(f, u), abs=1e-12)

    def test_one_arc_full_box(self):
        f = sm.DirectedCut(2, [(0, 1, 1.0)])
        x, val = sm.brute_force_box_opt(f, Point.zeros(2), Point.ones(2))
        assert np.allclose(x.v, [1.0, 0.0]) and val == pytest.approx(1.0)

    def test_one_arc_half_box(self):
        f = sm.DirectedCut(2, [(0, 1, 1.0)])
        x, val = sm.brute_force_box_opt(f, Point.zeros(2), Point([0.5, 0.5]))
        assert np.allclose(x.v, [0.5, 0.0]) and val == pytest.approx(0.5)

    def test_ties_prefer_upper_corners(self):
        f = sm.ExplicitTable(3, np.full(8, 2.5))  # constant, every corner ties
        u = Point(np.zeros(3))
        v = Point([0.5, 0.7, 0.9])
        x, val = sm.brute_force_box_opt(f, u, v)
        assert np.allclose(x.v, v.v)
        assert val == pytest.approx(2.5)

    @pytest.mark.parametrize("u, v", [
        ([0.0, 0.0], [1.0, 1.0, 1.0]), ([0.0, 0.0, 0.0, 0.0], [1.0, 1.0, 1.0]),
        ([0.0, 0.0, 0.0], [1.0, 1.0])])
    def test_bound_of_the_wrong_size_rejected(self, u, v):
        f = sm.DirectedCut(3, [(0, 1, 1.0)])
        with pytest.raises(ValueError, match="3 coordinates"):
            sm.brute_force_box_opt(f, u, v)

    def test_dominates_random_interior_points(self):
        # corner optimality: no interior point of the box does better
        rng = np.random.default_rng(2)
        f = random_table_function(rng, 6)
        u = Point(rng.random(6) * 0.4)
        v = Point(u.v + (1 - u.v) * rng.random(6))
        _, val = sm.brute_force_box_opt(f, u, v)
        for _ in range(300):
            y = u.v + (v.v - u.v) * rng.random(6)
            assert sm.multilinear(f, y) <= val + 1e-9


class TestComputeBound:
    def test_reference_point(self):
        c = sm.compute_bound(0.5, 0.18)
        assert c > 0.372
        assert c == pytest.approx(0.37210, abs=1e-4)

    def test_collapses_to_one_over_e_at_theta_zero(self):
        for alpha in np.linspace(0.5, 1.0, 21):
            assert sm.compute_bound(float(alpha), 0.0) == pytest.approx(
                1.0 / np.e, abs=1e-9)

    def test_grid_maximizer_near_tuned_theta(self):
        # oracle-computed: the true maximizer sits at ~0.1841, i.e. within
        # 0.005 of the tuned value 0.18
        theta_star, val = sm.best_bound_theta(0.5, grid_points=1000)
        assert abs(theta_star - 0.18) <= 0.005
        assert val > 0.372

    def test_continuity_on_grid(self):
        thetas = np.linspace(0.0, 1.0, 2001)
        vals = np.array([sm.compute_bound(0.5, float(t)) for t in thetas])
        assert np.max(np.abs(np.diff(vals))) < 1e-3

    def test_domain_validation(self):
        with pytest.raises(ConfigError):
            sm.compute_bound(0.4, 0.1)
        with pytest.raises(ConfigError):
            sm.compute_bound(0.5, 1.5)
        for grid in (0, -3, sm.verify.BOUND_GRID_LIMIT + 1):
            with pytest.raises(ConfigError, match="grid"):
                sm.best_bound_theta(0.5, grid)


    @pytest.mark.parametrize("call", [
        lambda: sm.compute_bound(True, 0.18), lambda: sm.compute_bound("0.5", 0.18),
        lambda: sm.compute_bound(0.5, None), lambda: sm.best_bound_theta(0.5, True),
        lambda: sm.best_bound_theta(0.5, 2.5),
    ], ids=["alpha-true", "alpha-string", "theta-none", "grid-true", "grid-float"])
    def test_non_numbers_rejected_as_run_config_rejects_them(self, call):
        with pytest.raises(ConfigError):
            call()


class TestJoinLowerBound:
    def test_equality_at_origin(self):
        rng = np.random.default_rng(3)
        f = random_table_function(rng, 5)
        for mask in range(32):
            x = np.zeros(5)
            ind = Point.indicator(5, mask).v
            lhs = sm.multilinear(f, np.maximum(x, ind))
            assert lhs == pytest.approx(f.value(mask), abs=1e-12)
            assert sm.check_x_or_opt(f, x, mask)

    def test_full_infinity_norm(self):
        rng = np.random.default_rng(4)
        f = random_table_function(rng, 5)
        x = np.zeros(5)
        x[2] = 1.0
        assert sm.check_x_or_opt(f, x, {0, 1})

    def test_random_sweep(self):
        rng = np.random.default_rng(5)
        for _ in range(100):
            n = int(rng.integers(2, 9))
            f = random_table_function(rng, n)
            assert sm.check_x_or_opt(f, rng.random(n), int(rng.integers(1 << n)))

    @pytest.mark.parametrize("x", [[0.5, 0.5], [0.5] * 4, [[0.5] * 3]],
                             ids=["short", "long", "batch"])
    def test_point_of_the_wrong_shape_rejected(self, x):
        f = sm.DirectedCut(3, [(0, 1, 1.0)])
        with pytest.raises(ValueError, match="3 coordinates"):
            sm.check_x_or_opt(f, x, {0})


class TestLpBruteForce:
    @pytest.mark.parametrize("w", [[1.0, 2.0], [1.0, 2.0, 3.0, 4.0], [[1.0, 2.0, 3.0]]],
                             ids=["short", "long", "batch"])
    @pytest.mark.parametrize("C", [
        sm.CardinalityPolytope(3, 1),
        sm.PartitionMatroidPolytope(3, [[0], [1, 2]], [1, 1]),
        sm.KnapsackPolytope(3, [1.0, 2.0, 3.0], 2.0)],
        ids=["cardinality", "partition", "knapsack"])
    def test_weights_of_the_wrong_shape_rejected(self, C, w):
        with pytest.raises(ValueError, match="3 coordinates"):
            sm.lp_brute_force(C, w, 0.5)


def _scaled(inst, c):
    """The instance with every weight (cut, coverage) or table value times c."""
    fn = dict(inst.function)
    if fn["kind"] == "directed-cut":
        fn["arcs"] = [[a, b, w * c] for a, b, w in fn["arcs"]]
    elif fn["kind"] == "coverage":
        fn["item_weights"] = [w * c for w in fn["item_weights"]]
    else:
        fn["values"] = [v * c for v in fn["values"]]
    return dataclasses.replace(inst, function=fn)


def _halve_y1(monkeypatch):
    """Every greedy candidate's value, as the bounds read it, halved."""
    diagnostics = sm.cgreedy.bound_diagnostics
    monkeypatch.setattr(sm.cgreedy, "bound_diagnostics", lambda run, results, opt:
                        diagnostics(run, [dataclasses.replace(r, y1_value=0.5 * r.y1_value)
                                          for r in results], opt))


def _halve_fill(monkeypatch):
    """The capped oracle filling half of what it should."""
    fill = sm.polytope.Polytope._greedy_fill
    monkeypatch.setattr(sm.polytope.Polytope, "_greedy_fill",
                        lambda C, W, plan: 0.5 * fill(C, W, plan))


class TestPropertySuite:
    def test_clean_instance_passes_all_hard_checks(self):
        inst = sm.gen("directed-cut", 6, "cardinality", 12)
        f, C = inst.build()
        run = sm.RunConfig(delta=0.05, theta_grid=(0.0, 0.2, 0.5))
        results = sm.property_suite(f, C, seed=7, run=run)
        failures = [r.name for r in results if not r.passed]
        assert not failures, failures
        assert any("ratio" in r.name for r in results)

    @pytest.mark.parametrize("scale", [1e-6, 1e3, 1e6])
    @pytest.mark.parametrize("kind, body", [
        ("directed-cut", "knapsack"), ("coverage", "knapsack"),
        ("explicit-table", "cardinality"),
    ])
    def test_scaled_instance_passes_every_check(self, kind, body, scale):
        # every tolerance on a value scales with max_singleton(f), so c * f
        # passes wherever f does
        f, C = _scaled(sm.gen(kind, 6, body, 2), scale).build()
        run = sm.RunConfig(delta=0.05, theta_grid=(0.0, 0.2, 0.5))
        results = sm.property_suite(f, C, seed=0, run=run)
        failures = [f"{r.name} [{r.detail}]" for r in results if not r.passed]
        assert not failures, failures

    @pytest.mark.parametrize("mode", ["closed", "mc"])
    def test_fallback_box_check_catches_a_halved_fallback(self, monkeypatch, mode):
        name = "fallback double greedy floor on every distinct box"
        f, C = sm.gen("coverage", 8, "knapsack", 3).build()
        cfg = EstimatorConfig(mode=mode, sample_count=200, rng_seed=1)
        run = sm.RunConfig(delta=0.05, theta_grid=(0.0, 0.2, 0.5, 1.0), cfg=cfg)
        check = {r.name: r for r in sm.verify.solver_checks(f, C, run)}[name]
        assert check.passed
        fallback = sm.cgreedy._fallback
        monkeypatch.setattr(sm.cgreedy, "_fallback",
                            lambda f, cfg, p: Point(0.5 * fallback(f, cfg, p).v))
        check = {r.name: r for r in sm.verify.solver_checks(f, C, run)}[name]
        assert not check.passed

    @pytest.mark.parametrize("mutate", [_halve_y1, _halve_fill],
                             ids=["halved-y1", "halved-oracle-fill"])
    def test_bound_line_catches_a_weakened_branch(self, monkeypatch, mutate):
        # each mutation weakens a branch and breaks no invariant of the run:
        # only the bounds, held exactly, can catch it
        name = "branch lower bounds hold exactly"
        f, C = sm.gen("directed-cut", 6, "cardinality", 0).build()
        run = sm.RunConfig(delta=0.05, theta_grid=(0.0, 0.2, 0.5))
        check = {r.name: r for r in sm.verify.solver_checks(f, C, run)}[name]
        assert check.passed
        mutate(monkeypatch)
        check = {r.name: r for r in sm.verify.solver_checks(f, C, run)}[name]
        assert not check.passed

    def test_fallback_box_check_stops_above_ten_elements(self):
        f, C = sm.gen("coverage", 11, "knapsack", 3).build()
        run = sm.RunConfig(delta=0.05, theta_grid=(0.0, 0.2))
        names = [r.name for r in sm.verify.solver_checks(f, C, run)]
        assert "fallback double greedy floor on every distinct box" not in names

    @pytest.mark.parametrize("scale", [1e-6, 1.0, 1e6])
    def test_closed_form_gradient_check_runs_and_catches_a_wrong_gradient(
            self, monkeypatch, scale):
        # the tolerance scales with f, so a gradient off by a relative 1e-9
        # fails at every weight scale, small weights too
        name = "closed-form gradient matches one-coordinate identity"
        rng = np.random.default_rng(3)
        table = random_table_function(rng, 5)
        assert name not in [r.name for r in sm.verify.calculus_checks(table, rng, 5)]
        f = _scaled(sm.gen("coverage", 30, "cardinality", 4), scale).build_function()
        check = {r.name: r for r in sm.verify.calculus_checks(f, rng, 5)}[name]
        assert check.passed
        good = sm.Coverage.closed_form_grad
        monkeypatch.setattr(sm.Coverage, "closed_form_grad",
                            lambda self, x: good(self, x) * (1.0 + 1e-9))
        check = {r.name: r for r in sm.verify.calculus_checks(f, rng, 5)}[name]
        assert not check.passed

    @pytest.mark.parametrize("corpus", [["--corpus", "mini"],
                                        ["--corpus", "desk", "--seed", "1"]])
    def test_corpus_passes_every_check(self, corpus):
        assert main(["verify", *corpus]) == 0

    def test_vertex_check_reaches_every_element_past_bit_62(self):
        # at n=100 the check runs on the closed form; one that is wrong only
        # on sets holding element 80 must fail it
        name = "extension agrees with f on 0/1 points"
        rng = np.random.default_rng(9)
        f = sm.gen("directed-cut", 100, "cardinality", 2).build_function()
        check = {r.name: r for r in sm.verify.extension_checks(f, rng)}[name]
        assert check.passed

        class WrongAt80(sm.DirectedCut):
            def closed_form_batch(self, X):
                return super().closed_form_batch(X) + X[:, 80]
        bad = WrongAt80(100, zip(f.src.tolist(), f.dst.tolist(), f.w.tolist()))
        check = {r.name: r for r in sm.verify.extension_checks(bad, rng)}[name]
        assert not check.passed
