"""The capped/standard greedy stages, the fallback branch, and the sweep."""

import dataclasses
import hashlib
import zlib

import numpy as np
import pytest

import submax as sm
from submax import (ConfigError, EstimatorConfig, InvariantError, Point,
                    RunConfig, cgreedy, setfn)
from submax.cli import main

from helpers import (dampened_stage, dg_branch, random_constraint,
                     random_coverage, random_cut, random_function,
                     random_table_function, reference_coverage_batch,
                     reference_coverage_grad, reference_coverage_partial,
                     reference_greedy_fill, residual_gradient, standard_stage)


@pytest.fixture
def one_arc_k1():
    return sm.DirectedCut(2, [(0, 1, 1.0)]), sm.CardinalityPolytope(2, 1)


class TestRunConfig:
    def test_defaults(self):
        run = RunConfig()
        assert run.alpha == 0.5 and run.delta == 0.005
        assert run.total_steps == 200
        assert 0.18 in run.theta_grid
        assert len(run.theta_grid) == 51
        assert run.theta_grid[0] == 0.0 and run.theta_grid[-1] == 1.0

    def test_every_default_theta_is_a_step_multiple(self):
        run = RunConfig()
        for t in run.theta_grid:
            k = round(t / run.delta)
            assert abs(t - k * run.delta) <= 1e-12

    @pytest.mark.parametrize("delta, grid", [
        (0.01, sm.default_theta_grid()),
        (0.02, sm.default_theta_grid()),
        (0.05, sm.default_theta_grid()[::5]),
        (0.25, (0.0, 0.5, 1.0)),
        (1 / 3, (0.0, 1.0)),
    ])
    def test_default_grid_keeps_the_thetas_on_delta_grid(self, delta, grid):
        assert RunConfig(delta=delta).theta_grid == grid

    def test_alpha_range(self):
        with pytest.raises(ConfigError):
            RunConfig(alpha=0.4)
        with pytest.raises(ConfigError):
            RunConfig(alpha=1.01)
        RunConfig(alpha=1.0, delta=0.01)

    def test_delta_must_divide_one(self):
        with pytest.raises(ConfigError):
            RunConfig(delta=0.3, theta_grid=(0.0,))
        RunConfig(delta=0.25, theta_grid=(0.0, 0.25, 1.0))

    @pytest.mark.parametrize("delta", [1e-300, 1e-5])
    def test_step_count_is_bounded(self, delta):
        with pytest.raises(ConfigError, match="at most 10000 steps"):
            RunConfig(delta=delta, theta_grid=(0.0,))

    def test_step_limit_is_reachable(self):
        assert RunConfig(delta=1e-4, theta_grid=(0.0,)).total_steps == 10_000

    def test_theta_must_be_step_multiple(self):
        with pytest.raises(ConfigError):
            RunConfig(delta=0.25, theta_grid=(0.1,))

    def test_empty_grid_rejected(self):
        with pytest.raises(ConfigError):
            RunConfig(theta_grid=())

    def test_unsorted_grid_rejected(self):
        with pytest.raises(ConfigError):
            RunConfig(delta=0.25, theta_grid=(0.5, 0.25))

    @pytest.mark.parametrize("kwargs", [
        {"alpha": "0.7"}, {"alpha": None}, {"alpha": True}, {"alpha": [0.7]},
        {"delta": "0.01"}, {"delta": None}, {"delta": False},
        {"theta_grid": (True,)}, {"theta_grid": ("0.5",)}, {"theta_grid": (0.0, None)},
        {"theta_grid": 0.5}, {"alpha": 10**400},
    ], ids=["alpha-str", "alpha-none", "alpha-bool", "alpha-list", "delta-str",
            "delta-none", "delta-bool", "theta-bool", "theta-str", "theta-none",
            "grid-not-a-sequence", "alpha-past-float"])
    def test_non_real_numbers_rejected(self, kwargs):
        with pytest.raises(ConfigError):
            RunConfig(**kwargs)

    def test_numbers_are_stored_as_plain_floats(self):
        run = RunConfig(alpha=np.float32(0.75), delta=np.float64(0.25),
                        theta_grid=[np.int64(0), 0.5, 1])
        assert (run.alpha, run.delta, run.theta_grid) == (0.75, 0.25, (0.0, 0.5, 1.0))
        assert all(type(v) is float for v in (run.alpha, run.delta, *run.theta_grid))
        assert type(RunConfig(alpha=1).alpha) is float


class TestDampenedStage:
    def test_single_step_hand_trace(self, one_arc_k1):
        f, C = one_arc_k1
        run = RunConfig(alpha=0.5, delta=0.1, theta_grid=(0.1,))
        x_theta, v_theta, traj = dampened_stage(f, C, run, 0.1)
        assert np.allclose(traj.directions[0].v, [0.5, 0.0])
        assert np.allclose(x_theta.v, [0.05, 0.0])
        assert len(traj) == 1

    def test_theta_zero(self, one_arc_k1):
        f, C = one_arc_k1
        run = RunConfig(delta=0.1, theta_grid=(0.0, 0.1))
        x_theta, v_theta, traj = dampened_stage(f, C, run, 0.0)
        assert np.all(x_theta.v == 0.0)
        assert len(traj) == 0
        direct = C.linear_maximize(residual_gradient(f, np.zeros(2)), run.alpha)
        assert np.allclose(v_theta.v, direct.v)

    def test_linf_envelope_at_every_step(self):
        rng = np.random.default_rng(77)
        f = random_function(rng, 8)
        C = random_constraint(rng, 8)
        run = RunConfig(alpha=0.5, delta=0.02, theta_grid=(0.5,))
        x_theta, _, traj = dampened_stage(f, C, run, 0.5)
        damp = 1.0 - run.delta * run.alpha
        for j, pt in enumerate(traj.points):
            assert pt.norm_inf() <= 1.0 - damp**j + 1e-12
        k = len(traj)
        assert x_theta.norm_inf() <= 1.0 - damp**k + 1e-12

    def test_directions_obey_cap_and_membership(self):
        rng = np.random.default_rng(5)
        f = random_function(rng, 6)
        C = random_constraint(rng, 6)
        run = RunConfig(alpha=0.5, delta=0.05, theta_grid=(0.4,))
        _, v_theta, traj = dampened_stage(f, C, run, 0.4)
        for v in traj.directions + [v_theta]:
            assert v.norm_inf() <= run.alpha + 1e-12
            assert C.contains_point(v)

    def test_trajectory_lists_share_length(self):
        rng = np.random.default_rng(6)
        f = random_function(rng, 5)
        C = random_constraint(rng, 5)
        run = RunConfig(delta=0.1, theta_grid=(0.3,))
        _, _, traj = dampened_stage(f, C, run, 0.3)
        assert len(traj.times) == len(traj.points) \
            == len(traj.directions) == len(traj.inner_products) == 3


class TestStandardStage:
    def test_theta_one_is_empty(self, one_arc_k1):
        f, C = one_arc_k1
        run = RunConfig(delta=0.1, theta_grid=(1.0,))
        start = Point([0.3, 0.1])
        y1, traj = standard_stage(f, C, run, start, 1.0)
        assert np.allclose(y1.v, start.v)
        assert len(traj) == 0

    def test_envelope_with_dampened_prefix(self):
        rng = np.random.default_rng(15)
        f = random_function(rng, 7)
        C = random_constraint(rng, 7)
        run = RunConfig(alpha=0.5, delta=0.02, theta_grid=(0.2,))
        x_theta, _, _ = dampened_stage(f, C, run, 0.2)
        y1, traj = standard_stage(f, C, run, x_theta, 0.2)
        k = run.steps_of(0.2)
        base = (1.0 - run.delta * run.alpha) ** k
        for j, pt in enumerate(traj.points):
            bound = base * (1.0 - run.delta) ** j
            assert pt.norm_inf() <= 1.0 - bound + 1e-12
        final = base * (1.0 - run.delta) ** len(traj)
        assert y1.norm_inf() <= 1.0 - final + 1e-12

    def test_theta_zero_on_monotone_coverage_behaves_classically(self):
        # sanity check of the uncapped stage: close to the 1-1/e regime
        rng = np.random.default_rng(8)
        f = random_coverage(rng, 8)
        C = sm.CardinalityPolytope(8, 3)
        run = RunConfig(alpha=0.5, delta=0.005, theta_grid=(0.0,))
        x0, _, _ = dampened_stage(f, C, run, 0.0)
        y1, _ = standard_stage(f, C, run, x0, 0.0)
        _, opt = sm.brute_force_opt(f, C)
        assert sm.multilinear(f, y1) >= (1.0 - 1.0 / np.e - 0.02) * opt


class TestDgBranch:
    def test_nonpositive_residual_gives_origin(self, one_arc_k1):
        f, C = one_arc_k1
        p, z = dg_branch(f, C, Point.ones(2))
        assert np.all(p.v == 0.0)
        assert np.all(z.v == 0.0)

    def test_z_below_p_and_feasible(self):
        rng = np.random.default_rng(21)
        for _ in range(20):
            n = int(rng.integers(2, 8))
            f = random_function(rng, n)
            C = random_constraint(rng, n)
            x = Point(rng.random(n) * 0.5)
            p, z = dg_branch(f, C, x)
            assert np.all(z.v <= p.v + 1e-12)
            assert C.contains_point(z)

    def test_guarantee_against_box_corner_oracle(self):
        rng = np.random.default_rng(34)
        for _ in range(15):
            n = int(rng.integers(2, 8))
            f = random_function(rng, n)
            C = random_constraint(rng, n)
            x = Point(rng.random(n) * 0.4)
            p, z = dg_branch(f, C, x)
            _, box_opt = sm.brute_force_box_opt(f, Point.zeros(n), p)
            floor = sm.guarantee_floor(sm.multilinear(f, Point.zeros(n)),
                                       sm.multilinear(f, p), box_opt)
            assert sm.multilinear(f, z) >= floor - 1e-9


class TestSolve:
    @pytest.mark.parametrize("f", [
        sm.ExplicitTable(2, np.zeros(4)),
        sm.DirectedCut(2, []),
        sm.Coverage(2, [[], []], []),
    ], ids=["table", "cut", "coverage"])
    def test_zero_function(self, f):
        C = sm.CardinalityPolytope(2, 1)
        run = RunConfig(delta=0.25, theta_grid=(0.0, 0.5, 1.0))
        report = sm.solve(f, C, run)
        assert report.best_value == 0.0

    def test_theta_zero_grid_degenerates_to_unified_greedy(self, one_arc_k1):
        f, C = one_arc_k1
        run = RunConfig(delta=0.1, theta_grid=(0.0,))
        report = sm.solve(f, C, run)
        assert len(report.per_theta) == 1
        r = report.per_theta[0]
        assert r.dampened_steps == 0
        assert r.standard_steps == run.total_steps
        assert np.all(r.x_theta.v == 0.0)

    def test_report_structure_and_reproduction(self):
        rng = np.random.default_rng(90)
        f = random_function(rng, 7)
        C = random_constraint(rng, 7)
        run = RunConfig(delta=0.05, theta_grid=(0.0, 0.2, 0.5, 1.0))
        _, opt = sm.brute_force_opt(f, C)
        report = sm.solve(f, C, run, opt_value=opt)
        per_theta_best = max(max(r.y1_value, r.z_value) for r in report.per_theta)
        assert report.best_value == pytest.approx(per_theta_best, abs=1e-12)
        assert abs(sm.multilinear(f, report.best) - report.best_value) <= 1e-9
        assert C.contains_point(report.best)
        for r in report.per_theta:
            assert C.contains_point(r.x_theta)
            assert C.contains_point(r.y1)
            assert C.contains_point(r.z)
        assert report.diagnostics
        assert all(d.passed for d in report.diagnostics)

    def test_value_telescoping_along_trajectory(self):
        rng = np.random.default_rng(44)
        f = random_function(rng, 6)
        C = random_constraint(rng, 6)
        run = RunConfig(delta=0.02, theta_grid=(0.4,))
        x_theta, _, traj = dampened_stage(f, C, run, 0.4)
        pts = [p.v for p in traj.points] + [x_theta.v]
        vals = [sm.multilinear(f, p) for p in pts]
        total = vals[-1] - vals[0]
        assert total == pytest.approx(sum(np.diff(vals)), abs=1e-9)
        bound_slip = run.delta**2 * f.n**3 * sm.max_singleton(f)
        for j in range(len(traj)):
            gain = vals[j + 1] - vals[j]
            assert gain >= run.delta * traj.inner_products[j] - bound_slip - 1e-12

    def test_recorded_trajectory_points_stay_feasible(self):
        rng = np.random.default_rng(61)
        f = random_function(rng, 6)
        C = random_constraint(rng, 6)
        run = RunConfig(delta=0.05, theta_grid=(0.4,))
        x_theta, _, dtraj = dampened_stage(f, C, run, 0.4)
        y1, straj = standard_stage(f, C, run, x_theta, 0.4)
        for pt in dtraj.points + straj.points + [x_theta, y1]:
            assert C.contains_point(pt)

    def test_alpha_one_skips_fallback_diagnostic(self):
        f = sm.DirectedCut(5, [(0, 1, 0.8), (1, 2, 0.5), (3, 0, 0.9)])
        C = sm.CardinalityPolytope(5, 2)
        run = RunConfig(alpha=1.0, delta=0.05, theta_grid=(0.0, 0.2))
        _, opt = sm.brute_force_opt(f, C)
        report = sm.solve(f, C, run, opt_value=opt)
        assert {d.name for d in report.diagnostics} == {"greedy-stage-bound"}
        assert all(d.passed for d in report.diagnostics)

    def test_single_element_ground_set(self):
        f = sm.ExplicitTable(1, [0.0, 2.0])
        C = sm.CardinalityPolytope(1, 1)
        report = sm.solve(f, C, RunConfig(delta=0.1, theta_grid=(0.0, 0.5)))
        assert report.best_value == pytest.approx(2.0)
        assert report.best_branch == "double-greedy"

    def test_mc_mode_runs_and_is_reproducible(self, one_arc_k1):
        f, C = one_arc_k1
        cfg = EstimatorConfig(mode="mc", sample_count=400, rng_seed=3)
        run = RunConfig(delta=0.25, theta_grid=(0.25,), cfg=cfg)
        a = sm.solve(f, C, run)
        b = sm.solve(f, C, run)
        assert a.best_value == b.best_value
        assert np.allclose(a.best.v, b.best.v)


def _per_theta_composition(f, C, run):
    """The sweep composed one theta at a time from the public stages: each
    theta reruns stage one from 0 and recomputes the gradient at x(theta)
    for v_theta, p, final_inner and stage two's first step."""
    cfg = run.resolve_cfg(f)
    out = []
    for theta in run.theta_grid:
        x_theta, v_theta, dtraj = dampened_stage(f, C, run, theta)
        y1, straj = standard_stage(f, C, run, x_theta, theta)
        p, z = dg_branch(f, C, x_theta, cfg)
        out.append(sm.ThetaResult(
            theta=theta, x_theta=x_theta,
            x_value=sm.multilinear(f, x_theta, cfg),
            y1=y1, y1_value=sm.multilinear(f, y1, cfg),
            p=p, z=z, z_value=sm.multilinear(f, z, cfg),
            final_inner=float(residual_gradient(f, x_theta, cfg) @ v_theta.v),
            dampened_steps=len(dtraj), standard_steps=len(straj)))
    return out


def _bodies(rng, n):
    half = n // 2
    costs = 0.5 + rng.random(n)
    return {
        "cardinality": sm.CardinalityPolytope(n, 2),
        "partition": sm.PartitionMatroidPolytope(
            n, [list(range(half)), list(range(half, n))], [1, 2]),
        "knapsack": sm.KnapsackPolytope(n, costs, 0.45 * float(costs.sum())),
    }


_FUNCTIONS = {"cut": random_cut, "coverage": random_coverage,
              "table": random_table_function}
_EQUIVALENCE_CASES = [(kind, body, mode) for kind in _FUNCTIONS
                      for body in ("cardinality", "partition", "knapsack")
                      for mode in ("closed", "exact")
                      if not (kind == "table" and mode == "closed")]


class TestSinglePassSweep:
    def test_body_of_another_size_rejected(self):
        # checked once per solve, as the loop's kernels do not check shapes
        f = sm.DirectedCut(3, [(0, 1, 1.0)])
        with pytest.raises(ValueError, match="3 elements but the body 4"):
            sm.solve(f, sm.CardinalityPolytope(4, 1), RunConfig(delta=0.25, theta_grid=(0.0,)))

    @pytest.mark.parametrize("kind,body,mode", _EQUIVALENCE_CASES)
    def test_matches_per_theta_composition(self, kind, body, mode):
        rng = np.random.default_rng(zlib.crc32(f"{kind}/{body}".encode()))
        f = _FUNCTIONS[kind](rng, 6)
        C = _bodies(rng, 6)[body]
        run = RunConfig(delta=0.05, theta_grid=tuple(np.round(
            np.linspace(0.0, 1.0, 21), 10)), cfg=EstimatorConfig(mode=mode))
        report = sm.solve(f, C, run)
        expected = _per_theta_composition(f, C, run)
        assert len(report.per_theta) == len(expected) == 21
        for got, want in zip(report.per_theta, expected):
            for fld in dataclasses.fields(sm.ThetaResult):
                a, b = getattr(got, fld.name), getattr(want, fld.name)
                if isinstance(a, Point):
                    assert np.array_equal(a.v, b.v), (got.theta, fld.name)
                else:
                    assert a == b, (got.theta, fld.name)
        best_value, best_theta, best_branch = \
            sm.multilinear(f, Point.zeros(6), run.resolve_cfg(f)), None, "origin"
        for r in expected:
            if r.y1_value > best_value:
                best_value, best_theta, best_branch = r.y1_value, r.theta, "greedy"
            if r.z_value > best_value:
                best_value, best_theta, best_branch = r.z_value, r.theta, "double-greedy"
        assert (report.best_value, report.best_theta, report.best_branch) \
            == (best_value, best_theta, best_branch)

    @pytest.mark.parametrize("run,rows", [
        (RunConfig(), 5251),
        (RunConfig(delta=0.05, theta_grid=(0.0, 0.25, 0.5)), 53),
    ], ids=["default", "grid-ends-before-one"])
    def test_one_gradient_per_distinct_point(self, monkeypatch, run, rows):
        # counted at the closed-form gradient kernel the sweep calls
        f, C = sm.gen("coverage", 12, "knapsack", 5).build()
        points = []
        inner = sm.Coverage.closed_form_grad

        def counted(self, x):
            points.extend(row.tobytes() for row in np.atleast_2d(x))
            return inner(self, x)

        monkeypatch.setattr(sm.Coverage, "closed_form_grad", counted)
        sm.solve(f, C, run)
        T = run.total_steps
        steps = [run.steps_of(t) for t in run.theta_grid]
        # (K+1) stage-one points, then T-k-1 new points per theta, each one
        # gradient row of the step's batch
        assert (steps[-1] + 1) + sum(max(T - k - 1, 0) for k in steps) == rows
        assert len(points) == rows
        assert len(set(points)) == rows

    def test_mc_stage_one_is_shared_across_thetas(self, monkeypatch):
        rng = np.random.default_rng(12)
        f = random_cut(rng, 5)
        C = sm.CardinalityPolytope(5, 2)
        cfg = EstimatorConfig(mode="mc", sample_count=200, rng_seed=11)
        run = RunConfig(delta=0.1, theta_grid=(0.0, 0.2, 0.5), cfg=cfg)
        labels = []
        substream = EstimatorConfig.substream

        def spy(self, *label):
            labels.append(label)
            return substream(self, *label)

        monkeypatch.setattr(EstimatorConfig, "substream", spy)
        report = sm.solve(f, C, run)
        # every row of step j draws from the one sub-stream (j,), once
        assert labels == [(j,) for j in range(run.total_steps)]
        for r in report.per_theta:
            x_theta, _, _ = dampened_stage(f, C, run, r.theta)
            assert r.x_theta.v.tobytes() == x_theta.v.tobytes(), r.theta
            y1, _ = standard_stage(f, C, run, x_theta, r.theta)
            assert r.y1.v.tobytes() == y1.v.tobytes(), r.theta


# the default run in closed mode; exact and mc modes on a coarser grid, to
# keep them fast
_MODE_RUNS = pytest.mark.parametrize("run", [RunConfig()] + [
    RunConfig(delta=0.05, theta_grid=tuple(np.round(np.linspace(0.0, 1.0, 21), 10)),
              cfg=cfg)
    for cfg in (EstimatorConfig(mode="exact"),
                EstimatorConfig(mode="mc", sample_count=200, rng_seed=7))
], ids=["closed", "exact", "mc"])


class TestOneFallbackPerBox:
    @_MODE_RUNS
    def test_one_double_greedy_per_distinct_box(self, monkeypatch, run):
        # a cut is not monotone, so its fallback runs double greedy
        f, C = sm.gen("directed-cut", 12, "knapsack", 5).build()
        cfg = run.resolve_cfg(f)
        boxes = []
        inner = cgreedy.double_greedy_box

        def counted(inst):
            boxes.append(inst.v.v.tobytes())
            return inner(inst)

        monkeypatch.setattr(cgreedy, "double_greedy_box", counted)
        report = sm.solve(f, C, run)
        distinct = {r.p.v.tobytes() for r in report.per_theta}
        assert sorted(boxes) == sorted(distinct)
        assert len(distinct) < len(report.per_theta)  # thetas share boxes
        if cfg.mode == "closed":
            assert len(distinct) == 4
        # each theta's box, solution and value are the per-theta fallback's;
        # in mc mode p comes from stage one's gradient sub-stream at x(theta)
        for r in report.per_theta:
            stream = cfg.substream(r.dampened_steps) if cfg.mode == "mc" else cfg
            p, z = dg_branch(f, C, r.x_theta, stream)
            assert r.p.v.tobytes() == p.v.tobytes(), r.theta
            assert r.z.v.tobytes() == z.v.tobytes(), r.theta
            assert np.float64(r.z_value).tobytes() \
                == np.float64(sm.multilinear(f, z, cfg)).tobytes(), r.theta

    @_MODE_RUNS
    def test_a_monotone_fallback_is_its_box_top_corner(self, monkeypatch, run):
        # coverage is monotone: its fallback is p itself, with no double greedy
        f, C = sm.gen("coverage", 12, "knapsack", 5).build()
        cfg = run.resolve_cfg(f)

        def refuse(inst):
            raise AssertionError("double greedy ran on a monotone function")

        monkeypatch.setattr(cgreedy, "double_greedy_box", refuse)
        report = sm.solve(f, C, run)
        for r in report.per_theta:
            assert r.z.v.tobytes() == r.p.v.tobytes(), r.theta
            assert np.float64(r.z_value).tobytes() \
                == np.float64(sm.multilinear(f, r.p, cfg)).tobytes(), r.theta


def _identity_gradient(self, x):
    return setfn.one_coordinate_gradient(self, x, EstimatorConfig(mode="closed"))


_DESK_SAMPLE = [inst for inst in sm.desk_corpus(1) if inst.n in (6, 10)][::2]


class TestAnalyticGradientSolve:
    @pytest.mark.parametrize("inst", _DESK_SAMPLE, ids=lambda inst: inst.name)
    def test_matches_solve_through_identity(self, monkeypatch, inst):
        f, C = inst.build()
        run = RunConfig(delta=0.01)
        analytic = sm.solve(f, C, run)
        for cls in (sm.DirectedCut, sm.Coverage):
            monkeypatch.setattr(cls, "closed_form_grad", _identity_gradient)
        identity = sm.solve(f, C, run)
        assert (analytic.best_theta, analytic.best_branch) \
            == (identity.best_theta, identity.best_branch)
        assert analytic.best_value == pytest.approx(identity.best_value, rel=1e-9)
        for a, b in zip(analytic.per_theta, identity.per_theta, strict=True):
            assert a.theta == b.theta
            for fld in ("x_value", "y1_value", "z_value", "final_inner"):
                assert getattr(a, fld) == pytest.approx(getattr(b, fld), rel=1e-9,
                                                        abs=1e-12), (a.theta, fld)


class _UncappedOracle(sm.CardinalityPolytope):
    """Plans every oracle batch with cap 1 whatever its caps, so stage one
    outgrows its l-inf envelope."""

    def _plan(self, caps):
        return sm.Polytope._plan(self, np.ones_like(caps))


class _EmptyBody(sm.CardinalityPolytope):
    """Reports every row of a membership batch as outside the body."""

    def _inside(self, X):
        return np.zeros(len(X), dtype=bool)


class _ExcludesOnePoint(sm.CardinalityPolytope):
    """A cardinality body with one point taken out: every batch row equal to
    ``point`` is reported outside."""

    def __init__(self, n, k, point):
        super().__init__(n, k)
        self.point = point

    def _inside(self, X):
        return super()._inside(X) & ~np.all(X == self.point, axis=1)


def _stage_two_point(f, C, run, theta, step):
    """theta's stage-two iterate after ``step`` global steps, its worst
    envelope coordinate and margin there, from the one-row reference."""
    x_theta, _, _ = dampened_stage(f, C, run, theta)
    _, traj = standard_stage(f, C, run, x_theta, theta)
    k = run.steps_of(theta)
    y = traj.points[step - k].v
    # the envelope as the run multiplies it down, through 1 - (1 - env) at
    # the switch; the slack is the run's where the complement 1 - y is at
    # least 1/2, as 1 - y is then exact
    env = 1.0
    for _ in range(k):
        env *= 1.0 - run.delta * run.alpha
    env = 1.0 - (1.0 - env)
    for _ in range(step - k):
        env *= 1.0 - run.delta
    slack = (1.0 - y) - env
    return y, int(np.argmin(slack)), float(slack.min())


def _hold_at_cap(run, cap, steps):
    """Drive one batch row through ``steps`` Euler steps with the direction
    (cap, cap/3, 0): coordinate 0 sits on its envelope at every step, the
    tightest case.  Returns every step's margin min(s - env)."""
    C = sm.CardinalityPolytope(3, 3)
    S, env = np.ones((1, 3)), np.ones(1)
    V = np.array([[cap, cap / 3.0, 0.0]])
    margins = []
    for j in range(steps):
        env = env * (1.0 - run.delta * cap)
        cgreedy._step(C, run, S, V, env, lambda r: 0.0, j)
        margins.append(float((S - env[:, None]).min()))
    return margins


class TestExactEnvelope:
    @pytest.mark.parametrize("cap", [1.0, 0.5])
    def test_margin_never_negative_up_to_the_step_limit(self, cap):
        run = RunConfig(delta=1e-4, theta_grid=(0.0,))
        assert min(_hold_at_cap(run, cap, run.total_steps)) >= 0.0

    @pytest.mark.parametrize("cap", [1.0, 0.5])
    def test_no_false_alarm_past_the_step_limit(self, monkeypatch, cap):
        # iterating on x rather than 1 - x, this loop drifted below the
        # envelope by 1e-12 at step 29,432 (cap 1)
        monkeypatch.setattr(cgreedy, "STEP_LIMIT", 100_000)
        run = RunConfig(delta=1e-5, theta_grid=(0.0,))
        assert min(_hold_at_cap(run, cap, 30_000)) >= 0.0


class TestInvariantError:
    def test_envelope_violation_names_theta_step_and_coordinate(self):
        f = sm.DirectedCut(2, [(0, 1, 1.0)])
        run = RunConfig(delta=0.1, theta_grid=(0.0, 0.2))
        with pytest.raises(InvariantError, match="envelope") as info:
            sm.solve(f, _UncappedOracle(2, 1), run)
        err = info.value
        # stage one's first step moves x_0 by delta instead of delta*alpha
        assert (err.theta, err.step, err.coordinate) == (0.2, 1, 0)
        assert err.margin == pytest.approx(-0.05)
        assert "theta 0.2, step 1, coordinate 0" in str(err)

    def test_body_violation_names_theta_step_and_coordinate(self):
        f = sm.DirectedCut(2, [(0, 1, 1.0)])
        run = RunConfig(delta=0.1, theta_grid=(0.3,))
        with pytest.raises(InvariantError, match="constraint body") as info:
            sm.solve(f, _EmptyBody(2, 1), run)
        err = info.value
        assert (err.theta, err.step, err.coordinate) == (0.3, 1, 0)
        assert err.margin == pytest.approx(0.0, abs=1e-12)

    def test_lockstep_row_violation_names_its_theta(self):
        # at step 7 the batch holds the stage-two rows of thetas 0 and 0.5;
        # only theta 0.5's iterate is taken out of the body
        rng = np.random.default_rng(71)
        f = random_cut(rng, 6)
        C = sm.CardinalityPolytope(6, 2)
        run = RunConfig(delta=0.1, theta_grid=(0.0, 0.5))
        y, i, margin = _stage_two_point(f, C, run, 0.5, 7)
        assert not np.array_equal(y, _stage_two_point(f, C, run, 0.0, 7)[0])
        with pytest.raises(InvariantError, match="constraint body") as info:
            sm.solve(f, _ExcludesOnePoint(6, 2, y), run)
        err = info.value
        assert (err.theta, err.step, err.coordinate, err.margin) == (0.5, 7, i, margin)
        assert f"theta 0.5, step 7, coordinate {i}" in str(err)

    def test_cli_reports_a_lockstep_row_and_exits_2(self, tmp_path, capsys,
                                                    monkeypatch):
        inst = tmp_path / "inst.json"
        assert main(["gen", "--kind", "directed-cut", "--n", "5",
                     "--constraint", "cardinality", "--out", str(inst)]) == 0
        f, C = sm.parse_instance(inst.read_text()).build()
        run = RunConfig(delta=0.25, theta_grid=(0.0, 0.5))
        y, i, _ = _stage_two_point(f, C, run, 0.5, 3)
        inside = sm.CardinalityPolytope._inside
        monkeypatch.setattr(sm.CardinalityPolytope, "_inside", lambda self, X:
                            inside(self, X) & ~np.all(X == y, axis=1))
        assert main(["solve", str(inst), "--delta", "0.25",
                     "--theta-grid", "0,0.5", "--no-opt"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: iterate left the constraint body")
        assert f"theta 0.5, step 3, coordinate {i}" in err

    @pytest.mark.parametrize("attr,stub", [
        ("_plan", _UncappedOracle._plan),
        ("_inside", _EmptyBody._inside),
    ], ids=["envelope", "body"])
    def test_cli_reports_error_and_exits_2(self, tmp_path, capsys, monkeypatch,
                                          attr, stub):
        inst = tmp_path / "inst.json"
        assert main(["gen", "--kind", "directed-cut", "--n", "5",
                     "--constraint", "cardinality", "--out", str(inst)]) == 0
        monkeypatch.setattr(sm.CardinalityPolytope, attr, stub)
        assert main(["solve", str(inst), "--delta", "0.25",
                     "--theta-grid", "0,0.5", "--no-opt"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "theta" in err and "step" in err


def _report_bytes(report):
    """Every field of a SolveReport, points and floats by their bytes."""
    def raw(v):
        if isinstance(v, Point):
            return v.v.tobytes()
        return np.float64(v).tobytes() if isinstance(v, (float, np.floating)) else repr(v)

    def fields(obj):
        return [raw(getattr(obj, fld.name)) for fld in dataclasses.fields(obj)]
    return (raw(report.best), raw(report.best_value), repr(report.best_theta),
            report.best_branch, [fields(r) for r in report.per_theta],
            [fields(d) for d in report.diagnostics])


VALUE_FIELDS = ("x_value", "y1_value", "z_value", "final_inner")


def _value_fields(report):
    """Each theta's value fields, and each diagnostic's value and bound,
    which are built from them: the fields that carry the coverage kernels'
    own rounding."""
    return (np.array([[getattr(r, v) for v in VALUE_FIELDS] for r in report.per_theta]),
            np.array([[d.value, d.bound] for d in report.diagnostics]))


def _report_bytes_but_values(report):
    """``_report_bytes`` with the ``_value_fields`` left out."""
    return _report_bytes(dataclasses.replace(
        report,
        per_theta=[dataclasses.replace(r, **dict.fromkeys(VALUE_FIELDS))
                   for r in report.per_theta],
        diagnostics=[dataclasses.replace(d, value=None, bound=None)
                     for d in report.diagnostics]))


@pytest.mark.parametrize("body", ["cardinality", "partition-matroid", "knapsack"])
def test_batch_kernels_solve_as_the_reference_kernels(body, monkeypatch):
    # a desk solve with the coverage kernels and the vectorised oracle fill,
    # and again with the dense coverage kernels and the per-row walk they
    # replace.  The oracle reads only the order of the gradient's entries,
    # so every point, best_* and flag is the same, byte for byte; the value
    # fields and the bounds built from them carry the log-domain kernels'
    # rounding, within 1e-12 OPT, and final_inner within a relative 1e-12
    inst = sm.gen("coverage", 12, body, 5)
    f, C = inst.build()
    _, opt = sm.brute_force_opt(f, C)
    got = sm.solve(f, C, RunConfig(), opt)
    assert got.diagnostics
    monkeypatch.setattr(sm.Coverage, "closed_form_grad", reference_coverage_grad)
    monkeypatch.setattr(sm.Coverage, "closed_form_partial", reference_coverage_partial)
    monkeypatch.setattr(sm.Coverage, "closed_form_batch", reference_coverage_batch)
    monkeypatch.setattr(sm.polytope.Polytope, "_greedy_fill", lambda C, W, plan:
                        reference_greedy_fill(C, W, plan.caps.ravel()))
    f, C = inst.build()
    ref = sm.solve(f, C, RunConfig(), opt)
    assert _report_bytes_but_values(got) == _report_bytes_but_values(ref)
    assert [d.passed for d in got.diagnostics] == [d.passed for d in ref.diagnostics]
    (values, diag), (ref_values, ref_diag) = _value_fields(got), _value_fields(ref)
    assert np.all(np.abs(values[:, :3] - ref_values[:, :3]) <= 1e-12 * opt)
    assert np.all(np.abs(values[:, 3] - ref_values[:, 3]) <= 1e-12 * np.abs(ref_values[:, 3]))
    assert np.all(np.abs(diag - ref_diag) <= 1e-12 * opt)


# sha256 of repr(_report_bytes(report)) for a solve of gen(kind, 8, body, 5)
# at delta 0.01 over the default grid: every ThetaResult field (the p and z
# bytes among them) and best_*, so that any output moving by one bit fails
PINNED_DIGESTS = {
    ("directed-cut", "cardinality"):
        "956eaab0a764adf4609a0d1e7b4f43d60f5a4b6c16bae9eddccb280dfe2545cd",
    ("directed-cut", "partition-matroid"):
        "552ccfc7d270ff195dbc384aa33707861dcfc1644afda4b476babea5b5b4871a",
    ("directed-cut", "knapsack"):
        "54867a319dbbf3b88356a767d12a5bd31b8985e4999c312a72f574de7836a678",
    ("coverage", "cardinality"):
        "95755fdbb3815cc96effffcee5666ae47c4ddca08a7812568dd13a5cc08276e4",
    ("coverage", "partition-matroid"):
        "cfa82ca716c48d9fa0729542b4e269dd2ed9421544782b0ff8aebeeec70b8474",
    ("coverage", "knapsack"):
        "0b632485d1b40e94763b97cf10f6b91ebd75e00c3967548c193b6f594ada3cca",
    ("explicit-table", "cardinality"):
        "b6a74efe54e26eb80a12ac856c67af3e78101bdc783fdef3a48354642dc324a7",
    ("explicit-table", "partition-matroid"):
        "b6082093309032a663055e36a7d9da2e18acf8c9fae022ca40ffb3a599e5ecf3",
    ("explicit-table", "knapsack"):
        "1971019add597586e4bd3063b4248dff270260eed0a924fa0ba50b1d21f6ca08",
}


@pytest.mark.parametrize("kind, body", list(PINNED_DIGESTS))
def test_solve_outputs_match_their_pinned_digests(kind, body):
    f, C = sm.gen(kind, 8, body, 5).build()
    report = sm.solve(f, C, RunConfig(delta=0.01))
    digest = hashlib.sha256(repr(_report_bytes(report)).encode()).hexdigest()
    assert digest == PINNED_DIGESTS[kind, body]


# sha256 over repr(_report_bytes(report)) of every solve of desk corpus 1, in
# corpus order, at the default run with the brute-force optimum, so that the
# diagnostics are covered too
DESK_CORPUS_1_DIGEST = "c359a5540a850ecdbb25d3689ce9b4bf5ebe945b2ed5e5f115939d8cce7ba91a"


def test_desk_corpus_solves_match_their_pinned_digest():
    digest = hashlib.sha256()
    for inst in sm.desk_corpus(1):
        f, C = inst.build()
        _, opt = sm.brute_force_opt(f, C)
        digest.update(repr(_report_bytes(sm.solve(f, C, RunConfig(), opt))).encode())
    assert digest.hexdigest() == DESK_CORPUS_1_DIGEST


def _scaled(inst, c):
    """The instance with every weight of its function multiplied by c."""
    fn = dict(inst.function)
    if "arcs" in fn:
        fn["arcs"] = [[a, b, w * c] for a, b, w in fn["arcs"]]
    for key in ("item_weights", "values"):
        if key in fn:
            fn[key] = [w * c for w in fn[key]]
    return dataclasses.replace(inst, function=fn)


def test_scaling_the_weights_keeps_the_chosen_theta_and_branch():
    # c f ties where f does: the tie rule is relative to the best value, so
    # the last bits that rescaling moves do not pick another candidate
    for inst in sm.desk_corpus(1):
        picks = set()
        for c in (1.0, 3.0, 1e-6):
            report = sm.solve(*_scaled(inst, c).build(), RunConfig())
            picks.add((report.best_theta, report.best_branch))
        assert len(picks) == 1, inst.name

