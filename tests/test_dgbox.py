"""Double greedy over a box: hand traces, invariants, and the guarantee."""

import numpy as np
import pytest

import submax as sm
from submax import BoxInstance, EstimatorConfig, EstimatorError, InvalidBoxError, Point
from submax.setfn import one_coordinate_gradient
from submax.verify import dgbox_checks

from helpers import (random_box, random_coverage, random_cut, random_function,
                     random_table_function)

CLOSED = EstimatorConfig(mode="closed")
EXACT = EstimatorConfig(mode="exact")


def four_row_run(f, u, v, cfg):
    """The double greedy scored with four extension rows per coordinate,
    a_i = w (F(lo, x_i=1) - F(lo, x_i=0)), b_i = w (F(hi, x_i=0) - F(hi, x_i=1)):
    the reference the partial-derivative path is checked against.  Returns
    the gains, the point, and the lower and upper corners it walks through
    (index 0 the initial box)."""
    lo, hi = u.v.copy(), v.v.copy()
    a, b = np.zeros(f.n), np.zeros(f.n)
    lowers, uppers = [lo.copy()], [hi.copy()]
    for i in range(f.n):
        width = hi[i] - lo[i]
        X = np.vstack([lo, lo, hi, hi])
        X[:, i] = [1.0, 0.0, 0.0, 1.0]
        f_lo1, f_lo0, f_hi0, f_hi1 = sm.multilinear_batch(f, X, cfg)
        a[i] = width * (f_lo1 - f_lo0)
        b[i] = width * (f_hi0 - f_hi1)
        ap, bp = max(a[i], 0.0), max(b[i], 0.0)
        if ap + bp > 0.0:
            lo[i] += (ap / (ap + bp)) * width
            hi[i] = lo[i]
        else:
            lo[i] = hi[i]
        lowers.append(lo.copy())
        uppers.append(hi.copy())
    return a, b, lo, lowers, uppers


def assert_rel_close(got, ref, rtol):
    # relative to the largest reference entry, so exact zeros compare too
    assert np.max(np.abs(got - ref)) <= rtol * max(1.0, float(np.max(np.abs(ref))))


def structural_functions(rng, n):
    return [random_coverage(rng, n), sm.DirectedCut(n, []),
            sm.Coverage(n, [[] for _ in range(n)], []), random_cut(rng, n)]


@pytest.fixture
def one_arc():
    return sm.DirectedCut(2, [(0, 1, 1.0)])


class TestExamples:
    def test_zero_width_box_is_identity(self):
        rng = np.random.default_rng(2)
        f = random_table_function(rng, 4)
        u = Point(rng.random(4))
        out = sm.double_greedy_box(BoxInstance(f, u, u))
        assert np.allclose(out.v, u.v, atol=1e-12)
        assert sm.multilinear(f, out) == pytest.approx(sm.multilinear(f, u), abs=1e-12)

    def test_hand_trace_on_one_arc(self, one_arc):
        run = sm.double_greedy_box_run(
            BoxInstance(one_arc, Point.zeros(2), Point.ones(2)))
        # step 1 raises coordinate 0 fully, step 2 lowers coordinate 1 fully
        assert np.allclose(run.a, [1.0, -1.0])
        assert np.allclose(run.b, [0.0, 1.0])
        assert np.allclose(run.lowers[1], [1.0, 0.0])
        assert np.allclose(run.uppers[1], [1.0, 1.0])
        assert np.allclose(run.point.v, [1.0, 0.0])
        assert sm.multilinear(one_arc, run.point) == pytest.approx(1.0)

    def test_hand_trace_meets_guarantee(self, one_arc):
        _, opt = sm.brute_force_box_opt(one_arc, Point.zeros(2), Point.ones(2))
        assert opt == pytest.approx(1.0)
        floor = sm.guarantee_floor(0.0, 0.0, opt)
        assert floor == pytest.approx(0.5)
        assert sm.multilinear(one_arc, sm.double_greedy_box(
            BoxInstance(one_arc, Point.zeros(2), Point.ones(2)))) >= floor

    def test_guarantee_floor_values(self):
        assert sm.guarantee_floor(0.0, 0.0, 1.0) == pytest.approx(0.5)
        assert sm.guarantee_floor(1.0, 1.0, 1.0) == pytest.approx(1.0)


class TestValidation:
    def test_bad_box_rejected(self, one_arc):
        with pytest.raises(InvalidBoxError):
            BoxInstance(one_arc, Point([0.6, 0.0]), Point([0.5, 1.0]))

    def test_mc_mode_rejected(self, one_arc):
        with pytest.raises(EstimatorError):
            BoxInstance(one_arc, Point.zeros(2), Point.ones(2),
                        EstimatorConfig(mode="mc"))

    def test_size_mismatch_rejected(self, one_arc):
        with pytest.raises(InvalidBoxError):
            BoxInstance(one_arc, Point.zeros(3), Point.ones(3))


class TestInvariants:
    def test_random_instances(self):
        rng = np.random.default_rng(31)
        for _ in range(40):
            n = int(rng.integers(2, 8))
            f = random_function(rng, n)
            u, v = random_box(rng, n)
            run = sm.double_greedy_box_run(BoxInstance(f, u, v))

            # submodularity consequence: a_i >= -b_i
            assert np.all(run.a + run.b >= -1e-9)

            # interval nesting with coordinate i pinched at step i
            for i in range(n):
                assert np.all(run.lowers[i] <= run.lowers[i + 1] + 1e-12)
                assert np.all(run.uppers[i + 1] <= run.uppers[i] + 1e-12)
                assert np.all(run.lowers[i + 1] <= run.uppers[i + 1] + 1e-12)
                assert run.lowers[i + 1][i] == run.uppers[i + 1][i]

            # output floor against the corner-enumeration optimum
            _, opt = sm.brute_force_box_opt(f, u, v)
            floor = sm.guarantee_floor(sm.multilinear(f, u), sm.multilinear(f, v), opt)
            assert sm.multilinear(f, run.point) >= floor - 1e-9

    def test_per_step_damage_inequality(self):
        # the drop in the clipped optimum never exceeds the mean corner gain
        rng = np.random.default_rng(47)
        for _ in range(25):
            n = int(rng.integers(2, 8))
            f = random_function(rng, n)
            u, v = random_box(rng, n)
            run = sm.double_greedy_box_run(BoxInstance(f, u, v))
            opt_pt, _ = sm.brute_force_box_opt(f, u, v)
            vals = []
            for i in range(n + 1):
                clipped = np.clip(opt_pt.v, run.lowers[i], run.uppers[i])
                vals.append((sm.multilinear(f, run.lowers[i]),
                             sm.multilinear(f, run.uppers[i]),
                             sm.multilinear(f, Point(clipped))))
            for i in range(n):
                fu0, fv0, fo0 = vals[i]
                fu1, fv1, fo1 = vals[i + 1]
                assert fo0 - fo1 <= 0.5 * (fu1 - fu0 + fv1 - fv0) + 1e-9

    def test_endpoint_values_never_drop(self):
        # each corner move is chosen by a clipped nonnegative gain
        rng = np.random.default_rng(13)
        for _ in range(15):
            n = int(rng.integers(2, 7))
            f = random_function(rng, n)
            u, v = random_box(rng, n)
            run = sm.double_greedy_box_run(BoxInstance(f, u, v))
            for i in range(n):
                assert sm.multilinear(f, run.lowers[i + 1]) \
                    >= sm.multilinear(f, run.lowers[i]) - 1e-9
                assert sm.multilinear(f, run.uppers[i + 1]) \
                    >= sm.multilinear(f, run.uppers[i]) - 1e-9


class TestClosedFormPartials:
    """Closed mode scores each coordinate with ``closed_form_partial``; the
    four-row formula and the one-coordinate identity are its references."""

    @pytest.mark.parametrize("n", [1, 2, 7, 40])
    def test_partial_matches_gradient_and_identity(self, n):
        rng = np.random.default_rng(700 + n)
        for f in structural_functions(rng, n):
            X = rng.random((6, n))
            X[0], X[1] = 0.0, 1.0
            X[2:][rng.random((4, n)) < 0.3] = 0.0
            X[2:][rng.random((4, n)) < 0.3] = 1.0
            for i in range(n):
                d = f.closed_form_partial(i, X)
                assert d.shape == (6,)
                for x, di in zip(X, d):
                    g = f.closed_form_grad(x)
                    ident = one_coordinate_gradient(f, x, CLOSED)
                    tol = 1e-11 * max(1.0, float(np.max(np.abs(ident))))
                    assert abs(di - g[i]) <= tol, (f.kind, i, x)
                    assert abs(di - ident[i]) <= tol, (f.kind, i, x)

    def test_coverage_partial_exact_where_a_coordinate_is_one(self):
        f = sm.Coverage(3, [[0, 1], [0, 1, 2], []], [1.0, 2.0, 4.0])
        X = np.array([[0.5, 1.0, 0.3]])
        assert [f.closed_form_partial(i, X)[0] for i in range(3)] \
            == [0.0, 0.5 * 3.0 + 4.0, 0.0]

    def test_box_run_matches_four_row_formula(self):
        rng = np.random.default_rng(71)
        for trial in range(60):
            n = int(rng.integers(2, 25))
            f = random_cut(rng, n) if trial % 2 else random_coverage(rng, n)
            u, v = random_box(rng, n)
            if trial % 3 == 0:
                u, v = Point.zeros(n), Point.ones(n)
            run = sm.double_greedy_box_run(BoxInstance(f, u, v, CLOSED))
            a, b, point, *_ = four_row_run(f, u, v, CLOSED)
            assert_rel_close(run.a, a, 1e-11)
            assert_rel_close(run.b, b, 1e-11)
            assert np.max(np.abs(run.point.v - point)) <= 1e-12

    def test_dgbox_checks_hold_on_100_closed_boxes(self):
        rng = np.random.default_rng(72)
        for f in (random_cut(rng, 7), random_coverage(rng, 7)):
            results = dgbox_checks(f, rng, boxes=50)
            assert all(r.passed for r in results), [r.line() for r in results]


class TestScoringPath:
    def test_closed_mode_evaluates_no_extension_rows(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("closed mode evaluated extension rows")
        monkeypatch.setattr(sm.dgbox, "multilinear_batch", refuse)
        rng = np.random.default_rng(73)
        for f in (random_cut(rng, 9), random_coverage(rng, 9)):
            u, v = random_box(rng, 9)
            sm.double_greedy_box_run(BoxInstance(f, u, v, CLOSED))

    def test_exact_mode_is_the_four_row_formula(self):
        rng = np.random.default_rng(74)
        for n in (2, 5, 8):
            f = random_table_function(rng, n)
            for u, v in (random_box(rng, n), (Point.zeros(n), Point.ones(n))):
                run = sm.double_greedy_box_run(BoxInstance(f, u, v, EXACT))
                a, b, point, lowers, uppers = four_row_run(f, u, v, EXACT)
                assert run.a.tolist() == a.tolist()
                assert run.b.tolist() == b.tolist()
                assert run.point.v.tolist() == point.tolist()
                # the corners a run rebuilds from its point are the ones walked
                assert [c.tobytes() for c in run.lowers] == [c.tobytes() for c in lowers]
                assert [c.tobytes() for c in run.uppers] == [c.tobytes() for c in uppers]


def partials_run(f, u, v):
    """The closed-mode double greedy scoring every coordinate, one-point
    intervals included: a_i = w dF/dx_i(lo), b_i = -w dF/dx_i(hi)."""
    lo, hi = u.v.copy(), v.v.copy()
    for i in range(f.n):
        width = hi[i] - lo[i]
        d_lo, d_hi = f.closed_form_partial(i, np.stack([lo, hi]))
        ap, bp = max(width * d_lo, 0.0), max(-width * d_hi, 0.0)
        if ap + bp > 0.0:
            lo[i] += (ap / (ap + bp)) * width
            hi[i] = lo[i]
        else:
            lo[i] = hi[i]
    return lo


class TestOnePointCoordinates:
    """A coordinate with u_i = v_i is not scored: a_i = b_i = 0, it keeps its
    value, and the point is the one scoring it would give."""

    @staticmethod
    def pinched_box(rng, n):
        u, v = random_box(rng, n)
        flat = rng.random(n) < 0.5
        flat[0] = True
        hi = np.where(flat, u.v, v.v)
        hi[flat & (rng.random(n) < 0.3)] = 1.0
        lo = np.where(flat, hi, u.v)
        return Point(lo), Point(hi), np.flatnonzero(~flat)

    def test_closed_mode_scores_only_open_coordinates(self, monkeypatch):
        rng = np.random.default_rng(75)
        for f in (random_cut(rng, 12), random_coverage(rng, 12)):
            u, v, open_coords = self.pinched_box(rng, 12)
            expected = partials_run(f, u, v)
            scored = []
            partial = f.closed_form_partial
            monkeypatch.setattr(f, "closed_form_partial",
                                lambda i, X: scored.append(i) or partial(i, X))
            run = sm.double_greedy_box_run(BoxInstance(f, u, v, CLOSED))
            assert scored == open_coords.tolist()
            assert run.point.v.tobytes() == expected.tobytes()
            flat = np.setdiff1d(np.arange(12), open_coords)
            assert run.a[flat].tolist() == run.b[flat].tolist() == [0.0] * flat.size
            assert run.point.v[flat].tobytes() == u.v[flat].tobytes()

    def test_exact_mode_evaluates_no_rows_for_them(self, monkeypatch):
        rng = np.random.default_rng(76)
        for n in (3, 6, 9):
            f = random_table_function(rng, n)
            u, v, open_coords = self.pinched_box(rng, n)
            a, b, point, *_ = four_row_run(f, u, v, EXACT)
            rows = []
            batch = sm.dgbox.multilinear_batch
            monkeypatch.setattr(sm.dgbox, "multilinear_batch",
                                lambda f, X, cfg: rows.append(len(X)) or batch(f, X, cfg))
            run = sm.double_greedy_box_run(BoxInstance(f, u, v, EXACT))
            monkeypatch.undo()
            assert sum(rows) == 4 * open_coords.size
            assert run.point.v.tobytes() == point.tobytes()
            assert run.a.tolist() == a.tolist() and run.b.tolist() == b.tolist()


def corner_box(rng, n):
    """A box [0, p] as a solve builds it: p in [0, 1]^n with exact 0s and 1s."""
    p = rng.random(n)
    p[rng.random(n) < 0.2] = 0.0
    p[rng.random(n) < 0.2] = 1.0
    return Point.zeros(n), Point(p)


class TestMonotoneTopCorner:
    """On a monotone function every b_i <= 0, so double greedy over [0, p]
    returns p: the fact behind the solver's skipped fallback for coverage."""

    @pytest.mark.parametrize("cfg", [CLOSED, EXACT], ids=["closed", "exact"])
    def test_coverage_returns_p_byte_for_byte(self, cfg):
        rng = np.random.default_rng(77)
        for _ in range(150):
            n = int(rng.integers(3, 11))
            f = random_coverage(rng, n)
            u, v = corner_box(rng, n)
            run = sm.double_greedy_box_run(BoxInstance(f, u, v, cfg))
            assert run.point.v.tobytes() == v.v.tobytes()
            assert np.all(run.b <= 0.0)

    @pytest.mark.parametrize("n", [50, 100, 200, 400])
    def test_coverage_returns_p_at_scale(self, n):
        rng = np.random.default_rng(78 + n)
        f = random_coverage(rng, n)
        for _ in range(5):
            u, v = corner_box(rng, n)
            run = sm.double_greedy_box_run(BoxInstance(f, u, v, CLOSED))
            assert run.point.v.tobytes() == v.v.tobytes()

    @pytest.mark.parametrize("cfg", [CLOSED, EXACT], ids=["closed", "exact"])
    def test_a_cut_box_moves_off_p(self, cfg):
        # the control: on a non-monotone function the same boxes do not all
        # return p, so the test above tells the two families apart
        rng = np.random.default_rng(79)
        moved = 0
        for _ in range(20):
            n = int(rng.integers(3, 11))
            f = random_cut(rng, n)
            u, v = corner_box(rng, n)
            run = sm.double_greedy_box_run(BoxInstance(f, u, v, cfg))
            moved += run.point.v.tobytes() != v.v.tobytes()
        assert moved > 0
