"""Set functions, points, and the multilinear extension estimators."""

import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import submax as sm
from submax import EstimatorConfig, EstimatorError, InvalidSubsetError, Point
from submax.setfn import one_coordinate_gradient

from helpers import (brute_force_extension, random_coverage, random_cut,
                     random_table_function, reference_coverage_batch,
                     reference_coverage_grad, reference_coverage_partial)

EXACT = EstimatorConfig(mode="exact")
CLOSED = EstimatorConfig(mode="closed")


@pytest.fixture
def one_arc():
    return sm.DirectedCut(2, [(0, 1, 1.0)])


@pytest.fixture
def two_item_coverage():
    # element 0 covers item 0; element 1 covers items 0 and 1; unit weights
    return sm.Coverage(2, [[0], [0, 1]], [1.0, 1.0])


class TestValue:
    def test_arc_leaves_s(self, one_arc):
        assert one_arc.value({0}) == 1.0

    def test_empty_cut(self, one_arc):
        assert one_arc.value(set()) == 0.0

    def test_no_arc_leaves_full_set(self, one_arc):
        assert one_arc.value({0, 1}) == 0.0

    def test_bitmask_and_set_agree(self, one_arc):
        assert one_arc.value(0b01) == one_arc.value({0})

    def test_out_of_range_rejected(self, one_arc):
        with pytest.raises(InvalidSubsetError):
            one_arc.value({2})
        with pytest.raises(InvalidSubsetError):
            one_arc.value(0b100)


class TestMultilinear:
    def test_cut_half_half(self, one_arc):
        for cfg in (EXACT, CLOSED):
            assert sm.multilinear(one_arc, [0.5, 0.5], cfg) == pytest.approx(0.25, abs=1e-15)

    def test_agrees_with_f_on_vertices(self, one_arc, two_item_coverage):
        for f in (one_arc, two_item_coverage):
            for mask in range(4):
                x = Point.indicator(2, mask)
                assert sm.multilinear(f, x, EXACT) == pytest.approx(
                    f.value(mask), abs=1e-12)

    def test_coverage_example(self, two_item_coverage):
        # oracle: direct summation over all four subsets
        expected = brute_force_extension(two_item_coverage, [1.0, 0.0])
        assert expected == pytest.approx(1.0, abs=1e-15)
        got = sm.multilinear(two_item_coverage, [1.0, 0.0], EXACT)
        assert got == pytest.approx(expected, abs=1e-12)

    def test_exact_matches_independent_enumeration(self):
        rng = np.random.default_rng(5)
        f = random_table_function(rng, 6)
        for _ in range(20):
            x = rng.random(6)
            assert sm.multilinear(f, x, EXACT) == pytest.approx(
                brute_force_extension(f, x), abs=1e-11)

    @pytest.mark.parametrize("n", [1, 2])
    def test_exact_at_smallest_n_matches_independent_enumeration(self, n):
        # at n=1 the contraction is one product, with no axis loop
        rng = np.random.default_rng(40 + n)
        table = [0.3, 1.7] if n == 1 else random_table_function(rng, 2).values
        X = np.vstack([np.zeros(n), np.ones(n), rng.random((6, n))])
        for f in (random_coverage(rng, n), sm.ExplicitTable(n, table)):
            got = sm.multilinear_batch(f, X, EXACT)
            for x, val in zip(X, got):
                assert val == pytest.approx(brute_force_extension(f, x), abs=1e-12)

    def test_exact_batch_across_row_chunks(self):
        # n=20 holds 16 rows per chunk; 45 rows take three chunks
        rng = np.random.default_rng(21)
        arcs = [(0, 19, 0.7), (19, 3, 1.0), (5, 12, 0.4), (12, 5, 0.9),
                (7, 0, 0.2), (16, 9, 0.6)]
        f = sm.DirectedCut(20, arcs)
        X = rng.random((45, 20))
        X[3] = 0.0
        X[40] = 1.0
        got = sm.multilinear_batch(f, X, EXACT)
        one_by_one = [sm.multilinear_batch(f, x[None, :], EXACT)[0] for x in X]
        assert np.max(np.abs(got - one_by_one)) <= 1e-12
        assert np.max(np.abs(got - f.closed_form_batch(X))) <= 1e-12

    def test_closed_matches_exact(self):
        from helpers import random_coverage, random_cut
        rng = np.random.default_rng(11)
        for make in (random_cut, random_coverage):
            for n in (7, 12):
                f = make(rng, n)
                X = rng.random((100, n))
                exact = sm.multilinear_batch(f, X, EXACT)
                closed = sm.multilinear_batch(f, X, CLOSED)
                assert np.max(np.abs(exact - closed)) <= 1e-9

    def test_mode_kind_mismatch(self):
        f = random_table_function(np.random.default_rng(0), 4)
        with pytest.raises(EstimatorError):
            sm.multilinear(f, [0.5] * 4, CLOSED)
        with pytest.raises(EstimatorError):
            sm.gradient(f, [0.5] * 4, CLOSED)

    def test_exact_size_limit(self):
        f = sm.DirectedCut(26, [(0, 1, 1.0)])
        with pytest.raises(EstimatorError):
            sm.multilinear(f, [0.0] * 26, EXACT)


class TestGradient:
    def test_cut_gradient(self, one_arc):
        g = sm.gradient(one_arc, [0.5, 0.5], CLOSED)
        assert np.allclose(g, [0.5, -0.5], atol=1e-15)

    def test_gradient_at_origin_is_singleton_marginals(self):
        rng = np.random.default_rng(3)
        f = random_table_function(rng, 5)
        g = sm.gradient(f, np.zeros(5), EXACT)
        expect = [f.value({i}) - f.value(set()) for i in range(5)]
        assert np.allclose(g, expect, atol=1e-12)

    def test_forward_difference_is_exact_for_any_step(self):
        # multilinearity makes the one-coordinate difference quotient exact
        rng = np.random.default_rng(17)
        f = random_table_function(rng, 3)
        for _ in range(10):
            x = rng.random(3)
            g = sm.gradient(f, x, EXACT)
            i = int(rng.integers(3))
            for step in (1e-6, 0.1, 1.0 - x[i]):
                if step <= 0:
                    continue
                moved = x.copy()
                moved[i] += step
                quotient = (brute_force_extension(f, moved)
                            - brute_force_extension(f, x)) / step
                assert g[i] == pytest.approx(quotient, abs=1e-9)

    def test_residual_gradient(self, one_arc):
        r = sm.residual_gradient(one_arc, [0.5, 0.5], CLOSED)
        assert np.allclose(r, [0.25, -0.25], atol=1e-15)
        at_zero = sm.residual_gradient(one_arc, [0.0, 0.0], CLOSED)
        assert np.allclose(at_zero, sm.gradient(one_arc, [0.0, 0.0], CLOSED))
        at_one = sm.residual_gradient(one_arc, [1.0, 1.0], CLOSED)
        assert np.allclose(at_one, [0.0, 0.0])


def _coverage_with_gaps(rng, n):
    """Element 0 covers nothing and the last item is covered by no element."""
    m = 2 * n + 1
    inc = rng.random((n, m - 1)) < 0.3
    inc[0] = False
    covers = [np.nonzero(row)[0].tolist() for row in inc]
    return sm.Coverage(n, covers, (1.0 - rng.random(m)).tolist())


def _structural_functions(rng, n):
    fs = [sm.DirectedCut(n, []), random_coverage(rng, n), _coverage_with_gaps(rng, n)]
    if n >= 2:
        fs.append(random_cut(rng, n))
    return fs


def _test_points(rng, n):
    pinned = rng.random(n)
    pinned[rng.random(n) < 0.3] = 0.0
    pinned[rng.random(n) < 0.3] = 1.0
    return [np.zeros(n), np.ones(n), rng.random(n), pinned,
            (rng.random(n) < 0.5).astype(float)]


class TestClosedFormGradient:
    """The analytic per-family gradient against the one-coordinate identity
    evaluated on 2n closed-form rows."""

    @pytest.mark.parametrize("n", [1, 2, 12, 50, 100])
    def test_matches_one_coordinate_identity(self, n):
        rng = np.random.default_rng(1000 + n)
        for f in _structural_functions(rng, n):
            for x in _test_points(rng, n):
                ref = one_coordinate_gradient(f, x, CLOSED)
                g = f.closed_form_grad(x)
                assert g.shape == (n,) and g.dtype == float
                tol = 1e-11 * max(1.0, float(np.max(np.abs(ref))))
                assert np.max(np.abs(g - ref)) <= tol, (f.kind, x)

    def test_closed_mode_gradient_is_the_analytic_one(self):
        rng = np.random.default_rng(8)
        for f in _structural_functions(rng, 9):
            x = rng.random(9)
            assert np.array_equal(sm.gradient(f, x, CLOSED), f.closed_form_grad(x))

    def test_coverage_exact_where_a_coordinate_is_one(self):
        # items 0 and 1 are both covered by elements 0 and 1; x_1 = 1 zeroes
        # element 0's gain exactly while element 1 keeps its own
        f = sm.Coverage(3, [[0, 1], [0, 1, 2], []], [1.0, 2.0, 4.0])
        g = f.closed_form_grad(np.array([0.5, 1.0, 0.3]))
        assert g.tolist() == [0.0, 0.5 * 3.0 + 4.0, 0.0]


class TestBatchGradient:
    """A gradient over an (R, n) batch answers each row as the one-point
    gradient does, byte for byte, whatever the batch around it."""

    @pytest.mark.parametrize("R", [1, 2, 7, 51])
    @pytest.mark.parametrize("kind", ["cut", "coverage", "table"])
    def test_rows_match_one_point(self, kind, R):
        rng = np.random.default_rng(600 + R)
        if kind == "cut":
            f, cfg = random_cut(rng, 12), CLOSED
        elif kind == "coverage":
            f, cfg = random_coverage(rng, 30), CLOSED
        else:
            f, cfg = random_table_function(rng, 8), EXACT
        X = rng.random((R, f.n))
        X[rng.random(X.shape) < 0.15] = 0.0
        X[rng.random(X.shape) < 0.15] = 1.0
        G = sm.gradient(f, X, cfg)
        assert G.shape == (R, f.n)
        for x, g in zip(X, G):
            assert g.tobytes() == sm.gradient(f, x, cfg).tobytes()
        assert np.array_equal(sm.residual_gradient(f, X, cfg), G * (1.0 - X))


class TestCoverageOwnerTable:
    """The coverage kernels read the (d, m) owner table and equal the dense
    kernels over the (n, m) incidence matrix (tests/helpers.py) byte for
    byte."""

    def test_table_lists_each_items_owners_in_order(self):
        f = sm.Coverage(3, [[0, 2], [], [0, 1, 2]], [1.0, 2.0, 3.0, 4.0])
        assert f.owners.tolist() == [[0, 2, 0, 3], [2, 3, 2, 3]]

    def test_batch_rows_cross_blocks(self):
        # 2^21 / (n m) = 436 rows per block, so 1000 rows span three blocks
        rng = np.random.default_rng(77)
        f = random_coverage(rng, 40, 120)
        X = rng.random((1000, 40))
        X[rng.random(X.shape) < 0.1] = 1.0
        assert f.closed_form_batch(X).tobytes() == reference_coverage_batch(f, X).tobytes()


@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 14),
       m=st.sampled_from([0, 1, 5, 17, 40]), R=st.sampled_from([1, 2, 7, 52]),
       density=st.sampled_from([0.0, 0.15, 0.5, 1.0]))
@settings(max_examples=150, deadline=None)
def test_coverage_kernels_match_the_dense_references(seed, n, m, R, density):
    # items nobody covers, an item every element covers, and points with
    # exact 0.0 and 1.0 entries
    rng = np.random.default_rng(seed)
    inc = rng.random((n, m)) < density
    if m:
        inc[:, int(rng.integers(m))] = True
        inc[:, int(rng.integers(m))] = False
    f = sm.Coverage(n, [np.flatnonzero(row).tolist() for row in inc],
                    (1.0 - rng.random(m)).tolist())
    X = rng.random((R, n))
    X[rng.random(X.shape) < 0.2] = 0.0
    X[rng.random(X.shape) < 0.2] = 1.0
    for x in (X, X[0]):
        assert f.closed_form_grad(x).tobytes() == reference_coverage_grad(f, x).tobytes()
    assert f.closed_form_batch(X).tobytes() == reference_coverage_batch(f, X).tobytes()
    for i in range(n):
        assert (f.closed_form_partial(i, X).tobytes()
                == reference_coverage_partial(f, i, X).tobytes())


class TestPointShape:
    """The gradient and the extension take one point of n coordinates or an
    (R, n) batch, and name n for anything else, in every mode."""

    FAMILIES = {
        "cut": (lambda: sm.DirectedCut(3, [(0, 1, 1.0), (2, 0, 0.5)]),
                ["closed", "exact", "mc"]),
        "coverage": (lambda: sm.Coverage(3, [[0], [0, 1], [2]], [1.0, 2.0, 0.5]),
                     ["closed", "exact", "mc"]),
        "table": (lambda: sm.ExplicitTable(3, [0.0, 1.0, 1.0, 1.5, 1.0, 1.5, 1.5, 1.5]),
                  ["exact", "mc"]),
    }
    CASES = [(family, mode) for family, (_, modes) in FAMILIES.items() for mode in modes]

    @pytest.mark.parametrize("family, mode", CASES)
    @pytest.mark.parametrize("shape", [(4,), (2, 4), (2, 2, 3), (1, 1, 3)])
    def test_wrong_shape_names_n(self, family, mode, shape):
        f = self.FAMILIES[family][0]()
        cfg = EstimatorConfig(mode=mode, sample_count=50)
        x = np.full(shape, 0.5)
        with pytest.raises(ValueError, match="3 coordinates"):
            sm.gradient(f, x, cfg)
        with pytest.raises(ValueError, match="3 coordinates"):
            sm.multilinear_batch(f, x, cfg)


class TestGroundSize:
    @pytest.mark.parametrize("n", [2.5, 2.0, "3", True, 0, -1, None])
    @pytest.mark.parametrize("make", [
        lambda n: sm.DirectedCut(n, []),
        lambda n: sm.Coverage(n, [[]] * 2, []),
        lambda n: sm.ExplicitTable(n, [0.0] * 4)], ids=["cut", "coverage", "table"])
    def test_non_integers_and_nonpositive_sizes_rejected(self, make, n):
        # never truncated: 2.5 is not 2, "3" is not 3, True is not 1
        with pytest.raises(ValueError, match="ground set size must be a positive integer"):
            make(n)

    def test_numpy_integer_size_is_a_plain_int(self):
        f = sm.DirectedCut(np.int64(3), [(0, 1, 1.0)])
        assert type(f.n) is int and f.n == 3


class TestCutWeightMatrix:
    """A cut's closed forms read only its (n, n) weight matrix W."""

    def test_parallel_arcs_are_summed(self):
        split = sm.DirectedCut(3, [[0, 1, 0.5], [0, 1, 0.25], [1, 2, 1.0]])
        merged = sm.DirectedCut(3, [[0, 1, 0.75], [1, 2, 1.0]])
        X = np.random.default_rng(3).random((5, 3))
        assert np.array_equal(split.closed_form_batch(X), merged.closed_form_batch(X))
        assert np.array_equal(split.closed_form_grad(X[0]), merged.closed_form_grad(X[0]))
        for i in range(3):
            assert np.array_equal(split.closed_form_partial(i, X),
                                  merged.closed_form_partial(i, X))
        masks = np.arange(8)
        vertices = ((masks[:, None] >> np.arange(3)) & 1).astype(float)
        assert np.array_equal(split.closed_form_batch(vertices), split.value_batch(masks))

    def test_batch_memory_does_not_grow_with_the_arcs(self):
        # 256 rows of a generated n = 600 cut (about 160k arcs): one (rows, n)
        # product, not a (rows, arcs) gather
        f, _ = sm.gen("directed-cut", 600, "cardinality", 0).build()
        X = (np.random.default_rng(0).random((256, 600)) < 0.5).astype(float)
        tracemalloc.start()
        try:
            f.closed_form_batch(X)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 32 << 20


class TestMaxSingleton:
    def test_one_arc(self, one_arc):
        assert sm.max_singleton(one_arc) == 1.0

    def test_zero_table(self):
        f = sm.ExplicitTable(3, np.zeros(8))
        assert sm.max_singleton(f) == 0.0

    def test_coverage_example(self, two_item_coverage):
        # f({0}) = 1, f({1}) = 2
        assert sm.max_singleton(two_item_coverage) == 2.0


class TestBeyondInt64Bitmasks:
    """f(S) and max_singleton go through 0/1 membership rows, so sets with
    elements >= 63 need no int64 bitmask."""

    @pytest.mark.parametrize("n", [64, 100])
    def test_against_closed_form_on_indicator_rows(self, n):
        rng = np.random.default_rng(n)
        for f in (random_cut(rng, n), random_coverage(rng, n)):
            rows = rng.random((6, n)) < 0.5
            rows[0] = False
            rows[1] = np.arange(n) >= 60
            expect = f.closed_form_batch(rows.astype(float))
            for row, val in zip(rows, expect):
                S = np.nonzero(row)[0].tolist()
                assert f.value(S) == pytest.approx(val, rel=1e-12, abs=1e-12)
                assert f.value(sum(1 << i for i in S)) == f.value(S)
            singles = f.closed_form_batch(np.eye(n))
            assert sm.max_singleton(f) == pytest.approx(singles.max(), rel=1e-12)


class TestExplicitTableValidation:
    def test_negative_value_rejected(self):
        with pytest.raises(ValueError, match="negative"):
            sm.ExplicitTable(2, [0.0, 1.0, -0.5, 1.0])

    def test_negative_value_rejected_at_any_size(self):
        vals = np.zeros(1 << 17)
        vals[12345] = -1e-3
        with pytest.raises(ValueError, match="negative value .* at subset mask 12345"):
            sm.ExplicitTable(17, vals)

    def test_supermodular_rejected(self):
        with pytest.raises(ValueError, match="not submodular"):
            sm.ExplicitTable(2, [0.0, 0.0, 0.0, 1.0])

    def test_wrong_size_rejected(self):
        with pytest.raises(ValueError):
            sm.ExplicitTable(3, [0.0] * 7)

    def test_overflowing_sum_is_a_typed_error_without_a_warning(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="knapsack costs must be finite"):
                sm.KnapsackPolytope(5, [1e308] * 5, 1.0)

    def test_generated_mixtures_accepted(self):
        rng = np.random.default_rng(23)
        for n in (4, 6, 8):
            random_table_function(rng, n)  # construction runs the checks


class TestMonteCarlo:
    def test_reproducible_from_seed(self, one_arc):
        cfg = EstimatorConfig(mode="mc", sample_count=2000, rng_seed=42)
        a = sm.multilinear(one_arc, [0.3, 0.6], cfg)
        b = sm.multilinear(one_arc, [0.3, 0.6], cfg)
        assert a == b
        other = EstimatorConfig(mode="mc", sample_count=2000, rng_seed=43)
        assert sm.multilinear(one_arc, [0.3, 0.6], other) != a

    def test_substreams_differ(self, one_arc):
        cfg = EstimatorConfig(mode="mc", sample_count=2000, rng_seed=42)
        assert sm.multilinear(one_arc, [0.3, 0.6], cfg.substream(1)) \
            != sm.multilinear(one_arc, [0.3, 0.6], cfg.substream(2))

    def test_close_to_exact(self):
        rng = np.random.default_rng(7)
        f = random_table_function(rng, 6)
        x = rng.random(6)
        cfg = EstimatorConfig(mode="mc", sample_count=200_000, rng_seed=1)
        exact = sm.multilinear(f, x, EXACT)
        assert sm.multilinear(f, x, cfg) == pytest.approx(exact, rel=0.02, abs=0.02)

    def test_bad_config_rejected(self):
        with pytest.raises(EstimatorError):
            EstimatorConfig(mode="bogus")
        with pytest.raises(EstimatorError):
            EstimatorConfig(mode="mc", sample_count=0)

    @pytest.mark.parametrize("count", [2.5, "7", True, 2.0, -3])
    def test_sample_count_must_be_a_positive_integer(self, count):
        # rejected at construction, never truncated or left for the draw
        with pytest.raises(EstimatorError, match="sample_count"):
            EstimatorConfig(mode="mc", sample_count=count)

    def test_sample_count_is_a_plain_int(self):
        cfg = EstimatorConfig(mode="mc", sample_count=np.int64(7))
        assert type(cfg.sample_count) is int and cfg.sample_count == 7

    @pytest.mark.parametrize("seed", [2.5, 2.0, "x", True, None])
    def test_rng_seed_must_be_an_integer(self, seed):
        # rejected at construction, never truncated or left for the draw
        with pytest.raises(EstimatorError, match="rng_seed"):
            EstimatorConfig(mode="mc", sample_count=10, rng_seed=seed)

    def test_rng_seed_takes_any_integer_modulo_2_to_the_64(self, one_arc):
        # a negative seed, as `submax solve --seed` accepts, reads its low
        # 64 bits; a numpy integer is stored as a plain int
        value = sm.multilinear(one_arc, [0.3, 0.6],
                               EstimatorConfig(mode="mc", sample_count=500, rng_seed=-1))
        cfg = EstimatorConfig(mode="mc", sample_count=500, rng_seed=np.uint64(2**64 - 1))
        assert type(cfg.rng_seed) is int
        assert sm.multilinear(one_arc, [0.3, 0.6], cfg) == value

    @pytest.mark.parametrize("n", [1, 5, 9])
    @pytest.mark.parametrize("make", [random_cut, random_coverage,
                                      random_table_function])
    def test_gradient_is_the_common_random_numbers_loop(self, make, n):
        # the per-coordinate loop the mc gradient once ran: one draw R = U < x,
        # then element i forced in (hi) and out (lo) of every sampled set
        rng = np.random.default_rng(100 * n + 3)
        f = make(rng, n)
        cfg = EstimatorConfig(mode="mc", sample_count=500, rng_seed=n)
        for x in (rng.random(n), np.zeros(n), np.ones(n)):
            R = cfg.rng().random((cfg.sample_count, n)) < x[None, :]
            want = np.empty(n)
            for i in range(n):
                hi = R.copy()
                hi[:, i] = True
                lo = R.copy()
                lo[:, i] = False
                want[i] = (sm.setfn._vertex_values(f, hi).mean()
                           - sm.setfn._vertex_values(f, lo).mean())
            assert np.array_equal(sm.gradient(f, x, cfg), want)

    def test_batch_rows_share_one_draw(self):
        rng = np.random.default_rng(11)
        f = random_coverage(rng, 5)
        x, y = rng.random(5), rng.random(5)
        cfg = EstimatorConfig(mode="mc", sample_count=3000, rng_seed=5)
        vals = sm.multilinear_batch(f, np.stack([x, x, y]), cfg)
        assert vals[0] == vals[1] == sm.setfn._mc_values(f, x, cfg).mean()
        assert vals[2] == sm.setfn._mc_values(f, y, cfg).mean()
        assert sm.multilinear(f, x, cfg) == vals[0]


class TestPoint:
    def test_tolerance_and_clipping(self):
        p = Point([1.0 + 5e-13, -5e-13])
        assert p.v[0] == 1.0 and p.v[1] == 0.0
        with pytest.raises(ValueError):
            Point([1.1, 0.0])

    def test_operations(self):
        assert Point([0.2, 0.8]).norm_inf() == 0.8

    def test_indicator(self):
        p = Point.indicator(3, {0, 2})
        assert p.v.tolist() == [1.0, 0.0, 1.0]


@given(st.integers(1, 12), st.data())
@settings(max_examples=60, deadline=None)
def test_mask_round_trip(n, data):
    mask = data.draw(st.integers(0, (1 << n) - 1))
    subset = sm.setfn.mask_to_set(mask)
    assert sm.setfn.as_mask(subset, n) == mask
