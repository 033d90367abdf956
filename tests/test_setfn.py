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
                     reference_coverage_grad, reference_coverage_partial,
                     reference_coverage_values)

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

    @pytest.mark.parametrize("subset", [
        lambda: {0}, lambda: frozenset({0}), lambda: (i for i in [0]),
        lambda: {0: "x"}.keys(), lambda: range(1), lambda: np.array([0])],
        ids=["set", "frozenset", "generator", "keys", "range", "array"])
    def test_any_iterable_of_elements(self, one_arc, subset):
        assert sm.setfn.as_mask(subset(), 2) == 0b01
        assert one_arc.value(subset()) == 1.0

    @pytest.mark.parametrize("subset, error", [
        ({0, True}, ValueError), ({1.0}, ValueError),
        ((e for e in [0, 0.5]), ValueError), ({2}, InvalidSubsetError)])
    def test_bad_elements_of_a_set_rejected(self, one_arc, subset, error):
        with pytest.raises(error):
            one_arc.value(subset)

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
    """The gradient kernels the solver's loop runs over an (R, n) batch
    (``closed_form_grad`` in closed mode, the one-coordinate identity in
    exact mode) answer each row as the one-point ``gradient`` does, byte
    for byte, whatever the batch around it."""

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
        G = f.closed_form_grad(X) if cfg.mode == "closed" else one_coordinate_gradient(f, X, cfg)
        assert G.shape == (R, f.n)
        for x, g in zip(X, G):
            assert g.tobytes() == sm.gradient(f, x, cfg).tobytes()


class TestCoverageIncidence:
    """Coverage holds its incidence once, item-major, with ``A`` its float
    transpose, and its extension answers each row on its own."""

    def test_incidence_is_item_major_and_A_its_float_transpose(self):
        f = sm.Coverage(3, [[0, 2], [], [0, 1, 2]], [1.0, 2.0, 3.0, 4.0])
        assert f.incidence.tolist() == [[True, False, True], [False, False, True],
                                        [True, False, True], [False, False, False]]
        assert f.A.flags.c_contiguous and f.A.dtype == float
        assert np.array_equal(f.A, f.incidence.T)

    def test_batch_rows_cross_blocks(self):
        # each extension row is its one-row call, byte for byte, wherever a
        # 1000-row batch is cut, and each fixed block of MASK_BLOCK rows of
        # f on sets answers as that block alone
        rng = np.random.default_rng(77)
        f = random_coverage(rng, 40, 120)
        X = rng.random((1000, 40))
        X[rng.random(X.shape) < 0.1] = 1.0
        got = f.closed_form_batch(X)
        assert got.tobytes() == np.concatenate(
            [f.closed_form_batch(X[:436]), f.closed_form_batch(X[436:])]).tobytes()
        for r in (0, 435, 436, 999):
            assert got[r:r + 1].tobytes() == f.closed_form_batch(X[r:r + 1]).tobytes()
        assert np.all(np.abs(got - reference_coverage_batch(f, X))
                      <= COVERAGE_GRAD_RTOL * f.item_weights.sum())
        block = sm.setfn.MASK_BLOCK
        R = rng.random((2 * block + 100, 40)) < 0.3
        vals = f._vertex_values(R)
        for lo in (0, block, 2 * block):
            assert (vals[lo:lo + block].tobytes()
                    == f._vertex_values(R[lo:lo + block]).tobytes())

    @pytest.mark.parametrize("n", [1, 12, 40, 62])
    def test_vertex_values_match_the_reference(self, n):
        # f on random 0/1 rows, summed over the items each row covers, and
        # the same sets through their bitmasks
        rng = np.random.default_rng(n)
        f = random_coverage(rng, n)
        R = rng.random((3000, n)) < rng.random((3000, 1))
        masks = R @ (np.int64(1) << np.arange(n))
        ref = reference_coverage_values(f, masks)
        assert np.all(np.abs(f._vertex_values(R) - ref) <= 1e-15 * f.item_weights.sum())
        assert np.array_equal(f.value_batch(masks), f._vertex_values(R))


@pytest.mark.parametrize("weight, ok", [(1e308, False), (5e307, True)])
def test_coverage_gradient_bound_must_be_finite(weight, ok):
    # item 0 has two owners, so it counts twice in the gradient's l1 bound
    # sum_j w_j deg_j: at 1e308 that bound overflows, the weights' sum not
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        if ok:
            sm.Coverage(2, [[0, 1], [0]], [weight, 1.0])
        else:
            with pytest.raises(ValueError, match="finite sum, which bounds the gradient"):
                sm.Coverage(2, [[0, 1], [0]], [weight, 1.0])


# per-element relative tolerance of the log-domain coverage gradient against
# the leave-one-out products of the dense reference: exp of a sum of d logs
# rounds to within about 6e-15 d, d the item degree, at coordinates 1 - 2^-k
COVERAGE_GRAD_RTOL = 1e-12


@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 14),
       m=st.sampled_from([0, 1, 5, 17, 40]), R=st.sampled_from([1, 2, 7, 52]),
       density=st.sampled_from([0.0, 0.15, 0.5, 1.0]))
@settings(max_examples=150, deadline=None)
def test_coverage_kernels_match_the_dense_references(seed, n, m, R, density):
    # items nobody covers, an item every element covers, and points with
    # exact 0.0 and 1.0 entries and entries 1 - 2^-k next to 1.0: the
    # gradient and the partials within a relative tolerance with the same
    # zeros, the extension within the tolerance times the total weight, and
    # every row of the three kernels as its one-row call gives it, byte for
    # byte
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
    near = rng.random(X.shape) < 0.1
    X[near] = 1.0 - 2.0 ** -rng.integers(1, 54, size=near.sum())
    G, ref = f.closed_form_grad(X), reference_coverage_grad(f, X)
    assert np.array_equal(G == 0.0, ref == 0.0)
    assert np.all(np.abs(G - ref) <= COVERAGE_GRAD_RTOL * ref)
    for x, g in zip(X, G):
        assert g.tobytes() == f.closed_form_grad(x).tobytes()
    F = f.closed_form_batch(X)
    assert np.all(np.abs(F - reference_coverage_batch(f, X))
                  <= COVERAGE_GRAD_RTOL * f.item_weights.sum())
    for r in range(R):
        assert F[r:r + 1].tobytes() == f.closed_form_batch(X[r:r + 1]).tobytes()
    for i in range(n):
        D, ref = f.closed_form_partial(i, X), reference_coverage_partial(f, i, X)
        assert np.array_equal(D == 0.0, ref == 0.0)
        assert np.all(np.abs(D - ref) <= COVERAGE_GRAD_RTOL * ref)
        for r in range(R):
            assert D[r:r + 1].tobytes() == f.closed_form_partial(i, X[r:r + 1]).tobytes()


def _peak_bytes(call, *args):
    tracemalloc.start()
    try:
        call(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_coverage_gradient_memory_does_not_grow_with_the_degrees():
    # 52 rows of a generated n = 400 coverage (800 items of about 120 owners
    # each), with the incidence matrix A built as at every call after the
    # first: (rows, 2, items) products, not a (rows, n, items) gather, which
    # peaked at 274 MB for the gradient and 5.9 MB for the extension; and
    # f on 100,000 sets in blocks of MASK_BLOCK rows, not the extension of
    # every row at once, which peaked at 618 MB
    f, _ = sm.gen("coverage", 400, "cardinality", 0).build()
    rng = np.random.default_rng(0)
    X = rng.random((52, 400))
    f.A
    assert _peak_bytes(f.closed_form_grad, X) < 4 << 20
    assert _peak_bytes(f.closed_form_batch, X) < 2 << 20
    R = rng.integers(0, 2, size=(100_000, 400), dtype=np.uint8).view(bool)
    assert _peak_bytes(f._vertex_values, R) < 32 << 20


def test_cut_set_values_hold_one_block_at_a_time():
    # f on 20,000 sets of an n = 400 cut, in blocks of MASK_BLOCK rows: the
    # closed form over every row at once peaked at 183 MB.  The blocks keep
    # the bytes of that one product, across blocks and on a lone last row
    f, _ = sm.gen("directed-cut", 400, "cardinality", 0).build()
    rng = np.random.default_rng(0)
    f.W
    R = rng.integers(0, 2, size=(20_000, 400), dtype=np.uint8).view(bool)
    assert _peak_bytes(f._vertex_values, R) < 16 << 20
    R = R[:2 * sm.setfn.MASK_BLOCK + 1]
    assert f._vertex_values(R).tobytes() == f.closed_form_batch(R.astype(float)).tobytes()


class TestPointShape:
    """The gradient takes one point of n coordinates and the extension one
    point or an (R, n) batch; both name n for anything else, in every mode."""

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

    def test_supermodular_table_rejected_at_any_scale(self):
        # f(S) = |S|^2 / 1e10: every pairwise gap is -2e-10
        sizes = np.array([bin(m).count("1") for m in range(8)], dtype=float)
        with pytest.raises(ValueError, match="not submodular"):
            sm.ExplicitTable(3, sizes**2 * 1e-10)

    @pytest.mark.parametrize("scale", [1e-6, 1e6])
    def test_generated_table_accepted_at_any_scale(self, scale):
        # the check allows rounding relative to max |f|
        for n in (6, 8):
            inst = sm.gen("explicit-table", n, "cardinality", 1)
            sm.ExplicitTable(n, np.array(inst.function["values"]) * scale)

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
                want[i] = (f._vertex_values(hi).mean()
                           - f._vertex_values(lo).mean())
            assert np.array_equal(sm.gradient(f, x, cfg), want)

    def test_batch_rows_share_one_draw(self):
        rng = np.random.default_rng(11)
        f = random_coverage(rng, 5)
        x, y = rng.random(5), rng.random(5)
        cfg = EstimatorConfig(mode="mc", sample_count=3000, rng_seed=5)
        vals = sm.multilinear_batch(f, np.stack([x, x, y]), cfg)
        U = sm.setfn._uniforms(f.n, cfg)
        assert vals[0] == vals[1] == f._vertex_values(U < x).mean()
        assert vals[2] == f._vertex_values(U < y).mean()
        assert sm.multilinear(f, x, cfg) == vals[0]


class TestPoint:
    def test_tolerance_and_clipping(self):
        p = Point([1.0 + 5e-13, -5e-13])
        assert p.v[0] == 1.0 and p.v[1] == 0.0
        with pytest.raises(ValueError):
            Point([1.1, 0.0])

    @pytest.mark.parametrize("coords, message", [
        ([0.5, np.nan], "finite"), ([np.inf, 0.5], "finite"), ([0.5, -np.inf], "finite"),
        ([2.0, np.nan], "finite"), ([0.5, -1e-3], "beyond tolerance"),
    ])
    def test_rejected_coordinates(self, coords, message):
        with pytest.raises(ValueError, match=message):
            Point(coords)

    def test_coordinates_in_the_box_are_kept_bit_for_bit(self):
        # only a coordinate outside [0, 1] is clipped; -0.0 stays -0.0
        p = Point([-0.0, 0.25, 1.0])
        assert np.signbit(p.v).tolist() == [True, False, False]
        assert not p.v.flags.writeable

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
