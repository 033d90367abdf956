"""The calls that take one point, and inputs that every entry point rejects.

The oracle, membership, the extension value, the gradients and the
verification oracles take one point of n coordinates (``setfn._point``); the
solver's loop runs their kernels on (R, n) batches instead
(``test_polytope.py``, ``test_setfn.py``).
"""

import numpy as np
import pytest

import submax as sm
from submax import InstanceFormatError, InvalidBoxError, InvalidSubsetError, Point

N = 3
F = sm.DirectedCut(N, [(0, 1, 2.0), (1, 2, 1.0), (2, 0, 0.5)])
C = sm.KnapsackPolytope(N, [1.0, 2.0, 0.5], 1.5)

ONE_POINT_CALLS = {
    "linear_maximize": lambda x: C.linear_maximize(x, 0.5),
    "contains_point": lambda x: C.contains_point(x),
    "multilinear": lambda x: sm.multilinear(F, x),
    "gradient": lambda x: sm.gradient(F, x),
    "lp_brute_force": lambda x: sm.lp_brute_force(C, x, 0.5),
    "check_x_or_opt": lambda x: sm.check_x_or_opt(F, x, {0}),
    "brute_force_box_opt-lower": lambda x: sm.brute_force_box_opt(F, x, np.ones(N)),
    "brute_force_box_opt-upper": lambda x: sm.brute_force_box_opt(F, np.zeros(N), x),
}
NOT_ONE_POINT = {
    "batch": np.full((2, N), 0.25),
    "one-coordinate-too-many": np.full(N + 1, 0.25),
    "scalar": np.float64(0.25),
}


@pytest.mark.parametrize("x", NOT_ONE_POINT.values(), ids=NOT_ONE_POINT.keys())
@pytest.mark.parametrize("call", ONE_POINT_CALLS.values(), ids=ONE_POINT_CALLS.keys())
def test_anything_but_one_point_names_n(call, x):
    with pytest.raises(ValueError, match=f"one point of {N} coordinates"):
        call(x)


REJECTED = {
    # a cap that is a bool or a list, beside a batch or one weight row
    "caps-bool-beside-a-number": (
        lambda: sm.CardinalityPolytope(2, 1).linear_maximize([[1, 2], [3, 1]], [True, 0.5]),
        ValueError),
    "caps-bool-in-a-list": (
        lambda: sm.CardinalityPolytope(2, 1).linear_maximize([1, 2], [True]), ValueError),
    "caps-list-of-one": (
        lambda: sm.CardinalityPolytope(2, 1).linear_maximize([1, 2], [0.5]), ValueError),
    "caps-bool": (lambda: sm.CardinalityPolytope(2, 1).linear_maximize([1, 2], True),
                  ValueError),
    # a subset element or bitmask that is no integer, never truncated
    "subset-float-element": (lambda: F.value([1.5]), ValueError),
    "subset-bool-element": (lambda: F.value([True]), ValueError),
    "subset-bool-bitmask": (lambda: F.value(True), ValueError),
    "subset-float-bitmask": (lambda: F.value(1.0), ValueError),
    "subset-string": (lambda: F.value("1"), ValueError),
    "subset-element-outside": (lambda: F.value([3]), InvalidSubsetError),
    "indicator-float-element": (lambda: Point.indicator(3, [2.7]), ValueError),
    # a seed that is no integer
    "gen-float-seed": (lambda: sm.gen("directed-cut", 4, "cardinality", 1.5),
                       InstanceFormatError),
    "gen-string-seed": (lambda: sm.gen("directed-cut", 4, "cardinality", "3"),
                        InstanceFormatError),
    "gen-bool-seed": (lambda: sm.gen("directed-cut", 4, "cardinality", True),
                      InstanceFormatError),
    "desk-corpus-float-seed": (lambda: sm.desk_corpus(1.5), InstanceFormatError),
    "mini-corpus-bool-seed": (lambda: sm.mini_corpus(True), InstanceFormatError),
    "mini-corpus-string-seed": (lambda: sm.mini_corpus("3"), InstanceFormatError),
}


@pytest.mark.parametrize("call, error", REJECTED.values(), ids=REJECTED.keys())
def test_rejected(call, error):
    with pytest.raises(error):
        call()


def test_subsets_and_bitmasks_keep_their_answers():
    assert F.value({0, 2}) == F.value([2, 0, 2]) == F.value(0b101) == F.value(np.int64(5))
    assert F.value(np.array([0, 2])) == F.value(range(0, 3, 2)) == F.value(0b101)
    assert F.value([]) == F.value(0) == 0.0
    assert Point.indicator(3, (1,)).v.tolist() == [0.0, 1.0, 0.0]


def test_numpy_integer_seeds_keep_their_documents():
    for seed in (np.int64(7), np.uint64(7)):
        assert sm.gen("coverage", 5, "knapsack", seed).to_json() \
            == sm.gen("coverage", 5, "knapsack", 7).to_json()
    assert [d.to_json() for d in sm.mini_corpus(np.int32(2))] \
        == [d.to_json() for d in sm.mini_corpus(2)]


class TestBoxRule:
    """The double greedy's box and the box-corner optimum share one rule,
    u <= v within COORD_TOL, and raise InvalidBoxError beyond it."""

    @pytest.mark.parametrize("excess, ok", [(0.5e-12, True), (2e-12, False)])
    def test_both_apply_one_tolerance(self, excess, ok):
        u, v = Point([0.5 + excess, 0.0, 0.2]), Point([0.5, 1.0, 0.2])
        calls = [lambda: sm.BoxInstance(F, u, v), lambda: sm.brute_force_box_opt(F, u, v)]
        for call in calls:
            if ok:
                call()
            else:
                with pytest.raises(InvalidBoxError, match="u <= v"):
                    call()
