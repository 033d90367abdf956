"""Mask batches are evaluated in blocks of ``setfn.MASK_BLOCK`` masks.

The blocked kernels, both families' ``value_batch`` and the three bodies'
``contains_mask_batch``, must return the bytes of the one-shot formulas they
replace (``helpers.reference_*``), and brute force must stay within a few MB
at n = 16.

A matrix-vector product rounds a row by its place in the call, and OpenBLAS
splits a large product over its threads at places it picks, so the rows of a
one-shot reference can depend on the thread count.  The references are
therefore computed once, in a child process whose BLAS runs on one thread.
"""

import os
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

import submax as sm
from submax.setfn import MASK_BLOCK

from helpers import (random_coverage, random_cut, reference_contains,
                     reference_coverage_values, reference_cut_values)

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
# the one-shot cut reference holds a few (masks x arcs) int64 tables, so
# every-mask cases keep that product at 2^21 entries: a cut at n = 18 keeps
# 8 arcs, a coverage 8 items
REFERENCE_ENTRIES = 1 << 21


def _values(f):
    ref = reference_cut_values if isinstance(f, sm.DirectedCut) else reference_coverage_values
    return (f.value_batch, lambda masks: ref(f, masks))


def _contains(C):
    return (C.contains_mask_batch, lambda masks: reference_contains(C, masks))


def _bodies(rng, n):
    costs = 0.5 + rng.random(n)
    return {"cardinality": sm.CardinalityPolytope(n, max(1, n // 3)),
            "partition": sm.PartitionMatroidPolytope(
                n, [range(n // 2), range(n // 2, n)], [1, 2]),
            "knapsack": sm.KnapsackPolytope(n, costs, 0.4 * costs.sum())}


def _every_mask_cases():
    cases = {}
    for n in range(2, 19):
        rng = np.random.default_rng(n)
        cap = max(1, REFERENCE_ENTRIES >> n)
        cut = random_cut(rng, n)
        arcs = list(zip(cut.src.tolist(), cut.dst.tolist(), cut.w.tolist()))[:cap]
        cut = sm.DirectedCut(n, arcs)
        cov = random_coverage(rng, n, m=min(2 * n, cap))
        masks = np.arange(1 << n, dtype=np.int64)
        kernels = {"cut": _values(cut), "coverage": _values(cov)}
        kernels.update((k, _contains(C)) for k, C in _bodies(rng, n).items())
        for k, (blocked, ref) in kernels.items():
            cases[f"every-mask-n{n}-{k}"] = (blocked, ref, masks)
    return cases


def _feasible_cases():
    # brute force's own batches: the feasible masks of a generated body,
    # one fewer where their count is even
    cases = {}
    for n in (12, 16):
        masks = np.arange(1 << n, dtype=np.int64)
        for kind in ("directed-cut", "coverage"):
            for body in ("cardinality", "partition-matroid", "knapsack"):
                f, C = sm.gen(kind, n, body, 1).build()
                feasible = masks[C.contains_mask_batch(masks)]
                feasible = feasible[:len(feasible) - 1 + len(feasible) % 2]
                cases[f"feasible-n{n}-{kind}-{body}"] = (*_values(f), feasible)
    return cases


def _block_edge_cases():
    rng = np.random.default_rng(14)
    kernels = {"cut": _values(random_cut(rng, 14)), "coverage": _values(random_coverage(rng, 14))}
    kernels.update((k, _contains(C)) for k, C in _bodies(rng, 14).items())
    cases = {}
    for size in (MASK_BLOCK - 1, MASK_BLOCK, MASK_BLOCK + 1, 2 * MASK_BLOCK + 1):
        masks = rng.integers(0, 1 << 14, size=size)
        for k, (blocked, ref) in kernels.items():
            cases[f"block-edge-{size}-{k}"] = (blocked, ref, masks)
    return cases


def _python_int_cases():
    # past bit 62 a mask is a Python int in an object array, as
    # ``verify.extension_checks`` passes them
    n = 70
    rng = np.random.default_rng(n)
    kernels = {"cut": _values(random_cut(rng, n, p=0.05)),
               "coverage": _values(random_coverage(rng, n))}
    kernels.update((k, _contains(C)) for k, C in _bodies(rng, n).items())
    cases = {}
    for size in (256, 2 * MASK_BLOCK + 1):
        bits = rng.random((size, n)) < 0.5
        masks = bits.astype(object) @ (1 << np.arange(n, dtype=object))
        for k, (blocked, ref) in kernels.items():
            cases[f"python-int-{size}-{k}"] = (blocked, ref, masks)
    return cases


# costs in tenths: the 55 subsets worth exactly 10 tenths sum to 1.0 or to
# the float below it depending on the order of their terms, and the budget
# puts the limit budget + FEAS_TOL exactly on the lower one
EDGE_TENTHS = np.array([1, 2, 3, 4, 6, 7, 1, 2, 3, 4, 5, 9])


def _edge_budget(limit):
    budget = limit - sm.polytope.FEAS_TOL
    while budget + sm.polytope.FEAS_TOL > limit:
        budget = np.nextafter(budget, 0.0)
    while budget + sm.polytope.FEAS_TOL < limit:
        budget = np.nextafter(budget, 2.0)
    return float(budget)


EDGE_BODY = sm.KnapsackPolytope(12, (EDGE_TENTHS / 10).tolist(),
                                _edge_budget(np.nextafter(1.0, 0.0)))
# every mask three times over, less one: each edge subset sits at several
# places of a block and in the merged last block
EDGE_MASKS = np.tile(np.arange(1 << 12, dtype=np.int64), 3)[:-1]


CASES = {**_every_mask_cases(), **_feasible_cases(), **_block_edge_cases(),
         **_python_int_cases(), "knapsack-budget-edge": (*_contains(EDGE_BODY), EDGE_MASKS)}

_CHILD = """
import sys
import numpy as np
import test_mask_blocks as t
np.savez(sys.argv[1], **{name: ref(masks) for name, (_, ref, masks) in t.CASES.items()})
"""


@pytest.fixture(scope="module")
def one_thread_references(tmp_path_factory):
    out = tmp_path_factory.mktemp("references") / "references.npz"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in sys.path if p),
               **dict.fromkeys(THREAD_VARS, "1"))
    subprocess.run([sys.executable, "-c", _CHILD, str(out)], env=env, check=True, timeout=600)
    with np.load(out) as refs:
        return dict(refs)


@pytest.mark.parametrize("name", list(CASES))
def test_blocked_kernels_keep_the_one_shot_bytes(name, one_thread_references):
    blocked, _, masks = CASES[name]
    got, ref = blocked(masks), one_thread_references[name]
    assert got.dtype == ref.dtype and got.shape == ref.shape
    assert got.tobytes() == ref.tobytes()


def test_budget_edge_is_decided_by_rounding(one_thread_references):
    # the edge case can fail: of the subsets worth exactly 1.0, the ones
    # whose sum rounds to 1.0 are outside and the rest inside
    masks = EDGE_MASKS[:1 << 12]
    worth_one = ((masks[:, None] >> np.arange(12)) & 1) @ EDGE_TENTHS == 10
    inside = one_thread_references["knapsack-budget-edge"][:1 << 12][worth_one]
    assert 0 < inside.sum() < inside.size


@pytest.mark.parametrize("kind", ["directed-cut", "coverage"])
@pytest.mark.parametrize("body", ["cardinality", "partition-matroid", "knapsack"])
def test_mask_batches_stay_within_a_few_mb_at_n16(kind, body):
    # numpy reports its buffers to tracemalloc; the one-shot forms peaked at
    # 9-222 MB here
    f, C = sm.gen(kind, 16, body, 1).build()
    masks = np.arange(1 << 16, dtype=np.int64)
    calls = {"value_batch": lambda: f.value_batch(masks),
             "contains_mask_batch": lambda: C.contains_mask_batch(masks),
             "brute_force_opt": lambda: sm.brute_force_opt(f, C)}
    for name, call in calls.items():
        tracemalloc.start()
        try:
            call()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 << 20, f"{name} peaked at {peak / 2**20:.1f} MB"
