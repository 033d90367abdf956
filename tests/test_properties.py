"""Calculus of the multilinear extension: the derivative identity, gradient
antitonicity, directional concavity, one-coordinate linearity, and the
smoothness bound.  Heavier 500-trial sweeps live in the acceptance module;
these are the targeted/hypothesis variants."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import submax as sm

from helpers import (brute_force_extension, random_coverage, random_cut,
                     random_function, random_table_function)


def test_vertex_agreement_exhaustive():
    rng = np.random.default_rng(200)
    n = 10
    masks = np.arange(1 << n, dtype=np.int64)
    bits = ((masks[:, None] >> np.arange(n)[None, :]) & 1).astype(float)
    for make in (random_cut, random_coverage, random_table_function):
        f = make(rng, n)
        ext = sm.multilinear_batch(f, bits, sm.EstimatorConfig("exact"))
        assert np.max(np.abs(ext - f.value_batch(masks))) <= 1e-12


def test_gradient_identity_against_independent_enumeration():
    rng = np.random.default_rng(201)
    for _ in range(30):
        n = int(rng.integers(2, 7))
        f = random_function(rng, n)
        x = rng.random(n)
        g = sm.gradient(f, x)
        for i in range(n):
            hi = x.copy(); hi[i] = 1.0
            lo = x.copy(); lo[i] = 0.0
            ref = brute_force_extension(f, hi) - brute_force_extension(f, lo)
            assert g[i] == pytest.approx(ref, abs=1e-12)


def test_gradient_antitone():
    rng = np.random.default_rng(202)
    for _ in range(60):
        n = int(rng.integers(2, 10))
        f = random_function(rng, n)
        x = rng.random(n)
        y = x + (1.0 - x) * rng.random(n)
        assert np.all(sm.gradient(f, x) >= sm.gradient(f, y) - 1e-9)


def test_directional_concavity():
    rng = np.random.default_rng(203)
    grid = np.linspace(0.0, 1.0, 52)
    for _ in range(25):
        n = int(rng.integers(2, 9))
        f = random_function(rng, n)
        x = rng.random(n)
        d = (1.0 - x) * rng.random(n)
        X = x[None, :] + grid[:, None] * d[None, :]
        vals = sm.multilinear_batch(f, X, sm.default_config(f))
        second = vals[:-2] - 2.0 * vals[1:-1] + vals[2:]
        assert np.max(second) <= 1e-9


def test_one_coordinate_moves_are_linear():
    rng = np.random.default_rng(204)
    for _ in range(60):
        n = int(rng.integers(2, 9))
        f = random_function(rng, n)
        x = rng.random(n)
        i = int(rng.integers(n))
        step = float(rng.uniform(-x[i], 1.0 - x[i]))
        moved = x.copy(); moved[i] += step
        hi = x.copy(); hi[i] = 1.0
        lo = x.copy(); lo[i] = 0.0
        lhs = sm.multilinear(f, moved) - sm.multilinear(f, x)
        rhs = step * (sm.multilinear(f, hi) - sm.multilinear(f, lo))
        assert lhs == pytest.approx(rhs, abs=1e-12)


def test_smoothness_bound():
    rng = np.random.default_rng(205)
    for _ in range(60):
        n = int(rng.integers(2, 10))
        f = random_function(rng, n)
        width = float(rng.uniform(0.0, 0.4))
        u = rng.random(n)
        v = np.minimum(u + width * rng.random(n), 1.0)
        gap = abs(sm.multilinear(f, v) - sm.multilinear(f, u))
        assert gap <= width * n * n * sm.max_singleton(f) + 1e-12


def test_gradient_difference_bound():
    # consequence of smoothness: coordinates of grad move by at most 2*d*n^2*M
    rng = np.random.default_rng(206)
    for _ in range(30):
        n = int(rng.integers(2, 9))
        f = random_function(rng, n)
        width = float(rng.uniform(0.0, 0.3))
        u = rng.random(n)
        v = np.minimum(u + width * rng.random(n), 1.0)
        gap = np.max(np.abs(sm.gradient(f, u) - sm.gradient(f, v)))
        assert gap <= 2.0 * width * n * n * sm.max_singleton(f) + 1e-12


def test_submodularity_of_generated_families():
    # lattice form on random pairs: f(A) + f(B) >= f(A|B) + f(A&B)
    rng = np.random.default_rng(207)
    for make in (random_cut, random_coverage, random_table_function):
        n = 8
        f = make(rng, n)
        for _ in range(200):
            A = int(rng.integers(1 << n))
            B = int(rng.integers(1 << n))
            lhs = f.value(A) + f.value(B)
            rhs = f.value(A | B) + f.value(A & B)
            assert lhs >= rhs - 1e-9


def test_monte_carlo_consistency_small():
    # smaller version of the estimator criterion (full run in acceptance)
    rng = np.random.default_rng(208)
    bad = 0
    for trial in range(20):
        n = int(rng.integers(3, 9))
        f = random_cut(rng, n) if trial % 2 else random_coverage(rng, n)
        x = rng.random(n)
        cfg = sm.EstimatorConfig(mode="mc", sample_count=20_000,
                                 rng_seed=int(rng.integers(2**32)))
        samples = f._vertex_values(sm.setfn._uniforms(f.n, cfg) < x)
        exact = sm.multilinear(f, x)
        stderr = samples.std(ddof=1) / np.sqrt(samples.size)
        if stderr > 0 and abs(samples.mean() - exact) > 4.0 * stderr:
            bad += 1
    assert bad <= 1


@given(st.integers(0, 100_000))
@settings(max_examples=40, deadline=None)
def test_extension_bounded_by_extremes(seed):
    # F(x) always lies within [min_S f(S), max_S f(S)]
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 7))
    f = random_function(rng, n)
    table = f.full_table()
    val = sm.multilinear(f, rng.random(n))
    assert table.min() - 1e-12 <= val <= table.max() + 1e-12


@given(st.integers(0, 100_000))
@settings(max_examples=40, deadline=None)
def test_gradient_zero_when_coordinate_irrelevant(seed):
    # an element no arc touches contributes nothing to the cut gradient
    rng = np.random.default_rng(seed)
    f = sm.DirectedCut(4, [(0, 1, float(1.0 - rng.random()))])
    g = sm.gradient(f, rng.random(4))
    assert g[2] == 0.0 and g[3] == 0.0
