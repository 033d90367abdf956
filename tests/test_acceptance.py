"""Acceptance suite: every exit criterion at its stated tolerance.

Each test prints one pass/fail line (visible with `pytest -s` or on failure).
Criteria 2, 5, and 7 share one sweep over the seeded 54-instance corpus.
"""

import numpy as np
import pytest

import submax as sm
from submax import EstimatorConfig, RunConfig

from helpers import (brute_force_extension, random_box, random_constraint,
                     random_coverage, random_cut, random_function)

CORPUS_SEED = 1


def _report(num, name, ok, detail=""):
    suffix = f"  ({detail})" if detail else ""
    print(f"criterion {num} [{name}]: {'PASS' if ok else 'FAIL'}{suffix}")
    assert ok, f"criterion {num} failed: {name} {detail}"


@pytest.fixture(scope="module")
def corpus_runs():
    """Solve the whole desk corpus once: alpha=0.5, delta=0.005, closed-form
    evaluation (the default for cut and coverage), brute-force optimum
    attached."""
    runs = []
    run = RunConfig()  # alpha 0.5, delta 0.005, 51-point theta grid incl 0.18
    for inst in sm.desk_corpus(CORPUS_SEED):
        f, C = inst.build()
        _, opt = sm.brute_force_opt(f, C)
        report = sm.solve(f, C, run, opt_value=opt)
        runs.append((inst, f, C, opt, report))
    return runs


def test_criterion_1_bound_reproduction():
    at_tuned = sm.compute_bound(0.5, 0.18)
    ok = (at_tuned > 0.372) and abs(at_tuned - 0.37210) <= 1e-4 \
        and abs(sm.compute_bound(0.5, 0.0) - 1.0 / np.e) <= 1e-9
    _report(1, "bound reproduction", ok, f"C(0.5,0.18)={at_tuned:.6f}")


def test_criterion_2_end_to_end_ratio(corpus_runs):
    assert len(corpus_runs) >= 50
    ratios = []
    worst = (None, np.inf)
    for inst, f, C, opt, report in corpus_runs:
        assert opt > 0, f"degenerate optimum in {inst.name}"
        ratio = report.best_value / opt
        ratios.append(ratio)
        if ratio < worst[1]:
            worst = (inst.name, ratio)
    ok = min(ratios) >= 0.372 and float(np.mean(ratios)) >= 0.5
    _report(2, "end-to-end ratio", ok,
            f"{len(ratios)} instances, min {min(ratios):.4f} ({worst[0]}), "
            f"mean {np.mean(ratios):.4f}")


def test_criterion_3_double_greedy_guarantee():
    rng = np.random.default_rng(33)
    count = 0
    worst = np.inf
    sizes = [int(rng.integers(2, 9)) for _ in range(96)] + [9, 9, 10, 10]
    for n in sizes:
        f = random_function(rng, n)
        u, v = random_box(rng, n)
        out = sm.double_greedy_box(sm.BoxInstance(f, u, v))
        _, box_opt = sm.brute_force_box_opt(f, u, v)
        floor = sm.guarantee_floor(sm.multilinear(f, u), sm.multilinear(f, v),
                                   box_opt)
        margin = sm.multilinear(f, out) - floor
        worst = min(worst, margin)
        count += 1
    ok = count >= 100 and worst >= -1e-9
    _report(3, "double greedy guarantee", ok,
            f"{count} boxes, worst margin {worst:.3e}")


def test_criterion_4_calculus_property_suite():
    rng = np.random.default_rng(44)
    trials = 500

    worst_grad = 0.0
    for _ in range(trials):
        n = int(rng.integers(2, 9))
        f = random_function(rng, n)
        x = rng.random(n)
        g = sm.gradient(f, x)
        for i in rng.choice(n, size=2, replace=False):
            hi = x.copy(); hi[i] = 1.0
            lo = x.copy(); lo[i] = 0.0
            ref = brute_force_extension(f, hi) - brute_force_extension(f, lo)
            worst_grad = max(worst_grad, abs(g[i] - ref))
    ok_grad = worst_grad <= 1e-12

    worst_anti = np.inf
    for _ in range(trials):
        n = int(rng.integers(2, 10))
        f = random_function(rng, n)
        x = rng.random(n)
        y = x + (1.0 - x) * rng.random(n)
        worst_anti = min(worst_anti,
                         float(np.min(sm.gradient(f, x) - sm.gradient(f, y))))
    ok_anti = worst_anti >= -1e-9

    worst_conc = -np.inf
    grid = np.linspace(0.0, 1.0, 52)
    for _ in range(trials):
        n = int(rng.integers(2, 9))
        f = random_function(rng, n)
        x = rng.random(n)
        d = (1.0 - x) * rng.random(n)
        vals = sm.multilinear_batch(f, x[None, :] + grid[:, None] * d[None, :],
                                    sm.default_config(f))
        worst_conc = max(worst_conc,
                         float((vals[:-2] - 2 * vals[1:-1] + vals[2:]).max()))
    ok_conc = worst_conc <= 1e-9

    worst_lin = 0.0
    for _ in range(trials):
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
        worst_lin = max(worst_lin, abs(lhs - rhs))
    ok_lin = worst_lin <= 1e-12

    ok_join = True
    for _ in range(trials):
        n = int(rng.integers(2, 10))
        f = random_function(rng, n)
        ok_join &= sm.check_x_or_opt(f, rng.random(n), int(rng.integers(1 << n)))

    worst_smooth = -np.inf
    for _ in range(trials):
        n = int(rng.integers(2, 10))
        f = random_function(rng, n)
        width = float(rng.uniform(0.0, 0.4))
        u = rng.random(n)
        v = np.minimum(u + width * rng.random(n), 1.0)
        excess = abs(sm.multilinear(f, v) - sm.multilinear(f, u)) \
            - width * n * n * sm.max_singleton(f)
        worst_smooth = max(worst_smooth, excess)
    ok_smooth = worst_smooth <= 1e-12

    ok = ok_grad and ok_anti and ok_conc and ok_lin and ok_join and ok_smooth
    _report(4, "calculus property suite", ok,
            f"grad {worst_grad:.1e}, antitone {worst_anti:.1e}, "
            f"concavity {worst_conc:.1e}, linearity {worst_lin:.1e}, "
            f"join {ok_join}, smooth {worst_smooth:.1e}")


def test_criterion_5_trajectory_envelopes(corpus_runs):
    # solve asserts every row's l-inf envelope at every step and raises at
    # the first violation, so a corpus solve that completed held them all
    # exactly; the same instance under an oracle that ignores the cap must
    # raise
    done = sum(len(report.per_theta) == 51 for *_, report in corpus_runs)
    f, C = corpus_runs[0][0].build()
    C._plan = lambda caps: sm.Polytope._plan(C, np.ones_like(caps))
    try:
        sm.solve(f, C, RunConfig())
        caught = "no error"
    except sm.InvariantError as e:
        caught = str(e)
    ok = done == 54 and caught.startswith("l-inf envelope violated")
    _report(5, "trajectory envelopes", ok,
            f"{done} of 54 solves completed; uncapped oracle: {caught}")


def test_criterion_6_oracle_exactness():
    rng = np.random.default_rng(66)
    worst = 0.0
    for _ in range(200):
        n = int(rng.integers(2, 7))
        C = random_constraint(rng, n)
        w = rng.normal(size=n)
        alpha = float(rng.choice([0.5, 0.7, 1.0]))
        got = float(w @ C.linear_maximize(w, alpha).v)
        worst = max(worst, abs(got - sm.lp_brute_force(C, w, alpha)))
    ok = worst <= 1e-7
    _report(6, "capped oracle exactness", ok, f"200 instances, worst dev {worst:.2e}")


def test_criterion_7_branch_bound_diagnostics(corpus_runs):
    bad = []
    total = 0
    for inst, f, C, opt, report in corpus_runs:
        if f.n > 10:
            continue
        for d in report.diagnostics:
            total += 1
            if not d.passed:
                bad.append((inst.name, d.name, d.theta))
    ok = not bad and total > 0
    _report(7, "branch lower-bound diagnostics", ok,
            f"{total - len(bad)} of {total} checks hold exactly")


def test_criterion_8_monte_carlo_estimator():
    rng = np.random.default_rng(88)
    deviant = 0
    for trial in range(100):
        n = int(rng.integers(3, 9))
        f = random_cut(rng, n) if trial % 2 else random_coverage(rng, n)
        x = rng.random(n)
        cfg = EstimatorConfig(mode="mc", sample_count=100_000,
                              rng_seed=int(rng.integers(2**32)))
        samples = f._vertex_values(sm.setfn._uniforms(f.n, cfg) < x)
        exact = sm.multilinear(f, x)
        stderr = samples.std(ddof=1) / np.sqrt(samples.size)
        if abs(samples.mean() - exact) > 4.0 * stderr:
            deviant += 1
    ok = deviant <= 1
    _report(8, "monte carlo estimator", ok, f"{deviant}/100 trials beyond 4 s.e.")
