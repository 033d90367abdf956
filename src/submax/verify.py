"""Independent ground-truth oracles and the approximation-constant formula.

Everything here deliberately avoids the solver's own code paths: integral
optima come from exhaustive subset enumeration, box optima from corner
enumeration (a box-constrained maximizer of a multilinear function can
always be pushed to a corner), and capped linear programs from explicit
vertex enumeration.  These are the yardsticks the fast paths are measured
against.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

import numpy as np

from .cgreedy import RunConfig, SolveReport, solve
from .dgbox import BoxInstance, _check_box, double_greedy_box_run, guarantee_floor
from .errors import ConfigError, EstimatorError
from .polytope import Polytope
from .setfn import (EXACT_ENUM_LIMIT, EstimatorConfig, Point, SetFunction,
                    ALPHA_MIN, _mask_bits, _number, _point, _unit, default_config,
                    gradient, mask_to_set, max_singleton, multilinear,
                    multilinear_batch, one_coordinate_gradient)

BRUTE_FORCE_LIMIT = 20
BOUND_GRID_LIMIT = 100_000  # thetas of best_bound_theta, one formula call each


def _all_masks(n: int) -> np.ndarray:
    """Every bitmask over n elements, guarded by BRUTE_FORCE_LIMIT."""
    if n > BRUTE_FORCE_LIMIT:
        raise EstimatorError(
            f"brute force limited to n <= {BRUTE_FORCE_LIMIT}, got n={n}")
    return np.arange(1 << n, dtype=np.int64)


def brute_force_opt(f: SetFunction, C: Polytope):
    """Exhaustive integral optimum over C; ties go to the smallest bitmask.

    Returns (S*, value) with S* as a frozenset of element indices.  The
    membership and the values are evaluated in blocks of
    ``setfn.MASK_BLOCK`` masks, so besides the masks, the feasible ones and
    their values it holds one block's rows: it peaks at about 2 MB at
    n = 16 and 16 MB at n = 20 (tracemalloc, cut and coverage with a
    knapsack).
    """
    masks = _all_masks(f.n)
    feasible = masks[C.contains_mask_batch(masks)]
    values = f.value_batch(feasible)
    best = int(np.argmax(values))
    return mask_to_set(int(feasible[best])), float(values[best])


def brute_force_box_opt(f: SetFunction, u, v):
    """Exhaustive corner optimum of F over the box [u, v]; ties prefer
    corners using more upper values.  Returns (x*, value)."""
    uv, vv = _point(f.n, u), _point(f.n, v)
    masks = _all_masks(f.n)[::-1]  # all-upper corner first
    _check_box(uv, vv)
    corners = np.where(_mask_bits(masks, f.n), vv[None, :], uv[None, :])
    values = multilinear_batch(f, corners, default_config(f))
    best = int(np.argmax(values))
    return Point(corners[best]), float(values[best])


def compute_bound(alpha: float, theta: float) -> float:
    """Closed-form approximation constant C(alpha, theta) of the two-branch
    trade-off.  C(1/2, 0.18) > 0.372; C(alpha, 0) = 1/e for every alpha."""
    alpha, theta = _unit(alpha, "alpha", ALPHA_MIN), _unit(theta, "theta")
    e_damp = np.exp((1.0 - alpha) * theta - 1.0)
    e_th = np.exp(theta - 1.0)
    num = (1.0 - theta) * e_damp \
        + (e_damp * (alpha * (theta - 2.0) + 1.0) + e_th * (2.0 * alpha - 1.0)) / alpha**2
    den = 2.0 * (1.0 - alpha) * theta * e_th + np.exp(theta)
    return float(num / den)


def best_bound_theta(alpha: float, grid_points: int = 1000):
    """Grid-search the maximizing switch time over 1 to BOUND_GRID_LIMIT
    evenly spaced thetas; returns (theta, bound)."""
    if _number(grid_points, int) is None or not 1 <= grid_points <= BOUND_GRID_LIMIT:
        raise ConfigError(f"grid must hold 1 to {BOUND_GRID_LIMIT} points, "
                          f"got {grid_points}")
    thetas = np.linspace(0.0, 1.0, grid_points)
    vals = [compute_bound(alpha, t) for t in thetas]
    i = int(np.argmax(vals))
    return float(thetas[i]), float(vals[i])


def check_x_or_opt(f: SetFunction, x, S) -> bool:
    """Whether F(x | 1_S) >= (1 - ||x||_inf) f(S) - 1e-10 * max_singleton(f)."""
    xv = _point(f.n, x)
    ind = Point.indicator(f.n, S).v
    joined = np.maximum(xv, ind)
    lhs = multilinear(f, joined, default_config(f))
    rhs = (1.0 - float(xv.max())) * f.value(S)
    return lhs >= rhs - 1e-10 * max_singleton(f)


# ---------------------------------------------------------------------------
# Exhaustive capped-LP oracle (vertex enumeration)


def lp_brute_force(C: Polytope, w, alpha: float) -> float:
    """Optimal value of max{<w,c> : c in C, ||c||_inf <= alpha} by exhaustive
    vertex enumeration, one problem per packing row of ``C.rows``: the rows
    are disjoint, and every vertex of a row's problem has at most one
    coordinate strictly between 0 and alpha.  Exponential; for small n only.
    """
    wv = _point(C.n, w)
    return sum(_lp_single_row(wv[idx], cost, budget, alpha) for idx, cost, budget in C.rows)


def _lp_single_row(w: np.ndarray, cost: np.ndarray, budget: float,
                   alpha: float) -> float:
    n = w.size
    best = 0.0
    for r in range(n + 1):
        for T in combinations(range(n), r):
            T = list(T)
            used = alpha * cost[T].sum()
            if used > budget * (1.0 + 1e-12):
                continue
            base = alpha * w[T].sum()
            best = max(best, base)
            rest = max(budget - used, 0.0)
            for j in range(n):
                if j in T:
                    continue
                cj = min(alpha, rest / cost[j])
                best = max(best, base + cj * w[j])
    return best


# ---------------------------------------------------------------------------
# Reusable property suite (the CLI `verify` surface).  Every tolerance on a
# value of f, F or grad F scales with f, so a check reads the same on f and
# on c * f: 1e-13 * M for M = max_singleton(f) on the identities, the 0/1
# agreement (1e-12 * max |f| past EXACT_ENUM_LIMIT) and the smoothness
# bound, and 1e-10 * M on the rest.


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str = ""

    def line(self) -> str:
        suffix = f"  [{self.detail}]" if self.detail else ""
        return f"{'PASS' if self.passed else 'FAIL'} {self.name}{suffix}"


def calculus_checks(f: SetFunction, rng: np.random.Generator,
                    trials: int = 60) -> list[CheckResult]:
    """Gradient identity (and, for structural families, the analytic
    gradient against it), antitone gradient, directional concavity, the
    one-coordinate linearity identity, smoothness, and the join lower bound,
    on random points of this instance."""
    cfg = default_config(f)
    n = f.n
    M = max_singleton(f)
    out = []

    worst = 0.0
    for _ in range(trials):
        x = rng.random(n)
        g = one_coordinate_gradient(f, x, cfg)
        for i in rng.choice(n, size=min(3, n), replace=False):
            hi = x.copy(); hi[i] = 1.0
            lo = x.copy(); lo[i] = 0.0
            ref = multilinear(f, hi, cfg) - multilinear(f, lo, cfg)
            worst = max(worst, abs(g[i] - ref))
    out.append(CheckResult("gradient one-coordinate identity", worst <= 1e-13 * M,
                           f"worst dev {worst:.2e}"))

    if f.has_closed_form:
        # every coordinate, with some coordinates pinned at exactly 0 or 1;
        # rounding grows with n and |g|, so the tolerance is relative
        worst = 0.0
        for _ in range(trials):
            x = rng.random(n)
            x[rng.random(n) < 0.15] = 0.0
            x[rng.random(n) < 0.15] = 1.0
            ref = one_coordinate_gradient(f, x, cfg)
            dev = np.max(np.abs(gradient(f, x, cfg) - ref))
            worst = max(worst, float(dev) / max(1.0, float(np.max(np.abs(ref)))))
        out.append(CheckResult("closed-form gradient matches one-coordinate identity",
                               worst <= 1e-11, f"worst rel dev {worst:.2e}"))

    worst = np.inf
    for _ in range(trials):
        x = rng.random(n)
        y = x + (1.0 - x) * rng.random(n)
        worst = min(worst, float(np.min(gradient(f, x, cfg) - gradient(f, y, cfg))))
    out.append(CheckResult("gradient antitone in x", worst >= -1e-10 * M,
                           f"worst slack {worst:.2e}"))

    worst = -np.inf
    grid = np.linspace(0.0, 1.0, 52)
    for _ in range(max(4, trials // 10)):
        x = rng.random(n)
        d = (1.0 - x) * rng.random(n)
        vals = multilinear_batch(f, x[None, :] + grid[:, None] * d[None, :], cfg)
        second = vals[:-2] - 2.0 * vals[1:-1] + vals[2:]
        worst = max(worst, float(second.max()))
    out.append(CheckResult("concavity along nonnegative directions",
                           worst <= 1e-10 * M, f"worst 2nd diff {worst:.2e}"))

    worst = 0.0
    for _ in range(trials):
        x = rng.random(n)
        i = int(rng.integers(n))
        step = rng.uniform(-x[i], 1.0 - x[i])
        moved = x.copy(); moved[i] += step
        hi = x.copy(); hi[i] = 1.0
        lo = x.copy(); lo[i] = 0.0
        lhs = multilinear(f, moved, cfg) - multilinear(f, x, cfg)
        rhs = step * (multilinear(f, hi, cfg) - multilinear(f, lo, cfg))
        worst = max(worst, abs(lhs - rhs))
    out.append(CheckResult("one-coordinate linearity identity", worst <= 1e-13 * M,
                           f"worst dev {worst:.2e}"))

    worst = -np.inf
    for _ in range(trials):
        width = rng.uniform(0.0, 0.3)
        u = rng.random(n)
        v = np.minimum(u + width * rng.random(n), 1.0)
        gap = abs(multilinear(f, v, cfg) - multilinear(f, u, cfg)) \
            - width * n * n * M
        worst = max(worst, gap)
    out.append(CheckResult("smoothness |F(v)-F(u)| <= d*n^2*M",
                           worst <= 1e-13 * M, f"worst excess {worst:.2e}"))

    ok = True
    for _ in range(trials):
        S = {i for i in range(n) if rng.random() < 0.5}
        ok &= check_x_or_opt(f, rng.random(n), S)
    out.append(CheckResult("join lower bound F(x|1_S) >= (1-||x||inf) f(S)", ok))
    return out


def extension_checks(f: SetFunction, rng: np.random.Generator) -> list[CheckResult]:
    """Vertex agreement and, for structural families, closed form against
    exact enumeration."""
    out = []
    n = f.n
    M = max_singleton(f)
    cfg = EstimatorConfig(mode="exact") if n <= EXACT_ENUM_LIMIT else default_config(f)
    if n <= 10:
        masks = np.arange(1 << n, dtype=np.int64)
        bits = _mask_bits(masks, n)
    else:
        # random 0/1 rows over all n elements; past bit 62 the masks are
        # Python ints, which every value_batch decodes on its own
        bits = rng.random((256, n)) < 0.5
        masks = bits.astype(object) @ (1 << np.arange(n, dtype=object))
        if n < 63:
            masks = masks.astype(np.int64)
    ext = multilinear_batch(f, bits.astype(float), cfg)
    ref = f.value_batch(masks)
    dev = float(np.max(np.abs(ext - ref)))
    tol = 1e-13 * M
    if n > EXACT_ENUM_LIMIT:
        # the closed form and value_batch sum thousands of terms in
        # different orders, so their rounding grows with max |f|, not M
        tol = 1e-12 * float(np.max(np.abs(ref)))
    out.append(CheckResult("extension agrees with f on 0/1 points",
                           dev <= tol, f"worst dev {dev:.2e}"))
    if f.has_closed_form and n <= 12:
        X = rng.random((100, n))
        dev = float(np.max(np.abs(multilinear_batch(f, X, cfg)
                                  - f.closed_form_batch(X))))
        out.append(CheckResult("closed form matches exact enumeration",
                               dev <= 1e-10 * M, f"worst dev {dev:.2e}"))
    return out


def oracle_checks(C: Polytope, rng: np.random.Generator,
                  trials: int = 50) -> list[CheckResult]:
    """Feasibility, cap obedience, monotone dominance in alpha, and (for
    n <= 6) agreement with the exhaustive LP vertex enumeration."""
    out = []
    n = C.n
    feas_ok = cap_ok = mono_ok = True
    lp_worst = 0.0
    for _ in range(trials):
        w = rng.normal(size=n)
        alpha = float(rng.choice([0.5, 0.7, 1.0]))
        c = C.linear_maximize(w, alpha)
        feas_ok &= C.contains_point(c)
        cap_ok &= c.norm_inf() <= alpha + 1e-12
        v_half = float(w @ C.linear_maximize(w, 0.5).v)
        v_full = float(w @ C.linear_maximize(w).v)
        mono_ok &= v_full >= v_half - 1e-12
        if n <= 6:
            lp_worst = max(lp_worst, abs(float(w @ c.v) - lp_brute_force(C, w, alpha)))
    out.append(CheckResult("oracle output feasible", feas_ok))
    out.append(CheckResult("oracle output obeys the cap", cap_ok))
    out.append(CheckResult("oracle objective monotone in alpha", mono_ok))
    if n <= 6:
        out.append(CheckResult("oracle matches LP vertex enumeration",
                               lp_worst <= 1e-7, f"worst dev {lp_worst:.2e}"))
    # down-closedness probe
    probe_ok = True
    for _ in range(trials):
        x = rng.random(n)
        if C.contains_point(x):
            probe_ok &= C.contains_point(x * rng.random(n))
    out.append(CheckResult("down-closedness probe", probe_ok))
    return out


def dgbox_checks(f: SetFunction, rng: np.random.Generator,
                 boxes: int = 20) -> list[CheckResult]:
    """Guarantee floor, the point inside its box, the submodularity
    consequence a_i + b_i >= 0 and the per-step damage bound on random
    boxes."""
    floor_ok = box_ok = ab_ok = step_ok = True
    worst_floor = np.inf
    cfg = default_config(f)
    tol = 1e-10 * max_singleton(f)
    for _ in range(boxes):
        a = rng.random(f.n)
        b = rng.random(f.n)
        u = Point(np.minimum(a, b))
        v = Point(np.maximum(a, b))
        run = double_greedy_box_run(BoxInstance(f, u, v, cfg))
        ab_ok &= bool(np.all(run.a + run.b >= -tol))
        # the corners after each step are built from (z, u, v), so their
        # nesting is z lying in [u, v]
        z = run.point.v
        box_ok &= bool(np.all(u.v - 1e-12 <= z) and np.all(z <= v.v + 1e-12))
        lowers, uppers = run.lowers, run.uppers
        opt_pt, opt_val = brute_force_box_opt(f, u, v)
        floor = guarantee_floor(multilinear(f, u, cfg), multilinear(f, v, cfg), opt_val)
        got = multilinear(f, run.point, cfg)
        worst_floor = min(worst_floor, got - floor)
        floor_ok &= got >= floor - tol
        # the per-coordinate damage to the clipped optimum never exceeds the
        # average endpoint gain
        opt_prev = np.clip(opt_pt.v, lowers[0], uppers[0])
        fu_prev = multilinear(f, lowers[0], cfg)
        fv_prev = multilinear(f, uppers[0], cfg)
        fo_prev = multilinear(f, opt_prev, cfg)
        for i in range(f.n):
            opt_cur = np.clip(opt_pt.v, lowers[i + 1], uppers[i + 1])
            fu_cur = multilinear(f, lowers[i + 1], cfg)
            fv_cur = multilinear(f, uppers[i + 1], cfg)
            fo_cur = multilinear(f, opt_cur, cfg)
            step_ok &= (fo_prev - fo_cur
                        <= 0.5 * (fu_cur - fu_prev + fv_cur - fv_prev) + tol)
            fu_prev, fv_prev, fo_prev = fu_cur, fv_cur, fo_cur
    return [
        CheckResult("double greedy guarantee floor", floor_ok,
                    f"worst margin {worst_floor:.2e}"),
        CheckResult("double greedy point lies in its box", box_ok),
        CheckResult("double greedy a_i + b_i >= 0", ab_ok),
        CheckResult("double greedy per-step damage bound", step_ok),
    ]


FALLBACK_BOX_LIMIT = 10  # the box optimum enumerates 2^n corners per box


def fallback_box_check(f: SetFunction, report: SolveReport) -> CheckResult:
    """Double greedy's floor F(z) >= 1/2 F(box OPT) + 1/4 F(0) + 1/4 F(p) on
    every distinct fallback box [0, p] of a solve, each (p, z) pair checked
    once, with exact evaluation whatever mode the solve ran in."""
    cfg = default_config(f)
    origin = Point.zeros(f.n)
    f0 = multilinear(f, origin, cfg)
    pairs = {(r.p.v.tobytes(), r.z.v.tobytes()): (r.p, r.z) for r in report.per_theta}
    worst = np.inf
    for p, z in pairs.values():
        _, box_opt = brute_force_box_opt(f, origin, p)
        floor = guarantee_floor(f0, multilinear(f, p, cfg), box_opt)
        worst = min(worst, multilinear(f, z, cfg) - floor)
    return CheckResult("fallback double greedy floor on every distinct box",
                       worst >= -1e-10 * max_singleton(f),
                       f"boxes {len(pairs)}, worst margin {worst:.2e}")


def solver_checks(f: SetFunction, C: Polytope,
                  run: RunConfig | None = None) -> list[CheckResult]:
    """End-to-end run: best-value reproduction, feasibility of the returned
    point, double greedy's floor on each distinct fallback box
    (n <= FALLBACK_BOX_LIMIT), the lower-bound diagnostics, and the
    certified ratio when the instance is small enough to brute force.  The
    l-inf envelopes and the iterates' membership need no line here:
    ``solve`` asserts both at every step and raises ``InvariantError`` at
    the first violation."""
    if run is None:
        run = RunConfig()
    out = []
    opt_val = None
    if f.n <= BRUTE_FORCE_LIMIT:
        _, opt_val = brute_force_opt(f, C)
    report = solve(f, C, run, opt_value=opt_val)
    cfg = run.resolve_cfg(f)
    dev = abs(multilinear(f, report.best, cfg) - report.best_value)
    out.append(CheckResult("best value reproduces on re-evaluation",
                           dev <= 1e-10 * max_singleton(f), f"dev {dev:.2e}"))
    out.append(CheckResult("best point feasible", C.contains_point(report.best)))
    if f.n <= FALLBACK_BOX_LIMIT:
        out.append(fallback_box_check(f, report))
    if report.diagnostics:
        failed = [d for d in report.diagnostics if not d.passed]
        out.append(CheckResult("branch lower bounds hold exactly", not failed,
                               f"{len(failed)} of {len(report.diagnostics)} fail"))
    if opt_val is not None and opt_val > 0 and run.alpha == 0.5 \
            and cfg.mode != "mc":
        ratio = report.best_value / opt_val
        out.append(CheckResult("certified ratio best/OPT >= 0.372",
                               ratio >= 0.372, f"ratio {ratio:.4f}"))
    return out


def property_suite(f: SetFunction, C: Polytope, seed: int = 0,
                   run: RunConfig | None = None) -> list[CheckResult]:
    """The full per-instance battery; any failure should fail a build."""
    rng = np.random.default_rng(seed)
    out = []
    out += extension_checks(f, rng)
    out += calculus_checks(f, rng)
    out += oracle_checks(C, rng)
    if f.n <= 12:
        out += dgbox_checks(f, rng, boxes=8)
    out += solver_checks(f, C, run)
    return out
