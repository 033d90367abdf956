"""Shared builders, independent desk-scale oracles and the solver's
per-theta reference for the test suite.

The oracles here intentionally avoid the library's vectorized paths: the
extension is summed subset by subset in plain Python, so agreement with the
fast implementations is evidence, not circularity.  The per-theta reference
(``dampened_stage``, ``standard_stage``, ``dg_branch``) runs one theta at a
time, one point at a time, through the public one-point calls and the
solver's own step routine, recording every step in a ``Trajectory``; the
tests hold ``solve``'s single sweep to it byte for byte.
"""

from dataclasses import dataclass, field

import numpy as np

import submax as sm
from submax import Point, cgreedy


def brute_force_extension(f, x):
    """F(x) by direct summation over all subsets (independent oracle)."""
    n = f.n
    total = 0.0
    for mask in range(1 << n):
        p = 1.0
        for i in range(n):
            p *= x[i] if (mask >> i) & 1 else (1.0 - x[i])
        total += p * f.value(mask)
    return total


def random_cut(rng, n, p=0.4):
    if n == 1:
        return sm.DirectedCut(1, [])  # no arc fits on one element
    while True:
        keep = rng.random((n, n)) < p
        np.fill_diagonal(keep, False)
        pairs = np.argwhere(keep)
        if pairs.size:
            break
    return sm.DirectedCut(n, [(int(a), int(b), float(1.0 - rng.random()))
                              for a, b in pairs])


def random_coverage(rng, n, m=None):
    m = m or 2 * n
    while True:
        inc = rng.random((n, m)) < 0.3
        if inc.any():
            break
    covers = [np.nonzero(inc[i])[0].tolist() for i in range(n)]
    return sm.Coverage(n, covers, (1.0 - rng.random(m)).tolist())


def random_table_function(rng, n):
    """Nonnegative submodular by construction: cut plus coverage mixture."""
    table = random_cut(rng, n).full_table() + random_coverage(rng, n).full_table()
    return sm.ExplicitTable(n, table)


def random_function(rng, n):
    k = int(rng.integers(3))
    if k == 0:
        return random_cut(rng, n)
    if k == 1:
        return random_coverage(rng, n)
    return random_table_function(rng, n)


def random_constraint(rng, n):
    k = int(rng.integers(3))
    if k == 0:
        return sm.CardinalityPolytope(n, int(rng.integers(1, max(2, n // 2) + 1)))
    if k == 1:
        half = n // 2
        blocks = [list(range(half)), list(range(half, n))]
        budgets = [int(rng.integers(1, half + 1)), int(rng.integers(1, n - half + 1))]
        return sm.PartitionMatroidPolytope(n, blocks, budgets)
    costs = 0.5 + rng.random(n)
    return sm.KnapsackPolytope(n, costs, float(rng.uniform(0.3, 0.7) * costs.sum()))


def random_box(rng, n):
    a = rng.random(n)
    b = rng.random(n)
    return sm.Point(np.minimum(a, b)), sm.Point(np.maximum(a, b))


def fill(C, W, caps):
    """The capped greedy fill of every row of the weight batch W as the
    solver's loop runs it: a plan for the caps (one for every row, or one
    per row), then the fill kernel ``Polytope._greedy_fill``."""
    return C._greedy_fill(W, C._plan(np.full(len(W), caps, dtype=float)))


def reference_greedy_fill(C, W, alpha):
    """The capped greedy fill of a weight batch W, one cap per row, as a walk
    over each packing row of ``C.rows`` that writes each fill into its
    output row as it goes: the path ``Polytope._greedy_fill`` must match
    byte for byte.  Each packing row is sorted on its own, positive weights
    first, then by w/cost descending as exact (exponent, mantissa) keys,
    ties to the lower index."""
    out = np.zeros_like(W)
    for row, a, w in zip(out, alpha.tolist(), W):
        for idx, cost, remaining in C.rows:
            wr = w[idx]
            (mw, ew), (mc, ec) = np.frexp(wr), np.frexp(cost)
            m, e = np.frexp(mw / -mc)
            order = np.lexsort((m, np.where(wr > 0, ec - ew - e, 1 << 20)))
            for wi, ci, i in zip(wr[order].tolist(), cost[order].tolist(),
                                 idx[order].tolist()):
                if remaining <= 0 or wi <= 0:
                    break
                row[i] = fill = min(a, remaining / ci)
                remaining -= fill * ci
    return out


def reference_coverage_grad(f, x):
    """The coverage gradient as dense (rows, n, m) blocks of leave-one-out
    products down the incidence matrix, in chunks of rows: the values
    ``Coverage.closed_form_grad`` must match to a stated relative tolerance,
    with the same zeros."""
    X = np.atleast_2d(x)
    G = np.empty(X.shape)
    inc = f.incidence.T
    rows = max(1, (1 << 14) // max(1, inc.size))
    for lo in range(0, len(X), rows):
        miss = np.where(inc, 1.0 - X[lo:lo + rows, :, None], 1.0)
        loo = np.empty_like(miss)
        loo[:, 0] = 1.0
        np.cumprod(miss[:, :-1], axis=1, out=loo[:, 1:])
        loo[:, :-1] *= np.cumprod(miss[:, :0:-1], axis=1)[:, ::-1]
        loo *= inc
        G[lo:lo + rows] = loo @ f.item_weights
    return G.reshape(np.shape(x))


def reference_coverage_partial(f, i, X):
    """dF/dx_i of coverage down the dense incidence columns of i's items."""
    inc = f.incidence.T
    items = np.flatnonzero(inc[i])
    miss = 1.0 - X
    miss[:, i] = 1.0
    surv = np.prod(np.where(inc[:, items], miss[:, :, None], 1.0), axis=1)
    return surv @ f.item_weights[items]


def reference_coverage_batch(f, X):
    """The coverage extension at every row of X, each survival product taken
    down the dense incidence matrix, in chunks of rows."""
    out = np.empty(X.shape[0], dtype=float)
    inc = f.incidence.T
    rows = max(1, (1 << 21) // max(1, inc.size))
    for lo in range(0, X.shape[0], rows):
        miss = 1.0 - X[lo:lo + rows]
        surv = np.prod(np.where(inc[None, :, :], miss[:, :, None], 1.0), axis=1)
        out[lo:lo + rows] = (1.0 - surv) @ f.item_weights
    return out


def _reference_bits(masks, n):
    return (masks[:, None] >> np.arange(n)[None, :]) & 1 != 0


def reference_cut_values(f, masks):
    """The cut value of every mask as one product over the whole batch, in
    the int64 shift form: the bytes ``DirectedCut.value_batch`` must keep."""
    in_src = (masks[:, None] >> f.src[None, :]) & 1
    in_dst = (masks[:, None] >> f.dst[None, :]) & 1
    return (in_src * (1 - in_dst)).astype(float) @ f.w


def reference_coverage_values(f, masks):
    """The coverage value of every mask as one product over the whole batch:
    the bytes ``Coverage.value_batch`` must keep."""
    covered = _reference_bits(masks, f.n).astype(float) @ f.incidence.T > 0
    return covered @ f.item_weights


def reference_contains(C, masks):
    """The membership of every mask in one pass over the whole batch, for a
    cardinality, partition-matroid or knapsack body: the answers its
    ``contains_mask_batch`` must keep."""
    bits = _reference_bits(masks, C.n)
    tol = sm.polytope.FEAS_TOL
    if C.kind == "cardinality":
        return bits.sum(axis=1) <= C.k + tol
    if C.kind == "knapsack":
        return bits.astype(float) @ C.costs <= C.budget + tol
    ok = np.ones(masks.shape, dtype=bool)
    for b, kb in zip(C.blocks, C.budgets):
        ok &= bits[:, b].sum(axis=1) <= kb + tol
    return ok


def residual_gradient(f, x, cfg=None):
    """gradient(f, x) * (1 - x) at the one point x, the effective gain
    direction under the multiplicative update."""
    xv = sm.setfn.as_array(x)
    return sm.gradient(f, xv, cfg) * (1.0 - xv)


@dataclass
class Trajectory:
    """Per-step record of one greedy stage: the time, the point the oracle
    direction was computed at, the direction, and the oracle objective
    <grad F(x) o (1-x), v>."""

    times: list = field(default_factory=list)
    points: list = field(default_factory=list)
    directions: list = field(default_factory=list)
    inner_products: list = field(default_factory=list)

    def __len__(self):
        return len(self.times)

    def add(self, time, x, g, v):
        self.times.append(time)
        self.points.append(Point.trusted(x))
        self.directions.append(v)
        self.inner_products.append(float(g @ v.v))


def _direction(f, C, cfg, x, alpha, j):
    """The residual gradient at the one point x at step j and the oracle
    direction it selects under the cap ``alpha``."""
    g = residual_gradient(f, x, cfg.substream(j) if cfg.mode == "mc" else cfg)
    return g, C.linear_maximize(g, alpha)


def _stage(f, C, run, theta, x, first, last, alpha, env):
    """Steps first..last-1 of one greedy stage from the one point x, whose
    complement starts at 1 - x and its envelope at ``env``: the R = 1 case
    of the sweep.  Returns the final point and the trajectory."""
    cfg = run.resolve_cfg(f)
    shrink = 1.0 - run.delta * alpha
    s = 1.0 - x
    traj = Trajectory()
    for j in range(first, last):
        g, v = _direction(f, C, cfg, x, alpha, j)
        traj.add(j * run.delta, x, g, v)
        env *= shrink
        x = cgreedy._step(C, run, s[None], v.v[None], np.array([env]),
                          lambda r: theta, j)[0]
    return x, traj


def dampened_stage(f, C, run, theta):
    """Run the capped stage from 0 to time theta.

    Returns (x_theta, v_theta, trajectory) where v_theta is the capped oracle
    direction computed at the final point; the fallback branch bound needs it
    even though it is never applied as an update.
    """
    k = run.steps_of(theta)
    x, traj = _stage(f, C, run, theta, np.zeros(f.n), 0, k, run.alpha, 1.0)
    _, v = _direction(f, C, run.resolve_cfg(f), x, run.alpha, k)
    return Point(x), v, traj


def standard_stage(f, C, run, start, theta):
    """Continue uncapped from x(theta) until time 1; returns (y1, trajectory)."""
    k, env = run.steps_of(theta), 1.0
    for _ in range(k):  # stage one's envelope, as the sweep multiplies it down
        env *= 1.0 - run.delta * run.alpha
    y, traj = _stage(f, C, run, theta, start.v, k, run.total_steps, 1.0,
                     1.0 - (1.0 - env))
    return Point(y), traj


def dg_branch(f, C, x_theta, cfg=None):
    """The fallback pair (p, z): p is the *uncapped* oracle direction at the
    capped-stage point (this asymmetry is deliberate), and z is the double
    greedy solution over the box [0, p].  z <= p, so z is feasible by
    down-closedness."""
    if cfg is None:
        cfg = sm.default_config(f)
    p = C.linear_maximize(residual_gradient(f, x_theta, cfg))
    return p, cgreedy._fallback(f, cfg, p)
