"""Two-stage continuous greedy with an l-inf dampening cap, plus a
double-greedy fallback, swept over the switch time theta.

Stage one grows x from 0 for time theta using the capped oracle
argmax{ <grad F(x) o (1-x), c> : c in C, ||c||_inf <= alpha } and the
multiplicative Euler update x <- x + delta * v o (1-x), stepped on the
complement s = 1 - x as s <- s o (1 - delta*v).  Stage two continues
from x(theta) with the uncapped oracle until time 1, giving the greedy
candidate y(1).  The fallback recomputes the oracle direction at x(theta)
*without* the cap, giving p, and runs double greedy over the box [0, p] to
extract z.  For a monotone family (``SetFunction.monotone``, so coverage)
every partial is nonnegative, so the double greedy's clipped gain b'_i is 0
at every coordinate and it would return p: the fallback is p itself, and
the double greedy is not run.  The best candidate over all theta and both
branches wins; one that beats another by no more than ``TIE_RTOL`` of its
value ties with it, and the first in grid order, greedy before double
greedy, keeps the place.
Thetas that switch into the same box share its z: a solve runs the
fallback, and evaluates F(z), once per distinct p.

The cap slows the growth of ||x||_inf, so the discrete envelopes

    stage one:  1 - x_i(t) >= (1 - delta*alpha)^(t/delta)
    stage two:  1 - y_i(t) >= (1 - delta*alpha)^(theta/delta)
                              * (1 - delta)^((t-theta)/delta)

hold at every step by construction.  They are asserted exactly, as s >= env
for env the running product of the factors (1 - delta*cap): rounding is
monotone and the oracle gives v <= cap exactly, so each step keeps s >= env.
A violation, or an iterate outside the constraint body, raises
``InvariantError`` naming the row's theta, step, coordinate and margin.

``solve`` is one pass over the time axis.  Every x(theta) lies on the same
capped trajectory, and every stage two runs on the same time grid, so at
global step j the stage-one iterate (up to the largest theta's step) and the
stage-two iterate of every theta that switched before j are the rows of one
(R, n) batch.  Each step takes one gradient of the batch (one row per
distinct point), one oracle fill with a cap per row (alpha for stage one, 1
for stage two), and one Euler step that checks every row; in mc mode the
rows of step j draw from the one sub-stream (j,).  These kernels answer
each row as the one-point calls answer it, bit for bit, so every theta's
result equals a run of that theta alone: stage one from 0, stage two from
x(theta) and the fallback at x(theta), each one point at a time.  The tests
hold ``solve`` to such a per-theta reference, byte for byte.

The loop runs kernels on arrays it built, not the public calls that check
their inputs: the family's gradient kernel (``closed_form_grad`` in closed
mode), the oracle's fill from a plan, and the body's membership kernel.
What does not change from step to step is checked or built once per solve:
the run's numbers by ``RunConfig``, the body's size against the
function's, the oracle's plans, which depend only on the batch's shape,
and buffers of the largest batch, which hold the rows.  What changes is
checked at every step, on every row: the weights are finite (in the
fill), s >= env, the box and every packing-row sum.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, InvariantError
from .dgbox import BoxInstance, double_greedy_box
from .polytope import Polytope
from .setfn import (ALPHA_MIN, EstimatorConfig, Point, SetFunction, _real, _unit,
                    default_config, multilinear, one_coordinate_gradient)

THETA_TOL = 1e-12
# a candidate replaces the best so far only when it is larger by more than
# this share of it: candidates equal up to rounding tie, at any scale of f,
# and the tie goes to the smallest theta, then to the greedy branch
TIE_RTOL = 1e-12
STEP_LIMIT = 10_000  # Euler steps per run, so delta >= 1e-4


def default_theta_grid() -> tuple[float, ...]:
    """Multiples of 0.02 across [0, 1]; includes the tuned switch time 0.18."""
    return tuple(float(np.round(0.02 * i, 10)) for i in range(51))


@dataclass(frozen=True)
class RunConfig:
    """Parameters of one solver run.

    ``delta`` must divide 1 so the time grid ends exactly at 1, in at most
    ``STEP_LIMIT`` steps, and every theta must be a step-count multiple of
    delta; all are validated here rather than discovered mid-run.  Without
    a grid the run takes the thetas of ``default_theta_grid()`` that are
    multiples of delta.
    """

    alpha: float = 0.5
    delta: float = 0.005
    theta_grid: tuple[float, ...] | None = None
    cfg: EstimatorConfig | None = None

    def __post_init__(self):
        object.__setattr__(self, "alpha", _unit(self.alpha, "alpha", ALPHA_MIN))
        object.__setattr__(self, "delta", _real(self.delta, "delta"))
        if not (0.0 < self.delta <= 1.0):
            raise ConfigError(f"delta must lie in (0, 1], got {self.delta}")
        if not 1.0 / self.delta < STEP_LIMIT + 0.5:
            raise ConfigError(f"delta {self.delta:g} is too small: a run takes at "
                              f"most {STEP_LIMIT} steps (delta >= {1 / STEP_LIMIT:g})")
        total = round(1.0 / self.delta)
        if total < 1 or abs(total * self.delta - 1.0) > 1e-9:
            raise ConfigError(f"delta must divide the unit interval, got {self.delta}")
        if self.theta_grid is None:
            grid = tuple(t for t in default_theta_grid() if self._on_grid(t))
        else:
            try:
                grid = tuple(_unit(t, "theta") for t in self.theta_grid)
            except TypeError:
                raise ConfigError("theta grid must be a sequence of numbers, got "
                                  f"{self.theta_grid!r}") from None
            if not grid:
                raise ConfigError("theta grid must not be empty")
        if list(grid) != sorted(set(grid)):
            raise ConfigError("theta grid must be strictly ascending")
        for t in grid:
            self.steps_of(t)
        object.__setattr__(self, "theta_grid", grid)

    @property
    def total_steps(self) -> int:
        return round(1.0 / self.delta)

    def _on_grid(self, theta: float) -> bool:
        return 0.0 <= theta <= 1.0 \
            and abs(theta - round(theta / self.delta) * self.delta) <= THETA_TOL

    def steps_of(self, theta: float) -> int:
        if not self._on_grid(theta):
            raise ConfigError(f"theta {theta} is not a multiple of delta {self.delta}")
        return round(theta / self.delta)

    def resolve_cfg(self, f: SetFunction) -> EstimatorConfig:
        return self.cfg if self.cfg is not None else default_config(f)


def _step(C: Polytope, run: RunConfig, S: np.ndarray, V: np.ndarray,
          env: np.ndarray, theta_of: Callable[[int], float], j: int) -> np.ndarray:
    """Euler step j -> j+1 of every row, on its complement, in place:
    S <- S o (1 - delta*V).

    Asserts each row's l-inf envelope min(s) >= env[r], with no tolerance,
    and membership of every new iterate X = 1 - S in C, reporting a
    violation in row r against theta_of(r) with the worst coordinate and
    slack of s - env[r]; returns the new iterates.
    """
    S *= 1.0 - run.delta * V
    what, bad = "l-inf envelope violated", S.min(axis=1) < env
    if not bad.any():
        X = 1.0 - S
        what, bad = "iterate left the constraint body", ~C._inside(X)
        if not bad.any():
            return X
    r = int(np.argmax(bad))  # the first row in violation
    slack = S[r] - env[r]
    raise InvariantError(what, theta_of(r), j + 1, int(np.argmin(slack)),
                         float(slack.min()))


def _fallback(f: SetFunction, cfg: EstimatorConfig, p: Point) -> Point:
    """The double greedy solution z over the box [0, p]; for a monotone
    family, p itself.

    Monotone F has dF/dx_i >= 0 everywhere, so the double greedy's
    b_i = -(p_i - 0) * dF/dx_i(hi) <= 0 and b'_i = max(b_i, 0) = 0: each
    coordinate moves to hi_i = p_i, and z = p.  In closed mode this holds
    byte for byte, as ``Coverage.closed_form_partial`` sums nonnegative
    terms.  In exact mode rounding in the four extension rows could leave a
    coordinate a hair below p_i; returning p then can only raise F, since F
    is monotone and p is the box's top corner, so F(p) is the box optimum."""
    if f.monotone:
        return p
    box_cfg = cfg if cfg.mode != "mc" else default_config(f)
    return double_greedy_box(BoxInstance(f, Point.zeros(f.n), p, box_cfg))


@dataclass
class ThetaResult:
    theta: float
    x_theta: Point
    x_value: float
    y1: Point
    y1_value: float
    p: Point
    z: Point
    z_value: float
    final_inner: float      # <grad F(x_theta) o (1-x_theta), v_theta>
    dampened_steps: int
    standard_steps: int


@dataclass(frozen=True)
class DiagnosticRecord:
    """One branch lower-bound check, held exactly: ``passed`` is
    value >= bound, with no allowance for the discrete run."""

    name: str
    theta: float
    value: float
    bound: float

    @property
    def passed(self) -> bool:
        return self.value >= self.bound


@dataclass
class SolveReport:
    best: Point
    best_value: float
    best_theta: float | None
    best_branch: str
    per_theta: list[ThetaResult]
    diagnostics: list[DiagnosticRecord] = field(default_factory=list)


def bound_diagnostics(run: RunConfig, results: list[ThetaResult],
                      opt_value: float) -> list[DiagnosticRecord]:
    """Per-theta lower bounds on both branches, given the true optimum.

    greedy branch:    F(y1) >= e^(theta-1) * ((1-theta) e^(-alpha theta) OPT
                                              + F(x_theta))
    fallback branch:  F(z)  >= (e^(-alpha theta) OPT - F(x_theta)
                                - <grad o (1-x), v_theta>) / (2 (1-alpha))

    Both are continuous-time statements.  The discrete run is held to them
    with no allowance for its discretization: a bound that fails is a
    finding about the run, not a tolerance to widen.
    """
    a = run.alpha
    out = []
    for r in results:
        th = r.theta
        cg_bound = np.exp(th - 1.0) * ((1.0 - th) * np.exp(-a * th) * opt_value
                                       + r.x_value)
        out.append(DiagnosticRecord("greedy-stage-bound", th, r.y1_value,
                                    float(cg_bound)))
        if a < 1.0:
            dg_bound = (np.exp(-a * th) * opt_value - r.x_value - r.final_inner) \
                / (2.0 * (1.0 - a))
            out.append(DiagnosticRecord("fallback-stage-bound", th, r.z_value,
                                        float(dg_bound)))
    return out


def solve(f: SetFunction, C: Polytope, run: RunConfig | None = None,
          opt_value: float | None = None) -> SolveReport:
    """Sweep the theta grid in one pass over the time axis, run both
    branches, and keep the best candidate.

    At global step j the batch holds stage one's iterate x(j*delta), while
    j is at most the largest theta's step, and the stage-two iterate of
    every theta whose step k_theta is below j.  At j = k_theta stage one's
    gradient also gives v_theta, the fallback direction p and stage two's
    first direction, so every distinct point gets one gradient row.  The
    fallback runs once per distinct box [0, p]: the solve keeps (p, z, F(z))
    by p's bytes, for itself only, and thetas whose p repeats an earlier
    box take that box's z and value.

    Every step asserts each row's l-inf envelope and membership in C
    (``_step``), so a solve that returns held both exactly at every step;
    the report keeps no record of the slack.

    When the true integral optimum is supplied (desk-scale instances), the
    per-theta lower-bound diagnostics are evaluated and attached; ``solve``
    records them, and ``verify.solver_checks`` requires every one to hold.
    """
    if run is None:
        run = RunConfig()
    if C.n != f.n:
        raise ValueError(f"the function has {f.n} elements but the body "
                         f"{C.n} coordinates")
    cfg = run.resolve_cfg(f)
    T, grid = run.total_steps, run.theta_grid
    steps = [run.steps_of(t) for t in grid]
    K = steps[-1]
    mc = cfg.mode == "mc"
    # the batch: stage one's complement s = 1 - x in row 0 up to step K,
    # then the stage-two complement of every theta switched so far, in grid
    # order, and their points X = 1 - S; per row its envelope and the
    # envelope's factor per step.  The batch never holds more than stage
    # one's row and one row per theta, so each of these lives in rows
    # lo..hi-1 of a buffer of that many rows, and a switching theta fills
    # the next free rows: buffer row b >= 1 is theta grid[b-1]'s.
    top, n = len(grid) + 1, f.n
    S_rows, env_rows = np.ones((top, n)), np.ones(top)
    shrink = np.full(top, 1.0 - run.delta)
    shrink[0] = 1.0 - run.delta * run.alpha
    G_rows = np.empty((top, n))  # the step's oracle weights
    lo, hi, X = 0, 1, np.zeros((1, n))
    branch = []  # per theta: x_theta, g and v_theta there, its box
    boxes = {}   # per distinct box [0, p], keyed by p's bytes: (p, z, F(z))
    nxt = 0      # the first theta not switched yet

    def theta_of(r):  # batch row r's theta; stage one's is the next to switch
        return grid[lo + r - 1] if lo + r else grid[nxt]

    # the oracle's plans: each step's plan is the first rows of one of two
    # built here, with row 0 capped at alpha while it is stage one's and
    # every other row's cap 1
    capped = C._plan(np.concatenate([[run.alpha], np.ones(top - 1)]))
    free = C._plan(np.ones(top))
    shape, plan = None, None
    for j in range(T + 1):
        if j == T and K < T:
            break
        # at step T only stage one's last point, when theta 1 is on the grid;
        # in mc mode every row of step j draws from the one sub-stream (j,)
        Xj = X if j < T else X[:1]
        if cfg.mode == "closed":
            grad = f.closed_form_grad(Xj)
        else:
            grad = one_coordinate_gradient(f, Xj, cfg.substream(j) if mc else cfg)
        first = nxt
        while nxt < len(grid) and steps[nxt] == j:
            nxt += 1
        new, R = nxt - first, len(grad)
        G = G_rows[:R + new]
        np.multiply(grad, 1.0 - Xj, out=G[:R])
        if new:
            # thetas switch at x(j): stage one's gradient there also gives,
            # uncapped, p, their fallback and stage two's first direction,
            # so each switching theta takes a copy of row 0 with cap 1
            G[R:] = G[0]
        if shape != (len(G), j <= K):
            shape = (len(G), j <= K)
            plan = (capped if j <= K else free).head(len(G))
        D = C._greedy_fill(G, plan)
        if new:
            v, key = Point.trusted(D[0].copy()), D[R].tobytes()
            if key not in boxes:
                p = Point.trusted(D[R].copy())
                z = _fallback(f, cfg, p)
                boxes[key] = (p, z, multilinear(f, z, cfg))
            for _ in range(first, nxt):
                branch.append((Point.trusted(X[0].copy()), G[0].copy(), v, boxes[key]))
            if j < T:  # their stage-two rows, whose first directions are p;
                # s and env both pass through t -> 1 - t, which is monotone
                S_rows[hi:hi + new] = 1.0 - X[0]
                env_rows[hi:hi + new] = 1.0 - (1.0 - env_rows[0])
                hi += new
        if j == T:
            break
        if j == K:  # stage one ends at the last theta
            lo, D = 1, D[1:]
        env = env_rows[lo:hi]
        np.multiply(env, shrink[lo:hi], out=env)
        X = _step(C, run, S_rows[lo:hi], D, env, theta_of, j)
    per_theta = []
    rows = iter(X[len(X) - sum(k < T for k in steps):])
    for theta, k, (x_theta, g, v, (p, z, z_value)) in zip(grid, steps, branch):
        y1 = Point(next(rows) if k < T else x_theta.v)
        per_theta.append(ThetaResult(
            theta=theta, x_theta=x_theta, x_value=multilinear(f, x_theta, cfg),
            y1=y1, y1_value=multilinear(f, y1, cfg), p=p, z=z, z_value=z_value,
            final_inner=float(g @ v.v),
            dampened_steps=k, standard_steps=T - k))
    best = Point.zeros(f.n)
    best_value = multilinear(f, best, cfg)
    best_theta: float | None = None
    best_branch = "origin"
    for r in per_theta:
        if r.y1_value - best_value > TIE_RTOL * abs(best_value):
            best, best_value, best_theta, best_branch = r.y1, r.y1_value, r.theta, "greedy"
        if r.z_value - best_value > TIE_RTOL * abs(best_value):
            best, best_value, best_theta, best_branch = r.z, r.z_value, r.theta, "double-greedy"
    report = SolveReport(best, best_value, best_theta, best_branch, per_theta)
    if opt_value is not None:
        report.diagnostics = bound_diagnostics(run, per_theta, opt_value)
    return report
