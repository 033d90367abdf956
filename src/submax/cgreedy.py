"""Two-stage continuous greedy with an l-inf dampening cap, plus a
double-greedy fallback, swept over the switch time theta.

Stage one grows x from 0 for time theta using the capped oracle
argmax{ <grad F(x) o (1-x), c> : c in C, ||c||_inf <= alpha } and the
multiplicative Euler update x <- x + delta * v o (1-x).  Stage two continues
from x(theta) with the uncapped oracle until time 1, giving the greedy
candidate y(1).  The fallback recomputes the oracle direction at x(theta)
*without* the cap, giving p, and runs double greedy over the box [0, p] to
extract z.  The best candidate over all theta and both branches wins.

The cap slows the growth of ||x||_inf, so the discrete envelopes

    stage one:  1 - x_i(t) >= (1 - delta*alpha)^(t/delta)
    stage two:  1 - y_i(t) >= (1 - delta*alpha)^(theta/delta)
                              * (1 - delta)^((t-theta)/delta)

hold at every step by construction; they are asserted during the run, as is
membership of every iterate in the constraint body, and a violation raises
``InvariantError``.

Every x(theta) lies on the same capped trajectory, so ``solve`` walks stage
one once and branches at each grid theta, computing one gradient per
distinct point.  ``dampened_stage``, ``standard_stage`` and ``dg_branch``
expose the pieces one at a time, with per-step trajectories, over the same
step routine.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, InvariantError
from .dgbox import BoxInstance, double_greedy_box
from .polytope import CapParam, Polytope
from .setfn import (EstimatorConfig, Point, SetFunction, default_config,
                    max_singleton, multilinear, residual_gradient)

ENV_TOL = 1e-12
THETA_TOL = 1e-12


def default_theta_grid() -> tuple[float, ...]:
    """Multiples of 0.02 across [0, 1]; includes the tuned switch time 0.18."""
    return tuple(float(np.round(0.02 * i, 10)) for i in range(51))


@dataclass(frozen=True)
class RunConfig:
    """Parameters of one solver run.

    ``delta`` must divide 1 so the time grid ends exactly at 1, and every
    theta must be a step-count multiple of delta; both are validated here
    rather than discovered as drift mid-run.
    """

    alpha: float = 0.5
    delta: float = 0.005
    theta_grid: tuple[float, ...] | None = None
    cfg: EstimatorConfig | None = None

    def __post_init__(self):
        if not (0.5 <= self.alpha <= 1.0):
            raise ConfigError(f"alpha must lie in [1/2, 1], got {self.alpha}")
        if not (0.0 < self.delta <= 1.0):
            raise ConfigError(f"delta must lie in (0, 1], got {self.delta}")
        if not np.isfinite(1.0 / self.delta):
            raise ConfigError(f"delta {self.delta} is too small: 1/delta overflows")
        total = round(1.0 / self.delta)
        if total < 1 or abs(total * self.delta - 1.0) > 1e-9:
            raise ConfigError(f"delta must divide the unit interval, got {self.delta}")
        if self.theta_grid is None:
            grid = default_theta_grid()
        else:
            grid = tuple(float(t) for t in self.theta_grid)
            if not grid:
                raise ConfigError("theta grid must not be empty")
        if list(grid) != sorted(set(grid)):
            raise ConfigError("theta grid must be strictly ascending")
        for t in grid:
            if not (0.0 <= t <= 1.0):
                raise ConfigError(f"theta {t} outside [0, 1]")
            self.steps_of(t)
        object.__setattr__(self, "theta_grid", grid)

    @property
    def total_steps(self) -> int:
        return round(1.0 / self.delta)

    def steps_of(self, theta: float) -> int:
        k = round(theta / self.delta)
        if not (0.0 <= theta <= 1.0) or abs(theta - k * self.delta) > THETA_TOL:
            raise ConfigError(f"theta {theta} is not a multiple of delta {self.delta}")
        return k

    def resolve_cfg(self, f: SetFunction) -> EstimatorConfig:
        return self.cfg if self.cfg is not None else default_config(f)


@dataclass
class Trajectory:
    """Per-step record of one greedy stage: the time, the point the oracle
    direction was computed at, the direction, and the oracle objective
    <grad F(x) o (1-x), v>."""

    times: list[float] = field(default_factory=list)
    points: list[Point] = field(default_factory=list)
    directions: list[Point] = field(default_factory=list)
    inner_products: list[float] = field(default_factory=list)
    min_envelope_margin: float = np.inf

    def __len__(self) -> int:
        return len(self.times)

    def add(self, time: float, x: np.ndarray, g: np.ndarray, v: Point) -> None:
        self.times.append(time)
        self.points.append(Point.trusted(x))
        self.directions.append(v)
        self.inner_products.append(float(g @ v.v))


def _stage_one_label(run: RunConfig) -> int:
    """MC sub-stream label of stage one's gradients.  Stage two at theta
    labels step j (k_theta, j) with k_theta <= total_steps, so this label
    never collides with it and does not depend on theta."""
    return run.total_steps + 1


def _direction(f: SetFunction, C: Polytope, cfg: EstimatorConfig,
               x: np.ndarray, cap: CapParam, label: int, j: int):
    """The residual gradient at x (in mc mode drawn from sub-stream
    (label, j)) and the oracle direction it selects under ``cap``."""
    cfg_j = cfg.substream(label, j) if cfg.mode == "mc" else cfg
    g = residual_gradient(f, x, cfg_j)
    return g, C.linear_maximize(g, cap)


def _step(C: Polytope, run: RunConfig, x: np.ndarray, v: Point, env: float,
          theta: float, j: int):
    """Euler step j -> j+1, x + delta * v o (1-x).

    Asserts the l-inf envelope 1 - x >= env and membership of the new
    iterate in C; returns the new iterate and its envelope margin.
    """
    x = x + run.delta * v.v * (1.0 - x)
    slack = (1.0 - x) - env
    i = int(np.argmin(slack))
    margin = float(slack[i])
    if margin < -ENV_TOL:
        raise InvariantError("l-inf envelope violated", theta, j + 1, i, margin)
    if not C.contains_point(x):
        raise InvariantError("iterate left the constraint body", theta, j + 1,
                             i, margin)
    return x, margin


def _stage_one(f: SetFunction, C: Polytope, run: RunConfig,
               cfg: EstimatorConfig, thetas):
    """Walk the capped stage once, from 0 to the step of thetas[-1].

    Yields (j, x, g, v, margin) at every step j: the iterate x(j*delta), its
    residual gradient g, the capped oracle direction v there, and the worst
    envelope slack over steps 1..j.  A broken invariant is reported against
    the first of the ascending ``thetas`` whose stage one takes that step.
    """
    cap = CapParam(run.alpha)
    factor = 1.0 - run.delta * run.alpha
    last = run.steps_of(thetas[-1])
    targets = iter(thetas)
    theta = next(targets)
    x, env, margin = np.zeros(f.n), 1.0, np.inf
    for j in range(last + 1):
        g, v = _direction(f, C, cfg, x, cap, _stage_one_label(run), j)
        yield j, x, g, v, margin
        if j == last:
            return
        while run.steps_of(theta) <= j:
            theta = next(targets)
        env *= factor
        x, step_margin = _step(C, run, x, v, env, theta, j)
        margin = min(margin, step_margin)


def _stage_two(f: SetFunction, C: Polytope, run: RunConfig,
               cfg: EstimatorConfig, x: np.ndarray, theta: float,
               g: np.ndarray | None, v: Point | None):
    """Walk the uncapped stage from x = x(theta) to time 1.

    (g, v) are the residual gradient and the uncapped oracle direction at
    x(theta), which the first step reuses; every later point gets a fresh
    gradient.  Yields (j, x, g, v, margin) before each step j, then
    (total_steps, y(1), None, None, margin), where margin is the worst
    envelope slack so far.
    """
    k = run.steps_of(theta)
    cap = CapParam(1.0)
    env = (1.0 - run.delta * run.alpha) ** k
    margin = np.inf
    for j in range(k, run.total_steps):
        if j > k:
            g, v = _direction(f, C, cfg, x, cap, k, j)
        yield j, x, g, v, margin
        env *= 1.0 - run.delta
        x, step_margin = _step(C, run, x, v, env, theta, j)
        margin = min(margin, step_margin)
    yield run.total_steps, x, None, None, margin


def _fallback(f: SetFunction, C: Polytope, cfg: EstimatorConfig,
              g: np.ndarray):
    """The fallback pair (p, z) from the residual gradient g at x(theta)."""
    p = C.linear_maximize(g, CapParam(1.0))
    box_cfg = cfg if cfg.mode != "mc" else default_config(f)
    z = double_greedy_box(BoxInstance(f, Point.zeros(f.n), p, box_cfg))
    return p, z


def dampened_stage(f: SetFunction, C: Polytope, run: RunConfig, theta: float):
    """Run the capped stage from 0 to time theta.

    Returns (x_theta, v_theta, trajectory) where v_theta is the capped oracle
    direction computed at the final point; the fallback branch bound needs it
    even though it is never applied as an update.
    """
    k = run.steps_of(theta)
    traj = Trajectory()
    for j, x, g, v, margin in _stage_one(f, C, run, run.resolve_cfg(f), (theta,)):
        if j < k:
            traj.add(j * run.delta, x, g, v)
    traj.min_envelope_margin = margin
    return Point(x), v, traj


def standard_stage(f: SetFunction, C: Polytope, run: RunConfig,
                   start: Point, theta: float):
    """Continue uncapped from x(theta) until time 1; returns (y1, trajectory)."""
    k = run.steps_of(theta)
    cfg = run.resolve_cfg(f)
    g = v = None
    if k < run.total_steps:
        g, v = _direction(f, C, cfg, start.v, CapParam(1.0),
                          _stage_one_label(run), k)
    traj = Trajectory()
    for j, y, g_j, v_j, margin in _stage_two(f, C, run, cfg, start.v, theta, g, v):
        if v_j is not None:
            traj.add(j * run.delta, y, g_j, v_j)
    traj.min_envelope_margin = margin
    return Point(y), traj


def dg_branch(f: SetFunction, C: Polytope, x_theta: Point,
              cfg: EstimatorConfig | None = None):
    """The fallback pair (p, z): p is the *uncapped* oracle direction at the
    capped-stage point (this asymmetry is deliberate), and z is the double
    greedy solution over the box [0, p].  z <= p, so z is feasible by
    down-closedness."""
    if cfg is None:
        cfg = default_config(f)
    return _fallback(f, C, cfg, residual_gradient(f, x_theta, cfg))


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
    dampened_margin: float  # worst slack of the stage-one envelope
    standard_margin: float


@dataclass(frozen=True)
class DiagnosticRecord:
    """One lower-bound check.  ``passed`` allows the discretization slack
    2*delta*n^3*M; ``passed_strict`` allows none."""

    name: str
    theta: float
    value: float
    bound: float
    slack: float

    @property
    def passed(self) -> bool:
        return self.value >= self.bound - self.slack

    @property
    def passed_strict(self) -> bool:
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
                      opt_value: float, scale_m: float, n: int) -> list[DiagnosticRecord]:
    """Per-theta lower bounds on both branches, given the true optimum.

    greedy branch:    F(y1) >= e^(theta-1) * ((1-theta) e^(-alpha theta) OPT
                                              + F(x_theta))
    fallback branch:  F(z)  >= (e^(-alpha theta) OPT - F(x_theta)
                                - <grad o (1-x), v_theta>) / (2 (1-alpha))

    Both are continuous-time statements; the discrete run earns them only up
    to a discretization error, covered by the slack 2*delta*n^3*M.
    """
    slack = 2.0 * run.delta * n**3 * scale_m
    a = run.alpha
    out = []
    for r in results:
        th = r.theta
        cg_bound = np.exp(th - 1.0) * ((1.0 - th) * np.exp(-a * th) * opt_value
                                       + r.x_value)
        out.append(DiagnosticRecord("greedy-stage-bound", th, r.y1_value,
                                    float(cg_bound), slack))
        if a < 1.0:
            dg_bound = (np.exp(-a * th) * opt_value - r.x_value - r.final_inner) \
                / (2.0 * (1.0 - a))
            out.append(DiagnosticRecord("fallback-stage-bound", th, r.z_value,
                                        float(dg_bound), slack))
    return out


def _theta_result(f: SetFunction, C: Polytope, run: RunConfig,
                  cfg: EstimatorConfig, theta: float, x: np.ndarray,
                  g: np.ndarray, v_theta: Point, dampened_margin: float
                  ) -> ThetaResult:
    """Both branches at x(theta), from stage one's gradient g there and the
    capped direction v_theta it selected."""
    x_theta = Point(x)
    p, z = _fallback(f, C, cfg, g)
    for _, y, _, _, standard_margin in _stage_two(f, C, run, cfg, x_theta.v,
                                                  theta, g, p):
        pass
    y1 = Point(y)
    k = run.steps_of(theta)
    return ThetaResult(
        theta=theta, x_theta=x_theta, x_value=multilinear(f, x_theta, cfg),
        y1=y1, y1_value=multilinear(f, y1, cfg),
        p=p, z=z, z_value=multilinear(f, z, cfg),
        final_inner=float(g @ v_theta.v),
        dampened_steps=k, standard_steps=run.total_steps - k,
        dampened_margin=dampened_margin, standard_margin=standard_margin)


def solve(f: SetFunction, C: Polytope, run: RunConfig | None = None,
          opt_value: float | None = None) -> SolveReport:
    """Sweep the theta grid, run both branches, and keep the best candidate.

    Every x(theta) lies on one capped trajectory, so stage one is walked
    once, up to the largest theta, with one gradient per step.  At each grid
    theta that gradient also gives v_theta, the fallback direction p, and
    stage two's first direction; stage two then takes a fresh gradient only
    at each new point.

    When the true integral optimum is supplied (desk-scale instances), the
    per-theta lower-bound diagnostics are evaluated and attached; they are
    recorded, not enforced.
    """
    if run is None:
        run = RunConfig()
    cfg = run.resolve_cfg(f)
    per_theta: list[ThetaResult] = []
    thetas = iter(run.theta_grid)
    theta = next(thetas, None)
    for j, x, g, v, margin in _stage_one(f, C, run, cfg, run.theta_grid):
        while theta is not None and run.steps_of(theta) == j:
            per_theta.append(_theta_result(f, C, run, cfg, theta, x, g, v, margin))
            theta = next(thetas, None)
    best = Point.zeros(f.n)
    best_value = multilinear(f, best, cfg)
    best_theta: float | None = None
    best_branch = "origin"
    for r in per_theta:
        if r.y1_value > best_value:
            best, best_value, best_theta, best_branch = r.y1, r.y1_value, r.theta, "greedy"
        if r.z_value > best_value:
            best, best_value, best_theta, best_branch = r.z, r.z_value, r.theta, "double-greedy"
    report = SolveReport(best, best_value, best_theta, best_branch, per_theta)
    if opt_value is not None:
        report.diagnostics = bound_diagnostics(run, per_theta, opt_value,
                                               max_singleton(f), f.n)
    return report
