"""Double greedy for maximizing the multilinear extension over a box [u, v].

The box is narrowed one coordinate per iteration.  At coordinate i the two
candidate moves are scored with exact partial derivatives of F,

    a_i =  (v_i - u_i) * dF/dx_i(lo) = (v_i - u_i) * (F(lo, x_i=1) - F(lo, x_i=0))
    b_i = -(v_i - u_i) * dF/dx_i(hi) = (v_i - u_i) * (F(hi, x_i=0) - F(hi, x_i=1))

where lo/hi are the current lower/upper corners; the two forms agree because
F is linear in x_i.  Closed mode takes the partials, one
``closed_form_partial`` call on the two corners per coordinate; exact mode
(and so explicit tables) evaluates the four extension rows.  Both corners
move toward each other in proportion to the clipped gains a'_i = max(a_i, 0),
b'_i = max(b_i, 0).  When both clipped gains vanish the coordinate can be
pinned anywhere; we pin it to the current upper value.  A coordinate whose
interval is one point (u_i = v_i) is not scored: a_i = b_i = 0 and it stays
where it is.  The returned point x satisfies

    F(x) >= 1/2 F(box optimum) + 1/4 F(u) + 1/4 F(v).

Sampled evaluation is rejected here: the per-step inequalities behind the
guarantee are exact statements and Monte Carlo noise would break them.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import EstimatorError, InvalidBoxError
from .setfn import (COORD_TOL, EstimatorConfig, Point, SetFunction,
                    default_config, multilinear_batch)


def _check_box(u: np.ndarray, v: np.ndarray) -> None:
    """The rule of every box [u, v]: u <= v coordinatewise, within COORD_TOL."""
    if np.any(u > v + COORD_TOL):
        raise InvalidBoxError("box requires u <= v coordinatewise")


@dataclass(frozen=True)
class BoxInstance:
    f: SetFunction
    u: Point
    v: Point
    cfg: EstimatorConfig | None = None

    def __post_init__(self):
        if self.u.n != self.f.n or self.v.n != self.f.n:
            raise InvalidBoxError("box bounds must match the ground set size")
        _check_box(self.u.v, self.v.v)
        cfg = self.cfg if self.cfg is not None else default_config(self.f)
        if cfg.mode == "mc":
            raise EstimatorError("double greedy requires exact evaluation; "
                                 "mc mode is rejected")
        object.__setattr__(self, "cfg", cfg)


@dataclass
class BoxRun:
    """Full iteration record: the per-coordinate gains and the box [u, v].

    Coordinate i is final after step i, so the corners after k steps are
    the point's first k coordinates followed by the rest of u (``lowers``)
    or of v (``uppers``); index 0 is the initial box.  They are built when
    read: the run itself records no trace."""

    point: Point
    a: np.ndarray
    b: np.ndarray
    u: np.ndarray
    v: np.ndarray

    @property
    def lowers(self) -> list[np.ndarray]:
        return [np.concatenate([self.point.v[:k], self.u[k:]]) for k in range(self.u.size + 1)]

    @property
    def uppers(self) -> list[np.ndarray]:
        return [np.concatenate([self.point.v[:k], self.v[k:]]) for k in range(self.v.size + 1)]


def double_greedy_box_run(inst: BoxInstance) -> BoxRun:
    f, cfg = inst.f, inst.cfg
    n = f.n
    box = np.stack([inst.u.v, inst.v.v])  # the corners, moved in place
    lo, hi = box
    a = np.zeros(n)
    b = np.zeros(n)
    closed = cfg.mode == "closed"
    for i in range(n):
        width = hi[i] - lo[i]
        if width == 0.0:
            pass  # a one-point coordinate is not scored: a_i = b_i = 0
        elif closed:
            d_lo, d_hi = f.closed_form_partial(i, box)
            a[i] = width * d_lo
            b[i] = -width * d_hi
        else:
            X = box[[0, 0, 1, 1]]
            X[0, i] = 1.0
            X[1, i] = 0.0
            X[2, i] = 0.0
            X[3, i] = 1.0
            f_lo1, f_lo0, f_hi0, f_hi1 = multilinear_batch(f, X, cfg)
            a[i] = width * (f_lo1 - f_lo0)
            b[i] = width * (f_hi0 - f_hi1)
        ap = max(a[i], 0.0)
        bp = max(b[i], 0.0)
        if ap + bp > 0.0:
            lo[i] += (ap / (ap + bp)) * width
            hi[i] = lo[i]
        else:
            # both clipped gains zero: pin to the current upper value
            lo[i] = hi[i]
    return BoxRun(Point(lo), a, b, inst.u.v, inst.v.v)


def double_greedy_box(inst: BoxInstance) -> Point:
    """The narrowed-box point; see the module docstring for the guarantee."""
    return double_greedy_box_run(inst).point


def guarantee_floor(Fu: float, Fv: float, Fopt_box: float) -> float:
    """The certified lower bound on F at the returned point."""
    return 0.5 * Fopt_box + 0.25 * Fu + 0.25 * Fv
