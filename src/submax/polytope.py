"""Down-closed constraint bodies with exact capped linear maximization.

Every body C here lives in [0,1]^n, contains the origin, and is down-closed:
y <= x in C implies y in C.  Every body is a set of disjoint packing rows
<cost_b, x_b> <= budget_b: cardinality is one unit-cost row, a partition
matroid one unit-cost row per block, a knapsack one row with its own costs.
One oracle serves all three: ``linear_maximize(w, alpha)`` solves
max <w, c>  over c in C, ||c||_inf <= alpha  exactly, by a fractional-knapsack
greedy per row; the cap alpha is a plain number in (0, 1].  A packing row
fills at the cap, best w/cost first, up to its first place the budget left
cannot fill, which takes left / cost and ends the row: at most one place per
packing row lies strictly between 0 and the cap, as at a vertex of the LP.
``contains_point`` tests membership of a fractional point; each body's
``contains_mask_batch`` tests integer sets for the brute-force oracle, in
blocks of ``setfn.MASK_BLOCK`` masks, so that it holds one block's rows at a
time and a knapsack's sums keep the bytes of one product over the whole
batch (a matrix-vector product rounds a row by its place in the call).  The
two public calls take one point (``setfn._point``), the oracle one cap; the
kernels under them take an (R, n) batch of rows, the fill one cap per row,
and answer each row as a one-row batch does.  Both read one structure per
body, its packing rows padded to one length (``_grid``): one sort ranks the
entries of every row, the greedy's fills come from the running differences
of each packing row's budget, taken over the whole batch at once, and one
gather puts every fill back at its coordinate; membership adds each packing
row's terms over its real places only, row by row.

Each public call checks its inputs (the shape, the cap) and then runs a
kernel on the one-row batch; the Euler loop of ``cgreedy.solve`` runs the
same kernels on batches it built, without the public checks.  The oracle is
two kernels: ``_plan(caps)`` builds what depends only on the body and the
batch's caps (each row's cap, the flat sort offsets, and on unit costs each
row's fill table), once per batch shape, and ``_greedy_fill(W, plan)`` runs
the greedy on the weights, checking on every call that they are finite.
``linear_maximize`` is the checks, a plan and the fill, so the public call
and the loop share one fill path.  ``_inside(X)`` is membership's kernel:
the box test and every packing-row sum, on every row of every call.

``_grid`` also records two facts about the body, and the oracle and
membership skip what they fix; each shortcut returns the same bytes as the
general path:

- ``unit``: every cost is exactly 1.0 (cardinality, a partition matroid).
  A unit cost's ratio w/1 is w itself, so one stable sort by -w ranks each
  packing row as the exact (exponent, mantissa) key does, positive weights
  first and ties to the lower index.  A fill of alpha costs alpha * 1 =
  alpha and left / 1 = left, so the budget left before each place is
  budget - alpha - alpha - ... without a product, and nothing can
  overflow.  The first place with less than alpha left takes all of it, so
  every fill is the left budget clipped to [0, alpha] at a positive weight;
  the plan holds these clipped budgets, so the fill is the plan's table
  times (sorted w > 0).  Membership adds x_i where the general path adds
  x_i * 1.0 = x_i.
- ``ident``: one packing row over 0..n-1 in order and no dummy places
  (cardinality, a knapsack).  The places are the coordinates, so the
  gather of the weights or the point into places and the final gather of
  the fills back to coordinates are identities and are skipped; the
  caller's array is then read in place, never written.

Tie-breaking in every greedy sort is lowest index first, and nonpositive
weights are zeroed before assigning mass: by down-closedness a coordinate
with w_i <= 0 can always be dropped without losing objective value.
"""

from __future__ import annotations

from functools import cached_property
from typing import NamedTuple

import numpy as np

from .setfn import (Point, _indices, _mask_blocks, _number, _point, _positive_int,
                    _positive_real, _reals)

FEAS_TOL = 1e-9
# The greedy's sort keys of one row lie within a span of this many: a ratio's
# exponent lies within +-2100 of the span's middle, and the key of a
# nonpositive weight is the span's last.
_ROW_SPAN = 1 << 13


class _Grid(NamedTuple):
    """A body's packing rows laid out once for the oracle and membership."""

    coords: np.ndarray       # each padded place's coordinate
    costs: np.ndarray        # each place's cost (1 at a dummy place)
    neg_mc: np.ndarray       # each place's negated cost mantissa
    origin: np.ndarray       # each place's sort-key origin
    end: np.ndarray          # each place's nonpositive key: its row's end
    dummies: np.ndarray      # the dummy places
    entry: np.ndarray        # each coordinate's place
    budgets: np.ndarray      # each packing row's budget
    real_coords: np.ndarray  # the real places' coordinates, row by row
    real_costs: np.ndarray   # and their costs
    starts: np.ndarray       # each packing row's start among the real places
    limits: np.ndarray       # budgets + FEAS_TOL
    unit: bool               # every real cost is exactly 1.0
    ident: bool              # one packing row over 0..n-1, no dummy places


class _Plan(NamedTuple):
    """What the fill of an (R, n) weight batch reads that depends only on
    the body and the batch's caps, not on the weights."""

    caps: np.ndarray          # (R, 1, 1): each batch row's cap
    offsets: np.ndarray       # each sorted row's first flat place in the batch
    table: np.ndarray | None  # unit costs: the (R, rows, g) fill of each sorted
    #                           place at a positive weight

    def head(self, R: int) -> "_Plan":
        """The plan of the batch's first R rows: every field is per row."""
        table = self.table
        return _Plan(self.caps[:R], self.offsets[:R], None if table is None else table[:R])


class Polytope:
    """{ x in [0,1]^n : <costs, x[indices]> <= budget for every row }; each
    subclass builds ``rows``, a list of (indices, costs, budget) with disjoint
    ascending indices and positive costs, from the arguments it validates."""

    kind = "abstract"

    def __init__(self, n: int):
        self.n = _positive_int(n, "ground set size")

    def linear_maximize(self, w, alpha=1.0) -> Point:
        """argmax { <w, c> : c in C, ||c||_inf <= alpha }, exactly, for one
        weight vector w and one cap alpha in (0, 1]."""
        wv = _point(self.n, w)
        cap = _number(alpha)
        # a NaN cap fails the comparison, as one outside (0, 1] does
        if cap is None or not 0 < cap <= 1:
            raise ValueError(f"caps must be one number in (0, 1], got {alpha!r}")
        plan = self._plan(np.array([float(cap)]))
        return Point.trusted(self._greedy_fill(wv[None], plan)[0])

    @cached_property
    def _grid(self) -> _Grid:
        # the packing rows, each padded by dummy places (weight 0, cost 1)
        # at its end to one length g, so that the sorted places of a batch
        # form one (R, rows, g) array; each coordinate's place is a dummy
        # for a coordinate in no row, which the greedy never fills
        idx, cost, budgets = zip(*self.rows)
        sizes = np.array([i.size for i in idx])
        g = sizes.max() + int(sizes.sum() < self.n)
        real_mask = (np.arange(g) < sizes[:, None]).ravel()
        real, dummies = np.flatnonzero(real_mask), np.flatnonzero(~real_mask)
        coords = np.zeros(real_mask.size, dtype=np.int64)
        coords[real] = np.concatenate(idx)
        costs = np.ones(real_mask.size)
        costs[real] = np.concatenate(cost)
        mc, ec = np.frexp(costs)
        row = np.repeat(np.arange(sizes.size, dtype=np.int64) * _ROW_SPAN, g)
        entry = np.full(self.n, dummies[0] if dummies.size else 0)
        entry[coords[real]] = real
        budgets = np.array(budgets, dtype=float)
        return _Grid(coords=coords, costs=costs, neg_mc=-mc,
                     origin=row + _ROW_SPAN // 2 + ec, end=row + (_ROW_SPAN - 1),
                     dummies=dummies, entry=entry, budgets=budgets,
                     real_coords=coords[real], real_costs=costs[real],
                     starts=np.cumsum(sizes) - sizes, limits=budgets + FEAS_TOL,
                     unit=bool((costs == 1.0).all()),
                     ident=real.size == g == self.n
                     and bool((coords == np.arange(self.n)).all()))

    def _plan(self, caps: np.ndarray) -> _Plan:
        # The fill's set-up for a batch of len(caps) rows, row r capped at
        # caps[r]: built once, read by every fill of a batch of that shape
        # (and by one of its first R rows, through ``head``).
        # On unit costs every fill at a positive weight is the budget left
        # before its place while every fill is the cap, clipped to [0, cap]:
        # the positive weights are a prefix of each sorted packing row and
        # the left budget only falls, so the first place with less than the
        # cap left takes all of it and every later place has nothing left
        grid = self._grid
        R, S = caps.size, grid.budgets.size
        g = grid.coords.size // S
        a = caps.reshape(R, 1, 1)
        if not grid.unit:  # one sorted row per batch row
            return _Plan(a, np.arange(0, R * S * g, S * g)[:, None], None)
        rem = np.empty((R, S, g + 1))
        rem[:, :, 0] = grid.budgets
        rem[:, :, 1:] = a
        np.subtract.accumulate(rem, axis=2, out=rem)
        table = np.minimum(rem[:, :, :-1], a)
        np.maximum(table, 0.0, out=table)
        return _Plan(a, np.arange(0, R * S * g, g).reshape(R, S, 1), table)

    def _greedy_fill(self, W: np.ndarray, plan: _Plan) -> np.ndarray:
        # The capped fractional-knapsack greedy on every packing row of every
        # batch row r: take the entries by w/cost descending, filling
        # min(alpha_r, remaining/cost) until the budget or the positive
        # weights run out, or a fill falls below alpha_r, so each packing
        # row has at most one fractional place.  One stable sort per batch
        # row ranks every packing row at once, positive weights first, ties
        # to the lower index.  No Python loop walks the entries: every
        # packing row of the batch is one row of an (R, rows, g) array of
        # places in that order.  W, an (R, n) batch of the plan's shape, is
        # only read, never written; its finiteness is checked here, on every
        # call.
        if not np.abs(W).max() < np.inf:
            raise ValueError("weights must be finite")
        grid = self._grid
        R, S = len(W), grid.budgets.size
        g = grid.coords.size // S
        if grid.ident:
            wr = W
        else:
            wr = W[:, grid.coords]
            wr[:, grid.dummies] = 0.0
        if grid.unit:
            # a unit cost's ratio is the weight itself: rank by -w, which
            # puts every nonpositive weight after the positive ones; every
            # fill is the plan's at a positive weight
            order = np.argsort(-wr.reshape(R, S, g), axis=2, kind="stable")
            order += plan.offsets
            fills = plan.table * (wr.take(order) > 0)
        else:
            # by row, then w/cost descending: the ratio is ranked by its
            # exact exponent and its correctly rounded mantissa (negated, so
            # ascending), so none overflows or underflows, and normal-range
            # ratios rank as their float quotients do
            mw, ew = np.frexp(wr)
            m, e = np.frexp(mw / grid.neg_mc)
            pos = wr > 0
            order = np.lexsort((m, np.where(pos, grid.origin - ew - e, grid.end)), axis=1)
            c = grid.costs.take(order).reshape(R, S, g)
            order += plan.offsets
            pos = pos.take(order).reshape(R, S, g)
            a = plan.caps
            rem = np.empty((R, S, g + 1))
            rem[:, :, 0] = grid.budgets
            fills = np.zeros((R, S, g))
            upto = np.empty((R, S, g + 1), dtype=bool)
            with np.errstate(over="ignore"):
                # the budget left before each place while every fill is
                # alpha_r, as the greedy computes it: each running difference
                # subtracts in the greedy's own order
                np.multiply(a, c, out=rem[:, :, 1:])
                np.subtract.accumulate(rem, axis=2, out=rem)
                left = rem[:, :, :-1]
                ratio = left / c
                # upto[..., t] holds where places 0..t-1 all fill at the cap,
                # so places up to the first below the cap take min(alpha_r,
                # what is left over its cost) while some is left, and the
                # first below the cap ends its packing row.  What it leaves,
                # left - (left / c) * c, is a rounding error of left and goes
                # unused; only where left / c underflows is it more, and
                # there the objective lost is at most (w / c) * left
                upto[:, :, 0] = True
                np.logical_and(pos, ratio >= a, out=upto[:, :, 1:])
                np.logical_and.accumulate(upto, axis=2, out=upto)
                np.minimum(ratio, a, out=fills, where=upto[:, :, :-1] & pos & (left > 0))
        unsorted = np.empty((R, S * g))
        unsorted.ravel()[order] = fills.reshape(order.shape)
        return unsorted if grid.ident else unsorted.take(grid.entry, axis=1)

    def contains_mask_batch(self, masks: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def contains_point(self, x) -> bool:
        """Whether the one point x satisfies every defining inequality
        within tolerance."""
        return bool(self._inside(_point(self.n, x)[None])[0])

    def _inside(self, X: np.ndarray) -> np.ndarray:
        # the membership of every row of an (R, n) batch, as one row of
        # tests each: every coordinate in the box, and every packing row's
        # sum <cost_b, x_b> within its budget.  Each sum is added in the
        # row's own order over its real places only (a padded sum would
        # regroup the terms), so no answer depends on the other batch rows.
        # A product or sum past the largest float is inf, and one of inf and
        # -inf NaN, and either fails its budget, silently
        grid = self._grid
        terms = X if grid.ident else X[:, grid.real_coords]
        with np.errstate(over="ignore", invalid="ignore"):
            if not grid.unit:
                terms = terms * grid.real_costs
            sums = np.add.reduceat(terms, grid.starts, axis=1)
        inside = (sums <= grid.limits).all(axis=1)
        # the box on the whole batch at once, and row by row only when some
        # coordinate is outside it (a NaN fails both tests)
        if not (X.min(initial=np.inf) >= -FEAS_TOL
                and X.max(initial=-np.inf) <= 1.0 + FEAS_TOL):
            inside &= ((X >= -FEAS_TOL) & (X <= 1.0 + FEAS_TOL)).all(axis=1)
        return inside

    def describe(self) -> str:
        return self.kind


class CardinalityPolytope(Polytope):
    """{ x in [0,1]^n : sum x_i <= k }."""

    kind = "cardinality"

    def __init__(self, n: int, k: float):
        super().__init__(n)
        self.k = _positive_real(k, "cardinality budget k")
        self.rows = [(np.arange(self.n), np.ones(self.n), self.k)]

    def contains_mask_batch(self, masks):
        ok = np.empty(len(masks), dtype=bool)
        for lo, bits in _mask_blocks(masks, self.n):
            ok[lo:lo + len(bits)] = bits.sum(axis=1) <= self.k + FEAS_TOL
        return ok

    def describe(self):
        return f"cardinality(k={self.k:g})"


class PartitionMatroidPolytope(Polytope):
    """Ground set split into disjoint blocks, block b capped at k_b:
    { x in [0,1]^n : sum_{i in block b} x_i <= k_b  for all b }."""

    kind = "partition-matroid"

    def __init__(self, n: int, blocks, budgets):
        super().__init__(n)
        self.blocks = [np.sort(_indices(b, self.n, "block element")) for b in blocks]
        self.budgets = _reals(budgets, "block budgets")
        if len(self.blocks) != self.budgets.size:
            raise ValueError("need one budget per block")
        if self.budgets.size == 0 or self.budgets.min() <= 0:
            raise ValueError("block budgets must be positive and finite")
        if any(b.size == 0 for b in self.blocks):
            raise ValueError("empty blocks are not allowed")
        uses = np.bincount(np.concatenate(self.blocks), minlength=self.n)
        if uses.max() > 1:
            raise ValueError("blocks must be disjoint")
        if uses.min() == 0:
            raise ValueError("blocks must cover the ground set")
        self.rows = [(b, np.ones(b.size), float(kb))
                     for b, kb in zip(self.blocks, self.budgets)]

    def contains_mask_batch(self, masks):
        ok = np.ones(len(masks), dtype=bool)
        for lo, bits in _mask_blocks(masks, self.n):
            for b, kb in zip(self.blocks, self.budgets):
                ok[lo:lo + len(bits)] &= bits[:, b].sum(axis=1) <= kb + FEAS_TOL
        return ok

    def describe(self):
        return f"partition({len(self.blocks)} blocks)"


class KnapsackPolytope(Polytope):
    """{ x in [0,1]^n : <cost, x> <= budget } with strictly positive costs.
    Zero-cost items would make the capped LP assign them unboundedly cheap
    mass, so they are rejected at construction."""

    kind = "knapsack"

    def __init__(self, n: int, costs, budget: float):
        super().__init__(n)
        self.costs = _reals(costs, "knapsack costs")
        if self.costs.size != self.n:
            raise ValueError(f"need one cost per element, got {self.costs.size}")
        if self.costs.min() <= 0:
            raise ValueError("knapsack costs must be strictly positive and finite")
        self.budget = _positive_real(budget, "knapsack budget")
        self.rows = [(np.arange(self.n), self.costs, self.budget)]

    def contains_mask_batch(self, masks):
        ok = np.empty(len(masks), dtype=bool)
        for lo, bits in _mask_blocks(masks, self.n):
            ok[lo:lo + len(bits)] = bits.astype(float) @ self.costs <= self.budget + FEAS_TOL
        return ok

    def describe(self):
        return f"knapsack(B={self.budget:g})"
