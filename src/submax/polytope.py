"""Down-closed constraint bodies with exact capped linear maximization.

Every body C here lives in [0,1]^n, contains the origin, and is down-closed:
y <= x in C implies y in C.  Every body is a set of disjoint packing rows
<cost_b, x_b> <= budget_b: cardinality is one unit-cost row, a partition
matroid one unit-cost row per block, a knapsack one row with its own costs.
One oracle serves all three: ``linear_maximize`` solves  max <w, c>  over
c in C, ||c||_inf <= alpha  exactly, by a fractional-knapsack greedy per row.
``contains_point`` tests membership of a fractional point; each body's
``contains_mask_batch`` tests integer sets for the brute-force oracle.  The
oracle and the membership test also take an (R, n) batch of rows, the
oracle with one cap per row, and answer each row as a one-row call does:
one sort ranks the entries of every row, the greedy walks each row in turn
collecting its fills, and one assignment stores every fill of the batch;
membership adds each packing row's terms row by row.

Tie-breaking in every greedy sort is lowest index first, and nonpositive
weights are zeroed before assigning mass: by down-closedness a coordinate
with w_i <= 0 can always be dropped without losing objective value.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

import numpy as np

from .setfn import (GroundSet, Point, as_array, as_ground, _indices, _mask_bits,
                    _reals)

FEAS_TOL = 1e-9
# The greedy's sort keys of one row lie within a span of this many: a ratio's
# exponent lies within +-2100 of the span's middle, and the key of a
# nonpositive weight is the span's last.
_ROW_SPAN = 1 << 13


@dataclass(frozen=True)
class CapParam:
    """The l-inf cap on oracle outputs; alpha = 1 recovers the plain oracle."""

    alpha: float = 1.0

    def __post_init__(self):
        if not (0.0 < self.alpha <= 1.0):
            raise ValueError(f"cap alpha must lie in (0, 1], got {self.alpha}")


class Polytope:
    """{ x in [0,1]^n : <costs, x[indices]> <= budget for every row }; each
    subclass builds ``rows``, a list of (indices, costs, budget) with disjoint
    ascending indices and positive costs, from the arguments it validates."""

    kind = "abstract"

    def __init__(self, ground: GroundSet | int):
        self.ground = as_ground(ground)

    @property
    def n(self) -> int:
        return self.ground.n

    def linear_maximize(self, w, cap: CapParam | Sequence[CapParam] = CapParam(1.0)):
        """argmax { <w, c> : c in C, ||c||_inf <= cap.alpha }, exactly.

        ``w`` is one weight vector, answered with a Point, or an (R, n)
        batch, answered with an (R, n) array whose row r maximizes row r of
        w under ``cap``, or under ``cap[r]`` when a sequence of one cap per
        row is given.  Each row's answer does not depend on the others.
        """
        wv = as_array(w)
        W = np.atleast_2d(wv)
        if wv.ndim > 2 or W.shape[1] != self.n:
            raise ValueError(f"weight vector has {W.shape[-1]} coordinates, expected {self.n}")
        if not np.abs(W).max() < np.inf:
            raise ValueError("weights must be finite")
        caps = [cap] * len(W) if isinstance(cap, CapParam) else list(cap)
        if len(caps) != len(W):
            raise ValueError(f"{len(caps)} caps for {len(W)} weight rows")
        c = self._greedy_fill(W, np.array([cp.alpha for cp in caps]))
        return Point.trusted(c[0]) if wv.ndim == 1 else c

    @cached_property
    def _layout(self):
        # the rows laid end to end: indices, costs, each cost's negated
        # mantissa, each entry's sort-key origin and the key of a nonpositive
        # weight (its row's end), and each row's (start, stop, budget)
        idx, cost, budgets = zip(*self.rows)
        sizes = [i.size for i in idx]
        stops = np.cumsum(sizes).tolist()
        mc, ec = np.frexp(np.concatenate(cost))
        row = np.repeat(np.arange(len(sizes), dtype=np.int64) * _ROW_SPAN, sizes)
        return (np.concatenate(idx), np.concatenate(cost), -mc,
                row + _ROW_SPAN // 2 + ec, row + (_ROW_SPAN - 1),
                list(zip([0] + stops[:-1], stops, budgets)))

    def _greedy_fill(self, W: np.ndarray, alpha: np.ndarray) -> np.ndarray:
        # The capped fractional-knapsack greedy on every packing row of every
        # batch row r: walk the entries by w/cost descending, filling
        # min(alpha_r, remaining/cost) until the budget or the positive
        # weights run out.  One stable sort per batch row ranks every packing
        # row at once: by row, positive weights first, then w/cost
        # descending, ties to the lower index.  The ratio is ranked by its
        # exact exponent and its correctly rounded mantissa (negated, so
        # ascending), so none overflows or underflows, and normal-range
        # ratios rank as their float quotients do.  The walk collects each
        # fill with its batch row and coordinate in flat lists, and one
        # fancy-indexed assignment stores them all at the end.
        idx, cost, neg_mc, origin, end, segments = self._layout
        wr = W[:, idx]
        mw, ew = np.frexp(wr)
        m, e = np.frexp(mw / neg_mc)
        order = np.lexsort((m, np.where(wr > 0, origin - ew - e, end)), axis=1)
        rows, cols, fills = [], [], []
        for r, a, ws, cs, ds in zip(range(len(W)), alpha.tolist(),
                                    np.take_along_axis(wr, order, axis=1).tolist(),
                                    cost[order].tolist(), idx[order].tolist()):
            for start, stop, remaining in segments:
                for wi, ci, i in zip(ws[start:stop], cs[start:stop], ds[start:stop]):
                    if remaining <= 0 or wi <= 0:
                        break
                    fill = remaining / ci
                    if not fill < a:  # min(a, remaining / ci)
                        fill = a
                    rows.append(r)
                    cols.append(i)
                    fills.append(fill)
                    remaining -= fill * ci
        out = np.zeros_like(W)
        out[rows, cols] = fills
        return out

    def contains_mask_batch(self, masks: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def contains_point(self, x):
        """Whether x satisfies every defining inequality within tolerance;
        for an (R, n) batch, an (R,) array of the answers row by row."""
        xv = as_array(x)
        X = np.atleast_2d(xv)
        if xv.ndim > 2 or X.shape[1] != self.n:
            raise ValueError(f"point has {X.shape[-1]} coordinates, expected {self.n}")
        inside = ((X.min(axis=1) >= -FEAS_TOL) & (X.max(axis=1) <= 1.0 + FEAS_TOL)
                  & self._satisfies(X))
        return inside if xv.ndim == 2 else bool(inside[0])

    def _satisfies(self, X: np.ndarray) -> np.ndarray:
        # each packing row's sum <cost_b, x_b> of every batch row, added in
        # the row's own order, so no answer depends on the other batch rows
        idx, cost, *_, segments = self._layout
        sums = np.add.reduceat(X[:, idx] * cost, [start for start, _, _ in segments], axis=1)
        return (sums <= [budget + FEAS_TOL for *_, budget in segments]).all(axis=1)

    def describe(self) -> str:
        return self.kind


class CardinalityPolytope(Polytope):
    """{ x in [0,1]^n : sum x_i <= k }."""

    kind = "cardinality"

    def __init__(self, ground: GroundSet | int, k: float):
        super().__init__(ground)
        if not (0 < k < np.inf):
            raise ValueError(f"budget k must be positive and finite, got {k}")
        self.k = float(k)
        self.rows = [(np.arange(self.n), np.ones(self.n), self.k)]

    def contains_mask_batch(self, masks):
        bits = _mask_bits(masks, self.n)
        return bits.sum(axis=1) <= self.k + FEAS_TOL

    def describe(self):
        return f"cardinality(k={self.k:g})"


class PartitionMatroidPolytope(Polytope):
    """Ground set split into disjoint blocks, block b capped at k_b:
    { x in [0,1]^n : sum_{i in block b} x_i <= k_b  for all b }."""

    kind = "partition-matroid"

    def __init__(self, ground: GroundSet | int, blocks, budgets):
        super().__init__(ground)
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
        bits = _mask_bits(masks, self.n)
        ok = np.ones(masks.shape, dtype=bool)
        for b, kb in zip(self.blocks, self.budgets):
            ok &= bits[:, b].sum(axis=1) <= kb + FEAS_TOL
        return ok

    def describe(self):
        return f"partition({len(self.blocks)} blocks)"


class KnapsackPolytope(Polytope):
    """{ x in [0,1]^n : <cost, x> <= budget } with strictly positive costs.
    Zero-cost items would make the capped LP assign them unboundedly cheap
    mass, so they are rejected at construction."""

    kind = "knapsack"

    def __init__(self, ground: GroundSet | int, costs, budget: float):
        super().__init__(ground)
        self.costs = _reals(costs, "knapsack costs")
        if self.costs.size != self.n:
            raise ValueError(f"need one cost per element, got {self.costs.size}")
        if self.costs.min() <= 0:
            raise ValueError("knapsack costs must be strictly positive and finite")
        if not (0 < budget < np.inf):
            raise ValueError(f"budget must be positive and finite, got {budget}")
        self.budget = float(budget)
        self.rows = [(np.arange(self.n), self.costs, self.budget)]

    def contains_mask_batch(self, masks):
        bits = _mask_bits(masks, self.n)
        return bits.astype(float) @ self.costs <= self.budget + FEAS_TOL

    def describe(self):
        return f"knapsack(B={self.budget:g})"
