"""Down-closed constraint bodies with exact capped linear maximization.

Every body C here lives in [0,1]^n, contains the origin, and is down-closed:
y <= x in C implies y in C.  Every body is a set of disjoint packing rows
<cost_b, x_b> <= budget_b: cardinality is one unit-cost row, a partition
matroid one unit-cost row per block, a knapsack one row with its own costs.
One oracle serves all three: ``linear_maximize(w, alpha)`` solves
max <w, c>  over c in C, ||c||_inf <= alpha  exactly, by a fractional-knapsack
greedy per row; the cap alpha is a plain number in (0, 1].
``contains_point`` tests membership of a fractional point; each body's
``contains_mask_batch`` tests integer sets for the brute-force oracle.  The
oracle and the membership test also take an (R, n) batch of rows, the
oracle with one cap for every row or one cap per row, and answer each row
as a one-row call does.  Both read one structure per body, its packing rows
padded to one length (``_grid``): one sort ranks the entries of every row,
the greedy's fills come from the running differences of each packing row's
budget, taken over the whole batch at once, and one gather puts every fill
back at its coordinate; membership adds each packing row's terms over its
real places only, row by row.

Tie-breaking in every greedy sort is lowest index first, and nonpositive
weights are zeroed before assigning mass: by down-closedness a coordinate
with w_i <= 0 can always be dropped without losing objective value.
"""

from __future__ import annotations

from functools import cached_property

import numpy as np

from .setfn import Point, _indices, _mask_bits, _points, _positive_int, _reals

FEAS_TOL = 1e-9
# The greedy's sort keys of one row lie within a span of this many: a ratio's
# exponent lies within +-2100 of the span's middle, and the key of a
# nonpositive weight is the span's last.
_ROW_SPAN = 1 << 13


class Polytope:
    """{ x in [0,1]^n : <costs, x[indices]> <= budget for every row }; each
    subclass builds ``rows``, a list of (indices, costs, budget) with disjoint
    ascending indices and positive costs, from the arguments it validates."""

    kind = "abstract"

    def __init__(self, n: int):
        self.n = _positive_int(n, "ground set size")

    def linear_maximize(self, w, alpha=1.0):
        """argmax { <w, c> : c in C, ||c||_inf <= alpha }, exactly.

        ``w`` is one weight vector, answered with a Point, or an (R, n)
        batch, answered with an (R, n) array whose row r maximizes row r of
        w.  ``alpha`` is one cap in (0, 1] for every row, or a sequence of
        one cap per row.  Each row's answer does not depend on the others;
        an empty (0, n) batch gets an empty answer.
        """
        wv = _points(self.n, w)
        W = np.atleast_2d(wv)
        caps = np.asarray(alpha)
        # a NaN cap fails the comparisons, as one outside (0, 1] does
        if (caps.dtype.kind not in "iuf" or caps.shape not in ((), (len(W),))
                or caps.size and not 0 < caps.min() <= caps.max() <= 1):
            raise ValueError("caps must be one number in (0, 1] or one per weight "
                             f"row ({len(W)} rows), got {alpha!r}")
        if not len(W):
            return np.zeros((0, self.n))
        if not np.abs(W).max() < np.inf:
            raise ValueError("weights must be finite")
        c = self._greedy_fill(W, np.full(len(W), caps, dtype=float))
        return Point.trusted(c[0]) if wv.ndim == 1 else c

    @cached_property
    def _grid(self):
        # the packing rows, each padded by dummy places (weight 0, cost 1)
        # at its end to one length g, so that the sorted places of a batch
        # form one (R, rows, g) array: each place's coordinate, cost, negated
        # cost mantissa, sort-key origin and nonpositive key (its row's
        # end); the dummy places and the real ones, and each row's start
        # among the real places; each coordinate's place (a dummy for a
        # coordinate in no row, which the greedy never fills); the budgets
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
        return (coords, costs, -mc, row + _ROW_SPAN // 2 + ec, row + (_ROW_SPAN - 1),
                dummies, real, np.cumsum(sizes) - sizes, entry, np.array(budgets))

    def _greedy_fill(self, W: np.ndarray, alpha: np.ndarray) -> np.ndarray:
        # The capped fractional-knapsack greedy on every packing row of every
        # batch row r: take the entries by w/cost descending, filling
        # min(alpha_r, remaining/cost) until the budget or the positive
        # weights run out.  One stable sort per batch row ranks every packing
        # row at once: by row, positive weights first, then w/cost
        # descending, ties to the lower index.  The ratio is ranked by its
        # exact exponent and its correctly rounded mantissa (negated, so
        # ascending), so none overflows or underflows, and normal-range
        # ratios rank as their float quotients do.  No Python loop walks the
        # entries: every packing row of the batch is one row of an
        # (R, rows, g) array of places in that order.
        idx, cost, neg_mc, origin, end, dummies, _, _, entry, budgets = self._grid
        R, (S, g) = W.shape[0], (budgets.size, idx.size // budgets.size)
        wr = W[:, idx]
        wr[:, dummies] = 0.0
        mw, ew = np.frexp(wr)
        m, e = np.frexp(mw / neg_mc)
        order = np.lexsort((m, np.where(wr > 0, origin - ew - e, end)), axis=1)
        order += np.arange(0, R * S * g, S * g)[:, None]  # places in the flat batch
        w = wr.take(order).reshape(R, S, g)
        c = cost.take(order, mode="wrap").reshape(R, S, g)
        a, pos = alpha[:, None, None], w > 0
        fills = np.zeros((R, S, g))
        rem = np.empty((R, S, g + 1))
        upto = np.empty((R, S, g + 1), dtype=bool)
        with np.errstate(over="ignore"):
            # the budget left before each place while every fill is alpha_r,
            # as the greedy computes it: each running difference subtracts
            # in the greedy's own order
            rem[:, :, 0] = budgets
            np.multiply(a, c, out=rem[:, :, 1:])
            np.subtract.accumulate(rem, axis=2, out=rem)
            left = rem[:, :, :-1]
            ratio = left / c
            # upto[..., t] holds where places 0..t-1 all fill at the cap, so
            # places up to the first below the cap take min(alpha_r, what
            # is left over its cost) while some is left
            upto[:, :, 0] = True
            np.logical_and(pos, ratio >= a, out=upto[:, :, 1:])
            np.logical_and.accumulate(upto, axis=2, out=upto)
            take = upto[:, :, :-1] & pos & (left > 0)
            np.minimum(ratio, a, out=fills, where=take)
            # a positive leftover from the rounding of the partial fill
            # carries on to the next place of its packing row
            part = take ^ upto[:, :, 1:]
            part &= left > fills * c
            if part.any():
                # the greedy itself, one place at a time over the packing
                # rows that carry, at flat places q up to their row's end
                q = np.flatnonzero(part)
                flat_c, flat_pos, flat_fills = c.ravel(), pos.ravel(), fills.ravel()
                left = rem.reshape(-1, g + 1)[q // g, q % g] - flat_fills[q] * flat_c[q]
                q, stop, aq = q + 1, (q // g + 1) * g, alpha[q // (S * g)]
                while q.size:
                    go = (left > 0) & (q < stop) & flat_pos.take(q, mode="clip")
                    q, stop, left, aq = q[go], stop[go], left[go], aq[go]
                    cq = flat_c[q]
                    flat_fills[q] = fill = np.minimum(left / cq, aq)
                    left = left - fill * cq
                    q = q + 1
        unsorted = np.empty((R, S * g))
        unsorted.ravel()[order] = fills.reshape(R, -1)
        return unsorted.take(entry, axis=1)

    def contains_mask_batch(self, masks: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def contains_point(self, x):
        """Whether x satisfies every defining inequality within tolerance;
        for an (R, n) batch, an (R,) array of the answers row by row."""
        xv = _points(self.n, x)
        X = np.atleast_2d(xv)
        inside = ((X.min(axis=1) >= -FEAS_TOL) & (X.max(axis=1) <= 1.0 + FEAS_TOL)
                  & self._satisfies(X))
        return inside if xv.ndim == 2 else bool(inside[0])

    def _satisfies(self, X: np.ndarray) -> np.ndarray:
        # each packing row's sum <cost_b, x_b> of every batch row, added in
        # the row's own order over its real places only (a padded sum would
        # regroup the terms), so no answer depends on the other batch rows
        idx, cost, *_, real, starts, _, budgets = self._grid
        sums = np.add.reduceat(X[:, idx[real]] * cost[real], starts, axis=1)
        return (sums <= budgets + FEAS_TOL).all(axis=1)

    def describe(self) -> str:
        return self.kind


class CardinalityPolytope(Polytope):
    """{ x in [0,1]^n : sum x_i <= k }."""

    kind = "cardinality"

    def __init__(self, n: int, k: float):
        super().__init__(n)
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

    def __init__(self, n: int, costs, budget: float):
        super().__init__(n)
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
