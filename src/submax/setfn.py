"""Submodular set functions and their multilinear extension.

A set function f: 2^V -> R+ is submodular when f(A) + f(B) >= f(A|B) + f(A&B)
for all A, B.  Its multilinear extension F(x) = E[f(R(x))] averages f over the
random subset R(x) that keeps element i independently with probability x_i,
so F agrees with f on 0/1 vectors and is linear in each coordinate separately.

Three evaluation modes are supported:

  exact   -- the full 2^n value table, contracted one element at a time
             against (1 - x_i, x_i): O(2^n) per point (n <= 25),
  closed  -- the analytically identical polynomial available for the
             structural families (directed cut, weighted coverage),
  mc      -- Monte Carlo sampling of R(x), reproducible from a seed, one
             draw per call shared by every row.

``multilinear_batch`` evaluates F in every mode; ``multilinear`` is its
one-row case.  In exact and mc modes, and for explicit tables, partial
derivatives go through the one-coordinate identity, 2n rows of one batch:
dF/dx_i = F(x with x_i=1) - F(x with x_i=0).  Because F is multilinear this is
exact; no finite-difference fuzz is ever involved.  In closed mode each
structural family differentiates its polynomial analytically:
``closed_form_grad`` gives the whole gradient at one point or at every row
of an (R, n) batch, each row as the one point gives it, and
``closed_form_partial(i, X)`` gives the single partial dF/dx_i at every row
of X in O(n) for a cut and O(n |covers_i|) for coverage, which is what the
double greedy needs at each coordinate.  For a cut with weight matrix W
these are F(x) = x^T W (1 - x), grad F(x) = W (1 - x) - W^T x and
dF/dx_i = (1 - x) . W[i, :] - x . W[:, i].  The identity stays the reference
both are tested against (``one_coordinate_gradient``).
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from functools import cached_property
from itertools import chain
from typing import Iterable, Union

import numpy as np

from .errors import EstimatorError, InvalidSubsetError

COORD_TOL = 1e-12
EXACT_ENUM_LIMIT = 25   # 2^n subset weights; the desk-scale ceiling
SUBMOD_CHECK_LIMIT = 12  # exhaustive submodularity check on explicit tables
SUBMOD_SAMPLES = 1 << 16  # seeded (S, i, j) samples checked above that size
MC_DRAW_LIMIT = 1 << 27  # float64 uniforms in one mc draw: 1 GiB

SubsetLike = Union[int, Iterable[int]]


def _positive_int(value, what: str, error: type[Exception] = ValueError) -> int:
    """A positive integer as a plain int.  A bool, a float such as 2.0 or
    2.5, or a string is rejected, never truncated."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)) or value < 1:
        raise error(f"{what} must be a positive integer, got {value!r}")
    return int(value)


def _positive_real(value, what: str) -> float:
    """A positive finite real number as a plain float.  A bool, a string or
    None is rejected, never converted."""
    if isinstance(value, (np.integer, np.floating)):
        value = value.item()  # so that the comparisons below are exact
    if (isinstance(value, bool) or not isinstance(value, (int, float))
            or not 0 < value <= sys.float_info.max):
        raise ValueError(f"{what} must be positive and finite, got {value!r}")
    return float(value)


def as_mask(S: SubsetLike, n: int) -> int:
    """Canonicalize a subset (bitmask int, or iterable of element indices)
    to a bitmask with bit i <-> element i."""
    if isinstance(S, (int, np.integer)):
        m = int(S)
        if m < 0 or m >> n:
            raise InvalidSubsetError(f"bitmask {m} outside ground set of size {n}")
        return m
    m = 0
    for e in S:
        i = int(e)
        if i < 0 or i >= n:
            raise InvalidSubsetError(f"element {i} outside ground set of size {n}")
        m |= 1 << i
    return m


def mask_to_set(mask: int) -> frozenset[int]:
    return frozenset(i for i in range(int(mask).bit_length()) if (mask >> i) & 1)


class Point:
    """A vector in [0,1]^n, read-only once built."""

    __slots__ = ("v",)

    def __init__(self, coords):
        v = np.array(coords, dtype=float)
        if v.ndim != 1 or v.size == 0:
            raise ValueError("a point is a nonempty 1-d vector")
        if not np.all(np.isfinite(v)):
            raise ValueError("point coordinates must be finite")
        if v.min() < -COORD_TOL or v.max() > 1.0 + COORD_TOL:
            raise ValueError(f"coordinates outside [0,1] beyond tolerance: {v}")
        np.clip(v, 0.0, 1.0, out=v)
        v.flags.writeable = False
        self.v = v

    @classmethod
    def trusted(cls, v: np.ndarray) -> "Point":
        # fast path for hot loops; caller guarantees a fresh float array in [0,1]
        p = object.__new__(cls)
        v.flags.writeable = False
        p.v = v
        return p

    @classmethod
    def zeros(cls, n: int) -> "Point":
        return cls(np.zeros(n))

    @classmethod
    def ones(cls, n: int) -> "Point":
        return cls(np.ones(n))

    @classmethod
    def indicator(cls, n: int, S: SubsetLike) -> "Point":
        mask = as_mask(S, n)
        return cls([(mask >> i) & 1 for i in range(n)])

    @property
    def n(self) -> int:
        return self.v.size

    def norm_inf(self) -> float:
        return float(np.max(self.v))

    def __repr__(self):
        return f"Point({self.v.tolist()})"


def as_array(x) -> np.ndarray:
    """Accept a Point or any 1-d array-like; return the coordinate array."""
    if isinstance(x, Point):
        return x.v
    return np.asarray(x, dtype=float)


@dataclass(frozen=True)
class EstimatorConfig:
    """How to evaluate the multilinear extension.

    ``stream`` extends the seed so that nested runs (a solve's Euler steps)
    draw from disjoint, reproducible counter-based streams.
    """

    mode: str = "exact"
    sample_count: int = 100_000
    rng_seed: int = 0
    stream: tuple[int, ...] = ()

    def __post_init__(self):
        if self.mode not in ("exact", "closed", "mc"):
            raise EstimatorError(f"unknown evaluation mode {self.mode!r}")
        object.__setattr__(self, "sample_count",
                           _positive_int(self.sample_count, "sample_count", EstimatorError))
        # any integer, negative ones too (``submax solve --seed`` takes any
        # int); the stream reads its low 64 bits
        if isinstance(self.rng_seed, bool) or not isinstance(self.rng_seed, (int, np.integer)):
            raise EstimatorError(f"rng_seed must be an integer, got {self.rng_seed!r}")
        object.__setattr__(self, "rng_seed", int(self.rng_seed))

    def substream(self, *labels: int) -> "EstimatorConfig":
        return EstimatorConfig(self.mode, self.sample_count, self.rng_seed,
                               self.stream + tuple(int(l) for l in labels))

    def rng(self) -> np.random.Generator:
        seq = np.random.SeedSequence(entropy=self.rng_seed & (2**64 - 1),
                                     spawn_key=self.stream)
        return np.random.Generator(np.random.Philox(seq))


class SetFunction:
    """Value oracle for a nonnegative submodular f over a ground set."""

    kind = "abstract"
    has_closed_form = False

    def __init__(self, n: int):
        self.n = _positive_int(n, "ground set size")
        self._table: np.ndarray | None = None

    def value(self, S: SubsetLike) -> float:
        """f(S) for a subset or bitmask, at any n (no int64 bitmask)."""
        return float(_vertex_values(self, Point.indicator(self.n, S).v[None, :] > 0)[0])

    def value_batch(self, masks: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def closed_form_batch(self, X: np.ndarray) -> np.ndarray:
        raise EstimatorError(f"{self.kind} has no closed-form extension")

    def closed_form_grad(self, x: np.ndarray) -> np.ndarray:
        """The gradient of the closed-form extension at x: (n,) at one
        point, (R, n) at each row of an (R, n) batch."""
        raise EstimatorError(f"{self.kind} has no closed-form extension")

    def closed_form_partial(self, i: int, X: np.ndarray) -> np.ndarray:
        """dF/dx_i of the closed-form extension at every row of the (r, n) X."""
        raise EstimatorError(f"{self.kind} has no closed-form extension")

    def full_table(self) -> np.ndarray:
        """All 2^n values, indexed by bitmask (bit i = element i). Cached."""
        if self.n > EXACT_ENUM_LIMIT:
            raise EstimatorError(
                f"exact enumeration limited to n <= {EXACT_ENUM_LIMIT}, got n={self.n}")
        if self._table is None:
            out = np.empty(1 << self.n)
            chunk = 1 << 20
            for lo in range(0, out.size, chunk):
                masks = np.arange(lo, min(lo + chunk, out.size), dtype=np.int64)
                out[lo:lo + masks.size] = self.value_batch(masks)
            self._table = out
        return self._table


def _mask_bits(masks: np.ndarray, n: int) -> np.ndarray:
    """(m,) int masks -> (m, n) boolean membership matrix."""
    return (masks[:, None] >> np.arange(n)[None, :]) & 1 != 0


def _check_masks(masks: np.ndarray, n: int) -> None:
    if masks.size and (masks.min() < 0 or masks.max() >> n):
        raise InvalidSubsetError("bitmask outside ground set")


def _indices(values, size: int, what: str) -> np.ndarray:
    """Integer indices in [0, size) as an int64 array.  Anything else, a
    float such as 2.0 or 0.5, a bool or a string, is rejected, never
    truncated."""
    idx = np.asarray(values)
    if idx.size == 0:
        return np.zeros(0, dtype=np.int64)
    if idx.ndim != 1 or idx.dtype.kind not in "iu" or bool in set(map(type, values)):
        bad = next((v for v in values if type(v) is not int
                    and not isinstance(v, np.integer)), values)
        raise ValueError(f"{what} {bad!r} is not an integer index")
    if idx.min() < 0 or idx.max() >= size:
        bad = idx[(idx < 0) | (idx >= size)][0]
        raise InvalidSubsetError(f"{what} {bad} outside range of size {size}")
    return idx.astype(np.int64)


def _reals(values, what: str) -> np.ndarray:
    """A flat list of real numbers as a fresh float array.  Their sum must
    be finite, which also bounds every extension value and partial
    derivative built from them."""
    arr = np.asarray(values)
    if arr.ndim != 1 or (arr.size and arr.dtype.kind not in "iuf"):
        raise ValueError(f"{what} must be a flat list of numbers")
    arr = arr.astype(float)
    with np.errstate(over="ignore"):  # an overflowing sum is the error below
        total = arr.sum()
    if not np.isfinite(total):
        raise ValueError(f"{what} must be finite, and so must their sum")
    return arr


class ExplicitTable(SetFunction):
    """f given by all 2^n values.  Nonnegativity is always checked, and
    submodularity exhaustively for n <= 12 and on a seeded sample of pairs
    above; invalid tables are rejected, never repaired."""

    kind = "explicit-table"

    def __init__(self, n: int, values):
        super().__init__(n)
        vals = _reals(values, "table values")
        if self.n >= 63 or vals.size != (1 << self.n):
            raise ValueError(
                f"explicit table needs exactly 2^{self.n} values, got {vals.size}")
        if vals.min() < 0:
            bad = int(np.argmin(vals))
            raise ValueError(f"negative value {vals[bad]} at subset mask {bad}")
        _check_submodular_table(vals, self.n)
        vals.flags.writeable = False
        self.values = vals
        self._table = vals

    def value_batch(self, masks: np.ndarray) -> np.ndarray:
        _check_masks(masks, self.n)
        return self.values[masks]


def _check_submodular_table(vals: np.ndarray, n: int, tol: float = 1e-9) -> None:
    """Pairwise check f(S+i) + f(S+j) >= f(S+i+j) + f(S): over every (S, i, j)
    for n <= SUBMOD_CHECK_LIMIT, over SUBMOD_SAMPLES seeded draws above, so a
    given table is always accepted or always rejected."""
    if n <= SUBMOD_CHECK_LIMIT:
        pi, pj = np.triu_indices(n, 1)
        i, j = np.repeat(pi, vals.size), np.repeat(pj, vals.size)
        S = np.tile(np.arange(vals.size, dtype=np.int64), pi.size)
        how = ""
    else:
        rng = np.random.default_rng(0)
        i = rng.integers(n, size=SUBMOD_SAMPLES)
        j = (i + rng.integers(1, n, size=SUBMOD_SAMPLES)) % n
        S = rng.integers(vals.size, size=SUBMOD_SAMPLES)
        how = f" (sampled check of {SUBMOD_SAMPLES} random (S, i, j))"
    bi, bj = np.left_shift(1, i), np.left_shift(1, j)
    base = S & ~(bi | bj)
    gap = vals[base | bi] + vals[base | bj] - vals[base | bi | bj] - vals[base]
    if gap.size and gap.min() < -tol:
        k = int(np.argmin(gap))
        raise ValueError(f"table is not submodular{how}: violated at "
                         f"S=mask {int(base[k])}, i={int(i[k])}, j={int(j[k])}")


class DirectedCut(SetFunction):
    """Weighted directed cut: f(S) = sum of w(a->b) over arcs with a in S,
    b not in S.  Nonnegative and submodular by construction, and non-monotone
    whenever the graph has at least one arc.

    The closed forms read only the (n, n) weight matrix ``W`` (parallel arcs
    summed): F(x) = x^T W (1 - x), grad F(x) = W (1 - x) - W^T x, and
    dF/dx_i = (1 - x) . W[i, :] - x . W[:, i], O(n) per row.  ``value_batch``
    reads the arc lists, so it stays an independent check on W."""

    kind = "directed-cut"
    has_closed_form = True

    def __init__(self, n: int, arcs):
        super().__init__(n)
        try:
            tails, heads, weights = zip(*arcs, strict=True) if arcs else ((), (), ())
        except ValueError:
            raise ValueError("each arc must be [tail, head, weight]") from None
        src = _indices(tails, self.n, "arc endpoint")
        dst = _indices(heads, self.n, "arc endpoint")
        w = _reals(weights, "arc weights")
        if np.any(src == dst):
            raise ValueError("self-loop arcs are not allowed")
        if w.size and w.min() < 0:
            raise ValueError("arc weights must be nonnegative")
        self.src, self.dst, self.w = src, dst, w

    @cached_property
    def W(self) -> np.ndarray:
        # built on first closed-form use, so a built instance costs no n^2
        # memory until it is solved
        W = np.zeros((self.n, self.n))
        np.add.at(W, (self.src, self.dst), self.w)
        return W

    def value_batch(self, masks: np.ndarray) -> np.ndarray:
        _check_masks(masks, self.n)
        in_src = (masks[:, None] >> self.src[None, :]) & 1
        in_dst = (masks[:, None] >> self.dst[None, :]) & 1
        return (in_src * (1 - in_dst)).astype(float) @ self.w

    def closed_form_batch(self, X: np.ndarray) -> np.ndarray:
        return np.einsum("ri,ri->r", X @ self.W, 1.0 - X)

    def closed_form_grad(self, x: np.ndarray) -> np.ndarray:
        # one stacked vector-matrix product per row, so each row's rounding
        # does not depend on the batch, as a 2-d matrix product's may
        X = np.atleast_2d(x)[:, None, :]
        return ((1.0 - X) @ self.W.T - X @ self.W).reshape(np.shape(x))

    def closed_form_partial(self, i, X):
        return (1.0 - X) @ self.W[i] - X @ self.W[:, i]


class Coverage(SetFunction):
    """Weighted coverage: element i covers a fixed item set, and
    f(S) = total weight of items covered by S.  Monotone submodular.

    The closed forms read the owner table: column j lists item j's covering
    elements in ascending order, padded with n, which points at a constant
    factor 1.0.  A survival product prod_{i covers j} (1 - x_i) is taken
    down column j, one owner slot at a time over every row of the batch.
    Multiplying by 1.0 is exact, so each product rounds as the same product
    taken down the (n, m) incidence matrix does.  ``value_batch`` reads the
    incidence matrix, so it stays an independent check."""

    kind = "coverage"
    has_closed_form = True

    def __init__(self, n: int, covers, item_weights):
        super().__init__(n)
        self.item_weights = _reals(item_weights, "item weights")
        m = self.item_weights.size
        if m and self.item_weights.min() < 0:
            raise ValueError("item weights must be nonnegative")
        if len(covers) != self.n:
            raise ValueError(f"need one cover list per element, got {len(covers)}")
        owners = np.repeat(np.arange(self.n), list(map(len, covers)))
        items = _indices(list(chain.from_iterable(covers)), m, "covered item")
        self.incidence = np.zeros((self.n, m), dtype=bool)
        self.incidence[owners, items] = True

    @cached_property
    def owners(self) -> np.ndarray:
        # built on first closed-form use, as a cut's W is: the (d, m) owner
        # table, d the largest item degree; row t of column j is item j's
        # t-th covering element, or n past its last
        items, elements = np.nonzero(self.incidence.T)
        m = self.incidence.shape[1]
        degree = np.bincount(items, minlength=m)
        table = np.full((degree.max(initial=0), m), self.n)
        table[np.arange(items.size) - (np.cumsum(degree) - degree)[items], items] = elements
        return table

    @cached_property
    def _grad_gather(self) -> np.ndarray:
        # for each (element, item) place of the (n, m) layout, its slot in
        # the flat (d, m) leave-one-out table, or the slot past the table's
        # end (a 0.0) where the element does not cover the item
        d, m = self.owners.shape
        slots = np.full((self.n + 1, m), d * m)
        slots[self.owners, np.arange(m)] = np.arange(d * m).reshape(d, m)
        return slots[:-1]

    def _misses(self, X: np.ndarray) -> np.ndarray:
        # element-major: row i holds the factors 1 - x_i of every batch row,
        # and row n the constant 1.0, so each owner slot gathers whole rows
        miss = np.empty((self.n + 1, X.shape[0]))
        np.subtract(1.0, X.T, out=miss[:-1])
        miss[-1] = 1.0
        return miss

    def value_batch(self, masks: np.ndarray) -> np.ndarray:
        _check_masks(masks, self.n)
        bits = _mask_bits(masks, self.n)
        covered = bits.astype(float) @ self.incidence > 0
        return covered @ self.item_weights

    def closed_form_batch(self, X: np.ndarray) -> np.ndarray:
        # F(x) = sum_j w_j * (1 - prod_{i covers j} (1 - x_i)).  A row's
        # value depends on its place in the block of the final matrix-vector
        # product, so the rows go in blocks of 2^21 / (n m), which also
        # bounds each block's (d, m, rows) factors.
        miss = self._misses(X)
        out = np.empty(X.shape[0])
        rows = max(1, (1 << 21) // max(1, self.incidence.size))
        for lo in range(0, X.shape[0], rows):
            surv = np.prod(np.take(miss[:, lo:lo + rows], self.owners, axis=0), axis=0)
            out[lo:lo + rows] = np.subtract(1.0, surv.T, order="C") @ self.item_weights
        return out

    def closed_form_grad(self, x: np.ndarray) -> np.ndarray:
        # dF/dx_i = sum_{j covered by i} w_j prod_{k covers j, k != i} (1 - x_k).
        # The leave-one-out products come from exclusive prefix and suffix
        # products down each owner column, not from dividing the full
        # product, so they stay exact when some x_k = 1: one multiply per
        # slot over an (m, R) slab of the batch.  They are gathered into the
        # C-contiguous (R, n, m) layout, zero where i does not cover j, and
        # one stacked vector product per row sums each row as the one point
        # does.
        X = np.atleast_2d(x)
        d, m = self.owners.shape
        miss = np.take(self._misses(X), self.owners, axis=0)
        loo = np.empty((d * m + 1, X.shape[0]))
        loo[-1] = 0.0
        prefix = loo[:-1].reshape(d, m, X.shape[0])
        if d:
            prefix[0] = 1.0
            for t in range(1, d):
                np.multiply(prefix[t - 1], miss[t - 1], out=prefix[t])
            suffix = miss[d - 1].copy()
            for t in range(d - 2, -1, -1):
                prefix[t] *= suffix
                suffix *= miss[t]
        G = np.take(loo.T.copy(), self._grad_gather, axis=1) @ self.item_weights
        return G.reshape(np.shape(x))

    def closed_form_partial(self, i, X):
        # the same sum over i's items only, each survival product taken down
        # the item's owner column with x_i's factor set to 1 (no division)
        items = np.flatnonzero(self.incidence[i])
        owners = self.owners[:, items]
        owners[owners == i] = self.n
        surv = np.prod(np.take(self._misses(X), owners, axis=0), axis=0)
        return np.ascontiguousarray(surv.T) @ self.item_weights[items]


# ---------------------------------------------------------------------------
# Extension evaluation


def default_config(f: SetFunction) -> EstimatorConfig:
    """Closed form when the family has one, exact enumeration otherwise."""
    return EstimatorConfig(mode="closed" if f.has_closed_form else "exact")


def _points(n: int, x) -> np.ndarray:
    """x as a float array, checked to be one point of n coordinates or an
    (R, n) batch of them: the one shape check of every point, weight and
    bound input."""
    xv = as_array(x)
    if xv.ndim not in (1, 2) or xv.shape[-1] != n:
        raise ValueError(f"expected a point of {n} coordinates or an (R, {n}) "
                         f"batch, got shape {xv.shape}")
    return xv


def multilinear_batch(f: SetFunction, X: np.ndarray, cfg: EstimatorConfig) -> np.ndarray:
    """Evaluate F at every row of X in any mode: the family's polynomial
    (closed), the contracted value table (exact), or the mean of f over
    sampled sets (mc).  The mc rows of one call share one draw."""
    X = np.atleast_2d(_points(f.n, X))
    if cfg.mode == "closed":
        return f.closed_form_batch(X)
    if cfg.mode == "mc":
        U = _uniforms(f.n, cfg)
        return np.array([_vertex_values(f, U < x).mean() for x in X])
    # exact: contract the table one element (bit) at a time, lowest bit
    # first.  The first step is a matmul: as a broadcast over the few rows of
    # a gradient it runs 1.5x slower at n = 12.  Per chunk, the first product
    # and the next step's temporaries peak at 2^24 entries.
    table = f.full_table()
    out = np.empty(X.shape[0])
    chunk = max(1, (1 << 24) >> f.n)
    for lo in range(0, X.shape[0], chunk):
        x = X[lo:lo + chunk].T
        V = table.reshape(-1, 2) @ np.stack([1.0 - x[0], x[0]])
        for xi in x[1:]:
            V = V.reshape(-1, 2, xi.size)
            V = V[:, 0] * (1.0 - xi) + V[:, 1] * xi
        out[lo:lo + chunk] = V[0]
    return out


def _uniforms(n: int, cfg: EstimatorConfig) -> np.ndarray:
    """The (sample_count, n) uniforms U of one mc call; row x reads the sets
    R(x) = U < x.  All rows share U (common random numbers), which preserves
    the antitone structure of gradient estimates far better than independent
    draws: as 0 <= U < 1, the rows x_i = 1 and x_i = 0 of a one-coordinate
    gradient read the sets R(x) with i forced in and out."""
    if cfg.sample_count * n > MC_DRAW_LIMIT:
        raise EstimatorError(f"mc draw of {cfg.sample_count} x {n} uniforms "
                             f"exceeds {MC_DRAW_LIMIT}")
    return cfg.rng().random((cfg.sample_count, n))


def _mc_values(f: SetFunction, x: np.ndarray, cfg: EstimatorConfig) -> np.ndarray:
    """Per-sample values f(R(x)) for cfg.sample_count independent draws."""
    return _vertex_values(f, _uniforms(f.n, cfg) < x[None, :])


def _vertex_values(f: SetFunction, R: np.ndarray) -> np.ndarray:
    if f.has_closed_form:
        return f.closed_form_batch(R.astype(float))
    masks = R @ (np.int64(1) << np.arange(f.n, dtype=np.int64))
    return f.value_batch(masks)


def multilinear(f: SetFunction, x, cfg: EstimatorConfig | None = None) -> float:
    """The extension value F(x) under the configured estimator."""
    if cfg is None:
        cfg = default_config(f)
    return float(multilinear_batch(f, as_array(x)[None, :], cfg)[0])


def one_coordinate_gradient(f: SetFunction, x, cfg: EstimatorConfig) -> np.ndarray:
    """dF/dx_i = F(x with x_i=1) - F(x with x_i=0) for every coordinate of
    one point, or of each row of an (R, n) batch, from 2n extension rows per
    point in one batch.  This is the gradient in exact and mc modes; in
    closed mode it is the reference the analytic gradients are checked
    against."""
    xv = _points(f.n, x)
    n = f.n
    X = np.repeat(np.atleast_2d(xv)[:, None, :], 2 * n, axis=1)
    X[:, np.arange(n), np.arange(n)] = 1.0
    X[:, n + np.arange(n), np.arange(n)] = 0.0
    vals = multilinear_batch(f, X.reshape(-1, n), cfg).reshape(-1, 2 * n)
    return (vals[:, :n] - vals[:, n:]).reshape(xv.shape)


def gradient(f: SetFunction, x, cfg: EstimatorConfig | None = None) -> np.ndarray:
    """The gradient of F at x, or at each row of an (R, n) batch; every row
    is the one-point gradient, bit for bit.  Closed mode differentiates the
    family's polynomial analytically; exact and mc modes use the
    one-coordinate identity (in mc mode every row reads one draw)."""
    if cfg is None:
        cfg = default_config(f)
    if cfg.mode == "closed":
        return f.closed_form_grad(_points(f.n, x))
    return one_coordinate_gradient(f, x, cfg)


def residual_gradient(f: SetFunction, x, cfg: EstimatorConfig | None = None) -> np.ndarray:
    """gradient(f, x) * (1 - x), the effective gain direction under the
    multiplicative update, at one point or each row of a batch."""
    xv = as_array(x)
    return gradient(f, xv, cfg) * (1.0 - xv)


def max_singleton(f: SetFunction) -> float:
    """max_i f({i}); the scale constant in the smoothness bounds."""
    return float(_vertex_values(f, np.eye(f.n, dtype=bool)).max())
