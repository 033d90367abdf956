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
one-row case.  ``multilinear_batch``, ``one_coordinate_gradient`` and the
families' ``closed_form_*`` kernels take an (R, n) batch, as the solver's
Euler loop and the double greedy run them; ``multilinear`` and ``gradient``
take one point (``_point``).  In exact and mc modes,
and for explicit tables, partial derivatives go through the one-coordinate
identity, 2n rows of one batch: dF/dx_i = F(x with x_i=1) - F(x with x_i=0).
Because F is multilinear this is exact; no finite-difference fuzz is ever
involved.  In closed mode each structural family differentiates its
polynomial analytically: ``closed_form_grad`` gives the whole gradient at
one point or at every row of an (R, n) batch, each row as the one point
gives it, and ``closed_form_partial(i, X)`` gives the single partial dF/dx_i
at every row of X in O(n) for a cut and O(n |covers_i|) for coverage, which
is what the double greedy needs at each coordinate.  For a cut with weight
matrix W these are F(x) = x^T W (1 - x), grad F(x) = W (1 - x) - W^T x and
dF/dx_i = (1 - x) . W[i, :] - x . W[:, i].  A coverage gradient is two
stacked vector-matrix products per row against the (n, m) incidence matrix,
in the log domain, with the factors at x_k = 1 counted apart so that
nothing is divided by zero there; its extension and partial take survival
products down the owner table.  The identity stays the reference both
families are tested against (``one_coordinate_gradient``).

Batches of integer masks (each family's ``value_batch``, each body's
``contains_mask_batch``, and so brute force and ``full_table``) are
evaluated in blocks of ``MASK_BLOCK`` masks (``_mask_blocks``), so a call
holds one block's (masks x arcs) rows at a time: at n = 16 every such call
peaks under 2 MB (tracemalloc), where one product over the whole batch took
up to 222 MB.  The blocks keep the bytes of that one product.  A
matrix-vector product rounds a row by its place in the call, so the block
size is fixed, and a lone last mask joins the block before it (numpy
multiplies a one-row matrix as a dot product).  A cut's gathered columns are
copied into a C-ordered float matrix: the gather is F-ordered, and BLAS
multiplies that with another kernel.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from functools import cached_property
from itertools import chain
from collections.abc import Iterable, Sequence
from typing import Union

import numpy as np

from .errors import ConfigError, EstimatorError, InvalidSubsetError

COORD_TOL = 1e-12
EXACT_ENUM_LIMIT = 25   # 2^n subset weights; the desk-scale ceiling
SUBMOD_CHECK_LIMIT = 12  # exhaustive submodularity check on explicit tables
SUBMOD_SAMPLES = 1 << 16  # seeded (S, i, j) samples checked above that size
MC_DRAW_LIMIT = 1 << 27  # float64 uniforms in one mc draw: 1 GiB
# masks per block of a mask batch; fixed, since a matrix-vector product
# rounds a row by its place in the block
MASK_BLOCK = 1024

MODES = ("exact", "closed", "mc")
ALPHA_MIN = 0.5  # the cap alpha of a run or a bound lies in [1/2, 1]

SubsetLike = Union[int, Iterable[int]]


def _number(value, kinds=(int, float)):
    """value as a plain number if it is one of kinds, else None: a bool, a
    string or None is no number, and a float such as 2.0 is no int."""
    if isinstance(value, (np.integer, np.floating)):
        value = value.item()  # plain, so that comparisons are exact
    if isinstance(value, bool) or not isinstance(value, kinds):
        return None
    return value


def _holds_bool(values) -> bool:
    """Whether a list holds a bool, which numpy reads as 0 or 1 among numbers."""
    return not {bool, np.bool_}.isdisjoint(map(type, values))


def _positive_int(value, what: str, error: type[Exception] = ValueError) -> int:
    """A positive integer as a plain int."""
    n = _number(value, int)
    if n is None or n < 1:
        raise error(f"{what} must be a positive integer, got {value!r}")
    return n


def _seed(value, what: str, error: type[Exception]) -> int:
    """A seed as a plain int: any integer, negative ones too (``submax solve
    --seed`` takes any int)."""
    seed = _number(value, int)
    if seed is None:
        raise error(f"{what} must be an integer, got {value!r}")
    return seed


def _seed_sequence(seed: int, spawn_key: tuple[int, ...] = ()) -> np.random.SeedSequence:
    """The stream of an integer seed, which reads its low 64 bits."""
    return np.random.SeedSequence(entropy=seed & (2**64 - 1), spawn_key=spawn_key)


def _real(value, what: str) -> float:
    """A finite real number as a plain float; the range is the caller's check."""
    x = _number(value)
    if x is None or not abs(x) <= sys.float_info.max:
        raise ConfigError(f"{what} must be a finite real number, got {value!r}")
    return float(x)


def _positive_real(value, what: str) -> float:
    """A positive finite real number as a plain float."""
    x = _number(value)
    if x is None or not 0 < x <= sys.float_info.max:
        raise ValueError(f"{what} must be positive and finite, got {value!r}")
    return float(x)


def _unit(value, what: str, lo: float = 0.0) -> float:
    """A real number in [lo, 1] as a plain float: a switch time theta, or
    the cap alpha with lo = ALPHA_MIN."""
    x = _real(value, what)
    if not lo <= x <= 1.0:
        raise ConfigError(f"{what} must lie in [{lo:g}, 1], got {x}")
    return x


def as_mask(S: SubsetLike, n: int) -> int:
    """Canonicalize a subset (bitmask int, or iterable of element indices)
    to a bitmask with bit i <-> element i; a bool, a float or an element
    that is not an integer index is rejected, never truncated."""
    m = _number(S, int)
    if m is None:
        if not isinstance(S, Iterable):
            raise ValueError(f"a subset is a bitmask or a list of elements, got {S!r}")
        return sum(1 << i for i in set(_indices(S, n, "element").tolist()))
    if m < 0 or m >> n:
        raise InvalidSubsetError(f"bitmask {m} outside ground set of size {n}")
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
        lo, hi = v.min(), v.max()
        # a NaN fails both comparisons, an infinity the one on its side
        if not (lo >= -COORD_TOL and hi <= 1.0 + COORD_TOL):
            if not np.all(np.isfinite(v)):
                raise ValueError("point coordinates must be finite")
            raise ValueError(f"coordinates outside [0,1] beyond tolerance: {v}")
        if lo < 0.0 or hi > 1.0:
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
        if self.mode not in MODES:
            raise EstimatorError(f"unknown evaluation mode {self.mode!r}")
        object.__setattr__(self, "sample_count",
                           _positive_int(self.sample_count, "sample_count", EstimatorError))
        object.__setattr__(self, "rng_seed", _seed(self.rng_seed, "rng_seed", EstimatorError))

    def substream(self, *labels: int) -> "EstimatorConfig":
        return EstimatorConfig(self.mode, self.sample_count, self.rng_seed,
                               self.stream + tuple(int(l) for l in labels))

    def rng(self) -> np.random.Generator:
        return np.random.Generator(np.random.Philox(_seed_sequence(self.rng_seed, self.stream)))


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


def _mask_blocks(masks: np.ndarray, n: int):
    """Each block of MASK_BLOCK masks as (start, its (m, n) boolean
    membership), so that no evaluator holds more than one block's rows.  A
    lone last mask joins the block before it: numpy multiplies a one-row
    matrix as a dot product, which adds in another order than the row of a
    matrix-vector product."""
    m = len(masks)
    for lo in range(0, m - 1 or m, MASK_BLOCK):
        hi = lo + MASK_BLOCK if lo + MASK_BLOCK < m - 1 else m
        yield lo, _mask_bits(masks[lo:hi], n)


def _check_masks(masks: np.ndarray, n: int) -> None:
    if masks.size and (masks.min() < 0 or masks.max() >> n):
        raise InvalidSubsetError("bitmask outside ground set")


def _indices(values, size: int, what: str) -> np.ndarray:
    """Integer indices in [0, size) as an int64 array; anything else is
    rejected, never truncated."""
    if isinstance(values, Iterable) and not isinstance(values, (Sequence, np.ndarray)):
        values = list(values)  # a set or a generator, which numpy reads as one object
    idx = np.asarray(values)
    if idx.size == 0:
        return np.zeros(0, dtype=np.int64)
    if idx.ndim != 1 or idx.dtype.kind not in "iu" or _holds_bool(values):
        bad = next((v for v in values if _number(v, int) is None), values)
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
    if arr.ndim != 1 or (arr.size and arr.dtype.kind not in "iuf") or _holds_bool(values):
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


def _check_submodular_table(vals: np.ndarray, n: int) -> None:
    """Pairwise check f(S+i) + f(S+j) >= f(S+i+j) + f(S) - 1e-12 max|f|: over
    every (S, i, j) for n <= SUBMOD_CHECK_LIMIT, over SUBMOD_SAMPLES seeded
    draws above, so a given table is always accepted or always rejected."""
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
    if gap.size and gap.min() < -1e-12 * float(np.abs(vals).max()):
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
        # the cut arcs of a block as a C-ordered 0/1 float matrix: the
        # column gather is F-ordered, and BLAS multiplies that in another
        # order
        _check_masks(masks, self.n)
        out = np.empty(len(masks))
        for lo, bits in _mask_blocks(masks, self.n):
            cut = bits[:, self.src] & ~bits[:, self.dst]
            out[lo:lo + len(bits)] = cut.astype(float, order="C") @ self.w
        return out

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

    The extension and the partial read the owner table: column j lists item
    j's covering elements in ascending order, padded with n, which points at
    a constant factor 1.0.  A survival product prod_{i covers j} (1 - x_i)
    is taken down column j, one owner slot at a time over every row of the
    batch.  Multiplying by 1.0 is exact, so each product rounds as the same
    product taken down the (n, m) incidence matrix does.  The gradient reads
    the incidence matrix as floats, ``A``: per row, one product sums each
    item's log factors and counts its factors at 0, and one sums each
    element's items (see ``closed_form_grad``), so a row holds O(n + m)
    floats.  ``value_batch`` reads the boolean incidence matrix, so it stays
    an independent check."""

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
        # every partial sums the weights of the element's items, so a
        # gradient's l1 norm, and <g, v> for any v in [0, 1]^n, is at most
        # sum_j w_j * deg_j; it must be finite as the weights' sum must be
        with np.errstate(over="ignore"):  # an overflowing bound is the error below
            bound = self.incidence.sum(axis=0) @ self.item_weights
        if not np.isfinite(bound):
            raise ValueError("item weights times their covering degrees must have "
                             "a finite sum, which bounds the gradient")

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
    def A(self) -> np.ndarray:
        # built on first gradient call, as the owner table is: the (n, m)
        # incidence matrix as floats, for the gradient's matrix products
        return self.incidence.astype(float)

    def _misses(self, X: np.ndarray) -> np.ndarray:
        # element-major: row i holds the factors 1 - x_i of every batch row,
        # and row n the constant 1.0, so each owner slot gathers whole rows
        miss = np.empty((self.n + 1, X.shape[0]))
        np.subtract(1.0, X.T, out=miss[:-1])
        miss[-1] = 1.0
        return miss

    def value_batch(self, masks: np.ndarray) -> np.ndarray:
        _check_masks(masks, self.n)
        out = np.empty(len(masks))
        for lo, bits in _mask_blocks(masks, self.n):
            covered = bits.astype(float) @ self.incidence > 0
            out[lo:lo + len(bits)] = covered @ self.item_weights
        return out

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
        # dF/dx_i = sum_{j covered by i} w_j prod_{k covers j, k != i} (1 - x_k),
        # from two stacked matrix products per row against A, so each row
        # rounds as the one point does.  The first sums log(1 - x_k) and
        # counts the zero factors (x_k = 1) of each item; the second sums
        # over each element's items P_j = w_j prod of item j's nonzero
        # factors.  An item with no zero factor feeds its owners, each
        # dividing out its own factor; an item with exactly one feeds only
        # the owner at x_k = 1, with nothing to divide out; one with more
        # feeds nothing.  The second product is A (n, m) times an (m, 2)
        # block per row, so both read A in its C order.
        X = np.atleast_2d(x)
        miss = 1.0 - X
        live = miss > 0.0
        T = np.zeros((X.shape[0], 2, self.n))
        np.log(miss, out=T[:, 0], where=live)
        T[:, 1] = ~live
        S = T @ self.A
        P = np.exp(S[:, 0])
        P *= self.item_weights
        Q = np.empty((X.shape[0], S.shape[2], 2))
        np.multiply(P, S[:, 1] == 0.0, out=Q[:, :, 0])
        np.multiply(P, S[:, 1] == 1.0, out=Q[:, :, 1])
        H = self.A @ Q
        G = np.divide(H[:, :, 0], miss, out=H[:, :, 1].copy(), where=live)
        return G.reshape(np.shape(x))

    def closed_form_partial(self, i, X):
        # the same sum over i's items only, each survival product taken down
        # the item's owner column with x_i's factor set to 1 (no division)
        items = np.flatnonzero(self.incidence[i])
        miss = self._misses(X)
        miss[i] = 1.0
        surv = np.prod(np.take(miss, self.owners[:, items], axis=0), axis=0)
        return np.ascontiguousarray(surv.T) @ self.item_weights[items]


# ---------------------------------------------------------------------------
# Extension evaluation


def default_config(f: SetFunction) -> EstimatorConfig:
    """Closed form when the family has one, exact enumeration otherwise."""
    return EstimatorConfig(mode="closed" if f.has_closed_form else "exact")


def _points(n: int, x) -> np.ndarray:
    """x as a float array, checked to be one point of n coordinates or an
    (R, n) batch of them: the shape check of the calls that take batches,
    ``multilinear_batch`` and ``one_coordinate_gradient``."""
    xv = as_array(x)
    if xv.ndim not in (1, 2) or xv.shape[-1] != n:
        raise ValueError(f"expected a point of {n} coordinates or an (R, {n}) "
                         f"batch, got shape {xv.shape}")
    return xv


def _point(n: int, x) -> np.ndarray:
    """x as a float array, checked to be one point of n coordinates: the
    shape check of every call that takes one point, the gradients, the
    oracle, membership and the verification oracles."""
    xv = as_array(x)
    if xv.shape != (n,):
        raise ValueError(f"expected one point of {n} coordinates, got shape {xv.shape}")
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


def _vertex_values(f: SetFunction, R: np.ndarray) -> np.ndarray:
    if f.has_closed_form:
        return f.closed_form_batch(R.astype(float))
    masks = R @ (np.int64(1) << np.arange(f.n, dtype=np.int64))
    return f.value_batch(masks)


def multilinear(f: SetFunction, x, cfg: EstimatorConfig | None = None) -> float:
    """The extension value F(x) under the configured estimator."""
    if cfg is None:
        cfg = default_config(f)
    return float(multilinear_batch(f, _point(f.n, x)[None, :], cfg)[0])


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
    """The gradient of F at the one point x.  Closed mode differentiates the
    family's polynomial analytically; exact and mc modes use the
    one-coordinate identity."""
    xv = _point(f.n, x)
    if cfg is None:
        cfg = default_config(f)
    if cfg.mode == "closed":
        return f.closed_form_grad(xv)
    return one_coordinate_gradient(f, xv, cfg)


def max_singleton(f: SetFunction) -> float:
    """max_i f({i}); the scale constant in the smoothness bounds."""
    return float(_vertex_values(f, np.eye(f.n, dtype=bool)).max())
