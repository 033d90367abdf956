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
take one point (``_point``).  In exact and mc modes, and for explicit
tables, partial derivatives go through the one-coordinate identity, 2n rows
of one batch: dF/dx_i = F(x with x_i=1) - F(x with x_i=0), exact because F
is multilinear.  In closed mode each structural family differentiates its
polynomial analytically: ``closed_form_grad`` gives the whole gradient at
one point or at every row of a batch, and ``closed_form_partial(i, X)`` the
single partial dF/dx_i at every row of X, which is what the double greedy
needs at each coordinate.  For a cut with weight matrix W these are
F(x) = x^T W (1 - x), grad F(x) = W (1 - x) - W^T x and
dF/dx_i = (1 - x) . W[i, :] - x . W[:, i].  Coverage holds one item-major
incidence, with ``A`` its float transpose, and reads all three kernels
through one log-sum product (``_log_sums``), with the factors at x_k = 1
counted apart so that nothing is divided by zero.  Every coverage kernel
answers each row as its one-row call does.  The identity stays the
reference both families are tested against (``one_coordinate_gradient``).

f on sets goes through each family's ``_vertex_values`` on 0/1 membership
rows, at any n: a cut's closed form, coverage's covered items (one product
of the rows with ``A``), and a table's lookup by bitmask.  Batches of rows
or integer masks (``_vertex_values``, each family's ``value_batch``, each
body's ``contains_mask_batch``, and so brute force and ``full_table``) are
evaluated in blocks of ``MASK_BLOCK`` rows (``_blocks``), so a call holds
one block's rows at a time: at n = 16 every mask call peaks under 2 MB
(tracemalloc), where one product over the whole batch took up to 222 MB.
The blocks keep the bytes of that one product.  A matrix-vector product
rounds a row by its place in the call, so the block size is fixed, and a
lone last row joins the block before it (numpy multiplies a one-row matrix
as a dot product).  A cut's gathered columns are copied into a C-ordered
float matrix: the gather is F-ordered, and BLAS multiplies that with
another kernel.
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
    # True only where every f in the family is monotone (f(S) <= f(T) for
    # S within T); a family opts in, so the default makes no claim
    monotone = False

    def __init__(self, n: int):
        self.n = _positive_int(n, "ground set size")
        self._table: np.ndarray | None = None

    def value(self, S: SubsetLike) -> float:
        """f(S) for a subset or bitmask, at any n (no int64 bitmask)."""
        return float(self._vertex_values(Point.indicator(self.n, S).v[None, :] > 0)[0])

    def value_batch(self, masks: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def _vertex_values(self, R: np.ndarray) -> np.ndarray:
        """f of each row of the boolean (r, n) matrix R, by bitmask (n < 63)."""
        return self.value_batch(R @ (np.int64(1) << np.arange(self.n, dtype=np.int64)))

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


def _blocks(m: int):
    """(start, stop) of each block of MASK_BLOCK rows of an m-row batch; a
    lone last row joins the block before it."""
    for lo in range(0, m - 1 or m, MASK_BLOCK):
        yield lo, lo + MASK_BLOCK if lo + MASK_BLOCK < m - 1 else m


def _mask_blocks(masks: np.ndarray, n: int):
    """Each block of MASK_BLOCK masks as (start, its (m, n) boolean
    membership)."""
    for lo, hi in _blocks(len(masks)):
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

    def _vertex_values(self, R: np.ndarray) -> np.ndarray:
        return self.closed_form_batch(R.astype(float))

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

    The incidence is held once, item-major: ``incidence`` is an (m, n)
    boolean array whose row j marks the elements that cover item j, and
    ``A`` is its float transpose, (n, m) in C order.  The three closed-form
    kernels read one log-sum product (``_log_sums``): per row, item j's sum
    S_j of log(1 - x_k) and its count of factors at x_k = 1.  f on sets
    (``value_batch``, ``_vertex_values``) sums the weights of the items a
    set covers, one block of rows times ``A`` at a time, with no log sum,
    so it stays an independent check on the closed forms."""

    kind = "coverage"
    has_closed_form = True
    monotone = True  # the item weights are checked nonnegative

    def __init__(self, n: int, covers, item_weights):
        super().__init__(n)
        self.item_weights = _reals(item_weights, "item weights")
        m = self.item_weights.size
        if m and self.item_weights.min() < 0:
            raise ValueError("item weights must be nonnegative")
        if len(covers) != self.n:
            raise ValueError(f"need one cover list per element, got {len(covers)}")
        elements = np.repeat(np.arange(self.n), list(map(len, covers)))
        items = _indices(list(chain.from_iterable(covers)), m, "covered item")
        self.incidence = np.zeros((m, self.n), dtype=bool)
        self.incidence[items, elements] = True
        # every partial sums the weights of the element's items, so a
        # gradient's l1 norm, and <g, v> for any v in [0, 1]^n, is at most
        # sum_j w_j * deg_j; it must be finite as the weights' sum must be
        with np.errstate(over="ignore"):  # an overflowing bound is the error below
            bound = self.incidence.sum(axis=1) @ self.item_weights
        if not np.isfinite(bound):
            raise ValueError("item weights times their covering degrees must have "
                             "a finite sum, which bounds the gradient")

    @cached_property
    def A(self) -> np.ndarray:
        # built on first use, as a cut's W is: the (n, m) incidence as floats
        # in C order, which BLAS multiplies with one kernel
        return self.incidence.T.astype(float, order="C")

    def value_batch(self, masks: np.ndarray) -> np.ndarray:
        _check_masks(masks, self.n)
        out = np.empty(len(masks))
        for lo, bits in _mask_blocks(masks, self.n):
            out[lo:lo + len(bits)] = self._vertex_values(bits)
        return out

    def _vertex_values(self, R: np.ndarray) -> np.ndarray:
        out = np.empty(len(R))
        for lo, hi in _blocks(len(R)):
            out[lo:hi] = (R[lo:hi].astype(float) @ self.A > 0) @ self.item_weights
        return out

    def closed_form_batch(self, X: np.ndarray) -> np.ndarray:
        # F(x) = sum_j w_j u_j with u_j = 1 - prod_{k covers j} (1 - x_k),
        # which is -expm1(S_j), or 1 where item j has a factor at 0
        S = _log_sums(1.0 - X, self.A)
        U = -np.expm1(S[:, :1])
        U[S[:, 1:] > 0.0] = 1.0
        return (U @ self.item_weights)[:, 0]

    def closed_form_grad(self, x: np.ndarray) -> np.ndarray:
        # dF/dx_i = sum_{j covered by i} w_j prod_{k covers j, k != i} (1 - x_k),
        # from two stacked matrix products per row against A.  The first is
        # the log sums; the second sums over each element's items
        # P_j = w_j prod of item j's nonzero factors.  An item with no zero
        # factor feeds its owners, each dividing out its own factor; an item
        # with exactly one feeds only the owner at x_k = 1, with nothing to
        # divide out; one with more feeds nothing.  The second product is
        # A (n, m) times an (m, 2) block per row, so both read A in its C
        # order.
        X = np.atleast_2d(x)
        miss = 1.0 - X
        S = _log_sums(miss, self.A)
        P = np.exp(S[:, 0])
        P *= self.item_weights
        Q = np.empty((X.shape[0], S.shape[2], 2))
        np.multiply(P, S[:, 1] == 0.0, out=Q[:, :, 0])
        np.multiply(P, S[:, 1] == 1.0, out=Q[:, :, 1])
        H = self.A @ Q
        G = np.divide(H[:, :, 0], miss, out=H[:, :, 1].copy(), where=miss > 0.0)
        return G.reshape(np.shape(x))

    def closed_form_partial(self, i, X):
        # the same sum over i's items only, with x_i set to 0 so that its
        # factor drops out of the log sums, against the float rows of i's
        # items: sum_j w_j exp(S_j) over the items with no factor at 0
        items = np.flatnonzero(self.incidence[:, i])
        miss = 1.0 - X
        miss[:, i] = 1.0
        S = _log_sums(miss, self.incidence[items].astype(float).T)
        P = np.exp(S[:, :1])
        P[S[:, 1:] > 0.0] = 0.0
        return (P @ self.item_weights[items])[:, 0]


def _log_sums(miss: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """For each row of miss = 1 - X, the sums of log(1 - x_k) and the counts
    of x_k = 1 against each column of the (n, c) 0/1 matrix cols, as an
    (R, 2, c) stack: one stacked (2, n) @ (n, c) product per row, so each
    row rounds as its one-row call does."""
    live = miss > 0.0
    T = np.zeros((miss.shape[0], 2, miss.shape[1]))
    np.log(miss, out=T[:, 0], where=live)
    T[:, 1] = ~live
    return T @ cols


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
        return np.array([f._vertex_values(U < x).mean() for x in X])
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
    return float(f._vertex_values(np.eye(f.n, dtype=bool)).max())
