"""Instance documents, seeded generators, and result records.

Instances are JSON documents with one canonical serialization (sorted keys,
two-space indent, trailing newline), so parse -> serialize is byte-identical
on canonical input and a given generator seed always produces the same file.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from json.encoder import encode_basestring_ascii

import numpy as np

from .cgreedy import RunConfig, solve
from .errors import InstanceFormatError, InvalidSubsetError
from .setfn import (Coverage, DirectedCut, ExplicitTable, SetFunction, _number, _seed,
                    _seed_sequence)
from .polytope import (CardinalityPolytope, KnapsackPolytope,
                       PartitionMatroidPolytope, Polytope)
from .verify import BRUTE_FORCE_LIMIT, brute_force_opt

SCHEMA_VERSION = 1
FUNCTION_KINDS = ("directed-cut", "coverage", "explicit-table")
CONSTRAINT_KINDS = ("cardinality", "partition-matroid", "knapsack")
# generating a table enumerates cut and coverage over all 2^n subsets, in
# blocks of setfn.MASK_BLOCK masks: at n = 16/18/20 it took 0.07/0.24/1.3 s
# and peaked at 4/15/57 MB (tracemalloc), mostly the table and its list of
# floats; the limit keeps a document's table at 2^16 values
TABLE_GEN_LIMIT = 16
# generating a cut and solving build (n x n) arrays: 128 MB of floats at 4096
N_LIMIT = 4096

CSV_HEADER = "instance,n,constraint,alpha,delta,theta_best,best_value,opt_value,ratio"


# compact and C-backed: CPython's json runs its C encoder only without indent
_COMPACT = json.JSONEncoder(separators=(",", ":"))
_NUMBERS = frozenset((int, float))


def canonical_json(doc) -> str:
    """``json.dumps(doc, sort_keys=True, indent=2) + "\\n"``, byte for byte,
    for documents whose keys are strings.  That call encodes every number in
    Python; here each list of numbers, and each list of non-empty number
    lists, is encoded once by the C encoder and re-indented."""
    return _indented(doc, "\n") + "\n"


def _indented(o, pad: str) -> str:
    """o as indented JSON; pad is a newline and the indent of o's line."""
    inner = pad + "  "
    if isinstance(o, dict):
        if not o:
            return "{}"
        items = (f"{inner}{encode_basestring_ascii(k)}: {_indented(o[k], inner)}"
                 for k in sorted(o))
        return "{" + ",".join(items) + pad + "}"
    if not isinstance(o, (list, tuple)):
        return _COMPACT.encode(o)
    if not o:
        return "[]"
    if _NUMBERS.issuperset(map(type, o)):
        body = _COMPACT.encode(o)[1:-1].replace(",", "," + inner)
    elif all(type(r) is list and r and _NUMBERS.issuperset(map(type, r)) for r in o):
        # re-indent the inner lists' commas, then the "],[" between them
        deep = inner + "  "
        body = _COMPACT.encode(o)[2:-2].replace(",", "," + deep).replace(
            "]," + deep + "[", inner + "]," + inner + "[" + deep)
        body = "[" + deep + body + inner + "]"
    else:
        body = ("," + inner).join(_indented(x, inner) for x in o)
    return "[" + inner + body + pad + "]"


@contextmanager
def _payload_errors(part: str, kind: str):
    """Report a constructor's complaint about a payload as InstanceFormatError."""
    try:
        yield
    except KeyError as e:
        raise InstanceFormatError(f"{part} payload missing field {e.args[0]!r}") from e
    except (TypeError, ValueError, IndexError, InvalidSubsetError) as e:
        raise InstanceFormatError(f"invalid {kind} {part} payload: {e}") from e


def _check_kinds(function_kind, constraint_kind) -> None:
    """The one check of both vocabularies, for documents and generators."""
    for part, kind, kinds in (("function", function_kind, FUNCTION_KINDS),
                              ("constraint", constraint_kind, CONSTRAINT_KINDS)):
        if kind not in kinds:
            raise InstanceFormatError(
                f"unknown {part} kind {kind!r} (schema_version {SCHEMA_VERSION})")


@dataclass
class InstanceFile:
    n: int
    function: dict
    constraint: dict
    metadata: dict = field(default_factory=dict)
    schema_version: int = SCHEMA_VERSION

    @property
    def name(self) -> str:
        return self.metadata.get("name", f"instance-n{self.n}")

    def to_json(self) -> str:
        return canonical_json({
            "schema_version": self.schema_version,
            "n": self.n,
            "function": self.function,
            "constraint": self.constraint,
            "metadata": self.metadata,
        })

    @classmethod
    def from_json(cls, text: str) -> "InstanceFile":
        try:
            doc = json.loads(text)
        except json.JSONDecodeError as e:
            raise InstanceFormatError(
                f"not valid JSON at line {e.lineno}, column {e.colno}: {e.msg}") from e
        if not isinstance(doc, dict):
            raise InstanceFormatError("instance document must be a JSON object")
        version = doc.get("schema_version")
        if _number(version, int) != SCHEMA_VERSION:
            raise InstanceFormatError(
                f"unsupported schema_version {version!r}; this build reads "
                f"version {SCHEMA_VERSION}")
        for fld in ("n", "function", "constraint"):
            if fld not in doc:
                raise InstanceFormatError(f"missing required field {fld!r}")
        n = doc["n"]
        if _number(n, int) is None or not 1 <= n <= N_LIMIT:
            raise InstanceFormatError(
                f"field 'n' must be a positive integer <= {N_LIMIT}, got {n!r}")
        for fld in ("function", "constraint", "metadata"):
            if not isinstance(doc.get(fld, {}), dict):
                raise InstanceFormatError(f"field {fld!r} must be a JSON object")
        _check_kinds(doc["function"].get("kind"), doc["constraint"].get("kind"))
        return cls(n=n, function=doc["function"],
                   constraint=doc["constraint"],
                   metadata=doc.get("metadata", {}),
                   schema_version=version)

    def build_function(self) -> SetFunction:
        desc = self.function
        kind = desc["kind"]
        with _payload_errors("function", kind):
            if kind == "directed-cut":
                return DirectedCut(self.n, desc["arcs"])
            if kind == "coverage":
                return Coverage(self.n, desc["covers"], desc["item_weights"])
            return ExplicitTable(self.n, desc["values"])

    def build_constraint(self) -> Polytope:
        desc = self.constraint
        kind = desc["kind"]
        with _payload_errors("constraint", kind):
            if kind == "cardinality":
                return CardinalityPolytope(self.n, desc["k"])
            if kind == "partition-matroid":
                return PartitionMatroidPolytope(self.n, desc["blocks"], desc["budgets"])
            return KnapsackPolytope(self.n, desc["costs"], desc["budget"])

    def build(self) -> tuple[SetFunction, Polytope]:
        return self.build_function(), self.build_constraint()


def parse_instance(text: str) -> InstanceFile:
    return InstanceFile.from_json(text)


def serialize_instance(inst: InstanceFile) -> str:
    return inst.to_json()


# ---------------------------------------------------------------------------
# Seeded generation

_FK_LABEL = {k: i for i, k in enumerate(FUNCTION_KINDS)}
_CK_LABEL = {k: i for i, k in enumerate(CONSTRAINT_KINDS)}


def _rng_for(kind: str, n: int, constraint: str, seed: int) -> np.random.Generator:
    return np.random.default_rng(
        _seed_sequence(seed, (_FK_LABEL[kind], _CK_LABEL[constraint], n)))


def _gen_cut_desc(rng, n) -> dict:
    while True:
        keep = rng.random((n, n)) < 0.45
        np.fill_diagonal(keep, False)
        pairs = np.argwhere(keep)
        if pairs.size:
            break
    weights = 1.0 - rng.random(pairs.shape[0])  # Uniform(0, 1]
    arcs = [[a, b, w] for (a, b), w in zip(pairs.tolist(), weights.tolist())]
    return {"kind": "directed-cut", "arcs": arcs}


def _gen_coverage_desc(rng, n) -> dict:
    m = 2 * n
    while True:
        inc = rng.random((n, m)) < 0.3
        if inc.any():
            break
    weights = 1.0 - rng.random(m)
    covers = [np.nonzero(inc[i])[0].tolist() for i in range(n)]
    return {"kind": "coverage", "covers": covers, "item_weights": weights.tolist()}


def _gen_constraint_desc(rng, n, constraint) -> dict:
    if constraint == "cardinality":
        return {"kind": constraint, "k": int(rng.integers(1, max(2, n // 2) + 1))}
    if constraint == "partition-matroid":
        n_blocks = int(rng.integers(2, min(4, n) + 1))
        cuts = np.sort(rng.choice(np.arange(1, n), size=n_blocks - 1, replace=False))
        bounds = [0, *cuts.tolist(), n]
        blocks = [list(range(bounds[i], bounds[i + 1])) for i in range(n_blocks)]
        budgets = [int(rng.integers(1, len(b) + 1)) for b in blocks]
        return {"kind": constraint, "blocks": blocks, "budgets": budgets}
    costs = (0.5 + rng.random(n)).tolist()
    budget = float(rng.uniform(0.25, 0.6) * sum(costs))
    return {"kind": constraint, "costs": costs, "budget": budget}


def gen(kind: str, n: int, constraint: str, seed: int) -> InstanceFile:
    """Deterministic random instance; identical arguments give identical
    documents, byte for byte."""
    _check_kinds(kind, constraint)
    seed = _seed(seed, "seed", InstanceFormatError)
    if _number(n, int) is None or not 2 <= n <= N_LIMIT:
        raise InstanceFormatError(f"generated instances need 2 <= n <= {N_LIMIT}")
    if kind == "explicit-table" and n > TABLE_GEN_LIMIT:
        raise InstanceFormatError(
            f"explicit-table generation limited to n <= {TABLE_GEN_LIMIT}, got n={n}")
    rng = _rng_for(kind, n, constraint, seed)
    if kind == "directed-cut":
        fdesc = _gen_cut_desc(rng, n)
    elif kind == "coverage":
        fdesc = _gen_coverage_desc(rng, n)
    else:
        # nonnegative submodular by construction: coverage plus cut mixture
        cut = DirectedCut(n, _gen_cut_desc(rng, n)["arcs"])
        cov_desc = _gen_coverage_desc(rng, n)
        cov = Coverage(n, cov_desc["covers"], cov_desc["item_weights"])
        table = cut.full_table() + cov.full_table()
        fdesc = {"kind": "explicit-table", "values": table.tolist()}
    cdesc = _gen_constraint_desc(rng, n, constraint)
    meta = {"name": f"{kind}-{constraint}-n{n}-s{seed}", "seed": seed,
            "generator": f"{kind}/{constraint}"}
    return InstanceFile(n=n, function=fdesc, constraint=cdesc, metadata=meta)


def desk_corpus(seed: int = 1) -> list[InstanceFile]:
    """The seeded benchmark corpus: both structural families, all three
    constraint kinds, n in [6, 12], 54 instances."""
    seed = _seed(seed, "seed", InstanceFormatError)
    out = []
    idx = 0
    for n, reps in ((6, 2), (8, 2), (9, 1), (10, 2), (12, 2)):
        for kind in ("directed-cut", "coverage"):
            for constraint in CONSTRAINT_KINDS:
                for _ in range(reps):
                    out.append(gen(kind, n, constraint, _child_seed(seed, idx)))
                    idx += 1
    return out


def _child_seed(seed: int, idx: int) -> int:
    return int(_seed_sequence(seed, (idx,)).generate_state(1, dtype=np.uint64)[0])


def mini_corpus(seed: int = 1) -> list[InstanceFile]:
    """A small battery covering every (kind, constraint) cell, for fast
    verification runs."""
    seed = _seed(seed, "seed", InstanceFormatError)
    out = []
    for i, kind in enumerate(FUNCTION_KINDS):
        for j, constraint in enumerate(CONSTRAINT_KINDS):
            out.append(gen(kind, 6, constraint, _child_seed(seed, 100 + i * 3 + j)))
    return out


# ---------------------------------------------------------------------------
# Results


@dataclass
class ResultRecord:
    """Everything one solver run produced.  Identical inputs give identical
    records except for wall_clock."""

    instance: str
    n: int
    constraint: str
    alpha: float
    delta: float
    theta_grid: list[float]
    seed: int
    mode: str
    best_value: float
    opt_value: float | None
    ratio: float | None
    theta_best: float | None
    branch_best: str
    per_theta: list[dict]
    diagnostics: list[dict]
    wall_clock: float

    def to_json(self) -> str:
        return canonical_json(self.__dict__)

    def csv_row(self) -> str:
        def fmt(x):
            return "" if x is None else (repr(x) if isinstance(x, float) else str(x))
        return ",".join([
            self.instance, str(self.n), self.constraint, fmt(self.alpha),
            fmt(self.delta), fmt(self.theta_best), fmt(self.best_value),
            fmt(self.opt_value), fmt(self.ratio)])


def run_instance(inst: InstanceFile, run: RunConfig | None = None,
                 seed: int = 0, compute_opt: bool = True) -> ResultRecord:
    """Solve one instance end to end, with the brute-force optimum and the
    bound diagnostics attached whenever the instance is small enough."""
    if run is None:
        run = RunConfig()
    f, C = inst.build()
    t0 = time.perf_counter()
    opt_value = None
    if compute_opt and f.n <= BRUTE_FORCE_LIMIT:
        _, opt_value = brute_force_opt(f, C)
    report = solve(f, C, run, opt_value=opt_value)
    elapsed = time.perf_counter() - t0
    ratio = None
    if opt_value is not None and opt_value > 0:
        ratio = report.best_value / opt_value
    cfg = run.resolve_cfg(f)
    return ResultRecord(
        instance=inst.name,
        n=inst.n,
        constraint=C.describe(),
        alpha=run.alpha,
        delta=run.delta,
        theta_grid=list(run.theta_grid),
        seed=seed,
        mode=cfg.mode,
        best_value=report.best_value,
        opt_value=opt_value,
        ratio=ratio,
        theta_best=report.best_theta,
        branch_best=report.best_branch,
        per_theta=[{"theta": r.theta, "y1_value": r.y1_value,
                    "z_value": r.z_value} for r in report.per_theta],
        diagnostics=[{"name": d.name, "theta": d.theta, "passed": d.passed}
                     for d in report.diagnostics],
        wall_clock=elapsed,
    )
