"""The benchmark's workloads: which instances a run solves, and in what order.

Every workload is a closed loop with one client in one process: the next
instance starts only when the previous one has finished.  Instances come in
rounds of equal composition, one instance per stratum (function kind,
constraint body, size), and a timed run always finishes the round it is in.
So every run solves the same mix of kinds and sizes, and the rate does not
depend on where the clock ran out.

``--seed`` selects one of POOL_SEEDS corpora (seed mod POOL_SEEDS).  Every
instance of every corpus has a committed reference result in
reference.json, so a run can be checked against the seed commit whatever
seed it is given.  A run that outlasts its corpus starts it again from the
first round.

BENCHMARK.json measures desk-closed and scale-closed on every change;
table-exact and opt-large are run by name for per-layer work.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from typing import Callable

import numpy as np

from submax import RunConfig, instances

POOL_SEEDS = 10
KINDS = ("directed-cut", "coverage")
BODIES = ("cardinality", "partition-matroid", "knapsack")

# The short grid of the scale tier: theta 0 (plain continuous greedy) and
# the tuned switch time 0.18.
SHORT_RUN = RunConfig(delta=0.02, theta_grid=(0.0, 0.18))
TABLE_RUN = RunConfig(delta=0.01, theta_grid=tuple(sorted(
    {round(0.1 * i, 10) for i in range(11)} | {0.18})))

# Sizes are capped so one round fits well inside a run: coverage at n=200
# alone takes ~22 s, and brute force at n=20 peaks at ~3.6 GB.
SCALE_SIZES = ((50, "cardinality"), (75, "partition-matroid"), (100, "knapsack"))
TABLE_SIZES = (8, 10, 12)
OPT_SIZES = (16, 17, 18)


@dataclass(frozen=True)
class Workload:
    name: str
    run: RunConfig
    with_opt: bool
    trace_rounds: int   # rounds in the traced (per-layer) run
    rounds: Callable[[int], list[list[instances.InstanceFile]]]


def corpus_seed(seed: int) -> int:
    return seed % POOL_SEEDS


def _seed(corpus: int, *key: int) -> int:
    seq = np.random.SeedSequence(entropy=corpus, spawn_key=key)
    return int(seq.generate_state(1, dtype=np.uint64)[0])


def _desk_rounds(corpus: int):
    # desk_corpus yields 6 strata (kind x body) of 9 instances, n ascending.
    # Round r takes index (r + 3j) mod 9 of stratum j: a permutation per
    # stratum, and small and large n mixed within each round.
    strata: dict[str, list] = {}
    for doc in instances.desk_corpus(corpus):
        strata.setdefault(doc.metadata["generator"], []).append(doc)
    cols = list(strata.values())
    k = len(cols[0])
    return [[col[(r + 3 * j) % k] for j, col in enumerate(cols)]
            for r in range(k)]


def _scale_rounds(corpus: int):
    return [[instances.gen(kind, n, body, _seed(corpus, r, i))
             for i, (kind, (n, body)) in enumerate(product(KINDS, SCALE_SIZES))]
            for r in range(12)]


def _table_rounds(corpus: int):
    # each round holds every size once, with the bodies rotated
    return [[instances.gen("explicit-table", n, BODIES[(r + i) % 3],
                           _seed(corpus, r, i))
             for i, n in enumerate(TABLE_SIZES)]
            for r in range(6)]


def _opt_rounds(corpus: int):
    return [[instances.gen(kind, n, "knapsack", _seed(corpus, r, i))
             for i, (kind, n) in enumerate(product(KINDS, OPT_SIZES))]
            for r in range(36)]


WORKLOADS = {w.name: w for w in (
    Workload("desk-closed", RunConfig(), True, 2, _desk_rounds),
    Workload("scale-closed", SHORT_RUN, False, 2, _scale_rounds),
    Workload("table-exact", TABLE_RUN, True, 1, _table_rounds),
    Workload("opt-large", SHORT_RUN, True, 6, _opt_rounds),
)}
