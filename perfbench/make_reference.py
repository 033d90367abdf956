"""Regenerate perfbench/reference.json: the per-instance results that every
benchmark run is checked against.

    python3 perfbench/make_reference.py                        # everything
    python3 perfbench/make_reference.py --workload opt-large --seed 3

For each workload and corpus seed it solves every instance exactly as a
benchmark run does and records best_value, best_theta, best_branch and
opt_value.  Entries for the workloads and seeds given replace the ones in
the output file; all others are kept.  Run it only on the commit whose
results should be the reference.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import bootstrap


def entries(workload_name: str, corpus: int) -> dict[str, dict]:
    import bench
    workload = bench.WORKLOADS[workload_name]
    out = {}
    for row in bench.set_up(workload, corpus):
        for case in row:
            opt_value, report, _ = bench.solve_case(workload, case)
            out[case.name] = {"best_value": report.best_value,
                              "best_theta": report.best_theta,
                              "best_branch": report.best_branch,
                              "opt_value": opt_value}
    return out


def main(argv=None) -> int:
    bootstrap.prepare()
    import bench
    from workloads import POOL_SEEDS
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", action="append", choices=sorted(bench.WORKLOADS),
                    help="repeatable; default: every workload")
    ap.add_argument("--seed", action="append", type=int,
                    help=f"corpus seed, repeatable; default: 0..{POOL_SEEDS - 1}")
    ap.add_argument("--out", type=Path, default=bench.REFERENCE)
    args = ap.parse_args(argv)
    seeds = args.seed if args.seed is not None else range(POOL_SEEDS)
    if any(not 0 <= s < POOL_SEEDS for s in seeds):
        ap.error(f"corpus seeds lie in 0..{POOL_SEEDS - 1}")
    doc = {"workloads": {}}
    if args.out.exists():
        doc = json.loads(args.out.read_text())
    doc["meta"] = {"pool_seeds": POOL_SEEDS, "env": bootstrap.environment()}
    for name in args.workload or bench.WORKLOADS:
        table = doc["workloads"].setdefault(name, {})
        for seed in seeds:
            table.update(entries(name, seed))
            print(f"{name} seed {seed}: {len(table)} entries", file=sys.stderr)
            args.out.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
