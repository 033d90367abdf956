"""Run one workload of the submax benchmark and print its metrics.

    python3 perfbench/run.py --workload desk-closed --seed 1 --seconds 50 --trace 0

Runs from the root of a checkout and measures the sources in its ``src``.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: with ``--trace 0``
the end-to-end metrics of BENCHMARK.json, with ``--trace 1`` the per-layer
ones.  The line before it is a JSON report of the run (environment, how late
the run ended, median solve time, failure share, ratios to OPT, tracing
overhead).  A traced
run solves a fixed number of rounds of its workload, so that its counts
repeat exactly, and does not use ``--seconds``.  Exits 2 without a result
when the checkout holds no submax sources.
"""

from __future__ import annotations

import argparse
import json
import sys

import bootstrap


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    try:
        bootstrap.prepare()
    except (bootstrap.MissingProgram, ImportError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    import bench
    if args.workload not in bench.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; "
              f"known: {', '.join(bench.WORKLOADS)}", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("error: --seconds must be positive", file=sys.stderr)
        return 2
    result, report = bench.run(args.workload, args.seed, args.seconds,
                               bool(args.trace))
    print(json.dumps(report))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
