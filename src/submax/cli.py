"""Command-line surface: gen, solve, verify, bench, bound."""

from __future__ import annotations

import argparse
import sys

import numpy as np

from .cgreedy import RunConfig
from .errors import InstanceFormatError, SubmaxError
from .instances import (CONSTRAINT_KINDS, CSV_HEADER, FUNCTION_KINDS, InstanceFile,
                        desk_corpus, gen, mini_corpus, run_instance)
from .setfn import MODES, EstimatorConfig
from .verify import best_bound_theta, compute_bound, property_suite


def parse_theta_grid(text: str, delta: float = RunConfig.delta) -> tuple[float, ...]:
    """Grid syntax: comma-separated 'start:step:end' ranges, bare values,
    and '+value' additions, e.g. '0:0.02:1,+0.18'.  Every theta is a distinct
    multiple of delta in [0, 1], so a range with more than round(1/delta) + 1
    points is rejected before any point is generated."""
    # RunConfig checks delta; theta 0 lies on every grid
    limit = RunConfig(delta=delta, theta_grid=(0.0,)).total_steps + 1
    values: set[float] = set()
    for part in text.split(","):
        part = part.strip().lstrip("+")
        if not part:
            continue
        try:
            nums = [float(p) for p in part.split(":")]
        except ValueError:
            raise SubmaxError(f"grid entry {part!r} is not a number") from None
        if len(nums) not in (1, 3) or not np.all(np.isfinite(nums)):
            raise SubmaxError(f"bad grid entry {part!r}; expected a finite value "
                              "or start:step:end")
        if len(nums) == 1:
            values.add(nums[0])
            continue
        start, step, end = nums
        if step <= 0:
            raise SubmaxError(f"grid step must be positive in {part!r}")
        span = (end - start) / step + 1e-9
        if span >= limit:
            raise SubmaxError(f"grid range {part!r} has more than the {limit} "
                              f"points a grid for delta {delta:g} can hold")
        values.update(float(np.round(start + i * step, 12))
                      for i in range(int(np.floor(span)) + 1))
    if not values:
        raise SubmaxError(f"empty theta grid {text!r}")
    return tuple(sorted(values))


def _add_run_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--alpha", type=float, default=RunConfig.alpha,
                   help=f"l-inf cap (default {RunConfig.alpha})")
    p.add_argument("--delta", type=float, default=RunConfig.delta,
                   help=f"time step (default {RunConfig.delta})")
    p.add_argument("--theta-grid", default=None,
                   help="switch-time grid, e.g. '0:0.1:1,+0.18' (default: the "
                        "multiples of 0.02 across [0, 1] that are multiples of "
                        "delta)")
    p.add_argument("--mode", choices=MODES, default=None,
                   help="extension evaluation mode (default: closed when "
                        "available, exact otherwise)")
    p.add_argument("--samples", type=int, default=EstimatorConfig.sample_count,
                   help="sample count for mc mode")
    p.add_argument("--seed", type=int, default=0, help="root seed")


def _run_config(args) -> RunConfig:
    cfg = None
    if args.mode is not None:
        cfg = EstimatorConfig(mode=args.mode, sample_count=args.samples,
                              rng_seed=args.seed)
    grid = (None if args.theta_grid is None
            else parse_theta_grid(args.theta_grid, args.delta))
    return RunConfig(alpha=args.alpha, delta=args.delta, theta_grid=grid, cfg=cfg)


def _read_instance(path: str) -> InstanceFile:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except UnicodeDecodeError as e:
        raise InstanceFormatError(f"{path} is not UTF-8 text: {e}") from e
    return InstanceFile.from_json(text)


def _write_or_print(text: str, out: str | None) -> None:
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def cmd_gen(args) -> int:
    inst = gen(args.kind, args.n, args.constraint, args.seed)
    _write_or_print(inst.to_json(), args.out)
    return 0


def cmd_solve(args) -> int:
    inst = _read_instance(args.instance)
    run = _run_config(args)
    rec = run_instance(inst, run, seed=args.seed, compute_opt=not args.no_opt)
    _write_or_print(rec.to_json(), args.out)
    if args.out:
        ratio = f", ratio {rec.ratio:.4f}" if rec.ratio is not None else ""
        print(f"{rec.instance}: best {rec.best_value:.6f}"
              f" (theta {rec.theta_best}, {rec.branch_best}){ratio}")
    return 0


def cmd_verify(args) -> int:
    run = _run_config(args)
    if args.instance:
        instances = [_read_instance(args.instance)]
    elif args.corpus == "desk":
        instances = desk_corpus(args.seed)
    else:
        instances = mini_corpus(args.seed)
    failed = False
    for inst in instances:
        f, C = inst.build()
        print(f"== {inst.name}")
        for res in property_suite(f, C, seed=args.seed, run=run):
            print("  " + res.line())
            failed |= not res.passed
    print("verify: " + ("HARD FAILURES" if failed else "all hard checks passed"))
    return 1 if failed else 0


def cmd_bench(args) -> int:
    run = _run_config(args)
    instances = desk_corpus(args.seed) if args.corpus == "desk" else mini_corpus(args.seed)
    rows = []
    for inst in instances:
        rec = run_instance(inst, run, seed=args.seed)
        rows.append(rec)
        r = f"{rec.ratio:.4f}" if rec.ratio is not None else "n/a"
        print(f"{rec.instance:40s} ratio {r}")
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(CSV_HEADER + "\n")
            for rec in rows:
                fh.write(rec.csv_row() + "\n")
    ratios = [r.ratio for r in rows if r.ratio is not None]
    by_constraint: dict[str, list[float]] = {}
    for rec in rows:
        if rec.ratio is not None:
            by_constraint.setdefault(rec.constraint.split("(")[0], []).append(rec.ratio)
    print()
    print(f"{'constraint':20s} {'count':>5s} {'min':>8s} {'mean':>8s}")
    for name in sorted(by_constraint):
        vals = by_constraint[name]
        print(f"{name:20s} {len(vals):5d} {min(vals):8.4f} "
              f"{sum(vals) / len(vals):8.4f}")
    if ratios:
        print(f"{'overall':20s} {len(ratios):5d} {min(ratios):8.4f} "
              f"{sum(ratios) / len(ratios):8.4f}")
    return 0


def cmd_bound(args) -> int:
    if args.theta is not None:
        print(f"C({args.alpha:g}, {args.theta:g}) = {compute_bound(args.alpha, args.theta):.4f}")
    theta_star, val = best_bound_theta(args.alpha, args.grid)
    print(f"max over a {args.grid}-point grid: C({args.alpha:g}, {theta_star:.4f})"
          f" = {val:.5f}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="submax",
        description="Non-monotone submodular maximization over down-closed "
                    "polytopes, with brute-force verification oracles.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="generate a seeded random instance")
    p.add_argument("--kind", required=True, choices=FUNCTION_KINDS)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--constraint", required=True, choices=CONSTRAINT_KINDS)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("solve", help="solve one instance file")
    p.add_argument("instance")
    _add_run_flags(p)
    p.add_argument("--no-opt", action="store_true",
                   help="skip the brute-force optimum")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("verify", help="run the property suite")
    p.add_argument("instance", nargs="?", default=None)
    p.add_argument("--corpus", choices=["mini", "desk"], default="mini")
    _add_run_flags(p)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("bench", help="run a seeded corpus and report ratios")
    p.add_argument("--corpus", choices=["mini", "desk"], default="desk")
    _add_run_flags(p)
    p.add_argument("--out", default=None, help="write a CSV ratio table here")
    p.set_defaults(func=cmd_bench)

    p = sub.add_parser("bound", help="evaluate the approximation constant")
    p.add_argument("--alpha", type=float, default=0.5)
    p.add_argument("--theta", type=float, default=None)
    p.add_argument("--grid", type=int, default=1000)
    p.set_defaults(func=cmd_bound)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (SubmaxError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
