"""One benchmark run: set-up, the closed loop, the output checks, metrics.

Each instance follows the sequence of ``submax.run_instance``: generate ->
serialize -> parse -> build (set-up), brute-force OPT where the workload
has it, ``solve``, then the output checks below.  An instance fails on an
exception or on any failed check; failures are counted, never fatal.
"""

from __future__ import annotations

import json
import math
import resource
import statistics
import subprocess
import sys
import time
import traceback
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path

from submax import cgreedy, instances, polytope, setfn, verify

import bootstrap
from tracer import LAYERS, Tracer
from workloads import WORKLOADS, Workload, corpus_seed

HERE = Path(__file__).resolve().parent
REFERENCE = HERE / "reference.json"
SPEC = bootstrap.ROOT / "BENCHMARK.json"
TRACE_DIR = HERE / "traces"

REL_TOL = 1e-9       # BLAS thread count alone moves values in the 13th digit
RATIO_FLOOR = 0.372  # the paper's guarantee, checked wherever OPT is known
SETUP_REPEATS = 5
MAX_REPORTED_PROBLEMS = 5

IMPORT_PROBE = ("import sys, time\n"
                "t = time.perf_counter()\n"
                "sys.path.insert(0, sys.argv[1])\n"
                "import submax\n"
                "print(time.perf_counter() - t)\n")


@dataclass
class Case:
    name: str
    f: setfn.SetFunction
    C: polytope.Polytope


@dataclass
class Pass:
    attempted: int = 0
    failed: int = 0
    rounds: int = 0
    wall_s: float = 0.0
    solve_s: list = field(default_factory=list)
    ratios: list = field(default_factory=list)
    euler_steps: int = 0
    candidates: int = 0
    problems: list = field(default_factory=list)
    round_s: list = field(default_factory=list)


def load_reference(workload: str) -> dict:
    with open(REFERENCE) as fh:
        return json.load(fh)["workloads"].get(workload, {})


def set_up(workload: Workload, corpus: int) -> list[list[Case]]:
    """Generate, round-trip through the JSON schema and build every instance
    of the corpus."""
    out = []
    for docs in workload.rounds(corpus):
        row = []
        for doc in docs:
            parsed = instances.parse_instance(instances.serialize_instance(doc))
            f, C = parsed.build()
            row.append(Case(parsed.name, f, C))
        out.append(row)
    return out


def import_seconds() -> float:
    """Time to import submax in a fresh interpreter."""
    done = subprocess.run([sys.executable, "-c", IMPORT_PROBE, str(bootstrap.SRC)],
                          capture_output=True, text=True, timeout=120, check=True)
    return float(done.stdout.strip().splitlines()[-1])


def timed_set_up(workload: Workload, corpus: int):
    """Import and set up SETUP_REPEATS times each; returns the median import
    and set-up times and the instances of the last repeat.  The import is
    timed apart: spawning and loading a fresh interpreter drifted 2-3 times
    more than the set-up itself between runs on a shared host."""
    imports, setups = [], []
    for _ in range(SETUP_REPEATS):
        imports.append(import_seconds())
        t0 = time.perf_counter()
        rounds = set_up(workload, corpus)
        setups.append(time.perf_counter() - t0)
    return statistics.median(imports), statistics.median(setups), rounds


def check(workload: Workload, case: Case, report, opt_value, ref) -> list[str]:
    """The output checks; returns what failed."""
    problems = []
    best, value = report.best, report.best_value
    if not case.C.contains_point(best):
        problems.append("best point lies outside C")
    recomputed = setfn.multilinear(case.f, best, workload.run.resolve_cfg(case.f))
    if not math.isclose(recomputed, value, rel_tol=REL_TOL):
        problems.append(f"F(best) = {recomputed!r} but best_value = {value!r}")
    if opt_value is not None and value < RATIO_FLOOR * opt_value:
        problems.append(f"best/OPT = {value / opt_value:.4f} < {RATIO_FLOOR}")
    if ref is None:
        problems.append("no reference result for this instance")
        return problems
    if ref["best_value"] - value > REL_TOL * abs(ref["best_value"]):
        problems.append(f"best_value {value!r} below reference {ref['best_value']!r}")
    if opt_value is not None and not math.isclose(opt_value, ref["opt_value"],
                                                  rel_tol=REL_TOL):
        problems.append(f"OPT {opt_value!r} differs from reference {ref['opt_value']!r}")
    return problems


def solve_case(workload: Workload, case: Case):
    """Brute-force OPT (where the workload has it) and the solve; returns
    (opt_value, report, solve wall time)."""
    opt_value = None
    if workload.with_opt:
        _, opt_value = verify.brute_force_opt(case.f, case.C)
    t0 = time.perf_counter()
    report = cgreedy.solve(case.f, case.C, workload.run, opt_value)
    return opt_value, report, time.perf_counter() - t0


def process(workload: Workload, case: Case, refs: dict, tracer, p: Pass) -> None:
    p.attempted += 1
    if tracer is not None:
        tracer.begin_instance()
    try:
        opt_value, report, solve_s = solve_case(workload, case)
        p.solve_s.append(solve_s)
        p.euler_steps += sum(r.dampened_steps + r.standard_steps
                             for r in report.per_theta)
        p.candidates += 2 * len(report.per_theta)
        with tracer.pause() if tracer is not None else nullcontext():
            problems = check(workload, case, report, opt_value, refs.get(case.name))
        if opt_value:
            p.ratios.append(report.best_value / opt_value)
    except Exception:  # one instance's failure is counted, the run goes on
        problems = [traceback.format_exc()]
    if problems:
        p.failed += 1
        p.problems.append(f"{case.name}: {'; '.join(problems)}")


def drive(workload: Workload, rounds, refs, *, seconds=None, n_rounds=None,
          tracer=None) -> Pass:
    """Process whole rounds until ``seconds`` have passed, or exactly
    ``n_rounds`` of them."""
    p = Pass()
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        for case in rounds[p.rounds % len(rounds)]:
            process(workload, case, refs, tracer, p)
        p.round_s.append(time.perf_counter() - t0)
        p.rounds += 1
        if n_rounds is not None:
            if p.rounds >= n_rounds:
                break
        elif time.perf_counter() - start >= seconds:
            break
    p.wall_s = time.perf_counter() - start
    return p


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def tail_percentile(samples: list[float]):
    """The highest whole percentile with at least ten samples beyond it,
    reported only from 50 samples on; (percentile, value) or None."""
    n = len(samples)
    if n < 50:
        return None
    pct = math.floor(100 * (n - 10) / n)
    return pct, sorted(samples)[math.ceil(pct / 100 * n) - 1]


def end_to_end(p: Pass, setup_s: float) -> dict[str, float]:
    return {
        "instances_per_s": p.attempted / p.wall_s,
        "setup_s": setup_s,
        "peak_rss_mb": peak_rss_mb(),
    }


def per_layer(tr: Tracer, p: Pass, overhead_s: float) -> dict[str, float]:
    s = tr.summary()

    def get(name, key):
        return s.get(name, {}).get(key, 0)

    grad_calls = get("setfn.gradient", "calls")
    m = {
        "instances.gen.busy_s": get("instances.gen", "busy_s"),
        "instances.roundtrip.busy_s": get("instances.serialize", "busy_s")
        + get("instances.parse", "busy_s"),
        "instances.build.busy_s": get("instances.build", "busy_s"),
        "setfn.gradient.calls": grad_calls,
        "setfn.gradient.self_s": get("setfn.gradient", "self_s"),
        "setfn.gradient.distinct_frac":
            tr.distinct_gradient_points() / grad_calls if grad_calls else 0.0,
        "setfn.multilinear_batch.calls": get("setfn.multilinear_batch", "calls"),
        "setfn.multilinear_batch.rows": tr.counts["setfn.multilinear_batch.rows"],
        "setfn.multilinear_batch.busy_s": get("setfn.multilinear_batch", "busy_s"),
        "setfn.multilinear.calls": get("setfn.multilinear", "calls"),
        "setfn.multilinear.busy_s": get("setfn.multilinear", "busy_s"),
        "setfn.value_batch.masks": tr.counts["setfn.value_batch.masks"],
        "setfn.value_batch.busy_s": get("setfn.value_batch", "busy_s"),
        "polytope.linear_maximize.calls": get("polytope.linear_maximize", "calls"),
        "polytope.linear_maximize.busy_s": get("polytope.linear_maximize", "busy_s"),
        "polytope.contains_point.calls": get("polytope.contains_point", "calls"),
        "polytope.contains_point.busy_s": get("polytope.contains_point", "busy_s"),
        "polytope.contains_mask_batch.busy_s":
            get("polytope.contains_mask_batch", "busy_s"),
        "dgbox.double_greedy_box.calls": get("dgbox.double_greedy_box", "calls"),
        "dgbox.double_greedy_box.coord_steps":
            tr.counts["dgbox.double_greedy_box.coord_steps"],
        "dgbox.double_greedy_box.self_s": get("dgbox.double_greedy_box", "self_s"),
        "cgreedy.solve.calls": get("cgreedy.solve", "calls"),
        "cgreedy.solve.self_s": get("cgreedy.solve", "self_s"),
        "cgreedy.euler_steps": p.euler_steps,
        "cgreedy.candidates": p.candidates,
        "verify.brute_force_opt.calls": get("verify.brute_force_opt", "calls"),
        "verify.brute_force_opt.busy_s": get("verify.brute_force_opt", "busy_s"),
        "verify.brute_force_opt.self_s": get("verify.brute_force_opt", "self_s"),
        "trace.spans": tr.spans,
        "trace.instances": p.attempted,
        "trace.overhead_s": overhead_s,
    }
    for layer in LAYERS:
        m[f"{layer}.errors"] = tr.errors[layer]
    return m


def declared_units(section: str) -> dict[str, str]:
    with open(SPEC) as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)[section]}


def with_units(values: dict[str, float], section: str) -> dict:
    units = declared_units(section)
    if set(values) != set(units):
        raise RuntimeError(
            f"metrics do not match BENCHMARK.json {section}: "
            f"missing {sorted(set(units) - set(values))}, "
            f"undeclared {sorted(set(values) - set(units))}")
    return {k: {"value": values[k], "unit": units[k]} for k in units}


def run(name: str, seed: int, seconds: float, trace: bool):
    """One run; returns (result, report).  The result is the benchmark's
    final line, the report everything else worth keeping about the run."""
    workload = WORKLOADS[name]
    corpus = corpus_seed(seed)
    refs = load_reference(name)
    report = {"workload": name, "seed": seed, "corpus_seed": corpus,
              "env": bootstrap.environment()}
    if not trace:
        import_s, setup_s, rounds = timed_set_up(workload, corpus)
        p = drive(workload, rounds, refs, seconds=seconds)
        metrics = with_units(end_to_end(p, setup_s), "end_to_end")
        tail = tail_percentile(p.solve_s)
        report.update({
            "planned_s": seconds, "wall_s": p.wall_s, "late_s": p.wall_s - seconds,
            "rounds": p.rounds, "round_s": p.round_s,
            "solve_s.p50": None if not p.solve_s else {
                "value": statistics.median(p.solve_s), "unit": "s",
                "samples": len(p.solve_s)},
            "setup_repeats": SETUP_REPEATS,
            "import_s": {"value": import_s, "unit": "s"},
            "failed_frac": {"value": p.failed / p.attempted, "unit": "fraction"},
            "ratio_min": None if not p.ratios
            else {"value": min(p.ratios), "unit": "best/OPT"},
            "ratio_mean": None if not p.ratios
            else {"value": statistics.fmean(p.ratios), "unit": "best/OPT"},
            "solve_s.tail": None if tail is None
            else {"percentile": tail[0], "value": tail[1], "unit": "s"},
        })
    else:
        rounds = set_up(workload, corpus)
        # warm-up: first-touch costs would otherwise land on the untraced side
        drive(workload, rounds, refs, n_rounds=1)
        plain = drive(workload, rounds, refs, n_rounds=workload.trace_rounds)
        tracer = Tracer()
        with tracer.installed():
            rounds = set_up(workload, corpus)
            p = drive(workload, rounds, refs, n_rounds=workload.trace_rounds,
                      tracer=tracer)
        overhead = p.wall_s - plain.wall_s
        metrics = with_units(per_layer(tracer, p, overhead), "per_layer")
        p.attempted += plain.attempted
        p.failed += plain.failed
        p.problems += plain.problems
        path = TRACE_DIR / f"{name}-seed{seed}.npz"
        tracer.write(path)
        report.update({"untraced_wall_s": plain.wall_s, "traced_wall_s": p.wall_s,
                       "overhead_s": overhead, "spans": tracer.spans,
                       "untraced_targets": tracer.missing,
                       "trace_file": str(path.relative_to(bootstrap.ROOT))})
    for problem in p.problems[:MAX_REPORTED_PROBLEMS]:
        print(f"FAILED {problem}", file=sys.stderr)
    result = {"correct": p.failed == 0, "attempted": p.attempted,
              "failed": p.failed, "metrics": metrics}
    return result, report
