"""Tests of the benchmark itself: the BENCHMARK.json contract, the output
checks, the tracer, the reference script, and the command end to end.

    python -m pytest perfbench/tests -q
"""

import json
import math
import re
import shutil
import subprocess
import sys

import numpy as np
import pytest

from submax import Point, RunConfig, cgreedy, instances

import bench
import bootstrap
from tracer import Tracer
from workloads import POOL_SEEDS, WORKLOADS

RUN = [sys.executable, str(bootstrap.ROOT / "perfbench" / "run.py")]
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def spec():
    return json.loads(bench.SPEC.read_text())


def run_bench(*args, cwd=bootstrap.ROOT):
    done = subprocess.run([*RUN, *args], cwd=cwd, capture_output=True,
                          text=True, timeout=170)
    return done


def result_of(done):
    assert done.returncode == 0, done.stderr
    lines = done.stdout.strip().splitlines()
    return json.loads(lines[-2]), json.loads(lines[-1])


def test_spec_follows_the_contract():
    doc = spec()
    assert set(doc) == {"command", "paths", "run_seconds", "workloads",
                        "end_to_end", "per_layer"}
    assert doc["paths"] == ["perfbench"]
    assert doc["command"][1].startswith("perfbench/")
    assert isinstance(doc["run_seconds"], int) and 1 <= doc["run_seconds"] <= 60
    assert 2 <= len(doc["workloads"]) <= 8
    assert all(w["name"] in WORKLOADS for w in doc["workloads"])
    for w in doc["workloads"]:
        assert set(w) == {"name", "why"} and len(w["why"]) <= 200
    names = [m["name"] for sec in ("workloads", "end_to_end", "per_layer")
             for m in doc[sec]]
    assert len(names) == len(set(names))
    assert all(NAME.match(n) for n in names)
    for m in doc["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"}
        assert 0 < m["bound"] <= 0.25
    for m in doc["per_layer"]:
        assert set(m) == {"name", "unit", "better"}
    for m in doc["end_to_end"] + doc["per_layer"]:
        assert UNIT.match(m["unit"]) and m["better"] in ("higher", "lower")
    setup = next(m for m in doc["end_to_end"] if m["name"] == "setup_s")
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert setup["bound"] == max(m["bound"] for m in doc["end_to_end"])


def test_reference_covers_every_instance():
    doc = json.loads(bench.REFERENCE.read_text())
    assert doc["meta"]["pool_seeds"] == POOL_SEEDS
    for name, workload in WORKLOADS.items():
        refs = doc["workloads"][name]
        for corpus in range(POOL_SEEDS):
            for docs in workload.rounds(corpus):
                for inst in docs:
                    assert inst.name in refs


def test_reference_script_reproduces_the_committed_file(tmp_path):
    out = tmp_path / "reference.json"
    done = subprocess.run(
        [sys.executable, str(bootstrap.ROOT / "perfbench" / "make_reference.py"),
         "--workload", "opt-large", "--seed", "3", "--out", str(out)],
        capture_output=True, text=True, timeout=170)
    assert done.returncode == 0, done.stderr
    fresh = json.loads(out.read_text())["workloads"]["opt-large"]
    committed = bench.load_reference("opt-large")
    assert fresh
    for name, entry in fresh.items():
        ref = committed[name]
        assert (entry["best_theta"], entry["best_branch"]) == \
            (ref["best_theta"], ref["best_branch"])
        for key in ("best_value", "opt_value"):
            assert math.isclose(entry[key], ref[key], rel_tol=bench.REL_TOL)


def solved_case():
    workload = WORKLOADS["opt-large"]
    case = bench.set_up(workload, 0)[0][0]
    opt_value, report, _ = bench.solve_case(workload, case)
    ref = {"best_value": report.best_value, "opt_value": opt_value}
    return workload, case, report, opt_value, ref


def test_checks_pass_on_a_correct_solve():
    workload, case, report, opt_value, ref = solved_case()
    assert bench.check(workload, case, report, opt_value, ref) == []


@pytest.mark.parametrize("defect", ["value", "outside", "reference", "ratio",
                                    "opt", "missing"])
def test_checks_catch_each_defect(defect):
    workload, case, report, opt_value, ref = solved_case()
    if defect == "value":
        report.best_value *= 1 + 1e-6
        ref["best_value"] = report.best_value
    elif defect == "outside":
        report.best = Point.ones(case.f.n)
    elif defect == "reference":
        ref["best_value"] = report.best_value * (1 + 1e-6)
    elif defect == "ratio":
        opt_value = report.best_value / 0.3
    elif defect == "opt":
        ref["opt_value"] = opt_value * (1 + 1e-6)
    else:
        ref = None
    assert bench.check(workload, case, report, opt_value, ref)


def test_tracer_counts_one_desk_solve():
    """ROADMAP: one 51-theta solve makes 10,353 gradient calls."""
    doc = instances.gen("coverage", 12, "knapsack", 5)
    tracer = Tracer()
    with tracer.installed():
        f, C = doc.build()
        tracer.begin_instance()
        cgreedy.solve(f, C, RunConfig())
    s = tracer.summary()
    assert tracer.missing == []
    assert s["cgreedy.solve"]["calls"] == 1
    assert s["setfn.gradient"]["calls"] == 10_353
    assert s["dgbox.double_greedy_box"]["calls"] == 51
    assert tracer.counts["dgbox.double_greedy_box.coord_steps"] == 51 * 12
    # every wrapper was removed again
    assert not hasattr(instances.gen, "__wrapped__")
    assert not hasattr(cgreedy.solve, "__wrapped__")


def test_self_time_subtracts_children():
    tr = Tracer()
    tr.ids = {"outer": 0, "inner": 1}
    for name, parent, start, end in ((0, -1, 0.0, 10.0), (1, 0, 1.0, 3.0),
                                     (1, 0, 4.0, 5.0), (0, -1, 20.0, 21.0)):
        tr.name_of.append(name)
        tr.parent.append(parent)
        tr.instance.append(0)
        tr.start.append(start)
        tr.end.append(end)
    s = tr.summary()
    assert s["outer"] == {"calls": 2, "busy_s": 11.0, "self_s": 8.0}
    assert s["inner"] == {"calls": 2, "busy_s": 3.0, "self_s": 3.0}


def test_tail_percentile_leaves_ten_samples_beyond():
    assert bench.tail_percentile(list(range(49))) is None
    samples = list(np.linspace(0.0, 1.0, 54))
    pct, value = bench.tail_percentile(samples)
    assert pct == 81
    assert sum(s > value for s in samples) == 10


def test_untraced_run_prints_every_end_to_end_metric():
    report, result = result_of(run_bench("--workload", "opt-large", "--seed", "13",
                                         "--seconds", "1", "--trace", "0"))
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 6
    assert set(result["metrics"]) == {m["name"] for m in spec()["end_to_end"]}
    assert all(m["value"] > 0 for m in result["metrics"].values())
    assert report["corpus_seed"] == 3
    assert report["env"]["blas_threads"] <= report["env"]["nproc"]
    assert report["ratio_min"]["value"] >= bench.RATIO_FLOOR


def test_traced_counts_repeat_exactly():
    runs = [result_of(run_bench("--workload", "opt-large", "--seed", "4",
                                "--seconds", "1", "--trace", "1"))[1]
            for _ in range(2)]
    declared = {m["name"] for m in spec()["per_layer"]}
    for result in runs:
        assert result["correct"]
        assert set(result["metrics"]) == declared
    exact = [k for k, m in runs[0]["metrics"].items()
             if m["unit"] in ("count", "fraction")]
    assert exact
    for k in exact:
        assert runs[0]["metrics"][k] == runs[1]["metrics"][k], k


def test_exits_2_without_the_program(tmp_path):
    shutil.copy(bench.SPEC, tmp_path / "BENCHMARK.json")
    shutil.copytree(bootstrap.ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("traces", "__pycache__"))
    done = subprocess.run([sys.executable, "perfbench/run.py", "--workload",
                           "desk-closed", "--seed", "1", "--seconds", "1",
                           "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=170)
    assert done.returncode == 2
    assert done.stdout == ""
