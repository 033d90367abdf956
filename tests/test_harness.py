"""Instance documents, seeded generation, result records, and the CLI."""

import hashlib
import importlib.util
import json
import os
import re
import subprocess
import sys
import time
import tomllib
import tracemalloc
from functools import reduce
from operator import getitem
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

import submax as sm
from submax import InstanceFormatError
from submax.cli import _run_config, build_parser, main, parse_theta_grid
from submax.instances import (CONSTRAINT_KINDS, CSV_HEADER, FUNCTION_KINDS,
                               TABLE_GEN_LIMIT, canonical_json)


def is_monotone(f) -> bool:
    table = f.full_table()
    masks = np.arange(table.size)
    return all(np.min(table[masks | (1 << i)] - table[masks]) >= -1e-12
               for i in range(f.n))


class TestGeneration:
    def test_deterministic_byte_identical(self):
        a = sm.gen("directed-cut", 2, "cardinality", 7)
        b = sm.gen("directed-cut", 2, "cardinality", 7)
        assert a.to_json() == b.to_json()

    def test_seeds_differ(self):
        a = sm.gen("directed-cut", 6, "cardinality", 1)
        b = sm.gen("directed-cut", 6, "cardinality", 2)
        assert a.to_json() != b.to_json()

    @pytest.mark.parametrize("n", [12, 13])
    def test_explicit_table_passes_submodularity_check(self, n):
        inst = sm.gen("explicit-table", n, "cardinality", 3)
        # construction reruns the check: exhaustive at n=12, sampled at n=13
        f = sm.parse_instance(inst.to_json()).build_function()
        assert isinstance(f, sm.ExplicitTable)

    @pytest.mark.parametrize("kind,n,constraint,message", [
        ("mystery", 4, "cardinality", "unknown function kind 'mystery' (schema_version 1)"),
        ("coverage", 4, "mystery", "unknown constraint kind 'mystery' (schema_version 1)"),
        ("coverage", 4.0, "cardinality", "2 <= n <= 4096"),
        ("coverage", True, "cardinality", "2 <= n <= 4096"),
    ], ids=["function-kind", "constraint-kind", "float-n", "bool-n"])
    def test_bad_arguments_rejected_as_documents_are(self, kind, n, constraint, message):
        with pytest.raises(InstanceFormatError, match=re.escape(message)):
            sm.gen(kind, n, constraint, 0)

    def test_explicit_table_generation_capped(self):
        # rejected before any table is built
        with pytest.raises(InstanceFormatError, match="n <= 16, got n=20"):
            sm.gen("explicit-table", 20, "cardinality", 0)

    def test_coverage_monotone(self):
        # verified exhaustively: adding an element never hurts
        assert is_monotone(sm.gen("coverage", 10, "knapsack", 5).build_function())

    def test_cut_genuinely_non_monotone(self):
        for seed in range(5):
            inst = sm.gen("directed-cut", 8, "cardinality", seed)
            assert not is_monotone(inst.build_function())

    def test_monotone_flag_matches_the_truth(self):
        # the solver skips the double greedy where the flag is set, so a
        # flagged family must be monotone on every instance, and an unflagged
        # one shows instances that are not
        assert sm.SetFunction.monotone is False  # a new family must opt in
        assert sm.Coverage.monotone is True
        assert sm.DirectedCut.monotone is False
        assert sm.ExplicitTable.monotone is False
        for kind in FUNCTION_KINDS:
            fs = [sm.gen(kind, 8, "cardinality", seed).build_function()
                  for seed in range(4)]
            truth = [is_monotone(f) for f in fs]
            assert all(truth) if fs[0].monotone else not all(truth), kind

    @pytest.mark.parametrize("constraint", ["cardinality", "partition-matroid",
                                            "knapsack"])
    def test_gen_builds_no_subset_table(self, monkeypatch, constraint):
        def refuse(self):
            raise RuntimeError("full_table called")
        with monkeypatch.context() as m:
            m.setattr(sm.SetFunction, "full_table", refuse)
            for kind in ("directed-cut", "coverage"):
                sm.gen(kind, 12, constraint, 1)
            with pytest.raises(RuntimeError, match="full_table called"):
                sm.gen("explicit-table", 12, constraint, 1)
        inst = sm.gen("explicit-table", 12, constraint, 1)
        assert len(inst.function["values"]) == 1 << 12

    def test_weights_in_unit_interval(self):
        inst = sm.gen("directed-cut", 8, "knapsack", 11)
        for _, _, w in inst.function["arcs"]:
            assert 0.0 < w <= 1.0

    def test_unknown_kind_rejected(self):
        with pytest.raises(InstanceFormatError):
            sm.gen("mystery", 6, "cardinality", 0)

    # sha256 of gen(kind, n, body, 0).to_json(): generation is
    # byte-deterministic per seed, across rewrites of the generator and writer
    PINNED_SHA256 = {
        ("directed-cut", "cardinality", 6):
            "9676c6903376771a8e616fc03bab2acaf64091eab945e303986013b07a3159a2",
        ("directed-cut", "partition-matroid", 6):
            "9e7f75ee8d9dc35be555f19cfa113bc0730384c72dff8ed1b809ee9decc43388",
        ("directed-cut", "knapsack", 6):
            "4a07546484cfbb9a95b1f8a4430ed2c6170cc96aa621b4dd13f9a2f8f2115f98",
        ("coverage", "cardinality", 6):
            "0a0b8f89d644c3e849de1a01afe28356c5ecab8f56b83dd429c79092483f88cc",
        ("coverage", "partition-matroid", 6):
            "41f7981c11d0810caa8798b3e742b8718cfd32cc931e3b27e687daaa394a730e",
        ("coverage", "knapsack", 6):
            "b0eb25b1447149ef86d0b9113ee2c8a96255e5243e9d140f4c2eae92fe8f5f71",
        ("explicit-table", "cardinality", 6):
            "6e5ffd01aa9e54c7e17ce899a5f117cba886cef4de6747a1129b098324fbe7f2",
        ("explicit-table", "partition-matroid", 6):
            "8a57b08573b43497142adecdbf23de411fa7041551a636d8a24e21fcf748aa9e",
        ("explicit-table", "knapsack", 6):
            "32b8a6169923027d2750c3837fdda77501b4934f8c1eae9fa92fbd419ac01e99",
        ("directed-cut", "cardinality", 100):
            "9ca5936b632577ab2f92daf4747e8dbbd9cfbae594716bde474e4573a01a43e6",
        ("directed-cut", "partition-matroid", 100):
            "b5488744798ed9f6d1199accf4095d3a6662ee78fe7de1d1ce59121761caad15",
        ("directed-cut", "knapsack", 100):
            "ca4488e0e11bd69855fb4b8577561700effeffcad8ad6967cbbc3c62770ba8f0",
        ("coverage", "cardinality", 100):
            "7110f5c49317276e386a5a933f199f508058cbe4fae843c1b5caf87339d3532b",
        ("coverage", "partition-matroid", 100):
            "3a22b3a715c41d18b7838ff61fedae153fa1758c01e50313769eb9d835027363",
        ("coverage", "knapsack", 100):
            "05e0a4538a8a95ed0c5771a545bd6fc3bef1e992794a55b7c09c106608575f40",
    }

    @pytest.mark.parametrize("kind,constraint,n", sorted(PINNED_SHA256))
    def test_generated_bytes_pinned(self, kind, constraint, n):
        text = sm.gen(kind, n, constraint, 0).to_json()
        assert hashlib.sha256(text.encode()).hexdigest() \
            == self.PINNED_SHA256[kind, constraint, n]


class TestSerialization:
    def test_round_trip_byte_identical(self):
        inst = sm.gen("coverage", 7, "partition-matroid", 9)
        text = sm.serialize_instance(inst)
        again = sm.serialize_instance(sm.parse_instance(text))
        assert text == again

    def test_builds_back_to_same_values(self):
        inst = sm.gen("explicit-table", 6, "knapsack", 4)
        f1, C1 = inst.build()
        f2, C2 = sm.parse_instance(inst.to_json()).build()
        assert np.array_equal(f1.full_table(), f2.full_table())
        assert len(C1.rows) == len(C2.rows)
        for (i1, c1, b1), (i2, c2, b2) in zip(C1.rows, C2.rows):
            assert np.array_equal(i1, i2) and np.array_equal(c1, c2) and b1 == b2

    def test_unknown_function_kind_versioned_error(self):
        doc = json.loads(sm.gen("directed-cut", 4, "cardinality", 0).to_json())
        doc["function"]["kind"] = "mystery"
        with pytest.raises(InstanceFormatError, match="schema_version 1"):
            sm.parse_instance(json.dumps(doc))

    def test_unknown_schema_version(self):
        doc = json.loads(sm.gen("directed-cut", 4, "cardinality", 0).to_json())
        doc["schema_version"] = 99
        with pytest.raises(InstanceFormatError, match="99"):
            sm.parse_instance(json.dumps(doc))

    @pytest.mark.parametrize("version", [True, 1.0], ids=["true", "float"])
    def test_schema_version_must_be_the_integer_1(self, version):
        # both equal 1, but to_json would write them back as they came
        doc = json.loads(sm.gen("directed-cut", 4, "cardinality", 0).to_json())
        doc["schema_version"] = version
        with pytest.raises(InstanceFormatError, match="unsupported schema_version"):
            sm.parse_instance(json.dumps(doc))

    def test_missing_field_named(self):
        doc = json.loads(sm.gen("directed-cut", 4, "cardinality", 0).to_json())
        del doc["constraint"]
        with pytest.raises(InstanceFormatError, match="constraint"):
            sm.parse_instance(json.dumps(doc))

    def test_json_error_carries_line(self):
        with pytest.raises(InstanceFormatError, match="line"):
            sm.parse_instance("{\n  broken\n}")

    def test_payload_field_errors_name_the_field(self):
        doc = json.loads(sm.gen("directed-cut", 4, "cardinality", 0).to_json())
        del doc["function"]["arcs"]
        inst = sm.parse_instance(json.dumps(doc))
        with pytest.raises(InstanceFormatError, match="arcs"):
            inst.build_function()
        doc = json.loads(sm.gen("coverage", 4, "knapsack", 0).to_json())
        del doc["constraint"]["budget"]
        inst = sm.parse_instance(json.dumps(doc))
        with pytest.raises(InstanceFormatError, match="budget"):
            inst.build_constraint()


_NUMBER = (st.integers(-2**70, 2**70) | st.floats()
           | st.sampled_from([float("nan"), float("inf"), float("-inf"), -0.0,
                              1e-300, 5e-324, 2**63, 2**64 + 1, -2**63 - 1]))
_TEXT = st.text(max_size=6) | st.sampled_from(
    [", ", "], [", "],\n  [", '"', '\\"q\\"', "naïve ✓", "\u2028", "[1,2]", ""])
_LEAVES = (st.none() | st.booleans() | _NUMBER | _TEXT
           | st.lists(_NUMBER, max_size=5)
           | st.lists(_NUMBER | st.booleans(), max_size=5)
           | st.lists(st.lists(_NUMBER, min_size=1, max_size=4), max_size=4)
           | st.lists(st.lists(_NUMBER, max_size=3), max_size=4))
_TREES = st.recursive(
    _LEAVES,
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(_TEXT, inner, max_size=4),
    max_leaves=12)


def dumps_reference(doc) -> str:
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"


class TestCanonicalWriter:
    """canonical_json writes the bytes of json.dumps(doc, sort_keys=True,
    indent=2) plus a newline."""

    @given(doc=_TREES)
    @settings(max_examples=400, deadline=None, derandomize=True)
    def test_matches_json_dumps_on_trees(self, doc):
        assert canonical_json(doc) == dumps_reference(doc)

    @pytest.mark.parametrize("doc", [
        [], {}, [[]], [[], [1]], [[1], []], [[1.5, 2], [3]], [1, True, 2.0],
        [[1, False]], [[float("nan"), float("-inf")], [-0.0]], {"a": [[]]},
        [2**64 + 1, -0.0, 1e-300], "], [", None, 7, [["", 1]],
        {"z": 1, "a": {"m": [[1, 2], [3, 4]], "b": []}}])
    def test_matches_json_dumps_on_edge_cases(self, doc):
        assert canonical_json(doc) == dumps_reference(doc)

    @pytest.mark.parametrize("constraint", CONSTRAINT_KINDS)
    @pytest.mark.parametrize("kind", FUNCTION_KINDS)
    def test_matches_json_dumps_on_generated_documents(self, kind, constraint):
        for n in (2, 6, 50, 100):
            if kind == "explicit-table" and n > TABLE_GEN_LIMIT:
                continue
            inst = sm.gen(kind, n, constraint, n)
            doc = {"schema_version": inst.schema_version, "n": inst.n,
                   "function": inst.function, "constraint": inst.constraint,
                   "metadata": inst.metadata}
            assert inst.to_json() == dumps_reference(doc)

    def test_matches_json_dumps_on_a_result_record(self):
        inst = sm.gen("coverage", 6, "knapsack", 8)
        rec = sm.run_instance(inst, sm.RunConfig(delta=0.05, theta_grid=(0.0, 0.2)))
        assert rec.to_json() == dumps_reference(rec.__dict__)

    def test_non_string_keys_rejected(self):
        with pytest.raises(TypeError):
            canonical_json({1: 2})


class TestRunRecords:
    def test_deterministic_apart_from_wall_clock(self):
        inst = sm.gen("directed-cut", 6, "cardinality", 3)
        run = sm.RunConfig(delta=0.05, theta_grid=(0.0, 0.2, 0.5))
        a = sm.run_instance(inst, run, seed=1)
        b = sm.run_instance(inst, run, seed=1)
        da, db = dict(a.__dict__), dict(b.__dict__)
        da.pop("wall_clock"), db.pop("wall_clock")
        assert da == db

    def test_ratio_definition(self):
        inst = sm.gen("coverage", 6, "knapsack", 8)
        rec = sm.run_instance(inst, sm.RunConfig(delta=0.05, theta_grid=(0.0, 0.2)))
        assert rec.opt_value is not None and rec.opt_value > 0
        assert rec.ratio == pytest.approx(rec.best_value / rec.opt_value)

    def test_csv_row_matches_header(self):
        inst = sm.gen("directed-cut", 6, "partition-matroid", 2)
        rec = sm.run_instance(inst, sm.RunConfig(delta=0.1, theta_grid=(0.0, 0.2)))
        assert CSV_HEADER == ("instance,n,constraint,alpha,delta,theta_best,"
                              "best_value,opt_value,ratio")
        row = rec.csv_row()
        assert len(row.split(",")) == len(CSV_HEADER.split(","))
        assert row.startswith(rec.instance + ",6,")


class TestThetaGridParsing:
    def test_default_grid_string(self):
        grid = parse_theta_grid("0:0.02:1,+0.18")
        assert grid == sm.default_theta_grid()
        assert grid[0] == 0.0 and grid[-1] == 1.0
        assert 0.18 in grid
        assert len(grid) == 51

    def test_run_flags_default_to_run_config(self):
        assert _run_config(build_parser().parse_args(["verify"])) == sm.RunConfig()

    def test_single_values(self):
        assert parse_theta_grid("0.5") == (0.5,)
        assert parse_theta_grid("0.1,+0.3") == (0.1, 0.3)

    def test_bad_range_rejected(self):
        with pytest.raises(sm.SubmaxError):
            parse_theta_grid("0:1")
        with pytest.raises(sm.SubmaxError):
            parse_theta_grid("0:-0.1:1")

    def test_range_refused_past_the_points_a_grid_can_hold(self):
        # thetas are distinct multiples of delta in [0, 1]: at most
        # round(1/delta) + 1 of them, checked before any point is generated
        assert len(parse_theta_grid("0:0.005:1")) == 201
        assert parse_theta_grid("0:0.25:1", delta=0.25) == (0.0, 0.25, 0.5, 0.75, 1.0)
        with pytest.raises(sm.SubmaxError, match="more than the 5 points"):
            parse_theta_grid("0:0.2:1", delta=0.25)


SRC = Path(sm.__file__).resolve().parents[1]


def _cli(*args):
    """``python -m submax.cli`` with ``args`` in a fresh interpreter, the
    package's source first on PYTHONPATH."""
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, "-m", "submax.cli", *args],
                          capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": path})


def _scaled_coverage(factor):
    """Desk corpus 1's coverage-partition-matroid-n10-s7105371993765676830
    with every item weight times ``factor``, as a document."""
    inst = sm.gen("coverage", 10, "partition-matroid", 7105371993765676830)
    assert inst.name == "coverage-partition-matroid-n10-s7105371993765676830"
    doc = json.loads(inst.to_json())
    doc["function"]["item_weights"] = [w * factor for w in doc["function"]["item_weights"]]
    return doc


class TestCli:
    def test_gen_solve_flow(self, tmp_path, capsys):
        inst_path = tmp_path / "inst.json"
        out_path = tmp_path / "result.json"
        assert main(["gen", "--kind", "directed-cut", "--n", "6",
                     "--constraint", "cardinality", "--seed", "4",
                     "--out", str(inst_path)]) == 0
        assert main(["solve", str(inst_path), "--delta", "0.05",
                     "--theta-grid", "0,0.2,0.5", "--out", str(out_path)]) == 0
        rec = json.loads(out_path.read_text())
        assert rec["ratio"] >= 0.372
        assert capsys.readouterr().out.strip()

    def test_solve_zero_function(self, tmp_path):
        inst = sm.InstanceFile(
            n=2, function={"kind": "explicit-table", "values": [0.0] * 4},
            constraint={"kind": "cardinality", "k": 1},
            metadata={"name": "all-zero"})
        p = tmp_path / "zero.json"
        p.write_text(inst.to_json())
        out = tmp_path / "res.json"
        assert main(["solve", str(p), "--delta", "0.25",
                     "--theta-grid", "0,0.5,1", "--out", str(out)]) == 0
        rec = json.loads(out.read_text())
        assert rec["best_value"] == 0.0 and rec["ratio"] is None

    def test_bound_prints_reference_value(self, capsys):
        assert main(["bound", "--alpha", "0.5", "--theta", "0.18"]) == 0
        out = capsys.readouterr().out
        assert "0.3721" in out

    @pytest.mark.parametrize("flags,name", [
        (["--alpha", "2"], "alpha"),
        (["--alpha", "nan"], "alpha"),
        (["--theta", "3"], "theta"),
        (["--grid", "0"], "grid"),
        (["--grid", "-3"], "grid"),
        (["--grid", "1000000000000"], "grid"),
    ], ids=["alpha-2", "alpha-nan", "theta-3", "grid-0", "grid-neg", "grid-huge"])
    def test_bound_out_of_range_exits_2_without_allocating(self, capsys, flags, name):
        tracemalloc.start()
        try:
            assert main(["bound", *flags]) == 2
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 << 20
        err = capsys.readouterr().err
        assert err.startswith("error: ") and name in err

    def test_malformed_file_is_a_parse_error(self, tmp_path, capsys):
        p = tmp_path / "bad.json"
        p.write_text("{not json")
        assert main(["solve", str(p)]) == 2
        assert "line" in capsys.readouterr().err

    @pytest.mark.parametrize("kind,constraint,mutate,message", [
        ("directed-cut", "knapsack",
         lambda d: d.update(function=[]), "'function' must be a JSON object"),
        ("directed-cut", "knapsack",
         lambda d: d.update(n="x"), "'n' must be a positive integer"),
        ("directed-cut", "knapsack",
         lambda d: d["function"]["arcs"][0].pop(), "directed-cut function payload"),
        ("directed-cut", "knapsack",
         lambda d: d["constraint"].update(budget="NaN"), "knapsack constraint payload"),
        ("directed-cut", "knapsack",
         lambda d: d["constraint"].update(budget=float("nan")), "positive and finite"),
        ("coverage", "cardinality",
         lambda d: d["constraint"].update(k=float("inf")), "positive and finite"),
        ("coverage", "knapsack",
         lambda d: d["function"].update(
             item_weights=[[w] for w in d["function"]["item_weights"]]),
         "item weights must be a flat list of numbers"),
        ("directed-cut", "knapsack",
         lambda d: d["constraint"].update(costs=[[c] for c in d["constraint"]["costs"]]),
         "knapsack costs must be a flat list of numbers"),
        ("directed-cut", "cardinality",
         lambda d: d["function"]["arcs"][0].__setitem__(0, 0.5),
         "arc endpoint 0.5 is not an integer index"),
        ("coverage", "cardinality",
         lambda d: d["function"]["covers"][0].append(0.5),
         "covered item 0.5 is not an integer index"),
        ("directed-cut", "partition-matroid",
         lambda d: d["constraint"]["blocks"][0].__setitem__(0, 2.7),
         "block element 2.7 is not an integer index"),
        ("directed-cut", "cardinality",
         lambda d: d["function"]["arcs"][0].append(1.0),
         "each arc must be [tail, head, weight]"),
        ("directed-cut", "cardinality",
         lambda d: d.update(n=4097), "'n' must be a positive integer <= 4096"),
        ("directed-cut", "partition-matroid",
         lambda d: d.update(n=2**63), "'n' must be a positive integer <= 4096"),
        ("coverage", "cardinality", lambda d: d["constraint"].update(k=True),
         "cardinality budget k must be positive and finite, got True"),
        ("coverage", "cardinality", lambda d: d["constraint"].update(k=None),
         "cardinality budget k must be positive and finite, got None"),
        ("coverage", "cardinality", lambda d: d["constraint"].update(k="2"),
         "cardinality budget k must be positive and finite, got '2'"),
        ("directed-cut", "knapsack", lambda d: d["constraint"].update(budget=True),
         "knapsack budget must be positive and finite, got True"),
        ("directed-cut", "knapsack", lambda d: d["constraint"].update(budget=None),
         "knapsack budget must be positive and finite, got None"),
        ("directed-cut", "knapsack", lambda d: d["constraint"].update(budget="2"),
         "knapsack budget must be positive and finite, got '2'"),
        # a true among numbers, which numpy would read as 1.0
        ("directed-cut", "knapsack",
         lambda d: d["constraint"]["costs"].__setitem__(0, True),
         "knapsack costs must be a flat list of numbers"),
        ("coverage", "cardinality",
         lambda d: d["function"]["item_weights"].__setitem__(0, True),
         "item weights must be a flat list of numbers"),
        ("directed-cut", "cardinality",
         lambda d: d["function"]["arcs"][0].__setitem__(2, True),
         "arc weights must be a flat list of numbers"),
        ("directed-cut", "partition-matroid",
         lambda d: d["constraint"]["budgets"].__setitem__(0, True),
         "block budgets must be a flat list of numbers"),
        ("explicit-table", "cardinality",
         lambda d: d["function"]["values"].__setitem__(-1, True),
         "table values must be a flat list of numbers"),
    ], ids=["function-list", "n-string", "two-element-arc", "budget-string",
            "budget-nan", "k-infinity", "item-weights-2d", "costs-2d",
            "fractional-endpoint", "fractional-item", "fractional-block-element",
            "four-element-arc", "cut-n-4097", "partition-n-2^63", "k-true", "k-null",
            "k-string", "budget-true", "budget-null", "budget-string-2", "costs-true",
            "item-weight-true", "arc-weight-true", "block-budget-true", "table-value-true"])
    def test_malformed_instance_is_a_format_error(self, tmp_path, capsys, kind,
                                                  constraint, mutate, message):
        doc = json.loads(sm.gen(kind, 4, constraint, 0).to_json())
        mutate(doc)
        p = tmp_path / "bad.json"
        p.write_text(json.dumps(doc))
        assert main(["solve", str(p), "--delta", "0.25", "--theta-grid", "0"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and message in err

    def test_supermodular_table_is_a_format_error(self, tmp_path, capsys):
        # f(S) = |S|^2 breaks every pair; above n=12 the check is sampled
        sizes = [bin(m).count("1") for m in range(1 << 13)]
        inst = sm.InstanceFile(
            n=13, function={"kind": "explicit-table",
                            "values": [float(s * s) for s in sizes]},
            constraint={"kind": "cardinality", "k": 2})
        p = tmp_path / "super.json"
        p.write_text(inst.to_json())
        assert main(["solve", str(p), "--delta", "0.25", "--theta-grid", "0"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "not submodular (sampled check" in err

    def test_theta_not_multiple_is_a_config_error(self, tmp_path, capsys):
        inst_path = tmp_path / "inst.json"
        main(["gen", "--kind", "directed-cut", "--n", "4",
              "--constraint", "cardinality", "--seed", "1",
              "--out", str(inst_path)])
        assert main(["solve", str(inst_path), "--delta", "0.25",
                     "--theta-grid", "0.1"]) == 2
        assert "multiple" in capsys.readouterr().err

    @pytest.mark.parametrize("grid", ["abc", "nan:0.1:1", "0:0.1:inf", "0:1e-300:1"])
    def test_bad_theta_grid_exits_2_promptly(self, tmp_path, capsys, grid):
        p = tmp_path / "inst.json"
        p.write_text(sm.gen("directed-cut", 4, "cardinality", 1).to_json())
        start = time.perf_counter()
        assert main(["solve", str(p), "--no-opt", "--theta-grid", grid]) == 2
        assert time.perf_counter() - start < 1.0
        assert capsys.readouterr().err.startswith("error: ")

    @pytest.mark.parametrize("delta", ["1e-320", "5e-324"])
    def test_subnormal_delta_exits_2(self, tmp_path, capsys, delta):
        p = tmp_path / "inst.json"
        p.write_text(sm.gen("directed-cut", 4, "cardinality", 1).to_json())
        assert main(["solve", str(p), "--no-opt", "--delta", delta]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "delta" in err

    def test_too_many_steps_exits_2_promptly(self, tmp_path, capsys):
        p = tmp_path / "inst.json"
        p.write_text(sm.gen("directed-cut", 4, "cardinality", 1).to_json())
        start = time.perf_counter()
        assert main(["solve", str(p), "--no-opt", "--delta", "1e-300",
                     "--theta-grid", "0"]) == 2
        assert time.perf_counter() - start < 1.0
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "10000" in err

    def test_absurd_sample_count_exits_2_without_allocating(self, tmp_path, capsys):
        p = tmp_path / "inst.json"
        p.write_text(sm.gen("directed-cut", 4, "cardinality", 1).to_json())
        tracemalloc.start()
        try:
            assert main(["solve", str(p), "--no-opt", "--mode", "mc",
                         "--samples", "1000000000000000"]) == 2
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 << 20
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "mc draw" in err

    def test_directory_as_instance_exits_2(self, tmp_path, capsys):
        assert main(["solve", str(tmp_path)]) == 2
        assert capsys.readouterr().err.startswith("error: ")

    def test_undecodable_instance_is_a_format_error(self, tmp_path, capsys):
        p = tmp_path / "utf16.json"
        p.write_bytes(b"\xff\xfe")
        assert main(["solve", str(p)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "not UTF-8 text" in err

    def test_gen_out_to_a_directory_exits_2(self, tmp_path, capsys):
        assert main(["gen", "--kind", "coverage", "--n", "4", "--constraint",
                     "cardinality", "--out", str(tmp_path)]) == 2
        assert capsys.readouterr().err.startswith("error: ")

    def test_verify_instance_exit_zero(self, tmp_path, capsys):
        inst_path = tmp_path / "inst.json"
        main(["gen", "--kind", "coverage", "--n", "6",
              "--constraint", "knapsack", "--seed", "2",
              "--out", str(inst_path)])
        assert main(["verify", str(inst_path), "--delta", "0.05",
                     "--theta-grid", "0,0.2,0.5"]) == 0
        out = capsys.readouterr().out
        assert "all hard checks passed" in out

    def test_verify_scale_instance_exit_zero(self, tmp_path, capsys):
        # n=100: elements past bit 63 of an int64 bitmask
        inst_path = tmp_path / "inst.json"
        main(["gen", "--kind", "directed-cut", "--n", "100",
              "--constraint", "cardinality", "--seed", "1",
              "--out", str(inst_path)])
        assert main(["verify", str(inst_path), "--delta", "0.02",
                     "--theta-grid", "0,0.18"]) == 0
        assert "all hard checks passed" in capsys.readouterr().out

    def test_verify_default_grid_follows_delta(self, tmp_path, capsys):
        # without --theta-grid a delta that does not divide 0.02 runs the
        # default thetas that lie on its grid
        inst_path = tmp_path / "inst.json"
        main(["gen", "--kind", "coverage", "--n", "5",
              "--constraint", "knapsack", "--seed", "3",
              "--out", str(inst_path)])
        assert main(["verify", str(inst_path), "--mode", "mc",
                     "--samples", "100", "--delta", "0.05"]) == 0
        assert "all hard checks passed" in capsys.readouterr().out

    def test_verify_exit_nonzero_on_hard_failure(self, tmp_path, capsys, monkeypatch):
        import submax.cli as cli
        monkeypatch.setattr(cli, "property_suite", lambda *a, **k: [
            sm.CheckResult("forced failure", False)])
        inst_path = tmp_path / "inst.json"
        main(["gen", "--kind", "directed-cut", "--n", "4",
              "--constraint", "cardinality", "--seed", "3",
              "--out", str(inst_path)])
        assert main(["verify", str(inst_path)]) == 1
        assert "HARD FAILURES" in capsys.readouterr().out

    def test_bench_mini_corpus_csv(self, tmp_path, capsys):
        out = tmp_path / "table.csv"
        assert main(["bench", "--corpus", "mini", "--seed", "1",
                     "--delta", "0.1", "--theta-grid", "0,0.2,0.5",
                     "--out", str(out)]) == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0] == CSV_HEADER
        assert len(lines) == 10  # nine instances plus the header
        ratio_col = CSV_HEADER.split(",").index("ratio")
        for row in lines[1:]:
            assert float(row.split(",")[ratio_col]) >= 0.372
        text = capsys.readouterr().out
        assert "overall" in text

    def test_console_script_entry_point(self):
        # the script pyproject.toml installs is cli.main, run here as a module
        project = tomllib.loads((SRC.parent / "pyproject.toml").read_text())
        assert project["project"]["scripts"]["submax"] == "submax.cli:main"
        res = _cli("bound", "--alpha", "0.5", "--theta", "0.18")
        assert res.returncode == 0
        assert "0.3721" in res.stdout

    def test_coverage_whose_gradient_bound_overflows_exits_2(self, tmp_path):
        # the weights sum to 1.74e308, but sum_j w_j deg_j, which bounds
        # <grad, v> in the solve, does not fit a float
        p = tmp_path / "inst.json"
        p.write_text(json.dumps(_scaled_coverage(1.7e307)))
        res = _cli("solve", str(p), "--delta", "0.02")
        assert res.returncode == 2
        assert res.stderr.startswith("error: invalid coverage function payload")
        assert "Traceback" not in res.stderr and "Warning" not in res.stderr

    def test_coverage_with_a_finite_gradient_bound_solves(self):
        # sum_j w_j deg_j = 1.52e308 is finite: the file builds and solves
        doc = _scaled_coverage(5e306)
        rec = sm.run_instance(sm.InstanceFile.from_json(json.dumps(doc)),
                              sm.RunConfig(delta=0.02))
        assert rec.ratio >= 0.372
        assert all(d["passed"] for d in rec.diagnostics)


# ---------------------------------------------------------------------------
# CLI fuzzing: mutated instance documents exit 0 or 2, never with a traceback

_JSON_SCALARS = (st.none() | st.booleans() | st.integers(-3, 40)
                 | st.sampled_from([2**31, 2**63, 2**64, -2**64])
                 | st.floats() | st.text(max_size=3))
_JSON_VALUES = st.recursive(
    _JSON_SCALARS,
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=3), inner, max_size=2),
    max_leaves=6)


def _locations(node, path=()):
    """(path, value) for every location in a JSON document, the root
    excluded."""
    if isinstance(node, dict):
        items = list(node.items())
    elif isinstance(node, list):
        items = list(enumerate(node))
    else:
        return
    for key, child in items:
        yield path + (key,), child
        yield from _locations(child, path + (key,))


@st.composite
def mutated_documents(draw):
    kind = draw(st.sampled_from(sm.instances.FUNCTION_KINDS))
    constraint = draw(st.sampled_from(sm.instances.CONSTRAINT_KINDS))
    doc = json.loads(sm.gen(kind, draw(st.integers(2, 5)), constraint,
                            draw(st.integers(0, 3))).to_json())
    for _ in range(draw(st.integers(1, 3))):
        # a third of the picks go to a top-level field such as n, and a third
        # to a list or object, so whole fields are mutated about as often as
        # single numbers
        found = list(_locations(doc))
        where = st.sampled_from([path for path, _ in found])
        fields = [path for path, v in found if isinstance(v, (list, dict))]
        if fields:
            where = st.sampled_from(fields) | where
        where = st.sampled_from([path for path, _ in found if len(path) == 1]) | where
        path = draw(where)
        parent, key = reduce(getitem, path[:-1], doc), path[-1]
        old = parent[key]
        action = draw(st.sampled_from(["replace", "delete", "wrap", "wrap items",
                                       "append", "nudge", "scale"]))
        if action == "replace":
            parent[key] = draw(_JSON_SCALARS | _JSON_VALUES)
        elif action == "delete":
            del parent[key]
        elif action == "wrap":
            parent[key] = [old]
        elif action == "wrap items" and isinstance(old, list):
            parent[key] = [[v] for v in old]
        elif action == "append" and isinstance(old, list):
            old.append(draw(_JSON_VALUES))
        elif action == "nudge" and isinstance(old, (int, float)) \
                and not isinstance(old, bool):
            parent[key] = old + draw(st.sampled_from([-1, 1, -0.5, 0.5, 1e-9]))
        elif action == "scale" and isinstance(old, list):
            factor = draw(st.sampled_from([-1.0, 0.0, 1e-300, 1e308]) | st.floats())
            parent[key] = [v * factor if isinstance(v, (int, float))
                           and not isinstance(v, bool) else v for v in old]
    return doc


@given(doc=mutated_documents())
@settings(max_examples=300, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
def test_cli_solve_on_mutated_documents_exits_0_or_2(tmp_path_factory, doc):
    path = tmp_path_factory.mktemp("fuzz") / "inst.json"
    path.write_text(json.dumps(doc))
    code = main(["solve", str(path), "--no-opt", "--delta", "0.25",
                 "--theta-grid", "0,0.25", "--out", str(path.with_suffix(".out"))])
    assert code in (0, 2)


# Input fuzzing: one or two edits to n = 4 documents of every kind x body
# cell either solve or fail with a typed SubmaxError, and submax solve
# exits 0 or 2

_EDITS = [True, False, None, "x", "", [], 1e308, -1e308, 2**70, 5e-324,
          -5e-324, 1e-310, "delete"]


@st.composite
def edited_documents(draw):
    kind = draw(st.sampled_from(FUNCTION_KINDS))
    body = draw(st.sampled_from(CONSTRAINT_KINDS))
    doc = json.loads(sm.gen(kind, 4, body, draw(st.integers(0, 3))).to_json())
    for _ in range(draw(st.integers(1, 2))):
        path = draw(st.sampled_from([path for path, _ in _locations(doc)]))
        parent, key = reduce(getitem, path[:-1], doc), path[-1]
        edit = draw(st.sampled_from(_EDITS))
        if edit == "delete":
            del parent[key]
        else:
            parent[key] = edit
    return doc


@given(doc=edited_documents())
@settings(max_examples=300, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
def test_edited_documents_solve_or_raise_a_typed_error(tmp_path_factory, doc):
    text = json.dumps(doc)
    try:
        f, C = sm.InstanceFile.from_json(text).build()
        sm.solve(f, C, sm.RunConfig(delta=0.25, theta_grid=(0.0, 0.25)))
    except sm.SubmaxError:
        pass
    path = tmp_path_factory.mktemp("edit") / "inst.json"
    path.write_text(text)
    code = main(["solve", str(path), "--no-opt", "--delta", "0.25",
                 "--theta-grid", "0,0.25", "--out", str(path.with_suffix(".out"))])
    assert code in (0, 2)


def test_every_traced_name_is_where_the_tracer_wraps_it(monkeypatch):
    # the benchmark's tracer wraps each (owner, attribute) it lists in the
    # owner's own namespace and only names a missing one on stderr, so a
    # refactor that moved, say, value_batch into SetFunction would silently
    # lose its spans; the tracer is loaded from its source, writing nothing
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracer", path)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    targets = tracer._targets()
    assert len(targets) == 19
    assert [f"{owner.__name__}.{attr}" for owner, attr, *_ in targets
            if attr not in vars(owner)] == []
