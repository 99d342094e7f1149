"""Tests for tools/bench_pairs.py, the paired benchmark record."""

import importlib.util
import json
import os

import pytest

_TOOL = os.path.join(os.path.dirname(__file__), os.pardir, "tools",
                     "bench_pairs.py")


@pytest.fixture
def tool():
    spec = importlib.util.spec_from_file_location("bench_pairs", _TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_pairs_reduce_to_quartiles_runs_and_wins(tool):
    parent = [{"wall_s": v, "passed_frac": 1.0}
              for v in (0.35, 0.36, 0.34, 0.37, 0.35)]
    change = [{"wall_s": v, "passed_frac": f}
              for v, f in ((0.33, 1.0), (0.36, 1.0), (0.32, 1.0),
                           (0.38, 0.9), (0.31, 1.0))]
    section = tool.reduce_pairs(parent, change,
                                {"wall_s": "lower", "passed_frac": "higher"})
    assert section["pairs"] == 5
    wall = section["wall_s"]
    assert wall["better"] == "lower"
    assert wall["parent"] == {"median": 0.35, "q1": 0.35, "q3": 0.36}
    assert wall["change"] == {"median": 0.33, "q1": 0.32, "q3": 0.36}
    # Pair 1 is a tie, which counts for neither side; pair 3 is a loss.
    assert wall["change_better_pairs"] == 3
    assert wall["parent_runs"] == [0.35, 0.36, 0.34, 0.37, 0.35]
    assert wall["change_runs"] == [0.33, 0.36, 0.32, 0.38, 0.31]
    passed = section["passed_frac"]
    assert passed["better"] == "higher" and passed["change_better_pairs"] == 0
    assert passed["change"] == {"median": 1.0, "q1": 1.0, "q3": 1.0}


def test_quartiles_interpolate_between_order_statistics(tool):
    runs = [{"m": v} for v in (4.0, 1.0, 3.0, 2.0)]
    section = tool.reduce_pairs(runs, runs, {"m": "higher"})
    assert section["m"]["parent"] == {"median": 2.5, "q1": 1.75, "q3": 3.25}
    assert tool.reduce_pairs(runs[:1], runs[:1], {})["m"]["change"] == {
        "median": 4.0, "q1": 4.0, "q3": 4.0}
    with pytest.raises(ValueError):
        tool.reduce_pairs(runs, runs[:2], {})


def test_runs_alternate_and_the_record_keeps_other_keys(tool, tmp_path,
                                                        monkeypatch):
    order = []

    def run_once(checkout, workload, seed, seconds, trace):
        order.append(checkout)
        return {"wall_s": 1.0 if checkout == "old" else 0.5}, {"nproc": 2}

    monkeypatch.setattr(tool, "run_once", run_once)
    monkeypatch.setattr(tool, "_directions", lambda checkout: {"wall_s": "lower"})
    out = tmp_path / "BENCH_1.json"
    out.write_text(json.dumps({"change": "what changed"}))
    argv = ["old", "new", "--workload", "compare", "--seed", "3",
            "--pairs", "3", "--seconds", "1", "--out", str(out)]
    assert tool.main(argv) == 0
    assert order == ["old", "new", "new", "old", "old", "new"]
    record = json.loads(out.read_text())
    assert record["change"] == "what changed"
    section = record["compare_seed_3"]
    assert section["command"].endswith("--seed 3 --seconds 1 --trace 0")
    assert section["pairs"] == 3
    assert section["wall_s"]["change_better_pairs"] == 3
    assert tool.main(argv[:-2] + ["--trace", "1", "--out", str(out)]) == 0
    assert set(json.loads(out.read_text())) >= {"compare_seed_3",
                                                 "compare_seed_3_trace"}
