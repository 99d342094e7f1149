"""Tests for tools/bench_pairs.py, the paired benchmark record."""

import ast
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
    # Each checkout holds a file naming it, and leftovers a slot's copy
    # leaves out.
    for name in ("old", "new"):
        (tmp_path / name / ".perfbench_run").mkdir(parents=True)
        (tmp_path / name / "which").write_text(name)
    order, slots, reused = [], [], []

    def run_once(checkout, workload, seed, seconds, trace):
        name = open(os.path.join(checkout, "which")).read()
        assert not os.path.exists(os.path.join(checkout, ".perfbench_run"))
        order.append(name)
        slots.append(os.path.basename(checkout))
        # Mark the copy as run, to tell a fresh copy from a reused one.
        marker = os.path.join(checkout, "ran")
        reused.append(os.path.exists(marker))
        open(marker, "w").close()
        fast = name == "new"
        jobs = {} if trace else {"omega": 0.3 if fast else 0.4, "compare": 0.6}
        return {"wall_s": 0.5 if fast else 1.0}, {"nproc": 2}, jobs

    monkeypatch.setattr(tool, "run_once", run_once)
    monkeypatch.setattr(tool, "_directions", lambda checkout: {"wall_s": "lower"})
    out = tmp_path / "BENCH_1.json"
    out.write_text(json.dumps({"change": "what changed"}))
    argv = [str(tmp_path / "old"), str(tmp_path / "new"), "--workload",
            "compare", "--seed", "3", "--pairs", "5", "--seconds", "1",
            "--out", str(out)]
    assert tool.main(argv) == 0
    assert order == ["old", "new", "new", "old", "old", "new", "new", "old",
                     "old", "new"]
    # The slots swap every other pair: the parent runs in slot 0 in pairs
    # 0, 1 and 4, in slot 1 in pairs 2 and 3.
    assert slots == ["slot0", "slot1", "slot1", "slot0", "slot1", "slot0",
                     "slot0", "slot1", "slot0", "slot1"]
    # Fresh copies at pairs 0, 2 and 4; pairs 1 and 3 reuse them.
    assert reused == [False, False, True, True] * 2 + [False, False]
    record = json.loads(out.read_text())
    assert record["change"] == "what changed"
    section = record["compare_seed_3"]
    assert section["command"].endswith("--seed 3 --seconds 1 --trace 0")
    assert section["pairs"] == 5
    assert section["slots"] == {"parent": [0, 0, 1, 1, 0],
                                "change": [1, 1, 0, 0, 1]}
    assert section["wall_s"]["change_better_pairs"] == 5
    # The job that moved is named; a job that did not wins no pair.
    assert section["jobs"]["omega"]["change"]["median"] == 0.3
    assert section["jobs"]["omega"]["change_better_pairs"] == 5
    assert section["jobs"]["compare"]["change_better_pairs"] == 0
    assert tool.main(argv[:-2] + ["--trace", "1", "--out", str(out)]) == 0
    record = json.loads(out.read_text())
    assert set(record) >= {"compare_seed_3", "compare_seed_3_trace"}
    assert "jobs" not in record["compare_seed_3_trace"]


def _summary(rounds):
    return {"workload": "compare", "rounds": rounds, "metrics": {}}


def test_job_medians_reduce_each_job_as_wall_s_is_reduced(tool, tmp_path):
    # Two jobs over three untraced rounds.  A job's seconds in a round are
    # its time less the probe's own, scaled by the reference probe time
    # over the round's mean probe time; its median is over the rounds.
    ref = tool.PROBE_REF_S
    rounds = []
    for seconds, probe_s, mean_probe_s in ((1.0, 0.1, ref), (2.0, 0.0, 2 * ref),
                                           (4.0, 0.5, ref / 2)):
        stats = {"probe_s": probe_s, "mean_probe_s": mean_probe_s, "count": 3}
        rounds.append({"traced": False, "jobs": {"a": seconds, "b": 0.5},
                       "speed": {"a": stats, "b": stats},
                       "seconds": seconds + 0.5})
    run = tmp_path / ".perfbench_run" / "compare"
    run.mkdir(parents=True)
    (run / "summary.json").write_text(json.dumps(_summary(rounds)))
    medians = tool.job_medians(str(tmp_path), "compare")
    # a: 0.9, 1.0 and 7.0 at reference speed; b: 0.4, 0.25 and 0.0.
    assert medians == {"a": pytest.approx(1.0), "b": pytest.approx(0.25)}
    # A traced run samples no host speed, so it has no job medians.
    for r in rounds:
        r["speed"] = {"a": None, "b": None}
    rounds[1]["traced"] = True
    (run / "summary.json").write_text(json.dumps(_summary(rounds)))
    assert tool.job_medians(str(tmp_path), "compare") == {}


def test_probe_reference_matches_the_benchmark_copy(tool):
    # tools/bench_pairs.py copies PROBE_REF_S from perfbench/speed.py by
    # hand; read the benchmark's value from its source, without importing
    # or changing it, so the two cannot drift apart unnoticed.
    path = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench",
                        "speed.py")
    with open(path, encoding="utf-8") as fh:
        module = ast.parse(fh.read())
    values = [ast.literal_eval(node.value) for node in module.body
              if isinstance(node, ast.Assign)
              and [getattr(target, "id", None) for target in node.targets]
              == ["PROBE_REF_S"]]
    assert values == [tool.PROBE_REF_S]
