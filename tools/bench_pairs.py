"""Run the benchmark on two checkouts in alternating pairs and record both.

Usage::

    python tools/bench_pairs.py PARENT CHANGE --workload W --seed S \\
        --pairs N --seconds T --out BENCH_<n>.json [--trace 1]

Each pair runs ``perfbench/run.py --workload W --seed S --seconds T``
once in each checkout, from that checkout's root, one run at a time; the
parent goes first in even pairs and the change in odd ones, so drift in
machine load falls on both sides alike.  The metrics of the last line each
run prints are reduced per metric to the parent's and the change's median
and quartiles, every run's value, and ``change_better_pairs``: the pairs in
which the change read strictly better, in the direction ``BENCHMARK.json``
of the change checkout declares for the metric (ties count for neither
side).  Each untraced run's jobs are reduced the same way under
``jobs``: a job's seconds in a run are its median over the run's rounds
at reference host speed, read from the run's
``.perfbench_run/<W>/summary.json`` and reduced as ``perfbench/run.py``
reduces them into ``wall_s``, so a record names the job that moved.  The
result goes into ``--out`` under ``<W>_seed_<S>`` (with ``_trace``
appended for ``--trace 1``), with the command each run ran; the other
keys of an existing file are kept, so one file holds several workloads
and any notes written into it by hand.  Only the standard library is
used.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

ORDER = ("parent and change alternate, the first of each pair switching "
         "every pair")


class BenchError(Exception):
    """A benchmark run failed or printed no result."""


def _directions(checkout):
    """Metric name -> ``"lower"`` or ``"higher"``, from ``BENCHMARK.json``."""
    with open(os.path.join(checkout, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    return {metric["name"]: metric["better"]
            for metric in spec.get("end_to_end", []) + spec.get("per_layer", [])}


# perfbench/speed.py's PROBE_REF_S: the host-speed probe's time at the
# reference speed that normalised seconds are read at.
PROBE_REF_S = 3.5e-4


def job_medians(checkout, workload):
    """Each job's median seconds over the untraced rounds of the last run
    of ``workload`` in ``checkout``, at reference host speed, as
    ``perfbench/run.py`` takes each job's share of ``wall_s``: a round's
    time less the probe's own, scaled by ``PROBE_REF_S`` over the round's
    mean probe time.  Empty for a traced run, whose rounds are not
    sampled for host speed."""
    path = os.path.join(checkout, ".perfbench_run", workload, "summary.json")
    with open(path, encoding="utf-8") as fh:
        rounds = [r for r in json.load(fh)["rounds"] if not r["traced"]]
    if not rounds or any(stats is None for r in rounds
                         for stats in r["speed"].values()):
        return {}
    return {name: statistics.median(
                (r["jobs"][name] - r["speed"][name]["probe_s"]) * PROBE_REF_S
                / r["speed"][name]["mean_probe_s"] for r in rounds)
            for name in rounds[0]["jobs"]}


def run_once(checkout, workload, seed, seconds, trace):
    """The ``(metrics, env, jobs)`` of one benchmark run in ``checkout``:
    the metric values of its last output line, the environment it prints
    and its :func:`job_medians`."""
    command = [sys.executable, os.path.join("perfbench", "run.py"),
               "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", str(trace)]
    run = subprocess.run(command, cwd=checkout, capture_output=True, text=True)
    lines = run.stdout.splitlines()
    if run.returncode != 0 or not lines:
        raise BenchError(f"{' '.join(command)} in {checkout} exited "
                         f"{run.returncode}: {run.stderr.strip()}")
    env = {}
    for line in lines:
        if line.startswith("env: "):
            env = json.loads(line[len("env: "):])
    result = json.loads(lines[-1])
    return ({name: entry["value"] for name, entry in result["metrics"].items()},
            env, job_medians(checkout, workload))


def _quartiles(values):
    """``(q1, median, q3)`` by linear interpolation between order
    statistics (``statistics.quantiles``' inclusive method)."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, median, q3


def _rounded(value):
    return round(value, 4)


def reduce_pairs(parent_runs, change_runs, directions):
    """The record of one workload from its paired runs: two equally long
    lists of ``{metric: value}``, the i-th of each from pair i."""
    if len(parent_runs) != len(change_runs) or not parent_runs:
        raise ValueError("need one parent and one change run per pair")
    section = {"pairs": len(parent_runs)}
    for name in parent_runs[0]:
        better = directions.get(name, "lower")
        parent = [run[name] for run in parent_runs]
        change = [run[name] for run in change_runs]
        record = {"better": better}
        for side, values in (("parent", parent), ("change", change)):
            q1, median, q3 = _quartiles(values)
            record[side] = {"median": _rounded(median), "q1": _rounded(q1),
                            "q3": _rounded(q3)}
        sign = 1.0 if better == "higher" else -1.0
        record["change_better_pairs"] = sum(sign * (c - p) > 0.0
                                            for p, c in zip(parent, change))
        record["parent_runs"] = [_rounded(value) for value in parent]
        record["change_runs"] = [_rounded(value) for value in change]
        section[name] = record
    return section


def _host(env):
    return (f"{env.get('nproc')}-CPU affinity set, Python {env.get('python')}, "
            f"numpy {env.get('numpy')}, OpenBLAS {env.get('blas')} at "
            f"{env.get('blas_threads')} BLAS thread(s)")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", help="root of the parent checkout")
    parser.add_argument("change", help="root of the changed checkout")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--pairs", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", required=True,
                        help="JSON file the record is written into")
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")
    runs = {"parent": [], "change": []}
    jobs = {"parent": [], "change": []}
    env = {}
    try:
        for pair in range(args.pairs):
            order = ("parent", "change") if pair % 2 == 0 else ("change", "parent")
            for side in order:
                metrics, env, seconds = run_once(getattr(args, side), args.workload,
                                                 args.seed, args.seconds, args.trace)
                runs[side].append(metrics)
                jobs[side].append(seconds)
                print(f"pair {pair} {side}: "
                      + " ".join(f"{k}={v:.4g}" for k, v in metrics.items()),
                      file=sys.stderr)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    record = {}
    if os.path.exists(args.out):
        with open(args.out, encoding="utf-8") as fh:
            record = json.load(fh)
    record.setdefault("host", _host(env))
    record.setdefault("command", "python3 perfbench/run.py, as each "
                                 "workload's command says")
    record["order"] = ORDER
    key = f"{args.workload}_seed_{args.seed}" + ("_trace" if args.trace else "")
    record[key] = {
        "command": ("python3 perfbench/run.py --workload "
                    f"{args.workload} --seed {args.seed} --seconds "
                    f"{args.seconds:g} --trace {args.trace}"),
        **reduce_pairs(runs["parent"], runs["change"], _directions(args.change)),
    }
    if all(jobs["parent"] + jobs["change"]):
        per_job = reduce_pairs(jobs["parent"], jobs["change"], {})
        del per_job["pairs"]
        record[key]["jobs"] = per_job
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
        fh.write("\n")
    print(f"wrote {key} to {args.out}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
