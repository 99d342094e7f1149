"""guidance-lab benchmark: one command, seeded workloads, checked outputs.

Usage (from the repository root)::

    python3 perfbench/run.py --workload {trace,compare} --seed N \\
        --seconds S --trace {0,1}

The program under test is ``src/guidance_lab`` of the checkout this file
sits in; it is byte-compiled, then driven through ``guidance_lab.cli.main``
in fresh worker processes (``worker.py``).  Load is a closed loop: one
client runs one job at a time, with one BLAS thread.

``--trace 0`` prints the end-to-end metrics: ``setup_s`` (median over
several fresh processes, from spawn to the first timed job), ``wall_s``
(time of one pass over the workload's fixed job list, each job taken at
its median over the run's rounds), both at reference host speed
(``speed.py``), ``peak_rss_mb`` (``ru_maxrss`` of the timed process) and ``passed_frac``
(checked jobs / attempted jobs).  ``--trace 1`` runs untraced and traced
rounds in one process and prints the per-layer metrics of the traced
rounds, averaged per round, plus the tracing overhead.  The last line of
standard output is a JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``; run details go to ``.perfbench_run/``.
"""

from __future__ import annotations

import argparse
import compileall
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

from speed import normalized
from workloads import WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
PACKAGE = os.path.join(ROOT, "src", "guidance_lab")
WORK = os.path.join(ROOT, ".perfbench_run")

SETUP_SAMPLES = 5
DEADLINE_S = 170.0


class BenchmarkError(Exception):
    """The benchmark could not produce a result."""


def blas_threads():
    # One thread: the hot paths are Python loops over small BLAS calls, and
    # idle OpenBLAS threads spin, doubling CPU use without speeding them up.
    return 1


def worker_env():
    env = dict(os.environ)
    threads = str(blas_threads())
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = threads
    env["PYTHONHASHSEED"] = "0"
    return env


def run_worker(args, workdir, deadline, extra):
    """Run one worker to completion; return (spawn time, its result)."""
    result_path = os.path.join(workdir, "result.json")
    command = [sys.executable, os.path.join(HERE, "worker.py"),
               "--workload", args.workload, "--seed", str(args.seed),
               "--workdir", workdir, "--result", result_path, *extra]
    spawned = time.monotonic()
    proc = subprocess.Popen(command, env=worker_env(), cwd=ROOT,
                            stdout=subprocess.PIPE, stderr=subprocess.STDOUT)
    try:
        output, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise BenchmarkError(f"worker exceeded the {DEADLINE_S:.0f} s budget")
    if proc.returncode != 0:
        raise BenchmarkError(
            f"worker exited with {proc.returncode}:\n{output.decode(errors='replace')}")
    with open(result_path, encoding="utf-8") as fh:
        return spawned, json.load(fh)


def setup_sample(spawned, result):
    seconds = result["ready"] - spawned
    return {"seconds": seconds, "normalized_s": normalized(seconds, result["setup_speed"]),
            **result["setup_speed"]}


def environment():
    import numpy
    import scipy

    deps = numpy.show_config(mode="dicts").get("Build Dependencies", {})
    source = hashlib.sha256()
    for base, dirs, files in os.walk(PACKAGE):
        dirs[:] = sorted(d for d in dirs if d != "__pycache__")
        for name in sorted(files):
            if name.endswith(".py"):
                with open(os.path.join(base, name), "rb") as fh:
                    source.update(name.encode() + b"\0" + fh.read())
    sha = None
    if os.path.isdir(os.path.join(ROOT, ".git")) and shutil.which("git"):
        sha = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True).stdout.strip() or None
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": deps.get("blas", {}).get("version"),
        "blas_threads": blas_threads(),
        "git_sha": sha,
        "source_sha256": source.hexdigest(),
    }


def _mean(values):
    return sum(values) / len(values) if values else 0.0


def layer_metrics(trace, rounds):
    """Per-layer metrics of the traced rounds, per round."""
    traced = [r["seconds"] for r in rounds if r["traced"]]
    plain = [r["seconds"] for r in rounds if not r["traced"]]
    k = len(traced)
    per = trace["per_name"]

    def calls(*names):
        return sum(per.get(n, {}).get("count", 0) for n in names) / k

    def incl(*names):
        return sum(per.get(n, {}).get("incl_s", 0.0) for n in names) / k

    def counted(key):
        return trace["counters"].get(key, 0) / k

    def self_s(layer):
        return trace["layer_self_s"][layer] / k

    sampler_s = incl("sampler.integrate", "sampler.batch_integrate")
    state_steps = counted("sampler.state_steps")
    traced_wall = _mean(traced)
    return {
        "mixture.marginal_builds": counted("mixture.marginal_builds"),
        "mixture.marginal_s": incl("mixture.marginal_at"),
        "mixture.hessian_calls": calls("mixture.GaussianMixture.hessian_log_density"),
        "mixture.oracle_calls": counted("mixture.oracle_calls"),
        "mixture.oracle_points": counted("mixture.oracle_points"),
        "mixture.self_s": self_s("mixture"),
        "mixture.sample_s": incl("mixture.GaussianMixture.sample"),
        "guidance.apply_rows": counted("guidance.apply_rows"),
        "guidance.exact_field_calls": calls("guidance.VectorField.divergence",
                                            "guidance.VectorField.jacobian"),
        "guidance.self_s": self_s("guidance"),
        "divergence.profile_cells": counted("divergence.profile_cells"),
        "divergence.hutchinson_probes": counted("divergence.hutchinson_probes"),
        "divergence.self_s": self_s("divergence"),
        "sampler.state_steps": state_steps,
        "sampler.self_s": self_s("sampler"),
        "sampler.state_steps_per_s": state_steps / sampler_s if sampler_s else 0.0,
        "metrics.permutations": counted("metrics.permutations"),
        "metrics.perm_s": incl("metrics.permutation_test"),
        "metrics.energy_s": incl("metrics.energy_distance"),
        "metrics.pooled_bytes": counted("metrics.pooled_bytes"),
        "metrics.gathered_bytes": counted("metrics.gathered_bytes"),
        "metrics.recomputed_pairs": counted("metrics.recomputed_pairs"),
        "metrics.self_s": self_s("metrics"),
        "schedule.calls": calls(*(n for n in per if n.startswith("schedule."))),
        "schedule.self_s": self_s("schedule"),
        "cli.config_s": trace["config_outer_s"] / k,
        "cli.write_s": incl("tables.Table.write_csv", "cli._write_json"),
        "cli.bytes_written": counted("cli.bytes_written"),
        # Time inside a traced round but outside every layer's spans
        # (the job runner around cli.main) is charged to the CLI.
        "cli.self_s": self_s("cli") + (sum(traced) - trace["root_s"]) / k,
        "traced_wall_s": traced_wall,
        "trace_overhead_frac": traced_wall / _mean(plain) - 1.0,
    }


def unit(name):
    if name.endswith("_per_s"):
        return "1/s"
    for suffix, value in (("_s", "s"), ("_frac", "frac"), ("_mb", "MB")):
        if name.endswith(suffix):
            return value
    return "B" if "bytes" in name else "count"


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    deadline = time.monotonic() + DEADLINE_S

    if not os.path.isfile(os.path.join(PACKAGE, "cli.py")):
        print(f"error: program source not found at {PACKAGE}", file=sys.stderr)
        return 2
    if not all(compileall.compile_dir(d, quiet=1) for d in (PACKAGE, HERE)):
        print("error: the sources do not byte-compile", file=sys.stderr)
        return 2
    root = os.path.join(WORK, args.workload)
    shutil.rmtree(root, ignore_errors=True)
    os.makedirs(root)

    setups = []

    def probe(count):
        for _ in range(count):
            workdir = os.path.join(root, f"setup{len(setups)}")
            os.makedirs(workdir)
            spawned, probe_result = run_worker(args, workdir, deadline, ["--setup-only"])
            setups.append(setup_sample(spawned, probe_result))

    # Set-up probes run on both sides of the timed worker, so that the
    # samples span the whole run rather than one stretch of machine load.
    probes = 0 if args.trace else SETUP_SAMPLES - 1
    try:
        probe(probes // 2)
        timed = os.path.join(root, "timed")
        os.makedirs(timed)
        spawned, result = run_worker(
            args, timed, deadline,
            ["--seconds", str(args.seconds), "--trace", str(args.trace)])
        setups.append(setup_sample(spawned, result))
        probe(probes - probes // 2)
    except BenchmarkError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    rounds = result["rounds"]
    if args.trace:
        metrics = layer_metrics(result["trace"], rounds)
    else:
        metrics = {
            "setup_s": statistics.median(s["normalized_s"] for s in setups),
            "wall_s": sum(statistics.median(normalized(r["jobs"][name], r["speed"][name])
                                            for r in rounds)
                          for name in rounds[0]["jobs"]),
            "peak_rss_mb": result["peak_rss_mb"],
            "passed_frac": 1.0 - result["failed"] / result["attempted"],
        }

    info = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
            "env": environment(), "setup_samples": setups, "rounds": rounds,
            "failures": result["failures"], "metrics": metrics}
    with open(os.path.join(root, "summary.json"), "w", encoding="utf-8") as fh:
        json.dump(info, fh, indent=2)
    print(f"env: {json.dumps(info['env'])}")
    for i, r in enumerate(rounds):
        jobs = " ".join(f"{name}={sec:.3f}" for name, sec in r["jobs"].items())
        print(f"round {i}{' traced' if r['traced'] else ''}: {r['seconds']:.3f} s  {jobs}")
        if not args.trace:
            print("  at reference speed: " + " ".join(
                f"{name}={normalized(sec, r['speed'][name]):.3f}"
                for name, sec in r["jobs"].items()))
    for f in result["failures"]:
        print(f"FAILED job={f['job']} round={f['round']} seed={f['seed']}: {f['check']}")
    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": value, "unit": unit(name)}
                    for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
