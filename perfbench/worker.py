"""One benchmark process: set up, then run timed rounds of a workload.

Set-up is what a CLI user pays on every invocation: interpreter start,
imports, generating the workload's config files, and one small untimed
warm-up job.  A round runs the workload's fixed job list once through
``guidance_lab.cli.main``, in-process, with the CLI's stdout captured so
terminal I/O is not timed.  Rounds repeat while the next one is expected
to end within ``--seconds``; there is always at least one.
Round 0 is checked job by job (``checks.py``); every later round must
rewrite byte-identical artifacts.

Host speed (``speed.py``) is sampled through set-up and, with
``--trace 0``, through every timed job.  With ``--trace 1`` untraced and
traced rounds alternate, starting untraced, and jobs are not sampled, so
that no probe time lands in a traced span.  The result, a JSON file, is
read by ``run.py``.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import resource
import shutil
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import speed  # noqa: E402

# Host speed is sampled from here to the end of set-up, imports included.
SAMPLER = speed.Sampler()
SAMPLER.start()

import guidance_lab  # noqa: E402
from guidance_lab import cli  # noqa: E402

import checks  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402


def run_job(job, sample=False):
    """Run one CLI job; return (seconds, failure message or None, host-speed
    statistics of the job's window or None)."""
    shutil.rmtree(job.out_dir, ignore_errors=True)
    sink = io.StringIO()
    error = None
    if sample:
        SAMPLER.start()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            status = cli.main(job.argv())
    except SystemExit as exc:
        status = exc.code
    except Exception as exc:  # a job that raises is a failed job, not a crash
        status, error = None, f"raised {type(exc).__name__}: {exc}"
    seconds = time.perf_counter() - start
    stats = SAMPLER.stop() if sample else None
    if error is None and status != 0:
        said = [line for line in sink.getvalue().splitlines()
                if line.startswith(("[FAIL]", "error:"))]
        error = f"exit status {status}: {'; '.join(said)}"
    return seconds, error, stats


def digest(out_dir):
    """SHA-256 over the names and bytes of every artifact of a job."""
    h = hashlib.sha256()
    for name in sorted(os.listdir(out_dir)):
        h.update(name.encode() + b"\0")
        with open(os.path.join(out_dir, name), "rb") as fh:
            h.update(fh.read())
    return h.hexdigest()


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--result", required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    failures = []

    def fail(job, round_index, messages):
        for message in messages:
            failures.append({"job": job.name, "round": round_index,
                             "seed": args.seed, "check": message})

    warmup, jobs = workloads.generate(args.workload, args.seed, args.workdir)
    _, error, _ = run_job(warmup)
    ready = time.monotonic()
    result = {"ready": ready, "setup_speed": SAMPLER.stop()}
    if args.setup_only:
        with open(args.result, "w", encoding="utf-8") as fh:
            json.dump(result, fh)
        return 0
    fail(warmup, -1, [error] if error else checks.check_job(warmup))

    tracer = Tracer(guidance_lab) if args.trace else None
    rounds, reference = [], {}
    start = time.monotonic()
    while True:
        traced = tracer is not None and len(rounds) % 2 == 1
        if traced:
            tracer.install()
        seconds, errors, speeds = {}, {}, {}
        try:
            for index, job in enumerate(jobs):
                if traced:
                    tracer.job[0] = len(rounds) * len(jobs) + index
                seconds[job.name], errors[job.name], speeds[job.name] = run_job(
                    job, sample=tracer is None)
        finally:
            if traced:
                tracer.uninstall()
        for job in jobs:
            if errors[job.name]:
                fail(job, len(rounds), [errors[job.name]])
            elif not rounds:
                messages = checks.check_job(job)
                fail(job, 0, messages)
                if not messages:
                    reference[job.name] = digest(job.out_dir)
            elif job.name not in reference:
                fail(job, len(rounds), ["round 0 of this job failed its check"])
            elif digest(job.out_dir) != reference[job.name]:
                fail(job, len(rounds), ["artifacts differ from round 0"])
        rounds.append({"traced": traced, "jobs": seconds, "speed": speeds,
                       "seconds": sum(seconds.values())})
        # Start another round only if it should end within --seconds.
        elapsed = time.monotonic() - start
        room = elapsed * (len(rounds) + 1) / len(rounds) <= args.seconds
        if not room and (tracer is None or len(rounds) >= 2):
            break

    result.update({
        "rounds": rounds,
        "attempted": 1 + len(rounds) * len(jobs),
        "failed": len({(f["job"], f["round"]) for f in failures}),
        "failures": failures,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    })
    if tracer is not None:
        result["trace"] = tracer.summary()
        tracer.save(os.path.join(args.workdir, "spans.npz"))
    with open(args.result, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
