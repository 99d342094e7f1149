"""Digest every artifact the CLI writes, to check that a change keeps them.

Usage::

    python tools/artifact_digests.py DIGESTS.json [--seeds N ...]
        [--configs cfg.json ...] [--bench-seeds S ...]
    python tools/artifact_digests.py --compare A.json B.json

The first form runs, in process through ``guidance_lab.cli.main``, the
five kinds on their default configs, ``verify`` at each of ``--seeds``
(default: 0 2 8 25; 8 and 25 are the regression seeds of the verify
tests), each kind named by a ``--configs`` file and, at each of
``--bench-seeds`` (default: none), every job of both benchmark workloads,
warm-up included, each into its own temporary output directory, and
writes a JSON map from ``<run>/<artifact>`` to the artifact's sha256.  A
run is named by its kind, ``verify_seed_<n>``, the config path as given,
or ``<workload>_seed_<S>/<job>``.  The benchmark's config files are
written by ``perfbench/workloads.py``'s ``generate`` under the temporary
root, so ``perfbench/`` is left as it is.  It exits 1 if any run exits
non-zero, after writing the map.

The second form lists the artifacts whose digests differ between two maps,
or that only one of them holds, and exits 1 if there is any.

``guidance_lab`` is imported from the path Python finds it on, so
``PYTHONPATH=<checkout>/src`` digests that checkout; without one the
``src`` beside this script is used.  Beyond the standard library, only
``--bench-seeds`` needs more: the workload generator imports NumPy.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import importlib.util
import io
import json
import os
import sys
import tempfile

_ROOT = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir)

try:
    from guidance_lab import cli
except ImportError:
    sys.path.insert(0, os.path.join(_ROOT, "src"))
    from guidance_lab import cli

KINDS = ("verify", "trace_divergence", "sweep_beta", "sweep_omega",
         "sample_compare")


def _sha256(path):
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def _kind_of(config_path):
    with open(config_path, encoding="utf-8") as fh:
        return json.load(fh)["kind"]


def _workloads():
    """The benchmark's ``perfbench/workloads.py``, loaded from its file
    without writing its bytecode there."""
    path = os.path.join(_ROOT, "perfbench", "workloads.py")
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look their module up
    writes, sys.dont_write_bytecode = sys.dont_write_bytecode, True
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = writes
    return module


def bench_runs(bench_seeds, root):
    """``(name, argv)`` of every benchmark job, warm-up first, of each
    workload at each seed, with its config files generated under
    ``root``."""
    if not bench_seeds:
        return []
    workloads = _workloads()
    planned = []
    for seed in bench_seeds:
        for workload in workloads.WORKLOADS:
            prefix = f"{workload}_seed_{seed}"
            warmup, jobs = workloads.generate(workload, seed,
                                              os.path.join(root, prefix))
            planned += [(f"{prefix}/{job.name}", job.argv())
                        for job in [warmup, *jobs]]
    return planned


def runs(seeds, configs):
    """``(name, argv)`` of every run, without ``--out``."""
    planned = [(kind, [kind]) for kind in KINDS]
    planned += [(f"verify_seed_{seed}", ["verify", "--seed", str(seed)])
                for seed in seeds]
    planned += [(path, [_kind_of(path), "--config", path]) for path in configs]
    return planned


def digest(seeds, configs, root, bench_seeds=()):
    """Run every run under ``root``; return the digest map and the names
    of the runs that exited non-zero."""
    digests, failed = {}, []
    planned = runs(seeds, configs) + bench_runs(bench_seeds,
                                                os.path.join(root, "bench"))
    for index, (name, argv) in enumerate(planned):
        out = os.path.join(root, f"run_{index:03d}")
        captured = io.StringIO()
        with contextlib.redirect_stdout(captured):
            status = cli.main(argv + ["--out", out])
        if status != 0:
            failed.append(name)
            sys.stderr.write(captured.getvalue())
        # A config the CLI rejects exits 2 before making its directory.
        for artifact in sorted(os.listdir(out)) if os.path.isdir(out) else ():
            digests[f"{name}/{artifact}"] = _sha256(os.path.join(out, artifact))
        print(f"{name}: exit {status}", file=sys.stderr)
    return digests, failed


def differences(a, b):
    """Keys of two digest maps whose values differ or that one lacks."""
    return sorted(key for key in set(a) | set(b) if a.get(key) != b.get(key))


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("digests", nargs="?",
                        help="JSON file the digest map is written to")
    parser.add_argument("--seeds", type=int, nargs="*", default=[0, 2, 8, 25],
                        help="verify seeds (default: 0 2 8 25)")
    parser.add_argument("--configs", nargs="*", default=[],
                        help="config files to run as well")
    parser.add_argument("--bench-seeds", type=int, nargs="*", default=[],
                        help="seeds at which to run every benchmark job "
                             "(default: none)")
    parser.add_argument("--compare", nargs=2, metavar=("A", "B"),
                        help="list the artifacts whose digests differ")
    args = parser.parse_args(argv)
    if args.compare:
        maps = []
        for path in args.compare:
            with open(path, encoding="utf-8") as fh:
                maps.append(json.load(fh))
        keys = differences(*maps)
        for key in keys:
            print(key)
        print(f"{len(keys)} of {len(set(maps[0]) | set(maps[1]))} artifacts "
              f"differ", file=sys.stderr)
        return 1 if keys else 0
    if args.digests is None:
        parser.error("give a digests file to write, or --compare A B")
    with tempfile.TemporaryDirectory() as root:
        digests, failed = digest(args.seeds, args.configs, root,
                                 args.bench_seeds)
    with open(args.digests, "w", encoding="utf-8") as fh:
        json.dump(digests, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {len(digests)} digests to {args.digests}", file=sys.stderr)
    if failed:
        print(f"non-zero exit: {', '.join(failed)}", file=sys.stderr)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
