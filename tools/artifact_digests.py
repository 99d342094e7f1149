"""Digest every artifact the CLI writes, to check that a change keeps them.

Usage::

    python tools/artifact_digests.py DIGESTS.json [--seeds N ...]
        [--configs cfg.json ...]
    python tools/artifact_digests.py --compare A.json B.json

The first form runs, in process through ``guidance_lab.cli.main``, the
five kinds on their default configs, ``verify`` at each of ``--seeds``
(default: 0 2 8 25; 8 and 25 are the regression seeds of the verify
tests) and each kind named by a ``--configs`` file, each into its own
temporary output directory, and writes a JSON map from ``<run>/<artifact>``
to the artifact's sha256.  A run is named by its kind, ``verify_seed_<n>``,
or the config path as given.  It exits 1 if any run exits non-zero, after
writing the map.

The second form lists the artifacts whose digests differ between two maps,
or that only one of them holds, and exits 1 if there is any.

``guidance_lab`` is imported from the path Python finds it on, so
``PYTHONPATH=<checkout>/src`` digests that checkout; without one the
``src`` beside this script is used.  Only the standard library is used
here.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import sys
import tempfile

try:
    from guidance_lab import cli
except ImportError:
    sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)),
                                    os.pardir, "src"))
    from guidance_lab import cli

KINDS = ("verify", "trace_divergence", "sweep_beta", "sweep_omega",
         "sample_compare")


def _sha256(path):
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def _kind_of(config_path):
    with open(config_path, encoding="utf-8") as fh:
        return json.load(fh)["kind"]


def runs(seeds, configs):
    """``(name, argv)`` of every run, without ``--out``."""
    planned = [(kind, [kind]) for kind in KINDS]
    planned += [(f"verify_seed_{seed}", ["verify", "--seed", str(seed)])
                for seed in seeds]
    planned += [(path, [_kind_of(path), "--config", path]) for path in configs]
    return planned


def digest(seeds, configs, root):
    """Run every run under ``root``; return the digest map and the names
    of the runs that exited non-zero."""
    digests, failed = {}, []
    for index, (name, argv) in enumerate(runs(seeds, configs)):
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
        digests, failed = digest(args.seeds, args.configs, root)
    with open(args.digests, "w", encoding="utf-8") as fh:
        json.dump(digests, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {len(digests)} digests to {args.digests}", file=sys.stderr)
    if failed:
        print(f"non-zero exit: {', '.join(failed)}", file=sys.stderr)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
