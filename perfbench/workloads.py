"""Seeded input generator for the guidance-lab benchmark.

Each workload is a fixed list of CLI jobs.  The seed changes only target
geometry (mode radius, orientation, scales, weights, rotations) and the
RNG streams the program draws from; sizes, dimensions, step counts,
sample counts and ``n_perm`` are fixed per workload, so every seed costs
about the same.  The program under test receives nothing but the config
JSON files written here.

The configs name only fields the workload needs, so program defaults fill
the rest exactly as they would for a user's config file.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass

import numpy as np

WORKLOADS = ("trace", "compare")

# sample_compare pools n + n points; the program materialises the pooled
# distance matrix only up to this size, so jobs are placed on both sides.
POOLED_LIMIT = 4096


@dataclass(frozen=True)
class Job:
    """One CLI invocation: ``guidance-lab <kind> --config <config_path>``."""

    name: str
    kind: str
    config_path: str
    out_dir: str

    def argv(self):
        return [self.kind, "--config", self.config_path]


@dataclass(frozen=True)
class Spec:
    """A job template.  Every field but the geometry draws is fixed."""

    name: str
    kind: str
    dim: int
    modes: int
    form: str  # covariance form: "iso", "diag" or "full"
    sizes: dict
    std: tuple = (5e-3, 1e-2)


def _orthonormal(rng, dim, cols):
    q, r = np.linalg.qr(rng.normal(size=(dim, cols)))
    return q * np.sign(np.diag(r))


def _covariance(rng, dim, form, std_lo, std_hi):
    """A covariance matrix of the given form with standard deviations drawn
    from ``[std_lo, std_hi]``."""
    if form == "iso":
        return {"cov_diag": [float(rng.uniform(std_lo, std_hi)) ** 2] * dim}
    stds = rng.uniform(std_lo, std_hi, dim)
    if form == "diag":
        return {"cov_diag": [float(s * s) for s in stds]}
    q = _orthonormal(rng, dim, dim)
    cov = (q * stds**2) @ q.T
    cov = 0.5 * (cov + cov.T)
    return {"cov_full": [[float(v) for v in row] for row in cov]}


def _scaled(block, factor):
    key = "cov_diag" if "cov_diag" in block else "cov_full"
    return {key: (np.asarray(block[key]) * factor * factor).tolist()}


def ring_pair(rng, spec):
    """Unconditional ring of ``modes`` Gaussians and a conditional target
    that keeps one of them at a quarter of its scale.

    The ring lies in a random 2-plane (the coordinate plane when
    ``dim == 2``); the covariance contrast between the two targets drives
    the late-time divergence the trace jobs probe.
    """
    dim, modes = spec.dim, spec.modes
    plane = np.eye(dim)[:, :2] if dim == 2 else _orthonormal(rng, dim, 2)
    r = rng.uniform(3.0, 5.0)
    offset = rng.uniform(0.0, 2.0 * np.pi)
    angles = offset + 2.0 * np.pi * np.arange(modes) / modes
    means = r * (np.cos(angles)[:, None] * plane[:, 0]
                 + np.sin(angles)[:, None] * plane[:, 1])
    weights = rng.uniform(0.5, 1.5, modes)
    weights = weights / weights.sum()
    covs = [_covariance(rng, dim, spec.form, *spec.std) for _ in range(modes)]
    pick = int(rng.integers(modes))
    uncond = [
        {"weight": float(w), "mean": [float(v) for v in mu], **cov}
        for w, mu, cov in zip(weights, means, covs)
    ]
    cond = [{"weight": 1.0, "mean": [float(v) for v in means[pick]],
             **_scaled(covs[pick], 0.25)}]
    return {
        "conditional": {"dim": dim, "components": cond},
        "unconditional": {"dim": dim, "components": uncond},
    }


_BROAD = (0.05, 0.3)
_TRACE_GUIDANCE = {"guidance_scale": 1.0, "min_scale": 1.0, "decay_power": 0.0}

SPECS = {
    # trace_divergence / sweep_beta at the CLI's 240 steps: thousands of
    # single-point oracle calls at thousands of distinct t.
    "trace": [
        Spec("trace_d2_iso", "trace_divergence", 2, 4, "iso", {"steps": 240}),
        Spec("trace_d8_full", "trace_divergence", 8, 3, "full", {"steps": 240},
             std=_BROAD),
        Spec("sweep_d2_diag", "sweep_beta", 2, 4, "diag", {"steps": 240}),
        Spec("sweep_d8_full", "sweep_beta", 8, 3, "full", {"steps": 240},
             std=_BROAD),
    ],
    # sample_compare / sweep_omega: batched sampling, then permutation
    # nulls on both sides of POOLED_LIMIT (2 x 1000 pooled, 2 x 2049
    # recomputed).  Jobs stay short so that a run holds several rounds.
    "compare": [
        Spec("compare_d2_n1000", "sample_compare", 2, 4, "iso",
             {"count": 1000, "n_perm": 100}),
        Spec("compare_d2_n2049", "sample_compare", 2, 4, "diag",
             {"count": POOLED_LIMIT // 2 + 1, "n_perm": 100}),
        Spec("compare_d16_n400", "sample_compare", 16, 3, "full",
             {"count": 400, "n_perm": 100}, std=_BROAD),
        Spec("omega_d2_n200", "sweep_omega", 2, 4, "iso",
             {"count": 200, "n_perm": 100}),
    ],
}

# One small untimed job per workload, run before timing starts so that
# lazy imports and first-call costs stay out of wall_s.
WARMUP = {
    "trace": Spec("warmup", "trace_divergence", 2, 4, "iso", {"steps": 24}),
    "compare": Spec("warmup", "sample_compare", 2, 4, "iso",
                    {"count": 200, "n_perm": 100}),
}


def _config(spec, rng, out_dir):
    cfg = {
        "kind": spec.kind,
        "seed": int(rng.integers(2**31)),
        "output_dir": out_dir,
        "targets": ring_pair(rng, spec),
    }
    if spec.kind in ("trace_divergence", "sweep_beta"):
        cfg["guidance"] = dict(_TRACE_GUIDANCE)
        cfg["sampler"] = {"steps": spec.sizes["steps"],
                          "seed": int(rng.integers(2**31))}
    elif spec.kind in ("sample_compare", "sweep_omega"):
        cfg["sampler"] = {"seed": int(rng.integers(2**31))}
        cfg["samples"] = dict(spec.sizes)
        if spec.kind == "sample_compare":
            cfg["guidance"] = {"guidance_scale": 15.0}
    return cfg


def generate(workload, seed, root):
    """Write the workload's config files under ``root``.

    Returns ``(warmup_job, jobs)``.  The same ``(workload, seed)`` always
    writes the same files.
    """
    if workload not in SPECS:
        raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")
    specs = [WARMUP[workload]] + SPECS[workload]
    jobs = []
    for index, spec in enumerate(specs):
        rng = np.random.default_rng([int(seed), WORKLOADS.index(workload), index])
        out_dir = os.path.join(root, "out", spec.name)
        cfg = _config(spec, rng, out_dir)
        path = os.path.join(root, "configs", f"{spec.name}.json")
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(cfg, fh, indent=2)
            fh.write("\n")
        jobs.append(Job(name=spec.name, kind=spec.kind, config_path=path,
                        out_dir=out_dir))
    return jobs[0], jobs[1:]
