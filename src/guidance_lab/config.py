"""Experiment configuration: JSON schema, defaults, and round-tripping.

The on-disk format is a single JSON object::

    {
      "kind": "verify" | "trace_divergence" | "sweep_beta"
              | "sweep_omega" | "sample_compare",
      "seed": 0,
      "output_dir": "out",
      "schedule":  {"kind": "linear", "t_min": 0.001, "t_max": 0.999},
      "targets":   {"conditional": TARGET, "unconditional": TARGET},
      "guidance":  {"rule": "projected", "guidance_scale": 5.0,
                    "min_scale": 1.0, "decay_power": 4.0,
                    "parallel_scale": 0.1, "normal_source": "conditional",
                    "beta_sweep": [...], "omega_sweep": [...]},
      "sampler":   {"steps": 30, "t_start": 0.001, "t_end": 0.999,
                    "record_diagnostics": false, "seed": 0},
      "hutchinson": {"probes": 256, "probe_dist": "rademacher",
                     "fd_step": 1e-4, "seed": 0},
      "samples":   {"count": 2000, "n_perm": 200}
    }

with TARGET = ``{"dim": D, "components": [{"weight": w, "mean": [...],
"cov_diag": [...] | "cov_full": [[...]]}]}``.  Parsing then serializing a
parsed config reproduces the dictionary exactly.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Tuple

import numpy as np

from . import mixture as mix
from .divergence import HutchinsonConfig
from .errors import ConfigurationError
from .guidance import GuidanceConfig, GuidanceRule, NormalSource
from .sampler import SamplerConfig, TargetPair
from .schedule import Schedule, ScheduleKind

KINDS = ("verify", "trace_divergence", "sweep_beta", "sweep_omega",
         "sample_compare")

DEFAULT_TRACE_BETAS = (0.0, 0.1, 0.5, 1.0)
DEFAULT_SWEEP_BETAS = (0.1, 0.2, 0.5, 1.0, 2.0, 5.0, 10.0, 20.0)
DEFAULT_OMEGAS = (1.0, 3.0, 7.0, 15.0)

# Default experiment pair: a four-mode ring of sharp Gaussians as the
# unconditional target, with the conditional target selecting one mode at
# a smaller covariance.  The covariance contrast is what drives the
# late-time divergence blow-up the trace experiments measure; the ring
# geometry drives the (much smaller) mid-trajectory responsibility mixing.
RING_RADIUS = 4.0
RING_SCALE = 7.5e-3
CONDITIONAL_SCALE = 1.875e-3


def default_target_pair():
    means = RING_RADIUS * np.array([[1.0, 0.0], [0.0, 1.0],
                                    [-1.0, 0.0], [0.0, -1.0]])
    unconditional = mix.GaussianMixture.isotropic(
        means, [RING_SCALE] * 4, weights=[0.25] * 4
    )
    conditional = mix.GaussianMixture.isotropic(
        means[:1], [CONDITIONAL_SCALE]
    )
    return TargetPair(conditional=conditional, unconditional=unconditional)


@dataclass(frozen=True, eq=False)
class ExperimentConfig:
    kind: str
    seed: int
    output_dir: str
    schedule: Schedule
    pair: TargetPair
    guidance: GuidanceConfig
    beta_sweep: Tuple[float, ...]
    omega_sweep: Tuple[float, ...]
    sampler: SamplerConfig
    hutchinson: HutchinsonConfig
    sample_count: int
    n_perm: int

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ConfigurationError(
                f"kind must be one of {KINDS}, got {self.kind!r}"
            )
        if self.kind in ("trace_divergence", "sweep_beta") and not self.beta_sweep:
            raise ConfigurationError(f"{self.kind} requires a non-empty beta_sweep")
        if self.kind == "sweep_omega" and not self.omega_sweep:
            raise ConfigurationError("sweep_omega requires a non-empty omega_sweep")
        if self.sample_count < 2:
            raise ConfigurationError(
                f"samples.count must be >= 2, got {self.sample_count}"
            )


# -- target (de)serialization --------------------------------------------------------


def target_from_dict(d):
    """Build a GaussianMixture from its JSON dictionary form."""
    try:
        dim = int(d["dim"])
        components = d["components"]
    except (KeyError, TypeError) as exc:
        raise ConfigurationError(f"malformed target block: {d!r}") from exc
    if not components:
        raise ConfigurationError("target needs at least one component")
    weights, means, covs = [], [], []
    for comp in components:
        try:
            weights.append(float(comp["weight"]))
            mean = np.asarray(comp["mean"], dtype=float)
        except (KeyError, TypeError, ValueError) as exc:
            raise ConfigurationError(f"malformed component: {comp!r}") from exc
        if mean.shape != (dim,):
            raise ConfigurationError(
                f"component mean {mean.tolist()} does not have dim {dim}"
            )
        if ("cov_diag" in comp) == ("cov_full" in comp):
            raise ConfigurationError(
                "each component needs exactly one of cov_diag / cov_full"
            )
        if "cov_diag" in comp:
            diag = np.asarray(comp["cov_diag"], dtype=float)
            if diag.shape != (dim,):
                raise ConfigurationError(f"cov_diag must have length {dim}")
            cov = np.diag(diag)
        else:
            cov = np.asarray(comp["cov_full"], dtype=float)
            if cov.shape != (dim, dim):
                raise ConfigurationError(f"cov_full must be {dim}x{dim}")
        means.append(mean)
        covs.append(cov)
    return mix.GaussianMixture(weights, means, covs)


def target_to_dict(target):
    components = []
    for w, mu, cov in zip(target.weights, target.means, target.covariances):
        entry = {"weight": float(w), "mean": [float(v) for v in mu]}
        off_diag = cov - np.diag(np.diag(cov))
        if np.all(off_diag == 0.0):
            entry["cov_diag"] = [float(v) for v in np.diag(cov)]
        else:
            entry["cov_full"] = [[float(v) for v in row] for row in cov]
        components.append(entry)
    return {"dim": int(target.dim), "components": components}


# -- block (de)serialization ---------------------------------------------------------


def _get_block(d, key):
    block = d.get(key, {})
    if not isinstance(block, dict):
        raise ConfigurationError(f"config block {key!r} must be an object")
    return block


def _schedule_from_dict(d):
    kind = d.get("kind", ScheduleKind.LINEAR.value)
    try:
        sched_kind = ScheduleKind(kind)
    except ValueError as exc:
        raise ConfigurationError(f"unknown schedule kind {kind!r}") from exc
    defaults = Schedule(kind=sched_kind)
    return Schedule(
        kind=sched_kind,
        t_min=float(d.get("t_min", defaults.t_min)),
        t_max=float(d.get("t_max", defaults.t_max)),
    )


def _guidance_from_dict(d):
    defaults = GuidanceConfig()
    try:
        rule = GuidanceRule(d.get("rule", defaults.rule.value))
    except ValueError as exc:
        raise ConfigurationError(f"unknown guidance rule {d.get('rule')!r}") from exc
    try:
        source = NormalSource(d.get("normal_source", defaults.normal_source.value))
    except ValueError as exc:
        raise ConfigurationError(
            f"unknown normal_source {d.get('normal_source')!r}"
        ) from exc
    return GuidanceConfig(
        rule=rule,
        guidance_scale=float(d.get("guidance_scale", defaults.guidance_scale)),
        min_scale=float(d.get("min_scale", defaults.min_scale)),
        decay_power=float(d.get("decay_power", defaults.decay_power)),
        parallel_scale=float(d.get("parallel_scale", defaults.parallel_scale)),
        normal_source=source,
    )


def _sampler_from_dict(d):
    defaults = SamplerConfig()
    return SamplerConfig(
        steps=int(d.get("steps", defaults.steps)),
        t_start=float(d.get("t_start", defaults.t_start)),
        t_end=float(d.get("t_end", defaults.t_end)),
        record_diagnostics=bool(d.get("record_diagnostics",
                                      defaults.record_diagnostics)),
        seed=int(d.get("seed", defaults.seed)),
    )


def _hutchinson_from_dict(d):
    defaults = HutchinsonConfig()
    return HutchinsonConfig(
        probes=int(d.get("probes", defaults.probes)),
        probe_dist=str(d.get("probe_dist", defaults.probe_dist)),
        fd_step=float(d.get("fd_step", defaults.fd_step)),
        seed=int(d.get("seed", defaults.seed)),
    )


def _sweep(d, key, fallback):
    raw = d.get(key, list(fallback))
    try:
        return tuple(float(v) for v in raw)
    except (TypeError, ValueError) as exc:
        raise ConfigurationError(f"sweep list {key!r} must be numeric") from exc


def config_from_dict(d):
    if not isinstance(d, dict):
        raise ConfigurationError("experiment config must be a JSON object")
    kind = d.get("kind")
    if kind is None:
        raise ConfigurationError("config is missing the experiment 'kind'")
    targets = _get_block(d, "targets")
    if "conditional" in targets and "unconditional" in targets:
        pair = TargetPair(
            conditional=target_from_dict(targets["conditional"]),
            unconditional=target_from_dict(targets["unconditional"]),
        )
    elif targets:
        raise ConfigurationError(
            "targets block needs both 'conditional' and 'unconditional'"
        )
    else:
        pair = default_target_pair()
    guidance_block = _get_block(d, "guidance")
    samples = _get_block(d, "samples")
    beta_fallback = (
        DEFAULT_SWEEP_BETAS if kind == "sweep_beta" else DEFAULT_TRACE_BETAS
    )
    return ExperimentConfig(
        kind=str(kind),
        seed=int(d.get("seed", 0)),
        output_dir=str(d.get("output_dir", "out")),
        schedule=_schedule_from_dict(_get_block(d, "schedule")),
        pair=pair,
        guidance=_guidance_from_dict(guidance_block),
        beta_sweep=_sweep(guidance_block, "beta_sweep", beta_fallback),
        omega_sweep=_sweep(guidance_block, "omega_sweep", DEFAULT_OMEGAS),
        sampler=_sampler_from_dict(_get_block(d, "sampler")),
        hutchinson=_hutchinson_from_dict(_get_block(d, "hutchinson")),
        sample_count=int(samples.get("count", 2000)),
        n_perm=int(samples.get("n_perm", 200)),
    )


def config_to_dict(config):
    return {
        "kind": config.kind,
        "seed": int(config.seed),
        "output_dir": config.output_dir,
        "schedule": {
            "kind": config.schedule.kind.value,
            "t_min": float(config.schedule.t_min),
            "t_max": float(config.schedule.t_max),
        },
        "targets": {
            "conditional": target_to_dict(config.pair.conditional),
            "unconditional": target_to_dict(config.pair.unconditional),
        },
        "guidance": {
            "rule": config.guidance.rule.value,
            "guidance_scale": float(config.guidance.guidance_scale),
            "min_scale": float(config.guidance.min_scale),
            "decay_power": float(config.guidance.decay_power),
            "parallel_scale": float(config.guidance.parallel_scale),
            "normal_source": config.guidance.normal_source.value,
            "beta_sweep": [float(v) for v in config.beta_sweep],
            "omega_sweep": [float(v) for v in config.omega_sweep],
        },
        "sampler": {
            "steps": int(config.sampler.steps),
            "t_start": float(config.sampler.t_start),
            "t_end": float(config.sampler.t_end),
            "record_diagnostics": bool(config.sampler.record_diagnostics),
            "seed": int(config.sampler.seed),
        },
        "hutchinson": {
            "probes": int(config.hutchinson.probes),
            "probe_dist": config.hutchinson.probe_dist,
            "fd_step": float(config.hutchinson.fd_step),
            "seed": int(config.hutchinson.seed),
        },
        "samples": {
            "count": int(config.sample_count),
            "n_perm": int(config.n_perm),
        },
    }


def load_config(path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
    except OSError as exc:
        raise ConfigurationError(f"cannot read config {path!r}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigurationError(f"config {path!r} is not valid JSON: {exc}") from exc
    return config_from_dict(raw)


def save_config(config, path):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(config_to_dict(config), fh, indent=2)
        fh.write("\n")


def default_config(kind, seed=0, output_dir="out"):
    """Fully-populated default configuration for an experiment kind."""
    base = {
        "kind": kind,
        "seed": seed,
        "output_dir": output_dir,
    }
    if kind == "trace_divergence":
        # A fine grid so the profile resolves the late-time divergence
        # spike, and a constant unit scale so the parallel_scale=1 row is
        # exactly the raw residual's divergence.
        base["sampler"] = {"steps": 240}
        base["guidance"] = {
            "guidance_scale": 1.0, "min_scale": 1.0, "decay_power": 0.0,
        }
    elif kind == "sweep_beta":
        base["sampler"] = {"steps": 240}
        base["guidance"] = {
            "guidance_scale": 1.0, "min_scale": 1.0, "decay_power": 0.0,
        }
    elif kind == "sample_compare":
        base["guidance"] = {"guidance_scale": 15.0}
        base["samples"] = {"count": 2000, "n_perm": 200}
    return config_from_dict(base)
