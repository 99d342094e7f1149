"""Experiment configuration: JSON schema, defaults, and round-tripping.

The on-disk format is a single JSON object::

    {
      "kind": "verify" | "trace_divergence" | "sweep_beta"
              | "sweep_omega" | "sample_compare",
      "seed": 0,
      "output_dir": "out",
      "schedule":  {"t_min": 0.001, "t_max": 0.999},
      "targets":   {"conditional": TARGET, "unconditional": TARGET},
      "guidance":  {"guidance_scale": 5.0, "min_scale": 1.0,
                    "decay_power": 4.0, "parallel_scale": 0.1,
                    "normal_source": "conditional",
                    "beta_sweep": [...], "omega_sweep": [...]},
      "sampler":   {"steps": 30, "seed": 0},
      "samples":   {"count": 2000, "n_perm": 200}
    }

with TARGET = ``{"dim": D, "components": [{"weight": w, "mean": [...],
"cov_diag": [...] | "cov_full": [[...]]}]}``.  Parsing then serializing a
parsed config reproduces the dictionary exactly.  There is no guidance
rule key: each experiment kind fixes the rules it compares (see ``cli``),
and no schedule kind: the path is always the linear one (see ``schedule``).

Parsing is strict: every block rejects keys it does not know and values of
the wrong JSON type with ``ConfigurationError``.  Integer fields take JSON
integers only (not booleans or fractional numbers), and real fields and
arrays take finite JSON numbers only (not ``NaN``, ``Infinity`` or an
integer beyond the float range).  Seeds must be non-negative, the size
fields are at most ``MAX_STEPS``, ``MAX_SAMPLE_COUNT`` and
``MAX_PERMUTATIONS``, a target's ``dim`` is in [1, ``MAX_DIM``], each
sweep value passes its rule field's check (a beta is at least 0, as
``parallel_scale`` is, an omega above 0, as ``guidance_scale`` is), and no
two values of a sweep may be equal or share the ``:g`` label that names
them in the artifacts, so a bad config fails before any artifact is
written.  There is no sampler time key: every run integrates over the
schedule clamp ``[t_min, t_max]``.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Tuple

import numpy as np

from . import metrics
from . import mixture as mix
from .errors import ConfigurationError, require_real
from .guidance import GuidanceConfig, NormalSource
from .mixture import TargetPair
from .sampler import SamplerConfig
from .schedule import Schedule

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

# Upper bounds on the size fields, checked when a config is parsed so that an
# absurd value fails there and not inside numpy midway through a run.  With
# the other fields at their defaults, each bound keeps a run's largest array
# (the batch of states, or the permutation labels) near 320 MB.
MAX_STEPS = 10_000
MAX_SAMPLE_COUNT = 100_000
MAX_PERMUTATIONS = 10_000
# A target's dimension, the largest ``verify`` uses.  At it, with the other
# fields at their defaults, the largest arrays are a permutation null's
# (512, 4000, 2) and (512, 2, 4000) grid factors, 65.5 MB, in
# ``sample_compare`` and ``sweep_omega``, whose job pass holds two nulls'
# (131 MB), and ten (512, 512) update Jacobians of ``verify`` (21 MB); the
# trace kinds hold no (512, 512) array per state.
MAX_DIM = 512


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
        if self.seed < 0:
            raise ConfigurationError(f"seed must be >= 0, got {self.seed}")
        _check_range("sampler.steps", self.sampler.steps, 1, MAX_STEPS)
        _check_range("samples.count", self.sample_count, 2, MAX_SAMPLE_COUNT)
        _check_range("samples.n_perm", self.n_perm, metrics.MIN_PERMUTATIONS,
                     MAX_PERMUTATIONS)


def _check_range(name, value, low, high):
    if not low <= value <= high:
        raise ConfigurationError(f"{name} must be in [{low}, {high}], got {value}")


# -- typed field access --------------------------------------------------------------

_MISSING = object()


def _check_keys(block, allowed, where):
    unknown = sorted(set(block) - set(allowed))
    if unknown:
        raise ConfigurationError(
            f"unknown key(s) {unknown} in {where}; allowed: {sorted(allowed)}"
        )


def _field(block, key, default, where):
    value = block.get(key, default)
    if value is _MISSING:
        raise ConfigurationError(f"{where} is missing {key!r}")
    return value


def _int(block, key, default, where):
    value = _field(block, key, default, where)
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigurationError(f"{where}.{key} must be an integer, got {value!r}")
    return value


def _real(block, key, default, where):
    return require_real(f"{where}.{key}", _field(block, key, default, where))


def _text(block, key, default, where):
    value = _field(block, key, default, where)
    if not isinstance(value, str):
        raise ConfigurationError(f"{where}.{key} must be a string, got {value!r}")
    return value


def _is_numeric_list(value):
    if isinstance(value, list):
        return all(_is_numeric_list(v) for v in value)
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _real_array(block, key, default, where, ndim):
    """A JSON list (``ndim`` 1) or list of lists (``ndim`` 2) of numbers."""
    value = _field(block, key, default, where)
    if not isinstance(value, list) or not _is_numeric_list(value):
        raise ConfigurationError(
            f"{where}.{key} must be a list of numbers, got {value!r}"
        )
    try:
        arr = np.asarray(value, dtype=float)
    except OverflowError as exc:  # an integer beyond the float range
        raise ConfigurationError(
            f"{where}.{key} must be finite, got an integer too large for "
            f"a float") from exc
    except ValueError as exc:  # ragged nesting
        raise ConfigurationError(f"{where}.{key} is ragged: {value!r}") from exc
    if arr.ndim != ndim:
        raise ConfigurationError(
            f"{where}.{key} must be {ndim}-dimensional, got {value!r}"
        )
    if not np.all(np.isfinite(arr)):
        raise ConfigurationError(f"{where}.{key} must be finite, got {value!r}")
    return arr


def _object(value, where):
    if not isinstance(value, dict):
        raise ConfigurationError(f"{where} must be an object, got {value!r}")
    return value


# -- target (de)serialization --------------------------------------------------------

_TARGET_KEYS = ("dim", "components")
_COMPONENT_KEYS = ("weight", "mean", "cov_diag", "cov_full")


def target_from_dict(d):
    """Build a GaussianMixture from its JSON dictionary form."""
    where = "target"
    _check_keys(_object(d, where), _TARGET_KEYS, where)
    dim = _int(d, "dim", _MISSING, where)
    _check_range(f"{where}.dim", dim, 1, MAX_DIM)
    components = _field(d, "components", _MISSING, where)
    if not isinstance(components, list):
        raise ConfigurationError(f"{where}.components must be a list")
    if not components:
        raise ConfigurationError("target needs at least one component")
    weights, means, covs = [], [], []
    for index, comp in enumerate(components):
        at = f"{where}.components[{index}]"
        _check_keys(_object(comp, at), _COMPONENT_KEYS, at)
        weights.append(_real(comp, "weight", _MISSING, at))
        mean = _real_array(comp, "mean", _MISSING, at, ndim=1)
        if mean.shape != (dim,):
            raise ConfigurationError(
                f"component mean {mean.tolist()} does not have dim {dim}"
            )
        if ("cov_diag" in comp) == ("cov_full" in comp):
            raise ConfigurationError(
                "each component needs exactly one of cov_diag / cov_full"
            )
        if "cov_diag" in comp:
            diag = _real_array(comp, "cov_diag", _MISSING, at, ndim=1)
            if diag.shape != (dim,):
                raise ConfigurationError(f"cov_diag must have length {dim}")
            cov = np.diag(diag)
        else:
            cov = _real_array(comp, "cov_full", _MISSING, at, ndim=2)
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

_TOP_KEYS = ("kind", "seed", "output_dir", "schedule", "targets", "guidance",
             "sampler", "samples")


def _get_block(d, key, allowed):
    block = _object(d.get(key, {}), f"config block {key!r}")
    _check_keys(block, allowed, key)
    return block


def _schedule_from_dict(d):
    defaults = Schedule()
    return Schedule(
        t_min=_real(d, "t_min", defaults.t_min, "schedule"),
        t_max=_real(d, "t_max", defaults.t_max, "schedule"),
    )


def _guidance_from_dict(d):
    defaults = GuidanceConfig()
    where = "guidance"
    try:
        source = NormalSource(
            _text(d, "normal_source", defaults.normal_source.value, where)
        )
    except ValueError as exc:
        raise ConfigurationError(
            f"unknown normal_source {d.get('normal_source')!r}"
        ) from exc
    return GuidanceConfig(
        guidance_scale=_real(d, "guidance_scale", defaults.guidance_scale, where),
        min_scale=_real(d, "min_scale", defaults.min_scale, where),
        decay_power=_real(d, "decay_power", defaults.decay_power, where),
        parallel_scale=_real(d, "parallel_scale", defaults.parallel_scale, where),
        normal_source=source,
    )


def _sampler_from_dict(d):
    defaults = SamplerConfig()
    where = "sampler"
    return SamplerConfig(
        steps=_int(d, "steps", defaults.steps, where),
        seed=_int(d, "seed", defaults.seed, where),
    )


def _sweep(d, key, fallback, field):
    """The values of ``guidance.key``, each checked as the rule ``field``
    it stands in for (a beta is a ``parallel_scale``, an omega a
    ``guidance_scale``)."""
    values = tuple(
        float(v) for v in _real_array(d, key, list(fallback), "guidance", ndim=1)
    )
    try:
        for value in values:
            GuidanceConfig(min_scale=0.0, **{field: value})
    except ConfigurationError as exc:
        raise ConfigurationError(f"guidance.{key}: {exc}") from None
    # Artifacts name each value by its :g label: a repeat would overwrite.
    labels = [f"{v:g}" for v in values]
    if len(set(values)) < len(values) or len(set(labels)) < len(labels):
        raise ConfigurationError(
            f"guidance.{key} values must differ and have distinct labels, "
            f"got {list(values)} labelled {labels}")
    return values


def config_from_dict(d):
    if not isinstance(d, dict):
        raise ConfigurationError("experiment config must be a JSON object")
    _check_keys(d, _TOP_KEYS, "config")
    kind = _text(d, "kind", _MISSING, "config")
    targets = _get_block(d, "targets", ("conditional", "unconditional"))
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
    guidance_block = _get_block(d, "guidance", (
        "guidance_scale", "min_scale", "decay_power", "parallel_scale",
        "normal_source", "beta_sweep", "omega_sweep"))
    samples = _get_block(d, "samples", ("count", "n_perm"))
    beta_fallback = (
        DEFAULT_SWEEP_BETAS if kind == "sweep_beta" else DEFAULT_TRACE_BETAS
    )
    return ExperimentConfig(
        kind=kind,
        seed=_int(d, "seed", 0, "config"),
        output_dir=_text(d, "output_dir", "out", "config"),
        schedule=_schedule_from_dict(
            _get_block(d, "schedule", ("t_min", "t_max"))),
        pair=pair,
        guidance=_guidance_from_dict(guidance_block),
        beta_sweep=_sweep(guidance_block, "beta_sweep", beta_fallback,
                          "parallel_scale"),
        omega_sweep=_sweep(guidance_block, "omega_sweep", DEFAULT_OMEGAS,
                           "guidance_scale"),
        sampler=_sampler_from_dict(_get_block(d, "sampler", ("steps", "seed"))),
        sample_count=_int(samples, "count", 2000, "samples"),
        n_perm=_int(samples, "n_perm", 200, "samples"),
    )


def config_to_dict(config):
    return {
        "kind": config.kind,
        "seed": int(config.seed),
        "output_dir": config.output_dir,
        "schedule": {
            "t_min": float(config.schedule.t_min),
            "t_max": float(config.schedule.t_max),
        },
        "targets": {
            "conditional": target_to_dict(config.pair.conditional),
            "unconditional": target_to_dict(config.pair.unconditional),
        },
        "guidance": {
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
            "seed": int(config.sampler.seed),
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
    except ValueError as exc:  # bad JSON, bad UTF-8, or an over-long integer
        raise ConfigurationError(f"config {path!r} is not valid JSON: {exc}") from exc
    return config_from_dict(raw)


def default_config(kind):
    """Fully-populated default configuration for an experiment kind."""
    base = {"kind": kind}
    if kind in ("trace_divergence", "sweep_beta"):
        # A fine grid so the profile resolves the late-time divergence
        # spike, and a constant unit scale so the parallel_scale=1 row is
        # exactly the raw residual's divergence.
        base["sampler"] = {"steps": 240}
        base["guidance"] = {
            "guidance_scale": 1.0, "min_scale": 1.0, "decay_power": 0.0,
        }
    elif kind == "sample_compare":
        base["guidance"] = {"guidance_scale": 15.0}
        base["samples"] = {"count": 2000, "n_perm": 200}
    return config_from_dict(base)
