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
"cov_diag": [...] | "cov_full": [[...]]}]}``.

The config dataclasses are the schema.  The keys of the ``schedule``,
``sampler`` and ``guidance`` blocks are the fields of ``Schedule``,
``SamplerConfig`` and ``GuidanceConfig``, less the guidance ``rule``; the
guidance block also holds ``ExperimentConfig``'s two sweeps, the
``samples`` block its ``sample_count`` (as ``count``) and ``n_perm``, and
the top level its ``kind``, ``seed`` and ``output_dir``.  An omitted key
of the three blocks takes its field's default; the other defaults are the
parser's (seed 0, ``"out"``, 2000 samples, 200 permutations and the
``DEFAULT_*`` sweeps).  ``config_to_dict`` reads the same fields back,
so parsing then serializing a parsed config reproduces the dictionary
exactly.  There is no guidance rule key: each experiment kind fixes the
rules it compares (see ``cli``), and no schedule kind: the path is always
the linear one (see ``schedule``).

Each value is checked once, by the dataclass that holds it, so a config
file and a config built in Python (say with ``dataclasses.replace``) pass
the same checks, and a bad config fails before any artifact is written.
The parser checks only the JSON structure: that blocks are objects without
unknown keys, that arrays hold finite JSON numbers only (not ``NaN``,
``Infinity`` or an integer beyond the float range), that ``normal_source``
names a ``NormalSource``, and the target blocks; it prefixes a block's
error with the block's key.  Integer fields take integers only (not
booleans or fractional numbers), and real fields finite numbers only.
Seeds must be non-negative, the size fields are at most ``MAX_STEPS``,
``MAX_SAMPLE_COUNT`` and ``MAX_PERMUTATIONS``, a target's ``dim`` is in
[1, ``MAX_DIM``], each sweep value passes its rule field's check (a beta
is at least 0, as ``parallel_scale`` is, an omega above 0, as
``guidance_scale`` is), and no two values of a sweep may be equal or share
the ``:g`` label that names them in the artifacts.  There is no sampler
time key: every run integrates over the schedule clamp ``[t_min, t_max]``.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, fields
from typing import Tuple

import numpy as np

from . import metrics
from . import mixture as mix
from .errors import ConfigurationError, require_int, require_real
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
    """One experiment's settings, each value checked here or by the
    dataclass that holds it, whether the config came from a file or was
    built in Python.  The seed and the sizes are integers within their
    bounds, ``output_dir`` is a string, each sweep value passes its rule
    field's check (a beta is a ``parallel_scale``, an omega a
    ``guidance_scale``), and no two values of a sweep are equal or share
    the ``:g`` label that names them in the artifacts.  Errors name the
    JSON key path."""

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
        object.__setattr__(self, "seed", require_int("seed", self.seed, 0))
        if not isinstance(self.output_dir, str):
            raise ConfigurationError(
                f"output_dir must be a string, got {self.output_dir!r}")
        self._sweep("beta_sweep", "parallel_scale")
        self._sweep("omega_sweep", "guidance_scale")
        if self.kind in ("trace_divergence", "sweep_beta") and not self.beta_sweep:
            raise ConfigurationError(f"{self.kind} requires a non-empty beta_sweep")
        if self.kind == "sweep_omega" and not self.omega_sweep:
            raise ConfigurationError("sweep_omega requires a non-empty omega_sweep")
        _check_range("sampler.steps", self.sampler.steps, 1, MAX_STEPS)
        object.__setattr__(self, "sample_count", _check_range(
            "samples.count", self.sample_count, 2, MAX_SAMPLE_COUNT))
        object.__setattr__(self, "n_perm", _check_range(
            "samples.n_perm", self.n_perm, metrics.MIN_PERMUTATIONS,
            MAX_PERMUTATIONS))

    def _sweep(self, name, field):
        """Check each value of sweep ``name`` as the rule ``field`` it
        stands in for, and store the values as a tuple of floats."""
        try:
            values = tuple(getattr(GuidanceConfig(min_scale=0.0, **{field: v}),
                                   field) for v in getattr(self, name))
        except ConfigurationError as exc:
            raise ConfigurationError(f"guidance.{name}: {exc}") from None
        # Artifacts name each value by its :g label: a repeat would overwrite.
        labels = [f"{v:g}" for v in values]
        if len(set(values)) < len(values) or len(set(labels)) < len(labels):
            raise ConfigurationError(
                f"guidance.{name} values must differ and have distinct labels, "
                f"got {list(values)} labelled {labels}")
        object.__setattr__(self, name, values)


def _check_range(name, value, low, high):
    """``value`` as an int in ``[low, high]``; otherwise ConfigurationError."""
    value = require_int(name, value, low)
    if value > high:
        raise ConfigurationError(f"{name} must be in [{low}, {high}], got {value}")
    return value


# -- JSON structure ------------------------------------------------------------------


def _check_keys(block, allowed, where):
    unknown = sorted(set(block) - set(allowed))
    if unknown:
        raise ConfigurationError(
            f"unknown key(s) {unknown} in {where}; allowed: {sorted(allowed)}"
        )


def _required(block, key, where):
    if key not in block:
        raise ConfigurationError(f"{where} is missing {key!r}")
    return block[key]


def _is_numeric_list(value):
    if isinstance(value, list):
        return all(_is_numeric_list(v) for v in value)
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _real_array(value, where, ndim):
    """A JSON list (``ndim`` 1) or list of lists (``ndim`` 2) of numbers."""
    if not isinstance(value, list) or not _is_numeric_list(value):
        raise ConfigurationError(f"{where} must be a list of numbers, got {value!r}")
    try:
        arr = np.asarray(value, dtype=float)
    except OverflowError as exc:  # an integer beyond the float range
        raise ConfigurationError(
            f"{where} must be finite, got an integer too large for a float"
        ) from exc
    except ValueError as exc:  # ragged nesting
        raise ConfigurationError(f"{where} is ragged: {value!r}") from exc
    if arr.ndim != ndim:
        raise ConfigurationError(f"{where} must be {ndim}-dimensional, got {value!r}")
    if not np.all(np.isfinite(arr)):
        raise ConfigurationError(f"{where} must be finite, got {value!r}")
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
    dim = _check_range(f"{where}.dim", _required(d, "dim", where), 1, MAX_DIM)
    components = _required(d, "components", where)
    if not isinstance(components, list):
        raise ConfigurationError(f"{where}.components must be a list")
    if not components:
        raise ConfigurationError("target needs at least one component")
    weights, means, covs = [], [], []
    for index, comp in enumerate(components):
        at = f"{where}.components[{index}]"
        _check_keys(_object(comp, at), _COMPONENT_KEYS, at)
        weights.append(require_real(f"{at}.weight", _required(comp, "weight", at)))
        mean = _real_array(_required(comp, "mean", at), f"{at}.mean", ndim=1)
        if mean.shape != (dim,):
            raise ConfigurationError(
                f"component mean {mean.tolist()} does not have dim {dim}"
            )
        if ("cov_diag" in comp) == ("cov_full" in comp):
            raise ConfigurationError(
                "each component needs exactly one of cov_diag / cov_full"
            )
        if "cov_diag" in comp:
            diag = _real_array(comp["cov_diag"], f"{at}.cov_diag", ndim=1)
            if diag.shape != (dim,):
                raise ConfigurationError(f"cov_diag must have length {dim}")
            cov = np.diag(diag)
        else:
            cov = _real_array(comp["cov_full"], f"{at}.cov_full", ndim=2)
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
_SIDES = ("conditional", "unconditional")
_SWEEPS = ("beta_sweep", "omega_sweep")


def _keys(cls):
    """The keys of a config dataclass's JSON block: its fields but ``rule``."""
    return tuple(f.name for f in fields(cls) if f.name != "rule")


def _block(d, key, allowed):
    block = _object(d.get(key, {}), f"config block {key!r}")
    _check_keys(block, allowed, key)
    return dict(block)


def _build(cls, key, values):
    """``cls(**values)``, its error prefixed with the block's ``key``."""
    try:
        return cls(**values)
    except ConfigurationError as exc:
        raise ConfigurationError(f"{key}: {exc}") from None


def _target_pair(targets):
    if not targets:
        return default_target_pair()
    if len(targets) < len(_SIDES):
        raise ConfigurationError(
            "targets block needs both 'conditional' and 'unconditional'"
        )
    return TargetPair(*(target_from_dict(targets[side]) for side in _SIDES))


def config_from_dict(d):
    if not isinstance(d, dict):
        raise ConfigurationError("experiment config must be a JSON object")
    _check_keys(d, _TOP_KEYS, "config")
    kind = _required(d, "kind", "config")
    guidance = _block(d, "guidance", _keys(GuidanceConfig) + _SWEEPS)
    sweeps = {"beta_sweep": (DEFAULT_SWEEP_BETAS if kind == "sweep_beta"
                             else DEFAULT_TRACE_BETAS),
              "omega_sweep": DEFAULT_OMEGAS}
    for name in _SWEEPS:
        if name in guidance:
            sweeps[name] = _real_array(guidance.pop(name), f"guidance.{name}",
                                       ndim=1)
    if "normal_source" in guidance:
        try:
            guidance["normal_source"] = NormalSource(guidance["normal_source"])
        except ValueError:
            raise ConfigurationError(
                f"unknown normal_source {guidance['normal_source']!r}") from None
    samples = _block(d, "samples", ("count", "n_perm"))
    return ExperimentConfig(
        kind=kind,
        seed=d.get("seed", 0),
        output_dir=d.get("output_dir", "out"),
        schedule=_build(Schedule, "schedule",
                        _block(d, "schedule", _keys(Schedule))),
        pair=_target_pair(_block(d, "targets", _SIDES)),
        guidance=_build(GuidanceConfig, "guidance", guidance),
        sampler=_build(SamplerConfig, "sampler",
                       _block(d, "sampler", _keys(SamplerConfig))),
        sample_count=samples.get("count", 2000),
        n_perm=samples.get("n_perm", 200),
        **sweeps,
    )


def _fields(config):
    """A config dataclass's JSON block: the value of each of its keys."""
    return {name: getattr(config, name) for name in _keys(type(config))}


def config_to_dict(config):
    guidance = _fields(config.guidance)
    guidance["normal_source"] = config.guidance.normal_source.value
    return {
        "kind": config.kind,
        "seed": config.seed,
        "output_dir": config.output_dir,
        "schedule": _fields(config.schedule),
        "targets": {side: target_to_dict(getattr(config.pair, side))
                    for side in _SIDES},
        "guidance": {**guidance, **{name: list(getattr(config, name))
                                    for name in _SWEEPS}},
        "sampler": _fields(config.sampler),
        "samples": {"count": config.sample_count, "n_perm": config.n_perm},
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
        # spike, and a constant unit scale (guidance_scale at the default
        # min_scale, no decay) so the parallel_scale=1 row is exactly the
        # raw residual's divergence.
        base["sampler"] = {"steps": 240}
        base["guidance"] = {"guidance_scale": 1.0, "decay_power": 0.0}
    elif kind == "sample_compare":
        base["guidance"] = {"guidance_scale": 15.0}
    return config_from_dict(base)
