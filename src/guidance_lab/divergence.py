"""Divergence of vector fields: exact, stochastic, and dense estimators.

Three routes are provided, in decreasing order of privilege:

* ``divergence_exact`` reads the analytic divergence a field constructor
  attached (oracle fields only);
* ``divergence_hutchinson`` is the matrix-free stochastic trace estimator
  ``mean_k  xi_k . (J xi_k)`` with the directional derivative formed by a
  central difference, usable on any black-box field;
* ``divergence_fd_dense`` sums one central difference per axis and is the
  slow reference for low dimensions.

``conservation_residual`` combines a divergence with the oracle score to
measure ``div g + g . grad log p``, the quantity that vanishes exactly when
adding ``g`` to the velocity leaves the evolving density untouched.
``divergence_profile`` tabulates normalized exact divergences along a
sampled trajectory; the stochastic and dense routes serve as independent
references for the exact one.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import mixture as mix
from .errors import CapabilityError, ConfigurationError, EstimationError
from .tables import Table

_FD_STEP_MIN = 1e-6
_FD_STEP_MAX = 1e-2
_DENSE_DIM_LIMIT = 64

PROBE_DISTRIBUTIONS = ("rademacher", "gaussian")


@dataclass(frozen=True)
class HutchinsonConfig:
    """Settings of the stochastic trace estimator."""

    probes: int = 256
    probe_dist: str = "rademacher"
    fd_step: float = 1e-4
    seed: int = 0

    def __post_init__(self):
        if not isinstance(self.probes, int) or self.probes < 1:
            raise ConfigurationError(f"probes must be a positive int: {self.probes!r}")
        if self.probe_dist not in PROBE_DISTRIBUTIONS:
            raise ConfigurationError(
                f"probe_dist must be one of {PROBE_DISTRIBUTIONS}, "
                f"got {self.probe_dist!r}"
            )
        if not (_FD_STEP_MIN <= self.fd_step <= _FD_STEP_MAX):
            raise ConfigurationError(
                f"fd_step must lie in [{_FD_STEP_MIN}, {_FD_STEP_MAX}], "
                f"got {self.fd_step}"
            )


@dataclass(frozen=True)
class DivergenceEstimate:
    """Stochastic divergence estimate with its Monte-Carlo standard error."""

    value: float
    stderr: float
    probes_used: int


def divergence_exact(field, t, x):
    """Analytic divergence of an oracle field (CapabilityError otherwise)."""
    return field.divergence(x, t)


def _draw_probes(config, count, dim):
    rng = np.random.default_rng(config.seed)
    if config.probe_dist == "rademacher":
        return rng.integers(0, 2, size=(count, dim)).astype(float) * 2.0 - 1.0
    return rng.standard_normal((count, dim))


def divergence_hutchinson(field, t, x, config: HutchinsonConfig):
    """Hutchinson trace estimate of the Jacobian of ``field`` at ``(x, t)``.

    Directional derivatives use a central difference with step
    ``fd_step * (1 + max|x_i|)``; the estimate is the probe mean and the
    reported stderr is the sample standard deviation over probes divided
    by sqrt(probes).  Deterministic for a fixed config.
    """
    x = np.asarray(x, dtype=float)
    dim = x.shape[-1]
    probes = _draw_probes(config, config.probes, dim)
    h = config.fd_step * (1.0 + float(np.max(np.abs(x))))
    forward = field(x[None, :] + h * probes, t)
    backward = field(x[None, :] - h * probes, t)
    deriv = (forward - backward) / (2.0 * h)
    per_probe = np.sum(probes * deriv, axis=1)
    bad = ~np.isfinite(per_probe)
    if np.any(bad):
        idx = int(np.argmax(bad))
        raise EstimationError(
            f"field evaluation produced a non-finite value at probe {idx}", idx
        )
    value = float(np.mean(per_probe))
    if config.probes > 1:
        stderr = float(np.std(per_probe, ddof=1) / np.sqrt(config.probes))
    else:
        stderr = 0.0
    return DivergenceEstimate(value=value, stderr=stderr, probes_used=config.probes)


def divergence_fd_dense(field, t, x, step=None):
    """Dense central-difference divergence; reference path for dim <= 64."""
    x = np.asarray(x, dtype=float)
    dim = x.shape[-1]
    if dim > _DENSE_DIM_LIMIT:
        raise CapabilityError(
            f"dense finite differences limited to dim <= {_DENSE_DIM_LIMIT}, "
            f"got {dim}"
        )
    if step is None:
        step = 1e-4 * (1.0 + float(np.max(np.abs(x))))
    offsets = step * np.eye(dim)
    pts = np.concatenate([x[None, :] + offsets, x[None, :] - offsets], axis=0)
    vals = field(pts, t)
    diag_plus = vals[:dim][np.arange(dim), np.arange(dim)]
    diag_minus = vals[dim:][np.arange(dim), np.arange(dim)]
    return float(np.sum(diag_plus - diag_minus) / (2.0 * step))


_DIV_METHODS = ("exact", "hutchinson", "fd")


def _divergence_by_method(field, t, x, method, hutch_config):
    if method == "exact":
        return divergence_exact(field, t, x)
    if method == "hutchinson":
        cfg = hutch_config if hutch_config is not None else HutchinsonConfig()
        return divergence_hutchinson(field, t, x, cfg).value
    if method == "fd":
        return divergence_fd_dense(field, t, x)
    raise ConfigurationError(f"divergence method must be one of {_DIV_METHODS}")


def conservation_residual(field, target, schedule, t, x, method="exact",
                          hutch_config=None):
    """``div g + g . grad log p_t`` for guidance field ``g`` against ``target``.

    Zero (to estimator accuracy) exactly when transporting mass along
    ``g`` preserves the marginal density of ``target``.
    """
    x = np.asarray(x, dtype=float)
    div = _divergence_by_method(field, t, x, method, hutch_config)
    flux = float(field(x, t) @ mix.score(target, schedule, t, x))
    return div + flux


def divergence_profile(fields, trajectory):
    """Normalized |exact divergence| of each labeled field along a trajectory.

    ``fields`` maps column labels to oracle vector fields; ``trajectory`` is
    any object with ``times`` and ``states`` arrays (a TrajectoryRecord).
    The output table has columns ``step`` and ``t`` followed by
    ``div_<label>`` holding ``|div field| / dim`` at every state.  Each
    field is evaluated once, on all states and their times.
    """
    times = np.asarray(trajectory.times, dtype=float)
    states = np.asarray(trajectory.states, dtype=float)
    if states.ndim != 2 or states.shape[0] != times.shape[0]:
        raise ConfigurationError(
            f"states {states.shape} do not match times {times.shape}"
        )
    labels = list(fields)
    columns = ["step", "t"] + [f"div_{lab}" for lab in labels]
    divs = np.column_stack([
        np.abs(divergence_exact(fields[lab], times, states)) / fields[lab].dim
        for lab in labels
    ])
    rows = [[k, float(t)] + row
            for k, (t, row) in enumerate(zip(times, divs.tolist()))]
    return Table(columns=columns, rows=rows)
