"""Divergence of vector fields: exact, stochastic, and dense estimators.

The exact divergence of an oracle field is its own ``field.divergence(x,
t)``, the analytic trace its constructor attached.  Two black-box
references for it work on any field:

* ``divergence_hutchinson`` is the matrix-free stochastic trace estimator
  ``mean_k  xi_k . (J xi_k)`` over Rademacher probes ``xi_k``, with the
  directional derivative formed by a central difference;
* ``divergence_fd_dense`` sums one central difference per axis and is the
  slow reference for low dimensions.

Both take central differences with the step ``FD_STEP * (1 + max|x_i|)``.

``conservation_residual`` adds the exact divergence to the flux against
the oracle score, ``div g + g . grad log p``, the quantity that vanishes
exactly when adding ``g`` to the velocity leaves the evolving density
untouched.  All three take one ``(field.dim,)`` point and raise
ShapeError for anything else; a trajectory's exact divergences are one
``field.divergence(states, times)`` call.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import mixture as mix
from .errors import CapabilityError, EstimationError, ShapeError, require_int

FD_STEP = 1e-4
_DENSE_DIM_LIMIT = 64


@dataclass(frozen=True)
class HutchinsonConfig:
    """Probe count and seed of the stochastic trace estimator."""

    probes: int = 256
    seed: int = 0

    def __post_init__(self):
        object.__setattr__(self, "probes", require_int("probes", self.probes, 1))
        object.__setattr__(self, "seed", require_int("seed", self.seed, 0))


@dataclass(frozen=True)
class DivergenceEstimate:
    """Stochastic divergence estimate with its Monte-Carlo standard error."""

    value: float
    stderr: float


def _fd_step(x):
    return FD_STEP * (1.0 + float(np.max(np.abs(x))))


def _point(field, x):
    """``x`` as one ``(field.dim,)`` point; ShapeError for anything else."""
    x = np.asarray(x, dtype=float)
    if x.shape != (field.dim,):
        raise ShapeError(
            f"x must be one point of shape ({field.dim},), got shape {x.shape}")
    return x


def divergence_hutchinson(field, t, x, config: HutchinsonConfig):
    """Hutchinson trace estimate of the Jacobian of ``field`` at ``(x, t)``.

    Probes are Rademacher vectors; directional derivatives use a central
    difference with step ``FD_STEP * (1 + max|x_i|)``.  The estimate is the
    probe mean and the reported stderr is the sample standard deviation
    over probes divided by sqrt(probes).  Deterministic for a fixed config.
    """
    x = _point(field, x)
    rng = np.random.default_rng(config.seed)
    probes = rng.integers(0, 2, size=(config.probes, field.dim)) * 2.0 - 1.0
    h = _fd_step(x)
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
    return DivergenceEstimate(value=value, stderr=stderr)


def divergence_fd_dense(field, t, x):
    """Dense central-difference divergence; reference path for dim <= 64."""
    x = _point(field, x)
    dim = field.dim
    if dim > _DENSE_DIM_LIMIT:
        raise CapabilityError(
            f"dense finite differences limited to dim <= {_DENSE_DIM_LIMIT}, "
            f"got {dim}"
        )
    step = _fd_step(x)
    offsets = step * np.eye(dim)
    pts = np.concatenate([x[None, :] + offsets, x[None, :] - offsets], axis=0)
    vals = field(pts, t)
    diag_plus = vals[:dim][np.arange(dim), np.arange(dim)]
    diag_minus = vals[dim:][np.arange(dim), np.arange(dim)]
    return float(np.sum(diag_plus - diag_minus) / (2.0 * step))


def conservation_residual(field, target, schedule, t, x):
    """``div g + g . grad log p_t`` for oracle guidance field ``g`` against
    ``target``, with the exact divergence.

    Zero (to roundoff) exactly when transporting mass along ``g`` preserves
    the marginal density of ``target``.
    """
    x = _point(field, x)
    flux = float(field(x, t) @ mix.score(target, schedule, t, x))
    return field.divergence(x, t) + flux
