"""Interpolation schedule for the probability-flow ODE.

The noise-to-data path is ``x_t = alpha_t * x1 + sigma_t * x0`` with ``x0``
standard normal noise at ``t = 0`` and ``x1`` a data sample at ``t = 1``.
The path is the linear (rectified-flow) one, ``alpha_t = t``,
``sigma_t = 1 - t``; a ``Schedule`` holds only its evaluation clamp.  Time
always runs from noise to data; there is no direction flag.

Velocities and scores are interchangeable along the path:

    v_t(x) = a_t * x - b_t * score_t(x)

with ``a_t = d_alpha / alpha`` and
``b_t = (d_sigma * sigma * alpha - d_alpha * sigma**2) / alpha``.
For the linear schedule ``b_t = -sigma_t / alpha_t``, which is negative, so
the outward normal ``a_t * x - v_t(x) = b_t * score`` is anti-parallel to
the score.

Evaluation times are clamped to ``[t_min, t_max]`` to keep ``a_t`` and the
score finite; asking for a time outside the clamp raises ``DomainError``
rather than silently projecting onto the boundary.

Every function here takes ``t`` as a scalar or as an array of times (one
per state of a batch).  A scalar gives Python floats; an array gives arrays
of its shape.  An array with any non-finite element or any element outside
the domain raises the same ``DomainError`` as that element would alone.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import ConfigurationError, DomainError, require_real

DEFAULT_T_MIN = 1e-3
DEFAULT_T_MAX = 1.0 - 1e-3


class SchedulePoint(NamedTuple):
    """Path coefficients and their time derivatives at one time (or, with
    an array of times, one array per coefficient)."""

    alpha: float
    sigma: float
    d_alpha: float
    d_sigma: float


class PathCoefficients(NamedTuple):
    """Coefficients of the score-to-velocity conversion at one time.

    ``velocity = state_coef * x - score_coef * score``.
    """

    state_coef: float
    score_coef: float


@dataclass(frozen=True)
class Schedule:
    """The evaluation clamp of the linear interpolation path."""

    t_min: float = DEFAULT_T_MIN
    t_max: float = DEFAULT_T_MAX

    def __post_init__(self):
        for name in ("t_min", "t_max"):
            object.__setattr__(self, name, require_real(name, getattr(self, name)))
        if not (0.0 < self.t_min < self.t_max < 1.0):
            raise ConfigurationError(
                f"clamp must satisfy 0 < t_min < t_max < 1, "
                f"got t_min={self.t_min}, t_max={self.t_max}"
            )


def _times(t, lo, hi, what):
    """``t`` as a float (scalar input) or a float array, every element in
    ``[lo, hi]``; otherwise DomainError naming the first offending time."""
    if isinstance(t, (np.ndarray, list, tuple)):
        arr = np.asarray(t, dtype=float)
        bad = ~((arr >= lo) & (arr <= hi))  # also flags NaN
        if np.any(bad):
            first = float(arr.reshape(-1)[np.argmax(bad.reshape(-1))])
            raise DomainError(f"time {first} outside {what} [{lo}, {hi}]")
        return arr if arr.ndim else float(arr)
    t = float(t)
    if not (lo <= t <= hi):
        raise DomainError(f"time {t} outside {what} [{lo}, {hi}]")
    return t


def evaluate(schedule: Schedule, t) -> SchedulePoint:
    """Return (alpha, sigma, d_alpha, d_sigma) at time ``t``.

    Raises DomainError if ``t`` (or any element of it) lies outside
    ``[t_min, t_max]``.
    """
    t = _times(t, schedule.t_min, schedule.t_max, "schedule clamp")
    one = np.ones_like(t) if isinstance(t, np.ndarray) else 1.0
    return SchedulePoint(alpha=t, sigma=1.0 - t, d_alpha=one, d_sigma=-one)


def coefficients(schedule: Schedule, t) -> PathCoefficients:
    """Coefficients (state_coef, score_coef) of ``v = a*x - b*score`` at ``t``.

    Computed from the generic path outputs (alpha, sigma and their
    derivatives), the parameterisation-invariant form; for the linear path
    ``score_coef`` reduces to ``-sigma/alpha``.
    """
    alpha, sigma, d_alpha, d_sigma = evaluate(schedule, t)
    state_coef = d_alpha / alpha
    score_coef = (d_sigma * sigma * alpha - d_alpha * sigma * sigma) / alpha
    return PathCoefficients(state_coef=state_coef, score_coef=score_coef)


def guidance_scale_at(config, t):
    """Scheduled guidance scale ``max(min_scale, scale * (1-t)**decay)``.

    ``config`` is any object with ``guidance_scale``, ``min_scale`` and
    ``decay_power`` attributes (normally a ``guidance.GuidanceConfig``).
    The scale equals ``guidance_scale`` at ``t = 0`` and decays to the
    floor ``min_scale`` as ``t`` approaches 1.
    """
    scale = float(config.guidance_scale)
    floor = float(config.min_scale)
    decay = float(config.decay_power)
    if decay < 0.0:
        raise ConfigurationError(f"decay_power must be >= 0, got {decay}")
    if floor > scale:
        raise ConfigurationError(
            f"min_scale ({floor}) must not exceed guidance_scale ({scale})"
        )
    t = _times(t, 0.0, 1.0, "the guidance scale's domain")
    decayed = scale * (1.0 - t) ** decay
    if isinstance(t, np.ndarray):
        return np.maximum(floor, decayed)
    return max(floor, decayed)
