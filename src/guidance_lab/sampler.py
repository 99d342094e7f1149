"""Fixed-step Euler integration of the guided probability-flow ODE.

The integrator marches ``x_{k+1} = x_k + dt * (v_u(x_k, t_k) + update_k)``
on a uniform time grid from the noise end to the data end, where
``update_k`` is whatever the configured guidance rule produces (or an
arbitrary extra vector field, for conservation experiments).  Trajectories
are deterministic given the initial state; batches draw initial states
``x0 ~ N(0, I)`` with one child seed per trajectory index so that results
do not depend on batch size or ordering.

Only the Euler scheme is provided: the laboratory studies guidance-rule
effects, and a fixed first-order solver keeps those effects un-confounded
by integrator order.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import mixture as mix
from . import schedule as sched
from .errors import ConfigurationError, IntegrationError, ShapeError
from .guidance import apply_guidance


@dataclass(frozen=True)
class SamplerConfig:
    """Time grid of the Euler integrator and the seed of its initial states."""

    steps: int = 30
    t_start: float = sched.DEFAULT_T_MIN
    t_end: float = sched.DEFAULT_T_MAX
    seed: int = 0

    def __post_init__(self):
        if not isinstance(self.steps, int) or self.steps < 1:
            raise ConfigurationError(f"steps must be a positive int: {self.steps!r}")
        if not (np.isfinite(self.t_start) and np.isfinite(self.t_end)):
            raise ConfigurationError("t_start and t_end must be finite")
        if not (0.0 <= self.t_start < self.t_end <= 1.0):
            raise ConfigurationError(
                f"need 0 <= t_start < t_end <= 1, got [{self.t_start}, {self.t_end}]"
            )


@dataclass(frozen=True)
class TargetPair:
    """Conditional and unconditional analytic targets of one experiment."""

    conditional: mix.GaussianMixture
    unconditional: mix.GaussianMixture

    def __post_init__(self):
        if self.conditional.dim != self.unconditional.dim:
            raise ShapeError(
                f"conditional dim {self.conditional.dim} != "
                f"unconditional dim {self.unconditional.dim}"
            )

    @property
    def dim(self):
        return self.conditional.dim


@dataclass(frozen=True)
class TrajectoryRecord:
    """One integrated trajectory: its time grid and the state at each time.

    ``states`` holds ``steps + 1`` rows, the initial state included, one
    per entry of ``times``.
    """

    times: np.ndarray
    states: np.ndarray

    @property
    def steps(self):
        return self.states.shape[0] - 1

    @property
    def dim(self):
        return self.states.shape[1]

    @property
    def terminal_state(self):
        return self.states[-1]


@dataclass(frozen=True)
class BatchResult:
    """Terminal states and per-step summary of a batch of trajectories.

    Log-density summaries are taken under the exact marginal of each
    target at the grid time of every recorded state; ``mean_update_norm``
    averages the guidance-update magnitude over trajectories at each of
    the ``steps`` Euler evaluations.
    """

    times: np.ndarray
    terminal: np.ndarray
    mean_update_norm: np.ndarray
    mean_log_density_cond: np.ndarray
    stderr_log_density_cond: np.ndarray
    mean_log_density_uncond: np.ndarray
    stderr_log_density_uncond: np.ndarray
    states: Optional[np.ndarray] = None

    @property
    def count(self):
        return self.terminal.shape[0]


def _check_grid(schedule, sampler_config):
    if sampler_config.t_start < schedule.t_min or sampler_config.t_end > schedule.t_max:
        raise ConfigurationError(
            f"sampler grid [{sampler_config.t_start}, {sampler_config.t_end}] "
            f"exceeds schedule clamps [{schedule.t_min}, {schedule.t_max}]"
        )
    return np.linspace(
        sampler_config.t_start, sampler_config.t_end, sampler_config.steps + 1
    )


def _euler(x0s, pair, schedule, guidance_config, sampler_config,
           guidance_field=None):
    """Vectorized Euler loop over a batch of initial states.

    Returns ``(times, states, updates)``: the grid, the ``(steps + 1,
    count, dim)`` states and the ``(steps, count, dim)`` guidance updates.
    """
    times = _check_grid(schedule, sampler_config)
    steps = sampler_config.steps
    count, dim = x0s.shape
    states = np.empty((steps + 1, count, dim))
    states[0] = x0s
    updates = np.empty((steps, count, dim))
    for k in range(steps):
        t = float(times[k])
        x = states[k]
        v_u = mix.velocity(pair.unconditional, schedule, t, x)
        if guidance_field is None:
            v_c = mix.velocity(pair.conditional, schedule, t, x)
            update = apply_guidance(v_u, v_c, x, t, schedule, guidance_config).update
        else:
            update = np.asarray(guidance_field(x, t), dtype=float)
            if update.shape != x.shape:
                update = np.broadcast_to(update, x.shape)
        nxt = x + (times[k + 1] - times[k]) * (v_u + update)
        if not np.all(np.isfinite(nxt)):
            raise IntegrationError(
                f"non-finite state produced by Euler step {k} at t={t}", k
            )
        states[k + 1] = nxt
        updates[k] = update
    return times, states, updates


def integrate(x0, pair, schedule, guidance_config, sampler_config,
              guidance_field=None):
    """Integrate one trajectory from ``x0`` and return its record.

    ``guidance_field``, when given, replaces the configured guidance rule
    with an arbitrary vector field of ``(x, t)`` (the unconditional
    velocity stays the base flow).  A single trajectory is bit-identical to
    the corresponding row of a batch because both run the same vectorized
    loop.
    """
    x0 = np.asarray(x0, dtype=float)
    if x0.ndim != 1 or x0.shape[0] != pair.dim:
        raise ShapeError(f"x0 shape {x0.shape} does not match pair dim {pair.dim}")
    times, states, _ = _euler(
        x0[None, :], pair, schedule, guidance_config, sampler_config,
        guidance_field=guidance_field,
    )
    return TrajectoryRecord(times=times, states=states[:, 0, :])


def draw_initial_state(dim, seed, index=0):
    """Standard-normal initial state, deterministic per ``(seed, index)``."""
    rng = np.random.default_rng([seed, index])
    return rng.standard_normal(dim)


def initial_states(count, dim, seed):
    """Seeded batch of N(0, I) draws; row ``j`` is draw ``(seed, j)``."""
    if count < 1:
        raise ConfigurationError(f"count must be >= 1, got {count}")
    out = np.empty((count, dim))
    for j in range(count):
        out[j] = draw_initial_state(dim, seed, j)
    return out


def batch_integrate(count, pair, schedule, guidance_config, sampler_config,
                    guidance_field=None, keep_states=False):
    """Integrate ``count`` seeded trajectories and summarize them.

    Initial states come from ``initial_states`` with the sampler config's
    seed, so trajectory ``j`` is identical no matter the batch size.  The
    summary tracks the mean guidance-update norm per step and the mean and
    standard error of the oracle log-density of the states under both
    targets' exact marginals.
    """
    x0s = initial_states(count, pair.dim, sampler_config.seed)
    times, states, upd = _euler(
        x0s, pair, schedule, guidance_config, sampler_config,
        guidance_field=guidance_field,
    )
    mean_update_norm = np.linalg.norm(upd, axis=2).mean(axis=1)
    logs_c = np.empty((sampler_config.steps + 1, count))
    logs_u = np.empty((sampler_config.steps + 1, count))
    for k in range(sampler_config.steps + 1):
        t = float(times[k])
        logs_c[k] = mix.log_density(pair.conditional, schedule, t, states[k])
        logs_u[k] = mix.log_density(pair.unconditional, schedule, t, states[k])
    denom = np.sqrt(count) if count > 1 else 1.0
    ddof = 1 if count > 1 else 0
    return BatchResult(
        times=times,
        terminal=states[-1].copy(),
        mean_update_norm=mean_update_norm,
        mean_log_density_cond=logs_c.mean(axis=1),
        stderr_log_density_cond=logs_c.std(axis=1, ddof=ddof) / denom,
        mean_log_density_uncond=logs_u.mean(axis=1),
        stderr_log_density_uncond=logs_u.std(axis=1, ddof=ddof) / denom,
        states=states if keep_states else None,
    )
