"""Fixed-step Euler integration of the guided probability-flow ODE.

The integrator marches ``x_{k+1} = x_k + dt * (v_u(x_k, t_k) + update_k)``
on a uniform time grid from the noise end to the data end, where
``update_k`` is whatever the configured guidance rule produces (or an
arbitrary extra vector field, for conservation experiments).  Each guided
step evaluates the conditional and the unconditional velocity in one
oracle pass over the pair's stacked components (``mixture._Stack``, built
once with the ``TargetPair``); the path coefficients of every step come
from two schedule calls over the whole grid, and the oracle's time-only
terms from one ``mixture._time_terms`` call over it.  Trajectories are
deterministic given the initial state; batches draw initial states ``x0 ~
N(0, I)`` with one child seed per trajectory index so that results do not
depend on batch size or ordering.  A single trajectory and a batch
both come back as a ``TrajectoryRecord`` of the time grid and the states:
the loop keeps only what it integrates, and callers evaluate whatever
summary they report on those states.

Only the Euler scheme is provided: the laboratory studies guidance-rule
effects, and a fixed first-order solver keeps those effects un-confounded
by integrator order.
"""

from __future__ import annotations

from dataclasses import dataclass, field

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
        if self.seed < 0:
            raise ConfigurationError(f"sampler seed must be >= 0, got {self.seed}")


@dataclass(frozen=True)
class TargetPair:
    """Conditional and unconditional analytic targets of one experiment."""

    conditional: mix.GaussianMixture
    unconditional: mix.GaussianMixture
    # Both targets' components in one stack, conditional first, so that one
    # oracle pass per Euler step evaluates both.
    _stack: mix._Stack = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.conditional.dim != self.unconditional.dim:
            raise ShapeError(
                f"conditional dim {self.conditional.dim} != "
                f"unconditional dim {self.unconditional.dim}"
            )
        object.__setattr__(
            self, "_stack", mix._Stack(self.conditional, self.unconditional))

    @property
    def dim(self):
        return self.conditional.dim


@dataclass(frozen=True)
class TrajectoryRecord:
    """Integrated trajectories: the time grid and the state at each time.

    ``states`` holds ``steps + 1`` entries, the initial states included,
    one per entry of ``times``: each a ``(dim,)`` state for one trajectory,
    or a ``(count, dim)`` batch when ``integrate`` started from a batch.
    """

    times: np.ndarray
    states: np.ndarray

    @property
    def steps(self):
        return self.states.shape[0] - 1

    @property
    def dim(self):
        return self.states.shape[-1]

    @property
    def terminal_state(self):
        return self.states[-1]


def _check_grid(schedule, sampler_config):
    if sampler_config.t_start < schedule.t_min or sampler_config.t_end > schedule.t_max:
        raise ConfigurationError(
            f"sampler grid [{sampler_config.t_start}, {sampler_config.t_end}] "
            f"exceeds schedule clamps [{schedule.t_min}, {schedule.t_max}]"
        )


def _euler(x0s, pair, schedule, guidance_config, sampler_config,
           guidance_field=None):
    """Vectorized Euler loop over a batch of initial states.

    Returns ``(times, states)``: the grid and the ``(steps + 1, count,
    dim)`` states.  The path coefficients of every step come from two
    schedule calls over the whole grid, and the oracle's time-only terms
    (``mixture._time_terms``: eigenvalues ``m_j``, log normalisers and
    ``alpha mu_j``) from one call over it, sliced per step.  A guided step
    makes one oracle pass over the pair's stacked components for both
    velocities; with an explicit ``guidance_field`` only the unconditional
    target is evaluated.
    """
    _check_grid(schedule, sampler_config)
    steps = sampler_config.steps
    times = np.linspace(sampler_config.t_start, sampler_config.t_end, steps + 1)
    path = sched.evaluate(schedule, times)
    state_coefs, score_coefs = (
        c.tolist() for c in sched.coefficients(schedule, times))
    stack = pair._stack if guidance_field is None else pair.unconditional
    grid = mix._time_terms(stack, path.alpha, path.sigma)
    count, dim = x0s.shape
    states = np.empty((steps + 1, count, dim))
    states[0] = x0s
    for k, (t, dt) in enumerate(zip(times.tolist(), np.diff(times).tolist())):
        x = states[k]
        terms = mix._evaluate_at(stack, *(c[:, k:k + 1] for c in grid), x)
        velocities = mix._velocities(stack, terms, state_coefs[k],
                                     score_coefs[k], x)
        v_u = velocities[-1]
        if guidance_field is None:
            update = apply_guidance(v_u, velocities[0], x, t, schedule,
                                    guidance_config)
        else:
            update = np.asarray(guidance_field(x, t), dtype=float)
            if update.shape != x.shape:
                update = np.broadcast_to(update, x.shape)
        nxt = x + dt * (v_u + update)
        if not np.all(np.isfinite(nxt)):
            raise IntegrationError(
                f"non-finite state produced by Euler step {k} at t={t}", k
            )
        states[k + 1] = nxt
    return times, states


def integrate(x0, pair, schedule, guidance_config, sampler_config,
              guidance_field=None):
    """Integrate from ``x0`` and return the record.

    ``x0`` is one ``(dim,)`` initial state, whose record holds ``(dim,)``
    states, or a ``(count, dim)`` batch, whose record holds ``(count,
    dim)`` batches.  ``guidance_field``, when given, replaces the
    configured guidance rule with an arbitrary vector field of ``(x, t)``
    (the unconditional velocity stays the base flow).  A single trajectory
    runs the same vectorized loop as a batch of one.
    """
    x0 = np.asarray(x0, dtype=float)
    if x0.ndim not in (1, 2) or x0.shape[-1] != pair.dim:
        raise ShapeError(f"x0 shape {x0.shape} does not match pair dim {pair.dim}; "
                         f"expected ({pair.dim},) or (count, {pair.dim})")
    times, states = _euler(
        np.atleast_2d(x0), pair, schedule, guidance_config, sampler_config,
        guidance_field=guidance_field,
    )
    return TrajectoryRecord(times=times,
                            states=states if x0.ndim == 2 else states[:, 0, :])


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

