"""Fixed-step Euler integration of the guided probability-flow ODE.

The integrator marches ``x_{k+1} = x_k + dt * (v_u(x_k, t_k) + update_k)``
on a uniform time grid from the noise end to the data end, where
``update_k`` is whatever the configured guidance rule produces (or an
arbitrary extra vector field, for conservation experiments).  Each guided
step evaluates the conditional and the unconditional velocity in one
oracle pass over the pair's stacked components (``mixture._Stack``, built
once with the ``TargetPair``); the path coefficients of every step come
from two schedule calls over the whole grid, and the oracle's time-only
terms from one ``mixture._time_terms`` call over it, laid out step-major
once per grid.  The loop holds its states dimension-major, ``(steps + 1,
dim, count)``, so at small ``dim`` the oracle's, the guidance rule's and
the step's elementwise ops run over the ``count`` trajectories in their
inner loops.  Trajectories are
deterministic given the initial state; batches draw initial states ``x0 ~
N(0, I)`` with one child seed per trajectory index, ``default_rng([seed,
j])``, so that results do not depend on batch size or ordering; the seeds
of a whole batch are hashed in one vectorised pass.  A single trajectory
and a batch both come back as a ``TrajectoryRecord`` of the time grid and
the states: the loop keeps only what it integrates, and callers evaluate
whatever summary they report on those states.  Experiments that compare
rules integrate each rule from the same initial states.

Only the Euler scheme is provided: the laboratory studies guidance-rule
effects, and a fixed first-order solver keeps those effects un-confounded
by integrator order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import mixture as mix
from . import schedule as sched
from .errors import (ConfigurationError, IntegrationError, ShapeError,
                     require_int, require_real)
from .guidance import apply_guidance


@dataclass(frozen=True)
class SamplerConfig:
    """Time grid of the Euler integrator and the seed of its initial states."""

    steps: int = 30
    t_start: float = sched.DEFAULT_T_MIN
    t_end: float = sched.DEFAULT_T_MAX
    seed: int = 0

    def __post_init__(self):
        object.__setattr__(self, "steps", require_int("steps", self.steps, 1))
        for name in ("t_start", "t_end"):
            object.__setattr__(self, name, require_real(name, getattr(self, name)))
        if not (0.0 <= self.t_start < self.t_end <= 1.0):
            raise ConfigurationError(
                f"need 0 <= t_start < t_end <= 1, got [{self.t_start}, {self.t_end}]"
            )
        object.__setattr__(self, "seed", require_int("sampler seed", self.seed, 0))


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
    A batch's ``states`` is a transposed view of the Euler loop's
    dimension-major ``(steps + 1, dim, count)`` array.
    """

    times: np.ndarray
    states: np.ndarray

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

    Returns ``(times, states)``: the grid and the ``(steps + 1, dim,
    count)`` states, dimension-major.  Each step hands the oracle, the
    guidance rule and the field its ``(dim, count)`` state as a ``(count,
    dim)`` transposed view, and gets the velocities and the update back as
    such views, so every elementwise op and every sum over dimensions or
    components runs over the ``count`` trajectories in its inner loop.
    The path coefficients of every step come from two schedule calls over
    the whole grid, and the oracle's time-only terms
    (``mixture._time_terms``: eigenvalues ``m_j``, log normalisers and
    ``alpha mu_j``, time on the last axis) from one call over it, laid out
    step-major once, contiguous ``(steps + 1, components, ..., 1)``, so
    that step ``k`` indexes ``[k]`` of each.  A guided step makes one oracle pass
    over the pair's stacked components for both velocities, which come
    back stacked, conditional first; with an explicit ``guidance_field``
    only the unconditional target is evaluated.  A step checks its new
    state with ``math.isfinite`` of the state's sum, and entry by entry
    only when that sum is not finite.
    """
    _check_grid(schedule, sampler_config)
    steps = sampler_config.steps
    times = np.linspace(sampler_config.t_start, sampler_config.t_end, steps + 1)
    path = sched.evaluate(schedule, times)
    state_coefs, score_coefs = (
        c.tolist() for c in sched.coefficients(schedule, times))
    stack = pair._stack if guidance_field is None else pair.unconditional
    # Step-major: [k] of each holds step k's (components, ..., 1) terms.
    m_steps, norms_steps, means_steps = (
        np.ascontiguousarray(np.moveaxis(grid, -1, 0)[..., None])
        for grid in mix._time_terms(stack, path.alpha, path.sigma))
    count, dim = x0s.shape
    states = np.empty((steps + 1, dim, count))
    states[0] = x0s.T
    for k, (t, dt) in enumerate(zip(times.tolist(), np.diff(times).tolist())):
        x, nxt = states[k].T, states[k + 1].T
        terms = mix._evaluate_at(stack, m_steps[k], norms_steps[k],
                                 means_steps[k], x)
        velocities = mix._velocities(stack, terms, state_coefs[k],
                                     score_coefs[k], x)
        v_u = velocities[-1]
        if guidance_field is not None:
            update = np.asarray(guidance_field(x, t), dtype=float)
            if update.shape != x.shape:
                try:
                    update = np.broadcast_to(update, x.shape)
                except ValueError:
                    raise ShapeError(f"guidance field value of shape {update.shape} "
                                     f"does not broadcast to {x.shape}") from None
        else:
            update = apply_guidance(v_u, velocities[0], x, t, schedule,
                                    guidance_config)
        np.add(x, dt * (v_u + update), out=nxt)
        # A non-finite entry makes the sum non-finite; a sum of finite
        # entries that overflows (NumPy warns of it) only takes the exact
        # check.
        if not (math.isfinite(np.add.reduce(nxt, axis=None))
                or np.isfinite(nxt).all()):
            raise IntegrationError(
                f"non-finite state produced by Euler step {k} at t={t}", k
            )
    return times, states


def integrate(x0, pair, schedule, guidance_config, sampler_config,
              guidance_field=None):
    """Integrate from ``x0`` and return the record.

    ``x0`` is one ``(dim,)`` initial state, whose record holds ``(dim,)``
    states, or a ``(count, dim)`` batch, whose record holds ``(count,
    dim)`` batches.  ``guidance_field``, when given, replaces the
    configured guidance rule with an arbitrary vector field of ``(x, t)``
    (the unconditional velocity stays the base flow); a value of it that
    does not broadcast to the batch raises ShapeError.  A single trajectory
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
    return TrajectoryRecord(times=times, states=np.swapaxes(states, 1, 2)
                            if x0.ndim == 2 else states[:, :, 0])


# numpy's SeedSequence hash (numpy/random/bit_generator.pyx) and PCG64's
# 128-bit LCG multiplier: what default_rng([seed, j]) runs to seed row j.
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_POOL_SIZE = 4
_MASK32, _MASK128 = 2**32 - 1, 2**128 - 1
_PCG64_MULT = 0x2360ED051FC65DA44385DF649FCCF645


def _words(value):
    """The uint32 words SeedSequence splits a non-negative int into, lowest
    first; 0 is one word."""
    words = [value & _MASK32]
    while value >> 32:
        value >>= 32
        words.append(value & _MASK32)
    return [np.array([word], dtype=np.uint32) for word in words]


def _pcg64_seeds(entropy):
    """PCG64 ``(state, inc)`` of ``default_rng(words)`` for every row of
    ``entropy``, a list of uint32 word columns, each ``(1,)`` (shared by
    every row) or ``(rows,)``.

    SeedSequence's hash runs on all rows at once in wrapping uint32
    arithmetic: its hash constants do not depend on the data, so every row
    takes the same steps.  PCG64's 128-bit seeding then runs in Python ints.
    """
    hash_const = _INIT_A

    def hashmix(value):
        nonlocal hash_const
        value = value ^ hash_const
        hash_const = hash_const * _MULT_A & _MASK32
        value = value * hash_const
        return value ^ (value >> 16)

    def mix(x, y):
        result = _MIX_MULT_L * x - _MIX_MULT_R * y
        return result ^ (result >> 16)

    zero = np.zeros(1, dtype=np.uint32)
    pool = [hashmix(entropy[i] if i < len(entropy) else zero)
            for i in range(_POOL_SIZE)]
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for word in entropy[_POOL_SIZE:]:
        for dst in range(_POOL_SIZE):
            pool[dst] = mix(pool[dst], hashmix(word))
    # generate_state(4, np.uint64): eight words, paired little-endian.
    hash_const, words = _INIT_B, []
    for i in range(8):
        value = pool[i % _POOL_SIZE] ^ hash_const
        hash_const = hash_const * _MULT_B & _MASK32
        value = value * hash_const
        words.append((value ^ (value >> 16)).astype(np.uint64))
    seed_hi, seed_lo, inc_hi, inc_lo = (
        (lo | (hi << 32)).tolist() for lo, hi in zip(words[::2], words[1::2]))
    # PCG64's srandom: inc = 2 i + 1, then two LCG steps from state 0 with
    # the seed s added between them, all mod 2**128.
    seeds = []
    for s_hi, s_lo, i_hi, i_lo in zip(seed_hi, seed_lo, inc_hi, inc_lo):
        inc = (i_hi << 65 | i_lo << 1 | 1) & _MASK128
        seeds.append((((inc + (s_hi << 64 | s_lo)) * _PCG64_MULT + inc)
                      & _MASK128, inc))
    return seeds


def _normal_rows(dim, entropy):
    """``default_rng(words).standard_normal(dim)`` for every row of the
    word columns ``entropy`` (see :func:`_pcg64_seeds`), bit for bit: one
    PCG64 is set to each row's seeded state in turn."""
    seeds = _pcg64_seeds(entropy)
    bit_generator = np.random.PCG64(0)
    generator = np.random.Generator(bit_generator)
    out = np.empty((len(seeds), dim))
    for row, (state, inc) in zip(out, seeds):
        bit_generator.state = {"bit_generator": "PCG64",
                               "state": {"state": state, "inc": inc},
                               "has_uint32": 0, "uinteger": 0}
        generator.standard_normal(out=row)
    return out


def draw_initial_state(dim, seed, index=0):
    """Standard-normal initial state, deterministic per ``(seed, index)``:
    ``default_rng([seed, index]).standard_normal(dim)``, row ``index`` of
    :func:`initial_states`."""
    dim = require_int("dim", dim, 1)
    seed = require_int("seed", seed, 0)
    index = require_int("index", index, 0)
    return np.random.default_rng([seed, index]).standard_normal(dim)


def initial_states(count, dim, seed):
    """Seeded batch of N(0, I) draws; row ``j`` is draw ``(seed, j)``,
    ``default_rng([seed, j]).standard_normal(dim)`` bit for bit.  The seeds
    of all rows are hashed in one vectorised pass (:func:`_pcg64_seeds`)."""
    count = require_int("count", count, 1)
    if count > 2**32:
        raise ConfigurationError(f"count must be at most 2**32, got {count}")
    words = _words(require_int("seed", seed, 0)) + [np.arange(count, dtype=np.uint32)]
    return _normal_rows(require_int("dim", dim, 1), words)
