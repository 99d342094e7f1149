"""Fixed-step Euler integration of the guided probability-flow ODE.

The integrator marches ``x_{k+1} = x_k + dt * (v_u(x_k, t_k) + update_k)``
on a uniform time grid over the schedule clamp ``[t_min, t_max]``, from
the noise end to the data end, where ``update_k`` is whatever the
configured guidance rule produces (or an arbitrary extra vector field,
for conservation experiments).  Each guided
step evaluates the conditional and the unconditional velocity in one
oracle pass over the ``TargetPair``, which stacks both targets' components
when it is built; the path coefficients of every step come
from two schedule calls over the whole grid, each run's guidance scale
from one scalar call per step, and the oracle's time-only terms from one
``mixture._time_terms`` call over it, all laid out once per grid.  The
loop holds its states dimension-major, ``(dim, count)``, so at small
``dim`` the oracle's, the guidance rule's and the step's elementwise ops
run over the ``count`` trajectories in their inner loops; it ignores
underflow itself, once per call, not per step through ``mixture._pass``,
so a caller under ``np.errstate(all="raise")`` does not trip on the
oracle's log-sum-exp.  Trajectories are deterministic given the initial
state; batches draw initial states ``x0 ~ N(0, I)`` with one child seed
per trajectory index, ``default_rng([seed, j])``, so that results do not
depend on batch size or ordering; the seeds of a whole batch are hashed
in one vectorised pass.

One loop, ``_euler``, integrates a whole sampling job: a list of runs,
each an initial batch with its own ``GuidanceConfig``, concatenated into
one state array and advanced each step in row chunks of at most
``max(256, 8192 // dim)`` rows (``_chunks``), so that a job of many small
runs pays a step's fixed cost of some 35 NumPy calls once per rule, not
once per run, and a large one holds one chunk's oracle temporaries at a
time.  A chunk never mixes rules, and every row keeps the bits it has
when its run is integrated alone.  Three callers share the loop:
``integrate`` returns a ``TrajectoryRecord`` of the time grid and every
state of one run, ``terminal_states`` the last states of one run, and
``job_terminal_states`` those of every run of a job, both advancing the
states in place.  Callers evaluate whatever summary they report on those
states.  Experiments that compare rules integrate each rule from the same
initial states, in one job.

Only the Euler scheme is provided: the laboratory studies guidance-rule
effects, and a fixed first-order solver keeps those effects un-confounded
by integrator order.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from . import guidance as gd
from . import mixture as mix
from . import schedule as sched
from .errors import ConfigurationError, IntegrationError, ShapeError, require_int


@dataclass(frozen=True)
class SamplerConfig:
    """Step count of the Euler integrator and the seed of its initial
    states; the grid spans the schedule clamp ``[t_min, t_max]``."""

    steps: int = 30
    seed: int = 0

    def __post_init__(self):
        object.__setattr__(self, "steps", require_int("steps", self.steps, 1))
        object.__setattr__(self, "seed", require_int("sampler seed", self.seed, 0))


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


# Most rows one Euler step advances at once: max(_MIN_CHUNK_ROWS,
# _CHUNK_ENTRIES // dim) cut down to a multiple of _ROW_ALIGN, 4,088 at
# d = 2, 512 at d = 16 and 256 from d = 32 up, so every job of the benchmark
# is one chunk per rule.  Measured on a 2-core VM, one BLAS thread: at
# d = 64, 2,000 rows of each rule over 30 steps took 393-427 ms as one batch
# and 334-343 ms in chunks of 256-1,024 rows; at d = 16 four 500-row runs
# stacked unchunked ran 1.25-1.44x slower than one loop each; at d = 512
# (N(4 e_1, I) against N(e_1, I) / 2 + N(-e_1, I) / 2, default fields) an
# unchunked ``sweep_omega`` job peaked at 964 MB RSS, against 360 MB in
# 256-row chunks (43.2 s), 423 MB in 64-row chunks (46.5 s) and 66.5 s in
# 16-row chunks; 2 x 2,048 rows over 10 steps took
# 2.8-3.0 s in chunks of 128 to 2,048 rows, with no trend, and peaked at
# 123 MB in 128-row chunks, 130 MB in 256-row ones and 300 MB unchunked.
_CHUNK_ENTRIES = 8192
_MIN_CHUNK_ROWS = 256
# OpenBLAS (0.3.31, Haswell kernels) gives a column of an n-column product
# the same bits at any offset and any n that is a multiple of 8, but forms
# the last n % 8 columns with other kernels once n exceeds max(1e6 / dim**2,
# 192), and one column as a matrix-vector product (measured for dim from 4
# to 512 and n up to 3,001).  So rows are only stacked and cut in multiples
# of 8, and any other run is one chunk, as it is alone.
_ROW_ALIGN = 8


def _chunks(runs, steps, dim):
    """The row chunks of a job's Euler steps, ``(rows, config, scales,
    counts)`` each.

    ``runs`` holds each run's ``(count, GuidanceConfig)``, in the order of
    their rows, and ``steps`` the grid's times but the last.  Consecutive
    runs whose counts are multiples of ``_ROW_ALIGN`` and whose configs
    differ at most in their scale schedule are stacked and cut into as few
    chunks of at most the bound above as it takes, of sizes that are
    multiples of ``_ROW_ALIGN`` and differ by at most ``_ROW_ALIGN``; any
    other run is one chunk, whole.  So every row keeps the bits it has when
    its run is integrated alone.  Chunks of one size let the allocator reuse
    a chunk's freed temporaries: at d = 16, four 400-row runs per rule cut
    into 512-row chunks and a 64-row rest made 134,000 page faults and took
    0.09-0.12 s, in four 400-row chunks 14,000 and 0.06-0.09 s, and one loop
    per run 82,000 and 0.08-0.11 s (fresh processes, one BLAS thread).

    ``rows`` is the chunk's slice of the job's rows, or None for a chunk of
    every row, and ``config`` its rule.  Each run's scale at every step is
    laid out once per grid (``guidance._scales``): for a chunk within one
    run, ``scales`` is that run's list and ``counts`` None; otherwise
    ``scales`` is a step-major ``(steps, runs)`` array over the runs the
    chunk overlaps and ``counts`` their rows in it, so that a step repeats
    each run's scale over its rows.
    """
    limit = max(_MIN_CHUNK_ROWS, _CHUNK_ENTRIES // dim // _ROW_ALIGN * _ROW_ALIGN)
    scales = [gd._scales(config, steps) for _, config in runs]
    ends = list(itertools.accumulate(count for count, _ in runs))
    starts = [0] + ends[:-1]
    total = ends[-1] if ends else 0
    aligned = [count % _ROW_ALIGN == 0 for count, _ in runs]
    chunks, first = [], 0
    for index, (_, config) in enumerate(runs):
        if (index + 1 < len(runs) and aligned[index] and aligned[index + 1]
                and _rule_key(runs[index + 1][1]) == _rule_key(config)):
            continue
        lo, hi = starts[first], ends[index]
        bounds = [lo, hi]
        if aligned[index]:
            units = (hi - lo) // _ROW_ALIGN
            pieces = max(1, -(-(hi - lo) // limit))
            bounds = [lo + units * i // pieces * _ROW_ALIGN
                      for i in range(pieces + 1)]
        for start, stop in zip(bounds, bounds[1:]):
            if start == stop:
                continue
            overlap = [(i, min(stop, ends[i]) - max(start, starts[i]))
                       for i in range(first, index + 1)
                       if starts[i] < stop and ends[i] > start]
            rows = None if (start, stop) == (0, total) else slice(start, stop)
            if len(overlap) == 1:
                chunks.append((rows, config, scales[overlap[0][0]], None))
            else:
                grid = np.array([scales[i] for i, _ in overlap]).T.copy()
                chunks.append((rows, config, grid, [n for _, n in overlap]))
        first = index + 1
    return chunks


def _rule_key(config):
    """What the rows of one chunk share: all of ``config`` but its scale
    schedule."""
    return config.rule, config.parallel_scale, config.normal_source


def _euler(states, times, pair, schedule, runs, guidance_field=None):
    """Vectorized Euler loop over a job's initial states, the
    dimension-major ``(dim, count)`` ``states[0]``, across the grid
    ``times``: ``runs`` holds each run's ``(count, GuidanceConfig)``, in
    the order of their columns.

    The state at ``times[k]`` is written to ``states[k % len(states)]``, so
    a ``(steps + 1, dim, count)`` buffer keeps the whole trajectory and a
    ``(1, dim, count)`` one only the current state, advanced in place; the
    loop is the same.  Returns the last state, a ``(dim, count)`` view of
    ``states``.  Each step advances the job in the row chunks of
    :func:`_chunks`, which never mix rules, and whose rows equal those of
    their run integrated alone, bit for bit.  A chunk of every row is the
    state itself, not a slice, so a single-point step slices nothing.
    Each step hands the oracle, the guidance rule and the field its ``(dim,
    rows)`` chunk as a ``(rows, dim)`` transposed view, and gets the
    velocities and the update back as such views, so every elementwise op
    and every sum over dimensions or components runs over the rows in its
    inner loop.  The path coefficients of every step come from two
    schedule calls over the whole grid, each run's scale from
    :func:`_chunks`, and the oracle's time-only terms
    (``mixture._time_terms``: eigenvalues ``m_j``, log normalisers and
    ``alpha mu_j``, time on the last axis) from one call over it, laid out
    step-major once, contiguous ``(steps + 1, components, ..., 1)``, so
    that step ``k`` indexes ``[k]`` of each.  A guided chunk makes one
    oracle pass over the pair's stacked components for both velocities,
    which come back stacked, conditional first, and its update is
    ``guidance._update``, :func:`guidance.apply_guidance`'s arithmetic
    without its checks; with an explicit ``guidance_field`` only the
    unconditional target is evaluated.  A step checks its new state with
    ``math.isfinite`` of the state's sum, and entry by entry only when that
    sum is not finite.  The loop runs with underflow ignored: the oracle's
    log-sum-exp underflows to zero for components far from a point, as it
    should.  Its steps call ``_evaluate_at``, not ``mixture._pass``, as a
    context per step would slow a single point's.
    """
    path = sched.evaluate(schedule, times)
    state_coefs, score_coefs = (
        c.tolist() for c in sched.coefficients(schedule, times))
    stack = pair if guidance_field is None else pair.unconditional
    # Step-major: [k] of each holds step k's (components, ..., 1) terms.
    m_steps, norms_steps, means_steps = (
        np.ascontiguousarray(np.moveaxis(grid, -1, 0)[..., None])
        for grid in mix._time_terms(stack, path.alpha, path.sigma))
    steps = times[:-1].tolist()
    chunks = _chunks(runs, steps, pair.dim)
    depth = len(states)
    with mix._ignoring_underflow():
        for k, (t, dt) in enumerate(zip(steps, np.diff(times).tolist())):
            state, nxt = states[k % depth].T, states[(k + 1) % depth].T
            for rows, config, scales, counts in chunks:
                x, out = (state, nxt) if rows is None else (state[rows], nxt[rows])
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
                            raise ShapeError(
                                f"guidance field value of shape {update.shape} "
                                f"does not broadcast to {x.shape}") from None
                else:
                    scale = (scales[k] if counts is None
                             else scales[k].repeat(counts)[:, None])
                    update = gd._update(velocities[0], v_u, x, state_coefs[k],
                                        scale, config)
                np.add(x, dt * (v_u + update), out=out)
            # A non-finite entry makes the sum non-finite; a sum of finite
            # entries that overflows (NumPy warns of it) only takes the
            # exact check.
            if not (math.isfinite(np.add.reduce(nxt, axis=None))
                    or np.isfinite(nxt).all()):
                raise IntegrationError(
                    f"non-finite state produced by Euler step {k} at t={t}", k
                )
    return states[(len(times) - 1) % depth]


def _start(x0s, pair, depth):
    """A ``(depth, dim, count)`` state buffer holding, in ``[0]``, the
    checked initial states or batches ``x0s`` one after another,
    dimension-major, and the row count of each."""
    batches = []
    for x0 in x0s:
        x0 = np.asarray(x0, dtype=float)
        if x0.ndim not in (1, 2) or x0.shape[-1] != pair.dim:
            raise ShapeError(
                f"x0 shape {x0.shape} does not match pair dim {pair.dim}; "
                f"expected ({pair.dim},) or (count, {pair.dim})")
        batches.append(np.atleast_2d(x0))
    counts = [len(batch) for batch in batches]
    states = np.empty((depth, pair.dim, sum(counts)))
    np.concatenate([batch.T for batch in batches], axis=1, out=states[0])
    return states, counts


def _grid(schedule, sampler_config):
    """The Euler grid: ``steps + 1`` uniform times over the schedule clamp."""
    return np.linspace(schedule.t_min, schedule.t_max, sampler_config.steps + 1)


def integrate(x0, pair, schedule, guidance_config, sampler_config,
              guidance_field=None):
    """Integrate from ``x0`` and return the record.

    ``x0`` is one ``(dim,)`` initial state, whose record holds ``(dim,)``
    states, or a ``(count, dim)`` batch, whose record holds ``(count,
    dim)`` batches.  ``guidance_field``, when given, replaces the
    configured guidance rule with an arbitrary vector field of ``(x, t)``
    (the unconditional velocity stays the base flow), called once per step
    and row chunk; a value of it that does not broadcast to the chunk
    raises ShapeError.  A single trajectory runs the same vectorized loop as
    a batch of one.
    """
    times = _grid(schedule, sampler_config)
    states, (count,) = _start([x0], pair, len(times))
    _euler(states, times, pair, schedule, [(count, guidance_config)],
           guidance_field)
    return TrajectoryRecord(times=times, states=np.swapaxes(states, 1, 2)
                            if np.ndim(x0) == 2 else states[:, :, 0])


def job_terminal_states(runs, pair, schedule, sampler_config):
    """:func:`terminal_states` of each ``(x0, guidance_config)`` of
    ``runs``, bit for bit, from one Euler loop over all of them (see
    :func:`_euler`): a list of C-ordered copies, a ``(dim,)`` state for
    one initial state, a ``(count, dim)`` batch for a batch.  Order the
    runs by rule: a chunk holds consecutive runs of one rule only."""
    states, counts = _start([x0 for x0, _ in runs], pair, 1)
    final = _euler(states, _grid(schedule, sampler_config), pair, schedule,
                   list(zip(counts, [config for _, config in runs])))
    terminals, start = [], 0
    for (x0, _), count in zip(runs, counts):
        rows = final[:, start:start + count]
        terminals.append(rows.T.copy() if np.ndim(x0) == 2 else rows[:, 0].copy())
        start += count
    return terminals


def terminal_states(x0, pair, schedule, guidance_config, sampler_config):
    """``integrate(...).terminal_state`` of the same arguments, bit for
    bit, as a C-ordered copy: a ``(dim,)`` state for one initial state, a
    ``(count, dim)`` batch for a batch.  The loop is :func:`integrate`'s,
    but it keeps only the current state, not the ``(steps + 1, dim,
    count)`` trajectory."""
    final, = job_terminal_states([(x0, guidance_config)], pair, schedule,
                                 sampler_config)
    return final


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
