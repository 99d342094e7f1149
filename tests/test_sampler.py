"""Tests for the fixed-step Euler sampler and its records."""

import dataclasses

import numpy as np
import pytest

from guidance_lab import (
    ConfigurationError,
    GaussianMixture,
    GuidanceConfig,
    GuidanceRule,
    IntegrationError,
    SamplerConfig,
    Schedule,
    ShapeError,
    TargetPair,
    TrajectoryRecord,
    apply_guidance,
    default_config,
    draw_initial_state,
    initial_states,
    integrate,
    mixture,
    terminal_states,
    schedule,
)
from guidance_lab import cli, sampler
from guidance_lab.sampler import job_terminal_states
from guidance_lab.verify import _random_mixture


def _pair(dim=2):
    cond = GaussianMixture.single(np.full(dim, 1.5), 0.3)
    uncond = GaussianMixture.isotropic(
        np.stack([np.full(dim, 1.5), np.full(dim, -1.5)]), np.array([0.8, 0.8])
    )
    return TargetPair(conditional=cond, unconditional=uncond)


# ---------------------------------------------------------------------------
# grid and configuration


def test_time_grid_endpoints_and_shape():
    pair = _pair()
    cfg = SamplerConfig(steps=12)
    rec = integrate(np.zeros(2), pair, Schedule(t_min=0.05, t_max=0.95),
                    GuidanceConfig(), cfg)
    assert rec.times.shape == (13,)
    assert rec.states.shape == (13, 2)
    assert rec.times[0] == 0.05
    assert rec.times[-1] == 0.95
    np.testing.assert_allclose(np.diff(rec.times), 0.9 / 12, rtol=1e-12)
    np.testing.assert_array_equal(rec.terminal_state, rec.states[-1])


def test_default_grid_spans_schedule_clamp():
    sch = Schedule()
    cfg = SamplerConfig()
    pair = _pair()
    rec = integrate(np.zeros(2), pair, sch, GuidanceConfig(), cfg)
    assert rec.times[0] == sch.t_min
    assert rec.times[-1] == sch.t_max


def test_default_batch_raises_no_floating_point_error():
    # A component far from a state underflows in the log-sum-exp's exp by
    # design, and the Euler loop ignores that underflow itself; every other
    # floating-point error must not happen.
    cfg = default_config("sample_compare")
    x0s = initial_states(50, cfg.pair.dim, seed=cfg.sampler.seed)
    plain = integrate(x0s, cfg.pair, cfg.schedule, cfg.guidance, cfg.sampler)
    with np.errstate(all="raise"):
        rec = integrate(x0s, cfg.pair, cfg.schedule, cfg.guidance, cfg.sampler)
        last = terminal_states(x0s, cfg.pair, cfg.schedule, cfg.guidance,
                               cfg.sampler)
    assert np.isfinite(rec.states).all()
    assert rec.states.tobytes() == plain.states.tobytes()
    assert last.tobytes() == plain.terminal_state.tobytes()


def test_sampler_config_validation():
    with pytest.raises(ConfigurationError):
        SamplerConfig(steps=0)
    with pytest.raises(ConfigurationError):
        SamplerConfig(steps=2.0)
    with pytest.raises(ConfigurationError, match="steps"):
        SamplerConfig(steps=True)
    cfg = SamplerConfig(steps=np.int64(30))
    assert cfg.steps == 30 and type(cfg.steps) is int
    # The grid's interval is the schedule clamp's: no time field here.
    assert [f.name for f in dataclasses.fields(SamplerConfig)] == ["steps", "seed"]


@pytest.mark.parametrize("seed", [-1, 1.5, True, "3"])
def test_sampler_config_rejects_non_int_seeds(seed):
    with pytest.raises(ConfigurationError, match="sampler seed"):
        SamplerConfig(seed=seed)


def test_sampler_config_accepts_numpy_int_seed():
    cfg = SamplerConfig(seed=np.int64(3))
    assert cfg.seed == 3 and type(cfg.seed) is int


def test_target_pair_validation():
    a = GaussianMixture.single(np.zeros(2), 1.0)
    b = GaussianMixture.single(np.zeros(3), 1.0)
    with pytest.raises(ShapeError):
        TargetPair(conditional=a, unconditional=b)
    assert _pair(4).dim == 4


def test_integrate_rejects_bad_x0():
    # One (dim,) state or a (count, dim) batch; nothing else.
    pair = _pair()
    for bad in (np.zeros(3), np.zeros((2, 3)), np.zeros((1, 2, 2)), np.zeros(())):
        with pytest.raises(ShapeError):
            integrate(bad, pair, Schedule(), GuidanceConfig(), SamplerConfig())


# ---------------------------------------------------------------------------
# determinism and batch consistency


def test_integrate_deterministic():
    pair = _pair()
    x0 = draw_initial_state(2, seed=4)
    a = integrate(x0, pair, Schedule(), GuidanceConfig(), SamplerConfig(steps=20))
    b = integrate(x0, pair, Schedule(), GuidanceConfig(), SamplerConfig(steps=20))
    np.testing.assert_array_equal(a.states, b.states)


def test_draw_initial_state_seeding():
    a = draw_initial_state(3, seed=1, index=0)
    b = draw_initial_state(3, seed=1, index=0)
    np.testing.assert_array_equal(a, b)
    assert not np.array_equal(a, draw_initial_state(3, seed=1, index=1))
    assert not np.array_equal(a, draw_initial_state(3, seed=2, index=0))


def test_initial_states_independent_of_batch_size():
    small = initial_states(2, 3, seed=7)
    large = initial_states(5, 3, seed=7)
    np.testing.assert_array_equal(small, large[:2])


def test_initial_states_rows_are_indexed_draws():
    xs = initial_states(4, 3, seed=9)
    for j in range(4):
        np.testing.assert_array_equal(xs[j], draw_initial_state(3, seed=9, index=j))
    assert not np.array_equal(xs[0], xs[2])
    with pytest.raises(ConfigurationError):
        initial_states(0, 3, seed=9)


# Seeds of one, two and three SeedSequence words.
@pytest.mark.parametrize("seed", [0, 1, 2**32 - 1, 2**32, 2**70 + 1])
def test_initial_states_match_default_rng_rows(seed):
    for dim in (1, 2, 16):
        for count in (1, 300):
            want = np.array([np.random.default_rng([seed, j]).standard_normal(dim)
                             for j in range(count)])
            assert initial_states(count, dim, seed).tobytes() == want.tobytes()
        for index in (0, 7, 2**32 + 5):
            want = np.random.default_rng([seed, index]).standard_normal(dim)
            assert draw_initial_state(dim, seed, index).tobytes() == want.tobytes()


@pytest.mark.parametrize("call", [
    lambda: initial_states(3, 2, -1),
    lambda: initial_states(3, 2, 1.5),
    lambda: initial_states(3, 2, True),
    lambda: initial_states(3, 0, 1),
    lambda: initial_states(0, 2, 1),
    lambda: initial_states(2.0, 2, 1),
    lambda: draw_initial_state(2, -1),
    lambda: draw_initial_state(2, 1.5),
    lambda: draw_initial_state(2, False),
    lambda: draw_initial_state(0, 1),
    lambda: draw_initial_state(2, 1, index=-1),
])
def test_initial_states_reject_bad_input(call):
    with pytest.raises(ConfigurationError):
        call()


def test_batch_row_matches_single_trajectory():
    pair = _pair()
    sch = Schedule()
    gcfg = GuidanceConfig()
    scfg = SamplerConfig(steps=15, seed=11)

    # A single state runs as a batch of one, so the two are bit-identical.
    solo = integrate(initial_states(1, 2, seed=11), pair, sch, gcfg, scfg)
    rec0 = integrate(draw_initial_state(2, seed=11, index=0), pair, sch, gcfg, scfg)
    np.testing.assert_array_equal(solo.states[:, 0, :], rec0.states)

    # Larger batches rotate into the eigenbases with matrix-matrix BLAS
    # products instead of matrix-vector ones.  Up to dim 3 both round alike
    # (test_batch_rows_equal_single_runs_up_to_dim_3 checks that bit for
    # bit); above it a batch row differs from a single point by roundoff (at
    # most 3e-13 of the largest entry of a d = 64 velocity), so these
    # trajectories are compared to fp-accumulation accuracy.
    batch = integrate(initial_states(3, 2, seed=11), pair, sch, gcfg, scfg)
    for j in range(3):
        x0 = draw_initial_state(2, seed=11, index=j)
        rec = integrate(x0, pair, sch, gcfg, scfg)
        np.testing.assert_array_equal(batch.states[0, j, :], x0)
        np.testing.assert_allclose(batch.states[:, j, :], rec.states,
                                   rtol=1e-12, atol=1e-13)
        np.testing.assert_allclose(batch.terminal_state[j], rec.terminal_state,
                                   rtol=1e-12, atol=1e-13)


# (conditional, unconditional) component counts: a target of 8 or more
# components is where np.sum would add pairwise for one point.
@pytest.mark.parametrize("counts", [(1, 4), (3, 9)])
@pytest.mark.parametrize("dim", [1, 2, 3])
def test_batch_rows_equal_single_runs_up_to_dim_3(dim, counts):
    rng = np.random.default_rng([73, dim, *counts])
    pair = TargetPair(conditional=_random_mixture(rng, dim, counts[0]),
                      unconditional=_random_mixture(rng, dim, counts[1]))
    sch = Schedule()
    scfg = SamplerConfig(steps=20, seed=2)
    x0s = initial_states(12, dim, seed=2)
    for rule in (GuidanceConfig(),
                 GuidanceConfig(rule=GuidanceRule.CFG, guidance_scale=3.0,
                                min_scale=0.0, decay_power=0.0)):
        batch = integrate(x0s, pair, sch, rule, scfg)
        for j, x0 in enumerate(x0s):
            one = integrate(x0, pair, sch, rule, scfg)
            assert batch.states[:, j, :].tobytes() == one.states.tobytes(), j


@pytest.mark.parametrize("rule", [GuidanceRule.CFG, GuidanceRule.PROJECTED])
def test_terminal_states_equal_the_trajectory_end(rule):
    # One Euler loop serves both: the last states of a loop that keeps two
    # states are the trajectory's last row, bit for bit, for a batch and
    # for one initial state, and come back as a C-ordered copy.
    pair, sch, scfg = _pair(3), Schedule(), SamplerConfig(steps=17)
    gcfg = GuidanceConfig(rule=rule, guidance_scale=4.0)
    x0s = initial_states(6, 3, seed=4)
    last = terminal_states(x0s, pair, sch, gcfg, scfg)
    assert last.flags.c_contiguous and last.shape == (6, 3)
    assert last.tobytes() == integrate(
        x0s, pair, sch, gcfg, scfg).terminal_state.tobytes()
    one = terminal_states(x0s[2], pair, sch, gcfg, scfg)
    assert one.shape == (3,)
    assert one.tobytes() == integrate(
        x0s[2], pair, sch, gcfg, scfg).terminal_state.tobytes()


def test_terminal_states_keep_no_trajectory():
    # 2,000 rows at d = 8 over 200 steps: the trajectory is 25.7 MB, the
    # loop's temporaries and two states a few MB.
    import tracemalloc

    pair, sch, scfg = _pair(8), Schedule(), SamplerConfig(steps=200)
    x0s = initial_states(2000, 8, seed=1)
    trajectory = (scfg.steps + 1) * x0s.nbytes
    tracemalloc.start()
    try:
        terminal_states(x0s, pair, sch, GuidanceConfig(), scfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < trajectory / 4


def test_batch_result_summary_shapes():
    pair = _pair()
    scfg = SamplerConfig(steps=8, seed=3)
    res = integrate(initial_states(5, 2, seed=3), pair, Schedule(),
                    GuidanceConfig(), scfg)
    assert isinstance(res, TrajectoryRecord)
    assert res.times.shape == (9,)
    assert res.states.shape == (9, 5, 2)
    assert res.terminal_state.shape == (5, 2)
    np.testing.assert_array_equal(res.states[0], initial_states(5, 2, seed=3))


# ---------------------------------------------------------------------------
# guidance behavior inside the loop


def test_zero_guidance_field_matches_manual_unconditional_euler():
    pair = _pair()
    sch = Schedule()
    scfg = SamplerConfig(steps=10)
    x0 = draw_initial_state(2, seed=12)
    rec = integrate(
        x0, pair, sch, GuidanceConfig(), scfg,
        guidance_field=lambda x, t: np.zeros_like(x),
    )
    x = x0[None, :].copy()
    for k in range(10):
        t = float(rec.times[k])
        v = mixture.velocity(pair.unconditional, sch, t, x)
        x = x + (rec.times[k + 1] - rec.times[k]) * v
    np.testing.assert_array_equal(rec.states[-1], x[0])


def test_guidance_field_value_must_broadcast_to_the_batch():
    pair = _pair()
    x0s = initial_states(4, 2, seed=3)
    scfg = SamplerConfig(steps=3)
    for shape in ((3,), (5, 2)):
        with pytest.raises(ShapeError) as err:
            integrate(x0s, pair, Schedule(), GuidanceConfig(), scfg,
                      guidance_field=lambda x, t, shape=shape: np.zeros(shape))
        assert str(shape) in str(err.value) and "(4, 2)" in str(err.value)
    # A value that broadcasts, one row shared by every state, is integrated.
    shared = integrate(x0s, pair, Schedule(), GuidanceConfig(), scfg,
                       guidance_field=lambda x, t: np.zeros(2))
    zero = integrate(x0s, pair, Schedule(), GuidanceConfig(), scfg,
                     guidance_field=lambda x, t: np.zeros_like(x))
    np.testing.assert_array_equal(shared.states, zero.states)


def _per_target_euler(x0s, pair, sch, rule, scfg):
    """The guided Euler loop with one oracle pass per target and step."""
    times = np.linspace(sch.t_min, sch.t_max, scfg.steps + 1)
    x = x0s
    for k in range(scfg.steps):
        t = float(times[k])
        v_u = mixture.velocity(pair.unconditional, sch, t, x)
        v_c = mixture.velocity(pair.conditional, sch, t, x)
        x = x + (times[k + 1] - times[k]) * (
            v_u + apply_guidance(v_u, v_c, x, t, sch, rule))
    return x


@pytest.mark.parametrize("dim", [2, 8])
def test_joint_pass_trajectory_matches_per_target_passes(dim):
    rng = np.random.default_rng([61, dim])
    pair = TargetPair(conditional=_random_mixture(rng, dim, 3),
                      unconditional=_random_mixture(rng, dim, 10))
    sch = Schedule()
    scfg = SamplerConfig(steps=25, seed=5)
    for rule in (GuidanceConfig(),
                 GuidanceConfig(rule=GuidanceRule.CFG, guidance_scale=3.0,
                                min_scale=0.0, decay_power=0.0)):
        for x0s in (initial_states(1, dim, seed=5), initial_states(4, dim, seed=5)):
            rec = integrate(x0s, pair, sch, rule, scfg)
            want = _per_target_euler(x0s, pair, sch, rule, scfg)
            assert rec.terminal_state.tobytes() == want.tobytes()


def _scalar_time_euler(x0s, pair, sch, rule, scfg):
    """The guided Euler loop with every time term built at its step's
    scalar time: one stacked pass and ``apply_guidance`` per step."""
    times = np.linspace(sch.t_min, sch.t_max, scfg.steps + 1)
    states = [x0s]
    for k in range(scfg.steps):
        t, x = float(times[k]), states[-1]
        point = schedule.evaluate(sch, t)
        terms = mixture._evaluate(pair, point.alpha, point.sigma, x)
        v_c, v_u = mixture._velocities(pair, terms,
                                       *schedule.coefficients(sch, t), x)
        states.append(x + (times[k + 1] - times[k]) * (
            v_u + apply_guidance(v_u, v_c, x, t, sch, rule)))
    return np.stack(states)


# (conditional, unconditional) component counts; a target of 8 or more
# components sums over them in the unrolled branch of numpy's pairwise sum.
@pytest.mark.parametrize("counts", [(1, 4), (3, 12)])
@pytest.mark.parametrize("dim", [1, 2, 3, 8, 16])
def test_grid_time_terms_match_scalar_time_steps(dim, counts):
    rng = np.random.default_rng([67, dim, *counts])
    pair = TargetPair(conditional=_random_mixture(rng, dim, counts[0]),
                      unconditional=_random_mixture(rng, dim, counts[1]))
    sch = Schedule()
    scfg = SamplerConfig(steps=20, seed=3)
    for rule in (GuidanceConfig(),
                 GuidanceConfig(rule=GuidanceRule.CFG, guidance_scale=3.0,
                                min_scale=0.0, decay_power=0.0)):
        for x0s in (initial_states(1, dim, seed=3), initial_states(5, dim, seed=3)):
            rec = integrate(x0s, pair, sch, rule, scfg)
            want = _scalar_time_euler(x0s, pair, sch, rule, scfg)
            assert rec.states.tobytes() == want.tobytes()


def test_guided_step_makes_one_oracle_pass(monkeypatch):
    pair = _pair()
    sch = Schedule()
    calls, grids = [], []
    evaluate_at, time_terms = mixture._evaluate_at, mixture._time_terms

    def counting(*args):
        calls.append((args[0], args[4].shape))
        return evaluate_at(*args)

    def counting_grids(stack, alpha, sigma):
        grids.append((stack, np.shape(alpha)))
        return time_terms(stack, alpha, sigma)

    monkeypatch.setattr(mixture, "_evaluate_at", counting)
    monkeypatch.setattr(mixture, "_time_terms", counting_grids)
    for steps in (4, 30):
        for x0 in (np.zeros(2), initial_states(3, 2, seed=1)):
            calls.clear()
            grids.clear()
            integrate(x0, pair, sch, GuidanceConfig(), SamplerConfig(steps=steps))
            assert calls == [(pair, np.atleast_2d(x0).shape)] * steps
            # The time-only terms of the whole grid come from one call.
            assert grids == [(pair, (steps + 1,))]
    # An explicit field replaces the rule: only the unconditional target.
    calls.clear()
    grids.clear()
    integrate(np.zeros(2), pair, sch, GuidanceConfig(), SamplerConfig(steps=4),
              guidance_field=lambda x, t: np.zeros_like(x))
    assert calls == [(pair.unconditional, (1, 2))] * 4
    assert grids == [(pair.unconditional, (5,))]


def test_projected_rule_makes_as_many_oracle_calls_as_cfg(monkeypatch):
    # No additional inference cost: a projected-rule Euler step evaluates
    # the pair once, as a CFG step does, on the same grid and batch.
    pair = _pair()
    calls = []
    evaluate_at = mixture._evaluate_at

    def counting(*args):
        calls.append((args[0], args[4].shape))
        return evaluate_at(*args)

    monkeypatch.setattr(mixture, "_evaluate_at", counting)
    x0s = initial_states(6, 2, seed=4)
    counts = {}
    for rule in (GuidanceRule.CFG, GuidanceRule.PROJECTED):
        calls.clear()
        integrate(x0s, pair, Schedule(), GuidanceConfig(rule=rule),
                  SamplerConfig(steps=17))
        counts[rule] = list(calls)
    assert counts[GuidanceRule.PROJECTED] == [(pair, (6, 2))] * 17
    assert counts[GuidanceRule.PROJECTED] == counts[GuidanceRule.CFG]


def test_sampling_job_makes_one_oracle_pass_per_rule_and_step(monkeypatch,
                                                             tmp_path):
    # sweep_omega integrates both rules at every omega in one Euler loop:
    # 4 omegas x 200 rows x 30 steps is one 800-row pass per rule and step,
    # 60 passes, not one per (rule, omega) and step (240).
    config = dataclasses.replace(default_config("sweep_omega"),
                                 sample_count=200, n_perm=100,
                                 output_dir=str(tmp_path))
    assert len(config.omega_sweep) == 4 and config.sampler.steps == 30
    calls = []
    evaluate_at = mixture._evaluate_at

    def counting(*args):
        calls.append((args[0], args[4].shape))
        return evaluate_at(*args)

    monkeypatch.setattr(mixture, "_evaluate_at", counting)
    assert cli.run_sweep_omega(config) == 0
    euler = [call for call in calls if call[0] is config.pair]
    assert euler == [(config.pair, (800, 2))] * 60
    # One run is the one-run job: one pass per step.
    calls.clear()
    integrate(initial_states(200, 2, seed=1), config.pair, config.schedule,
              config.guidance, config.sampler)
    assert calls == [(config.pair, (200, 2))] * 30


def _job_runs(counts, dim):
    """A job of both rules, CFG's runs first, each run with its own omega
    and initial states."""
    runs = []
    for rule in (GuidanceRule.CFG, GuidanceRule.PROJECTED):
        for index, count in enumerate(counts):
            omega = 1.5 + index
            config = (GuidanceConfig(rule=rule, guidance_scale=omega,
                                     min_scale=0.0, decay_power=0.0)
                      if rule is GuidanceRule.CFG else
                      GuidanceConfig(guidance_scale=omega, min_scale=1.0))
            runs.append((initial_states(count, dim, seed=10 + index), config))
    return runs


# Aligned runs (multiples of 8 rows) are stacked and cut; the others each
# form one chunk, whole.  250 rows at d = 64 is past the size at which
# OpenBLAS forms a product's last n % 8 columns with other kernels.
@pytest.mark.parametrize("limit", [None, 16])
@pytest.mark.parametrize("dim", [2, 16, 64])
def test_job_loop_equals_each_run_integrated_alone(monkeypatch, dim, limit):
    rng = np.random.default_rng([71, dim])
    pair = TargetPair(conditional=_random_mixture(rng, dim, 2),
                      unconditional=_random_mixture(rng, dim, 4))
    sch, scfg = Schedule(), SamplerConfig(steps=6)
    runs = _job_runs((3, 5, 8, 16, 24, 7, 11, 250), dim)
    alone = [terminal_states(x0, pair, sch, config, scfg) for x0, config in runs]
    if limit is not None:
        # Chunks of 16 rows: cuts inside the 16- and 24-row runs' block,
        # and chunks that span two runs of different omegas.
        monkeypatch.setattr(sampler, "_MIN_CHUNK_ROWS", limit)
        monkeypatch.setattr(sampler, "_CHUNK_ENTRIES", 0)
        chunks = sampler._chunks([(len(x0), config) for x0, config in runs],
                                 [0.1, 0.5, 0.9], dim)
        assert [(rows.start, rows.stop) for rows, *_ in chunks][:6] == [
            (0, 3), (3, 8), (8, 24), (24, 40), (40, 56), (56, 63)]
        assert chunks[2][3] == [8, 8] and chunks[3][3] == [8, 8]
    job = job_terminal_states(runs, pair, sch, scfg)
    for (x0, config), one, mixed in zip(runs, alone, job):
        assert mixed.flags.c_contiguous and mixed.shape == x0.shape
        assert mixed.tobytes() == one.tobytes(), (len(x0), config.rule)
    # A run of one point stays one point, a chunk of its own.
    point, batch = runs[0][0][0], runs[3][0]
    got = job_terminal_states([(point, runs[0][1]), (batch, runs[0][1])],
                              pair, sch, scfg)
    assert got[0].shape == (dim,)
    assert got[0].tobytes() == integrate(
        point, pair, sch, runs[0][1], scfg).terminal_state.tobytes()
    assert got[1].tobytes() == terminal_states(
        batch, pair, sch, runs[0][1], scfg).tobytes()


# In these jobs each rule's aligned runs form one block.
@pytest.mark.parametrize("counts,dim", [((2000,), 512), ((400,) * 4, 16),
                                        ((200,) * 4, 2), ((2001, 8), 64),
                                        ((1, 16, 3), 8)])
def test_chunks_are_aligned_near_equal_and_of_one_rule(counts, dim):
    runs = [(len(x0), config) for x0, config in _job_runs(counts, 1)]
    limit = max(sampler._MIN_CHUNK_ROWS, sampler._CHUNK_ENTRIES // dim // 8 * 8)
    chunks = sampler._chunks(runs, [0.1, 0.5], dim)
    total = 2 * sum(counts)
    rows = [range(total)[chunk[0] or slice(None)] for chunk in chunks]
    assert [i for r in rows for i in r] == list(range(total))
    starts = np.cumsum([0] + [count for count, _ in runs])
    aligned = {rule: [] for rule in GuidanceRule}
    for r, (_, config, _, _) in zip(rows, chunks):
        owners = {int(np.searchsorted(starts, i, side="right")) - 1 for i in r}
        assert {runs[i][1].rule for i in owners} == {config.rule}
        if all(runs[i][0] % 8 == 0 for i in owners):
            assert len(r) <= limit and len(r) % 8 == 0
            aligned[config.rule].append(len(r))
        else:  # a run of another count is one chunk, whole
            owner, = owners
            assert len(r) == runs[owner][0]
    for sizes in aligned.values():
        assert not sizes or max(sizes) - min(sizes) <= 8


def test_terminal_states_peak_is_bounded_by_the_chunk_rule():
    # d = 512, 1,024 rows: four chunks of 256.  The loop holds the state,
    # its terminal copy and one chunk's oracle temporaries, bounded here at
    # 8 (component, dim, row) arrays of the chunk.  Unchunked, the 1,024-row
    # pass held 80 MB.
    import tracemalloc

    dim, rows = 512, 1024
    pair = _pair(dim)
    chunk = max(sampler._MIN_CHUNK_ROWS, sampler._CHUNK_ENTRIES // dim)
    components = (pair.conditional.n_components
                  + pair.unconditional.n_components)
    x0s = initial_states(rows, dim, seed=1)
    bound = 2 * x0s.nbytes + 8 * components * chunk * dim * 8
    for rule in (GuidanceRule.CFG, GuidanceRule.PROJECTED):
        tracemalloc.start()
        try:
            terminal_states(x0s, pair, Schedule(), GuidanceConfig(rule=rule),
                            SamplerConfig(steps=2))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < bound, (rule, peak, bound)


def test_projected_beta_one_reproduces_cfg_trajectory():
    pair = _pair()
    sch = Schedule()
    scfg = SamplerConfig(steps=12, seed=8)
    omega = 3.0
    cfg_rule = GuidanceConfig(rule=GuidanceRule.CFG, guidance_scale=omega,
                              min_scale=0.0, decay_power=0.0, parallel_scale=1.0)
    proj_rule = GuidanceConfig(rule=GuidanceRule.PROJECTED, guidance_scale=omega,
                               min_scale=0.0, decay_power=0.0, parallel_scale=1.0)
    x0 = draw_initial_state(2, seed=8)
    a = integrate(x0, pair, sch, cfg_rule, scfg)
    b = integrate(x0, pair, sch, proj_rule, scfg)
    ulp = np.spacing(np.maximum(np.abs(a.states), np.abs(b.states)))
    assert np.max(np.abs(a.states - b.states) / ulp) <= 4.0


def test_integration_error_reports_last_valid_step():
    pair = _pair()
    scfg = SamplerConfig(steps=5)

    def poison(x, t):
        if t < 0.2:
            return np.zeros_like(x)
        return np.full_like(x, np.inf)

    with pytest.raises(IntegrationError) as err:
        integrate(np.zeros(2), pair, Schedule(), GuidanceConfig(), scfg,
                  guidance_field=poison)
    assert err.value.last_valid_step == 1


# One entry of one row goes bad; +inf and -inf together sum to NaN, which
# NumPy's sum reports as an invalid value.
@pytest.mark.filterwarnings("ignore:invalid value encountered in reduce")
@pytest.mark.parametrize("bad", [[np.inf, 0.0], [np.nan, 0.0], [-np.inf, np.inf]])
@pytest.mark.parametrize("count", [1, 3])
def test_non_finite_entry_raises_at_its_step(bad, count):
    pair, scfg = _pair(), SamplerConfig(steps=5)

    def poison(x, t):
        update = np.zeros_like(x)
        if t > 0.5:
            update[-1] = bad
        return update

    with pytest.raises(IntegrationError, match=r"Euler step 3 at t=0\.599") as err:
        integrate(initial_states(count, 2, seed=2), pair, Schedule(),
                  GuidanceConfig(), scfg, guidance_field=poison)
    assert err.value.last_valid_step == 3


@pytest.mark.filterwarnings("ignore:overflow encountered in reduce")
def test_finite_state_whose_sum_overflows_does_not_raise():
    # The step checks the state's sum first; a sum of finite entries that
    # overflows (NumPy warns of it) takes the exact entrywise check, which
    # passes.
    scfg = SamplerConfig(steps=1)
    sch = Schedule()
    dt = sch.t_max - sch.t_min
    rec = integrate(np.zeros(2), _pair(), sch, GuidanceConfig(), scfg,
                    guidance_field=lambda x, t: np.full_like(x, 1.7e308 / dt))
    assert np.all(np.isfinite(rec.terminal_state))
    with np.errstate(over="ignore"):
        assert rec.terminal_state.sum() == np.inf
