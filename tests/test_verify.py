"""Tests that the verify checks can fail, and the benchmark's job contract."""

import dataclasses
import os
import sys

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from guidance_lab import cli, default_config, guidance, mixture, verify

PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(
    __file__))), "perfbench")


# ---------------------------------------------------------------------------
# density mass


def test_density_mass_is_one_on_the_exact_density():
    result = verify.check_density_mass(default_config("verify"))
    assert result.passed
    assert result.measured <= 1e-12


@pytest.mark.parametrize("shift", [np.log(2.0), -np.log(2.0)],
                         ids=["double", "half"])
def test_density_mass_fails_when_density_is_scaled(monkeypatch, shift):
    # Twice the mass fails as surely as half of it.
    exact = mixture.log_density
    monkeypatch.setattr(mixture, "log_density",
                        lambda *args: exact(*args) + shift)
    result = verify.check_density_mass(default_config("verify"))
    assert not result.passed
    assert result.measured == pytest.approx(abs(np.exp(shift) - 1.0), rel=1e-9)


# ---------------------------------------------------------------------------
# the median of check_parallel_ratio_trend


def test_median_equals_numpy_median_bit_for_bit():
    rng = np.random.default_rng(31)
    for size in (1, 2, 3, 16, 17):
        for values in (rng.exponential(size=size),
                       rng.choice([0.0, 0.5, 1.0 / 3.0, 2.0], size=size)):
            for sample in (values, values.tolist()):
                want = np.float64(np.median(sample))
                assert np.float64(verify._median(sample)).tobytes() == want.tobytes()
        with_nan = np.append(rng.exponential(size=size), np.nan)
        assert np.isnan(verify._median(with_nan)) and np.isnan(np.median(with_nan))


# ---------------------------------------------------------------------------
# guidance identities over many seeds


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@example(seed=8)
@example(seed=25)
@given(seed=st.integers(0, 2**31 - 1))
def test_guidance_identity_checks_pass_at_any_seed(seed):
    # Seeds 8 and 25 once failed the flux and trace-identity gates: the flux
    # was measured against a floor of 1 although it is formed at the scale
    # of |g| |score|, and the oracle Laplacian cancelled |score|^2.
    config = dataclasses.replace(default_config("verify"), seed=seed)
    for check in (verify.check_parallel_flux_scaling,
                  verify.check_projected_divergence_identity,
                  verify.check_beta_affinity,
                  verify.check_cfg_recovery,
                  verify.check_blowup_identity):
        result = check(config)
        assert result.passed, (seed, result)


@pytest.mark.parametrize("defect, floor", [
    ({"parallel_scale": lambda c: c.parallel_scale ** 2}, 1.0),
    ({"parallel_scale": lambda c: 1.0}, 0.5),
    ({"normal_source": lambda c: guidance.NormalSource.UNCONDITIONAL}, 0.5),
], ids=["beta_squared", "no_parallel_rescale", "unconditional_normal"])
def test_flux_check_fails_on_injected_defect(monkeypatch, defect, floor):
    # The gap is measured against scale * (1 + |beta - 1|) * |g| |score|,
    # looser than sum |update_i| |score_i|; each defect still shows as a
    # gap of order one, far above the 1e-8 gate.
    exact = guidance.apply_guidance

    def broken(v_u, v_c, x, t, schedule, config):
        return exact(v_u, v_c, x, t, schedule, dataclasses.replace(
            config, **{key: f(config) for key, f in defect.items()}))

    monkeypatch.setattr(guidance, "apply_guidance", broken)
    result = verify.check_parallel_flux_scaling(default_config("verify"))
    assert not result.passed
    assert result.measured > floor


def test_cfg_recovery_fails_when_every_update_is_scaled(monkeypatch):
    # The reference is the literal omega * (v_c - v_u), so a defect that
    # scales every update apply_guidance returns, for either rule, shows
    # as a gap of about 1e-7 * 2**52 ulps.
    exact = guidance.apply_guidance
    monkeypatch.setattr(guidance, "apply_guidance",
                        lambda *args: exact(*args) * (1.0 + 1e-7))
    result = verify.check_cfg_recovery(default_config("verify"))
    assert not result.passed
    assert result.measured > 1e8


def _nan_at_first_entry(value):
    if isinstance(value, mixture.PosteriorMoments):
        return mixture.PosteriorMoments(value.mean,
                                        _nan_at_first_entry(value.cov_trace))
    value = np.array(value, dtype=float)
    value.flat[0] = np.nan
    return value


@pytest.mark.parametrize("name, oracle", [
    ("tweedie_consistency", "score"),
    ("laplacian_posterior_lemma", "laplacian_log_density"),
    ("parallel_flux_scaling", "score"),
    ("blowup_identity", "posterior"),
])
def test_check_fails_when_a_route_returns_nan(monkeypatch, name, oracle):
    # Every gap enters one np.max, so a NaN row fails the check; Python's
    # max(worst, gap) would skip it and report the largest finite gap.
    exact = getattr(mixture, oracle)
    monkeypatch.setattr(mixture, oracle,
                        lambda *args: _nan_at_first_entry(exact(*args)))
    result = getattr(verify, f"check_{name}")(default_config("verify"))
    assert not result.passed
    assert np.isnan(result.measured)


# ---------------------------------------------------------------------------
# oracle passes


def _oracle_passes(monkeypatch, run):
    """How many times ``run()`` calls ``mixture._evaluate``, the oracle pass."""
    calls = []
    exact = mixture._evaluate

    def counting(*args):
        calls.append(None)
        return exact(*args)

    monkeypatch.setattr(mixture, "_evaluate", counting)
    run()
    return len(calls)


@pytest.mark.parametrize("name, passes", [
    ("tweedie_consistency", 10),  # 5 targets x (posterior, score)
    ("laplacian_posterior_lemma", 10),  # 5 targets x (Laplacian, posterior)
    ("score_matches_fd", 6),  # 3 dims x (score, stencil log density)
    ("projected_divergence_identity", 15),  # 5 betas x 3 fields
    ("parallel_flux_scaling", 15),  # 5 betas x (2 velocities, score)
    ("cfg_recovery", 2),  # 2 velocities
    ("blowup_identity", 12),  # 4 pairs x (divergence, 2 posteriors)
    ("blowup_rate", 1),
    ("parallel_ratio_trend", 8),  # 4 dims x (residual, parallel divergence)
])
def test_batched_checks_make_one_oracle_pass_per_route(monkeypatch, name, passes):
    # Each route evaluates the check's whole sample in one call, one time
    # per point.
    check = getattr(verify, f"check_{name}")
    config = default_config("verify")
    assert _oracle_passes(monkeypatch, lambda: check(config)) == passes


def test_default_verify_makes_at_most_88_oracle_passes(monkeypatch):
    results = []

    def run():
        results.extend(verify.run_all_checks(default_config("verify")))

    assert _oracle_passes(monkeypatch, run) <= 88
    assert all(result.passed for result in results)


# ---------------------------------------------------------------------------
# benchmark contract: the generated jobs run and pass their checks


def _benchmark_jobs(root):
    sys.path.insert(0, PERFBENCH)
    try:
        import checks
        import workloads
    finally:
        sys.path.remove(PERFBENCH)
    jobs = []
    for name in workloads.WORKLOADS:
        warmup, timed = workloads.generate(name, 0, os.path.join(root, name))
        jobs += [warmup, *timed]
    return checks, jobs


def test_benchmark_jobs_pass_their_checks(tmp_path):
    # Every job of both workloads, warm-up included: the checks use
    # ``GuidanceRule``, ``GuidanceConfig(rule=)``, ``draw_initial_state`` and
    # the field constructors, so a change that breaks one of them fails
    # here, not only as failed jobs of a benchmark run.
    checks, jobs = _benchmark_jobs(str(tmp_path))
    assert len(jobs) == 10
    for job in jobs:
        assert cli.main(job.argv()) == 0, job.name
        assert checks.check_job(job) == [], job.name
