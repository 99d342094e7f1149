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
                  verify.check_beta_affinity):
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
        jobs.append(warmup)
        jobs += [job for job in timed if name == "trace" or job.name in (
            "compare_d16_n400", "omega_d2_n200")]
    return checks, jobs


def test_benchmark_jobs_pass_their_checks(tmp_path):
    checks, jobs = _benchmark_jobs(str(tmp_path))
    assert len(jobs) == 8
    for job in jobs:
        assert cli.main(job.argv()) == 0, job.name
        assert checks.check_job(job) == [], job.name
