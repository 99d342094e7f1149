"""Tests that the verify checks can fail, and the benchmark's job contract."""

import os
import sys

import numpy as np
import pytest

from guidance_lab import cli, default_config, mixture, verify

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
