"""Tests for exact, stochastic, and dense divergence estimators."""

from types import SimpleNamespace

import numpy as np
import pytest

from guidance_lab import (
    CapabilityError,
    ConfigurationError,
    EstimationError,
    GaussianMixture,
    GuidanceConfig,
    HutchinsonConfig,
    Schedule,
    ShapeError,
    VectorField,
    conservation_residual,
    divergence_fd_dense,
    divergence_hutchinson,
    mixture,
    parallel_component_field,
    projected_update_field,
    residual_field,
    score_rotation_field,
    velocity_field,
)
from guidance_lab.verify import _random_mixture


def _linear_field(a):
    a = np.asarray(a, dtype=float)
    dim = a.shape[0]
    return VectorField(
        fn=lambda x, t: np.asarray(x) @ a.T,
        dim=dim,
        div_fn=lambda x, t: float(np.trace(a)),
        label="linear",
    )


def _quadratic_field(dim):
    # v_i = x_i * x_{i+1 mod dim}; div = sum_i x_{i+1 mod dim}.
    idx = np.roll(np.arange(dim), -1)

    def fn(x, t):
        x = np.asarray(x, dtype=float)
        return x * x[..., idx]

    return VectorField(
        fn=fn,
        dim=dim,
        div_fn=lambda x, t: float(np.sum(np.asarray(x)[idx])),
        label="quadratic",
    )


# ---------------------------------------------------------------------------
# exact and dense paths


def test_exact_divergence_reads_field_oracle():
    f = _linear_field(np.diag([1.0, 2.0, 3.0]))
    assert f.divergence(np.zeros(3), 0.5) == 6.0


def test_dense_fd_on_identity_field():
    f = VectorField(fn=lambda x, t: np.asarray(x, dtype=float), dim=3, label="id")
    got = divergence_fd_dense(f, 0.5, np.array([0.3, -1.0, 2.0]))
    assert got == pytest.approx(3.0, abs=1e-9)


def test_dense_fd_on_mixture_velocity():
    rng = np.random.default_rng(3)
    target = GaussianMixture.isotropic(
        rng.normal(size=(2, 2)), np.array([0.8, 1.3])
    )
    f = velocity_field(target, Schedule())
    for t in (0.3, 0.7):
        x = rng.normal(size=2)
        exact = f.divergence(x, t)
        fd = divergence_fd_dense(f, t, x)
        assert fd == pytest.approx(exact, rel=1e-6, abs=1e-7)


def test_dense_fd_dimension_limit():
    f = VectorField(fn=lambda x, t: np.asarray(x, dtype=float), dim=65)
    with pytest.raises(CapabilityError):
        divergence_fd_dense(f, 0.5, np.zeros(65))


# ---------------------------------------------------------------------------
# Hutchinson estimator


def test_hutchinson_exact_for_diagonal_linear_field():
    # With Rademacher probes each per-probe value of a diagonal linear field
    # is xi . (A xi) = trace(A) exactly, so the spread collapses.
    f = _linear_field(np.diag([1.0, -2.0, 0.5]))
    est = divergence_hutchinson(
        f, 0.5, np.zeros(3), HutchinsonConfig(probes=64, seed=1)
    )
    assert est.value == pytest.approx(-0.5, abs=1e-9)
    assert est.stderr <= 1e-10


def test_hutchinson_zero_for_rotation():
    # An antisymmetric Jacobian gives xi . (A xi) = 0 for every probe.
    f = _linear_field(np.array([[0.0, -1.0], [1.0, 0.0]]))
    est = divergence_hutchinson(
        f, 0.5, np.array([0.7, -0.2]), HutchinsonConfig(probes=32, seed=2)
    )
    assert abs(est.value) <= 1e-10
    assert est.stderr <= 1e-10


def test_hutchinson_unbiased_on_quadratic_field():
    f = _quadratic_field(4)
    x = np.array([0.4, -1.1, 0.8, 0.3])
    exact = f.divergence(x, 0.5)
    est = divergence_hutchinson(f, 0.5, x, HutchinsonConfig(probes=10_000, seed=7))
    assert est.stderr > 0.0
    assert abs(est.value - exact) <= 4.0 * est.stderr, (
        f"{est.value} vs {exact} (stderr {est.stderr})"
    )


def test_hutchinson_stderr_shrinks_with_probes():
    f = _quadratic_field(4)
    x = np.array([0.4, -1.1, 0.8, 0.3])
    small = divergence_hutchinson(f, 0.5, x, HutchinsonConfig(probes=64, seed=5))
    large = divergence_hutchinson(f, 0.5, x, HutchinsonConfig(probes=4096, seed=5))
    assert large.stderr < small.stderr / 4.0  # expect ~8x from 64 -> 4096


def test_hutchinson_deterministic():
    rng = np.random.default_rng(11)
    # In dimension 2 there are only four distinct Rademacher probes, so two
    # seeds can draw the same probe counts; dimension 6 has 64.
    target = GaussianMixture.isotropic(rng.normal(size=(3, 6)), np.full(3, 1.0))
    f = velocity_field(target, Schedule())
    x = rng.normal(size=6)
    cfg = HutchinsonConfig(probes=128, seed=21)
    a = divergence_hutchinson(f, 0.6, x, cfg)
    b = divergence_hutchinson(f, 0.6, x, cfg)
    assert a.value == b.value and a.stderr == b.stderr
    other = divergence_hutchinson(f, 0.6, x, HutchinsonConfig(probes=128, seed=22))
    assert other.value != a.value


def test_hutchinson_nonfinite_raises_estimation_error():
    def fn(x, t):
        x = np.asarray(x, dtype=float)
        out = x.copy()
        out[..., 0] = np.where(x[..., 0] > 0.0, np.nan, x[..., 0])
        return out

    f = VectorField(fn=fn, dim=2, label="poisoned")
    with pytest.raises(EstimationError) as err:
        divergence_hutchinson(f, 0.5, np.zeros(2), HutchinsonConfig(probes=8, seed=0))
    assert err.value.probe_index >= 0


def test_hutchinson_config_validation():
    with pytest.raises(ConfigurationError):
        HutchinsonConfig(probes=0)
    for bad in ({"probes": 2.5}, {"probes": True}, {"probes": "8"},
                {"seed": -1}, {"seed": 1.5}, {"seed": "a"}, {"seed": True}):
        with pytest.raises(ConfigurationError):
            HutchinsonConfig(**bad)
    cfg = HutchinsonConfig(probes=np.int64(8), seed=np.int64(3))
    assert (type(cfg.probes), type(cfg.seed)) == (int, int)


def test_three_estimators_agree_on_oracle_field():
    rng = np.random.default_rng(31)
    target = GaussianMixture.isotropic(
        np.array([[0.0, 0.0], [2.0, 1.0]]), np.array([1.0, 0.6])
    )
    f = velocity_field(target, Schedule())
    t, x = 0.45, rng.normal(size=2)
    exact = f.divergence(x, t)
    fd = divergence_fd_dense(f, t, x)
    est = divergence_hutchinson(f, t, x, HutchinsonConfig(probes=8192, seed=3))
    assert fd == pytest.approx(exact, rel=1e-6, abs=1e-8)
    assert abs(est.value - exact) <= 4.0 * est.stderr + 1e-6


# ---------------------------------------------------------------------------
# conservation residual and profiles


def test_conservation_residual_of_rotated_score():
    rng = np.random.default_rng(41)
    target = GaussianMixture.isotropic(rng.normal(size=(2, 2)), np.array([1.0, 1.4]))
    sch = Schedule()
    f = score_rotation_field(target, sch, scale=0.5)
    t, x = 0.5, rng.normal(size=2)
    assert abs(conservation_residual(f, target, sch, t, x)) <= 1e-13
    # The black-box references in place of the exact divergence.
    flux = float(f(x, t) @ mixture.score(target, sch, t, x))
    assert abs(divergence_fd_dense(f, t, x) + flux) <= 1e-6
    hutch = divergence_hutchinson(f, t, x, HutchinsonConfig(probes=4096, seed=9))
    assert abs(hutch.value + flux) <= 5e-2


def test_conservation_residual_nonzero_for_plain_velocity():
    # The velocity field itself does not satisfy the guidance conservation
    # identity (it transports the density, it does not preserve it).
    target = GaussianMixture.single(np.array([2.0, 0.0]), 1.0)
    sch = Schedule()
    f = velocity_field(target, sch)
    assert abs(conservation_residual(f, target, sch, 0.3, np.array([1.0, 0.5]))) > 0.1


def _profile_fields(sch):
    rng = np.random.default_rng(61)
    cond, uncond = _random_mixture(rng, 3, 2), _random_mixture(rng, 3, 3)
    fields = {
        "cond": velocity_field(cond, sch),
        "uncond": velocity_field(uncond, sch),
        "g": residual_field(cond, uncond, sch),
        "par": parallel_component_field(cond, uncond, sch),
        "rot": score_rotation_field(uncond, sch, scale=0.4),
    }
    for beta in (0.0, 0.5, 2.0):
        fields[f"upd_{beta:g}"] = projected_update_field(
            cond, uncond, sch, GuidanceConfig(parallel_scale=beta))
    return fields


def _trajectory(steps, sch):
    rng = np.random.default_rng([62, steps])
    return SimpleNamespace(times=np.linspace(sch.t_min, sch.t_max, steps + 1),
                           states=rng.normal(size=(steps + 1, 3)))


def test_exact_profile_matches_per_state_reference():
    # One divergence call over a whole trajectory, one time per state,
    # equals the per-state divergence for every field type.
    sch = Schedule()
    fields = _profile_fields(sch)
    traj = _trajectory(40, sch)
    for label, field in fields.items():
        divs = field.divergence(traj.states, traj.times)
        assert divs.shape == (41,), label
        for k, (t, x) in enumerate(zip(traj.times.tolist(), traj.states)):
            assert divs[k] == pytest.approx(field.divergence(x, t),
                                            rel=1e-13, abs=1e-13), label


def test_exact_profile_oracle_passes_do_not_grow_with_length(monkeypatch):
    # Each field's divergence is one oracle pass over a whole trajectory.
    sch = Schedule()
    fields = _profile_fields(sch)
    calls = []
    evaluate = mixture._evaluate

    def counting(*args):
        calls.append(args[3].shape[0])
        return evaluate(*args)

    monkeypatch.setattr(mixture, "_evaluate", counting)
    for steps in (4, 60):
        traj = _trajectory(steps, sch)
        for label, field in fields.items():
            calls.clear()
            field.divergence(traj.states, traj.times)
            assert calls == [steps + 1], label


# ---------------------------------------------------------------------------
# the point estimators take one point


def test_point_estimators_reject_a_batch():
    target = GaussianMixture.isotropic(np.zeros((1, 6)), np.ones(1))
    sch = Schedule()
    f = score_rotation_field(target, sch, scale=0.4)
    batch = np.random.default_rng(63).normal(size=(6, 6))
    for x in (batch, batch[:, :5], np.zeros(5), np.zeros((1, 6)), 0.5):
        for probes in (5, 6):
            with pytest.raises(ShapeError, match=r"\(6,\)"):
                divergence_hutchinson(f, 0.5, x, HutchinsonConfig(probes=probes))
        with pytest.raises(ShapeError, match=r"\(6,\)"):
            divergence_fd_dense(f, 0.5, x)
        with pytest.raises(ShapeError, match=r"\(6,\)"):
            conservation_residual(f, target, sch, 0.5, x)
    # One point still works.
    assert abs(conservation_residual(f, target, sch, 0.5, batch[0])) <= 1e-12
