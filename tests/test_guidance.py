"""Tests for guidance rules, the residual split, and the oracle fields."""

import numpy as np
import pytest

from guidance_lab import (
    CapabilityError,
    ConfigurationError,
    DegenerateNormalError,
    GaussianMixture,
    GuidanceConfig,
    GuidanceRule,
    NormalSource,
    Schedule,
    ShapeError,
    VectorField,
    apply_guidance,
    decompose,
    degenerate_threshold,
    mixture,
    normal_direction,
    parallel_component_field,
    projected_update_field,
    residual_field,
    score_rotation_field,
    velocity_field,
)
from guidance_lab.schedule import coefficients, guidance_scale_at
from guidance_lab.verify import _random_mixture


def _fd_jacobian(field, x, t, h=1e-5):
    d = x.size
    jac = np.empty((d, d))
    for j in range(d):
        e = np.zeros(d)
        e[j] = h
        jac[:, j] = (field(x + e, t) - field(x - e, t)) / (2 * h)
    return jac


# ---------------------------------------------------------------------------
# elementary operations


def test_normal_direction_examples():
    x = np.array([1.0, -2.0])
    # A velocity equal to a_t * x leaves no normal component.
    np.testing.assert_array_equal(normal_direction(2.0 * x, x, 2.0), [0.0, 0.0])
    np.testing.assert_array_equal(
        normal_direction(np.array([1.0, 1.0]), np.zeros(2), 2.0), [-1.0, -1.0]
    )


def test_normal_is_score_scaled():
    # n = a*x - v equals b * score exactly in exact arithmetic; here the two
    # sides are computed through the velocity and the score respectively.
    rng = np.random.default_rng(42)
    target = _random_mixture(rng, 3, 2)
    sch = Schedule()
    for t in (0.2, 0.5, 0.9):
        a, b = coefficients(sch, t)
        x = rng.normal(size=3)
        v = mixture.velocity(target, sch, t, x)
        n = normal_direction(v, x, a)
        s = mixture.score(target, sch, t, x)
        np.testing.assert_allclose(n, b * s, rtol=1e-9, atol=1e-11)
        # b < 0, so the normal is anti-parallel to the score.
        if np.linalg.norm(s) > 1e-8:
            cos = float(n @ s) / (np.linalg.norm(n) * np.linalg.norm(s))
            assert cos == pytest.approx(-1.0, abs=1e-9)


def test_degenerate_threshold_formula():
    x = np.array([3.0, 4.0])  # norm 5
    assert degenerate_threshold(x) == pytest.approx(1e-12 * np.sqrt(2) * 6.0)
    batch = degenerate_threshold(np.zeros((4, 3)))
    np.testing.assert_allclose(batch, 1e-12 * np.sqrt(3))


def test_decompose_axis_aligned():
    par, orth = decompose(np.array([3.0, 4.0]), np.array([1.0, 0.0]), np.zeros(2))
    np.testing.assert_array_equal(par, [3.0, 0.0])
    np.testing.assert_array_equal(orth, [0.0, 4.0])


def test_decompose_orthogonal_and_collinear():
    g = np.array([0.0, 2.0])
    n = np.array([5.0, 0.0])
    x = np.array([1.0, -1.0])
    par, orth = decompose(g, n, x)
    np.testing.assert_allclose(par, [0.0, 0.0], atol=1e-15)
    np.testing.assert_allclose(orth, g)
    par, orth = decompose(2.0 * n, n, x)
    np.testing.assert_allclose(par, 2.0 * n)
    np.testing.assert_allclose(orth, [0.0, 0.0], atol=1e-15)


def test_decompose_scale_free_in_normal():
    rng = np.random.default_rng(8)
    g = rng.normal(size=4)
    n = rng.normal(size=4)
    x = rng.normal(size=4)
    ref_par, ref_orth = decompose(g, n, x)
    for c in (1e-6, 3.7, 1e6):
        par, orth = decompose(g, c * n, x)
        np.testing.assert_allclose(par, ref_par, rtol=1e-12, atol=1e-15)
        np.testing.assert_allclose(orth, ref_orth, rtol=1e-12, atol=1e-15)


def test_decompose_reconstruction_and_orthogonality():
    rng = np.random.default_rng(13)
    for _ in range(25):
        g = rng.normal(size=5)
        n = rng.normal(size=5)
        par, orth = decompose(g, n, np.zeros(5))
        np.testing.assert_allclose(par + orth, g, rtol=1e-13, atol=1e-14)
        assert abs(float(orth @ n)) <= 1e-12 * np.linalg.norm(orth) * np.linalg.norm(
            n
        ) + 1e-15
        # par is collinear with n.
        assert np.linalg.norm(np.cross(par[:3], n[:3])) <= 1e-10 or np.linalg.norm(
            par
        ) < 1e-12


def test_decompose_errors():
    # A normal at or below the degenerate threshold does not raise: the
    # residual passes through whole, row by row in a batch.
    g = np.array([[1.0, 2.0], [3.0, -1.0], [0.5, 0.5]])
    n = np.array([[0.0, 0.0], [2.0, 0.0], [1e-13, 0.0]])
    x = np.zeros((3, 2))
    par, orth = decompose(g, n, x)
    np.testing.assert_array_equal(par[[0, 2]], np.zeros((2, 2)))
    np.testing.assert_array_equal(orth[[0, 2]], g[[0, 2]])
    np.testing.assert_array_equal(par[1], [3.0, 0.0])
    with pytest.raises(ShapeError):
        decompose(np.ones(3), np.ones(2), np.zeros(3))
    with pytest.raises(ShapeError):
        decompose(np.ones(2), np.ones(2), np.zeros(3))
    with pytest.raises(ShapeError):
        decompose(np.ones((2, 2, 2)), np.ones((2, 2, 2)), np.zeros((2, 2, 2)))


# ---------------------------------------------------------------------------
# apply_guidance


def _pair(rng, dim=2):
    cond = _random_mixture(rng, dim, 2)
    uncond = _random_mixture(rng, dim, 3)
    return cond, uncond


def test_apply_guidance_matches_step_by_step_oracle():
    rng = np.random.default_rng(77)
    sch = Schedule()
    cond, uncond = _pair(rng)
    config = GuidanceConfig(
        rule=GuidanceRule.PROJECTED,
        guidance_scale=5.0,
        min_scale=1.0,
        decay_power=4.0,
        parallel_scale=0.1,
    )
    for _ in range(10):
        t = float(rng.uniform(sch.t_min, sch.t_max))
        x = rng.normal(size=2)
        v_u = mixture.velocity(uncond, sch, t, x)
        v_c = mixture.velocity(cond, sch, t, x)
        got = apply_guidance(v_u, v_c, x, t, sch, config)

        a, _ = coefficients(sch, t)
        g = v_c - v_u
        n = a * x - v_c  # conditional normal source
        par = (float(g @ n) / float(n @ n)) * n
        scale = max(1.0, 5.0 * (1.0 - t) ** 4)
        update = scale * (g + (0.1 - 1.0) * par)

        split_par, split_orth = decompose(g, normal_direction(v_c, x, a), x)
        np.testing.assert_allclose(split_par, par, rtol=1e-11, atol=1e-13)
        np.testing.assert_allclose(split_orth, g - par, rtol=1e-11, atol=1e-13)
        np.testing.assert_allclose(got, update, rtol=1e-11, atol=1e-13)
        # The orthogonal part really is orthogonal to the normal.
        assert abs(float(split_orth @ n)) <= 1e-12 * np.linalg.norm(
            split_orth
        ) * np.linalg.norm(n)


def test_unconditional_normal_source():
    rng = np.random.default_rng(78)
    sch = Schedule()
    cond, uncond = _pair(rng)
    config = GuidanceConfig(normal_source=NormalSource.UNCONDITIONAL)
    t, x = 0.45, rng.normal(size=2)
    v_u = mixture.velocity(uncond, sch, t, x)
    v_c = mixture.velocity(cond, sch, t, x)
    got = apply_guidance(v_u, v_c, x, t, sch, config)
    a, _ = coefficients(sch, t)
    g = v_c - v_u
    n = a * x - v_u  # unconditional normal source
    par = (float(g @ n) / float(n @ n)) * n
    scale = guidance_scale_at(config, t)
    expect = scale * (g + (config.parallel_scale - 1.0) * par)
    np.testing.assert_allclose(got, expect, rtol=1e-11, atol=1e-13)
    conditional = apply_guidance(v_u, v_c, x, t, sch, GuidanceConfig())
    assert not np.allclose(got, conditional, rtol=1e-6)


def test_parallel_scale_one_reproduces_cfg_bitwise():
    rng = np.random.default_rng(79)
    sch = Schedule()
    cond, uncond = _pair(rng)
    omega = 7.0
    cfg = GuidanceConfig(rule=GuidanceRule.CFG, guidance_scale=omega,
                         min_scale=0.0, decay_power=0.0, parallel_scale=1.0)
    proj = GuidanceConfig(rule=GuidanceRule.PROJECTED, guidance_scale=omega,
                          min_scale=0.0, decay_power=0.0, parallel_scale=1.0)
    for _ in range(20):
        t = float(rng.uniform(sch.t_min, sch.t_max))
        x = rng.normal(size=2)
        v_u = mixture.velocity(uncond, sch, t, x)
        v_c = mixture.velocity(cond, sch, t, x)
        a = apply_guidance(v_u, v_c, x, t, sch, cfg)
        b = apply_guidance(v_u, v_c, x, t, sch, proj)
        assert np.array_equal(a, b), f"bitwise mismatch at t={t}: {a} vs {b}"


def test_parallel_scale_zero_removes_normal_component():
    rng = np.random.default_rng(80)
    sch = Schedule()
    cond, uncond = _pair(rng)
    config = GuidanceConfig(parallel_scale=0.0, guidance_scale=3.0,
                            min_scale=0.5, decay_power=2.0)
    t, x = 0.3, rng.normal(size=2)
    v_u = mixture.velocity(uncond, sch, t, x)
    v_c = mixture.velocity(cond, sch, t, x)
    got = apply_guidance(v_u, v_c, x, t, sch, config)
    a, _ = coefficients(sch, t)
    n = normal_direction(v_c, x, a)
    _, orth = decompose(v_c - v_u, n, x)
    np.testing.assert_allclose(got, guidance_scale_at(config, t) * orth,
                               rtol=1e-12, atol=1e-14)
    assert abs(float(got @ n)) <= 1e-10 * np.linalg.norm(n) * max(
        np.linalg.norm(got), 1e-30)


def test_degenerate_normal_passes_residual_through():
    # A symmetric conditional target has zero score at the origin, so the
    # conditional normal vanishes there; the policy keeps the full residual.
    sch = Schedule()
    cond = GaussianMixture.single(np.zeros(2), 1.0)
    uncond = GaussianMixture.single(np.array([1.0, 1.0]), 1.0)
    config = GuidanceConfig(parallel_scale=0.0, guidance_scale=2.0,
                            min_scale=0.0, decay_power=0.0)
    t = 0.5
    x = np.zeros(2)
    v_u = mixture.velocity(uncond, sch, t, x)
    v_c = mixture.velocity(cond, sch, t, x)
    got = apply_guidance(v_u, v_c, x, t, sch, config)
    a, _ = coefficients(sch, t)
    n = normal_direction(v_c, x, a)
    g = v_c - v_u
    assert np.linalg.norm(n) <= degenerate_threshold(x)
    par, orth = decompose(g, n, x)
    np.testing.assert_array_equal(par, np.zeros(2))
    np.testing.assert_array_equal(orth, g)
    np.testing.assert_allclose(got, 2.0 * g, rtol=1e-14)


def test_apply_guidance_batch_matches_single():
    rng = np.random.default_rng(81)
    sch = Schedule()
    cond, uncond = _pair(rng)
    config = GuidanceConfig()
    t = 0.6
    xs = rng.normal(size=(7, 2))
    v_u = mixture.velocity(uncond, sch, t, xs)
    v_c = mixture.velocity(cond, sch, t, xs)
    batch = apply_guidance(v_u, v_c, xs, t, sch, config)
    a, _ = coefficients(sch, t)
    normals = normal_direction(v_c, xs, a)
    batch_par, _ = decompose(v_c - v_u, normals, xs)
    for i in range(7):
        one = apply_guidance(v_u[i], v_c[i], xs[i], t, sch, config)
        np.testing.assert_array_equal(batch[i], one)
        one_par, _ = decompose(v_c[i] - v_u[i], normals[i], xs[i])
        np.testing.assert_array_equal(batch_par[i], one_par)


def test_guidance_config_validation():
    with pytest.raises(ConfigurationError):
        GuidanceConfig(rule="cfg")
    with pytest.raises(ConfigurationError):
        GuidanceConfig(normal_source="conditional")
    with pytest.raises(ConfigurationError):
        GuidanceConfig(guidance_scale=0.0)
    with pytest.raises(ConfigurationError):
        GuidanceConfig(guidance_scale=2.0, min_scale=3.0)
    with pytest.raises(ConfigurationError):
        GuidanceConfig(decay_power=-1.0)
    with pytest.raises(ConfigurationError):
        GuidanceConfig(parallel_scale=-0.1)
    with pytest.raises(ConfigurationError):
        GuidanceConfig(guidance_scale=float("nan"))
    for bad in ({"guidance_scale": "5"}, {"guidance_scale": True},
                {"min_scale": False}, {"guidance_scale": True, "min_scale": False},
                {"decay_power": 10**400}, {"decay_power": None},
                {"parallel_scale": None}, {"parallel_scale": float("inf")}):
        with pytest.raises(ConfigurationError):
            GuidanceConfig(**bad)
    cfg = GuidanceConfig(guidance_scale=np.float64(3), min_scale=1,
                         decay_power=np.int64(2), parallel_scale=0)
    values = (cfg.guidance_scale, cfg.min_scale, cfg.decay_power,
              cfg.parallel_scale)
    assert values == (3.0, 1.0, 2.0, 0.0)
    assert all(type(value) is float for value in values)


# ---------------------------------------------------------------------------
# oracle fields


def test_vector_field_capability_errors():
    f = VectorField(fn=lambda x, t: x, dim=2, label="plain")
    with pytest.raises(CapabilityError):
        f.divergence(np.zeros(2), 0.5)
    with pytest.raises(CapabilityError):
        f.jacobian(np.zeros(2), 0.5)


def test_field_jacobians_match_finite_differences():
    rng = np.random.default_rng(90)
    sch = Schedule()
    cond, uncond = _pair(rng, dim=3)
    config = GuidanceConfig(parallel_scale=0.1, guidance_scale=4.0,
                            min_scale=1.0, decay_power=2.0)
    fields = [
        velocity_field(cond, sch),
        residual_field(cond, uncond, sch),
        parallel_component_field(cond, uncond, sch),
        projected_update_field(cond, uncond, sch, config),
        score_rotation_field(cond, sch, scale=0.7, axes=(0, 2)),
    ]
    for field in fields:
        for t in (0.25, 0.7):
            x = rng.normal(size=3)
            jac = field.jacobian(x, t)
            fd = _fd_jacobian(field, x, t)
            np.testing.assert_allclose(
                jac, fd, rtol=2e-5, atol=2e-6,
                err_msg=f"jacobian mismatch for {field.label} at t={t}",
            )
            # divergence via a different identity agrees with trace(J).
            assert field.divergence(x, t) == pytest.approx(
                float(np.trace(jac)), rel=1e-9, abs=1e-10
            )


def _oracle_fields(cond, uncond, sch):
    config = GuidanceConfig(parallel_scale=0.3, guidance_scale=4.0,
                            min_scale=1.0, decay_power=2.0)
    return [
        velocity_field(cond, sch),
        residual_field(cond, uncond, sch),
        parallel_component_field(cond, uncond, sch),
        parallel_component_field(cond, uncond, sch,
                                 normal_source=NormalSource.UNCONDITIONAL),
        projected_update_field(cond, uncond, sch, config),
        score_rotation_field(cond, sch, scale=0.7, axes=(0, 2)),
    ]


def test_batched_field_derivatives_match_single_points():
    # One call over a whole trajectory, one time per state, gives what a
    # loop of single-point calls gives.
    rng = np.random.default_rng(95)
    sch = Schedule()
    cond, uncond = _pair(rng, dim=3)
    times = np.concatenate([[sch.t_min, sch.t_max],
                            rng.uniform(sch.t_min, sch.t_max, size=10)])
    xs = rng.normal(size=(times.size, 3))
    for field in _oracle_fields(cond, uncond, sch):
        div = field.divergence(xs, times)
        jac = field.jacobian(xs, times)
        assert div.shape == (times.size,) and jac.shape == (times.size, 3, 3)
        shared = field.divergence(xs, 0.6)
        for i, t in enumerate(times):
            one_div = field.divergence(xs[i], float(t))
            one_jac = field.jacobian(xs[i], float(t))
            assert isinstance(one_div, float) and one_jac.shape == (3, 3)
            assert div[i] == pytest.approx(one_div, rel=1e-13, abs=1e-13)
            np.testing.assert_allclose(
                jac[i], one_jac, rtol=1e-13, atol=1e-13 * np.max(np.abs(one_jac)),
                err_msg=f"{field.label} at t={t}")
            assert shared[i] == pytest.approx(field.divergence(xs[i], 0.6),
                                              rel=1e-13, abs=1e-13)


def test_batched_split_raises_when_any_normal_vanishes():
    # The conditional score is exactly zero at alpha_t * mean, so the
    # normal of the middle row vanishes.
    sch = Schedule()
    cond = GaussianMixture.single(np.array([1.0, -2.0]), 0.5)
    uncond = GaussianMixture.single(np.zeros(2), 1.0)
    times = np.array([0.3, 0.5, 0.7])
    xs = np.array([[0.4, 0.1], 0.5 * cond.means[0], [-0.3, 0.2]])
    config = GuidanceConfig(parallel_scale=0.3)
    for field in (parallel_component_field(cond, uncond, sch),
                  projected_update_field(cond, uncond, sch, config)):
        field.divergence(xs[[0, 2]], times[[0, 2]])
        with pytest.raises(DegenerateNormalError):
            field.divergence(xs, times)
        with pytest.raises(DegenerateNormalError):
            field.jacobian(xs, times)


def test_residual_divergence_uses_laplacian_gap():
    rng = np.random.default_rng(91)
    sch = Schedule()
    cond, uncond = _pair(rng)
    f = residual_field(cond, uncond, sch)
    t, x = 0.4, rng.normal(size=2)
    _, b = coefficients(sch, t)
    gap = mixture.laplacian_log_density(cond, sch, t, x) - mixture.laplacian_log_density(
        uncond, sch, t, x
    )
    assert f.divergence(x, t) == pytest.approx(-b * gap, rel=1e-13)


def test_score_rotation_is_conservative():
    # div g + <g, score> = 0 pointwise for the rotated-score field.
    rng = np.random.default_rng(92)
    sch = Schedule()
    target = _random_mixture(rng, 3, 3)
    f = score_rotation_field(target, sch, scale=0.5, axes=(0, 1))
    for _ in range(10):
        t = float(rng.uniform(sch.t_min, sch.t_max))
        x = rng.normal(size=3)
        g = f(x, t)
        s = mixture.score(target, sch, t, x)
        resid = f.divergence(x, t) + float(g @ s)
        assert abs(resid) <= 1e-12 * (1.0 + abs(float(g @ s)))


def test_projected_update_field_matches_apply_guidance():
    rng = np.random.default_rng(93)
    sch = Schedule()
    cond, uncond = _pair(rng)
    config = GuidanceConfig()
    f = projected_update_field(cond, uncond, sch, config)
    t, x = 0.55, rng.normal(size=2)
    v_u = mixture.velocity(uncond, sch, t, x)
    v_c = mixture.velocity(cond, sch, t, x)
    expect = apply_guidance(v_u, v_c, x, t, sch, config)
    np.testing.assert_allclose(f(x, t), expect, rtol=1e-13)


def test_pair_fields_make_one_oracle_pass_per_quantity(monkeypatch):
    rng = np.random.default_rng(96)
    sch = Schedule()
    cond, uncond = _pair(rng, dim=3)
    config = GuidanceConfig(parallel_scale=0.3, guidance_scale=4.0,
                            min_scale=1.0, decay_power=2.0)
    fields = [residual_field(cond, uncond, sch),
              parallel_component_field(cond, uncond, sch),
              parallel_component_field(cond, uncond, sch,
                                       normal_source=NormalSource.UNCONDITIONAL),
              projected_update_field(cond, uncond, sch, config)]
    times = rng.uniform(sch.t_min, sch.t_max, size=5)
    xs = rng.normal(size=(5, 3))
    calls = []
    evaluate = mixture._evaluate

    def counting(*args):
        calls.append(args[3].shape[0])
        return evaluate(*args)

    monkeypatch.setattr(mixture, "_evaluate", counting)
    for field in fields:
        for x, t, n in ((xs[0], float(times[0]), 1), (xs, 0.4, 5)):
            for quantity in (field, field.divergence, field.jacobian):
                calls.clear()
                quantity(x, t)
                assert calls == [n], (field.label, quantity)
        calls.clear()
        field.divergence(xs, times)
        field.jacobian(xs, times)
        assert calls == [5, 5], field.label


def test_residual_field_equals_the_per_target_oracles_bit_for_bit():
    rng = np.random.default_rng(97)
    sch = Schedule()
    cond, uncond = _pair(rng, dim=3)
    f = residual_field(cond, uncond, sch)
    times = rng.uniform(sch.t_min, sch.t_max, size=6)
    xs = rng.normal(size=(6, 3))
    for x, t in ((xs[0], float(times[0])), (xs, 0.4), (xs, times)):
        _, b = coefficients(sch, t)
        want_div = -b * (mixture.laplacian_log_density(cond, sch, t, x)
                         - mixture.laplacian_log_density(uncond, sch, t, x))
        want_jac = -mixture._column(b, 2) * (
            mixture.hessian_log_density(cond, sch, t, x)
            - mixture.hessian_log_density(uncond, sch, t, x))
        got = [f.divergence(x, t), f.jacobian(x, t), f(x, t)]
        want = [want_div, want_jac, mixture.velocity(cond, sch, t, x)
                - mixture.velocity(uncond, sch, t, x)]
        for values, expected in zip(got, want):
            assert np.asarray(values).tobytes() == np.asarray(expected).tobytes()


def test_field_values_along_a_trajectory_match_each_row_bit_for_bit():
    rng = np.random.default_rng(98)
    sch = Schedule()
    cond, uncond = _pair(rng, dim=2)
    fields = [
        velocity_field(uncond, sch),
        residual_field(cond, uncond, sch),
        parallel_component_field(cond, uncond, sch,
                                 normal_source=NormalSource.UNCONDITIONAL),
        projected_update_field(cond, uncond, sch, GuidanceConfig()),
        score_rotation_field(cond, sch, scale=0.7),
    ]
    times = rng.uniform(sch.t_min, sch.t_max, size=5)
    xs = rng.normal(size=(5, 2))
    for field in fields:
        got = field(xs, times)
        want = np.array([field(x, float(t)) for x, t in zip(xs, times)])
        assert got.shape == (5, 2), field.label
        assert got.tobytes() == want.tobytes(), field.label
        for wrong in (times[:4], np.append(times, 0.5)):
            with pytest.raises(ShapeError):
                field(xs, wrong)


def test_projected_update_field_requires_projected_rule():
    rng = np.random.default_rng(94)
    cond, uncond = _pair(rng)
    with pytest.raises(ConfigurationError):
        projected_update_field(
            cond, uncond, Schedule(), GuidanceConfig(rule=GuidanceRule.CFG)
        )


def test_residual_field_dim_mismatch():
    a = GaussianMixture.single(np.zeros(2), 1.0)
    b = GaussianMixture.single(np.zeros(3), 1.0)
    with pytest.raises(ShapeError):
        residual_field(a, b, Schedule())


def test_rotation_axes_validation():
    target = GaussianMixture.single(np.zeros(2), 1.0)
    with pytest.raises(ConfigurationError):
        score_rotation_field(target, Schedule(), axes=(0, 2))
    with pytest.raises(ConfigurationError):
        score_rotation_field(target, Schedule(), axes=(1, 1))


def test_scale_schedule_reaches_floor():
    config = GuidanceConfig(guidance_scale=5.0, min_scale=1.0, decay_power=4.0)
    assert guidance_scale_at(config, Schedule().t_max) == 1.0
    assert guidance_scale_at(config, 0.0) == 5.0
