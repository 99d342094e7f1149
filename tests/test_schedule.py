"""Tests for the interpolation schedule and scale scheduling."""

import math
from types import SimpleNamespace

import numpy as np
import pytest

from guidance_lab import (
    ConfigurationError,
    DomainError,
    Schedule,
    coefficients,
    evaluate,
    guidance_scale_at,
)


def test_linear_path_values():
    sch = Schedule()
    for t in (0.1, 0.25, 0.5, 0.8, 0.999):
        pt = evaluate(sch, t)
        assert pt.alpha == t
        assert pt.sigma == 1.0 - t
        assert pt.d_alpha == 1.0
        assert pt.d_sigma == -1.0


def test_alpha_sigma_sum_to_one():
    sch = Schedule()
    for t in np.linspace(sch.t_min, sch.t_max, 101):
        pt = evaluate(sch, float(t))
        assert pt.alpha + pt.sigma == pytest.approx(1.0, abs=1e-15)


def test_conversion_coefficient_examples():
    # v = a*x - b*score with a = 1/t and b = -(1-t)/t for the linear path.
    sch = Schedule()
    cases = {
        0.5: (2.0, -1.0),
        0.8: (1.25, -0.25),
        0.1: (10.0, -9.0),
    }
    for t, (a, b) in cases.items():
        got = coefficients(sch, t)
        assert got.state_coef == pytest.approx(a, rel=1e-14)
        assert got.score_coef == pytest.approx(b, rel=1e-14)


def test_score_coef_is_minus_sigma_over_alpha():
    sch = Schedule()
    rng = np.random.default_rng(7)
    for _ in range(50):
        t = float(rng.uniform(sch.t_min, sch.t_max))
        pt = evaluate(sch, t)
        got = coefficients(sch, t)
        assert got.score_coef == pytest.approx(-pt.sigma / pt.alpha, rel=1e-13)
        assert got.state_coef == pytest.approx(1.0 / pt.alpha, rel=1e-13)
        # The score coefficient is negative on the open interval, which is
        # what makes the outward normal anti-parallel to the score.
        assert got.score_coef < 0.0


def test_clamp_boundaries_are_inclusive():
    sch = Schedule()
    evaluate(sch, sch.t_min)
    evaluate(sch, sch.t_max)
    for bad in (0.0, sch.t_min / 2, sch.t_max + 1e-6, 1.0, -0.5, math.nan):
        with pytest.raises(DomainError):
            evaluate(sch, bad)


def test_custom_clamp_respected():
    sch = Schedule(t_min=0.2, t_max=0.7)
    evaluate(sch, 0.2)
    evaluate(sch, 0.7)
    with pytest.raises(DomainError):
        evaluate(sch, 0.1)
    with pytest.raises(DomainError):
        evaluate(sch, 0.9)


def test_schedule_validation():
    with pytest.raises(ConfigurationError):
        Schedule(t_min=0.0)
    with pytest.raises(ConfigurationError):
        Schedule(t_min=0.5, t_max=0.5)
    with pytest.raises(ConfigurationError):
        Schedule(t_max=1.0)
    for name, bad in (("t_max", "0.9"), ("t_min", None), ("t_min", True),
                      ("t_max", math.nan), ("t_min", 10**5000)):
        with pytest.raises(ConfigurationError, match=name):
            Schedule(**{name: bad})
    sch = Schedule(t_min=np.float64(0.5))
    assert sch.t_min == 0.5 and type(sch.t_min) is float


def test_guidance_scale_decay():
    cfg = SimpleNamespace(guidance_scale=5.0, min_scale=1.0, decay_power=4.0)
    # At t=0 the scale equals guidance_scale.
    assert guidance_scale_at(cfg, 0.0) == 5.0
    # Monotone non-increasing in t.
    grid = np.linspace(0.0, 1.0, 64)
    vals = [guidance_scale_at(cfg, float(t)) for t in grid]
    assert all(a >= b - 1e-15 for a, b in zip(vals, vals[1:]))
    # The floor binds for t close to 1: 5*(1-t)^4 < 1 iff (1-t) < (1/5)^(1/4).
    t_star = 1.0 - 0.2**0.25
    assert guidance_scale_at(cfg, t_star + 0.01) == 1.0
    assert guidance_scale_at(cfg, t_star - 0.01) > 1.0
    assert guidance_scale_at(cfg, 1.0) == 1.0


def test_guidance_scale_zero_decay_is_constant():
    cfg = SimpleNamespace(guidance_scale=3.0, min_scale=0.0, decay_power=0.0)
    for t in (0.0, 0.3, 0.99, 1.0):
        assert guidance_scale_at(cfg, t) == 3.0


def test_guidance_scale_exact_formula():
    cfg = SimpleNamespace(guidance_scale=7.0, min_scale=0.5, decay_power=2.0)
    rng = np.random.default_rng(11)
    for _ in range(50):
        t = float(rng.uniform(0.0, 1.0))
        expect = max(0.5, 7.0 * (1.0 - t) ** 2)
        assert guidance_scale_at(cfg, t) == pytest.approx(expect, rel=1e-15)


def test_guidance_scale_validation():
    with pytest.raises(DomainError):
        guidance_scale_at(
            SimpleNamespace(guidance_scale=5.0, min_scale=1.0, decay_power=4.0), 1.5
        )
    with pytest.raises(DomainError):
        guidance_scale_at(
            SimpleNamespace(guidance_scale=5.0, min_scale=1.0, decay_power=4.0), -0.1
        )
    with pytest.raises(ConfigurationError):
        guidance_scale_at(
            SimpleNamespace(guidance_scale=1.0, min_scale=2.0, decay_power=4.0), 0.5
        )
    with pytest.raises(ConfigurationError):
        guidance_scale_at(
            SimpleNamespace(guidance_scale=5.0, min_scale=1.0, decay_power=-1.0), 0.5
        )


def test_time_arrays_match_scalar_times():
    sch = Schedule()
    cfg = SimpleNamespace(guidance_scale=5.0, min_scale=1.0, decay_power=4.0)
    times = np.linspace(sch.t_min, sch.t_max, 9)
    point = evaluate(sch, times)
    coef = coefficients(sch, times)
    scale = guidance_scale_at(cfg, times)
    for values in (*point, *coef, scale):
        assert isinstance(values, np.ndarray) and values.shape == times.shape
    for i, t in enumerate(times):
        assert [v[i] for v in point] == list(evaluate(sch, float(t)))
        assert [v[i] for v in coef] == list(coefficients(sch, float(t)))
        assert scale[i] == pytest.approx(guidance_scale_at(cfg, float(t)),
                                         rel=1e-15)
    assert isinstance(evaluate(sch, 0.5).alpha, float)
    assert isinstance(guidance_scale_at(cfg, 0.5), float)


def test_time_arrays_reject_any_bad_element():
    sch = Schedule()
    cfg = SimpleNamespace(guidance_scale=5.0, min_scale=1.0, decay_power=4.0)
    for bad in (sch.t_min / 2, sch.t_max + 1e-6, math.nan, math.inf):
        times = np.array([0.5, bad, 0.6])
        with pytest.raises(DomainError, match="outside schedule clamp"):
            evaluate(sch, times)
        with pytest.raises(DomainError):
            coefficients(sch, times)
    for bad in (-0.1, 1.5, math.nan):
        with pytest.raises(DomainError):
            guidance_scale_at(cfg, np.array([0.5, bad]))
