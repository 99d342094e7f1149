"""Tests for Gaussian-mixture targets and their closed-form calculus.

Every analytic quantity is cross-checked against an independent oracle:
finite differences for the score, a fourth-order stencil for the
Laplacian, plain ``numpy.linalg`` conjugate formulas for the posterior,
and Monte Carlo moments for the sampler.
"""

import math

import numpy as np
import pytest

from guidance_lab import (
    ConfigurationError,
    DomainError,
    GaussianMixture,
    Schedule,
    ShapeError,
    coefficients,
    mixture,
)
from guidance_lab.verify import _random_mixture


# ---------------------------------------------------------------------------
# densities


def test_two_component_log_density_frozen_value():
    # Symmetric pair at +/-(3, 0) with unit covariances, queried at the
    # origin of the t = 0.5 marginal.  The closed form collapses to
    # -log(pi) - 2.25; the literal was frozen from a 50-digit evaluation.
    target = GaussianMixture(
        np.array([0.5, 0.5]),
        np.array([[3.0, 0.0], [-3.0, 0.0]]),
        np.stack([np.eye(2), np.eye(2)]),
    )
    got = mixture.log_density(target, Schedule(), 0.5, np.zeros(2))
    assert got == pytest.approx(-3.3947298858494004, abs=1e-13)
    assert got == pytest.approx(-math.log(math.pi) - 2.25, abs=1e-13)


def test_standard_normal_log_density():
    # At t = 0.5 the marginal of N(0, 3 I) is N(0, 0.25 * 3 I + 0.25 I),
    # the standard normal, with no rounding in its variance.
    sch = Schedule()
    g1 = mixture.GaussianMixture.single(np.zeros(1), 3.0)
    assert mixture.log_density(g1, sch, 0.5, np.zeros(1)) == pytest.approx(
        -0.5 * math.log(2 * math.pi), abs=1e-14
    )
    g2 = mixture.GaussianMixture.single(np.zeros(2), 3.0)
    assert mixture.log_density(g2, sch, 0.5, np.zeros(2)) == pytest.approx(
        -math.log(2 * math.pi), abs=1e-14
    )
    x = np.array([0.3, -1.2])
    expect = -math.log(2 * math.pi) - 0.5 * float(x @ x)
    assert mixture.log_density(g2, sch, 0.5, x) == pytest.approx(expect, rel=1e-14)


def test_marginal_of_standard_normal():
    # For a standard-normal target the time-t marginal is
    # N(0, (alpha^2 + sigma^2) I) in closed form.
    target = GaussianMixture.single(np.zeros(3), 1.0)
    sch = Schedule()
    for t in (0.1, 0.5, 0.9):
        var = t * t + (1.0 - t) ** 2
        _, covs = mixture._marginal_moments(target, t, 1.0 - t)
        np.testing.assert_allclose(covs[0], var * np.eye(3), rtol=1e-14)
        x = np.array([0.4, -0.2, 1.1])
        expect = -1.5 * math.log(2 * math.pi * var) - 0.5 * float(x @ x) / var
        assert mixture.log_density(target, sch, t, x) == pytest.approx(
            expect, rel=1e-13)


def test_log_density_shapes():
    g = GaussianMixture.single(np.zeros(2), 1.0)
    sch = Schedule()
    assert isinstance(mixture.log_density(g, sch, 0.5, np.zeros(2)), float)
    batch = mixture.log_density(g, sch, 0.5, np.zeros((5, 2)))
    assert batch.shape == (5,)
    with pytest.raises(ShapeError):
        mixture.log_density(g, sch, 0.5, np.zeros(3))
    with pytest.raises(ShapeError):
        mixture.log_density(g, sch, 0.5, np.zeros((4, 3)))


def test_log_density_far_point_is_minus_infinity():
    # Every component's quadratic form overflows at this point; the
    # log-sum-exp must give -inf there, not the NaN of (-inf) - (-inf).
    # Only that column's log runs under errstate(divide="ignore"): a
    # raising divide outside shows that the guard still covers it.
    far = np.array([1e200, 0.0])
    batch = np.array([[0.3, -0.2], far, [1.0, 2.0]])
    rng = np.random.default_rng(7)
    sch = Schedule()
    for target in (
        GaussianMixture.isotropic(np.array([[1.0, 0.0], [0.0, 1.0]]), [0.5, 0.7]),
        _random_mixture(rng, 2, 3),
    ):
        for t in (0.5, sch.t_max):
            with np.errstate(over="ignore", invalid="ignore", divide="raise"):
                assert mixture.log_density(target, sch, t, far) == -math.inf
                vals = mixture.log_density(target, sch, t, batch)
                assert vals[1] == -math.inf
                for row in (0, 2):
                    alone = mixture.log_density(target, sch, t, batch[row])
                    assert np.isfinite(vals[row]) and vals[row] == alone


# ---------------------------------------------------------------------------
# time-t oracles against a dense reference


def _dense_reference(target, t, pts):
    """Slow reference: forms alpha^2 Sigma_j + sigma^2 I explicitly and uses
    ``solve``/``slogdet``/``inv`` on it.  Returns per-point log density,
    score, Hessian, posterior mean and posterior covariance trace."""
    alpha, sigma = t, 1.0 - t
    dim, k = target.dim, target.n_components
    covs = alpha**2 * target.covariances + sigma**2 * np.eye(dim)
    out = []
    for x in pts:
        logs, comp_scores, precs, post_means, post_traces = [], [], [], [], []
        for j in range(k):
            delta = x - alpha * target.means[j]
            sol = np.linalg.solve(covs[j], delta)
            _, logdet = np.linalg.slogdet(covs[j])
            logs.append(math.log(target.weights[j])
                        - 0.5 * (dim * math.log(2 * math.pi) + logdet + delta @ sol))
            comp_scores.append(-sol)
            precs.append(np.linalg.inv(covs[j]))
            post_means.append(np.linalg.solve(
                covs[j],
                sigma**2 * target.means[j] + alpha * target.covariances[j] @ x))
            post_traces.append(
                sigma**2 * np.trace(np.linalg.solve(covs[j], target.covariances[j])))
        logs = np.array(logs)
        top = logs.max()
        log_p = top + math.log(np.sum(np.exp(logs - top)))
        r = np.exp(logs - log_p)
        u, post_means = np.array(comp_scores), np.array(post_means)
        s = r @ u
        hess = sum(r[j] * (-precs[j] + np.outer(u[j], u[j])) for j in range(k))
        hess -= np.outer(s, s)
        mean = r @ post_means
        spread = sum(r[j] * np.sum((post_means[j] - mean) ** 2) for j in range(k))
        out.append((log_p, s, hess, mean, r @ np.array(post_traces) + spread))
    return out


def _diagonal_mixture(rng, dim, k):
    weights = rng.uniform(0.5, 1.5, size=k)
    covs = np.stack([np.diag(rng.uniform(0.05, 2.0, size=dim)) for _ in range(k)])
    return GaussianMixture(weights / weights.sum(),
                           rng.normal(0.0, 2.0, size=(k, dim)), covs)


_FORMS = {
    "isotropic": lambda rng: GaussianMixture.isotropic(
        rng.normal(0.0, 2.0, size=(3, 3)), rng.uniform(0.2, 1.3, size=3),
        weights=np.array([0.2, 0.3, 0.5])),
    "diagonal": lambda rng: _diagonal_mixture(rng, 3, 3),
    "full": lambda rng: _random_mixture(rng, 3, 3),
}


@pytest.mark.parametrize("t", [Schedule().t_min, 0.5, Schedule().t_max])
@pytest.mark.parametrize("form", sorted(_FORMS))
def test_time_t_oracles_match_dense_reference(form, t):
    rng = np.random.default_rng([31, sorted(_FORMS).index(form)])
    target = _FORMS[form](rng)
    sch = Schedule()
    pts = mixture.sample(target, sch, t, 4, 3) + 0.3 * rng.normal(size=(4, target.dim))
    log_p = mixture.log_density(target, sch, t, pts)
    score = mixture.score(target, sch, t, pts)
    post = mixture.posterior(target, sch, t, pts)
    for i, (ref_log_p, ref_s, ref_h, ref_mean, ref_trace) in enumerate(
        _dense_reference(target, t, pts)
    ):
        assert log_p[i] == pytest.approx(ref_log_p, rel=1e-12, abs=1e-12)
        np.testing.assert_allclose(score[i], ref_s, rtol=1e-10, atol=1e-10)
        np.testing.assert_allclose(
            mixture.hessian_log_density(target, sch, t, pts[i]), ref_h,
            rtol=1e-10, atol=1e-10 * np.max(np.abs(ref_h)))
        np.testing.assert_allclose(post.mean[i], ref_mean, rtol=1e-10, atol=1e-10)
        assert post.cov_trace[i] == pytest.approx(ref_trace, rel=1e-10, abs=1e-12)


# ---------------------------------------------------------------------------
# one time per point: a whole trajectory in one oracle call


_PER_POINT_ORACLES = {
    "log_density": mixture.log_density,
    "score": mixture.score,
    "laplacian": mixture.laplacian_log_density,
    "hessian": mixture.hessian_log_density,
    "posterior_mean": lambda *args: mixture.posterior(*args).mean,
    "posterior_trace": lambda *args: mixture.posterior(*args).cov_trace,
    "velocity": mixture.velocity,
    "velocity_predictors": mixture._predictor_velocity,
}


@pytest.mark.parametrize("form", sorted(_FORMS))
def test_per_point_times_match_single_point_loop(form):
    rng = np.random.default_rng([47, sorted(_FORMS).index(form)])
    target = _FORMS[form](rng)
    sch = Schedule()
    times = np.concatenate([[sch.t_min, sch.t_max],
                            rng.uniform(sch.t_min, sch.t_max, size=7)])
    pts = rng.normal(0.0, 1.5, size=(times.size, target.dim))
    for name, oracle in _PER_POINT_ORACLES.items():
        batch = oracle(target, sch, times, pts)
        assert np.shape(batch)[0] == times.size, name
        for i, t in enumerate(times):
            one = np.asarray(oracle(target, sch, float(t), pts[i]))
            np.testing.assert_allclose(
                batch[i], one, rtol=1e-13, atol=1e-13 * np.max(np.abs(one)),
                err_msg=f"{name} at t={t}")


def test_batched_hessian_method_matches_single_points():
    target = _random_mixture(np.random.default_rng(48), 3, 4)
    xs = np.random.default_rng(49).normal(size=(5, 3))
    sch = Schedule()
    for t in (0.5, sch.t_max):
        batch = mixture.hessian_log_density(target, sch, t, xs)
        assert batch.shape == (5, 3, 3)
        for i in range(5):
            np.testing.assert_array_equal(
                batch[i], mixture.hessian_log_density(target, sch, t, xs[i]))


def test_per_point_times_are_checked():
    target = GaussianMixture.single(np.zeros(2), 1.0)
    sch = Schedule()
    pts = np.zeros((3, 2))
    for bad in ([0.5, 0.0, 0.5], [0.5, 0.5, math.nan], [0.5, sch.t_max + 1e-9, 0.5]):
        for oracle in _PER_POINT_ORACLES.values():
            with pytest.raises(DomainError):
                oracle(target, sch, np.array(bad), pts)
    for wrong in (np.full(2, 0.5), np.full((3, 1), 0.5)):
        for oracle in _PER_POINT_ORACLES.values():
            with pytest.raises(ShapeError):
                oracle(target, sch, wrong, pts)


# ---------------------------------------------------------------------------
# one oracle pass over the stacked components of several targets


def _same_bits(got, want, what):
    got, want = np.asarray(got), np.asarray(want)
    assert got.shape == want.shape, what
    assert got.tobytes() == want.tobytes(), what


# (conditional, unconditional) component counts.  A sum over 8 or more
# elements (components here, dimensions at d = 8, 16 and 64) takes the
# unrolled branch of numpy's pairwise sum.
@pytest.mark.parametrize("counts", [(1, 4), (3, 9), (12, 10)])
@pytest.mark.parametrize("dim", [1, 2, 3, 8, 16, 64])
def test_stacked_pass_matches_each_target_alone_bit_for_bit(dim, counts):
    rng = np.random.default_rng([53, dim, *counts])
    cond, uncond = (_random_mixture(rng, dim, k) for k in counts)
    stack = mixture.TargetPair(cond, uncond)
    sch = Schedule()
    # Near the noise end every component carries weight, so the order of a
    # target's sums over its components shows in the last bits.
    times = np.concatenate([[sch.t_min, 0.3], rng.uniform(sch.t_min, sch.t_max, 4)])
    pts = 1.5 * rng.normal(size=(6, dim))
    cases = [(float(times[0]), pts[0]), (float(times[1]), pts),
             (times[:1], pts[:1]), (times, pts)]
    for t, x in cases:
        batch = np.atleast_2d(x)
        path = mixture._path(sch, t)
        terms = mixture._evaluate(stack, *path, batch)
        scored = mixture._scores(stack, terms)
        velocities = mixture._velocities(
            stack, terms, *coefficients(sch, t), batch)
        # The guidance pair fields take both targets' scores, Hessians and
        # Laplacians from this one stacked pass.
        hessians = mixture._hessians(stack, terms, scored, batch)
        laplacians = mixture._laplacians(stack, terms, scored)
        for i, target in enumerate((cond, uncond)):
            what = f"target {i} at t={t} for points of shape {np.shape(x)}"
            alone = mixture._evaluate(target, *path, batch)
            _same_bits(terms.log_density[i], alone.log_density[0], what)
            _same_bits(terms.resp[stack._slices[i]], alone.resp, what)
            want = (mixture.score(target, sch, t, x),
                    mixture.velocity(target, sch, t, x),
                    mixture.hessian_log_density(target, sch, t, x),
                    mixture.laplacian_log_density(target, sch, t, x))
            got = (scored[1][i], velocities[i], hessians[i], laplacians[i])
            if np.ndim(x) == 1:
                got = tuple(values[0] for values in got)
            for values, expected in zip(got, want):
                _same_bits(values, expected, what)


def _negated_scores(stack, terms):
    """The score route that negates ``Q_j w_j`` after the rotation and
    weights each target's components on their own."""
    comp = np.negative(stack._eigvecs_t.mT @ terms.whitened)
    return comp, tuple(
        mixture._sum_components(terms.resp[c][:, None, :] * comp[c]).T
        for c in stack._slices)


# n = 1 rotates with matrix-vector BLAS products, n = 2049 with
# matrix-matrix ones.
@pytest.mark.parametrize("count", [1, 2049])
@pytest.mark.parametrize("dim", [2, 8, 16])
def test_stored_negated_eigenvectors_match_negating_after(dim, count):
    rng = np.random.default_rng([59, dim, count])
    stack = mixture.TargetPair(_random_mixture(rng, dim, 2),
                               _random_mixture(rng, dim, 3))
    pts = 1.5 * rng.normal(size=(count, dim))
    terms = mixture._evaluate(stack, 0.4, 0.6, pts)
    got, want = mixture._scores(stack, terms), _negated_scores(stack, terms)
    _same_bits(got[0], want[0], "component scores")
    for reduce in (lambda scored: scored[1],
                   lambda scored: mixture._hessians(stack, terms, scored, pts),
                   lambda scored: mixture._laplacians(stack, terms, scored)):
        for values, expected in zip(reduce(got), reduce(want)):
            _same_bits(values, expected, "per-target reduction")


def _products(stack, sch, t, pts, vectors):
    terms = mixture._evaluate(stack, *mixture._path(sch, t), pts)
    scored = mixture._scores(stack, terms)
    return (mixture._hessian_products(stack, terms, scored, vectors),
            mixture._hessians(stack, terms, scored, pts))


# The unconditional target's 9 components take _sum_components' loop.
@pytest.mark.parametrize("dim", [2, 8, 64])
def test_hessian_products_match_the_assembled_hessians(dim):
    rng = np.random.default_rng([61, dim])
    stack = mixture.TargetPair(_random_mixture(rng, dim, 3),
                               _random_mixture(rng, dim, 9))
    sch = Schedule()
    count = 6
    times = rng.uniform(sch.t_min, sch.t_max, count)
    pts = 1.5 * rng.normal(size=(count, dim))
    vectors = rng.normal(size=(2, dim, count))
    for t in (0.4, times):
        products, hessians = _products(stack, sch, t, pts, [vectors, vectors])
        products = np.stack(products)
        assert products.shape == (2, 2, dim, count)
        for i, h in enumerate(hessians):
            for v, w in enumerate(vectors):
                want = np.einsum("nij,jn->in", h, w)
                gap = np.max(np.abs(products[i, v] - want)) / np.max(np.abs(want))
                assert gap <= 1e-13, (t, i, v, gap)
            # A product is the same bits whatever else its target is given.
            for v in range(2):
                alone, _ = _products(stack, sch, t, pts,
                                     [vectors[v:v + 1], vectors[1 - v:2 - v]])
                _same_bits(alone[i][0], products[i, v if i == 0 else 1 - v],
                           f"target {i}, vector {v}")
        # A single point is its batch row: bit for bit up to dim = 3, to
        # roundoff above it, as every oracle.
        for row in range(count):
            one = (float(t) if np.ndim(t) == 0 else t[row:row + 1])
            alone, _ = _products(stack, sch, one, pts[row:row + 1],
                                 [vectors[:, :, row:row + 1]] * 2)
            alone = np.stack(alone)
            if dim <= 3:
                _same_bits(alone[..., 0], products[..., row], f"row {row}")
            else:
                np.testing.assert_allclose(
                    alone[..., 0], products[..., row], rtol=0,
                    atol=1e-13 * np.max(np.abs(products[..., row])))


def test_stack_rejects_targets_of_different_dimensions():
    with pytest.raises(ShapeError):
        mixture.TargetPair(GaussianMixture.single(np.zeros(2), 1.0),
                           GaussianMixture.single(np.zeros(3), 1.0))


# ---------------------------------------------------------------------------
# derivatives against finite differences


def test_score_matches_finite_difference():
    rng = np.random.default_rng(101)
    sch = Schedule()
    h = 1e-5
    for dim, k in ((1, 2), (2, 3), (4, 2)):
        target = _random_mixture(rng, dim, k)
        for _ in range(5):
            t = float(rng.uniform(0.05, 0.9))
            x = rng.normal(0.0, 1.5, size=dim)
            got = mixture.score(target, sch, t, x)
            fd = np.empty(dim)
            for i in range(dim):
                e = np.zeros(dim)
                e[i] = h
                fd[i] = (
                    mixture.log_density(target, sch, t, x + e)
                    - mixture.log_density(target, sch, t, x - e)
                ) / (2 * h)
            np.testing.assert_allclose(got, fd, rtol=1e-6, atol=1e-7)


def test_laplacian_matches_stencil():
    # Fourth-order central stencil for the second derivative, summed over
    # coordinates, applied to the log density.
    rng = np.random.default_rng(202)
    sch = Schedule()
    h = 2e-3
    for dim, k in ((1, 2), (2, 2), (3, 3)):
        target = _random_mixture(rng, dim, k)
        t = float(rng.uniform(0.2, 0.8))
        x = rng.normal(0.0, 1.0, size=dim)
        f0 = mixture.log_density(target, sch, t, x)
        lap = 0.0
        for i in range(dim):
            e = np.zeros(dim)
            e[i] = h
            fp1 = mixture.log_density(target, sch, t, x + e)
            fm1 = mixture.log_density(target, sch, t, x - e)
            fp2 = mixture.log_density(target, sch, t, x + 2 * e)
            fm2 = mixture.log_density(target, sch, t, x - 2 * e)
            lap += (-fp2 + 16 * fp1 - 30 * f0 + 16 * fm1 - fm2) / (12 * h * h)
        got = mixture.laplacian_log_density(target, sch, t, x)
        assert got == pytest.approx(lap, rel=1e-6, abs=1e-6)


def test_single_gaussian_hessian_is_minus_precision():
    # With one component the responsibilities are constant, so the Hessian
    # of the time-t log density is exactly -(alpha^2 Sigma + sigma^2 I)^{-1}
    # at every point.
    rng = np.random.default_rng(303)
    q, _ = np.linalg.qr(rng.normal(size=(3, 3)))
    cov = q @ np.diag([0.5, 1.0, 2.0]) @ q.T
    g = GaussianMixture.single(rng.normal(size=3), cov)
    sch = Schedule()
    for t in (sch.t_min, 0.5, sch.t_max):
        precision = np.linalg.inv(t * t * cov + (1.0 - t) ** 2 * np.eye(3))
        for _ in range(3):
            x = rng.normal(0.0, 2.0, size=3)
            h = mixture.hessian_log_density(g, sch, t, x)
            np.testing.assert_allclose(h, -precision, rtol=1e-12, atol=1e-12)
            assert mixture.laplacian_log_density(g, sch, t, x) == pytest.approx(
                -np.trace(precision), rel=1e-12
            )


def test_sharp_gaussian_curvature_does_not_cancel_the_score():
    # Late in time a sharp component has |score|^2 ~ 1e10 at a point off its
    # mean, while its Laplacian is -2 / m ~ -1.7e5.  Forming the curvature
    # as sum_j r_j |u_j|^2 - |score|^2 lost 1e-10 relative to that
    # cancellation; the centred form keeps it to a few ulps.
    g = GaussianMixture.isotropic([[4.0, 0.0]], [1.875e-3])
    t = 0.99713
    m = t * t * 1.875e-3 ** 2 + (1.0 - t) ** 2
    x = np.array([[5.0, 1.0], [3.0, -1.0]])
    sch = Schedule()
    assert np.sum(mixture.score(g, sch, t, x) ** 2, axis=1).min() > 1e10
    np.testing.assert_allclose(mixture.laplacian_log_density(g, sch, t, x),
                               -2.0 / m, rtol=1e-14)
    np.testing.assert_allclose(mixture.hessian_log_density(g, sch, t, x),
                               np.broadcast_to(-np.eye(2) / m, (2, 2, 2)),
                               rtol=1e-14, atol=0.0)


def test_hessian_symmetric_and_trace_is_laplacian():
    rng = np.random.default_rng(404)
    target = _random_mixture(rng, 3, 4)
    sch = Schedule()
    for t in (sch.t_min, 0.5, sch.t_max):
        for _ in range(5):
            x = rng.normal(0.0, 1.5, size=3)
            h = mixture.hessian_log_density(target, sch, t, x)
            np.testing.assert_allclose(h, h.T, atol=1e-14)
            assert np.trace(h) == pytest.approx(
                mixture.laplacian_log_density(target, sch, t, x),
                rel=1e-11, abs=1e-12
            )


# ---------------------------------------------------------------------------
# sampling


def test_sample_moments_match_mixture():
    # The time-t marginal's component j is N(alpha mu_j, alpha^2 Sigma_j +
    # sigma^2 I).
    weights = np.array([0.3, 0.7])
    base_means = np.array([[-2.0, 0.0], [2.0, 1.0]])
    base_covs = np.stack([0.5 * np.eye(2), np.array([[1.0, 0.3], [0.3, 0.8]])])
    g = GaussianMixture(weights, base_means, base_covs)
    t = 0.7
    means = t * base_means
    covs = t * t * base_covs + (1.0 - t) ** 2 * np.eye(2)
    n = 100_000
    xs = mixture.sample(g, Schedule(), t, n, 5)
    assert xs.shape == (n, 2)

    mean = weights @ means
    second = sum(w * (c + np.outer(m, m)) for w, m, c in zip(weights, means, covs))
    cov = second - np.outer(mean, mean)
    np.testing.assert_allclose(xs.mean(axis=0), mean, atol=0.03)
    np.testing.assert_allclose(np.cov(xs.T), cov, atol=0.06)

    # Component frequencies, observed through the sign of x[0] with the
    # exact tail overlap folded into the expectation (it contributes ~1.5%,
    # far above the Monte Carlo error at this sample size).
    from scipy.stats import norm

    expect_right = sum(
        w * norm.sf(-m[0] / math.sqrt(c[0, 0]))
        for w, m, c in zip(weights, means, covs)
    )
    frac_right = float(np.mean(xs[:, 0] > 0))
    # 4 standard errors of a Bernoulli(0.7) frequency at n = 1e5 is ~0.006.
    assert abs(frac_right - expect_right) < 0.006


def test_sample_deterministic():
    g = GaussianMixture.isotropic(np.array([[0.0], [3.0]]), np.array([1.0, 0.5]))
    sch = Schedule()
    a = mixture.sample(g, sch, 0.5, 64, 9)
    b = mixture.sample(g, sch, 0.5, 64, 9)
    np.testing.assert_array_equal(a, b)
    c = mixture.sample(g, sch, 0.5, 64, 10)
    assert not np.array_equal(a, c)
    # One time for every draw: per-draw times would broadcast over the
    # coordinates.
    with pytest.raises(ShapeError):
        mixture.sample(g, sch, np.full(2, 0.5), 64, 9)


@pytest.mark.parametrize("t", [Schedule().t_min, 0.5, Schedule().t_max])
@pytest.mark.parametrize("form", sorted(_FORMS))
def test_sample_matches_explicit_draw_stream(form, t):
    # The draws keep the stream of a Cholesky factor gathered per draw from
    # the explicitly formed alpha^2 Sigma_j + sigma^2 I, bit for bit.
    rng = np.random.default_rng([67, sorted(_FORMS).index(form)])
    target = _FORMS[form](rng)
    count, seed = 50, 11
    got = mixture.sample(target, Schedule(), t, count, seed)
    alpha, sigma = t, 1.0 - t
    draws = np.random.default_rng(seed)
    idx = draws.choice(target.n_components, size=count, p=target.weights)
    z = draws.standard_normal((count, target.dim))
    eye = np.eye(target.dim)
    chols = np.linalg.cholesky((alpha * alpha) * target.covariances
                               + (sigma * sigma) * eye)
    want = alpha * target.means[idx] + np.einsum("nij,nj->ni", chols[idx], z)
    assert got.tobytes() == want.tobytes()


# ---------------------------------------------------------------------------
# posterior moments


def test_posterior_single_gaussian_closed_form():
    # Independent conjugate-Gaussian oracle written with plain inv/solve.
    rng = np.random.default_rng(515)
    sch = Schedule()
    q, _ = np.linalg.qr(rng.normal(size=(3, 3)))
    cov = q @ np.diag([0.4, 1.1, 2.2]) @ q.T
    mu = rng.normal(size=3)
    target = GaussianMixture.single(mu, cov)
    for t in (0.2, 0.5, 0.85):
        alpha, sigma = t, 1.0 - t
        x = rng.normal(0.0, 1.5, size=3)
        m_mat = alpha * alpha * cov + sigma * sigma * np.eye(3)
        mean = np.linalg.solve(m_mat, sigma * sigma * mu + alpha * cov @ x)
        trace = sigma * sigma * np.trace(np.linalg.solve(m_mat, cov))
        post = mixture.posterior(target, sch, t, x)
        np.testing.assert_allclose(post.mean, mean, rtol=1e-12)
        assert post.cov_trace == pytest.approx(trace, rel=1e-12)


def test_posterior_tweedie_identity():
    # alpha * E[x1 | x_t] = x + sigma^2 * score(x) ties the posterior mean
    # to the marginal score; the two sides come from different code paths.
    rng = np.random.default_rng(616)
    sch = Schedule()
    for dim, k in ((2, 3), (4, 2)):
        target = _random_mixture(rng, dim, k)
        for _ in range(5):
            t = float(rng.uniform(sch.t_min, sch.t_max))
            x = rng.normal(0.0, 1.5, size=dim)
            alpha, sigma = t, 1.0 - t
            lhs = alpha * mixture.posterior(target, sch, t, x).mean
            rhs = x + sigma * sigma * mixture.score(target, sch, t, x)
            np.testing.assert_allclose(lhs, rhs, rtol=1e-10, atol=1e-10)


def test_posterior_concentrates_near_data_time():
    rng = np.random.default_rng(717)
    target = _random_mixture(rng, 2, 2)
    sch = Schedule()
    t = sch.t_max
    x = np.array([0.7, -0.4])
    post = mixture.posterior(target, sch, t, x)
    np.testing.assert_allclose(post.mean, x / t, atol=1e-4)
    assert 0.0 <= post.cov_trace < 1e-4


def test_posterior_batch_matches_loop():
    rng = np.random.default_rng(818)
    target = _random_mixture(rng, 3, 2)
    sch = Schedule()
    xs = rng.normal(size=(6, 3))
    batch = mixture.posterior(target, sch, 0.4, xs)
    assert batch.mean.shape == (6, 3)
    assert batch.cov_trace.shape == (6,)
    for i in range(6):
        one = mixture.posterior(target, sch, 0.4, xs[i])
        np.testing.assert_allclose(batch.mean[i], one.mean, rtol=1e-13)
        assert batch.cov_trace[i] == pytest.approx(one.cov_trace, rel=1e-13)


# ---------------------------------------------------------------------------
# velocity


def test_velocity_methods_agree():
    rng = np.random.default_rng(919)
    sch = Schedule()
    for dim, k in ((1, 1), (2, 3), (5, 2)):
        target = _random_mixture(rng, dim, k)
        xs = rng.normal(0.0, 1.5, size=(8, dim))
        for t in (sch.t_min, 0.3, 0.7, sch.t_max):
            via_score = mixture.velocity(target, sch, t, xs)
            via_pred = mixture._predictor_velocity(target, sch, t, xs)
            scale = max(1.0, float(np.max(np.abs(via_score))))
            assert np.max(np.abs(via_score - via_pred)) <= 1e-10 * scale


def test_velocity_standard_normal_formula():
    # For a standard-normal target the velocity is linear in x:
    # v = (2t - 1) / (t^2 + (1-t)^2) * x.
    target = GaussianMixture.single(np.zeros(2), 1.0)
    sch = Schedule()
    rng = np.random.default_rng(21)
    for _ in range(20):
        t = float(rng.uniform(sch.t_min, sch.t_max))
        x = rng.normal(size=2)
        expect = (2 * t - 1) / (t * t + (1 - t) ** 2) * x
        got = mixture.velocity(target, sch, t, x)
        np.testing.assert_allclose(got, expect, rtol=1e-11, atol=1e-13)


def test_velocity_near_deterministic_target_is_straight_line():
    # As the target covariance shrinks the flow becomes the straight line
    # x_t = alpha*mu + sigma*x0, whose velocity is mu - (x - alpha*mu)/sigma.
    mu = np.array([1.5, -0.5])
    target = GaussianMixture.single(mu, 1e-18)
    sch = Schedule()
    rng = np.random.default_rng(33)
    for t in (0.1, 0.5, 0.9):
        x = t * mu + (1 - t) * rng.normal(size=2)
        expect = mu - (x - t * mu) / (1 - t)
        got = mixture.velocity(target, sch, t, x)
        np.testing.assert_allclose(got, expect, rtol=1e-8, atol=1e-8)


# ---------------------------------------------------------------------------
# construction and validation


def test_single_constructor_forms():
    mean = np.array([1.0, 2.0])
    a = GaussianMixture.single(mean, 2.0)
    np.testing.assert_allclose(a.covariances[0], 2.0 * np.eye(2))
    b = GaussianMixture.single(mean, np.array([1.0, 4.0]))
    np.testing.assert_allclose(b.covariances[0], np.diag([1.0, 4.0]))
    full = np.array([[2.0, 0.5], [0.5, 1.0]])
    c = GaussianMixture.single(mean, full)
    np.testing.assert_allclose(c.covariances[0], full)
    assert a.weights.shape == (1,) and a.weights[0] == 1.0


def test_isotropic_constructor():
    means = np.array([[0.0, 0.0], [1.0, 1.0]])
    g = GaussianMixture.isotropic(means, np.array([0.5, 2.0]))
    np.testing.assert_allclose(g.covariances[0], 0.25 * np.eye(2))
    np.testing.assert_allclose(g.covariances[1], 4.0 * np.eye(2))
    np.testing.assert_allclose(g.weights, [0.5, 0.5])


def test_isotropic_rejects_a_wrong_number_of_scales():
    with pytest.raises(ShapeError, match="2 isotropic scales for 3 components"):
        GaussianMixture.isotropic(np.zeros((3, 2)), [1.0, 2.0])


@pytest.mark.parametrize("scales", [[-0.5], [0.0], [np.nan], [0.5, -2.0]])
def test_isotropic_rejects_non_positive_scales(scales):
    # A negative standard deviation was once squared into a valid variance.
    means = np.zeros((len(scales), 2))
    with pytest.raises(ConfigurationError, match="scales must be positive"):
        GaussianMixture.isotropic(means, scales)


def test_validation_errors():
    eye = np.stack([np.eye(2)])
    with pytest.raises(ConfigurationError):
        GaussianMixture(np.array([0.4, 0.4]), np.zeros((2, 2)), np.stack([np.eye(2)] * 2))
    with pytest.raises(ConfigurationError):
        GaussianMixture(np.array([-0.5, 1.5]), np.zeros((2, 2)), np.stack([np.eye(2)] * 2))
    with pytest.raises(ShapeError):
        GaussianMixture(np.array([1.0]), np.zeros((2, 2)), eye)
    with pytest.raises(ShapeError):
        GaussianMixture(np.array([1.0]), np.zeros((1, 2)), np.stack([np.eye(3)]))
    with pytest.raises(ShapeError, match="dim >= 1"):
        GaussianMixture(np.array([1.0]), np.zeros((1, 0)), np.zeros((1, 0, 0)))
    asym = np.array([[[1.0, 0.5], [-0.5, 1.0]]])
    with pytest.raises(ConfigurationError):
        GaussianMixture(np.array([1.0]), np.zeros((1, 2)), asym)
    not_pd = np.array([[[1.0, 2.0], [2.0, 1.0]]])
    with pytest.raises(ConfigurationError):
        GaussianMixture(np.array([1.0]), np.zeros((1, 2)), not_pd)
    for bad in (np.nan, np.inf):
        cov = eye.copy()
        cov[0, 1, 1] = bad
        with pytest.raises(ConfigurationError):
            GaussianMixture(np.array([bad]), np.zeros((1, 2)), eye)
        with pytest.raises(ConfigurationError):
            GaussianMixture(np.array([1.0]), np.array([[0.0, bad]]), eye)
        with pytest.raises(ConfigurationError):
            GaussianMixture(np.array([1.0]), np.zeros((1, 2)), cov)


def test_arrays_are_read_only():
    g = GaussianMixture.single(np.zeros(2), 1.0)
    with pytest.raises(ValueError):
        g.means[0, 0] = 5.0
    with pytest.raises(ValueError):
        g.weights[0] = 0.5
