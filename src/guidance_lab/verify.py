"""Self-verification suite: every analytic invariant checked in one run.

Each check pits two independent computational paths against each other
(closed form vs finite differences, Hessian algebra vs posterior moments,
assembled Jacobians vs scalar identities) and returns a CheckResult with
the measured discrepancy and the tolerance it was held to.  The suite is
deterministic for a fixed config seed and is sized to finish in well under
a minute.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import divergence as dvg
from . import guidance as gd
from . import metrics
from . import mixture as mix
from . import schedule as sched
from .errors import GuidanceLabError


def _json_number(value):
    """``value`` as a float, or None (JSON ``null``) when it is not finite."""
    value = float(value)
    return value if np.isfinite(value) else None


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    measured: float
    tolerance: float
    detail: str = ""

    def as_dict(self):
        return {
            "name": self.name,
            "passed": bool(self.passed),
            "measured": _json_number(self.measured),
            "tolerance": _json_number(self.tolerance),
            "detail": self.detail,
        }


def _rng(seed, *branch):
    return np.random.default_rng([seed, *branch])


def _random_mixture(rng, dim, components):
    weights = rng.uniform(0.5, 1.5, components)
    weights = weights / weights.sum()
    means = rng.normal(0.0, 2.0, (components, dim))
    covs = []
    for _ in range(components):
        q, _ = np.linalg.qr(rng.normal(size=(dim, dim)))
        eig = rng.uniform(0.3, 1.8, dim)
        covs.append(q @ np.diag(eig) @ q.T)
    return mix.GaussianMixture(weights, means, covs)


def _random_points(rng, target, schedule, t, count):
    """In-distribution evaluation points: marginal draws plus jitter."""
    marg = mix.marginal_at(target, schedule, t)
    pts = marg.sample(count, seed=int(rng.integers(2**31)))
    return pts + 0.1 * rng.normal(size=pts.shape)


# -- analytic-target invariants ------------------------------------------------------


def check_tweedie_consistency(config):
    """alpha * posterior mean == x + sigma^2 * score, two code paths."""
    tol = 1e-10
    worst = 0.0
    rng = _rng(config.seed, 1)
    targets = [config.pair.conditional, config.pair.unconditional]
    for d in (1, 2, 4):
        targets.append(_random_mixture(_rng(config.seed, 1, d), d, 3))
    for target in targets:
        for _ in range(8):
            t = rng.uniform(config.schedule.t_min, config.schedule.t_max)
            point = sched.evaluate(config.schedule, t)
            x = _random_points(rng, target, config.schedule, t, 4)
            post = mix.posterior(target, config.schedule, t, x)
            lhs = point.alpha * post.mean
            rhs = x + point.sigma**2 * mix.score(target, config.schedule, t, x)
            err = np.max(
                np.linalg.norm(lhs - rhs, axis=-1)
                / (1.0 + np.linalg.norm(rhs, axis=-1))
            )
            worst = max(worst, float(err))
    return CheckResult(
        name="tweedie_consistency",
        passed=worst <= tol,
        measured=worst,
        tolerance=tol,
        detail="alpha*posterior_mean vs x + sigma^2*score, relative",
    )


def check_laplacian_posterior_lemma(config):
    """Hessian-trace Laplacian vs (alpha^2 tr Cov - D sigma^2) / sigma^4."""
    tol = 1e-8
    worst = 0.0
    rng = _rng(config.seed, 2)
    targets = [config.pair.conditional, config.pair.unconditional]
    for d in (1, 2, 4):
        targets.append(_random_mixture(_rng(config.seed, 2, d), d, 3))
    for target in targets:
        for _ in range(10):
            t = rng.uniform(config.schedule.t_min, config.schedule.t_max)
            point = sched.evaluate(config.schedule, t)
            x = _random_points(rng, target, config.schedule, t, 3)
            lhs = mix.laplacian_log_density(target, config.schedule, t, x)
            trace = mix.posterior(target, config.schedule, t, x).cov_trace
            rhs = (point.alpha**2 * trace - target.dim * point.sigma**2) / (
                point.sigma**4
            )
            denom = np.maximum(np.abs(lhs), np.abs(rhs))
            err = np.max(np.abs(lhs - rhs) / np.where(denom > 0, denom, 1.0))
            worst = max(worst, float(err))
    return CheckResult(
        name="laplacian_posterior_lemma",
        passed=worst <= tol,
        measured=worst,
        tolerance=tol,
        detail="mixture-Hessian trace vs posterior-moment identity, relative",
    )


def check_score_matches_fd(config):
    """Score vs central finite differences of log_density."""
    tol = 1e-6
    step = 1e-5
    worst = 0.0
    for dim in (1, 2, 4):
        rng = _rng(config.seed, 3, dim)
        target = _random_mixture(rng, dim, 3)
        for _ in range(10):
            t = rng.uniform(0.05, 0.9)
            x = _random_points(rng, target, config.schedule, t, 1)[0]
            s = mix.score(target, config.schedule, t, x)
            fd = np.empty(dim)
            for i in range(dim):
                e = np.zeros(dim)
                e[i] = step
                fd[i] = (
                    mix.log_density(target, config.schedule, t, x + e)
                    - mix.log_density(target, config.schedule, t, x - e)
                ) / (2 * step)
            err = np.linalg.norm(fd - s) / (1.0 + np.linalg.norm(s))
            worst = max(worst, float(err))
    return CheckResult(
        name="score_matches_fd",
        passed=worst <= tol,
        measured=worst,
        tolerance=tol,
        detail="analytic score vs central differences of log_density",
    )


# Gauss-Legendre nodes per axis of the density-mass quadrature.
_MASS_NODES = 128


def _gauss_legendre(lo, hi):
    """Nodes and weights of the ``_MASS_NODES``-point rule on ``[lo, hi]``."""
    nodes, weights = np.polynomial.legendre.leggauss(_MASS_NODES)
    half = 0.5 * (hi - lo)
    return lo + half * (nodes + 1.0), half * weights


def check_density_mass(config):
    """Quadrature mass of exp(log_density) in D <= 2 is 1, to either side.

    A tensor-grid Gauss-Legendre rule over a box holding every component
    to many standard deviations: one ``log_density`` call per target and
    time, so excess mass fails as surely as missing mass.
    """
    tol = 1e-6
    schedule = config.schedule
    masses = []
    rng = _rng(config.seed, 4)
    target_1d = _random_mixture(rng, 1, 2)
    for t in (0.3, 0.7):
        marg = mix.marginal_at(target_1d, schedule, t)
        lo = float(np.min(marg.means)) - 10.0 * float(
            np.sqrt(np.max(marg.covariances))
        )
        hi = float(np.max(marg.means)) + 10.0 * float(
            np.sqrt(np.max(marg.covariances))
        )
        u, w = _gauss_legendre(lo, hi)
        density = np.exp(mix.log_density(target_1d, schedule, t, u[:, None]))
        masses.append(float(w @ density))
    for target in (config.pair.conditional, config.pair.unconditional):
        if target.dim != 2:
            continue
        t = 0.5
        marg = mix.marginal_at(target, schedule, t)
        spread = 9.0 * float(np.sqrt(np.max([np.trace(c) for c in marg.covariances])))
        lo = float(np.min(marg.means)) - spread
        hi = float(np.max(marg.means)) + spread
        u, w = _gauss_legendre(lo, hi)
        grid = np.stack(np.meshgrid(u, u, indexing="ij"), axis=-1).reshape(-1, 2)
        density = np.exp(mix.log_density(target, schedule, t, grid))
        masses.append(float(w @ density.reshape(_MASS_NODES, _MASS_NODES) @ w))
    worst = float(np.max(np.abs(np.array(masses) - 1.0)))
    return CheckResult(
        name="density_mass_quadrature",
        passed=worst <= tol,
        measured=worst,
        tolerance=tol,
        detail=f"max |quadrature mass of exp(log_density) - 1|, D in {{1,2}}, "
               f"{_MASS_NODES}-node Gauss-Legendre per axis",
    )


# -- guidance invariants -------------------------------------------------------------

_BETA_GRID = (0.0, 0.1, 1.0, 5.0, 20.0)


def check_projected_divergence_identity(config):
    """div(update) == scale(t) * (div g - (1 - beta) * div g_par)."""
    tol = 1e-8
    worst = 0.0
    pair, schedule = config.pair, config.schedule
    rng = _rng(config.seed, 5)
    g_field = gd.residual_field(pair.conditional, pair.unconditional, schedule)
    par_field = gd.parallel_component_field(
        pair.conditional, pair.unconditional, schedule
    )
    for beta in _BETA_GRID:
        cfg = gd.GuidanceConfig(
            rule=gd.GuidanceRule.PROJECTED,
            guidance_scale=5.0, min_scale=1.0, decay_power=4.0,
            parallel_scale=beta,
        )
        upd_field = gd.projected_update_field(
            pair.conditional, pair.unconditional, schedule, cfg
        )
        for _ in range(10):
            t = rng.uniform(0.1, schedule.t_max)
            x = _random_points(rng, pair.unconditional, schedule, t, 1)[0]
            lhs = upd_field.divergence(x, t)
            scale = sched.guidance_scale_at(cfg, t)
            rhs = scale * (
                g_field.divergence(x, t)
                - (1.0 - beta) * par_field.divergence(x, t)
            )
            denom = max(abs(lhs), abs(rhs), 1.0)
            worst = max(worst, abs(lhs - rhs) / denom)
    return CheckResult(
        name="projected_divergence_identity",
        passed=worst <= tol,
        measured=worst,
        tolerance=tol,
        detail=f"assembled-Jacobian trace vs scalar identity, beta in {_BETA_GRID}",
    )


def check_parallel_flux_scaling(config):
    """update . score == scale(t) * beta * (g . score) for oracle normals.

    The gap is measured against the scale at which the update is rounded,
    ``scale * (1 + |beta - 1|) * |g| * |score|``.  The update
    ``scale * (g + (beta - 1) g_par)`` can cancel to rounding noise (at
    beta = 0 with ``g`` along the normal), so a gap relative to the flux
    itself measures that noise, not the identity.
    """
    tol = 1e-8
    worst = 0.0
    pair, schedule = config.pair, config.schedule
    rng = _rng(config.seed, 6)
    for beta in _BETA_GRID:
        cfg = gd.GuidanceConfig(
            rule=gd.GuidanceRule.PROJECTED,
            guidance_scale=5.0, min_scale=1.0, decay_power=4.0,
            parallel_scale=beta,
        )
        for _ in range(10):
            t = rng.uniform(0.1, schedule.t_max)
            x = _random_points(rng, pair.unconditional, schedule, t, 1)[0]
            v_u = mix.velocity(pair.unconditional, schedule, t, x)
            v_c = mix.velocity(pair.conditional, schedule, t, x)
            update = gd.apply_guidance(v_u, v_c, x, t, schedule, cfg)
            s = mix.score(pair.conditional, schedule, t, x)
            lhs = float(update @ s)
            scale = sched.guidance_scale_at(cfg, t)
            rhs = scale * beta * float((v_c - v_u) @ s)
            rounding = (scale * (1.0 + abs(beta - 1.0))
                        * float(np.linalg.norm(v_c - v_u) * np.linalg.norm(s)))
            worst = max(worst, abs(lhs - rhs) / max(rounding, np.finfo(float).tiny))
    return CheckResult(
        name="parallel_flux_scaling",
        passed=worst <= tol,
        measured=worst,
        tolerance=tol,
        detail="score-parallel flux scales by beta, conditional normal source; "
               "gap relative to scale * (1 + |beta - 1|) * |g| * |score|",
    )


def _ulp_distance(a, b):
    scale = np.spacing(np.maximum(np.abs(a), np.abs(b)))
    return np.abs(a - b) / np.where(scale > 0, scale, 1.0)


def check_cfg_recovery(config):
    """parallel_scale=1, decay 0, floor=scale reproduces CFG to <= 4 ulp.

    The reference is the update the CFG sampler integrates, the literal
    ``omega * (v_c - v_u)``, computed here rather than by
    ``apply_guidance``, so a defect in that function cannot move both
    sides alike.  The guided velocity minus ``v_u`` is not a reference: it
    rounds at the scale of ``|v_u|``, which can exceed the update by
    orders of magnitude.
    """
    tol = 4.0
    worst = 0.0
    pair, schedule = config.pair, config.schedule
    rng = _rng(config.seed, 7)
    omega = config.guidance.guidance_scale
    cfg = gd.GuidanceConfig(
        rule=gd.GuidanceRule.PROJECTED,
        guidance_scale=omega, min_scale=omega, decay_power=0.0,
        parallel_scale=1.0, normal_source=config.guidance.normal_source,
    )
    for _ in range(50):
        t = rng.uniform(schedule.t_min, schedule.t_max)
        x = _random_points(rng, pair.unconditional, schedule, t, 1)[0]
        v_u = mix.velocity(pair.unconditional, schedule, t, x)
        v_c = mix.velocity(pair.conditional, schedule, t, x)
        update = gd.apply_guidance(v_u, v_c, x, t, schedule, cfg)
        reference = omega * (v_c - v_u)
        worst = max(worst, float(np.max(_ulp_distance(update, reference))))
    return CheckResult(
        name="cfg_recovery_ulps",
        passed=worst <= tol,
        measured=worst,
        tolerance=tol,
        detail="projected rule at parallel_scale=1 vs omega * (v_c - v_u), in ulps",
    )


def check_decompose_scale_free(config):
    """decompose(g, n, x) is invariant to positive rescaling of n.

    The split is the one the sampler runs, evaluated at the origin, where
    the degenerate-normal threshold is ``1e-12 * sqrt(dim)``: every
    rescaled normal here stays far above it.
    """
    tol = 1e-12
    worst = 0.0
    rng = _rng(config.seed, 8)
    for _ in range(25):
        dim = int(rng.integers(2, 6))
        g = rng.normal(size=dim)
        n = rng.normal(size=dim)
        origin = np.zeros(dim)
        par, _ = gd.decompose(g, n, origin)
        for c in (1e-6, 3.7, 1e6):
            par_c, _ = gd.decompose(g, c * n, origin)
            err = np.linalg.norm(par - par_c) / (1.0 + np.linalg.norm(par))
            worst = max(worst, float(err))
    return CheckResult(
        name="decompose_scale_free",
        passed=worst <= tol,
        measured=worst,
        tolerance=tol,
        detail="projection invariant to rescaling the normal",
    )


def _separated_gaussian_pair(rng, dim):
    """K=1 pair whose posterior-trace gap keeps one sign at every t.

    All conditional covariance eigenvalues sit strictly below all
    unconditional ones, so the per-eigenvalue trace map keeps the gap
    positive for every t and relative comparisons never divide by a
    sign-crossing zero.
    """

    def one(eig_lo, eig_hi):
        q, _ = np.linalg.qr(rng.normal(size=(dim, dim)))
        eig = rng.uniform(eig_lo, eig_hi, dim)
        cov = q @ np.diag(eig) @ q.T
        return mix.GaussianMixture.single(rng.normal(0.0, 2.0, dim), cov)

    return one(0.1, 0.45), one(0.9, 1.8)


def check_blowup_identity(config):
    """|div g| == (alpha/sigma^3) |trace gap| on single-Gaussian pairs."""
    tol = 1e-8
    worst = 0.0
    schedule = config.schedule
    rng = _rng(config.seed, 9)
    for trial in range(4):
        dim = int(rng.integers(1, 4))
        cond, uncond = _separated_gaussian_pair(rng, dim)
        field = gd.residual_field(cond, uncond, schedule)
        x = rng.normal(size=dim)
        ts = np.linspace(schedule.t_min, schedule.t_max, 50)
        for t in ts:
            point = sched.evaluate(schedule, float(t))
            lhs = abs(field.divergence(x, float(t)))
            gap = (
                mix.posterior(uncond, schedule, float(t), x).cov_trace
                - mix.posterior(cond, schedule, float(t), x).cov_trace
            )
            rhs = point.alpha / point.sigma**3 * abs(float(gap))
            denom = max(lhs, rhs, 1e-300)
            worst = max(worst, abs(lhs - rhs) / denom)
    return CheckResult(
        name="blowup_identity",
        passed=worst <= tol,
        measured=worst,
        tolerance=tol,
        detail="divergence via Laplacian gap vs posterior trace gap, 50 t-values",
    )


def check_blowup_rate(config):
    """Late-time |div g| grows like sigma^-3 for concentrated pairs."""
    lo, hi = -3.1, -2.9
    schedule = config.schedule
    cond = mix.GaussianMixture.single([0.1, 0.0], 5e-05**2 * np.eye(2))
    uncond = mix.GaussianMixture.single([0.0, 0.0], 1e-04**2 * np.eye(2))
    field = gd.residual_field(cond, uncond, schedule)
    x = np.array([0.05, 0.02])
    ts = np.linspace(0.9, schedule.t_max, 25)
    sigmas = np.array([sched.evaluate(schedule, float(t)).sigma for t in ts])
    divs = np.array([abs(field.divergence(x, float(t))) for t in ts])
    slope = metrics.loglog_slope(sigmas, divs)
    return CheckResult(
        name="blowup_rate_slope",
        passed=lo <= slope <= hi,
        measured=slope,
        tolerance=0.1,
        detail="log-log slope of |div g| vs sigma over t in [0.9, t_max]",
    )


# -- divergence invariants -----------------------------------------------------------


def _quadratic_field(dim):
    """v_i(x) = x_i * x_{i+1 mod dim}: quadratic, off-diagonal Jacobian."""

    def fn(x, t):
        rolled = np.roll(x, -1, axis=-1)
        return x * rolled

    return gd.VectorField(fn=fn, dim=dim, label="quadratic")


def check_hutchinson_unbiased(config):
    """10^4-probe estimate vs dense finite differences on a quadratic field."""
    dim = 6
    field = _quadratic_field(dim)
    rng = _rng(config.seed, 10)
    x = rng.normal(size=dim)
    cfg = dvg.HutchinsonConfig(probes=10_000, seed=config.seed)
    est = dvg.divergence_hutchinson(field, 0.5, x, cfg)
    dense = dvg.divergence_fd_dense(field, 0.5, x)
    gap = abs(est.value - dense)
    limit = 3.0 * est.stderr
    return CheckResult(
        name="hutchinson_unbiased_quadratic",
        passed=gap <= limit,
        measured=gap,
        tolerance=limit,
        detail=f"|estimate - dense fd| vs 3*stderr at {cfg.probes} probes",
    )


def check_hutchinson_deterministic(config):
    """Identical seeds give bit-identical estimates."""
    pair, schedule = config.pair, config.schedule
    field = gd.residual_field(pair.conditional, pair.unconditional, schedule)
    x = _random_points(_rng(config.seed, 11), pair.unconditional, schedule, 0.5, 1)[0]
    cfg = dvg.HutchinsonConfig(probes=64, seed=config.seed)
    first = dvg.divergence_hutchinson(field, 0.5, x, cfg)
    second = dvg.divergence_hutchinson(field, 0.5, x, cfg)
    same = first.value == second.value and first.stderr == second.stderr
    return CheckResult(
        name="hutchinson_deterministic",
        passed=same,
        measured=abs(first.value - second.value),
        tolerance=0.0,
        detail="repeated estimate with the same seed is bit-identical",
    )


def check_parallel_ratio_trend(config):
    """Median |div g_par| / |div g| falls roughly like 1/D.

    Mean-shifted pairs with a small covariance gap, evaluated at draws
    from the conditional marginal: there the residual's divergence is a
    constant ``kappa * D`` while the parallel field's divergence adds a
    fluctuation term whose size relative to ``kappa * D`` shrinks like
    ``1/D`` -- the rank-one-projection mechanism behind the trend.
    """
    lo, hi = -1.5, -0.5
    schedule = config.schedule
    dims = (2, 8, 64, 512)
    t = 0.5
    medians = []
    for dim in dims:
        rng = _rng(config.seed, 12, dim)
        direction = rng.normal(size=dim)
        direction /= np.linalg.norm(direction)
        uncond = mix.GaussianMixture.single(np.zeros(dim), np.eye(dim))
        cond = mix.GaussianMixture.single(
            15.0 * direction, 0.995**2 * np.eye(dim)
        )
        marg_c = mix.marginal_at(cond, schedule, t)
        points = marg_c.sample(16, seed=int(rng.integers(2**31)))
        g_field = gd.residual_field(cond, uncond, schedule)
        par_field = gd.parallel_component_field(cond, uncond, schedule)
        ratios = []
        for x in points:
            div_g = g_field.divergence(x, t)
            div_par = par_field.divergence(x, t)
            ratios.append(abs(div_par) / abs(div_g))
        medians.append(_median(ratios))
    slope = metrics.loglog_slope(np.array(dims, float), np.array(medians))
    return CheckResult(
        name="parallel_ratio_dimension_trend",
        passed=lo <= slope <= hi,
        measured=slope,
        tolerance=0.5,
        detail=f"median ratio at D={dims}: "
               + ", ".join(f"{m:.3e}" for m in medians),
    )


def _median(values):
    """``np.median`` of a 1-d sample, bit for bit, without the ``numpy.ma``
    import of its NaN check: the mean of the middle one or two order
    statistics, or NaN if any entry is NaN."""
    ordered = np.sort(values)
    half = ordered.size // 2
    middle = ordered[half - 1 + ordered.size % 2:half + 1]
    return math.nan if math.isnan(ordered[-1]) else float(middle.mean())


def _relative_gap(a, b):
    """``|a - b|`` relative to the larger magnitude, with a floor of 1."""
    return np.abs(a - b) / np.maximum(np.maximum(np.abs(a), np.abs(b)), 1.0)


def _affine_fit(xs, ys):
    """Least-squares line through ``(xs, ys[i])`` for every row ``i`` of
    ``ys``: the slopes, the intercepts and the lines' values at ``xs``."""
    xs = np.asarray(xs, dtype=float)
    dx = xs - xs.mean()
    slope = (ys - ys.mean(axis=1, keepdims=True)) @ dx / (dx @ dx)
    intercept = ys.mean(axis=1) - slope * xs.mean()
    return slope, intercept, intercept[:, None] + slope[:, None] * xs


def check_beta_affinity(config):
    """div(update_beta) / scale(t) is affine in parallel_scale, with slope
    div g_par and intercept div g - div g_par.

    Each value comes from the assembled Jacobian of the update field at one
    beta; the line is fitted across the beta grid, so an update whose
    divergence moved other than linearly in beta fails even where it
    matches the scalar identity at beta = 0 and 1.
    """
    tol = 1e-8
    pair, schedule = config.pair, config.schedule
    rng = _rng(config.seed, 13)
    g_field = gd.residual_field(pair.conditional, pair.unconditional, schedule)
    par_field = gd.parallel_component_field(
        pair.conditional, pair.unconditional, schedule
    )
    times, points = [], []
    for _ in range(8):
        t = rng.uniform(0.1, schedule.t_max)
        times.append(t)
        points.append(_random_points(rng, pair.unconditional, schedule, t, 1)[0])
    times, points = np.array(times), np.array(points)
    columns = []
    for beta in _BETA_GRID:
        cfg = gd.GuidanceConfig(
            rule=gd.GuidanceRule.PROJECTED,
            guidance_scale=5.0, min_scale=1.0, decay_power=4.0,
            parallel_scale=beta,
        )
        upd = gd.projected_update_field(
            pair.conditional, pair.unconditional, schedule, cfg
        )
        columns.append(
            upd.divergence(points, times) / sched.guidance_scale_at(cfg, times))
    values = np.column_stack(columns)
    slope, intercept, line = _affine_fit(_BETA_GRID, values)
    div_g = g_field.divergence(points, times)
    div_par = par_field.divergence(points, times)
    measured = float(max(
        np.max(_relative_gap(values, line)),
        np.max(_relative_gap(slope, div_par)),
        np.max(_relative_gap(intercept, div_g - div_par)),
    ))
    return CheckResult(
        name="update_divergence_affine_in_beta",
        passed=measured <= tol,
        measured=measured,
        tolerance=tol,
        detail="div(update)/scale over beta: line residual, slope vs div g_par, "
               "intercept vs div g - div g_par",
    )


ALL_CHECKS = (
    check_tweedie_consistency,
    check_laplacian_posterior_lemma,
    check_score_matches_fd,
    check_density_mass,
    check_projected_divergence_identity,
    check_parallel_flux_scaling,
    check_cfg_recovery,
    check_decompose_scale_free,
    check_blowup_identity,
    check_blowup_rate,
    check_hutchinson_unbiased,
    check_hutchinson_deterministic,
    check_parallel_ratio_trend,
    check_beta_affinity,
)


def run_all_checks(config):
    """Run every invariant check; numerical failures become failed checks."""
    results = []
    for check in ALL_CHECKS:
        try:
            results.append(check(config))
        except GuidanceLabError as exc:
            results.append(
                CheckResult(
                    name=check.__name__.removeprefix("check_"),
                    passed=False,
                    measured=float("nan"),
                    tolerance=float("nan"),
                    detail=f"raised {type(exc).__name__}: {exc}",
                )
            )
    return results


def report_dict(results):
    return {
        "passed": bool(all(r.passed for r in results)),
        "checks": [r.as_dict() for r in results],
    }
