"""Acceptance suite: ten pinned criteria for the guidance laboratory.

Each test measures one end-to-end property against an independent oracle
and prints a single ``[PASS]``/``[FAIL]`` line (visible with ``pytest -rP``
or ``-s``) before asserting.  Tolerances are fixed here on purpose; loosen
none of them.
"""

import time

import numpy as np

from guidance_lab import (
    GaussianMixture,
    GuidanceConfig,
    GuidanceRule,
    HutchinsonConfig,
    SamplerConfig,
    Schedule,
    TargetPair,
    VectorField,
    conservation_residual,
    cli,
    default_config,
    default_target_pair,
    divergence_hutchinson,
    draw_initial_state,
    energy_distance,
    initial_states,
    integrate,
    loglog_slope,
    mixture,
    parallel_component_field,
    projected_update_field,
    residual_field,
    score_rotation_field,
    target_to_dict,
)
from guidance_lab.schedule import evaluate, guidance_scale_at
from guidance_lab.verify import _random_mixture, _separated_gaussian_pair


def _report(num, passed, detail):
    status = "PASS" if passed else "FAIL"
    print(f"[{status}] criterion {num}: {detail}")
    assert passed, f"criterion {num}: {detail}"


# ---------------------------------------------------------------------------
# criterion 1: conservative guidance preserves the evolving density


def _log_density_summary(target, sch, batch):
    """Per-step mean and standard error of the oracle log-density of a
    batch's states under ``target``'s marginal at each grid time."""
    logs = np.array([mixture.log_density(target, sch, float(t), states)
                     for t, states in zip(batch.times, batch.states)])
    count = logs.shape[1]
    return logs.mean(axis=1), logs.std(axis=1, ddof=1) / np.sqrt(count)


def test_criterion_01_conservation():
    t0 = time.perf_counter()
    rng = np.random.default_rng(1001)
    sch = Schedule()

    # (a) pointwise: div g + <g, score> vanishes for the rotated-score field
    # on an isotropic Gaussian, at 1000 random states and times.
    iso = GaussianMixture.single(np.zeros(2), 1.0)
    rot = score_rotation_field(iso, sch, scale=0.5)
    worst = 0.0
    for _ in range(1000):
        t = float(rng.uniform(sch.t_min, sch.t_max))
        x = rng.normal(0.0, 1.5, size=2)
        worst = max(worst, abs(conservation_residual(rot, iso, sch, t, x)))

    # (b) distributional: a 30-step batch integrated with the conservative
    # field matches the unguided batch's mean oracle log-density at every
    # recorded step, within twice the (smaller) standard error.
    pair = TargetPair(conditional=iso, unconditional=iso)
    zero = VectorField(fn=lambda x, t: np.zeros_like(x), dim=2)
    scfg = SamplerConfig(steps=30, seed=77)
    x0s = initial_states(2000, 2, scfg.seed)
    guided = _log_density_summary(iso, sch, integrate(
        x0s, pair, sch, GuidanceConfig(), scfg, guidance_field=rot))
    plain = _log_density_summary(iso, sch, integrate(
        x0s, pair, sch, GuidanceConfig(), scfg, guidance_field=zero))
    gap = np.abs(guided[0] - plain[0])
    band = 2.0 * np.minimum(guided[1], plain[1])
    bad_steps = int(np.sum(gap > band))

    elapsed = time.perf_counter() - t0
    passed = worst <= 1e-8 and bad_steps == 0 and elapsed < 30.0
    _report(1, passed,
            f"max |div g + g.score| = {worst:.3e} (tol 1e-08), "
            f"log-density band violations {bad_steps}/31, {elapsed:.1f}s (<30s)")


# ---------------------------------------------------------------------------
# criterion 2: residual-divergence identity and its sigma^-3 blow-up


def test_criterion_02_divergence_identity_and_blowup():
    t0 = time.perf_counter()
    rng = np.random.default_rng(2002)
    sch = Schedule()

    worst = 0.0
    for _ in range(4):
        cond, uncond = _separated_gaussian_pair(rng, 2)
        field = residual_field(cond, uncond, sch)
        x = rng.normal(0.0, 1.0, size=2)
        for t in np.linspace(sch.t_min, sch.t_max, 50):
            t = float(t)
            route_a = field.divergence(x, t)
            alpha, sigma, _, _ = evaluate(sch, t)
            tr_c = mixture.posterior(cond, sch, t, x).cov_trace
            tr_u = mixture.posterior(uncond, sch, t, x).cov_trace
            route_b = (alpha / sigma ** 3) * (tr_c - tr_u)
            rel = abs(route_a - route_b) / max(abs(route_a), abs(route_b), 1e-300)
            worst = max(worst, rel)

    # blow-up rate: for a near-degenerate pair the late-time residual
    # divergence scales like sigma^-3.
    cond = GaussianMixture.isotropic(np.array([[0.1, 0.0]]), np.array([5e-5]))
    uncond = GaussianMixture.isotropic(np.array([[0.0, 0.0]]), np.array([1e-4]))
    field = residual_field(cond, uncond, sch)
    x = np.array([0.05, 0.02])
    ts = np.linspace(0.9, sch.t_max, 25)
    sigmas = 1.0 - ts
    divs = np.array([abs(field.divergence(x, float(t))) for t in ts])
    slope = loglog_slope(sigmas, divs)

    elapsed = time.perf_counter() - t0
    passed = worst <= 1e-8 and abs(slope + 3.0) <= 0.1 and elapsed < 10.0
    _report(2, passed,
            f"identity max rel err = {worst:.3e} (tol 1e-08), "
            f"blow-up slope = {slope:.3f} (want -3.0 +/- 0.1), "
            f"{elapsed:.1f}s (<10s)")


# ---------------------------------------------------------------------------
# criterion 3: Laplacian oracle against a five-point stencil


def test_criterion_03_laplacian_vs_stencil():
    t0 = time.perf_counter()
    rng = np.random.default_rng(3003)
    sch = Schedule()
    h = 5e-3
    worst = 0.0
    dims = (1, 2, 4)
    for i in range(100):
        dim = dims[i % 3]
        target = _random_mixture(rng, dim, int(rng.integers(1, 4)))
        t = float(rng.uniform(0.05, 0.95))
        # evaluate near the mass of the marginal so the Laplacian is O(1)
        x = mixture.sample(target, sch, t, 1, i)[0]
        x = x + 0.1 * rng.normal(size=dim)
        exact = mixture.laplacian_log_density(target, sch, t, x)
        stencil = 0.0
        f0 = mixture.log_density(target, sch, t, x)
        for axis in range(dim):
            e = np.zeros(dim)
            e[axis] = h
            fp1 = mixture.log_density(target, sch, t, x + e)
            fm1 = mixture.log_density(target, sch, t, x - e)
            fp2 = mixture.log_density(target, sch, t, x + 2 * e)
            fm2 = mixture.log_density(target, sch, t, x - 2 * e)
            stencil += (-fp2 + 16 * fp1 - 30 * f0 + 16 * fm1 - fm2) / (12 * h * h)
        rel = abs(exact - stencil) / max(abs(exact), 1e-12)
        worst = max(worst, rel)
    elapsed = time.perf_counter() - t0
    passed = worst <= 1e-4 and elapsed < 60.0
    _report(3, passed,
            f"max rel err over 100 triples (dims 1/2/4) = {worst:.3e} "
            f"(tol 1e-04), {elapsed:.1f}s (<60s)")


# ---------------------------------------------------------------------------
# criterion 4: projected-update divergence identity, affinity in beta, and D-trend


def test_criterion_04_projected_divergence_structure():
    t0 = time.perf_counter()
    rng = np.random.default_rng(4004)
    sch = Schedule()
    betas = (0.0, 0.1, 1.0, 5.0, 20.0)

    # (a) identity: the Jacobian-trace route of the assembled update field
    # equals the scalar decomposition route at 1e-8, for every beta.
    # (b) affinity: across the beta sweep, div(update) / omega(t) lies on a
    # line with slope div g_par and intercept div g - div g_par, to 1e-8.
    worst = 0.0
    affine_worst = 0.0
    for _ in range(4):
        cond, uncond = _separated_gaussian_pair(rng, 2)
        g_field = residual_field(cond, uncond, sch)
        par_field = parallel_component_field(cond, uncond, sch)
        for _ in range(12):
            t = float(rng.uniform(sch.t_min, sch.t_max))
            x = rng.normal(0.0, 1.0, size=2)
            div_g = g_field.divergence(x, t)
            div_par = par_field.divergence(x, t)
            scaled = []
            for beta in betas:
                config = GuidanceConfig(
                    rule=GuidanceRule.PROJECTED, guidance_scale=5.0,
                    min_scale=1.0, decay_power=4.0, parallel_scale=beta,
                )
                upd = projected_update_field(cond, uncond, sch, config)
                lhs = upd.divergence(x, t)
                omega = guidance_scale_at(config, t)
                rhs = omega * (div_g + (beta - 1.0) * div_par)
                rel = abs(lhs - rhs) / max(abs(lhs), abs(rhs), 1.0)
                worst = max(worst, rel)
                scaled.append(lhs / omega)
            slope, intercept = np.polyfit(betas, scaled, 1)
            line = np.polyval([slope, intercept], betas)
            for got, want in [(slope, div_par), (intercept, div_g - div_par),
                              *zip(scaled, line)]:
                rel = abs(got - want) / max(abs(got), abs(want), 1.0)
                affine_worst = max(affine_worst, rel)

    # (c) dimension trend: for a mean-separated pair the parallel share of
    # the divergence decays like 1/D.
    dims = (2, 8, 64, 512)
    medians = []
    for d_i, dim in enumerate(dims):
        direction = np.zeros(dim)
        direction[0] = 1.0
        uncond = GaussianMixture.single(np.zeros(dim), 1.0)
        cond = GaussianMixture.single(15.0 * direction, 0.995 ** 2)
        g_field = residual_field(cond, uncond, sch)
        par_field = parallel_component_field(cond, uncond, sch)
        t = 0.5
        pts = mixture.sample(cond, sch, t, 16, 900 + d_i)
        ratios = []
        for x in pts:
            div_g = g_field.divergence(x, t)
            div_par = par_field.divergence(x, t)
            ratios.append(abs(div_par) / max(abs(div_g), 1e-300))
        medians.append(float(np.median(ratios)))
    trend = loglog_slope(np.array(dims, dtype=float), np.array(medians))

    elapsed = time.perf_counter() - t0
    passed = (worst <= 1e-8 and affine_worst <= 1e-8
              and -1.5 <= trend <= -0.5 and elapsed < 180.0)
    _report(4, passed,
            f"identity max rel err = {worst:.3e} (tol 1e-08), "
            f"affine-in-beta max rel err = {affine_worst:.3e} (tol 1e-08), "
            f"parallel-share slope over D = {trend:.3f} (want [-1.5, -0.5]), "
            f"{elapsed:.1f}s (<180s)")


# ---------------------------------------------------------------------------
# criterion 5: velocity route agreement and Tweedie round-trip


def test_criterion_05_velocity_and_tweedie():
    t0 = time.perf_counter()
    rng = np.random.default_rng(5005)
    sch = Schedule()
    worst_v = 0.0
    worst_tw = 0.0
    count = 0
    for dim in (1, 2, 5):
        for _ in range(4):
            target = _random_mixture(rng, dim, int(rng.integers(1, 4)))
            for t in rng.uniform(sch.t_min, sch.t_max, size=4):
                t = float(t)
                xs = rng.normal(0.0, 1.5, size=(21, dim))
                count += xs.shape[0]
                via_score = mixture.velocity(target, sch, t, xs)
                via_pred = mixture._predictor_velocity(target, sch, t, xs)
                scale = max(1.0, float(np.max(np.abs(via_score))))
                worst_v = max(worst_v,
                              float(np.max(np.abs(via_score - via_pred))) / scale)

                alpha, sigma, _, _ = evaluate(sch, t)
                post = mixture.posterior(target, sch, t, xs)
                s = mixture.score(target, sch, t, xs)
                x_back = alpha * post.mean - sigma * sigma * s
                xscale = max(1.0, float(np.max(np.abs(xs))))
                worst_tw = max(worst_tw,
                               float(np.max(np.abs(x_back - xs))) / xscale)
    elapsed = time.perf_counter() - t0
    passed = worst_v <= 1e-10 and worst_tw <= 1e-10 and count >= 1000
    _report(5, passed,
            f"velocity route gap = {worst_v:.3e}, Tweedie round-trip gap = "
            f"{worst_tw:.3e} (tol 1e-10, {count} inputs), {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# criterion 6: Hutchinson coverage and stderr scaling


def test_criterion_06_hutchinson_calibration():
    t0 = time.perf_counter()
    sch = Schedule()
    # Full covariances with distinct orientations: the residual Jacobian
    # then has real off-diagonal mass, so Rademacher probes carry genuine
    # Monte-Carlo spread (a factorized pair would make every probe equal).
    cond = GaussianMixture.single(np.array([1.2, 0.4]),
                                  np.array([[0.5, 0.15], [0.15, 0.8]]))
    uncond = GaussianMixture(
        np.array([0.5, 0.5]),
        np.array([[1.5, -0.5], [-1.5, 0.5]]),
        np.array([[[1.0, 0.3], [0.3, 0.9]], [[1.1, -0.2], [-0.2, 0.7]]]),
    )
    field = residual_field(cond, uncond, sch)
    t, x = 0.5, np.array([0.2, 0.8])
    exact = field.divergence(x, t)

    covered = 0
    for seed in range(100):
        est = divergence_hutchinson(
            field, t, x, HutchinsonConfig(probes=256, seed=seed)
        )
        if abs(est.value - exact) <= 4.0 * est.stderr:
            covered += 1

    ks = (16, 64, 256, 1024, 4096)
    mean_stderr = []
    for k in ks:
        vals = [
            divergence_hutchinson(
                field, t, x, HutchinsonConfig(probes=k, seed=200 + s)
            ).stderr
            for s in range(8)
        ]
        mean_stderr.append(float(np.mean(vals)))
    slope = loglog_slope(np.array(ks, dtype=float), np.array(mean_stderr))

    elapsed = time.perf_counter() - t0
    passed = covered >= 95 and abs(slope + 0.5) <= 0.1
    _report(6, passed,
            f"4-sigma coverage {covered}/100 (need >= 95), stderr slope vs "
            f"probes = {slope:.3f} (want -0.5 +/- 0.1), {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# criterion 7: CFG recovery at parallel_scale 1 with a constant scale


def test_criterion_07_cfg_recovery():
    t0 = time.perf_counter()
    sch = Schedule()
    cond = GaussianMixture.single(np.array([1.5, 0.0]), 0.5)
    uncond = GaussianMixture.isotropic(
        np.array([[1.5, 0.0], [-1.5, 0.0]]), np.array([1.0, 1.0])
    )
    pair = TargetPair(conditional=cond, unconditional=uncond)
    # beta = 1, gamma = 0, floor pinned to the reference scale: the update
    # reduces algebraically to plain CFG and must match it bit-for-bit up
    # to associativity.
    omega = 3.0
    cfg_rule = GuidanceConfig(rule=GuidanceRule.CFG, guidance_scale=omega,
                              min_scale=omega, decay_power=0.0,
                              parallel_scale=1.0)
    proj_rule = GuidanceConfig(rule=GuidanceRule.PROJECTED, guidance_scale=omega,
                               min_scale=omega, decay_power=0.0,
                               parallel_scale=1.0)
    scfg = SamplerConfig(steps=30)
    worst_ulp = 0.0
    for seed in range(100):
        x0 = draw_initial_state(2, seed)
        a = integrate(x0, pair, sch, cfg_rule, scfg)
        b = integrate(x0, pair, sch, proj_rule, scfg)
        spacing = np.spacing(np.maximum(np.abs(a.states), np.abs(b.states)))
        worst_ulp = max(worst_ulp,
                        float(np.max(np.abs(a.states - b.states) / spacing)))
    elapsed = time.perf_counter() - t0
    passed = worst_ulp <= 4.0
    _report(7, passed,
            f"max state deviation over 100 seeds x 30 steps = {worst_ulp:.1f} "
            f"ulp (tol 4), {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# criterion 8: divergence profile shape and per-step identity


def test_criterion_08_divergence_profile(tmp_path):
    t0 = time.perf_counter()
    sch = Schedule()
    pair = default_target_pair()
    betas = (0.0, 0.1, 0.5, 1.0)
    # The trace_divergence kind's default config is this criterion's setup:
    # the default pair, 240 steps from seed 0, and omega(t) = 1.
    config = default_config("trace_divergence")
    assert config.beta_sweep == betas and config.schedule == sch
    assert (config.sampler.steps, config.sampler.seed) == (240, 0)
    assert (config.guidance.guidance_scale, config.guidance.min_scale,
            config.guidance.decay_power) == (1.0, 1.0, 0.0)
    for name in ("conditional", "unconditional"):
        assert target_to_dict(getattr(config.pair, name)) == target_to_dict(
            getattr(pair, name))
    assert cli.main(["trace_divergence", "--out", str(tmp_path)]) == 0
    header, *lines = (tmp_path / "trace_divergence.csv").read_text().splitlines()
    columns = header.split(",")
    table = np.array([[float(v) for v in line.split(",")] for line in lines])

    scfg = SamplerConfig(steps=240, seed=0)
    reference_rule = GuidanceConfig(rule=GuidanceRule.CFG, guidance_scale=1.0,
                                    min_scale=0.0, decay_power=0.0,
                                    parallel_scale=1.0)
    record = integrate(draw_initial_state(2, 0), pair, sch, reference_rule, scfg)
    assert np.array_equal(table[:, columns.index("t")], record.times)

    # Shape: the raw-residual row (beta = 1) must spike late; its largest
    # value over the first 80% of steps is at most a tenth of its largest
    # value over the last 10%.
    vals = table[:, columns.index("div_g_beta_1")]
    early_max = float(np.max(vals[: int(0.8 * 240)]))
    late_max = float(np.max(vals[int(0.9 * 240):]))
    shape_ok = early_max <= 0.1 * late_max

    # Identity: every beta row, the scalar decomposition identity, equals
    # the trace of the assembled update Jacobian at that state.
    gaps = []
    for beta in betas:
        rule = GuidanceConfig(guidance_scale=1.0, min_scale=1.0,
                              decay_power=0.0, parallel_scale=beta)
        jac = projected_update_field(pair.conditional, pair.unconditional, sch,
                                     rule).jacobian(record.states, record.times)
        expect = np.abs(np.trace(jac, axis1=1, axis2=2)) / 2.0  # omega(t) = 1
        got = table[:, columns.index(f"div_g_beta_{beta:g}")]
        gaps.append(np.abs(got - expect) / np.maximum(expect, 1.0))
    worst = float(np.max(gaps))  # NaN anywhere fails the bound

    elapsed = time.perf_counter() - t0
    passed = shape_ok and worst <= 1e-8
    _report(8, passed,
            f"raw-residual profile early/late max = {early_max:.3f}/"
            f"{late_max:.1f} (need early <= 0.1 x late), per-step identity "
            f"max rel err = {worst:.3e} (tol 1e-08), {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# criterion 9: projected guidance beats CFG at high scale


def test_criterion_09_sample_quality():
    t0 = time.perf_counter()
    sch = Schedule()
    pair = default_target_pair()
    omega = 15.0
    cfg_rule = GuidanceConfig(rule=GuidanceRule.CFG, guidance_scale=omega,
                              min_scale=0.0, decay_power=0.0, parallel_scale=1.0)
    proj_rule = GuidanceConfig(rule=GuidanceRule.PROJECTED, guidance_scale=omega,
                               min_scale=1.0, decay_power=4.0,
                               parallel_scale=0.1)
    n = 5000
    wins = 0
    details = []
    for seed in range(10):
        scfg = SamplerConfig(steps=30, seed=seed)
        oracle = mixture.sample(pair.conditional, sch, sch.t_max, n, 1000 + seed)
        x0s = initial_states(n, pair.dim, scfg.seed)
        ed_cfg = energy_distance(
            integrate(x0s, pair, sch, cfg_rule, scfg).terminal_state, oracle
        )
        ed_proj = energy_distance(
            integrate(x0s, pair, sch, proj_rule, scfg).terminal_state, oracle
        )
        if ed_proj <= ed_cfg:
            wins += 1
        details.append((ed_proj, ed_cfg))
    med_proj = float(np.median([d[0] for d in details]))
    med_cfg = float(np.median([d[1] for d in details]))
    elapsed = time.perf_counter() - t0
    passed = wins >= 8 and elapsed < 300.0
    _report(9, passed,
            f"projected <= cfg energy distance in {wins}/10 seeds (need >= 8); "
            f"median ED projected {med_proj:.4f} vs cfg {med_cfg:.4f}, "
            f"{elapsed:.1f}s (<300s)")


# ---------------------------------------------------------------------------
# criterion 10: first-order convergence of the Euler integrator


def test_criterion_10_euler_order():
    t0 = time.perf_counter()
    sch = Schedule()
    cond = GaussianMixture.single(np.array([1.5, 0.5]), np.array([0.4, 0.7]))
    uncond = GaussianMixture.isotropic(
        np.array([[1.5, 0.5], [-1.5, -0.5]]), np.array([1.0, 0.9])
    )
    pair = TargetPair(conditional=cond, unconditional=uncond)
    rule = GuidanceConfig()  # projected defaults: smooth scheduled update
    step_counts = (32, 64, 128, 256)
    starts = [draw_initial_state(2, seed) for seed in range(5)]
    fine = [
        integrate(x0, pair, sch, rule, SamplerConfig(steps=4096)).terminal_state
        for x0 in starts
    ]
    errors = []
    for steps in step_counts:
        errs = [
            float(np.linalg.norm(
                integrate(x0, pair, sch, rule,
                          SamplerConfig(steps=steps)).terminal_state - ref
            ))
            for x0, ref in zip(starts, fine)
        ]
        errors.append(float(np.mean(errs)))
    slope = loglog_slope(np.array(step_counts, dtype=float), np.array(errors))
    order = -slope
    elapsed = time.perf_counter() - t0
    passed = abs(order - 1.0) <= 0.15
    _report(10, passed,
            f"terminal-error order = {order:.3f} (want 1.0 +/- 0.15) over "
            f"steps {step_counts}, {elapsed:.1f}s")
