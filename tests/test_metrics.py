"""Tests for energy distance, its permutation null, and slope fits."""

import json
import os
import subprocess
import sys

import numpy as np
import pytest

from guidance_lab import (
    ConfigurationError,
    DomainError,
    GaussianMixture,
    ShapeError,
    energy_distance,
    loglog_slope,
    permutation_test,
    target_to_dict,
)
from guidance_lab import metrics


# ---------------------------------------------------------------------------
# energy distance


def test_point_mass_exact_value():
    # Every point of `a` sits at the origin and every point of `b` at (3,4):
    # within-terms vanish and the distance is exactly 2 * 5.
    a = np.zeros((4, 2))
    b = np.tile([3.0, 4.0], (5, 1))
    assert energy_distance(a, b) == 10.0


def test_two_point_set_against_itself():
    # For a = b = {p, q} the U-statistic equals -d(p, q) exactly: its
    # unbiasedness makes it negative on equal distributions.
    pts = np.array([[0.0, 0.0], [3.0, 4.0]])
    assert energy_distance(pts, pts) == -5.0
    a = np.random.default_rng(1).normal(size=(17, 3))
    assert energy_distance(a, a.copy()) < 0.0


def test_exact_symmetry():
    rng = np.random.default_rng(2)
    a = rng.normal(size=(7, 2))
    b = rng.normal(loc=0.3, size=(9, 2))
    assert energy_distance(a, b) == energy_distance(b, a)


def test_scale_equivariance():
    rng = np.random.default_rng(3)
    a = rng.normal(size=(12, 2))
    b = rng.normal(loc=1.0, size=(10, 2))
    base = energy_distance(a, b)
    for c in (0.1, 2.0, 250.0):
        scaled = energy_distance(c * a, c * b)
        assert scaled == pytest.approx(c * base, rel=1e-12)


def test_translation_invariance():
    rng = np.random.default_rng(4)
    a = rng.normal(size=(8, 3))
    b = rng.normal(size=(8, 3))
    shift = np.array([5.0, -2.0, 0.5])
    assert energy_distance(a + shift, b + shift) == pytest.approx(
        energy_distance(a, b), rel=1e-12, abs=1e-12
    )


def test_separated_samples_dominate_overlapping_ones():
    rng = np.random.default_rng(5)
    a = rng.normal(size=(40, 2))
    near = rng.normal(loc=0.1, size=(40, 2))
    far = rng.normal(loc=4.0, size=(40, 2))
    assert energy_distance(a, far) > energy_distance(a, near)
    assert energy_distance(a, far) > 1.0


def test_sample_validation():
    good = np.zeros((3, 2))
    with pytest.raises(ShapeError):
        energy_distance(np.zeros(3), good)
    with pytest.raises(ShapeError):
        energy_distance(np.zeros((3, 1)), good)
    with pytest.raises(ShapeError):
        energy_distance(np.zeros((1, 2)), good)


# ---------------------------------------------------------------------------
# permutation test


def test_shifted_distribution_exceeds_null():
    rng = np.random.default_rng(6)
    a = rng.normal(size=(80, 2))
    b = rng.normal(loc=[2.0, 0.0], size=(80, 2))
    res = permutation_test(a, b, n_perm=200, seed=0)
    assert res.statistic > res.null_quantiles[0.99]
    assert res.n_perm == 200
    assert set(res.null_quantiles) == {0.5, 0.9, 0.95, 0.99}


def test_equal_distribution_calibration():
    # Under the null the statistic should rarely exceed the 95th null
    # quantile; with ten seeded repetitions we allow one excursion.
    hits = 0
    for seed in range(10):
        rng = np.random.default_rng(100 + seed)
        a = rng.normal(size=(50, 2))
        b = rng.normal(size=(50, 2))
        res = permutation_test(a, b, n_perm=150, seed=seed)
        if res.statistic <= res.null_quantiles[0.95]:
            hits += 1
    assert hits >= 9


def test_permutation_deterministic():
    rng = np.random.default_rng(7)
    a = rng.normal(size=(30, 2))
    b = rng.normal(loc=0.5, size=(30, 2))
    r1 = permutation_test(a, b, n_perm=120, seed=42)
    r2 = permutation_test(a, b, n_perm=120, seed=42)
    assert r1.statistic == r2.statistic
    assert r1.null_quantiles == r2.null_quantiles
    r3 = permutation_test(a, b, n_perm=120, seed=43)
    assert r3.null_quantiles != r1.null_quantiles


def test_null_matches_per_permutation_reference():
    # The reference recomputes the energy distance of every label split
    # drawn from the same seeded permutation stream.  The pooled size spans
    # more than one row block, so the blocked accumulation is exercised.
    rng = np.random.default_rng(8)
    n, m = 150, 170
    assert n + m > metrics._ROW_BLOCK
    pooled = np.concatenate([rng.normal(size=(n, 2)),
                             rng.normal(loc=0.3, size=(m, 2))])
    null = metrics._permutation_null(pooled, n, 100, 9)
    perms = np.random.default_rng(9)
    for value in null:
        perm = perms.permutation(n + m)
        assert value == pytest.approx(
            energy_distance(pooled[perm[:n]], pooled[perm[n:]]),
            rel=1e-12, abs=1e-12,
        )


def _outputs_at_blas_threads(script, *args):
    """stdout of ``script`` run in a fresh process at 1 and at 2 BLAS threads
    (each run is a fresh process so that the thread count applies)."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(metrics.__file__)))
    outputs = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                   PYTHONPATH=os.pathsep.join(
                       filter(None, [src, os.environ.get("PYTHONPATH")])))
        run = subprocess.run([sys.executable, "-c", script, *args], env=env,
                             capture_output=True, text=True, timeout=120)
        assert run.returncode == 0, run.stderr
        outputs.append(run.stdout)
    return outputs


def test_null_independent_of_blas_threads():
    # BLAS splits a product's sums differently per thread count; the null
    # must not.  The quantiles at k/99 are the 100 sorted null values.
    script = (
        "import numpy as np\n"
        "from guidance_lab import permutation_test\n"
        "rng = np.random.default_rng(11)\n"
        "a = rng.normal(size=(600, 2))\n"
        "b = rng.normal(loc=0.2, size=(600, 2))\n"
        "qs = [k / 99 for k in range(100)]\n"
        "print(repr(permutation_test(a, b, n_perm=100, seed=3,\n"
        "                            quantiles=qs).null_quantiles))\n"
    )
    outputs = _outputs_at_blas_threads(script)
    assert outputs[0] == outputs[1]


def test_trace_divergence_independent_of_blas_threads(tmp_path):
    # The time-t oracles rotate into per-component eigenbases (LAPACK eigh)
    # and assemble Hessians with small matrix products; a d = 8
    # full-covariance profile must come out byte-identical either way.
    rng = np.random.default_rng(8)
    dim, k = 8, 3
    covs = []
    for _ in range(k):
        q, _ = np.linalg.qr(rng.normal(size=(dim, dim)))
        covs.append(q @ np.diag(rng.uniform(0.05, 0.3, dim) ** 2) @ q.T)
    uncond = GaussianMixture(np.full(k, 1.0 / k), rng.normal(0.0, 2.0, (k, dim)),
                             covs)
    cond = GaussianMixture.single(uncond.means[0], 0.0625 * uncond.covariances[0])
    config = tmp_path / "trace_d8_full.json"
    config.write_text(json.dumps({
        "kind": "trace_divergence",
        "targets": {"conditional": target_to_dict(cond),
                    "unconditional": target_to_dict(uncond)},
        "guidance": {"guidance_scale": 1.0, "min_scale": 1.0,
                     "decay_power": 0.0},
        "sampler": {"steps": 60},
    }))
    script = (
        "import contextlib, io, os, sys\n"
        "from guidance_lab import cli\n"
        "config, out = sys.argv[1:]\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    assert cli.main(['trace_divergence', '--config', config,\n"
        "                     '--out', out]) == 0\n"
        "print(open(os.path.join(out, 'trace_divergence.csv')).read())\n"
    )
    outputs = _outputs_at_blas_threads(script, str(config), str(tmp_path / "out"))
    assert outputs[0].count("\n") == 63  # header + 61 states + print's newline
    assert outputs[0] == outputs[1]


def test_permutation_validation():
    a = np.zeros((5, 1))
    b = np.ones((5, 1))
    with pytest.raises(ConfigurationError):
        permutation_test(a, b, n_perm=99)


def test_custom_quantiles():
    rng = np.random.default_rng(10)
    a = rng.normal(size=(25, 2))
    b = rng.normal(size=(25, 2))
    res = permutation_test(a, b, n_perm=100, quantiles=(0.25, 0.75))
    assert set(res.null_quantiles) == {0.25, 0.75}
    assert res.null_quantiles[0.25] <= res.null_quantiles[0.75]


# ---------------------------------------------------------------------------
# log-log slope


def test_loglog_slope_cubic():
    xs = np.array([16.0, 32.0, 64.0, 128.0, 256.0])
    assert loglog_slope(xs, xs**3) == pytest.approx(3.0, abs=1e-10)
    assert loglog_slope(xs, 7.5 / xs**3) == pytest.approx(-3.0, abs=1e-10)


def test_loglog_slope_scale_invariant():
    xs = np.array([1.0, 2.0, 4.0, 8.0])
    ys = np.array([3.0, 1.4, 0.9, 0.3])
    assert loglog_slope(xs, 100.0 * ys) == pytest.approx(
        loglog_slope(xs, ys), abs=1e-12
    )
    assert loglog_slope(2.5 * xs, ys) == pytest.approx(loglog_slope(xs, ys), abs=1e-12)


def test_loglog_slope_halving_error():
    # First-order convergence data: error halves as the step halves.
    steps = np.array([32.0, 64.0, 128.0])
    errors = 1.0 / steps
    assert loglog_slope(steps, errors) == pytest.approx(-1.0, abs=1e-12)


def test_loglog_slope_validation():
    with pytest.raises(ShapeError):
        loglog_slope([1.0, 2.0], [1.0, 2.0])
    with pytest.raises(ShapeError):
        loglog_slope([1.0, 2.0, 3.0], [1.0, 2.0])
    with pytest.raises(DomainError):
        loglog_slope([1.0, 2.0, 3.0], [1.0, -2.0, 3.0])
    with pytest.raises(DomainError):
        loglog_slope([0.0, 2.0, 3.0], [1.0, 2.0, 3.0])
