"""Tests for energy distance, its permutation null, and slope fits."""

import itertools
import json
import math
import os
import signal
import subprocess
import sys
import threading
import time

import numpy as np
import pytest
from scipy.spatial.distance import cdist, pdist

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


def test_statistic_is_energy_distance_bitwise():
    # The statistic is the identity split of the null's pass; the pair sums
    # are exact, so it equals energy_distance in either argument order.
    rng = np.random.default_rng(12)
    a = rng.normal(size=(300, 3))
    b = rng.normal(loc=0.4, size=(340, 3))
    assert a.shape[0] + b.shape[0] > 2 * metrics._ROW_BLOCK
    stat = permutation_test(a, b, n_perm=100, seed=1).statistic
    assert (np.float64(stat).tobytes()
            == np.float64(energy_distance(a, b)).tobytes()
            == np.float64(energy_distance(b, a)).tobytes())


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


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_samples_raise(bad):
    a = np.zeros((3, 2))
    b = np.ones((4, 2))
    b[2, 1] = bad
    with pytest.raises(DomainError):
        energy_distance(a, b)
    with pytest.raises(DomainError):
        permutation_test(b, a, n_perm=100)


def test_overflowing_diagonal_raises():
    # Finite points whose bounding box has no finite diagonal: the grid
    # step, and so the statistic, would not be finite.
    a = np.full((3, 2), -1e308)
    b = np.full((3, 2), 1e308)
    with pytest.raises(DomainError):
        energy_distance(a, b)
    with pytest.raises(DomainError):
        permutation_test(a, b, n_perm=100)


def test_huge_and_zero_diagonals():
    # Squared coordinate gaps overflow at +-1e307, but the distances are
    # taken on the grid's power-of-two scale, so the result is finite:
    # twice the gap between the two point masses, to the grid step (2**-49
    # of a power of two above the diagonal at 7 points).
    a = np.full((3, 2), -1e307)
    b = np.full((4, 2), 1e307)
    assert energy_distance(a, b) == pytest.approx(2.0 * math.hypot(2e307, 2e307),
                                                  rel=1e-14)
    res = permutation_test(a, b, n_perm=100)
    assert np.isfinite(res.statistic)
    assert all(np.isfinite(list(res.null_quantiles.values())))
    # Power-of-two scaling is exact on the grid.
    rng = np.random.default_rng(13)
    x, y = rng.normal(size=(20, 2)), rng.normal(size=(30, 2))
    assert energy_distance(2.0**1000 * x, 2.0**1000 * y) == (
        2.0**1000 * energy_distance(x, y))
    # All points equal: a zero diagonal and an exactly zero statistic.
    same = np.full((5, 3), 0.75)
    assert energy_distance(same, same) == 0.0
    res = permutation_test(same, same, n_perm=100)
    assert res.statistic == 0.0
    assert set(res.null_quantiles.values()) == {0.0}


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


def _reference_energy(a, b):
    """The U-statistic energy distance on unrounded float distances."""
    n, m = a.shape[0], b.shape[0]
    return (2.0 * cdist(a, b).mean() - 2.0 * pdist(a).sum() / (n * (n - 1))
            - 2.0 * pdist(b).sum() / (m * (m - 1)))


def test_energy_distance_matches_float_reference():
    # Several row blocks, so the doubled off-diagonal products, the block
    # row and column sums, the hi/lo fold and the final bracket all enter;
    # the grid rounding moves the value by far less than the bound.
    rng = np.random.default_rng(15)
    a = rng.normal(size=(400, 3))
    b = rng.normal(loc=0.25, scale=1.5, size=(330, 3))
    assert a.shape[0] + b.shape[0] > 2 * metrics._ROW_BLOCK
    assert energy_distance(a, b) == pytest.approx(_reference_energy(a, b),
                                                  rel=1e-12, abs=1e-12)


def test_null_matches_per_permutation_reference():
    # The reference recomputes the energy distance of every label split
    # drawn from the same seeded permutation stream, on unrounded float
    # distances.  The pooled size spans more than one row block, so the
    # blocked accumulation is exercised.
    rng = np.random.default_rng(8)
    n, m = 150, 170
    assert n + m > metrics._ROW_BLOCK
    pooled = np.concatenate([rng.normal(size=(n, 2)),
                             rng.normal(loc=0.3, size=(m, 2))])
    null = metrics._split_energies(pooled, n, 100, 9)[1:]
    perms = np.random.default_rng(9)
    for value in null:
        perm = perms.permutation(n + m)
        assert value == pytest.approx(
            _reference_energy(pooled[perm[:n]], pooled[perm[n:]]),
            rel=1e-12, abs=1e-12,
        )


@pytest.mark.parametrize("at_origin", [1, 1023])
def test_null_exact_at_top_of_grid(monkeypatch, at_origin):
    # Pooled points sit at two corners, the origin and x = 1 - 2**-42, so
    # every cross distance is the grid's top, 2**41 at N = 2047 (just under
    # a power of two; eight row blocks).  Row block I accumulates
    # K_II z_I + 2 sum_{J>I} K_IJ z_J.  With half the points at each corner
    # a row's accumulator peaks near 2**52; with a lone point at the origin
    # and every other point in sample a, that row's nears 2**53.  One bit
    # more of grid would round it, and the block size would then move the
    # null.
    size = 2047
    pooled = np.zeros((size, 2))
    pooled[at_origin:, 0] = 1.0 - 2.0**-42
    n = size - 2
    assert size > 4 * metrics._ROW_BLOCK
    energies = metrics._split_energies(pooled, n, 20, 3)
    perms = np.random.default_rng(3)
    splits = [np.arange(size)] + [perms.permutation(size) for _ in range(20)]
    for value, perm in zip(energies, splits):
        assert value == pytest.approx(
            _reference_energy(pooled[perm[:n]], pooled[perm[n:]]),
            rel=1e-12, abs=1e-12,
        )
    monkeypatch.setattr(metrics, "_ROW_BLOCK", 7)
    assert metrics._split_energies(pooled, n, 20, 3).tobytes() == (
        energies.tobytes())


def _grid_block(a, b):
    """``metrics._grid_distances`` between the point sets ``a`` and ``b``."""
    left, _ = metrics._difference_factors(a)
    _, right = metrics._difference_factors(b)
    out, diff = np.empty((len(a), len(b))), np.empty((len(a), len(b)))
    return metrics._grid_distances(left, right, out, diff)


@pytest.mark.parametrize("dim", [1, 2, 3, 8, 16, 64])
def test_grid_distances_equal_rounded_cdist(dim):
    # The NumPy block adds squared differences in SciPy's order, so it must
    # match np.rint(cdist) bit for bit at every scale the grid allows: point
    # sets 2**20 to 2**45 grid units across, and points at the grid's top.
    rng = np.random.default_rng(dim)
    sets = []
    for bits in (20, 33, 45):
        side = 2.0**bits / math.sqrt(dim)  # the diagonal is 2**bits
        sets.append(rng.uniform(0.0, side, size=(300, dim)))
        sets.append(side / 2 + rng.normal(scale=side / 50, size=(300, dim)))
    # Opposite corners of the box whose diagonal is the top of the grid at
    # N = 2047 (2**41 units, as in test_null_exact_at_top_of_grid), and the
    # point sets 2**45 units across at their corners.
    for top in (2.0**41 - 0.5, 2.0**45 / math.sqrt(dim)):
        sets.append(top * rng.integers(0, 2, size=(300, dim)).astype(float))
    for points in sets:
        for a, b in ((points[:256], points[256:]), (points[:37], points[:37]),
                     (points[:256], points[:256]), (points[7:14], points[:300])):
            want = np.rint(cdist(a, b))
            assert _grid_block(a, b).tobytes() == want.tobytes()


@pytest.mark.parametrize("top", [False, True])
def test_pass_blocks_equal_rounded_cdist(monkeypatch, top):
    # Every block the pass visits at _ROW_BLOCK = 7, diagonal, partial and
    # off-diagonal ones, equals np.rint(cdist) of its points on the grid.
    rng = np.random.default_rng(17)
    if top:
        # Two corners a grid's top apart: 1 - 2**-42 at N = 60, 2**46 - 16
        # units.
        pooled = np.zeros((60, 3))
        pooled[rng.permutation(60)[:30], 0] = 1.0 - 2.0**-42
    else:
        pooled = rng.normal(size=(60, 3))
    monkeypatch.setattr(metrics, "_ROW_BLOCK", 7)
    original, checked = metrics._grid_distances, []

    def against_cdist(left, right, out, diff):
        want = np.rint(cdist(left[:, :, 0].T, -right[:, 1].T))
        block = original(left, right, out, diff)
        checked.append(block.tobytes() == want.tobytes())
        return block

    monkeypatch.setattr(metrics, "_grid_distances", against_cdist)
    metrics._split_energies(pooled, 25, 100, 1)
    assert len(checked) == 9 * 10 // 2 and all(checked)


def test_null_independent_of_row_block(monkeypatch):
    # Every blocked sum is exact, so the block size cannot move a bit.
    rng = np.random.default_rng(14)
    pooled = rng.normal(size=(300, 2))
    default = metrics._split_energies(pooled, 140, 100, 5)
    monkeypatch.setattr(metrics, "_ROW_BLOCK", 7)
    assert metrics._split_energies(pooled, 140, 100, 5).tobytes() == (
        default.tobytes())


def _at_cpus(monkeypatch, cpus):
    """Make the null see ``cpus`` CPUs in this process's affinity set and a
    one-thread BLAS, the setting it splits its strips at."""
    monkeypatch.setattr(metrics.os, "sched_getaffinity",
                        lambda pid: set(range(cpus)))
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")


@pytest.mark.parametrize("env, single", [
    ({}, False),
    ({"OPENBLAS_NUM_THREADS": "1"}, True),
    ({"OPENBLAS_NUM_THREADS": "2"}, False),
    ({"OMP_NUM_THREADS": "1"}, True),
    ({"GOTO_NUM_THREADS": "1"}, True),
    ({"OPENBLAS_NUM_THREADS": "2", "OMP_NUM_THREADS": "1"}, False),
    ({"OPENBLAS_NUM_THREADS": "0", "OMP_NUM_THREADS": "1"}, True),
    ({"OPENBLAS_NUM_THREADS": "x", "OMP_NUM_THREADS": "4"}, False),
])
def test_blas_thread_count_read_as_openblas_reads_it(monkeypatch, env, single):
    for name in ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS"):
        monkeypatch.delenv(name, raising=False)
    for name, value in env.items():
        monkeypatch.setenv(name, value)
    assert metrics._blas_single_threaded() is single


def test_null_threads_capped_and_gated_on_blas(monkeypatch):
    _at_cpus(monkeypatch, 4)
    assert metrics._null_threads(10) == metrics._MAX_THREADS == 2
    assert metrics._null_threads(1) == 1
    # A multi-threaded BLAS pool: the split pass measured slower there.
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "2")
    assert metrics._null_threads(10) == 1


@pytest.mark.parametrize("size, row_block", [
    (200, 256),   # one strip
    (512, 256),   # two whole strips
    (700, 256),   # three strips, the last one partial
    (1300, 256),  # six strips: more than the four threads
    (60, 7),      # nine strips of seven rows, the last one partial
])
@pytest.mark.parametrize("n_perm", [0, 100])
def test_null_independent_of_cpu_count(monkeypatch, size, row_block, n_perm):
    # Each thread's partials are exact integers, so neither which thread
    # ran a strip nor the order they are added in can move a bit.
    rng = np.random.default_rng(size)
    pooled = rng.normal(size=(size, 3))
    monkeypatch.setattr(metrics, "_ROW_BLOCK", row_block)
    outputs = []
    for cpus in (1, 2, 4):
        _at_cpus(monkeypatch, cpus)
        outputs.append(metrics._split_energies(pooled, size // 3, n_perm, 7).tobytes())
    assert outputs[1] == outputs[0] and outputs[2] == outputs[0]


def test_null_strips_taken_once_under_thread_stress(monkeypatch):
    # More threads than cores and a tiny switch interval: a strip taken by
    # two threads, or by none, would move the sums.
    pooled = np.random.default_rng(5).normal(size=(300, 2))
    monkeypatch.setattr(metrics, "_ROW_BLOCK", 7)
    _at_cpus(monkeypatch, 1)
    expected = metrics._split_energies(pooled, 120, 100, 2).tobytes()
    _at_cpus(monkeypatch, 6)
    monkeypatch.setattr(metrics, "_MAX_THREADS", 6)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(5):
            assert metrics._split_energies(pooled, 120, 100, 2).tobytes() == expected
    finally:
        sys.setswitchinterval(interval)


@pytest.mark.parametrize("cpus, blas_threads", [(1, "1"), (2, "2")])
def test_one_thread_null_starts_no_thread(monkeypatch, cpus, blas_threads):
    _at_cpus(monkeypatch, cpus)
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", blas_threads)

    def refuse(self):
        raise AssertionError("a thread was started")

    monkeypatch.setattr(threading.Thread, "start", refuse)
    pooled = np.random.default_rng(2).normal(size=(700, 2))
    metrics._split_energies(pooled, 300, 100, 1)


@pytest.mark.parametrize("raises", [False, True], ids=["returns", "raises"])
def test_split_null_leaves_no_thread_behind(monkeypatch, raises):
    # The helper is started for the call and joined before it returns or
    # raises, so the thread count is back where it was.
    _at_cpus(monkeypatch, 2)
    rng = np.random.default_rng(3)
    a, b = rng.normal(size=(300, 2)), rng.normal(size=(300, 2))
    started = []
    original_start = threading.Thread.start

    def start(self):
        started.append(self)
        original_start(self)

    def fail(*args):
        raise RuntimeError("share failed")

    monkeypatch.setattr(threading.Thread, "start", start)
    threads = threading.active_count()
    if raises:
        monkeypatch.setattr(metrics, "_strip_sums", fail)
        with pytest.raises(RuntimeError, match="share failed"):
            permutation_test(a, b, n_perm=100, seed=1)
    else:
        permutation_test(a, b, n_perm=100, seed=1)
    assert len(started) == 1 and not started[0].is_alive()
    assert threading.active_count() == threads


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
def test_forked_child_gets_the_parents_bytes(monkeypatch):
    # A child forked after a split null runs its own split null in full:
    # no thread of the parent's is left for it to wait on.
    _at_cpus(monkeypatch, 2)
    pooled = np.random.default_rng(9).normal(size=(700, 2))
    expected = metrics._split_energies(pooled, 300, 100, 1).tobytes()
    read_end, write_end = os.pipe()
    pid = os.fork()
    if pid == 0:
        status = 1
        try:
            os.close(read_end)
            os.write(write_end, metrics._split_energies(pooled, 300, 100, 1).tobytes())
            status = 0
        finally:
            os._exit(status)
    os.close(write_end)
    # The 808 bytes fit in the pipe's buffer, so the child exits unread.
    deadline = time.monotonic() + 60.0
    while (waited := os.waitpid(pid, os.WNOHANG))[0] == 0:
        if time.monotonic() > deadline:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
            os.close(read_end)
            pytest.fail("the forked child's null did not finish in 60 s")
        time.sleep(0.01)
    with os.fdopen(read_end, "rb") as child:
        received = child.read()
    assert os.waitstatus_to_exitcode(waited[1]) == 0
    assert received == expected


@pytest.mark.parametrize("failing", ["helper", "caller"])
def test_share_exception_reaches_the_caller(monkeypatch, failing):
    # Whichever thread's share raises, the caller re-raises it, and only
    # after every other thread's share of that call has finished.
    _at_cpus(monkeypatch, 2)
    pooled = np.random.default_rng(4).normal(size=(900, 2))
    expected = metrics._split_energies(pooled, 400, 100, 1)
    caller = threading.get_ident()
    running = []
    working = threading.Event()
    original = metrics._strip_sums

    def share(*args):
        on_caller = threading.get_ident() == caller
        running.append(on_caller)
        try:
            if on_caller == (failing == "caller"):
                assert working.wait(timeout=10)
                raise RuntimeError(f"{failing} share failed")
            working.set()
            time.sleep(0.05)  # still working when the other share raises
            return original(*args)
        finally:
            running.remove(on_caller)

    monkeypatch.setattr(metrics, "_strip_sums", share)
    with pytest.raises(RuntimeError, match=f"{failing} share failed"):
        metrics._split_energies(pooled, 400, 100, 1)
    assert running == []
    monkeypatch.setattr(metrics, "_strip_sums", original)
    assert metrics._split_energies(pooled, 400, 100, 1).tobytes() == expected.tobytes()


class _Interrupt(BaseException):
    """Stands in for a KeyboardInterrupt."""


def test_interrupted_wait_leaves_the_next_call_whole(monkeypatch):
    # An interrupt while the caller joins the helper leaves the helper at
    # work on that call's share.  The helper must take no strip of the
    # abandoned call after the interrupt, and the next call, of the same
    # size, must still get its own outcome, not the abandoned one.
    _at_cpus(monkeypatch, 1)
    rng = np.random.default_rng(6)
    abandoned, pooled = rng.normal(size=(900, 2)), rng.normal(size=(900, 2))
    expected = metrics._split_energies(pooled, 400, 100, 1)
    _at_cpus(monkeypatch, 2)
    caller = threading.get_ident()
    original_strips, original_join = metrics._strip_sums, threading.Thread.join
    helper_took_a_strip, interrupted = threading.Event(), threading.Event()
    late_strips, left_running = [], []

    def helper_lags(factors, labels, starts):
        # On the first call the helper takes one strip, then pauses before
        # each next one; the caller takes one strip of its own and begins
        # to join, leaving two of the four strips untaken.
        if threading.get_ident() == caller:
            assert helper_took_a_strip.wait(timeout=10)
            if not interrupted.is_set():
                starts = itertools.islice(starts, 1)
        elif not helper_took_a_strip.is_set():
            def lagging(starts=starts):
                for start in starts:
                    if interrupted.is_set():
                        late_strips.append(start)
                    helper_took_a_strip.set()
                    yield start
                    time.sleep(0.2)
            starts = lagging()
        return original_strips(factors, labels, starts)

    def cut_join(self, timeout=None):
        left_running.append(self)
        interrupted.set()
        raise _Interrupt

    monkeypatch.setattr(metrics, "_strip_sums", helper_lags)
    monkeypatch.setattr(threading.Thread, "join", cut_join)
    with pytest.raises(_Interrupt):
        metrics._split_energies(abandoned, 400, 100, 1)
    monkeypatch.setattr(threading.Thread, "join", original_join)
    assert metrics._split_energies(pooled, 400, 100, 1).tobytes() == expected.tobytes()
    # The abandoned helper finishes its strip and takes no other.
    left_running[0].join(timeout=10)
    assert not left_running[0].is_alive()
    assert late_strips == []
    assert metrics._split_energies(pooled, 400, 100, 1).tobytes() == expected.tobytes()


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
    # BLAS splits a product's sums differently per thread count; the
    # statistic and the null must not move.  The quantiles at k/99 are the
    # 100 sorted null values.  The pooled size spans several row blocks.
    assert 1200 > 4 * metrics._ROW_BLOCK
    script = (
        "import numpy as np\n"
        "from guidance_lab import permutation_test\n"
        "rng = np.random.default_rng(11)\n"
        "a = rng.normal(size=(600, 2))\n"
        "b = rng.normal(loc=0.2, size=(600, 2))\n"
        "qs = [k / 99 for k in range(100)]\n"
        "res = permutation_test(a, b, n_perm=100, seed=3, quantiles=qs)\n"
        "print(repr(res.statistic), repr(res.null_quantiles))\n"
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


def test_sample_compare_independent_of_blas_threads(tmp_path):
    # Euler sampling rotates whole batches into d = 16 eigenbases with
    # stacked matrix products, then the null runs on the terminal states;
    # every artifact must come out byte-identical either way.
    rng = np.random.default_rng(16)
    dim, k = 16, 3
    covs = []
    for _ in range(k):
        q, _ = np.linalg.qr(rng.normal(size=(dim, dim)))
        covs.append(q @ np.diag(rng.uniform(0.05, 0.3, dim) ** 2) @ q.T)
    uncond = GaussianMixture(np.full(k, 1.0 / k), rng.normal(0.0, 2.0, (k, dim)),
                             covs)
    cond = GaussianMixture.single(uncond.means[0], 0.0625 * uncond.covariances[0])
    config = tmp_path / "compare_d16_full.json"
    config.write_text(json.dumps({
        "kind": "sample_compare",
        "targets": {"conditional": target_to_dict(cond),
                    "unconditional": target_to_dict(uncond)},
        "guidance": {"guidance_scale": 15.0},
        "samples": {"count": 300, "n_perm": 100},
    }))
    script = (
        "import contextlib, io, os, sys\n"
        "from guidance_lab import cli\n"
        "config, out = sys.argv[1:]\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    assert cli.main(['sample_compare', '--config', config,\n"
        "                     '--out', out]) == 0\n"
        "for name in sorted(os.listdir(out)):\n"
        "    print(name, open(os.path.join(out, name)).read())\n"
    )
    outputs = _outputs_at_blas_threads(script, str(config), str(tmp_path / "out"))
    assert outputs[0].count("samples_") == 3
    assert outputs[0] == outputs[1]


def test_permutation_validation():
    a = np.zeros((5, 1))
    b = np.ones((5, 1))
    with pytest.raises(ConfigurationError):
        permutation_test(a, b, n_perm=99)


@pytest.mark.parametrize("kwargs", [
    {"quantiles": (0.5, 1.5)}, {"quantiles": (-0.1,)},
    {"quantiles": (0.5, math.nan)}, {"quantiles": 0.5},
    {"quantiles": ("median",)}, {"n_perm": 100.5}, {"n_perm": True},
    {"seed": -1}, {"seed": 1.5},
])
def test_permutation_rejects_bad_arguments(kwargs):
    rng = np.random.default_rng(14)
    a, b = rng.normal(size=(6, 2)), rng.normal(size=(6, 2))
    with pytest.raises(ConfigurationError):
        permutation_test(a, b, **{"n_perm": 100, **kwargs})


def test_custom_quantiles():
    rng = np.random.default_rng(10)
    a = rng.normal(size=(25, 2))
    b = rng.normal(size=(25, 2))
    res = permutation_test(a, b, n_perm=100, quantiles=(0.25, 0.75))
    assert set(res.null_quantiles) == {0.25, 0.75}
    assert res.null_quantiles[0.25] <= res.null_quantiles[0.75]


def test_quantiles_match_one_call_per_quantile():
    # One in-house quantile call gives every reported quantile; each must
    # equal np.quantile for that quantile alone, bit for bit.
    qs = metrics.DEFAULT_QUANTILES + (0.25, 1 / 3, 0.999) + tuple(
        k / 99 for k in range(0, 100, 7))
    levels = np.array((0.0, 1.0, 1 / 3, 0.25, 0.5, 0.999, 1e-300)
                      + metrics.DEFAULT_QUANTILES + qs)
    rng = np.random.default_rng(13)
    for n in (2, 3, 100, 101, 1000):
        # Zeros of both signs compare equal, so which one a quantile takes
        # depends on where the partition leaves each: a sorting replica
        # picks the other zero now and then.
        for values in (rng.normal(size=n),
                       rng.choice([-0.0, 0.0], size=n),
                       rng.choice([-1.0, -0.0, 0.0, 0.5, 2.0], size=n),
                       np.round(rng.normal(size=n), 1)):
            before = values.copy()
            got = metrics._quantiles(values, levels)
            assert got.tobytes() == np.quantile(values, levels).tobytes(), n
            assert values.tobytes() == before.tobytes()  # partitions a copy
    for seed in range(4):
        rng = np.random.default_rng([12, seed])
        a = rng.normal(size=(30, 2))
        b = rng.normal(loc=0.3, size=(40, 2))
        res = permutation_test(a, b, n_perm=100 + 37 * seed, seed=seed,
                               quantiles=qs)
        energies = metrics._split_energies(*metrics._pooled(a, b),
                                           100 + 37 * seed, seed)
        assert res.statistic == energies[0]
        for q in qs:
            want = np.quantile(energies[1:], q)
            assert np.float64(res.null_quantiles[q]).tobytes() == want.tobytes(), q


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


def test_loglog_slope_two_distinct_xs_of_three():
    assert loglog_slope([1.0, 1.0, 2.0], [1.0, 3.0, 8.0]) == pytest.approx(
        math.log(8.0 / math.sqrt(3.0)) / math.log(2.0), abs=1e-12)


def test_loglog_slope_validation():
    with pytest.raises(ShapeError):
        loglog_slope([1.0, 2.0], [1.0, 2.0])
    with pytest.raises(ShapeError):
        loglog_slope([1.0, 2.0, 3.0], [1.0, 2.0])
    with pytest.raises(DomainError):
        loglog_slope([1.0, 2.0, 3.0], [1.0, -2.0, 3.0])
    with pytest.raises(DomainError):
        loglog_slope([0.0, 2.0, 3.0], [1.0, 2.0, 3.0])


@pytest.mark.parametrize("xs, ys", [
    ([1.0, 2.0, math.nan], [1.0, 2.0, 3.0]),
    ([1.0, 2.0, 3.0], [1.0, math.inf, 3.0]),
    ([1.0, math.inf, 3.0], [1.0, 2.0, 3.0]),
    ([1.0, 1.0, 1.0], [1.0, 2.0, 3.0]),
])
def test_loglog_slope_rejects_non_finite_and_repeated_xs(xs, ys):
    with pytest.raises(DomainError):
        loglog_slope(xs, ys)
