"""Two-sample statistics and log-log slope fits for experiment reports.

Energy distance is the workhorse: parameter-free, exact at small scale,
and sensitive to any distributional difference.  It is the U-statistic
(self-pairs excluded), which is unbiased and is what the permutation test
resamples; unbiasedness means it can dip slightly below zero for samples
from equal distributions.  Pooled distances are rounded to a power-of-two
grid ``h`` with at most ``52 - ceil(log2 N)`` bits below the bounding-box
diagonal, so BLAS sums them exactly, with the same bits on any threads.
The pass visits each distance block on or above the diagonal once, with
one product: an off-diagonal block counts twice, which that grid leaves a
spare bit for (see ``_split_energies``).  A block's grid distances are
computed in NumPy, one coordinate at a time, and equal ``np.rint(cdist(...))``
of SciPy bit for bit (see ``_grid_distances``), so no kind imports SciPy.

With NumPy's OpenBLAS pinned to one thread (``OPENBLAS_NUM_THREADS=1``),
the pass's row strips run on two threads where the process may use two
CPUs (its affinity set): the calling thread and one helper thread each
take the next strip from one shared iterator.  Every partial a thread
keeps, and every sum of them, is an integer below ``2**53``, so the
values do not depend on the thread count or on which thread ran a strip.
Each such null starts its helper thread itself and joins it before it
returns or raises, so no thread outlives the call.  With a
multi-threaded BLAS the two threads' products contend for one BLAS
thread pool and the split pass was slower than one thread, so there the
pass runs on the calling thread alone.
"""

from __future__ import annotations

import collections
import math
import os
import threading
from dataclasses import dataclass
from typing import Dict

import numpy as np

from .errors import ConfigurationError, DomainError, ShapeError, require_int

# Rows and columns of the pooled distance matrix one block holds.
_ROW_BLOCK = 256

# Row accumulators, integers of at most 2**53 in h, are split as
# hi * 2**_SPLIT + lo, so their dots with the labels sum exactly.
_SPLIT = 26

DEFAULT_QUANTILES = (0.5, 0.9, 0.95, 0.99)

# Fewest permutations whose null quantiles the test reports.
MIN_PERMUTATIONS = 100

# Most threads one null runs on: two beat one on a 2-core Xeon VM at one
# BLAS thread; more were never measured.
_MAX_THREADS = 2


@dataclass(frozen=True)
class TwoSampleResult:
    """Observed statistic plus permutation-null quantiles."""

    statistic: float
    null_quantiles: Dict[float, float]
    n_perm: int


def _pooled(a, b):
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    if a.ndim != 2 or b.ndim != 2:
        raise ShapeError(f"samples must be 2-d (n, dim) matrices, got "
                         f"{a.shape} and {b.shape}")
    if a.shape[1] != b.shape[1]:
        raise ShapeError(f"dimension mismatch: {a.shape[1]} vs {b.shape[1]}")
    if a.shape[0] < 2 or b.shape[0] < 2:
        raise ShapeError("each sample needs at least 2 points")
    if not (np.all(np.isfinite(a)) and np.all(np.isfinite(b))):
        raise DomainError("samples must be finite (no NaN or inf entries)")
    return np.concatenate([a, b]), a.shape[0]


def _hi_lo(values):
    """Exact split of integer-valued ``values`` as ``hi * 2**_SPLIT + lo``.

    Scaling by a power of two is exact here and, unlike ``np.ldexp``, runs
    as one vectorised multiply.
    """
    hi = np.floor(values * 2.0**-_SPLIT)
    return np.stack([hi, values - hi * 2.0**_SPLIT])


def _cpu_count():
    """CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # not on every platform
        return os.cpu_count() or 1


def _blas_single_threaded():
    """Whether the environment pins OpenBLAS to one thread.

    OpenBLAS takes its thread count from the first of these variables that
    holds a positive integer, and starts one thread per CPU if none does.
    """
    for name in ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS"):
        try:
            threads = int(os.environ.get(name, ""))
        except ValueError:
            continue
        if threads > 0:
            return threads == 1
    return False


def _null_threads(strips):
    """Threads a pass of ``strips`` row strips runs on.

    Two only with a one-thread BLAS: where the BLAS pool has a thread per
    CPU, both threads' products queue on it and the split pass was slower
    than one thread (an N = 4,000, ``n_perm`` = 200 null at an unset BLAS
    thread count: 76-80 -> 87-88 ms, medians of 15 and 21 alternating
    runs; default ``sweep_omega`` 0.83 -> 1.02 s, 2-core Xeon VM).
    """
    if not _blas_single_threaded():
        return 1
    return min(_cpu_count(), strips, _MAX_THREADS)


def _run_shares(share, threads):
    """Results of ``share()`` run at once on the caller and on ``threads -
    1`` helper threads started for this call.  Every helper is joined
    before this returns or raises; the caller's exception, else the first
    helper's, is re-raised.  No helper outlives its call, so no call can
    read another's outcome or wait behind another's share."""
    outcomes = [None] * (threads - 1)

    def serve(index):
        try:
            outcomes[index] = share(), None
        except BaseException as exc:  # re-raised by the caller
            outcomes[index] = None, exc

    helpers = [threading.Thread(target=serve, args=(index,))
               for index in range(threads - 1)]
    for helper in helpers:
        helper.start()
    try:
        results = [share()]
    finally:
        for helper in helpers:
            helper.join()
    for _, exc in outcomes:
        if exc is not None:
            raise exc
    return results + [result for result, _ in outcomes]


def _shaped(buffer, rows, cols):
    """A C-contiguous ``(rows, cols)`` view of the head of a flat buffer."""
    return buffer[:rows * cols].reshape(rows, cols)


def _as_float(labels, buffer):
    """A block of 0/1 ``labels`` as float64: the block itself if it is
    float, else widened into the head of ``buffer``."""
    if labels.dtype == np.float64:
        return labels
    widened = _shaped(buffer, *labels.shape)
    np.copyto(widened, labels)
    return widened


def _difference_factors(points):
    """Per coordinate ``k``, the ``(size, 2)`` rows ``[x_k, 1]`` and the
    ``(2, size)`` columns ``[1; -x_k]`` of ``points``: the product of rows
    ``I`` and columns ``J`` is the matrix of differences ``x_ik - x_jk``.
    Both of its terms are exact, so under any BLAS each difference is
    rounded once, to ``fl(x_ik - x_jk)``."""
    left = np.ones((points.shape[1], points.shape[0], 2))
    left[:, :, 0] = points.T
    right = np.ones((points.shape[1], 2, points.shape[0]))
    np.negative(points.T, out=right[:, 1])
    return left, right


def _grid_distances(left, right, out, diff):
    """The rounded distances between the points of ``left`` and of
    ``right`` (:func:`_difference_factors` of two sets), into ``out``, with
    ``diff`` as scratch: ``np.rint(cdist(...))`` of SciPy bit for bit.

    SciPy's loop adds each pair's squared coordinate differences in
    coordinate order, from the first, then takes the root; here every
    addition is one whole-block add in that order.  A difference is one
    k = 2 product, which beat ``np.subtract.outer`` (24 vs 92 us per 256 x
    256 block, 2-core Xeon VM, one BLAS thread).
    """
    np.matmul(left[0], right[0], out=out)
    np.multiply(out, out, out=out)
    for k in range(1, len(left)):
        np.matmul(left[k], right[k], out=diff)
        np.multiply(diff, diff, out=diff)
        out += diff
    np.sqrt(out, out=out)
    return np.rint(out, out=out)


def _strip_sums(factors, labels, starts):
    """This thread's share of the pass: the row strips it takes from the
    shared iterator ``starts``.  ``factors`` are the
    :func:`_difference_factors` of the pooled points in grid units.

    Returns the partial row sums ``r`` (every column sum of a visited block
    lands in rows of a later strip) and the hi/lo parts of the strips'
    ``z^T K z``.  Byte labels are widened one block at a time into this
    thread's float buffers as a product needs them.
    """
    left, right = factors
    size, width = labels.shape
    side = min(_ROW_BLOCK, size)
    dist, diff = np.empty(side * side), np.empty(side * side)
    acc, part, z_rows, z_cols = (np.empty(side * width) for _ in range(4))
    r = np.zeros(size)
    in_a = np.zeros((2, width))
    # Each ``next`` on the shared range iterator runs under the GIL, so
    # every strip goes to exactly one thread.
    for start in starts:
        rows = slice(start, start + _ROW_BLOCK)
        height = min(_ROW_BLOCK, size - start)
        z_i = _as_float(labels[rows], z_rows)
        left_i = left[:, rows]
        block = _grid_distances(left_i, right[:, :, rows],
                                _shaped(dist, height, height),
                                _shaped(diff, height, height))
        acc_i = np.matmul(block, z_i, out=_shaped(acc, height, width))
        r[rows] += block.sum(axis=1)
        for col in range(start + _ROW_BLOCK, size, _ROW_BLOCK):
            cols = slice(col, col + _ROW_BLOCK)
            breadth = min(_ROW_BLOCK, size - col)
            z_j = _as_float(labels[cols], z_cols)
            block = _grid_distances(left_i, right[:, :, cols],
                                    _shaped(dist, height, breadth),
                                    _shaped(diff, height, breadth))
            product = np.matmul(block, z_j, out=_shaped(part, height, width))
            product *= 2.0
            acc_i += product
            r[rows] += block.sum(axis=1)
            r[cols] += block.sum(axis=0)
        # Row block ``rows`` of the accumulator is complete: fold it in.
        in_a += np.einsum("ip,kip->kp", z_i, _hi_lo(acc_i))
    return r, in_a


def _split_energies(pooled, n, n_perm, seed):
    """Energy distances of ``pooled[:n] | pooled[n:]`` and of the ``n_perm``
    seeded permutation splits, from one pass over the grid distances ``K``.

    Column ``z`` of ``labels`` marks a group ``a``.  With ``r`` the row sums
    of ``K``, the within sums are ``z^T K z`` and ``sum(r) - 2 z^T r +
    z^T K z``, the between sum ``z^T r - z^T K z``.  Only the blocks on and
    above the diagonal are visited, each with one product: row block ``I``
    accumulates ``K_II z_I + 2 sum_{J>I} K_IJ z_J``, whose dot with ``z_I``
    summed over ``I`` is ``z^T K z``.  Every grid distance is at most
    ``2**bits`` with ``N * 2**bits <= 2**52``, so a row sum is at most
    ``2**52`` and the doubled accumulator at most ``2**53``: every BLAS
    partial sum is an exact integer.  ``r`` gathers exact block row and
    column sums.

    The row strips (row block ``I`` with every block right of it) run on
    ``_null_threads`` threads, the caller and its helpers, each taking the
    next strip as it finishes one.  Each thread keeps its own ``r`` and
    hi/lo ``z^T K z``; the caller adds them and folds ``z^T r`` once ``r``
    is complete.  Every partial and every sum of partials is an integer
    below ``2**53``, so neither the order nor the thread a strip ran on can
    move a bit.
    """
    size = pooled.shape[0]
    diagonal = math.dist(pooled.max(axis=0), pooled.min(axis=0))
    if not math.isfinite(2.0 * diagonal):
        raise DomainError(f"twice the bounding-box diagonal {diagonal} overflows")
    bits = 52 - (size - 1).bit_length()
    exponent = (math.frexp(diagonal)[1] if diagonal > 0.0 else 0) - bits
    # Exact: distances in units of h.
    factors = _difference_factors(np.ldexp(pooled, -exponent))
    threads = _null_threads(-(-size // _ROW_BLOCK))
    # A split pass holds its labels as bytes, which makes room for the
    # helper's memory; one thread keeps them float: at two BLAS threads the
    # per-block widening made a one-thread pass about 15% slower.
    labels = np.zeros((size, n_perm + 1), dtype=np.uint8 if threads > 1 else float)
    labels[:n, 0] = 1
    rng = np.random.default_rng(seed)
    for p in range(1, n_perm + 1):
        labels[rng.permutation(size)[:n], p] = 1
    starts = iter(range(0, size, _ROW_BLOCK))
    try:
        parts = _run_shares(lambda: _strip_sums(factors, labels, starts), threads)
    except BaseException:
        # A helper still at work on this pass, after an interrupted join,
        # finds no strip left and stops after its current one.
        collections.deque(starts, maxlen=0)
        raise
    row_sums, in_a_parts = zip(*parts)
    r, in_a = sum(row_sums), sum(in_a_parts)
    from_a = np.zeros_like(in_a)
    z = np.empty(min(_ROW_BLOCK, size) * (n_perm + 1))
    for start in range(0, size, _ROW_BLOCK):
        rows = slice(start, start + _ROW_BLOCK)
        from_a += _hi_lo(r[rows]) @ _as_float(labels[rows], z)
    total = _hi_lo(r).sum(axis=1)[:, None]
    pairs = np.stack([in_a, from_a - in_a, total - 2.0 * from_a + in_a])
    sum_a, sum_ab, sum_b = np.ldexp(pairs[:, 0], _SPLIT) + pairs[:, 1]
    m = size - n  # the bracket makes the value symmetric in a and b
    units = 2.0 * sum_ab / (n * m) - (sum_a / (n * n - n) + sum_b / (m * m - m))
    return np.ldexp(units, exponent)


def energy_distance(a, b):
    """Energy distance ``2 E|A-B| - E|A-A'| - E|B-B'|`` between samples.

    The within terms exclude self-pairs (the U-statistic: unbiased, may be
    slightly negative for equal distributions).  On the pooled grid the
    value is exactly symmetric.  Non-finite entries raise ``DomainError``.
    """
    return float(_split_energies(*_pooled(a, b), 0, 0)[0])


def _quantiles(values, levels):
    """``np.quantile(values, levels)`` of NumPy 2.4's default ``"linear"``
    method, bit for bit, for a 1-d float ``values`` and float ``levels`` in
    [0, 1], without the ``np.unique`` that imports ``numpy.ma``.

    As NumPy does: the virtual index ``(n - 1) q`` has neighbours ``floor``
    and ``floor + 1``, both -1 (the last) from ``n - 1`` up, and the weight
    is the index less the clamped lower one.  A copy is partitioned on the
    same sorted set of distinct kth indices, so of equal entries, such as
    +0 and -0, the same one lands at each index, and the lerp takes
    ``b - (b - a)(1 - w)`` where ``w >= 0.5``.  Sorting instead picks the
    other zero of a tie now and then.
    """
    last = values.shape[0] - 1
    virtual = last * levels
    below = np.floor(virtual)
    above = below + 1
    at_end = virtual >= last
    below[at_end] = above[at_end] = -1
    below, above = below.astype(np.intp), above.astype(np.intp)
    ordered = values.copy()
    ordered.partition(sorted({0, -1, *below.tolist(), *above.tolist()}))
    lo, hi = ordered[below], ordered[above]
    weight = virtual - below
    gap = hi - lo
    out = lo + gap * weight
    np.subtract(hi, gap * (1 - weight), out=out, where=weight >= 0.5)
    return out


def permutation_test(a, b, n_perm=1000, seed=0, quantiles=DEFAULT_QUANTILES):
    """Permutation null of the energy distance under label shuffling.

    Deterministic per seed: permutation ``p`` is the ``p``-th draw of
    ``default_rng(seed).permutation(n + m)``, whose first ``n`` entries
    label group ``a``.  The statistic (``energy_distance(a, b)`` bit for bit)
    and the null come from one pass in O((n + m) * n_perm) bytes of labels
    whose BLAS sums are exact.  With OpenBLAS on one thread the pass's row
    strips run on two threads where the process may use two CPUs (the
    helper thread is started and joined within the call); every
    per-thread partial is an exact integer, so no value depends on the
    thread or CPU count, the BLAS threads or ``_ROW_BLOCK``.  The null
    quantiles are ``np.quantile``'s default linear ones, bit for bit, from
    an in-house :func:`_quantiles`, so the test does not import
    ``numpy.ma`` as ``np.quantile`` does.
    """
    n_perm = require_int("n_perm", n_perm, MIN_PERMUTATIONS)
    seed = require_int("seed", seed, 0)
    try:
        levels = np.asarray(quantiles, dtype=float)
    except (TypeError, ValueError) as exc:
        raise ConfigurationError(f"quantiles must be numbers, got {quantiles!r}") from exc
    # NaN fails both comparisons.
    if levels.ndim != 1 or not np.all((levels >= 0.0) & (levels <= 1.0)):
        raise ConfigurationError(
            f"quantiles must be a sequence of levels in [0, 1], got {quantiles!r}")
    energies = _split_energies(*_pooled(a, b), n_perm, seed)
    values = _quantiles(energies[1:], levels)
    qs = {float(q): float(v) for q, v in zip(quantiles, values)}
    return TwoSampleResult(float(energies[0]), qs, n_perm)


def loglog_slope(xs, ys):
    """Least-squares slope of ``log ys`` against ``log xs``."""
    xs = np.asarray(xs, dtype=float)
    ys = np.asarray(ys, dtype=float)
    if xs.ndim != 1 or ys.ndim != 1 or xs.shape != ys.shape:
        raise ShapeError(f"xs and ys must be equal-length vectors, got "
                         f"{xs.shape} and {ys.shape}")
    if xs.shape[0] < 3:
        raise ShapeError(f"need at least 3 points for a slope, got {xs.shape[0]}")
    if not (np.all(np.isfinite(xs)) and np.all(np.isfinite(ys))):
        raise DomainError("loglog_slope requires finite entries")
    if np.any(xs <= 0.0) or np.any(ys <= 0.0):
        raise DomainError("loglog_slope requires strictly positive entries")
    log_xs = np.log(xs)
    if np.all(log_xs == log_xs[0]):
        raise DomainError("loglog_slope needs at least two distinct xs")
    return float(np.polyfit(log_xs, np.log(ys), 1)[0])
