"""Two-sample statistics and log-log slope fits for experiment reports.

Energy distance is the workhorse: parameter-free, exact at small scale,
and sensitive to any distributional difference.  It is the U-statistic
(self-pairs excluded), which is unbiased and is what the permutation test
resamples; unbiasedness means it can dip slightly below zero for samples
from equal distributions.  Pooled distances are rounded to a power-of-two
grid ``h`` with at most ``52 - ceil(log2 N)`` bits below the bounding-box
diagonal, so BLAS sums them exactly, with the same bits on any threads.
The pass visits each distance block on or above the diagonal once, with
one distance pass and one product with the 0/1 labels, whose last column
is all ones so that the product carries the block's row sums as well.
Each finished row strip is split exactly into multiples of ``2**26`` and
remainders, and both parts are folded into the null's sums (see
``_split_energies``).  A block's grid distances are
computed in NumPy, one coordinate at a time, and equal ``np.rint(cdist(...))``
of SciPy bit for bit (see ``_grid_distances``), so no kind imports SciPy.

Several nulls run as one pass: ``permutation_tests`` hands every null of
a sampling job to one ``_split_energies`` call, and ``permutation_test``
is its one-null case.  The pass sets NumPy's bundled OpenBLAS to one
thread while it runs and restores the caller's count after it.  A whole
null is one work item: where the process may use two CPUs (its affinity
set) and the pass has two nulls or more, the calling thread and one
helper thread, started for the pass, each take the next null from one
shared iterator, draw its labels, run all its row strips and keep its
energies.  A one-null call runs on the calling thread and starts no
thread.  Every sampling job hands the pass its nulls in pairs of equal
size, two per omega, so whole nulls keep both threads busy.  The pin is
process-wide: a caller running BLAS on another thread during a pass runs
at one thread too, and passes on several threads of one process run one
at a time.  Where NumPy links another BLAS the pass runs unpinned, with
the same bits, only slower.  Every fold, and every sum of folds, is an
exact integer, and each null's labels come from its own seed, so no value
depends on the thread count, on which thread ran a null or on the other
nulls of the pass.  The helper is joined before the pass returns or
raises, so no thread outlives the call.
"""

from __future__ import annotations

import collections
import ctypes
import math
import os
import threading
from dataclasses import dataclass
from typing import Dict

import numpy as np

from .errors import DomainError, ShapeError, require_int

# Rows and columns of the pooled distance matrix one block holds.
_ROW_BLOCK = 256

# Strip entries, integers of at most 2**52 in h, are split into a multiple
# of 2**_SPLIT and a rest, so that their folds over the rows sum exactly.
_SPLIT = 26
# Every sum of a non-negative float below 2**53 and _ROUND lies in
# [2**78, 2**79), where floats are the multiples of 2**_SPLIT.
_ROUND = 2.0 ** (_SPLIT + 52)

# The label width is padded with zero columns to a multiple of this: a
# 256 x 256 block times 104 labels took 164 us, times 102 took 177 us
# (2-core Xeon VM, one BLAS thread).
_WIDTH_STEP = 8

DEFAULT_QUANTILES = (0.5, 0.9, 0.95, 0.99)

# Fewest permutations whose null quantiles the test reports.
MIN_PERMUTATIONS = 100

# Most threads one pass runs on: two beat one on a 2-core Xeon VM at one
# BLAS thread; more were never measured.
_MAX_THREADS = 2

# The thread-count getter and setter of NumPy's bundled OpenBLAS: dlsym on
# NumPy's core module also searches the libraries it links.  Under another
# BLAS they are None and the pass runs unpinned, with the same bits.
try:
    _core = ctypes.CDLL(np._core._multiarray_umath.__file__)
    _get_blas_threads = _core.scipy_openblas_get_num_threads64_
    _set_blas_threads = _core.scipy_openblas_set_num_threads64_
except (AttributeError, OSError):
    _get_blas_threads = _set_blas_threads = None

# Held while a pass pins the BLAS threads, so that no other pass restores
# the count under it.
_PIN = threading.Lock()


@dataclass(frozen=True)
class TwoSampleResult:
    """Observed statistic plus the null's quantiles at ``DEFAULT_QUANTILES``."""

    statistic: float
    null_quantiles: Dict[float, float]


def _pooled(a, b):
    """The checked samples as a pooled sample, the tuple ``(a, b)`` of the
    blocks it stacks (see :func:`_split_energies`), and ``n``."""
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
    return (a, b), a.shape[0]


def _null_threads(nulls):
    """Threads a pass of ``nulls`` nulls runs on, each running whole nulls:
    at most one per null and one per CPU of this process's affinity set.

    The pass pins OpenBLAS to one thread: with a BLAS thread per CPU, both
    threads' products queued on its pool and a two-thread pass was slower
    than one thread (an N = 4,000, ``n_perm`` = 200 null: 76-80 -> 87-88
    ms, 2-core Xeon VM).
    """
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:  # not on every platform
        cpus = os.cpu_count() or 1
    return min(cpus, nulls, _MAX_THREADS)


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


def _difference_factors(*blocks, exponent=0):
    """Per coordinate ``k``, the ``(size, 2)`` rows ``[x_k, 1]`` and the
    ``(2, size)`` columns ``[1; -x_k]`` of the points of ``blocks`` stacked
    in order and scaled exactly by ``2**-exponent``, written into the
    factors with no stacked copy: the product of rows ``I`` and columns
    ``J`` is the matrix of differences ``x_ik - x_jk``.  Both of its terms
    are exact, so under any BLAS each difference is rounded once, to
    ``fl(x_ik - x_jk)``."""
    size = sum(block.shape[0] for block in blocks)
    left = np.ones((blocks[0].shape[1], size, 2))
    points = left[:, :, 0]
    np.concatenate([block.T for block in blocks], axis=1, out=points)
    np.ldexp(points, -exponent, out=points)
    right = np.ones((blocks[0].shape[1], 2, size))
    np.negative(points, out=right[:, 1])
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


def _scratch(side, width):
    """One thread's buffers for every strip of every null it runs in a
    pass, ``side`` the tallest strip and ``width`` the widest labels of the
    pass's nulls: the flat distance, spare, accumulator and two label
    buffers, whose heads a strip views (:func:`_shaped`), the diagonal
    block's mask and a row of ones.  The spare buffer holds a block's squared coordinate differences
    while its distances are formed, then its label product."""
    return (np.empty(side * side), np.empty(side * max(side, width)),
            *(np.empty(side * width) for _ in range(3)),
            np.tri(side, dtype=bool), np.ones(side))


def _strip_sums(factors, labels, start, scratch):
    """The row strip of one null that starts at row ``start``, in the
    running thread's :func:`_scratch` buffers.  ``factors`` are the
    :func:`_difference_factors` of the null's pooled points in grid
    units.

    Returns the folds of this strip of ``A`` (see
    :func:`_split_energies`), ``[sum_i z_ip A_ip, sum_i (A_ip + A_i1
    z_ip)]`` with ``A_i1`` the ones column, as ``(2, 2, width)`` hi and lo
    parts.  Byte labels are widened one block at a time into the float
    buffers as a product needs them.
    """
    left, right = factors
    size, width = labels.shape
    dist, spare, acc, z_rows, z_cols, on_or_below_diagonal, ones = scratch
    folds = np.zeros((2, 2, width))
    rows = slice(start, start + _ROW_BLOCK)
    height = min(_ROW_BLOCK, size - start)
    z_i = _shaped(z_rows, height, width)
    np.copyto(z_i, labels[rows])
    left_i = left[:, rows]
    block = _grid_distances(left_i, right[:, :, rows],
                            _shaped(dist, height, height),
                            _shaped(spare, height, height))
    np.copyto(block, 0.0, where=on_or_below_diagonal[:height, :height])
    acc_i = np.matmul(block, z_i, out=_shaped(acc, height, width))
    product = _shaped(spare, height, width)
    for col in range(start + _ROW_BLOCK, size, _ROW_BLOCK):
        cols = slice(col, col + _ROW_BLOCK)
        breadth = min(_ROW_BLOCK, size - col)
        z_j = _shaped(z_cols, breadth, width)
        np.copyto(z_j, labels[cols])
        block = _grid_distances(left_i, right[:, :, cols],
                                _shaped(dist, height, breadth),
                                _shaped(spare, height, breadth))
        acc_i += np.matmul(block, z_j, out=product)
    # Strip ``rows`` of ``A`` is complete.  Adding and taking away _ROUND
    # rounds each entry to a multiple of 2**_SPLIT, exactly: that is its hi
    # part, and the rest, at most 2**(_SPLIT - 1) in size, its lo part.
    hi = np.add(acc_i, _ROUND, out=product)
    hi -= _ROUND
    lo = np.subtract(acc_i, hi, out=acc_i)
    for k, piece in enumerate((hi, lo)):
        folds[0, k] += np.einsum("ip,ip->p", z_i, piece)
        folds[1, k] += ones[:height] @ piece + piece[:, -1] @ z_i
    return folds


def _label_width(n_perm):
    """Columns of a null's labels: the observed split, ``n_perm``
    permutations and the ones column, padded to a multiple of
    ``_WIDTH_STEP``."""
    return -(-(n_perm + 2) // _WIDTH_STEP) * _WIDTH_STEP


def _grid_exponent(blocks, size):
    """The exponent of the grid step ``h = 2**exponent`` of the pooled
    sample of ``size`` points that ``blocks`` stack: ``52 - ceil(log2 N)``
    bits below its bounding-box diagonal."""
    diagonal = math.dist(np.max([block.max(axis=0) for block in blocks], axis=0),
                         np.min([block.min(axis=0) for block in blocks], axis=0))
    if not math.isfinite(2.0 * diagonal):
        raise DomainError(f"twice the bounding-box diagonal {diagonal} overflows")
    bits = 52 - (size - 1).bit_length()
    return (math.frexp(diagonal)[1] if diagonal > 0.0 else 0) - bits


def _draw_labels(size, n, n_perm, seed):
    """The 0/1 byte labels of one null, ``(size, _label_width(n_perm))``:
    column 0 marks the observed split ``[:n]``, column ``p`` the first ``n``
    entries of the ``p``-th draw of ``default_rng(seed).permutation(size)``,
    and the last column is all ones; the columns between are zero."""
    labels = np.zeros((size, _label_width(n_perm)), dtype=np.uint8)
    labels[:n, 0] = 1
    labels[:, -1] = 1
    rng = np.random.default_rng(seed)
    for p in range(1, n_perm + 1):
        labels[rng.permutation(size)[:n], p] = 1
    return labels


def _energies(folds, size, n, n_perm, exponent):
    """Energy distances of the observed and the ``n_perm`` permutation
    splits of one null, from its summed folds (see :func:`_split_energies`)."""
    in_a = 2.0 * folds[0, :, :n_perm + 1]
    from_a = folds[1, :, :n_perm + 1]
    total = folds[1, :, -1:]
    pairs = np.stack([in_a, from_a - in_a, total - 2.0 * from_a + in_a])
    sum_a, sum_ab, sum_b = pairs[:, 0] + pairs[:, 1]
    m = size - n  # the bracket makes the value symmetric in a and b
    units = 2.0 * sum_ab / (n * m) - (sum_a / (n * n - n) + sum_b / (m * m - m))
    return np.ldexp(units, exponent)


def _null_energies(blocks, n, n_perm, seed, exponent, scratch):
    """The energies of one null (:func:`_energies`): its grid factors and
    labels, then every row strip of it in ``scratch``, one thread's
    :func:`_scratch` buffers.  The factors and labels are freed on return,
    so a thread holds those of its current null alone."""
    size = sum(block.shape[0] for block in blocks)
    factors = _difference_factors(*blocks, exponent=exponent)
    labels = _draw_labels(size, n, n_perm, seed)
    folds = sum(_strip_sums(factors, labels, start, scratch)
                for start in range(0, size, _ROW_BLOCK))
    return _energies(folds, size, n, n_perm, exponent)


def _split_energies(nulls, *one):
    """Per null ``(pooled, n, n_perm, seed)`` of ``nulls``, the energy
    distances of ``pooled[:n] | pooled[n:]`` and of its ``n_perm`` seeded
    permutation splits, from one pass over every null's grid distances
    ``K``.  ``pooled`` is an ``(N, dim)`` array or the tuple of the arrays
    it stacks, such as ``(a, b)``; the pass writes them into its grid
    factors and makes no stacked copy.  ``_split_energies(pooled, n,
    n_perm, seed)`` is the one-null call and returns that null's energies
    alone.

    Column ``z`` of a null's labels marks a group ``a``, and a last column
    of ones rides along.  With ``T`` the part of ``K`` above its diagonal,
    so that ``K = T + T^T``, the within sums are ``z^T K z = 2 z^T T z`` and
    ``1^T K 1 - 2 z^T K 1 + z^T K z``, the between sum ``z^T K 1 - z^T K
    z``, where ``z^T K 1 = 1^T T z + z^T T 1`` and ``1^T K 1`` is that sum
    at the ones column.  Only the blocks on and above the diagonal are
    visited, each with one distance pass and one product: strip ``I`` of
    ``A = T Z`` is ``triu(K_II) z_I + sum_{J>I} K_IJ z_J``, whose ones
    column holds the strip's row sums of ``T``.  Every grid distance is at
    most ``2**bits`` with ``N * 2**bits <= 2**52``, so an entry of ``A``,
    an undoubled sum of distances, is an integer below ``2**52`` and every
    BLAS partial sum of a product is exact.

    A finished strip is split exactly into multiples of ``2**_SPLIT`` and
    rests of at most ``2**(_SPLIT - 1)``, and each part is folded over the
    strip's rows: ``z_I . A_I`` column by column, and ``1^T A_I + A_I1^T
    z_I``, the strip's share of ``z^T K 1``.  Those folds, their sums over
    strips and the combinations below are exact integers for any ``N``
    below ``2**23``, and each sum is rounded once, when its two parts are
    added.

    The pass pins OpenBLAS to one thread, under ``_PIN``, and runs on
    ``_null_threads`` threads, the caller and its helpers
    (:func:`_run_shares`).  Each thread takes the next null from one shared
    iterator and runs it whole (:func:`_null_energies`) in its own buffers,
    so the pass holds the labels and factors of at most as many nulls as it
    has threads; a one-null call runs on the caller alone.  Every null's
    labels come from its own seed and its folds are exact, so neither the
    thread a null ran on nor the other nulls of the pass can move a bit.
    A thread that raises, and the caller on any exception, empties the
    iterator, so no thread takes another null.
    """
    if one:
        return _split_energies([(nulls, *one)])[0]
    nulls = [(pooled if isinstance(pooled, tuple) else (pooled,), *rest)
             for pooled, *rest in nulls]
    if not nulls:
        return []
    sizes = [sum(block.shape[0] for block in blocks) for blocks, *_ in nulls]
    exponents = [_grid_exponent(blocks, size)
                 for (blocks, *_), size in zip(nulls, sizes)]
    side = min(_ROW_BLOCK, max(sizes))
    width = max(_label_width(n_perm) for _, _, n_perm, _ in nulls)
    energies = [None] * len(nulls)
    work = iter(range(len(nulls)))

    def share():
        scratch = _scratch(side, width)
        try:
            for k in work:
                energies[k] = _null_energies(*nulls[k], exponents[k], scratch)
        except BaseException:
            collections.deque(work, maxlen=0)
            raise

    with _PIN:
        blas_threads = _get_blas_threads and _get_blas_threads()
        try:
            if blas_threads:
                _set_blas_threads(1)
            _run_shares(share, _null_threads(len(nulls)))
        except BaseException:
            # A helper still at work, after an interrupted join, finishes
            # its null and finds no other left.
            collections.deque(work, maxlen=0)
            raise
        finally:
            if blas_threads:
                _set_blas_threads(blas_threads)
    return energies


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
    at_last = virtual >= last
    below[at_last] = above[at_last] = -1
    below, above = below.astype(np.intp), above.astype(np.intp)
    ordered = values.copy()
    ordered.partition(sorted({0, -1, *below.tolist(), *above.tolist()}))
    lo, hi = ordered[below], ordered[above]
    weight = virtual - below
    gap = hi - lo
    out = lo + gap * weight
    np.subtract(hi, gap * (1 - weight), out=out, where=weight >= 0.5)
    return out


def permutation_test(a, b, n_perm=1000, seed=0):
    """Permutation null of the energy distance under label shuffling: the
    one-test case of :func:`permutation_tests`.

    Deterministic per seed: permutation ``p`` is the ``p``-th draw of
    ``default_rng(seed).permutation(n + m)``, whose first ``n`` entries
    label group ``a``.  The statistic (``energy_distance(a, b)`` bit for bit)
    and the null come from one pass in O((n + m) * n_perm) bytes of labels
    whose BLAS sums are exact: one distance pass and one label product per
    block, an all-ones label column for the row sums and the total, and
    one exact hi/lo fold per row strip (see :func:`_split_energies`).
    One null runs on the calling thread and starts no thread, with NumPy's
    OpenBLAS set to one thread for the whole process until the call
    returns; every partial is an exact integer, so no value depends on the
    CPU count, the BLAS threads, ``_ROW_BLOCK`` or the label padding.  The null
    quantiles at ``DEFAULT_QUANTILES`` are ``np.quantile``'s default linear
    ones, bit for bit, from an in-house :func:`_quantiles`, so the test
    does not import ``numpy.ma`` as ``np.quantile`` does.
    """
    return permutation_tests([(a, b, seed)], n_perm)[0]


def permutation_tests(tests, n_perm=1000):
    """:func:`permutation_test` of each ``(a, b, seed)`` of ``tests``, in
    order and bit for bit, from one threaded pass over all their nulls
    (:func:`_split_energies`), in which each thread runs whole nulls, so
    the pass holds the labels of at most as many nulls as it has threads.
    Every pair is checked before the pass starts."""
    n_perm = require_int("n_perm", n_perm, MIN_PERMUTATIONS)
    nulls = []
    for a, b, seed in tests:
        seed = require_int("seed", seed, 0)
        nulls.append((*_pooled(a, b), n_perm, seed))
    levels = np.array(DEFAULT_QUANTILES)
    return [TwoSampleResult(float(energies[0]), dict(zip(
                DEFAULT_QUANTILES, _quantiles(energies[1:], levels).tolist())))
            for energies in _split_energies(nulls)]


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
