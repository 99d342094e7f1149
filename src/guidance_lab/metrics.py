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
remainders, and both parts are folded into the thread's own sums (see
``_split_energies``).  A block's grid distances are
computed in NumPy, one coordinate at a time, and equal ``np.rint(cdist(...))``
of SciPy bit for bit (see ``_grid_distances``), so no kind imports SciPy.

Several nulls run as one pass: ``permutation_tests`` hands every null of
a sampling job to one ``_split_energies`` call, and ``permutation_test``
is its one-null case.  The pass sets NumPy's bundled OpenBLAS to one
thread while it runs and restores the caller's count after it, and runs
on two threads where the process may use two CPUs (its affinity set): the
calling thread and one helper thread, started once per pass, take their
items from one work list, each null's label draw and then its row strips.
The pin is process-wide: a caller running BLAS on another thread during
a pass runs at one thread too, and passes on several threads of one
process run one at a time.  Where NumPy links another BLAS the pass runs
unpinned, with the same bits, only slower.  A label draw holds
the GIL, so the other thread's strips stall behind it rather than run
beside it: 100 permutations of 4,098 beside 40 label products took
14.3 ms on two threads and 14.2 ms one after the other, and the labels
drawn alone plus the pass with its labels drawn beforehand exceeded the
real pass by only 2.5 ms for two N = 4,098 nulls (a 59.6 ms pass), and by
0.5 ms or less for two d = 16, N = 800 nulls or eight N = 400 ones (in
process, one BLAS thread, two CPUs).  Every partial a thread
keeps, and every sum of them, is an exact integer, and each null's
labels come from its own seed, so no value depends on the thread count,
on which thread ran an item or on the other nulls of the pass.  The
helper is joined before the pass returns or raises, so no thread
outlives the call.
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


def _null_threads(strips):
    """Threads a pass of ``strips`` row strips, over all its nulls, runs on:
    at most one per CPU of this process's affinity set.

    The pass pins OpenBLAS to one thread: with a BLAS thread per CPU, both
    threads' products queued on its pool and the split pass was slower than
    one thread (an N = 4,000, ``n_perm`` = 200 null: 76-80 -> 87-88 ms,
    2-core Xeon VM).
    """
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:  # not on every platform
        cpus = os.cpu_count() or 1
    return min(cpus, strips, _MAX_THREADS)


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
    """One thread's buffers for every strip it runs in a pass, ``side`` the
    tallest strip and ``width`` the widest labels of the pass's nulls: the
    flat distance, spare, accumulator and two label buffers, whose heads a
    strip views (:func:`_shaped`), the diagonal block's mask and a row of
    ones.  The spare buffer holds a block's squared coordinate differences
    while its distances are formed, then its label product."""
    return (np.empty(side * side), np.empty(side * max(side, width)),
            *(np.empty(side * width) for _ in range(3)),
            np.tri(side, dtype=bool), np.ones(side))


def _strip_sums(factors, labels, start, scratch):
    """One work item of a thread's share of a pass: the row strip of one
    null that starts at row ``start``, in this thread's :func:`_scratch`
    buffers.  ``factors`` are the :func:`_difference_factors` of the null's
    pooled points in grid units.

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


class _Pass:
    """The work list of one pass over several nulls, and what its threads
    share.

    The list holds, per null ``k``, a preparation item ``(k, None)`` (its
    grid factors and its label draw) and one item ``(k, start)`` per row
    strip.  The first ``threads`` nulls are prepared first; after the
    strips of null ``k`` comes the preparation of null ``k + threads``,
    which waits until every strip of null ``k`` has finished and its inputs
    are freed.  So at most ``threads`` nulls' labels and factors are held
    at a time.  A label draw holds the GIL, so it overlaps the other
    thread's strips very little (see the module docstring): the list
    balances the threads' work, it does not hide the draws.  A strip whose null is still being
    prepared waits for it.  Each ``next`` on the shared list iterator runs
    under the GIL, so every item goes to exactly one thread.
    """

    def __init__(self, nulls, sizes, exponents):
        self.nulls, self.sizes, self.exponents = nulls, sizes, exponents
        self.left = [-(-size // _ROW_BLOCK) for size in sizes]
        self.threads = threads = _null_threads(sum(self.left))
        self.inputs = [None] * len(nulls)
        self.side = min(_ROW_BLOCK, max(sizes))
        self.width = max(_label_width(n_perm) for _, _, n_perm, _ in nulls)
        order = [(k, None) for k in range(min(threads, len(nulls)))]
        for k, size in enumerate(sizes):
            order += [(k, start) for start in range(0, size, _ROW_BLOCK)]
            if k + threads < len(nulls):
                order.append((k + threads, None))
        self.work = iter(order)
        self.failed = False
        self.changed = threading.Condition()

    def abort(self):
        """Stop the pass: no thread takes another item or waits on one, and
        a thread at work stops after its current strip."""
        collections.deque(self.work, maxlen=0)
        with self.changed:
            self.failed = True
            self.changed.notify_all()

    def _await(self, ready):
        """Wait until ``ready()`` holds; False if the pass was stopped."""
        with self.changed:
            self.changed.wait_for(lambda: self.failed or ready())
            return not self.failed

    def _prepare(self, k):
        """Null ``k``'s grid factors and labels, once null ``k - threads``
        has freed its own; False if the pass was stopped."""
        blocks, n, n_perm, seed = self.nulls[k]
        behind = k - self.threads
        if behind >= 0 and not self._await(lambda: not self.left[behind]):
            return False
        inputs = (_difference_factors(*blocks, exponent=self.exponents[k]),
                  _draw_labels(self.sizes[k], n, n_perm, seed))
        with self.changed:
            self.inputs[k] = inputs
            self.changed.notify_all()
        return True

    def share(self):
        """One thread's share: the items it takes from the list, each strip
        run through :func:`_strip_sums` in this thread's own buffers.
        Returns the thread's folds per null, None where it ran no strip."""
        scratch = _scratch(self.side, self.width)
        folds = [None] * len(self.nulls)
        try:
            for k, start in self.work:
                if start is None:
                    if not self._prepare(k):
                        break
                    continue
                if not self._await(lambda: self.inputs[k] is not None):
                    break
                part = _strip_sums(*self.inputs[k], start, scratch)
                folds[k] = part if folds[k] is None else folds[k] + part
                with self.changed:
                    self.left[k] -= 1
                    if not self.left[k]:
                        self.inputs[k] = None
                        self.changed.notify_all()
        except BaseException:
            self.abort()
            raise
        return folds


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
    ``_null_threads`` threads, the caller and its helpers, started once
    for all the nulls, which take their work from one list
    (:class:`_Pass`): each null's label draw, then its row strips (row block
    ``I`` with every block right of it), each thread folding a strip into
    its own sums; the caller adds the threads' sums per null.  Every
    partial is exact and every null's labels come from its own seed, so
    neither the order, the thread a strip ran on nor the other nulls of the
    pass can move a bit.
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
    work = _Pass(nulls, sizes, exponents)
    with _PIN:
        blas_threads = _get_blas_threads and _get_blas_threads()
        try:
            if blas_threads:
                _set_blas_threads(1)
            parts = _run_shares(work.share, work.threads)
        except BaseException:
            # A helper still at work on this pass, after an interrupted
            # join, finds no item left and stops after its current strip.
            work.abort()
            raise
        finally:
            if blas_threads:
                _set_blas_threads(blas_threads)
    return [_energies(sum(part[k] for part in parts if part[k] is not None),
                      size, n, n_perm, exponent)
            for k, ((_, n, n_perm, _), size, exponent)
            in enumerate(zip(nulls, sizes, exponents))]


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
    The label draw and the row strips run on two threads where the process
    may use two CPUs (the helper thread is started and joined within the
    call), with NumPy's OpenBLAS set to one thread for the whole process
    until the call returns; every per-thread partial is an exact integer,
    so no value depends on the thread or CPU count, the BLAS threads,
    ``_ROW_BLOCK`` or the label padding.  The null
    quantiles at ``DEFAULT_QUANTILES`` are ``np.quantile``'s default linear
    ones, bit for bit, from an in-house :func:`_quantiles`, so the test
    does not import ``numpy.ma`` as ``np.quantile`` does.
    """
    return permutation_tests([(a, b, seed)], n_perm)[0]


def permutation_tests(tests, n_perm=1000):
    """:func:`permutation_test` of each ``(a, b, seed)`` of ``tests``, in
    order and bit for bit, from one threaded pass over all their nulls
    (:func:`_split_energies`), which holds the labels of at most as many
    nulls as it has threads.  Every pair is checked before the pass
    starts."""
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
