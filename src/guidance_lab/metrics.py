"""Two-sample statistics and log-log slope fits for experiment reports.

Energy distance is the workhorse: parameter-free, exact at small scale,
and sensitive to any distributional difference.  It is the U-statistic
(self-pairs excluded), which is unbiased and is what the permutation test
resamples; unbiasedness means it can dip slightly below zero for samples
from equal distributions.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

import numpy as np
from scipy.spatial.distance import cdist, pdist

from .errors import ConfigurationError, DomainError, ShapeError

# Rows of the pooled distance matrix the permutation test holds at once.
_ROW_BLOCK = 64

DEFAULT_QUANTILES = (0.5, 0.9, 0.95, 0.99)

# Fewest permutations whose null quantiles the test reports.
MIN_PERMUTATIONS = 100


@dataclass(frozen=True)
class TwoSampleResult:
    """Observed statistic plus permutation-null quantiles."""

    statistic: float
    null_quantiles: Dict[float, float]
    n_perm: int


def _check_samples(a, b):
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.ndim != 2 or b.ndim != 2:
        raise ShapeError(
            f"samples must be 2-d (n, dim) matrices, got {a.shape} and {b.shape}"
        )
    if a.shape[1] != b.shape[1]:
        raise ShapeError(f"dimension mismatch: {a.shape[1]} vs {b.shape[1]}")
    if a.shape[0] < 2 or b.shape[0] < 2:
        raise ShapeError("each sample needs at least 2 points")
    return a, b


def _pair_count(n):
    """Ordered pairs a within-sample mean averages over, self-pairs
    excluded."""
    return n * (n - 1)


def _within_mean(sample):
    total = 2.0 * float(np.sum(pdist(sample)))
    return total / _pair_count(sample.shape[0])


def energy_distance(a, b):
    """Energy distance ``2 E|A-B| - E|A-A'| - E|B-B'|`` between samples.

    The within terms exclude self-pairs (the U-statistic: unbiased, may be
    slightly negative for equal distributions).  Exactly symmetric in its
    arguments: the pair is ordered canonically before any summation.
    """
    a, b = _check_samples(a, b)
    if a.tobytes() > b.tobytes():
        a, b = b, a
    between = float(np.mean(cdist(a, b)))
    return 2.0 * between - _within_mean(a) - _within_mean(b)


def _permutation_null(pooled, n, n_perm, seed):
    """Energy distance of each of ``n_perm`` seeded splits of ``pooled``.

    Column ``p`` of the 0/1 matrix ``labels`` marks group ``a`` of split
    ``p``.  With ``D`` the pooled distance matrix and ``r`` its row sums,
    group ``a`` has within sum ``z^T D z``, the between sum is
    ``z^T r - z^T D z`` and group ``b`` has within sum
    ``sum(r) - 2 z^T r + z^T D z``.
    """
    size = pooled.shape[0]
    m = size - n
    rng = np.random.default_rng(seed)
    labels = np.zeros((size, n_perm))
    for p in range(n_perm):
        labels[rng.permutation(size)[:n], p] = 1.0
    row_sums = np.empty(size)
    sum_a = np.zeros(n_perm)
    for start in range(0, size, _ROW_BLOCK):
        rows = slice(start, start + _ROW_BLOCK)
        block = cdist(pooled[rows], pooled)
        row_sums[rows] = np.sum(block, axis=1)
        sum_a += np.einsum("ip,ip->p", labels[rows],
                           np.einsum("ij,jp->ip", block, labels))
    from_a = np.einsum("i,ip->p", row_sums, labels)
    between = (from_a - sum_a) / (n * m)
    sum_b = float(np.sum(row_sums)) - 2.0 * from_a + sum_a
    return 2.0 * between - sum_a / _pair_count(n) - sum_b / _pair_count(m)


def permutation_test(a, b, n_perm=1000, seed=0, quantiles=DEFAULT_QUANTILES):
    """Permutation null of the energy distance under label shuffling.

    Deterministic per seed: permutation ``p`` is the ``p``-th draw of
    ``default_rng(seed).permutation(n + m)``, whose first ``n`` entries
    label group ``a``.  One code path serves every size: all permutations
    are contracted together against the pooled distance matrix, which is
    built ``_ROW_BLOCK`` rows at a time and never held whole, so memory is
    O(_ROW_BLOCK * (n + m) + (n + m) * n_perm) doubles.  The contractions
    use ``np.einsum``, not a BLAS product whose summation order depends on
    the BLAS thread count, so the null does not depend on it either.
    """
    if n_perm < MIN_PERMUTATIONS:
        raise ConfigurationError(
            f"n_perm must be >= {MIN_PERMUTATIONS}, got {n_perm}")
    a, b = _check_samples(a, b)
    statistic = energy_distance(a, b)
    null = _permutation_null(np.concatenate([a, b], axis=0), a.shape[0],
                             n_perm, seed)
    qs = {float(q): float(np.quantile(null, q)) for q in quantiles}
    return TwoSampleResult(statistic=statistic, null_quantiles=qs, n_perm=n_perm)


def loglog_slope(xs, ys):
    """Least-squares slope of ``log ys`` against ``log xs``."""
    xs = np.asarray(xs, dtype=float)
    ys = np.asarray(ys, dtype=float)
    if xs.ndim != 1 or ys.ndim != 1 or xs.shape != ys.shape:
        raise ShapeError(f"xs and ys must be equal-length vectors, got "
                         f"{xs.shape} and {ys.shape}")
    if xs.shape[0] < 3:
        raise ShapeError(f"need at least 3 points for a slope, got {xs.shape[0]}")
    if np.any(xs <= 0.0) or np.any(ys <= 0.0):
        raise DomainError("loglog_slope requires strictly positive entries")
    return float(np.polyfit(np.log(xs), np.log(ys), 1)[0])
