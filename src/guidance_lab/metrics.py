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
spare bit for (see ``_split_energies``).
"""

from __future__ import annotations

import math
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
    """Exact split of integer-valued ``values`` as ``hi * 2**_SPLIT + lo``."""
    hi = np.floor(np.ldexp(values, -_SPLIT))
    return np.stack([hi, values - np.ldexp(hi, _SPLIT)])


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
    """
    # Imported here, not at module level: importing scipy.spatial takes about
    # 0.45 s and 30 MB of a fresh process (2-core Xeon VM, scipy 1.17), and
    # verify, trace_divergence and sweep_beta never compute a distance, so
    # they start without it.
    from scipy.spatial.distance import cdist

    size = pooled.shape[0]
    diagonal = math.dist(pooled.max(axis=0), pooled.min(axis=0))
    if not math.isfinite(2.0 * diagonal):
        raise DomainError(f"twice the bounding-box diagonal {diagonal} overflows")
    bits = 52 - (size - 1).bit_length()
    exponent = (math.frexp(diagonal)[1] if diagonal > 0.0 else 0) - bits
    points = np.ldexp(pooled, -exponent)  # exact: distances in units of h
    labels = np.zeros((size, n_perm + 1))
    labels[:n, 0] = 1.0
    rng = np.random.default_rng(seed)
    for p in range(1, n_perm + 1):
        labels[rng.permutation(size)[:n], p] = 1.0
    r = np.zeros(size)
    sums = np.zeros((3, 2, n_perm + 1))  # (z^T K z, z^T r, sum(r)) x (hi, lo)
    for start in range(0, size, _ROW_BLOCK):
        rows = slice(start, start + _ROW_BLOCK)
        block = np.rint(cdist(points[rows], points[rows]))
        acc = block @ labels[rows]
        r[rows] += block.sum(axis=1)
        for col in range(start + _ROW_BLOCK, size, _ROW_BLOCK):
            cols = slice(col, col + _ROW_BLOCK)
            block = np.rint(cdist(points[rows], points[cols]))
            acc += 2.0 * (block @ labels[cols])
            r[rows] += block.sum(axis=1)
            r[cols] += block.sum(axis=0)
        # Row block ``rows`` of ``acc`` and ``r`` is complete: fold it in.
        row_parts = _hi_lo(r[rows])
        sums[0] += np.einsum("ip,kip->kp", labels[rows], _hi_lo(acc))
        sums[1] += row_parts @ labels[rows]
        sums[2] += row_parts.sum(axis=1)[:, None]
    in_a, from_a, total = sums
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


def permutation_test(a, b, n_perm=1000, seed=0, quantiles=DEFAULT_QUANTILES):
    """Permutation null of the energy distance under label shuffling.

    Deterministic per seed: permutation ``p`` is the ``p``-th draw of
    ``default_rng(seed).permutation(n + m)``, whose first ``n`` entries
    label group ``a``.  The statistic (``energy_distance(a, b)`` bit for bit)
    and the null come from one pass in O((n + m) * n_perm) memory whose BLAS
    sums are exact: no value depends on BLAS threads or ``_ROW_BLOCK``.
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
    values = np.quantile(energies[1:], quantiles)
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
    if np.unique(log_xs).size < 2:
        raise DomainError("loglog_slope needs at least two distinct xs")
    return float(np.polyfit(log_xs, np.log(ys), 1)[0])
