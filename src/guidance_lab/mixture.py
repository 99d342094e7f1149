"""Exact Gaussian-mixture reference distributions.

A Gaussian mixture pushed through the linear noising path stays a Gaussian
mixture: component ``j`` of the time-``t`` marginal is
``Normal(alpha_t * mu_j, alpha_t**2 * Sigma_j + sigma_t**2 * I)``.  That
closure gives closed forms for everything a sampler or a divergence study
needs -- log density, score, Hessian and Laplacian of the log density,
posterior moments of the clean sample given the noisy one, and the exact
probability-flow velocity -- so numerical estimators can be certified
against ground truth instead of against each other.

Conventions used throughout:

* densities are evaluated in the log domain with log-sum-exp over
  components; responsibilities never leave the log domain until the final
  normalized weights are formed;
* every covariance is eigendecomposed once, ``Sigma_j = Q_j diag(lam_j)
  Q_j^T``, when the mixture is built.  ``M_j`` below has the same
  eigenvectors and eigenvalues ``m_j = alpha^2 lam_j + sigma^2``, so at any
  ``t`` its log-determinant, solves and inverse are diagonal scalings in
  that basis; no oracle builds a time-``t`` mixture.  A diagonal
  covariance's eigenvectors form a signed permutation, which rotates exactly;
* points ``x`` may be a single vector of shape ``(dim,)`` or a batch of
  shape ``(n, dim)``; outputs match;
* a pass runs dimension-major: it holds the points as ``(dim, n)`` and
  each per-component array as ``(k, dim, n)``, so at small ``dim`` every
  op's inner loop runs over the points, not over a few coordinates.
  Batch outputs are ``(n, dim)`` views of ``(dim, n)`` arrays, and a
  ``(n, dim)`` input that is the transpose of a C-ordered ``(dim, n)``
  array, as the Euler loop passes its states, is used without a copy;
* an oracle's every rotation into or out of an eigenbasis is one stacked
  BLAS product over the components, the point-major product with its
  operands swapped, so it rounds alike.  One point rotates with
  matrix-vector products and a batch with matrix-matrix ones, and the sums
  over components add in order for any batch size (``_sum_components``),
  so a batch row equals the same point evaluated alone bit for bit up to
  ``dim = 3``, with any number of components, and to roundoff above it (at
  most 3e-13 of the row's largest entry in a velocity or a Hessian at
  ``dim = 64``);
* the time ``t`` of a module-level oracle may be a scalar, shared by every
  point, or an ``(n,)`` array holding one time per point of the batch, so
  a whole trajectory is one call.  A per-point coefficient then scales the
  ``(dim, n)`` columns as it is, and ``m_j`` holds one column of
  eigenvalues per point; a scalar is the same computation with a single
  column that broadcasts.  These time-only terms (``_time_terms``) also
  take a whole time grid, built once; the Euler loop lays them out
  step-major and takes one ``(k, ..., 1)`` entry per step;
* a pass over a ``TargetPair``, its two targets' stacked components,
  returns both scores and velocities as one ``(targets, n, dim)`` array
  (``_scores``, ``_velocities``) and both Laplacians (``_laplacians``, as
  ``_hessians``, from the scores) as one ``(targets, n)``, each target's
  sum written into its own row.

The posterior of the clean sample ``X1`` given ``X_t = x`` is conjugate per
component:

    E[X1 | X_t = x, j]   = M_j^{-1} (sigma^2 mu_j + alpha Sigma_j x)
    Cov[X1 | X_t = x, j] = sigma^2 M_j^{-1} Sigma_j

with ``M_j = alpha^2 Sigma_j + sigma^2 I`` the marginal component
covariance, and the mixture posterior follows by the law of total variance
(component-trace part plus the spread of component means).  In the
eigenbasis these are ``Q_j (sigma^2 Q_j^T mu_j + alpha lam_j Q_j^T x) / m_j``
and the trace ``sigma^2 sum(lam_j / m_j)``.
"""

from __future__ import annotations

import contextlib
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import schedule as sched
from .errors import ConfigurationError, ShapeError, require_int

_WEIGHT_TOL = 1e-12
_LOG_2PI = float(np.log(2.0 * np.pi))


def _as_batch(x, dim):
    """Coerce ``x`` to shape (n, dim); return (batch, was_single_point)."""
    arr = np.asarray(x, dtype=float)
    if arr.ndim == 1:
        if arr.shape[0] != dim:
            raise ShapeError(f"point has dimension {arr.shape[0]}, expected {dim}")
        return arr[None, :], True
    if arr.ndim == 2:
        if arr.shape[1] != dim:
            raise ShapeError(f"points have dimension {arr.shape[1]}, expected {dim}")
        return arr, False
    raise ShapeError(f"points must be 1- or 2-dimensional, got shape {arr.shape}")


class GaussianMixture:
    """A finite Gaussian mixture with each covariance factored once.

    The eigendecompositions serve every oracle at any time ``t`` (see the
    module docstring).

    Parameters
    ----------
    weights : (k,) positive weights summing to one (tolerance 1e-12).
    means : (k, dim) component means.
    covariances : (k, dim, dim) symmetric positive-definite covariances.
    """

    def __init__(self, weights, means, covariances):
        weights = np.asarray(weights, dtype=float)
        means = np.asarray(means, dtype=float)
        covariances = np.asarray(covariances, dtype=float)
        if weights.ndim != 1 or weights.size == 0:
            raise ShapeError("weights must be a non-empty 1-d array")
        k = weights.shape[0]
        if means.ndim != 2 or means.shape[0] != k or means.shape[1] == 0:
            raise ShapeError(
                f"means must have shape ({k}, dim) with dim >= 1, got {means.shape}")
        dim = means.shape[1]
        if covariances.shape != (k, dim, dim):
            raise ShapeError(
                f"covariances must have shape ({k}, {dim}, {dim}), "
                f"got {covariances.shape}"
            )
        for name, arr in (("weights", weights), ("means", means),
                          ("covariances", covariances)):
            if not np.all(np.isfinite(arr)):
                raise ConfigurationError(f"mixture {name} must be finite")
        if np.any(weights <= 0.0):
            raise ConfigurationError("all mixture weights must be positive")
        if abs(weights.sum() - 1.0) > _WEIGHT_TOL:
            raise ConfigurationError(
                f"mixture weights must sum to 1 within {_WEIGHT_TOL}, "
                f"got sum {weights.sum()!r}"
            )
        sym_gap = np.max(np.abs(covariances - np.swapaxes(covariances, 1, 2)))
        scale = max(1.0, float(np.max(np.abs(covariances))))
        if sym_gap > 1e-10 * scale:
            raise ConfigurationError(
                f"covariances must be symmetric (max asymmetry {sym_gap})"
            )
        covariances = 0.5 * (covariances + np.swapaxes(covariances, 1, 2))
        eigvals, eigvecs = np.linalg.eigh(covariances)
        if np.any(eigvals <= 0.0):
            raise ConfigurationError("every covariance must be positive definite")

        self.weights = weights
        self.means = means
        self.covariances = covariances
        self.dim = dim
        self.n_components = k
        self._log_weights = np.log(weights)
        self._eigvals = eigvals  # (k, dim): lam_j
        self._eigvecs = eigvecs  # (k, dim, dim): columns of Q_j
        self._eigvecs_t = np.ascontiguousarray(np.swapaxes(eigvecs, 1, 2))  # Q_j^T
        self._neg_eigvecs = np.negative(self._eigvecs_t).mT  # -Q_j, laid out as Q_j
        self._rotated_means = np.einsum("kij,ki->kj", eigvecs, means)  # Q_j^T mu_j
        self._slices = (slice(0, k),)  # one target: every component
        self._starts = np.zeros(1, dtype=np.intp)  # first component of each target
        self._owner = np.zeros(k, dtype=np.intp)  # target of each component
        for arr in (self.weights, self.means, self.covariances, self._eigvals,
                    self._eigvecs, self._eigvecs_t, self._neg_eigvecs,
                    self._rotated_means):
            arr.setflags(write=False)

    # -- convenience constructors -------------------------------------------------

    @classmethod
    def single(cls, mean, cov):
        """A one-component mixture."""
        mean = np.atleast_1d(np.asarray(mean, dtype=float))
        cov = np.asarray(cov, dtype=float)
        if cov.ndim == 0:
            cov = float(cov) * np.eye(mean.shape[0])
        elif cov.ndim == 1:
            cov = np.diag(cov)
        return cls(np.array([1.0]), mean[None, :], cov[None, :, :])

    @classmethod
    def isotropic(cls, means, scales, weights=None):
        """Mixture of isotropic components; ``scales`` are standard
        deviations, each positive."""
        means = np.asarray(means, dtype=float)
        if means.ndim == 1:
            means = means[None, :]
        if means.ndim != 2:
            raise ShapeError(f"means must be (dim,) or (k, dim), got {means.shape}")
        k, dim = means.shape
        if np.shape(scales) not in ((), (1,), (k,)):
            raise ShapeError(
                f"got {np.size(scales)} isotropic scales for {k} components")
        scales = np.broadcast_to(np.asarray(scales, dtype=float), (k,))
        # NaN fails the comparison too.
        if not np.all(scales > 0.0):
            raise ConfigurationError(
                f"isotropic scales must be positive standard deviations, "
                f"got {scales.tolist()}")
        if weights is None:
            weights = np.full(k, 1.0 / k)
        covs = np.stack([(s * s) * np.eye(dim) for s in scales])
        return cls(weights, means, covs)


@dataclass(frozen=True)
class PosteriorMoments:
    """Mean and covariance trace of ``X1 | X_t = x``.

    ``mean`` has shape ``(dim,)`` (or ``(n, dim)`` for batched queries);
    ``cov_trace`` is a nonnegative scalar (or ``(n,)`` vector).
    """

    mean: np.ndarray
    cov_trace: float


@dataclass(frozen=True)
class TargetPair:
    """Conditional and unconditional analytic targets of one experiment,
    and the stack of their components, conditional first, that one oracle
    pass evaluates both with.

    Besides its two fields it holds, concatenated over the two targets, the
    arrays :func:`_evaluate_at` and :func:`_scores` read from a
    ``GaussianMixture``, with ``_slices``, each target's slice of the
    component axis, ``_starts``, their first components, and ``_owner``,
    the target of each component.
    """

    conditional: GaussianMixture
    unconditional: GaussianMixture

    def __post_init__(self):
        cond, uncond = self.conditional, self.unconditional
        if cond.dim != uncond.dim:
            raise ShapeError(
                f"conditional dim {cond.dim} != unconditional dim {uncond.dim}")
        stacked = {name: np.concatenate([getattr(cond, name), getattr(uncond, name)])
                   for name in ("means", "_log_weights", "_eigvals", "_eigvecs",
                                "_eigvecs_t")}
        stacked["_neg_eigvecs"] = np.negative(stacked["_eigvecs_t"]).mT
        for arr in stacked.values():
            arr.setflags(write=False)
        k_c, k_u = cond.n_components, uncond.n_components
        # Not fields: the repr, equality and hash see the two targets only.
        vars(self).update(stacked, _slices=(slice(0, k_c), slice(k_c, k_c + k_u)),
                          _starts=np.array([0, k_c], dtype=np.intp),
                          _owner=np.repeat(np.arange(2), [k_c, k_u]))

    @property
    def dim(self):
        return self.conditional.dim


class _Terms(NamedTuple):
    m: np.ndarray  # (k, dim, n|1) eigenvalues of M_j = alpha^2 Sigma_j + sigma^2 I
    whitened: np.ndarray  # (k, dim, n) Q_j^T (x - alpha mu_j) / m_j
    log_density: np.ndarray  # (targets, n)
    resp: np.ndarray  # (k, n) responsibilities, target i's in rows _slices[i]


def _column(c, trailing=1):
    """A per-point ``(n,)`` path coefficient with ``trailing`` unit axes
    appended, so it scales point-major arrays such as ``(T, dim)`` rows or
    ``(n, dim, dim)`` Hessians; a scalar is returned as is."""
    return c.reshape(c.shape + (1,) * trailing) if isinstance(c, np.ndarray) else c


def _sum_components(values, out=None):
    """``values[0] + values[1] + ...``, added in that order whatever the
    number of points on the trailing axis, into ``out`` if given.

    ``np.sum`` over the component axis adds in that order over fewer than
    eight components, or over several points; over eight or more components
    of one point it adds pairwise, so a batch row would not equal the point
    alone.  Those are added one in-place add per component (``np.cumsum``
    along axis 0 took ten times as long over a batch).
    """
    if len(values) < 8:
        return np.add.reduce(values, axis=0, out=out)
    if out is None:
        out = np.empty(values.shape[1:])
    np.copyto(out, values[0])
    for row in values[1:]:
        out += row
    return out


def _time_terms(stack, alpha, sigma):
    """The time-only terms ``m_j`` (k, dim, T), log normalisers (k, T) and
    ``alpha mu_j`` (k, dim, T) of a pass, one time per entry of the last
    axis: ``T = 1`` for scalar ``alpha`` and ``sigma``, ``T`` for ``(T,)``
    arrays such as a whole Euler grid.

    The log-determinants sum each time's eigenvalues along a contiguous
    row, so a time's normaliser does not depend on ``T``.
    """
    a, s = _column(alpha), _column(sigma)
    m = (a * a) * stack._eigvals[:, None, :] + s * s  # (k, T, dim)
    log_norms = stack._log_weights[:, None] - 0.5 * (
        stack.dim * _LOG_2PI + np.log(m).sum(axis=2)
    )
    return (np.ascontiguousarray(np.swapaxes(m, 1, 2)), log_norms,
            stack.means[:, :, None] * alpha)


def _ignoring_underflow():
    """A context that ignores floating-point underflow: none where the
    caller's state already ignores it, as NumPy's default does, else
    ``np.errstate(under="ignore")``.  An ``errstate`` slows some NumPy
    calls inside it, by up to about 2.5% for a small matmul, ``einsum`` or
    sum (timeit, one BLAS thread), so only :func:`_pass` and the Euler loop enter it."""
    if np.geterr()["under"] == "ignore":
        return contextlib.nullcontext()
    return np.errstate(under="ignore")


def _evaluate(stack, alpha, sigma, pts):
    """:func:`_evaluate_at` over :func:`_time_terms`: ``alpha`` and
    ``sigma`` are scalars, one time for every point, or ``(n,)`` arrays,
    one time per point."""
    if isinstance(alpha, np.ndarray) and alpha.shape != (pts.shape[0],):
        raise ShapeError(
            f"times have shape {alpha.shape}; expected a scalar or "
            f"({pts.shape[0]},), one per point"
        )
    return _evaluate_at(stack, *_time_terms(stack, alpha, sigma), pts)


@contextlib.contextmanager
def _pass(stack, schedule, t, x):
    """The one entry of an oracle pass outside the Euler loop: yields the
    ``(n, dim)`` points of ``x``, whether it was one point, and the
    :func:`_evaluate` terms at ``t``, with underflow ignored in the ``with``
    block, where the caller ends its arithmetic: far from a component the
    log-sum-exp and each responsibility-weighted product underflow to 0."""
    pts, single = _as_batch(x, stack.dim)
    with _ignoring_underflow():
        yield pts, single, _evaluate(stack, *_path(schedule, t), pts)


def _evaluate_at(stack, m, log_norms, scaled_means, pts):
    """Terms of each target ``sum_j w_j Normal(alpha mu_j, M_j)`` of
    ``stack`` at ``pts`` (n, dim), given :func:`_time_terms` of one time
    or of ``n`` times (one per point).

    The pass runs dimension-major: the points as ``(dim, n)``, taken
    without a copy when ``pts`` is the transpose of a C-ordered ``(dim, n)``
    array, as the Euler loop passes it, and every per-component array as
    ``(k, dim, n)``.  So each op's inner loop runs over the ``n`` points,
    and every sum over dimensions or components adds whole rows.  The
    rotations are the BLAS calls of the point-major layout with their
    operands swapped, so they round alike.

    ``stack`` is a ``GaussianMixture``, one target, or a ``TargetPair``,
    such as the two targets of a guided Euler step: one pass then serves
    both.  Each component's arithmetic does not depend on what else is
    stacked with it, and each target takes its log-sum-exp's maximum and
    sum over its own slice of components (around one ``exp``, one ``log``
    and one more ``exp`` over the stack), so a target's terms equal those
    of a pass over that target alone bit for bit.  A finite maximum leaves
    an ``exp(0) = 1`` term in its sum, so ``log`` never sees zero; only a
    column whose maximum is not finite is shifted by zero, under
    ``errstate(divide="ignore")``, so a point where every component
    underflows gets log density -inf, not NaN.  The log-sum-exp's ``exp``
    underflows to zero for components far from a point, as it should, so
    both callers, :func:`_pass` and the Euler loop, ignore underflow
    (:func:`_ignoring_underflow`) around their whole use of the terms; the
    loop enters it once per call, not once per step: an ``errstate`` costs
    about 1 us, and a single-point step about 30 us.
    """
    delta = np.ascontiguousarray(pts.T) - scaled_means
    # Columns Q_j^T (x - alpha mu_j).
    resid = stack._eigvecs.mT @ delta
    whitened = resid / m
    lp = log_norms - 0.5 * np.add.reduce(resid * whitened, axis=1)  # (k, n)
    # Both exps run in place, in the gathers' buffers: with two more fresh
    # (k, n) arrays a pass over 2049 points took 15% longer.
    top = np.maximum.reduceat(lp, stack._starts, axis=0)  # (targets, n)
    # A finite total has finite terms (an overflow just takes the guard).
    finite = math.isfinite(np.add.reduce(top, axis=None))
    if not finite:
        top[~np.isfinite(top)] = 0.0
    shifted = top.take(stack._owner, axis=0)
    np.exp(np.subtract(lp, shifted, out=shifted), out=shifted)
    sums = np.empty_like(top)
    for i, components in enumerate(stack._slices):
        _sum_components(shifted[components], out=sums[i])
    if finite:
        log_density = np.log(sums)
    else:
        with np.errstate(divide="ignore"):
            log_density = np.log(sums)
    log_density += top
    resp = log_density.take(stack._owner, axis=0)
    np.exp(np.subtract(lp, resp, out=resp), out=resp)
    return _Terms(m, whitened, log_density, resp)


def _scores(stack, terms):
    """Per-component scores ``u_j = -Q_j w_j`` (k, dim, n) and every
    target's mixture score ``sum_j r_j u_j`` over its components, as one
    ``(targets, n, dim)`` view of a ``(targets, dim, n)`` array: each
    target's sum is written into its row in component order, so target
    ``i``'s ``(n, dim)`` score is ``[i]``.  The rotation takes the stored
    ``-Q_j``, laid out as ``Q_j``, so it equals ``-(Q_j w_j)`` bit for bit,
    save that an exact zero comes out +0, not -0."""
    comp = stack._neg_eigvecs @ terms.whitened
    weighted = terms.resp[:, None, :] * comp
    scores = np.empty((len(stack._slices),) + comp.shape[1:])
    for i, components in enumerate(stack._slices):
        _sum_components(weighted[components], out=scores[i])
    return comp, scores.mT


def _hessians(stack, terms, scored, pts):
    """Per target of ``stack``, the Hessian ``sum_j r_j (dev_j dev_j^T -
    M_j^{-1})`` (n, dim, dim) at ``pts``, from one pass's ``terms`` and its
    :func:`_scores` ``scored``.  A Hessian is point-major; its products take
    the dimension-major factors as transposed views."""
    comp, scores = scored
    hessians = []
    for components, s in zip(stack._slices, scores):
        resp = terms.resp[components]
        # sum_j r_j M_j^{-1} with M_j^{-1} = Q_j diag(1 / m_j) Q_j^T: one
        # BLAS product per component, so no (k, n, dim, dim) stack is formed.
        h = np.zeros((pts.shape[0], stack.dim, stack.dim))
        for q, scaled in zip(stack._eigvecs[components],
                             resp[:, None, :] / terms.m[components]):
            h -= (q * scaled.T[:, None, :]) @ q.T
        # sum_j r_j dev_j dev_j^T as one (dim, k) @ (k, dim) BLAS product per
        # point, whose shape does not depend on n (a three-operand einsum is
        # ten times slower at dim = 512).  dev is copied to C-ordered
        # (k, n, dim) rows, so each point's (k, dim) factor suits BLAS.
        dev = np.ascontiguousarray(np.swapaxes(comp[components] - s.T, 1, 2))
        weighted = np.transpose(dev, (1, 2, 0)) * resp.T[:, None, :]  # (n, dim, k)
        h += weighted @ np.swapaxes(dev, 0, 1)
        hessians.append(h)
    return tuple(hessians)


def _hessian_products(stack, terms, scored, vectors):
    """Per target ``i`` of ``stack``, its Hessian (see :func:`_hessians`)
    times each of its own ``vectors[i]`` (v_i, dim, n), one dimension-major
    column per point, from one pass's ``terms`` and its :func:`_scores`
    ``scored``: ``H w = sum_j r_j (dev_j (dev_j . w) - Q_j diag(1 / m_j)
    Q_j^T w)``, a ``(v_i, dim, n)`` array per target.  Each target forms
    only the products it is given.  No ``(dim, dim)`` array is formed per
    point: a product costs two rotations, one BLAS call per component and
    vector, as a score costs one, and each target's terms add in component
    order (``_sum_components``)."""
    comp, scores = scored
    products = []
    for components, s, w in zip(stack._slices, scores, vectors):
        # -Q_j (Q_j^T w / m_j) for each component and vector: (k, v, dim, n).
        inverse = stack._neg_eigvecs[components, None] @ (
            (stack._eigvecs.mT[components, None] @ w)
            / terms.m[components, None])
        dev = (comp[components] - s.T)[:, None]  # (k, 1, dim, n)
        along = np.add.reduce(dev * w, axis=2, keepdims=True)  # dev_j . w
        inverse += dev * along
        inverse *= terms.resp[components][:, None, None, :]
        products.append(_sum_components(inverse))
    return products


def _velocities(stack, terms, state_coef, score_coef, pts):
    """Score-route velocities ``a_t * x - b_t * score`` of every target of
    ``stack`` at ``pts`` (n, dim), from one pass's ``terms``: one
    ``(targets, n, dim)`` view of a ``(targets, dim, n)`` array, formed for
    all targets with one multiply and one subtract over the stacked scores
    of :func:`_scores`.  A coefficient is a scalar or ``(n,)``, one per
    point, and scales the dimension-major columns as it is."""
    _, scores = _scores(stack, terms)
    return (state_coef * pts.T - score_coef * scores.mT).mT


def _laplacians(stack, terms, scored):
    """Per target of ``stack``, the Laplacian ``sum_j r_j (|u_j - s|^2 -
    tr M_j^{-1})``, centred, from one pass's ``terms`` and its
    :func:`_scores` ``scored``: row ``i`` of a ``(targets, n)`` array."""
    comp, scores = scored
    laplacians = np.empty(terms.log_density.shape)
    for i, (components, s) in enumerate(zip(stack._slices, scores)):
        dev = comp[components] - s.T
        sq = (dev * dev).sum(axis=1)  # (k, n)
        inv_traces = (1.0 / terms.m[components]).sum(axis=1)  # (k, n|1)
        _sum_components(terms.resp[components] * (sq - inv_traces),
                        out=laplacians[i])
    return laplacians


def _path(schedule, t):
    point = sched.evaluate(schedule, t)
    return point.alpha, point.sigma


def log_density(target, schedule, t, x):
    """Log density of the time-``t`` marginal at ``x``."""
    with _pass(target, schedule, t, x) as (_, single, terms):
        vals, = terms.log_density
    return float(vals[0]) if single else vals


def score(target, schedule, t, x):
    """Score (gradient of log density) of the time-``t`` marginal at ``x``."""
    with _pass(target, schedule, t, x) as (_, single, terms):
        _, (s,) = _scores(target, terms)
    return s[0] if single else s


def hessian_log_density(target, schedule, t, x):
    """Hessian of the time-``t`` marginal log density at ``x``: ``(dim, dim)``
    for one point, ``(n, dim, dim)`` for a batch."""
    with _pass(target, schedule, t, x) as (pts, single, terms):
        h, = _hessians(target, terms, _scores(target, terms), pts)
    return h[0] if single else h


def laplacian_log_density(target, schedule, t, x):
    """Laplacian of the time-``t`` marginal log density at ``x``.

    Computed from mixture Hessian algebra on the marginal; the posterior
    route ``(alpha^2 * cov_trace - dim * sigma^2) / sigma^4`` is provided
    by :func:`posterior` and serves as an independent cross-check.
    """
    with _pass(target, schedule, t, x) as (_, single, terms):
        vals, = _laplacians(target, terms, _scores(target, terms))
    return float(vals[0]) if single else vals


def _marginal_moments(target, alpha, sigma):
    """Means ``alpha mu_j`` (k, dim) and covariances ``M_j = alpha^2 Sigma_j +
    sigma^2 I`` (k, dim, dim) of the marginal's components at one time."""
    return alpha * target.means, ((alpha * alpha) * target.covariances
                                  + (sigma * sigma) * np.eye(target.dim))


def sample(target, schedule, t, count, seed):
    """Draw ``count`` points of the time-``t`` marginal, deterministic for a
    fixed ``seed``: ``alpha mu_j`` plus the Cholesky factor of ``M_j`` times
    a standard normal draw, with ``j`` drawn by weight.  Each factor is
    applied to the rows that drew its component, so no ``(count, dim, dim)``
    stack of factors is gathered (4.2 GB for 2000 draws at ``dim = 512``).
    ``count`` is an int of at least 1 and ``seed`` one of at least 0."""
    if np.ndim(t) != 0:
        raise ShapeError(f"sample takes one time, got shape {np.shape(t)}")
    count = require_int("count", count, 1)
    seed = require_int("seed", seed, 0)
    means, covs = _marginal_moments(target, *_path(schedule, t))
    rng = np.random.default_rng(seed)
    idx = rng.choice(target.n_components, size=count, p=target.weights)
    z = rng.standard_normal((count, target.dim))
    noise = np.empty_like(z)
    for j, chol in enumerate(np.linalg.cholesky(covs)):
        rows = idx == j
        noise[rows] = np.einsum("ij,nj->ni", chol, z[rows])
    return means[idx] + noise


def posterior(target, schedule, t, x) -> PosteriorMoments:
    """Conjugate posterior moments of the clean sample given ``X_t = x``."""
    alpha, sigma = _path(schedule, t)
    with _pass(target, schedule, t, x) as (pts, single, terms):
        resp, m = terms.resp, terms.m
        lam = target._eigvals[:, :, None]

        sig2 = sigma * sigma
        rotated = target._eigvecs.mT @ np.ascontiguousarray(pts.T)  # Q_j^T x
        comp_means = target._eigvecs_t.mT @ (
            (sig2 * target._rotated_means[:, :, None] + alpha * lam * rotated) / m)
        comp_traces = sig2 * np.sum(lam / m, axis=1)  # (k, n|1)

        mean = _sum_components(resp[:, None, :] * comp_means)  # (dim, n)
        diff = comp_means - mean
        spread = _sum_components((resp[:, None, :] * diff * diff).sum(axis=1))
        cov_trace = _sum_components(resp * comp_traces) + spread
    if single:
        return PosteriorMoments(mean=mean[:, 0], cov_trace=float(cov_trace[0]))
    return PosteriorMoments(mean=mean.T, cov_trace=cov_trace)


def velocity(target, schedule, t, x):
    """Exact probability-flow velocity ``a_t * x - b_t * score_t(x)`` of the
    time-``t`` marginal at ``x``; :func:`_predictor_velocity` is the
    reference route the tests compare it with."""
    with _pass(target, schedule, t, x) as (pts, single, terms):
        v, = _velocities(target, terms, *sched.coefficients(schedule, t), pts)
    return v[0] if single else v


def _predictor_velocity(target, schedule, t, x):
    """The velocity ``d_alpha * x1_hat + d_sigma * x0_hat``, with ``x1_hat``
    the posterior mean and ``x0_hat = (x - alpha * x1_hat) / sigma``.  It
    shares no code with :func:`velocity` beyond the per-component marginal
    terms of :func:`_evaluate`, so their agreement is a meaningful check."""
    pts, single = _as_batch(x, target.dim)
    x1_hat = posterior(target, schedule, t, pts).mean.T
    alpha, sigma, d_alpha, d_sigma = sched.evaluate(schedule, t)
    x0_hat = (pts.T - alpha * x1_hat) / sigma
    v = (d_alpha * x1_hat + d_sigma * x0_hat).T
    return v[0] if single else v
