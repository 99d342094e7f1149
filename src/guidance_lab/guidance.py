"""Guidance rules for probability-flow sampling.

Given the conditional and unconditional velocities ``v_c`` and ``v_u`` at a
state, classifier-free guidance (CFG) integrates
``v_u + scale * (v_c - v_u)``.  The projected rule treats the unit residual
``g = v_c - v_u`` geometrically instead: it splits ``g`` about the normal
direction ``n = a_t * x - v`` (which is proportional to the score of the
chosen velocity's marginal), damps the score-parallel part by
``parallel_scale`` and applies a time-decaying scale:

    update = scale(t) * (g_orth + parallel_scale * g_par)
           = scale(t) * (g + (parallel_scale - 1) * g_par)

The second form is used for the arithmetic because it makes
``parallel_scale = 1`` with a constant scale reproduce CFG bit for bit.
One batched split, ``decompose``, serves the sampler, the parallel field
and the verify checks; where the normal is degenerate it passes the whole
residual through as the orthogonal part.  ``apply_guidance`` returns only
the update the sampler integrates.

Fields built by the ``*_field`` constructors in this module carry exact
divergences and Jacobians derived from the Gaussian-mixture oracle, which
is what lets stochastic divergence estimators be calibrated against truth:

* velocity:    ``div v = dim * a_t - b_t * lap log p``
* residual:    ``div g = -b_t * (lap log p_c - lap log p_u)``
* parallel:    product rule on ``g_par = lam(x) n(x)`` with
               ``lam = <g, n> / ||n||^2`` and exact mixture Hessians.

The pair fields (residual, parallel, projected update) stack their two
targets once and make one oracle pass over the stack per value (both
velocities), divergence or Jacobian (both scores, Hessians, Laplacians).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Callable, NamedTuple, Optional

import numpy as np

from . import mixture as mix
from . import schedule as sched
from .errors import (
    CapabilityError,
    ConfigurationError,
    DegenerateNormalError,
    ShapeError,
    require_real,
)


class GuidanceRule(enum.Enum):
    CFG = "cfg"
    PROJECTED = "projected"


class NormalSource(enum.Enum):
    """Which velocity defines the normal direction for the split."""

    CONDITIONAL = "conditional"
    UNCONDITIONAL = "unconditional"


@dataclass(frozen=True)
class GuidanceConfig:
    """Parameters of a guidance rule.

    ``guidance_scale`` is the CFG strength (and the ``t = 0`` value of the
    projected rule's schedule), ``min_scale`` its floor, ``decay_power``
    the exponent of the ``(1 - t) ** decay_power`` decay, and
    ``parallel_scale`` the damping applied to the score-parallel residual
    component.  ``parallel_scale`` may exceed 1 (amplification) to support
    sweeps.
    """

    rule: GuidanceRule = GuidanceRule.PROJECTED
    guidance_scale: float = 5.0
    min_scale: float = 1.0
    decay_power: float = 4.0
    parallel_scale: float = 0.1
    normal_source: NormalSource = NormalSource.CONDITIONAL

    def __post_init__(self):
        if not isinstance(self.rule, GuidanceRule):
            raise ConfigurationError(f"unknown guidance rule {self.rule!r}")
        if not isinstance(self.normal_source, NormalSource):
            raise ConfigurationError(f"unknown normal source {self.normal_source!r}")
        for name in ("guidance_scale", "min_scale", "decay_power",
                     "parallel_scale"):
            object.__setattr__(self, name, require_real(name, getattr(self, name)))
        if self.guidance_scale <= 0.0:
            raise ConfigurationError(
                f"guidance_scale must be positive, got {self.guidance_scale}"
            )
        if self.min_scale < 0.0:
            raise ConfigurationError(
                f"min_scale must be nonnegative, got {self.min_scale}"
            )
        if self.min_scale > self.guidance_scale:
            raise ConfigurationError(
                f"min_scale ({self.min_scale}) must not exceed "
                f"guidance_scale ({self.guidance_scale})"
            )
        if self.decay_power < 0.0:
            raise ConfigurationError(
                f"decay_power must be nonnegative, got {self.decay_power}"
            )
        if self.parallel_scale < 0.0:
            raise ConfigurationError(
                f"parallel_scale must be nonnegative, got {self.parallel_scale}"
            )


@dataclass(frozen=True)
class VectorField:
    """A time-dependent vector field ``(x, t) -> R^dim``.

    ``fn``, the value, and the optional callables ``div_fn`` and ``jac_fn``,
    the exact divergence and Jacobian, all take ``x`` of shape ``(dim,)``
    or ``(n, dim)`` and ``t`` a float or an ``(n,)`` array (one time per
    point), so a whole trajectory is one call.  The value matches the shape
    of ``x``; the divergence is a float or ``(n,)``, the Jacobian
    ``(dim, dim)`` or ``(n, dim, dim)``.  Calling the field converts a
    scalar time to a float and passes an array through; the oracle fields
    raise ShapeError for times of the wrong length.  Fields without
    ``div_fn`` or ``jac_fn`` can still be differentiated numerically;
    ``label`` names the field in error messages.
    """

    fn: Callable[[np.ndarray, object], np.ndarray]
    dim: int
    div_fn: Optional[Callable] = None
    jac_fn: Optional[Callable] = None
    label: str = field(default="")

    def __call__(self, x, t):
        t = float(t) if np.ndim(t) == 0 else np.asarray(t, dtype=float)
        return self.fn(np.asarray(x, dtype=float), t)

    def divergence(self, x, t):
        if self.div_fn is None:
            raise CapabilityError(
                f"field {self.label or '<anonymous>'} has no exact divergence"
            )
        x = np.asarray(x, dtype=float)
        div = self.div_fn(x, t)
        return float(div) if x.ndim == 1 else np.asarray(div, dtype=float)

    def jacobian(self, x, t):
        if self.jac_fn is None:
            raise CapabilityError(
                f"field {self.label or '<anonymous>'} has no exact Jacobian"
            )
        return self.jac_fn(np.asarray(x, dtype=float), t)


# -- elementary operations ---------------------------------------------------------


def normal_direction(velocity_value, x, state_coef):
    """Normal direction ``a_t * x - v`` implied by a velocity evaluation."""
    return state_coef * np.asarray(x, dtype=float) - np.asarray(velocity_value, float)


def degenerate_threshold(x):
    """Norm threshold below which the normal is treated as zero at ``x``."""
    x = np.asarray(x, dtype=float)
    dim = x.shape[-1]
    return 1e-12 * np.sqrt(dim) * (1.0 + np.linalg.norm(x, axis=-1))


def decompose(residual, normal, x):
    """Split ``residual`` into components parallel and orthogonal to ``normal``.

    Takes one point ``(dim,)`` or a batch ``(n, dim)``; ``x`` is the state
    (or states) the normal was formed at.  A row whose normal has norm at
    most ``degenerate_threshold(x)`` has no direction to project on, so its
    residual passes through whole as the orthogonal part.  Above the
    threshold the projection is scale-free in ``normal``.

    The split runs on C-ordered ``(dim, n)`` columns, so each sum over
    dimensions adds whole rows in the same order for any input layout; a
    batch that is the transpose of a dimension-major array, as the Euler
    loop passes it, needs no copy.  The parts come back as ``(n, dim)``
    views of ``(dim, n)`` arrays.
    """
    g = np.asarray(residual, dtype=float)
    n = np.asarray(normal, dtype=float)
    if g.shape != n.shape or g.shape != np.shape(x) or g.ndim not in (1, 2):
        raise ShapeError(
            f"residual, normal and state must be equal-shape points or "
            f"batches, got {g.shape}, {n.shape} and {np.shape(x)}"
        )
    g, n = np.ascontiguousarray(g.T), np.ascontiguousarray(n.T)
    nn = np.sum(n * n, axis=0)
    ok = np.sqrt(nn) > degenerate_threshold(x)
    coef = np.divide(np.sum(g * n, axis=0), nn, out=np.zeros_like(nn), where=ok)
    par = coef * n
    return par.T, (g - par).T


def apply_guidance(v_uncond, v_cond, x, t, schedule, config):
    """The configured guidance rule's update at one state (or a batch),
    at one time ``t`` or one time per row.

    The sampler integrates ``v_uncond + update``.  For ``GuidanceRule.CFG``
    the update is ``guidance_scale * residual``; for the projected rule it
    is ``scale(t) * (residual + (parallel_scale - 1) * parallel)``.
    """
    if config.rule is GuidanceRule.CFG:
        return float(config.guidance_scale) * np.subtract(v_cond, v_uncond, dtype=float)
    v_u = np.asarray(v_uncond, dtype=float)
    v_c = np.asarray(v_cond, dtype=float)
    g = v_c - v_u
    x = np.asarray(x, dtype=float)
    state_coef = mix._column(sched.coefficients(schedule, t).state_coef)
    src = v_c if config.normal_source is NormalSource.CONDITIONAL else v_u
    par, _ = decompose(g, normal_direction(src, x, state_coef), x)
    scale = mix._column(sched.guidance_scale_at(config, t))
    return scale * (g + (config.parallel_scale - 1.0) * par)


# -- exact oracle fields -----------------------------------------------------------


def velocity_field(target, schedule):
    """Exact marginal velocity of ``target`` as a VectorField."""

    def fn(x, t):
        return mix.velocity(target, schedule, t, x)

    def div_fn(x, t):
        a, b = sched.coefficients(schedule, t)
        return target.dim * a - b * mix.laplacian_log_density(target, schedule, t, x)

    def jac_fn(x, t):
        a, b = (mix._column(c, 2) for c in sched.coefficients(schedule, t))
        return a * np.eye(target.dim) - b * mix.hessian_log_density(
            target, schedule, t, x
        )

    return VectorField(fn, target.dim, div_fn, jac_fn, "velocity")


def _pass(stack, schedule, t, x):
    """One oracle pass over ``stack`` at the rows of ``x``: the points, the
    terms and the scores ``mixture._hessians`` and ``_laplacians`` reduce."""
    pts, _ = mix._as_batch(x, stack.dim)
    terms = mix._evaluate(stack, *mix._path(schedule, t), pts)
    return pts, terms, mix._scores(stack, terms)


def _pair_velocities(stack, schedule, t, x):
    """Both targets' velocities, each shaped as ``x``, from one pass."""
    pts, _ = mix._as_batch(x, stack.dim)
    terms = mix._evaluate(stack, *mix._path(schedule, t), pts)
    v = mix._velocities(stack, terms, *sched.coefficients(schedule, t), pts)
    return v[:, 0] if np.ndim(x) == 1 else v


def _rows_of(x, values):
    """Per-row ``values`` for a batch ``x``; the single row for a point."""
    return values[0] if np.ndim(x) == 1 else values


def residual_field(conditional, unconditional, schedule):
    """Unit guidance residual ``v_c - v_u`` with exact divergence/Jacobian.

    The exact divergence uses the Laplacian route
    ``-b_t * (lap log p_c - lap log p_u)``; the exact Jacobian uses the
    mixture Hessians.  Those two come from different identities, which the
    test-suite exploits.
    """
    stack = mix._Stack(conditional, unconditional)

    def fn(x, t):
        return np.subtract(*_pair_velocities(stack, schedule, t, x))

    def div_fn(x, t):
        _, terms, scored = _pass(stack, schedule, t, x)
        lap_c, lap_u = mix._laplacians(stack, terms, scored)
        _, b = sched.coefficients(schedule, t)
        return _rows_of(x, -b * (lap_c - lap_u))

    def jac_fn(x, t):
        pts, terms, scored = _pass(stack, schedule, t, x)
        h_c, h_u = mix._hessians(stack, terms, scored, pts)
        _, b = sched.coefficients(schedule, t)
        return _rows_of(x, -mix._column(b, 2) * (h_c - h_u))

    return VectorField(fn, conditional.dim, div_fn, jac_fn, "residual")


class _PairTerms(NamedTuple):
    jac_g: np.ndarray  # (n, dim, dim) Jacobian of the residual g
    jac_par: np.ndarray  # (n, dim, dim) Jacobian of g_par
    div_par: np.ndarray  # (n,) product-rule divergence of g_par
    lap: np.ndarray  # (2, n) Laplacians of log p_c and log p_u


def _pair_terms(stack, schedule, t, x, normal_source):
    """Exact Jacobians of ``g`` and ``g_par``, the divergence of ``g_par``
    and both targets' Laplacians at every row of ``x`` (a point or a
    batch), from one oracle pass (:func:`_pass`) over ``stack``, the
    conditional and unconditional target stacked in that order.

    With ``g = -b (s_c - s_u)``, ``n = b s_src`` and ``lam = <g, n> / ||n||^2``
    the parallel field ``g_par = lam n`` has Jacobian
    ``n grad_lam^T + lam J_n`` and divergence ``<n, grad_lam> + lam div n``.
    No term depends on ``parallel_scale``, so one evaluation serves the
    update of every ``beta`` (:func:`_update_jacobian`).
    Raises DegenerateNormalError if the normal vanishes at any row.
    """
    pts, terms, scored = _pass(stack, schedule, t, x)
    _, b = sched.coefficients(schedule, t)
    _, scores = scored
    hessians = mix._hessians(stack, terms, scored, pts)
    src = 0 if normal_source is NormalSource.CONDITIONAL else 1
    g = -mix._column(b, 1) * (scores[0] - scores[1])
    n = mix._column(b, 1) * scores[src]
    jac_g = -mix._column(b, 2) * (hessians[0] - hessians[1])
    jac_n = mix._column(b, 2) * hessians[src]
    div_n = b * np.einsum("nii->n", hessians[src])
    nn = np.sum(n * n, axis=1)
    if np.any(nn == 0.0):
        row = int(np.argmax(nn == 0.0))
        raise DegenerateNormalError(f"normal direction vanished at row {row}")
    gn = np.sum(g * n, axis=1)
    lam = gn / nn
    grad_lam = (
        np.einsum("nji,nj->ni", jac_g, n) + np.einsum("nji,nj->ni", jac_n, g)
    ) / nn[:, None] - (2.0 * gn / (nn * nn))[:, None] * np.einsum(
        "nji,nj->ni", jac_n, n)
    jac_par = n[:, :, None] * grad_lam[:, None, :] + lam[:, None, None] * jac_n
    div_par = np.sum(n * grad_lam, axis=1) + lam * div_n
    return _PairTerms(jac_g, jac_par, div_par, mix._laplacians(stack, terms, scored))


def _update_jacobian(terms, config, t):
    """``scale(t) * (J_g + (parallel_scale - 1) * J_par)`` per row of the
    :func:`_pair_terms` ``terms``: the Jacobian of the projected update."""
    scale = mix._column(sched.guidance_scale_at(config, t), 2)
    return scale * (terms.jac_g + (config.parallel_scale - 1.0) * terms.jac_par)


def _update_divergence(terms, config, t):
    """The trace of :func:`_update_jacobian`, one divergence per row."""
    return np.einsum("nii->n", _update_jacobian(terms, config, t))


def parallel_component_field(conditional, unconditional, schedule,
                             normal_source=NormalSource.CONDITIONAL):
    """Score-parallel part of the residual, with exact divergence/Jacobian.

    The exact divergence comes from the product rule on ``lam(x) n(x)``
    (a scalar formula), while the exact Jacobian is assembled as a matrix;
    ``trace(jacobian)`` therefore reaches the same number through different
    arithmetic.
    """
    stack = mix._Stack(conditional, unconditional)

    def fn(x, t):
        v_c, v_u = _pair_velocities(stack, schedule, t, x)
        state_coef = mix._column(sched.coefficients(schedule, t).state_coef)
        src = v_c if normal_source is NormalSource.CONDITIONAL else v_u
        return decompose(v_c - v_u, normal_direction(src, x, state_coef), x)[0]

    def terms(x, t):
        return _pair_terms(stack, schedule, t, x, normal_source)

    def div_fn(x, t):
        return _rows_of(x, terms(x, t).div_par)

    def jac_fn(x, t):
        return _rows_of(x, terms(x, t).jac_par)

    return VectorField(fn, conditional.dim, div_fn, jac_fn, "parallel")


def projected_update_field(conditional, unconditional, schedule, config):
    """The projected rule's update vector as a field of ``(x, t)``.

    The exact divergence is the trace of the assembled exact Jacobian
    ``scale(t) * (J_g + (parallel_scale - 1) * J_par)`` -- deliberately a
    different arithmetic path from the scalar decomposition identity
    ``scale(t) * (div g - (1 - parallel_scale) * div g_par)``.
    """
    if config.rule is not GuidanceRule.PROJECTED:
        raise ConfigurationError("projected_update_field requires the projected rule")
    stack = mix._Stack(conditional, unconditional)

    def fn(x, t):
        v_c, v_u = _pair_velocities(stack, schedule, t, x)
        return apply_guidance(v_u, v_c, x, t, schedule, config)

    def terms(x, t):
        return _pair_terms(stack, schedule, t, x, config.normal_source)

    def jac_fn(x, t):
        return _rows_of(x, _update_jacobian(terms(x, t), config, t))

    def div_fn(x, t):
        return _rows_of(x, _update_divergence(terms(x, t), config, t))

    return VectorField(fn, conditional.dim, div_fn, jac_fn, "projected-update")


def score_rotation_field(target, schedule, scale=1.0, axes=(0, 1)):
    """``scale * R @ score`` with ``R`` an antisymmetric plane generator.

    For any target the field is divergence-free in combination with the
    score (``div g = scale * tr(R H)`` vanishes for symmetric ``H`` and
    ``<R s, s> = 0``), i.e. it is an exactly conservative guidance field.
    """
    i, j = axes
    dim = target.dim
    if not (0 <= i < dim and 0 <= j < dim and i != j):
        raise ConfigurationError(f"rotation axes {axes} invalid for dim {dim}")
    rot = np.zeros((dim, dim))
    rot[i, j] = -1.0
    rot[j, i] = 1.0

    def fn(x, t):
        s = mix.score(target, schedule, t, x)
        return scale * (s @ rot.T)

    def div_fn(x, t):
        h = mix.hessian_log_density(target, schedule, t, x)
        return scale * np.einsum("ij,...ij->...", rot, h)

    def jac_fn(x, t):
        h = mix.hessian_log_density(target, schedule, t, x)
        return scale * (rot @ h)

    return VectorField(fn, dim, div_fn, jac_fn, "rotated-score")
