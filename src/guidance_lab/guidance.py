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
               ``lam = <g, n> / ||n||^2`` and Hessian-vector products
* update:      the trace of its assembled Jacobian.

The pair fields (residual, parallel, projected update) make one oracle
pass over their ``mixture.TargetPair`` per value (both velocities),
divergence (both scores and Laplacians) or Jacobian (the Hessians too).
"""

from __future__ import annotations

import contextlib
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
    v, x = np.asarray(velocity_value, dtype=float), np.asarray(x, dtype=float)
    if v.shape != x.shape:
        raise ShapeError(f"velocity shape {v.shape} != state shape {x.shape}")
    return state_coef * x - v


def degenerate_threshold(x):
    """Norm threshold below which the normal is treated as zero at ``x``."""
    x = np.asarray(x, dtype=float)
    if x.ndim == 0:
        raise ShapeError("degenerate_threshold takes a point or a batch, not a scalar")
    dim = x.shape[-1]
    # np.linalg.norm's arithmetic for one real axis, without its dispatch.
    return 1e-12 * np.sqrt(dim) * (1.0 + np.sqrt(np.add.reduce(x * x, axis=-1)))


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
    g = np.ascontiguousarray(g.T)
    par = _parallel(g, n, x)
    return par.T, (g - par).T


def _parallel(g, n, x):
    """:func:`decompose`'s parallel part, unchecked, as a C-ordered ``(dim,
    n)`` array: ``g`` is the residual, C-ordered ``(dim, n)``, and ``n``
    the normal as an ``(n, dim)`` batch or a point."""
    n = np.ascontiguousarray(n.T)
    nn = np.sum(n * n, axis=0)
    ok = np.sqrt(nn) > degenerate_threshold(x)
    coef = np.divide(np.sum(g * n, axis=0), nn, out=np.zeros_like(nn), where=ok)
    return coef * n


def _scale_at(config, t):
    """The rule's scale at ``t``: CFG's constant ``guidance_scale``, or the
    projected rule's :func:`schedule.guidance_scale_at`."""
    if config.rule is GuidanceRule.CFG:
        return float(config.guidance_scale)
    return sched.guidance_scale_at(config, t)


def _scales(config, times):
    """:func:`_scale_at` at each of ``times``, a list of floats from the
    scalar call; CFG's scale is constant, so it is taken once."""
    if config.rule is GuidanceRule.CFG:
        return [_scale_at(config, times[0])] * len(times)
    return [_scale_at(config, t) for t in times]


def _update(v_c, v_u, x, state_coef, scale, config):
    """The update of ``config``'s rule from both velocities at the states
    ``x``, equal-shape points or ``(n, dim)`` batches, given the path's
    ``state_coef`` (unused by CFG) and the rule's ``scale``, each a scalar
    or an ``(n, 1)`` column: the arithmetic of :func:`apply_guidance` and
    of every Euler step, unchecked."""
    g = v_c - v_u
    if config.rule is GuidanceRule.CFG:
        return scale * g
    src = v_c if config.normal_source is NormalSource.CONDITIONAL else v_u
    par = _parallel(np.ascontiguousarray(g.T), state_coef * x - src, x).T
    return scale * (g + (config.parallel_scale - 1.0) * par)


def apply_guidance(v_uncond, v_cond, x, t, schedule, config):
    """The configured guidance rule's update at one state (or a batch),
    at one time ``t`` or one time per row.

    The sampler integrates ``v_uncond + update``.  For ``GuidanceRule.CFG``
    the update is ``guidance_scale * residual``; for the projected rule it
    is ``scale(t) * (residual + (parallel_scale - 1) * parallel)``.  Other
    than one point or batch shape for all three arrays, and a scalar ``t``
    or one per batch row, raises ShapeError; only shapes are compared.
    """
    v_u = np.asarray(v_uncond, dtype=float)
    v_c = np.asarray(v_cond, dtype=float)
    x = np.asarray(x, dtype=float)
    if not (v_u.shape == v_c.shape == x.shape and x.ndim in (1, 2)):
        raise ShapeError(f"velocities and state must be equal-shape points or batches, "
                         f"got {v_u.shape}, {v_c.shape} and {x.shape}")
    # As the schedule reads times: a list, tuple or array is one per row.
    if (isinstance(t, (np.ndarray, list, tuple)) and np.ndim(t) != 0
            and (x.ndim != 2 or np.shape(t) != x.shape[:1])):
        raise ShapeError(f"times of shape {np.shape(t)} for states of shape {x.shape}")
    state_coef = (None if config.rule is GuidanceRule.CFG else
                  mix._column(sched.coefficients(schedule, t).state_coef))
    return _update(v_c, v_u, x, state_coef, mix._column(_scale_at(config, t)),
                   config)


# -- exact oracle fields -----------------------------------------------------------


def _rows_of(x, values):
    """Per-row ``values`` for a batch ``x``; the single row for a point."""
    return values[0] if np.ndim(x) == 1 else values


def velocity_field(target, schedule):
    """Exact marginal velocity of ``target`` as a VectorField."""

    def fn(x, t):
        return mix.velocity(target, schedule, t, x)

    def div_fn(x, t):
        with mix._pass(target, schedule, t, x) as (_, _, terms):
            lap, = mix._laplacians(target, terms, mix._scores(target, terms))
            a, b = sched.coefficients(schedule, t)
            return _rows_of(x, target.dim * a - b * lap)

    def jac_fn(x, t):
        with mix._pass(target, schedule, t, x) as (pts, _, terms):
            h, = mix._hessians(target, terms, mix._scores(target, terms), pts)
            a, b = (mix._column(c, 2) for c in sched.coefficients(schedule, t))
            return _rows_of(x, a * np.eye(target.dim) - b * h)

    return VectorField(fn, target.dim, div_fn, jac_fn, "velocity")


@contextlib.contextmanager
def _pair_velocities(pair, schedule, t, x):
    """Both targets' velocities, each shaped as ``x``, yielded inside one
    pass (``mixture._pass``), so the caller's arithmetic on them runs there."""
    with mix._pass(pair, schedule, t, x) as (pts, single, terms):
        v = mix._velocities(pair, terms, *sched.coefficients(schedule, t), pts)
        yield v[:, 0] if single else v


def residual_field(conditional, unconditional, schedule):
    """Unit guidance residual ``v_c - v_u`` with exact divergence/Jacobian.

    The exact divergence uses the Laplacian route
    ``-b_t * (lap log p_c - lap log p_u)``; the exact Jacobian uses the
    mixture Hessians.  Those two come from different identities, which the
    test-suite exploits.
    """
    pair = mix.TargetPair(conditional, unconditional)

    def fn(x, t):
        with _pair_velocities(pair, schedule, t, x) as velocities:
            return np.subtract(*velocities)

    def div_fn(x, t):
        with mix._pass(pair, schedule, t, x) as (_, _, terms):
            lap_c, lap_u = mix._laplacians(pair, terms, mix._scores(pair, terms))
            _, b = sched.coefficients(schedule, t)
            return _rows_of(x, -b * (lap_c - lap_u))

    def jac_fn(x, t):
        with mix._pass(pair, schedule, t, x) as (pts, _, terms):
            h_c, h_u = mix._hessians(pair, terms, mix._scores(pair, terms), pts)
            _, b = sched.coefficients(schedule, t)
            return _rows_of(x, -mix._column(b, 2) * (h_c - h_u))

    return VectorField(fn, conditional.dim, div_fn, jac_fn, "residual")


class _PairTerms(NamedTuple):
    div_par: np.ndarray  # (n,) product-rule divergence of g_par
    lap: np.ndarray  # (2, n) Laplacians of log p_c and log p_u
    jac_par: Optional[np.ndarray] = None  # (n, dim, dim) Jacobian of g_par, if asked for
    hessians: Optional[tuple] = None  # (n, dim, dim) H_c and H_u, with jac_par
    b: object = None  # b_t, a scalar or one per row, with jac_par


@contextlib.contextmanager
def _pair_terms(pair, schedule, t, x, normal_source, jacobians=False):
    """The divergence of ``g_par`` and both targets' Laplacians at every row
    of ``x`` (a point or a batch), and with ``jacobians`` the exact
    Jacobian of ``g_par``, both Hessians and ``b``, yielded inside one
    oracle pass (``mixture._pass``) over the ``mixture.TargetPair`` ``pair``.

    With ``g = -b (s_c - s_u)``, ``n = b s_src`` and ``lam = <g, n> / ||n||^2``
    the parallel field ``g_par = lam n`` has Jacobian
    ``n grad_lam^T + lam J_n`` and divergence ``<n, grad_lam> + lam div n``,
    with ``div n = b lap_src`` and ``grad_lam`` from the products ``H_c n``,
    ``H_u n`` and ``H_src g`` (``mixture._hessian_products``): only the
    Jacobians form a ``(dim, dim)`` array per point.  No term depends on
    ``parallel_scale``, so one evaluation serves the update of every
    ``beta``, which the caller forms inside the pass (:func:`_update_jacobian`).
    Raises DegenerateNormalError at any row whose normal has norm at most
    ``degenerate_threshold``, where :func:`decompose` passes the residual
    through whole and ``g_par`` has no derivative to report.
    """
    with mix._pass(pair, schedule, t, x) as (pts, _, terms):
        scored = mix._scores(pair, terms)
        _, b = sched.coefficients(schedule, t)
        lap = mix._laplacians(pair, terms, scored)
        # Dimension-major (targets, dim, n) scores: a per-point coefficient
        # scales their columns as it is, and a sum over dimensions adds rows.
        scores = scored[1].mT
        src = 0 if normal_source is NormalSource.CONDITIONAL else 1
        g = -b * (scores[0] - scores[1])
        n = b * scores[src]
        # Each row's normal is scaled by the power of two that puts its
        # largest |entry| in [0.5, 1), and so are ``b_n`` (``J_n = b_n
        # H_src``) and ``div n``, so that ||n||^2 and its square neither
        # overflow nor underflow.  The scale is exact, and lam n, J_par and
        # div g_par do not depend on it.  ``div n`` is scaled once formed,
        # so where it overflows (|b_t| near 1e308) so does div g_par.
        shift = np.frexp(np.max(np.abs(n), axis=0))[1]
        np.ldexp(n, -shift, out=n)
        b_n = np.ldexp(b, -shift)
        div_n = np.ldexp(b * lap[src], -shift)
        nn = np.add.reduce(n * n, axis=0)
        degenerate = np.ldexp(np.sqrt(nn), shift) <= degenerate_threshold(pts)
        if np.any(degenerate):
            row = int(np.argmax(degenerate))
            raise DegenerateNormalError(f"normal direction vanished at row {row}")
        # H_c n and H_u n, and H_src g beside H_src n: no other product.
        vectors = [n[None], n[None]]
        vectors[src] = np.stack([n, g])
        products = mix._hessian_products(pair, terms, scored, vectors)
        gn = np.add.reduce(g * n, axis=0)
        lam = gn / nn
        grad_lam = ((b_n * products[src][1] - b * (products[0][0] - products[1][0]))
                    / nn - (2.0 * gn / (nn * nn)) * (b_n * products[src][0]))
        div_par = np.add.reduce(n * grad_lam, axis=0) + lam * div_n
        if not jacobians:
            yield _PairTerms(div_par, lap)
            return
        hessians = mix._hessians(pair, terms, scored, pts)
        jac_par = (n.T[:, :, None] * grad_lam.T[:, None, :]
                   + (lam * b_n)[:, None, None] * hessians[src])
        yield _PairTerms(div_par, lap, jac_par, hessians, b)


def _update_jacobian(terms, config, t):
    """``scale(t) * (J_g + (parallel_scale - 1) * J_par)`` per row of the
    :func:`_pair_terms` ``terms`` (with Jacobians), ``J_g = -b (H_c -
    H_u)``: the Jacobian of the projected update."""
    jac_g = -mix._column(terms.b, 2) * np.subtract(*terms.hessians)
    scale = mix._column(sched.guidance_scale_at(config, t), 2)
    return scale * (jac_g + (config.parallel_scale - 1.0) * terms.jac_par)


def parallel_component_field(conditional, unconditional, schedule,
                             normal_source=NormalSource.CONDITIONAL):
    """Score-parallel part of the residual, with exact divergence/Jacobian.

    The exact divergence comes from the product rule on ``lam(x) n(x)``
    (a scalar formula over Hessian-vector products), while the exact
    Jacobian is assembled as a matrix from the Hessians;
    ``trace(jacobian)`` therefore reaches the same number through different
    arithmetic.
    """
    pair = mix.TargetPair(conditional, unconditional)

    def fn(x, t):
        with _pair_velocities(pair, schedule, t, x) as (v_c, v_u):
            state_coef = mix._column(sched.coefficients(schedule, t).state_coef)
            src = v_c if normal_source is NormalSource.CONDITIONAL else v_u
            return decompose(v_c - v_u, normal_direction(src, x, state_coef), x)[0]

    def div_fn(x, t):
        with _pair_terms(pair, schedule, t, x, normal_source) as terms:
            return _rows_of(x, terms.div_par)

    def jac_fn(x, t):
        with _pair_terms(pair, schedule, t, x, normal_source, jacobians=True) as terms:
            return _rows_of(x, terms.jac_par)

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
    pair = mix.TargetPair(conditional, unconditional)

    def fn(x, t):
        with _pair_velocities(pair, schedule, t, x) as (v_c, v_u):
            return apply_guidance(v_u, v_c, x, t, schedule, config)

    def jac_fn(x, t):
        with _pair_terms(pair, schedule, t, x, config.normal_source,
                         jacobians=True) as terms:
            return _rows_of(x, _update_jacobian(terms, config, t))

    def div_fn(x, t):
        return np.einsum("...ii->...", jac_fn(x, t))

    return VectorField(fn, conditional.dim, div_fn, jac_fn, "projected-update")


def score_rotation_field(target, schedule, scale=1.0):
    """``scale * R @ score`` with ``R`` the generator of rotations in the
    plane of the first two coordinates, so ``target.dim`` is at least 2.

    For any target the field is divergence-free in combination with the
    score (``div g = scale * tr(R H)`` vanishes for symmetric ``H`` and
    ``<R s, s> = 0``), i.e. it is an exactly conservative guidance field.
    """
    dim = target.dim
    if dim < 2:
        raise ConfigurationError(f"a rotation needs dim >= 2, got dim {dim}")
    rot = np.zeros((dim, dim))
    rot[0, 1] = -1.0
    rot[1, 0] = 1.0

    def fn(x, t):
        with mix._pass(target, schedule, t, x) as (_, _, terms):
            return _rows_of(x, scale * (mix._scores(target, terms)[1][0] @ rot.T))

    def div_fn(x, t):
        with mix._pass(target, schedule, t, x) as (pts, _, terms):
            h, = mix._hessians(target, terms, mix._scores(target, terms), pts)
            return _rows_of(x, scale * np.einsum("ij,...ij->...", rot, h))

    def jac_fn(x, t):
        with mix._pass(target, schedule, t, x) as (pts, _, terms):
            h, = mix._hessians(target, terms, mix._scores(target, terms), pts)
            return _rows_of(x, scale * (rot @ h))

    return VectorField(fn, dim, div_fn, jac_fn, "rotated-score")
