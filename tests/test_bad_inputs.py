"""Bad counts, seeds, shapes and time lengths raise a GuidanceLabError.

One table holds, for each public entry point of the oracle, the fields,
the divergence estimators, the metrics and the sampler, calls that pass
one bad argument.  Every call must raise a subclass of GuidanceLabError:
a NumPy error, a TypeError or a returned value fails the test.
"""

from functools import partial

import numpy as np
import pytest

import guidance_lab as gl
from guidance_lab import (
    GaussianMixture,
    GuidanceConfig,
    GuidanceLabError,
    GuidanceRule,
    HutchinsonConfig,
    SamplerConfig,
    Schedule,
    TargetPair,
)

SCH = Schedule()
UNCOND = GaussianMixture.isotropic([[0.0, 0.0], [2.0, 1.0]], [0.7, 0.9])
COND = GaussianMixture.single([0.5, 0.0], 0.3)
WIDE = GaussianMixture.single(np.zeros(3), 1.0)
PAIR = TargetPair(COND, UNCOND)
CFG = GuidanceConfig(rule=GuidanceRule.CFG, guidance_scale=3.0, min_scale=0.0,
                     decay_power=0.0)
PROJ = GuidanceConfig()
X = np.array([[0.3, -0.2], [1.0, 0.5], [-0.4, 0.8]])
T = np.array([0.2, 0.5, 0.8])
V_U, V_C = gl.velocity(UNCOND, SCH, T, X), gl.velocity(COND, SCH, T, X)
SAMPLES = np.random.default_rng(0).normal(size=(6, 2))

ORACLES = {"log_density": gl.log_density, "score": gl.score,
           "hessian_log_density": gl.hessian_log_density,
           "laplacian_log_density": gl.laplacian_log_density,
           "posterior": gl.posterior, "velocity": gl.velocity}
FIELDS = {"velocity": gl.velocity_field(UNCOND, SCH),
          "residual": gl.residual_field(COND, UNCOND, SCH),
          "parallel": gl.parallel_component_field(COND, UNCOND, SCH),
          "projected": gl.projected_update_field(COND, UNCOND, SCH, PROJ),
          "rotation": gl.score_rotation_field(UNCOND, SCH)}

CASES = {
    # counts
    "sample count -1": lambda: gl.sample(UNCOND, SCH, 0.5, -1, 0),
    "sample count 0": lambda: gl.sample(UNCOND, SCH, 0.5, 0, 0),
    "sample count 2.5": lambda: gl.sample(UNCOND, SCH, 0.5, 2.5, 0),
    "sample count True": lambda: gl.sample(UNCOND, SCH, 0.5, True, 0),
    "initial_states count 0": lambda: gl.initial_states(0, 2, 0),
    "initial_states count 2.5": lambda: gl.initial_states(2.5, 2, 0),
    "initial_states dim 0": lambda: gl.initial_states(3, 0, 0),
    "draw_initial_state dim 0": lambda: gl.draw_initial_state(0, 0),
    "permutation_test n_perm 99":
        lambda: gl.permutation_test(SAMPLES, SAMPLES, n_perm=99),
    "permutation_test n_perm 100.5":
        lambda: gl.permutation_test(SAMPLES, SAMPLES, n_perm=100.5),
    "HutchinsonConfig probes 0": lambda: HutchinsonConfig(probes=0),
    "SamplerConfig steps 0": lambda: SamplerConfig(steps=0),
    "SamplerConfig steps 2.5": lambda: SamplerConfig(steps=2.5),
    # seeds
    "sample seed -1": lambda: gl.sample(UNCOND, SCH, 0.5, 4, -1),
    "sample seed True": lambda: gl.sample(UNCOND, SCH, 0.5, 4, True),
    "sample seed 1.5": lambda: gl.sample(UNCOND, SCH, 0.5, 4, 1.5),
    "initial_states seed -1": lambda: gl.initial_states(3, 2, -1),
    "draw_initial_state seed -1": lambda: gl.draw_initial_state(2, -1),
    "draw_initial_state index -1": lambda: gl.draw_initial_state(2, 0, -1),
    "permutation_test seed -1":
        lambda: gl.permutation_test(SAMPLES, SAMPLES, n_perm=100, seed=-1),
    "SamplerConfig seed -1": lambda: SamplerConfig(seed=-1),
    "HutchinsonConfig seed True": lambda: HutchinsonConfig(seed=True),
    # shapes
    **{f"{name} point of dim 3": partial(f, UNCOND, SCH, 0.5, np.zeros(3))
       for name, f in ORACLES.items()},
    **{f"{name} 3-d points": partial(f, UNCOND, SCH, 0.5, np.zeros((1, 2, 2)))
       for name, f in ORACLES.items()},
    "GaussianMixture means 1-d":
        lambda: GaussianMixture([1.0], [0.0, 0.0], np.eye(2)[None]),
    "isotropic means 3-d": lambda: GaussianMixture.isotropic(np.zeros((2, 2, 2)), 1.0),
    "isotropic means 0-d": lambda: GaussianMixture.isotropic(0.0, 1.0),
    "isotropic scales of 3 for 2 means":
        lambda: GaussianMixture.isotropic(np.zeros((2, 2)), [1.0, 2.0, 3.0]),
    "TargetPair dims 2 and 3": lambda: TargetPair(COND, WIDE),
    "residual_field dims 2 and 3": lambda: gl.residual_field(COND, WIDE, SCH),
    "parallel_component_field dims 2 and 3":
        lambda: gl.parallel_component_field(COND, WIDE, SCH),
    "projected_update_field dims 2 and 3":
        lambda: gl.projected_update_field(COND, WIDE, SCH, PROJ),
    "score_rotation_field dim 1":
        lambda: gl.score_rotation_field(GaussianMixture.single([0.0], 1.0), SCH),
    "apply_guidance cfg velocity shapes":
        lambda: gl.apply_guidance(V_U, V_C[:2], X, 0.5, SCH, CFG),
    "apply_guidance projected velocity shapes":
        lambda: gl.apply_guidance(V_U, V_C[:2], X, 0.5, SCH, PROJ),
    "apply_guidance state shape":
        lambda: gl.apply_guidance(V_U, V_C, X[:2], 0.5, SCH, PROJ),
    "apply_guidance 3-d batch":
        lambda: gl.apply_guidance(V_U[None], V_C[None], X[None], 0.5, SCH, CFG),
    "normal_direction shapes": lambda: gl.normal_direction(V_C, X[:2], 1.0),
    "decompose shapes": lambda: gl.decompose(V_C, V_U[:2], X),
    "degenerate_threshold 0-d": lambda: gl.degenerate_threshold(1.0),
    "energy_distance 1-d": lambda: gl.energy_distance(SAMPLES[:, 0], SAMPLES),
    "energy_distance dims 2 and 3":
        lambda: gl.energy_distance(SAMPLES, np.zeros((4, 3))),
    "permutation_test one point":
        lambda: gl.permutation_test(SAMPLES[:1], SAMPLES, n_perm=100),
    "permutation_tests second pair one point":
        lambda: gl.permutation_tests([(SAMPLES, SAMPLES, 1),
                                      (SAMPLES[:1], SAMPLES, 2)], n_perm=100),
    "permutation_tests second seed -1":
        lambda: gl.permutation_tests([(SAMPLES, SAMPLES, 1),
                                      (SAMPLES, SAMPLES, -1)], n_perm=100),
    "terminal_states x0 of dim 3":
        lambda: gl.terminal_states(np.zeros((2, 3)), PAIR, SCH, PROJ,
                                   SamplerConfig(steps=2)),
    "loglog_slope lengths": lambda: gl.loglog_slope([1.0, 2.0, 4.0], [1.0, 2.0]),
    "integrate x0 of dim 3":
        lambda: gl.integrate(np.zeros(3), PAIR, SCH, PROJ, SamplerConfig(steps=2)),
    "integrate field value shape":
        lambda: gl.integrate(X, PAIR, SCH, PROJ, SamplerConfig(steps=2),
                             guidance_field=lambda x, t: np.zeros(3)),
    **{f"{name} field at a point of dim 3": partial(f, np.zeros(3), 0.5)
       for name, f in FIELDS.items()},
    "divergence_hutchinson batch":
        lambda: gl.divergence_hutchinson(FIELDS["residual"], 0.5, X,
                                         HutchinsonConfig()),
    "divergence_fd_dense point of dim 3":
        lambda: gl.divergence_fd_dense(FIELDS["residual"], 0.5, np.zeros(3)),
    "conservation_residual point of dim 3":
        lambda: gl.conservation_residual(FIELDS["rotation"], UNCOND, SCH, 0.5,
                                         np.zeros(3)),
    # time lengths
    **{f"{name} 2 times for 3 points": partial(f, UNCOND, SCH, T[:2], X)
       for name, f in ORACLES.items()},
    **{f"{name} 3 times for 1 point": partial(f, UNCOND, SCH, T, X[0])
       for name, f in ORACLES.items()},
    "sample 3 times": lambda: gl.sample(UNCOND, SCH, T, 4, 0),
    "apply_guidance cfg 2 times for 3 rows":
        lambda: gl.apply_guidance(V_U, V_C, X, T[:2], SCH, CFG),
    "apply_guidance projected 2 times for 3 rows":
        lambda: gl.apply_guidance(V_U, V_C, X, T[:2], SCH, PROJ),
    "apply_guidance projected 3 times for 1 point":
        lambda: gl.apply_guidance(V_U[0], V_C[0], X[0], T, SCH, PROJ),
    **{f"{name} field 2 times for 3 points": partial(f, X, T[:2])
       for name, f in FIELDS.items()},
    **{f"{name} divergence 2 times for 3 points": partial(f.divergence, X, T[:2])
       for name, f in FIELDS.items()},
    **{f"{name} jacobian 4 times for 3 points":
       partial(f.jacobian, X, np.append(T, 0.5)) for name, f in FIELDS.items()},
}


@pytest.mark.parametrize("call", CASES.values(),
                         ids=[name.replace(" ", "_") for name in CASES])
def test_bad_input_raises_a_guidance_lab_error(call):
    with pytest.raises(GuidanceLabError):
        call()
