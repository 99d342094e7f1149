"""Numerical laboratory for guided probability-flow ODE sampling.

Closed-form Gaussian-mixture targets provide exact densities, scores,
Hessians, and posterior moments along a linear interpolation schedule;
guidance rules (classifier-free and score-parallel-projected) and their
exact divergences are built on top, together with stochastic divergence
estimators, a fixed-step Euler sampler, two-sample metrics, and a
config-driven CLI that emits CSV/JSON artifacts.
"""

from .config import (
    ExperimentConfig,
    KINDS,
    config_from_dict,
    config_to_dict,
    default_config,
    default_target_pair,
    load_config,
    target_from_dict,
    target_to_dict,
)
from .divergence import (
    DivergenceEstimate,
    HutchinsonConfig,
    conservation_residual,
    divergence_fd_dense,
    divergence_hutchinson,
)
from .errors import (
    CapabilityError,
    ConfigurationError,
    DegenerateNormalError,
    DomainError,
    EstimationError,
    GuidanceLabError,
    IntegrationError,
    ShapeError,
)
from .guidance import (
    GuidanceConfig,
    GuidanceRule,
    NormalSource,
    VectorField,
    apply_guidance,
    decompose,
    degenerate_threshold,
    normal_direction,
    parallel_component_field,
    projected_update_field,
    residual_field,
    score_rotation_field,
    velocity_field,
)
from .metrics import (
    TwoSampleResult,
    energy_distance,
    loglog_slope,
    permutation_test,
)
from .mixture import (
    GaussianMixture,
    PosteriorMoments,
    hessian_log_density,
    laplacian_log_density,
    log_density,
    marginal_at,
    posterior,
    score,
    velocity,
)
from .sampler import (
    SamplerConfig,
    TargetPair,
    TrajectoryRecord,
    draw_initial_state,
    initial_states,
    integrate,
)
from .schedule import (
    DEFAULT_T_MAX,
    DEFAULT_T_MIN,
    PathCoefficients,
    Schedule,
    SchedulePoint,
    coefficients,
    evaluate,
    guidance_scale_at,
)
from .tables import Table, format_value
from .verify import CheckResult, report_dict, run_all_checks

__version__ = "0.1.0"

__all__ = [
    "CapabilityError",
    "CheckResult",
    "ConfigurationError",
    "DEFAULT_T_MAX",
    "DEFAULT_T_MIN",
    "DegenerateNormalError",
    "DivergenceEstimate",
    "DomainError",
    "EstimationError",
    "ExperimentConfig",
    "GaussianMixture",
    "GuidanceConfig",
    "GuidanceLabError",
    "GuidanceRule",
    "HutchinsonConfig",
    "IntegrationError",
    "KINDS",
    "NormalSource",
    "PathCoefficients",
    "PosteriorMoments",
    "SamplerConfig",
    "Schedule",
    "SchedulePoint",
    "ShapeError",
    "Table",
    "TargetPair",
    "TrajectoryRecord",
    "TwoSampleResult",
    "VectorField",
    "apply_guidance",
    "coefficients",
    "config_from_dict",
    "config_to_dict",
    "conservation_residual",
    "decompose",
    "default_config",
    "default_target_pair",
    "degenerate_threshold",
    "divergence_fd_dense",
    "divergence_hutchinson",
    "draw_initial_state",
    "energy_distance",
    "evaluate",
    "format_value",
    "guidance_scale_at",
    "hessian_log_density",
    "initial_states",
    "integrate",
    "laplacian_log_density",
    "load_config",
    "log_density",
    "loglog_slope",
    "marginal_at",
    "normal_direction",
    "parallel_component_field",
    "permutation_test",
    "posterior",
    "projected_update_field",
    "report_dict",
    "residual_field",
    "run_all_checks",
    "score",
    "score_rotation_field",
    "target_from_dict",
    "target_to_dict",
    "velocity",
    "velocity_field",
]
