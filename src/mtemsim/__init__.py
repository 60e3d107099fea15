"""Truncated-coefficient explicit Euler simulation for superlinear SDEs.

The package simulates dx = f(x) dt + g(x) dB for locally Lipschitz
coefficients by radially truncating f and g at a step-size-dependent radius
h(delta), which keeps the explicit scheme exponentially stable where the
classical Euler-Maruyama iteration blows up.  It ships Monte Carlo
estimators for moment and pathwise decay exponents, sampled verifiers for
the structural lemmas the scheme rests on, and a reproducible CLI.
"""

__version__ = "0.1.0"

from .errors import (
    BracketError,
    ConfigError,
    DomainError,
    DrawerError,
    EstimationError,
    EvaluationError,
    InputError,
    MtemError,
)
from .models import (
    MODEL_KEYS,
    SamplingPlan,
    SdeModel,
    StabilityParams,
    check_trivial_solution,
    cross_check_lambda,
    estimate_lambda,
    evaluate_diffusion,
    evaluate_drift,
    example41,
    get_model,
    linear,
    stability_functional,
)
from .truncation import (
    TruncationPolicy,
    default_policy,
    derive_h_from_lipschitz,
    eval_f_delta,
    eval_g_delta,
    example41_policy,
    policy_from_lipschitz,
    verify_step_condition,
)
from .schemes import (
    BrownianPath,
    TrajectoryRecord,
    interpolate_continuous_mtem,
    interpolate_step_process,
    step_mtem,
)
from .engine import OVERFLOW_GUARD, simulate_path
from .stability import (
    ExponentFit,
    MomentEstimate,
    PathwiseExponentSummary,
    StabilityRun,
    estimate_as_exponent,
    estimate_moment_curve,
    fit_exponent,
    run_stability_mc,
    verify_lemma_global_lipschitz,
    verify_lemma_lambda_preserved,
)
from .cli import RunConfig, parse_config, run_command

__all__ = [
    "__version__",
    "MtemError", "InputError", "DomainError", "BracketError",
    "EvaluationError", "EstimationError", "ConfigError", "DrawerError",
    "SdeModel", "StabilityParams", "SamplingPlan", "MODEL_KEYS",
    "evaluate_drift", "evaluate_diffusion", "check_trivial_solution",
    "stability_functional", "estimate_lambda", "cross_check_lambda",
    "example41", "linear", "get_model",
    "TruncationPolicy", "derive_h_from_lipschitz", "policy_from_lipschitz",
    "example41_policy", "default_policy", "eval_f_delta", "eval_g_delta",
    "verify_step_condition",
    "OVERFLOW_GUARD", "BrownianPath", "TrajectoryRecord",
    "step_mtem", "simulate_path",
    "interpolate_step_process", "interpolate_continuous_mtem",
    "MomentEstimate", "ExponentFit", "PathwiseExponentSummary", "StabilityRun",
    "run_stability_mc", "estimate_moment_curve", "estimate_as_exponent",
    "fit_exponent", "verify_lemma_global_lipschitz", "verify_lemma_lambda_preserved",
    "RunConfig", "parse_config", "run_command",
]
