"""Nonnegative canonical polyadic decomposition of dense tensors.

A Gauss-Newton method on the forward-backward envelope, whose direction is
one damped dense linear solve, with a projected gradient fallback and a
seeded experiment harness.  See the README for usage.
"""

from .calculus import (
    EvalCounters,
    GramianOperator,
    KernelBasis,
    cauchy_scale,
    explicit_jacobian,
    gradient,
    kernel_basis,
)
from .checks import CheckResult, run_checks
from .constraints import (
    DegenerateBlockError,
    FeasibilityReport,
    FeasibleSet,
    is_feasible,
    proj_jacobian,
    project,
)
from .experiments import (
    InstanceSpec,
    convergence_slope,
    gen_exact_instance,
    gen_inexact_instance,
    gradient_count_to_threshold,
    perturb_solution,
    random_feasible_point,
    run_experiment_compare,
    run_experiment_quadratic,
)
from .forward_backward import CpdProblem, StepState, fb_step, jhat_operator, solve_direction
from .rng import substream
from .solver import (
    IterationRecord,
    NonFiniteError,
    SolverConfig,
    SolverResult,
    SolverTrace,
    estimate_lipschitz,
    gamma_condition,
    greedy_term_match,
    matched_distance,
    matched_relative_error,
    panoc_solve,
    pgd_solve,
)
from .tensors import (
    CpdPoint,
    CpdStructure,
    DenseTensor,
    khatri_rao,
    objective_value,
    residual_values,
    ten_read,
    ten_write,
    tensor_from_cpd,
)

__version__ = "0.1.0"

__all__ = [
    "CheckResult",
    "CpdPoint",
    "CpdProblem",
    "CpdStructure",
    "DegenerateBlockError",
    "DenseTensor",
    "EvalCounters",
    "FeasibilityReport",
    "FeasibleSet",
    "GramianOperator",
    "InstanceSpec",
    "IterationRecord",
    "KernelBasis",
    "NonFiniteError",
    "SolverConfig",
    "SolverResult",
    "SolverTrace",
    "StepState",
    "cauchy_scale",
    "convergence_slope",
    "estimate_lipschitz",
    "explicit_jacobian",
    "fb_step",
    "gamma_condition",
    "gen_exact_instance",
    "gen_inexact_instance",
    "gradient",
    "gradient_count_to_threshold",
    "greedy_term_match",
    "is_feasible",
    "jhat_operator",
    "kernel_basis",
    "khatri_rao",
    "matched_distance",
    "matched_relative_error",
    "objective_value",
    "panoc_solve",
    "perturb_solution",
    "pgd_solve",
    "proj_jacobian",
    "project",
    "random_feasible_point",
    "residual_values",
    "run_checks",
    "run_experiment_compare",
    "run_experiment_quadratic",
    "solve_direction",
    "substream",
    "ten_read",
    "ten_write",
    "tensor_from_cpd",
]
