"""Nonnegative canonical polyadic decomposition of dense tensors.

A Gauss-Newton method on the forward-backward envelope, whose direction is
one damped dense linear solve, with a projected gradient fallback and a
seeded experiment harness.  See the README for usage.  The package
exports the library API; every other name is importable from its submodule.
"""

from .checks import run_checks
from .experiments import (
    InstanceSpec,
    gen_exact_instance,
    gen_inexact_instance,
    perturb_solution,
    random_feasible_point,
    run_experiment_compare,
    run_experiment_quadratic,
)
from .solver import NonFiniteError, SolverConfig, SolverResult, SolverTrace, panoc_solve, pgd_solve
from .tensors import CpdPoint, CpdStructure, DenseTensor, ten_read, ten_write, tensor_from_cpd

__version__ = "0.1.0"

__all__ = [
    "CpdPoint",
    "CpdStructure",
    "DenseTensor",
    "InstanceSpec",
    "NonFiniteError",
    "SolverConfig",
    "SolverResult",
    "SolverTrace",
    "gen_exact_instance",
    "gen_inexact_instance",
    "panoc_solve",
    "perturb_solution",
    "pgd_solve",
    "random_feasible_point",
    "run_checks",
    "run_experiment_compare",
    "run_experiment_quadratic",
    "ten_read",
    "ten_write",
    "tensor_from_cpd",
]
