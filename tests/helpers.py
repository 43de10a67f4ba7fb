"""Small shared builders of test points.

They live outside ``conftest.py`` so that test modules can import them by
name while other suites with their own ``conftest.py`` are collected in the
same run.
"""

import numpy as np

from ncpd.calculus import EvalCounters
from ncpd.constraints import FeasibleSet, project
from ncpd.forward_backward import CpdProblem, fb_step
from ncpd.tensors import CpdPoint, CpdStructure, tensor_from_cpd

TINY_DIMS = (4, 3, 2)
TINY_RANK = 2


def tiny_structure() -> CpdStructure:
    return CpdStructure(TINY_DIMS, TINY_RANK)


def random_feasible(structure: CpdStructure, rng) -> CpdPoint:
    return project(FeasibleSet(structure), rng.uniform(0.1, 1.0, size=structure.size))


def strictly_positive_point(structure: CpdStructure, rng) -> CpdPoint:
    """Feasible point with every entry bounded away from zero, so every
    projection-related quantity is smooth in a neighborhood."""
    return project(FeasibleSet(structure), rng.uniform(0.5, 1.5, size=structure.size))


def make_state(seed=0, gamma=1e-2, perturb=0.3, dims=(4, 3, 2), rank=2):
    """A forward-backward step at a perturbed strictly positive planted point:
    returns the problem, the step state and the planted point."""
    rng = np.random.default_rng(seed)
    structure = CpdStructure(dims, rank)
    planted = strictly_positive_point(structure, rng)
    problem = CpdProblem(tensor_from_cpd(planted), FeasibleSet(structure), EvalCounters())
    x = planted.flat + perturb * np.abs(rng.standard_normal(structure.size))
    return problem, fb_step(problem, x, gamma), planted


def columns(apply, size):
    """The matrix of a linear map, one applied basis vector per column."""
    return np.column_stack([apply(e) for e in np.eye(size)])
