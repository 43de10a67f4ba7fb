"""Small shared builders of test points.

They live outside ``conftest.py`` so that test modules can import them by
name while other suites with their own ``conftest.py`` are collected in the
same run.
"""

from ncpd.constraints import FeasibleSet, project
from ncpd.tensors import CpdPoint, CpdStructure

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
