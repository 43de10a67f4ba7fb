import numpy as np
import pytest

from helpers import strictly_positive_point, tiny_structure
from ncpd.tensors import tensor_from_cpd


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


@pytest.fixture
def tiny_problem(rng):
    """A tiny exact-fit problem: (structure, tensor, planted point)."""
    structure = tiny_structure()
    planted = strictly_positive_point(structure, rng)
    return structure, tensor_from_cpd(planted), planted
