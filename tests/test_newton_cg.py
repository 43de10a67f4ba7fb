"""Dense assembly of the Gramian and of the direction surrogate.

The direction-solve tests are in ``test_direction.py``.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import columns, make_state
from ncpd.calculus import GramianOperator, explicit_jacobian
from ncpd.forward_backward import jhat_operator
from ncpd.tensors import CpdPoint


@given(
    st.lists(st.integers(1, 4), min_size=2, max_size=5).map(tuple),
    st.integers(1, 6),
    st.integers(0, 2**32 - 1),
)
@settings(max_examples=40, deadline=None)
def test_dense_gramian_matches_jacobian_and_apply(dims, rank, seed):
    rng = np.random.default_rng(seed)
    point = CpdPoint([rng.uniform(0.0, 1.0, (d, rank)) for d in dims], rng.uniform(0.5, 2.0, rank))
    op = GramianOperator(point)
    dense = op.dense()
    jac = explicit_jacobian(point)
    tol = 1e-13 * max(1.0, float(np.abs(dense).max()))
    assert np.allclose(dense, jac.T @ jac, rtol=0.0, atol=tol)
    assert np.allclose(dense, columns(op.apply, op.size), rtol=0.0, atol=tol)
    assert op.dense() is dense  # assembled once


@pytest.mark.parametrize("dims,rank", [((4, 3, 2), 2), ((3, 3, 2, 2), 3), ((2, 5), 1)])
def test_jhat_matrix_matches_apply(dims, rank):
    _, state, _ = make_state(7, dims=dims, rank=rank)
    for st_ in (state, state.with_gamma(state.gamma / 2)):
        op = jhat_operator(st_)
        assert np.allclose(op.matrix(), columns(op.apply, op.size), rtol=0.0, atol=1e-13)
    # a stepsize halving at the same point reuses the dense Gramian
    assert state.with_gamma(state.gamma / 2).gramian().dense() is state.gramian().dense()
