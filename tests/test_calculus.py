import math
import re
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import ncpd.tensors as tensors
import oracles
from helpers import random_feasible, strictly_positive_point, tiny_structure
from ncpd.calculus import (
    GramianOperator,
    cauchy_scale,
    explicit_jacobian,
    gradient,
    gradient_from_residual,
    kernel_basis,
)
from ncpd.tensors import (
    CpdPoint,
    CpdStructure,
    DenseTensor,
    objective_value,
    residual_values,
    tensor_from_cpd,
    value_and_residual,
)


def tiny_setup(seed, dims=(4, 3, 2), rank=2):
    rng = np.random.default_rng(seed)
    structure = CpdStructure(dims, rank)
    point = random_feasible(structure, rng)
    target = random_feasible(structure, rng)
    return structure, point, tensor_from_cpd(target)


# --- gradient ---------------------------------------------------------------


def test_gradient_zero_at_exact_fit(tiny_problem):
    _, tensor, planted = tiny_problem
    assert np.allclose(gradient(planted, tensor), 0.0, atol=1e-13)


@pytest.mark.parametrize("seed", range(10))
def test_gradient_matches_finite_differences(seed):
    structure, point, tensor = tiny_setup(seed)

    def f(x):
        return oracles.objective(x, structure.dims, structure.rank, tensor.values)

    got = gradient(point, tensor)
    want = oracles.fd_gradient(f, point.flat, h=1e-6)
    denom = max(1.0, float(np.linalg.norm(want)))
    assert np.linalg.norm(got - want) / denom <= 1e-6


@given(
    st.lists(st.integers(1, 4), min_size=4, max_size=6),
    st.integers(1, 4),
    st.integers(0, 2**32 - 1),
)
@settings(max_examples=60, deadline=None)
def test_tree_gradient_matches_per_mode_gradient_and_finite_differences(dims, rank, seed):
    rng = np.random.default_rng(seed)
    structure = CpdStructure(dims, rank)
    point = CpdPoint.from_flat(structure, rng.standard_normal(structure.size))
    data = rng.standard_normal(math.prod(dims))
    got = gradient(point, DenseTensor(dims, data))
    want = oracles.gradient_via_model(point.factors, point.weights, data)
    # Round-off bound: the dimension tree and the per-mode path sum the same
    # products in other orders, with at most k roundings on the way to any
    # entry.  Each lies within gamma_k = k eps / (1 - k eps) of the exact
    # gradient, relative to the gradient of the absolute values, whose own
    # rounding the factor (1 + gamma_k) covers.
    k = math.prod(dims) + rank + 2 * len(dims) + 2
    gamma = k * np.finfo(float).eps / (1.0 - k * np.finfo(float).eps)
    abs_grad = oracles.gradient_via_model(
        [np.abs(a) for a in point.factors], np.abs(point.weights), -np.abs(data)
    )
    assert np.all(np.abs(got - want) <= 2.0 * gamma * (1.0 + gamma) * abs_grad)

    def f(x):
        factors, weights = oracles.split_flat(x, structure.dims, structure.rank)
        return oracles.objective_via_model(factors, weights, data)

    fd = oracles.fd_gradient(f, point.flat, h=1e-6)
    assert np.linalg.norm(got - fd) / max(1.0, float(np.linalg.norm(fd))) <= 1e-6


@given(
    st.lists(st.integers(1, 4), min_size=4, max_size=6),
    st.integers(1, 4),
    st.integers(1, 70),
    st.sampled_from([0.0, 0.3]),
    st.integers(0, 2**32 - 1),
)
@settings(max_examples=100, deadline=None)
def test_blocked_evaluation_matches_per_mode_model_path(dims, rank, block_rows, zero_share, seed):
    # From four modes on, f and the gradient come from one pass over the
    # data in blocks of rows of its (right half x left half) matrix: one
    # block when block_rows covers all rows, else several, the last one
    # ragged unless block_rows divides them.  Mode sizes of 1 and signed
    # zeros in the point and the data are drawn too.
    rng = np.random.default_rng(seed)
    structure = CpdStructure(dims, rank)
    x = rng.standard_normal(structure.size)
    data = rng.standard_normal(math.prod(dims))
    for v in (x, data):
        hit = rng.random(v.size) < zero_share
        v[hit] = np.where(rng.random(hit.sum()) < 0.5, 0.0, -0.0)
    point = CpdPoint.from_flat(structure, x)
    tensor = DenseTensor(dims, data)
    row_bytes = 8 * math.prod(dims[: len(dims) // 2])
    # block_rows rows and part of one more
    with mock.patch.object(tensors, "_BLOCK_BYTES", block_rows * row_bytes + row_bytes // 2):
        value, parts = value_and_residual(point, tensor)
        got = gradient_from_residual(point, parts)
    # within 1e-12 of the per-mode path, relative to the same evaluation
    # on absolute values, which bounds every term that is summed
    abs_args = [np.abs(a) for a in point.factors], np.abs(point.weights), -np.abs(data)
    want_f = oracles.objective_via_model(point.factors, point.weights, data)
    assert abs(value - want_f) <= 1e-12 * oracles.objective_via_model(*abs_args)
    want = oracles.gradient_via_model(point.factors, point.weights, data)
    assert np.all(np.abs(got - want) <= 1e-12 * oracles.gradient_via_model(*abs_args))


@pytest.mark.parametrize("seed", range(5))
def test_gradient_matches_explicit_jacobian(seed):
    _, point, tensor = tiny_setup(seed)
    jac = explicit_jacobian(point)
    want = jac.T @ residual_values(point, tensor)
    got = gradient(point, tensor)
    assert np.allclose(got, want, rtol=1e-12, atol=1e-13)


# --- explicit Jacobian ------------------------------------------------------


@pytest.mark.parametrize("seed", range(5))
def test_explicit_jacobian_matches_fd(seed):
    structure, point, tensor = tiny_setup(seed)

    def res(x):
        return oracles.residual(x, structure.dims, structure.rank, tensor.values)

    jac = explicit_jacobian(point)
    fd = oracles.fd_jacobian(res, point.flat, h=1e-6)
    assert np.linalg.norm(jac - fd) / np.linalg.norm(fd) <= 1e-6


def test_explicit_jacobian_lambda_columns():
    structure, point, _ = tiny_setup(3)
    jac = explicit_jacobian(point)
    for r in range(structure.rank):
        unit = np.zeros(structure.rank)
        unit[r] = 1.0
        rank1 = tensor_from_cpd(CpdPoint(point.factors, unit)).values
        assert np.allclose(jac[:, structure.factor_dim + r], rank1, rtol=1e-14)


def test_explicit_jacobian_cap():
    structure = CpdStructure((30, 30, 30), 2)
    rng = np.random.default_rng(0)
    point = random_feasible(structure, rng)
    with pytest.raises(ValueError):
        explicit_jacobian(point, max_entries=1000)


# --- Gramian operator -------------------------------------------------------


@pytest.mark.parametrize("seed", range(5))
def test_gramian_matches_dense(seed):
    _, point, _ = tiny_setup(seed)
    jac = explicit_jacobian(point)
    dense = jac.T @ jac
    op = GramianOperator(point)
    rng = np.random.default_rng(seed + 1000)
    for _ in range(5):
        v = rng.standard_normal(point.structure.size)
        assert np.allclose(op.apply(v), dense @ v, rtol=1e-12, atol=1e-12)


def test_gramian_zero_vector(tiny_problem):
    _, _, planted = tiny_problem
    op = GramianOperator(planted)
    assert np.array_equal(op.apply(np.zeros(planted.structure.size)), np.zeros(planted.structure.size))


def test_gramian_linear_symmetric_psd(rng):
    structure = tiny_structure()
    point = random_feasible(structure, rng)
    op = GramianOperator(point)
    u = rng.standard_normal(structure.size)
    v = rng.standard_normal(structure.size)
    a, b = 0.7, -1.3
    assert np.allclose(op.apply(a * u + b * v), a * op.apply(u) + b * op.apply(v), rtol=1e-12, atol=1e-12)
    assert float(u @ op.apply(v)) == pytest.approx(float(v @ op.apply(u)), rel=1e-12, abs=1e-12)
    assert float(v @ op.apply(v)) >= -1e-12 * float(v @ v)


def test_gramian_apply_cost_polynomial():
    # the apply path must not materialize the full tensor: make the tensor
    # cost prohibitive but keep R*sum(dims) small, then time-box via opcount
    structure = CpdStructure((50, 50, 50), 2)
    rng = np.random.default_rng(5)
    point = random_feasible(structure, rng)
    op = GramianOperator(point)
    v = rng.standard_normal(structure.size)
    out = op.apply(v)  # would be slow/hot if it built the 125k-entry Jacobian
    assert out.shape == (structure.size,)
    assert np.all(np.isfinite(out))


# --- kernel -----------------------------------------------------------------


@pytest.mark.parametrize("dims,rank", [((4, 4, 4), 2), ((3, 4, 5), 3), ((3, 3), 1)])
def test_kernel_annihilated_by_jacobian(dims, rank, rng):
    structure = CpdStructure(dims, rank)
    point = strictly_positive_point(structure, rng)
    basis = kernel_basis(point)
    n_modes = len(dims)
    assert basis.matrix.shape == (structure.size, n_modes * rank)
    jac = explicit_jacobian(point)
    prod = jac @ basis.matrix
    assert np.linalg.norm(prod) <= 1e-10 * np.linalg.norm(jac) * np.linalg.norm(basis.matrix)


def test_kernel_rank_and_gramian_nullity(rng):
    structure = CpdStructure((4, 3, 3), 2)
    point = strictly_positive_point(structure, rng)
    basis = kernel_basis(point)
    assert oracles.numerical_rank(basis.matrix) == 6
    jac = explicit_jacobian(point)
    svals = np.linalg.svd(jac.T @ jac, compute_uv=False)
    n_zero = int(np.sum(svals < 1e-10 * svals[0]))
    assert n_zero == 6


def test_kernel_structure_blocks(rng):
    # column (n, r): factor block n column r holds a_r, weight entry r holds
    # -lambda_r, everything else zero
    structure = CpdStructure((3, 2), 2)
    point = strictly_positive_point(structure, rng)
    basis = kernel_basis(point).matrix
    col = basis[:, 0]  # (n=0, r=0)
    sl = structure.block_slice(0, 0)
    assert np.allclose(col[sl], point.factors[0][:, 0])
    assert col[structure.weight_slice][0] == pytest.approx(-point.weights[0])
    mask = np.ones(structure.size, dtype=bool)
    mask[sl] = False
    mask[structure.weight_slice.start] = False
    assert np.all(col[mask] == 0.0)


def test_kernel_flags_zero_weight(rng):
    structure = CpdStructure((3, 2), 2)
    point = strictly_positive_point(structure, rng)
    broken = CpdPoint(point.factors, np.array([point.weights[0], 0.0]))
    assert kernel_basis(broken).degenerate
    assert not kernel_basis(point).degenerate


# --- curvature scale --------------------------------------------------------


def test_cauchy_scale_eigenvector():
    # diag Gramian via a diagonal two-mode problem is fiddly; use the raw
    # quadratic-form contract instead: eigenvector of G gives the inverse
    # of its eigenvalue
    structure = CpdStructure((3, 3), 2)
    rng = np.random.default_rng(8)
    point = strictly_positive_point(structure, rng)
    jac = explicit_jacobian(point)
    dense = jac.T @ jac
    evals, evecs = np.linalg.eigh(dense)
    g = evecs[:, -1]
    assert 1.0 / cauchy_scale(point, g) == pytest.approx(evals[-1], rel=1e-10)
    assert cauchy_scale(point, g) == pytest.approx(1.0 / evals[-1], rel=1e-10)


def test_cauchy_scale_matches_quadratic_form(rng):
    structure = tiny_structure()
    point = random_feasible(structure, rng)
    jac = explicit_jacobian(point)
    dense = jac.T @ jac
    g = rng.standard_normal(structure.size)
    want = float(g @ dense @ g) / float(g @ g)
    assert 1.0 / cauchy_scale(point, g) == pytest.approx(want, rel=1e-12)


@given(
    st.lists(st.integers(1, 4), min_size=2, max_size=5).map(tuple),
    st.integers(1, 6),
    st.sampled_from(["none", "weight", "column"]),
    st.integers(0, 2**32 - 1),
)
@example((3, 3, 2), 3, "weight", 1)
@example((2, 4, 4, 1), 2, "column", 2)
@settings(max_examples=60, deadline=None)
def test_cauchy_scale_matches_quadratic_form_over_shapes(dims, rank, zero, seed):
    # The form from R-by-R products (no operator given) against the dense
    # Jacobian and the operator's apply, over runs of equal-size modes and
    # mixed sizes, with a zero weight or an all-zero factor column.  g.G.g
    # can cancel to far below its terms, so the error is measured relative
    # to the same form on absolute values, the scale of its rounding.
    rng = np.random.default_rng(seed)
    factors = [rng.uniform(0.0, 1.0, (d, rank)) for d in dims]
    weights = rng.uniform(0.5, 2.0, rank)
    if zero == "weight":
        weights[rng.integers(rank)] = 0.0
    elif zero == "column":
        factors[rng.integers(len(dims))][:, rng.integers(rank)] = 0.0
    point = CpdPoint(factors, weights)
    g = rng.standard_normal(point.structure.size)
    jac = explicit_jacobian(point)
    gg = float(g @ g)
    tol = 1e-12 * float(np.sum((np.abs(jac) @ np.abs(g)) ** 2)) / gg
    got = 1.0 / cauchy_scale(point, g)
    assert abs(got - float(np.sum((jac @ g) ** 2)) / gg) <= tol
    assert abs(got - 1.0 / cauchy_scale(point, g, op=GramianOperator(point))) <= tol


def test_cauchy_scale_scale_invariant(rng):
    structure = tiny_structure()
    point = random_feasible(structure, rng)
    g = rng.standard_normal(structure.size)
    assert cauchy_scale(point, g) == pytest.approx(cauchy_scale(point, 3.7 * g), rel=1e-12)


def test_cauchy_scale_zero_gradient(rng):
    structure = tiny_structure()
    point = random_feasible(structure, rng)
    with pytest.raises(ValueError):
        cauchy_scale(point, np.zeros(structure.size))


@pytest.mark.parametrize("shape", [(5,), (21,), (20, 1), ()])
def test_cauchy_scale_rejects_a_direction_of_another_length(rng, shape):
    # with or without an operator, as the operators' applies do
    structure = tiny_structure()  # flat length 20
    point = random_feasible(structure, rng)
    g = rng.standard_normal(shape)
    for op in (None, GramianOperator(point)):
        with pytest.raises(ValueError, match=rf"^expected flat length 20, got {re.escape(str(shape))}$"):
            cauchy_scale(point, g, op=op)
