import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from ncpd.constraints import (
    DegenerateBlockError,
    FeasibleSet,
    is_feasible,
    proj_jacobian,
    project,
)
from ncpd.tensors import CpdPoint, CpdStructure


def fset(dims=(4, 3, 2), rank=2, box=None):
    return FeasibleSet(CpdStructure(dims, rank), box)


# --- projection -------------------------------------------------------------


def test_project_clamp_normalize_example():
    # one 3-vector factor block, rank 1, no weights active beyond lambda>=0
    s = fset(dims=(3, 2), rank=1)
    w = np.array([-1.0, 3.0, 4.0, 1.0, 0.0, 2.0])
    z = project(s, w)
    assert np.allclose(z.factors[0][:, 0], [0.0, 0.6, 0.8], atol=1e-15)


def test_project_weights_clamped():
    s = fset(dims=(2, 2), rank=2)
    w = np.concatenate([np.ones(8), [-2.0, 5.0]])
    z = project(s, w)
    assert np.array_equal(z.weights, [0.0, 5.0])


@pytest.mark.parametrize("box", [True, "2.0", -1.0, 0.0])
def test_box_bound_must_be_a_positive_real(box):
    with pytest.raises(ValueError, match="box bound"):
        fset(box=box)


def test_project_box_bound():
    s = fset(dims=(2, 2), rank=2, box=3.0)
    w = np.concatenate([np.ones(8), [-2.0, 5.0]])
    assert np.array_equal(project(s, w).weights, [0.0, 3.0])


def test_project_feasible_input_unchanged(rng):
    s = fset()
    z = project(s, rng.uniform(0.1, 1.0, size=s.structure.size))
    again = project(s, z.flat)
    assert np.allclose(again.flat, z.flat, atol=1e-15)
    proj_jacobian(s, z.flat)  # no degenerate block


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=100, deadline=None)
def test_project_idempotent_and_feasible(seed):
    s = fset()
    w = np.random.default_rng(seed).standard_normal(s.structure.size) * 3.0
    z = project(s, w)
    assert is_feasible(s, z)
    assert np.allclose(project(s, z.flat).flat, z.flat, atol=1e-15)


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=50, deadline=None)
def test_project_matches_loop_oracle(seed):
    s = fset(dims=(3, 2), rank=2, box=1.5)
    w = np.random.default_rng(seed).standard_normal(s.structure.size) * 2.0
    got = project(s, w).flat
    want = oracles.project_flat(w, (3, 2), 2, box=1.5)
    assert np.allclose(got, want, atol=1e-15)


def test_project_degenerate_block_uniform():
    s = fset(dims=(4, 2), rank=1)
    w = np.concatenate([-np.ones(4), np.ones(2), [1.0]])
    z = project(s, w)
    assert np.allclose(z.factors[0][:, 0], np.full(4, 0.5), atol=1e-15)
    with pytest.raises(DegenerateBlockError):
        proj_jacobian(s, w)


def test_project_accepts_point(rng):
    s = fset()
    point = project(s, rng.uniform(size=s.structure.size))
    assert np.allclose(project(s, point.flat).flat, point.flat, atol=1e-15)


# factor column (mode 0, column 1) of a (4, 3, 2) rank-2 point
EXTREME_COLUMN = slice(4, 8)


def with_column(values, seed=0):
    s = fset()
    w = np.random.default_rng(seed).uniform(0.1, 1.0, s.structure.size)
    w[EXTREME_COLUMN] = values
    return s, w


@pytest.mark.parametrize("scale", [1e200, 1e300, 1.5e308])
def test_project_huge_column_is_unit_without_a_warning(scale):
    # the squares overflow: the column is rescaled by its largest entry
    s, w = with_column(scale * np.array([1.0, 0.5, 0.0, 0.25]))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        z = project(s, w)
    column = z.flat[EXTREME_COLUMN]
    assert np.linalg.norm(column) == pytest.approx(1.0, abs=1e-15)
    assert np.allclose(column, np.array([1.0, 0.5, 0.0, 0.25]) / np.sqrt(1.3125), rtol=4e-16, atol=0.0)
    assert is_feasible(s, z)
    proj_jacobian(s, w)  # no degenerate block


def test_project_tiny_column_keeps_its_direction():
    # the squares underflow to 0 though entries are positive: the column is
    # not degenerate, and 3:4 at a power-of-two scale gives 0.6:0.8 exactly
    tiny = 2.0**-665  # about 1.3e-200
    s, w = with_column([3.0 * tiny, 0.0, 4.0 * tiny, -tiny])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        z = project(s, w)
    proj_jacobian(s, w)  # no degenerate block
    assert np.array_equal(z.flat[EXTREME_COLUMN], [0.6, 0.0, 0.8, 0.0])
    # every other column keeps the bits of the column loop
    assert np.array_equal(z.flat[8:], oracles.project_loop(w, (4, 3, 2), 2)[0][8:])


def test_proj_jacobian_of_tiny_column_is_the_scaled_sphere_block():
    tiny = 2.0**-665
    s, w = with_column([3.0 * tiny, 0.0, 4.0 * tiny, -tiny])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        el = proj_jacobian(s, w)  # no DegenerateBlockError
    v = np.zeros(s.structure.size)
    v[EXTREME_COLUMN] = [0.8, 1.0, -0.6, 1.0]  # tangent at (0.6, 0, 0.8, 0)
    got = el.apply(v)[EXTREME_COLUMN]
    # (diag(clamp) - z z^T) v / ||pos||, with clamp (1, 0, 1, 0)
    assert np.allclose(got, np.array([0.8, 0.0, -0.6, 0.0]) / (5.0 * tiny), rtol=1e-15, atol=0.0)


# --- feasibility report -----------------------------------------------------


def test_is_feasible_names_bad_column():
    s = fset(dims=(2, 2), rank=1)
    point = CpdPoint([np.array([[1.1], [0.0]]), np.array([[1.0], [0.0]])], np.array([1.0]))
    report = is_feasible(s, point, tol=1e-6)
    assert not report
    assert any("mode 0, column 0" in v for v in report.violations)


def test_is_feasible_tolerance_semantics():
    s = fset(dims=(2, 2), rank=1)
    a = np.array([[1.0], [-1e-15]])
    b = np.array([[1.0], [0.0]])
    point = CpdPoint([a, b], np.array([1.0]))
    assert is_feasible(s, point, tol=1e-12)


def test_is_feasible_box():
    s = fset(dims=(2, 2), rank=1, box=2.0)
    point = CpdPoint([np.array([[1.0], [0.0]]), np.array([[1.0], [0.0]])], np.array([2.5]))
    report = is_feasible(s, point, tol=1e-9)
    assert not report
    assert any("weight" in v for v in report.violations)


# --- projection Jacobian ----------------------------------------------------


def test_sphere_jacobian_example():
    # all-positive block [3, 4]: (I - zz^T)/5 with z = [0.6, 0.8]
    s = fset(dims=(2, 2), rank=1)
    w = np.array([3.0, 4.0, 1.0, 0.0, 1.0])
    el = proj_jacobian(s, w)
    want = np.array([[0.128, -0.096], [-0.096, 0.072]])
    got = np.column_stack(
        [el.apply(np.eye(5)[:, i])[:2] for i in range(2)]
    )
    assert np.allclose(got, want, atol=1e-15)


def test_jacobian_kills_normalized_direction():
    s = fset(dims=(3, 2), rank=1)
    w = np.array([3.0, 0.0, 4.0, 1.0, 0.0, 1.0])
    el = proj_jacobian(s, w)
    z = np.array([0.6, 0.0, 0.8])
    v = np.concatenate([z, np.zeros(3)])
    assert np.allclose(el.apply(v)[:3], 0.0, atol=1e-15)


def test_weight_clamp_pattern_convention0():
    s = fset(dims=(2, 2), rank=3)
    w = np.concatenate([np.ones(12), [2.0, -1.0, 0.0]])
    el = proj_jacobian(s, w)
    v = np.zeros(15)
    v[12:] = [1.0, 1.0, 1.0]
    assert np.array_equal(el.apply(v)[12:], [1.0, 0.0, 0.0])


def test_factor_clamp_convention_at_zero():
    s = fset(dims=(2, 2), rank=1)
    w = np.array([0.0, 1.0, 1.0, 0.0, 1.0])
    v = np.concatenate([[1.0, 0.0], np.zeros(3)])
    assert proj_jacobian(s, w).apply(v)[0] == 0.0  # the clamp derivative is 0 at an exact zero


def test_degenerate_block_raises_with_location():
    s = fset(dims=(2, 3), rank=2)
    w = np.ones(s.structure.size)
    w[s.structure.block_slice(1, 1)] = -1.0
    with pytest.raises(DegenerateBlockError, match=r"mode 1.*column 1"):
        proj_jacobian(s, w)


def test_box_tie_convention():
    s = fset(dims=(2, 2), rank=1, box=2.0)
    w_at = np.concatenate([np.ones(4), [2.0]])
    v = np.zeros(5)
    v[4] = 1.0
    assert proj_jacobian(s, w_at).apply(v)[4] == 0.0


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=50, deadline=None)
def test_jacobian_symmetric(seed):
    rng = np.random.default_rng(seed)
    s = fset()
    w = rng.standard_normal(s.structure.size)
    w[np.abs(w) < 1e-2] = 1e-2  # stay in the smooth region
    for n in range(len(s.structure.dims)):
        for r in range(s.structure.rank):
            w[s.structure.block_slice(n, r).start] = 1.0  # no all-negative blocks
    el = proj_jacobian(s, w)
    u = rng.standard_normal(s.structure.size)
    v = rng.standard_normal(s.structure.size)
    assert float(u @ el.apply(v)) == pytest.approx(float(v @ el.apply(u)), rel=1e-12, abs=1e-12)


@pytest.mark.parametrize("seed", range(20))
def test_jacobian_matches_directional_differences(seed):
    # smooth region: entries bounded away from 0
    rng = np.random.default_rng(seed)
    s = fset(dims=(3, 2), rank=2)
    w = rng.standard_normal(s.structure.size)
    w[np.abs(w) < 1e-3] = 1e-3
    for n in range(len(s.structure.dims)):
        for r in range(s.structure.rank):
            w[s.structure.block_slice(n, r).start] = 1.0  # no all-negative blocks
    el = proj_jacobian(s, w)
    v = rng.standard_normal(s.structure.size)
    h = 1e-6
    fd = (oracles.project_flat(w + h * v, (3, 2), 2) - oracles.project_flat(w - h * v, (3, 2), 2)) / (2 * h)
    assert np.linalg.norm(el.apply(v) - fd) <= 1e-5 * np.linalg.norm(v)


def test_jacobian_block_operator_norm(rng):
    s = fset()
    w = rng.uniform(0.1, 2.0, size=s.structure.size)
    el = proj_jacobian(s, w)
    block_norms = []
    for n in range(len(s.structure.dims)):
        for r in range(s.structure.rank):
            block = np.maximum(w[s.structure.block_slice(n, r)], 0.0)
            block_norms.append(np.linalg.norm(block))
    bound = max(1.0, 1.0 / min(block_norms))
    for _ in range(50):
        v = rng.standard_normal(s.structure.size)
        assert np.linalg.norm(el.apply(v)) <= bound * np.linalg.norm(v) + 1e-12
