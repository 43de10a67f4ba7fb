"""The vectorized operators against the per-block loop references in
``oracles``, bit for bit.

Solver traces are chaotic under rounding (one changed last bit moves
iteration counts and convergence slopes), so the fast paths of
``project``, ``ProjJacobianElement.apply``, ``GramianOperator.apply`` and
``JhatOperator.apply``/``apply_transpose`` must reproduce the loops exactly,
signed zeros included.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from ncpd.calculus import GramianOperator
from ncpd.constraints import DegenerateBlockError, FeasibleSet, proj_jacobian, project
from ncpd.forward_backward import JhatOperator
from ncpd.tensors import CpdPoint, CpdStructure


def bits(a):
    return np.ascontiguousarray(a, dtype=np.float64).view(np.uint64)


def assert_bitwise(got, want):
    assert got.shape == want.shape
    assert np.array_equal(bits(got), bits(want))


def sprinkle_zeros(rng, x, share):
    """Set about ``share`` of the entries to exact zeros of either sign."""
    hit = rng.random(x.size) < share
    x[hit] = np.where(rng.random(hit.sum()) < 0.5, 0.0, -0.0)
    return x


@st.composite
def cases(draw):
    n_modes = draw(st.integers(2, 5))
    if draw(st.booleans()):  # equal mode sizes: one stacked run of modes
        dims = (draw(st.integers(1, 6)),) * n_modes
    else:
        dims = tuple(draw(st.lists(st.integers(1, 6), min_size=n_modes, max_size=n_modes)))
    rank = draw(st.integers(1, 6))
    box = draw(st.sampled_from([None, 0.5, 2.0]))
    convention = draw(st.sampled_from([0, 1]))
    zero_share = draw(st.sampled_from([0.0, 0.15, 0.5]))
    # memory order of each factor matrix: row-major as the solver's points,
    # or column-major, possibly mixed within a run of equal-size modes
    orders = draw(st.one_of(st.just("C" * n_modes), st.text("CF", min_size=n_modes, max_size=n_modes)))
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    structure = CpdStructure(dims, rank)
    size = structure.size
    w = sprinkle_zeros(rng, rng.standard_normal(size) + 0.3, zero_share)
    if box is not None:
        ties = rng.random(rank) < 0.3
        w[structure.factor_dim :][ties] = box
    x = sprinkle_zeros(rng, rng.standard_normal(size), zero_share)
    v = sprinkle_zeros(rng, rng.standard_normal(size), zero_share)
    if orders == "C" * n_modes:
        point = CpdPoint.from_flat(structure, x)
    else:
        factors, weights = structure.split(x)
        point = CpdPoint([np.asarray(a, order=o) for a, o in zip(factors, orders)], weights)
    gamma = float(rng.uniform(1e-3, 1.0))
    return structure, box, convention, w, point, v, gamma


def references(structure, box, convention, w, point):
    dims, rank = structure.dims, structure.rank
    blocks = oracles.proj_jacobian_blocks(w, dims, rank, box, convention)

    def pj(v):
        return oracles.proj_jacobian_apply_loop(blocks, dims, rank, v)

    def gram(v):
        return oracles.gramian_apply_loop(point.factors, point.weights, v)

    return pj, gram


@given(cases())
@settings(max_examples=300, deadline=None)
def test_project_matches_column_loop_bitwise(case):
    structure, box, _, w, _, _, _ = case
    got = project(FeasibleSet(structure, box), w)
    want, degenerate = oracles.project_loop(w, structure.dims, structure.rank, box)
    assert_bitwise(got.flat, want)
    assert got.degenerate == degenerate


@given(cases())
@settings(max_examples=300, deadline=None)
def test_proj_jacobian_apply_matches_block_loop_bitwise(case):
    structure, box, convention, w, _, v, _ = case
    fset = FeasibleSet(structure, box)
    try:
        blocks = oracles.proj_jacobian_blocks(w, structure.dims, structure.rank, box, convention)
    except ValueError as exc:
        try:
            proj_jacobian(fset, w, convention)
        except DegenerateBlockError as got:
            assert str(got) == str(exc)
        else:
            raise AssertionError("degenerate block not reported")
        return
    el = proj_jacobian(fset, w, convention)
    assert_bitwise(el.apply(v), oracles.proj_jacobian_apply_loop(blocks, structure.dims, structure.rank, v))


@given(cases())
@settings(max_examples=300, deadline=None)
def test_gramian_apply_matches_pair_loop_bitwise(case):
    _, _, _, _, point, v, _ = case
    op = GramianOperator(point)
    want = oracles.gramian_apply_loop(point.factors, point.weights, v)
    assert_bitwise(op.apply(v), want)
    assert_bitwise(op.apply(v), want)  # repeat applies reuse the cached products


@given(cases())
@settings(max_examples=300, deadline=None)
def test_jhat_applies_match_loop_composition_bitwise(case):
    structure, box, convention, w, point, v, gamma = case
    try:
        el = proj_jacobian(FeasibleSet(structure, box), w, convention)
    except DegenerateBlockError:
        return
    op = JhatOperator(el, GramianOperator(point), gamma)
    pj, gram = references(structure, box, convention, w, point)
    assert_bitwise(op.apply(v), oracles.jhat_apply_loop(pj, gram, gamma, v))
    assert_bitwise(op.apply_transpose(v), oracles.jhat_apply_transpose_loop(pj, gram, gamma, v))


@pytest.mark.parametrize("dims,rank", [((10, 10, 10), 5), ((30, 30, 30, 30), 8), ((25, 40, 12, 40), 9)])
def test_operators_match_loops_bitwise_at_solver_sizes(dims, rank):
    # the study and benchmark shapes, where BLAS takes its larger-size paths
    structure = CpdStructure(dims, rank)
    rng = np.random.default_rng(sum(dims) + rank)
    point = CpdPoint.from_flat(structure, rng.uniform(0.0, 1.0, structure.size))
    w = point.flat + 0.1 * rng.standard_normal(structure.size)
    v = rng.standard_normal(structure.size)
    gamma = 0.05
    op = JhatOperator(proj_jacobian(FeasibleSet(structure), w), GramianOperator(point), gamma)
    pj, gram = references(structure, None, 0, w, point)
    assert_bitwise(op.gram.apply(v), gram(v))
    assert_bitwise(op.proj_el.apply(v), pj(v))
    assert_bitwise(op.apply(v), oracles.jhat_apply_loop(pj, gram, gamma, v))
    assert_bitwise(op.apply_transpose(v), oracles.jhat_apply_transpose_loop(pj, gram, gamma, v))
    assert_bitwise(project(FeasibleSet(structure), w).flat, oracles.project_loop(w, dims, rank)[0])
