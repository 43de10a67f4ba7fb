"""The fast paths against the references in ``oracles``, bit for bit.

Solver traces are chaotic under rounding (one changed last bit moves
iteration counts and convergence slopes), so the fast paths of
``project``, ``ProjJacobianElement.apply``, ``GramianOperator.apply`` and
``JhatOperator.apply``/``apply_transpose`` must reproduce the per-block
loops exactly, signed zeros included, and the flat residual core
(``residual_values``, ``objective_value``, ``gradient`` and the fused
``value_and_gradient``) must reproduce the evaluation through a dense model
tensor and per-mode unfoldings of a copied residual.  A step to the point
whose objective was evaluated last reuses that residual, and must return
the bits of a step that builds it afresh.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from ncpd.calculus import EvalCounters, GramianOperator, gradient, value_and_gradient
from ncpd.constraints import DegenerateBlockError, FeasibleSet, proj_jacobian, project
from ncpd.forward_backward import CpdProblem, JhatOperator, fb_step
from ncpd.tensors import CpdPoint, CpdStructure, DenseTensor, objective_value, residual_values


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


# --- the flat residual core ---------------------------------------------------


@st.composite
def evaluations(draw):
    """A point from :func:`cases` (row- or column-major factors, signed
    zeros) and a data tensor of its shape.  Mode sizes of 1 make some
    middle-mode unfoldings views of the residual instead of copies."""
    structure, _, _, _, point, _, _ = draw(cases())
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    data = rng.standard_normal(math.prod(structure.dims))
    data = sprinkle_zeros(rng, data, draw(st.sampled_from([0.0, 0.3])))
    return point, DenseTensor(structure.dims, data)


def assert_evaluation_matches_model_path(point, tensor):
    args = (point.factors, point.weights, tensor.values)
    want_res = oracles.residual_via_model(*args)
    want_f = np.float64(oracles.objective_via_model(*args))
    want_g = oracles.gradient_via_model(*args)
    assert_bitwise(residual_values(point, tensor), want_res)
    assert_bitwise(np.float64(objective_value(point, tensor)), want_f)
    assert_bitwise(gradient(point, tensor), want_g)
    value, grad = value_and_gradient(point, tensor)
    assert_bitwise(np.float64(value), want_f)
    assert_bitwise(grad, want_g)


@given(evaluations())
@settings(max_examples=300, deadline=None)
def test_evaluation_matches_model_path_bitwise(case):
    assert_evaluation_matches_model_path(*case)


@pytest.mark.parametrize("dims,rank", [((10, 10, 10), 5), ((30, 30, 30, 30), 8), ((25, 40, 12, 40), 9)])
def test_evaluation_matches_model_path_bitwise_at_solver_sizes(dims, rank):
    structure = CpdStructure(dims, rank)
    rng = np.random.default_rng(sum(dims) + rank)
    x = rng.uniform(0.0, 1.0, structure.size)
    tensor = DenseTensor(dims, rng.uniform(0.0, 1.0, math.prod(dims)))
    # the solver evaluates row-major points at x and column-major ones at z
    assert_evaluation_matches_model_path(CpdPoint.from_flat(structure, x), tensor)
    assert_evaluation_matches_model_path(project(FeasibleSet(structure), x), tensor)


@given(evaluations())
@settings(max_examples=100, deadline=None)
def test_fb_step_counts_one_evaluation_of_the_model_path(case):
    point, tensor = case
    structure = point.structure
    problem = CpdProblem(tensor, FeasibleSet(structure), EvalCounters(fevals=3, gevals=5))
    state = fb_step(problem, point.flat, 0.1)
    assert (problem.counters.fevals, problem.counters.gevals) == (4, 6)
    factors, weights = oracles.split_flat(point.flat, structure.dims, structure.rank)
    args = (factors, weights, tensor.values)
    assert_bitwise(np.float64(state.fx), np.float64(oracles.objective_via_model(*args)))
    assert_bitwise(state.grad, oracles.gradient_via_model(*args))


# --- the residual kept from the projected point's objective -------------------


def evaluated_step(point, tensor):
    """A problem whose last objective evaluation is ``fz`` of the step at
    ``point``, and that step."""
    problem = CpdProblem(tensor, FeasibleSet(point.structure))
    state = fb_step(problem, point.flat, 0.1)
    state.fz
    return problem, state


def counts(problem):
    return problem.counters.fevals, problem.counters.gevals


@given(evaluations())
@settings(max_examples=100, deadline=None)
def test_kept_residual_gives_the_bits_of_a_fresh_step(case):
    point, tensor = case
    problem, state = evaluated_step(point, tensor)
    fe, ge = counts(problem)
    hit = fb_step(problem, state.z.flat, 0.1)
    assert counts(problem) == (fe, ge + 1)
    fresh = fb_step(CpdProblem(tensor, FeasibleSet(point.structure)), state.z.flat, 0.1)
    for got in (hit, fresh):
        assert_bitwise(np.float64(got.fx), np.float64(state.fz))
    assert_bitwise(hit.grad, fresh.grad)
    factors, weights = oracles.split_flat(state.z.flat, point.structure.dims, point.structure.rank)
    assert_bitwise(hit.grad, oracles.gradient_via_model(factors, weights, tensor.values))
    # the kept residual was used up: the same point again builds its own
    again = fb_step(problem, state.z.flat, 0.1)
    assert counts(problem) == (fe + 1, ge + 2)
    assert_bitwise(again.grad, fresh.grad)


@given(evaluations(), st.integers(0, 10**6), st.sampled_from([np.inf, -np.inf]))
@settings(max_examples=100, deadline=None)
def test_kept_residual_misses_a_point_one_ulp_away(case, index, direction):
    point, tensor = case
    problem, state = evaluated_step(point, tensor)
    x = np.array(state.z.flat)
    i = index % x.size
    x[i] = np.nextafter(x[i], direction)
    fe, ge = counts(problem)
    step = fb_step(problem, x, 0.1)
    assert counts(problem) == (fe + 1, ge + 1)
    factors, weights = oracles.split_flat(x, point.structure.dims, point.structure.rank)
    assert_bitwise(step.grad, oracles.gradient_via_model(factors, weights, tensor.values))


def test_kept_residual_misses_a_zero_of_the_other_sign():
    # +0.0 and -0.0 compare equal as values but are different points' bits
    structure = CpdStructure((4, 3, 2), 2)
    rng = np.random.default_rng(7)
    tensor = DenseTensor(structure.dims, rng.standard_normal(24))
    problem, state = evaluated_step(CpdPoint.from_flat(structure, rng.standard_normal(structure.size)), tensor)
    x = np.array(state.z.flat)
    zeros = np.flatnonzero(x == 0.0)
    assert zeros.size > 0
    x[zeros[0]] = -x[zeros[0]]
    fe, ge = counts(problem)
    fb_step(problem, x, 0.1)
    assert counts(problem) == (fe + 1, ge + 1)


def test_kept_residual_is_dropped_by_the_next_objective():
    structure = CpdStructure((4, 3, 2), 2)
    rng = np.random.default_rng(8)
    tensor = DenseTensor(structure.dims, rng.standard_normal(24))
    problem, state = evaluated_step(CpdPoint.from_flat(structure, rng.uniform(0.1, 1.0, structure.size)), tensor)
    other = fb_step(CpdProblem(tensor, FeasibleSet(structure)), state.x + 0.5, 0.1)
    problem.objective(other.z)
    fe, ge = counts(problem)
    fb_step(problem, state.z.flat, 0.1)
    assert counts(problem) == (fe + 1, ge + 1)
