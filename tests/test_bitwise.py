"""The fast paths against the references in ``oracles``, bit for bit.

Solver traces are chaotic under rounding (one changed last bit moves
iteration counts and convergence slopes), so the fast paths of
``project``, ``ProjJacobianElement.apply``, ``GramianOperator.apply`` and
``JhatOperator.apply``/``apply_transpose`` must reproduce the per-block
loops exactly, signed zeros included, as must the dense system the
direction solve assembles (``GramianOperator.dense``,
``JhatOperator.matrix``) and the direction it solves for, the curvature
floor of both solvers (``cauchy_scale``) and a step state's fields; the evaluation core
(``objective_value``, ``gradient`` and the pair
``value_and_residual``/``gradient_from_residual``) must reproduce a
reference evaluation at every number of modes: a plain loop over the
data's blocks of rows in their documented order, and plain loops within
each half of the dimension tree.  ``tensor_from_cpd`` must reproduce the
same loop's model blocks, and ``residual_values`` that model minus the
data, so that a planted point fits its data exactly.  A step to the point
whose objective was evaluated last reuses that evaluation, and must return
the bits of a step that evaluates afresh.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ncpd.tensors as tensors
import oracles
import ncpd.calculus as calculus
from ncpd.calculus import EvalCounters, GramianOperator, cauchy_scale, gradient, gradient_from_residual
from ncpd.constraints import DegenerateBlockError, FeasibleSet, proj_jacobian, project
from helpers import make_state
from ncpd.forward_backward import DAMPING, CpdProblem, JhatOperator, fb_step, solve_direction
from ncpd.tensors import (
    CpdPoint,
    CpdStructure,
    DenseTensor,
    objective_value,
    residual_values,
    tensor_from_cpd,
    value_and_residual,
)


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
    return structure, box, w, point, v, gamma


def references(structure, box, w, point):
    dims, rank = structure.dims, structure.rank
    blocks = oracles.proj_jacobian_blocks(w, dims, rank, box)

    def pj(v):
        return oracles.proj_jacobian_apply_loop(blocks, dims, rank, v)

    def gram(v):
        return oracles.gramian_apply_loop(point.factors, point.weights, v)

    return pj, gram


@st.composite
def projection_cases(draw):
    """The projection inputs of :func:`cases`, or mode sizes in runs of
    equal-size modes (several runs of up to three modes), with a box bound
    or none and about a fifth of the factor columns without a positive
    part, so degenerate."""
    if draw(st.booleans()):
        structure, box, w, _, _, _ = draw(cases())
        return structure, box, w
    runs = draw(st.lists(st.tuples(st.integers(1, 6), st.integers(1, 3)), min_size=2, max_size=3))
    structure = CpdStructure(tuple(size for size, count in runs for _ in range(count)), draw(st.integers(1, 4)))
    box = draw(st.sampled_from([None, 0.5, 2.0]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    w = sprinkle_zeros(rng, rng.standard_normal(structure.size) + 0.3, 0.15)
    for mode in range(structure.num_modes):
        for column in range(structure.rank):
            if rng.random() < 0.2:
                block = structure.block_slice(mode, column)
                w[block] = -np.abs(w[block])  # signed zeros become -0.0
    if box is not None:
        w[structure.factor_dim :][rng.random(structure.rank) < 0.3] = box
    return structure, box, w


def assert_projection_matches_column_loop(structure, box, w):
    fset = FeasibleSet(structure, box)
    got = project(fset, w)
    want, degenerate = oracles.project_loop(w, structure.dims, structure.rank, box)
    assert_bitwise(got.flat, want)  # with the uniform column for a degenerate block
    # the projection Jacobian raises on exactly the inputs with one
    if degenerate:
        with pytest.raises(DegenerateBlockError):
            proj_jacobian(fset, w)
    else:
        proj_jacobian(fset, w)
    # the factors are row-major copies of the same bits, as the solver
    # evaluates them
    assert all(a.flags.c_contiguous for a in got.factors)
    assert_bitwise(structure.join(got.factors, got.weights), want)


@given(projection_cases())
@settings(max_examples=300, deadline=None)
def test_project_matches_column_loop_bitwise(case):
    assert_projection_matches_column_loop(*case)


@given(cases())
@settings(max_examples=300, deadline=None)
def test_proj_jacobian_apply_matches_block_loop_bitwise(case):
    structure, box, w, _, v, _ = case
    fset = FeasibleSet(structure, box)
    try:
        blocks = oracles.proj_jacobian_blocks(w, structure.dims, structure.rank, box)
    except ValueError as exc:
        try:
            proj_jacobian(fset, w)
        except DegenerateBlockError as got:
            assert str(got) == str(exc)
        else:
            raise AssertionError("degenerate block not reported")
        return
    el = proj_jacobian(fset, w)
    assert_bitwise(el.apply(v), oracles.proj_jacobian_apply_loop(blocks, structure.dims, structure.rank, v))


@given(cases())
@settings(max_examples=300, deadline=None)
def test_gramian_apply_matches_pair_loop_bitwise(case):
    _, _, _, point, v, _ = case
    op = GramianOperator(point)
    want = oracles.gramian_apply_loop(point.factors, point.weights, v)
    assert_bitwise(op.apply(v), want)
    assert_bitwise(op.apply(v), want)  # repeat applies reuse the cached products


@given(cases())
@settings(max_examples=300, deadline=None)
def test_jhat_applies_match_loop_composition_bitwise(case):
    structure, box, w, point, v, gamma = case
    try:
        el = proj_jacobian(FeasibleSet(structure, box), w)
    except DegenerateBlockError:
        return
    op = JhatOperator(el, GramianOperator(point), gamma)
    pj, gram = references(structure, box, w, point)
    assert_bitwise(op.apply(v), oracles.jhat_apply_loop(pj, gram, gamma, v))
    assert_bitwise(op.apply_transpose(v), oracles.jhat_apply_transpose_loop(pj, gram, gamma, v))


def assert_dense_system_matches_block_loops(structure, box, w, point, gamma):
    """``GramianOperator.dense`` and ``JhatOperator.matrix`` against the
    block-by-block assemblies, where ``w`` has no degenerate block."""
    dims, rank = structure.dims, structure.rank
    gram = GramianOperator(point)
    want = oracles.gramian_dense_loop(point.factors, point.weights)
    assert_bitwise(gram.dense(), want)
    blocks = oracles.proj_jacobian_blocks(w, dims, rank, box)
    op = JhatOperator(proj_jacobian(FeasibleSet(structure, box), w), gram, gamma)
    assert_bitwise(op.matrix(), oracles.jhat_matrix_loop(blocks, dims, rank, want, gamma))


@given(cases())
@settings(max_examples=300, deadline=None)
def test_dense_system_matches_block_loops_bitwise(case):
    structure, box, w, point, _, gamma = case
    try:
        proj_jacobian(FeasibleSet(structure, box), w)
    except DegenerateBlockError:
        assert_bitwise(GramianOperator(point).dense(), oracles.gramian_dense_loop(point.factors, point.weights))
        return
    assert_dense_system_matches_block_loops(structure, box, w, point, gamma)


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
    pj, gram = references(structure, None, w, point)
    assert_bitwise(op.gram.apply(v), gram(v))
    assert_bitwise(op.proj_el.apply(v), pj(v))
    assert_bitwise(op.apply(v), oracles.jhat_apply_loop(pj, gram, gamma, v))
    assert_bitwise(op.apply_transpose(v), oracles.jhat_apply_transpose_loop(pj, gram, gamma, v))
    assert_projection_matches_column_loop(structure, None, w)
    assert_dense_system_matches_block_loops(structure, None, w, point, gamma)


def test_direction_matches_reference_solve_bitwise():
    # at the paper's size: the reference surrogate, its normal matrix, the
    # damping on its diagonal and one np.linalg.solve
    _, state, _ = make_state(12, dims=(10, 10, 10), rank=5)
    structure = state.point.structure
    d, report = solve_direction(state)
    gram = oracles.gramian_dense_loop(state.point.factors, state.point.weights)
    blocks = oracles.proj_jacobian_blocks(state.w, structure.dims, structure.rank)
    jac = oracles.jhat_matrix_loop(blocks, structure.dims, structure.rank, gram, state.gamma)
    want_d, want_rel = oracles.direction_solve(jac, state.r, state.x, state.rnorm, DAMPING)
    assert report.converged and report.iterations == 1
    assert_bitwise(d, want_d)
    assert_bitwise(np.float64(report.rel_residual), np.float64(want_rel))


# --- the curvature floor --------------------------------------------------------


def assert_curvature_floor_matches_form_loop(point, g):
    """``cauchy_scale``, and the form behind it, against the entry-by-entry
    reference; a zero ``g`` is refused."""
    gg = float(g @ g)
    if gg == 0.0:
        with pytest.raises(ValueError, match="zero direction"):
            cauchy_scale(point, g, gg)
        return
    form = oracles.gramian_form_loop(point.factors, point.weights, g)
    assert_bitwise(np.float64(calculus._gramian_form(point, g)), np.float64(form))
    want = gg / form if form > 0.0 else math.inf
    assert_bitwise(np.float64(cauchy_scale(point, g, gg)), np.float64(want))


@given(cases())
@settings(max_examples=300, deadline=None)
def test_curvature_floor_matches_form_loop_bitwise(case):
    _, _, _, point, v, _ = case
    assert_curvature_floor_matches_form_loop(point, v)


@pytest.mark.parametrize("dims,rank", [((10, 10, 10), 5), ((30, 30, 30, 30), 8), ((25, 40, 12, 40), 9)])
def test_curvature_floor_matches_form_loop_bitwise_at_solver_sizes(dims, rank):
    # the floor of a solver step: a projected point and a gradient-sized
    # direction
    structure = CpdStructure(dims, rank)
    rng = np.random.default_rng(sum(dims) + rank)
    point = project(FeasibleSet(structure), rng.uniform(-0.1, 1.0, structure.size))
    assert_curvature_floor_matches_form_loop(point, rng.standard_normal(structure.size))


def assert_step_state_matches_plain_expressions(state):
    """The state's fields against the expressions that define them, in the
    order they are written: w = x - γ g, z = P(w), r = x - z, ‖r‖ and the
    envelope f - g·r + ‖r‖²/(2γ)."""
    s = state.point.structure
    x, g, gamma = state.x, state.grad, state.gamma
    w = x - gamma * g
    z, _ = oracles.project_loop(w, s.dims, s.rank, state.problem.fset.box_bound)
    r = x - z
    rsq = r @ r
    assert_bitwise(state.w, w)
    assert_bitwise(state.z.flat, z)
    assert_bitwise(state.r, r)
    assert_bitwise(np.float64(state.rnorm), np.sqrt(rsq))
    assert_bitwise(np.float64(state.fbe), np.float64(state.fx) - g @ r + rsq / (2.0 * gamma))


@given(cases(), st.integers(0, 2**32 - 1))
@settings(max_examples=200, deadline=None)
def test_step_state_matches_plain_expressions_bitwise(case, seed):
    structure, box, _, point, _, gamma = case
    rng = np.random.default_rng(seed)
    tensor = DenseTensor(structure.dims, rng.standard_normal(math.prod(structure.dims)))
    state = fb_step(CpdProblem(tensor, FeasibleSet(structure, box)), point, gamma)
    assert_step_state_matches_plain_expressions(state)
    assert_step_state_matches_plain_expressions(state.with_gamma(0.5 * gamma))


@pytest.mark.parametrize("dims,rank", [((10, 10, 10), 5), ((30, 30, 30, 30), 8), ((25, 40, 12, 40), 9)])
def test_step_state_matches_plain_expressions_bitwise_at_solver_sizes(dims, rank):
    _, state, _ = make_state(sum(dims), dims=dims, rank=rank)
    assert_step_state_matches_plain_expressions(state)
    assert_step_state_matches_plain_expressions(state.with_gamma(3.0 * state.gamma))


# --- the evaluation core -----------------------------------------------------


@st.composite
def evaluations(draw):
    """A point from :func:`cases` (row- or column-major factors, signed
    zeros) and a data tensor of its shape.  Mode sizes of 1 make some
    middle-mode unfoldings views of the residual instead of copies."""
    structure, _, _, point, _, _ = draw(cases())
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    data = rng.standard_normal(math.prod(structure.dims))
    data = sprinkle_zeros(rng, data, draw(st.sampled_from([0.0, 0.3])))
    return point, DenseTensor(structure.dims, data)


def reference(factors, weights, data):
    """Objective and gradient of the reference evaluation, block by block."""
    f, g = oracles.evaluation_via_blocks(factors, weights, data, tensors._BLOCK_BYTES)
    return np.float64(f), g


def assert_evaluation_matches_model_path(point, tensor):
    factors, weights = point.factors, point.weights
    want_model = oracles.blocked_model(factors, weights, tensors._BLOCK_BYTES)
    want_f, want_g = reference(factors, weights, tensor.values)
    _, *want_parts = oracles.blocked_partials(factors, weights, tensor.values, tensors._BLOCK_BYTES)
    assert_bitwise(tensor_from_cpd(point).values, want_model)
    assert_bitwise(residual_values(point, tensor), want_model - tensor.values)
    assert_bitwise(np.float64(objective_value(point, tensor)), want_f)
    assert_bitwise(gradient(point, tensor), want_g)
    value, parts = value_and_residual(point, tensor)
    assert_bitwise(np.float64(value), want_f)
    for got, want in zip(parts, want_parts, strict=True):
        assert_bitwise(got, want)
    assert_bitwise(gradient_from_residual(point, parts), want_g)


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
    want_f, want_g = reference(factors, weights, tensor.values)
    assert_bitwise(np.float64(state.fx), want_f)
    assert_bitwise(state.grad, want_g)


# --- the evaluation a state keeps from its projected point's objective --------


def evaluated_step(point, tensor, gauss_newton=False):
    """A problem, and the step at ``point`` whose ``fz`` it has evaluated."""
    problem = CpdProblem(tensor, FeasibleSet(point.structure), gauss_newton=gauss_newton)
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
    hit = fb_step(problem, state.z.flat, 0.1, state.z_evaluation)
    assert counts(problem) == (fe, ge + 1)
    fresh = fb_step(CpdProblem(tensor, FeasibleSet(point.structure)), state.z.flat, 0.1)
    for got in (hit, fresh):
        assert_bitwise(np.float64(got.fx), np.float64(state.fz))
    assert_bitwise(hit.grad, fresh.grad)
    factors, weights = oracles.split_flat(state.z.flat, point.structure.dims, point.structure.rank)
    assert_bitwise(hit.grad, reference(factors, weights, tensor.values)[1])
    # without the evaluation, a step to the same point makes its own
    again = fb_step(problem, state.z.flat, 0.1)
    assert counts(problem) == (fe + 1, ge + 2)
    assert_bitwise(again.grad, fresh.grad)


@pytest.mark.parametrize("dims,rank,block_rows", [
    ((30, 30, 30, 30), 8, None), ((5, 4, 1, 6, 3), 3, 4), ((2, 3, 2, 3, 2, 2), 2, 1), ((7, 5), 3, 2), ((4, 3, 5), 2, 4),
])
def test_kept_partials_give_the_bits_of_a_fresh_step(dims, rank, block_rows, monkeypatch):
    # the kept parts are the halves' partial contractions, summed over
    # blocks of rows: 25 at the solver's size, 5 with a ragged last one, one
    # row each, and, with a left half of one mode, 3 and 4 blocks with a
    # ragged last one.  A Gauss-Newton problem keeps an objective-only
    # evaluation, which the step completes with a pass that is not counted
    if block_rows is not None:
        monkeypatch.setattr(tensors, "_BLOCK_BYTES", 8 * math.prod(dims[: len(dims) // 2]) * block_rows)
    structure = CpdStructure(dims, rank)
    rng = np.random.default_rng(sum(dims))
    tensor = DenseTensor(dims, rng.standard_normal(math.prod(dims)))
    point = CpdPoint.from_flat(structure, rng.uniform(-0.2, 1.0, structure.size))
    for gauss_newton in (False, True):
        problem, state = evaluated_step(point, tensor, gauss_newton)
        assert (state.z_evaluation[1] is None) == gauss_newton
        fe, ge = counts(problem)
        hit = fb_step(problem, state.z, 0.1, state.z_evaluation)
        assert counts(problem) == (fe, ge + 1)
        fresh = fb_step(CpdProblem(tensor, FeasibleSet(structure)), np.array(state.z.flat), 0.1)
        assert_bitwise(np.float64(hit.fx), np.float64(fresh.fx))
        assert_bitwise(hit.grad, fresh.grad)
        factors, weights = oracles.split_flat(state.z.flat, dims, rank)
        assert_bitwise(hit.grad, reference(factors, weights, tensor.values)[1])
