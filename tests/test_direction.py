import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ncpd.forward_backward as fb
from helpers import columns, make_state
from ncpd.calculus import EvalCounters, GramianOperator, explicit_jacobian
from ncpd.constraints import FeasibleSet
from ncpd.forward_backward import CpdProblem, JhatOperator, fb_step, jhat_operator, solve_direction
from ncpd.solver import SolverConfig, panoc_solve
from ncpd.tensors import CpdPoint, CpdStructure, tensor_from_cpd


def damped_system(state):
    """The damped direction system, assembled from operator applies."""
    jac = columns(jhat_operator(state).apply, state.x.size)
    mu = fb.DAMPING * state.rnorm / np.linalg.norm(state.x)
    return jac, mu * np.einsum("ij,ij->j", jac, jac)


# --- direction solve --------------------------------------------------------


def test_direction_zero_residual():
    # basis-vector columns have bitwise-exact unit norm, so the fixed point
    # is exact and the right-hand side is exactly zero
    structure = CpdStructure((4, 3, 2), 2)
    factors = [np.eye(d)[:, :2].copy() for d in structure.dims]
    planted = CpdPoint(factors, np.array([2.0, 0.5]))
    problem = CpdProblem(tensor_from_cpd(planted), FeasibleSet(structure), EvalCounters())
    state = fb_step(problem, planted.flat, 1e-2)
    assert state.rnorm == 0.0
    d, report = solve_direction(state)
    assert np.array_equal(d, np.zeros(structure.size))
    assert report.converged and report.iterations == 0


def test_direction_zero_rhs(monkeypatch):
    # a zero right-hand side -Jhat^T r at a nonzero residual (here a zero
    # surrogate) gives d = 0 without a solve, and counts as converged
    monkeypatch.setattr(JhatOperator, "matrix", lambda self: np.zeros((self.size, self.size)))
    _, state, _ = make_state(2)
    assert state.rnorm > 0.0
    d, report = solve_direction(state)
    assert np.array_equal(d, np.zeros(state.x.size))
    assert report.converged and not report.breakdown and report.iterations == 0


def test_direction_solves_normal_equations():
    _, state, _ = make_state(3)
    d, report = solve_direction(state)
    assert report.converged and not report.breakdown and report.iterations == 1
    assert report.rel_residual <= 1e-12
    jac, damping = damped_system(state)
    rhs = -jac.T @ state.r
    lhs = jac.T @ (jac @ d) + damping * d
    assert np.linalg.norm(lhs - rhs) <= 1e-10 * np.linalg.norm(rhs)


def test_direction_reports_true_residual(monkeypatch):
    # the reported residual is that of the returned step in the damped
    # system, not an assumed one: an inexact inner solve shows in it
    _, state, _ = make_state(3)
    exact_solve = np.linalg.solve
    monkeypatch.setattr(np.linalg, "solve", lambda a, b: 0.9 * exact_solve(a, b))
    d, report = solve_direction(state)
    jac, damping = damped_system(state)
    rhs = -jac.T @ state.r
    rel = np.linalg.norm(jac.T @ (jac @ d) + damping * d - rhs) / np.linalg.norm(rhs)
    assert report.rel_residual == pytest.approx(rel, rel=1e-8)
    assert report.rel_residual == pytest.approx(0.1, rel=1e-8)


def test_direction_matches_dense_least_squares():
    for seed, perturb in [(4, 0.3), (4, 1e-4), (8, 0.1)]:
        _, state, _ = make_state(seed, perturb=perturb)
        d, report = solve_direction(state)
        assert report.converged
        jac, damping = damped_system(state)
        aug = np.vstack([jac, np.diag(np.sqrt(damping))])
        want, *_ = np.linalg.lstsq(aug, np.concatenate([-state.r, np.zeros(state.x.size)]), rcond=None)
        assert np.linalg.norm(d - want) <= 1e-8 * max(1.0, np.linalg.norm(want))


def test_direction_damping_shrinks_step(monkeypatch):
    _, state, _ = make_state(5)
    d0, _ = solve_direction(state)
    monkeypatch.setattr(fb, "DAMPING", 1e4 * fb.DAMPING)
    d1, _ = solve_direction(state)
    assert np.linalg.norm(d1) < np.linalg.norm(d0)


def test_direction_breakdown_on_nonfinite(monkeypatch):
    # a non-finite system is reported, without a numpy warning, and the
    # solver takes a projected-gradient step instead
    monkeypatch.setattr(GramianOperator, "dense", lambda self: np.full((self.size, self.size), np.nan))
    problem, state, _ = make_state(9)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        d, report = solve_direction(state)
        assert report.breakdown and not report.converged
        result = panoc_solve(problem.tensor, problem.point(state.x), SolverConfig(max_iters=2))
    assert [row.kind for row in result.trace] == ["pgd", "pgd", "term"]


def test_direction_breakdown_on_singular(monkeypatch):
    # a system matrix that is not positive definite (here singular: one
    # column of the surrogate is zero, so the damped normal matrix has a
    # zero row and column) is reported as a breakdown, not raised, without
    # a numpy warning, and the solver takes projected-gradient steps
    matrix = JhatOperator.matrix

    def rank_deficient(self):
        jac = matrix(self)
        jac[:, 0] = 0.0
        return jac

    monkeypatch.setattr(JhatOperator, "matrix", rank_deficient)
    problem, state, _ = make_state(9)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        d, report = solve_direction(state)
        assert report.breakdown and not report.converged
        assert np.array_equal(d, np.zeros(state.x.size))
        result = panoc_solve(problem.tensor, problem.point(state.x), SolverConfig(max_iters=2))
    assert [row.kind for row in result.trace] == ["pgd", "pgd", "term"]


def test_residual_map_contracts_quadratically_near_solution():
    # one GN step from x* + delta*v cuts the fixed-point residual to
    # O(residual^2): the ratio ||R(x+d)|| / ||R(x)||^2 stays bounded as
    # delta halves, while ||R(x+d)|| / ||R(x)|| vanishes
    problem, _, planted = make_state(6)
    rng = np.random.default_rng(99)
    v = rng.standard_normal(planted.structure.size)
    v /= np.linalg.norm(v)
    gamma = 5e-2
    ratios = []
    contractions = []
    for j in range(4):
        delta = 1e-3 * 0.5**j
        state = fb_step(problem, planted.flat + delta * v, gamma)
        d, report = solve_direction(state)
        assert report.converged
        after = fb_step(problem, state.x + d, gamma)
        ratios.append(after.rnorm / state.rnorm**2)
        contractions.append(after.rnorm / state.rnorm)
    assert max(ratios) <= 100.0 * max(min(ratios), 1e-6)
    assert contractions[-1] < 1e-3


# --- dense assembly of the Gramian and of the direction surrogate -----------


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
    # assembled afresh on every call, writable, with the same bits
    again = op.dense()
    assert again is not dense and again.flags.writeable
    assert np.array_equal(again.view(np.uint64), dense.view(np.uint64))


@pytest.mark.parametrize("dims,rank", [((4, 3, 2), 2), ((3, 3, 2, 2), 3), ((2, 5), 1)])
def test_jhat_matrix_matches_apply(dims, rank):
    _, state, _ = make_state(7, dims=dims, rank=rank)
    for st_ in (state, state.with_gamma(state.gamma / 2)):
        op = jhat_operator(st_)
        assert np.allclose(op.matrix(), columns(op.apply, op.size), rtol=0.0, atol=1e-13)
    # dense() hands out a fresh matrix: scaling it in place, as matrix()
    # does, gives the bits of dense() * -gamma and leaves the matrix that a
    # stepsize halving at the same point assembles as it was
    dense = state.gramian().dense()
    first, scaled = dense.copy(), dense * -state.gamma
    dense *= -state.gamma
    assert np.array_equal(dense.view(np.uint64), scaled.view(np.uint64))
    halved = state.with_gamma(state.gamma / 2).gramian().dense()
    assert halved.flags.writeable
    assert np.array_equal(halved.view(np.uint64), first.view(np.uint64))


def test_direction_solve_holds_two_size_by_size_arrays():
    # the Gramian is not kept: one solve at size 217 peaks under 2.5 arrays
    # of size^2 float64 (LAPACK's own copy is not traced); a kept G beside
    # I - gamma G and Jhat would make it at least 3
    _, state, _ = make_state(11, dims=(10, 10, 10), rank=7)
    size = state.x.size
    assert size >= 200
    tracemalloc.start()
    try:
        d, report = solve_direction(state)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report.converged
    assert peak < 2.5 * 8 * size**2
