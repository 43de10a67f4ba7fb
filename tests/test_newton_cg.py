import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import strictly_positive_point
from ncpd.constraints import FeasibleSet
from ncpd.calculus import EvalCounters
from ncpd.forward_backward import CpdProblem, fb_step, jhat_operator
from ncpd.newton_cg import cg_normal, solve_direction
from ncpd.solver import SolverConfig
from ncpd.tensors import CpdStructure, tensor_from_cpd


def spd_apply(mat):
    return lambda v: mat @ v


# --- plain CG ---------------------------------------------------------------


def test_cg_identity_one_iteration():
    rhs = np.array([1.0, -2.0, 3.0])
    x, report = cg_normal(spd_apply(np.eye(3)), rhs, tol=1e-12, maxit=10)
    assert np.allclose(x, rhs, atol=1e-14)
    assert report.iterations == 1
    assert report.converged and not report.breakdown


def test_cg_diagonal_example():
    mat = np.diag([1.0, 2.0, 4.0])
    x, report = cg_normal(spd_apply(mat), np.ones(3), tol=1e-12, maxit=10)
    assert np.allclose(x, [1.0, 0.5, 0.25], atol=1e-12)
    assert report.converged


def test_cg_zero_rhs():
    x, report = cg_normal(spd_apply(np.eye(4)), np.zeros(4), tol=1e-12, maxit=10)
    assert np.array_equal(x, np.zeros(4))
    assert report.iterations == 0
    assert report.converged


def test_cg_respects_maxit():
    rng = np.random.default_rng(0)
    a = rng.standard_normal((20, 20))
    mat = a @ a.T + 20 * np.eye(20)
    _, report = cg_normal(spd_apply(mat), rng.standard_normal(20), tol=1e-16, maxit=3)
    assert report.iterations == 3
    assert not report.converged


def test_cg_breakdown_on_indefinite():
    mat = np.diag([1.0, -1.0])
    _, report = cg_normal(spd_apply(mat), np.array([0.0, 1.0]), tol=1e-12, maxit=10)
    assert report.breakdown


def test_cg_breakdown_on_nonfinite():
    def bad(v):
        return np.full_like(v, np.nan)

    _, report = cg_normal(bad, np.ones(3), tol=1e-12, maxit=10)
    assert report.breakdown


def test_cg_reports_true_residual():
    rng = np.random.default_rng(1)
    a = rng.standard_normal((10, 10))
    mat = a @ a.T + 10 * np.eye(10)
    rhs = rng.standard_normal(10)
    x, report = cg_normal(spd_apply(mat), rhs, tol=1e-10, maxit=100)
    rel = np.linalg.norm(mat @ x - rhs) / np.linalg.norm(rhs)
    assert report.rel_residual == pytest.approx(rel, rel=1e-12)
    assert rel <= 1e-10


@given(st.integers(0, 2**32 - 1), st.integers(2, 12))
@settings(max_examples=40, deadline=None)
def test_cg_error_decreases_with_more_iterations(seed, n):
    # the A-norm of the CG error is nonincreasing in the iteration count
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((n, n))
    mat = a @ a.T + n * np.eye(n)
    rhs = rng.standard_normal(n)
    exact = np.linalg.solve(mat, rhs)

    def a_norm_err(k):
        x, _ = cg_normal(spd_apply(mat), rhs, tol=0.0, maxit=k)
        e = x - exact
        return float(e @ mat @ e)

    errs = [a_norm_err(k) for k in range(1, n + 2)]
    for prev, nxt in zip(errs, errs[1:]):
        assert nxt <= prev * (1 + 1e-9) + 1e-12


def test_cg_finishes_within_dimension_iterations():
    rng = np.random.default_rng(2)
    a = rng.standard_normal((15, 15))
    mat = a @ a.T + 15 * np.eye(15)
    _, report = cg_normal(spd_apply(mat), rng.standard_normal(15), tol=1e-12, maxit=15 + 5)
    assert report.converged


# --- direction solve --------------------------------------------------------


def make_state(seed=0, gamma=1e-2, perturb=0.3):
    rng = np.random.default_rng(seed)
    structure = CpdStructure((4, 3, 2), 2)
    planted = strictly_positive_point(structure, rng)
    problem = CpdProblem(tensor_from_cpd(planted), FeasibleSet(structure), EvalCounters())
    x = planted.flat + perturb * np.abs(rng.standard_normal(structure.size))
    return problem, fb_step(problem, x, gamma), planted


def test_forcing_tolerance_is_fixed():
    # the reported relative residual meets cg_tol itself, far from the
    # solution and three orders of magnitude closer alike
    for perturb in (0.3, 1e-4):
        _, state, _ = make_state(seed=0, perturb=perturb)
        iterations = []
        for cg_tol in (1e-3, 1e-9):
            _, report = solve_direction(state, SolverConfig(cg_tol=cg_tol))
            assert report.converged and not report.breakdown
            assert report.rel_residual <= cg_tol
            iterations.append(report.iterations)
        assert iterations[0] < iterations[1]


def test_direction_zero_residual():
    # basis-vector columns have bitwise-exact unit norm, so the fixed point
    # is exact and the right-hand side is exactly zero
    from ncpd.tensors import CpdPoint

    structure = CpdStructure((4, 3, 2), 2)
    factors = [np.eye(d)[:, :2].copy() for d in structure.dims]
    planted = CpdPoint(factors, np.array([2.0, 0.5]))
    problem = CpdProblem(tensor_from_cpd(planted), FeasibleSet(structure), EvalCounters())
    state = fb_step(problem, planted.flat, 1e-2)
    assert state.rnorm == 0.0
    d, report = solve_direction(state, SolverConfig())
    assert np.array_equal(d, np.zeros(structure.size))
    assert report.converged and report.iterations == 0


def test_direction_solves_normal_equations():
    cfg = SolverConfig()
    problem, state, _ = make_state(3)
    d, report = solve_direction(state, cfg)
    assert report.converged and not report.breakdown
    op = jhat_operator(state, cfg.jacobian_convention)
    rhs = -op.apply_transpose(state.r)
    lhs = op.apply_transpose(op.apply(d))
    assert np.linalg.norm(lhs - rhs) <= cfg.cg_tol * np.linalg.norm(rhs) * 5


def test_direction_matches_dense_least_squares():
    cfg = SolverConfig()
    problem, state, _ = make_state(4)
    d, report = solve_direction(state, cfg)
    assert report.converged
    op = jhat_operator(state, cfg.jacobian_convention)
    n = op.size
    dense = np.column_stack([op.apply(np.eye(n)[:, i]) for i in range(n)])
    want, *_ = np.linalg.lstsq(dense, -state.r, rcond=None)
    assert np.linalg.norm(d - want) <= 1e-8 * max(1.0, np.linalg.norm(want))


def test_direction_damping_shrinks_step():
    problem, state, _ = make_state(5)
    d0, _ = solve_direction(state, SolverConfig(damping=0.0))
    d1, _ = solve_direction(state, SolverConfig(damping=100.0))
    assert np.linalg.norm(d1) < np.linalg.norm(d0)


def test_residual_map_contracts_quadratically_near_solution():
    # one GN step from x* + delta*v cuts the fixed-point residual to
    # O(residual^2): the ratio ||R(x+d)|| / ||R(x)||^2 stays bounded as
    # delta halves, while ||R(x+d)|| / ||R(x)|| vanishes
    problem, _, planted = make_state(6)
    rng = np.random.default_rng(99)
    v = rng.standard_normal(planted.structure.size)
    v /= np.linalg.norm(v)
    gamma = 5e-2
    cfg = SolverConfig()
    ratios = []
    contractions = []
    for j in range(4):
        delta = 1e-3 * 0.5**j
        state = fb_step(problem, planted.flat + delta * v, gamma)
        d, report = solve_direction(state, cfg)
        assert report.converged
        after = fb_step(problem, state.x + d, gamma)
        ratios.append(after.rnorm / state.rnorm**2)
        contractions.append(after.rnorm / state.rnorm)
    assert max(ratios) <= 100.0 * max(min(ratios), 1e-6)
    assert contractions[-1] < 1e-3
