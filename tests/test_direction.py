import warnings

import numpy as np
import pytest

import ncpd.forward_backward as fb
from helpers import columns, make_state
from ncpd.calculus import EvalCounters, GramianOperator
from ncpd.constraints import FeasibleSet
from ncpd.forward_backward import CpdProblem, JhatOperator, fb_step, jhat_operator, solve_direction
from ncpd.solver import SolverConfig, panoc_solve
from ncpd.tensors import CpdPoint, CpdStructure, tensor_from_cpd


def damped_system(state, cfg=SolverConfig()):
    """The damped direction system, assembled from operator applies."""
    jac = columns(jhat_operator(state, cfg.jacobian_convention).apply, state.x.size)
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
    d, report = solve_direction(state, SolverConfig())
    assert np.array_equal(d, np.zeros(structure.size))
    assert report.converged and report.iterations == 0


def test_direction_zero_rhs(monkeypatch):
    # a zero right-hand side -Jhat^T r at a nonzero residual (here a zero
    # surrogate) gives d = 0 without a solve, and counts as converged
    monkeypatch.setattr(JhatOperator, "matrix", lambda self: np.zeros((self.size, self.size)))
    _, state, _ = make_state(2)
    assert state.rnorm > 0.0
    d, report = solve_direction(state, SolverConfig())
    assert np.array_equal(d, np.zeros(state.x.size))
    assert report.converged and not report.breakdown and report.iterations == 0


def test_direction_solves_normal_equations():
    _, state, _ = make_state(3)
    d, report = solve_direction(state, SolverConfig())
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
    d, report = solve_direction(state, SolverConfig())
    jac, damping = damped_system(state)
    rhs = -jac.T @ state.r
    rel = np.linalg.norm(jac.T @ (jac @ d) + damping * d - rhs) / np.linalg.norm(rhs)
    assert report.rel_residual == pytest.approx(rel, rel=1e-8)
    assert report.rel_residual == pytest.approx(0.1, rel=1e-8)


def test_direction_matches_dense_least_squares():
    for seed, perturb in [(4, 0.3), (4, 1e-4), (8, 0.1)]:
        _, state, _ = make_state(seed, perturb=perturb)
        d, report = solve_direction(state, SolverConfig())
        assert report.converged
        jac, damping = damped_system(state)
        aug = np.vstack([jac, np.diag(np.sqrt(damping))])
        want, *_ = np.linalg.lstsq(aug, np.concatenate([-state.r, np.zeros(state.x.size)]), rcond=None)
        assert np.linalg.norm(d - want) <= 1e-8 * max(1.0, np.linalg.norm(want))


def test_direction_damping_shrinks_step(monkeypatch):
    _, state, _ = make_state(5)
    d0, _ = solve_direction(state, SolverConfig())
    monkeypatch.setattr(fb, "DAMPING", 1e4 * fb.DAMPING)
    d1, _ = solve_direction(state, SolverConfig())
    assert np.linalg.norm(d1) < np.linalg.norm(d0)


def test_direction_breakdown_on_nonfinite(monkeypatch):
    # a non-finite system is reported, without a numpy warning, and the
    # solver takes a projected-gradient step instead
    monkeypatch.setattr(GramianOperator, "dense", lambda self: np.full((self.size, self.size), np.nan))
    problem, state, _ = make_state(9)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        d, report = solve_direction(state, SolverConfig())
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
        d, report = solve_direction(state, SolverConfig())
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
