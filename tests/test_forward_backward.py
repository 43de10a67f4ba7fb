import math
import tracemalloc

import numpy as np
import pytest

from helpers import random_feasible, strictly_positive_point, tiny_structure
from ncpd.calculus import EvalCounters, explicit_jacobian
from ncpd.constraints import FeasibleSet, proj_jacobian, project
from ncpd.experiments import InstanceSpec, gen_inexact_instance, random_feasible_point
from ncpd.forward_backward import CpdProblem, fb_step, jhat_operator
from ncpd.solver import SolverConfig, pgd_solve
from ncpd.tensors import CpdPoint, CpdStructure, DenseTensor, objective_value, tensor_from_cpd


def make_problem(seed=0, dims=(4, 3, 2), rank=2):
    rng = np.random.default_rng(seed)
    structure = CpdStructure(dims, rank)
    planted = strictly_positive_point(structure, rng)
    tensor = tensor_from_cpd(planted)
    problem = CpdProblem(tensor, FeasibleSet(structure), EvalCounters())
    return problem, planted, rng


# --- step state -------------------------------------------------------------


def test_fixed_point_at_exact_solution():
    problem, planted, _ = make_problem()
    state = fb_step(problem, planted.flat, 0.1)
    assert np.allclose(state.r, 0.0, atol=1e-12)
    assert state.rnorm == pytest.approx(0.0, abs=1e-12)
    assert state.fbe == pytest.approx(0.0, abs=1e-20)
    assert state.fz == pytest.approx(0.0, abs=1e-20)


def test_state_fields_consistent():
    problem, _, rng = make_problem(1)
    x = random_feasible(problem.structure, rng).flat
    gamma = 1e-3
    state = fb_step(problem, x, gamma)
    assert np.array_equal(state.w, x - gamma * state.grad)
    assert np.allclose(state.z.flat, project(problem.fset, state.w).flat, atol=1e-16)
    assert np.array_equal(state.r, x - state.z.flat)
    want_fbe = state.fx - float(state.grad @ state.r) + float(state.r @ state.r) / (2 * gamma)
    assert state.fbe == pytest.approx(want_fbe, rel=1e-15)


def test_fbe_is_quadratic_model_minimum_at_z():
    # envelope == model value at v = z: f + <g, z - x> + ||z - x||^2/(2 gamma)
    problem, _, rng = make_problem(2)
    x = random_feasible(problem.structure, rng).flat
    state = fb_step(problem, x, 1e-3)
    step = state.z.flat - x
    model = state.fx + float(state.grad @ step) + float(step @ step) / (2 * state.gamma)
    assert state.fbe == pytest.approx(model, rel=1e-12)


def test_fbe_below_objective_on_feasible(rng):
    problem, _, _ = make_problem(3)
    for seed in range(20):
        x = random_feasible(problem.structure, np.random.default_rng(seed)).flat
        gamma = 10.0 ** rng.uniform(-6, 0)
        state = fb_step(problem, x, gamma)
        assert state.fbe <= state.fx + 1e-12


def test_counters_one_f_one_g_per_step():
    problem, _, rng = make_problem(4)
    x = random_feasible(problem.structure, rng).flat
    state = fb_step(problem, x, 1e-2)
    assert problem.counters.fevals == 1
    assert problem.counters.gevals == 1
    state.fz  # lazy objective at z
    assert problem.counters.fevals == 2
    state.fz
    assert problem.counters.fevals == 2  # cached


@pytest.mark.parametrize("cauchy_floor", [False, True])
def test_pgd_step_builds_one_residual(cauchy_floor):
    # a step to the projected point reuses the residual of its objective, so
    # an iteration that kept its stepsize adds one f (at the next projected
    # point) and one g; stepsize changes re-evaluate f at a new projected
    # point, and the final row may stop inside an iteration
    spec = InstanceSpec(dims=(6, 5, 4), rank=3, seed=11)
    tensor = gen_inexact_instance(spec)
    start = random_feasible_point(spec.structure, 11)
    rows = pgd_solve(tensor, start, SolverConfig(max_iters=300, cauchy_floor=cauchy_floor)).trace.records
    steps = list(zip(rows, rows[1:-1]))
    steady = [(a, b) for a, b in steps if b.gamma == a.gamma and b.gamma_halvings == 0]
    assert len(steady) >= 50
    for a, b in steady:
        assert (b.fevals - a.fevals, b.gevals - a.gevals) == (1, 1)
    for a, b in steps:
        assert b.fevals - a.fevals <= 2 + 2 * b.gamma_halvings
        assert b.gevals - a.gevals <= 1 + b.gamma_halvings


def test_step_to_the_projected_point_takes_that_point_and_its_residual():
    problem, _, rng = make_problem(7)
    state = fb_step(problem, random_feasible(problem.structure, rng).flat, 1e-2)
    state.fz
    fe, ge = problem.counters.fevals, problem.counters.gevals
    step = fb_step(problem, state.z, 1e-2, state.z_evaluation)
    assert step.point is state.z and step.x is state.z.flat
    assert (problem.counters.fevals, problem.counters.gevals) == (fe, ge + 1)
    fresh = fb_step(CpdProblem(problem.tensor, problem.fset), np.array(state.z.flat), 1e-2)
    for got, want in ((step.fx, fresh.fx), (step.grad, fresh.grad), (step.z.flat, fresh.z.flat)):
        assert np.array_equal(np.float64(got).view(np.uint64), np.float64(want).view(np.uint64))


def test_pgd_solve_builds_one_point_per_projection(monkeypatch):
    # every flat vector becomes one CpdPoint, built by the projection that
    # makes it; beyond those, only the Lipschitz probe's point is built
    spec = InstanceSpec(dims=(6, 5, 4), rank=3, seed=11)
    tensor = gen_inexact_instance(spec)
    start = random_feasible_point(spec.structure, 11)
    built = {"points": 0, "projections": 0}
    from_flat, init = CpdPoint.from_flat.__func__, CpdPoint.__init__

    def counted_from_flat(cls, *args, **kwargs):
        built["points"] += 1
        return from_flat(cls, *args, **kwargs)

    def counted_init(self, *args, **kwargs):
        built["points"] += 1
        init(self, *args, **kwargs)

    def counted_project(*args):
        built["projections"] += 1
        return project(*args)

    monkeypatch.setattr(CpdPoint, "from_flat", classmethod(counted_from_flat))
    monkeypatch.setattr(CpdPoint, "__init__", counted_init)
    for module in ("ncpd.solver", "ncpd.forward_backward"):
        monkeypatch.setattr(f"{module}.project", counted_project)
    result = pgd_solve(tensor, start, SolverConfig(max_iters=50))
    assert result.iterations == 50
    assert built["projections"] >= 51
    assert built["points"] <= built["projections"] + 1


def test_with_gamma_reuses_point_evaluations():
    problem, _, rng = make_problem(5)
    x = random_feasible(problem.structure, rng).flat
    state = fb_step(problem, x, 1e-2)
    fe, ge = problem.counters.fevals, problem.counters.gevals
    halved = state.with_gamma(5e-3)
    assert halved.gamma == 5e-3
    assert halved.fx == state.fx
    assert problem.counters.fevals == fe and problem.counters.gevals == ge


def test_gamma_must_be_positive():
    problem, planted, _ = make_problem(6)
    with pytest.raises(ValueError):
        fb_step(problem, planted.flat, 0.0)


def test_problem_rejects_mismatched_tensor():
    problem, _, _ = make_problem(7)
    other = CpdStructure((5, 3, 2), 2)
    with pytest.raises(ValueError):
        CpdProblem(problem.tensor, FeasibleSet(other))


def test_non_finite_objective_raises():
    problem, planted, _ = make_problem(8)
    bad = np.array(planted.flat)
    bad[0] = np.inf
    with pytest.raises(FloatingPointError):
        fb_step(problem, bad, 1e-2)


# --- surrogate Jacobian -----------------------------------------------------


def dense_jhat(problem, state):
    n = problem.structure.size
    jac = explicit_jacobian(problem.point(state.x))
    gram = jac.T @ jac
    pel = proj_jacobian(problem.fset, state.w)
    p = np.column_stack([pel.apply(np.eye(n)[:, i]) for i in range(n)])
    return np.eye(n) - p @ (np.eye(n) - state.gamma * gram)


@pytest.mark.parametrize("seed", range(5))
def test_jhat_matches_dense_assembly(seed):
    problem, _, rng = make_problem(seed)
    x = strictly_positive_point(problem.structure, rng).flat
    state = fb_step(problem, x, 1e-2)
    op = jhat_operator(state)
    dense = dense_jhat(problem, state)
    for _ in range(5):
        v = rng.standard_normal(problem.structure.size)
        assert np.allclose(op.apply(v), dense @ v, rtol=1e-12, atol=1e-12)
        assert np.allclose(op.apply_transpose(v), dense.T @ v, rtol=1e-12, atol=1e-12)


def test_jhat_gamma_zero_limit():
    # at gamma -> 0 the operator tends to I - P; emulate with a tiny gamma
    problem, _, rng = make_problem(20)
    x = strictly_positive_point(problem.structure, rng).flat
    state = fb_step(problem, x, 1e-300)
    op = jhat_operator(state)
    pel = proj_jacobian(problem.fset, state.w)
    v = rng.standard_normal(problem.structure.size)
    assert np.allclose(op.apply(v), v - pel.apply(v), atol=1e-12)


def test_jhat_nonsingular_at_strict_solution():
    # at an exact solution with strictly positive entries the surrogate has
    # no null space, in particular not the scaling kernel directions
    problem, planted, rng = make_problem(21)
    state = fb_step(problem, planted.flat, 1e-2)
    dense = dense_jhat(problem, state)
    smin = np.linalg.svd(dense, compute_uv=False)[-1]
    # the weakest direction scales like gamma * sigma_min(J)^2, small but
    # far above the 1e-15 noise floor of an actually singular matrix
    assert smin > 1e-12
    from ncpd.calculus import kernel_basis

    basis = kernel_basis(planted).matrix
    image = dense @ basis
    col_norms = np.linalg.norm(image, axis=0)
    assert np.all(col_norms > 1e-8)


def test_jhat_differs_from_true_jacobian_by_residual_scale():
    # the surrogate drops the second-order term, which is O(||F||): compare
    # against a finite-difference Jacobian of the residual map at a point
    # near (residual ~ delta) and far (residual ~ 1) from a solution
    problem, planted, rng = make_problem(22)
    gamma = 1e-2

    def rmap(x):
        st = fb_step(problem, x, gamma)
        return st.r

    gaps = []
    for delta in (1e-3, 0.3):
        x = planted.flat + delta * np.abs(rng.standard_normal(planted.structure.size))
        state = fb_step(problem, x, gamma)
        op = jhat_operator(state)
        import oracles

        fd = oracles.fd_jacobian(rmap, x, h=1e-7)
        dense = np.column_stack(
            [op.apply(np.eye(state.x.size)[:, i]) for i in range(state.x.size)]
        )
        resnorm = np.sqrt(2.0 * state.fx)
        gaps.append(np.linalg.norm(fd - dense) / max(resnorm, 1e-30))
    # normalized by the residual norm, the gap stays bounded as delta shrinks
    assert gaps[0] < 50.0 * max(gaps[1], 1e-6)


def test_value_and_gradient_of_four_modes_copies_no_unfolding():
    # one blocked pass over the data holds the two Khatri-Rao products of the
    # halves, arrays of their size and one block, but no array of the
    # tensor's size
    dims = (30, 30, 30, 30)
    structure = CpdStructure(dims, 8)
    rng = np.random.default_rng(4)
    tensor = DenseTensor(dims, rng.uniform(0.0, 1.0, math.prod(dims)))
    problem = CpdProblem(tensor, FeasibleSet(structure))
    point = problem.point(rng.uniform(0.0, 1.0, structure.size))
    tracemalloc.start()
    try:
        problem.value_and_gradient(point)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 0.25 * tensor.values.nbytes
