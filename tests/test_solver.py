import warnings

import numpy as np
import pytest

from helpers import random_feasible, strictly_positive_point
from ncpd.constraints import FeasibleSet, project
from ncpd.calculus import EvalCounters, GramianOperator, explicit_jacobian
from ncpd.experiments import InstanceSpec, gen_inexact_instance, random_feasible_point
import ncpd.solver as solver
from ncpd.forward_backward import CpdProblem, DirectionReport, fb_step
from ncpd.solver import (
    NonFiniteError,
    SolverConfig,
    estimate_lipschitz,
    gamma_condition,
    greedy_term_match,
    matched_distance,
    matched_relative_error,
    panoc_solve,
    pgd_solve,
)
from ncpd.tensors import CpdPoint, CpdStructure, DenseTensor, tensor_from_cpd


def small_exact(seed=0, dims=(5, 4, 3), rank=2):
    rng = np.random.default_rng(seed)
    structure = CpdStructure(dims, rank)
    planted = strictly_positive_point(structure, rng)
    return structure, tensor_from_cpd(planted), planted


def perturbed(planted, seed, scale=0.05):
    rng = np.random.default_rng(seed)
    noisy = planted.flat + scale * rng.standard_normal(planted.structure.size)
    return project(FeasibleSet(planted.structure), noisy)


# --- config -----------------------------------------------------------------


@pytest.mark.parametrize(
    "field,value",
    [
        ("alpha", 0.0),
        ("alpha", 1.0),
        ("beta", 1.5),
        ("epsilon", 0.0),
        ("max_iters", 0),
        ("max_tau_halvings", -1),
        ("box_bound", -1.0),
        ("max_gamma_halvings", 0),
        ("max_iters", 2.5),
        ("max_iters", True),
        ("seed", 1.5),
        ("max_tau_halvings", "5"),
        ("max_gamma_halvings", 60.0),
        ("cauchy_floor", "no"),
        ("cauchy_floor", 0),
    ],
)
def test_config_validation(field, value):
    with pytest.raises(ValueError, match=field):
        SolverConfig(**{field: value})


def test_config_takes_numpy_integers():
    cfg = SolverConfig(max_iters=np.int64(7), seed=np.uint32(3), max_tau_halvings=np.int8(2))
    assert (cfg.max_iters, cfg.seed, cfg.max_tau_halvings) == (7, 3, 2)


# --- lipschitz estimate -------------------------------------------------------


def test_lipschitz_exact_for_spherical_quadratic():
    mu = 7.5
    est = estimate_lipschitz(lambda v: mu * v, np.zeros(30), step=1e-6, seed=0)
    assert est == pytest.approx(mu, rel=1e-12)


def test_lipschitz_deterministic():
    rng = np.random.default_rng(0)
    mat = rng.standard_normal((10, 10))
    a = mat @ mat.T
    g = lambda v: a @ v
    x0 = rng.standard_normal(10)
    assert estimate_lipschitz(g, x0, 1e-6, seed=3) == estimate_lipschitz(g, x0, 1e-6, seed=3)
    assert estimate_lipschitz(g, x0, 1e-6, seed=3) != estimate_lipschitz(g, x0, 1e-6, seed=4)


def test_lipschitz_floor():
    est = estimate_lipschitz(lambda v: np.zeros_like(v), np.zeros(5), 1e-6, seed=0)
    assert est == 1e-12


def test_lipschitz_within_factor_of_gramian_spectrum():
    structure, tensor, planted = small_exact(2)
    problem = CpdProblem(tensor, FeasibleSet(structure), EvalCounters())
    x0 = perturbed(planted, 5).flat
    est = estimate_lipschitz(
        lambda v: problem.gradient(problem.point(v)), x0, 1e-6, seed=0
    )
    jac = explicit_jacobian(problem.point(x0))
    top = float(np.linalg.norm(jac.T @ jac, 2))
    assert top / 100.0 <= est <= 100.0 * top


# --- gamma condition ----------------------------------------------------------


def test_gamma_condition_passes_at_fixed_point():
    structure, tensor, planted = small_exact(3)
    problem = CpdProblem(tensor, FeasibleSet(structure), EvalCounters())
    state = fb_step(problem, planted.flat, 0.1)
    assert gamma_condition(state, alpha=0.95)


def test_gamma_condition_fails_for_huge_stepsize():
    structure, tensor, planted = small_exact(4)
    problem = CpdProblem(tensor, FeasibleSet(structure), EvalCounters())
    x = perturbed(planted, 1, scale=0.3).flat
    big = fb_step(problem, x, 1e6)
    small = fb_step(problem, x, 1e-6)
    assert not gamma_condition(big, alpha=0.95)
    assert gamma_condition(small, alpha=0.95)


def test_pgd_fallback_is_projected_point():
    # a plain projected-gradient step moves the iterate to the projected
    # point of the validated state: the distance to it on the next row is 0
    structure, tensor, planted = small_exact(5)
    start = perturbed(planted, 2)
    cfg = SolverConfig(max_iters=1)
    first = pgd_solve(tensor, start, cfg).trace[0]
    assert first.kind == "pgd"
    problem = CpdProblem(tensor, FeasibleSet(structure), EvalCounters())
    x0 = project(problem.fset, start.flat).flat
    target = fb_step(problem, x0, first.gamma).z
    rows = pgd_solve(tensor, start, cfg, reference=target).trace
    assert rows[0].err > 0.0
    assert rows[1].err == 0.0


# --- term matching ------------------------------------------------------------


def test_greedy_match_recovers_permutation(rng):
    structure, _, planted = small_exact(6)
    perm = np.array([1, 0])
    shuffled = CpdPoint([a[:, perm] for a in planted.factors], planted.weights[perm])
    got = greedy_term_match(planted, shuffled)
    assert np.array_equal(got, perm)
    assert matched_distance(shuffled, planted) == pytest.approx(0.0, abs=1e-12)


def test_matched_distance_ignores_term_order():
    structure, _, planted = small_exact(7, rank=3)
    rng = np.random.default_rng(1)
    for _ in range(5):
        perm = rng.permutation(3)
        shuffled = CpdPoint([a[:, perm] for a in planted.factors], planted.weights[perm])
        assert matched_distance(shuffled, planted) < 1e-12


def test_matched_relative_error_scale():
    structure, _, planted = small_exact(8)
    assert matched_relative_error(planted, planted) == 0.0
    other = CpdPoint(planted.factors, planted.weights * 1.5)
    want = 0.5 * np.linalg.norm(planted.weights) / planted.norm()
    assert matched_relative_error(other, planted) == pytest.approx(want, rel=1e-12)


# --- solves -------------------------------------------------------------------


def test_solve_from_solution_terminates_immediately():
    structure, tensor, planted = small_exact(9)
    res = panoc_solve(tensor, planted)
    assert res.reason == "tolerance"
    assert res.converged
    assert res.iterations == 0
    assert res.f <= 1e-20
    assert len(res.trace) == 1 and res.trace[0].kind == "term"


def test_solve_converges_from_perturbed_start():
    structure, tensor, planted = small_exact(10)
    res = panoc_solve(tensor, perturbed(planted, 3), reference=planted)
    assert res.converged
    assert res.f <= 1e-18
    assert matched_relative_error(res.point, planted) < 1e-8
    errs = [rec.err for rec in res.trace]
    assert all(e is not None for e in errs)
    assert errs[-1] < 1e-8


def test_result_point_is_feasible():
    structure, tensor, planted = small_exact(11)
    res = panoc_solve(tensor, perturbed(planted, 4))
    from ncpd.constraints import is_feasible

    assert is_feasible(FeasibleSet(structure), res.point)


def test_infeasible_start_is_projected():
    structure, tensor, planted = small_exact(12)
    rng = np.random.default_rng(0)
    raw = CpdPoint.from_flat(structure, rng.uniform(0.2, 2.0, size=structure.size))
    res = panoc_solve(tensor, raw, SolverConfig(max_iters=5))
    assert res.trace[0].fx >= 0.0  # solved from the projected start without error


def test_trace_row_invariants():
    structure, tensor, planted = small_exact(13)
    res = panoc_solve(tensor, perturbed(planted, 5), reference=planted)
    rows = res.trace.records
    assert [r.k for r in rows] == list(range(len(rows)))
    assert rows[-1].kind == "term"
    for row in rows:
        assert row.kind in ("gn", "pgd", "term")
        assert row.gamma > 0 and row.rnorm >= 0
        assert 0.0 <= row.tau <= 1.0
    for a, b in zip(rows, rows[1:]):
        assert b.fevals >= a.fevals and b.gevals >= a.gevals and b.gramian_applies >= a.gramian_applies


def test_trace_fbe_monotone_after_last_halving():
    structure, tensor, planted = small_exact(14)
    res = panoc_solve(tensor, perturbed(planted, 6, scale=0.2))
    rows = res.trace.records
    last_halving = max((i for i, r in enumerate(rows) if r.gamma_halvings > 0), default=0)
    fbes = [r.fbe for r in rows[last_halving:]]
    for a, b in zip(fbes, fbes[1:]):
        assert b <= a + 1e-12 * max(1.0, abs(a))


def test_accepted_steps_satisfy_envelope_decrease():
    structure, tensor, planted = small_exact(15)
    cfg = SolverConfig()
    res = panoc_solve(tensor, perturbed(planted, 7, scale=0.2), cfg)
    rows = res.trace.records
    last_halving = max((i for i, r in enumerate(rows) if r.gamma_halvings > 0), default=0)
    for a, b in zip(rows[last_halving:], rows[last_halving + 1 :]):
        bound = a.fbe - (1.0 - cfg.alpha) / (2.0 * a.gamma) * cfg.beta * a.rnorm**2
        assert b.fbe <= bound + 1e-11 * max(1.0, abs(bound))


def test_gamma_never_increases_without_floor():
    structure, tensor, planted = small_exact(16)
    res = panoc_solve(tensor, perturbed(planted, 8, scale=0.2), SolverConfig(cauchy_floor=False))
    gammas = [r.gamma for r in res.trace.records]
    for a, b in zip(gammas, gammas[1:]):
        assert b <= a * (1 + 1e-15)


def test_max_iters_reason():
    structure, tensor, planted = small_exact(17)
    res = panoc_solve(tensor, perturbed(planted, 9), SolverConfig(max_iters=2, epsilon=1e-300))
    assert res.reason == "max-iters"
    assert not res.converged
    assert res.iterations == 2


def test_nonfinite_tensor_raises_with_trace(monkeypatch):
    # a tensor built in code is checked at the solver boundary, before
    # anything is evaluated on it, and the error names the first bad entry
    # by its multi-index; (5, 4, 3): flat position 5*1 + 5*4*2 = 45
    structure, tensor, planted = small_exact(18)
    values = np.array(tensor.values)
    values[45] = np.nan
    values[-1] = np.inf  # a later non-finite entry is not the one named
    bad = DenseTensor(structure.dims, values)

    def evaluated(*args):
        raise AssertionError("evaluated a non-finite tensor")

    for module in ("ncpd.calculus", "ncpd.forward_backward"):
        monkeypatch.setattr(f"{module}.value_and_residual", evaluated)
    for solve in (panoc_solve, pgd_solve):
        with pytest.raises(ValueError, match=r"^tensor has a non-finite value nan at index \(0, 1, 2\)$"):
            solve(bad, planted)


_COMPARE_SEED1 = InstanceSpec(seed=1)
_FOUR_SMALL_MODES = InstanceSpec(dims=(6, 5, 4, 3), rank=4, seed=1)


@pytest.mark.parametrize(
    "spec,scale,solve",
    [
        pytest.param(_COMPARE_SEED1, 1e155, panoc_solve, id="compare-seed1"),
        pytest.param(InstanceSpec(dims=(30, 30, 30, 30), rank=8, seed=1), 1e155, panoc_solve, id="four-modes"),
    ]
    + [
        pytest.param(spec, scale, solve, id=f"{name}-{scale:.0e}-{solve.__name__}")
        for name, spec in [("compare-seed1", _COMPARE_SEED1), ("6x5x4x3", _FOUR_SMALL_MODES)]
        for scale in (1e150, 1e160, 1e300)
        for solve in (panoc_solve, pgd_solve)
    ],
)
def test_overflowing_objective_raises_without_a_warning(spec, scale, solve):
    # numpy warns of nothing however close to overflow the data is scaled.
    # From 1e155 the squared residual overflows at the start point, and the
    # solve raises before its first trace row; at 1e150 it overflows along
    # the way, or not, and the solve raises or stops on a named reason
    tensor = gen_inexact_instance(spec)
    scaled = DenseTensor(tensor.dims, tensor.values * scale)
    start = random_feasible_point(spec.structure, spec.seed)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        if scale >= 1e155:
            with pytest.raises(NonFiniteError) as info:
                solve(scaled, start, SolverConfig(seed=spec.seed))
            assert len(info.value.trace) == 0
            return
        try:
            result = solve(scaled, start, SolverConfig(seed=spec.seed))
        except NonFiniteError:
            return
    assert result.reason in ("tolerance", "max-iters", "stagnation")
    assert np.all(np.isfinite(result.point.flat))


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="scale covariance is lost far below overflow (ROADMAP item 4)")
def test_scaled_data_solves_like_unscaled_data():
    # data scaled by 1e50 (squared residuals near 1e100, far from overflow)
    # should give the unscaled solve's stop reason and f / scale^2; today
    # the solve stops on stagnation after 3 iterations at f / scale^2 = 105
    spec = InstanceSpec(seed=1)
    tensor = gen_inexact_instance(spec)
    start = random_feasible_point(spec.structure, spec.seed)
    plain = panoc_solve(tensor, start, SolverConfig(seed=spec.seed))
    scaled = panoc_solve(DenseTensor(tensor.dims, tensor.values * 1e50), start, SolverConfig(seed=spec.seed))
    assert (scaled.reason, plain.reason) == ("tolerance", "tolerance")
    assert scaled.f / 1e100 == pytest.approx(plain.f, rel=1e-6)


def test_start_dims_must_match():
    structure, tensor, planted = small_exact(19)
    other = CpdStructure((4, 4, 4), 2)
    rng = np.random.default_rng(0)
    with pytest.raises(ValueError):
        panoc_solve(tensor, random_feasible(other, rng))


@pytest.mark.parametrize("solve", [panoc_solve, pgd_solve])
@pytest.mark.parametrize(
    "index,value,where",
    [
        (5 * 1 + 3, np.nan, r"factor \(mode 0, column 1\), row 3"),
        (10 + 4 * 1 + 0, np.inf, r"factor \(mode 1, column 1\), row 0"),
        (10 + 8 + 3 * 1 + 2, -np.inf, r"factor \(mode 2, column 1\), row 2"),
        (24 + 1, np.nan, r"weight 1"),
    ],
)
def test_non_finite_start_is_rejected_before_any_evaluation(solve, index, value, where, monkeypatch):
    # (5, 4, 3) rank 2: mode 0 at 0..9, mode 1 at 10..17, mode 2 at 18..23,
    # weights at 24, 25
    structure, tensor, planted = small_exact(21)
    x = np.array(planted.flat)
    x[-1] = np.nan  # a later non-finite entry is not the one named
    x[index] = value
    start = CpdPoint.from_flat(structure, x)

    def evaluated(*args):
        raise AssertionError("evaluated a non-finite start point")

    for module in ("ncpd.calculus", "ncpd.forward_backward"):
        monkeypatch.setattr(f"{module}.value_and_residual", evaluated)
    with pytest.raises(ValueError, match=f"start point has a non-finite value .* at {where}$"):
        solve(tensor, start)


def test_deterministic_trace():
    structure, tensor, planted = small_exact(20)
    start = perturbed(planted, 10)
    a = panoc_solve(tensor, start, reference=planted)
    b = panoc_solve(tensor, start, reference=planted)
    assert a.trace.to_csv_string() == b.trace.to_csv_string()


# --- projected-gradient mode ---------------------------------------------------


def test_pgd_rows_never_gn():
    structure, tensor, planted = small_exact(21)
    cfg = SolverConfig(max_iters=50, epsilon=1e-12, cauchy_floor=False)
    res = pgd_solve(tensor, perturbed(planted, 11), cfg)
    for row in res.trace.records:
        assert row.kind in ("pgd", "term")
        assert row.tau == 0.0
        assert row.gramian_applies == 0


def test_pgd_equals_panoc_with_direction_disabled():
    # without a direction tau never halves, so the linesearch budget is idle
    structure, tensor, planted = small_exact(22)
    start = perturbed(planted, 12)
    results = [
        pgd_solve(tensor, start, SolverConfig(max_iters=40, epsilon=1e-16, max_tau_halvings=halvings))
        for halvings in (0, 5)
    ]
    assert results[0].trace.to_csv_string() == results[1].trace.to_csv_string()
    assert len(results[1].trace) > 1
    assert all(row.kind in ("pgd", "term") and row.tau == 0.0 for row in results[1].trace)


def test_pgd_converges_on_exact_instance():
    # the stepsize floor fights the shrinking residual in pure PGD mode, so
    # run the baseline without it for a clean linear-convergence check
    structure, tensor, planted = small_exact(23)
    cfg = SolverConfig(epsilon=1e-10, max_iters=20000, cauchy_floor=False)
    res = pgd_solve(tensor, perturbed(planted, 13), cfg)
    assert res.converged


def test_gn_uses_fewer_gradients_than_pgd():
    structure, tensor, planted = small_exact(24)
    start = perturbed(planted, 14)
    cfg = SolverConfig(epsilon=1e-10, max_iters=20000, cauchy_floor=False)
    gn = panoc_solve(tensor, start, cfg)
    pg = pgd_solve(tensor, start, cfg)
    assert gn.converged and pg.converged
    assert gn.trace[-1].gevals < pg.trace[-1].gevals


# --- trace CSV ------------------------------------------------------------------


def test_trace_csv_schema_without_reference():
    structure, tensor, planted = small_exact(25)
    res = panoc_solve(tensor, perturbed(planted, 15))
    text = res.trace.to_csv_string()
    lines = text.strip().split("\n")
    assert lines[0] == "k,f,fbe,rnorm,gamma,tau,gh,th,kind,fevals,gevals,gapplies"
    assert len(lines) == len(res.trace.records) + 1


def test_trace_csv_schema_with_reference():
    structure, tensor, planted = small_exact(26)
    res = panoc_solve(tensor, perturbed(planted, 16), reference=planted)
    lines = res.trace.to_csv_string().strip().split("\n")
    assert lines[0].endswith(",err")
    first = lines[1].split(",")
    assert len(first) == 13


def test_trace_csv_floats_round_trip():
    structure, tensor, planted = small_exact(27)
    res = panoc_solve(tensor, perturbed(planted, 17))
    lines = res.trace.to_csv_string().strip().split("\n")
    for line, rec in zip(lines[1:], res.trace.records):
        parts = line.split(",")
        assert float(parts[1]) == rec.fz  # 17 significant digits are lossless
        assert float(parts[4]) == rec.gamma


def test_trace_csv_write(tmp_path):
    structure, tensor, planted = small_exact(28)
    res = panoc_solve(tensor, perturbed(planted, 18))
    path = tmp_path / "trace.csv"
    res.trace.write_csv(path)
    assert path.read_text() == res.trace.to_csv_string()


# --- stepsize floor ---------------------------------------------------------------


def test_cauchy_floor_can_raise_gamma():
    structure, tensor, planted = small_exact(29)
    start = perturbed(planted, 19, scale=0.3)
    with_floor = panoc_solve(tensor, start, SolverConfig(cauchy_floor=True))
    gammas = [r.gamma for r in with_floor.trace.records]
    assert any(b > a for a, b in zip(gammas, gammas[1:]))


def test_pgd_floor_builds_no_gramian_operator(monkeypatch):
    # a projected-gradient step takes its curvature product from R-by-R
    # products; the trace still counts one product per accepted step
    def refuse(self, *args, **kwargs):
        raise AssertionError("a projected-gradient solve built a GramianOperator")

    monkeypatch.setattr(GramianOperator, "__init__", refuse)
    structure, tensor, planted = small_exact(29)
    res = pgd_solve(tensor, perturbed(planted, 19, scale=0.3), SolverConfig(max_iters=30))
    assert len(res.trace) > 1
    assert [r.gramian_applies for r in res.trace] == list(range(len(res.trace)))


def test_gn_floor_counts_one_gramian_apply_per_step(monkeypatch):
    # the solver counts the floor's one Gramian product in both modes, and
    # in a Gauss-Newton solve only the floor applies the operator
    applies = []
    apply = GramianOperator.apply

    def counted(self, v):
        applies.append(v)
        return apply(self, v)

    monkeypatch.setattr(GramianOperator, "apply", counted)
    structure, tensor, planted = small_exact(29)
    res = panoc_solve(tensor, perturbed(planted, 19, scale=0.3), SolverConfig(max_iters=30))
    assert len(res.trace) > 1
    assert [r.gramian_applies for r in res.trace] == list(range(len(res.trace)))
    assert len(applies) == res.trace[-1].gramian_applies


def test_pgd_step_after_a_failed_trial_reuses_the_projected_evaluation(monkeypatch):
    # a direction far uphill fails the envelope test at every tau, so each
    # iteration ends in a projected-gradient step after five tau halvings;
    # that step takes the evaluation that fz made at the projected point,
    # and adds one gradient and no objective
    def uphill(state):
        return 100.0 * state.r, DirectionReport(1, 0.0, True, False)

    steps = []

    def counted_step(problem, x, gamma, *evaluation):
        before = (problem.counters.fevals, problem.counters.gevals)
        state = fb_step(problem, x, gamma, *evaluation)
        steps.append((x, (problem.counters.fevals - before[0], problem.counters.gevals - before[1])))
        return state

    monkeypatch.setattr(solver, "solve_direction", uphill)
    monkeypatch.setattr(solver, "fb_step", counted_step)
    spec = InstanceSpec(dims=(6, 5, 4), rank=3, seed=11)
    res = panoc_solve(gen_inexact_instance(spec), random_feasible_point(spec.structure, 11), SolverConfig(max_iters=10))
    assert res.iterations == 10
    assert all(r.kind == "pgd" and r.tau_halvings == 5 for r in res.trace.records[:-1])
    to_projected = [added for x, added in steps[1:] if isinstance(x, CpdPoint)]  # steps[0] is the start
    assert len(to_projected) >= 10
    assert all(added == (0, 1) for added in to_projected)


def test_stagnation_reason():
    structure, tensor, planted = small_exact(31)
    res = panoc_solve(
        tensor,
        perturbed(planted, 21, scale=0.3),
        SolverConfig(max_gamma_halvings=1, epsilon=1e-300),
    )
    assert res.reason == "stagnation"
    assert not res.converged
