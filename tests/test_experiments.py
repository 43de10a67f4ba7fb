import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ncpd.constraints import FeasibleSet, is_feasible
from ncpd.calculus import EvalCounters
from ncpd.forward_backward import CpdProblem
from ncpd.experiments import (
    InstanceSpec,
    convergence_slope,
    gen_exact_instance,
    gen_inexact_instance,
    gradient_count_to_threshold,
    perturb_solution,
    random_feasible_point,
    run_experiment_compare,
    run_experiment_quadratic,
)
from ncpd.rng import STREAM_INSTANCE, substream
from ncpd.solver import IterationRecord, SolverConfig, SolverTrace, panoc_solve
from ncpd.tensors import CpdStructure

SMALL = InstanceSpec(dims=(6, 5, 4), rank=2, zeros_per_factor=3, negative_entries_per_factor=3)


# --- instance specs ------------------------------------------------------------


def test_spec_rejects_too_many_zeros():
    with pytest.raises(ValueError, match="zeros_per_factor"):
        InstanceSpec(dims=(3, 3, 3), rank=1, zeros_per_factor=4)


def test_spec_rejects_too_many_negatives():
    with pytest.raises(ValueError, match="negative_entries_per_factor"):
        InstanceSpec(dims=(3, 3, 3), rank=1, negative_entries_per_factor=4, zeros_per_factor=0)


def test_spec_rejects_bad_negative_range():
    with pytest.raises(ValueError, match="neg_low"):
        InstanceSpec(neg_low=0.0, neg_high=0.0)


# --- exact generator -----------------------------------------------------------


def test_exact_instance_zero_counts():
    tensor, planted = gen_exact_instance(InstanceSpec(seed=4))
    for a in planted.factors:
        assert int(np.sum(a == 0.0)) == 10


def test_exact_instance_fits_exactly():
    # the data is multiplied out with the evaluation's own GEMMs, so the
    # planted point fits it exactly at every number of modes
    specs = [InstanceSpec(seed=5)] + [
        InstanceSpec(dims=dims, rank=3, seed=5, zeros_per_factor=2, negative_entries_per_factor=2)
        for dims in [(7, 5), (6, 5, 4, 3), (5, 4, 3, 3, 2)]
    ]
    for spec in specs:
        tensor, planted = gen_exact_instance(spec)
        problem = CpdProblem(tensor, FeasibleSet(planted.structure), EvalCounters())
        assert problem.evaluate(planted)[0] == 0.0, spec.dims


def test_exact_instance_is_feasible():
    tensor, planted = gen_exact_instance(InstanceSpec(seed=6))
    assert is_feasible(FeasibleSet(planted.structure), planted)
    assert np.all(planted.weights > 0)


def test_exact_instance_deterministic():
    a_tensor, a_point = gen_exact_instance(InstanceSpec(seed=7))
    b_tensor, b_point = gen_exact_instance(InstanceSpec(seed=7))
    assert np.array_equal(a_tensor.values, b_tensor.values)
    assert np.array_equal(a_point.flat, b_point.flat)
    c_tensor, _ = gen_exact_instance(InstanceSpec(seed=8))
    assert not np.array_equal(a_tensor.values, c_tensor.values)


def test_exact_instance_respects_dims():
    tensor, planted = gen_exact_instance(SMALL)
    assert tensor.dims == (6, 5, 4)
    assert planted.structure.rank == 2
    for a, d in zip(planted.factors, (6, 5, 4)):
        assert a.shape == (d, 2)
        assert int(np.sum(a == 0.0)) == SMALL.zeros_per_factor


# --- inexact generator ----------------------------------------------------------


def test_inexact_instance_negative_counts():
    # replay the generator's substream to inspect the factors it drew
    spec = InstanceSpec(seed=9)
    tensor = gen_inexact_instance(spec)
    rng = substream(spec.seed, STREAM_INSTANCE)
    factors = []
    for dim in spec.dims:
        a = rng.uniform(size=(dim, spec.rank))
        pos = rng.choice(dim * spec.rank, size=spec.negative_entries_per_factor, replace=False)
        a[np.unravel_index(pos, a.shape, order="F")] = rng.uniform(
            spec.neg_low, spec.neg_high, size=spec.negative_entries_per_factor
        )
        factors.append(a)
    for a in factors:
        assert int(np.sum(a < 0.0)) == 10
    from ncpd.tensors import CpdPoint, tensor_from_cpd

    rebuilt = tensor_from_cpd(CpdPoint(factors, np.ones(spec.rank)))
    assert np.array_equal(tensor.values, rebuilt.values)


def test_inexact_instance_deterministic():
    a = gen_inexact_instance(InstanceSpec(seed=10))
    b = gen_inexact_instance(InstanceSpec(seed=10))
    assert np.array_equal(a.values, b.values)


def test_inexact_instance_has_no_exact_fit():
    tensor = gen_inexact_instance(SMALL)
    start = random_feasible_point(SMALL.structure, 1)
    res = panoc_solve(tensor, start)
    assert res.f > 1e-12


# --- perturbation ----------------------------------------------------------------


def test_perturb_sigma_zero_returns_reference():
    _, planted = gen_exact_instance(InstanceSpec(seed=11))
    start = perturb_solution(planted, seed=0, sigma=0.0)
    assert np.array_equal(start.flat, planted.flat)


def test_perturb_lands_in_window():
    from ncpd.solver import matched_relative_error

    _, planted = gen_exact_instance(InstanceSpec(seed=12))
    fset = FeasibleSet(planted.structure)
    for seed in range(100):
        start = perturb_solution(planted, seed)
        rel = matched_relative_error(start, planted)
        assert 0.02 <= rel <= 0.3
        assert is_feasible(fset, start)


def test_perturb_deterministic():
    _, planted = gen_exact_instance(InstanceSpec(seed=13))
    a = perturb_solution(planted, seed=5)
    b = perturb_solution(planted, seed=5)
    assert np.array_equal(a.flat, b.flat)


def test_perturb_exhausts_draws():
    _, planted = gen_exact_instance(InstanceSpec(seed=14))
    with pytest.raises(RuntimeError, match="no perturbation"):
        perturb_solution(planted, seed=0, rel_window=(0.999998, 0.999999), max_draws=3)


def test_random_feasible_point_deterministic():
    structure = CpdStructure((4, 3, 2), 2)
    a = random_feasible_point(structure, 3)
    b = random_feasible_point(structure, 3)
    assert np.array_equal(a.flat, b.flat)
    assert is_feasible(FeasibleSet(structure), a)


# --- slope estimator --------------------------------------------------------------


def test_slope_quadratic_sequence():
    assert convergence_slope([1e-1, 1e-2, 1e-4], floor=1e-12) == pytest.approx(2.0)


def test_slope_linear_sequence():
    assert convergence_slope([1e-1, 1e-2, 1e-3], floor=1e-12) == pytest.approx(1.0)


def test_slope_quadratic_nonunit_ratio():
    assert convergence_slope([0.2, 0.04, 0.0016], floor=1e-12) == pytest.approx(2.0)


def test_slope_uses_last_three():
    errs = [1.0, 0.5, 1e-1, 1e-2, 1e-4]
    assert convergence_slope(errs, floor=1e-12) == pytest.approx(2.0)


def test_slope_short_sequences_are_none():
    assert convergence_slope([], floor=0.0) is None
    assert convergence_slope([1e-1], floor=0.0) is None
    assert convergence_slope([1e-1, 1e-2], floor=0.0) is None


def test_slope_floor_filters_tail():
    # entries at or below the floor are discarded before the window is taken
    errs = [1e-1, 1e-2, 1e-4, 1e-17, 1e-18]
    assert convergence_slope(errs, floor=1e-15) == pytest.approx(2.0)
    assert convergence_slope([1e-17, 1e-18, 1e-19], floor=1e-15) is None


def test_slope_ignores_none_entries():
    assert convergence_slope([None, 1e-1, None, 1e-2, 1e-4], floor=1e-12) == pytest.approx(2.0)


def test_slope_flat_pair_is_none():
    assert convergence_slope([1e-1, 1e-2, 1e-2, 1e-2], floor=1e-12) is None


@given(
    scale=st.floats(min_value=1e-6, max_value=1e6),
    e0=st.floats(min_value=1e-3, max_value=1.0),
    ratio=st.floats(min_value=1e-4, max_value=0.5),
    q=st.floats(min_value=0.5, max_value=3.0),
)
@settings(max_examples=60, deadline=None)
def test_slope_scale_invariant(scale, e0, ratio, q):
    e1 = e0 * ratio
    e2 = e1 * ratio**q
    base = convergence_slope([e0, e1, e2], floor=0.0)
    scaled = convergence_slope([scale * e0, scale * e1, scale * e2], floor=0.0)
    assert base == pytest.approx(q, rel=1e-9)
    assert scaled == pytest.approx(base, rel=1e-9)


# --- gradient counting --------------------------------------------------------------


def synthetic_trace(fz_values, gevals):
    trace = SolverTrace()
    for k, (fz, ge) in enumerate(zip(fz_values, gevals)):
        trace.append(
            IterationRecord(
                k=k, fx=fz, fz=fz, fbe=fz, rnorm=0.1, gamma=0.5, tau=0.0,
                gamma_halvings=0, tau_halvings=0, kind="pgd", fevals=k + 1,
                gevals=ge, gramian_applies=0,
            )
        )
    return trace


def test_gradient_count_reached():
    trace = synthetic_trace([1.0, 0.5, 0.09, 0.01], [1, 2, 5, 9])
    assert gradient_count_to_threshold(trace, 0.1) == (5, True)


def test_gradient_count_at_first_row():
    trace = synthetic_trace([1.0, 0.5], [1, 2])
    assert gradient_count_to_threshold(trace, 2.0) == (1, True)


def test_gradient_count_unreached():
    trace = synthetic_trace([1.0, 0.5, 0.2], [1, 2, 5])
    assert gradient_count_to_threshold(trace, 0.1) == (5, False)


# --- experiment harness ---------------------------------------------------------------


def test_quadratic_report_shape():
    report = run_experiment_quadratic(runs=3, base_seed=1, instance=SMALL)
    assert len(report.records) == 3
    assert [r.run for r in report.records] == [0, 1, 2]
    assert [r.seed for r in report.records] == [1, 2, 3]
    agg = report.aggregate
    assert agg["experiment"] == "quadratic"
    assert agg["runs"] == 3
    assert agg["n_converged"] == 3
    assert agg["median_slope"] is not None
    assert agg["max_final_f"] <= 1e-18
    assert sum(agg["slope_histogram"]["counts"]) <= agg["n_slope_defined"]


def test_quadratic_csv_header_and_rows():
    report = run_experiment_quadratic(runs=2, base_seed=1, instance=SMALL)
    lines = report.to_csv_string().strip().split("\n")
    assert lines[0] == "run,seed,converged,final_f,iterations,slope"
    assert len(lines) == 3
    first = lines[1].split(",")
    assert first[0] == "0" and first[1] == "1" and first[2] == "1"


def test_quadratic_deterministic(tmp_path):
    a = run_experiment_quadratic(runs=2, base_seed=1, instance=SMALL)
    b = run_experiment_quadratic(runs=2, base_seed=1, instance=SMALL)
    assert a.to_csv_string() == b.to_csv_string()
    pa, pb = tmp_path / "a.json", tmp_path / "b.json"
    a.write_json(pa)
    b.write_json(pb)
    assert pa.read_bytes() == pb.read_bytes()
    assert json.loads(pa.read_text())["median_slope"] == a.aggregate["median_slope"]


def test_quadratic_keep_traces():
    report = run_experiment_quadratic(runs=2, base_seed=1, instance=SMALL, keep_traces=True)
    assert len(report.traces) == 2
    assert all(len(t) > 0 for t in report.traces)
    plain = run_experiment_quadratic(runs=2, base_seed=1, instance=SMALL)
    assert plain.traces is None


def test_compare_report_shape():
    report = run_experiment_compare(runs=2, base_seed=1, instance=SMALL)
    assert len(report.records) == 2
    agg = report.aggregate
    assert agg["experiment"] == "compare"
    assert agg["paired_runs"] + agg["n_flagged"] == 2
    assert agg["median_panoc_gradients"] > 0
    assert agg["median_pgd_gradients"] > 0
    for rec in report.records:
        assert rec.panoc_gradients > 0 and rec.pgd_gradients > 0
        assert rec.panoc_final_f >= 0 and rec.pgd_final_f >= 0


def test_compare_csv_header():
    report = run_experiment_compare(runs=1, base_seed=1, instance=SMALL)
    lines = report.to_csv_string().strip().split("\n")
    assert lines[0] == (
        "run,seed,flagged,panoc_gradients,pgd_gradients,"
        "panoc_reached,pgd_reached,panoc_final_f,pgd_final_f"
    )
    assert len(lines) == 2


def test_compare_deterministic():
    a = run_experiment_compare(runs=2, base_seed=3, instance=SMALL)
    b = run_experiment_compare(runs=2, base_seed=3, instance=SMALL)
    assert a.to_csv_string() == b.to_csv_string()
    assert json.dumps(a.aggregate, sort_keys=True) == json.dumps(b.aggregate, sort_keys=True)


def test_report_files_round_trip(tmp_path):
    report = run_experiment_quadratic(runs=2, base_seed=1, instance=SMALL)
    csv_path = tmp_path / "r.csv"
    json_path = tmp_path / "r.json"
    report.write_csv(csv_path)
    report.write_json(json_path)
    assert csv_path.read_text() == report.to_csv_string()
    loaded = json.loads(json_path.read_text())
    assert loaded == json.loads(json.dumps(report.aggregate))
    assert json_path.read_text().endswith("\n")
