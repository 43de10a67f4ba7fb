"""Tests of the benchmark itself: every check rejects a corrupted result,
inputs regenerate bit for bit, and the traced run covers its metrics.

    python3 -m pytest perfbench
"""

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import checks
import layers
import run
import workloads

import ncpd.solver as solver

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())

TINY_EXACT = workloads.Workload("tiny-exact", (6, 5, 5), 3, True, (1, 2), 2000, 50, 2, 2)
TINY_INEXACT = workloads.Workload("tiny-inexact", (6, 5, 5), 3, False, (1, 2), 2000, 50, 2, 2)


def prepared(w, tmp_path, seed=7):
    inputs = workloads.make_inputs(w, seed, tmp_path)
    instances = workloads.set_up(w, inputs)
    workloads.prepare_checks(inputs, instances)
    return inputs, instances


@pytest.fixture(scope="module")
def exact_solve(tmp_path_factory):
    """A Gauss-Newton solve of a small exact instance, with its instance."""
    _, instances = prepared(TINY_EXACT, tmp_path_factory.mktemp("exact"))
    inst = instances[0]
    s = workloads.solve(TINY_EXACT, inst, "gn")
    return inst, s


# --- each check accepts a real result and rejects a corrupted one --------------


def test_feasibility_check(exact_solve):
    _, s = exact_solve
    a, w = s.result.point.factors, s.result.point.weights
    checks.check_feasible(a, w)
    scaled = [a[0] * 1.0001] + list(a[1:])
    with pytest.raises(checks.CheckFailed, match="unit norm"):
        checks.check_feasible(scaled, w)
    negative = [a[0].copy()] + list(a[1:])
    negative[0][0, 0] = -1e-9
    with pytest.raises(checks.CheckFailed, match="negative entry"):
        checks.check_feasible(negative, w)
    with pytest.raises(checks.CheckFailed, match="negative"):
        checks.check_feasible(a, -w)


def test_objective_check(exact_solve, tmp_path):
    inst, s = exact_solve
    a, w = s.result.point.factors, s.result.point.weights
    checks.check_objective(s.result.f, a, w, inst.data)
    with pytest.raises(checks.CheckFailed, match="reported f"):
        checks.check_objective(s.result.f + 1e-12, a, w, inst.data)
    # an inexact fit: a relative error of 1e-9 in f is caught
    _, instances = prepared(TINY_INEXACT, tmp_path)
    inexact = instances[0]
    s2 = workloads.solve(TINY_INEXACT, inexact, "pgd")
    a2, w2 = s2.result.point.factors, s2.result.point.weights
    checks.check_objective(s2.result.f, a2, w2, inexact.data)
    with pytest.raises(checks.CheckFailed):
        checks.check_objective(s2.result.f * (1 + 1e-9), a2, w2, inexact.data)


def test_start_objective_check(exact_solve):
    inst, s = exact_solve
    checks.check_no_worse_than_start(s.result.f, inst.f_start, inst.f_start_tol)
    with pytest.raises(checks.CheckFailed, match="exceeds the start"):
        checks.check_no_worse_than_start(2 * inst.f_start, inst.f_start, inst.f_start_tol)


def test_trace_check(exact_solve):
    _, s = exact_solve
    rows = list(s.result.trace.records)
    checks.check_trace(rows)
    bad = rows[:]
    bad[-1] = dataclasses.replace(bad[-1], gevals=bad[-2].gevals - 1)
    with pytest.raises(checks.CheckFailed, match="gevals decreases"):
        checks.check_trace(bad)
    with pytest.raises(checks.CheckFailed, match="kind"):
        checks.check_trace(rows[:-1])


def test_prefix_check(exact_solve):
    inst, s = exact_solve
    rows = s.result.trace.records
    k = len(rows) - 2
    cfg = dataclasses.replace(TINY_EXACT.config(inst.study_seed, "gn"), max_iters=k)
    short = solver.panoc_solve(inst.tensor, inst.start, cfg, inst.planted).trace.records
    checks.check_prefix(rows, short)
    bad = list(short)
    bad[k] = dataclasses.replace(bad[k], fz=bad[k].fz * 2)
    with pytest.raises(checks.CheckFailed, match="departs"):
        checks.check_prefix(rows, bad)


def test_planted_solution_checks(exact_solve):
    inst, s = exact_solve
    p, a, w = inst.planted, s.result.point.factors, s.result.point.weights
    rel = checks.matched_relative_error(a, w, p.factors, p.weights)
    checks.check_round_off(rel, workloads.ROUND_OFF)
    # term order does not matter
    swapped = [f[:, ::-1] for f in a]
    assert checks.matched_relative_error(swapped, w[::-1], p.factors, p.weights) == pytest.approx(rel, abs=1e-15)
    perturbed = [a[0] + 1e-6] + list(a[1:])
    with pytest.raises(checks.CheckFailed, match="planted"):
        checks.check_round_off(checks.matched_relative_error(perturbed, w, p.factors, p.weights), workloads.ROUND_OFF)


def test_quadratic_rate_check():
    checks.check_quadratic_rate([1e-1, 1e-2, 1e-4, 1e-8], 1.0)
    with pytest.raises(checks.CheckFailed, match="slope"):
        checks.check_quadratic_rate([1e-1, 1e-2, 1e-3, 1e-4, 1e-5], 1.0)
    with pytest.raises(checks.CheckFailed, match="slope"):
        checks.check_quadratic_rate([1e-1, 1e-2], 1.0)


def test_gradient_comparison_check():
    checks.check_fewer_gradients(20, 2000)
    with pytest.raises(checks.CheckFailed, match="gradients"):
        checks.check_fewer_gradients(2000, 2000)
    assert checks.different_optima(1.0, 1.06)
    assert not checks.different_optima(1.0, 1.04)


def test_round_trip_check():
    values = np.linspace(0.1, 1.0, 7)
    checks.check_round_trip(values, values.copy())
    off = values.copy()
    off[3] = np.nextafter(off[3], 2.0)
    with pytest.raises(checks.CheckFailed, match="round trip"):
        checks.check_round_trip(values, off)


def test_threshold_rows():
    rows = [type("Row", (), {"fz": f})() for f in (10.0, 2.0, 1.005, 1.0)]
    assert checks.first_row_within(rows, 1.01, 1.0) is rows[2]
    with pytest.raises(checks.CheckFailed):
        checks.first_row_within(rows, 1.01, 0.5)


# --- inputs ------------------------------------------------------------------


@pytest.mark.parametrize("w", [TINY_EXACT, TINY_INEXACT])
def test_inputs_regenerate_bit_for_bit(w, tmp_path):
    first, second, other = tmp_path / "a", tmp_path / "b", tmp_path / "c"
    for d in (first, second, other):
        d.mkdir()
    in_a, inst_a = prepared(w, first)
    in_b, inst_b = prepared(w, second)
    for x, y in zip(in_a, in_b):
        assert x.study_seed == y.study_seed
        assert x.path.read_bytes() == y.path.read_bytes()
    for x, y in zip(inst_a, inst_b):
        assert x.tensor.values.tobytes() == y.tensor.values.tobytes()
        assert x.start.flat.tobytes() == y.start.flat.tobytes()
        if w.exact:
            assert x.planted.flat.tobytes() == y.planted.flat.tobytes()
    assert workloads.instances_digest(inst_a) == workloads.instances_digest(inst_b)
    start = inst_b[0].start
    moved = dataclasses.replace(inst_b[0], start=type(start).from_flat(start.structure, np.nextafter(start.flat, 2.0)))
    assert workloads.instances_digest(inst_a) != workloads.instances_digest([moved] + inst_b[1:])
    # another seed visits the same panel, possibly in another order
    in_c, _ = prepared(w, other, seed=8)
    by_seed = {x.study_seed: x for x in in_c}
    assert sorted(by_seed) == sorted(w.panel)
    for x in in_a:
        assert x.values.tobytes() == by_seed[x.study_seed].values.tobytes()


def test_planted_point_fits_its_tensor(tmp_path):
    _, instances = prepared(TINY_EXACT, tmp_path)
    p = instances[0].planted
    assert checks.half_squared_residual(p.factors, p.weights, instances[0].data) < 1e-25
    checks.check_feasible(p.factors, p.weights)


# --- the runner ----------------------------------------------------------------


@pytest.mark.parametrize("trace", [False, True])
def test_runs_report_every_metric_of_the_spec(trace, tmp_path):
    original = solver.fb_step
    tally, values, details = run.run(TINY_INEXACT, 3, 0.01, trace, tmp_path)
    assert solver.fb_step is original  # wrappers are removed after each solve
    # one round: per instance a GN and a PGD operation, traced ones too when tracing
    assert tally.attempted == len(TINY_INEXACT.panel) * (4 if trace else 2)
    assert tally.failed == 0 and not tally.problems, tally.problems
    wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {m["name"] for m in wanted} <= set(values)
    if trace:
        assert values["forward_backward.fb_steps"] > 0 and values["tensors.ten_read_s"] > 0
        # tracing changes no result
        for s, t in zip(details["solves"], details["traced_solves"]):
            assert {k: s[k] for k in ("instance", "algo", "iterations", "f")} == \
                {k: t[k] for k in ("instance", "algo", "iterations", "f")}
    else:
        # a set-up process is due before every operation of so short a run
        processes = min(tally.attempted, run.SETUP_PROCESSES)
        assert len(details["setup_s"]) == processes * TINY_INEXACT.setup_blocks


def test_exact_workload_round_passes_its_checks(tmp_path):
    tally, _, details = run.run(TINY_EXACT, 3, 0.01, False, tmp_path)
    assert tally.failed == 0 and not tally.problems, tally.problems
    for row in details["solves"]:
        assert 0 < row["to_1pct_seconds"] and 0 < row["grads_to_1pct"]


def test_threshold_time_and_gradients_describe_one_run(tmp_path):
    _, instances = prepared(TINY_INEXACT, tmp_path)
    inst = instances[0]
    s = workloads.solve(TINY_INEXACT, inst, "pgd")
    workloads.time_to_threshold(TINY_INEXACT, inst, s)
    rows = s.result.trace.records
    row = checks.first_row_within(rows, workloads.THRESHOLD, s.result.f)
    assert row.k < len(rows) - 1 and s.to_1pct_seconds < s.seconds
    # the count is that of the row the re-run stopped on: row k, or the
    # state before a restart of iteration k, or row k + 1
    assert s.grads_to_1pct in {r.gevals for r in rows[: row.k + 2]}


def test_threshold_not_reached_is_a_failed_check(exact_solve, monkeypatch):
    inst, s = exact_solve
    rows = list(s.result.trace.records)
    # claim that an early row is within the threshold: no re-run near it is
    monkeypatch.setattr(checks, "check_prefix", lambda full, short: None)
    rows[1] = dataclasses.replace(rows[1], fz=0.0)
    assert len(rows) > 4
    fake = workloads.Solve(s.study_seed, "gn", s.seconds, dataclasses.replace(s.result, trace=_trace(rows)))
    with pytest.raises(checks.CheckFailed, match="reaches"):
        workloads.time_to_threshold(TINY_EXACT, inst, fake)


def _trace(rows):
    trace = solver.SolverTrace(has_reference=True)
    for row in rows:
        trace.append(row)
    return trace


def test_a_raising_re_run_is_a_failed_operation(tmp_path, monkeypatch):
    _, instances = prepared(TINY_INEXACT, tmp_path)
    real = solver.pgd_solve
    calls = []

    def second_call_raises(*args):
        calls.append(1)
        if len(calls) == 2:
            raise FloatingPointError("objective evaluated to a non-finite value")
        return real(*args)

    monkeypatch.setattr(solver, "pgd_solve", second_call_raises)
    tally = run.Tally()
    assert run.operation(TINY_INEXACT, instances[0], "pgd", tally) is None
    assert (tally.attempted, tally.failed) == (1, 1)


def test_gradient_flops_counts_the_matrix_products():
    # (N + 1) products of 2 * size * rank dominate
    flops = layers.gradient_flops((10, 10, 10), 5)
    assert 4 * 2 * 1000 * 5 < flops < 6 * 2 * 1000 * 5


def test_spec_shape():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert {w["name"] for w in SPEC["workloads"]} == set(workloads.WORKLOADS)
    assert any(m["name"] == "setup_s" for m in SPEC["end_to_end"])
    assert all(0 < m["bound"] <= 0.25 for m in SPEC["end_to_end"])


def test_fails_without_the_package(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("_data", "_runs", "__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "compare", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert out.returncode != 0
    assert out.stdout == ""
