"""End-to-end acceptance run.

Each test prints one PASS/FAIL line with the measured statistics; run with
``pytest tests/test_acceptance.py -v -s`` to see them.  The two experiment
fixtures are session scoped because they dominate the runtime.
"""

import time

import numpy as np
import pytest

from helpers import random_feasible
from oracles import fd_gradient
from ncpd.calculus import explicit_jacobian, kernel_basis
from ncpd.cli import main
from ncpd.constraints import FeasibleSet, project, proj_jacobian
from ncpd.calculus import EvalCounters
from ncpd.forward_backward import CpdProblem, fb_step, jhat_operator
from ncpd.experiments import run_experiment_compare, run_experiment_quadratic
from ncpd.solver import SolverConfig, gamma_condition
from ncpd.tensors import CpdPoint, CpdStructure, DenseTensor, objective_value

ALPHA = SolverConfig().alpha


def verdict(tag: str, ok: bool, detail: str) -> None:
    line = f"{tag} {'PASS' if ok else 'FAIL'}: {detail}"
    print(line)
    assert ok, line


@pytest.fixture(scope="session")
def quadratic_study():
    began = time.monotonic()
    report = run_experiment_quadratic(runs=50, base_seed=1, keep_traces=True)
    elapsed = time.monotonic() - began
    return report, elapsed


@pytest.fixture(scope="session")
def compare_study():
    return run_experiment_compare(runs=50, base_seed=1)


# --- A1: local quadratic convergence --------------------------------------------


def test_a1_quadratic_convergence(quadratic_study):
    report, elapsed = quadratic_study
    median = report.aggregate["median_slope"]
    converged = [r for r in report.records if r.converged]
    steep = sum(1 for r in converged if r.slope is not None and r.slope >= 1.5)
    frac = steep / len(converged)
    ok = 1.7 <= median <= 2.3 and frac >= 0.8 and elapsed < 300.0
    verdict(
        "A1",
        ok,
        f"median slope {median:.3f} (need [1.7, 2.3]); slope >= 1.5 on "
        f"{steep}/{len(converged)} converged runs = {100 * frac:.0f}% (need 80%); "
        f"runtime {elapsed:.1f}s (limit 300s)",
    )


# --- A2: gradient-count advantage ------------------------------------------------


def test_a2_gradient_count_advantage(compare_study):
    agg = compare_study.aggregate
    med_gn = agg["median_panoc_gradients"]
    med_pg = agg["median_pgd_gradients"]
    rate = agg["win_rate_excluding_flagged"]
    ok = med_gn < med_pg and rate >= 0.70
    verdict(
        "A2",
        ok,
        f"median gradient evaluations {med_gn:.0f} vs {med_pg:.0f} (need strictly less); "
        f"wins {agg['wins_excluding_flagged']}/{agg['paired_runs']} paired = "
        f"{100 * rate:.0f}% (need 70%; {agg['n_flagged']} flagged runs excluded)",
    )


# --- A3: structural rank deficiency ----------------------------------------------


def test_a3_gramian_kernel_rank():
    rng = np.random.default_rng(20260816)
    worst_extra = 0
    worst_annihilation = 0.0
    for i in range(100):
        rank = 1 + i % 3
        dims = tuple(int(d) for d in rng.integers(3, 6, size=3))
        structure = CpdStructure(dims, rank)
        flat = rng.uniform(0.5, 1.5, size=structure.size)
        point = project(FeasibleSet(structure), flat)
        jac = explicit_jacobian(point)
        gram = jac.T @ jac
        svals = np.linalg.svd(gram, compute_uv=False)
        n_null = int(np.sum(svals < 1e-10 * svals[0]))
        expected = structure.num_modes * rank
        worst_extra = max(worst_extra, abs(n_null - expected))
        basis = kernel_basis(point)
        assert not basis.degenerate
        annihilation = np.linalg.norm(jac @ basis.matrix, 2) / (
            np.linalg.norm(jac, 2) * np.linalg.norm(basis.matrix, 2)
        )
        worst_annihilation = max(worst_annihilation, annihilation)
    ok = worst_extra == 0 and worst_annihilation <= 1e-10
    verdict(
        "A3",
        ok,
        f"Gramian null count off by {worst_extra} over 100 points (need exact N*R); "
        f"worst relative kernel annihilation {worst_annihilation:.2e} (limit 1e-10)",
    )


# --- A4: envelope inequalities ----------------------------------------------------


def test_a4_envelope_inequalities():
    rng = np.random.default_rng(41)
    structure = CpdStructure((4, 3, 2), 2)
    fset = FeasibleSet(structure)
    worst_gap = -np.inf
    worst_decrease = -np.inf
    n_condition_passed = 0
    for _ in range(1000):
        tensor = DenseTensor(structure.dims, rng.uniform(size=structure.dims[0] * 6))
        problem = CpdProblem(tensor, fset, EvalCounters())
        x = random_feasible(structure, rng)
        gamma = rng.uniform(1e-6, 1.0)
        state = fb_step(problem, x.flat, gamma)
        worst_gap = max(worst_gap, state.fbe - state.fx)
        if gamma_condition(state, ALPHA):
            n_condition_passed += 1
            bound = state.fbe - (1.0 - ALPHA) / (2.0 * gamma) * state.rnorm**2
            worst_decrease = max(worst_decrease, state.fz - bound)
    ok = worst_gap <= 1e-12 and worst_decrease <= 1e-12 and n_condition_passed > 0
    verdict(
        "A4",
        ok,
        f"worst envelope minus objective {worst_gap:.2e} over 1000 feasible points "
        f"(limit 1e-12); worst sufficient-decrease violation {worst_decrease:.2e} over "
        f"{n_condition_passed} stepsize-test passes (limit 1e-12)",
    )


# --- A5: derivative oracles ---------------------------------------------------------


def test_a5_derivative_oracles():
    rng = np.random.default_rng(52)

    worst_grad = 0.0
    for _ in range(100):
        dims = tuple(int(d) for d in rng.integers(2, 5, size=3))
        rank = int(rng.integers(1, 3))
        structure = CpdStructure(dims, rank)
        tensor = DenseTensor(dims, rng.uniform(size=structure.dims[0] * dims[1] * dims[2]))
        problem = CpdProblem(tensor, FeasibleSet(structure), EvalCounters())
        x = random_feasible(structure, rng).flat
        analytic = problem.gradient(problem.point(x))
        fd = fd_gradient(lambda v: objective_value(CpdPoint.from_flat(structure, v), tensor), x)
        worst_grad = max(worst_grad, np.linalg.norm(analytic - fd) / np.linalg.norm(analytic))

    worst_proj = 0.0
    structure = CpdStructure((4, 3, 2), 2)
    fset = FeasibleSet(structure)
    h = 1e-6
    for _ in range(100):
        w = rng.uniform(0.1, 1.0, size=structure.size) * rng.choice([-1.0, 1.0], size=structure.size)
        for n in range(structure.num_modes):
            for r in range(structure.rank):
                block = structure.block_slice(n, r)
                w[block.start] = abs(w[block.start])  # keep every block projectable
        el = proj_jacobian(fset, w)
        v = rng.standard_normal(structure.size)
        v /= np.linalg.norm(v)
        fd = (project(fset, w + h * v).flat - project(fset, w - h * v).flat) / (2.0 * h)
        worst_proj = max(worst_proj, float(np.linalg.norm(el.apply(v) - fd)))

    worst_op = 0.0
    for seed in range(10):
        loc = np.random.default_rng(seed)
        dims, rank = (4, 3, 2), 2
        structure = CpdStructure(dims, rank)
        tensor = DenseTensor(dims, loc.uniform(size=24))
        problem = CpdProblem(tensor, FeasibleSet(structure), EvalCounters())
        x = random_feasible(structure, loc)
        state = fb_step(problem, x.flat, 0.05)
        op = jhat_operator(state)
        # dense surrogate from the dense Gramian and the projection element
        jac = explicit_jacobian(problem.point(state.x))
        gram_dense = jac.T @ jac
        eye = np.eye(structure.size)
        p_dense = np.column_stack([op.proj_el.apply(eye[:, j]) for j in range(structure.size)])
        dense = eye - p_dense @ (eye - state.gamma * gram_dense)
        for _ in range(10):
            v = loc.standard_normal(structure.size)
            scale = max(1.0, float(np.linalg.norm(v)))
            worst_op = max(worst_op, float(np.linalg.norm(op.apply(v) - dense @ v)) / scale)
            worst_op = max(worst_op, float(np.linalg.norm(op.apply_transpose(v) - dense.T @ v)) / scale)

    ok = worst_grad <= 1e-5 and worst_proj <= 1e-5 and worst_op <= 1e-12
    verdict(
        "A5",
        ok,
        f"gradient vs central differences {worst_grad:.2e} over 100 instances (limit 1e-5); "
        f"projection Jacobian vs directional differences {worst_proj:.2e} (limit 1e-5); "
        f"matrix-free surrogate vs dense {worst_op:.2e} (limit 1e-12)",
    )


# --- A6: linesearch and stepsize behavior ---------------------------------------------


def test_a6_stepsize_and_linesearch(quadratic_study):
    report, _ = quadratic_study
    n_runs = len(report.traces)
    fbe_monotone = 0
    max_halvings = 0
    full_steps = 0
    n_converged = 0
    for record, trace in zip(report.records, report.traces):
        rows = trace.records
        total_h = sum(r.gamma_halvings for r in rows)
        max_halvings = max(max_halvings, total_h)
        last_h = max((i for i, r in enumerate(rows) if r.gamma_halvings > 0), default=0)
        tail = [r.fbe for r in rows[last_h:]]
        if all(b <= a + 1e-12 * max(1.0, abs(a)) for a, b in zip(tail, tail[1:])):
            fbe_monotone += 1
        if record.converged:
            n_converged += 1
            steps = [r for r in rows if r.kind != "term"]
            if len(steps) >= 3 and all(r.tau == 1.0 for r in steps[-3:]):
                full_steps += 1
    frac_full = full_steps / n_converged
    ok = fbe_monotone == n_runs and max_halvings < 60 and frac_full >= 0.9
    verdict(
        "A6",
        ok,
        f"envelope monotone after final stepsize halving on {fbe_monotone}/{n_runs} runs "
        f"(need all); max stepsize halvings {max_halvings} (limit 60); unit steps over the "
        f"final 3 iterations on {full_steps}/{n_converged} converged runs = "
        f"{100 * frac_full:.0f}% (need 90%)",
    )


# --- A7: reproducibility ---------------------------------------------------------------


def test_a7_byte_identical_outputs(tmp_path):
    import json

    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(
        json.dumps(
            {
                "instance": {
                    "dims": [6, 5, 4],
                    "rank": 2,
                    "zeros_per_factor": 3,
                    "negative_entries_per_factor": 3,
                }
            }
        )
    )
    pairs = []
    for prefix in ("first", "second"):
        code = main(
            ["experiment", "quadratic", "--runs", "4", "--seed", "1",
             "--config", str(cfg_path), "--out", str(tmp_path / prefix)]
        )
        assert code == 0
        pairs.append(
            ((tmp_path / f"{prefix}.csv").read_bytes(), (tmp_path / f"{prefix}.json").read_bytes())
        )
    csv_same = pairs[0][0] == pairs[1][0]
    json_same = pairs[0][1] == pairs[1][1]

    from ncpd.experiments import gen_exact_instance, InstanceSpec
    from ncpd.tensors import ten_write

    tensor, _ = gen_exact_instance(
        InstanceSpec(dims=(6, 5, 4), rank=2, seed=4, zeros_per_factor=3,
                     negative_entries_per_factor=3)
    )
    ten_path = tmp_path / "input.ten"
    ten_write(ten_path, tensor)
    outs = []
    for prefix in ("deca", "decb"):
        code = main(["decompose", str(ten_path), "--rank", "2", "--out", str(tmp_path / prefix)])
        assert code == 0
        outs.append(
            b"".join(
                (tmp_path / f"{prefix}{suffix}").read_bytes()
                for suffix in (".factor1.ten", ".factor2.ten", ".factor3.ten",
                               ".lambda.ten", ".trace.csv", ".summary.json")
            )
        )
    dec_same = outs[0] == outs[1]
    ok = csv_same and json_same and dec_same
    verdict(
        "A7",
        ok,
        f"repeated experiment byte-identical: csv={csv_same} json={json_same}; "
        f"repeated decompose byte-identical: {dec_same}",
    )
