"""Which ``ncpd`` functions the traced run wraps, and the per-layer metrics
derived from their spans.

Functions are wrapped where their callers look them up: the solver driver
finds ``fb_step``, ``solve_direction`` and the rest as attributes of
``ncpd.solver``, the step state finds ``gradient``, ``objective_value`` and
``project`` as attributes of ``ncpd.forward_backward``, and the operators'
``apply`` methods are found on their classes.
"""

from __future__ import annotations

import math
from contextlib import contextmanager

import ncpd.calculus as calculus
import ncpd.constraints as constraints
import ncpd.experiments as experiments
import ncpd.forward_backward as forward_backward
import ncpd.solver as solver
import ncpd.tensors as tensors

from tracing import Tracer


class DirectionLog:
    """What each Gauss-Newton direction solve reported."""

    def __init__(self):
        self.reports = []  # (cg iterations, relative residual, capped)

    def record(self, result) -> None:
        d, report = result
        capped = not report.converged and report.iterations >= 3 * d.size
        self.reports.append((report.iterations, report.rel_residual, capped))


@contextmanager
def traced_solve(tracer: Tracer, directions: DirectionLog):
    """Wrap the solve-time functions of every layer for one solve."""
    fb = forward_backward
    tracer.wrap(solver, "panoc_solve", "solver")
    tracer.wrap(solver, "pgd_solve", "solver")
    tracer.wrap(solver, "estimate_lipschitz", "lipschitz")
    tracer.wrap(solver, "fb_step", "fb_step")
    tracer.wrap(solver, "solve_direction", "direction", on_result=directions.record)
    tracer.wrap(solver, "cauchy_scale", "cauchy_scale")
    tracer.wrap(solver, "project", "project")
    tracer.wrap(solver, "matched_distance", "matched_error")
    tracer.wrap(fb, "gradient", "gradient")
    tracer.wrap(fb, "objective_value", "objective")
    tracer.wrap(fb, "project", "project")
    tracer.wrap(fb, "proj_jacobian", "proj_jacobian")
    tracer.wrap(fb.JhatOperator, "apply", "jhat_apply")
    tracer.wrap(fb.JhatOperator, "apply_transpose", "jhat_apply")
    tracer.wrap(calculus.GramianOperator, "__init__", "gramian_build")
    tracer.wrap(calculus.GramianOperator, "apply", "gramian_apply")
    tracer.wrap(constraints.ProjJacobianElement, "apply", "pj_apply")
    tracer.wrap(tensors.CpdStructure, "split", "split", timed=False)
    with tracer:
        yield


@contextmanager
def traced_setup(tracer: Tracer):
    """Wrap the set-up functions: the tensor reader and the generators."""
    tracer.wrap(tensors, "ten_read", "ten_read")
    for name in ("gen_exact_instance", "gen_inexact_instance", "perturb_solution", "random_feasible_point"):
        tracer.wrap(experiments, name, "instance")
    with tracer:
        yield


def gradient_flops(dims, rank: int) -> float:
    """Floating-point operations of one ``calculus.gradient`` call, computed
    from the shapes: the model's Khatri-Rao product and matrix product, the
    residual, and per mode a Khatri-Rao product and the unfolded matrix
    product (the MTTKRP)."""
    size = math.prod(dims)
    n = len(dims)

    def khatri_rao(mode_sizes):
        flops, rows = 0, mode_sizes[0]
        for d in mode_sizes[1:]:
            rows *= d
            flops += rows * rank
        return flops

    flops = khatri_rao([dims[m] for m in range(n - 1, 0, -1)]) + 2 * size * rank + size
    for mode in range(n):
        others = [dims[m] for m in range(n - 1, -1, -1) if m != mode]
        flops += khatri_rao(others) + 2 * size * rank + dims[mode] * rank
    return float(flops + 2 * dims[0] * rank)


def layer_metrics(solve_tracer: Tracer, setup_tracer: Tracer, directions: DirectionLog,
                  pairs, setup_passes: int, dims, rank: int, overhead: float) -> dict[str, float]:
    """Per-layer metrics.  Solve-time figures are per instance, that is per
    pair of one Gauss-Newton and one PGD solve; set-up figures are per pass
    over the workload's inputs."""
    n = len(pairs)
    st = solve_tracer.stats

    def count(name):
        return st[name].count / n if name in st else 0.0

    def total(name):
        return st[name].total_s / n if name in st else 0.0

    def own(name):
        return st[name].self_s / n if name in st else 0.0

    solves = [s.summary for pair in pairs for s in pair]
    gn_steps = sum(gn.summary["gn_steps"] for gn, _ in pairs)
    reports = directions.reports
    n_dir = len(reports)
    cg_its = sum(r[0] for r in reports)
    gradient_s = st["gradient"].total_s if "gradient" in st else 0.0
    gradient_flops_total = st["gradient"].count * gradient_flops(dims, rank) if "gradient" in st else 0.0
    setup = setup_tracer.stats
    return {
        "solver.iterations": sum(s["iterations"] for s in solves) / n,
        "solver.gamma_halvings": sum(s["gamma_halvings"] for s in solves) / n,
        "solver.tau_halvings": sum(s["tau_halvings"] for s in solves) / n,
        "solver.self_s": own("solver"),
        "solver.lipschitz_s": total("lipschitz"),
        "forward_backward.fb_steps": count("fb_step"),
        "forward_backward.fb_step_s": total("fb_step"),
        "forward_backward.fb_step_self_s": own("fb_step"),
        "forward_backward.jhat_apply_s": total("jhat_apply"),
        "newton_cg.directions": n_dir / n,
        "newton_cg.directions_used_share": gn_steps / n_dir if n_dir else 0.0,
        "newton_cg.cg_iterations": cg_its / n,
        "newton_cg.cg_iters_per_direction": cg_its / n_dir if n_dir else 0.0,
        "newton_cg.capped_share": sum(r[2] for r in reports) / n_dir if n_dir else 0.0,
        "newton_cg.max_rel_residual": max((r[1] for r in reports), default=0.0),
        "newton_cg.direction_s": total("direction"),
        "newton_cg.direction_self_s": own("direction"),
        "calculus.gradients": count("gradient"),
        "calculus.gradient_s": total("gradient"),
        "calculus.gradient_gflops": gradient_flops_total / gradient_s / 1e9 if gradient_s else 0.0,
        "calculus.gramian_applies": count("gramian_apply"),
        "calculus.gramian_apply_s": total("gramian_apply"),
        "calculus.gramian_build_s": total("gramian_build"),
        "calculus.cauchy_scale_s": total("cauchy_scale"),
        "constraints.projections": count("project"),
        "constraints.project_s": total("project"),
        "constraints.proj_jacobian_s": total("proj_jacobian"),
        "constraints.pj_applies": count("pj_apply"),
        "constraints.pj_apply_s": total("pj_apply"),
        "tensors.objectives": count("objective"),
        "tensors.objective_s": total("objective"),
        "tensors.split_calls": count("split"),
        "tensors.ten_read_s": setup["ten_read"].total_s / setup_passes,
        "experiments.instance_s": setup["instance"].total_s / setup_passes,
        "experiments.matched_error_s": total("matched_error"),
        "trace.overhead_share": overhead,
    }
