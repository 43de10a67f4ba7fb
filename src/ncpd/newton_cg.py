"""Conjugate-gradient solve of the Gauss-Newton direction system.

The direction solves the normal equations of the surrogate Jacobian,

    (Jhat^T Jhat + damping I) d = -Jhat^T r,

matrix-free: every CG iteration costs one apply and one transpose apply of
the surrogate, i.e. two Gramian applies plus two projection-Jacobian
applies.  The solve runs to a tight fixed tolerance: the normal equations
square the conditioning of the surrogate, so a residual-proportional
(inexact-Newton) tolerance leaves direction error along weakly curved
directions that the fixed-point residual cannot see, and the outer
iteration then stalls at a plateau well above machine precision.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .forward_backward import StepState, jhat_operator

__all__ = ["CgReport", "cg_normal", "solve_direction"]


@dataclass(frozen=True)
class CgReport:
    iterations: int
    rel_residual: float
    converged: bool
    breakdown: bool


def cg_normal(apply_fn, rhs, tol: float, maxit: int) -> tuple[np.ndarray, CgReport]:
    """Conjugate gradients on a symmetric positive semidefinite operator.

    Starts from zero and stops when the recursive residual drops below
    ``tol * ||rhs||`` or after ``maxit`` iterations; the reported relative
    residual is recomputed from a fresh operator apply.  A zero right-hand
    side returns the zero vector in zero iterations.  Loss of positivity or
    a non-finite value reports a breakdown.
    """
    rhs = np.asarray(rhs, dtype=np.float64)
    rhs_norm = float(np.linalg.norm(rhs))
    x = np.zeros_like(rhs)
    if rhs_norm == 0.0:
        return x, CgReport(0, 0.0, True, False)
    res = rhs.copy()
    p = res.copy()
    rs = float(res @ res)
    iterations = 0
    converged = False
    breakdown = False
    while iterations < maxit:
        ap = apply_fn(p)
        pap = float(p @ ap)
        if not math.isfinite(pap) or pap <= 0.0:
            breakdown = True
            break
        alpha = rs / pap
        x += alpha * p
        res -= alpha * ap
        iterations += 1
        rs_new = float(res @ res)
        if not math.isfinite(rs_new):
            breakdown = True
            break
        if math.sqrt(rs_new) <= tol * rhs_norm:
            converged = True
            break
        p *= rs_new / rs
        p += res
        rs = rs_new
    true_res = float(np.linalg.norm(apply_fn(x) - rhs)) / rhs_norm
    if not np.isfinite(true_res) or not np.all(np.isfinite(x)):
        breakdown = True
    return x, CgReport(iterations, true_res, converged, breakdown)


def solve_direction(state: StepState, cfg) -> tuple[np.ndarray, CgReport]:
    """Gauss-Newton direction at a step state.

    ``cfg`` supplies ``cg_tol``, ``cg_maxit``, ``damping`` and
    ``jacobian_convention``.  May raise
    :class:`~ncpd.constraints.DegenerateBlockError`; CG breakdowns are
    reported, not raised, so the caller can fall back to a plain
    projected-gradient step.
    """
    op = jhat_operator(state, cfg.jacobian_convention)
    rhs = -op.apply_transpose(state.r)
    maxit = cfg.cg_maxit if cfg.cg_maxit is not None else 3 * op.size
    damping = cfg.damping

    if damping > 0.0:
        def normal(v):
            return op.apply_transpose(op.apply(v)) + damping * v
    else:
        def normal(v):
            return op.apply_transpose(op.apply(v))

    return cg_normal(normal, rhs, cfg.cg_tol, maxit)
