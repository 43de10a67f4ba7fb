"""Projected-gradient steps, their merit envelope, and the step Jacobian.

A forward-backward step at ``x`` with stepsize ``gamma`` moves along the
negative gradient and projects back onto the feasible set:

    w = x - gamma * grad f(x),   z = project(w),   r = x - z.

The envelope value

    env(x) = f(x) - <grad f(x), r> + ||r||^2 / (2 gamma)

is the minimum of the local quadratic model over the feasible set and never
exceeds ``f(x)`` on feasible points; it is the merit function the solver
monitors.  The fixed-point residual ``r`` vanishes exactly at stationary
points.

``jhat_operator`` builds the Gauss-Newton surrogate of the residual map's
generalized Jacobian,

    v  ->  v - P (v - gamma * G v),

with ``P`` a projection-Jacobian element at ``w`` and ``G`` the Gramian at
``x``; it drops only second-order terms proportional to the residual, which
vanish at exact fits.  ``solve_direction`` takes the Gauss-Newton direction
from the surrogate's dense matrix by one damped linear solve.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .calculus import EvalCounters, GramianOperator, gradient, gradient_from_residual
from .constraints import FeasibleSet, ProjJacobianElement, project, proj_jacobian
from .tensors import CpdPoint, DenseTensor, objective_value, value_and_residual

__all__ = [
    "CpdProblem",
    "StepState",
    "fb_step",
    "JhatOperator",
    "jhat_operator",
    "DirectionReport",
    "solve_direction",
]

# Marquardt damping per unit relative fixed-point residual: the direction
# solve damps with mu = DAMPING * ||r|| / ||x|| (see solve_direction).  The
# value came from a sweep over the quadratic-convergence study, the gradient
# counts and the round-off checks, which all move with rounding.
DAMPING = 0.011


class CpdProblem:
    """A data tensor, a feasible set, and the work counters of one solve.

    All objective and gradient evaluations the solver performs are routed
    through this object so the counters stay exact: ``fevals`` counts the
    evaluations made for an objective value, ``gevals`` the gradients
    returned.  Each method raises :class:`FloatingPointError` on a
    non-finite result.

    An evaluation (:meth:`evaluate`) is the objective with the halves'
    partial contractions (see :func:`~ncpd.tensors.value_and_residual`),
    from which :meth:`value_and_gradient` finishes the gradient by the
    MTTKRPs alone, reading no array of the tensor's size.  An objective-only
    evaluation (:func:`~ncpd.tensors.objective_value`) skips the
    contractions and gives the same objective to the bit; a gradient from
    it first completes the parts with one more pass, which is not counted
    in ``fevals``.  With ``gauss_newton`` set, as in a Gauss-Newton solve,
    whose steps read no gradient at a projected point, a step state's
    evaluation there is objective-only.  The problem keeps no evaluation:
    the caller holds it and hands it back.
    """

    def __init__(self, tensor: DenseTensor, fset: FeasibleSet, counters: EvalCounters | None = None,
                 gauss_newton: bool = False):
        if fset.structure.dims != tensor.dims:
            raise ValueError(
                f"feasible set dims {fset.structure.dims} do not match tensor {tensor.dims}"
            )
        self.tensor = tensor
        self.fset = fset
        self.counters = counters if counters is not None else EvalCounters()
        self.gauss_newton = gauss_newton

    @property
    def structure(self):
        return self.fset.structure

    def point(self, x) -> CpdPoint:
        return CpdPoint.from_flat(self.structure, x)

    def evaluate(self, point: CpdPoint, parts: bool = True) -> tuple[float, tuple[np.ndarray, np.ndarray] | None]:
        """The objective at ``point`` and the parts of its evaluation, or
        ``None`` for them with ``parts`` false (objective-only); one counted
        evaluation, which raises on a non-finite objective."""
        self.counters.fevals += 1
        if parts:
            value, parts = value_and_residual(point, self.tensor)
        else:
            value, parts = objective_value(point, self.tensor), None
        if not math.isfinite(value):
            raise FloatingPointError("objective evaluated to a non-finite value")
        return value, parts

    def gradient(self, point: CpdPoint) -> np.ndarray:
        self.counters.gevals += 1
        return _finite_gradient(gradient(point, self.tensor))

    def value_and_gradient(self, point: CpdPoint, evaluation: tuple | None = None) -> tuple[float, np.ndarray]:
        """Objective and gradient from one evaluation: ``evaluation``, what
        :meth:`evaluate` returned at ``point``, or else a new one.  Counts
        one gradient, and the new evaluation if one is made, which raises
        on a non-finite objective before the gradient is computed or
        counted.  An objective-only ``evaluation`` gets its parts from one
        more pass, with no count, and keeps its objective, which that pass
        repeats to the bit."""
        value, parts = self.evaluate(point) if evaluation is None else evaluation
        if parts is None:
            parts = value_and_residual(point, self.tensor)[1]
        self.counters.gevals += 1
        return value, _finite_gradient(gradient_from_residual(point, parts))


def _finite_gradient(g: np.ndarray) -> np.ndarray:
    if not np.isfinite(g).all():
        raise FloatingPointError("gradient evaluated to a non-finite value")
    return g


class StepState:
    """Everything the solver needs at one (point, stepsize) pair.

    Immutable in spirit: all fields are computed once; the evaluation at
    the projected point is made lazily on first use and kept.  Use
    :meth:`with_gamma` to re-evaluate the same point at a different
    stepsize without repeating the gradient.

    ``point`` is the iterate, ``x`` its flat vector, and ``z`` the point
    that :func:`~ncpd.constraints.project` returns.  These points are
    evaluated and handed on as they are, so a step copies none beyond its
    projection.  ``z_evaluation``, the evaluation behind :attr:`fz`, is
    what a step to ``z`` passes to :func:`fb_step`, which then needs only
    the MTTKRPs for its gradient.  For a Gauss-Newton problem
    (``CpdProblem.gauss_newton``) it is objective-only, so a step to ``z``
    completes it with one uncounted pass.
    """

    def __init__(self, problem: CpdProblem, point: CpdPoint, gamma: float, fx: float, grad: np.ndarray):
        if not gamma > 0:
            raise ValueError(f"stepsize must be positive, got {gamma}")
        x = point.flat
        self.w = w = x - gamma * grad
        self.z = z = project(problem.fset, w)
        self.r = r = x - z.flat
        rsq = float(r @ r)
        self.rnorm = math.sqrt(rsq)
        self.fbe = fx - float(grad @ r) + rsq / (2.0 * gamma)
        self.problem, self.point, self.x, self.gamma, self.fx, self.grad = problem, point, x, gamma, fx, grad
        self._z_evaluation = None

    @property
    def z_evaluation(self) -> tuple[float, tuple[np.ndarray, np.ndarray] | None]:
        """The objective at the projected point ``z`` and the parts of its
        evaluation (:meth:`CpdProblem.evaluate`), objective-only for a
        Gauss-Newton problem; one counted evaluation, kept."""
        if self._z_evaluation is None:
            self._z_evaluation = self.problem.evaluate(self.z, parts=not self.problem.gauss_newton)
        return self._z_evaluation

    @property
    def fz(self) -> float:
        """Objective at the projected point ``z``, from :attr:`z_evaluation`."""
        return self.z_evaluation[0]

    def with_gamma(self, gamma: float) -> "StepState":
        return StepState(self.problem, self.point, gamma, self.fx, self.grad)


def fb_step(problem: CpdProblem, x, gamma: float, evaluation: tuple | None = None) -> StepState:
    """Evaluate one forward-backward step at ``x``, a :class:`CpdPoint` or
    a flat vector.

    A point is used as it is, and becomes the state's ``point``; a flat
    vector is copied once, by :meth:`CpdProblem.point`.  The objective and
    the gradient at ``x`` come from one evaluation
    (:meth:`CpdProblem.value_and_gradient`) and count as one gradient
    evaluation, plus one objective evaluation unless ``evaluation`` is
    given: the evaluation already made at ``x``, as a projected-gradient
    step to ``state.z`` passes ``state.z_evaluation``; an objective-only one
    is completed by one more pass, which is not counted.  The objective at
    the projected point is left to :attr:`StepState.fz`.
    """
    point = x if isinstance(x, CpdPoint) else problem.point(x)
    fx, grad = problem.value_and_gradient(point, evaluation)
    return StepState(problem, point, gamma, fx, grad)


class JhatOperator:
    """Gauss-Newton surrogate Jacobian of the fixed-point residual map.

    apply:            v -> v - P (v - gamma G v)
    apply_transpose:  v -> v - (v - gamma G (P v))   [P, G symmetric]

    ``v`` must be a float64 vector of length ``size``.  The Gramian and
    projection-Jacobian applies check it; this operator adds no conversion
    or check of its own.  :meth:`matrix` is the same map as a dense matrix.
    """

    def __init__(self, proj_el: ProjJacobianElement, gram: GramianOperator, gamma: float):
        if proj_el.size != gram.size:
            raise ValueError("projection Jacobian and Gramian sizes differ")
        self.proj_el = proj_el
        self.gram = gram
        self.gamma = gamma

    @property
    def size(self) -> int:
        return self.gram.size

    def apply(self, v: np.ndarray) -> np.ndarray:
        inner = v - self.gamma * self.gram.apply(v)
        return v - self.proj_el.apply(inner)

    def apply_transpose(self, v: np.ndarray) -> np.ndarray:
        pv = self.proj_el.apply(v)
        return v - pv + self.gamma * self.gram.apply(pv)

    def matrix(self) -> np.ndarray:
        """The surrogate as a dense ``(size, size)`` matrix: ``P`` applied
        to the columns of ``I - gamma G``.  ``G`` is assembled afresh and
        scaled in place, so at most two ``(size, size)`` arrays are live:
        ``I - gamma G`` and the result."""
        diagonal = slice(None, None, self.size + 1)
        jac = self.gram.dense()
        jac *= -self.gamma
        jac.reshape(-1)[diagonal] += 1.0
        jac = self.proj_el.apply_columns(jac)
        jac *= -1.0
        jac.reshape(-1)[diagonal] += 1.0
        return jac


def jhat_operator(state: StepState) -> JhatOperator:
    """Surrogate Jacobian element at a step state, with the projection
    Jacobian element of :func:`~ncpd.constraints.proj_jacobian` at its
    pre-projection point and the Gramian at its iterate.

    Raises :class:`~ncpd.constraints.DegenerateBlockError` when the
    pre-projection point has a factor block with no positive part.
    """
    proj_el = proj_jacobian(state.problem.fset, state.w)
    return JhatOperator(proj_el, GramianOperator(state.point), state.gamma)


@dataclass(frozen=True)
class DirectionReport:
    """How a direction solve went: ``iterations`` counts the dense solves
    (0 for a zero right-hand side, else 1), ``rel_residual`` is the relative
    residual of the damped system, and ``converged`` is false for a
    singular or non-finite system."""

    iterations: int
    rel_residual: float
    converged: bool


def solve_direction(state: StepState) -> tuple[np.ndarray, DirectionReport]:
    """Gauss-Newton direction at a step state: the solution ``d`` of

        (Jhat^T Jhat + mu diag(Jhat^T Jhat)) d = -Jhat^T r,
        mu = DAMPING ||r|| / ||x||,

    by one dense LU solve, with ``Jhat`` the surrogate's matrix
    (:meth:`JhatOperator.matrix`) at the state.  Damping in proportion to
    the residual keeps local quadratic convergence without a nonsingular
    surrogate (Fan and Yuan, 2005), which matters here: planted factors
    have exact zeros, so strict complementarity fails at the solution.
    Marquardt's diagonal scaling makes the damping blind to the weights'
    scale, whose columns of ``Jhat`` are about 1/lambda the size of the
    factor columns; ``||x||`` makes ``mu`` blind to the data's scale.

    May raise :class:`~ncpd.constraints.DegenerateBlockError`; a singular or
    non-finite system is reported as not converged, not raised, so the caller
    can fall back to a plain projected-gradient step.
    """
    size = state.x.size
    with np.errstate(all="ignore"):  # a non-finite system is reported below
        jac = jhat_operator(state).matrix()
        rhs = -(state.r @ jac)
        rhs_norm = math.sqrt(rhs @ rhs)
        if rhs_norm == 0.0:
            return np.zeros(size), DirectionReport(0, 0.0, True)
        lhs = jac.T @ jac
        del jac  # hold at most two size-by-size arrays: lhs and LAPACK's copy
        lhs.reshape(-1)[:: size + 1] *= 1.0 + DAMPING * state.rnorm / math.sqrt(state.x @ state.x)
        try:
            d = np.linalg.solve(lhs, rhs)
        except np.linalg.LinAlgError:
            return np.zeros(size), DirectionReport(1, np.inf, False)
        res = lhs @ d - rhs
        rel = math.sqrt(res @ res) / rhs_norm
    return d, DirectionReport(1, rel, math.isfinite(rel) and bool(np.isfinite(d).all()))
