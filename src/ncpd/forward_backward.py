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
vanish at exact fits.
"""

from __future__ import annotations

import numpy as np

from .calculus import EvalCounters, GramianOperator, gradient, gradient_from_residual, value_and_residual
from .constraints import FeasibleSet, ProjJacobianElement, project, proj_jacobian
from .tensors import CpdPoint, DenseTensor, objective_value  # noqa: F401 (perfbench's traced run wraps it here)

__all__ = [
    "CpdProblem",
    "StepState",
    "fb_step",
    "JhatOperator",
    "jhat_operator",
]


class CpdProblem:
    """A data tensor, a feasible set, and the work counters of one solve.

    All objective and gradient evaluations the solver performs are routed
    through this object so the counters stay exact: ``fevals`` counts the
    residuals built for an objective value, ``gevals`` the gradients
    returned.  Each method raises :class:`FloatingPointError` on a
    non-finite result.

    The residual of the last :meth:`objective` evaluation is kept until the
    next call of :meth:`objective` or :meth:`value_and_gradient`, and the
    latter, at a point with exactly the same bits, takes f and the residual
    from it instead of building the residual again: a projected-gradient
    step moves to the projected point whose objective the stepsize check
    has just evaluated.
    """

    def __init__(self, tensor: DenseTensor, fset: FeasibleSet, counters: EvalCounters | None = None):
        if fset.structure.dims != tensor.dims:
            raise ValueError(
                f"feasible set dims {fset.structure.dims} do not match tensor {tensor.dims}"
            )
        self.tensor = tensor
        self.fset = fset
        self.counters = counters if counters is not None else EvalCounters()
        # (flat point, f, residual, Khatri-Rao product) of the last objective;
        # emptied when read, so that it is used at most once
        self._kept = None

    @property
    def structure(self):
        return self.fset.structure

    def point(self, x) -> CpdPoint:
        return CpdPoint.from_flat(self.structure, x)

    def objective(self, point: CpdPoint) -> float:
        """Objective at ``point``, one counted evaluation; its residual is
        kept for :meth:`value_and_gradient` at the same point."""
        self._kept = None  # hold one tensor-size residual at a time
        self.counters.fevals += 1
        value, res, kr = value_and_residual(point, self.tensor)
        self._kept = (point.flat, _finite_value(value), res, kr)
        return value

    def gradient(self, point: CpdPoint) -> np.ndarray:
        self.counters.gevals += 1
        return _finite_gradient(gradient(point, self.tensor))

    def value_and_gradient(self, point: CpdPoint) -> tuple[float, np.ndarray]:
        """Objective and gradient from one residual: the kept one when
        ``point`` has the bits of the last :meth:`objective`'s point (one
        counted gradient), else a new one (one counted objective and one
        gradient).  A non-finite objective raises before the gradient is
        computed or counted."""
        kept, self._kept = self._kept, None
        if kept is not None and _same_bits(kept[0], point.flat):
            _, value, res, kr = kept
        else:
            kept = None  # free the kept residual before building a new one
            self.counters.fevals += 1
            value, res, kr = value_and_residual(point, self.tensor)
            _finite_value(value)
        self.counters.gevals += 1
        return value, _finite_gradient(gradient_from_residual(point, res, kr))

    def gramian(self, point: CpdPoint) -> GramianOperator:
        return GramianOperator(point, self.counters)


def _finite_value(value: float) -> float:
    if not np.isfinite(value):
        raise FloatingPointError("objective evaluated to a non-finite value")
    return value


def _same_bits(a: np.ndarray, b: np.ndarray) -> bool:
    """Whether two float64 vectors are equal bit for bit, as their uint64
    views would be (so ``-0.0`` and ``0.0`` differ).  Comparing the bytes
    takes a tenth of the time of ``np.array_equal`` on the views."""
    return a.tobytes() == b.tobytes()


def _finite_gradient(g: np.ndarray) -> np.ndarray:
    if not np.all(np.isfinite(g)):
        raise FloatingPointError("gradient evaluated to a non-finite value")
    return g


class StepState:
    """Everything the solver needs at one (point, stepsize) pair.

    Immutable in spirit: all fields are computed once; the objective at the
    projected point and the Gramian are evaluated lazily on first use and
    cached.  Use :meth:`with_gamma` to re-evaluate the same point at a
    different stepsize without repeating the gradient.
    """

    def __init__(self, problem: CpdProblem, x: np.ndarray, gamma: float, fx: float, grad: np.ndarray):
        if not gamma > 0:
            raise ValueError(f"stepsize must be positive, got {gamma}")
        self.problem = problem
        self.x = x
        self.gamma = gamma
        self.fx = fx
        self.grad = grad
        self.w = x - gamma * grad
        self.z = project(problem.fset, self.w)
        self.r = x - self.z.flat
        rsq = float(self.r @ self.r)
        self.rnorm = np.sqrt(rsq)
        self.fbe = fx - float(grad @ self.r) + rsq / (2.0 * gamma)
        self._fz = None
        self._gramian = None

    @property
    def degenerate(self) -> bool:
        return self.z.degenerate

    @property
    def fz(self) -> float:
        """Objective at the projected point; one counted evaluation, cached.

        Evaluated on the row-major copy that :func:`fb_step` makes of a
        flat point, so that its kept residual is the one ``fb_step`` at
        ``z.flat`` would build."""
        if self._fz is None:
            self._fz = self.problem.objective(self.problem.point(self.z.flat))
        return self._fz

    def gramian(self) -> GramianOperator:
        if self._gramian is None:
            self._gramian = self.problem.gramian(self.problem.point(self.x))
        return self._gramian

    def with_gamma(self, gamma: float) -> "StepState":
        state = StepState(self.problem, self.x, gamma, self.fx, self.grad)
        state._gramian = self._gramian  # same point, stepsize-independent
        return state


def fb_step(problem: CpdProblem, x, gamma: float) -> StepState:
    """Evaluate one forward-backward step at ``x``.

    The objective and the gradient at ``x`` come from one residual
    (:meth:`CpdProblem.value_and_gradient`) and count as one gradient
    evaluation, plus one objective evaluation when the residual is built
    here.  It is not when ``x`` is the projected point whose
    :attr:`StepState.fz` was the problem's last objective evaluation, as on
    a projected-gradient step: that residual is reused.  The objective at
    the projected point is left to :attr:`StepState.fz`.
    """
    x = np.asarray(x, dtype=np.float64)
    fx, grad = problem.value_and_gradient(problem.point(x))
    return StepState(problem, x, gamma, fx, grad)


class JhatOperator:
    """Gauss-Newton surrogate Jacobian of the fixed-point residual map.

    apply:            v -> v - P (v - gamma G v)
    apply_transpose:  v -> v - (v - gamma G (P v))   [P, G symmetric]

    ``v`` must be a float64 vector of length ``size``.  The Gramian and
    projection-Jacobian applies check it; this operator adds no conversion
    or check of its own, since it runs twice per CG iteration.
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


def jhat_operator(state: StepState, convention: int = 0) -> JhatOperator:
    """Surrogate Jacobian element at a step state.

    Raises :class:`~ncpd.constraints.DegenerateBlockError` when the
    pre-projection point has a factor block with no positive part.
    """
    proj_el = proj_jacobian(state.problem.fset, state.w, convention)
    return JhatOperator(proj_el, state.gramian(), state.gamma)
