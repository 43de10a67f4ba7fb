"""Proximal Gauss-Newton driver with an envelope linesearch, and its
plain projected-gradient mode.

One outer iteration works on a validated step state at the current point:

1. Stepsize validation: halve ``gamma`` until the projected point's
   objective sits below the envelope by the required margin.  The loop is
   free when nothing changed since the last acceptance.
2. Termination on the scaled fixed-point residual.
3. A Gauss-Newton direction from one damped dense solve of the surrogate
   normal equations (skipped in projected-gradient mode or when the
   surrogate is unavailable).
4. Linesearch over the convex combination of the projected-gradient target
   and the Gauss-Newton trial point, halving ``tau`` on insufficient
   envelope decrease and falling back to the plain projected-gradient step
   after too many halvings.  A stepsize-validation failure at the trial
   point halves ``gamma`` and restarts the iteration.
5. Optionally raise ``gamma`` back to a curvature-scale floor before the
   next iteration: ``g.g / g.G.g`` with ``g`` the gradient and ``G`` the
   Gramian at the accepted point, the form taken from R-by-R products
   (:func:`~ncpd.calculus.cauchy_scale`).  The raised value is
   re-validated by step 1.

The projected-gradient solver is the same driver without the direction,
so both algorithms share stepsize handling, the curvature floor, counters
and trace format exactly: the two differ only in step 3.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .calculus import EvalCounters, cauchy_scale
from .constraints import DegenerateBlockError, FeasibleSet, project
from .forward_backward import CpdProblem, StepState, fb_step, solve_direction
from .rng import STREAM_PROBE, substream
from .tensors import CpdPoint, DenseTensor, _multi_index, as_integer, as_real, format_csv

__all__ = [
    "SolverConfig",
    "IterationRecord",
    "SolverTrace",
    "SolverResult",
    "NonFiniteError",
    "estimate_lipschitz",
    "gamma_condition",
    "panoc_solve",
    "pgd_solve",
    "greedy_term_match",
    "matched_distance",
    "matched_relative_error",
]

TRACE_COLUMNS = ("k", "f", "fbe", "rnorm", "gamma", "tau", "gh", "th", "kind", "fevals", "gevals", "gapplies")


class NonFiniteError(RuntimeError):
    """A non-finite objective or gradient value interrupted the solve."""

    def __init__(self, message: str, trace: "SolverTrace"):
        super().__init__(message)
        self.trace = trace


@dataclass(frozen=True)
class SolverConfig:
    """Tuning knobs shared by the Gauss-Newton and projected-gradient modes.

    The defaults reproduce the reference experiment setup; see the README
    for the meaning of each field.
    """

    alpha: float = 0.95
    beta: float = 0.5
    epsilon: float = 1e-20
    max_iters: int = 2000
    max_tau_halvings: int = 5
    cauchy_floor: bool = True
    box_bound: float | None = None
    seed: int = 0
    max_gamma_halvings: int = 60

    def __post_init__(self):
        for name in ("max_iters", "max_tau_halvings", "seed", "max_gamma_halvings"):
            as_integer(getattr(self, name), name)
        for name in ("alpha", "beta", "epsilon"):
            as_real(getattr(self, name), name)
        if not isinstance(self.cauchy_floor, bool):
            raise ValueError(f"cauchy_floor must be a bool, got {self.cauchy_floor!r}")
        if not 0.0 < self.alpha < 1.0:
            raise ValueError(f"alpha must lie in (0, 1), got {self.alpha}")
        if not 0.0 < self.beta < 1.0:
            raise ValueError(f"beta must lie in (0, 1), got {self.beta}")
        if not self.epsilon > 0.0:
            raise ValueError(f"epsilon must be positive, got {self.epsilon}")
        if self.max_iters < 1:
            raise ValueError(f"max_iters must be at least 1, got {self.max_iters}")
        if self.max_tau_halvings < 0:
            raise ValueError(f"max_tau_halvings must be nonnegative, got {self.max_tau_halvings}")
        if self.box_bound is not None and not as_real(self.box_bound, "box_bound") > 0.0:
            raise ValueError(f"box_bound must be positive, got {self.box_bound}")
        if self.max_gamma_halvings < 1:
            raise ValueError(f"max_gamma_halvings must be at least 1, got {self.max_gamma_halvings}")


@dataclass
class IterationRecord:
    """One trace row: the state at iteration ``k`` and the step taken from it.

    ``fz`` is the objective at the projected point, where termination and
    count-to-threshold metrics are defined; ``fx`` is the objective at the
    iterate itself.  Counters are cumulative as of the moment the state was
    validated, before the direction work of the same iteration.  ``kind`` is
    ``gn`` for an accepted Gauss-Newton trial, ``pgd`` for a plain
    projected-gradient step, and ``term`` on the final row, which takes no
    step.
    """

    k: int
    fx: float
    fz: float
    fbe: float
    rnorm: float
    gamma: float
    tau: float
    gamma_halvings: int
    tau_halvings: int
    kind: str
    fevals: int
    gevals: int
    gramian_applies: int
    err: float | None = None


class SolverTrace:
    """Per-iteration records of one solve, exportable as CSV."""

    def __init__(self, has_reference: bool = False):
        self.has_reference = has_reference
        self.records: list[IterationRecord] = []

    def append(self, record: IterationRecord) -> None:
        self.records.append(record)

    def __len__(self) -> int:
        return len(self.records)

    def __iter__(self):
        return iter(self.records)

    def __getitem__(self, idx):
        return self.records[idx]

    def to_csv_string(self) -> str:
        columns = TRACE_COLUMNS + (("err",) if self.has_reference else ())
        rows = ((rec.k, rec.fz, rec.fbe, rec.rnorm, rec.gamma, rec.tau, rec.gamma_halvings, rec.tau_halvings,
                 rec.kind, rec.fevals, rec.gevals, rec.gramian_applies, rec.err) for rec in self.records)
        return format_csv(columns, (row[: len(columns)] for row in rows))

    def write_csv(self, path) -> None:
        with open(path, "w", encoding="ascii") as fh:
            fh.write(self.to_csv_string())


@dataclass(frozen=True)
class SolverResult:
    point: CpdPoint
    f: float
    reason: str  # "tolerance" | "max-iters" | "stagnation"
    iterations: int
    trace: SolverTrace

    @property
    def converged(self) -> bool:
        return self.reason == "tolerance"


# Finite-difference spacing of the Lipschitz probe, per unit of 1 + ||x0||.
LIPSCHITZ_FD_STEP = 1e-6


def estimate_lipschitz(gradient_fn, x0: np.ndarray, grad0: np.ndarray, step: float, seed: int) -> float:
    """Gradient-Lipschitz estimate along one seeded random direction.

    Two gradients, one of them the start's: ``grad0``, the gradient at
    ``x0``, which the caller has made, and one ``gradient_fn`` call at a
    nearby point.  Exact for quadratics with spherical Hessian.  The
    finite-difference spacing scales with ``1 + ||x0||`` and the result is
    floored at 1e-12 so the initial stepsize stays finite.
    """
    x0 = np.asarray(x0, dtype=np.float64)
    rng = substream(seed, STREAM_PROBE)
    u = rng.standard_normal(x0.size)
    u /= np.linalg.norm(u)
    delta = step * (1.0 + float(np.linalg.norm(x0)))
    diff = gradient_fn(x0 + delta * u) - grad0
    lip = float(np.linalg.norm(diff)) / delta
    if not np.isfinite(lip):
        raise FloatingPointError("non-finite Lipschitz estimate")
    return max(lip, 1e-12)


def gamma_condition(state: StepState, alpha: float) -> bool:
    """Stepsize validation: the projected point's objective must sit below
    the envelope by ``(1 - alpha)/(2 gamma) ||r||^2``."""
    margin = (1.0 - alpha) / (2.0 * state.gamma) * state.rnorm**2
    return state.fz <= state.fbe - margin


# --- reference-error tracking -------------------------------------------------


def greedy_term_match(reference: CpdPoint, point: CpdPoint) -> np.ndarray:
    """Match rank-1 terms of ``point`` to those of ``reference``.

    Similarity of a term pair is the product over modes of the factor-column
    inner products; pairs are fixed greedily by descending similarity.
    Returns ``perm`` with ``perm[r]`` the index of the point term matched to
    reference term ``r``.
    """
    if reference.structure != point.structure:
        raise ValueError("reference and point structures differ")
    rank = reference.structure.rank
    sim = np.ones((rank, rank))
    for ref_a, a in zip(reference.factors, point.factors):
        sim = sim * (ref_a.T @ a)
    work = sim.copy()
    perm = np.full(rank, -1, dtype=int)
    for _ in range(rank):
        r, s = np.unravel_index(np.argmax(work), work.shape)
        perm[r] = s
        work[r, :] = -np.inf
        work[:, s] = -np.inf
    return perm


def matched_distance(point: CpdPoint, reference: CpdPoint) -> float:
    """Flat distance to the reference after greedy term matching."""
    perm = greedy_term_match(reference, point)
    s = point.structure
    permuted = s.join([a[:, perm] for a in point.factors], point.weights[perm])
    return float(np.linalg.norm(permuted - reference.flat))


def matched_relative_error(point: CpdPoint, reference: CpdPoint) -> float:
    return matched_distance(point, reference) / reference.norm()


# --- the driver ----------------------------------------------------------------


def panoc_solve(
    tensor: DenseTensor,
    x0: CpdPoint,
    cfg: SolverConfig | None = None,
    reference: CpdPoint | None = None,
) -> SolverResult:
    """Run the proximal Gauss-Newton iteration from ``x0``.

    ``x0`` is projected onto the feasible set before starting.  When
    ``reference`` is given, every trace row carries the term-matched
    distance to it.  Returns the projected point of the final state, always
    feasible, with the termination reason; raises :class:`NonFiniteError`
    (trace attached) if the objective or gradient blows up, and
    :class:`ValueError` on a NaN or inf in the data or in ``x0``.
    """
    return _solve(tensor, x0, cfg, reference, gauss_newton=True)


def pgd_solve(
    tensor: DenseTensor,
    x0: CpdPoint,
    cfg: SolverConfig | None = None,
    reference: CpdPoint | None = None,
) -> SolverResult:
    """Plain projected-gradient descent: the same driver without the
    Gauss-Newton direction, trace for trace."""
    return _solve(tensor, x0, cfg, reference, gauss_newton=False)


def _solve(tensor: DenseTensor, x0: CpdPoint, cfg: SolverConfig | None, reference: CpdPoint | None,
           gauss_newton: bool) -> SolverResult:
    if cfg is None:
        cfg = SolverConfig()
    structure = x0.structure
    if structure.dims != tensor.dims:
        raise ValueError(f"start point dims {structure.dims} do not match tensor {tensor.dims}")
    _check_finite(tensor, x0)
    fset = FeasibleSet(structure, cfg.box_bound)
    problem = CpdProblem(tensor, fset, EvalCounters(), gauss_newton)
    trace = SolverTrace(has_reference=reference is not None)

    def error_at(point):
        return None if reference is None else matched_distance(point, reference)

    try:
        # every value that decides the solve is checked, so an overflow on
        # the way there needs no numpy warning
        with np.errstate(all="ignore"):
            return _panoc_loop(problem, project(fset, x0.flat), cfg, trace, error_at)
    except FloatingPointError as exc:
        raise NonFiniteError(str(exc), trace) from exc


def _check_finite(tensor: DenseTensor, x0: CpdPoint) -> None:
    """Raise :class:`ValueError` naming the first non-finite entry of the
    data, by its multi-index, or else of the start point, before anything
    is evaluated."""
    bad = np.flatnonzero(~np.isfinite(tensor.values))
    if bad.size:
        index = _multi_index(int(bad[0]), tensor.dims)
        raise ValueError(f"tensor has a non-finite value {tensor.values[bad[0]]} at index {index}")
    bad = np.flatnonzero(~np.isfinite(x0.flat))
    if not bad.size:
        return
    s, i = x0.structure, int(bad[0])
    if i >= s.factor_dim:
        where = f"weight {i - s.factor_dim}"
    else:
        mode = max(n for n in range(s.num_modes) if s.mode_offset(n) <= i)
        column, row = divmod(i - s.mode_offset(mode), s.dims[mode])
        where = f"factor (mode {mode}, column {column}), row {row}"
    raise ValueError(f"start point has a non-finite value {x0.flat[i]} at {where}")


def _panoc_loop(problem, start: CpdPoint, cfg: SolverConfig, trace, error_at) -> SolverResult:
    counters = problem.counters
    # One evaluation of the start gives the probe its gradient there and the
    # first step state its objective and gradient.
    fx, grad = problem.value_and_gradient(start)
    lip = estimate_lipschitz(
        lambda v: problem.gradient(problem.point(v)), start.flat, grad, LIPSCHITZ_FD_STEP, cfg.seed
    )
    state = StepState(problem, start, cfg.alpha / lip, fx, grad)
    k = 0
    gh_pending = 0
    gh_total = 0

    def snapshot(st):
        """A trace row's fields fixed once ``st`` is validated: those
        before ``tau``, the γ halvings, and those after ``kind``."""
        return ((k, st.fx, st.fz, st.fbe, st.rnorm, st.gamma), gh_pending,
                (counters.fevals, counters.gevals, counters.gramian_applies, error_at(st.point)))

    def record(base, tau, th, kind):
        head, gh, tail = base
        trace.append(IterationRecord(*head, tau, gh, th, kind, *tail))

    def finish(st, base, reason):
        record(base, 0.0, 0, "term")
        return SolverResult(st.z, st.fz, reason, k, trace)

    def halve_gamma():
        """Re-evaluate the current iterate at half the stepsize; ``False``
        when the halving budget is spent."""
        nonlocal gh_pending, gh_total, state
        if gh_total >= cfg.max_gamma_halvings:
            return False
        gh_pending += 1
        gh_total += 1
        state = state.with_gamma(0.5 * state.gamma)
        return True

    while True:
        # Stepsize validation; free when the state already passed at this gamma.
        while not gamma_condition(state, cfg.alpha):
            if not halve_gamma():
                return finish(state, snapshot(state), "stagnation")

        base = snapshot(state)
        if state.rnorm**2 / state.gamma <= cfg.epsilon:
            return finish(state, base, "tolerance")
        if k >= cfg.max_iters:
            return finish(state, base, "max-iters")

        # A factor block of w with no positive part has no projection
        # Jacobian, so solve_direction raises and the step is pgd.
        direction = None
        if problem.gauss_newton:
            try:
                d, report = solve_direction(state)
                if report.converged:
                    direction = d
            except DegenerateBlockError:
                pass

        tau = 1.0 if direction is not None else 0.0
        kind = "gn" if direction is not None else "pgd"
        th = 0
        restart = False
        while True:
            if tau > 0.0:
                cand = fb_step(problem, (1.0 - tau) * state.z.flat + tau * (state.x + direction), state.gamma)
            else:  # the projected point, whose evaluation fz has made
                cand = fb_step(problem, state.z, state.gamma, state.z_evaluation)
                kind = "pgd"
            if not gamma_condition(cand, cfg.alpha):
                if not halve_gamma():
                    return finish(state, snapshot(state), "stagnation")
                restart = True
                break
            if tau > 0.0:
                bound = state.fbe - (1.0 - cfg.alpha) / (2.0 * state.gamma) * cfg.beta * state.rnorm**2
                if cand.fbe > bound:
                    if th < cfg.max_tau_halvings:
                        tau *= 0.5
                        th += 1
                    else:
                        tau = 0.0
                    continue
            break
        if restart:
            continue  # same iterate, revalidated stepsize, fresh direction

        record(base, tau, th, kind)
        gh_pending = 0
        k += 1

        # Curvature-scale floor for the next stepsize; revalidated at the top.
        if cfg.cauchy_floor:
            g = cand.grad
            gg = float(g @ g)
            if gg > 0.0:
                # One Gramian product per floor, from R-by-R products.
                counters.gramian_applies += 1
                eta = cauchy_scale(cand.point, g, gg)
                if math.isfinite(eta) and eta > cand.gamma:
                    cand = cand.with_gamma(eta)
        state = cand
