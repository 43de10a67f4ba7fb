"""Self-contained diagnostic checks behind the ``check`` CLI command.

Each check compares an optimized code path against an independent slow one
(finite differences, dense assembly) on small random instances and reports
the measured error against a fixed threshold.  ``scale="tiny"`` keeps counts
small for a quick smoke run; ``scale="full"`` uses acceptance-level counts.

``gradient_fn`` exists as a fault-injection hook for the test suite: passing
a wrong gradient must make the derivative checks fail.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .calculus import GramianOperator, explicit_jacobian, gradient, kernel_basis
from .constraints import FeasibleSet, proj_jacobian, project
from .forward_backward import CpdProblem, fb_step, jhat_operator
from .rng import substream
from .solver import gamma_condition
from .tensors import CpdPoint, CpdStructure, DenseTensor, objective_value, residual_values, tensor_from_cpd

__all__ = ["CheckResult", "run_checks"]

_CHECK_STREAM = 90


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    measured: float
    threshold: float


def _random_point(structure: CpdStructure, rng) -> CpdPoint:
    factors = [rng.uniform(0.1, 1.0, size=(d, structure.rank)) for d in structure.dims]
    weights = rng.uniform(0.5, 2.0, size=structure.rank)
    return CpdPoint(factors, weights)


def _random_feasible(structure: CpdStructure, rng) -> CpdPoint:
    flat = rng.uniform(size=structure.size)
    return project(FeasibleSet(structure), flat)


def _random_tensor(structure: CpdStructure, rng) -> DenseTensor:
    return tensor_from_cpd(_random_point(structure, rng))


def _fd_gradient(point: CpdPoint, tensor: DenseTensor, step: float = 1e-6) -> np.ndarray:
    s = point.structure
    x = point.flat
    out = np.empty(s.size)
    for i in range(s.size):
        h = step * (1.0 + abs(x[i]))
        xp = x.copy()
        xm = x.copy()
        xp[i] += h
        xm[i] -= h
        fp = objective_value(CpdPoint.from_flat(s, xp), tensor)
        fm = objective_value(CpdPoint.from_flat(s, xm), tensor)
        out[i] = (fp - fm) / (2.0 * h)
    return out


def _relative_gap(got: np.ndarray, want: np.ndarray) -> float:
    return float(np.linalg.norm(got - want)) / max(float(np.linalg.norm(want)), 1.0)


def run_checks(scale: str = "tiny", seed: int = 0, gradient_fn=None) -> list[CheckResult]:
    if scale not in ("tiny", "full"):
        raise ValueError(f"scale must be 'tiny' or 'full', got {scale}")
    if gradient_fn is None:
        gradient_fn = gradient
    full = scale == "full"
    n_small = 20 if full else 5
    n_kernel = 100 if full else 10
    n_env = 1000 if full else 50
    results = []

    structure = CpdStructure((4, 3, 2), 2)

    # Gradient against central finite differences of the objective.
    rng = substream(seed, _CHECK_STREAM, 0)
    worst = 0.0
    for _ in range(n_small):
        tensor = _random_tensor(structure, rng)
        point = _random_feasible(structure, rng)
        g = gradient_fn(point, tensor)
        g_fd = _fd_gradient(point, tensor)
        worst = max(worst, np.max(np.abs(g - g_fd)) / max(np.max(np.abs(g_fd)), 1.0))
    results.append(CheckResult("gradient-vs-finite-differences", worst <= 1e-5, worst, 1e-5))

    # Gradient against the dense Jacobian route.
    rng = substream(seed, _CHECK_STREAM, 1)
    worst = 0.0
    for _ in range(n_small):
        tensor = _random_tensor(structure, rng)
        point = _random_feasible(structure, rng)
        g = gradient_fn(point, tensor)
        g_dense = explicit_jacobian(point).T @ residual_values(point, tensor)
        worst = max(worst, np.linalg.norm(g - g_dense) / max(np.linalg.norm(g_dense), 1.0))
    results.append(CheckResult("gradient-vs-dense-jacobian", worst <= 1e-12, worst, 1e-12))

    # The Gramian the direction solve assembles against the dense Jacobian's.
    rng = substream(seed, _CHECK_STREAM, 2)
    worst = 0.0
    for _ in range(n_small):
        point = _random_point(structure, rng)
        jac = explicit_jacobian(point)
        worst = max(worst, _relative_gap(GramianOperator(point).dense(), jac.T @ jac))
    results.append(CheckResult("gramian-vs-dense-jacobian", worst <= 1e-12, worst, 1e-12))

    # Structural kernel: exact rank deficiency and annihilation by the Jacobian.
    rng = substream(seed, _CHECK_STREAM, 3)
    worst = 0.0
    split_ok = True
    for i in range(n_kernel):
        dims = tuple(rng.integers(3, 6, size=3))
        rank = int(rng.integers(1, 4))
        st = CpdStructure(dims, rank)
        point = _random_point(st, rng)
        jac = explicit_jacobian(point)
        basis = kernel_basis(point)
        worst = max(
            worst,
            np.linalg.norm(jac @ basis.matrix)
            / (np.linalg.norm(jac) * np.linalg.norm(basis.matrix)),
        )
        svals = np.linalg.svd(jac.T @ jac, compute_uv=False)
        n_zero = int(np.count_nonzero(svals < 1e-10 * svals[0]))
        split_ok = split_ok and n_zero == st.num_modes * rank
    results.append(CheckResult("kernel-annihilation", worst <= 1e-10, worst, 1e-10))
    results.append(CheckResult("kernel-rank-split", split_ok, 0.0 if split_ok else 1.0, 0.5))

    # Projection Jacobian against directional finite differences, away from kinks.
    rng = substream(seed, _CHECK_STREAM, 4)
    fset = FeasibleSet(structure)
    worst = 0.0
    h = 1e-6
    for _ in range(n_small):
        w = rng.standard_normal(structure.size)
        w = np.where(np.abs(w) < 1e-3, np.sign(w) * 1e-3 + (w == 0.0) * 1e-3, w)
        factors, _ = structure.split(w)
        if not all(np.all(np.any(a > 0.0, axis=0)) for a in factors):
            continue
        el = proj_jacobian(fset, w)
        v = rng.standard_normal(structure.size)
        v /= np.linalg.norm(v)
        fd = (project(fset, w + h * v).flat - project(fset, w - h * v).flat) / (2.0 * h)
        worst = max(worst, np.linalg.norm(el.apply_columns(v[:, None])[:, 0] - fd))
    results.append(CheckResult("projection-jacobian-vs-fd", worst <= 1e-5, worst, 1e-5))

    # Envelope never exceeds the objective on feasible points, and the
    # stepsize validation test is the inequality it claims to be.
    rng = substream(seed, _CHECK_STREAM, 5)
    worst = -np.inf
    consistent = True
    for _ in range(n_env):
        tensor = _random_tensor(structure, rng)
        point = _random_feasible(structure, rng)
        gamma = float(10.0 ** rng.uniform(-6, 0))
        problem = CpdProblem(tensor, fset)
        state = fb_step(problem, point.flat, gamma)
        worst = max(worst, state.fbe - state.fx)
        if gamma_condition(state, 0.95):
            margin = (1.0 - 0.95) / (2.0 * gamma) * state.rnorm**2
            consistent = consistent and state.fz <= state.fbe - margin + 1e-12
    results.append(CheckResult("envelope-below-objective", worst <= 1e-12, worst, 1e-12))
    results.append(CheckResult("stepsize-test-consistency", consistent, 0.0 if consistent else 1.0, 0.5))

    # The surrogate matrix the direction solve takes against I - P (I - gamma
    # J^T J), with P the projection Jacobian's blocks applied to I.
    rng = substream(seed, _CHECK_STREAM, 6)
    worst = 0.0
    eye = np.eye(structure.size)
    for _ in range(n_small):
        tensor = _random_tensor(structure, rng)
        point = _random_feasible(structure, rng)
        state = fb_step(CpdProblem(tensor, fset), point.flat, 0.01)
        op = jhat_operator(state)
        jac = explicit_jacobian(state.point)
        p_dense = op.proj_el.apply_columns(eye)
        worst = max(worst, _relative_gap(op.matrix(), eye - p_dense @ (eye - state.gamma * (jac.T @ jac))))
    results.append(CheckResult("surrogate-vs-dense", worst <= 1e-12, worst, 1e-12))

    # At a strictly positive planted solution the surrogate is nonsingular
    # even though the Gramian has a structural null space.
    rng = substream(seed, _CHECK_STREAM, 7)
    sigma_min = np.inf
    for _ in range(3 if full else 1):
        factors = [rng.uniform(0.1, 1.0, size=(d, structure.rank)) for d in structure.dims]
        norms = [np.linalg.norm(a, axis=0) for a in factors]
        weights = np.ones(structure.rank)
        for nrm in norms:
            weights = weights * nrm
        planted = CpdPoint([a / n[None, :] for a, n in zip(factors, norms)], weights)
        tensor = tensor_from_cpd(planted)
        problem = CpdProblem(tensor, fset)
        state = fb_step(problem, planted.flat, 0.01)
        sigma_min = min(sigma_min, float(np.linalg.svd(jhat_operator(state).matrix(), compute_uv=False)[-1]))
    results.append(CheckResult("surrogate-nonsingular-at-solution", sigma_min > 1e-8, sigma_min, 1e-8))

    return results
