"""Feasible set for the constrained factorization and its projection map.

The set constrains every factor column to the intersection of the
nonnegative orthant and the unit sphere, and the weights to the nonnegative
orthant (optionally capped by a box bound).  The projection is separable
over factor columns and weight entries, so its generalized Jacobian is block
diagonal and cheap to apply.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .tensors import CpdPoint, CpdStructure

__all__ = [
    "FeasibleSet",
    "FeasibilityReport",
    "DegenerateBlockError",
    "project",
    "proj_jacobian",
    "ProjJacobianElement",
    "is_feasible",
]


class DegenerateBlockError(ValueError):
    """A factor block has no positive part, so no projection Jacobian exists."""


@dataclass(frozen=True)
class FeasibleSet:
    """Unit-norm nonnegative factor columns, nonnegative (boxed) weights.

    Parameters
    ----------
    structure:
        Mode sizes and rank of the points the set constrains.
    box_bound:
        Optional upper bound M on every weight; ``None`` leaves weights
        unbounded above.
    tol:
        Default feasibility tolerance.
    """

    structure: CpdStructure
    box_bound: float | None = None
    tol: float = 1e-10

    def __post_init__(self):
        if self.box_bound is not None and not self.box_bound > 0:
            raise ValueError(f"box bound must be positive, got {self.box_bound}")
        if not self.tol >= 0:
            raise ValueError(f"tolerance must be nonnegative, got {self.tol}")


def project(fset: FeasibleSet, w) -> CpdPoint:
    """Euclidean projection onto the feasible set.

    Each factor column is clipped to the orthant and renormalized; weights
    are clipped to ``[0, M]``.  A factor column whose positive part vanishes
    has no unique nearest point on the sphere patch; the uniform unit vector
    is returned for it and the result's ``degenerate`` flag is set.
    """
    if isinstance(w, CpdPoint):
        w = w.flat
    factors_in, weights_in = fset.structure.split(w)
    degenerate = False
    factors = []
    for block in factors_in:
        pos = np.maximum(block, 0.0)
        norms = np.linalg.norm(pos, axis=0)
        empty = norms == 0.0
        out = np.divide(pos, norms, out=np.empty_like(pos), where=~empty)
        if empty.any():
            degenerate = True
            out[:, empty] = 1.0 / np.sqrt(pos.shape[0])
        factors.append(out)
    weights = np.maximum(weights_in, 0.0)
    if fset.box_bound is not None:
        weights = np.minimum(weights, fset.box_bound)
    return CpdPoint(factors, weights, degenerate=degenerate)


class ProjJacobianElement:
    """One generalized Jacobian element of the projection, at a given input.

    Block diagonal: per factor column the sphere-projection Jacobian at the
    clipped block chained with the orthant clamp pattern, and per weight a
    clamp derivative in ``[0, 1]``.  Symmetric, with operator norm at most
    ``max(1, 1/min_block ||clipped block||)``.

    The blocks are stored stacked, one row per factor column, per run of
    equal-size modes (:attr:`CpdStructure.mode_groups`), so an apply costs
    O(R sum(dims)) in one vectorized pass per run: a single pass when all
    modes have the same size.
    """

    def __init__(self, structure: CpdStructure, groups, weight_diag):
        self.structure = structure
        # per mode run: flat slice, unit directions and orthant clamp
        # pattern (one row per factor column), 1 / ||positive part|| (a column)
        self._groups = groups
        self.weight_diag = np.asarray(weight_diag, dtype=np.float64)

    @property
    def size(self) -> int:
        return self.structure.size

    def apply(self, v) -> np.ndarray:
        v = np.asarray(v, dtype=np.float64)
        if v.shape != (self.size,):
            raise ValueError(f"expected flat length {self.size}, got {v.shape}")
        out = np.empty_like(v)
        for sl, z, clamp, inv_norms in self._groups:
            u = clamp * v[sl].reshape(clamp.shape)
            # z @ u per row, stacked; rounds exactly as the 1-D dot does
            zu = np.matmul(z[:, None, :], u[:, :, None])[:, :, 0]
            np.multiply(u - z * zu, inv_norms, out=out[sl].reshape(clamp.shape))
        ws = self.structure.weight_slice
        np.multiply(self.weight_diag, v[ws], out=out[ws])
        return out


def proj_jacobian(fset: FeasibleSet, w, convention: int = 0) -> ProjJacobianElement:
    """A generalized Jacobian element of :func:`project` at ``w``.

    ``convention`` selects the clamp derivative used at exact zeros of the
    input (and at exact box-bound ties): 0 or 1, both valid choices.  Raises
    :class:`DegenerateBlockError` when a factor block has no positive part.
    """
    if convention not in (0, 1):
        raise ValueError(f"convention must be 0 or 1, got {convention}")
    conv = float(convention)
    s = fset.structure
    w = np.asarray(w, dtype=np.float64)
    if w.shape != (s.size,):
        raise ValueError(f"expected flat length {s.size}, got {w.shape}")
    groups = []
    for sl, modes, dim in s.mode_groups:
        block = w[sl].reshape(-1, dim)  # one row per factor column
        pos = np.maximum(block, 0.0)
        norms = np.linalg.norm(pos, axis=1)
        empty = np.flatnonzero(norms == 0.0)
        if empty.size:
            mode, column = divmod(int(empty[0]), s.rank)
            raise DegenerateBlockError(
                f"factor block (mode {modes.start + mode}, column {column}) has no positive part"
            )
        clamp = np.where(block > 0.0, 1.0, np.where(block < 0.0, 0.0, conv))
        groups.append((sl, pos / norms[:, None], clamp, (1.0 / norms)[:, None]))
    weights_in = w[s.weight_slice]
    wd = np.where(weights_in > 0.0, 1.0, np.where(weights_in < 0.0, 0.0, conv))
    if fset.box_bound is not None:
        m = fset.box_bound
        wd = np.where(weights_in > m, 0.0, np.where(weights_in < m, wd, conv))
    return ProjJacobianElement(s, groups, wd)


@dataclass(frozen=True)
class FeasibilityReport:
    ok: bool
    violations: tuple[str, ...]

    def __bool__(self) -> bool:
        return self.ok


def is_feasible(fset: FeasibleSet, point: CpdPoint, tol: float | None = None) -> FeasibilityReport:
    """Check feasibility within ``tol``; the report names each violation.

    Mode and column indices in the report are 0-based.
    """
    if tol is None:
        tol = fset.tol
    if point.structure != fset.structure:
        raise ValueError(
            f"point structure {point.structure} does not match set {fset.structure}"
        )
    violations = []
    for n, a in enumerate(point.factors):
        for r in range(a.shape[1]):
            col = a[:, r]
            neg = float(-min(col.min(), 0.0))
            if neg > tol:
                violations.append(
                    f"factor (mode {n}, column {r}): entry below 0 by {neg:.3e}"
                )
            norm_err = abs(float(np.linalg.norm(col)) - 1.0)
            if norm_err > tol:
                violations.append(
                    f"factor (mode {n}, column {r}): norm off unit by {norm_err:.3e}"
                )
    for r, lam in enumerate(point.weights):
        if lam < -tol:
            violations.append(f"weight {r}: negative by {-lam:.3e}")
        if fset.box_bound is not None and lam > fset.box_bound + tol:
            violations.append(
                f"weight {r}: exceeds bound {fset.box_bound} by {lam - fset.box_bound:.3e}"
            )
    return FeasibilityReport(not violations, tuple(violations))
