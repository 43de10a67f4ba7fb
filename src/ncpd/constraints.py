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

from .tensors import CpdPoint, CpdStructure, _identity, as_real

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
    """

    structure: CpdStructure
    box_bound: float | None = None

    def __post_init__(self):
        if self.box_bound is not None and not as_real(self.box_bound, "box bound") > 0:
            raise ValueError(f"box bound must be positive, got {self.box_bound}")


def project(fset: FeasibleSet, w) -> CpdPoint:
    """Euclidean projection onto the feasible set.

    Each factor column is clipped to the orthant and renormalized; weights
    are clipped to ``[0, M]``.  A factor column whose positive part vanishes
    has no unique nearest point on the sphere patch; the uniform unit vector
    is returned for it, and :func:`proj_jacobian` raises at the same ``w``.
    A column whose squares overflow or underflow is normalized all the same
    (:func:`_unit_rows`).

    ``w`` is a flat vector of the set's structure.  The projection is
    computed per run of equal-size modes (:attr:`CpdStructure.mode_groups`)
    straight into one flat vector, which :meth:`CpdPoint.from_flat` takes
    over without a copy; its factors are the row-major copies on which the
    solver evaluates.
    """
    s = fset.structure
    w = np.asarray(w, dtype=np.float64)
    if w.shape != (s.size,):
        raise ValueError(f"expected flat length {s.size}, got {w.shape}")
    out = np.empty(s.size)
    for sl, _, dim in s.mode_groups:  # one row per factor column
        _unit_rows(np.maximum(w[sl].reshape(-1, dim), 0.0), out[sl].reshape(-1, dim))
    ws = s.weight_slice
    np.maximum(w[ws], 0.0, out=out[ws])
    if fset.box_bound is not None:
        np.minimum(out[ws], fset.box_bound, out=out[ws])
    return CpdPoint.from_flat(s, out, owned=True)


@np.errstate(all="ignore")
def _unit_rows(pos: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Write each row of the nonnegative matrix ``pos`` divided by its
    Euclidean norm into ``out``, and return the norms; a row of zeros, of
    norm 0, comes out as the uniform unit vector.  A norm is summed as
    ``np.linalg.norm`` sums a contiguous column.  A row whose sum of
    squares overflows to ``inf``, or underflows to 0 while an entry is
    positive, is divided by its largest entry first, without a numpy
    warning, so that its direction and norm come out right; every other
    row keeps those exact bits."""
    norms = np.sqrt(np.add.reduce(pos * pos, axis=1))
    np.divide(pos, norms[:, None], out=out)
    # a norm of 0 or inf makes the product 0, inf or NaN; one that under- or overflows alone repairs no row
    if not 0.0 < np.multiply.reduce(norms) < np.inf:
        lost = np.flatnonzero((norms == 0.0) | (norms == np.inf))
        peak = pos[lost].max(axis=1)
        out[lost[peak == 0.0]] = 1.0 / np.sqrt(pos.shape[1])
        finite = (peak > 0.0) & (peak < np.inf)
        lost, peak = lost[finite], peak[finite, None]
        scaled = pos[lost] / peak
        scaled_norms = np.linalg.norm(scaled, axis=1)
        out[lost] = scaled / scaled_norms[:, None]
        norms[lost] = peak[:, 0] * scaled_norms
    return norms


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

    def apply_columns(self, mat: np.ndarray) -> np.ndarray:
        """The element applied to every column of a C-contiguous ``(size,
        k)`` matrix: per run of equal-size modes, one stacked matrix product
        with the dense block ``(diag(clamp) - z z^T) / ||positive part||``
        of each factor column.  That block equals :meth:`apply`'s, since
        ``z`` vanishes wherever the clamp is not 1."""
        out = np.empty_like(mat)
        for sl, z, clamp, inv_norms in self._groups:
            columns, dim = clamp.shape
            blocks = clamp[:, :, None] * _identity(dim) - z[:, :, None] * z[:, None, :]
            blocks *= inv_norms[:, :, None]
            np.matmul(blocks, mat[sl].reshape(columns, dim, -1), out=out[sl].reshape(columns, dim, -1))
        ws = self.structure.weight_slice
        np.multiply(self.weight_diag[:, None], mat[ws], out=out[ws])
        return out


def proj_jacobian(fset: FeasibleSet, w) -> ProjJacobianElement:
    """A generalized Jacobian element of :func:`project` at ``w``.

    The clamp derivative is 0 at an exact zero of the input and at an
    exact box-bound tie: any value in [0, 1] there gives an element of the
    generalized Jacobian, and with it the local Q-quadratic rate.  Raises
    :class:`DegenerateBlockError` when a factor block has no positive part.
    """
    s = fset.structure
    w = np.asarray(w, dtype=np.float64)
    if w.shape != (s.size,):
        raise ValueError(f"expected flat length {s.size}, got {w.shape}")
    groups = []
    for sl, modes, dim in s.mode_groups:
        block = w[sl].reshape(-1, dim)  # one row per factor column
        units = np.empty_like(block)
        norms = _unit_rows(np.maximum(block, 0.0), units)
        if not norms.all():
            mode, column = divmod(int(np.flatnonzero(norms == 0.0)[0]), s.rank)
            raise DegenerateBlockError(
                f"factor block (mode {modes.start + mode}, column {column}) has no positive part"
            )
        groups.append((sl, units, (block > 0.0).astype(np.float64), (1.0 / norms)[:, None]))
    weights_in = w[s.weight_slice]
    inside = weights_in > 0.0
    if fset.box_bound is not None:
        inside &= weights_in < fset.box_bound
    return ProjJacobianElement(s, groups, inside.astype(np.float64))


@dataclass(frozen=True)
class FeasibilityReport:
    ok: bool
    violations: tuple[str, ...]

    def __bool__(self) -> bool:
        return self.ok


def is_feasible(fset: FeasibleSet, point: CpdPoint, tol: float = 1e-10) -> FeasibilityReport:
    """Check feasibility within ``tol``; the report names each violation.

    Mode and column indices in the report are 0-based.
    """
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
