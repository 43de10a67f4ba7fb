"""Dense tensors, weighted rank-1 sum models, and their shared flat layout.

Layout conventions used everywhere in this package:

* Tensor values are stored flat with the first index fastest (column-major
  multilinear order): entry ``(i_0, ..., i_{N-1})`` sits at flat position
  ``i_0 + I_0*(i_1 + I_1*(i_2 + ...))``.
* A factorization point ``(A^(0), ..., A^(N-1), weights)`` is flattened mode
  by mode, column by column, with the R weights appended last.
* Khatri-Rao products in unfolding identities list the factor matrices in
  decreasing mode order, which is the ordering consistent with the two rules
  above.

Keeping a single canonical order lets residuals, gradients and dense
Jacobians agree entry for entry without ad-hoc transpositions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

__all__ = [
    "DenseTensor",
    "CpdStructure",
    "CpdPoint",
    "khatri_rao",
    "tensor_from_cpd",
    "unfold",
    "unfold_values",
    "refold",
    "residual_values",
    "objective_value",
    "ten_read",
    "ten_write",
]


def _as_float_vector(values, name: str) -> np.ndarray:
    out = np.asarray(values, dtype=np.float64)
    if out.ndim != 1:
        raise ValueError(f"{name} must be one-dimensional, got shape {out.shape}")
    return out


@dataclass(frozen=True, eq=False)
class DenseTensor:
    """A dense real tensor with at least two modes.

    Parameters
    ----------
    dims:
        Mode sizes ``(I_0, ..., I_{N-1})``, all positive, ``N >= 2``.
    values:
        Flat array of length ``prod(dims)`` in canonical flat order
        (first index fastest).
    """

    dims: tuple[int, ...]
    values: np.ndarray

    def __post_init__(self):
        dims = tuple(int(d) for d in self.dims)
        if len(dims) < 2:
            raise ValueError(f"need at least 2 modes, got {len(dims)}")
        if any(d < 1 for d in dims):
            raise ValueError(f"mode sizes must be positive, got {dims}")
        values = _as_float_vector(self.values, "values").copy()
        if values.size != math.prod(dims):
            raise ValueError(
                f"value count {values.size} does not match dims {dims} "
                f"(expected {math.prod(dims)})"
            )
        values.setflags(write=False)
        object.__setattr__(self, "dims", dims)
        object.__setattr__(self, "values", values)

    @property
    def num_modes(self) -> int:
        return len(self.dims)

    @property
    def size(self) -> int:
        return self.values.size

    def as_array(self) -> np.ndarray:
        """The tensor as an N-dimensional ndarray (read-only view)."""
        return self.values.reshape(self.dims, order="F")

    @classmethod
    def from_array(cls, arr) -> "DenseTensor":
        arr = np.asarray(arr, dtype=np.float64)
        if arr.ndim < 2:
            raise ValueError(f"need at least 2 modes, got {arr.ndim}")
        return cls(tuple(arr.shape), arr.flatten(order="F"))

    def norm(self) -> float:
        return float(np.linalg.norm(self.values))


@dataclass(frozen=True)
class CpdStructure:
    """Shape bookkeeping for a factorization point: mode sizes and rank.

    ``factor_dim`` is the total number of factor entries ``R * sum(dims)``;
    the flat point length is ``factor_dim + rank`` (weights last).
    """

    dims: tuple[int, ...]
    rank: int

    def __post_init__(self):
        dims = tuple(int(d) for d in self.dims)
        if len(dims) < 2 or any(d < 1 for d in dims):
            raise ValueError(f"invalid mode sizes {dims}")
        if int(self.rank) < 1:
            raise ValueError(f"rank must be positive, got {self.rank}")
        object.__setattr__(self, "dims", dims)
        object.__setattr__(self, "rank", int(self.rank))

    @property
    def num_modes(self) -> int:
        return len(self.dims)

    @cached_property
    def factor_dim(self) -> int:
        return self.rank * sum(self.dims)

    @cached_property
    def size(self) -> int:
        return self.factor_dim + self.rank

    @cached_property
    def _offsets(self) -> tuple[int, ...]:
        return tuple(self.rank * sum(self.dims[:n]) for n in range(self.num_modes))

    def mode_offset(self, mode: int) -> int:
        if not 0 <= mode < self.num_modes:
            raise ValueError(f"mode {mode} out of range for {self.num_modes} modes")
        return self._offsets[mode]

    def block_slice(self, mode: int, column: int) -> slice:
        """Flat slice of factor column ``column`` of mode ``mode``."""
        if not 0 <= column < self.rank:
            raise ValueError(f"column {column} out of range for rank {self.rank}")
        start = self.mode_offset(mode) + column * self.dims[mode]
        return slice(start, start + self.dims[mode])

    @cached_property
    def weight_slice(self) -> slice:
        return slice(self.factor_dim, self.size)

    @cached_property
    def mode_groups(self) -> tuple[tuple[slice, slice, int], ...]:
        """Runs of consecutive modes of equal size, as ``(flat slice, mode
        slice, mode size)``.  The factor blocks of a run of ``k`` modes are
        contiguous and reshape to one ``(k, R, size)`` array, one row per
        factor column, so per-mode work can be done once per run."""
        groups = []
        first = 0
        for n in range(1, self.num_modes + 1):
            if n == self.num_modes or self.dims[n] != self.dims[first]:
                start = self.mode_offset(first)
                stop = start + (n - first) * self.rank * self.dims[first]
                groups.append((slice(start, stop), slice(first, n), self.dims[first]))
                first = n
        return tuple(groups)

    def split(self, x: np.ndarray) -> tuple[list[np.ndarray], np.ndarray]:
        """Split a flat vector into per-mode factor matrices and weights.

        The returned matrices are views when ``x`` is contiguous.
        """
        x = np.asarray(x, dtype=np.float64)
        if x.shape != (self.size,):
            raise ValueError(f"expected flat length {self.size}, got {x.shape}")
        rank = self.rank
        factors = [
            x[off : off + rank * dim].reshape((dim, rank), order="F")
            for off, dim in zip(self._offsets, self.dims)
        ]
        return factors, x[self.weight_slice]

    def join(self, factors, weights) -> np.ndarray:
        parts = [np.asarray(a, dtype=np.float64).flatten(order="F") for a in factors]
        parts.append(_as_float_vector(weights, "weights"))
        out = np.concatenate(parts)
        if out.size != self.size:
            raise ValueError(f"joined length {out.size} does not match {self.size}")
        return out


class CpdPoint:
    """A weighted rank-R factorization point: factor matrices plus weights.

    Parameters
    ----------
    factors:
        List of N matrices, one per mode, each of shape ``(I_n, R)``.
    weights:
        Length-R weight vector.
    degenerate:
        Event flag set by the feasible-set projection when some factor block
        collapsed to the degenerate case; carried along for diagnostics.

    Instances are value objects: the stored arrays are copies and marked
    read-only.  No feasibility is implied; mid-iteration points are generally
    infeasible.
    """

    def __init__(self, factors, weights, degenerate: bool = False):
        factors = [np.array(a, dtype=np.float64) for a in factors]
        weights = np.array(weights, dtype=np.float64)
        if len(factors) < 2:
            raise ValueError(f"need at least 2 factor matrices, got {len(factors)}")
        if weights.ndim != 1 or weights.size < 1:
            raise ValueError(f"weights must be a nonempty vector, got shape {weights.shape}")
        rank = weights.size
        for n, a in enumerate(factors):
            if a.ndim != 2 or a.shape[1] != rank:
                raise ValueError(
                    f"factor {n} has shape {a.shape}, expected (I_{n}, {rank})"
                )
        self._own(factors, weights, degenerate)

    def _own(self, factors: list[np.ndarray], weights: np.ndarray, degenerate: bool) -> None:
        """Store arrays this point alone holds, marked read-only."""
        for a in factors:
            a.setflags(write=False)
        weights.setflags(write=False)
        self.factors = factors
        self.weights = weights
        self.degenerate = bool(degenerate)

    @cached_property
    def structure(self) -> CpdStructure:
        return CpdStructure(tuple(a.shape[0] for a in self.factors), self.weights.size)

    @cached_property
    def flat(self) -> np.ndarray:
        out = self.structure.join(self.factors, self.weights)
        out.setflags(write=False)
        return out

    @classmethod
    def from_flat(cls, structure: CpdStructure, x, degenerate: bool = False) -> "CpdPoint":
        """The point whose flat layout is ``x``.  ``flat`` is a read-only
        copy of ``x``, the weights a view of it, and each factor block is
        copied once, to a row-major matrix; the shapes are valid by
        construction, so the checks of ``__init__`` are skipped."""
        flat = np.array(x, dtype=np.float64)
        factors, weights = structure.split(flat)
        flat.setflags(write=False)
        point = cls.__new__(cls)
        point._own([a.copy() for a in factors], weights, degenerate)
        point.structure = structure
        point.flat = flat
        return point

    def norm(self) -> float:
        return float(np.linalg.norm(self.flat))


def khatri_rao(matrices) -> np.ndarray:
    """Column-wise Kronecker product of the given matrices, in order.

    Column ``r`` of the result is the Kronecker product of the ``r``-th
    columns, with the first matrix's index varying slowest (the last
    matrix's index is fastest, matching ``np.kron`` on the columns).
    """
    mats = [np.asarray(m, dtype=np.float64) for m in matrices]
    if not mats:
        raise ValueError("need at least one matrix")
    for m in mats:
        if m.ndim != 2:
            raise ValueError(f"matrices must be 2-D, got shape {m.shape}")
    cols = mats[0].shape[1]
    if any(m.shape[1] != cols for m in mats):
        raise ValueError("all matrices must have the same number of columns")
    out = mats[0]
    for m in mats[1:]:
        out = (out[:, None, :] * m[None, :, :]).reshape(-1, cols)
    return out


def tensor_from_cpd(point: CpdPoint, dims=None) -> DenseTensor:
    """Evaluate the weighted rank-1 sum model at ``point`` as a dense tensor."""
    structure = point.structure
    if dims is not None and tuple(int(d) for d in dims) != structure.dims:
        raise ValueError(f"point dims {structure.dims} do not match requested {tuple(dims)}")
    factors = point.factors
    n_modes = structure.num_modes
    # Mode-0 unfolding of the model, then canonical column-major flatten.
    kr = khatri_rao([factors[m] for m in range(n_modes - 1, 0, -1)])
    mat = factors[0] @ (point.weights[:, None] * kr.T)
    return DenseTensor(structure.dims, mat.flatten(order="F"))


def unfold(tensor: DenseTensor, mode: int) -> np.ndarray:
    """Mode-``mode`` unfolding: rows indexed by the mode, remaining indices
    enumerated with smaller modes varying fastest.

    Satisfies ``unfold(tensor_from_cpd(x), n) == A_n @ diag(w) @ K.T`` where
    ``K`` is the Khatri-Rao product of the other factor matrices in
    decreasing mode order.
    """
    if not 0 <= mode < tensor.num_modes:
        raise ValueError(f"mode {mode} out of range for {tensor.num_modes} modes")
    return unfold_values(tensor.values, tensor.dims, mode)


def unfold_values(values: np.ndarray, dims: tuple[int, ...], mode: int) -> np.ndarray:
    """:func:`unfold` of the flat canonical-order ``values`` of a tensor of
    shape ``dims``, unchecked.  A view of ``values`` when numpy can make
    one, which it always can for modes 0 and N-1."""
    arr = values.reshape(dims, order="F")
    return np.reshape(np.moveaxis(arr, mode, 0), (dims[mode], -1), order="F")


def refold(matrix, dims, mode: int) -> DenseTensor:
    """Inverse of :func:`unfold` for the given ``dims`` and ``mode``."""
    dims = tuple(int(d) for d in dims)
    if not 0 <= mode < len(dims):
        raise ValueError(f"mode {mode} out of range for {len(dims)} modes")
    matrix = np.asarray(matrix, dtype=np.float64)
    moved = dims[mode : mode + 1] + dims[:mode] + dims[mode + 1 :]
    arr = np.moveaxis(matrix.reshape(moved, order="F"), 0, mode)
    return DenseTensor.from_array(arr)


def residual_values(point: CpdPoint, tensor: DenseTensor, kr: np.ndarray | None = None) -> np.ndarray:
    """Flat residual (model minus data) in canonical flat order.

    ``kr`` is the Khatri-Rao product of the factors of modes ``N-1, ..., 1``
    when the caller has it already.  The model's mode-0 unfolding is formed
    by the matrix product of :func:`tensor_from_cpd`, written straight into
    the flat result, from which the data is then subtracted in place, so the
    values equal ``tensor_from_cpd(point).values - tensor.values`` bit for
    bit.
    """
    if point.structure.dims != tensor.dims:
        raise ValueError(f"point dims {point.structure.dims} do not match tensor {tensor.dims}")
    if kr is None:
        kr = khatri_rao(point.factors[:0:-1])
    res = np.empty(tensor.size)
    # res.reshape(-1, I_0).T is the mode-0 unfolding of the flat result
    np.matmul(point.factors[0], point.weights[:, None] * kr.T, out=res.reshape(-1, tensor.dims[0]).T)
    np.subtract(res, tensor.values, out=res)
    return res


def objective_value(point: CpdPoint, tensor: DenseTensor) -> float:
    """Half squared residual norm ``0.5 * ||model - data||^2``."""
    res = residual_values(point, tensor)
    return 0.5 * float(res @ res)


# --- plain-text tensor file format ------------------------------------------
#
# Line 1: number of modes N.  Line 2: the N mode sizes.  Then prod(dims)
# values, whitespace separated, in canonical flat order.  Values are written
# with 17 significant digits so float64 round-trips exactly.


def _format_float(v: float) -> str:
    return format(float(v), ".17g")


def ten_write(path, tensor: DenseTensor) -> None:
    with open(path, "w", encoding="ascii") as fh:
        fh.write(f"{tensor.num_modes}\n")
        fh.write(" ".join(str(d) for d in tensor.dims) + "\n")
        for v in tensor.values:
            fh.write(_format_float(v) + "\n")


def ten_read(path) -> DenseTensor:
    """Read a tensor file.  Raises :class:`ValueError`, naming the file, on
    a malformed header, a wrong value count, or a value that is malformed
    or not finite."""
    with open(path, "rb") as fh:
        tokens = fh.read().split()
    if not tokens:
        raise ValueError(f"{path}: empty tensor file")
    try:
        n_modes = int(tokens[0])
    except ValueError:
        raise ValueError(f"{path}: first token must be the number of modes") from None
    if n_modes < 2:
        raise ValueError(f"{path}: need at least 2 modes, got {n_modes}")
    if len(tokens) < 1 + n_modes:
        raise ValueError(f"{path}: truncated header")
    try:
        dims = tuple(int(t) for t in tokens[1 : 1 + n_modes])
    except ValueError:
        raise ValueError(f"{path}: malformed mode sizes") from None
    body = tokens[1 + n_modes :]
    expected = math.prod(dims)
    if len(body) != expected:
        raise ValueError(f"{path}: expected {expected} values, found {len(body)}")
    try:
        values = np.array(body, dtype=np.float64)
    except ValueError:
        raise ValueError(f"{path}: malformed value") from None
    if not np.isfinite(values).all():
        raise ValueError(f"{path}: non-finite value (nan or inf)")
    return DenseTensor(dims, values)
