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

import functools
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
    "unfold_values",
    "value_and_residual",
    "residual_values",
    "objective_value",
    "mttkrps",
    "format_float",
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
        return self._views(x)

    def _views(self, x: np.ndarray) -> tuple[list[np.ndarray], np.ndarray]:
        """:meth:`split` of a float64 vector of the right length, unchecked."""
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
    def from_flat(cls, structure: CpdStructure, x, degenerate: bool = False, owned: bool = False) -> "CpdPoint":
        """The point whose flat layout is ``x``.  ``flat`` is a read-only
        copy of ``x``, the weights a view of it, and each factor block is
        copied once, to a row-major matrix; the shapes are valid by
        construction, so the checks of ``__init__`` are skipped.  An
        ``owned`` ``x``, a float64 vector of the right length that the caller
        has just made and hands over, becomes ``flat`` itself, unchecked."""
        flat = x if owned else np.array(x, dtype=np.float64)
        factors, weights = structure._views(flat) if owned else structure.split(flat)
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
    return _khatri_rao(mats)


def _khatri_rao(mats) -> np.ndarray:
    """:func:`khatri_rao` of a nonempty sequence of float64 matrices with
    equal column counts, unchecked, for the evaluation core."""
    out = mats[0]
    for m in mats[1:]:
        out = (out[:, None, :] * m[None, :, :]).reshape(-1, out.shape[1])
    return out


@functools.cache
def _axis_order(ndim: int, source: int, destination: int) -> tuple[int, ...]:
    """The axis order of ``np.moveaxis(a, source, destination)`` for an
    ``a`` of ``ndim`` axes, checked once per argument triple, so that the
    evaluation core pays for one ``a.transpose`` only."""
    for axis in (source, destination):
        if not -ndim <= axis < ndim:
            raise np.exceptions.AxisError(axis, ndim)
    source, destination = source % ndim, destination % ndim
    order = [n for n in range(ndim) if n != source]
    order.insert(destination, source)
    return tuple(order)


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


def unfold_values(values: np.ndarray, dims: tuple[int, ...], mode: int) -> np.ndarray:
    """Mode-``mode`` unfolding of the flat canonical-order ``values`` of a
    tensor of shape ``dims``, unchecked: rows indexed by the mode, remaining
    indices enumerated with smaller modes varying fastest.  A view of
    ``values`` when numpy can make one, which it always can for modes 0 and
    N-1.

    The unfolding of a model is ``A_n @ diag(w) @ K.T``, with ``K`` the
    Khatri-Rao product of the other factor matrices in decreasing mode
    order.
    """
    arr = values.reshape(dims, order="F").transpose(_axis_order(len(dims), mode, 0))
    return np.reshape(arr, (dims[mode], -1), order="F")


# Bytes of data per block of the evaluation of four or more modes, small
# enough that a block's residual stays in cache between its five uses.
_BLOCK_BYTES = 256 * 1024


def value_and_residual(point: CpdPoint, tensor: DenseTensor) -> tuple[float, tuple[np.ndarray, np.ndarray]]:
    """Half squared residual norm, and the two arrays that :func:`mttkrps`
    needs besides the point.

    For ``N <= 3`` these are the flat residual (model minus data) and the
    Khatri-Rao product of the factors of modes ``N-1, ..., 1``.  The model
    is the mode-0 unfolding of :func:`tensor_from_cpd`, written straight
    into the flat result, so the residual equals :func:`residual_values`
    bit for bit.  For ``N >= 4`` the modes split into a left half
    ``0, ..., h-1`` and a right half ``h, ..., N-1``, ``h = N // 2`` (a
    dimension tree of depth one), and the data, viewed as its C-order (right
    half x left half) matrix, is read once, in blocks of rows of
    ``_BLOCK_BYTES``, with no array of the tensor's size built.  Per block,
    the model (the product of the halves' Khatri-Rao products, each in
    decreasing mode order) is written into one reused buffer and the data
    subtracted; that residual block's squared norm is added to f, its
    transpose times the right half's product to the left half's partial
    contraction, and its product with the left half's is written into the
    right half's rows.  These two partial contractions are returned.
    Overflow is left to the caller's finiteness check, without a warning.
    """
    if point.structure.dims != tensor.dims:
        raise ValueError(f"point dims {point.structure.dims} do not match tensor {tensor.dims}")
    factors = point.factors
    with np.errstate(over="ignore", invalid="ignore"):
        if len(factors) <= 3:
            kr = _khatri_rao(factors[:0:-1])
            res = np.empty(tensor.size)
            # res.reshape(-1, I_0).T is the mode-0 unfolding of the flat result
            np.matmul(factors[0], point.weights[:, None] * kr.T, out=res.reshape(-1, tensor.dims[0]).T)
            np.subtract(res, tensor.values, out=res)
            return 0.5 * float(res @ res), (res, kr)
        h = len(factors) // 2
        left, right = _khatri_rao(factors[h - 1 :: -1]), _khatri_rao(factors[: h - 1 : -1])
        scaled = (left * point.weights).T
        data = tensor.values.reshape(right.shape[0], left.shape[0])
        step = max(1, _BLOCK_BYTES // data.strides[0])
        buf = np.empty((min(step, data.shape[0]), data.shape[1]))
        left_partial, right_partial = np.zeros(left.shape), np.empty(right.shape)
        total = 0.0
        for start in range(0, data.shape[0], step):
            rows = slice(start, start + step)
            block = buf[: right[rows].shape[0]]
            np.matmul(right[rows], scaled, out=block)
            np.subtract(block, data[rows], out=block)
            total += float(block.reshape(-1) @ block.reshape(-1))
            left_partial += block.T @ right[rows]
            np.matmul(block, left, out=right_partial[rows])
        return 0.5 * total, (left_partial, right_partial)


def residual_values(point: CpdPoint, tensor: DenseTensor) -> np.ndarray:
    """Flat residual: the model of :func:`tensor_from_cpd` minus the data."""
    return tensor_from_cpd(point, tensor.dims).values - tensor.values


def objective_value(point: CpdPoint, tensor: DenseTensor) -> float:
    """Half squared residual norm ``0.5 * ||model - data||^2``."""
    return value_and_residual(point, tensor)[0]


def mttkrps(point: CpdPoint, parts: tuple[np.ndarray, np.ndarray]) -> list[np.ndarray]:
    """Per mode ``n``, the mode-``n`` unfolding of the residual times the
    Khatri-Rao product of the other factors in decreasing mode order (the
    MTTKRP), from the ``parts`` that :func:`value_and_residual` returned.

    For ``N <= 3``, one pass over the flat residual per mode, on unfoldings
    of the residual itself, so modes ``0`` and ``N-1`` copy nothing.  For
    ``N >= 4``, contractions within each half of the halves' partial
    contractions, which the evaluation's one pass over the data has built.
    """
    factors = point.factors
    n_modes = len(factors)
    if n_modes <= 3:
        res, kr = parts
        dims = point.structure.dims
        out = []
        for n in range(n_modes):
            others = [factors[m] for m in range(n_modes - 1, -1, -1) if m != n]
            out.append(unfold_values(res, dims, n) @ (kr if n == 0 else _khatri_rao(others)))
        return out
    h = n_modes // 2
    return _half_mttkrps(parts[0], factors[:h]) + _half_mttkrps(parts[1], factors[h:])


def _half_mttkrps(partial: np.ndarray, factors: list[np.ndarray]) -> list[np.ndarray]:
    """The MTTKRPs of one half's modes from the half's partial contraction
    ``partial`` (rows indexed by the half's modes, its first mode fastest):
    per mode, ``partial`` times the Khatri-Rao product of the half's other
    factors, summed over their joint index in increasing order, first term
    first.  The sum is an accumulate, whose order, unlike that of ``sum``,
    does not depend on the shapes."""
    k = len(factors)
    rank = partial.shape[1]
    dims = [a.shape[0] for a in factors]
    arr = partial.reshape(dims[::-1] + [rank])  # axis k-1-n is mode n
    out = []
    for n in range(k):
        rows = arr.transpose(_axis_order(k + 1, k - 1 - n, -2)).reshape(-1, dims[n], rank)
        kr = _khatri_rao([factors[m] for m in range(k - 1, -1, -1) if m != n])
        terms = rows * kr[:, None, :]
        out.append(np.add.accumulate(terms, axis=0, out=terms)[-1])
    return out


# --- plain-text tensor file format ------------------------------------------
#
# Line 1: number of modes N.  Line 2: the N mode sizes.  Then prod(dims)
# values, whitespace separated, in canonical flat order.  Values are written
# with 17 significant digits so float64 round-trips exactly.


def format_float(v: float) -> str:
    """A float as text with 17 significant digits, which round-trips."""
    return format(float(v), ".17g")


def ten_write(path, tensor: DenseTensor) -> None:
    with open(path, "w", encoding="ascii") as fh:
        fh.write(f"{tensor.num_modes}\n")
        fh.write(" ".join(str(d) for d in tensor.dims) + "\n")
        for v in tensor.values:
            fh.write(format_float(v) + "\n")


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
