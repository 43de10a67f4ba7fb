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
import io
import itertools
import math
import numbers
import os
import stat
from dataclasses import dataclass
from functools import cached_property

import numpy as np

__all__ = [
    "DenseTensor",
    "CpdStructure",
    "CpdPoint",
    "khatri_rao",
    "tensor_from_cpd",
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


def as_integer(value, name: str) -> int:
    """``value`` as an ``int``; :class:`ValueError` naming ``name`` when it
    is not a Python or numpy integer (a bool is not one)."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    return int(value)


def as_real(value, name: str) -> float:
    """``value`` as a ``float``; :class:`ValueError` naming ``name`` when it
    is not a real number (a bool is not one)."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ValueError(f"{name} must be a real number, got {value!r}")
    return float(value)


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

    @classmethod
    def _owned(cls, dims: tuple[int, ...], values: np.ndarray) -> "DenseTensor":
        """The tensor that keeps ``values``, a float64 vector of length
        ``prod(dims)`` that the caller has just made and hands over, without
        the copy and the checks of ``__post_init__``; ``dims`` are valid."""
        values.setflags(write=False)
        tensor = cls.__new__(cls)
        object.__setattr__(tensor, "dims", dims)
        object.__setattr__(tensor, "values", values)
        return tensor

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
        dims = tuple(as_integer(d, "mode size") for d in self.dims)
        if len(dims) < 2 or any(d < 1 for d in dims):
            raise ValueError(f"invalid mode sizes {dims}")
        rank = as_integer(self.rank, "rank")
        if rank < 1:
            raise ValueError(f"rank must be positive, got {rank}")
        object.__setattr__(self, "dims", dims)
        object.__setattr__(self, "rank", rank)

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

    def stacked_factors(self, x: np.ndarray) -> list[np.ndarray]:
        """Per run of :attr:`mode_groups`, the factors of the float64 vector
        ``x`` (unchecked) copied once, to a row-major ``(k, size, R)`` array."""
        return [x[sl].reshape(-1, self.rank, dim).transpose(0, 2, 1).copy() for sl, _, dim in self.mode_groups]

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

    Instances are value objects: the stored arrays are copies and marked
    read-only.  No feasibility is implied; mid-iteration points are generally
    infeasible.
    """

    def __init__(self, factors, weights):
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
        self.structure = CpdStructure(tuple(a.shape[0] for a in factors), rank)
        for a in factors:
            a.setflags(write=False)
        weights.setflags(write=False)
        self.factors = factors
        self.weights = weights

    @cached_property
    def flat(self) -> np.ndarray:
        out = self.structure.join(self.factors, self.weights)
        out.setflags(write=False)
        return out

    @classmethod
    def from_flat(cls, structure: CpdStructure, x, owned: bool = False) -> "CpdPoint":
        """The point whose flat layout is ``x``.  ``flat`` is a read-only
        copy of ``x``, the weights a view of it, and the factors row-major
        views of one read-only copy per run of equal-size modes; the shapes
        are valid by construction, so the checks of ``__init__`` are
        skipped.  An ``owned`` ``x``, a float64 vector that the caller has
        just made and hands over, becomes ``flat`` itself."""
        flat = x if owned else np.array(x, dtype=np.float64)
        if flat.shape != (structure.size,):
            raise ValueError(f"expected flat length {structure.size}, got {flat.shape}")
        flat.setflags(write=False)  # views taken from here on are read-only too
        point = cls.__new__(cls)
        point.structure, point.flat, point.weights = structure, flat, flat[structure.weight_slice]
        point.factors = factors = []
        for run in structure.stacked_factors(flat):
            run.setflags(write=False)
            factors.extend(run)
        return point

    def norm(self) -> float:
        return float(np.linalg.norm(self.flat))


def khatri_rao(matrices) -> np.ndarray:
    """Column-wise Kronecker product of a nonempty sequence of float64
    matrices with equal column counts, in order, unchecked.

    Column ``r`` of the result is the Kronecker product of the ``r``-th
    columns, with the first matrix's index varying slowest (the last
    matrix's index is fastest, matching ``np.kron`` on the columns).  One
    matrix is returned as it is.
    """
    out = matrices[0]
    for m in matrices[1:]:
        out = (out[:, None, :] * m[None, :, :]).reshape(-1, out.shape[1])
    return out


@functools.cache
def _identity(dim: int, copies: int = 1) -> np.ndarray:
    """``copies`` identity matrices of size ``dim`` side by side, read-only."""
    out = np.tile(np.eye(dim), copies)
    out.setflags(write=False)
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


# Bytes of data per block of rows of the evaluation, small enough that a
# block's residual stays in cache between its five uses.
_BLOCK_BYTES = 256 * 1024


def _tree(point: CpdPoint) -> tuple[np.ndarray, np.ndarray, np.ndarray, int]:
    """The dimension tree of depth one at ``point``: the Khatri-Rao
    products of the left half's factors (modes ``h-1, ..., 0``) and of the
    right half's (``N-1, ..., h``), ``h = N // 2``, the left one scaled by
    the weights and transposed, and the rows of the right one per block.

    The model, as the C-order (right half x left half) matrix of its flat
    values, is ``right @ scaled``, one GEMM per block of rows."""
    factors = point.factors
    h = len(factors) // 2
    left, right = khatri_rao(factors[h - 1 :: -1]), khatri_rao(factors[: h - 1 : -1])
    return left, right, (left * point.weights).T, max(1, _BLOCK_BYTES // (8 * left.shape[0]))


def tensor_from_cpd(point: CpdPoint, dims=None) -> DenseTensor:
    """Evaluate the weighted rank-1 sum model at ``point`` as a dense tensor.

    The model is built block by block with the GEMMs of
    :func:`value_and_residual`, so that the data made here evaluates to a
    residual of exactly zero at ``point``, at every number of modes."""
    structure = point.structure
    if dims is not None and tuple(int(d) for d in dims) != structure.dims:
        raise ValueError(f"point dims {structure.dims} do not match requested {tuple(dims)}")
    left, right, scaled, step = _tree(point)
    model = np.empty((right.shape[0], left.shape[0]))
    for start in range(0, right.shape[0], step):
        rows = slice(start, start + step)
        np.matmul(right[rows], scaled, out=model[rows])
    return DenseTensor(structure.dims, model.reshape(-1))


@np.errstate(over="ignore", invalid="ignore")
def value_and_residual(point: CpdPoint, tensor: DenseTensor) -> tuple[float, tuple[np.ndarray, np.ndarray]]:
    """Half squared residual norm, and the two arrays that :func:`mttkrps`
    needs besides the point: the partial contractions of the residual with
    each half of a dimension tree of depth one.

    The modes split into a left half ``0, ..., h-1`` and a right half
    ``h, ..., N-1``, ``h = N // 2``, at every ``N >= 2``.  The data, viewed
    as its C-order (right half x left half) matrix, is read once, in blocks
    of rows of ``_BLOCK_BYTES``, with no array of the tensor's size built.
    Per block, the model (the product of the halves' Khatri-Rao products,
    each in decreasing mode order, the GEMM of :func:`tensor_from_cpd`) is
    written into one reused buffer and the data subtracted; that residual
    block's squared norm is added to f, its transpose times the right
    half's product to the left half's partial contraction, and its product
    with the left half's is written into the right half's rows.  Overflow
    is left to the caller's finiteness check, without a warning.
    """
    if point.structure.dims != tensor.dims:
        raise ValueError(f"point dims {point.structure.dims} do not match tensor {tensor.dims}")
    left, right, scaled, step = _tree(point)
    data = tensor.values.reshape(right.shape[0], left.shape[0])
    right_partial = np.empty(right.shape)
    total = 0.0
    for start in range(0, data.shape[0], step):
        rows = slice(start, start + step)
        right_rows = right[rows]
        block = np.matmul(right_rows, scaled, out=buf[: right_rows.shape[0]] if start else None)
        np.subtract(block, data[rows], out=block)
        flat = block.reshape(-1)
        total += float(flat @ flat)
        np.matmul(block, left, out=right_partial[rows])
        if start:
            left_partial += block.T @ right_rows
        else:  # later blocks, no larger, reuse the first one's buffer; a
            # matrix product sums from +0.0, so adding it to zeros would change no bit
            buf, left_partial = block, block.T @ right_rows
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
    MTTKRP), from the ``parts`` that :func:`value_and_residual` returned:
    contractions within each half of the halves' partial contractions,
    which the evaluation's one pass over the data has built."""
    factors = point.factors
    h = len(factors) // 2
    return _half_mttkrps(parts[0], factors[:h]) + _half_mttkrps(parts[1], factors[h:])


def _half_mttkrps(partial: np.ndarray, factors: list[np.ndarray]) -> list[np.ndarray]:
    """The MTTKRPs of one half's modes from the half's partial contraction
    ``partial`` (rows indexed by the half's modes, its first mode fastest):
    per mode, ``partial`` times the Khatri-Rao product of the half's other
    factors, summed over their joint index in increasing order, first term
    first.  The sum is an accumulate, whose order, unlike that of ``sum``,
    does not depend on the shapes.  A half of one mode has no other
    factors: its MTTKRP is ``partial`` itself."""
    k = len(factors)
    if k == 1:
        return [partial]
    rank = partial.shape[1]
    dims = [a.shape[0] for a in factors]
    arr = partial.reshape(dims[::-1] + [rank])  # axis k-1-n is mode n
    out = []
    for n in range(k):
        rows = arr.transpose(_axis_order(k + 1, k - 1 - n, -2)).reshape(-1, dims[n], rank)
        kr = khatri_rao([factors[m] for m in range(k - 1, -1, -1) if m != n])
        terms = rows * kr[:, None, :]
        out.append(np.add.accumulate(terms, axis=0, out=terms)[-1])
    return out


# --- plain-text tensor file format ------------------------------------------
#
# Line 1: number of modes N.  Line 2: the N mode sizes.  Then prod(dims)
# values in canonical flat order.  The writer puts one value per line with 17
# significant digits, so float64 round-trips exactly; the reader takes any
# whitespace between tokens.

# Bytes per read of a tensor file: the reader holds the tensor and the tokens
# of one chunk.  At 64 KiB a chunk's buffers stay below glibc's default
# 128 KiB mmap threshold, so reading leaves the threshold, and with it how
# later large arrays are allocated, as it was.
_CHUNK_BYTES = 1 << 16


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
    """Read a tensor file chunk by chunk, in about the memory of the tensor
    and the tokens of a chunk or two.  Raises :class:`ValueError`, naming
    the file, on a malformed header, a wrong value count, a malformed value
    or a value that is not finite, in that order; a bad value is named by
    its multi-index."""
    with open(path, "rb") as fh:
        info = os.fstat(fh.fileno())
        if stat.S_ISREG(info.st_mode):
            return _tensor_from_tokens(path, _token_batches(fh), info.st_size)
        data = fh.read()  # a pipe has no size to bound its value count
    return _tensor_from_tokens(path, _token_batches(io.BytesIO(data)), len(data))


def _token_batches(fh):
    """The whitespace-separated tokens of a binary file, one list per chunk
    of ``_CHUNK_BYTES``; a token cut at a chunk's end moves to the next list.
    A list is dropped before the next chunk is split, so that only one is
    alive when the consumer drops its own reference too."""
    carry = b""
    while chunk := fh.read(_CHUNK_BYTES):
        tokens = (carry + chunk).split()
        carry = b"" if chunk[-1:].isspace() else tokens.pop()
        yield tokens
        del tokens
    if carry:
        yield [carry]


def _take(batches, head: list, count: int) -> list:
    """``head`` extended by whole batches to at least ``count`` tokens, or
    to the end of the file."""
    while len(head) < count and (batch := next(batches, None)) is not None:
        head += batch
    return head


def _read_header(path, batches, most: int):
    """The mode sizes, and the batches of the value tokens after them.  A
    file holds at most ``most`` tokens."""
    head = _take(batches, [], 1)
    if not head:
        raise ValueError(f"{path}: empty tensor file")
    try:
        n_modes = int(head[0])
    except ValueError:
        raise ValueError(f"{path}: first token must be the number of modes") from None
    if n_modes < 2:
        raise ValueError(f"{path}: need at least 2 modes, got {n_modes}")
    if 1 + n_modes > most or len(_take(batches, head, 1 + n_modes)) < 1 + n_modes:
        raise ValueError(f"{path}: truncated header")
    try:
        dims = tuple(int(t) for t in head[1 : 1 + n_modes])
    except ValueError:
        raise ValueError(f"{path}: malformed mode sizes") from None
    if any(d < 1 for d in dims):
        raise ValueError(f"{path}: mode sizes must be positive")
    return dims, itertools.chain([head[1 + n_modes :]], batches)


def _tensor_from_tokens(path, batches, size: int) -> DenseTensor:
    # a token takes a byte and all but the last a separator, so a header that
    # claims more values than the file can hold gets them counted, not stored
    most = (size + 1) // 2
    dims, batches = _read_header(path, batches, most)
    expected = math.prod(dims)
    values = np.empty(expected) if expected <= most else None
    found, malformed = 0, None
    for batch in batches:
        end = found + len(batch)
        if values is not None and malformed is None and end <= expected:
            try:
                values[found:end] = np.array(batch, dtype=np.float64)
            except ValueError:
                malformed = _malformed_token(batch, found)
        found = end
        del batch  # free this chunk's tokens before the next one is split
    if found != expected:
        raise ValueError(f"{path}: expected {expected} values, found {found}")
    if malformed is not None:
        i, token = malformed
        text = token[:20].decode("ascii", "backslashreplace") + ("..." if len(token) > 20 else "")
        raise ValueError(f"{path}: malformed value '{text}' at index {_multi_index(i, dims)}")
    finite = np.isfinite(values)
    if not finite.all():
        i = int(finite.argmin())
        raise ValueError(f"{path}: non-finite value {values[i]} at index {_multi_index(i, dims)}")
    return DenseTensor._owned(dims, values)


def _malformed_token(batch: list[bytes], offset: int) -> tuple[int, bytes]:
    """The flat position and text of the first token of a batch that does
    not parse, parsed one by one as the batch was."""
    for i, token in enumerate(batch):
        try:
            np.array([token], dtype=np.float64)
        except ValueError:
            return offset + i, token
    raise AssertionError("a batch that failed to parse has no malformed token")


def _multi_index(flat: int, dims: tuple[int, ...]) -> tuple[int, ...]:
    return tuple(int(i) for i in np.unravel_index(flat, dims, order="F"))
