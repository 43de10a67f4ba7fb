"""First-order calculus of the residual map: gradient, Gramian, kernel.

The residual map sends a factorization point to the flat difference between
its rank-1 sum model and the data tensor.  Everything here is expressed in
the canonical flat layout of :mod:`ncpd.tensors`.

A gradient is the residual's MTTKRPs (matricized tensor times Khatri-Rao
products), one per mode.  The objective and both halves of a dimension
tree that splits the modes in two come from one cache-blocked pass over
the data, at every number of modes, and the residual is never built whole.

The Gramian (Jacobian-transpose times Jacobian) never needs the Jacobian:
thanks to the Kronecker structure of the Jacobian, its action on a vector,
its quadratic form and its dense matrix are all built from the R-by-R
cross products of the factor matrices, at a cost independent of the tensor
size.  The dense Jacobian itself is provided separately for diagnostics on
small problems.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .tensors import CpdPoint, DenseTensor, _identity, mttkrps, value_and_residual

__all__ = [
    "EvalCounters",
    "gradient",
    "gradient_from_residual",
    "GramianOperator",
    "explicit_jacobian",
    "KernelBasis",
    "kernel_basis",
    "cauchy_scale",
]


@dataclass
class EvalCounters:
    """Cumulative work counters threaded through a solve."""

    fevals: int = 0
    gevals: int = 0
    gramian_applies: int = 0


def gradient(point: CpdPoint, tensor: DenseTensor) -> np.ndarray:
    """Gradient of the half squared residual norm, as a flat vector.

    The residual's MTTKRPs (:func:`~ncpd.tensors.mttkrps`) scaled by the
    weights, and the weights' part from mode 0's: one pass over the data,
    of cost O(R prod(dims)), and contractions within each half of the
    modes.
    """
    return gradient_from_residual(point, value_and_residual(point, tensor)[1])


def gradient_from_residual(point: CpdPoint, parts: tuple[np.ndarray, np.ndarray]) -> np.ndarray:
    """The gradient at ``point`` from the ``parts`` of its evaluation, as
    returned by :func:`~ncpd.tensors.value_and_residual`.  The weighted
    MTTKRPs are written straight into their blocks of the flat gradient."""
    mtts = mttkrps(point, parts)
    grad = np.empty(point.structure.size)
    stop = 0
    for mtt in mtts:
        start, stop = stop, stop + mtt.size
        np.multiply(mtt, point.weights, out=grad[start:stop].reshape(mtt.shape, order="F"))
    grad[stop:] = np.einsum("ir,ir->r", point.factors[0], mtts[0])
    return grad


@functools.cache
def _mode_indices(n_modes: int) -> tuple[np.ndarray, np.ndarray]:
    """``others[i]``: the modes other than ``i``; ``rest[i, k]``: the modes
    other than ``i`` and ``others[i, k]``; both in increasing order.  The
    arrays are shared by every caller, so they are read-only."""
    modes = range(n_modes)
    others = [[j for j in modes if j != i] for i in modes]
    rest = [[[m for m in modes if m not in (i, j)] for j in others[i]] for i in modes]
    out = (np.array(others, dtype=np.intp).reshape(n_modes, n_modes - 1),
           np.array(rest, dtype=np.intp).reshape(n_modes, n_modes - 1, n_modes - 2))
    for a in out:
        a.setflags(write=False)
    return out


def _hadamard(cross: np.ndarray, index: np.ndarray) -> np.ndarray:
    """Products of ``cross[index[..., k]]`` over the last axis of ``index``,
    multiplied in order; all ones for an empty product."""
    if index.shape[-1] == 0:
        return np.ones(index.shape[:-1] + cross.shape[1:])
    out = cross[index[..., 0]]  # equals 1 * cross exactly
    for k in range(1, index.shape[-1]):
        out *= cross[index[..., k]]
    return out


class GramianOperator:
    """Matrix-free action of the residual-map Gramian at a point.

    Construction caches the per-mode R-by-R factor cross products, their
    Hadamard products over all modes but one or two, and those products
    scaled by the weights (``λλᵀ∘W``), with the factors stacked per run of
    equal-size modes.  An apply then costs O(N^2 R^2 + R^2 sum(dims)), with
    no dependence on the tensor size: three stacked R-by-R matrix products
    per run of equal-size modes plus O(N) elementwise passes over R-by-R
    arrays.  The operator is symmetric positive semidefinite with a null
    space of dimension at least N*R at generic points, spanned by the
    per-term rescaling directions (see :func:`kernel_basis`).
    :meth:`dense` assembles its matrix from the same caches.
    """

    def __init__(self, point: CpdPoint):
        self.point = point
        s = point.structure
        n, rank = s.num_modes, s.rank
        self._groups = [(*group, fac) for group, fac in zip(s.mode_groups, s.stacked_factors(point.flat))]
        cross = np.empty((n, rank, rank))
        for _, modes, _, fac in self._groups:
            np.matmul(fac.transpose(0, 2, 1), fac, out=cross[modes])
        # Hadamard products of the cross products of all modes but i (resp.
        # but i and j), multiplied in increasing mode order.
        self._others, rest = _mode_indices(n)
        w_except = _hadamard(cross, self._others)
        self._w_except = w_except
        self._w_all = w_except[0] * cross[0]
        # The apply forms (λλᵀ∘W)∘D, which is λλᵀ∘W∘D evaluated left to
        # right, so caching the first product changes no rounding.
        lam = point.weights
        lam_outer = lam[:, None] * lam[None, :]
        self._lw_except = lam_outer * w_except
        self._lw_pair = lam_outer * _hadamard(cross, rest)
        self._lam_w_except = lam[:, None] * w_except

    @property
    def size(self) -> int:
        return self.point.structure.size

    def apply(self, v) -> np.ndarray:
        v = np.asarray(v, dtype=np.float64)
        if v.shape != (self.size,):
            raise ValueError(f"expected flat length {self.size}, got {v.shape}")
        s = self.point.structure
        n_modes, rank = s.num_modes, s.rank
        # per run, the (I_n, R) factor-shaped views of v's blocks, stacked
        blocks = [v[sl].reshape(-1, rank, dim).transpose(0, 2, 1) for sl, _, dim, _ in self._groups]
        vw = v[s.weight_slice]
        # D[m][r, s] = <a_r^(m), v_s^(m)>
        dots = np.empty((n_modes, rank, rank))
        for vf, (_, modes, _, fac) in zip(blocks, self._groups):
            np.matmul(fac.transpose(0, 2, 1), vf, out=dots[modes])
        # mix[i] = 0 + sum_{j != i, increasing} (λλᵀ∘W_ij)∘D_j + (λ∘W_i)∘vw
        terms = self._lw_pair * dots[self._others]
        mix = np.zeros((n_modes, rank, rank))
        for k in range(n_modes - 1):
            mix += terms[:, k]
        mix += self._lam_w_except * vw
        mix_t = mix.transpose(0, 2, 1)
        out = np.empty_like(v)
        for vf, (sl, modes, dim, fac) in zip(blocks, self._groups):
            u = vf @ self._lw_except[modes]
            np.add(u, fac @ mix_t[modes], out=out[sl].reshape(-1, rank, dim).transpose(0, 2, 1))
        out_w = self._w_all @ vw
        for term in (self._w_except * dots) @ self.point.weights:
            out_w += term
        out[s.weight_slice] = out_w
        return out

    def dense(self) -> np.ndarray:
        """The Gramian as a dense matrix, assembled afresh on every call in
        O(size^2) from the cached cross products and handed to the caller,
        writable; nothing keeps it.

        Solver traces are chaotic under rounding, so each entry keeps the
        product order of the kron/einsum assembly in ``tests/oracles.py``.
        With ``W_n``, ``W_nm`` the Hadamard products of the cross products of
        all modes but n (resp. n and m), factor entries (n, r, i), (m, s, j)
        give ``(λλᵀ∘W_nm)[r, s] * a_s^(n)[i] * a_r^(m)[j] + 0.0`` for n < m,
        left to right (einsum's zeroed output makes a -0.0 product +0.0),
        and ``(λλᵀ∘W_n)[r, s] * δ_ij`` for n = m (a -0.0 off the diagonal
        where the product is negative); a factor entry (n, r, i) and a
        weight s give ``(λ∘W_n)[r, s] * a_s^(n)[i]``, two weights the product
        of all cross products.  Block (m, n) is the transpose of block
        (n, m): the cross products need not be symmetric to the bit."""
        s = self.point.structure
        rank, factor_dim, ws = s.rank, s.factor_dim, s.weight_slice
        g = np.empty((s.size, s.size))
        # rows of rank * size entries, with both operands spread over them,
        # take far fewer numpy inner loops than products over the size axes
        for sl, run, dim, fac in self._groups:
            np.multiply(self._lam_w_except[run, :, None], fac[:, None], out=g[sl, ws].reshape(-1, rank, dim, rank))
            lw_spread = np.repeat(self._lw_except[run], dim, axis=2)
            for k, m in enumerate(range(run.start, run.stop)):
                rows = slice(sl.start + k * rank * dim, sl.start + (k + 1) * rank * dim)
                np.multiply(lw_spread[k, :, None], _identity(dim, rank), out=g[rows, rows].reshape(rank, dim, -1))
                for sl_n, run_n, dim_n, fac_n in self._groups:
                    q = min(run_n.stop, m) - run_n.start
                    if q <= 0:
                        break
                    cols = slice(sl_n.start, sl_n.start + q * rank * dim_n)
                    lw_a = self._lw_pair[run_n.start : run_n.start + q, m - 1].transpose(2, 0, 1)[..., None] \
                        * fac_n[:q].transpose(2, 0, 1)[:, :, None, :]
                    band = g[rows, cols]
                    np.multiply(lw_a.reshape(rank, 1, q, -1), np.repeat(fac[k], dim_n, axis=1)[:, None, :],
                                out=band.reshape(rank, dim, q, -1))
                    band += 0.0
                    g[cols, rows] = band.T
        g[ws, :factor_dim] = g[:factor_dim, ws].T
        g[ws, ws] = self._w_all
        return g


def explicit_jacobian(point: CpdPoint, max_entries: int = 100_000) -> np.ndarray:
    """Dense Jacobian of the residual map; diagnostics only.

    Column blocks follow the canonical flat layout: factor columns mode by
    mode, then one column per weight (each equal to the flat unit-weight
    rank-1 term).  Refuses tensors larger than ``max_entries``.
    """
    s = point.structure
    n_entries = math.prod(s.dims)
    if n_entries > max_entries:
        raise ValueError(
            f"tensor has {n_entries} entries, over the dense-assembly cap {max_entries}"
        )
    factors = point.factors
    lam = point.weights
    jac = np.empty((n_entries, s.size))
    for n in range(s.num_modes):
        for r in range(s.rank):
            block = np.ones((1, 1))
            for m in range(s.num_modes - 1, -1, -1):
                piece = np.eye(s.dims[m]) if m == n else factors[m][:, r : r + 1]
                block = np.kron(block, piece)
            sl = s.block_slice(n, r)
            jac[:, sl] = lam[r] * block
    for r in range(s.rank):
        col = np.ones(1)
        for m in range(s.num_modes - 1, -1, -1):
            col = np.kron(col, factors[m][:, r])
        jac[:, s.factor_dim + r] = col
    return jac


@dataclass(frozen=True)
class KernelBasis:
    """Basis of the structural Gramian null space at a point.

    One column per (mode, column) pair: the factor column placed in its own
    block and the negated weight in the matching weight entry.  Each column
    is tangent to the rescaling curve that trades factor-column scale
    against the weight, which leaves the rank-1 term unchanged.  The
    ``degenerate`` flag marks points (zero weight or zero factor column)
    where the basis may lose rank.
    """

    matrix: np.ndarray
    degenerate: bool


def kernel_basis(point: CpdPoint) -> KernelBasis:
    s = point.structure
    basis = np.zeros((s.size, s.num_modes * s.rank))
    degenerate = bool(np.any(point.weights == 0.0))
    col = 0
    for n in range(s.num_modes):
        for r in range(s.rank):
            if not np.any(point.factors[n][:, r]):
                degenerate = True
            basis[s.block_slice(n, r), col] = point.factors[n][:, r]
            basis[s.factor_dim + r, col] = -point.weights[r]
            col += 1
    return KernelBasis(basis, degenerate)


def cauchy_scale(point: CpdPoint, g: np.ndarray, op: GramianOperator | None = None) -> float:
    """Stepsize scale of the Gramian along ``g``: ``g.g / g.G.g``, the
    inverse of its Rayleigh quotient.

    ``g.G.g`` comes from one apply of ``op`` when one is given, and
    otherwise from R-by-R products alone, without building an operator.
    Raises on a zero direction or one of another length than the point's;
    a flat direction comes out ``inf`` and is left to the caller to ignore.
    """
    g = np.asarray(g, dtype=np.float64)
    if g.shape != (point.structure.size,):
        raise ValueError(f"expected flat length {point.structure.size}, got {g.shape}")
    gg = float(g @ g)
    if gg == 0.0:
        raise ValueError("cannot take a curvature scale along the zero direction")
    curvature = _gramian_form(point, g) if op is None else float(g @ op.apply(g))
    return gg / curvature if curvature > 0.0 else math.inf


@functools.cache
def _form_index(n_modes: int, rank: int) -> np.ndarray:
    """Indices of the factors of the N^2 terms of :func:`_gramian_form`
    into its flat stacked ``(N, 2R, 2R)`` cross products, whose first R
    rows hold ``[C_m | D_m]`` and other rows and columns ``E_m``: an ``(N,
    N^2, R, R)`` array with factor f of entry (r, s) of term t at ``[f, t,
    r, s]``, first ``W_n∘E_n`` per n, then ``W_nm∘D_n^T∘D_m`` per n and m
    != n, each with its factors in the order of their products.  Read-only."""
    w, (r, s) = 2 * rank, np.ogrid[:rank, :rank]
    c, d, e = r * w + s, r * w + rank + s, (rank + r) * w + rank + s  # entries (r, s) of C_0, D_0, E_0
    modes = range(n_modes)
    start = [m * w * w for m in modes]  # of mode m's cross products
    own = [[c + start[m] for m in modes if m != n] + [e + start[n]] for n in modes]
    pairs = [[c + start[j] for j in modes if j not in (n, m)] + [d.T + start[n], d + start[m]]
             for n in modes for m in modes if m != n]
    index = np.array(own + pairs).transpose(1, 0, 2, 3).copy()
    index.setflags(write=False)
    return index


def _gramian_form(point: CpdPoint, v: np.ndarray) -> float:
    """``v.G.v = ||J v||^2`` from R-by-R products alone, with no operator.

    ``J v`` sums, over the terms r, the part linear in ε of the rank-1
    tensor ``(λ_r + ε v_w[r]) ⊗_n (a_r^(n) + ε v_r^(n))``, with ``v_w`` the
    weights' block of ``v`` and ``V_n`` its factor-shaped blocks.  Moving
    the weights into mode 0, as ``A_0 Λ`` and ``V_0 Λ + A_0 diag(v_w)``,
    leaves the factors alone: with ``C_n = A_n^T A_n``, ``D_n = A_n^T V_n``
    and ``E_n = V_n^T V_n`` (one stacked product of ``[A_n | V_n]`` per run
    of equal-size modes) and ``W_n``, ``W_nm`` the Hadamard products of the
    ``C`` of all modes but n (resp. n and m), the form is the sum of the
    entries of ``sum_n W_n∘E_n + sum_{n != m} W_nm∘D_n^T∘D_m``: one gather
    takes the factors of every term, multiplied left to right, and numpy
    sums the first N terms and the rest.
    """
    s = point.structure
    n_modes, rank = s.num_modes, s.rank
    x, lam = point.flat, point.weights
    cross = np.empty((n_modes, 2 * rank, 2 * rank))
    for sl, modes, dim in s.mode_groups:
        # per mode of the run, the columns of A_n and then those of V_n, as rows
        a = x[sl].reshape(-1, rank, dim)
        rows = np.concatenate((a, v[sl].reshape(-1, rank, dim)), axis=1)
        if modes.start == 0:
            mode0 = rows[0].reshape(2, rank, dim)
            mode0 *= lam[:, None]
            mode0[1] += v[s.weight_slice, None] * a[0]
        np.matmul(rows, rows.transpose(0, 2, 1), out=cross[modes])
    factors = cross.reshape(-1)[_form_index(n_modes, rank)]
    terms = factors[0]
    for factor in factors[1:]:
        terms *= factor
    return float(np.add.reduce(terms[:n_modes], axis=None) + np.add.reduce(terms[n_modes:], axis=None))
