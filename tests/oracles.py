"""Independent reference implementations used to freeze expected values.

Everything here is written the slow, obvious way: nested index loops,
per-coordinate finite differences, dense matrices.  Nothing imports the
package's computational kernels, so a bug in a fast path cannot hide
inside its own test oracle.  Inputs are plain numpy arrays and ints.
"""

import itertools

import numpy as np


def flat_index(idx, dims):
    """Position of a multi-index in the first-index-fastest flat order."""
    pos = 0
    stride = 1
    for i, d in zip(idx, dims):
        pos += i * stride
        stride *= d
    return pos


def tensor_entries(factors, weights):
    """Entrywise CPD evaluation: T[i1..iN] = sum_r w_r * prod_n A_n[i_n, r]."""
    dims = tuple(a.shape[0] for a in factors)
    rank = len(weights)
    out = np.zeros(dims)
    for idx in itertools.product(*(range(d) for d in dims)):
        total = 0.0
        for r in range(rank):
            term = weights[r]
            for n, i in enumerate(idx):
                term *= factors[n][i, r]
            total += term
        out[idx] = total
    return out


def tensor_flat(factors, weights):
    dims = tuple(a.shape[0] for a in factors)
    arr = tensor_entries(factors, weights)
    flat = np.zeros(int(np.prod(dims)))
    for idx in itertools.product(*(range(d) for d in dims)):
        flat[flat_index(idx, dims)] = arr[idx]
    return flat


def unfold_entries(values_flat, dims, mode):
    """Mode-n unfolding by explicit index arithmetic: row i_mode, column =
    flat position of the remaining indices among the other dims."""
    other = [d for m, d in enumerate(dims) if m != mode]
    out = np.zeros((dims[mode], int(np.prod(other)) if other else 1))
    for idx in itertools.product(*(range(d) for d in dims)):
        rest = tuple(i for m, i in enumerate(idx) if m != mode)
        out[idx[mode], flat_index(rest, other)] = values_flat[flat_index(idx, dims)]
    return out


def khatri_rao_columns(matrices):
    """Column-wise Kronecker product via np.kron per column."""
    cols = matrices[0].shape[1]
    built = []
    for r in range(cols):
        col = np.ones(1)
        for m in matrices:
            col = np.kron(col, m[:, r])
        built.append(col)
    return np.column_stack(built)


def split_flat(x, dims, rank):
    """Factors and weights from a flat vector in the documented block order."""
    factors = []
    pos = 0
    for d in dims:
        block = np.empty((d, rank))
        for r in range(rank):
            block[:, r] = x[pos : pos + d]
            pos += d
        factors.append(block)
    return factors, np.asarray(x[pos : pos + rank])


def join_flat(factors, weights):
    parts = []
    for a in factors:
        for r in range(a.shape[1]):
            parts.append(np.asarray(a[:, r], dtype=float))
    parts.append(np.asarray(weights, dtype=float))
    return np.concatenate(parts)


def objective(x, dims, rank, tensor_flat_values):
    factors, weights = split_flat(x, dims, rank)
    res = tensor_flat(factors, weights) - tensor_flat_values
    return 0.5 * float(res @ res)


def residual(x, dims, rank, tensor_flat_values):
    factors, weights = split_flat(x, dims, rank)
    return tensor_flat(factors, weights) - tensor_flat_values


def fd_gradient(fun, x, h=1e-6):
    """Central differences with per-coordinate step h*(1+|x_i|)."""
    x = np.asarray(x, dtype=float)
    g = np.zeros_like(x)
    for i in range(x.size):
        step = h * (1.0 + abs(x[i]))
        xp = x.copy()
        xm = x.copy()
        xp[i] += step
        xm[i] -= step
        g[i] = (fun(xp) - fun(xm)) / (2.0 * step)
    return g


def fd_jacobian(fun_vec, x, h=1e-6):
    """Central-difference Jacobian of a vector-valued map, one column per
    coordinate."""
    x = np.asarray(x, dtype=float)
    f0 = np.asarray(fun_vec(x), dtype=float)
    jac = np.zeros((f0.size, x.size))
    for i in range(x.size):
        step = h * (1.0 + abs(x[i]))
        xp = x.copy()
        xm = x.copy()
        xp[i] += step
        xm[i] -= step
        jac[:, i] = (np.asarray(fun_vec(xp)) - np.asarray(fun_vec(xm))) / (2.0 * step)
    return jac


def project_flat(w, dims, rank, box=None):
    """Clip-then-normalize per factor column, clip (and box) the weights."""
    out = np.array(w, dtype=float)
    pos = 0
    for d in dims:
        for _ in range(rank):
            block = np.maximum(out[pos : pos + d], 0.0)
            nrm = np.sqrt(float(block @ block))
            if nrm == 0.0:
                block = np.full(d, 1.0 / np.sqrt(d))
            else:
                block = block / nrm
            out[pos : pos + d] = block
            pos += d
    tail = np.maximum(out[pos:], 0.0)
    if box is not None:
        tail = np.minimum(tail, box)
    out[pos:] = tail
    return out


# --- per-block operator loops, kept as bit-for-bit references ---------------
#
# These are the straightforward per-(mode, column) loops the package's
# vectorized operators replaced.  They use the same numpy calls on operands
# of the same memory layout, so the fast paths must reproduce them to the
# last bit, not merely to a tolerance.


def mode_views(x, dims, rank):
    """Per-mode ``(I_n, R)`` column-major views of a flat vector, and its
    weight tail."""
    views = []
    pos = 0
    for d in dims:
        views.append(x[pos : pos + rank * d].reshape((d, rank), order="F"))
        pos += rank * d
    return views, x[pos:]


def project_loop(w, dims, rank, box=None):
    """Projection one factor column at a time; returns ``(flat, degenerate)``."""
    w = np.asarray(w, dtype=np.float64)
    blocks, weights_in = mode_views(w, dims, rank)
    degenerate = False
    parts = []
    for block in blocks:
        pos = np.maximum(block, 0.0)
        norms = np.linalg.norm(pos, axis=0)
        out = np.empty_like(pos)
        for r in range(pos.shape[1]):
            if norms[r] == 0.0:
                degenerate = True
                out[:, r] = 1.0 / np.sqrt(pos.shape[0])
            else:
                out[:, r] = pos[:, r] / norms[r]
        parts.append(out.flatten(order="F"))
    weights = np.maximum(weights_in, 0.0)
    if box is not None:
        weights = np.minimum(weights, box)
    parts.append(weights)
    return np.concatenate(parts), degenerate


def proj_jacobian_blocks(w, dims, rank, box=None):
    """Per factor column: unit direction, inverse norm and clamp pattern, in
    flat block order; plus the weight clamp diagonal.  The clamp derivative
    is 0 at an exact zero and at an exact box tie.  Raises ``ValueError``
    naming the first factor column with no positive part."""
    w = np.asarray(w, dtype=np.float64)
    blocks, weights_in = mode_views(w, dims, rank)
    directions, inv_norms, clamps = [], [], []
    for n, block in enumerate(blocks):
        pos = np.maximum(block, 0.0)
        norms = np.linalg.norm(pos, axis=0)
        for r in range(block.shape[1]):
            if norms[r] == 0.0:
                raise ValueError(f"factor block (mode {n}, column {r}) has no positive part")
            clamp = np.where(block[:, r] > 0.0, 1.0, 0.0)
            directions.append(pos[:, r] / norms[r])
            inv_norms.append(1.0 / norms[r])
            clamps.append(clamp)
    wd = np.where(weights_in > 0.0, 1.0, 0.0)
    if box is not None:
        wd = np.where(weights_in < box, wd, 0.0)
    return directions, inv_norms, clamps, wd


def proj_jacobian_apply_loop(blocks, dims, rank, v):
    """Apply the block-diagonal projection Jacobian one column at a time;
    ``blocks`` is the output of :func:`proj_jacobian_blocks`."""
    directions, inv_norms, clamps, wd = blocks
    v = np.asarray(v, dtype=np.float64)
    out = np.empty_like(v)
    idx = 0
    pos = 0
    for d in dims:
        for _ in range(rank):
            sl = slice(pos, pos + d)
            u = clamps[idx] * v[sl]
            z = directions[idx]
            out[sl] = (u - z * (z @ u)) * inv_norms[idx]
            idx += 1
            pos += d
    out[pos:] = wd * v[pos:]
    return out


def gramian_weights(factors, weights):
    """The per-mode cross products ``a.T @ a`` and their Hadamard products
    over all modes but one (``w_except[i]``) or two (``w_pair[(i, j)]``, i <
    j), multiplied from ones in increasing mode order; ``w_all``, the
    product over all modes; and ``λλᵀ``."""
    rank = len(weights)
    n = len(factors)
    cross = [a.T @ a for a in factors]
    w_except = []
    for i in range(n):
        w = np.ones((rank, rank))
        for m in range(n):
            if m != i:
                w = w * cross[m]
        w_except.append(w)
    w_pair = {}
    for i in range(n):
        for j in range(i + 1, n):
            w = np.ones((rank, rank))
            for m in range(n):
                if m != i and m != j:
                    w = w * cross[m]
            w_pair[(i, j)] = w
    w_all = w_except[0] * cross[0]
    return w_except, w_pair, w_all, np.outer(weights, weights)


def gramian_apply_loop(factors, weights, v):
    """Gramian apply with the per-mode cross-product weights rebuilt and the
    mix terms summed one (mode, mode) pair at a time."""
    dims = tuple(a.shape[0] for a in factors)
    rank = len(weights)
    n = len(factors)
    w_except, w_pair, w_all, lam_outer = gramian_weights(factors, weights)
    v = np.asarray(v, dtype=np.float64)
    vf, vw = mode_views(v, dims, rank)
    dots = [factors[m].T @ vf[m] for m in range(n)]
    parts = []
    for i in range(n):
        u = vf[i] @ (lam_outer * w_except[i])
        mix = np.zeros((rank, rank))
        for j in range(n):
            if j != i:
                mix += lam_outer * w_pair[(min(i, j), max(i, j))] * dots[j]
        mix += (weights[:, None] * w_except[i]) * vw[None, :]
        u = u + factors[i] @ mix.T
        parts.append(u.flatten(order="F"))
    out_w = w_all @ vw
    for j in range(n):
        out_w = out_w + (w_except[j] * dots[j]) @ weights
    parts.append(out_w)
    return np.concatenate(parts)


def gramian_dense_loop(factors, weights):
    """The Gramian's dense matrix, one block at a time: per mode the
    diagonal block ``kron(λλᵀ∘W_i, I)``, per pair of modes i < j the block
    ``einsum("rs,is,jr->risj", λλᵀ∘W_ij, A_i, A_j)`` and its transposed
    copy below, per mode the weight block ``(λ∘W_i)[r, s] A_i[k, s]`` at
    row (r, k) and its transposed copy, and ``w_all`` for the weights."""
    dims = tuple(a.shape[0] for a in factors)
    rank = len(weights)
    n = len(factors)
    w_except, w_pair, w_all, lam_outer = gramian_weights(factors, weights)
    starts = np.cumsum((0,) + tuple(rank * d for d in dims))
    rows = [slice(starts[i], starts[i + 1]) for i in range(n)]
    ws = slice(starts[-1], starts[-1] + rank)
    g = np.empty((ws.stop, ws.stop))
    for i in range(n):
        g[rows[i], rows[i]] = np.kron(lam_outer * w_except[i], np.eye(dims[i]))
        for j in range(i + 1, n):
            block = np.einsum("rs,is,jr->risj", lam_outer * w_pair[(i, j)], factors[i], factors[j])
            g[rows[i], rows[j]] = block.reshape(rank * dims[i], rank * dims[j])
            g[rows[j], rows[i]] = g[rows[i], rows[j]].T
        lam_w = weights[:, None] * w_except[i]
        g[rows[i], ws] = (lam_w[:, None, :] * factors[i]).reshape(-1, rank)
        g[ws, rows[i]] = g[rows[i], ws].T
    g[ws, ws] = w_all
    return g


def jhat_matrix_loop(blocks, dims, rank, gram, gamma):
    """``I - P (I - gamma G)`` from the dense Gramian ``gram`` and the
    projection Jacobian ``blocks`` of :func:`proj_jacobian_blocks`: ``-gamma
    G`` with 1 added on its diagonal, ``P`` applied one factor column's
    dense block ``(diag(clamp) - z z^T) / ||positive part||`` at a time and
    the weight clamps row by row, then negated with 1 added on its
    diagonal."""
    directions, inv_norms, clamps, wd = blocks
    diagonal = np.diag_indices(gram.shape[0])
    inner = gram * -gamma
    inner[diagonal] += 1.0
    out = np.empty_like(inner)
    idx = 0
    pos = 0
    for d in dims:
        for _ in range(rank):
            z = directions[idx]
            block = clamps[idx][:, None] * np.eye(d) - np.outer(z, z)
            block *= inv_norms[idx]
            out[pos : pos + d] = block @ inner[pos : pos + d]
            idx += 1
            pos += d
    out[pos:] = wd[:, None] * inner[pos:]
    out *= -1.0
    out[diagonal] += 1.0
    return out


def direction_solve(jac, r, x, rnorm, damping):
    """The damped Gauss-Newton direction from the surrogate matrix ``jac``:
    ``(jac^T jac + mu diag(jac^T jac)) d = -jac^T r`` with ``mu = damping
    rnorm / ||x||``, by ``np.linalg.solve``; returns ``d`` and the relative
    residual of the damped system."""
    rhs = -(r @ jac)
    lhs = jac.T @ jac
    lhs[np.diag_indices(lhs.shape[0])] *= 1.0 + damping * rnorm / float(np.linalg.norm(x))
    d = np.linalg.solve(lhs, rhs)
    return d, float(np.linalg.norm(lhs @ d - rhs)) / float(np.linalg.norm(rhs))


def jhat_apply_loop(pj_apply, gram_apply, gamma, v):
    """``v - P (v - gamma G v)`` from the two loop references."""
    inner = v - gamma * gram_apply(v)
    return v - pj_apply(inner)


def jhat_apply_transpose_loop(pj_apply, gram_apply, gamma, v):
    """``v - P v + gamma G (P v)`` from the two loop references."""
    pv = pj_apply(v)
    return v - pv + gamma * gram_apply(pv)


# --- the per-mode evaluation -------------------------------------------------
#
# The model built as a dense tensor (mode-0 unfolding, column-major flatten),
# the residual subtracted from it, copied, and unfolded per mode.  It sums in
# another order than the package's blocked evaluation, so it is a reference
# within a tolerance.


def khatri_rao_pairwise(matrices):
    """Column-wise Kronecker product, one pairwise outer product at a time."""
    cols = matrices[0].shape[1]
    out = matrices[0]
    for m in matrices[1:]:
        out = (out[:, None, :] * m[None, :, :]).reshape(-1, cols)
    return out


def model_values(factors, weights):
    """Flat model values, through the mode-0 unfolding."""
    n = len(factors)
    kr = khatri_rao_pairwise([factors[m] for m in range(n - 1, 0, -1)])
    mat = factors[0] @ (weights[:, None] * kr.T)
    return mat.flatten(order="F").copy()


def residual_via_model(factors, weights, data):
    return model_values(factors, weights) - data


def objective_via_model(factors, weights, data):
    res = residual_via_model(factors, weights, data)
    return 0.5 * float(res @ res)


def unfold_values(values, dims, mode):
    arr = values.reshape(dims, order="F")
    return np.reshape(np.moveaxis(arr, mode, 0), (dims[mode], -1), order="F")


def refold(matrix, dims, mode):
    """Inverse of :func:`unfold_values`: the flat canonical-order values."""
    moved = (dims[mode],) + tuple(dims[:mode]) + tuple(dims[mode + 1:])
    arr = np.moveaxis(np.asarray(matrix).reshape(moved, order="F"), 0, mode)
    return arr.flatten(order="F")


def numerical_rank(matrix, rel_tol=1e-10):
    """Number of singular values above ``rel_tol`` times the largest."""
    svals = np.linalg.svd(matrix, compute_uv=False)
    if svals.size == 0 or svals[0] == 0.0:
        return 0
    return int(np.count_nonzero(svals > rel_tol * svals[0]))


def gradient_via_model(factors, weights, data):
    """Per-mode MTTKRP on unfoldings of a copied residual, then joined."""
    dims = tuple(a.shape[0] for a in factors)
    n = len(factors)
    res = residual_via_model(factors, weights, data).copy()
    parts = []
    grad_weights = None
    for mode in range(n):
        others = [factors[m] for m in range(n - 1, -1, -1) if m != mode]
        mtt = unfold_values(res, dims, mode) @ khatri_rao_pairwise(others)
        parts.append((mtt * weights[None, :]).flatten(order="F"))
        if mode == 0:
            grad_weights = np.einsum("ir,ir->r", factors[0], mtt)
    parts.append(grad_weights)
    return np.concatenate(parts)


# --- the blocked evaluation ---------------------------------------------------
#
# The modes split into a left half 0..h-1 and a right half h..N-1, h = N // 2,
# at every N >= 2; a half of one mode has the mode's factor as its product.
# The data, viewed as its C-order (right half x left half) matrix, is taken
# one block of rows at a time, in increasing order, as many rows per block as
# fit in the block's bytes (at least one).  A block's residual is the
# product of the halves' Khatri-Rao products minus the data block: f sums
# its squared norms, the left half's partial contraction sums its transpose
# times the right half's product, and the right half's takes its rows from
# its product with the left half's, in the same numpy calls on operands of
# the same memory layout as the package, except that the package writes the
# first block's product where this adds it to zeros, which changes no bit (a
# matrix product sums from +0.0).  The contractions within a half are
# plain loops over its entries, summed in increasing order of the other
# modes' joint index, first term first.


def tree_products(factors):
    """Khatri-Rao products of the left and right halves, each in decreasing
    mode order."""
    n = len(factors)
    h = n // 2
    left = khatri_rao_pairwise([factors[m] for m in range(h - 1, -1, -1)])
    right = khatri_rao_pairwise([factors[m] for m in range(n - 1, h - 1, -1)])
    return left, right


def blocked_model(factors, weights, block_bytes):
    """Flat model values, one block of rows of the C-order (right half x
    left half) matrix at a time, in the GEMMs of :func:`blocked_partials`."""
    left, right = tree_products(factors)
    step = max(1, block_bytes // (8 * left.shape[0]))
    out = np.empty((right.shape[0], left.shape[0]))
    for start in range(0, right.shape[0], step):
        rows = slice(start, start + step)
        out[rows] = right[rows] @ (left * weights).T
    return out.reshape(-1)


def blocked_partials(factors, weights, data, block_bytes):
    """The objective and the left and right halves' partial contractions,
    one block of rows at a time."""
    left, right = tree_products(factors)
    mat = data.reshape(right.shape[0], left.shape[0])
    step = max(1, block_bytes // (8 * left.shape[0]))
    total = 0.0
    left_partial = np.zeros(left.shape)
    right_partial = np.empty(right.shape)
    for start in range(0, right.shape[0], step):
        rows = slice(start, start + step)
        res = right[rows] @ (left * weights).T
        res -= mat[rows]
        total += float(res.reshape(-1) @ res.reshape(-1))
        left_partial += res.T @ right[rows]
        right_partial[rows] = res @ left
    return 0.5 * total, left_partial, right_partial


def half_mttkrp_loop(partial, half_factors, mode):
    """MTTKRP of one mode of a half from the half's partial contraction
    (rows indexed by the half's modes, first mode fastest)."""
    dims = [a.shape[0] for a in half_factors]
    rank = partial.shape[1]
    others = [m for m in range(len(dims)) if m != mode]
    out = np.empty((dims[mode], rank))
    first = True
    # the other modes' joint index, smallest mode fastest
    for rest in itertools.product(*(range(dims[m]) for m in reversed(others))):
        idx = dict(zip(reversed(others), rest))
        coef = np.ones(rank)
        for m in reversed(others):
            coef = coef * half_factors[m][idx[m]]
        for i in range(dims[mode]):
            idx[mode] = i
            term = partial[flat_index([idx[m] for m in range(len(dims))], dims)] * coef
            out[i] = term if first else out[i] + term
        first = False
    return out


def evaluation_via_blocks(factors, weights, data, block_bytes):
    """Objective and gradient from :func:`blocked_partials`, then per-mode
    loops within each half; the gradient joined like
    :func:`gradient_via_model`."""
    h = len(factors) // 2
    f, left_partial, right_partial = blocked_partials(factors, weights, data, block_bytes)
    mtts = []
    for partial, half in ((left_partial, factors[:h]), (right_partial, factors[h:])):
        mtts.extend(half_mttkrp_loop(partial, half, mode) for mode in range(len(half)))
    parts = [(mtt * weights[None, :]).flatten(order="F") for mtt in mtts]
    parts.append(np.einsum("ir,ir->r", factors[0], mtts[0]))
    return f, np.concatenate(parts)
