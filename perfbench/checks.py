"""Correctness checks on solver outputs, computed apart from the program.

Everything here uses plain numpy on the arrays the program returns; nothing
calls back into ``ncpd``.  Each check raises :class:`CheckFailed` with a
message naming what is wrong.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

EPS = np.finfo(np.float64).eps
# Unit-norm tolerance on returned factor columns.  The projection divides by
# the column norm, which leaves a few ulps.
NORM_TOL = 1e-12
# The quadratic-rate property: some step of the tail squares the error up to
# a constant, i.e. reaches a local log-log slope of at least this much.
MIN_TAIL_SLOPE = 1.5
# The error floor below which rounding, not the method, sets the error.
FLOOR_ULPS = 100.0


class CheckFailed(AssertionError):
    """A solver output failed a benchmark check."""


def data_array(values, dims) -> np.ndarray:
    """The flat values of a tensor as an N-d array (first index fastest)."""
    return np.asarray(values, dtype=np.float64).reshape(tuple(dims), order="F")


def dense_model(factors, weights) -> np.ndarray:
    """The weighted rank-1 sum, built with ``np.einsum``."""
    letters = "abcdefghijklmnop"[: len(factors)]
    spec = ",".join(f"{c}z" for c in letters) + ",z->" + letters
    return np.einsum(spec, *factors, weights)


def half_squared_residual(factors, weights, data: np.ndarray) -> float:
    diff = dense_model(factors, weights) - data
    return 0.5 * float(np.sum(diff * diff))


def check_feasible(factors, weights) -> None:
    """Nonnegative unit-norm factor columns and nonnegative weights."""
    for n, a in enumerate(factors):
        a = np.asarray(a)
        if not np.all(np.isfinite(a)):
            raise CheckFailed(f"factor {n} has a non-finite entry")
        if a.min() < 0.0:
            raise CheckFailed(f"factor {n} has a negative entry {a.min():.3e}")
        norm_err = np.abs(np.sqrt(np.sum(a * a, axis=0)) - 1.0)
        if norm_err.max() > NORM_TOL:
            col = int(np.argmax(norm_err))
            raise CheckFailed(f"factor {n} column {col} is off unit norm by {norm_err[col]:.3e}")
    weights = np.asarray(weights)
    if not np.all(np.isfinite(weights)):
        raise CheckFailed("a weight is not finite")
    if weights.min() < 0.0:
        raise CheckFailed(f"weight {int(np.argmin(weights))} is negative: {weights.min():.3e}")


def objective_tolerance(factors, weights, data: np.ndarray, f_ref: float) -> float:
    """How far two evaluations of the objective may differ by rounding.

    With nonnegative factors and weights every model entry is a sum of
    nonnegative products, so each evaluation moves a residual entry by at
    most a small multiple of ``eps`` times the model and data entries; the
    objective then moves by at most ``||r|| d + d^2 / 2`` for ``d`` the norm
    of those moves.
    """
    n_terms = len(factors) + len(weights)
    d = 16.0 * n_terms * EPS * (float(np.linalg.norm(dense_model(factors, weights))) + float(np.linalg.norm(data)))
    return math.sqrt(2.0 * f_ref) * d + d * d


def check_objective(f_reported: float, factors, weights, data: np.ndarray) -> float:
    """The reported ``f`` equals 1/2 ||model - data||^2; returns the recomputed value."""
    f_ref = half_squared_residual(factors, weights, data)
    tol = objective_tolerance(factors, weights, data, f_ref)
    if not abs(f_reported - f_ref) <= tol:
        raise CheckFailed(f"reported f {f_reported!r} differs from recomputed {f_ref!r} (tolerance {tol:.3e})")
    return f_ref


def check_no_worse_than_start(f_final: float, f_start: float, tol: float) -> None:
    if not f_final <= f_start + tol:
        raise CheckFailed(f"final objective {f_final!r} exceeds the start objective {f_start!r}")


def check_trace(rows) -> None:
    """Rows numbered 0, 1, ...; cumulative counters never decrease; one
    terminal row, last."""
    if not rows:
        raise CheckFailed("empty trace")
    for i, row in enumerate(rows):
        if row.k != i:
            raise CheckFailed(f"trace row {i} is numbered {row.k}")
        if (row.kind == "term") != (i == len(rows) - 1):
            raise CheckFailed(f"trace row {i} has kind {row.kind!r}")
    for prev, row in zip(rows, rows[1:]):
        for name in ("fevals", "gevals", "gramian_applies"):
            if getattr(row, name) < getattr(prev, name):
                raise CheckFailed(f"counter {name} decreases at trace row {row.k}")


def check_prefix(full_rows, short_rows) -> None:
    """A solve stopped at iteration ``k`` repeats the first ``k`` rows of
    the full solve.  Its terminal row is the full solve's row ``k`` without
    the step fields, or, when the full solve halved the stepsize inside the
    linesearch of iteration ``k`` and restarted it, the state before that
    restart: the same iterate, fewer halvings, no more evaluations."""
    k = len(short_rows) - 1
    if k < 0 or k >= len(full_rows):
        raise CheckFailed(f"truncated trace has {len(short_rows)} rows, full trace {len(full_rows)}")
    for i, (a, b) in enumerate(zip(full_rows[:k], short_rows[:k])):
        if a != b:
            raise CheckFailed(f"truncated solve departs from the full solve at trace row {i}")
    a, b = full_rows[k], short_rows[k]
    counters = ("fevals", "gevals", "gramian_applies")
    if a.gamma_halvings == b.gamma_halvings:
        same = ("k", "fx", "fz", "fbe", "rnorm", "gamma") + counters
        ok = all(getattr(a, name) == getattr(b, name) for name in same)
    else:
        ok = (a.k == b.k and a.fx == b.fx and b.gamma_halvings < a.gamma_halvings
              and all(getattr(b, name) <= getattr(a, name) for name in counters))
    if not ok:
        raise CheckFailed(f"truncated solve departs from the full solve at trace row {k}")


def first_row_within(rows, factor: float, f_final: float):
    """First trace row whose projected objective is within ``factor`` of the
    final objective."""
    target = factor * f_final
    for row in rows:
        if row.fz <= target:
            return row
    raise CheckFailed(f"no trace row reaches {factor} times the final objective {f_final!r}")


def matched_relative_error(factors, weights, ref_factors, ref_weights) -> float:
    """Relative distance to a reference after the best rank-1 term matching,
    by trying every permutation of the terms."""
    rank = len(ref_weights)
    ref_flat = np.concatenate([np.ravel(a, order="F") for a in ref_factors] + [ref_weights])
    best = math.inf
    for perm in itertools.permutations(range(rank)):
        perm = list(perm)
        sq = sum(float(np.sum((a[:, perm] - b) ** 2)) for a, b in zip(factors, ref_factors))
        sq += float(np.sum((np.asarray(weights)[perm] - ref_weights) ** 2))
        best = min(best, sq)
    return math.sqrt(best) / float(np.linalg.norm(ref_flat))


def local_slopes(errors, floor: float) -> list[float]:
    """Log-log slopes log(e2/e1) / log(e1/e0) over consecutive errors above ``floor``."""
    usable = [float(e) for e in errors if e is not None and e > floor]
    slopes = []
    for e0, e1, e2 in zip(usable, usable[1:], usable[2:]):
        den = math.log(e1) - math.log(e0)
        if den < 0.0:
            slopes.append((math.log(e2) - math.log(e1)) / den)
    return slopes


def check_quadratic_rate(errors, ref_norm: float) -> float:
    """Some step of the error tail contracts with slope at least
    ``MIN_TAIL_SLOPE``; returns the steepest slope."""
    slopes = local_slopes(errors, FLOOR_ULPS * EPS * ref_norm)
    if not slopes or max(slopes) < MIN_TAIL_SLOPE:
        raise CheckFailed(f"no local convergence slope reaches {MIN_TAIL_SLOPE}: {slopes}")
    return max(slopes)


def check_round_off(rel_error: float, limit: float) -> None:
    if not rel_error <= limit:
        raise CheckFailed(f"matched relative error {rel_error:.3e} to the planted solution exceeds {limit:.1e}")


def check_fewer_gradients(gn_grads: int, pgd_grads: int) -> None:
    if not gn_grads < pgd_grads:
        raise CheckFailed(f"Gauss-Newton needs {gn_grads} gradients to the threshold, PGD {pgd_grads}")


def different_optima(f_a: float, f_b: float) -> bool:
    """The compare study's rule: final objectives more than 5% apart."""
    denom = max(f_a, f_b)
    return denom > 0.0 and abs(f_a - f_b) > 0.05 * denom


def check_round_trip(written, read_back) -> None:
    written = np.asarray(written)
    read_back = np.asarray(read_back)
    if written.shape != read_back.shape or not np.array_equal(written.view(np.uint64), read_back.view(np.uint64)):
        raise CheckFailed("the .ten round trip changed the tensor")
