"""Seeded experiment harness: instance generators, metrics, and two studies.

The quadratic study builds tensors with a known exact nonnegative
factorization, starts the solver about one correct digit away, and measures
the local log-log convergence slope of the term-matched distance to the
planted solution.  The comparison study builds tensors with no exact
nonnegative fit and counts the gradient evaluations each algorithm needs to
come within one percent of its own final objective, pairing the Gauss-Newton
and projected-gradient runs on identical instances and starts.

Every run is reproducible: run ``i`` of an experiment uses seed
``base_seed + i`` for its instance, its perturbation or starting point and
its solver probes, through the named streams in :mod:`ncpd.rng`.
"""

from __future__ import annotations

import math
from dataclasses import astuple, dataclass, fields, replace

import numpy as np

from .constraints import FeasibleSet, project
from .rng import STREAM_INSTANCE, STREAM_PERTURB, STREAM_START, substream
from .solver import (
    SolverConfig,
    SolverResult,
    SolverTrace,
    matched_relative_error,
    panoc_solve,
    pgd_solve,
)
from .tensors import CpdPoint, CpdStructure, DenseTensor, as_integer, format_csv, tensor_from_cpd, write_json

__all__ = [
    "InstanceSpec",
    "gen_exact_instance",
    "gen_inexact_instance",
    "perturb_solution",
    "random_feasible_point",
    "convergence_slope",
    "gradient_count_to_threshold",
    "quadratic_run",
    "compare_instance",
    "gradients_to_1pct",
    "QuadraticRun",
    "CompareRun",
    "ExperimentReport",
    "run_experiment_quadratic",
    "run_experiment_compare",
]


@dataclass(frozen=True)
class InstanceSpec:
    """Shape and distribution parameters of one random instance."""

    dims: tuple[int, ...] = (10, 10, 10)
    rank: int = 5
    seed: int = 0
    zeros_per_factor: int = 10
    negative_entries_per_factor: int = 10

    def __post_init__(self):
        structure = CpdStructure(self.dims, self.rank)  # validates dims and rank
        for name in ("seed", "zeros_per_factor", "negative_entries_per_factor"):
            as_integer(getattr(self, name), name)
        per_factor = min(d * self.rank for d in structure.dims)
        if not 0 <= self.zeros_per_factor <= per_factor:
            raise ValueError(
                f"zeros_per_factor {self.zeros_per_factor} out of range [0, {per_factor}]"
            )
        if not 0 <= self.negative_entries_per_factor <= per_factor:
            raise ValueError(
                f"negative_entries_per_factor {self.negative_entries_per_factor} "
                f"out of range [0, {per_factor}]"
            )

    @property
    def structure(self) -> CpdStructure:
        return CpdStructure(self.dims, self.rank)


def _scatter(a: np.ndarray, flat_positions: np.ndarray, values) -> None:
    # Flat positions are interpreted column-major, like everything else here.
    a[np.unravel_index(flat_positions, a.shape, order="F")] = values


def gen_exact_instance(spec: InstanceSpec) -> tuple[DenseTensor, CpdPoint]:
    """A tensor with a planted feasible factorization that fits it exactly.

    Factors are standard-uniform with ``zeros_per_factor`` entries zeroed
    (positions uniform without replacement; the factor is redrawn in the
    unlikely event a whole column is zeroed).  Column norms are folded into
    the weights, so the planted point is feasible and its objective is
    exactly zero.
    """
    rng = substream(spec.seed, STREAM_INSTANCE)
    factors = []
    for dim in spec.dims:
        for _ in range(20):
            a = rng.uniform(size=(dim, spec.rank))
            if spec.zeros_per_factor:
                pos = rng.choice(dim * spec.rank, size=spec.zeros_per_factor, replace=False)
                _scatter(a, pos, 0.0)
            if np.all(np.any(a > 0.0, axis=0)):
                break
        else:
            raise RuntimeError(f"could not draw a factor without a zero column (seed {spec.seed})")
        factors.append(a)
    norms = [np.linalg.norm(a, axis=0) for a in factors]
    weights = np.ones(spec.rank)
    for nrm in norms:
        weights = weights * nrm
    point = CpdPoint([a / nrm[None, :] for a, nrm in zip(factors, norms)], weights)
    return tensor_from_cpd(point), point


def gen_inexact_instance(spec: InstanceSpec) -> DenseTensor:
    """A tensor with no exact feasible fit: standard-uniform factors with
    ``negative_entries_per_factor`` entries replaced by uniform draws from
    [-0.01, 0), multiplied out with unit weights.  Only the tensor is returned."""
    rng = substream(spec.seed, STREAM_INSTANCE)
    factors = []
    for dim in spec.dims:
        a = rng.uniform(size=(dim, spec.rank))
        k = spec.negative_entries_per_factor
        if k:
            pos = rng.choice(dim * spec.rank, size=k, replace=False)
            _scatter(a, pos, rng.uniform(-0.01, 0.0, size=k))
        factors.append(a)
    return tensor_from_cpd(CpdPoint(factors, np.ones(spec.rank)))


def perturb_solution(
    reference: CpdPoint,
    seed: int,
    sigma: float = 0.1,
    rel_window: tuple[float, float] = (0.02, 0.3),
    max_draws: int = 20,
) -> CpdPoint:
    """A feasible start about one digit away from ``reference``.

    Adds isotropic Gaussian noise scaled so its expected norm is ``sigma``
    times the reference norm, projects, and accepts when the term-matched
    relative error lands in ``rel_window``; otherwise redraws from a fresh
    substream, up to ``max_draws`` times.
    """
    structure = reference.structure
    fset = FeasibleSet(structure)
    if sigma == 0.0:
        # the reference is feasible by precondition; projecting would shift
        # column norms by an ulp and break exact-return expectations
        return reference
    scale = sigma * reference.norm() / math.sqrt(structure.size)
    lo, hi = rel_window
    for attempt in range(max_draws):
        rng = substream(seed, STREAM_PERTURB, attempt)
        start = project(fset, reference.flat + scale * rng.standard_normal(structure.size))
        rel = matched_relative_error(start, reference)
        if lo <= rel <= hi:
            return start
    raise RuntimeError(
        f"no perturbation within relative error {rel_window} in {max_draws} draws (seed {seed})"
    )


def random_feasible_point(structure: CpdStructure, seed: int) -> CpdPoint:
    """Projection of a standard-uniform draw onto the feasible set."""
    rng = substream(seed, STREAM_START)
    return project(FeasibleSet(structure), rng.uniform(size=structure.size))


def convergence_slope(errors, floor: float) -> float | None:
    """Local log-log slope from the last three errors above ``floor``.

    Returns ``None`` when fewer than three usable errors remain or the
    denominator vanishes.  Invariant under rescaling all errors.
    """
    usable = [float(e) for e in errors if e is not None and e > floor]
    if len(usable) < 3:
        return None
    e0, e1, e2 = usable[-3:]
    den = math.log(e1) - math.log(e0)
    if den == 0.0:
        return None
    return (math.log(e2) - math.log(e1)) / den


def gradient_count_to_threshold(trace: SolverTrace, f_target: float) -> tuple[int, bool]:
    """Cumulative gradient evaluations at the first iteration whose projected
    objective reaches ``f_target``; the total count with a False flag when
    the target is never reached."""
    for rec in trace:
        if rec.fz <= f_target:
            return rec.gevals, True
    last = trace[len(trace) - 1]
    return last.gevals, False


# --- the studies' runs ---------------------------------------------------------


def quadratic_run(spec: InstanceSpec, cfg: SolverConfig) -> tuple[SolverResult, float, float | None]:
    """The quadratic study's run of ``spec.seed``: :func:`panoc_solve`,
    with ``cfg`` seeded by ``spec.seed``, of the exact instance of ``spec``
    from its perturbed planted point, tracking the error to that point.
    Returns the result, the slope floor 100 eps ||x*|| and the convergence
    slope of the errors above it."""
    tensor, planted = gen_exact_instance(spec)
    result = panoc_solve(tensor, perturb_solution(planted, spec.seed), replace(cfg, seed=spec.seed), reference=planted)
    floor = 100.0 * np.finfo(np.float64).eps * planted.norm()
    return result, floor, convergence_slope([rec.err for rec in result.trace], floor)


def compare_instance(spec: InstanceSpec) -> tuple[DenseTensor, CpdPoint]:
    """The comparison study's inexact instance of ``spec`` and the start
    point of its seed, which both algorithms solve from."""
    return gen_inexact_instance(spec), random_feasible_point(spec.structure, spec.seed)


def gradients_to_1pct(result: SolverResult) -> tuple[int, bool]:
    """The comparison study's count: :func:`gradient_count_to_threshold`
    at one percent above the solve's own final objective."""
    return gradient_count_to_threshold(result.trace, 1.01 * result.f)


# --- reports -------------------------------------------------------------------


@dataclass(frozen=True)
class QuadraticRun:
    run: int
    seed: int
    converged: bool
    final_f: float
    iterations: int
    slope: float | None


@dataclass(frozen=True)
class CompareRun:
    run: int
    seed: int
    flagged: bool
    panoc_gradients: int
    pgd_gradients: int
    panoc_reached: bool
    pgd_reached: bool
    panoc_final_f: float
    pgd_final_f: float


class ExperimentReport:
    """Per-run records plus aggregate statistics, serializable as CSV + JSON.

    Serialization is deterministic: stable column order, 17-significant-digit
    decimals, sorted JSON keys, no timestamps.  ``traces`` holds the solver
    traces of every run, in record order, when the study was asked to keep
    them, and is ``None`` otherwise; it is not serialized.
    """

    def __init__(self, name: str, records: list, aggregate: dict, traces: list | None = None):
        self.name = name
        self.records = records
        self.aggregate = aggregate
        self.traces = traces

    def to_csv_string(self) -> str:
        if not self.records:
            return ""
        return format_csv([f.name for f in fields(self.records[0])], map(astuple, self.records))

    def write_csv(self, path) -> None:
        with open(path, "w", encoding="ascii") as fh:
            fh.write(self.to_csv_string())

    def write_json(self, path) -> None:
        write_json(path, self.aggregate)


def _quartiles(values) -> tuple[float | None, float | None, float | None]:
    if not values:
        return None, None, None
    q1, q2, q3 = np.percentile(np.asarray(values, dtype=np.float64), [25.0, 50.0, 75.0])
    return float(q1), float(q2), float(q3)


def _study_settings(runs: int, cfg, instance) -> tuple[SolverConfig, InstanceSpec]:
    """``cfg`` and ``instance``, each defaulted when ``None``, once ``runs``
    is checked."""
    if runs < 1:
        raise ValueError(f"runs must be at least 1, got {runs}")
    return SolverConfig() if cfg is None else cfg, InstanceSpec() if instance is None else instance


def run_experiment_quadratic(
    runs: int = 50,
    base_seed: int = 1,
    cfg: SolverConfig | None = None,
    instance: InstanceSpec | None = None,
    keep_traces: bool = False,
) -> ExperimentReport:
    """Exact-instance study: local convergence slopes near planted solutions."""
    cfg, instance = _study_settings(runs, cfg, instance)
    records = []
    traces = []
    for i in range(runs):
        seed = base_seed + i
        result, _, slope = quadratic_run(replace(instance, seed=seed), cfg)
        records.append(
            QuadraticRun(
                run=i,
                seed=seed,
                converged=result.converged,
                final_f=result.f,
                iterations=result.iterations,
                slope=slope,
            )
        )
        if keep_traces:
            traces.append(result.trace)
    slopes = [r.slope for r in records if r.slope is not None]
    edges = [round(0.1 * j, 1) for j in range(31)]
    hist, _ = np.histogram(slopes, bins=np.asarray(edges)) if slopes else (np.zeros(30, dtype=int), None)
    q1, median, q3 = _quartiles(slopes)
    aggregate = {
        "experiment": "quadratic",
        "runs": runs,
        "base_seed": base_seed,
        "n_converged": sum(r.converged for r in records),
        "n_slope_defined": len(slopes),
        "median_slope": median,
        "q1_slope": q1,
        "q3_slope": q3,
        "slope_histogram": {
            "edges": edges,
            "counts": [int(c) for c in hist],
            "below": int(sum(1 for s in slopes if s < 0.0)),
            "above": int(sum(1 for s in slopes if s > 3.0)),
        },
        "max_final_f": max((r.final_f for r in records), default=None),
    }
    return ExperimentReport("quadratic", records, aggregate, traces if keep_traces else None)


def run_experiment_compare(
    runs: int = 50,
    base_seed: int = 1,
    cfg: SolverConfig | None = None,
    instance: InstanceSpec | None = None,
    keep_traces: bool = False,
) -> ExperimentReport:
    """Paired study on inexact instances: gradient evaluations to reach one
    percent above each algorithm's own final objective.

    Runs whose two final objectives differ by more than five percent are
    flagged as having reached different local optima and excluded from the
    win rate.
    """
    cfg, instance = _study_settings(runs, cfg, instance)
    records = []
    traces = []
    for i in range(runs):
        seed = base_seed + i
        tensor, start = compare_instance(replace(instance, seed=seed))
        run_cfg = replace(cfg, seed=seed)
        res_gn = panoc_solve(tensor, start, run_cfg)
        res_pg = pgd_solve(tensor, start, run_cfg)
        count_gn, reached_gn = gradients_to_1pct(res_gn)
        count_pg, reached_pg = gradients_to_1pct(res_pg)
        denom = max(res_gn.f, res_pg.f)
        flagged = denom > 0.0 and abs(res_gn.f - res_pg.f) > 0.05 * denom
        records.append(
            CompareRun(
                run=i,
                seed=seed,
                flagged=flagged,
                panoc_gradients=count_gn,
                pgd_gradients=count_pg,
                panoc_reached=reached_gn,
                pgd_reached=reached_pg,
                panoc_final_f=res_gn.f,
                pgd_final_f=res_pg.f,
            )
        )
        if keep_traces:
            traces.append((res_gn.trace, res_pg.trace))
    paired = [r for r in records if not r.flagged]
    wins = sum(1 for r in paired if r.panoc_gradients < r.pgd_gradients)
    log_edges = [round(0.25 * j, 2) for j in range(19)]

    def log_hist(counts):
        vals = [math.log10(max(c, 1)) for c in counts]
        hist, _ = np.histogram(vals, bins=np.asarray(log_edges))
        return [int(c) for c in hist]

    q1_gn, median_gn, q3_gn = _quartiles([r.panoc_gradients for r in records])
    q1_pg, median_pg, q3_pg = _quartiles([r.pgd_gradients for r in records])
    aggregate = {
        "experiment": "compare",
        "runs": runs,
        "base_seed": base_seed,
        "n_flagged": len(records) - len(paired),
        "median_panoc_gradients": median_gn,
        "median_pgd_gradients": median_pg,
        "q1_panoc_gradients": q1_gn,
        "q3_panoc_gradients": q3_gn,
        "q1_pgd_gradients": q1_pg,
        "q3_pgd_gradients": q3_pg,
        "win_rate_excluding_flagged": (wins / len(paired)) if paired else None,
        "wins_excluding_flagged": wins,
        "paired_runs": len(paired),
        "gradient_histogram_log10": {
            "edges": log_edges,
            "panoc": log_hist([r.panoc_gradients for r in records]),
            "pgd": log_hist([r.pgd_gradients for r in records]),
        },
    }
    return ExperimentReport("compare", records, aggregate, traces if keep_traces else None)
