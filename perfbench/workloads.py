"""The benchmark's workloads: inputs, set-up, and the solves of one round.

Every workload is a fixed panel of the paper's random instances, named by
their study seeds, with the study's own start points; ``--seed`` shuffles
the order in which a round visits them.  The panel is fixed because the
solvers' work on an instance is chaotic: relabelling an instance by a
seeded permutation of its indices and terms changes only the rounding, yet
moves Gauss-Newton's iteration count (6 or 7 on quadratic instances, 16 to
27 on compare instances), and a seed-dependent panel made the per-run
medians spread by 0.17 to 0.30 of their value across five seeds.

Set-up is timed in fresh processes (``setup_child.py``), in blocks of
``setup_passes`` passes over the inputs, ``setup_blocks`` blocks per
process; a block takes about 0.1 s, or one pass of about 0.6 s on
``large``.
"""

from __future__ import annotations

import hashlib
import time
from contextlib import nullcontext
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

import ncpd.experiments as experiments
import ncpd.solver as solver
import ncpd.tensors as tensors

import checks

THRESHOLD = 1.01  # the compare study's "within 1% of the final objective"
ROUND_OFF = 1e-10  # matched relative error of an exact fit at round-off level


@dataclass(frozen=True)
class Workload:
    name: str
    dims: tuple[int, ...]
    rank: int
    exact: bool  # planted exact fits (quadratic study) or inexact instances
    panel: tuple[int, ...]  # study seeds of the instances
    gn_max_iters: int
    pgd_max_iters: int
    setup_passes: int  # set-up passes per timed block
    setup_blocks: int  # timed blocks per set-up process

    def spec(self, study_seed: int) -> experiments.InstanceSpec:
        return experiments.InstanceSpec(dims=self.dims, rank=self.rank, seed=study_seed)

    def config(self, study_seed: int, algo: str) -> solver.SolverConfig:
        max_iters = self.gn_max_iters if algo == "gn" else self.pgd_max_iters
        return solver.SolverConfig(seed=study_seed, max_iters=max_iters)


WORKLOADS = {
    w.name: w
    for w in (
        Workload("quadratic", (10, 10, 10), 5, True, tuple(range(1, 9)), 2000, 500, 10, 2),
        Workload("compare", (10, 10, 10), 5, False, (3,), 2000, 2000, 100, 2),
        Workload("large", (30, 30, 30, 30), 8, False, (1,), 3, 100, 1, 1),
    )
}


@dataclass(frozen=True)
class Input:
    study_seed: int
    path: Path
    values: np.ndarray | None = None  # the tensor as written to ``path``


@dataclass
class Instance:
    study_seed: int
    tensor: tensors.DenseTensor
    start: tensors.CpdPoint
    planted: tensors.CpdPoint | None
    # filled in by ``prepare_checks``, outside the timed set-up
    data: np.ndarray | None = None
    f_start: float = 0.0
    f_start_tol: float = 0.0


def input_files(w: Workload, seed: int, directory: Path) -> list[Input]:
    """The panel's ``.ten`` files in ``directory``, in the order given by ``seed``."""
    return [Input(int(j), directory / f"{w.name}-{int(j)}.ten")
            for j in np.random.default_rng(seed).permutation(w.panel)]


def make_inputs(w: Workload, seed: int, directory: Path) -> list[Input]:
    """Generate the panel's tensors and write them as ``.ten`` files."""
    inputs = []
    for inp in input_files(w, seed, directory):
        if w.exact:
            tensor, _ = experiments.gen_exact_instance(w.spec(inp.study_seed))
        else:
            tensor = experiments.gen_inexact_instance(w.spec(inp.study_seed))
        tensors.ten_write(inp.path, tensor)
        inputs.append(replace(inp, values=tensor.values.copy()))
    return inputs


def set_up(w: Workload, inputs: list[Input]) -> list[Instance]:
    """The program's set-up before the first solve: read each tensor file
    (the ``ncpd decompose`` path) and generate the start points, and for
    exact instances the planted solutions, from the study seeds."""
    instances = []
    for inp in inputs:
        tensor = tensors.ten_read(inp.path)
        j = inp.study_seed
        if w.exact:
            _, planted = experiments.gen_exact_instance(w.spec(j))
            start = experiments.perturb_solution(planted, j)
        else:
            planted = None
            start = experiments.random_feasible_point(w.spec(j).structure, j)
        instances.append(Instance(j, tensor, start, planted))
    return instances


def prepare_checks(inputs: list[Input], instances: list[Instance]) -> None:
    """Check the ``.ten`` round trip and recompute the start objectives."""
    for inp, inst in zip(inputs, instances):
        checks.check_round_trip(inp.values, inst.tensor.values)
        inst.data = checks.data_array(inp.values, inst.tensor.dims)
        factors, weights = inst.start.factors, inst.start.weights
        inst.f_start = checks.half_squared_residual(factors, weights, inst.data)
        inst.f_start_tol = checks.objective_tolerance(factors, weights, inst.data, inst.f_start)


@dataclass
class Solve:
    study_seed: int
    algo: str  # "gn" or "pgd"
    seconds: float
    result: solver.SolverResult | None
    to_1pct_seconds: float = 0.0
    grads_to_1pct: int = 0
    summary: dict = field(default_factory=dict)

    def release(self) -> None:
        """Keep the figures the metrics need and drop the result, so that
        memory does not grow with the number of rounds."""
        res = self.result
        rows = res.trace.records
        self.summary = {
            "iterations": res.iterations,
            "f": res.f,
            "reason": res.reason,
            "gamma_halvings": sum(row.gamma_halvings for row in rows),
            "tau_halvings": sum(row.tau_halvings for row in rows),
            "gn_steps": sum(row.kind == "gn" for row in rows),
        }
        self.result = None


def solve(w: Workload, inst: Instance, algo: str, around=None) -> Solve:
    """One timed solve.  ``around`` is a context manager entered around the
    solver call only: the traced run's wrappers."""
    reference = inst.planted if algo == "gn" else None
    cfg = w.config(inst.study_seed, algo)
    with around if around is not None else nullcontext():
        fn = solver.panoc_solve if algo == "gn" else solver.pgd_solve  # looked up once wrapped
        began = time.perf_counter()
        result = fn(inst.tensor, inst.start, cfg, reference)
        seconds = time.perf_counter() - began
    return Solve(inst.study_seed, algo, seconds, result)


def time_to_threshold(w: Workload, inst: Instance, s: Solve) -> None:
    """Wall time and gradients until the solve's returned objective first
    reaches 1.01x its final one.

    Solves are deterministic, so the time is that of a re-run stopped with
    ``max_iters`` at the first trace row within the threshold, whose trace
    must repeat the prefix.  A re-run stopped at row ``k`` ends on the state
    validated at the top of iteration ``k``.  When the full solve halved its
    stepsize inside that iteration's linesearch, its row ``k`` is the state
    after the restart, and the stopped re-run may not reach the threshold
    yet; then the re-run stopped one row later is used.  The gradients are
    those of the row the used re-run ends on, so the time and the count
    describe the same run.  A stop at the last row is the full solve.
    Raises :class:`checks.CheckFailed` when neither re-run reaches the
    threshold.
    """
    rows = s.result.trace.records
    target = THRESHOLD * s.result.f
    first = max(checks.first_row_within(rows, THRESHOLD, s.result.f).k, 1)
    reference = inst.planted if s.algo == "gn" else None
    fn = solver.panoc_solve if s.algo == "gn" else solver.pgd_solve
    for k in (first, first + 1):
        if k >= len(rows) - 1:
            s.to_1pct_seconds, s.grads_to_1pct = s.seconds, rows[-1].gevals
            return
        cfg = replace(w.config(inst.study_seed, s.algo), max_iters=k)
        began = time.perf_counter()
        short = fn(inst.tensor, inst.start, cfg, reference)
        seconds = time.perf_counter() - began
        checks.check_prefix(rows, short.trace.records)
        if short.f <= target:
            s.to_1pct_seconds, s.grads_to_1pct = seconds, short.trace.records[-1].gevals
            return
    raise checks.CheckFailed(
        f"neither re-run stopped at trace row {first} or {first + 1} reaches {THRESHOLD} times the final objective")


def instances_digest(instances: list[Instance]) -> str:
    """SHA-256 of the instances' tensors, start points and planted
    solutions, so that set-up passes in other processes can be compared
    bit for bit."""
    h = hashlib.sha256()
    for inst in instances:
        h.update(str(inst.study_seed).encode())
        for arr in (inst.tensor.values, inst.start.flat, inst.planted.flat if inst.planted else np.empty(0)):
            h.update(np.ascontiguousarray(arr).tobytes())
    return h.hexdigest()


def check_solve(w: Workload, inst: Instance, s: Solve) -> None:
    """Checks that hold for every solve, plus the quadratic study's own."""
    res = s.result
    factors, weights = res.point.factors, res.point.weights
    checks.check_feasible(factors, weights)
    checks.check_objective(res.f, factors, weights, inst.data)
    checks.check_no_worse_than_start(res.f, inst.f_start, inst.f_start_tol)
    checks.check_trace(res.trace.records)
    if w.exact and s.algo == "gn":
        if res.reason != "tolerance":
            raise checks.CheckFailed(f"Gauss-Newton stopped by {res.reason!r} on an exact instance")
        planted = inst.planted
        rel = checks.matched_relative_error(factors, weights, planted.factors, planted.weights)
        checks.check_round_off(rel, ROUND_OFF)
        ref_norm = float(np.linalg.norm(np.concatenate([a.ravel() for a in planted.factors] + [planted.weights])))
        checks.check_quadratic_rate([row.err for row in res.trace.records], ref_norm)


def check_pair(w: Workload, gn: Solve, pgd: Solve) -> None:
    """The compare study's claim on pairs that reached the same optimum."""
    if w.name == "compare" and not checks.different_optima(gn.summary["f"], pgd.summary["f"]):
        checks.check_fewer_gradients(gn.grads_to_1pct, pgd.grads_to_1pct)
