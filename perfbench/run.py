"""Benchmark of the ncpd Gauss-Newton and PGD solves, one workload per process.

    python3 perfbench/run.py --workload quadratic --seed 1 --seconds 30 --trace 0

Run from the root of a checkout.  The package is imported from ``src/`` of
that checkout.  The last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics of ``BENCHMARK.json`` with ``--trace 0``, its per-layer metrics
with ``--trace 1``.  See ``perfbench/README.md``.
"""

import os

# One BLAS thread, fixed before numpy loads.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from contextlib import nullcontext
from dataclasses import asdict
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
DATA_DIR = HERE / "_data"  # generated .ten inputs, removed when the run ends
RUNS_DIR = HERE / "_runs"  # one JSON record per run
SETUP_PROCESSES = 6  # timed set-up processes per untraced run


class Tally:
    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []


class SetUp:
    """The program's set-up before the first solve.

    One pass in this process builds the instances the solves use; in a
    traced run it makes ``setup_passes * setup_blocks`` traced passes.  The
    timed set-up runs in ``SETUP_PROCESSES`` fresh processes
    (``setup_child.py``), started between operations at even intervals of
    the run.  The set-up figure is then a median over processes and over
    the whole run, like the solve times: on small inputs the time of a
    pass differs between processes by up to a factor 1.7.  ``times`` holds
    each timed block's time per pass.  Every process must build the same
    instances, bit for bit.
    """

    def __init__(self, w, seed, inputs, workdir, tally: Tally, tracer=None):
        import layers
        import workloads

        self.w, self.seed, self.workdir, self.tally = w, seed, workdir, tally
        self.passes = w.setup_passes * w.setup_blocks if tracer else 1
        with layers.traced_setup(tracer) if tracer else nullcontext():
            for _ in range(self.passes):
                self.instances = workloads.set_up(w, inputs)
        self.digest = workloads.instances_digest(self.instances)
        self.times: list[float] = []
        self.processes = 0

    def sample_due(self, elapsed: float, seconds: float) -> None:
        """Start the next set-up process when its share of the run has begun."""
        if self.processes < SETUP_PROCESSES and elapsed >= self.processes * seconds / SETUP_PROCESSES:
            self.sample()

    def sample(self) -> None:
        self.processes += 1
        cmd = [sys.executable, str(HERE / "setup_child.py"), "--workload", json.dumps(asdict(self.w)),
               "--seed", str(self.seed), "--dir", str(self.workdir)]
        out = subprocess.run(cmd, capture_output=True, text=True, timeout=120)
        if out.returncode != 0:
            raise RuntimeError(f"set-up process exited with {out.returncode}:\n{out.stderr[-2000:]}")
        record = json.loads(out.stdout.splitlines()[-1])
        self.times += record["times"]
        if record["digests"] != [self.digest]:
            self.tally.problems.append(f"{self.w.name} set-up: another process built other instances")


def operation(w, inst, algo, tally, around=None, threshold=True):
    """One operation: a solve, its re-run to the 1% threshold, and its
    checks.  A solve or re-run that raises makes the operation failed and
    gives None; a failed check is recorded in ``tally.problems``."""
    import checks
    import workloads

    tally.attempted += 1
    try:
        s = workloads.solve(w, inst, algo, around() if around else None)
        if threshold:
            workloads.time_to_threshold(w, inst, s)
    except checks.CheckFailed as exc:
        tally.problems.append(f"{w.name} instance {inst.study_seed} {algo}: {exc}")
    except Exception:
        tally.failed += 1
        traceback.print_exc(file=sys.stderr)
        return None
    try:
        workloads.check_solve(w, inst, s)
    except checks.CheckFailed as exc:
        tally.problems.append(f"{w.name} instance {inst.study_seed} {algo}: {exc}")
    s.release()
    return s


def run_round(w, instances, tally, tracing=None, before=None):
    """Every instance of the workload once: a Gauss-Newton and a PGD
    operation from the same start.  With
    ``tracing`` (a function giving the context the traced solver calls run
    in) each untraced solve is followed by the same solve traced, checked
    but not re-run.  ``before()`` is called before every operation.
    Returns the untraced and the traced (GN, PGD) pairs."""
    import checks
    import workloads

    pairs, traced_pairs = [], []
    for inst in instances:
        pair, traced_pair = [], []
        for algo in ("gn", "pgd"):
            if before is not None:
                before()
            s = operation(w, inst, algo, tally)
            if s is not None:
                pair.append(s)
            if tracing is not None:
                t = operation(w, inst, algo, tally, tracing, threshold=False)
                if t is not None:
                    traced_pair.append(t)
                    if s is not None and s.summary != t.summary:
                        tally.problems.append(f"{w.name} instance {inst.study_seed} {algo}: tracing changed the result")
        if len(pair) == 2:
            try:
                workloads.check_pair(w, *pair)
            except checks.CheckFailed as exc:
                tally.problems.append(f"{w.name} instance {inst.study_seed}: {exc}")
            pairs.append(tuple(pair))
        if len(traced_pair) == 2:
            traced_pairs.append(tuple(traced_pair))
    return pairs, traced_pairs


def run(w, seed: int, seconds: float, trace: bool, workdir: Path):
    """Returns the tally, the metric values and the details for the run record.

    Rounds run until ``seconds`` is used up; a new round starts only while
    at least half a round's time is left.
    """
    import layers
    import workloads
    from tracing import Tracer

    tally = Tally()
    inputs = workloads.make_inputs(w, seed, workdir)
    setup_tracer = Tracer() if trace else None
    setup = SetUp(w, seed, inputs, workdir, tally, setup_tracer)
    instances = setup.instances
    workloads.prepare_checks(inputs, instances)

    solve_tracer = Tracer()
    directions = layers.DirectionLog()
    tracing = (lambda: layers.traced_solve(solve_tracer, directions)) if trace else None
    pairs, traced = [], []
    began = time.perf_counter()
    before = None if trace else lambda: setup.sample_due(time.perf_counter() - began, seconds)
    while True:
        round_began = time.perf_counter()
        new_pairs, new_traced = run_round(w, instances, tally, tracing, before)
        pairs += new_pairs
        traced += new_traced
        now = time.perf_counter()
        if now - began + 0.5 * (now - round_began) >= seconds:
            break

    if not trace:
        values = median_metrics(pairs, setup.times)
        return tally, values, {"solves": solve_table(pairs), "setup_s": setup.times}

    values = layers.layer_metrics(solve_tracer, setup_tracer, directions, traced,
                                  setup.passes, w.dims, w.rank, trace_overhead(pairs, traced))
    details = {
        phase: {name: vars(stats) for name, stats in tracer.stats.items()}
        for phase, tracer in (("setup", setup_tracer), ("solve", solve_tracer))
    }
    details["solves"] = solve_table(pairs)
    details["traced_solves"] = solve_table(traced)
    return tally, values, details


def trace_overhead(pairs, traced_pairs) -> float:
    """The traced run's overhead: the median traced time of each (instance,
    solver) over its median untraced time, summed over both, minus 1.  The
    untraced and traced solves of one instance run back to back."""
    def medians(all_pairs):
        times = {}
        for pair in all_pairs:
            for s in pair:
                times.setdefault((s.study_seed, s.algo), []).append(s.seconds)
        return {key: statistics.median(v) for key, v in times.items()}

    untraced, traced = medians(pairs), medians(traced_pairs)
    return sum(traced.values()) / sum(untraced[key] for key in traced) - 1.0


def solve_table(pairs) -> list[dict]:
    """One row per solve, for the run record."""
    return [
        dict(pair=i, instance=s.study_seed, algo=s.algo, seconds=s.seconds, to_1pct_seconds=s.to_1pct_seconds,
             grads_to_1pct=s.grads_to_1pct, **s.summary)
        for i, pair in enumerate(pairs) for s in pair
    ]


def median_metrics(pairs, setup_times) -> dict[str, float]:
    med = statistics.median
    by_algo = {algo: [s for pair in pairs for s in pair if s.algo == algo] for algo in ("gn", "pgd")}
    values = {"setup_s": med(setup_times)}
    for algo, solves in by_algo.items():
        values[f"{algo}_solve_s"] = med(s.seconds for s in solves)
        values[f"{algo}_to_1pct_s"] = med(s.to_1pct_seconds for s in solves)
        values[f"{algo}_grads_to_1pct"] = med(s.grads_to_1pct for s in solves)
    # ru_maxrss is in KiB on Linux
    values["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6
    return values


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative")
    if not args.seconds > 0:
        parser.error("--seconds must be positive")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "ncpd" / "__init__.py").is_file():
        print(f"error: no ncpd package under {SRC}; run from a checkout of the repository", file=sys.stderr)
        return 2
    spec_path = ROOT / "BENCHMARK.json"
    spec = json.loads(spec_path.read_text(encoding="utf-8"))
    sys.path[:0] = [str(SRC), str(HERE)]
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from {sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    w = workloads.WORKLOADS[args.workload]

    workdir = DATA_DIR / f"run-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        tally, values, details = run(w, args.seed, args.seconds, bool(args.trace), workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    missing = [m["name"] for m in wanted if m["name"] not in values]
    if missing:
        print(f"error: metrics not computed: {missing}", file=sys.stderr)
        return 1
    for problem in tally.problems:
        print(f"check failed: {problem}", file=sys.stderr)
    result = {
        "correct": not tally.problems,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted},
    }
    RUNS_DIR.mkdir(exist_ok=True)
    record = dict(result, workload=w.name, seed=args.seed, seconds=args.seconds, trace=args.trace,
                  problems=tally.problems, details=details)
    out = RUNS_DIR / f"{w.name}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
