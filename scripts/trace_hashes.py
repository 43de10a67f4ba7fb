#!/usr/bin/env python
"""SHA-256 fingerprints of the solver's traces and final points.

Runs fixed solves and prints, per group, the SHA-256 of the concatenated
trace CSVs, the same with one column left out (``--without``), the same
with only the columns that count steps and work kept (``steps=``: ``k``,
``gh``, ``th``, ``kind``, ``fevals``, ``gevals`` and ``gapplies``), the
SHA-256 of the concatenated final points (flat float64 bytes), and the
final ``fevals``, ``gevals`` and objective ``f`` (17 significant digits) of
every run.  Two checkouts whose hashes agree produce the same traces and
points byte for byte; where they differ by rounding alone, the ``steps=``
hashes agree and ``f`` shows how far.  Run it against each checkout with
``PYTHONPATH=<checkout>/src python scripts/trace_hashes.py``.

With ``--baseline FILE``, the saved output of another run (with the same
groups and options), it also prints a verdict after each group's lines:
``<group>  same``; with ``--without COLUMN``, ``<group>  only COLUMN
COLUMN <before> → <after>`` when the traces differ in that column alone
(the ``traces-without-COLUMN=`` hashes, the ``points=`` and the ``f=``
agree), with each run's final value of the column in the baseline and
now; ``<group>  rounding  max |Δf|/f <x>`` when the ``traces=`` hashes
differ but the ``steps=`` hashes agree, with the largest relative change
of a run's final ``f``; or ``<group>  differs``.  With ``--without``, a
group's line also gives each run's final value of the column, unless a
field already does (``fevals``, ``gevals``, ``f``).  It exits with status
1 on any difference, so that a change meant to keep every bit is checked
by one command::

    PYTHONPATH=<parent>/src python scripts/trace_hashes.py > parent.txt
    PYTHONPATH=src python scripts/trace_hashes.py --baseline parent.txt

Groups:

* ``quadratic``: the 50-run quadratic study, base seed 1 (traces with the
  reference-error column).  Below its hash line come acceptance test A1's
  count of converged runs whose convergence slope reaches 1.5, the median
  slope, and each converged run short of 1.5 with its last error next to
  its slope floor of 100 eps ||x*||;
* ``compare-gn`` / ``compare-pgd``: compare-study seeds 1-3, Gauss-Newton
  and projected gradient;
* ``large-gn`` / ``large-pgd``: the (30,30,30,30) rank-8 inexact instance
  of study seed 1 from its study start point, 3 Gauss-Newton or 100
  projected-gradient iterations;
* ``runs-gn``: Gauss-Newton solves to their stop of inexact instances
  whose mode sizes form several runs, (6,5,4,3) and (5,4,3,3,2) rank 3
  with 2 zeros and 2 negative entries per factor, seeds 1-3 each, from the
  study start point of their seed;
* ``runs-pgd``: projected-gradient solves of the same instances from the
  same start points, 500 iterations each.

After the groups, one ``exact`` line gives, per shape of the exact-fit
instances ((10,10,10) rank 5 with the study's 10 zeros per factor; (7,5),
(6,5,4,3) and (5,4,3,3,2) rank 3 with 2), how many planted points of seeds
1-20 evaluate to exactly f = 0 on the tensor built from them; with
``--baseline`` it gets a verdict, ``exact  same`` or ``exact  differs``.
Then one ``memory`` line gives, from one fresh process per group, the
growth of ``ru_maxrss`` over the ``large-gn`` solve (the peak resident
memory that solve adds, in MB) and the minor page faults per
``compare-gn`` and ``large-gn`` solve (``ru_minflt``).  These figures vary
from run to run; ``--baseline`` gives no verdict on the ``memory`` line
and skips it in the saved output.

BLAS runs on one thread, so that the results do not depend on the thread
count of the machine.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import csv  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import multiprocessing  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
from concurrent.futures import ProcessPoolExecutor  # noqa: E402
from dataclasses import replace  # noqa: E402

import numpy as np  # noqa: E402

from ncpd.experiments import (  # noqa: E402
    InstanceSpec,
    convergence_slope,
    gen_exact_instance,
    gen_inexact_instance,
    perturb_solution,
    random_feasible_point,
)
from ncpd.solver import SolverConfig, panoc_solve, pgd_solve  # noqa: E402
from ncpd.tensors import objective_value  # noqa: E402

LARGE = InstanceSpec(dims=(30, 30, 30, 30), rank=8, seed=1)
STEP_COLUMNS = ("k", "gh", "th", "kind", "fevals", "gevals", "gapplies")
QUADRATIC_SEEDS = range(1, 51)
EXACT_SPECS = [InstanceSpec()] + [
    InstanceSpec(dims=dims, rank=3, zeros_per_factor=2, negative_entries_per_factor=2)
    for dims in [(7, 5), (6, 5, 4, 3), (5, 4, 3, 3, 2)]
]
EXACT_SEEDS = range(1, 21)
RUN_SPECS = [
    InstanceSpec(dims=dims, rank=3, zeros_per_factor=2, negative_entries_per_factor=2)
    for dims in [(6, 5, 4, 3), (5, 4, 3, 3, 2)]
]


def quadratic():
    """The solves of ``run_experiment_quadratic(runs=50, base_seed=1)``."""
    for seed in QUADRATIC_SEEDS:
        tensor, planted = gen_exact_instance(replace(InstanceSpec(), seed=seed))
        start = perturb_solution(planted, seed)
        yield panoc_solve(tensor, start, SolverConfig(seed=seed), reference=planted)


def slope_lines(results):
    """A1's figures for the quadratic group, as the study computes them."""
    steep, slopes, short = 0, [], []
    for seed, result in zip(QUADRATIC_SEEDS, results):
        if not result.converged:
            continue
        planted = gen_exact_instance(replace(InstanceSpec(), seed=seed))[1]
        floor = 100.0 * np.finfo(np.float64).eps * planted.norm()
        errors = [rec.err for rec in result.trace]
        slope = convergence_slope(errors, floor)
        if slope is not None:
            slopes.append(slope)
        if slope is not None and slope >= 1.5:
            steep += 1
        else:
            shown = "none" if slope is None else format(slope, ".3f")
            short.append(f"  seed {seed}: slope {shown}  last error {errors[-1]:.2e}  floor {floor:.2e}")
    n_converged = sum(r.converged for r in results)
    median = format(float(np.median(slopes)), ".4f") if slopes else "none"
    return [f"quadratic  A1={steep}/{n_converged} converged runs with slope >= 1.5  median={median}"] + short


def compare(solve):
    """One algorithm's solves of ``run_experiment_compare(runs=3, base_seed=1)``."""
    def group():
        spec = InstanceSpec()
        for seed in range(1, 4):
            tensor = gen_inexact_instance(replace(spec, seed=seed))
            yield solve(tensor, random_feasible_point(spec.structure, seed), SolverConfig(seed=seed))
    return group


def large(solve, max_iters):
    def group():
        tensor = gen_inexact_instance(LARGE)
        start = random_feasible_point(LARGE.structure, LARGE.seed)
        yield solve(tensor, start, SolverConfig(seed=LARGE.seed, max_iters=max_iters))
    return group


def runs(gauss_newton: bool):
    """Gauss-Newton solves to their stop, or projected-gradient solves of
    500 iterations, of the ``RUN_SPECS`` instances, seeds 1-3 each."""
    def group():
        for spec in RUN_SPECS:
            for seed in range(1, 4):
                tensor = gen_inexact_instance(replace(spec, seed=seed))
                start = random_feasible_point(spec.structure, seed)
                if gauss_newton:
                    yield panoc_solve(tensor, start, SolverConfig(seed=seed))
                else:
                    yield pgd_solve(tensor, start, SolverConfig(seed=seed, max_iters=500))
    return group


GROUPS = {
    "quadratic": quadratic,
    "compare-gn": compare(panoc_solve),
    "compare-pgd": compare(pgd_solve),
    "large-gn": large(panoc_solve, 3),
    "large-pgd": large(pgd_solve, 100),
    "runs-gn": runs(gauss_newton=True),
    "runs-pgd": runs(gauss_newton=False),
}


def exact_line() -> str:
    """Per exact-fit shape, the count of seeds whose planted point
    evaluates to exactly 0."""
    counts = []
    for spec in EXACT_SPECS:
        hits = 0
        for seed in EXACT_SEEDS:
            tensor, planted = gen_exact_instance(replace(spec, seed=seed))
            hits += objective_value(planted, tensor) == 0.0
        counts.append(f"{','.join(map(str, spec.dims))}r{spec.rank}={hits}/{len(EXACT_SEEDS)}")
    return "  ".join(["exact"] + counts)


def solve_usage(name: str) -> tuple[int, int]:
    """The growth of ``ru_maxrss`` (KiB) and the minor faults per solve over
    the solves of a Gauss-Newton group, set-up left out."""
    make_group = {"compare-gn": compare, "large-gn": lambda solve: large(solve, 3)}[name]
    usage = []

    def metered(*args):
        before = resource.getrusage(resource.RUSAGE_SELF)
        result = panoc_solve(*args)
        after = resource.getrusage(resource.RUSAGE_SELF)
        usage.append((after.ru_maxrss - before.ru_maxrss, after.ru_minflt - before.ru_minflt))
        return result

    list(make_group(metered)())
    grown, faults = map(sum, zip(*usage))
    return grown, faults // len(usage)


def memory_line() -> str:
    """:func:`solve_usage` of ``large-gn`` and ``compare-gn``, each in a
    fresh process, so that neither sees what this one or the other has
    allocated and freed.  A new process starts from the ``ru_maxrss`` of
    the one that forks it, so this must run before the groups raise it."""
    usage = {}
    spawn = multiprocessing.get_context("spawn")
    for name in ("compare-gn", "large-gn"):
        with ProcessPoolExecutor(max_workers=1, mp_context=spawn) as pool:
            usage[name] = pool.submit(solve_usage, name).result()
    return "  ".join([
        "memory",
        f"large-gn maxrss_growth={usage['large-gn'][0] / 1024:.1f}MB",
        f"compare-gn minflt_per_solve={usage['compare-gn'][1]}",
        f"large-gn minflt_per_solve={usage['large-gn'][1]}",
    ])


def select_columns(text: str, keep) -> str:
    """The trace CSV ``text`` with the columns whose names ``keep`` accepts."""
    rows = list(csv.reader(io.StringIO(text)))
    kept = [i for i, name in enumerate(rows[0]) if keep(name)]
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerows([row[i] for i in kept] for row in rows)
    return buf.getvalue()


def without_column(text: str, column: str) -> str:
    header = text.split("\n", 1)[0].split(",")
    if column not in header:
        raise SystemExit(f"no trace column {column!r}; columns are {','.join(header)}")
    return select_columns(text, lambda name: name != column)


def sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def group_lines(name: str, without: str | None) -> list[str]:
    """The output lines of one group."""
    results = list(GROUPS[name]())
    csvs = [r.trace.to_csv_string() for r in results]
    line = [name, f"traces={sha(''.join(csvs).encode())}"]
    if without:
        stripped = "".join(without_column(text, without) for text in csvs)
        line.append(f"traces-without-{without}={sha(stripped.encode())}")
    steps = "".join(select_columns(text, STEP_COLUMNS.__contains__) for text in csvs)
    line.append(f"steps={sha(steps.encode())}")
    line.append(f"points={sha(b''.join(r.point.flat.tobytes() for r in results))}")
    finals = [r.trace.records[-1] for r in results]
    line.append("fevals=" + ",".join(str(rec.fevals) for rec in finals))
    line.append("gevals=" + ",".join(str(rec.gevals) for rec in finals))
    line.append("f=" + ",".join(format(r.f, ".17g") for r in results))
    if without and without not in fields("  ".join(line)):  # each run's last value of the column
        line.append(f"{without}=" + ",".join(select_columns(t, without.__eq__).split("\n")[-2] for t in csvs))
    lines = ["  ".join(line)]
    if name == "quadratic":
        lines += slope_lines(results)
    return lines


def read_baseline(path) -> dict[str, list[str]]:
    """A saved output's lines by group: a line starting with a group name
    or ``exact`` opens or continues that group, and an indented line
    continues the last one.  Verdict lines of an output made with
    ``--baseline`` and the ``memory`` line are skipped."""
    groups, name = {}, None
    with open(path, encoding="utf-8") as fh:
        for line in fh.read().splitlines():
            first = line.split(maxsplit=1)[0] if line.strip() else ""
            if first in GROUPS or first == "exact":
                name = first
            elif first == "memory":
                name = None
            if name is None or line.startswith(tuple(f"{name}  {v}" for v in ("same", "only", "rounding", "differs"))):
                continue
            groups.setdefault(name, []).append(line)
    return groups


def fields(line: str) -> dict[str, str]:
    """The ``key=value`` fields of a group's first line."""
    return dict(item.split("=", 1) for item in line.split("  ") if "=" in item)


def group_verdict(lines: list[str], baseline: list[str] | None, without: str | None = None) -> str:
    """The verdict on a group's lines against the baseline's, ``without``
    the column left out of the ``traces-without-`` hash.  Lines without
    hashes, as the ``exact`` line, are ``same`` or ``differs``."""
    if baseline == lines:
        return "same"
    if baseline is None:
        return "differs"
    ours, theirs = fields(lines[0]), fields(baseline[0])
    if "traces" not in ours:
        return "differs"
    agree = (f"traces-without-{without}", "points", "f", without)
    if without and lines[1:] == baseline[1:] and all(key in theirs for key in agree) \
            and all(ours[key] == theirs[key] for key in agree[:3]):
        return f"only {without}  {without} {theirs[without]} → {ours[without]}"
    if ours["traces"] == theirs.get("traces") or ours["steps"] != theirs.get("steps"):
        return "differs"
    f, f_base = (np.array(d["f"].split(","), dtype=float) for d in (ours, theirs))
    change = np.abs(f - f_base) / np.maximum(np.abs(f_base), np.finfo(float).tiny)
    return f"rounding  max |Δf|/f {float(change.max()):.1e}"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("groups", nargs="*", metavar="GROUP",
                        help=f"groups to run, of {', '.join(GROUPS)} (default: all)")
    parser.add_argument("--without", metavar="COLUMN", help="also hash the traces with this column left out")
    parser.add_argument("--baseline", metavar="FILE",
                        help="a saved output to compare with: print same, only COLUMN, rounding or differs "
                             "per group, exit 1 on a difference")
    args = parser.parse_args(argv)
    unknown = set(args.groups) - set(GROUPS)
    if unknown:
        parser.error(f"unknown groups: {', '.join(sorted(unknown))}")
    baseline = read_baseline(args.baseline) if args.baseline else None
    memory = memory_line()  # printed last, measured before the groups
    status = 0
    for name in [*(args.groups or GROUPS), "exact"]:
        lines = [exact_line()] if name == "exact" else group_lines(name, args.without)
        if baseline is not None:
            verdict = group_verdict(lines, baseline.get(name), args.without)
            lines.append(f"{name}  {verdict}")
            status = status or int(verdict != "same")
        print("\n".join(lines), flush=True)
    print(memory, flush=True)
    return status


if __name__ == "__main__":
    sys.exit(main())
