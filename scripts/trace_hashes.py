#!/usr/bin/env python
"""SHA-256 fingerprints of the solver's traces, and what its solves reach.

Runs a fixed list of solves, each once, and prints lines that reduce
them: hash groups, which agree when two checkouts solve alike byte for
byte, and outcome panels, which show what the Gauss-Newton solves of a
change that re-rounds them reach.

Per hash group it prints the SHA-256 of the concatenated trace CSVs, the
same with one column left out (``--without``), the same with only the
columns that count steps and work kept (``steps=``: ``k``, ``gh``, ``th``,
``kind``, ``fevals``, ``gevals`` and ``gapplies``), the SHA-256 of the
concatenated final points (flat float64 bytes), and the final ``fevals``,
``gevals`` and objective ``f`` (17 significant digits) of every run.  Two
checkouts whose hashes agree produce the same traces and points byte for
byte; where they differ by rounding alone, the ``steps=`` hashes agree and
``f`` shows how far.  With ``--without``, a group's line also gives each
run's final value of the column, unless a field already does (``fevals``,
``gevals``, ``f``).

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
1-20 evaluate to exactly f = 0 on the tensor built from them.

Then come the panels, each one summary line and, for ``panel`` and
``compare-50``, one indented line per run:

* ``wide-a1``: the quadratic study's solves over seeds 1-500, of which
  ``quadratic`` is the first 50.  Per block of 50 seeds, the converged runs
  whose convergence slope reaches 1.5 ("steep"); the steep share of all
  converged runs with its 95% interval (normal approximation); and the
  median slope of seeds 1-50;
* ``panel``: 130 inexact instances, (10,10,10) rank 5 seeds 1-50,
  (8,8,8,8) rank 4 seeds 1-50 and (12,12,12,12) rank 6 seeds 1-30, each
  with the study's 10 negative entries per factor, solved by
  ``panoc_solve`` to its stop from ``random_feasible_point(structure,
  seed)`` with ``SolverConfig(seed=seed)``.  Per instance, the final
  ``f``, the stop reason, the gradients and the count of weights that
  end exactly 0;
* ``compare-50``: the compare study's 50 Gauss-Newton solves, seeds 1-50,
  which are the panel's (10,10,10) block and include ``compare-gn``.  Per
  seed, the final ``f``, the whole solve's gradients, the gradients to 1%
  above the final ``f`` (as the study counts them) and the zero weights.

The last line, ``memory``, gives, from one fresh process per group, the
growth of ``ru_maxrss`` over the ``large-gn`` solve (the peak resident
memory that solve adds, in MB) and the minor page faults per
``compare-gn`` and ``large-gn`` solve (``ru_minflt``).  These figures vary
from run to run; ``--baseline`` neither judges nor saves them.

With ``--baseline FILE``, the saved output of another run (with the same
options), a verdict line follows each group, ``exact`` and each panel.  A
group's verdict is ``<group>  same``; with ``--without COLUMN``,
``<group>  only COLUMN  COLUMN <before> → <after>`` when the traces differ
in that column alone (the ``traces-without-COLUMN=`` hashes, the
``points=`` and the ``f=`` agree), with each run's final value of the
column in the baseline and now; ``<group>  rounding  max |Δf|/f <x>`` when
the ``traces=`` hashes differ but the ``steps=`` hashes agree, with the
largest relative change of a run's final ``f``; or ``<group>  differs``.
The ``exact`` line is ``same`` or ``differs``.  The panels' verdicts are:

* ``wide-a1  steep <before> → <after> of <runs>  blocks ... → ...  median
  ... → ...``;
* ``panel  better <n>  worse <n>`` (finals whose ``f`` moved by more than
  1e-6 relative to the baseline's), the largest relative move, the total
  gradients, the finals with a zero weight, and each run whose stop
  reason changed;
* ``compare-50``: the total gradients, the seeds whose final has a zero
  weight, and the gradients to 1% summed over the seeds whose final ``f``
  moved by at most 1e-6 relative.  A better optimum lowers the 1% target,
  so it costs gradients to reach; over the unmoved seeds the sum measures
  the tail alone.

The script exits with status 1 when a group or ``exact`` is not ``same``.
The panels inform and never set the status, so that a change meant to
keep every bit and a change that re-rounds Gauss-Newton traces are both
checked by one command::

    PYTHONPATH=<parent>/src python scripts/trace_hashes.py > parent.txt
    PYTHONPATH=src python scripts/trace_hashes.py --baseline parent.txt

A change meant to move one counter and keep every other bit, such as one
that saves a gradient per solve, is checked with that column left out of
both runs, since a baseline must be saved with the same options::

    PYTHONPATH=<parent>/src python scripts/trace_hashes.py --without gevals > parent.txt
    PYTHONPATH=src python scripts/trace_hashes.py --without gevals --baseline parent.txt

Every group should then read ``only gevals``, with each run's final
``gevals`` before and after, and the ``exact`` line ``same``; the status
is 1, because the traces differ.

The solves run in two worker processes, with BLAS on one thread each, so
that the results do not depend on the thread count of the machine.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import csv  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import math  # noqa: E402
import multiprocessing  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
from concurrent.futures import ProcessPoolExecutor  # noqa: E402
from dataclasses import dataclass, replace  # noqa: E402
from typing import NamedTuple  # noqa: E402

import numpy as np  # noqa: E402

from ncpd.experiments import (  # noqa: E402
    InstanceSpec,
    convergence_slope,
    gen_exact_instance,
    gen_inexact_instance,
    gradient_count_to_threshold,
    perturb_solution,
    random_feasible_point,
)
from ncpd.solver import SolverConfig, panoc_solve, pgd_solve  # noqa: E402
from ncpd.tensors import objective_value  # noqa: E402

WORKERS = 2
STEP_COLUMNS = ("k", "gh", "th", "kind", "fevals", "gevals", "gapplies")
BLOCK = 50
MOVED = 1e-6  # relative change of a final f that counts as a move
EXACT_SPECS = [InstanceSpec()] + [
    InstanceSpec(dims=dims, rank=3, zeros_per_factor=2, negative_entries_per_factor=2)
    for dims in [(7, 5), (6, 5, 4, 3), (5, 4, 3, 3, 2)]
]
EXACT_SEEDS = range(1, 21)
LARGE = InstanceSpec(dims=(30, 30, 30, 30), rank=8, seed=1)
RUN_SPECS = [
    InstanceSpec(dims=dims, rank=3, zeros_per_factor=2, negative_entries_per_factor=2)
    for dims in [(6, 5, 4, 3), (5, 4, 3, 3, 2)]
]
PANEL_SPECS = [(InstanceSpec(), range(1, 51)),
               (InstanceSpec(dims=(8, 8, 8, 8), rank=4), range(1, 51)),
               (InstanceSpec(dims=(12, 12, 12, 12), rank=6), range(1, 31))]


@dataclass(frozen=True)
class Recipe:
    """One solve of the instance of ``spec``, whose seed also seeds the
    solver.  A ``quadratic`` solve is the quadratic study's: the exact
    instance from the perturbed planted point, with the reference-error
    column.  A ``gn`` or ``pgd`` solve is a Gauss-Newton or
    projected-gradient solve of the inexact instance from the study start
    point, for at most ``max_iters`` iterations."""

    spec: InstanceSpec
    kind: str = "gn"  # "quadratic", "gn" or "pgd"
    max_iters: int = SolverConfig().max_iters


def seeded(spec: InstanceSpec, seeds, **kwargs) -> list[Recipe]:
    return [Recipe(replace(spec, seed=seed), **kwargs) for seed in seeds]


GROUPS = {
    "quadratic": seeded(InstanceSpec(), range(1, 51), kind="quadratic"),
    "compare-gn": seeded(InstanceSpec(), range(1, 4)),
    "compare-pgd": seeded(InstanceSpec(), range(1, 4), kind="pgd"),
    "large-gn": [Recipe(LARGE, max_iters=3)],
    "large-pgd": [Recipe(LARGE, kind="pgd", max_iters=100)],
    "runs-gn": [r for spec in RUN_SPECS for r in seeded(spec, range(1, 4))],
    "runs-pgd": [r for spec in RUN_SPECS for r in seeded(spec, range(1, 4), kind="pgd", max_iters=500)],
}
PANELS = {
    "wide-a1": seeded(InstanceSpec(), range(1, 501), kind="quadratic"),
    "panel": [r for spec, seeds in PANEL_SPECS for r in seeded(spec, seeds)],
    "compare-50": seeded(InstanceSpec(), range(1, 51)),
}
RUNS = {**GROUPS, **PANELS}


def recipes(names) -> list[Recipe]:
    """The solves that the groups and panels ``names`` reduce, each once."""
    return list(dict.fromkeys(recipe for name in names for recipe in RUNS[name]))


class Run(NamedTuple):
    """What the output reads of one solve; the last three are set for a
    quadratic-study solve alone."""

    trace: str  # the trace CSV
    point: bytes  # the final point's flat float64 bytes
    f: float
    stop: str
    fevals: int
    gevals: int
    to_1pct: int  # gradients to 1% above the final f
    zero_weights: int
    converged: bool
    slope: float | None = None
    floor: float | None = None  # the slope floor, 100 eps ||x*||
    last_error: float | None = None


def inexact(recipe: Recipe) -> tuple:
    """The tensor, start point and configuration of an inexact solve."""
    spec = recipe.spec
    return (gen_inexact_instance(spec), random_feasible_point(spec.structure, spec.seed),
            SolverConfig(seed=spec.seed, max_iters=recipe.max_iters))


def run(recipe: Recipe) -> Run:
    quadratic = ()
    if recipe.kind == "quadratic":
        spec = recipe.spec
        tensor, planted = gen_exact_instance(spec)
        result = panoc_solve(tensor, perturb_solution(planted, spec.seed), SolverConfig(seed=spec.seed),
                             reference=planted)
        floor = 100.0 * np.finfo(np.float64).eps * planted.norm()
        quadratic = (convergence_slope([rec.err for rec in result.trace], floor), floor, result.trace[-1].err)
    else:
        result = (panoc_solve if recipe.kind == "gn" else pgd_solve)(*inexact(recipe))
    last = result.trace[-1]
    return Run(result.trace.to_csv_string(), result.point.flat.tobytes(), result.f, result.reason,
               last.fevals, last.gevals, gradient_count_to_threshold(result.trace, 1.01 * result.f)[0],
               int(np.count_nonzero(result.point.weights == 0.0)), result.converged, *quadratic)


def slope_lines(runs: list[Run]) -> list[str]:
    """A1's figures for the quadratic group, as the study computes them."""
    steep, slopes, short = 0, [], []
    for recipe, r in zip(GROUPS["quadratic"], runs):
        if not r.converged:
            continue
        if r.slope is not None:
            slopes.append(r.slope)
        if r.slope is not None and r.slope >= 1.5:
            steep += 1
        else:
            shown = "none" if r.slope is None else format(r.slope, ".3f")
            short.append(f"  seed {recipe.spec.seed}: slope {shown}  last error {r.last_error:.2e}  "
                         f"floor {r.floor:.2e}")
    n_converged = sum(r.converged for r in runs)
    median = format(float(np.median(slopes)), ".4f") if slopes else "none"
    return [f"quadratic  A1={steep}/{n_converged} converged runs with slope >= 1.5  median={median}"] + short


def exact_line() -> str:
    """Per exact-fit shape, the count of seeds whose planted point
    evaluates to exactly 0."""
    counts = []
    for spec in EXACT_SPECS:
        hits = 0
        for seed in EXACT_SEEDS:
            tensor, planted = gen_exact_instance(replace(spec, seed=seed))
            hits += objective_value(planted, tensor) == 0.0
        counts.append(f"{instance_name(spec)}={hits}/{len(EXACT_SEEDS)}")
    return "  ".join(["exact"] + counts)


def solve_usage(name: str) -> tuple[int, int]:
    """The growth of ``ru_maxrss`` (KiB) and the minor faults per solve over
    the solves of a Gauss-Newton group, set-up left out."""
    usage = []
    for recipe in GROUPS[name]:
        args = inexact(recipe)
        before = resource.getrusage(resource.RUSAGE_SELF)
        panoc_solve(*args)
        after = resource.getrusage(resource.RUSAGE_SELF)
        usage.append((after.ru_maxrss - before.ru_maxrss, after.ru_minflt - before.ru_minflt))
    grown, faults = map(sum, zip(*usage))
    return grown, faults // len(usage)


def memory_line() -> str:
    """:func:`solve_usage` of ``large-gn`` and ``compare-gn``, each in a
    fresh process, so that neither sees what this one or the other has
    allocated and freed.  A new process starts from the ``ru_maxrss`` of
    the one that forks it, so this must run before this one grows."""
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


def group_lines(name: str, runs: list[Run], without: str | None) -> list[str]:
    """The output lines of one group."""
    csvs = [r.trace for r in runs]
    line = [name, f"traces={sha(''.join(csvs).encode())}"]
    if without:
        stripped = "".join(without_column(text, without) for text in csvs)
        line.append(f"traces-without-{without}={sha(stripped.encode())}")
    steps = "".join(select_columns(text, STEP_COLUMNS.__contains__) for text in csvs)
    line.append(f"steps={sha(steps.encode())}")
    line.append(f"points={sha(b''.join(r.point for r in runs))}")
    line.append("fevals=" + ",".join(str(r.fevals) for r in runs))
    line.append("gevals=" + ",".join(str(r.gevals) for r in runs))
    line.append("f=" + ",".join(format(r.f, ".17g") for r in runs))
    if without and without not in fields("  ".join(line)):  # each run's last value of the column
        line.append(f"{without}=" + ",".join(select_columns(t, without.__eq__).split("\n")[-2] for t in csvs))
    lines = ["  ".join(line)]
    if name == "quadratic":
        lines += slope_lines(runs)
    return lines


def instance_name(spec: InstanceSpec) -> str:
    return f"{','.join(map(str, spec.dims))}r{spec.rank}"


def outcome(r: Run) -> dict[str, str]:
    """The fields of a panel's line for one solve to its stop."""
    return {"f": format(r.f, ".17g"), "stop": r.stop, "gradients": str(r.gevals),
            "to-1pct": str(r.to_1pct), "zero-weights": str(r.zero_weights)}


def wide_a1_lines(runs) -> list[str]:
    """The ``wide-a1`` line of (converged, slope) pairs, by seed from 1."""
    steep = [converged and slope is not None and slope >= 1.5 for converged, slope in runs]
    n_converged = sum(converged for converged, _ in runs)
    blocks = [sum(steep[i : i + BLOCK]) for i in range(0, len(steep), BLOCK)]
    share = sum(steep) / n_converged if n_converged else 0.0
    interval = 1.96 * math.sqrt(share * (1.0 - share) / n_converged) if n_converged else 0.0
    slopes = [slope for _, slope in runs[:BLOCK] if slope is not None]
    median = format(float(np.median(slopes)), ".4f") if slopes else "none"
    return ["  ".join(["wide-a1", f"steep={sum(steep)}/{n_converged}",
                       f"share={100 * share:.1f}%±{100 * interval:.1f}%",
                       "blocks=" + ",".join(map(str, blocks)), f"median-seeds-1-50={median}"])]


def run_line(panel: str, name: str, fields: dict[str, str], keys) -> str:
    return "  ".join([f"  {panel} {name}"] + [f"{key}={fields[key]}" for key in keys])


def panel_lines(runs: dict[str, dict[str, str]]) -> list[str]:
    keys = ("f", "stop", "gradients", "zero-weights")
    summary = "  ".join([
        "panel", f"runs={len(runs)}",
        f"gradients={sum(int(r['gradients']) for r in runs.values())}",
        f"tolerance={sum(r['stop'] == 'tolerance' for r in runs.values())}",
        f"zero-weight-finals={sum(r['zero-weights'] != '0' for r in runs.values())}",
    ])
    return [summary] + [run_line("panel", name, r, keys) for name, r in runs.items()]


def compare_lines(runs: dict[str, dict[str, str]]) -> list[str]:
    keys = ("f", "gradients", "to-1pct", "zero-weights")
    zero = [name.removeprefix("seed ") for name, r in runs.items() if r["zero-weights"] != "0"]
    summary = "  ".join([
        "compare-50", f"runs={len(runs)}",
        f"gradients={sum(int(r['gradients']) for r in runs.values())}",
        f"to-1pct={sum(int(r['to-1pct']) for r in runs.values())}",
        "zero-weight-seeds=" + (",".join(zero) or "none"),
    ])
    return [summary] + [run_line("compare-50", name, r, keys) for name, r in runs.items()]


def panel_output(name: str, runs: list[Run]) -> list[str]:
    """The output lines of panel ``name`` from its runs, in recipe order."""
    if name == "wide-a1":
        return wide_a1_lines([(r.converged, r.slope) for r in runs])
    if name == "panel":
        names = [f"{instance_name(recipe.spec)} seed {recipe.spec.seed}" for recipe in PANELS[name]]
        return panel_lines({run_name: outcome(r) for run_name, r in zip(names, runs)})
    return compare_lines({f"seed {recipe.spec.seed}": outcome(r) for recipe, r in zip(PANELS[name], runs)})


def fields(line: str) -> dict[str, str]:
    """The ``key=value`` fields of a line."""
    return dict(item.split("=", 1) for item in line.strip().split("  ") if "=" in item)


def read_baseline(path) -> dict[str, list[str]]:
    """A saved output's lines by group, ``exact`` or panel.  A line whose
    first word is one of their names opens or continues it, the ``memory``
    line closes it, and any other indented line continues the last one.
    Verdict lines, whose text after the name has no field, are skipped."""
    names, saved, name = {*RUNS, "exact"}, {}, None
    with open(path, encoding="utf-8") as fh:
        for line in fh.read().splitlines():
            items = line.strip().split("  ")
            first = items[0].split(" ")[0]
            if first in names:
                name = first
            elif first == "memory":
                name = None
            verdict = not line.startswith(" ") and "=" not in (items[1] if len(items) > 1 else "")
            if name is not None and not verdict:
                saved.setdefault(name, []).append(line)
    return saved


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


def parse(lines: list[str]) -> tuple[dict[str, str], dict[str, dict[str, str]]]:
    """A panel's summary fields and its runs' fields by run name."""
    runs = {}
    for line in lines[1:]:
        head, _, rest = line.strip().partition("  ")
        runs[head.split(" ", 1)[1]] = fields(rest)
    return fields(lines[0]), runs


def moved(f: str, f_base: str) -> float:
    """The change of a final ``f`` relative to the baseline's."""
    f, f_base = float(f), float(f_base)
    return (f - f_base) / max(abs(f_base), np.finfo(float).tiny)


def panel_verdict(name: str, lines: list[str], baseline: list[str] | None) -> str:
    """The verdict line of panel ``name`` against the baseline's lines."""
    if baseline is None:
        return f"{name}  no baseline"
    (ours, our_runs), (theirs, their_runs) = parse(lines), parse(baseline)
    if name == "wide-a1":
        return "  ".join([
            name,
            f"steep {theirs['steep'].split('/')[0]} → {ours['steep'].replace('/', ' of ')}",
            f"blocks {theirs['blocks']} → {ours['blocks']}",
            f"median {theirs['median-seeds-1-50']} → {ours['median-seeds-1-50']}",
        ])
    if our_runs.keys() != their_runs.keys():
        return f"{name}  other runs than the baseline's"
    change = {run: moved(r["f"], their_runs[run]["f"]) for run, r in our_runs.items()}
    if name == "panel":
        stops = [f"{run} {their_runs[run]['stop']} → {r['stop']}"
                 for run, r in our_runs.items() if r["stop"] != their_runs[run]["stop"]]
        return "  ".join([
            name,
            f"better {sum(c < -MOVED for c in change.values())}",
            f"worse {sum(c > MOVED for c in change.values())}",
            f"max |Δf|/f {max(map(abs, change.values())):.1e}",
            f"gradients {theirs['gradients']} → {ours['gradients']}",
            f"zero-weight-finals {theirs['zero-weight-finals']} → {ours['zero-weight-finals']}",
            "stops changed: " + ("; ".join(stops) or "none"),
        ])
    still = [run for run, c in change.items() if abs(c) <= MOVED]
    return "  ".join([
        name,
        f"gradients {theirs['gradients']} → {ours['gradients']}",
        f"zero-weight-seeds {theirs['zero-weight-seeds']} → {ours['zero-weight-seeds']}",
        f"to-1pct over the {len(still)} seeds whose f did not move "
        f"{sum(int(their_runs[run]['to-1pct']) for run in still)} → "
        f"{sum(int(our_runs[run]['to-1pct']) for run in still)}",
    ])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("groups", nargs="*", metavar="GROUP",
                        help=f"groups and panels to run, of {', '.join(RUNS)} (default: all)")
    parser.add_argument("--without", metavar="COLUMN", help="also hash the traces with this column left out")
    parser.add_argument("--baseline", metavar="FILE",
                        help="a saved output to compare with: print a verdict per group, exact and panel, "
                             "exit 1 when a group or exact is not the same")
    args = parser.parse_args(argv)
    unknown = set(args.groups) - set(RUNS)
    if unknown:
        parser.error(f"unknown groups: {', '.join(sorted(unknown))}")
    baseline = read_baseline(args.baseline) if args.baseline else None
    names = [name for name in RUNS if name in (args.groups or RUNS)]
    memory = memory_line()  # printed last, measured before this process holds the runs
    todo = recipes(names)
    with ProcessPoolExecutor(max_workers=WORKERS, mp_context=multiprocessing.get_context("spawn")) as pool:
        pending = pool.map(run, todo)
        exact = exact_line()
        done = dict(zip(todo, pending))
    status = 0
    for name in [*(name for name in names if name in GROUPS), "exact", *(name for name in names if name in PANELS)]:
        if name in PANELS:
            lines = panel_output(name, [done[recipe] for recipe in PANELS[name]])
            if baseline is not None:
                lines.append(panel_verdict(name, lines, baseline.get(name)))
        else:
            lines = [exact] if name == "exact" else group_lines(name, [done[r] for r in GROUPS[name]], args.without)
            if baseline is not None:
                verdict = group_verdict(lines, baseline.get(name), args.without)
                lines.append(f"{name}  {verdict}")
                status = status or int(verdict != "same")
        print("\n".join(lines), flush=True)
    print(memory, flush=True)
    return status


if __name__ == "__main__":
    sys.exit(main())
