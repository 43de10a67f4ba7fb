#!/usr/bin/env python
"""Outcome panels of the Gauss-Newton solver: what its solves reach.

A change that re-rounds Gauss-Newton traces cannot be judged by
``scripts/trace_hashes.py``, whose verdicts only say that traces differ,
nor by acceptance test A1 alone, whose 50 seeds are one block of ten that
a re-rounding can move across its gate by luck.  These panels show what
the solves reach over many instances.  They inform and gate nothing: the
script exits with status 0 whatever its verdicts say.

Panels:

* ``wide-a1``: the quadratic study's solves, as A1 runs them, over seeds
  1-500.  Per block of 50 seeds, the converged runs whose convergence slope
  reaches 1.5 ("steep"); the steep share of all converged runs with its
  95% interval (normal approximation); and the median slope of seeds 1-50,
  A1's own figure;
* ``panel``: 130 inexact instances, (10,10,10) rank 5 seeds 1-50,
  (8,8,8,8) rank 4 seeds 1-50 and (12,12,12,12) rank 6 seeds 1-30, each
  with the study's 10 negative entries per factor, solved by
  ``panoc_solve`` to its stop from ``random_feasible_point(structure,
  seed)`` with ``SolverConfig(seed=seed)``.  Per instance, the final
  ``f``, the stop reason, the gradients and the count of weights that
  end exactly 0;
* ``compare-50``: the compare study's 50 Gauss-Newton solves, seeds 1-50,
  to their stop.  Per seed, the final ``f``, the whole solve's gradients,
  the gradients to 1% above the final ``f`` (as the study counts them) and
  the zero weights.

Each panel prints one summary line and, for ``panel`` and ``compare-50``,
one indented line per run.  With ``--baseline FILE``, the saved output of
another run, a verdict line follows each panel:

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

Compare a change with its parent by::

    PYTHONPATH=<parent>/src python scripts/outcome_panels.py > parent.txt
    PYTHONPATH=src python scripts/outcome_panels.py --baseline parent.txt

The solves run in two worker processes, with BLAS on one thread each, so
that the results do not depend on the thread count of the machine.  All
three panels take about 10 s on two cores.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import math  # noqa: E402
import multiprocessing  # noqa: E402
import sys  # noqa: E402
from concurrent.futures import ProcessPoolExecutor  # noqa: E402
from dataclasses import replace  # noqa: E402

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
from ncpd.solver import SolverConfig, panoc_solve  # noqa: E402

PANELS = ("wide-a1", "panel", "compare-50")
WORKERS = 2
BLOCK = 50
WIDE_A1_SEEDS = range(1, 501)
PANEL_SPECS = [(InstanceSpec(), range(1, 51)),
               (InstanceSpec(dims=(8, 8, 8, 8), rank=4), range(1, 51)),
               (InstanceSpec(dims=(12, 12, 12, 12), rank=6), range(1, 31))]
COMPARE_SEEDS = range(1, 51)
MOVED = 1e-6  # relative change of a final f that counts as a move


def wide_a1_run(seed: int) -> tuple[bool, float | None]:
    """Whether quadratic-study seed ``seed`` converges, and its slope."""
    tensor, planted = gen_exact_instance(replace(InstanceSpec(), seed=seed))
    result = panoc_solve(tensor, perturb_solution(planted, seed), SolverConfig(seed=seed), reference=planted)
    floor = 100.0 * np.finfo(np.float64).eps * planted.norm()
    return result.converged, convergence_slope([rec.err for rec in result.trace], floor)


def inexact_run(spec: InstanceSpec) -> dict[str, str]:
    """One Gauss-Newton solve of the inexact instance of ``spec`` to its stop."""
    result = panoc_solve(gen_inexact_instance(spec), random_feasible_point(spec.structure, spec.seed),
                         SolverConfig(seed=spec.seed))
    return {"f": format(result.f, ".17g"), "stop": result.reason,
            "gradients": str(result.trace[-1].gevals),
            "to-1pct": str(gradient_count_to_threshold(result.trace, 1.01 * result.f)[0]),
            "zero-weights": str(int(np.count_nonzero(result.point.weights == 0.0)))}


def instance_name(spec: InstanceSpec) -> str:
    return f"{','.join(map(str, spec.dims))}r{spec.rank}"


def wide_a1_lines(runs) -> list[str]:
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


def run_panels(names) -> dict[str, list[str]]:
    """The output lines of each panel in ``names``."""
    panel_specs = {f"{instance_name(spec)} seed {seed}": replace(spec, seed=seed)
                   for spec, seeds in PANEL_SPECS for seed in seeds}
    compare_specs = {f"seed {seed}": replace(InstanceSpec(), seed=seed) for seed in COMPARE_SEEDS}
    spawn = multiprocessing.get_context("spawn")
    lines = {}
    with ProcessPoolExecutor(max_workers=WORKERS, mp_context=spawn) as pool:
        if "wide-a1" in names:
            lines["wide-a1"] = wide_a1_lines(list(pool.map(wide_a1_run, WIDE_A1_SEEDS, chunksize=10)))
        if "panel" in names:
            runs = pool.map(inexact_run, panel_specs.values())
            lines["panel"] = panel_lines(dict(zip(panel_specs, runs)))
        if "compare-50" in names:
            runs = pool.map(inexact_run, compare_specs.values())
            lines["compare-50"] = compare_lines(dict(zip(compare_specs, runs)))
    return lines


def fields(line: str) -> dict[str, str]:
    """The ``key=value`` fields of a line."""
    return dict(item.split("=", 1) for item in line.strip().split("  ") if "=" in item)


def parse(lines: list[str]) -> tuple[dict[str, str], dict[str, dict[str, str]]]:
    """A panel's summary fields and its runs' fields by run name."""
    runs = {}
    for line in lines[1:]:
        head, _, rest = line.strip().partition("  ")
        runs[head.split(" ", 1)[1]] = fields(rest)
    return fields(lines[0]), runs


def read_baseline(path) -> dict[str, list[str]]:
    """A saved output's lines by panel: a summary line, whose first field
    follows the panel's name, and indented run lines.  Verdict lines, which
    have no fields, are skipped."""
    panels = {}
    with open(path, encoding="utf-8") as fh:
        for line in fh.read().splitlines():
            items = line.strip().split("  ")
            name = items[0].split(" ")[0]
            if name in PANELS and (line.startswith("  ") or len(items) > 1 and "=" in items[1]):
                panels.setdefault(name, []).append(line)
    return panels


def moved(f: str, f_base: str) -> float:
    """The change of a final ``f`` relative to the baseline's."""
    f, f_base = float(f), float(f_base)
    return (f - f_base) / max(abs(f_base), np.finfo(float).tiny)


def verdict(name: str, lines: list[str], baseline: list[str] | None) -> str:
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
    parser.add_argument("panels", nargs="*", metavar="PANEL",
                        help=f"panels to run, of {', '.join(PANELS)} (default: all)")
    parser.add_argument("--baseline", metavar="FILE",
                        help="a saved output to compare with: print a verdict line per panel")
    args = parser.parse_args(argv)
    unknown = set(args.panels) - set(PANELS)
    if unknown:
        parser.error(f"unknown panels: {', '.join(sorted(unknown))}")
    baseline = read_baseline(args.baseline) if args.baseline else None
    names = [name for name in PANELS if name in (args.panels or PANELS)]
    for name, lines in run_panels(names).items():
        if baseline is not None:
            lines = lines + [verdict(name, lines, baseline.get(name))]
        print("\n".join(lines), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
