#!/usr/bin/env python
"""SHA-256 fingerprints of the solver's traces and final points.

Runs fixed solves and prints, per group, the SHA-256 of the concatenated
trace CSVs, the same with one column left out (``--without``), the SHA-256
of the concatenated final points (flat float64 bytes), and the final
``fevals`` of every run.  Two checkouts whose hashes agree produce the
same traces and points byte for byte; run it against each with
``PYTHONPATH=<checkout>/src python scripts/trace_hashes.py``.

Groups:

* ``quadratic``: the 50-run quadratic study, base seed 1 (traces with the
  reference-error column);
* ``compare-gn`` / ``compare-pgd``: compare-study seeds 1-3, Gauss-Newton
  and projected gradient;
* ``large-gn`` / ``large-pgd``: the (30,30,30,30) rank-8 inexact instance
  of study seed 1 from its study start point, 3 Gauss-Newton or 100
  projected-gradient iterations.

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
import sys  # noqa: E402
from dataclasses import replace  # noqa: E402

from ncpd.experiments import (  # noqa: E402
    InstanceSpec,
    gen_exact_instance,
    gen_inexact_instance,
    perturb_solution,
    random_feasible_point,
)
from ncpd.solver import SolverConfig, panoc_solve, pgd_solve  # noqa: E402

LARGE = InstanceSpec(dims=(30, 30, 30, 30), rank=8, seed=1)


def quadratic():
    """The solves of ``run_experiment_quadratic(runs=50, base_seed=1)``."""
    for seed in range(1, 51):
        tensor, planted = gen_exact_instance(replace(InstanceSpec(), seed=seed))
        start = perturb_solution(planted, seed)
        yield panoc_solve(tensor, start, SolverConfig(seed=seed), reference=planted)


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


GROUPS = {
    "quadratic": quadratic,
    "compare-gn": compare(panoc_solve),
    "compare-pgd": compare(pgd_solve),
    "large-gn": large(panoc_solve, 3),
    "large-pgd": large(pgd_solve, 100),
}


def without_column(text: str, column: str) -> str:
    rows = list(csv.reader(io.StringIO(text)))
    if column not in rows[0]:
        raise SystemExit(f"no trace column {column!r}; columns are {','.join(rows[0])}")
    drop = rows[0].index(column)
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerows(row[:drop] + row[drop + 1:] for row in rows)
    return buf.getvalue()


def sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("groups", nargs="*", metavar="GROUP",
                        help=f"groups to run, of {', '.join(GROUPS)} (default: all)")
    parser.add_argument("--without", metavar="COLUMN", help="also hash the traces with this column left out")
    args = parser.parse_args(argv)
    unknown = set(args.groups) - set(GROUPS)
    if unknown:
        parser.error(f"unknown groups: {', '.join(sorted(unknown))}")
    for name in args.groups or GROUPS:
        results = list(GROUPS[name]())
        csvs = [r.trace.to_csv_string() for r in results]
        line = [name, f"traces={sha(''.join(csvs).encode())}"]
        if args.without:
            stripped = "".join(without_column(text, args.without) for text in csvs)
            line.append(f"traces-without-{args.without}={sha(stripped.encode())}")
        line.append(f"points={sha(b''.join(r.point.flat.tobytes() for r in results))}")
        line.append("fevals=" + ",".join(str(r.trace.records[-1].fevals) for r in results))
        print("  ".join(line), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
