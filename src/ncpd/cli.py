"""Command line interface.

Subcommands:

* ``decompose``: factor a tensor file, writing factor files, an iteration
  trace and a JSON summary.
* ``experiment quadratic`` / ``experiment compare``: run the seeded studies
  and write per-run CSV plus aggregate JSON.
* ``check``: run the built-in diagnostic checks.

Exit codes: 0 on success, 1 on usage or runtime errors, 2 when a
decomposition stopped without reaching the tolerance.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys

from . import checks as checks_mod
from .experiments import (
    InstanceSpec,
    random_feasible_point,
    run_experiment_compare,
    run_experiment_quadratic,
)
from .solver import NonFiniteError, SolverConfig, panoc_solve, pgd_solve
from .tensors import CpdStructure, DenseTensor, ten_read, ten_write, write_json

__all__ = ["main", "build_config"]


class UsageError(ValueError):
    pass


def _override_dataclass(obj, overrides: dict, section: str):
    if not isinstance(overrides, dict):
        raise UsageError(f"{section} config section must be a JSON object")
    valid = {f.name for f in dataclasses.fields(obj)}
    unknown = set(overrides) - valid
    if unknown:
        raise UsageError(f"unknown {section} config keys: {', '.join(sorted(unknown))}")
    fixed = {
        key: tuple(v) if isinstance(v, list) else v for key, v in overrides.items()
    }
    try:
        return dataclasses.replace(obj, **fixed)
    except (TypeError, ValueError) as exc:
        raise UsageError(f"invalid {section} config: {exc}") from exc


def build_config(args) -> tuple[SolverConfig, InstanceSpec]:
    """Solver and instance configuration from a JSON overlay plus flags.

    The JSON file may contain ``solver`` and ``instance`` sections whose
    keys must match the dataclass fields exactly; unknown keys are errors.
    Command line flags are applied after the overlay.
    """
    cfg = SolverConfig()
    instance = InstanceSpec()
    if getattr(args, "config", None):
        try:
            with open(args.config, "r", encoding="utf-8") as fh:
                overlay = json.load(fh)
        except OSError as exc:
            raise UsageError(f"cannot read config file: {exc}") from exc
        except json.JSONDecodeError as exc:
            raise UsageError(f"malformed config file: {exc}") from exc
        if not isinstance(overlay, dict):
            raise UsageError("config file must contain a JSON object")
        unknown = set(overlay) - {"solver", "instance"}
        if unknown:
            raise UsageError(f"unknown config sections: {', '.join(sorted(unknown))}")
        cfg = _override_dataclass(cfg, overlay.get("solver", {}), "solver")
        instance = _override_dataclass(instance, overlay.get("instance", {}), "instance")
    if getattr(args, "seed", None) is not None:
        cfg = dataclasses.replace(cfg, seed=args.seed)
    if getattr(args, "rank", None) is not None:
        instance = dataclasses.replace(instance, rank=args.rank)
    return cfg, instance


def cmd_decompose(args) -> int:
    cfg, instance = build_config(args)
    tensor = ten_read(args.tensor)
    rank = instance.rank  # with --rank applied by build_config
    structure = CpdStructure(tensor.dims, rank)
    start = random_feasible_point(structure, cfg.seed)
    solve = pgd_solve if args.pgd_only else panoc_solve
    out = args.out
    try:
        result = solve(tensor, start, cfg)
    except NonFiniteError as exc:
        exc.trace.write_csv(f"{out}.trace.csv")  # the rows logged before the failure
        raise
    except MemoryError:
        if args.pgd_only:
            raise
        n = structure.size
        raise RuntimeError(
            f"out of memory: the Gauss-Newton direction system has size n = {n}, and its solve "
            f"holds two n-by-n float64 arrays, 16n^2 = {16 * n * n} bytes; try --pgd-only"
        ) from None
    for n, factor in enumerate(result.point.factors):
        ten_write(f"{out}.factor{n + 1}.ten", DenseTensor.from_array(factor))
    ten_write(f"{out}.lambda.ten", DenseTensor.from_array(result.point.weights[:, None]))
    result.trace.write_csv(f"{out}.trace.csv")
    summary = {
        "final_f": result.f,
        "iterations": result.iterations,
        "reason": result.reason,
        "rank": rank,
        "dims": list(tensor.dims),
        "algorithm": "pgd" if args.pgd_only else "gauss-newton",
    }
    write_json(f"{out}.summary.json", summary)
    print(f"{summary['algorithm']}: f={result.f:.6e} after {result.iterations} iterations ({result.reason})")
    return 0 if result.reason == "tolerance" else 2


def cmd_experiment(args) -> int:
    cfg, instance = build_config(args)
    out = args.out if args.out else f"experiment_{args.name}"
    if args.name == "quadratic":
        report = run_experiment_quadratic(args.runs, args.seed if args.seed is not None else 1, cfg, instance)
        agg = report.aggregate
        headline = (
            f"median slope {agg['median_slope']} over {agg['runs']} runs "
            f"({agg['n_converged']} converged)"
        )
    else:
        report = run_experiment_compare(args.runs, args.seed if args.seed is not None else 1, cfg, instance)
        agg = report.aggregate
        headline = (
            f"median gradient evaluations {agg['median_panoc_gradients']} (gauss-newton) "
            f"vs {agg['median_pgd_gradients']} (pgd), "
            f"wins {agg['wins_excluding_flagged']}/{agg['paired_runs']} paired runs"
        )
    report.write_csv(f"{out}.csv")
    report.write_json(f"{out}.json")
    print(headline)
    return 0


def cmd_check(args) -> int:
    results = checks_mod.run_checks(scale=args.scale, seed=args.seed)
    all_ok = True
    for res in results:
        tag = "PASS" if res.passed else "FAIL"
        print(f"[{tag}] {res.name}: measured={res.measured:.3e} threshold={res.threshold:.3e}")
        all_ok = all_ok and res.passed
    return 0 if all_ok else 1


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="ncpd", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, seed_help):
        p.add_argument("--seed", type=int, default=None, help=seed_help)
        p.add_argument("--config", type=str, default=None, help="JSON config overlay")
        p.add_argument("--rank", type=int, default=None, help="factorization rank")

    p_dec = sub.add_parser("decompose", help="factor a tensor file")
    p_dec.add_argument("tensor", help="input tensor in .ten format")
    p_dec.add_argument("--out", type=str, default="decomposition", help="output file prefix")
    p_dec.add_argument("--pgd-only", action="store_true", help="use plain projected gradient")
    common(p_dec, "seed of the start point (default: the config's seed, 0)")

    p_exp = sub.add_parser("experiment", help="run a seeded study")
    p_exp.add_argument("name", choices=("quadratic", "compare"))
    p_exp.add_argument("--runs", type=int, default=50, help="number of runs (default 50)")
    p_exp.add_argument("--out", type=str, default=None, help="output file prefix")
    common(p_exp, "base seed; run i uses seed + i (default 1)")

    p_chk = sub.add_parser("check", help="run built-in diagnostic checks")
    p_chk.add_argument("--scale", choices=("tiny", "full"), default="tiny")
    p_chk.add_argument("--seed", type=int, default=0, help="seed of the checks' instances (default 0)")
    return parser


def main(argv=None) -> int:
    parser = _parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "decompose":
            return cmd_decompose(args)
        if args.command == "experiment":
            return cmd_experiment(args)
        return cmd_check(args)
    except (UsageError, ValueError, OSError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
