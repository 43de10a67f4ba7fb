"""The runs, lines and verdicts of ``scripts/trace_hashes.py`` and its
reading of a saved output."""

import importlib.util
from concurrent.futures import ThreadPoolExecutor
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "trace_hashes.py"


@pytest.fixture()
def trace_hashes(monkeypatch):
    # The script pins BLAS to one thread at import.  Holding the variables
    # here restores them afterwards, so processes started later in the same
    # session do not inherit one thread.
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        monkeypatch.setenv(var, "1")
    spec = importlib.util.spec_from_file_location("trace_hashes", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def group_line(**fields):
    return "  ".join(["compare-gn"] + [f"{key.replace('_', '-')}={value}" for key, value in fields.items()])


BASE = dict(traces="t0", traces_without_gapplies="w0", steps="s0", points="p0",
            fevals="67,368", gevals="29,178", f="0.5,2.0", gapplies="10,20")


def outcome(f, stop="tolerance", gradients=10, to_1pct=5, zeros=0):
    return {"f": repr(f), "stop": stop, "gradients": str(gradients), "to-1pct": str(to_1pct),
            "zero-weights": str(zeros)}


def test_identical_lines_are_the_same(trace_hashes):
    lines = [group_line(**BASE), "  seed 4: slope 1.390"]
    assert trace_hashes.group_verdict(lines, list(lines), "gapplies") == "same"


def test_a_group_missing_from_the_baseline_differs(trace_hashes):
    assert trace_hashes.group_verdict([group_line(**BASE)], None) == "differs"


def test_a_difference_in_the_left_out_column_alone_is_named(trace_hashes):
    ours = group_line(**{**BASE, "traces": "t1", "steps": "s1", "gapplies": "11,20"})
    verdict = trace_hashes.group_verdict([ours], [group_line(**BASE)], "gapplies")
    assert verdict == "only gapplies  gapplies 10,20 → 11,20"


@pytest.mark.parametrize("changed", ["traces_without_gapplies", "points", "f"])
def test_a_difference_beyond_the_left_out_column_is_not_only_that_column(trace_hashes, changed):
    ours = group_line(**{**BASE, "traces": "t1", "steps": "s1", changed: "x"})
    assert trace_hashes.group_verdict([ours], [group_line(**BASE)], "gapplies") == "differs"


def test_rounding_keeps_the_steps_and_gives_the_largest_change_of_f(trace_hashes):
    ours = group_line(**{**BASE, "traces": "t1", "f": "0.5,2.0000000004"})
    verdict = trace_hashes.group_verdict([ours], [group_line(**BASE)])
    assert verdict == "rounding  max |Δf|/f 2.0e-10"


def test_other_steps_differ(trace_hashes):
    ours = group_line(**{**BASE, "traces": "t1", "steps": "s1"})
    assert trace_hashes.group_verdict([ours], [group_line(**BASE)]) == "differs"


def test_equal_traces_with_other_lines_differ(trace_hashes):
    # the same trace hash with another slope line is no rounding
    lines = [group_line(**BASE), "  seed 4: slope 1.390"]
    baseline = [group_line(**BASE), "  seed 4: slope 1.391"]
    assert trace_hashes.group_verdict(lines, baseline) == "differs"


def test_read_baseline_keeps_groups_and_their_indented_lines(trace_hashes, tmp_path):
    saved = [
        "quadratic  traces=a  steps=b",
        "quadratic  A1=41/50 converged runs with slope >= 1.5  median=1.9227",
        "  seed 4: slope 1.390  last error 4.93e-13  floor 2.59e-13",
        "quadratic  same",
        "compare-gn  traces=c  steps=d",
        "compare-gn  only gapplies  gapplies 1 → 2",
        "large-gn  traces=e  steps=f",
        "large-gn  rounding  max |Δf|/f 1.0e-16",
        "large-pgd  traces=g  steps=h",
        "large-pgd  differs",
        "exact  10,10,10r5=20/20  7,5r3=20/20",
        "exact  same",
        "memory  large-gn maxrss_growth=13.7MB  compare-gn minflt_per_solve=2140",
    ]
    path = tmp_path / "saved.txt"
    path.write_text("\n".join(saved) + "\n", encoding="utf-8")
    assert trace_hashes.read_baseline(path) == {
        "quadratic": saved[:3],
        "compare-gn": [saved[4]],
        "large-gn": [saved[6]],
        "large-pgd": [saved[8]],
        "exact": [saved[10]],
    }


def test_read_baseline_reads_the_hash_output_followed_by_the_panel_output(trace_hashes, tmp_path):
    # the two outputs that hash groups and panels once had apart, one after
    # the other: the memory line between them closes the last group
    hashes = ["quadratic  traces=a  steps=b",
              "quadratic  A1=40/50 converged runs with slope >= 1.5  median=1.8596",
              "  seed 4: slope 1.387  last error 5.06e-13  floor 2.59e-13",
              "runs-pgd  traces=c  steps=d",
              "exact  10,10,10r5=20/20"]
    wide = trace_hashes.wide_a1_lines([(True, 2.0)] * 50)
    panel = trace_hashes.panel_lines({"10,10,10r5 seed 1": outcome(1.0)})
    compare = trace_hashes.compare_lines({"seed 1": outcome(1.0)})
    memory = "memory  large-gn maxrss_growth=13.3MB  compare-gn minflt_per_solve=59"
    path = tmp_path / "saved.txt"
    path.write_text("\n".join([*hashes, memory, *wide, *panel, *compare]) + "\n", encoding="utf-8")
    assert trace_hashes.read_baseline(path) == {"quadratic": hashes[:3], "runs-pgd": [hashes[3]], "exact": [hashes[4]],
                                                "wide-a1": wide, "panel": panel, "compare-50": compare}


def test_read_baseline_skips_verdict_lines(trace_hashes, tmp_path):
    wide = trace_hashes.wide_a1_lines([(True, 2.0)] * 50)
    panel = trace_hashes.panel_lines({"a seed 1": outcome(1.0)})
    compare = trace_hashes.compare_lines({"seed 1": outcome(1.0)})
    saved = [*wide, trace_hashes.panel_verdict("wide-a1", wide, wide),
             *panel, trace_hashes.panel_verdict("panel", panel, panel),
             *compare, trace_hashes.panel_verdict("compare-50", compare, None)]
    path = tmp_path / "saved.txt"
    path.write_text("\n".join(saved) + "\n", encoding="utf-8")
    assert trace_hashes.read_baseline(path) == {"wide-a1": wide, "panel": panel, "compare-50": compare}


def test_the_exact_line_is_the_same_or_differs(trace_hashes):
    line = "exact  10,10,10r5=20/20  7,5r3=20/20"
    assert trace_hashes.group_verdict([line], [line]) == "same"
    assert trace_hashes.group_verdict([line], [line.replace("7,5r3=20", "7,5r3=19")]) == "differs"
    assert trace_hashes.group_verdict([line], None) == "differs"


def test_wide_a1_counts_steep_converged_runs_per_block(trace_hashes):
    # block 1: 40 steep, 5 shallow, 3 without a slope, 2 not converged;
    # block 2: all 50 steep
    runs = [(True, 2.0)] * 40 + [(True, 1.2)] * 5 + [(True, None)] * 3 + [(False, 2.0)] * 2 + [(True, 1.9)] * 50
    line, = trace_hashes.wide_a1_lines(runs)
    fields = trace_hashes.fields(line)
    assert fields["steep"] == "90/98"
    assert fields["blocks"] == "40,50"
    share = 90 / 98
    assert fields["share"] == f"{100 * share:.1f}%±{196 * np.sqrt(share * (1 - share) / 98):.1f}%"
    assert fields["median-seeds-1-50"] == "2.0000"  # 42 slopes of 2.0 and 5 of 1.2


def test_wide_a1_verdict_gives_both_sides(trace_hashes):
    before = trace_hashes.wide_a1_lines([(True, 2.0)] * 50 + [(True, 1.0)] * 50)
    after = trace_hashes.wide_a1_lines([(True, 2.0)] * 49 + [(True, 1.0)] * 51)
    assert trace_hashes.panel_verdict("wide-a1", after, before) == \
        "wide-a1  steep 50 → 49 of 100  blocks 50,0 → 49,0  median 2.0000 → 2.0000"


def test_panel_verdict_counts_moved_finals_and_names_changed_stops(trace_hashes):
    before = {"a seed 1": outcome(1.0), "a seed 2": outcome(2.0), "b seed 1": outcome(3.0, zeros=1),
              "b seed 2": outcome(4.0)}
    after = {
        "a seed 1": outcome(1.0 + 1e-9, gradients=8),  # not moved
        "a seed 2": outcome(1.5),  # better
        "b seed 1": outcome(3.0, stop="stagnation", zeros=1),
        "b seed 2": outcome(4.4),  # worse
    }
    lines = trace_hashes.panel_lines(after)
    assert lines[0] == "panel  runs=4  gradients=38  tolerance=3  zero-weight-finals=1"
    assert lines[3] == "  panel b seed 1  f=3.0  stop=stagnation  gradients=10  zero-weights=1"
    verdict = trace_hashes.panel_verdict("panel", lines, trace_hashes.panel_lines(before))
    assert verdict == ("panel  better 1  worse 1  max |Δf|/f 2.5e-01  gradients 40 → 38  "
                       "zero-weight-finals 1 → 1  stops changed: b seed 1 tolerance → stagnation")


def test_compare_verdict_sums_gradients_to_1pct_over_unmoved_seeds(trace_hashes):
    before = {"seed 1": outcome(1.0, to_1pct=20), "seed 2": outcome(2.0, to_1pct=30, zeros=2),
              "seed 3": outcome(3.0, to_1pct=40)}
    after = {"seed 1": outcome(1.0, to_1pct=22), "seed 2": outcome(1.0, to_1pct=90),
             "seed 3": outcome(3.0, to_1pct=41, zeros=1)}
    lines = trace_hashes.compare_lines(after)
    assert lines[0] == "compare-50  runs=3  gradients=30  to-1pct=153  zero-weight-seeds=3"
    verdict = trace_hashes.panel_verdict("compare-50", lines, trace_hashes.compare_lines(before))
    assert verdict == ("compare-50  gradients 30 → 30  zero-weight-seeds 2 → 3  "
                       "to-1pct over the 2 seeds whose f did not move 60 → 63")
    assert trace_hashes.compare_lines({"seed 1": outcome(1.0)})[0].endswith("zero-weight-seeds=none")


def test_a_panel_without_its_baseline_gets_no_comparison(trace_hashes):
    lines = trace_hashes.compare_lines({"seed 1": outcome(1.0)})
    assert trace_hashes.panel_verdict("compare-50", lines, None) == "compare-50  no baseline"
    other = trace_hashes.compare_lines({"seed 2": outcome(1.0)})
    assert trace_hashes.panel_verdict("compare-50", lines, other) == "compare-50  other runs than the baseline's"


def test_inexact_run_reports_the_solve_to_its_stop(trace_hashes):
    spec = replace(trace_hashes.InstanceSpec(dims=(5, 4, 3), rank=2, zeros_per_factor=2,
                                             negative_entries_per_factor=2), seed=3)
    got = trace_hashes.run(trace_hashes.Recipe(spec))
    result = trace_hashes.panoc_solve(trace_hashes.gen_inexact_instance(spec),
                                      trace_hashes.random_feasible_point(spec.structure, 3),
                                      trace_hashes.SolverConfig(seed=3))
    assert trace_hashes.outcome(got) == {
        "f": format(result.f, ".17g"),
        "stop": result.reason,
        "gradients": str(result.trace[-1].gevals),
        "to-1pct": str(trace_hashes.gradient_count_to_threshold(result.trace, 1.01 * result.f)[0]),
        "zero-weights": str(int(np.sum(result.point.weights == 0.0))),
    }
    assert (got.trace, got.point) == (result.trace.to_csv_string(), result.point.flat.tobytes())
    assert got.slope is None


def test_each_solve_is_one_recipe_that_groups_and_panels_share(trace_hashes):
    todo = trace_hashes.recipes(trace_hashes.RUNS)
    assert len(set(todo)) == len(todo)
    named = [recipe for runs in trace_hashes.RUNS.values() for recipe in runs]
    assert set(named) == set(todo)
    # quadratic is wide-a1's first block, compare-50 the panel's (10,10,10)
    # block, and compare-gn its first three seeds: 103 solves run once
    runs = trace_hashes.RUNS
    assert runs["quadratic"] == runs["wide-a1"][:50]
    assert runs["compare-50"] == runs["panel"][:50]
    assert runs["compare-gn"] == runs["panel"][:3]
    assert len(named) - len(todo) == 103


def test_every_line_reduces_runs_made_once(trace_hashes, monkeypatch, capsys):
    # with the solves made in this process, each recipe is run once and
    # every group, exact and panel prints from those runs
    made = []
    csv_text = ",".join(trace_hashes.STEP_COLUMNS) + "\n" + ",".join("0" * len(trace_hashes.STEP_COLUMNS)) + "\n"

    def fake_run(recipe):
        made.append(recipe)
        return trace_hashes.Run(csv_text, b"", 1.0, "tolerance", 1, 1, 1, 0, True, 2.0, 1e-13, 1e-14)

    monkeypatch.setattr(trace_hashes, "run", fake_run)
    monkeypatch.setattr(trace_hashes, "ProcessPoolExecutor", lambda **kwargs: ThreadPoolExecutor(1))
    monkeypatch.setattr(trace_hashes, "memory_line", lambda: "memory")
    monkeypatch.setattr(trace_hashes, "exact_line", lambda: "exact  10,10,10r5=20/20")
    assert trace_hashes.main([]) == 0
    assert made == trace_hashes.recipes(trace_hashes.RUNS)
    heads = [line.split("  ")[0] for line in capsys.readouterr().out.splitlines() if not line.startswith(" ")]
    assert list(dict.fromkeys(heads)) == [*trace_hashes.GROUPS, "exact", *trace_hashes.PANELS, "memory"]


def assert_runs_group(trace_hashes, monkeypatch, group, solver, max_iters):
    """The group solves, with ``solver`` and ``max_iters``, instances whose
    mode sizes form several runs, one of them two modes long, each from
    the study start of its seed."""
    solved = []

    class Solved(Exception):
        pass

    def record(tensor, start, cfg):
        solved.append((tensor.dims, start.structure.rank, cfg.seed, cfg.max_iters))
        assert trace_hashes.random_feasible_point(start.structure, cfg.seed).flat.tobytes() == start.flat.tobytes()
        raise Solved

    monkeypatch.setattr(trace_hashes, solver, record)
    for recipe in trace_hashes.GROUPS[group]:
        with pytest.raises(Solved):
            trace_hashes.run(recipe)
    assert solved == [(dims, 3, seed, max_iters) for dims in [(6, 5, 4, 3), (5, 4, 3, 3, 2)] for seed in (1, 2, 3)]
    runs = [[mode_group[1] for mode_group in spec.structure.mode_groups] for spec in trace_hashes.RUN_SPECS]
    assert all(len(r) > 1 for r in runs)
    assert any(m.stop - m.start == 2 for r in runs for m in r)


def test_runs_group_solves_shapes_with_several_runs_of_mode_sizes(trace_hashes, monkeypatch):
    # Gauss-Newton, to its stop
    assert_runs_group(trace_hashes, monkeypatch, "runs-gn", "panoc_solve", trace_hashes.SolverConfig().max_iters)


def test_runs_pgd_group_solves_the_same_shapes_for_500_iterations(trace_hashes, monkeypatch):
    assert_runs_group(trace_hashes, monkeypatch, "runs-pgd", "pgd_solve", 500)
