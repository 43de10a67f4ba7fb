"""The summaries and verdicts of ``scripts/outcome_panels.py`` and its
reading of a saved output."""

import importlib.util
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "outcome_panels.py"


@pytest.fixture()
def panels(monkeypatch):
    # The script pins BLAS to one thread at import; holding the variables
    # here restores them afterwards.
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        monkeypatch.setenv(var, "1")
    spec = importlib.util.spec_from_file_location("outcome_panels", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def run(f, stop="tolerance", gradients=10, to_1pct=5, zeros=0):
    return {"f": repr(f), "stop": stop, "gradients": str(gradients), "to-1pct": str(to_1pct),
            "zero-weights": str(zeros)}


def test_wide_a1_counts_steep_converged_runs_per_block(panels):
    # block 1: 40 steep, 5 shallow, 3 without a slope, 2 not converged;
    # block 2: all 50 steep
    runs = [(True, 2.0)] * 40 + [(True, 1.2)] * 5 + [(True, None)] * 3 + [(False, 2.0)] * 2 + [(True, 1.9)] * 50
    line, = panels.wide_a1_lines(runs)
    fields = panels.fields(line)
    assert fields["steep"] == "90/98"
    assert fields["blocks"] == "40,50"
    share = 90 / 98
    assert fields["share"] == f"{100 * share:.1f}%±{196 * np.sqrt(share * (1 - share) / 98):.1f}%"
    assert fields["median-seeds-1-50"] == "2.0000"  # 42 slopes of 2.0 and 5 of 1.2


def test_wide_a1_verdict_gives_both_sides(panels):
    before = panels.wide_a1_lines([(True, 2.0)] * 50 + [(True, 1.0)] * 50)
    after = panels.wide_a1_lines([(True, 2.0)] * 49 + [(True, 1.0)] * 51)
    assert panels.verdict("wide-a1", after, before) == \
        "wide-a1  steep 50 → 49 of 100  blocks 50,0 → 49,0  median 2.0000 → 2.0000"


def test_panel_verdict_counts_moved_finals_and_names_changed_stops(panels):
    before = {"a seed 1": run(1.0), "a seed 2": run(2.0), "b seed 1": run(3.0, zeros=1), "b seed 2": run(4.0)}
    after = {
        "a seed 1": run(1.0 + 1e-9, gradients=8),  # not moved
        "a seed 2": run(1.5),  # better
        "b seed 1": run(3.0, stop="stagnation", zeros=1),
        "b seed 2": run(4.4),  # worse
    }
    lines = panels.panel_lines(after)
    assert lines[0] == "panel  runs=4  gradients=38  tolerance=3  zero-weight-finals=1"
    assert lines[3] == "  panel b seed 1  f=3.0  stop=stagnation  gradients=10  zero-weights=1"
    verdict = panels.verdict("panel", lines, panels.panel_lines(before))
    assert verdict == ("panel  better 1  worse 1  max |Δf|/f 2.5e-01  gradients 40 → 38  "
                       "zero-weight-finals 1 → 1  stops changed: b seed 1 tolerance → stagnation")


def test_compare_verdict_sums_gradients_to_1pct_over_unmoved_seeds(panels):
    before = {"seed 1": run(1.0, to_1pct=20), "seed 2": run(2.0, to_1pct=30, zeros=2), "seed 3": run(3.0, to_1pct=40)}
    after = {"seed 1": run(1.0, to_1pct=22), "seed 2": run(1.0, to_1pct=90), "seed 3": run(3.0, to_1pct=41, zeros=1)}
    lines = panels.compare_lines(after)
    assert lines[0] == "compare-50  runs=3  gradients=30  to-1pct=153  zero-weight-seeds=3"
    verdict = panels.verdict("compare-50", lines, panels.compare_lines(before))
    assert verdict == ("compare-50  gradients 30 → 30  zero-weight-seeds 2 → 3  "
                       "to-1pct over the 2 seeds whose f did not move 60 → 63")
    assert panels.compare_lines({"seed 1": run(1.0)})[0].endswith("zero-weight-seeds=none")


def test_a_panel_without_its_baseline_gets_no_comparison(panels):
    lines = panels.compare_lines({"seed 1": run(1.0)})
    assert panels.verdict("compare-50", lines, None) == "compare-50  no baseline"
    other = panels.compare_lines({"seed 2": run(1.0)})
    assert panels.verdict("compare-50", lines, other) == "compare-50  other runs than the baseline's"


def test_read_baseline_skips_verdict_lines(panels, tmp_path):
    wide = panels.wide_a1_lines([(True, 2.0)] * 50)
    panel = panels.panel_lines({"a seed 1": run(1.0)})
    compare = panels.compare_lines({"seed 1": run(1.0)})
    saved = [*wide, panels.verdict("wide-a1", wide, wide),
             *panel, panels.verdict("panel", panel, panel),
             *compare, panels.verdict("compare-50", compare, None)]
    path = tmp_path / "saved.txt"
    path.write_text("\n".join(saved) + "\n", encoding="utf-8")
    assert panels.read_baseline(path) == {"wide-a1": wide, "panel": panel, "compare-50": compare}


def test_inexact_run_reports_the_solve_to_its_stop(panels):
    spec = replace(panels.InstanceSpec(dims=(5, 4, 3), rank=2, zeros_per_factor=2,
                                       negative_entries_per_factor=2), seed=3)
    got = panels.inexact_run(spec)
    result = panels.panoc_solve(panels.gen_inexact_instance(spec),
                                panels.random_feasible_point(spec.structure, 3), panels.SolverConfig(seed=3))
    assert got == {
        "f": format(result.f, ".17g"),
        "stop": result.reason,
        "gradients": str(result.trace[-1].gevals),
        "to-1pct": str(panels.gradient_count_to_threshold(result.trace, 1.01 * result.f)[0]),
        "zero-weights": str(int(np.sum(result.point.weights == 0.0))),
    }
