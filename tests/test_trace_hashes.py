"""The verdicts of ``scripts/trace_hashes.py --baseline`` and its reading of
a saved output."""

import importlib.util
from pathlib import Path

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


def test_the_exact_line_is_the_same_or_differs(trace_hashes):
    line = "exact  10,10,10r5=20/20  7,5r3=20/20"
    assert trace_hashes.group_verdict([line], [line]) == "same"
    assert trace_hashes.group_verdict([line], [line.replace("7,5r3=20", "7,5r3=19")]) == "differs"
    assert trace_hashes.group_verdict([line], None) == "differs"


def assert_runs_group(trace_hashes, monkeypatch, group, solver, max_iters):
    """The group solves, with ``solver`` and ``max_iters``, instances whose
    mode sizes form several runs, one of them two modes long, each from
    the study start of its seed."""
    solved = []

    def record(tensor, start, cfg):
        solved.append((tensor.dims, start.structure.rank, cfg.seed, cfg.max_iters))
        assert trace_hashes.random_feasible_point(start.structure, cfg.seed).flat.tobytes() == start.flat.tobytes()

    monkeypatch.setattr(trace_hashes, solver, record)
    list(trace_hashes.GROUPS[group]())
    assert solved == [(dims, 3, seed, max_iters) for dims in [(6, 5, 4, 3), (5, 4, 3, 3, 2)] for seed in (1, 2, 3)]
    runs = [[mode_group[1] for mode_group in spec.structure.mode_groups] for spec in trace_hashes.RUN_SPECS]
    assert all(len(r) > 1 for r in runs)
    assert any(m.stop - m.start == 2 for r in runs for m in r)


def test_runs_group_solves_shapes_with_several_runs_of_mode_sizes(trace_hashes, monkeypatch):
    # Gauss-Newton, to its stop
    assert_runs_group(trace_hashes, monkeypatch, "runs-gn", "panoc_solve", trace_hashes.SolverConfig().max_iters)


def test_runs_pgd_group_solves_the_same_shapes_for_500_iterations(trace_hashes, monkeypatch):
    assert_runs_group(trace_hashes, monkeypatch, "runs-pgd", "pgd_solve", 500)
