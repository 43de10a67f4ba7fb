import argparse
import json
import time

import numpy as np
import pytest

from ncpd.calculus import GramianOperator
from ncpd.checks import run_checks
from ncpd.cli import _parser, main
from ncpd.experiments import (
    InstanceSpec,
    gen_exact_instance,
    gen_inexact_instance,
    run_experiment_compare,
    run_experiment_quadratic,
)
from ncpd.rng import substream
from ncpd.tensors import DenseTensor, ten_read, ten_write

SMALL_SPEC = InstanceSpec(
    dims=(6, 5, 4), rank=2, seed=4, zeros_per_factor=3, negative_entries_per_factor=3
)

EXPECTED_CHECKS = {
    "gradient-vs-finite-differences",
    "gradient-vs-dense-jacobian",
    "gramian-vs-dense-jacobian",
    "kernel-annihilation",
    "kernel-rank-split",
    "projection-jacobian-vs-fd",
    "envelope-below-objective",
    "stepsize-test-consistency",
    "surrogate-vs-dense",
    "surrogate-nonsingular-at-solution",
}


@pytest.fixture()
def tensor_file(tmp_path):
    tensor, _ = gen_exact_instance(SMALL_SPEC)
    path = tmp_path / "input.ten"
    ten_write(path, tensor)
    return path


# --- diagnostic checks ------------------------------------------------------


def test_run_checks_all_pass():
    results = run_checks(scale="tiny", seed=0)
    assert {r.name for r in results} == EXPECTED_CHECKS
    for r in results:
        assert r.passed, f"{r.name}: measured={r.measured} threshold={r.threshold}"
        assert np.isfinite(r.measured) and r.threshold > 0


def test_run_checks_deterministic():
    a = run_checks(scale="tiny", seed=0)
    b = run_checks(scale="tiny", seed=0)
    assert [(r.name, r.measured) for r in a] == [(r.name, r.measured) for r in b]


def test_run_checks_detect_corrupted_gradient():
    from ncpd.calculus import gradient

    def skewed(point, tensor):
        g = gradient(point, tensor)
        return g + 1e-3 * np.ones_like(g)

    results = run_checks(scale="tiny", seed=0, gradient_fn=skewed)
    by_name = {r.name: r for r in results}
    assert not by_name["gradient-vs-finite-differences"].passed
    assert not by_name["gradient-vs-dense-jacobian"].passed


def test_run_checks_detect_a_perturbed_dense_gramian(monkeypatch):
    # the Gramian and surrogate checks compare the matrices that the
    # direction solve takes, so a wrong dense Gramian fails both
    dense = GramianOperator.dense
    monkeypatch.setattr(GramianOperator, "dense", lambda self: dense(self) * (1.0 + 1e-6))
    failed = {r.name for r in run_checks(scale="tiny", seed=0) if not r.passed}
    assert failed == {"gramian-vs-dense-jacobian", "surrogate-vs-dense"}


# --- decompose --------------------------------------------------------------


def test_decompose_true_rank(tensor_file, tmp_path, capsys):
    out = tmp_path / "result"
    code = main(["decompose", str(tensor_file), "--rank", "2", "--out", str(out)])
    assert code == 0
    summary = json.loads((tmp_path / "result.summary.json").read_text())
    assert summary["final_f"] <= 1e-18
    assert summary["reason"] == "tolerance"
    assert summary["rank"] == 2
    assert summary["dims"] == [6, 5, 4]
    for n, dim in enumerate((6, 5, 4)):
        factor = ten_read(tmp_path / f"result.factor{n + 1}.ten")
        assert factor.dims == (dim, 2)
    weights = ten_read(tmp_path / "result.lambda.ten")
    assert weights.dims == (2, 1)
    assert np.all(weights.values >= 0)
    trace_lines = (tmp_path / "result.trace.csv").read_text().strip().split("\n")
    assert trace_lines[0].startswith("k,f,fbe,")
    assert len(trace_lines) == summary["iterations"] + 2  # header + term row
    assert "f=" in capsys.readouterr().out


def test_decompose_reconstructs_tensor(tensor_file, tmp_path):
    from ncpd.tensors import CpdPoint, tensor_from_cpd

    out = tmp_path / "result"
    assert main(["decompose", str(tensor_file), "--rank", "2", "--out", str(out)]) == 0
    factors = [ten_read(tmp_path / f"result.factor{n + 1}.ten").as_array() for n in range(3)]
    weights = ten_read(tmp_path / "result.lambda.ten").values
    rebuilt = tensor_from_cpd(CpdPoint(factors, weights))
    original = ten_read(tensor_file)
    assert np.linalg.norm(rebuilt.values - original.values) <= 1e-9 * np.linalg.norm(original.values)


def test_decompose_rank_zero_is_usage_error(tensor_file, tmp_path, capsys):
    code = main(["decompose", str(tensor_file), "--rank", "0", "--out", str(tmp_path / "x")])
    assert code == 1
    assert "error:" in capsys.readouterr().err


def test_decompose_missing_file(tmp_path, capsys):
    missing = tmp_path / "nowhere.ten"
    code = main(["decompose", str(missing), "--rank", "2", "--out", str(tmp_path / "x")])
    assert code == 1
    assert str(missing) in capsys.readouterr().err


def test_decompose_malformed_tensor(tmp_path, capsys):
    bad = tmp_path / "bad.ten"
    bad.write_text("3\n2 2\n1.0\n")
    code = main(["decompose", str(bad), "--rank", "1", "--out", str(tmp_path / "x")])
    assert code == 1
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
def test_decompose_rejects_non_finite_tensor_file(tmp_path, capsys, value):
    bad = tmp_path / "bad.ten"
    bad.write_text(f"2\n2 2\n1.0\n{value}\n3.0\n4.0\n")
    out = tmp_path / "x"
    code = main(["decompose", str(bad), "--rank", "1", "--out", str(out)])
    assert code == 1
    err = capsys.readouterr().err
    assert str(bad) in err and "non-finite" in err
    assert list(tmp_path.iterdir()) == [bad]  # rejected before the solve


def test_decompose_writes_partial_trace_on_non_finite_value(tmp_path, capsys):
    # a finite tensor whose squared residual overflows at the start point:
    # the solve raises before its first trace row, and the trace file keeps
    # the header (compare-study seed 1, scaled by 1e155)
    tensor = gen_inexact_instance(InstanceSpec(seed=1))
    path = tmp_path / "scaled.ten"
    ten_write(path, DenseTensor(tensor.dims, tensor.values * 1e155))
    out = tmp_path / "scaled"
    code = main(["decompose", str(path), "--seed", "1", "--out", str(out)])
    assert code == 1
    assert "non-finite" in capsys.readouterr().err
    lines = (tmp_path / "scaled.trace.csv").read_text().splitlines()
    assert len(lines) == 1 and lines[0].startswith("k,f,fbe,")
    assert not (tmp_path / "scaled.summary.json").exists()


def test_decompose_out_of_memory_names_the_direction_system(tensor_file, tmp_path, capsys, monkeypatch):
    # a direction system too large for memory ends in a message, not a
    # traceback; projected gradient, which solves no such system, still runs
    def no_memory(state):
        raise MemoryError

    monkeypatch.setattr("ncpd.solver.solve_direction", no_memory)
    n = 2 * (6 + 5 + 4) + 2
    code = main(["decompose", str(tensor_file), "--rank", "2", "--out", str(tmp_path / "gn")])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error: out of memory")
    assert f"size n = {n}" in err and f"{16 * n * n} bytes" in err and "--pgd-only" in err
    code = main(["decompose", str(tensor_file), "--rank", "2", "--pgd-only", "--out", str(tmp_path / "pgd")])
    assert code in (0, 2)
    assert (tmp_path / "pgd.summary.json").exists()


def test_decompose_pgd_only_with_iteration_cap(tensor_file, tmp_path, capsys):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"solver": {"max_iters": 5, "epsilon": 1e-300}}))
    out = tmp_path / "pgd"
    code = main(
        ["decompose", str(tensor_file), "--rank", "2", "--pgd-only",
         "--config", str(cfg_path), "--out", str(out)]
    )
    assert code == 2
    summary = json.loads((tmp_path / "pgd.summary.json").read_text())
    assert summary["algorithm"] == "pgd"
    assert summary["reason"] == "max-iters"
    assert summary["iterations"] == 5


def test_decompose_seed_changes_start(tensor_file, tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"solver": {"max_iters": 3, "epsilon": 1e-300}}))
    main(["decompose", str(tensor_file), "--rank", "2", "--config", str(cfg_path), "--out", str(a)])
    main(["decompose", str(tensor_file), "--rank", "2", "--config", str(cfg_path),
          "--seed", "9", "--out", str(b)])
    ta = (tmp_path / "a.trace.csv").read_text()
    tb = (tmp_path / "b.trace.csv").read_text()
    assert ta != tb


def test_decompose_default_seed_is_zero(tensor_file, tmp_path):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"solver": {"max_iters": 3, "epsilon": 1e-300}}))
    for name, seed in (("a", []), ("b", ["--seed", "0"])):
        main(["decompose", str(tensor_file), "--rank", "2", "--config", str(cfg_path),
              *seed, "--out", str(tmp_path / name)])
    outputs = sorted(p.name[2:] for p in tmp_path.glob("a.*"))
    assert len(outputs) == 6
    for suffix in outputs:
        assert (tmp_path / f"a.{suffix}").read_bytes() == (tmp_path / f"b.{suffix}").read_bytes()


# --- config overlay ----------------------------------------------------------


def test_config_unknown_solver_key(tensor_file, tmp_path, capsys):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"solver": {"alpa": 0.9}}))
    code = main(["decompose", str(tensor_file), "--rank", "2",
                 "--config", str(cfg_path), "--out", str(tmp_path / "x")])
    assert code == 1
    assert "alpa" in capsys.readouterr().err


@pytest.mark.parametrize("key", ["cg_tol", "cg_maxit", "damping", "feas_tol", "gn_enabled", "lipschitz_fd_step"])
def test_config_removed_cg_keys_are_unknown(key, tensor_file, tmp_path, capsys):
    # removed knobs (the old CG direction solve's, the unused feasibility
    # tolerance, the direction switch and the probe's spacing) are rejected
    # like any typo
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"solver": {key: 1}}))
    code = main(["decompose", str(tensor_file), "--rank", "2",
                 "--config", str(cfg_path), "--out", str(tmp_path / "x")])
    assert code == 1
    assert f"unknown solver config keys: {key}" in capsys.readouterr().err


def test_config_unknown_section(tensor_file, tmp_path, capsys):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"slover": {}}))
    code = main(["decompose", str(tensor_file), "--rank", "2",
                 "--config", str(cfg_path), "--out", str(tmp_path / "x")])
    assert code == 1
    assert "slover" in capsys.readouterr().err


def test_config_malformed_json(tensor_file, tmp_path, capsys):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text("{not json")
    code = main(["decompose", str(tensor_file), "--rank", "2",
                 "--config", str(cfg_path), "--out", str(tmp_path / "x")])
    assert code == 1
    assert "malformed config" in capsys.readouterr().err


def test_config_invalid_field_value(tensor_file, tmp_path, capsys):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"solver": {"alpha": 2.0}}))
    code = main(["decompose", str(tensor_file), "--rank", "2",
                 "--config", str(cfg_path), "--out", str(tmp_path / "x")])
    assert code == 1


@pytest.mark.parametrize("overlay,message", [
    ({"instance": {"rank": 2.5}}, "invalid instance config: rank must be an integer, got 2.5"),
    ({"instance": {"dims": [4, 4.7, 4]}}, "invalid instance config: mode size must be an integer, got 4.7"),
    ({"instance": {"zeros_per_factor": 1.5}}, "invalid instance config: zeros_per_factor must be an integer, got 1.5"),
    ({"solver": {"max_iters": 2.5}}, "invalid solver config: max_iters must be an integer, got 2.5"),
    ({"solver": {"max_iters": True}}, "invalid solver config: max_iters must be an integer, got True"),
    ({"solver": {"seed": 1.5}}, "invalid solver config: seed must be an integer, got 1.5"),
    ({"solver": {"cauchy_floor": "no"}}, "invalid solver config: cauchy_floor must be a bool, got 'no'"),
    ({"solver": {"box_bound": True}}, "invalid solver config: box_bound must be a real number, got True"),
    ({"solver": {"alpha": "0.5"}}, "invalid solver config: alpha must be a real number, got '0.5'"),
    ({"solver": None}, "solver config section must be a JSON object"),
    ({"solver": [1]}, "solver config section must be a JSON object"),
    ({"instance": "rank"}, "instance config section must be a JSON object"),
], ids=["rank", "dims", "zeros_per_factor", "max_iters", "max_iters-bool", "seed", "cauchy_floor", "box_bound-bool",
        "alpha-string", "solver-null", "solver-list", "instance-string"])
def test_config_non_integer_value_exits_1_and_writes_nothing(overlay, message, tmp_path, capsys):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(overlay))
    code = main(["experiment", "compare", "--runs", "1",
                 "--config", str(cfg_path), "--out", str(tmp_path / "c")])
    assert code == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert [p.name for p in tmp_path.iterdir()] == ["cfg.json"]


@pytest.mark.parametrize("flag", [["--convention", "1"], ["--no-cauchy-floor"], ["--cauchy-reciprocal"],
                                  ["--no-cauchy-reciprocal"]], ids=lambda flag: flag[0])
@pytest.mark.parametrize("command", [["decompose", "x.ten"], ["experiment", "compare"]], ids=lambda c: c[0])
def test_retired_solver_flags_are_usage_errors(command, flag, capsys):
    with pytest.raises(SystemExit) as info:
        main([*command, *flag])
    assert info.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


SMALL_OVERLAY = {
    "instance": {
        "dims": [6, 5, 4],
        "rank": 2,
        "zeros_per_factor": 3,
        "negative_entries_per_factor": 3,
    }
}


# --- experiment --------------------------------------------------------------


def experiment_config(tmp_path):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(SMALL_OVERLAY))
    return cfg_path


def test_experiment_quadratic_deterministic(tmp_path, capsys):
    cfg_path = experiment_config(tmp_path)
    for prefix in ("one", "two"):
        code = main(
            ["experiment", "quadratic", "--runs", "3", "--seed", "7",
             "--config", str(cfg_path), "--out", str(tmp_path / prefix)]
        )
        assert code == 0
    assert (tmp_path / "one.csv").read_bytes() == (tmp_path / "two.csv").read_bytes()
    assert (tmp_path / "one.json").read_bytes() == (tmp_path / "two.json").read_bytes()


def test_experiment_quadratic_headline_matches_json(tmp_path, capsys):
    cfg_path = experiment_config(tmp_path)
    code = main(
        ["experiment", "quadratic", "--runs", "2", "--seed", "1",
         "--config", str(cfg_path), "--out", str(tmp_path / "q")]
    )
    assert code == 0
    out = capsys.readouterr().out
    agg = json.loads((tmp_path / "q.json").read_text())
    assert f"median slope {agg['median_slope']}" in out
    assert agg["experiment"] == "quadratic"


def test_experiment_compare_medians_in_json(tmp_path, capsys):
    cfg_path = experiment_config(tmp_path)
    code = main(
        ["experiment", "compare", "--runs", "2", "--seed", "1",
         "--config", str(cfg_path), "--out", str(tmp_path / "c")]
    )
    assert code == 0
    agg = json.loads((tmp_path / "c.json").read_text())
    assert agg["median_panoc_gradients"] > 0
    assert agg["median_pgd_gradients"] > 0
    out = capsys.readouterr().out
    assert f"{agg['median_panoc_gradients']}" in out
    assert f"{agg['median_pgd_gradients']}" in out


@pytest.mark.parametrize("study", [run_experiment_quadratic, run_experiment_compare])
@pytest.mark.parametrize("runs", [0, -3])
def test_studies_reject_fewer_than_one_run(study, runs):
    with pytest.raises(ValueError, match=f"runs must be at least 1, got {runs}"):
        study(runs)


@pytest.mark.parametrize("name", ["quadratic", "compare"])
def test_experiment_with_fewer_than_one_run_exits_1_and_writes_nothing(name, tmp_path, capsys):
    assert main(["experiment", name, "--runs", "-3", "--out", str(tmp_path / "e")]) == 1
    assert capsys.readouterr().err == "error: runs must be at least 1, got -3\n"
    assert list(tmp_path.iterdir()) == []


def test_substream_names_a_negative_seed():
    with pytest.raises(ValueError, match="seed must be a nonnegative integer, got -1"):
        substream(-1, 2)


@pytest.mark.parametrize("command", ["experiment", "check", "decompose"])
def test_a_negative_seed_exits_1_naming_the_seed(command, tensor_file, tmp_path, capsys):
    argv = {
        "experiment": ["experiment", "quadratic", "--runs", "1", "--out", str(tmp_path / "e")],
        "check": ["check"],
        "decompose": ["decompose", str(tensor_file), "--out", str(tmp_path / "d")],
    }[command]
    assert main([*argv, "--seed", "-1"]) == 1
    assert capsys.readouterr().err == "error: seed must be a nonnegative integer, got -1\n"
    assert [p.name for p in tmp_path.iterdir()] == ["input.ten"]


def test_experiment_rejects_unknown_name(tmp_path):
    with pytest.raises(SystemExit):
        main(["experiment", "cubic", "--runs", "1"])


# --- check -------------------------------------------------------------------


def test_check_command_passes_quickly(capsys):
    began = time.monotonic()
    code = main(["check", "--scale", "tiny"])
    elapsed = time.monotonic() - began
    assert code == 0
    out = capsys.readouterr().out
    assert out.count("[PASS]") == len(EXPECTED_CHECKS)
    assert "[FAIL]" not in out
    assert elapsed < 10.0


def test_check_passes_its_seed_to_the_checks(monkeypatch):
    calls = []
    monkeypatch.setattr("ncpd.checks.run_checks", lambda **kwargs: calls.append(kwargs) or [])
    assert main(["check", "--seed", "3"]) == 0
    assert main(["check"]) == 0
    assert calls == [{"scale": "tiny", "seed": 3}, {"scale": "tiny", "seed": 0}]


def options_of_solve_commands_only() -> list[str]:
    """The options that ``decompose`` and ``experiment`` both take and
    ``check`` does not, read from the parser."""
    commands = next(a for a in _parser()._actions if isinstance(a, argparse._SubParsersAction)).choices
    options = {name: set(sub._option_string_actions) for name, sub in commands.items()}
    return sorted(options["decompose"] & options["experiment"] - options["check"])


def test_solve_commands_have_options_check_lacks():
    assert {"--rank", "--config"} <= set(options_of_solve_commands_only())


@pytest.mark.parametrize("flag", [[option, "1"] for option in options_of_solve_commands_only()])
def test_check_rejects_solver_flags(flag, capsys):
    with pytest.raises(SystemExit):
        main(["check", *flag])
    assert f"unrecognized arguments: {' '.join(flag)}" in capsys.readouterr().err
