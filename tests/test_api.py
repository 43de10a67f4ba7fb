"""The package's public surface: the README's library example runs on it,
every name it exports resolves, the README's configuration block lists
the solver's and the instance's fields, and its flags line names the
command line's solver flags."""

import dataclasses
import json
import re
from pathlib import Path

import ncpd
from ncpd.cli import _parser
from ncpd.experiments import InstanceSpec
from ncpd.solver import SolverConfig

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_library_example_runs(capsys):
    text = README.read_text(encoding="utf-8")
    code = re.search(r"## Library\n+```python\n(.*?)```", text, re.S).group(1)
    exec(compile(code, str(README), "exec"), {})
    assert capsys.readouterr().out.split()[0] == "tolerance"


def test_every_exported_name_resolves():
    assert len(set(ncpd.__all__)) == len(ncpd.__all__)
    for name in ncpd.__all__:
        assert hasattr(ncpd, name), name
    namespace = {}
    exec("from ncpd import *", namespace)
    assert set(ncpd.__all__) <= set(namespace)


def readme_config_block():
    text = README.read_text(encoding="utf-8")
    return json.loads(re.search(r"### Configuration\n.*?```json\n(.*?)```", text, re.S).group(1))


def test_readme_solver_block_names_every_config_field():
    defaults = {f.name: f.default for f in dataclasses.fields(SolverConfig)}
    assert readme_config_block()["solver"] == defaults


def test_readme_instance_block_names_every_spec_field_but_the_seed():
    # the seed comes from the study's base seed, run by run
    defaults = {f.name: f.default for f in dataclasses.fields(InstanceSpec) if f.name != "seed"}
    defaults["dims"] = list(defaults["dims"])
    assert readme_config_block()["instance"] == defaults


def test_readme_flags_line_names_every_solver_flag():
    # the options of decompose and experiment other than the output
    # prefix, the study's run count, the algorithm switch and the overlay
    # itself
    text = README.read_text(encoding="utf-8")
    line = re.search(r"Flags applied after the overlay: (.*?)\.", text, re.S).group(1)
    named = {flag for span in re.findall(r"`([^`]*)`", line) for flag in re.findall(r"--[a-z-]+", span)}
    commands = next(action.choices for action in _parser()._actions if action.dest == "command")
    options = {
        option
        for name in ("decompose", "experiment")
        for action in commands[name]._actions
        for option in action.option_strings
    }
    assert named == options - {"-h", "--help", "--out", "--runs", "--pgd-only", "--config"}
