"""The package's public surface: the README's library example runs on it,
every name it exports resolves, and the README's configuration block
lists the solver's fields."""

import dataclasses
import json
import re
from pathlib import Path

import ncpd
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


def test_readme_solver_block_names_every_config_field():
    text = README.read_text(encoding="utf-8")
    block = json.loads(re.search(r"### Configuration\n.*?```json\n(.*?)```", text, re.S).group(1))
    defaults = {f.name: f.default for f in dataclasses.fields(SolverConfig)}
    assert block["solver"] == defaults
