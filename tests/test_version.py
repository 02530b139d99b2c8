"""The package root: its version, spelled once in pyproject.toml, and the
two names that the README's library example imports from it."""

import inspect
import math
from pathlib import Path

import pytest

import risvital

tomllib = pytest.importorskip("tomllib")  # stdlib from Python 3.11

ROOT = Path(__file__).resolve().parents[1]
PYPROJECT = ROOT / "pyproject.toml"


def test_package_version_matches_pyproject():
    project = tomllib.loads(PYPROJECT.read_text())["project"]
    assert risvital.__version__ == project["version"]


def test_root_exports_only_the_library_example_names():
    public = {name for name, value in vars(risvital).items()
              if not name.startswith("_") and not inspect.ismodule(value)}
    assert public == {"Scenario", "StrategyConfig"}


def test_readme_library_example_runs(capsys):
    section = (ROOT / "README.md").read_text().split("## Library use\n")[1]
    example = section.split("```python\n")[1].split("```")[0]
    exec(example, {})
    freq, prominence = map(float, capsys.readouterr().out.split())
    assert math.isfinite(freq) and math.isfinite(prominence)
