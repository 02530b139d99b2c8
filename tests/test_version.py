"""The package version is spelled once, in pyproject.toml."""

from pathlib import Path

import pytest

import risvital

tomllib = pytest.importorskip("tomllib")  # stdlib from Python 3.11

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"


def test_package_version_matches_pyproject():
    project = tomllib.loads(PYPROJECT.read_text())["project"]
    assert risvital.__version__ == project["version"]
