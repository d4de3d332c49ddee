"""The package imports, at run time, exactly the dependencies pyproject.toml
declares, so that a dependency can neither come back nor go unnoticed."""

import ast
import re
import sys
from pathlib import Path

import pytest

tomllib = pytest.importorskip("tomllib")  # Python 3.11 and later

ROOT = Path(__file__).resolve().parents[1]


def _imported_packages(path: Path) -> set[str]:
    """Top-level names of the absolute imports anywhere in one source file."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Import):
            names.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.add(node.module.split(".")[0])
    return names


def test_runtime_imports_are_the_declared_dependencies():
    sources = sorted((ROOT / "src" / "fockalg").glob("*.py"))
    assert sources
    imported = set().union(*map(_imported_packages, sources))
    third_party = imported - set(sys.stdlib_module_names) - {"fockalg"}
    project = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]
    # each requirement's distribution name, which is its import name here
    declared = {re.match(r"[A-Za-z0-9_.-]+", dep).group() for dep in project["dependencies"]}
    assert third_party == declared
