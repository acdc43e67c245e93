"""speds runs on numpy alone: no module of the package imports scipy."""

import ast
from pathlib import Path

import pytest

import speds

PACKAGE = Path(speds.__file__).parent
MODULES = sorted(PACKAGE.rglob("*.py"))


def imported_packages(path):
    """The top-level package of every absolute import in the module at ``path``."""
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            yield from (alias.name.partition(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module.partition(".")[0]


def test_imports_are_seen():
    assert {"numpy", "dataclasses", "functools"} <= set(imported_packages(PACKAGE / "dipole.py"))


@pytest.mark.parametrize("path", MODULES, ids=lambda p: str(p.relative_to(PACKAGE)))
def test_no_module_imports_scipy(path):
    assert "scipy" not in set(imported_packages(path))
