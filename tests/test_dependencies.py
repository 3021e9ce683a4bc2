"""The package imports nothing but numpy and the standard library, as
pyproject.toml declares."""

import ast
import sys
from pathlib import Path

PACKAGE = Path(__file__).parents[1] / "src" / "bellforge"
ALLOWED = {"numpy"} | set(sys.stdlib_module_names)


def foreign_imports(source: str) -> list[str]:
    """Top-level modules of the absolute imports in `source` outside ALLOWED."""
    names = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names += [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.append(node.module)
    return [name for name in names if name.split(".")[0] not in ALLOWED]


def test_the_checker_flags_only_foreign_absolute_imports():
    source = (
        "import numpy.linalg\nimport os, scipy.linalg\nfrom . import bell\n"
        "from .quadrature import MCSpec\nfrom __future__ import annotations\n"
        "def f():\n    from hypothesis import given\n"
    )
    assert foreign_imports(source) == ["scipy.linalg", "hypothesis"]


def test_the_package_imports_only_numpy_and_the_standard_library():
    sources = sorted(PACKAGE.glob("*.py"))
    assert sources
    found = {path.name: foreign_imports(path.read_text()) for path in sources}
    assert {name: imports for name, imports in found.items() if imports} == {}
