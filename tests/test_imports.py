"""The package imports nothing at run time but numpy and the standard library."""

import ast
import sys
from pathlib import Path

import pytest

SOURCES = sorted((Path(__file__).parent.parent / "src" / "cvgfa").glob("*.py"))


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_imports_are_relative_numpy_or_stdlib(path):
    allowed = set(sys.stdlib_module_names) | {"numpy"}
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            tops = [alias.name.split(".")[0] for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            tops = [node.module.split(".")[0]]
        else:
            continue
        for top in tops:
            assert top in allowed, f"{path.name}:{node.lineno} imports {top}"


def test_the_package_sources_are_found():
    assert {"engine.py", "io.py", "model.py"} <= {p.name for p in SOURCES}


def test_model_imports_nothing_from_engine():
    # engine builds on model; no import of engine, at module level or
    # inside a function, may run the other way
    path = Path(__file__).parent.parent / "src" / "cvgfa" / "model.py"
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            names = [node.module or ""] + [alias.name for alias in node.names]
        else:
            continue
        for name in names:
            where = f"model.py:{node.lineno}"
            assert "engine" not in name.split("."), f"{where} imports {name}"
