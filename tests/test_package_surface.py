"""Package-surface guard: no test hooks or mutable globals in the modules,
and every exported name exists."""

import ast
import importlib
from pathlib import Path

import pytest

import varitrace

SRC = Path(varitrace.__file__).parent
MODULES = sorted(SRC.glob("*.py"))


def parse(path):
    return ast.parse(path.read_text(), filename=str(path))


def defined_names(node):
    """Every name a node binds or refers to, including attributes."""
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        yield node.name
    elif isinstance(node, ast.Name):
        yield node.id
    elif isinstance(node, ast.Attribute):
        yield node.attr
    elif isinstance(node, ast.alias):
        yield node.asname or node.name
    elif isinstance(node, ast.arg):
        yield node.arg


def module_name(path):
    return "varitrace" if path.stem == "__init__" else f"varitrace.{path.stem}"


def test_modules_found():
    assert {p.stem for p in MODULES} >= {"__init__", "cli", "propagation", "reflection"}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_global_statements_or_testing_hooks(path):
    tree = parse(path)
    for node in ast.walk(tree):
        assert not isinstance(node, (ast.Global, ast.Nonlocal)), (
            f"{path.name}:{node.lineno}: module state rebound from a function")
        for name in defined_names(node):
            assert not name.endswith("_for_testing"), f"{path.name}: {name}"


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_all_names_exist(path):
    module = importlib.import_module(module_name(path))
    for name in getattr(module, "__all__", ()):
        assert hasattr(module, name), f"{module.__name__}.__all__ lists missing {name}"


def test_package_imports_exist():
    tree = parse(SRC / "__init__.py")
    imported = [alias.asname or alias.name
                for node in tree.body if isinstance(node, ast.ImportFrom)
                for alias in node.names]
    assert imported
    for name in imported:
        assert hasattr(varitrace, name), f"varitrace does not provide {name}"
