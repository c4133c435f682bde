"""Source hygiene: no module of the library or of the tests imports a name
it never uses.

A stdlib `ast` scan.  An imported name counts as used when it appears as a
name anywhere in the module (string annotations included), when it is
listed in the module's `__all__`, or when the module is `ekk/__init__.py`,
whose imports are the package's public names.
"""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
MODULES = sorted((ROOT / "src" / "ekk").glob("*.py")) + \
    sorted((ROOT / "tests").glob("*.py"))


def _imported(tree: ast.Module):
    """(line, bound name) for every import in the module."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield node.lineno, alias.asname or alias.name.split(".")[0]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                if alias.name != "*":
                    yield node.lineno, alias.asname or alias.name


def _annotations(tree: ast.Module):
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            args = node.args
            for arg in (args.posonlyargs + args.args + args.kwonlyargs
                        + [args.vararg, args.kwarg]):
                if arg is not None and arg.annotation is not None:
                    yield arg.annotation
            if node.returns is not None:
                yield node.returns
        elif isinstance(node, ast.AnnAssign):
            yield node.annotation


def _names(tree: ast.AST) -> set:
    """Every name in the tree, and in the string annotations within it."""
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for annotation in _annotations(tree):
        for node in ast.walk(annotation):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                used |= _names(ast.parse(node.value, mode="eval"))
    return used


def _exported(tree: ast.Module) -> set:
    """The names listed in the module's `__all__`."""
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__"
                for t in node.targets):
            return {elt.value for elt in node.value.elts}
    return set()


def unused_imports(path: Path):
    tree = ast.parse(path.read_text(), filename=str(path))
    if path.name == "__init__.py":
        return []
    used = _names(tree) | _exported(tree)
    return [f"{path.name}:{line} {name}"
            for line, name in _imported(tree) if name not in used]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path) == []


def test_scan_flags_an_unused_import(tmp_path):
    path = tmp_path / "probe.py"
    path.write_text('import os\nfrom typing import Dict, List\n'
                    'from .algebra import Element\n'
                    '__all__ = ["Element"]\n'
                    'def f(x: "Dict[str, int]") -> int:\n    return 1\n')
    assert unused_imports(path) == ["probe.py:1 os", "probe.py:2 List"]
