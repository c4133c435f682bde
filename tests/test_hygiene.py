"""Source hygiene: no module of the library or of the tests imports a name
it never uses, the library defines no member that nothing uses, and only
the imports that must wait for call time sit inside a function.

Stdlib `ast` scans.  An imported name counts as used when it appears as a
name anywhere in the module (string annotations included), when it is
listed in the module's `__all__`, or when the module is `ekk/__init__.py`,
whose imports are the package's public names.  A method or property of a
library class counts as used when its name appears as an attribute in the
library, the tests or the benchmark, or when it overrides a member of a
`module.Class` base from outside the library, which that base calls.
A private module-level function counts as used when its name appears there
as a name or an attribute.
"""

from __future__ import annotations

import ast
import importlib
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
LIBRARY = sorted((ROOT / "src" / "ekk").glob("*.py"))
MODULES = LIBRARY + sorted((ROOT / "tests").glob("*.py"))
USERS = MODULES + sorted((ROOT / "bench").rglob("*.py"))


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


def _inherited(cls: ast.ClassDef) -> set:
    """Member names of the `module.Class` bases of `cls`."""
    names = set()
    for base in cls.bases:
        if isinstance(base, ast.Attribute) and isinstance(base.value,
                                                          ast.Name):
            module = importlib.import_module(base.value.id)
            names |= set(dir(getattr(module, base.attr)))
    return names


def function_local_imports(library):
    """(file, module, name) for each relative import inside a function body
    of the `library` modules, in file and line order."""
    found = []
    for path in library:
        nodes = {}  # an import in a nested function is walked twice
        for fn in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                nodes.update((id(node), node) for node in ast.walk(fn)
                             if isinstance(node, ast.ImportFrom)
                             and node.level)
        for node in sorted(nodes.values(), key=lambda n: n.lineno):
            found += [(path.name, node.module, alias.name)
                      for alias in node.names]
    return found


def unused_members(library, users):
    """Methods, properties and private functions of the `library` modules
    whose names the `users` modules never read."""
    attrs, names = set(), set()
    for path in users:
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Attribute):
                attrs.add(node.attr)
            elif isinstance(node, ast.Name):
                names.add(node.id)
    found = []
    for path in library:
        for node in ast.parse(path.read_text(), filename=str(path)).body:
            if isinstance(node, ast.ClassDef):
                used = attrs | _inherited(node)
                found += [f"{path.name}:{item.lineno} {node.name}.{item.name}"
                          for item in node.body
                          if isinstance(item, ast.FunctionDef)
                          and not item.name.startswith("__")
                          and item.name not in used]
            elif isinstance(node, ast.FunctionDef) and \
                    node.name.startswith("_") and \
                    node.name not in attrs | names:
                found.append(f"{path.name}:{node.lineno} {node.name}")
    return found


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


def test_no_unused_members():
    assert unused_members(LIBRARY, USERS) == []


def test_scan_flags_an_unused_member(tmp_path):
    library = tmp_path / "probe.py"
    library.write_text('import argparse\n'
                       'class A:\n'
                       '    def __len__(self):\n        return 0\n'
                       '    def used(self):\n        return _helper()\n'
                       '    def unused(self):\n        return 1\n'
                       'class P(argparse.ArgumentParser):\n'
                       '    def error(self, message):\n        pass\n'
                       'def _helper():\n    return 1\n'
                       'def _orphan():\n    return 2\n'
                       'def public():\n    return 3\n')
    user = tmp_path / "user.py"
    user.write_text('def f(a):\n    return a.used()\n')
    assert unused_members([library], [library, user]) == [
        "probe.py:7 A.unused", "probe.py:14 _orphan"]


def test_only_dgca_imports_inside_a_function():
    # d is a Derivation, and the torus constructor applies s_i; every other
    # library import is at module level, so no import cycle is deferred
    assert function_local_imports(LIBRARY) == [
        ("dgca.py", "derivations", "Derivation"),
        ("dgca.py", "derivations", "s_derivation"),
    ]
