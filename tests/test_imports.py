"""No module of the package binds a name it never uses.

A dependency-free stand-in for a linter's unused-name rules: each module
under ``src/mdimlab`` is parsed with ``ast``, and every name an import binds
must be read somewhere in that module.  ``from __future__`` imports are
exempt, since they change compilation rather than bind a name to read.  A
private module-level name (one leading ``_``) must be read in its module
too, so a helper that a refactor leaves without callers shows up here.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "mdimlab"


def _quoted_names(tree):
    """Names read by quoted annotations such as "Ball" or "list[Ball]"."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Constant) and isinstance(node.value, str):
            try:
                expr = ast.parse(node.value, mode="eval")
            except SyntaxError:
                continue
            names |= {n.id for n in ast.walk(expr) if isinstance(n, ast.Name)}
    return names


def _names_read(tree):
    """Every name the module reads, quoted annotations and ``__all__`` included."""
    names = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return names | _quoted_names(tree)


def unused_imports(source):
    """The names ``source`` imports and never reads, with their line numbers."""
    tree = ast.parse(source)
    bound = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            bound += [(a.asname or a.name.partition(".")[0], node.lineno)
                      for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound += [(a.asname or a.name, node.lineno) for a in node.names]
    read = _names_read(tree)
    return sorted((line, name) for name, line in bound if name not in read)


def unread_private_names(source):
    """The private names (one leading ``_``) that ``source`` binds at module
    level and never loads, with their line numbers."""
    tree = ast.parse(source)
    bound = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            bound.append((node.name, node.lineno))
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            bound += [(n.id, node.lineno) for t in targets for n in ast.walk(t)
                      if isinstance(n, ast.Name)]
    read = _quoted_names(tree) | {
        n.id for n in ast.walk(tree)
        if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
    return sorted((line, name) for name, line in bound
                  if name.startswith("_") and not name.startswith("__")
                  and name not in read)


def test_scanner_flags_only_unused_names():
    source = (
        "from __future__ import annotations\n"
        "import os.path\n"
        "import sys as system\n"
        "from dataclasses import dataclass, field\n"
        "from typing import Sequence\n"
        "@dataclass\n"
        "class A:\n"
        "    x: 'Sequence[int]'\n"
        "print(os.path.sep)\n"
    )
    assert unused_imports(source) == [(3, "system"), (4, "field")]


def test_scanner_flags_only_unread_private_names():
    source = (
        "from __future__ import annotations\n"
        "_CACHE = {}\n"
        "_A, (_B, C) = 1, (2, 3)\n"
        "_TABLE: dict = {}\n"
        "__all__ = ['f']\n"
        "def _used(x: '_Shape'):\n"
        "    return _CACHE.get(x, _A)\n"
        "def _orphan():\n"
        "    _local = 1\n"
        "    return _local\n"
        "class _Shape:\n"
        "    _field = 0\n"
        "def f():\n"
        "    return _used(0)\n"
    )
    assert unread_private_names(source) == [(3, "_B"), (4, "_TABLE"), (8, "_orphan")]


@pytest.mark.parametrize(
    "module", sorted(p.name for p in PACKAGE.glob("*.py")))
def test_module_has_no_unused_imports(module):
    source = (PACKAGE / module).read_text(encoding="utf-8")
    assert unused_imports(source) == []


@pytest.mark.parametrize(
    "module", sorted(p.name for p in PACKAGE.glob("*.py")))
def test_module_reads_its_private_names(module):
    source = (PACKAGE / module).read_text(encoding="utf-8")
    assert unread_private_names(source) == []


def _constant_names(tree):
    """Upper-case names bound at module level by an assignment."""
    names = set()
    for node in tree.body:
        targets = (node.targets if isinstance(node, ast.Assign)
                   else [node.target] if isinstance(node, ast.AnnAssign)
                   else [])
        names |= {t.id for t in targets
                  if isinstance(t, ast.Name) and t.id.isupper()}
    return names


def _reads(tree):
    """Names loaded bare or as an attribute (``C.NAME``) anywhere in tree."""
    return (
        {n.id for n in ast.walk(tree)
         if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
        | {n.attr for n in ast.walk(tree) if isinstance(n, ast.Attribute)}
    )


def test_every_constant_is_read():
    constants = ast.parse((PACKAGE / "constants.py").read_text(encoding="utf-8"))
    tests = Path(__file__).resolve().parent
    read = set()
    for path in [*PACKAGE.glob("*.py"), *tests.glob("*.py")]:
        read |= _reads(ast.parse(path.read_text(encoding="utf-8")))
    assert sorted(_constant_names(constants) - read) == []
