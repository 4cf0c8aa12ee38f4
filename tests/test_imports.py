"""No module of the package binds a name it never uses, and every import
points down the layers.

A dependency-free stand-in for a linter's unused-name rules: each module
under ``src/mdimlab`` is parsed with ``ast``, and every name an import binds
must be read somewhere in that module.  ``from __future__`` imports are
exempt, since they change compilation rather than bind a name to read.  A
private module-level name (one leading ``_``) must be read in its module
too, so a helper that a refactor leaves without callers shows up here.

The package's own imports are checked against a pinned table of layers,
from ``codec`` up to ``harness`` and ``cli``: a module may import only the
modules its row names, and each row names only modules listed above it.
"""

import ast
import os
import subprocess
import sys
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


# each module and the package modules it may import, lowest layer first
LAYERS = {
    "__init__": set(),
    "constants": set(),
    "codec": set(),
    "compressor": set(),
    "machine": {"codec"},
    "geometry": {"codec"},
    "oracles": {"codec"},
    "functions": {"codec", "oracles"},
    "complexity": {"codec", "compressor", "constants", "geometry", "machine",
                   "oracles"},
    "mutual": {"compressor", "complexity", "constants", "machine", "oracles"},
    "harness": {"codec", "complexity", "constants", "functions", "geometry",
                "machine", "mutual", "oracles"},
    "cli": {"harness"},
}


def package_imports(source):
    """The package modules ``source`` imports through relative imports."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom) and node.level:
            if node.module:
                names.add(node.module.partition(".")[0])
            else:
                names |= {a.name for a in node.names}
    return names


def test_scanner_finds_package_imports():
    source = (
        "from __future__ import annotations\n"
        "import os\n"
        "from . import constants as C\n"
        "from .codec import encode_int\n"
        "def f():\n"
        "    from .machine.sub import x\n"
    )
    assert package_imports(source) == {"constants", "codec", "machine"}


def test_layer_table_points_one_way():
    assert set(LAYERS) == {p.stem for p in PACKAGE.glob("*.py")}
    seen = set()
    for module, allowed in LAYERS.items():
        assert allowed <= seen, (module, sorted(allowed - seen))
        seen.add(module)


@pytest.mark.parametrize(
    "module", sorted(p.name for p in PACKAGE.glob("*.py")))
def test_module_imports_only_lower_layers(module):
    source = (PACKAGE / module).read_text(encoding="utf-8")
    stem = module.removesuffix(".py")
    assert sorted(package_imports(source) - LAYERS[stem]) == []


def test_functions_loads_neither_machine_nor_geometry():
    # a fresh interpreter, so no other test's imports are in sys.modules
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(PACKAGE.parent), env.get("PYTHONPATH")]))
    code = ("import sys, mdimlab.functions; "
            "print(*sorted(m for m in sys.modules if m.startswith('mdimlab')))")
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.split() == [
        "mdimlab", "mdimlab.codec", "mdimlab.functions", "mdimlab.oracles"]
