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
A fresh interpreter per suite pins the modules that reading the suite's
config loads, so a suite never pays for a layer it does not run.
"""

import ast
import hashlib
import json
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
    "report": set(),
    "codec": set(),
    "compressor": set(),
    "machine": {"codec"},
    "geometry": {"codec"},
    "oracles": {"codec"},
    "functions": {"codec", "oracles"},
    "complexity": {"codec", "compressor", "constants", "geometry", "machine",
                   "oracles"},
    "mutual": {"compressor", "complexity", "constants", "machine", "oracles"},
    "suite_exact": {"complexity", "constants", "geometry", "machine", "oracles",
                    "report"},
    "suite_geometry": {"codec", "geometry", "report"},
    "suite_estimate": {"complexity", "constants", "mutual", "oracles", "report"},
    "suite_maps": {"codec", "complexity", "constants", "functions", "mutual",
                   "oracles", "report"},
    "harness": {"codec", "constants", "functions", "machine", "oracles",
                "report", "suite_estimate", "suite_exact", "suite_geometry",
                "suite_maps"},
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


def test_harness_may_import_every_runner_module():
    # harness imports a suite's runner module by the name in its suite
    # table, which the scan of its source cannot see
    from mdimlab import harness

    runners = {module for module, _ in harness._SUITES.values()}
    assert sorted(runners - LAYERS["harness"]) == []


def _fresh_run(code, *args):
    """stdout of ``code`` in a fresh interpreter, so that no other test's
    imports are in its sys.modules."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(PACKAGE.parent), env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, "-c", code, *args], env=env,
                          check=True, capture_output=True, text=True).stdout


def test_functions_loads_neither_machine_nor_geometry():
    code = ("import sys, mdimlab.functions; "
            "print(*sorted(m for m in sys.modules if m.startswith('mdimlab')))")
    assert _fresh_run(code).split() == [
        "mdimlab", "mdimlab.codec", "mdimlab.functions", "mdimlab.oracles"]


def test_estimators_load_neither_machine_nor_geometry():
    # complexity and mutual import the exact machine and the geometry only
    # inside the functions that run them
    code = ("import sys, mdimlab.mutual, mdimlab.suite_estimate; "
            "print(*sorted(m for m in sys.modules if m.startswith('mdimlab')))")
    assert _fresh_run(code).split() == [
        "mdimlab", "mdimlab.codec", "mdimlab.complexity", "mdimlab.compressor",
        "mdimlab.constants", "mdimlab.mutual", "mdimlab.oracles",
        "mdimlab.report", "mdimlab.suite_estimate"]


# the modules besides ``mdimlab`` itself that reading a default config of
# each suite loads: its runner module and the layers that module runs
ENTRY = {"codec", "constants", "harness", "report"}
EXACT = {"complexity", "compressor", "geometry", "machine", "oracles"}
ESTIMATORS = {"complexity", "compressor", "mutual", "oracles"}
SUITE_LOADS = {
    "machine": ENTRY | EXACT | {"suite_exact"},
    "geometry": ENTRY | {"geometry", "suite_geometry"},
    "coding-bounds": ENTRY | EXACT | {"suite_exact"},
    "kprofile": ENTRY | ESTIMATORS | {"suite_estimate"},
    "mdim": ENTRY | ESTIMATORS | {"suite_estimate"},
    "dpi": ENTRY | ESTIMATORS | {"functions", "suite_maps"},
    "reverse-dpi": ENTRY | ESTIMATORS | {"functions", "suite_maps"},
    "conservation": ENTRY | ESTIMATORS | {"functions", "suite_maps"},
    "counterexample": ENTRY | ESTIMATORS | {"functions", "suite_maps"},
}

LOADS_PROBE = """
import json, sys

def loaded():
    return sorted(m[len("mdimlab."):] for m in sys.modules
                  if m.startswith("mdimlab."))

import mdimlab.cli
out = {"cli": loaded()}
from mdimlab.harness import config_from_mapping, run_suite
suite = sys.argv[1]
out["config"] = (config_from_mapping({"suite": suite}), loaded())[1]
if suite == "machine":
    cfg = config_from_mapping({"suite": "machine", "machine": {
        "max_program_len": 24, "step_budget": 256}})
    run_suite(cfg)
    out["run"] = loaded()
print(json.dumps(out))
"""


@pytest.mark.parametrize("suite", sorted(SUITE_LOADS))
def test_each_suite_loads_only_the_layers_it_runs(suite):
    # a fresh interpreter per suite, so only this suite's imports are loaded
    out = json.loads(_fresh_run(LOADS_PROBE, suite))
    # the command line loads no runner module before the config is read
    assert out["cli"] == sorted(ENTRY | {"cli"})
    assert out["config"] == sorted(SUITE_LOADS[suite] | {"cli"})
    if suite == "machine":
        # the runner module was loaded with the config: the run loads nothing
        assert out["run"] == out["config"]


LAZY_PROBE = """
import hashlib, json, sys
from mdimlab.harness import config_from_mapping, run_suite

run_suite(config_from_mapping({"suite": "kprofile", "window": [1024, 2048]}))
out = {"estimator": sorted(m for m in sys.modules if m.startswith("mdimlab."))}
report = run_suite(config_from_mapping({"suite": "coding-bounds", "machine": {
    "max_program_len": 24, "step_budget": 256}}))
out["digest"] = hashlib.sha256(report.render("json").encode()).hexdigest()
print(json.dumps(out))
"""


def test_exact_run_after_an_estimator_run_loads_the_exact_half():
    # the function-level imports of complexity load the machine and the
    # geometry on the exact suite's first call, after an estimator run in
    # the same process, and the exact report is the golden one
    out = json.loads(_fresh_run(LAZY_PROBE))
    assert not {"mdimlab.machine", "mdimlab.geometry"} & set(out["estimator"])
    assert "mdimlab.complexity" in out["estimator"]
    golden = PACKAGE.parents[1] / "tests" / "golden" / "coding-bounds.json"
    assert out["digest"] == hashlib.sha256(golden.read_bytes()).hexdigest()
