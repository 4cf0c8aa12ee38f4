"""Every module-level table or cache of the package says why it stays.

A fresh interpreter imports every ``mdimlab`` module and lists each name a
module binds itself, at its top level, to a dict, list, set, bytearray,
weak mapping, ``BitStream`` or cached function: the values that can hold
state from one run into the next.  That set must equal the keys of
``MODULE_STATE``, each with its reason: state that outlives a run, which
the comment at its definition bounds, or a constant table that nothing
writes.  A new module-level cache shows up here, and so does an entry
whose binding is gone.
"""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "mdimlab"

TABLE = "constant table: written once, at import"

# module.name -> why it stays at module level
MODULE_STATE = {
    "machine._ENUM_CACHE": "state: one enumeration per machine config, each "
    "under ITEM_CAP; coding-bounds reads the one the machine suite built",
    "complexity._PARSES": "state: each oracle's K_r parses by precision, "
    "held weakly, so they go with their oracle",
    "mutual._REF_STREAM": "state: the pinned reference stream, as long as "
    "the longest prefix asked; drawing it again costs 3.3 ms per run",
    "mutual.reference_ratio": "state: one float per reference length; "
    "parsing mdim's 14 prefixes again costs 24 ms per run",
    "machine._OPCODES": TABLE,
    "harness._SUITES": TABLE,
    "suite_estimate.RUNNERS": TABLE,
    "suite_exact.RUNNERS": TABLE,
    "suite_geometry.RUNNERS": TABLE,
    "suite_maps.RUNNERS": TABLE,
    "constants.HALTING_COUNT": TABLE,
    "constants.KRAFT_MASS": TABLE,
    "constants.K_POINT": TABLE,
}

PROBE = r"""
import importlib, json, sys, weakref
from mdimlab.oracles import BitStream

KINDS = (dict, list, set, bytearray, BitStream, weakref.WeakKeyDictionary,
         weakref.WeakValueDictionary, weakref.WeakSet)
found = []
for module, names in json.loads(sys.argv[1]).items():
    values = vars(importlib.import_module(f"mdimlab.{module}"))
    for name in names:
        value = values[name]
        if isinstance(value, KINDS) or hasattr(value, "cache_info"):
            found.append(f"{module}.{name}")
print(json.dumps(sorted(found)))
"""


def own_bindings():
    """{module: the names its source binds at top level}, imports left out,
    so a table shows up once, under the module that defines it."""
    bindings = {}
    for path in sorted(PACKAGE.glob("*.py")):
        if path.stem == "__init__":  # binds only the version string
            continue
        names = []
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if isinstance(node, ast.Assign):
                names += [t.id for t in node.targets if isinstance(t, ast.Name)]
            elif isinstance(node, ast.AnnAssign) and isinstance(node.target,
                                                                ast.Name):
                names.append(node.target.id)
            elif isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names.append(node.name)
        bindings[path.stem] = names
    return bindings


def test_bindings_scan_sees_assignments_and_definitions():
    bindings = own_bindings()
    assert {"_ENUM_CACHE", "_OPCODES", "exact_k"} <= set(bindings["machine"])
    assert "_PARSES" in bindings["complexity"]  # an annotated assignment
    assert "C" not in bindings["harness"]  # an import


def test_module_state_matches_the_table(tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(PACKAGE.parent), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", PROBE, json.dumps(own_bindings())],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    found = set(json.loads(proc.stdout.splitlines()[-1]))
    assert sorted(found - set(MODULE_STATE)) == []  # new: list it, with why
    assert sorted(set(MODULE_STATE) - found) == []  # stale: gone or renamed

