"""Every package function is reached by a suite, or says why it stays.

A fresh interpreter runs every suite through ``cli.main`` on small
configs, with configured generators and functions so the config paths
run too, and evaluates each criterion-10 left inverse once, all under
``sys.setprofile``.  The package functions it never enters must be
exactly the keys of ``UNREACHED``, each with the reason it stays: a name
the benchmark's layer tracer wraps (``perfbench/layertrace.py`` fails to
install without it), a reference a named test compares against, a
protocol method, or a hook that tests call.  A refactor that leaves a
function without callers shows up here, and so does a table entry whose
function a suite now reaches.
"""

import inspect
import json
import os
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "mdimlab"

TRACED = "wrapped by perfbench/layertrace.py"
PROTOCOL = "protocol method"

# package functions (module.qualname) no suite run enters, and why each
# stays: TRACED, PROTOCOL, "reference: <test file>" (a slow path a test
# compares against), "test hook: <test file>" (called by that test alone),
# or "helper of <a name in this table>"
UNREACHED = {
    "codec.DyadicRational.__repr__": PROTOCOL,
    "codec.RationalPoint.of": "test hook: tests/test_geometry.py",
    "codec._ReadKeys.__iter__": PROTOCOL,
    "codec._ReadKeys.__len__": PROTOCOL,
    "compressor.conditional_cost": TRACED,
    "compressor.Lz78Parser.length": "test hook: tests/test_differential.py",
    "functions.modulus_check": "test hook: tests/test_functions.py",
    "functions.inverse_modulus_check": "test hook: tests/test_functions.py",
    "functions.consistency_check": "test hook: tests/test_functions.py",
    "functions._dyadic_uniform": "helper of functions.modulus_check",
    "functions._sample_point": "helper of functions.modulus_check",
    "functions._shift": "helper of functions.modulus_check",
    "geometry.scale_ball": TRACED,
    "geometry.zn_enumeration": TRACED,
    "geometry.DyadicCube.closure_distance_sq": TRACED,
    "geometry._gap_sq": "helper of geometry.DyadicCube.closure_distance_sq",
    "machine.enumerate_halting": TRACED,
    "machine._halting": "helper of machine.enumerate_halting",
    "machine.iter_valid_programs": "reference: tests/test_machine.py",
    "machine.run": "reference: tests/test_machine.py",
    "machine.kraft_mass": TRACED,
    "machine.output_universe": TRACED,
    "machine._execute": "helper of machine.run",
    "complexity.k_of_set": TRACED,
    "mutual.mutual_info": TRACED,
    "mutual.i_r": TRACED,
    "mutual.j_r": TRACED,
    "mutual._least_mutual_info": "helper of mutual.i_r",
    "oracles.BitStream.bit": TRACED,
    "oracles.PointOracle.dimension": PROTOCOL,
    "oracles.PointOracle.query": PROTOCOL,
}

PROBE = r"""
import contextlib, io, json, os, sys

entered = set()

def profile(frame, event, arg):
    if event == "call":
        entered.add(frame.f_code)

sys.setprofile(profile)
from mdimlab import cli, functions
from mdimlab.codec import DyadicRational, RationalPoint
from mdimlab.oracles import ConstantOracle, ProductOracle

runs, out_dir = json.loads(sys.argv[1]), sys.argv[2]
for i, (argv, config) in enumerate(runs):
    if config is not None:
        path = os.path.join(out_dir, f"config{i}.json")
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(config, handle)
        argv = [*argv, "--config", path]
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(argv)
    assert code in (0, 1), (argv, code)  # a report, failed rows or not

def const(*nums):
    return ConstantOracle(RationalPoint(tuple(DyadicRational(n, 3) for n in nums)))

for name, params, observed in (
    ("scale", {"c": "2"}, lambda f: functions.ImageOracle(f, const(5))),
    ("sum", {"n": 2}, lambda f: ProductOracle(
        functions.ImageOracle(f, const(5, -3)), const(-3))),
    ("affine", {"matrix": [["1", "1/2"], ["0", "1"]], "offset": ["1/4", "0"],
                "inverse_modulus": {"S": [1, 2], "s": 1}},
     lambda f: functions.ImageOracle(f, const(5, -3))),
):
    f = functions.library_function(name, params)
    inverse = functions.left_inverse_synthesize(f, *f.declared_inverse_moduli[0])
    inverse.evaluate(observed(f), 4)
sys.setprofile(None)
print(json.dumps(sorted(
    [os.path.basename(c.co_filename), c.co_firstlineno, c.co_name]
    for c in entered if os.path.dirname(c.co_filename).endswith("mdimlab"))))
"""

MACHINE = {"max_program_len": 24, "step_budget": 256}
WINDOW = [1024, 2048]
TOP_WINDOW = [32768, 65536]  # mdim refuses windows below the grid's top
RUNS = [
    (["machine", "--format", "csv"], {"suite": "machine", "machine": MACHINE}),
    (["coding-bounds"], {"suite": "coding-bounds", "machine": MACHINE}),
    (["geometry", "--seed", "1"], None),
    (["kprofile"], {"suite": "kprofile", "window": WINDOW, "generators": [
        {"kind": "random", "seed": 1, "n": 2},
        {"kind": "diluted", "seed": 1, "rho": "1/2"},
        {"kind": "rational", "values": ["1/3"]},
        {"kind": "constant", "coords": ["3/8"]},
        {"kind": "product", "factors": [{"kind": "random", "seed": 2},
                                        {"kind": "rational", "values": ["1/5"]}]},
    ]}),
    (["mdim"], {"suite": "mdim", "window": TOP_WINDOW}),
    (["dpi"], {"suite": "dpi", "window": WINDOW, "functions": [
        {"name": "identity", "params": {"n": 1}},
        {"name": "scale", "params": {"c": "1/2"}},
        {"name": "sum", "params": {"n": 2}},
        {"name": "affine", "params": {
            "matrix": [["1"]], "offset": ["5/8"],
            "inverse_modulus": {"S": [1], "s": 0}}},
        {"name": "projection", "params": {"n": 2, "S": [1]}},
        {"name": "hilbert2d"},
    ]}),
    (["reverse-dpi"], {"suite": "reverse-dpi", "window": WINDOW}),
    (["conservation"], {"suite": "conservation", "window": WINDOW}),
    (["counterexample"], {"suite": "counterexample", "window": WINDOW,
                          "generators": [{"kind": "diluted", "seed": 7,
                                          "rho": "1/4"}]}),
]


def defined_functions():
    """{(file, first line, name): module.qualname} of every named function
    and method the package's sources define, nested ones included."""
    found = {}

    def walk(code, qualname, stem, in_function):
        for const in code.co_consts:
            if not inspect.iscode(const) or const.co_name.startswith("<"):
                continue
            is_function = bool(const.co_flags & inspect.CO_NEWLOCALS)
            sep = ".<locals>." if in_function else "."
            name = f"{qualname}{sep}{const.co_name}" if qualname else const.co_name
            if is_function:
                found[(f"{stem}.py", const.co_firstlineno, const.co_name)] = \
                    f"{stem}.{name}"
            walk(const, name, stem, is_function)

    for path in sorted(PACKAGE.glob("*.py")):
        source = path.read_text(encoding="utf-8")
        walk(compile(source, str(path), "exec"), "", path.stem, False)
    return found


def test_scanner_names_nested_functions_and_methods():
    names = set(defined_functions().values())
    assert {"machine.Enumeration.ensure_complete",
            "machine._root_summary.<locals>.summarize",
            "codec.json_int"} <= names
    assert not any("<lambda>" in name or "<genexpr>" in name for name in names)


def test_unreached_functions_match_the_table(tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(PACKAGE.parent), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", PROBE, json.dumps(RUNS), str(tmp_path)],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    entered = {tuple(key) for key in json.loads(proc.stdout.splitlines()[-1])}
    defined = defined_functions()
    unreached = {name for key, name in defined.items() if key not in entered}
    assert sorted(unreached - set(UNREACHED)) == []  # new: call it or list it
    assert sorted(set(UNREACHED) - unreached) == []  # stale: reached or gone


def test_each_reason_holds():
    tracer = (ROOT / "perfbench" / "layertrace.py").read_text(encoding="utf-8")
    for name, reason in UNREACHED.items():
        short = name.rsplit(".", 1)[-1]
        kind, _, target = reason.partition(": ")
        if reason == TRACED:
            assert f'"{short}"' in tracer, name
        elif kind in ("reference", "test hook"):
            text = (ROOT / target).read_text(encoding="utf-8")
            assert re.search(rf"\b{short}\(|\.{short}\b", text), name
        elif reason.startswith("helper of "):
            assert reason.removeprefix("helper of ") in UNREACHED, name
        else:
            assert reason == PROTOCOL, name
