"""The benchmark's layer tracer still finds every name it wraps.

``perfbench/layertrace.py`` wraps package functions and methods by name, so
deleting or renaming one breaks ``perfbench/run.py --trace 1``.  Installing
the tracer in a fresh interpreter catches that here.  The traced benchmark
also fails a run when a layer it expects to work on a workload stays idle,
or one it expects to be bypassed works; a tiny traced run of every workload
catches that.
"""

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_layertrace_installs():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src"), str(ROOT / "perfbench")]
    )
    proc = subprocess.run(
        [sys.executable, "-c",
         "import layertrace; layertrace.install('check'); print('installed')"],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "installed"


def test_traced_benchmark_passes(tmp_path):
    # a copy of the checkout, so the run's files under perfbench/out (the
    # geometry digests it keeps across runs among them) stay out of the tree
    skip = shutil.ignore_patterns("__pycache__", "out")
    for part in ("src", "perfbench"):
        shutil.copytree(ROOT / part, tmp_path / part, ignore=skip)
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "all", "--seed", "3",
         "--seconds", "0", "--tiny", "--trace", "1"],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    summary = json.loads(proc.stdout.splitlines()[-1])
    assert summary["correct"] is True, proc.stdout
