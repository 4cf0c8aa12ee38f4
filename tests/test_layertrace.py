"""The benchmark's layer tracer still finds every name it wraps.

``perfbench/layertrace.py`` wraps package functions and methods by name, so
deleting or renaming one breaks ``perfbench/run.py --trace 1``.  Installing
the tracer in a fresh interpreter catches that here.
"""

import os
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
