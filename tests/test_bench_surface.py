"""The names the benchmark reaches for in the package still resolve.

bench/tracing.py wraps module attributes by name and bench/worker.py
imports from several modules, so deleting or renaming one of them breaks
`bench/run.py --trace 1` and the worker without failing any other test.
The check runs in a subprocess because tracing.install() rebinds module
attributes for the rest of the process; it reads bench/ and changes
nothing there.
"""

import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH = os.path.join(ROOT, "bench")
SRC = os.path.join(ROOT, "src")

_PROBE = """
import ast, importlib, os, sys
bench, src = sys.argv[1:3]
sys.path[:0] = [bench, src]
import tracing
tracing.install()
from kleinform.lifts import TorusRep
with open(os.path.join(bench, "worker.py"), encoding="utf-8") as fh:
    tree = ast.parse(fh.read())
for node in ast.walk(tree):
    if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("kleinform"):
        module = importlib.import_module(node.module)
        for alias in node.names:
            getattr(module, alias.name)
"""


def test_tracing_installs_and_worker_imports_resolve():
    proc = subprocess.run([sys.executable, "-c", _PROBE, BENCH, SRC],
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
