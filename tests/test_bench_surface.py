"""The names the benchmark reaches for in the package still resolve.

bench/tracing.py wraps module attributes by name and bench/worker.py
imports from several modules, so deleting or renaming one of them breaks
`bench/run.py --trace 1` and the worker without failing any other test.
The probe first imports kleinform.cli, as the worker's set-up does, and
checks that this loads every kleinform module the two files name, so no
module's import lands in a timed query phase.  It then answers one r_diff
query, which builds one QZ, and builds a window lift, a closed lift and a
conjugate of each under the tracer, so its call hooks meet the real
signatures and the QZ counter sees construction.  The check runs in a
subprocess because tracing.install() rebinds module attributes for the
rest of the process; it reads bench/ and changes nothing there.
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
import kleinform.cli
trees = {}
for name in ("worker.py", "tracing.py"):
    with open(os.path.join(bench, name), encoding="utf-8") as fh:
        trees[name] = ast.parse(fh.read())
named = set()
for tree in trees.values():
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            named.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module == "kleinform":
            named.update("kleinform." + alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            named.add(node.module or "")
missing = sorted(m for m in named if m.startswith("kleinform") and m not in sys.modules)
assert not missing, "not imported by kleinform.cli: %s" % missing
import tracing
tracer = tracing.install()
from kleinform.cochains import Cochain, alpha_cyclic
from kleinform.groups import cyclic, klein4
from kleinform.lifts import TorusRep, conjugate_lift, lift_gamma
from kleinform.moduli import SL2Z, r_diff
value = r_diff(TorusRep(cyclic(3), 1, 0), alpha_cyclic(3, 1), SL2Z(4, 3, 1, 1))
m = tracer.metrics()
seen = {key: m[key] for key in ("qz.QZ.new", "moduli.r_diff.calls")}
assert str(value) == "1/3" and seen == {"qz.QZ.new": 1, "moduli.r_diff.calls": 1}, seen
v4 = klein4()
window = lift_gamma(TorusRep(v4, 1, 2), Cochain.zero(v4, 3))
closed = lift_gamma(TorusRep(cyclic(3), 1, 0), alpha_cyclic(3, 1))
assert (window.mode, closed.mode) == ("window", "closed")
for lift in (window, closed):
    conjugate_lift(lift, 1)
m = tracer.metrics()
seen = {key: m[key] for key in ("intmat.solve_sparse.calls", "lifts.lift_gamma.calls",
                                "lifts.conjugate_lift.calls", "lifts.certificates",
                                "lifts.window_max")}
assert seen == {"intmat.solve_sparse.calls": 1, "lifts.lift_gamma.calls": 2,
                "lifts.conjugate_lift.calls": 2, "lifts.certificates": 3,
                "lifts.window_max": 2}, seen
assert m["intmat.solve_sparse.unknowns"] > 0 and m["intmat.solve_sparse.rows"] > 0, m
for node in ast.walk(trees["worker.py"]):
    if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("kleinform"):
        module = importlib.import_module(node.module)
        for alias in node.names:
            getattr(module, alias.name)
"""


def test_tracing_installs_and_worker_imports_resolve():
    proc = subprocess.run([sys.executable, "-c", _PROBE, BENCH, SRC],
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
