"""The lift module is the tests' reference route, not a production layer.

Only the package root imports kleinform.lifts; every other module reads
its quantities from alpha, and TorusRep lives in moduli.
"""

import ast
import os

import kleinform
from kleinform import lifts, moduli

SRC = os.path.dirname(kleinform.__file__)


def _imported(source):
    """Absolute names a module's import statements can bind."""
    out = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            out.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            base = node.module or ""
            if node.level:
                base = "kleinform" + ("." + base if base else "")
            out.add(base)
            out.update(base + "." + alias.name for alias in node.names)
    return out


def test_import_detector_sees_every_spelling():
    for source in ("from .lifts import TorusRep", "from . import lifts",
                   "import kleinform.lifts", "from kleinform import lifts",
                   "def f():\n    from .lifts import lift_gamma\n"):
        assert "kleinform.lifts" in _imported(source)
    assert "kleinform.lifts" not in _imported("from .moduli import TorusRep")


def test_only_package_root_imports_lifts():
    importers = []
    for name in sorted(os.listdir(SRC)):
        if name.endswith(".py"):
            with open(os.path.join(SRC, name), encoding="utf-8") as fh:
                if "kleinform.lifts" in _imported(fh.read()):
                    importers.append(name)
    assert importers == ["__init__.py"]


def test_torus_rep_lives_in_moduli():
    assert lifts.TorusRep is moduli.TorusRep
    assert kleinform.TorusRep is moduli.TorusRep
