"""The lift module is the tests' reference route, not a production layer.

Only the package root imports kleinform.lifts; every other module reads
its quantities from alpha, and TorusRep lives in moduli.  No module uses
functools.lru_cache or functools.cache: results such as a cochain's
validation flags stay on the object, and caches stay explicit and bounded.
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


def _functools_caches(source):
    """Uses of functools.lru_cache or functools.cache, however imported."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom) and node.module == "functools":
            found += [a.name for a in node.names if a.name in ("lru_cache", "cache")]
        elif (isinstance(node, ast.Attribute) and node.attr in ("lru_cache", "cache")
              and isinstance(node.value, ast.Name) and node.value.id == "functools"):
            found.append(node.attr)
    return found


def test_cache_detector_sees_every_spelling():
    for source in ("from functools import lru_cache", "from functools import cache",
                   "import functools\n@functools.lru_cache(maxsize=8)\ndef f(x):\n    pass\n",
                   "import functools\ng = functools.cache(len)\n"):
        assert _functools_caches(source)
    assert not _functools_caches("from functools import reduce\ncache = {}\n")


def test_no_module_uses_functools_caches():
    users = []
    for name in sorted(os.listdir(SRC)):
        if name.endswith(".py"):
            with open(os.path.join(SRC, name), encoding="utf-8") as fh:
                if _functools_caches(fh.read()):
                    users.append(name)
    assert users == []
