"""The lift module is the tests' reference route, not a production layer.

Only the package root imports kleinform.lifts; every other module reads
its quantities from alpha, and TorusRep lives in moduli.  groupoid_lines
validates groupoid cocycles for groupoid-check and imports nothing from
moduli, so no second model of the SL2(Z) action grows there.  No module uses
functools.lru_cache or functools.cache: results such as a cochain's
validation flags stay on the object, and caches are explicit module
dicts (the staircase cache in lifts.py is unbounded, and only the tests
fill it).
Files are opened in one function only (groups.read_lines, which every
parser reads through), and only cli.py prints or writes csv.  int() is
called only by the text parsers; everywhere else a value that should be an
integer goes through errors.exact_int or exact_ints, which refuse floats
instead of truncating them.
"""

import ast
import os

import kleinform
from kleinform import lifts, moduli

SRC = os.path.dirname(kleinform.__file__)


def _sources():
    """(file name, source) for every module of the package."""
    for name in sorted(os.listdir(SRC)):
        if name.endswith(".py"):
            with open(os.path.join(SRC, name), encoding="utf-8") as fh:
                yield name, fh.read()


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
    importers = [name for name, source in _sources() if "kleinform.lifts" in _imported(source)]
    assert importers == ["__init__.py"]


def test_groupoid_lines_imports_no_moduli():
    sources = dict(_sources())
    assert not any(name.startswith("kleinform.moduli")
                   for name in _imported(sources["groupoid_lines.py"]))


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
    assert [name for name, source in _sources() if _functools_caches(source)] == []


def _callers(source, name):
    """The enclosing function of each call of name, None at module level.

    The callee may be a bare name such as open or an attribute such as
    io.open.
    """
    found = []

    def visit(node, func):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            func = node.name
        if isinstance(node, ast.Call):
            callee = node.func
            if getattr(callee, "id", None) == name or getattr(callee, "attr", None) == name:
                found.append(func)
        for child in ast.iter_child_nodes(node):
            visit(child, func)

    visit(ast.parse(source), None)
    return found


def _uses_csv(source):
    """True when source imports the csv module or names it."""
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name) and node.id == "csv":
            return True
        if isinstance(node, ast.Import) and any(a.name == "csv" for a in node.names):
            return True
        if isinstance(node, ast.ImportFrom) and node.module == "csv":
            return True
    return False


def test_call_detectors_see_every_spelling():
    assert _callers("def f(p):\n    return open(p)\n", "open") == ["f"]
    assert _callers("import io\nio.open('x')\n", "open") == [None]
    source = "class A:\n    def g(self):\n        def h():\n            print(1)\n        return h\n"
    assert _callers(source, "print") == ["h"]
    assert _callers("opener = open\n", "open") == []
    for source in ("import csv", "from csv import writer", "import csv as c", "w = csv.writer(x)"):
        assert _uses_csv(source)
    assert not _uses_csv("csvfile = 'a.csv'\n")


def test_one_function_opens_files():
    opens = [(name, func) for name, source in _sources() for func in _callers(source, "open")]
    assert opens == [("groups.py", "read_lines")]


def test_only_cli_prints_or_writes_csv():
    printers = {name for name, source in _sources() if _callers(source, "print")}
    assert printers == {"cli.py"}
    assert [name for name, source in _sources() if _uses_csv(source)] == ["cli.py"]


# The functions that turn text into integers, and so may call int().
_TEXT_PARSERS = {
    ("cli.py", "_int_tuple"), ("cli.py", "_resolve_level"),
    ("groups.py", "_group_from_lines"), ("groups.py", "parse_group_spec"),
    ("cochains.py", "_cochain_from_lines"), ("groupoid_lines.py", "_groupoid_from_lines"),
    ("qz.py", "QZ.from_str"),
}


def _int_conversions(source):
    """(owner, line) for each int(...) call and each map(int, ...).

    The owner is the outermost function, as Class.method inside a class,
    so a call in a nested function counts for the function around it;
    None at module level.
    """
    found = []

    def visit(node, owner, in_function):
        if isinstance(node, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)) \
                and not in_function:
            owner = node.name if owner is None else owner + "." + node.name
            in_function = not isinstance(node, ast.ClassDef)
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
            name, args = node.func.id, node.args
            if name == "int" or (name == "map" and args and getattr(args[0], "id", None) == "int"):
                found.append((owner, node.lineno))
        for child in ast.iter_child_nodes(node):
            visit(child, owner, in_function)

    visit(ast.parse(source), None, False)
    return found


def test_int_detector_sees_every_spelling():
    assert _int_conversions("n = int('3')\n") == [(None, 1)]
    assert _int_conversions("def f(s):\n    return list(map(int, s.split()))\n") == [("f", 2)]
    source = "class Q:\n    def g(self, t):\n        def h():\n            return int(t)\n        return h\n"
    assert _int_conversions(source) == [("Q.g", 4)]
    for source in ("isinstance(x, int)", "int.from_bytes(b, 'big')", "spec = ('genus', int)",
                   "map(str, row)", "type(a) is not int"):
        assert _int_conversions(source) == []


def test_int_is_called_only_in_text_parsers():
    outside = [(name, owner, line) for name, source in _sources()
               for owner, line in _int_conversions(source) if (name, owner) not in _TEXT_PARSERS]
    assert outside == []
