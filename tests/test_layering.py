"""The lift module is the tests' reference route, not a production layer.

Only the package root imports kleinform.lifts; every other module reads
its quantities from alpha, and TorusRep lives in moduli.  groupoid_lines
validates groupoid cocycles for groupoid-check and imports nothing from
moduli, so no second model of the SL2(Z) action grows there.  No module uses
functools.lru_cache or functools.cache: results such as a cochain's
validation flags stay on the object, and caches are explicit module
dicts (the staircase cache in lifts.py is unbounded, and only the tests
fill it).
A command in its plain form loads neither argparse nor csv: cli.py reads
it from its command table, and imports argparse only for help and usage
errors and csv only to write csv.  No command loads fractions (nor the
decimal and numbers modules it pulls in) or heapq.  No module imports
fractions at all: QZ takes only ints and QZ values, and the lifts,
solve_sparse and coboundary_solve compute in QZ, so the tests' reference
routes never load it.  solve_sparse imports heapq inside the function.
No module imports heapq, argparse or csv at module level.
Files are opened in one function only (groups.read_lines, which every
parser reads through), and only cli.py prints or writes csv.  int() is
called only by the text parsers; everywhere else a value that should be an
integer goes through errors.exact_int, which refuses floats and bools
instead of converting them.  No module tests for an integer with
isinstance(..., int) or operator.index, which both take a bool: a value is
an integer when type(value) is int.
"""

import ast
import os
import subprocess
import sys

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
    ("qz.py", "parse_residue"),
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


def _int_checks(source):
    """Lines that test for an integer by isinstance(..., int) or use operator.index."""
    tree = ast.parse(source)
    operator_names = {alias.asname or alias.name for node in ast.walk(tree)
                      if isinstance(node, ast.Import) for alias in node.names
                      if alias.name == "operator"}
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "operator":
            if any(alias.name == "index" for alias in node.names):
                found.append(node.lineno)
        elif isinstance(node, ast.Attribute) and node.attr == "index":
            if getattr(node.value, "id", None) in operator_names:
                found.append(node.lineno)
        elif (isinstance(node, ast.Call) and getattr(node.func, "id", None) == "isinstance"
              and len(node.args) == 2):
            kinds = node.args[1]
            kinds = kinds.elts if isinstance(kinds, ast.Tuple) else [kinds]
            if any(getattr(kind, "id", None) == "int" for kind in kinds):
                found.append(node.lineno)
    return found


def test_int_check_detector_sees_every_spelling():
    for source in ("isinstance(x, int)", "isinstance(x, (QZ, int))",
                   "def f(v):\n    if not isinstance(v, int):\n        pass\n",
                   "from operator import index", "from operator import itemgetter, index as ix",
                   "import operator\noperator.index(x)", "import operator as op\nop.index(x)"):
        assert _int_checks(source), source
    for source in ("type(x) is int", "type(x) is not int", "isinstance(x, QZ)",
                   "from operator import itemgetter", "row.index(x)", "import operator",
                   "isinstance(x, (float, str))", "exact_int(x, 'genus')"):
        assert _int_checks(source) == [], source


def test_no_module_tests_for_int_with_isinstance_or_index():
    found = [(name, line) for name, source in _sources() for line in _int_checks(source)]
    assert found == []


# Imported only inside the functions that need them.
_LAZY = {"fractions", "heapq", "argparse", "csv"}


def _module_level_imports(source):
    """Top-level names of the absolute imports that run when the module body runs.

    Function bodies are skipped, since their imports run only when
    called; class bodies and if, try and with blocks run at import
    and count.
    """
    found = set()

    def visit(node):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            return
        if isinstance(node, ast.Import):
            found.update(alias.name.partition(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and not node.level:
            found.add(node.module.partition(".")[0])
        for child in ast.iter_child_nodes(node):
            visit(child)

    visit(ast.parse(source))
    return found


def test_module_level_import_detector_sees_every_spelling():
    for source in ("import fractions", "from fractions import Fraction", "import heapq as hq",
                   "import sys, csv", "import csv.writer", "from argparse import ArgumentParser",
                   "if True:\n    import heapq\n",
                   "try:\n    import csv\nexcept ImportError:\n    csv = None\n",
                   "with open('x') as fh:\n    from fractions import Fraction\n",
                   "class A:\n    from fractions import Fraction\n"):
        assert _module_level_imports(source) & _LAZY, source
    for source in ("def f():\n    from fractions import Fraction\n",
                   "class A:\n    def m(self):\n        import heapq\n",
                   "async def g():\n    import csv\n",
                   "from . import csv", "from .fractions import Fraction", "import csvkit",
                   "fractions = 'fractions'"):
        assert not _module_level_imports(source) & _LAZY, source


def test_lazy_modules_are_imported_only_inside_functions():
    eager = [(name, sorted(_module_level_imports(source) & _LAZY)) for name, source in _sources()]
    assert [entry for entry in eager if entry[1]] == []


# Runs `python -m kleinform <argv>` in this process after importing
# kleinform.cli, then reports on stderr which of the watched modules were
# loaded after the import and after the command, and the exit code.
_RUN_MAIN = """
import runpy, sys
import kleinform.cli
watched = ("argparse", "csv", "fractions", "decimal", "numbers", "heapq")
before = [m for m in watched if m in sys.modules]
sys.argv[0] = "kleinform"
try:
    runpy.run_module("kleinform", run_name="__main__", alter_sys=True)
except SystemExit as exc:
    code = exc.code
print(before, code, [m for m in watched if m in sys.modules], file=sys.stderr)
"""


def _run_main(*argv):
    """(stdout, last stderr line) of python -m kleinform argv, through _RUN_MAIN."""
    proc = subprocess.run([sys.executable, "-c", _RUN_MAIN] + list(argv), capture_output=True,
                          text=True, timeout=60,
                          env=dict(os.environ, PYTHONPATH=os.path.dirname(SRC)))
    return proc.stdout, proc.stderr.splitlines()[-1]


def test_plain_command_loads_neither_argparse_nor_csv():
    dim = ("dim", "--group", "cyclic:3", "--level", "1")
    assert _run_main(*dim) == ("9\n", "[] 0 []")
    assert _run_main(*dim, "--format=csv") == ("value\n9\n", "[] 0 ['csv']")


def test_help_and_abbreviations_still_go_through_argparse():
    assert _run_main("dim", "--gro", "cyclic:3", "--level", "1") == ("9\n", "[] 0 ['argparse']")
    out, report = _run_main("--help")
    assert report == "[] 0 ['argparse']"
    assert all(command in out for command in (
        "verify-alpha", "enumerate", "orbits", "character", "klein", "dehn", "dim",
        "groupoid-check"))


def test_no_module_imports_fractions():
    for source in ("import fractions", "from fractions import Fraction",
                   "import fractions as f", "def f():\n    from fractions import Fraction\n"):
        assert "fractions" in _imported(source)
    importers = [name for name, source in _sources() if "fractions" in _imported(source)]
    assert importers == []


# The lift oracle, the solver and coboundary_solve on QZ inputs, in a fresh
# interpreter: a few values, the types of all values, and whether fractions
# was loaded.
_QZ_ROUTES = """
import sys
from kleinform import QZ
from kleinform.cochains import Cochain, alpha_cyclic, coboundary_solve, differential
from kleinform.groups import cyclic, klein4
from kleinform.intmat import solve_sparse
from kleinform.lifts import TorusRep, conjugate_lift, lift_gamma
closed = lift_gamma(TorusRep(cyclic(3), 1, 0), alpha_cyclic(3, 1))
window = lift_gamma(TorusRep(klein4(), 1, 2), Cochain.zero(klein4(), 3), window=1)
pts = [(x, y) for x in (-1, 0, 1) for y in (-1, 0, 1)]
types = set()
for lift in (closed, window, conjugate_lift(closed, 2), conjugate_lift(window, 1)):
    print(lift.mode, lift.evaluate((1, 0), (0, 1)), lift.evaluate((1, 1), (-1, 1)))
    types.update(type(lift._fn(a, b)).__name__ for a in pts for b in pts)
print(" ".join(map(str, coboundary_solve(Cochain(cyclic(2), 2, [0, 0, 0, QZ(1, 2)])).values)))
c = Cochain(cyclic(4), 2, [QZ(x * y * y, 4) for x in range(4) for y in range(4)])
print(" ".join(map(str, coboundary_solve(differential(c)).values)))
result = solve_sparse([{0: 2, 1: 1}, {1: 3}], 2, [QZ(1, 3), QZ(1, 2)])
types.update(type(v).__name__ for v in result.solution)
print(result, sorted(types), "fractions" in sys.modules)
"""


def test_qz_routes_never_load_fractions():
    proc = subprocess.run([sys.executable, "-c", _QZ_ROUTES], capture_output=True,
                          text=True, timeout=60,
                          env=dict(os.environ, PYTHONPATH=os.path.dirname(SRC)))
    assert proc.stdout.splitlines() == [
        "closed 0 0",
        "window 0 0",
        "closed 0 2/3",
        "window 0 0",
        "0 1/4",
        "0 0 0 0 0 0 1/2 1/2 0 0 0 0 0 0 1/2 1/2",
        "SolveResult(solution=[QZ(1, 12), QZ(1, 6)]) ['QZ'] False",
    ]
