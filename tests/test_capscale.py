"""The command line at the caps on its input, one subprocess per command.

Each child runs `python -m kleinform` under its own RLIMIT_AS and timeout,
and must either answer or exit 1 with an `error:` line.  The inputs sit at
or just past a cap: order-48 group files (groups.MAX_ORDER) and one of
order 49, a full degree-3 table on cyclic:48 over a 37-bit common
denominator (close to cochains.MAX_TABLE_BITS), matrix entries near 10**30,
and `enumerate` one genus past its cap.  The cap itself, `enumerate
--group cyclic:2 --genus 11`, writes 4,194,304 rows in about 20 s and is
left out.  Answers are checked against closed forms computed here.
"""

import os
import random
import re
import subprocess
import sys
from fractions import Fraction

import pytest

import kleinform
from kleinform.groups import alternating4, cyclic, dicyclic, dihedral, direct_product

SRC = os.path.dirname(os.path.dirname(kleinform.__file__))
LIMIT = 512 * 2**20  # bytes of address space per child
P = 2**31 - 1  # a prime; 48 * P is a 37-bit common denominator


def _kleinform(*argv):
    """(exit code, stdout) of python -m kleinform argv, checked to answer or fail cleanly."""
    resource = pytest.importorskip("resource")

    def cap():
        resource.setrlimit(resource.RLIMIT_AS, (LIMIT, LIMIT))

    proc = subprocess.run([sys.executable, "-m", "kleinform"] + [str(a) for a in argv],
                          capture_output=True, text=True, timeout=60, preexec_fn=cap,
                          env=dict(os.environ, PYTHONPATH=SRC))
    if proc.returncode == 0:
        assert proc.stdout and not proc.stderr
    else:
        assert proc.returncode == 1 and proc.stderr.startswith("error: "), proc.stderr
        assert proc.stderr.count("\n") == 1
    return proc.returncode, proc.stdout


def _group_file(path, table):
    path.write_text("order %d\n" % len(table) + "".join(
        " ".join(map(str, row)) + "\n" for row in table))
    return "file:%s" % path


@pytest.mark.parametrize("group", [dihedral(24), dicyclic(12),
                                   direct_product(alternating4(), cyclic(4))],
                         ids=["dihedral", "dicyclic", "a4xz4"])
def test_order_48_group_files(tmp_path, group):
    table = group.table
    assert len(table) == 48
    spec = _group_file(tmp_path / "g.group", table)
    commuting = sum(row[b] == table[b][a] for a, row in enumerate(table) for b in range(48))
    code, out = _kleinform("orbits", "--group", spec)
    orbits = re.findall(r"^rep \d+ \d+ orbit (\d+) stab((?: \d+)+)$", out, re.M)
    assert code == 0 and len(orbits) == out.count("\n")
    assert sum(int(size) for size, _ in orbits) == commuting
    assert all(int(size) * len(stab.split()) == 48 for size, stab in orbits)
    # the untwisted count is the number of conjugation orbits of commuting pairs
    assert _kleinform("dim", "--group", spec, "--level", "0") == (0, "%d\n" % len(orbits))
    assert _kleinform("verify-alpha", "--group", spec, "--level", "0") == (
        0, "closed: yes\nnormalized: yes\n")


def test_group_file_past_the_order_cap(tmp_path):
    spec = _group_file(tmp_path / "z49.group", cyclic(49).table)
    assert _kleinform("orbits", "--group", spec) == (1, "")


def test_full_degree_3_table_on_cyclic_48(tmp_path):
    # alpha_cyclic(48, 5) plus the coboundary of a random normalized
    # 2-cochain over P: every one of the 110,592 entries is listed, over
    # the common denominator 48 * P
    n, L, rnd = 48, 48 * P, random.Random(48)
    r = [[rnd.randrange(P) if x and y else 0 for y in range(n)] for x in range(n)]
    lines = ["group cyclic:48 degree 3\n"]
    for a in range(n):
        for b in range(n):
            ab = (a + b) % n
            for c in range(n):
                num = (5 * a % n) * P if b + c >= n else 0
                num += n * (r[a][b] + r[ab][c] - r[a][(b + c) % n] - r[b][c])
                lines.append("%d %d %d %d/%d\n" % (a, b, c, num % L, L))
    path = tmp_path / "full48.cochain"
    path.write_text("".join(lines))
    level = "file:%s" % path
    assert _kleinform("verify-alpha", "--group", "cyclic:48", "--level", level) == (
        0, "closed: yes\nnormalized: yes\n")
    # cohomologous levels give one count
    assert _kleinform("dim", "--group", "cyclic:48", "--level", level) == \
        _kleinform("dim", "--group", "cyclic:48", "--level", "5")


def test_character_with_matrix_entries_of_10_to_the_30():
    a, c = 10**30 + 7, 10**30 + 1
    b = -pow(c, -1, a) % a
    d = (1 + b * c) // a
    assert a * d - b * c == 1 and min(a, b, c, d) > 10**29
    m, level, p, q = 5, 2, 1, 2
    # r_diff of the rep (p, q) under alpha_cyclic(m, level), from the
    # primitive gamma(u, v) = level * L(u) * (L(v) mod m) / m**2
    l1, l2 = p * b + q * d, p * a + q * c
    s = l1 * (l2 % m) - l2 * (l1 % m) + p * (q % m) - q * (p % m)
    value = Fraction(level * s, m * m) % 1
    assert value
    assert _kleinform("character", "--group", "cyclic:5", "--level", level,
                      "--rep", "%d,%d" % (p, q), "--matrix", "%d,%d,%d,%d" % (a, b, c, d)) == (
        0, "%d/%d\n" % (value.numerator, value.denominator))


def test_enumerate_one_genus_past_its_cap():
    assert _kleinform("enumerate", "--group", "cyclic:2", "--genus", "12") == (1, "")
