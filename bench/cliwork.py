"""The cli workload: one fresh `python3 -m kleinform` per command.

The command list covers all eight subcommands: the README examples, the
baseline commands that finish in seconds, and seeded variants on
non-cyclic groups passed as generated file: tables.  Every stdout is
checked against the oracles after the timed phase.
"""

import os
import random
import subprocess
import sys
import time

import oracles as orc
import tables as tab
from workloads import (D4, KLEIN4, SMALL_MATRICES, Z3Z3, Z4Z2, noncyclic_pairs,
                       random_gamma1, random_word)

S3_CUBE = "bench/data/s3_cubetwist.cochain"
FLIP = "bench/data/flip.groupoid"


def _text(lines):
    return "".join(line + "\n" for line in lines)


def _scalar(value, fmt="plain"):
    text = "0" if value == 0 else "%d/%d" % (value.numerator, value.denominator)
    return _text(["value", text] if fmt == "csv" else [text])


def _yes(flag):
    return "yes" if flag else "no"


def make(seed, root, work):
    """Write the generated inputs under work/ and return the commands.

    Each command is (argv, expected) where expected() gives the exact
    stdout the oracles predict.
    """
    rnd = random.Random("cli:%d" % seed)
    rel = os.path.relpath(work, root)
    os.makedirs(work, exist_ok=True)

    def write(name, text):
        with open(os.path.join(work, name), "w", encoding="utf-8") as fh:
            fh.write(text)
        return "%s/%s" % (rel, name)

    group_files, levels = {}, {}
    for name, spec, m, level, coeffs in (
            ("klein4", KLEIN4, 2, 1, [1, rnd.randrange(2)]),
            ("z4z2", Z4Z2, 4, rnd.randrange(1, 4), [rnd.choice([1, 3]), rnd.randrange(2)]),
            ("d4", D4, 2, 1, rnd.choice([[1, 0], [0, 1], [1, 1]])),
            ("z3z3", Z3Z3, 3, rnd.randrange(1, 3), [rnd.randrange(1, 3), rnd.randrange(3)])):
        table = tab.group_table(spec)
        path = write(name + ".group", tab.group_file_text(table))
        group_files[name] = (path, table)
        images = tab.character_images(spec, coeffs, m)
        vals = tab.pullback_table(tab.alpha_cyclic_table(m, level), m, images)
        cpath = write(name + "_pb.cochain",
                      tab.cochain_file_text("file:" + path, vals, len(table)))
        levels[name] = (cpath, vals, images, m, level)
    groupoid = write("translation.groupoid", tab.action_groupoid_text(
        8, rnd.choice([1, 2, 4]), rnd.randrange(1, 8)))

    s3 = tab.s3_table()
    with open(os.path.join(root, S3_CUBE), encoding="utf-8") as fh:
        cube = tab.parse_cochain(fh.read(), 6)
    cmds = []

    def add(argv, expected):
        cmds.append((argv, expected))

    # README examples
    add(["klein", "--n", "5", "--level", "2", "--matrix", "1,5,1,6"],
        lambda: _scalar(orc.gamma1_value(5, 2, 5)))
    add(["verify-alpha", "--group", "cyclic:6", "--level", "4"],
        lambda: _text("%s: %s" % (k, _yes(v)) for k, v in zip(
            ("closed", "normalized"),
            orc.closed_and_normalized(tab.cyclic_table(6), tab.alpha_cyclic_table(6, 4)))))
    add(["enumerate", "--group", "cyclic:2", "--genus", "1", "--format", "csv"],
        lambda: _text(["e1,e2"] + [ln.replace(" ", ",") for ln in
                                   orc.enumerate_lines(tab.cyclic_table(2), 1)]))
    add(["orbits", "--group", "s3"], lambda: _text(orc.orbit_lines(s3)))
    add(["character", "--group", "s3", "--level", "file:" + S3_CUBE, "--rep", "3,0",
         "--matrix", "1,3,0,1"], lambda: _scalar(orc.dehn_value(s3, cube, 3)))
    add(["dehn", "--group", "s3", "--level", "file:" + S3_CUBE, "--elt", "3"],
        lambda: _scalar(orc.dehn_value(s3, cube, 3)))
    add(["dim", "--group", "cyclic:3", "--level", "1"],
        lambda: _text([str(orc.sections_value(tab.cyclic_table(3),
                                              tab.alpha_cyclic_table(3, 1)))]))
    add(["groupoid-check", "--file", FLIP], lambda: _groupoid(root, FLIP, "plain"))
    # baseline command that finishes in seconds
    v4 = tab.group_table(KLEIN4)
    add(["dim", "--group", "klein4", "--level", "0"],
        lambda: _text([str(orc.sections_value(v4, tab.zero_table(4)))]))

    # seeded variants
    for fmt in ("plain", "plain", "csv"):
        n = rnd.randrange(2, 13)
        level = rnd.randrange(1, n)
        mat = random_gamma1(rnd, n)
        add(["klein", "--n", str(n), "--level", str(level),
             "--matrix=" + ",".join(map(str, mat))] + (["--format", "csv"] if fmt == "csv" else []),
            lambda n=n, level=level, mat=mat, fmt=fmt: _scalar(orc.gamma1_value(n, level, mat[1]), fmt))
    for _ in range(2):
        n = rnd.randrange(2, 13)
        level, p, q = rnd.randrange(1, n), rnd.randrange(n), rnd.randrange(n)
        mat = random_word(rnd, 4)
        add(["character", "--group", "cyclic:%d" % n, "--level", str(level),
             "--rep", "%d,%d" % (p, q), "--matrix=" + ",".join(map(str, mat))],
            lambda n=n, level=level, p=p, q=q, mat=mat: _scalar(
                orc.cyclic_value(p, q, n, level, mat)))
    cpath, vals, images, m, level = levels["z4z2"]
    g, h = rnd.choice(noncyclic_pairs(Z4Z2))
    mat = rnd.choice(SMALL_MATRICES)
    add(["character", "--group", "file:" + group_files["z4z2"][0], "--level", "file:" + cpath,
         "--rep", "%d,%d" % (g, h), "--matrix=" + ",".join(map(str, mat))],
        lambda g=g, h=h, mat=mat, images=images, m=m, level=level: _scalar(
            orc.cyclic_value(images[g], images[h], m, level, mat)))
    g, h = rnd.choice(noncyclic_pairs(KLEIN4))
    mat = rnd.choice(SMALL_MATRICES)
    add(["character", "--group", "klein4", "--level", "0", "--rep", "%d,%d" % (g, h),
         "--matrix=" + ",".join(map(str, mat))], lambda: _scalar(orc.qz("0")))
    n = rnd.randrange(2, 13)
    level, elt = rnd.randrange(1, n), rnd.randrange(n)
    add(["dehn", "--group", "cyclic:%d" % n, "--level", str(level), "--elt", str(elt)],
        lambda n=n, level=level, elt=elt: _scalar(orc.dehn_value(
            tab.cyclic_table(n), tab.alpha_cyclic_table(n, level), elt)))
    cpath, vals, images, m, level = levels["d4"]
    elt = rnd.randrange(8)
    add(["dehn", "--group", "file:" + group_files["d4"][0], "--level", "file:" + cpath,
         "--elt", str(elt)],
        lambda vals=vals, elt=elt: _scalar(orc.dehn_value(group_files["d4"][1], vals, elt)))
    for name, fmt in (("klein4", "plain"), ("z3z3", "csv")):
        cpath, vals, images, m, level = levels[name]
        path, table = group_files[name]
        add(["verify-alpha", "--group", "file:" + path, "--level", "file:" + cpath,
             "--format", fmt],
            lambda table=table, vals=vals, fmt=fmt: _verify(table, vals, fmt))
    add(["enumerate", "--group", "klein4", "--genus", "2"],
        lambda: _text(orc.enumerate_lines(v4, 2)))
    add(["enumerate", "--group", "file:" + group_files["z4z2"][0], "--genus", "1"],
        lambda: _text(orc.enumerate_lines(group_files["z4z2"][1], 1)))
    add(["orbits", "--group", "file:" + group_files["d4"][0]],
        lambda: _text(orc.orbit_lines(group_files["d4"][1])))
    add(["orbits", "--group", "file:" + group_files["z3z3"][0], "--format", "csv"],
        lambda: _orbits_csv(group_files["z3z3"][1]))
    level = rnd.randrange(1, 4)
    add(["dim", "--group", "cyclic:4", "--level", str(level)],
        lambda level=level: _text([str(orc.sections_value(
            tab.cyclic_table(4), tab.alpha_cyclic_table(4, level)))]))
    add(["dim", "--group", "s3", "--level", "0"],
        lambda: _text([str(orc.sections_value(s3, tab.zero_table(6)))]))
    for fmt in ("plain", "csv"):
        add(["groupoid-check", "--file", groupoid, "--format", fmt],
            lambda fmt=fmt: _groupoid(root, groupoid, fmt))
    return cmds


def _verify(table, vals, fmt):
    closed, normalized = orc.closed_and_normalized(table, vals)
    if fmt == "csv":
        return _text(["closed,normalized", "%s,%s" % (_yes(closed), _yes(normalized))])
    return _text(["closed: %s" % _yes(closed), "normalized: %s" % _yes(normalized)])


def _orbits_csv(table):
    rows = ["rep,orbit,stab"]
    for line in orc.orbit_lines(table):
        parts = line.split()
        rows.append("%s %s,%s,%s" % (parts[1], parts[2], parts[4], " ".join(parts[6:])))
    return _text(rows)


def _groupoid(root, rel, fmt):
    with open(os.path.join(root, rel), encoding="utf-8") as fh:
        valid, dim = orc.groupoid_value(fh.read())
    if not valid:
        raise AssertionError("generated groupoid %s is not a cocycle" % rel)
    if fmt == "csv":
        return _text(["valid,dim", "yes,%d" % dim])
    return _text(["valid: yes", "dim: %d" % dim])


def spawn(cmd, root, err_path):
    """Run cmd from root; return (stdout, exit code, seconds, peak RSS in KB)."""
    env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))
    with open(err_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, cwd=root, env=env, stdout=subprocess.PIPE, stderr=err)
        try:
            out = proc.stdout.read()
            # wait4, unlike Popen.wait, gives the child's own peak RSS
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            proc.stdout.close()
        elapsed = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return out.decode(), proc.returncode, elapsed, usage.ru_maxrss


def run_command(argv, root, err_path, trace_path=None):
    """One kleinform command in a fresh interpreter, traced when trace_path is set."""
    if trace_path is None:
        cmd = [sys.executable, "-m", "kleinform"] + argv
    else:
        cmd = [sys.executable, os.path.join(root, "bench", "trace_cli.py"), trace_path] + argv
    return spawn(cmd, root, err_path)


def check(cmds, outputs):
    """Raise AssertionError on the first stdout that differs from its oracle."""
    for (argv, expected), (out, code) in zip(cmds, outputs):
        if code != 0:
            continue  # counted as failed, not as wrong
        want = expected()
        if out != want:
            raise AssertionError("kleinform %s exited %d with %r, oracle says %r"
                                 % (" ".join(argv), code, out, want))
