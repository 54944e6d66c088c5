"""Shows that every oracle accepts the right answer and rejects a wrong one.

    python3 bench/selftest.py

Run it from the root of a checkout; it prints one line per oracle and
exits 1 if any oracle lets a deliberately wrong value through.  Library
answers for a reduced characters round come from one worker process, so
the cocycle-law check sees real values; everything else is compared with
values the oracles derive themselves.
"""

import copy
import json
import os
import subprocess
import sys
import tempfile
from fractions import Fraction

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
OUT_DIR = os.path.join(BENCH_DIR, "out")
sys.path.insert(0, BENCH_DIR)

import cliwork  # noqa: E402
import oracles as orc  # noqa: E402
import tables as tab  # noqa: E402
import workloads  # noqa: E402

FAILURES = []


def expect_reject(label, fn):
    try:
        fn()
    except AssertionError:
        print("rejects wrong %s" % label)
        return
    FAILURES.append(label)
    print("MISSED wrong %s" % label)


def bump(text):
    return str((orc.qz(text) + Fraction(1, 7)) % 1)


def reduced_characters():
    """characters(0) without its window-3 solve, one query per tag kept dear."""
    spec = workloads.characters(0)
    keep, seen = [], {}
    for q in spec["queries"]:
        key = (q["tag"], q["cochain"])
        if q["tag"] == "law" or seen.get(key, 0) < 2:
            keep.append(q)
            seen[key] = seen.get(key, 0) + 1
    spec["queries"] = [q for q in keep if max(abs(v) for v in q["matrix"]) < 2
                       or q["tag"] != "pulled"]
    return spec


def library_answers(spec):
    with tempfile.NamedTemporaryFile("w", suffix=".json", dir=OUT_DIR, delete=False) as fh:
        json.dump(spec, fh)
    try:
        out = subprocess.run([sys.executable, os.path.join(BENCH_DIR, "worker.py"), fh.name],
                             cwd=ROOT, capture_output=True, text=True, check=True)
    finally:
        os.unlink(fh.name)
    return json.loads(out.stdout.strip().splitlines()[-1])["answers"]


def characters_oracles():
    spec = reduced_characters()
    answers = library_answers(spec)
    workloads.check_library_answers(spec, answers)
    print("accepts the library's characters answers")
    for tag in ("gamma1", "tord", "pulled", "zero", "law"):
        i = next(k for k, q in enumerate(spec["queries"]) if q["tag"] == tag)
        wrong = list(answers)
        wrong[i] = bump(wrong[i])
        expect_reject("%s value" % tag,
                      lambda w=wrong: workloads.check_library_answers(spec, w))


def sections_oracles():
    spec = workloads.sections(0)
    spec["queries"] = [q for q in spec["queries"]
                       if q["cochain"] in ("c2_l1", "s3_cube", "klein4_pb")]
    right = [str(workloads.expected_sections(spec, q["cochain"])) for q in spec["queries"]]
    workloads.check_library_answers(spec, right)
    for i, q in enumerate(spec["queries"]):
        wrong = list(right)
        wrong[i] = str(int(wrong[i]) + 1)
        expect_reject("sections count for %s" % q["cochain"],
                      lambda w=wrong: workloads.check_library_answers(spec, w))
    # the known value guards the raw count: a D4 label on klein4 data must fail
    bad = copy.deepcopy(spec)
    bad["cochains"]["d4_zero"] = {"group": "klein4", "kind": "zero"}
    expect_reject("raw count against the known value",
                  lambda: workloads.expected_sections(bad, "d4_zero"))


def cli_oracles():
    with tempfile.TemporaryDirectory(dir=OUT_DIR) as work:
        cmds = cliwork.make(0, ROOT, work)
        right = [(expected(), 0) for _, expected in cmds]
        cliwork.check(cmds, right)
        for i, (argv, _) in enumerate(cmds):
            wrong = list(right)
            wrong[i] = (right[i][0].replace("\n", " \n", 1), 0)
            expect_reject("stdout of kleinform %s" % " ".join(argv[:3]),
                          lambda w=wrong: cliwork.check(cmds, w))


def raw_oracles():
    s3 = tab.s3_table()
    alpha = tab.alpha_cyclic_table(3, 1)
    broken = list(alpha)
    broken[(1 * 3 + 1) * 3 + 2] += Fraction(1, 3)

    def differential():
        assert orc.closed_and_normalized(tab.cyclic_table(3), broken) == (True, True)

    expect_reject("cochain (raw differential)", differential)

    def groupoid():
        assert orc.groupoid_value(tab.flip_groupoid_text().replace("val t 1/2", "val t 1/3"))[0]

    expect_reject("groupoid cocycle (raw additivity)", groupoid)

    def law():
        assert orc.cocycle_law_holds(Fraction(1, 3), Fraction(1, 2), Fraction(1, 3))

    expect_reject("cocycle-law triple", law)
    assert orc.dehn_value(s3, tab.zero_table(6), 3) == 0


def main():
    os.makedirs(OUT_DIR, exist_ok=True)
    characters_oracles()
    sections_oracles()
    cli_oracles()
    raw_oracles()
    if FAILURES:
        print("%d oracle(s) let a wrong value through" % len(FAILURES))
        return 1
    print("every oracle rejected its wrong value")
    return 0


if __name__ == "__main__":
    sys.exit(main())
