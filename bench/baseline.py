"""The baseline rows of ROADMAP item 1, reproduced by one command.

    python3 bench/baseline.py [--suite]

Run it from the root of a checkout.  Each row is one fresh `python3 -m
kleinform` process, timed from start to exit, with its peak RSS; --suite
adds the Tier-1 test suite.  Two rows of the ROADMAP table are not run:
the klein4 characters at --matrix 1,4,0,1 and 2,5,1,3 were killed there
at 300 and 600 s and stay out of reach until the window is bounded.
"""

import os
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
sys.path.insert(0, BENCH_DIR)

from cliwork import spawn  # noqa: E402

ROWS = [
    ["klein", "--n", "5", "--level", "2", "--matrix", "1,5,1,6"],
    ["dim", "--group", "cyclic:3", "--level", "1"],
    ["dim", "--group", "klein4", "--level", "0"],
    ["dim", "--group", "cyclic:12", "--level", "5"],
    ["character", "--group", "klein4", "--level", "0", "--rep", "1,2", "--matrix", "1,3,0,1"],
]
SKIPPED = [
    "character --group klein4 --level 0 --rep 1,2 --matrix 1,4,0,1",
    "character --group klein4 --level 0 --rep 1,2 --matrix 2,5,1,3",
]


def main(argv):
    print("| Command | Output | Time (s) | Peak RSS (MB) |")
    print("|---|---|---|---|")
    rows = [(" ".join(r), [sys.executable, "-m", "kleinform"] + r) for r in ROWS]
    if "--suite" in argv:
        rows.append(("Tier-1 suite", [sys.executable, "-m", "pytest", "-q",
                                      "--continue-on-collection-errors", "tests"]))
    os.makedirs(os.path.join(BENCH_DIR, "out"), exist_ok=True)
    err = os.path.join(BENCH_DIR, "out", "baseline-stderr.txt")
    for label, cmd in rows:
        out, code, seconds, rss_kb = spawn(cmd, ROOT, err)
        last = out.strip().splitlines()[-1] if code == 0 else "exit %d" % code
        print("| `%s` | %s | %.2f | %.1f |" % (label, last, seconds, rss_kb / 1024))
    for label in SKIPPED:
        print("| `%s` | not run | - | - |" % label)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
