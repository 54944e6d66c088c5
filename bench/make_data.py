"""The stored inputs under bench/data, and the command that makes them again.

    python3 bench/make_data.py           # rewrite the generated copies
    python3 bench/make_data.py --check   # exit 1 if a stored copy is off

flip.groupoid (the README's groupoid-check example) is made by
tables.flip_groupoid_text().  s3_cubetwist.cochain is a stored table with
no closed formula here; check() verifies instead that it is closed and
normalized and restricts to alpha_cyclic(3, 1) on the three-cycles
{0, 3, 4}, which is what the workloads rely on.
"""

import os
import sys

import oracles as orc
import tables as tab

DATA_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "data")
GENERATED = {"flip.groupoid": tab.flip_groupoid_text}


def check():
    """Raise ValueError unless every stored input is what it should be."""
    for name, make in GENERATED.items():
        with open(os.path.join(DATA_DIR, name), encoding="utf-8") as fh:
            if fh.read() != make():
                raise ValueError("bench/data/%s differs from its generator" % name)
    s3 = tab.s3_table()
    with open(os.path.join(DATA_DIR, "s3_cubetwist.cochain"), encoding="utf-8") as fh:
        cube = tab.parse_cochain(fh.read(), 6)
    if orc.closed_and_normalized(s3, cube) != (True, True):
        raise ValueError("bench/data/s3_cubetwist.cochain is not closed and normalized")
    a3, base = (0, 3, 4), tab.alpha_cyclic_table(3, 1)
    for i in range(3):
        for j in range(3):
            for l in range(3):
                if cube[(a3[i] * 6 + a3[j]) * 6 + a3[l]] != base[(i * 3 + j) * 3 + l]:
                    raise ValueError("s3 cube twist does not restrict to alpha_cyclic(3, 1)")


def main(argv):
    if "--check" not in argv:
        for name, make in GENERATED.items():
            with open(os.path.join(DATA_DIR, name), "w", encoding="utf-8") as fh:
                fh.write(make())
    try:
        check()
    except ValueError as exc:
        print(exc, file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
