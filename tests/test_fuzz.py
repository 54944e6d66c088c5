"""Seeded token fuzzing of the three text parsers.

Each trial drops whole tokens from a sample file or swaps them for tokens
from a fixed list, then parses the result: the parser must either return
or raise KleinformError.  The list holds numbers up to one past
groups.MAX_ORDER and a "#" that comments out the rest of its line.  The
order cap and the cap on a cochain's table size bound what any mutation
can ask for, so every trial answers at once.
"""

import os
import random
import time

from kleinform.cochains import parse_cochain_text
from kleinform.errors import KleinformError
from kleinform.groupoid_lines import parse_groupoid_text
from kleinform.groups import parse_group_text, symmetric3

DATA = os.path.join(os.path.dirname(__file__), "data")
TOKENS = ("1/0", "-1", "0", "5", "7", "48", "49", "x", "#", "")


def _read(name):
    with open(os.path.join(DATA, name), encoding="utf-8") as fh:
        return fh.read()


def _mutate(rnd, text):
    lines = [line.split() for line in text.splitlines()]
    for _ in range(rnd.randint(1, 3)):
        spots = [(i, j) for i, line in enumerate(lines) for j in range(len(line))]
        if not spots:
            break
        i, j = rnd.choice(spots)
        if rnd.random() < 0.5:
            del lines[i][j]
        else:
            lines[i][j] = rnd.choice(TOKENS)
    return "\n".join(" ".join(line) for line in lines) + "\n"


def _samples():
    s3 = symmetric3()
    group_text = "order 6\n" + "\n".join(
        " ".join(str(s3.mul(a, b)) for b in s3.elements) for a in s3.elements
    )
    return (
        (parse_group_text, group_text),
        (parse_cochain_text, _read("s3_cubetwist.cochain")),
        (parse_groupoid_text, _read("flip.groupoid")),
    )


def test_parsers_return_or_raise_kleinform_error():
    rnd = random.Random(23)
    start = time.perf_counter()
    for parse, text in _samples():
        parse(text)
        outcomes = set()
        for _ in range(400):
            mutated = _mutate(rnd, text)
            try:
                parse(mutated)
                outcomes.add("parsed")
            except KleinformError:
                outcomes.add("rejected")
        assert outcomes == {"parsed", "rejected"}
    assert time.perf_counter() - start < 10


def _comparable(parsed):
    """A groupoid parse gives (presentation, values); compare its data."""
    if isinstance(parsed, tuple):
        pres, values = parsed
        return pres.n_objects, pres.morphisms, pres.comp, values
    return parsed


def test_inline_comments_change_nothing():
    for parse, text in _samples():
        noted = "".join(line + " # note\n" for line in text.splitlines())
        assert _comparable(parse(noted)) == _comparable(parse(text))
