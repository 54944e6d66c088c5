"""Seeded workload specs and the oracle check of their answers.

A spec is plain JSON: the groups and cochains to build during set-up and
the queries to answer.  The seed picks levels, reps, matrices and the
query order; it never changes how many lifts, window solves or section
counts a round needs, so rounds cost the same on every seed.
"""

import os
import random

import oracles as orc
import tables as tab

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))

KLEIN4 = {"kind": "product", "factors": [2, 2]}
Z4Z2 = {"kind": "product", "factors": [4, 2]}
Z3Z3 = {"kind": "product", "factors": [3, 3]}
D4 = {"kind": "dihedral", "n": 4}
S3 = {"kind": "s3"}


def cyclic(n):
    return {"kind": "cyclic", "n": n}


def _sl2z(bound):
    return [(a, b, c, d)
            for a in range(-bound, bound + 1) for b in range(-bound, bound + 1)
            for c in range(-bound, bound + 1) for d in range(-bound, bound + 1)
            if a * d - b * c == 1]


# window 2 covers entries of at most 1; an entry of 2 forces window 3
SMALL_MATRICES = _sl2z(1)
WINDOW3_MATRICES = [m for m in _sl2z(2) if max(abs(v) for v in m) == 2]


def random_gamma1(rnd, n, bound=50):
    """A member of Gamma1(n) with entries bounded by `bound`."""
    while True:
        a = 1 + n * rnd.randrange(-(bound - 1) // n, (bound - 1) // n + 1)
        b = n * rnd.randrange(-(bound // n), bound // n + 1)
        g, x, y = _xgcd(a, b)
        if g == 1 and abs(x) <= bound and abs(y) <= bound:
            return (a, b, -y, x)


def _xgcd(a, b):
    x0, y0, x1, y1 = 1, 0, 0, 1
    while b:
        q, a, b = a // b, b, a % b
        x0, x1 = x1, x0 - q * x1
        y0, y1 = y1, y0 - q * y1
    if a < 0:
        a, x0, y0 = -a, -x0, -y0
    return a, x0, y0


def random_word(rnd, letters=3):
    """A product of S, T and T^-1 of the given length."""
    m = (1, 0, 0, 1)
    for _ in range(letters):
        m = orc.matmul(m, rnd.choice([(0, -1, 1, 0), (1, 1, 0, 1), (1, -1, 0, 1)]))
    return m


def noncyclic_pairs(spec):
    t = tab.group_table(spec)
    n = len(t)
    return [(g, h) for g in range(n) for h in range(n)
            if tab.commutes(t, g, h) and not tab.is_cyclic_pair(t, g, h)]


def _pullback(group, m, level, images):
    return {"group": group, "kind": "pullback", "m": m, "level": level, "images": images}


def cochain_table(groups, c):
    """The raw value table of a cochain spec."""
    n = len(tab.group_table(groups[c["group"]]))
    if c["kind"] == "alpha":
        return tab.alpha_cyclic_table(c["n"], c["level"])
    if c["kind"] == "pullback":
        return tab.pullback_table(tab.alpha_cyclic_table(c["m"], c["level"]),
                                  c["m"], c["images"])
    if c["kind"] == "zero":
        return tab.zero_table(n)
    if c["kind"] == "file":
        with open(os.path.join(BENCH_DIR, c["path"]), encoding="utf-8") as fh:
            return tab.parse_cochain(fh.read(), n)
    raise ValueError(c["kind"])


# -- characters ------------------------------------------------------------

def characters(seed):
    rnd = random.Random("characters:%d" % seed)
    groups = {"s3": S3, "klein4": KLEIN4, "z4z2": Z4Z2, "d4": D4, "z3z3": Z3Z3}
    cochains = {"s3cube": {"group": "s3", "kind": "file", "path": "data/s3_cubetwist.cochain"}}
    queries = []

    def r(c, g, h, m, tag):
        queries.append({"op": "r_diff", "cochain": c, "rep": [g, h], "matrix": list(m),
                        "tag": tag})

    # Gamma1(n) against the generator rep: closed route, one lift per n
    for n in range(2, 13):
        groups["c%d" % n] = cyclic(n)
        c = "g1_%d" % n
        cochains[c] = {"group": "c%d" % n, "kind": "alpha", "n": n,
                       "level": rnd.randrange(1, n)}
        for _ in range(20):
            r(c, 1, 0, random_gamma1(rnd, n), "gamma1")

    # (g, e) against T^ord(g) under two pulled-back levels per group
    for n in range(5, 10):
        for i in range(2):
            c = "tord_%d_%d" % (n, i)
            k = rnd.randrange(1, n)
            cochains[c] = _pullback("c%d" % n, n, rnd.randrange(1, n),
                                    [k * x % n for x in range(n)])
            table = tab.cyclic_table(n)
            for g in range(n):
                r(c, g, 0, (1, tab.order_of(table, g), 0, 1), "tord")

    # cocycle law on S3 under the cube twist, and its Dehn values
    s3 = tab.s3_table()
    pairs = [(g, h) for g in range(6) for h in range(6) if tab.commutes(s3, g, h)]
    for _ in range(12):
        g, h = rnd.choice(pairs)
        a, b = random_word(rnd), random_word(rnd)
        ga, ha = orc.act(s3, g, h, a)
        queries.append({"op": "law", "cochain": "s3cube", "rep": [g, h], "A": list(a),
                        "B": list(b), "moved": [ga, ha]})
        r("s3cube", g, h, a, "law")
        r("s3cube", ga, ha, b, "law")
        r("s3cube", g, h, orc.matmul(a, b), "law")
    for g in range(6):
        r("s3cube", g, 0, (1, tab.order_of(s3, g), 0, 1), "tord")

    # non-cyclic-image reps: one window-2 solve each
    levels = [
        ("klein4", KLEIN4, 2, 1, [1, rnd.randrange(2)]),
        ("z4z2", Z4Z2, 4, rnd.randrange(1, 4), [rnd.choice([1, 3]), rnd.randrange(2)]),
        ("d4", D4, 2, 1, rnd.choice([[1, 0], [0, 1], [1, 1]])),
        ("z3z3", Z3Z3, 3, rnd.randrange(1, 3), [rnd.randrange(1, 3), rnd.randrange(3)]),
    ]
    for gname, spec, m, level, coeffs in levels:
        c = gname + "_pb"
        cochains[c] = _pullback(gname, m, level, tab.character_images(spec, coeffs, m))
        g, h = rnd.choice(noncyclic_pairs(spec))
        for mat in rnd.sample(SMALL_MATRICES, 6):
            r(c, g, h, mat, "pulled")
    cochains["klein4_zero"] = {"group": "klein4", "kind": "zero"}
    pairs = noncyclic_pairs(KLEIN4)
    g, h = rnd.choice(pairs)
    for mat in rnd.sample(SMALL_MATRICES, 6):
        r("klein4_zero", g, h, mat, "zero")

    # a few entries of 2 on one more klein4 rep: one window-3 solve
    g, h = rnd.choice(pairs)
    for mat in rnd.sample(WINDOW3_MATRICES, 3):
        r("klein4_pb", g, h, mat, "pulled")

    r_queries = [q for q in queries if q["op"] == "r_diff"]
    laws = [q for q in queries if q["op"] == "law"]
    rnd.shuffle(r_queries)
    return {"workload": "characters", "groups": groups, "cochains": cochains,
            "queries": r_queries, "laws": laws}


# -- sections --------------------------------------------------------------

KNOWN_SECTIONS = {"s3_cube": 8, "s3_zero": 8, "klein4_zero": 16, "d4_zero": 22}


def sections(seed):
    rnd = random.Random("sections:%d" % seed)
    groups = {"s3": S3, "klein4": KLEIN4, "d4": D4}
    cochains = {
        "s3_cube": {"group": "s3", "kind": "file", "path": "data/s3_cubetwist.cochain"},
        "s3_zero": {"group": "s3", "kind": "zero"},
        "klein4_zero": {"group": "klein4", "kind": "zero"},
        "klein4_pb": _pullback("klein4", 2, 1, tab.character_images(
            KLEIN4, rnd.choice([[1, 0], [0, 1], [1, 1]]), 2)),
        "d4_zero": {"group": "d4", "kind": "zero"},
    }
    # The levels are fixed because a count's cost depends on its level.
    # Five counts are cheaper than cyclic:4 and five dearer, so the median
    # latency is the middle of the four cyclic:4 counts: one round gives
    # only fourteen latencies, and one count alone swings by a fifth.
    for n, levels in ((2, [1]), (3, [1, 2]), (4, [0, 1, 2, 3]), (5, [2]), (6, [1])):
        groups["c%d" % n] = cyclic(n)
        for level in levels:
            cochains["c%d_l%d" % (n, level)] = {"group": "c%d" % n, "kind": "alpha",
                                                "n": n, "level": level}
    queries = [{"op": "dim", "cochain": c} for c in cochains]
    rnd.shuffle(queries)
    # one worker per count, timing one reference loop on each side of it
    return {"workload": "sections", "groups": groups, "cochains": cochains,
            "queries": queries, "laws": [], "split": True, "ref_samples": 1}


def one_query(spec, q):
    """The part of a split spec that one worker needs for query q."""
    c = spec["cochains"][q["cochain"]]
    return dict(spec, groups={c["group"]: spec["groups"][c["group"]]},
                cochains={q["cochain"]: c}, queries=[q], split=False)


def expected_sections(spec, name):
    c = spec["cochains"][name]
    group = spec["groups"][c["group"]]
    value = orc.sections_value(tab.group_table(group), cochain_table(spec["groups"], c))
    known = group["n"] ** 2 if group["kind"] == "cyclic" else KNOWN_SECTIONS.get(name)
    if known is not None and known != value:
        raise AssertionError("raw count %d disagrees with the known value %d for %s"
                             % (value, known, name))
    return value


# -- library answers ---------------------------------------------------------

def expected_r(spec, q, tables):
    """Every oracle that applies to one r_diff query, as a list of values."""
    c = spec["cochains"][q["cochain"]]
    group = spec["groups"][c["group"]]
    g, h = q["rep"]
    m = tuple(q["matrix"])
    out = []
    if c["kind"] == "zero":
        out.append(orc.qz("0"))
    if c["kind"] == "alpha":
        out.append(orc.cyclic_value(g, h, c["n"], c["level"], m))
        if q["tag"] == "gamma1":
            out.append(orc.gamma1_value(c["n"], c["level"], m[1]))
    if c["kind"] == "pullback":
        img = c["images"]
        out.append(orc.cyclic_value(img[g], img[h], c["m"], c["level"], m))
    if q["tag"] == "tord":
        table = tab.group_table(group)
        out.append(orc.dehn_value(table, tables[q["cochain"]], g))
    return out


def check_library_answers(spec, answers):
    """Raise AssertionError on the first answer no oracle confirms."""
    tables = {name: cochain_table(spec["groups"], c) for name, c in spec["cochains"].items()}
    got = {}
    for q, text in zip(spec["queries"], answers):
        if text is None:
            continue  # counted as failed, not as wrong
        value = orc.qz(text) if q["op"] == "r_diff" else int(text)
        if q["op"] == "r_diff":
            got[(q["cochain"], tuple(q["rep"]), tuple(q["matrix"]))] = value
            expect = expected_r(spec, q, tables)
            if q["tag"] == "law" and not expect:
                continue
            if not expect or any(e != value for e in expect):
                raise AssertionError("r_diff %r gave %s, oracles say %s"
                                     % (q, text, [str(e) for e in expect]))
        else:
            expect = expected_sections(spec, q["cochain"])
            if value != expect:
                raise AssertionError("sections_dimension(%s) gave %d, oracle says %d"
                                     % (q["cochain"], value, expect))
    for law in spec["laws"]:
        rho, a, b = tuple(law["rep"]), tuple(law["A"]), tuple(law["B"])
        c = law["cochain"]
        if not orc.cocycle_law_holds(got[(c, rho, a)], got[(c, rho, orc.matmul(a, b))],
                                     got[(c, tuple(law["moved"]), b)]):
            raise AssertionError("cocycle law fails for %r" % (law,))
