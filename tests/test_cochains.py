import os
import random
import sys
import tracemalloc

import pytest

from kleinform.cochains import (
    MAX_TABLE_BITS,
    Cochain,
    alpha_cyclic,
    coboundary_solve,
    differential,
    is_closed,
    is_closed_normalized,
    is_normalized,
    load_cochain_file,
    parse_cochain_text,
    pullback_cochain,
    validate_cochain,
)
from kleinform.errors import KleinformError, ValidationError
from kleinform.groups import (GroupHom, all_homs, alternating4, cyclic, dicyclic, dihedral,
                              direct_product, generating_set, klein4, symmetric3)
from kleinform.moduli import SL2Z, TorusRep, r_diff
from kleinform.qz import QZ

DATA = os.path.join(os.path.dirname(__file__), "data")


def _random_cochain(rnd, group, degree):
    n = group.order
    vals = [QZ(rnd.randrange(0, 12), rnd.randrange(1, 7)) for _ in range(n**degree)]
    return Cochain(group, degree, vals)


def test_construction_validation():
    z2 = cyclic(2)
    with pytest.raises(ValidationError):
        Cochain(z2, 2, [QZ(0)] * 3)
    with pytest.raises(ValidationError):
        Cochain(z2, 5, [QZ(0)] * 32)
    with pytest.raises(ValidationError):
        Cochain("not a group", 1, [QZ(0)])
    with pytest.raises(ValidationError):
        Cochain(z2, 1, [0, 0.5])
    c = Cochain(z2, 1, [0, QZ(1, 2)])
    assert c(1) == QZ(1, 2)
    with pytest.raises(KleinformError):
        c(1, 1)


def test_call_rejects_arguments_outside_the_group():
    a = alpha_cyclic(4, 1)
    for args in ((0, 0, 4), (0, 0, -1), (0, 0, True), (0, 0, 1.0), (0, 0, "1")):
        with pytest.raises(KleinformError, match="outside 0..3"):
            a(*args)


def test_zero_and_from_function():
    z3 = cyclic(3)
    z = Cochain.zero(z3, 2)
    assert all(v == QZ(0) for v in z.values)
    c = Cochain.from_function(z3, 2, lambda a, b: QZ(a * b, 3))
    assert c(2, 2) == QZ(1, 3)
    assert c(1, 2) == QZ(2, 3)


def test_differential_degree_one_by_hand():
    z4 = cyclic(4)
    rnd = random.Random(9)
    c = _random_cochain(rnd, z4, 1)
    dc = differential(c)
    for a in z4.elements:
        for b in z4.elements:
            assert dc(a, b) == c(a) + c(b) - c(z4.mul(a, b))


def test_differential_degree_two_by_hand():
    s3 = symmetric3()
    rnd = random.Random(10)
    c = _random_cochain(rnd, s3, 2)
    dc = differential(c)
    for a in s3.elements:
        for b in s3.elements:
            for cc in s3.elements:
                want = (
                    c(a, b)
                    + c(s3.mul(a, b), cc)
                    - c(a, s3.mul(b, cc))
                    - c(b, cc)
                )
                assert dc(a, b, cc) == want


def _differential_three_by_hand(c, a, b, cc, d):
    g = c.group
    return (
        c(b, cc, d)
        - c(g.mul(a, b), cc, d)
        + c(a, g.mul(b, cc), d)
        - c(a, b, g.mul(cc, d))
        + c(a, b, cc)
    )


def _closed_by_five_terms(c):
    """Every entry of dc is 0 mod L, read term by term from the integer table."""
    n, L, tab, mul = c.group.order, c.L, c.ints, c.group.table

    def at(x, y, z):
        return tab[(x * n + y) * n + z]

    return all(
        (at(b, cc, d) - at(mul[a][b], cc, d) + at(a, mul[b][cc], d)
         - at(a, b, mul[cc][d]) + at(a, b, cc)) % L == 0
        for a in range(n) for b in range(n) for cc in range(n) for d in range(n))


def test_differential_degree_three_by_hand():
    rnd = random.Random(11)
    for group in (cyclic(2), symmetric3()):
        c = _random_cochain(rnd, group, 3)
        dc = differential(c)
        for a in group.elements:
            for b in group.elements:
                for cc in group.elements:
                    for d in group.elements:
                        assert dc(a, b, cc, d) == _differential_three_by_hand(c, a, b, cc, d)


def test_d_of_d_is_zero():
    rnd = random.Random(12)
    for group in (cyclic(2), cyclic(3), klein4(), symmetric3()):
        for degree in (0, 1, 2):
            for _ in range(3):
                c = _random_cochain(rnd, group, degree)
                dd = differential(differential(c))
                assert all(v == QZ(0) for v in dd.values)


def test_differential_degree_cap():
    z2 = cyclic(2)
    c = Cochain.zero(z2, 4)
    with pytest.raises(KleinformError):
        differential(c)


def test_alpha_cyclic_values():
    a = alpha_cyclic(3, 1)
    assert a(1, 2, 2) == QZ(1, 3)
    assert a(2, 1, 2) == QZ(2, 3)
    assert a(1, 1, 1) == QZ(0)
    assert a(0, 2, 2) == QZ(0)
    b = alpha_cyclic(4, 3)
    assert b(2, 3, 1) == QZ(6, 4)
    assert b(2, 3, 1) == QZ(1, 2)
    with pytest.raises(KleinformError):
        alpha_cyclic(0, 1)


def test_alpha_cyclic_matches_its_formula():
    for n in range(1, 13):
        for level in range(2 * n + 1):
            want = Cochain.from_function(
                cyclic(n), 3, lambda j, k, l: QZ(level * j, n) if k + l >= n else QZ(0))
            assert alpha_cyclic(n, level) == want


def test_alpha_cyclic_closed_and_normalized():
    for n in (1, 2, 3, 4, 5, 6):
        for level in range(n + 1):
            a = alpha_cyclic(n, level)
            report = validate_cochain(a)
            assert report.closed
            assert report.normalized


def test_is_normalized():
    z2 = cyclic(2)
    c = Cochain.from_function(z2, 2, lambda a, b: QZ(1, 2) if a == 0 else QZ(0))
    assert not is_normalized(c)
    assert is_normalized(Cochain.zero(z2, 2))
    assert is_normalized(Cochain(z2, 0, [QZ(1, 3)]))


def test_is_closed_normalized_agrees_before_and_after_the_flags_are_kept():
    z5 = cyclic(5)
    builds = [
        (lambda: alpha_cyclic(5, 2), True),
        # closed, not normalized: d of beta(a, b) = a/5
        (lambda: differential(Cochain(z5, 2, [QZ(a, 5) for a in range(5) for b in range(5)])),
         False),
        # normalized, not closed
        (lambda: Cochain(z5, 3, [QZ(1, 5) if i == 31 else 0 for i in range(125)]), False),
    ]
    for build, want in builds:
        fresh, kept = build(), build()
        is_closed(kept), is_normalized(kept)
        assert is_closed_normalized(fresh) is want
        assert is_closed_normalized(kept) is want
        assert is_closed_normalized(fresh) is want


def test_pullback():
    z6, z3 = cyclic(6), cyclic(3)
    h = GroupHom(z6, z3, [x % 3 for x in range(6)])
    a = alpha_cyclic(3, 1)
    p = pullback_cochain(a, h)
    assert p.group == z6
    assert is_closed(p) and is_normalized(p)
    assert p(1, 2, 2) == a(1, 2, 2)
    assert p(4, 5, 5) == a(1, 2, 2)
    with pytest.raises(KleinformError):
        pullback_cochain(a, GroupHom(z6, cyclic(2), [x % 2 for x in range(6)]))


def _cup_alpha_v8():
    # the product cocycle x1*y2*z3/2 on (Z/2)^3
    v8 = direct_product(direct_product(cyclic(2), cyclic(2)), cyclic(2))
    return v8, Cochain.from_function(
        v8, 3, lambda a, b, c: QZ(((a >> 2) & 1) * ((b >> 1) & 1) * (c & 1), 2))


def test_is_closed_agrees_with_full_differential_on_perturbations():
    # one entry of a closed cocycle moved at the first, the last and random
    # flat indices, and at entries whose first argument is not a generator;
    # is_closed reads the runs of generator first arguments only, the
    # oracles read every entry
    rnd = random.Random(23)
    cube = load_cochain_file(os.path.join(DATA, "s3_cubetwist.cochain"))
    cup = _cup_alpha_v8()[1]
    a4 = alternating4()
    to_z3 = next(h for h in all_homs(a4, cyclic(3)) if any(h.images))
    a4_level = pullback_cochain(alpha_cyclic(3, 1), to_z3)
    cases = []
    for alpha in (cube, cup):
        assert is_closed(alpha)
        cases.append((alpha, 6))
    # closed coboundaries d(beta) over L = 51, 52, (256**8 - 1) // 5 and
    # 3**50, small to large denominators, bumped by a multiple of 1/L
    widest = (256**8 - 1) // 5
    groups = (cyclic(1), symmetric3(), dihedral(4), dicyclic(2), a4)
    for group in groups:
        for L in (51, 52, widest, 3**50):
            n = group.order
            beta = Cochain(group, 2, [QZ(rnd.randrange(L), L) for _ in range(n * n)])
            coboundary = differential(beta)
            assert coboundary.L == (L if n > 1 else 1)
            assert is_closed(coboundary) and _closed_by_five_terms(coboundary)
            cases.append((coboundary, L))
    # closed, non-normalized alpha + d(beta), beta not normalized either
    for alpha in (cube, cup, a4_level):
        n = alpha.group.order
        beta = Cochain(alpha.group, 2, [QZ(rnd.randrange(12), 12) for _ in range(n * n)])
        shifted = Cochain(alpha.group, 3,
                          [x + y for x, y in zip(alpha.values, differential(beta).values)])
        assert is_closed(shifted) and not is_normalized(shifted)
        cases.append((shifted, 12))
    tables = []
    for alpha, L in cases:
        size = len(alpha.values)
        for flat in [0, size - 1] + [rnd.randrange(size) for _ in range(6)]:
            values = list(alpha.values)
            values[flat] += QZ(rnd.randrange(1, L), L)
            tables.append(Cochain(alpha.group, 3, values))
    # a bump at every first argument outside the generating set, the
    # identity included: (Z/2)^3 has three generators, A4 two
    for alpha, L, rank in ((cup, 2, 3), (a4_level, 3, 2)):
        n, gens = alpha.group.order, generating_set(alpha.group)
        assert len(gens) == rank
        for a in set(range(n)) - set(gens):
            values = list(alpha.values)
            values[a * n * n + rnd.randrange(n * n)] += QZ(rnd.randrange(1, L), L)
            bumped = Cochain(alpha.group, 3, values)
            assert not is_closed(bumped)
            tables.append(bumped)
    # a normalized, non-closed cochain pulled back along a quotient: dc
    # vanishes on every run whose first argument lies in the kernel, which
    # holds a generator (1 of (Z/2)^3, 3 of A4), and on no other run
    v8 = cup.group
    for hom in (GroupHom(v8, klein4(), [x >> 1 for x in range(8)]), to_z3):
        gens = generating_set(hom.source)
        assert any(hom(g) == 0 for g in gens)
        for _ in range(3):
            top = Cochain.from_function(hom.target, 3, lambda a, b, cc: QZ(
                rnd.randrange(6) if a and b and cc else 0, 6))
            pulled = pullback_cochain(top, hom)
            assert not is_closed(pulled)
            tables.append(pulled)
    # tables with every entry 0 or L - 1, the extremes of each term of dc
    for group in groups[:4]:
        for L in (1, 2, 51, 52, 256, widest, 3**50):
            for _ in range(3):
                n = group.order
                tables.append(Cochain(group, 3, [QZ(rnd.choice((0, L - 1)), L)
                                                 for _ in range(n**3)]))
    closed = []
    for i, c in enumerate(tables):
        by_hand = _closed_by_five_terms(c)
        assert is_closed(c) == by_hand == all(not v for v in differential(c).values)
        if i < 16:
            # the bumped cube and cup tables, read once more through QZ
            elements = c.group.elements
            assert by_hand == all(
                not _differential_three_by_hand(c, a, b, cc, d)
                for a in elements for b in elements for cc in elements for d in elements)
        closed.append(by_hand)
    assert any(closed) and not all(closed)


def test_is_closed_reads_a_huge_denominator_entry_by_entry():
    # entries of 4,000 digits: a bad entry answers False, and a closed
    # cochain answers True after reading every generator run
    big = 10**3999 + 7
    c = parse_cochain_text("group cyclic:48 degree 3\n0 0 1 1/%d\n" % big)
    assert c.L == big
    assert not is_closed(c)
    rnd = random.Random(41)
    beta = Cochain(symmetric3(), 2, [QZ(rnd.randrange(big), big) for _ in range(36)])
    coboundary = differential(beta)
    assert coboundary.L == big
    assert is_closed(coboundary)


def test_validation_keeps_no_reference_to_the_cochain():
    # a table no other test builds, so no earlier call can have seen it
    c = _random_cochain(random.Random(31), klein4(), 3)
    before = sys.getrefcount(c)
    report = validate_cochain(c)
    assert not report.closed and not report.normalized
    assert sys.getrefcount(c) == before


def test_integer_route_builds_no_qz(monkeypatch):
    made = []
    init = QZ.__init__

    def counted(self, *args):
        made.append(args)
        init(self, *args)

    monkeypatch.setattr(QZ, "__init__", counted)
    z12 = cyclic(12)
    alpha = alpha_cyclic(12, 5)
    pulled = pullback_cochain(alpha, GroupHom(z12, z12, [5 * x % 12 for x in range(12)]))
    for c in (alpha, pulled):
        report = validate_cochain(c)
        assert report.closed and report.normalized
    value = r_diff(TorusRep(z12, 1, 0), pulled, SL2Z(1, 12, 0, 1))
    assert len(made) == 1
    assert value == QZ(*made[0])


def test_coboundary_solve_degree_two():
    s3 = symmetric3()
    rnd = random.Random(13)
    c = differential(_random_cochain(rnd, s3, 1))
    b = coboundary_solve(c)
    assert b is not None
    assert b.degree == 1
    assert differential(b) == c


def test_coboundary_solve_degree_three():
    z4 = cyclic(4)
    rnd = random.Random(14)
    c = differential(_random_cochain(rnd, z4, 2))
    b = coboundary_solve(c)
    assert b is not None
    assert differential(b) == c
    # non-abelian groups, from normalized 2-cochains
    for group in (symmetric3(), dicyclic(2)):
        eta = Cochain.from_function(
            group, 2,
            lambda g, h: QZ(rnd.randrange(0, 12), rnd.randrange(1, 7)) if g and h else QZ(0),
        )
        assert is_normalized(eta)
        c = differential(eta)
        b = coboundary_solve(c)
        assert b is not None and b.degree == 2
        assert differential(b) == c


def test_coboundary_solve_detects_nontrivial_class():
    assert coboundary_solve(alpha_cyclic(2, 1)) is None
    assert coboundary_solve(alpha_cyclic(3, 2)) is None
    assert coboundary_solve(load_cochain_file(os.path.join(DATA, "s3_cubetwist.cochain"))) is None
    assert coboundary_solve(_cup_alpha_v8()[1]) is None
    b = coboundary_solve(alpha_cyclic(2, 2))
    assert b is not None
    assert differential(b) == alpha_cyclic(2, 2)


def test_coboundary_solve_rejects_bad_input():
    z2 = cyclic(2)
    with pytest.raises(KleinformError):
        coboundary_solve(Cochain.zero(z2, 1))
    not_closed = Cochain.from_function(
        cyclic(3), 2, lambda a, b: QZ(1, 3) if (a, b) == (1, 1) else QZ(0)
    )
    with pytest.raises(KleinformError):
        coboundary_solve(not_closed)


def test_parse_cochain_text():
    c = parse_cochain_text("group cyclic:2 degree 3\n1 1 1 1/2\n")
    assert c == alpha_cyclic(2, 1)
    sparse = parse_cochain_text("# comment\ngroup cyclic:3 degree 2\n1 2 2/3\n")
    assert sparse(1, 2) == QZ(2, 3)
    assert sparse(2, 1) == QZ(0)
    d0 = parse_cochain_text("group cyclic:2 degree 0\n")
    assert d0.degree == 0


def test_parse_cochain_text_errors():
    with pytest.raises(KleinformError):
        parse_cochain_text("")
    with pytest.raises(KleinformError):
        parse_cochain_text("group cyclic:2\n")
    with pytest.raises(KleinformError):
        parse_cochain_text("group cyclic:2 degree x\n")
    with pytest.raises(KleinformError):
        parse_cochain_text("group cyclic:2 degree 2\n1 1/2\n")
    with pytest.raises(KleinformError):
        parse_cochain_text("group cyclic:2 degree 2\n1 5 1/2\n")
    with pytest.raises(KleinformError):
        parse_cochain_text("group cyclic:2 degree 2\n1 1 x/y\n")


def test_parse_cochain_text_rejects_degree_before_allocating():
    # the value table has n**degree entries: on s3, 6**37 overflows an
    # index, 6**-1 is a float and 6**9 is ten million entries
    for degree in (37, -1, 9):
        tracemalloc.start()
        try:
            with pytest.raises(KleinformError, match="degree must lie in 0..4"):
                parse_cochain_text("group s3 degree %d\n" % degree)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 10**6


def test_parse_cochain_text_caps_table_size():
    # 48**4 = 5,308,416 entries are refused before the table is allocated;
    # 48**3 is the cap itself and still parses
    tracemalloc.start()
    try:
        with pytest.raises(KleinformError, match="exceeds the cap 110592"):
            parse_cochain_text("group cyclic:48 degree 4\n")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 10**6
    c = parse_cochain_text("group cyclic:48 degree 3\n1 47 1 1/48\n")
    assert c(1, 47, 1) == QZ(1, 48) and c(1, 1, 47) == QZ(0)


def test_parse_cochain_text_reads_values_as_qz_does():
    # the parser reads each value as two ints; QZ.from_str is its reference
    rnd = random.Random(43)
    forms = ("-1/3", "1/-3", "4/6", "0/5", "3", "-7", "+2/4", "6/3", "5/12", "-25/-12",
             "%d/%d" % (10**40 + 1, 3 * 10**39))
    for _ in range(20):
        cells = rnd.sample([(a, b) for a in range(6) for b in range(6)], 12)
        values = [rnd.choice(forms) for _ in cells]
        text = "group s3 degree 2\n" + "".join(
            "%d %d %s\n" % (a, b, v) for (a, b), v in zip(cells, values))
        table = [QZ(0)] * 36
        for (a, b), v in zip(cells, values):
            table[a * 6 + b] = QZ.from_str(v)
        assert parse_cochain_text(text) == Cochain(symmetric3(), 2, table)
    for bad in ("3/", "/3", "1/0", "0/0", "x", "1/2/3", "1.5", "1/2.0"):
        with pytest.raises(KleinformError, match="bad value in cochain line"):
            parse_cochain_text("group cyclic:2 degree 1\n1 %s\n" % bad)


def test_table_bit_budget_bounds_cochain_input():
    # nonzero values times the bit length of their common denominator L may
    # reach MAX_TABLE_BITS and not pass it: 2**11 values over a 2**11-bit L
    # are the budget itself, one more is refused
    q = 2**2047 + 1
    count = MAX_TABLE_BITS // q.bit_length()
    assert count == 2048
    z16 = cyclic(16)
    cells = ["%d %d %d" % (a, b, c) for a in range(16) for b in range(16) for c in range(16)]
    lines = ["%s %d/%d" % (cell, i + 1, q) for i, cell in enumerate(cells)]
    c = parse_cochain_text("group cyclic:16 degree 3\n" + "\n".join(lines[:count]))
    assert c.L == q and sum(map(bool, c.ints)) == count
    assert c == Cochain(z16, 3, [QZ(i + 1, q) if i < count else QZ(0) for i in range(4096)])
    with pytest.raises(KleinformError, match="2049 nonzero values over a 2048-bit common "
                                             "denominator exceeds the budget of 4194304 bits"):
        parse_cochain_text("group cyclic:16 degree 3\n" + "\n".join(lines[:count + 1]))
    with pytest.raises(KleinformError, match="exceeds the budget"):
        Cochain(z16, 3, [QZ(i + 1, q) if i <= count else QZ(0) for i in range(4096)])
    # a distinct prime denominator on each entry is refused after a few
    # hundred lines, before any value is scaled to L
    primes = [p for p in range(2, 40000) if all(p % d for d in range(2, int(p**0.5) + 1))]
    text = "group cyclic:16 degree 3\n" + "\n".join(
        "%s 1/%d" % (cell, p) for cell, p in zip(cells, primes))
    tracemalloc.start()
    try:
        with pytest.raises(KleinformError, match="exceeds the budget"):
            parse_cochain_text(text)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * 10**6


def test_cochain_values_meet_the_bit_budget_one_by_one():
    # the budget is checked as each nonzero value is read, so a table whose
    # first 700 values have distinct prime denominators is refused before
    # the float after them is reached
    primes = [p for p in range(2, 6000) if all(p % d for d in range(2, int(p**0.5) + 1))]
    values = [QZ(1, p) for p in primes[:700]] + [0.5] + [QZ(0)] * 28
    assert len(values) == 9**3
    with pytest.raises(KleinformError, match="exceeds the budget"):
        Cochain(cyclic(9), 3, values)


@pytest.mark.parametrize("degree, message", [
    (-1, "cochain degree must lie in 0..4"),
    (5, "cochain degree must lie in 0..4"),
    (1.5, "cochain degree must be an integer, not 1.5"),
])
def test_every_constructor_checks_the_degree_first(degree, message):
    # no value is read, and fn is never called, for a degree outside 0..4
    z2, calls = cyclic(2), []
    builds = (
        lambda: Cochain(z2, degree, (calls.append(i) or QZ(0) for i in range(2))),
        lambda: Cochain.zero(z2, degree),
        lambda: Cochain.from_function(z2, degree, lambda *args: calls.append(args) or QZ(0)),
    )
    for build in builds:
        with pytest.raises(ValidationError, match=message):
            build()
    assert calls == []


@pytest.mark.parametrize("group", ["x", None, 5])
def test_every_constructor_checks_the_group_first(group):
    # before the degree, before any value is read and before fn is called
    calls = []
    builds = (
        lambda degree: Cochain(group, degree, (calls.append(i) or QZ(0) for i in range(2))),
        lambda degree: Cochain.zero(group, degree),
        lambda degree: Cochain.from_function(group, degree,
                                             lambda *args: calls.append(args) or QZ(0)),
    )
    for build in builds:
        for degree in (1, 3, 5):
            with pytest.raises(ValidationError, match="cochain needs a FiniteGroup"):
                build(degree)
    assert calls == []


def test_every_constructor_caps_the_table_size():
    # the parser's cap of MAX_ORDER**3 entries, met before a value is read or
    # fn is called: degree 4 on cyclic(48) is 5,308,416 entries, degree 3 the cap
    z48, calls = cyclic(48), []
    builds = (
        lambda: Cochain(z48, 4, (calls.append(i) or QZ(0) for i in range(48**4))),
        lambda: Cochain.zero(z48, 4),
        lambda: Cochain.from_function(z48, 4, lambda *args: calls.append(args) or QZ(0)),
    )
    for build in builds:
        with pytest.raises(KleinformError,
                           match="cochain table of 5308416 entries exceeds the cap 110592"):
            build()
    assert calls == []
    at_cap = Cochain.zero(z48, 3)
    assert (at_cap.L, len(at_cap.ints)) == (1, 48**3)


def test_cochains_are_kept_over_their_least_L():
    # a level that shares a factor with n reduces, and the reduced table
    # is the one the QZ constructor gives
    for n, level, least in ((4, 2, 2), (6, 4, 3), (4, 4, 1), (5, 2, 5)):
        a = alpha_cyclic(n, level)
        r = range(n)
        assert a.L == least
        assert a == Cochain(cyclic(n), 3, [QZ(level * j, n) if k + l >= n else 0
                                           for j in r for k in r for l in r])
    assert alpha_cyclic(4, 2).ints == tuple(j % 2 if k + l >= 4 else 0
                                            for j in range(4) for k in range(4) for l in range(4))
    zero = differential(alpha_cyclic(4, 1))
    assert (zero.L, zero) == (1, Cochain.zero(cyclic(4), 4))
    # a parsed file is over its least L already: the first 4,096 of its
    # 4,913 entries share the factor 2 with L = 6, and one entry past them
    # does not
    cells = [(a, b, c) for a in range(17) for b in range(17) for c in range(17)]
    text = "group cyclic:17 degree 3\n" + "".join(
        "%d %d %d %s\n" % (cell + ("1/2" if i == 4900 else "1/3",)) for i, cell in enumerate(cells))
    c = parse_cochain_text(text)
    assert c.L == 6 and c.ints == (2,) * 4900 + (3,) + (2,) * 12
    assert c == Cochain(cyclic(17), 3, [QZ(1, 2) if i == 4900 else QZ(1, 3) for i in range(4913)])


def test_round_trip_through_text():
    a = alpha_cyclic(4, 1)
    n = 4
    lines = ["group cyclic:4 degree 3"]
    for flat, v in enumerate(a.values):
        if v:
            i, rem = divmod(flat, n * n)
            j, l = divmod(rem, n)
            lines.append("%d %d %d %s" % (i, j, l, v))
    assert parse_cochain_text("\n".join(lines)) == a


def test_stored_cube_twist_cochain():
    c = load_cochain_file(os.path.join(DATA, "s3_cubetwist.cochain"))
    s3 = symmetric3()
    assert c.group == s3
    assert c.degree == 3
    assert is_closed(c) and is_normalized(c)
    # restricting to the three-cycle subgroup recovers the cyclic level-1 table
    a3 = (0, 3, 4)
    a = alpha_cyclic(3, 1)
    for i in range(3):
        for j in range(3):
            for l in range(3):
                assert c(a3[i], a3[j], a3[l]) == a(i, j, l)


def test_load_cochain_file_missing(tmp_path):
    with pytest.raises(KleinformError):
        load_cochain_file(str(tmp_path / "nope.cochain"))
