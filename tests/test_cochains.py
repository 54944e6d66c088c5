import os
import random
import sys
import tracemalloc

import pytest

from kleinform.cochains import (
    Cochain,
    alpha_cyclic,
    coboundary_solve,
    differential,
    is_closed,
    is_normalized,
    load_cochain_file,
    parse_cochain_text,
    pullback_cochain,
    validate_cochain,
)
from kleinform.errors import KleinformError, ValidationError
from kleinform.groups import GroupHom, cyclic, dicyclic, direct_product, klein4, symmetric3
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
    # flat indices; is_closed stops early, the oracles read every entry
    rnd = random.Random(23)
    cube = load_cochain_file(os.path.join(DATA, "s3_cubetwist.cochain"))
    closed = []
    for group, alpha in ((cube.group, cube), _cup_alpha_v8()):
        assert is_closed(alpha)
        size = len(alpha.values)
        for flat in [0, size - 1] + [rnd.randrange(size) for _ in range(6)]:
            values = list(alpha.values)
            values[flat] += QZ(rnd.randrange(1, 6), 6)
            bumped = Cochain(group, 3, values)
            by_hand = all(
                not _differential_three_by_hand(bumped, a, b, cc, d)
                for a in group.elements for b in group.elements
                for cc in group.elements for d in group.elements)
            assert is_closed(bumped) == by_hand == all(
                not v for v in differential(bumped).values)
            closed.append(by_hand)
    assert not all(closed)


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
