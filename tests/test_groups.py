import math
import random
from itertools import product

import pytest

from kleinform.errors import KleinformError, ValidationError
from kleinform.groups import (
    MAX_ORDER,
    FiniteGroup,
    GroupHom,
    all_homs,
    alternating4,
    closure,
    cyclic,
    cyclic_generator,
    dicyclic,
    dihedral,
    direct_product,
    generating_set,
    klein4,
    parse_group_spec,
    parse_group_text,
    symmetric3,
)


def test_cyclic_basics():
    g = cyclic(6)
    assert g.order == 6
    assert g.identity == 0
    assert g.mul(4, 5) == 3
    assert g.inv(2) == 4
    assert g.power(2, 5) == 4
    assert g.power(2, -1) == 4
    assert g.power(5, 0) == 0
    assert g.order_of(0) == 1
    assert g.order_of(2) == 3
    assert g.order_of(1) == 6
    assert g.order_of(3) == 2


def test_trivial_group():
    g = cyclic(1)
    assert g.order == 1
    assert g.mul(0, 0) == 0
    with pytest.raises(KleinformError):
        cyclic(0)


def test_validation_rejects_bad_tables():
    with pytest.raises(ValidationError):
        FiniteGroup([])
    with pytest.raises(ValidationError):
        FiniteGroup([[0, 1], [1]])
    with pytest.raises(ValidationError):
        FiniteGroup([[0, 2], [1, 0]])
    # rows must be permutations
    with pytest.raises(ValidationError):
        FiniteGroup([[0, 0], [1, 1]])
    # index 0 must be the identity
    with pytest.raises(ValidationError):
        FiniteGroup([[1, 0], [0, 1]])
    # a unital associative table whose 1 has no inverse fails as a non-Latin row
    with pytest.raises(ValidationError, match="row 1 is not a permutation"):
        FiniteGroup([[0, 1], [1, 1]])


def test_validation_rejects_nonassociative_loop():
    # smallest nonassociative loop: order 5, identity at 0
    table = [
        [0, 1, 2, 3, 4],
        [1, 0, 3, 4, 2],
        [2, 3, 4, 0, 1],
        [3, 4, 1, 2, 0],
        [4, 2, 0, 1, 3],
    ]
    with pytest.raises(ValidationError) as exc:
        FiniteGroup(table)
    assert "associativity" in str(exc.value)


def test_table_refuses_floats():
    for table, bad in (([[0, 1], [1, 0.0]], "0.0"), ([[0, 1], [1.5, 0]], "1.5")):
        with pytest.raises(ValidationError,
                           match="multiplication table entry must be an integer, not " + bad):
            FiniteGroup(table)


def test_symmetric3_structure():
    s3 = symmetric3()
    assert s3.order == 6
    assert [s3.order_of(x) for x in s3.elements] == [1, 2, 2, 3, 3, 2]
    # the three-cycles are inverse to each other
    assert s3.inv(3) == 4
    assert s3.mul(3, 4) == 0
    # conjugating one transposition by another gives the third
    assert s3.conj(1, 2) == 5
    assert not s3.commutes(1, 2)
    assert s3.commutes(3, 4)
    assert s3.commutator(3, 4) == 0
    assert s3.commutator(1, 3) != 0


def test_klein4_and_products():
    v = klein4()
    assert v.order == 4
    assert all(v.mul(x, x) == 0 for x in v.elements)
    assert v == direct_product(cyclic(2), cyclic(2))
    g = direct_product(cyclic(2), cyclic(3))
    assert g.order == 6
    # (1, 1) has index 1*3 + 1 = 4 and order lcm(2, 3)
    assert g.order_of(4) == 6


def _check_metacyclic(grp, m, shift):
    """grp has order 2m, index 2i + j is a^i b^j with a = 2 (the identity when
    m = 1) and b = 1, and a^m = 1, b^2 = a^shift, b a b^-1 = a^-1."""
    a, b = 2 % (2 * m), 1
    assert grp.order == 2 * m
    for i in range(m):
        for j in range(2):
            assert grp.mul(grp.power(a, i), grp.power(b, j)) == 2 * i + j
    assert grp.power(a, m) == 0
    assert grp.mul(b, b) == grp.power(a, shift)
    assert grp.conj(b, a) == grp.inv(a)


def test_dihedral():
    for n in range(1, 25):
        _check_metacyclic(dihedral(n), n, 0)
    d3 = dihedral(3)
    assert d3.order == 6
    # r at index 2, s at index 1, s r = r^-1 s
    r, s = 2, 1
    assert d3.order_of(r) == 3
    assert d3.order_of(s) == 2
    assert d3.mul(s, r) == d3.mul(d3.inv(r), s)
    assert sorted(d3.order_of(x) for x in d3.elements) == [1, 2, 2, 2, 3, 3]
    with pytest.raises(KleinformError):
        dihedral(0)


def test_dicyclic_is_quaternion_at_two():
    for n in range(1, 13):
        _check_metacyclic(dicyclic(n), 2 * n, n)
    q8 = dicyclic(2)
    assert q8.order == 8
    orders = sorted(q8.order_of(x) for x in q8.elements)
    assert orders == [1, 2, 4, 4, 4, 4, 4, 4]
    # a^2 is the unique central involution, equal to b^2
    a, b = 2, 1
    assert q8.mul(a, a) == q8.mul(b, b)
    assert q8.conj(b, a) == q8.inv(a)


def test_alternating4():
    a4 = alternating4()
    assert a4.order == 12
    orders = sorted(a4.order_of(x) for x in a4.elements)
    assert orders == [1] + [2] * 3 + [3] * 8


def test_closure_and_generators():
    s3 = symmetric3()
    assert closure(s3, [3]) == (0, 3, 4)
    assert closure(s3, [1, 2]) == (0, 1, 2, 3, 4, 5)
    assert closure(s3, []) == (0,)
    gens = generating_set(s3)
    assert closure(s3, gens) == tuple(s3.elements)
    assert generating_set(cyclic(1)) == ()


def test_cyclic_generator():
    s3 = symmetric3()
    assert cyclic_generator(s3, (0, 3, 4)) == 3
    assert cyclic_generator(s3, (0,)) == 0
    assert cyclic_generator(s3, (0, 1, 2, 3, 4, 5)) is None
    v = klein4()
    assert cyclic_generator(v, (0, 1, 2, 3)) is None


def test_hom_validation():
    z4, z2 = cyclic(4), cyclic(2)
    h = GroupHom(z4, z2, [0, 1, 0, 1])
    assert h(3) == 1
    with pytest.raises(ValidationError):
        GroupHom(z4, z2, [0, 1, 1, 0])
    with pytest.raises(ValidationError):
        GroupHom(z4, z2, [0, 1])
    with pytest.raises(ValidationError):
        GroupHom(z4, z2, [0, 5, 0, 5])


def test_hom_refuses_float_images():
    with pytest.raises(ValidationError, match="homomorphism image must be an integer, not 1.0"):
        GroupHom(cyclic(4), cyclic(2), [0, 1.0, 0, 1])


def test_hom_counts_cyclic():
    # the number of homomorphisms Z/n -> Z/m is gcd(n, m)
    for n in range(1, 7):
        for m in range(1, 7):
            homs = all_homs(cyclic(n), cyclic(m))
            assert len(homs) == math.gcd(n, m)
            assert len({h.images for h in homs}) == len(homs)


def test_hom_counts_other():
    assert len(all_homs(klein4(), cyclic(2))) == 4
    assert len(all_homs(symmetric3(), cyclic(2))) == 2
    assert len(all_homs(symmetric3(), cyclic(3))) == 1
    assert len(all_homs(symmetric3(), symmetric3())) == 10
    assert len(all_homs(cyclic(1), symmetric3())) == 1


def _brute_force_homs(source, target):
    """The image lists of every map source -> target that keeps the law on
    the raw tables, in lexicographic order."""
    n = source.order
    return [images for images in product(range(target.order), repeat=n)
            if all(images[source.table[a][b]] == target.table[images[a]][images[b]]
                   for a in range(n) for b in range(n))]


def test_all_homs_match_brute_force():
    small = [cyclic(n) for n in range(1, 7)] + [klein4(), symmetric3()]
    pairs = [(s, t) for s in small if s.order <= 4 for t in small]
    pairs += [(symmetric3(), cyclic(2)), (symmetric3(), cyclic(3))]
    for source, target in pairs:
        homs = all_homs(source, target)
        assert sorted(h.images for h in homs) == _brute_force_homs(source, target)
        gens = generating_set(source)
        keys = [tuple(h(g) for g in gens) for h in homs]
        assert all(x < y for x, y in zip(keys, keys[1:]))


def test_hom_sign_of_s3():
    s3 = symmetric3()
    sign = [h for h in all_homs(s3, cyclic(2)) if any(h.images)]
    assert len(sign) == 1
    assert sign[0].images == (0, 1, 1, 0, 0, 1)


def test_random_tables_validate():
    # conjugating a valid table by a random relabeling keeps it valid
    rnd = random.Random(8)
    base = symmetric3()
    for _ in range(10):
        perm = [0] + rnd.sample(range(1, 6), 5)
        inv = [perm.index(i) for i in range(6)]
        table = [
            [inv[base.mul(perm[i], perm[j])] for j in range(6)]
            for i in range(6)
        ]
        g = FiniteGroup(table)
        assert sorted(g.order_of(x) for x in g.elements) == [1, 2, 2, 2, 3, 3]


def _first_table_error(table):
    """The first message of the per-entry checks, in their order, or None."""
    n = len(table)
    if n == 0:
        return "empty multiplication table"
    for row in table:
        if len(row) != n:
            return "multiplication table is not square"
        for v in row:
            if not (0 <= v < n):
                return "table entry %d outside 0..%d" % (v, n - 1)
    full = frozenset(range(n))
    for i in range(n):
        if frozenset(table[i]) != full:
            return "row %d is not a permutation" % i
        if frozenset(table[j][i] for j in range(n)) != full:
            return "column %d is not a permutation" % i
    for i in range(n):
        if table[0][i] != i or table[i][0] != i:
            return "index 0 does not act as identity"
    for a in range(n):
        for b in range(n):
            for c in range(n):
                if table[table[a][b]][c] != table[a][table[b][c]]:
                    return "associativity fails at (%d, %d, %d)" % (a, b, c)
    return None


def _first_hom_error(source, target, images):
    if len(images) != source.order:
        return "image list has wrong length"
    for v in images:
        if not (0 <= v < target.order):
            return "image %d outside the target group" % v
    for a in source.elements:
        for b in source.elements:
            if images[source.mul(a, b)] != target.mul(images[a], images[b]):
                return "not a homomorphism at the pair (%d, %d)" % (a, b)
    return None


def _message(make):
    try:
        make()
    except ValidationError as exc:
        return str(exc)
    return None


def _intercalates(table):
    """Rows i, j and columns k, l, none the identity, with a 2x2 Latin subsquare."""
    n = len(table)
    return [(i, j, k, l) for i in range(1, n) for j in range(i + 1, n)
            for k in range(1, n) for l in range(k + 1, n)
            if table[i][k] == table[j][l] and table[i][l] == table[j][k]]


def _corrupted_tables(rnd, table):
    n = len(table)
    rows = [list(row) for row in table]
    i, j = rnd.randrange(n), rnd.randrange(n)
    out = []
    # an entry out of range
    bad = [row[:] for row in rows]
    bad[i][j] = rnd.choice((-1, n, n + 3))
    out.append(bad)
    # a row entry repeated (it repeats a column entry as well)
    bad = [row[:] for row in rows]
    bad[i][j] = bad[i][rnd.randrange(n)]
    out.append(bad)
    # a column entry repeated
    bad = [row[:] for row in rows]
    bad[i][j] = bad[rnd.randrange(n)][j]
    out.append(bad)
    # a short row and an extra row
    out.append([row[:] for row in rows[:-1]] + [rows[-1][:-1]])
    out.append([row[:] for row in rows] + [rows[0][:]])
    # the identity moved: the same group relabelled by a permutation that moves 0
    perm = list(range(n))
    rnd.shuffle(perm)
    relabelled = [[0] * n for _ in range(n)]
    for x in range(n):
        for y in range(n):
            relabelled[perm[x]][perm[y]] = perm[rows[x][y]]
    out.append(relabelled)
    # a Latin square whose row 0 alone, or column 0 alone, is the identity's
    shuffled = rows[:1] + rnd.sample(rows[1:], n - 1)
    out.append([row[:] for row in shuffled])
    out.append([list(col) for col in zip(*shuffled)])
    # a Latin square with identity 0, usually not associative: one 2x2
    # Latin subsquare away from the identity row and column, switched
    switches = _intercalates(table)
    if switches:
        i, j, k, l = rnd.choice(switches)
        bad = [row[:] for row in rows]
        bad[i][k], bad[i][l], bad[j][k], bad[j][l] = bad[i][l], bad[i][k], bad[j][l], bad[j][k]
        out.append(bad)
    return out


def test_validation_messages_match_the_per_entry_checks():
    # the row-at-a-time checks raise the message the per-entry checks raise first
    rnd = random.Random(15)
    groups = [cyclic(1), cyclic(2), cyclic(3), klein4(), cyclic(5), symmetric3(),
              dihedral(4), dicyclic(2), direct_product(klein4(), cyclic(2)), alternating4()]
    seen = set()
    for _ in range(8):
        for group in groups:
            for bad in _corrupted_tables(rnd, group.table):
                want = _first_table_error(bad)
                assert _message(lambda: FiniteGroup(bad)) == want
                seen.add(want.split()[0] if want else None)
    assert {"table", "row", "column", "multiplication", "index", "associativity"} <= seen
    loop = [[0, 1, 2, 3, 4], [1, 0, 3, 4, 2], [2, 3, 4, 0, 1], [3, 4, 1, 2, 0], [4, 2, 0, 1, 3]]
    assert _message(lambda: FiniteGroup(loop)) == _first_table_error(loop)
    seen = set()
    for _ in range(4):
        for source in groups:
            for target in groups[:6]:
                homs = all_homs(source, target)
                images = list(rnd.choice(homs).images)
                cases = [images[:-1], images + [0]]
                for _ in range(3):
                    bad = images[:]
                    bad[rnd.randrange(source.order)] = rnd.randrange(-1, target.order + 1)
                    cases.append(bad)
                for bad in cases:
                    want = _first_hom_error(source, target, bad)
                    assert _message(lambda: GroupHom(source, target, bad)) == want
                    seen.add(want.split()[0] if want else None)
    assert {"image", "not", None} <= seen


def test_parse_group_text_round_trip():
    g = cyclic(4)
    text = "order 4\n" + "\n".join(" ".join(str(v) for v in row) for row in g.table)
    assert parse_group_text(text) == g
    commented = "# comment\norder 2\n0 1\n1 0\n"
    assert parse_group_text(commented) == cyclic(2)


def test_parse_group_text_errors():
    with pytest.raises(KleinformError):
        parse_group_text("")
    with pytest.raises(KleinformError):
        parse_group_text("0 1\n1 0")
    with pytest.raises(KleinformError):
        parse_group_text("order x\n")
    with pytest.raises(KleinformError):
        parse_group_text("order 2\n0 1")
    with pytest.raises(KleinformError):
        parse_group_text("order 2\n0 1\n1 zero")


def test_parse_group_spec(tmp_path):
    assert parse_group_spec("cyclic:5") == cyclic(5)
    assert parse_group_spec("klein4") == klein4()
    assert parse_group_spec("s3") == symmetric3()
    path = tmp_path / "z3.group"
    path.write_text("order 3\n0 1 2\n1 2 0\n2 0 1\n")
    assert parse_group_spec("file:%s" % path) == cyclic(3)
    with pytest.raises(KleinformError):
        parse_group_spec("cyclic:x")
    with pytest.raises(KleinformError):
        parse_group_spec("sporadic")


def test_group_order_cap():
    # textual specs and files stop at MAX_ORDER; library constructors do not
    assert parse_group_spec("cyclic:%d" % MAX_ORDER) == cyclic(MAX_ORDER)
    with pytest.raises(KleinformError, match="exceeds the cap"):
        parse_group_spec("cyclic:%d" % (MAX_ORDER + 1))
    with pytest.raises(KleinformError, match="exceeds the cap"):
        parse_group_text("order %d\n0\n" % (MAX_ORDER + 1))
    assert cyclic(MAX_ORDER + 1).order == MAX_ORDER + 1
