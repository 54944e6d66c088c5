import os
import random
from itertools import product

import pytest

from kleinform.cochains import (
    Cochain,
    alpha_cyclic,
    differential,
    is_closed,
    is_normalized,
    load_cochain_file,
    pullback_cochain,
)
from kleinform.errors import KleinformError, ValidationError
from kleinform.groups import (FiniteGroup, GroupHom, all_homs, cyclic, dicyclic, dihedral,
                              direct_product, klein4, symmetric3)
from kleinform.intmat import xgcd
from kleinform.lifts import E1, E2, conjugate_lift, has_cyclic_image, lift_gamma
from kleinform.moduli import (
    SL2Z,
    TorusRep,
    dehn_character,
    enumerate_bundles,
    holonomy_cocycle_R,
    in_gamma1,
    klein_character,
    orbit_stabilizer,
    r_diff,
    sections_dimension,
    sl2z_act,
)
from kleinform.qz import QZ


def random_gamma1(rnd, n, bound=50):
    """A pseudo-random element of Gamma1(n) with entries bounded in size."""
    while True:
        a = 1 + n * rnd.randrange(-(bound - 1) // n, (bound - 1) // n + 1)
        b = n * rnd.randrange(-(bound // n), bound // n + 1)
        g, x, y = xgcd(a, b)
        if g != 1:
            continue
        # a*x + b*y = 1, so [[a, b], [-y, x]] has determinant 1
        if abs(x) <= bound and abs(y) <= bound:
            return SL2Z(a, b, -y, x)


def test_sl2z_basics():
    m = SL2Z(1, 2, 0, 1)
    assert m.entries() == (1, 2, 0, 1)
    assert SL2Z.identity().entries() == (1, 0, 0, 1)
    s, t = SL2Z.S(), SL2Z.T()
    assert (s @ s).entries() == (-1, 0, 0, -1)
    assert (s @ s @ s @ s) == SL2Z.identity()
    assert (t ** 5).entries() == (1, 5, 0, 1)
    assert (t ** -2).entries() == (1, -2, 0, 1)
    assert m.inverse() @ m == SL2Z.identity()
    with pytest.raises(ValidationError):
        SL2Z(2, 0, 0, 1)


def test_in_gamma1():
    assert in_gamma1(SL2Z(1, 3, 0, 1), 3)
    assert not in_gamma1(SL2Z(1, 1, 0, 1), 2)
    assert in_gamma1(SL2Z(0, -1, 1, 0), 1)
    assert in_gamma1(SL2Z(3, 2, 4, 3), 2)
    with pytest.raises(KleinformError):
        in_gamma1(SL2Z.identity(), 0)


def test_in_gamma1_refuses_a_float_level():
    with pytest.raises(ValidationError, match="Gamma1 level must be an integer, not 2.5"):
        in_gamma1(SL2Z.T(), 2.5)


def test_torus_rep_refuses_float_images():
    z3 = cyclic(3)
    for g, h in ((1.9, 0.5), (1, 0.0)):
        with pytest.raises(ValidationError, match="rep image must be an integer"):
            TorusRep(z3, g, h)


def test_sl2z_refuses_float_entries():
    for entries in ((1.7, 0, 0, 1.2), (1, 3.5, 0, 1), (1, 0, 0, 1.0)):
        with pytest.raises(ValidationError, match="matrix entry must be an integer"):
            SL2Z(*entries)


@pytest.mark.parametrize("build, message", [
    (lambda: SL2Z.T() ** 2.0, "exponent must be an integer, not 2.0"),
    (lambda: cyclic(3.0), "cyclic group order must be an integer, not 3.0"),
    (lambda: dihedral(2.5), "dihedral group n must be an integer, not 2.5"),
    (lambda: dicyclic(2.0), "dicyclic group n must be an integer, not 2.0"),
    (lambda: alpha_cyclic(3.0, 1), "cyclic group order must be an integer, not 3.0"),
    (lambda: alpha_cyclic(3, 1.0), "level must be an integer, not 1.0"),
    (lambda: Cochain.zero(cyclic(3), 3.0), "cochain degree must be an integer, not 3.0"),
    (lambda: Cochain(cyclic(2), 1.0, (0, 0)), "cochain degree must be an integer, not 1.0"),
    (lambda: Cochain.from_function(cyclic(2), 1.0, lambda a: 0),
     "cochain degree must be an integer, not 1.0"),
    (lambda: klein_character(0.5, 1, SL2Z.identity()), "Gamma1 level must be an integer, not 0.5"),
    (lambda: klein_character(2, 1.0, SL2Z.identity()), "level must be an integer, not 1.0"),
    (lambda: TorusRep(cyclic(3), 1.9, 0.5), "rep image must be an integer, not 1.9"),
    (lambda: TorusRep(cyclic(3), 1, 0.0), "rep image must be an integer, not 0.0"),
    (lambda: SL2Z(1.7, 0, 0, 1.2), "matrix entry must be an integer, not 1.7"),
    (lambda: SL2Z(1, 0, 0, 1.0), "matrix entry must be an integer, not 1.0"),
    # a bool is not an int either, though Python counts it as one
    (lambda: SL2Z.T() ** True, "exponent must be an integer, not True"),
    (lambda: cyclic(True), "cyclic group order must be an integer, not True"),
    (lambda: dihedral(True), "dihedral group n must be an integer, not True"),
    (lambda: dicyclic(True), "dicyclic group n must be an integer, not True"),
    (lambda: alpha_cyclic(True, 1), "cyclic group order must be an integer, not True"),
    (lambda: alpha_cyclic(3, False), "level must be an integer, not False"),
    (lambda: Cochain.zero(cyclic(3), True), "cochain degree must be an integer, not True"),
    (lambda: Cochain(cyclic(2), True, (0, 0)), "cochain degree must be an integer, not True"),
    (lambda: klein_character(True, 1, SL2Z.identity()),
     "Gamma1 level must be an integer, not True"),
    (lambda: klein_character(2, False, SL2Z.identity()), "level must be an integer, not False"),
    (lambda: in_gamma1(SL2Z.identity(), True), "Gamma1 level must be an integer, not True"),
    (lambda: TorusRep(cyclic(3), True, 0), "rep image must be an integer, not True"),
    (lambda: TorusRep(cyclic(3), 1, False), "rep image must be an integer, not False"),
    (lambda: SL2Z(True, 0, 0, 1), "matrix entry must be an integer, not True"),
    (lambda: SL2Z(1, False, 0, 1), "matrix entry must be an integer, not False"),
    (lambda: enumerate_bundles(cyclic(2), True), "genus must be an integer, not True"),
    (lambda: dehn_character(cyclic(3), True, alpha_cyclic(3, 1)),
     "element must be an integer, not True"),
    (lambda: holonomy_cocycle_R(TorusRep(cyclic(3), 1, 0), alpha_cyclic(3, 1), True),
     "conjugating element must be an integer, not True"),
    (lambda: conjugate_lift(lift_gamma(TorusRep(cyclic(3), 1, 0), alpha_cyclic(3, 1)), False),
     "conjugating element must be an integer, not False"),
    (lambda: lift_gamma(TorusRep(cyclic(3), 1, 0), alpha_cyclic(3, 1), window=True),
     "lift window must be an integer, not True"),
    (lambda: lift_gamma(TorusRep(cyclic(3), 1, 0), alpha_cyclic(3, 1)).evaluate((True, 0), E2),
     "plane point must be an integer, not True"),
    (lambda: FiniteGroup([[False]]), "multiplication table entry must be an integer, not False"),
    (lambda: GroupHom(cyclic(2), cyclic(2), (0, True)),
     "homomorphism image must be an integer, not True"),
])
def test_constructors_refuse_floats(build, message):
    # a float below 1 is refused as a float, not as an order or level below 1
    with pytest.raises(ValidationError, match=message):
        build()


def test_orbit_stabilizer_validation():
    s3 = symmetric3()
    orbit, stab = orbit_stabilizer(s3, (3, 4))
    assert orbit == [(3, 4), (4, 3)] and stab == (0, 3, 4)
    cases = (((1, 3), "commutator product is not the identity"),
             ((), "genus must be at least 1"),
             ((1, 2, 3), "even number of images, got 3"),
             ((1, 9), "image 9 outside the group"),
             ((1, 3, 0, 0), "commutator product is not the identity"),
             ((3, 4.0), "image must be an integer, not 4.0"),
             ((1.5, 0), "image must be an integer, not 1.5"),
             ((True, 0), "image must be an integer, not True"))
    for images, message in cases:
        with pytest.raises(ValidationError, match=message):
            orbit_stabilizer(s3, images)
    # genus 2 allows non-commuting pairs when the commutators cancel
    orbit, stab = orbit_stabilizer(s3, (1, 3, 3, 1))
    assert (1, 3, 3, 1) in orbit and len(orbit) * len(stab) == 6


def test_enumerate_counts():
    assert len(list(enumerate_bundles(cyclic(2), 1))) == 4
    assert len(list(enumerate_bundles(symmetric3(), 1))) == 18
    assert len(list(enumerate_bundles(symmetric3(), 2))) == 486
    with pytest.raises(KleinformError):
        enumerate_bundles(cyclic(2), 0)
    with pytest.raises(KleinformError):
        enumerate_bundles(dihedral(29), 2)


def test_enumerate_bundles_refuses_a_float_genus():
    with pytest.raises(ValidationError, match="genus must be an integer, not 1.5"):
        enumerate_bundles(cyclic(2), 1.5)


def test_enumerate_order():
    images = list(enumerate_bundles(klein4(), 1))
    assert images == sorted(images)
    assert len(images) == 16


def test_orbit_stabilizer_examples():
    z2 = cyclic(2)
    orbit, stab = orbit_stabilizer(z2, (1, 0))
    assert orbit == [(1, 0)]
    assert stab == (0, 1)

    s3 = symmetric3()
    orbit, stab = orbit_stabilizer(s3, (1, 0))
    assert orbit == [(1, 0), (2, 0), (5, 0)]
    assert stab == (0, 1)

    orbit, stab = orbit_stabilizer(s3, (0, 0))
    assert len(orbit) == 1
    assert stab == (0, 1, 2, 3, 4, 5)


def test_orbit_stabilizer_product():
    for group in (cyclic(2), klein4(), symmetric3()):
        for images in enumerate_bundles(group, 1):
            orbit, stab = orbit_stabilizer(group, images)
            assert len(orbit) * len(stab) == group.order


def test_sl2z_act():
    s3 = symmetric3()
    rep = TorusRep(s3, 3, 4)
    moved = sl2z_act(rep, SL2Z.S())
    assert (moved.g, moved.h) == (4, 4)

    z3 = cyclic(3)
    rep = TorusRep(z3, 1, 0)
    moved = sl2z_act(rep, SL2Z.T())
    assert (moved.g, moved.h) == (1, 1)

    z2 = cyclic(2)
    rep = TorusRep(z2, 1, 0)
    assert sl2z_act(rep, SL2Z.T() ** 2) == rep


def test_r_diff_examples():
    assert r_diff(
        TorusRep(cyclic(2), 1, 0), alpha_cyclic(2, 1), SL2Z(1, 2, 0, 1)
    ) == QZ(1, 2)
    assert r_diff(
        TorusRep(cyclic(3), 1, 0), alpha_cyclic(3, 1), SL2Z(4, 3, 1, 1)
    ) == QZ(1, 3)
    assert r_diff(
        TorusRep(cyclic(3), 1, 0), alpha_cyclic(3, 1), SL2Z.identity()
    ) == QZ(0)


def _asymmetry(lift, m):
    # the direct route: the lift's asymmetry at (M e2, M e1)
    p1, p2 = (m.b, m.d), (m.a, m.c)
    return lift.evaluate(p1, p2) - lift.evaluate(p2, p1)


def test_r_diff_matches_window_three_lift():
    v4 = klein4()
    h = GroupHom(v4, cyclic(2), [0, 1, 0, 1])
    alpha = pullback_cochain(alpha_cyclic(2, 1), h)
    rep = TorusRep(v4, 1, 2)
    wide = SL2Z(1, 2, 0, 1)
    direct = lift_gamma(rep, alpha, window=3)
    assert r_diff(rep, alpha, wide) == _asymmetry(direct, wide)
    # the default window-2 lift has the same asymmetry on its whole box
    narrow = lift_gamma(rep, alpha)
    box = list(product(range(-2, 3), repeat=2))
    for p1 in box:
        for p2 in box:
            assert (narrow.evaluate(p1, p2) - narrow.evaluate(p2, p1)
                    == direct.evaluate(p1, p2) - direct.evaluate(p2, p1))


def test_r_diff_composition_law():
    # r_diff is a 1-cocycle of the SL2(Z) action on reps that vanishes at I.
    # The second case is every commuting pair of Z/2 at level 1 against
    # every S/T word of length at most 4: there the holonomy vanishes too,
    # so these laws make r_diff a cocycle on the SL2(Z) quotient of the
    # conjugation groupoid of pairs
    rnd = random.Random(16)
    z2 = cyclic(2)
    s, t = SL2Z.S(), SL2Z.T()
    words = {}
    for k in range(5):
        for letters in product((s, t), repeat=k):
            m = SL2Z.identity()
            for letter in letters:
                m = m @ letter
            words.setdefault(m.entries(), m)
    z2_pairs = [TorusRep(z2, g, h) for g in z2.elements for h in z2.elements]
    cases = (
        (alpha_cyclic(4, 1), [TorusRep(cyclic(4), 1, 0)],
         [random_gamma1(rnd, 1, bound=9) for _ in range(6)]),
        (alpha_cyclic(2, 1), z2_pairs, list(words.values())),
    )
    for alpha, reps, mats in cases:
        for rep in reps:
            assert r_diff(rep, alpha, SL2Z.identity()) == QZ(0)
            for a1 in mats:
                for a2 in mats:
                    lhs = r_diff(rep, alpha, a1 @ a2)
                    rhs = r_diff(rep, alpha, a1) + r_diff(sl2z_act(rep, a1), alpha, a2)
                    assert lhs == rhs
    for rep in z2_pairs:
        for z in z2.elements:
            assert holonomy_cocycle_R(rep, alpha_cyclic(2, 1), z) == QZ(0)


def test_r_diff_splits_t_powers():
    # r(rho, T^(q1+q2)) = r(rho, T^q1) + r(rho.T^q1, T^q2) for q1, q2 within
    # 2k + 1 of 0, k = ord(g), on every commuting pair (the identity g, with
    # k = 1, among them): both signs of q, every remainder mod k and whole
    # periods meet in one T block.  And -T^b splits into its letters S, S, T^b
    path = os.path.join(os.path.dirname(__file__), "data", "s3_cubetwist.cochain")
    d4 = dihedral(4)
    hom = next(hom for hom in all_homs(d4, cyclic(2)) if any(hom.images))
    levels = [load_cochain_file(path), _cup_alpha_v8()[1],
              pullback_cochain(alpha_cyclic(2, 1), hom)]
    s, t = SL2Z.S(), SL2Z.T()
    for alpha in levels:
        grp, nonzero = alpha.group, 0
        for g, h in enumerate_bundles(grp, 1):
            rep, k = TorusRep(grp, g, h), grp.order_of(g)
            span = range(-2 * k - 1, 2 * k + 2)
            powers = {q: t**q for q in range(-4 * k - 2, 4 * k + 3)}
            for q1 in span:
                first, moved = r_diff(rep, alpha, powers[q1]), sl2z_act(rep, powers[q1])
                nonzero += bool(first)
                for q2 in span:
                    assert (r_diff(rep, alpha, powers[q1 + q2])
                            == first + r_diff(moved, alpha, powers[q2])), (rep, q1, q2)
            s_moved = sl2z_act(rep, s)
            letters = r_diff(rep, alpha, s) + r_diff(s_moved, alpha, s)
            for b in span:
                minus = SL2Z(-1, -b, 0, -1)
                assert minus == s @ s @ powers[b]
                assert r_diff(rep, alpha, minus) == letters + r_diff(
                    sl2z_act(s_moved, s), alpha, powers[b]), (rep, b)
        assert nonzero > 0


class _CountedTable(tuple):
    """A cochain's integer table that counts the entries read from it."""

    def __getitem__(self, i):
        self.reads += 1
        return tuple.__getitem__(self, i)


def test_r_diff_t_block_reads_at_most_k_letters():
    # a T^q block reads at most k = ord(g) letters of alpha: the q letters
    # from h for 0 <= q < k, and one whole cycle for every other q
    d4 = dihedral(4)
    hom = next(hom for hom in all_homs(d4, cyclic(2)) if any(hom.images))
    for base, k in ((alpha_cyclic(12, 5), 12), (pullback_cochain(alpha_cyclic(2, 1), hom), 4)):
        grp = base.group
        g = next(x for x in grp.elements if grp.order_of(x) == k)
        alpha = Cochain._from_ints(grp, 3, base.L, base.ints)
        assert is_closed(alpha) and is_normalized(alpha)
        # _from_ints keeps a plain tuple, so the counted one goes in once the flags are kept
        alpha.ints = tab = _CountedTable(alpha.ints)
        for h in (h for h in grp.elements if grp.mul(g, h) == grp.mul(h, g)):
            rep = TorusRep(grp, g, h)
            for q in range(-2 * k, 2 * k + 1):
                tab.reads = 0
                value = r_diff(rep, alpha, SL2Z(1, q, 0, 1))
                assert tab.reads == (q if 0 <= q < k else k), (rep, q)
                assert value == r_diff(rep, base, SL2Z(1, q, 0, 1))


def test_r_diff_checks_alpha_on_every_call():
    # a good alpha on an equal group object is accepted, and a bad one is
    # refused with its own message on the first call and again after a
    # good call, its flags kept or not
    z5, s = cyclic(5), SL2Z.S()
    alpha, rep = alpha_cyclic(5, 2), TorusRep(z5, 1, 2)
    assert alpha.group is not z5 and alpha.group == z5
    good = r_diff(rep, alpha, s)
    assert good == r_diff(TorusRep(alpha.group, 1, 2), alpha, s)
    # a closed 3-cochain that is not normalized: d of beta(a, b) = a/5
    unnormalized = differential(Cochain(z5, 2, [QZ(a, 5) for a in range(5) for b in range(5)]))
    unclosed = Cochain(z5, 3, [QZ(1, 5) if i == 31 else 0 for i in range(125)])
    degree_two, elsewhere = Cochain.zero(z5, 2), alpha_cyclic(4, 1)
    for kept in (degree_two, elsewhere):
        assert is_closed(kept) and is_normalized(kept)
    assert is_closed(unnormalized) and not is_normalized(unnormalized)
    assert not is_closed(unclosed) and is_normalized(unclosed)
    bad = [(None, "expected a degree-3 cochain"), (degree_two, "expected a degree-3 cochain"),
           (elsewhere, "cochain lives on a different group"),
           (unnormalized, "expected a closed normalized 3-cochain"),
           (unclosed, "expected a closed normalized 3-cochain")]
    for wrong, message in bad:
        for _ in range(2):
            with pytest.raises(KleinformError, match=message):
                r_diff(rep, wrong, s)
            assert r_diff(rep, alpha, s) == good


def test_st_route_matches_direct_lift():
    # a cocycle not pulled back from a cyclic group, on a non-cyclic rep
    v8, cup = _cup_alpha_v8()
    rep = TorusRep(v8, 6, 1)
    assert not has_cyclic_image(rep)
    direct = lift_gamma(rep, cup, window=3)
    mats = [
        SL2Z(*e)
        for e in product(range(-2, 3), repeat=4)
        if e[0] * e[3] - e[1] * e[2] == 1 and max(map(abs, e)) == 2
    ]
    assert len(mats) == 32
    values = [r_diff(rep, cup, m) for m in mats]
    assert values == [_asymmetry(direct, m) for m in mats]
    assert any(values)


def test_letter_values_match_lift_asymmetry():
    # r_diff reads I, -I, S, S^-1, T and T^-1 from alpha alone; compare with
    # the default lift's asymmetry: window-2 solves on the (Z/2)^3 reps,
    # closed lifts on every commuting pair of S3
    s, t = SL2Z.S(), SL2Z.T()
    letters = (SL2Z.identity(), s @ s, s, s.inverse(), t, t.inverse())
    v8, cup = _cup_alpha_v8()
    s3 = symmetric3()
    path = os.path.join(os.path.dirname(__file__), "data", "s3_cubetwist.cochain")
    cases = (
        (v8, cup, [(6, 1), (4, 2), (2, 1), (4, 1)]),
        (s3, load_cochain_file(path), list(enumerate_bundles(s3, 1))),
    )
    for group, alpha, pairs in cases:
        values = []
        for g, h in pairs:
            rep = TorusRep(group, g, h)
            lift = lift_gamma(rep, alpha)
            for m in letters:
                values.append(r_diff(rep, alpha, m))
                assert values[-1] == _asymmetry(lift, m)
        assert any(values)


def test_st_route_matches_cyclic_quotient():
    # under chi*alpha the value only sees the rep through chi, and the
    # quotient rep has a cyclic image, so its value comes from the closed lift
    rnd = random.Random(19)
    nonzero = False
    for group, g, h in ((klein4(), 1, 2), (dihedral(4), 1, 4)):
        rep = TorusRep(group, g, h)
        assert not has_cyclic_image(rep)
        chi = next(x for x in all_homs(group, cyclic(2)) if (x(g), x(h)) == (1, 0))
        alpha = pullback_cochain(alpha_cyclic(2, 1), chi)
        quotient = TorusRep(cyclic(2), 1, 0)
        mats = [random_gamma1(rnd, 1, bound=10**3) for _ in range(12)]
        mats.append(random_gamma1(rnd, 1, bound=10**9))
        closed = lift_gamma(quotient, alpha_cyclic(2, 1))
        for m in mats:
            value = r_diff(rep, alpha, m)
            assert value == _asymmetry(closed, m)
            nonzero = nonzero or bool(value)
    assert nonzero


def test_dehn_character_examples():
    assert dehn_character(cyclic(2), 1, alpha_cyclic(2, 1)) == QZ(1, 2)
    assert dehn_character(cyclic(3), 1, alpha_cyclic(3, 1)) == QZ(1, 3)
    assert dehn_character(cyclic(3), 0, alpha_cyclic(3, 1)) == QZ(0)
    with pytest.raises(KleinformError):
        dehn_character(cyclic(3), 5, alpha_cyclic(3, 1))


def test_dehn_character_refuses_a_float_element():
    with pytest.raises(ValidationError, match="element must be an integer, not 1.5"):
        dehn_character(cyclic(3), 1.5, alpha_cyclic(3, 1))


def test_dehn_matches_r_diff_quick():
    # both against the T^ord block summed here, apart from r_diff's walk
    for n, level in ((2, 1), (3, 1), (4, 3), (6, 5)):
        group = cyclic(n)
        alpha = alpha_cyclic(n, level)
        for g in group.elements:
            order = group.order_of(g)
            twist = SL2Z.T() ** order
            block = sum(alpha(g, group.power(g, j), g) for j in range(order))
            assert dehn_character(group, g, alpha) == block
            assert r_diff(TorusRep(group, g, 0), alpha, twist) == block


def test_klein_character_examples():
    assert klein_character(2, 1, SL2Z(1, 2, 2, 5)) == QZ(1, 2)
    assert klein_character(3, 2, SL2Z(1, 3, 0, 1)) == QZ(2, 3)
    rnd = random.Random(17)
    for _ in range(10):
        a = random_gamma1(rnd, 5)
        assert klein_character(5, 5, a) == QZ(a.b, 5)
    with pytest.raises(KleinformError) as exc:
        klein_character(2, 1, SL2Z(1, 1, 0, 1))
    assert "Gamma1(2)" in str(exc.value)
    with pytest.raises(KleinformError):
        klein_character(0, 1, SL2Z.identity())


def test_klein_matches_r_diff_sampled():
    rnd = random.Random(18)
    for n in (2, 3, 4):
        rep = TorusRep(cyclic(n), 1, 0)
        alpha = alpha_cyclic(n, 1)
        for _ in range(5):
            a = random_gamma1(rnd, n, bound=20)
            assert r_diff(rep, alpha, a) == klein_character(n, 1, a)


def test_holonomy_trivial_cases():
    alpha = alpha_cyclic(3, 1)
    rep = TorusRep(cyclic(3), 1, 0)
    for z in range(3):
        assert holonomy_cocycle_R(rep, alpha, z) == QZ(0)
    diag = TorusRep(cyclic(2), 1, 1)
    assert holonomy_cocycle_R(diag, alpha_cyclic(2, 1), 1) == QZ(0)
    with pytest.raises(KleinformError):
        holonomy_cocycle_R(rep, alpha, 3)


def test_holonomy_refuses_a_float_element():
    rep = TorusRep(cyclic(3), 1, 0)
    with pytest.raises(ValidationError, match="conjugating element must be an integer"):
        holonomy_cocycle_R(rep, alpha_cyclic(3, 1), 1.0)


def _coboundary_alpha_s3():
    # the coboundary of the single-point 2-cochain supported at (3, 4)
    s3 = symmetric3()
    eta = Cochain.from_function(
        s3, 2, lambda a, b: QZ(1, 4) if (a, b) == (3, 4) else QZ(0)
    )
    return s3, differential(eta)


def _holonomy_oracle(group, alpha, g, h, z):
    # the asymmetry of the conjugation correction, from alpha alone
    cg = group.conj(z, g)
    ch = group.conj(z, h)
    return (
        (alpha(z, g, h) - alpha(z, h, g))
        + (alpha(cg, ch, z) - alpha(ch, cg, z))
        - (alpha(cg, z, h) - alpha(ch, z, g))
    )


def test_holonomy_nonzero_on_coboundary():
    s3, alpha = _coboundary_alpha_s3()
    rep = TorusRep(s3, 3, 4)
    values = {z: holonomy_cocycle_R(rep, alpha, z) for z in s3.elements}
    assert values == {
        0: QZ(0),
        1: QZ(1, 2),
        2: QZ(1, 2),
        3: QZ(0),
        4: QZ(0),
        5: QZ(1, 2),
    }


def _holonomy_by_lift(lift, z):
    # the reference route: asymmetry of the conjugated normalized lift
    moved = conjugate_lift(lift, z)
    return moved.evaluate(E1, E2) - moved.evaluate(E2, E1)


def _cup_alpha_v8():
    # the product cocycle x1*y2*z3/2 on (Z/2)^3
    v8 = direct_product(direct_product(cyclic(2), cyclic(2)), cyclic(2))

    def coords(i):
        return ((i >> 2) & 1, (i >> 1) & 1, i & 1)

    return v8, Cochain.from_function(
        v8, 3, lambda a, b, c: QZ(coords(a)[0] * coords(b)[1] * coords(c)[2], 2)
    )


def _holonomy_values(group, alpha, pairs):
    """holonomy_cocycle_R at every z for each pair, checked against both
    the alpha oracle and the lift route."""
    values = {}
    for g, h in pairs:
        rep = TorusRep(group, g, h)
        lift = lift_gamma(rep, alpha)
        for z in group.elements:
            value = holonomy_cocycle_R(rep, alpha, z)
            assert value == _holonomy_oracle(group, alpha, g, h, z)
            assert value == _holonomy_by_lift(lift, z)
            values[(g, h, z)] = value
    return values


def test_holonomy_matches_oracle_everywhere():
    s3, alpha = _coboundary_alpha_s3()
    pairs = list(enumerate_bundles(s3, 1))
    values = _holonomy_values(s3, alpha, pairs)
    assert values[(3, 4, 1)] == QZ(1, 2)

    # a nonabelian group with values of order 3, also for z outside the
    # stabilizer (0, 3, 4) of the rep (3, 4)
    path = os.path.join(os.path.dirname(__file__), "data", "s3_cubetwist.cochain")
    values = _holonomy_values(s3, load_cochain_file(path), pairs)
    for z in (1, 2, 5):
        assert values[(3, 4, z)] == QZ(1, 3)

    z4 = cyclic(4)
    pairs = list(enumerate_bundles(z4, 1))
    _holonomy_values(z4, alpha_cyclic(4, 1), pairs)

    # reps with a non-cyclic image, whose reference lifts are window solves
    v8, cup = _cup_alpha_v8()
    pairs = [(4, 2), (2, 1), (4, 1), (6, 1)]
    for g, h in pairs:
        assert not has_cyclic_image(TorusRep(v8, g, h))
    values = _holonomy_values(v8, cup, pairs)
    assert QZ(1, 2) in values.values()


def test_holonomy_one_cocycle_law():
    s3, alpha = _coboundary_alpha_s3()
    cube = load_cochain_file(
        os.path.join(os.path.dirname(__file__), "data", "s3_cubetwist.cochain"))
    v8, cup = _cup_alpha_v8()
    s3_pairs = list(enumerate_bundles(s3, 1))
    # the coboundary level, then two levels that are not coboundaries
    for group, level, pairs in (
        (s3, alpha, ((3, 4), (1, 0), (1, 1))),
        (s3, cube, s3_pairs),
        (v8, cup, list(enumerate_bundles(v8, 1))),
    ):
        for images in pairs:
            rep = TorusRep(group, images[0], images[1])
            for z1 in group.elements:
                for z2 in group.elements:
                    moved = TorusRep(group, group.conj(z2, rep.g), group.conj(z2, rep.h))
                    lhs = holonomy_cocycle_R(rep, level, group.mul(z1, z2))
                    rhs = holonomy_cocycle_R(rep, level, z2) + holonomy_cocycle_R(
                        moved, level, z1
                    )
                    assert lhs == rhs


def test_sections_dimension_literals():
    assert sections_dimension(cyclic(2), Cochain.zero(cyclic(2), 3)) == 4
    assert sections_dimension(cyclic(2), alpha_cyclic(2, 1)) == 4
    assert sections_dimension(cyclic(3), alpha_cyclic(3, 1)) == 9


def test_sections_dimension_on_coboundary():
    # a coboundary has nonzero holonomy off the stabilizers (previous tests)
    # but its stabilizer characters all vanish, so every orbit still counts
    s3, alpha = _coboundary_alpha_s3()
    dim = sections_dimension(s3, alpha)
    orbits = 0
    seen = set()
    for images in enumerate_bundles(s3, 1):
        if images in seen:
            continue
        orbit, _ = orbit_stabilizer(s3, images)
        seen.update(orbit)
        orbits += 1
    assert orbits == 8
    assert dim == 8


def test_rdiff_rejects_bad_alpha():
    rep = TorusRep(cyclic(3), 1, 0)
    with pytest.raises(KleinformError):
        r_diff(rep, alpha_cyclic(4, 1), SL2Z.identity())
    with pytest.raises(KleinformError):
        r_diff(rep, Cochain.zero(cyclic(3), 2), SL2Z.identity())
