"""End-to-end checks, one test per advertised guarantee.

Every expected value here is recomputed by an independent in-test oracle
(raw multiplication-table loops, closed formulas, hand counts) rather than
by trusting the code under test.  All equalities are exact.
"""

import random
import time
from fractions import Fraction
from math import lcm

import pytest

from kleinform.cochains import (
    Cochain,
    alpha_cyclic,
    coboundary_solve,
    _unflatten,
    differential,
    is_closed,
    is_normalized,
    pullback_cochain,
    validate_cochain,
)
from kleinform.errors import CertificateError
from kleinform.groups import (
    all_homs,
    alternating4,
    cyclic,
    dicyclic,
    dihedral,
    direct_product,
    klein4,
    symmetric3,
)
from kleinform.groupoid_lines import (
    FiniteGroupoidPresentation,
    GammaAction,
    GroupoidCocycle,
    cocycle_from_section,
    equivariant_assemble,
    group_action_groupoid,
    sections_dim_groupoid,
    shift_cocycle,
    sl2z_word_fragment,
    validate_groupoid_cocycle,
)
from kleinform.intmat import xgcd
from kleinform.lifts import GammaLift, TorusRep, lift_gamma, sigma_diff
from kleinform.moduli import (
    SL2Z,
    dehn_character,
    enumerate_bundles,
    holonomy_cocycle_R,
    klein_character,
    orbit_stabilizer,
    r_diff,
    sections_dimension,
    sl2z_act,
    torus_orbits,
)
from kleinform.qz import QZ


def random_gamma1(rnd, n, bound=50):
    """A pseudo-random member of Gamma1(n) with entries bounded by `bound`."""
    while True:
        a = 1 + n * rnd.randrange(-(bound - 1) // n, (bound - 1) // n + 1)
        b = n * rnd.randrange(-(bound // n), bound // n + 1)
        g, x, y = xgcd(a, b)
        if g != 1:
            continue
        # a*x + b*y = 1, so [[a, b], [-y, x]] has determinant 1
        if abs(x) <= bound and abs(y) <= bound:
            return SL2Z(a, b, -y, x)


def test_klein_character_closed_form_reproduced():
    """The pairing of the standard generator rep against Gamma1(n) matrices
    equals N*b/n^2, with one fixed sign across the whole sweep."""
    start = time.monotonic()
    rnd = random.Random(101)
    for n in range(2, 7):
        rep = TorusRep(cyclic(n), 1, 0)
        for level in range(1, n + 1):
            alpha = alpha_cyclic(n, level)
            for _ in range(25):
                mat = random_gamma1(rnd, n)
                assert r_diff(rep, alpha, mat) == QZ(level * mat.b, n * n)
    assert time.monotonic() - start < 60.0


def _small_groups():
    out = [cyclic(n) for n in range(1, 13)]
    out += [
        klein4(),
        direct_product(cyclic(4), cyclic(2)),
        direct_product(direct_product(cyclic(2), cyclic(2)), cyclic(2)),
        direct_product(cyclic(3), cyclic(3)),
        direct_product(cyclic(2), cyclic(6)),
        symmetric3(),
        dihedral(4),
        dihedral(5),
        dihedral(6),
        dicyclic(2),
        dicyclic(3),
        alternating4(),
    ]
    return out


def _pulled_back_levels(grp):
    """The distinct pullbacks of cyclic levels along characters of grp.

    Every character of a finite group factors through a cyclic group of
    order the exponent, so homs to that one target cover all of them.
    """
    exponent = 1
    for g in grp.elements:
        exponent = lcm(exponent, grp.order_of(g))
    alphas = [Cochain.zero(grp, 3)]
    if exponent == 1:
        return alphas
    seen = {alphas[0]}
    target = cyclic(exponent)
    for hom in all_homs(grp, target):
        for level in range(1, exponent + 1):
            pulled = pullback_cochain(alpha_cyclic(exponent, level), hom)
            if pulled not in seen:
                seen.add(pulled)
                alphas.append(pulled)
    return alphas


def _asymmetry(lift, m):
    # the lift route: the lift's asymmetry at (M e2, M e1)
    p1, p2 = (m.b, m.d), (m.a, m.c)
    return lift.evaluate(p1, p2) - lift.evaluate(p2, p1)


def test_dehn_twist_matches_lift_route():
    """dehn_character agrees with the pairing against T^order(g) for every
    element of every group of order at most 12, at every character level,
    both through r_diff and through the asymmetry of the closed lift."""
    groups = _small_groups()
    assert len(groups) == 24
    by_order = {}
    for grp in groups:
        by_order[grp.order] = by_order.get(grp.order, 0) + 1
    assert by_order == {1: 1, 2: 1, 3: 1, 4: 2, 5: 1, 6: 2,
                        7: 1, 8: 5, 9: 2, 10: 2, 11: 1, 12: 5}

    t = SL2Z.T()
    for grp in groups:
        for alpha in _pulled_back_levels(grp):
            for g in grp.elements:
                rep = TorusRep(grp, g, 0)
                power = t ** grp.order_of(g)
                value = dehn_character(grp, g, alpha)
                assert value == r_diff(rep, alpha, power)
                # the image <g> is cyclic, so the default lift is closed
                lift = lift_gamma(rep, alpha)
                assert lift.mode == "closed"
                assert value == _asymmetry(lift, power)

    # the order-two case is blind to the sign convention: both routes give 1/2
    two = cyclic(2)
    level1 = alpha_cyclic(2, 1)
    assert dehn_character(two, 1, level1) == QZ(1, 2)
    assert r_diff(TorusRep(two, 1, 0), level1, t ** 2) == QZ(1, 2)


def test_alpha_family_cocycle_validity():
    """alpha_cyclic is closed and normalized throughout, and is a coboundary
    exactly when the cyclic order divides the level."""
    for n in range(2, 13):
        for level in range(1, n + 1):
            report = validate_cochain(alpha_cyclic(n, level))
            assert report.closed
            assert report.normalized
    for n in range(2, 7):
        for level in range(1, n + 1):
            witness = coboundary_solve(alpha_cyclic(n, level))
            if level % n == 0:
                assert witness is not None
                assert differential(witness) == alpha_cyclic(n, level)
            else:
                assert witness is None


def test_integer_cochains_match_qz_reference():
    """The integer-table cochain agrees with the QZ-table definitions: its
    construction from values, the pullback, closedness (every entry of the
    full differential is zero) and normalization (zero at every flat index
    whose unflattened arguments include the identity)."""
    for grp in _small_groups():
        n = grp.order
        with_identity = [flat for flat in range(n**3) if 0 in _unflatten(flat, n, 3)]
        exponent = 1
        for g in grp.elements:
            exponent = lcm(exponent, grp.order_of(g))
        for alpha in _pulled_back_levels(grp):
            values = alpha.values
            rebuilt = Cochain(grp, 3, list(values))
            assert rebuilt == alpha and hash(rebuilt) == hash(alpha)
            assert is_closed(alpha) == (not any(differential(alpha).ints))
            assert is_normalized(alpha) == (not any(values[f] for f in with_identity))
        level = alpha_cyclic(exponent, 1 + n % exponent)
        for hom in all_homs(grp, cyclic(exponent)):
            assert pullback_cochain(level, hom) == Cochain.from_function(
                grp, 3, lambda a, b, c: level(hom(a), hom(b), hom(c)))


def test_lift_certificates_and_route_agreement():
    """Both lift routes satisfy the defining coboundary equation, agree on
    sigma and on every pairing value, and a broken lift is refused."""
    grp = cyclic(4)
    alpha = alpha_cyclic(4, 1)
    rep = TorusRep(grp, 1, 2)
    fast = lift_gamma(rep, alpha, method="closed")
    slow = lift_gamma(rep, alpha, window=2, method="window")
    assert sigma_diff(fast, slow) == QZ(0)
    mats = (SL2Z.T(), SL2Z.S(), SL2Z.T() ** 2, SL2Z.S() @ SL2Z.T())
    for mat in mats:
        # the asymmetry at (M e2, M e1) that r_diff reads off a lift
        p1, p2 = (mat.b, mat.d), (mat.a, mat.c)
        closed_val = fast.evaluate(p1, p2) - fast.evaluate(p2, p1)
        window_val = slow.evaluate(p1, p2) - slow.evaluate(p2, p1)
        assert closed_val == window_val
        assert r_diff(rep, alpha, mat) == closed_val
    box = [(x, y) for x in range(-2, 3) for y in range(-2, 3)]
    for p1 in box:
        for p2 in box:
            assert (fast.evaluate(p1, p2) - fast.evaluate(p2, p1)
                    == slow.evaluate(p1, p2) - slow.evaluate(p2, p1))

    # independent spot check of d(gamma) = pulled-back alpha, away from the
    # certificate's own window
    rnd = random.Random(404)
    for _ in range(200):
        a = (rnd.randrange(-6, 7), rnd.randrange(-6, 7))
        b = (rnd.randrange(-6, 7), rnd.randrange(-6, 7))
        c = (rnd.randrange(-6, 7), rnd.randrange(-6, 7))
        ab = (a[0] + b[0], a[1] + b[1])
        bc = (b[0] + c[0], b[1] + c[1])
        lhs = (fast.evaluate(a, b) + fast.evaluate(ab, c)
               - fast.evaluate(a, bc) - fast.evaluate(b, c))
        assert lhs == alpha(rep.image(*a), rep.image(*b), rep.image(*c))

    with pytest.raises(CertificateError):
        GammaLift(rep, alpha, 2, "window", lambda a, b: Fraction(1, 3),
                  normalized=False)


def test_character_homomorphism_and_conjugation_covariance():
    """Pairing values add over products of stabilizer matrices and are
    constant along conjugation orbits of reps."""
    rnd = random.Random(202)
    for _ in range(50):
        n = rnd.choice((2, 3, 4, 5, 6))
        level = rnd.randrange(1, n + 1)
        first = random_gamma1(rnd, n)
        second = random_gamma1(rnd, n)
        both = first @ second
        assert klein_character(n, level, both) == (
            klein_character(n, level, first) + klein_character(n, level, second)
        )
        rep = TorusRep(cyclic(n), 1, 0)
        alpha = alpha_cyclic(n, level)
        assert r_diff(rep, alpha, both) == (
            r_diff(rep, alpha, first) + r_diff(rep, alpha, second)
        )

    # covariance on S3 at the level pulled back along the parity character
    s3 = symmetric3()
    sign = next(h for h in all_homs(s3, cyclic(2)) if h.images != (0,) * 6)
    assert sign.images == (0, 1, 1, 0, 0, 1)
    pulled = pullback_cochain(alpha_cyclic(2, 1), sign)
    mats = (SL2Z.T(), SL2Z.T() ** 2, SL2Z.S(), SL2Z.S() @ SL2Z.T())
    seen = set()
    orbits = 0
    for srep in enumerate_bundles(s3, 1):
        if srep.images in seen:
            continue
        orbit, _ = orbit_stabilizer(srep)
        for other in orbit:
            seen.add(other.images)
        orbits += 1
        for mat in mats:
            want = r_diff(TorusRep(orbit[0].group, *orbit[0].images), pulled, mat)
            for other in orbit:
                assert r_diff(TorusRep(other.group, *other.images), pulled, mat) == want
    assert orbits == 8

    # the Klein four-group: conjugation is trivial, so every orbit is a
    # single rep; -1 stabilizes all of them and its value must self-double
    # to the value at the identity
    v4 = klein4()
    chi = next(h for h in all_homs(v4, cyclic(2)) if h(1) == 1 and h(2) == 0)
    pulled4 = pullback_cochain(alpha_cyclic(2, 1), chi)
    minus = SL2Z.S() @ SL2Z.S()
    for srep in enumerate_bundles(v4, 1):
        orbit, _ = orbit_stabilizer(srep)
        assert len(orbit) == 1
        rep = TorusRep(srep.group, *srep.images)
        val = r_diff(rep, pulled4, minus)
        assert r_diff(rep, pulled4, minus @ minus) == val + val


def test_moduli_counts_match_brute_force():
    """Bundle enumeration counts 4, 18 and 486, against raw table loops,
    and every orbit size times its stabilizer size is the group order."""
    z2 = cyclic(2)
    s3 = symmetric3()
    v4 = klein4()

    brute2 = {(a, b) for a in z2.elements for b in z2.elements
              if z2.mul(a, b) == z2.mul(b, a)}
    assert len(brute2) == 4
    assert {rep.images for rep in enumerate_bundles(z2, 1)} == brute2

    brute3 = {(a, b) for a in s3.elements for b in s3.elements
              if s3.mul(a, b) == s3.mul(b, a)}
    assert len(brute3) == 18
    assert {rep.images for rep in enumerate_bundles(s3, 1)} == brute3

    count = 0
    for a1 in s3.elements:
        for b1 in s3.elements:
            c1 = s3.mul(s3.mul(a1, b1), s3.mul(s3.inv(a1), s3.inv(b1)))
            for a2 in s3.elements:
                for b2 in s3.elements:
                    c2 = s3.mul(s3.mul(a2, b2),
                                s3.mul(s3.inv(a2), s3.inv(b2)))
                    if s3.mul(c1, c2) == 0:
                        count += 1
    assert count == 486
    assert len(enumerate_bundles(s3, 2)) == 486

    for grp in (z2, v4, s3):
        for srep in enumerate_bundles(grp, 1):
            orbit, stab = orbit_stabilizer(srep)
            assert len(orbit) * len(stab) == grp.order


def test_torus_orbits_match_orbit_stabilizer():
    """torus_orbits on every small group equals the rows built from the
    genus-1 bundle list and orbit_stabilizer, and orbit size times
    stabilizer size is the group order."""
    for grp in _small_groups():
        seen = set()
        rows = []
        for srep in enumerate_bundles(grp, 1):
            if srep.images in seen:
                continue
            orbit, stab = orbit_stabilizer(srep)
            seen.update(other.images for other in orbit)
            rows.append((min(other.images for other in orbit), len(orbit), stab))
        rows.sort()
        assert torus_orbits(grp) == rows
        for _, size, stab in rows:
            assert size * len(stab) == grp.order


def _conj_character(group, alpha, g, h, z):
    """Holonomy of conjugation by z at the commuting pair (g, h), written
    out as raw alpha sums with no lift machinery behind it."""
    cg = group.conj(z, g)
    ch = group.conj(z, h)
    return ((alpha(z, g, h) - alpha(z, h, g))
            + (alpha(cg, ch, z) - alpha(ch, cg, z))
            - (alpha(cg, z, h) - alpha(ch, z, g)))


def _oracle_sections(group, alpha):
    pairs = [(g, h) for g in group.elements for h in group.elements
             if group.mul(g, h) == group.mul(h, g)]
    seen = set()
    dim = 0
    for pair in pairs:
        if pair in seen:
            continue
        g, h = pair
        orbit = {(group.conj(z, g), group.conj(z, h)) for z in group.elements}
        seen |= orbit
        stab = [z for z in group.elements
                if (group.conj(z, g), group.conj(z, h)) == pair]
        if all(_conj_character(group, alpha, g, h, z) == QZ(0) for z in stab):
            dim += 1
    return dim


def test_section_dimensions_match_character_oracle():
    """Section dimensions 4, 4 and 9 on the small cyclic cases, against an
    exhaustive character-vanishing count done from scratch."""
    z2 = cyclic(2)
    z3 = cyclic(3)
    cases = [
        (z2, Cochain.zero(z2, 3), 4),
        (z2, alpha_cyclic(2, 1), 4),
        (z3, alpha_cyclic(3, 1), 9),
    ]
    for grp, alpha, expect in cases:
        assert sections_dimension(grp, alpha) == expect
        assert _oracle_sections(grp, alpha) == expect

    # a level where the dimension genuinely drops below the orbit count:
    # the product cocycle on (Z/2)^3 keeps exactly the linearly dependent
    # pairs, 22 of the 64
    v8 = direct_product(direct_product(cyclic(2), cyclic(2)), cyclic(2))

    def coords(i):
        return ((i >> 2) & 1, (i >> 1) & 1, i & 1)

    cup = Cochain.from_function(
        v8, 3,
        lambda a, b, c: QZ(coords(a)[0] * coords(b)[1] * coords(c)[2], 2),
    )
    report = validate_cochain(cup)
    assert report.closed
    assert report.normalized
    dependent = sum(1 for g in v8.elements for h in v8.elements
                    if g == 0 or h == 0 or g == h)
    assert dependent == 22
    assert len(enumerate_bundles(v8, 1)) == 64
    assert sections_dimension(v8, cup) == 22
    assert _oracle_sections(v8, cup) == 22


def _random_blocks(rnd):
    """A presentation with pair blocks, lone points and flip loops; the
    first block is always an invertible pair."""
    mors = []
    comp = {}
    obj = 0
    for b in range(rnd.randrange(1, 4)):
        kind = "pair" if b == 0 else rnd.choice(("pair", "point", "flip"))
        if kind == "point":
            e = "e%d" % obj
            mors.append((obj, obj, e))
            comp[(e, e)] = e
            obj += 1
        elif kind == "flip":
            e, tl = "e%d" % obj, "t%d" % obj
            mors += [(obj, obj, e), (obj, obj, tl)]
            comp.update({(e, e): e, (e, tl): tl, (tl, e): tl, (tl, tl): e})
            obj += 1
        else:
            i, j = obj, obj + 1
            idi, idj = "id%d" % i, "id%d" % j
            f, g = "f%d" % i, "g%d" % i
            mors += [(i, i, idi), (j, j, idj), (i, j, f), (j, i, g)]
            comp.update({
                (idi, idi): idi, (idj, idj): idj,
                (f, idi): f, (idj, f): f,
                (g, idj): g, (idi, g): g,
                (g, f): idi, (f, g): idj,
            })
            obj += 2
    return FiniteGroupoidPresentation(obj, mors, comp)


def test_groupoid_toolkit_properties():
    """Random presentations validate, shift invariantly, round trip their
    transports, reject perturbations; the assembled quotient on the
    commuting pairs of Z/2 under word-fragment matrices is a cocycle."""
    rnd = random.Random(303)
    for _ in range(200):
        pres = _random_blocks(rnd)
        pot = {x: QZ(rnd.randrange(0, 6), 6) for x in range(pres.n_objects)}
        transport = {}
        for s, d, lab in pres.morphisms:
            if lab.startswith("t"):
                transport[lab] = rnd.choice((QZ(0), QZ(1, 2)))
            else:
                transport[lab] = pot[s] - pot[d]
        tau = {x: QZ(rnd.randrange(0, 8), 8) for x in range(pres.n_objects)}
        coc = cocycle_from_section(pres, tau, transport)
        assert validate_groupoid_cocycle(coc).valid

        section = {x: QZ(rnd.randrange(0, 10), 10)
                   for x in range(pres.n_objects)}
        shifted = shift_cocycle(coc, section)
        assert validate_groupoid_cocycle(shifted).valid
        assert sections_dim_groupoid(shifted) == sections_dim_groupoid(coc)

        back = shift_cocycle(coc, {x: -tau[x] for x in tau})
        for _, _, lab in pres.morphisms:
            assert back(lab) == transport[lab]

        broken = next(lab for _, _, lab in pres.morphisms
                      if lab.startswith("f"))
        bad_vals = {lab: coc(lab) for _, _, lab in pres.morphisms}
        bad_vals[broken] = bad_vals[broken] + QZ(1, 5)
        bad = GroupoidCocycle(pres, bad_vals)
        assert not validate_groupoid_cocycle(bad).valid

    # the quotient instance: commuting pairs in Z/2, conjugation viewed as
    # the (trivial) base action, matrices from words in S and T of length
    # at most four acting on the pairs
    z2 = cyclic(2)
    alpha = alpha_cyclic(2, 1)
    pairs = [(g, h) for g in z2.elements for h in z2.elements]
    index = {pair: i for i, pair in enumerate(pairs)}
    base = group_action_groupoid(z2, pairs, lambda i, z: i)
    hol = {}
    for i, (g, h) in enumerate(pairs):
        for z in z2.elements:
            val = holonomy_cocycle_R(TorusRep(z2, g, h), alpha, z)
            assert val == QZ(0)
            hol[(z, i)] = val
    basecoc = GroupoidCocycle(base, hol)
    assert validate_groupoid_cocycle(basecoc).valid

    elements, compose = sl2z_word_fragment([SL2Z.S(), SL2Z.T()], max_length=4)

    def act_obj(i, mat):
        rep = sl2z_act(TorusRep(z2, *pairs[i]), mat)
        return index[(rep.g, rep.h)]

    def act_mor(label, mat):
        z, i = label
        return (z, act_obj(i, mat))

    action = GammaAction(elements, elements[0], compose, act_obj, act_mor)

    def r_gamma(i, mat):
        return r_diff(TorusRep(z2, *pairs[i]), alpha, mat)

    assembled = equivariant_assemble(basecoc, r_gamma, action)
    assert validate_groupoid_cocycle(assembled).valid

    t = SL2Z.T()
    loop_at_10 = (0, index[(1, 0)])
    assert assembled((loop_at_10, t)) == r_diff(TorusRep(z2, 1, 1), alpha, t)
