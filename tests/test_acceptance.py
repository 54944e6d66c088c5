"""End-to-end checks, one test per advertised guarantee.

Every expected value here is recomputed by an independent in-test oracle
(raw multiplication-table loops, closed formulas, hand counts) rather than
by trusting the code under test.  All equalities are exact.
"""

import os
import random
import time
from fractions import Fraction
from itertools import product
from math import lcm

import pytest

from kleinform.cochains import (
    Cochain,
    alpha_cyclic,
    coboundary_solve,
    differential,
    is_closed,
    is_normalized,
    load_cochain_file,
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
    GroupoidCocycle,
    flat_components,
    validate_groupoid_cocycle,
)
from kleinform.intmat import xgcd
from kleinform.lifts import GammaLift, TorusRep, has_cyclic_image, lift_gamma
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

DATA = os.path.join(os.path.dirname(__file__), "data")


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


def test_closed_lifts_pass_the_window_certificate():
    """The staircase's one certificate implies the window check it replaced:
    every closed lift of every commuting pair of the groups of order at
    most 4, at every pulled-back level, passes the full window-2 check of
    its defining equation, and those over Z/3 the window-3 check too."""
    checked = 0
    for grp in _small_groups():
        if grp.order > 4:
            continue
        windows = (2, 3) if grp.order == 3 else (2,)
        for alpha in _pulled_back_levels(grp):
            for g in grp.elements:
                for h in grp.elements:
                    if grp.mul(g, h) != grp.mul(h, g):
                        continue
                    rep = TorusRep(grp, g, h)
                    if not has_cyclic_image(rep):
                        continue
                    lift = lift_gamma(rep, alpha)
                    assert (lift.mode, lift.window) == ("closed", 2)
                    for w in windows:
                        # a direct construction runs the full window certificate
                        GammaLift(rep, alpha, w, "closed", lift._fn)
                        checked += 1
    assert checked == 267


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


def _orbit_sections(group, alpha, rows):
    """The orbit-by-orbit section count: a row of torus_orbits counts when
    the holonomy at its least pair, the conjugated six-term sum in alpha's
    integer table, vanishes at every element of its stabilizer."""
    n, L, tab = group.order, alpha.L, alpha.ints

    def scaled(g, h, z):
        cg, ch = group.conj(z, g), group.conj(z, h)
        return (tab[(z * n + g) * n + h] - tab[(z * n + h) * n + g]
                + tab[(cg * n + ch) * n + z] - tab[(ch * n + cg) * n + z]
                - tab[(cg * n + z) * n + h] + tab[(ch * n + z) * n + g])

    return sum(all(scaled(g, h, z) % L == 0 for z in stab) for (g, h), _, stab in rows)


def test_integer_cochains_match_qz_reference():
    """The integer-table cochain agrees with the QZ-table definitions: its
    construction from values, the pullback, closedness (every entry of the
    full differential is zero) and normalization (zero at every flat index
    whose unflattened arguments include the identity).  At every level the
    triple-route sections_dimension equals the orbit-by-orbit count."""
    for grp in _small_groups():
        n = grp.order
        with_identity = [flat for flat, args in enumerate(product(range(n), repeat=3))
                         if 0 in args]
        exponent = 1
        for g in grp.elements:
            exponent = lcm(exponent, grp.order_of(g))
        rows = torus_orbits(grp)
        for alpha in _pulled_back_levels(grp):
            values = alpha.values
            rebuilt = Cochain(grp, 3, list(values))
            assert rebuilt == alpha and hash(rebuilt) == hash(alpha)
            assert is_closed(alpha) == (not any(differential(alpha).ints))
            assert is_normalized(alpha) == (not any(values[f] for f in with_identity))
            assert sections_dimension(grp, alpha) == _orbit_sections(grp, alpha, rows)
        level = alpha_cyclic(exponent, 1 + n % exponent)
        for hom in all_homs(grp, cyclic(exponent)):
            assert pullback_cochain(level, hom) == Cochain.from_function(
                grp, 3, lambda a, b, c: level(hom(a), hom(b), hom(c)))


def test_lift_certificates_and_route_agreement():
    """Both lift routes satisfy the defining coboundary equation, agree on
    the asymmetry at (e1, e2) and on every pairing value, and a broken lift
    is refused."""
    grp = cyclic(4)
    alpha = alpha_cyclic(4, 1)
    rep = TorusRep(grp, 1, 2)
    fast = lift_gamma(rep, alpha)
    slow = lift_gamma(rep, alpha, window=2)
    assert (fast.mode, slow.mode) == ("closed", "window")
    assert _asymmetry(fast, SL2Z.identity()) == _asymmetry(slow, SL2Z.identity()) == QZ(0)
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
        GammaLift(rep, alpha, 2, "window", lambda a, b: Fraction(1, 3))


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
    for images in enumerate_bundles(s3, 1):
        if images in seen:
            continue
        orbit, _ = orbit_stabilizer(s3, images)
        seen.update(orbit)
        orbits += 1
        for mat in mats:
            want = r_diff(TorusRep(s3, *orbit[0]), pulled, mat)
            for other in orbit:
                assert r_diff(TorusRep(s3, *other), pulled, mat) == want
    assert orbits == 8

    # the Klein four-group: conjugation is trivial, so every orbit is a
    # single rep; -1 stabilizes all of them and its value must self-double
    # to the value at the identity
    v4 = klein4()
    chi = next(h for h in all_homs(v4, cyclic(2)) if h(1) == 1 and h(2) == 0)
    pulled4 = pullback_cochain(alpha_cyclic(2, 1), chi)
    minus = SL2Z.S() @ SL2Z.S()
    for images in enumerate_bundles(v4, 1):
        orbit, _ = orbit_stabilizer(v4, images)
        assert len(orbit) == 1
        rep = TorusRep(v4, *images)
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
    assert set(enumerate_bundles(z2, 1)) == brute2

    brute3 = {(a, b) for a in s3.elements for b in s3.elements
              if s3.mul(a, b) == s3.mul(b, a)}
    assert len(brute3) == 18
    assert set(enumerate_bundles(s3, 1)) == brute3

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
    assert len(list(enumerate_bundles(s3, 2))) == 486

    for grp in (z2, v4, s3):
        for images in enumerate_bundles(grp, 1):
            orbit, stab = orbit_stabilizer(grp, images)
            assert len(orbit) * len(stab) == grp.order


def test_torus_orbits_match_orbit_stabilizer():
    """torus_orbits on every small group equals the rows of a raw loop over
    the commuting pairs: each orbit set built by conjugation, kept at its
    least member, with the stabilizer found by equality; orbit size times
    stabilizer size is the group order."""
    for grp in _small_groups():
        rows = []
        for g in grp.elements:
            for h in grp.elements:
                if grp.mul(g, h) != grp.mul(h, g):
                    continue
                orbit = {(grp.conj(z, g), grp.conj(z, h)) for z in grp.elements}
                if min(orbit) == (g, h):
                    stab = tuple(z for z in grp.elements
                                 if (grp.conj(z, g), grp.conj(z, h)) == (g, h))
                    rows.append(((g, h), len(orbit), stab))
        assert torus_orbits(grp) == rows
        for _, size, stab in rows:
            assert size * len(stab) == grp.order


def _burnside_genus2_orbits(grp):
    """(1/|G|) sum over z of |Hom(pi1 of the genus-2 surface, C(z))|, by raw
    loops: the conjugation orbits of genus-2 data, counted by Burnside's
    lemma, since the data z fixes are those with every image in C(z)."""
    def commutator(a, b):
        return grp.mul(grp.mul(a, b), grp.mul(grp.inv(a), grp.inv(b)))

    total = 0
    for z in grp.elements:
        cz = [a for a in grp.elements if grp.mul(z, a) == grp.mul(a, z)]
        by_commutator = {}
        for a in cz:
            for b in cz:
                c = commutator(a, b)
                by_commutator[c] = by_commutator.get(c, 0) + 1
        total += sum(k * by_commutator.get(grp.inv(c), 0) for c, k in by_commutator.items())
    assert total % grp.order == 0
    return total // grp.order


def test_genus2_orbits_match_burnside():
    """orbit_stabilizer above genus one: the distinct orbits over the genus-2
    data number Burnside's count, each orbit size times its stabilizer
    size is |G|, and the counts are S3 116, D4 736, Q8 736, A4 566,
    klein4 256 and Z/3 81."""
    expected = ((symmetric3(), 116), (dihedral(4), 736), (dicyclic(2), 736),
                (alternating4(), 566), (klein4(), 256), (cyclic(3), 81))
    for grp, count in expected:
        seen = set()
        orbits = 0
        for images in enumerate_bundles(grp, 2):
            if images in seen:
                continue
            orbit, stab = orbit_stabilizer(grp, images)
            assert images == orbit[0]
            assert len(orbit) * len(stab) == grp.order
            seen.update(orbit)
            orbits += 1
        assert orbits == _burnside_genus2_orbits(grp) == count


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


def _cup_cocycle():
    """The product cocycle x1*y2*z3/2 on (Z/2)^3."""
    v8 = direct_product(direct_product(cyclic(2), cyclic(2)), cyclic(2))

    def coords(i):
        return ((i >> 2) & 1, (i >> 1) & 1, i & 1)

    return v8, Cochain.from_function(
        v8, 3,
        lambda a, b, c: QZ(coords(a)[0] * coords(b)[1] * coords(c)[2], 2),
    )


def _cube_twist():
    return load_cochain_file(os.path.join(DATA, "s3_cubetwist.cochain"))


def test_section_dimensions_match_character_oracle():
    """Section dimensions 4, 4 and 9 on the small cyclic cases, against an
    exhaustive character-vanishing count done from scratch; those and the
    (Z/2)^3 cup cocycle, the S3 cube twist and a coboundary on S3 also
    against the orbit-by-orbit count."""
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
    v8, cup = _cup_cocycle()
    report = validate_cochain(cup)
    assert report.closed
    assert report.normalized
    dependent = sum(1 for g in v8.elements for h in v8.elements
                    if g == 0 or h == 0 or g == h)
    assert dependent == 22
    assert len(list(enumerate_bundles(v8, 1))) == 64
    assert sections_dimension(v8, cup) == 22
    assert _oracle_sections(v8, cup) == 22

    # the coboundary of the 2-cochain 1/4 at (3, 4) has nonzero holonomy
    # off the stabilizers, but every orbit is flat
    s3 = symmetric3()
    eta = Cochain.from_function(s3, 2, lambda a, b: QZ(1, 4) if (a, b) == (3, 4) else QZ(0))
    for grp, alpha, expect in cases + [(v8, cup, 22), (s3, _cube_twist(), 8),
                                       (s3, differential(eta), 8)]:
        assert sections_dimension(grp, alpha) == expect
        assert _orbit_sections(grp, alpha, torus_orbits(grp)) == expect


def test_stabilizer_character_is_conjugation_invariant():
    """The lemma behind summing flat pairs: for every torus_orbits row
    rho, stabilizer element s and z in G, the stabilizer of z rho is
    z Stab(rho) z^-1 and hol(z rho, z s z^-1) = hol(rho, s), so the
    stabilizer character at z rho vanishes exactly when it does at rho."""
    v8, cup = _cup_cocycle()
    cube = _cube_twist()
    cases = [(cube.group, cube), (v8, cup)]
    for grp in (dihedral(4), dicyclic(2), alternating4()):
        cases += [(grp, alpha) for alpha in _pulled_back_levels(grp)]
    assert len(cases) == 2 + 4 + 4 + 5
    flat_rows = 0
    for grp, alpha in cases:
        for (g, h), _, stab in torus_orbits(grp):
            rep = TorusRep(grp, g, h)
            values = [holonomy_cocycle_R(rep, alpha, s) for s in stab]
            for z in grp.elements:
                moved = TorusRep(grp, grp.conj(z, g), grp.conj(z, h))
                moved_stab = [s for s in grp.elements
                              if (grp.conj(s, moved.g), grp.conj(s, moved.h))
                              == (moved.g, moved.h)]
                assert sorted(grp.conj(z, s) for s in stab) == moved_stab
                moved_values = [holonomy_cocycle_R(moved, alpha, grp.conj(z, s))
                                for s in stab]
                assert moved_values == values
                moved_flat = not any(holonomy_cocycle_R(moved, alpha, s) for s in moved_stab)
                assert moved_flat == (not any(values))
            flat_rows += not any(values)
    assert flat_rows == sum(sections_dimension(grp, alpha) for grp, alpha in cases)


def _pair_sections(group, alpha):
    """The pair-by-pair section count: the holonomy at each commuting pair
    (g, h) with h >= g, six lookups per stabilizer element z, tested
    modulo L up to the first nonzero one; a flat pair adds |C(g, h)|,
    twice when h != g, and the total over |G| is the count."""
    n, L, tab, table = group.order, alpha.L, alpha.ints, group.table
    cent = [[x for x in range(n) if row[x] == table[x][g]] for g, row in enumerate(table)]
    total = 0
    for g, cg in enumerate(cent):
        for h in cg[cg.index(g):]:
            row = table[h]
            stab = [z for z in cg if row[z] == table[z][h]]
            gh, hg = (g * n + h) * n, (h * n + g) * n
            if not any((tab[(z * n + g) * n + h] - tab[(z * n + h) * n + g] + tab[gh + z]
                        - tab[hg + z] - tab[(g * n + z) * n + h] + tab[(h * n + z) * n + g]) % L
                       for z in stab):
                total += len(stab) * (1 + (h != g))
    return total // n


def _coboundary_shift(rnd, grp, alpha):
    """alpha + d(beta) for a seeded 2-cochain beta with values in
    (1/12)Z/Z, 0 at the identity (index 0) so the sum stays normalized."""
    beta = Cochain.from_function(
        grp, 2, lambda a, b: QZ(0) if 0 in (a, b) else QZ(rnd.randrange(12), 12))
    d = differential(beta)
    return Cochain.from_function(grp, 3, lambda a, b, c: alpha(a, b, c) + d(a, b, c))


def test_triple_sections_match_pair_route():
    """sections_dimension, one holonomy read per commuting triple, gives
    the pair-by-pair count at every pulled-back level of the small groups,
    on the (Z/2)^3 cup cocycle, the S3 cube twist and a coboundary on S3,
    and at seeded coboundary shifts alpha + d(beta) of all of those; and on
    the cup cocycle pulled back along every endomorphism of (Z/2)^3, whose
    168 automorphisms each keep 22 sections of 64."""
    rnd = random.Random(19)
    s3 = symmetric3()
    eta = Cochain.from_function(s3, 2, lambda a, b: QZ(1, 4) if (a, b) == (3, 4) else QZ(0))
    v8, cup = _cup_cocycle()
    cases = [(grp, alpha) for grp in _small_groups() for alpha in _pulled_back_levels(grp)]
    cases += [(v8, cup), (s3, _cube_twist()), (s3, differential(eta))]
    cases += [(grp, _coboundary_shift(rnd, grp, alpha)) for grp, alpha in cases]
    cases += [(v8, alpha) for alpha in {pullback_cochain(cup, hom) for hom in all_homs(v8, v8)}]
    counts = []
    for grp, alpha in cases:
        count = sections_dimension(grp, alpha)
        assert count == _pair_sections(grp, alpha), (grp, alpha)
        counts.append(count)
    assert len(cases) == 2 * 511 + 344
    assert counts[508:511] == [22, 8, 8] and counts[1019:1022] == [22, 8, 8]
    assert sorted(counts[1022:]) == [22] * 168 + [64] * 176


def _alternating(alpha, g, h, z):
    """T(g, h, z): alpha at the six orders of (g, h, z), with the sign of
    each permutation."""
    return (alpha(z, g, h) - alpha(z, h, g) + alpha(g, h, z)
            - alpha(h, g, z) - alpha(g, z, h) + alpha(h, z, g))


def test_stabilizer_holonomy_is_alternating():
    """The lemma behind the triple count: on every pairwise-commuting
    triple (g, h, z), T takes sign(s) T under each of the six
    permutations s, is 0 with a repeated argument or with the identity,
    and equals holonomy_cocycle_R at (g, h) and z."""
    v8, cup = _cup_cocycle()
    cube = _cube_twist()
    cases = [(cube.group, cube), (v8, cup)]
    for grp in (dihedral(4), dicyclic(2), alternating4()):
        cases += [(grp, alpha) for alpha in _pulled_back_levels(grp)]
    perms = [((0, 1, 2), 1), ((1, 2, 0), 1), ((2, 0, 1), 1),
             ((1, 0, 2), -1), ((0, 2, 1), -1), ((2, 1, 0), -1)]
    nonzero = 0
    for grp, alpha in cases:
        for g, h, z in product(grp.elements, repeat=3):
            if not (grp.commutes(g, h) and grp.commutes(g, z) and grp.commutes(h, z)):
                continue
            args = (g, h, z)
            t = _alternating(alpha, g, h, z)
            for perm, sign in perms:
                moved = _alternating(alpha, *(args[i] for i in perm))
                assert moved == (t if sign > 0 else -t), (args, perm)
            if len(set(args)) < 3 or 0 in args:
                assert t == QZ(0), args
            assert holonomy_cocycle_R(TorusRep(grp, g, h), alpha, z) == t
            nonzero += bool(t)
    assert nonzero > 0


def _r_diff_letters(rep, alpha, matrix):
    """r_diff by the floor-quotient Euclid walk, one T letter at a time.

    The reference for r_diff's walk: q = a // c, and each T^q block sums
    its letters through the group's power, mul and order_of methods.
    """
    grp = rep.group
    n = grp.order
    L, tab = alpha.L, alpha.ints
    g, h = rep.g, rep.h
    a, b, c, d = matrix.entries()
    acc = 0
    while True:
        if abs(a) < abs(c) or not c and a != 1:
            gi = grp.inv(g)
            acc += (tab[(g * n + h) * n + gi] - tab[(g * n + gi) * n + h]
                    - tab[(h * n + g) * n + gi])
            g, h, a, b, c, d = h, gi, c, d, -a, -b
            continue
        q = a // c if c else b
        moved = grp.mul(grp.power(g, q), h)
        x, m, k = (h if q > 0 else moved), abs(q), grp.order_of(g)
        t = 0
        for j in range(min(k, m)):
            t += (m // k + (j < m % k)) * tab[(g * n + x) * n + g]
            x = grp.mul(g, x)
        acc += t if q > 0 else -t
        if not c:
            return QZ(acc, L)
        h, a, b = moved, a - q * c, b - q * d


def _random_sl2z(rnd, bound):
    """A pseudo-random SL2(Z) matrix with every entry at most bound in size."""
    while True:
        a, c = rnd.randint(-bound, bound), rnd.randint(-bound, bound)
        g, x, y = xgcd(a, c)
        # a x + c y = 1, so [[a, -y], [c, x]] has determinant 1
        if g == 1 and abs(x) <= bound and abs(y) <= bound:
            return SL2Z(a, -y, c, x)


def _edge_matrices(n):
    """Matrices at the corners of the S/T walk, for a group of order n."""
    big = 3 * n + 1
    out = [SL2Z.identity(), SL2Z(-1, 0, 0, -1), SL2Z.S(), SL2Z.S().inverse()]
    for b in (-1, -2, -n, -2 * n - 1):
        # T^b and -T^b with b < 0: c = 0, and a = 1 or a = -1
        out += [SL2Z(1, b, 0, 1), SL2Z(-1, -b, 0, -1)]
    # |q| > n >= ord(g), of either sign and at either end of the walk
    out += [SL2Z(1, 2 * n + 1, 0, 1), SL2Z(big, big - 1, 1, 1), SL2Z(-big, big - 1, 1, -1),
            SL2Z(1, 0, big, 1), SL2Z(1, 0, -big, 1)]
    # ties: 2|a - q c| = |c|, which needs |c| = 2; the last two reach it after an S
    out += [SL2Z(3, 1, 2, 1), SL2Z(-3, 1, 2, -1), SL2Z(3, -1, -2, 1), SL2Z(-3, -1, -2, -1),
            SL2Z(5, 2, 2, 1), SL2Z(-5, 2, 2, -1), SL2Z(2, 1, 3, 2), SL2Z(-2, 1, 3, -2)]
    return out


def test_r_diff_matches_letter_walk():
    """r_diff's nearest-quotient walk on the flat tables gives the floor
    walk's values at every pulled-back level of the small groups and on
    the S3 cube twist: at the corners of the walk (the identity, -I, S,
    S^-1, T^b and -T^b for b < 0, |q| > ord(g), ties), at random matrices
    with entries up to 200, and at one up to 10**30 on a third of the levels."""
    start = time.monotonic()
    rnd = random.Random(18)
    cube = _cube_twist()
    cases = [(grp, _pulled_back_levels(grp)) for grp in _small_groups()]
    cases.append((cube.group, [cube]))
    checked = huge = 0
    for grp, alphas in cases:
        pairs = list(enumerate_bundles(grp, 1))
        for alpha in alphas:
            mats = _edge_matrices(grp.order)
            mats += [_random_sl2z(rnd, 200) for _ in range(12)]
            if rnd.randrange(3) == 0:
                mats.append(_random_sl2z(rnd, 10**30))
                huge += 1
            for mat in mats:
                rep = TorusRep(grp, *rnd.choice(pairs))
                assert r_diff(rep, alpha, mat) == _r_diff_letters(rep, alpha, mat), (rep, mat)
                checked += 1
    assert checked == 509 * 37 + huge and huge > 120
    assert time.monotonic() - start < 60.0


def test_r_diff_conjugation_identity():
    """r_diff(z rho z^-1, M) - hol(rho, z) = r_diff(rho, M) - hol(rho.M, z)
    for M in {S, T, ST}, with hol = holonomy_cocycle_R and rho.M = sl2z_act.

    Derivation.  Let gamma be a normalized lift of alpha pulled back along
    rho and c(x, y) = gamma(x, y) - gamma(y, x), so r_diff(rho, M) =
    c(M e2, M e1).  conjugate_lift(gamma, z) = gamma + beta lifts the
    pullback along z rho z^-1, and beta(x, y) reads alpha only at rho x,
    rho y and z; its antisymmetrization beta(x, y) - beta(y, x) is the
    holonomy formula at the rep (rho x, rho y).  Two lifts of one cocycle
    on Z^2 differ by a 2-cocycle, whose antisymmetrization is an
    alternating bilinear form, lam det(x, y).  The conjugate lift's lam is
    its asymmetry at (e1, e2), c(e1, e2) + hol(rho, z) = hol(rho, z),
    against any normalized lift of z rho z^-1.  As det(M e2, M e1) = -1,

        r_diff(z rho z^-1, M) = c'(M e2, M e1) + hol(rho, z),

    with c' the conjugate lift's asymmetry; and since rho(M e1), rho(M e2)
    are the images of rho.M,

        c'(M e2, M e1) = c(M e2, M e1) + beta(M e2, M e1) - beta(M e1, M e2)
                       = r_diff(rho, M) - hol(rho.M, z).

    The identity is the difference of the two lines.  It runs at every
    pulled-back level of the small groups and on the S3 cube twist, at
    every commuting pair and every z on groups of order at most 8, and at
    a seeded sample of pairs and z on the larger ones.  With +hol on both
    sides it must fail somewhere, or the sign would go untested.
    """
    start = time.monotonic()
    rnd = random.Random(1993)
    mats = (SL2Z.S(), SL2Z.T(), SL2Z.S() @ SL2Z.T())
    cube = _cube_twist()
    cases = [(grp, _pulled_back_levels(grp)) for grp in _small_groups()]
    cases.append((cube.group, [cube]))
    checked = wrong_sign_fails = 0
    for grp, alphas in cases:
        pairs = list(enumerate_bundles(grp, 1))
        reps = {pair: TorusRep(grp, *pair) for pair in pairs}
        images = _Memo(lambda pair, i: sl2z_act(reps[pair], mats[i]))
        for alpha in alphas:
            if grp.order <= 8:
                points = [(pair, z) for pair in pairs for z in grp.elements]
            else:
                points = [(rnd.choice(pairs), rnd.randrange(grp.order)) for _ in range(12)]
            r = _Memo(lambda pair, i: r_diff(reps[pair], alpha, mats[i]))
            hol = _Memo(lambda pair, z: holonomy_cocycle_R(reps[pair], alpha, z))
            for (g, h), z in points:
                moved = (grp.conj(z, g), grp.conj(z, h))
                for i in range(len(mats)):
                    # r(z rho z^-1) - r(rho) against hol(rho, z) - hol(rho.M, z)
                    d_r = r[moved, i] - r[(g, h), i]
                    image = images[(g, h), i]
                    d_hol = hol[(g, h), z] - hol[(image.g, image.h), z]
                    assert d_r == d_hol, (grp, alpha, g, h, z, mats[i])
                    wrong_sign_fails += d_r != -d_hol
                    checked += 1
    assert checked > 100000 and wrong_sign_fails > 0
    assert time.monotonic() - start < 60.0


class _Memo(dict):
    """A dict that fills a missing key (a tuple) from a function of its parts."""

    def __init__(self, fn):
        super().__init__()
        self.fn = fn

    def __missing__(self, key):
        self[key] = value = self.fn(*key)
        return value


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
    """Random presentations validate, keep their flat components under a
    coboundary shift R + tau(src) - tau(dst), and reject perturbations.

    The r_diff and holonomy laws an SL2(Z) quotient of the torus
    groupoid needs are checked in test_moduli.test_r_diff_composition_law.
    """
    def shift(pres, values, tau):
        return {lab: values[lab] + tau[s] - tau[d] for s, d, lab in pres.morphisms}

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
        coc = GroupoidCocycle(pres, shift(pres, transport, tau))
        assert validate_groupoid_cocycle(coc).valid

        section = {x: QZ(rnd.randrange(0, 10), 10)
                   for x in range(pres.n_objects)}
        shifted = GroupoidCocycle(pres, shift(pres, coc.values, section))
        assert validate_groupoid_cocycle(shifted).valid
        assert flat_components(shifted) == flat_components(coc)

        broken = next(lab for _, _, lab in pres.morphisms
                      if lab.startswith("f"))
        bad_vals = dict(coc.values)
        bad_vals[broken] = bad_vals[broken] + QZ(1, 5)
        bad = GroupoidCocycle(pres, bad_vals)
        assert not validate_groupoid_cocycle(bad).valid
