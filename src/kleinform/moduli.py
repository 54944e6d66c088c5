"""Moduli of flat surface bundles and their mapping-class characters.

Genus-one bundles over a finite structure group G are commuting pairs in
G; the mapping class group SL2(Z) acts on them through the plane, and the
characters computed here (r_diff against a matrix, the Dehn-twist value,
and the closed Klein form on Gamma1(n)) all come from one mechanism:
evaluate a normalized lift of the pulled-back three-cocycle at the
transformed fundamental class and compare with the untransformed one.
The conjugation holonomy behind sections_dimension needs no lift: it is
the transgression of alpha, six table lookups per value.  Everything is
exact; agreements between the lift route and the closed forms are
theorems that the test suite checks rather than assumes.
"""

from __future__ import annotations

from itertools import product

from .cochains import Cochain, is_closed, is_normalized
from .errors import KleinformError, ValidationError
from .groups import centralizer
from .lifts import TorusRep, lift_gamma
from .qz import QZ

ENUMERATION_CAP = 10**7


class SL2Z:
    """An integer matrix [[a, b], [c, d]] with determinant one."""

    __slots__ = ("a", "b", "c", "d")

    def __init__(self, a, b, c, d):
        a, b, c, d = int(a), int(b), int(c), int(d)
        if a * d - b * c != 1:
            raise ValidationError(
                "matrix [[%d, %d], [%d, %d]] has determinant %d, not 1"
                % (a, b, c, d, a * d - b * c)
            )
        self.a = a
        self.b = b
        self.c = c
        self.d = d

    @classmethod
    def identity(cls):
        return cls(1, 0, 0, 1)

    @classmethod
    def S(cls):
        return cls(0, -1, 1, 0)

    @classmethod
    def T(cls):
        return cls(1, 1, 0, 1)

    def __matmul__(self, other):
        if not isinstance(other, SL2Z):
            return NotImplemented
        return SL2Z(
            self.a * other.a + self.b * other.c,
            self.a * other.b + self.b * other.d,
            self.c * other.a + self.d * other.c,
            self.c * other.b + self.d * other.d,
        )

    def inverse(self):
        return SL2Z(self.d, -self.b, -self.c, self.a)

    def __pow__(self, e):
        base = self if e >= 0 else self.inverse()
        e = abs(e)
        out = SL2Z.identity()
        while e:
            if e & 1:
                out = out @ base
            base = base @ base
            e >>= 1
        return out

    def entries(self):
        return (self.a, self.b, self.c, self.d)

    def __eq__(self, other):
        return isinstance(other, SL2Z) and self.entries() == other.entries()

    def __hash__(self):
        return hash(self.entries())

    def __repr__(self):
        return "SL2Z(%d, %d, %d, %d)" % self.entries()


def in_gamma1(matrix, n):
    """Membership in Gamma1(n): a = 1 and b = 0 modulo n."""
    if n < 1:
        raise KleinformError("Gamma1 needs n >= 1")
    return (matrix.a - 1) % n == 0 and matrix.b % n == 0


class SurfaceRep:
    """A genus-g bundle datum: 2g images with vanishing total commutator.

    images lists (g1, h1, ..., gg, hg); the product of the commutators
    [gi, hi] in that order must be the identity.
    """

    __slots__ = ("group", "genus", "images")

    def __init__(self, group, genus, images):
        if genus < 1:
            raise ValidationError("genus must be at least 1")
        images = tuple(int(v) for v in images)
        if len(images) != 2 * genus:
            raise ValidationError(
                "genus %d needs %d images, got %d" % (genus, 2 * genus, len(images))
            )
        for v in images:
            if not (0 <= v < group.order):
                raise ValidationError("image %d outside the group" % v)
        acc = 0
        for i in range(genus):
            g, h = images[2 * i], images[2 * i + 1]
            acc = group.mul(acc, group.commutator(g, h))
        if acc != 0:
            raise ValidationError("commutator product is not the identity")
        self.group = group
        self.genus = genus
        self.images = images

    def __eq__(self, other):
        return (
            isinstance(other, SurfaceRep)
            and self.group == other.group
            and self.genus == other.genus
            and self.images == other.images
        )

    def __hash__(self):
        return hash((self.group, self.genus, self.images))

    def __repr__(self):
        return "SurfaceRep(genus=%d, images=%r)" % (self.genus, self.images)


def enumerate_bundles(group, genus):
    """All genus-g bundle data over the group, in lexicographic image order."""
    if genus < 1:
        raise KleinformError("genus must be at least 1")
    total = group.order ** (2 * genus)
    if total > ENUMERATION_CAP:
        raise KleinformError(
            "enumeration size %d exceeds the cap %d" % (total, ENUMERATION_CAP)
        )
    out = []
    if genus == 1:
        # the constraint is plain commutativity; skip the generic filter
        for g in group.elements:
            for h in group.elements:
                if group.commutes(g, h):
                    out.append(SurfaceRep(group, 1, (g, h)))
        return out
    for images in product(group.elements, repeat=2 * genus):
        acc = 0
        for i in range(genus):
            g, h = images[2 * i], images[2 * i + 1]
            acc = group.mul(acc, group.commutator(g, h))
        if acc == 0:
            out.append(SurfaceRep(group, genus, images))
    return out


def orbit_stabilizer(srep):
    """Simultaneous-conjugation orbit and joint stabilizer of a bundle datum.

    Returns (orbit, stabilizer): the orbit as SurfaceReps sorted by image
    tuple, the stabilizer as a sorted tuple of group elements.
    """
    group = srep.group
    seen = set()
    stab = []
    for z in group.elements:
        conj = tuple(group.conj(z, x) for x in srep.images)
        seen.add(conj)
        if conj == srep.images:
            stab.append(z)
    orbit = [SurfaceRep(group, srep.genus, images) for images in sorted(seen)]
    return orbit, tuple(stab)


def sl2z_act(rep, matrix):
    """The right SL2(Z) action on torus reps: (g, h) -> (g^a h^c, g^b h^d)."""
    return TorusRep(
        rep.group,
        rep.image(matrix.a, matrix.c),
        rep.image(matrix.b, matrix.d),
    )


def _check_alpha_for(group, alpha):
    if not isinstance(alpha, Cochain) or alpha.degree != 3:
        raise KleinformError("expected a degree-3 cochain")
    if alpha.group != group:
        raise KleinformError("cochain lives on a different group")
    if not is_closed(alpha) or not is_normalized(alpha):
        raise KleinformError("expected a closed normalized 3-cochain")


def _pairing(lift, m):
    """The asymmetry of a lift at (M e2, M e1)."""
    p1, p2 = (m.b, m.d), (m.a, m.c)
    return lift.evaluate(p1, p2) - lift.evaluate(p2, p1)


def _t_power(rep, alpha, q):
    """r_diff(rep, alpha, T^q) from at most n = ord(g) letters T^(+-1).

    rep.T^(+-n) = rep, so the j-th letter recurs |q| // n + (j < |q| % n) times.
    """
    letter = SL2Z.T() ** (1 if q > 0 else -1)
    n, q = rep.group.order_of(rep.g), abs(q)
    acc = QZ(0)
    for j in range(min(n, q)):
        acc += (q // n + (j < q % n)) * _pairing(lift_gamma(rep, alpha), letter)
        rep = sl2z_act(rep, letter)
    return acc


def r_diff(rep, alpha, matrix):
    """Character-style pairing of a rep with a mapping-class matrix M.

    The value is gamma(M e2, M e1) - gamma(M e1, M e2) for gamma the
    normalized lift of alpha pulled back along rep; when M stabilizes the
    rep it is the character value at M.  It is exact for every M, and only
    default lifts lift_gamma(rep', alpha) are built.  r_diff is the
    1-cocycle of the SL2(Z) action on commuting pairs (Freed-Quinn, CMP 156,
    1993): r(rep, A B) = r(rep, A) + r(sl2z_act(rep, A), B).  So Euclid's
    algorithm on the first column peels S or T^q off M and moves the rest
    to the moved rep.  A closed (cyclic-image) lift is read directly at any
    M, a window-2 lift at M with entries in {-1, 0, 1}: the very lifts a
    direct evaluation builds there.  (g, h).T = (g, g h), so rep.T^n = rep
    for n = ord(g) and T^q costs at most n letters (_t_power).
    """
    _check_alpha_for(rep.group, alpha)
    acc = QZ(0)
    while True:
        lift = lift_gamma(rep, alpha)
        a, b, c, d = matrix.entries()
        if lift.mode == "closed" or max(abs(a), abs(b), abs(c), abs(d)) <= 1:
            return acc + _pairing(lift, matrix)
        if c and abs(a) < abs(c):
            head = SL2Z.S()
            acc += _pairing(lift, head)
        else:
            q = a // c if c else b * d
            head = SL2Z.T() ** q
            acc += _t_power(rep, alpha, q)
        rep = sl2z_act(rep, head)
        matrix = head.inverse() @ matrix


def dehn_character(group, element, alpha):
    """Value of the Dehn-twist character at a group element.

    With n the order of the element, this is the sum of
    alpha(g, g^j, g) over j from 0 to n-1; it agrees with
    r_diff((g, 1), alpha, T^n), which the tests check on every element of
    every small group rather than assume.
    """
    _check_alpha_for(group, alpha)
    element = int(element)
    if not (0 <= element < group.order):
        raise KleinformError("element index outside the group")
    n = group.order_of(element)
    acc = QZ(0)
    power = 0
    for _ in range(n):
        acc = acc + alpha(element, power, element)
        power = group.mul(power, element)
    return acc


def klein_character(n, level, matrix):
    """The closed form of the Klein character on Gamma1(n).

    Equals level * b / n^2 mod 1.  Raises when the matrix is not in
    Gamma1(n); the lift route r_diff reproduces this value on congruence
    matrices, which is a theorem the tests exercise.
    """
    if n < 1:
        raise KleinformError("klein_character needs n >= 1")
    if not in_gamma1(matrix, n):
        raise KleinformError("matrix not in Gamma1(%d)" % n)
    return QZ(level * matrix.b, n * n)


def holonomy_cocycle_R(rep, alpha, z):
    """Holonomy of conjugation by z at the rep (g, h), read off alpha.

    With cg = z g z^-1 and ch = z h z^-1 the value is

        (alpha(z, g, h) - alpha(z, h, g))
        + (alpha(cg, ch, z) - alpha(ch, cg, z))
        - (alpha(cg, z, h) - alpha(ch, z, g)),

    the transgression (slant product) of alpha.  It is a 1-cocycle for the
    conjugation groupoid and restricts to a character on the stabilizer of
    the rep.  It equals the asymmetry at (e1, e2) of
    conjugate_lift(lift_gamma(rep, alpha), z), for every z in the group:
    lift_gamma only hands out normalized lifts (lam0 makes the value at
    (e1, e2) equal the value at (e2, e1), and _certify checks it), and
    conjugate_lift adds beta(a, b) = alpha(z, rho a, rho b)
    + alpha(z rho(a) z^-1, z rho(b) z^-1, z) - alpha(z rho(a) z^-1, z, rho b).
    So the conjugate's asymmetry is beta(e1, e2) - beta(e2, e1); with
    rho e1 = g and rho e2 = h that is the expression above, and the lift
    cancels.  The tests keep the lift route as the oracle.
    """
    _check_alpha_for(rep.group, alpha)
    grp = rep.group
    z = int(z)
    if not (0 <= z < grp.order):
        raise KleinformError("conjugating element outside the group")
    g, h = rep.g, rep.h
    cg, ch = grp.conj(z, g), grp.conj(z, h)
    return (
        (alpha(z, g, h) - alpha(z, h, g))
        + (alpha(cg, ch, z) - alpha(ch, cg, z))
        - (alpha(cg, z, h) - alpha(ch, z, g))
    )


def sections_dimension(group, alpha):
    """Number of conjugation orbits of torus reps with vanishing stabilizer character.

    For each orbit of commuting pairs (represented by its lexicographically
    least member) the character z -> holonomy_cocycle_R(rep, alpha, z) is
    evaluated over the joint stabilizer; orbits where it vanishes
    identically are counted.
    """
    _check_alpha_for(group, alpha)
    seen = set()
    count = 0
    for g in group.elements:
        for h in group.elements:
            if not group.commutes(g, h):
                continue
            if (g, h) in seen:
                continue
            orbit = {(group.conj(z, g), group.conj(z, h)) for z in group.elements}
            seen.update(orbit)
            g0, h0 = min(orbit)
            rep = TorusRep(group, g0, h0)
            stab = centralizer(group, [g0, h0])
            if all(not holonomy_cocycle_R(rep, alpha, z) for z in stab):
                count += 1
    return count
