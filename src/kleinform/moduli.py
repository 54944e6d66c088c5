"""Moduli of flat surface bundles and their mapping-class characters.

Genus-one bundles over a finite structure group G are commuting pairs
(TorusRep); SL2(Z) acts on them through the plane and G by conjugation
(torus_orbits).  r_diff (the character against a matrix, whose T^ord
block is dehn_character) and the conjugation holonomy behind
sections_dimension are defined through a normalized lift of the
pulled-back three-cocycle, but the lift cancels out of each: they are read
from alpha's integer table over its common denominator, a few lookups per
S or T letter or per conjugating element.  klein_character is the closed
form r_diff takes on Gamma1(n).  The tests keep the lift route (lifts.py,
which imports this module, never the reverse) as the reference.
"""

from __future__ import annotations

from itertools import product

from .cochains import Cochain, is_closed, is_normalized
from .errors import KleinformError, ValidationError
from .groups import centralizer
from .qz import QZ

ENUMERATION_CAP = 10**7


class TorusRep:
    """A homomorphism Z^2 -> G, given by the commuting images g, h of e1, e2."""

    __slots__ = ("group", "g", "h")

    def __init__(self, group, g, h):
        g, h = int(g), int(h)
        if not (0 <= g < group.order and 0 <= h < group.order):
            raise ValidationError("rep images outside the group")
        if not group.commutes(g, h):
            raise ValidationError("rep images %d and %d do not commute" % (g, h))
        self.group = group
        self.g = g
        self.h = h

    def image(self, x, y):
        """rho(x*e1 + y*e2) = g^x h^y."""
        grp = self.group
        return grp.mul(grp.power(self.g, x), grp.power(self.h, y))

    def __eq__(self, other):
        return (
            isinstance(other, TorusRep)
            and self.group == other.group
            and (self.g, self.h) == (other.g, other.h)
        )

    def __hash__(self):
        return hash((self.group, self.g, self.h))

    def __repr__(self):
        return "TorusRep(g=%d, h=%d)" % (self.g, self.h)


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
        if _commutator_product(group, images) != 0:
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


def _commutator_product(group, images):
    """The product [g1, h1] ... [gg, hg] of images (g1, h1, ..., gg, hg)."""
    acc = 0
    for i in range(0, len(images), 2):
        acc = group.mul(acc, group.commutator(images[i], images[i + 1]))
    return acc


def _bundle_images(group, genus):
    """The image tuples of enumerate_bundles, lazily, in the same order.

    The size checks run at the call, before the first tuple is found: a
    genus whose 2g images alone exceed ENUMERATION_CAP is refused, and so
    is a count order**(2g) above it.  An order of 2 or more exceeds the
    cap once 2g reaches the cap's bit length, so the power is taken with
    the exponent cut there.
    """
    if genus < 1:
        raise KleinformError("genus must be at least 1")
    n, width = group.order, 2 * genus
    if width > ENUMERATION_CAP:
        raise KleinformError(
            "genus %d needs %d images per datum, over the cap %d" % (genus, width, ENUMERATION_CAP)
        )
    if n ** min(width, ENUMERATION_CAP.bit_length()) > ENUMERATION_CAP:
        raise KleinformError(
            "enumeration size %d**%d exceeds the cap %d" % (n, width, ENUMERATION_CAP)
        )
    return (images for images in product(group.elements, repeat=width)
            if _commutator_product(group, images) == 0)


def enumerate_bundles(group, genus):
    """All genus-g bundle data over the group, in lexicographic image order."""
    return [SurfaceRep(group, genus, images) for images in _bundle_images(group, genus)]


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


def torus_orbits(group):
    """Conjugation orbits of commuting pairs: sorted (least pair, size, stabilizer).

    The lexicographic scan meets each orbit first at its least member; the
    stabilizer is that pair's joint centralizer, as a sorted tuple.
    """
    seen = set()
    rows = []
    for g in group.elements:
        for h in group.elements:
            if (g, h) in seen or not group.commutes(g, h):
                continue
            orbit = {(group.conj(z, g), group.conj(z, h)) for z in group.elements}
            seen |= orbit
            rows.append(((g, h), len(orbit), centralizer(group, (g, h))))
    return rows


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


def r_diff(rep, alpha, matrix):
    """Character-style pairing of a rep with a mapping-class matrix M.

    The value is c(M e2, M e1), where c(a, b) = gamma(a, b) - gamma(b, a)
    for gamma any normalized lift of alpha pulled back along rho = (g, h)
    (lifts.lift_gamma builds one); when M stabilizes the rep it is the
    character value at M.  It is read off alpha alone.  Three instances
    of the lift's defining identity give

        c(a+b, x) = c(a, x) + c(b, x)
                    + alpha(rho a, rho b, rho x) + alpha(rho x, rho a, rho b)
                    - alpha(rho a, rho x, rho b),

    and c(0, x) = 0, c(e2, e1) = 0 by normalization, so every normalized
    lift has the same c.  At the generators:

        T: c(e1+e2, e1) = alpha(g, h, g)
        S: c(-e1, e2) = alpha(g, h, g^-1) - alpha(g, g^-1, h) - alpha(h, g, g^-1)

    r_diff is the 1-cocycle of the SL2(Z) action on commuting pairs
    (Freed-Quinn, CMP 156, 1993): r(rep, A B) = r(rep, A) + r(rep.A, B),
    with (g, h).S = (h, g^-1) and (g, h).T^q = (g, g^q h).  So Euclid's
    algorithm on the first column peels S or T^q, q = a // c, off M until
    M = T^b.  T^q sums the letters alpha(g, x, g) for x = g^j h, j >= 0
    (from x = g^q h, negated, when q < 0); rep.T^n = rep for n = ord(g), so
    letter j recurs |q| // n + (j < |q| % n) times.  The sum runs in
    integers over alpha's common denominator.
    """
    _check_alpha_for(rep.group, alpha)
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


def dehn_character(group, element, alpha):
    """Value of the Dehn-twist character at a group element g of order n.

    It is r_diff at (g, 1) against T^n: the sum of alpha(g, g^j, g) over
    j < n.  The tests check it against that sum and the closed lift.
    """
    _check_alpha_for(group, alpha)
    element = int(element)
    if not (0 <= element < group.order):
        raise KleinformError("element index outside the group")
    twist = SL2Z(1, group.order_of(element), 0, 1)
    return r_diff(TorusRep(group, element, 0), alpha, twist)


def klein_character(n, level, matrix):
    """The closed form of the Klein character on Gamma1(n).

    Equals level * b / n^2 mod 1.  Raises when the matrix is not in
    Gamma1(n); r_diff reproduces this value on congruence matrices, which
    is a theorem the tests exercise.
    """
    if n < 1:
        raise KleinformError("klein_character needs n >= 1")
    if not in_gamma1(matrix, n):
        raise KleinformError("matrix not in Gamma1(%d)" % n)
    return QZ(level * matrix.b, n * n)


def _holonomy_scaled(group, tab, g, h, z):
    """holonomy_cocycle_R at (g, h) and z, as an integer over alpha's L."""
    n = group.order
    cg, ch = group.conj(z, g), group.conj(z, h)
    return (tab[(z * n + g) * n + h] - tab[(z * n + h) * n + g]
            + tab[(cg * n + ch) * n + z] - tab[(ch * n + cg) * n + z]
            - tab[(cg * n + z) * n + h] + tab[(ch * n + z) * n + g])


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
    z = int(z)
    if not (0 <= z < rep.group.order):
        raise KleinformError("conjugating element outside the group")
    return QZ(_holonomy_scaled(rep.group, alpha.ints, rep.g, rep.h, z), alpha.L)


def sections_dimension(group, alpha):
    """Number of conjugation orbits of torus reps with vanishing stabilizer character.

    For each row of torus_orbits, holonomy_cocycle_R at the least pair is
    read in integers over alpha's common denominator at every element of
    the stabilizer; orbits where it vanishes throughout are counted.
    """
    _check_alpha_for(group, alpha)
    L, tab = alpha.L, alpha.ints
    return sum(
        all(_holonomy_scaled(group, tab, g, h, z) % L == 0 for z in stab)
        for (g, h), _, stab in torus_orbits(group)
    )
