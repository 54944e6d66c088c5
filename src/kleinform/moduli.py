"""Moduli of flat surface bundles and their mapping-class characters.

A genus-g bundle over a finite structure group G is an image tuple
(g1, h1, ..., gg, hg) with vanishing total commutator (enumerate_bundles);
G acts by conjugation (orbit_stabilizer, tabulated at genus one by
torus_orbits), and SL2(Z) acts on commuting pairs (TorusRep) through the
plane.  r_diff (the character against a matrix, whose T^ord block is
dehn_character) and the conjugation holonomy are defined through a
normalized lift of the pulled-back three-cocycle, but the lift cancels
out of each: they are read from alpha's integer table over its common
denominator: three lookups per S step and at most ord(g) per T^q block
of the matrix's Euclid word, six per conjugating element.
sections_dimension reads the holonomy only at stabilizer elements, where
it is alternating in the commuting triple (g, h, z): six lookups once per
triple g < h < z of distinct non-identity elements mark the non-flat
pairs, and the flat pairs add up their stabilizer sizes.
klein_character is the closed form r_diff takes on Gamma1(n).  The tests
keep the lift route (lifts.py, which imports this module, never the
reverse) as the reference.
"""

from itertools import product

from .cochains import Cochain, is_closed_normalized
from .errors import KleinformError, ValidationError, exact_int, exact_ints
from .qz import QZ

ENUMERATION_CAP = 10**7


class TorusRep:
    """A homomorphism Z^2 -> G, given by the commuting images g, h of e1, e2."""

    __slots__ = ("group", "g", "h")

    def __init__(self, group, g, h):
        g, h = exact_int(g, "rep image"), exact_int(h, "rep image")
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
        a, b = exact_int(a, "matrix entry"), exact_int(b, "matrix entry")
        c, d = exact_int(c, "matrix entry"), exact_int(d, "matrix entry")
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
        e = exact_int(e, "exponent")
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
    n = exact_int(n, "Gamma1 level")
    if n < 1:
        raise KleinformError("Gamma1 needs n >= 1")
    return (matrix.a - 1) % n == 0 and matrix.b % n == 0


def _commutator_product(group, images):
    """The product [g1, h1] ... [gg, hg] of images (g1, h1, ..., gg, hg)."""
    acc = 0
    for i in range(0, len(images), 2):
        acc = group.mul(acc, group.commutator(images[i], images[i + 1]))
    return acc


def enumerate_bundles(group, genus):
    """All genus-g bundle data over the group, lazily, in lexicographic order.

    Each datum is an image tuple (g1, h1, ..., gg, hg) with vanishing total
    commutator.  The size checks run at the call, before the first tuple
    is found: a genus whose 2g images alone exceed ENUMERATION_CAP is
    refused, and so is a count order**(2g) above it.  An order of 2 or
    more exceeds the cap once 2g reaches the cap's bit length, so the
    power is taken with the exponent cut there.
    """
    genus = exact_int(genus, "genus")
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


def orbit_stabilizer(group, images):
    """Simultaneous-conjugation orbit and joint stabilizer of a bundle datum.

    images is a datum as enumerate_bundles yields it: a nonempty tuple
    (g1, h1, ..., gg, hg) of integer images with vanishing total
    commutator, checked here.  Returns (orbit, stabilizer): the orbit's
    image tuples sorted, the stabilizer as a sorted tuple of group elements.
    """
    images = exact_ints(images, "image")
    if not images:
        raise ValidationError("genus must be at least 1")
    if len(images) % 2:
        raise ValidationError("a bundle datum needs an even number of images, got %d"
                              % len(images))
    for v in images:
        if not (0 <= v < group.order):
            raise ValidationError("image %d outside the group" % v)
    if _commutator_product(group, images) != 0:
        raise ValidationError("commutator product is not the identity")
    seen = set()
    stab = []
    for z in group.elements:
        conj = tuple(group.conj(z, x) for x in images)
        seen.add(conj)
        if conj == images:
            stab.append(z)
    return sorted(seen), tuple(stab)


def torus_orbits(group):
    """Conjugation orbits of commuting pairs: sorted (least pair, size, stabilizer).

    The rows are orbit_stabilizer's over the genus-1 data, which
    enumerate_bundles yields in lexicographic order, so each orbit is
    met first at its least member.
    """
    seen = set()
    rows = []
    for pair in enumerate_bundles(group, 1):
        if pair not in seen:
            orbit, stab = orbit_stabilizer(group, pair)
            seen.update(orbit)
            rows.append((pair, len(orbit), stab))
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
    if alpha.group is not group and alpha.group != group:
        raise KleinformError("cochain lives on a different group")
    if not is_closed_normalized(alpha):
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
    algorithm on the first column peels S or T^q off M until M = T^b and
    sums the letters: S while |a| < |c|, and twice at M = -T^b = S S T^b
    (c = 0, a = -1).  The law gives the same value for every factorization
    of M, so any q with |a - q c| < |c| will do; q = floor((2a + c) / 2c),
    the integer nearest a / c (halves round up), leaves |a| <= |c| / 2,
    and the S step after it makes that the new |c|.  So |c| halves from
    one T block to the next: with B the bit length of max(|a|, |c|), at
    most B blocks with c != 0, each followed by an S, one S before them,
    two at -T^b and the last block make 2B + 4 steps.  a^2 + c^2 has at
    least 2B - 1 bits, so the loop is bounded at its bit length plus 5 and
    raises past it.

    T^q sums the letters alpha(g, g^j h, g) over 0 <= j < q, or minus
    those over q <= j < 0; call that P(q).  rep.T^k = rep for k = ord(g),
    so with C = P(k), P(q) = (q // k) C + P(q % k) for every integer q:
    both sides grow by C when q goes to q + k, and they agree on
    0 <= q < k.  So a block walks the row table[g] through s = q % k
    letters from h to g^s h = g^q h, the new h, and through the other
    k - s letters, for C, only when q // k != 0: at most ord(g) table
    steps whatever the size or sign of q.  The loop reads the group's
    flat table, inverses and orders, and sums in integers over alpha's
    common denominator.
    """
    _check_alpha_for(rep.group, alpha)
    grp = rep.group
    n, table, inverses, orders = grp.order, grp.table, grp.inverses, grp.orders
    L, tab = alpha.L, alpha.ints
    g, h = rep.g, rep.h
    a, b, c, d = matrix.a, matrix.b, matrix.c, matrix.d
    acc = 0
    for _ in range((a * a + c * c).bit_length() + 5):
        # S while |a| < |c|, and twice at M = -T^b (c = 0, a = -1)
        if (-c < a < c) if c > 0 else (c < a < -c) if c else a < 0:
            gi = inverses[g]
            acc += (tab[(g * n + h) * n + gi] - tab[(g * n + gi) * n + h]
                    - tab[(h * n + g) * n + gi])
            g, h, a, b, c, d = h, gi, c, d, -a, -b
            continue
        q = (a + a + c) // (c + c) if c else b
        row, col, k = table[g], g * n * n + g, orders[g]
        r, s = q // k, q % k
        t = 0
        for _ in range(s):
            t += tab[col + h * n]
            h = row[h]
        if r:
            cycle, x = t, h
            for _ in range(k - s):
                cycle += tab[col + x * n]
                x = row[x]
            t += r * cycle
        acc += t
        if not c:
            return QZ(acc, L)
        a, b = a - q * c, b - q * d
    raise KleinformError("internal error: the Euclid walk on %r did not end" % (matrix,))


def dehn_character(group, element, alpha):
    """Value of the Dehn-twist character at a group element g of order n.

    It is r_diff at (g, 1) against T^n: the sum of alpha(g, g^j, g) over
    j < n.  The tests check it against that sum and the closed lift.
    """
    _check_alpha_for(group, alpha)
    element = exact_int(element, "element")
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
    n, level = exact_int(n, "Gamma1 level"), exact_int(level, "level")
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
    (e1, e2) equal the value at (e2, e1), and every lift is checked for
    it), and
    conjugate_lift adds beta(a, b) = alpha(z, rho a, rho b)
    + alpha(z rho(a) z^-1, z rho(b) z^-1, z) - alpha(z rho(a) z^-1, z, rho b).
    So the conjugate's asymmetry is beta(e1, e2) - beta(e2, e1); with
    rho e1 = g and rho e2 = h that is the expression above, and the lift
    cancels.  The tests keep the lift route as the oracle.
    """
    _check_alpha_for(rep.group, alpha)
    z = exact_int(z, "conjugating element")
    if not (0 <= z < rep.group.order):
        raise KleinformError("conjugating element outside the group")
    grp, tab, g, h = rep.group, alpha.ints, rep.g, rep.h
    n = grp.order
    cg, ch = grp.conj(z, g), grp.conj(z, h)
    return QZ(tab[(z * n + g) * n + h] - tab[(z * n + h) * n + g]
              + tab[(cg * n + ch) * n + z] - tab[(ch * n + cg) * n + z]
              - tab[(cg * n + z) * n + h] + tab[(ch * n + z) * n + g], alpha.L)


def sections_dimension(group, alpha):
    """Number of conjugation orbits of torus reps with vanishing stabilizer character.

    A stabilizer element z of rho = (g, h), in C(g) & C(h), fixes g and h,
    so holonomy_cocycle_R(rho, z) loses its conjugations and is

        T(g, h, z) = alpha(z, g, h) - alpha(z, h, g) + alpha(g, h, z)
                     - alpha(h, g, z) - alpha(g, z, h) + alpha(h, z, g),

    the sum of sign(s) alpha(s(g, h, z)) over the permutations s.  A
    transposition of the arguments permutes the terms and flips every
    sign, so T is alternating: 0 with a repeated argument, +-T at the
    sorted arguments, and 0 with an identity argument since alpha is
    normalized.  So rho is non-flat exactly when T is nonzero modulo L at
    the sorted g, h, z for some z, all three distinct, non-identity and
    pairwise commuting.  The count reads T (six lookups in alpha's
    integer table) once per such triple g < h < z and, when it is
    nonzero, marks the triple's three pairs in the masks hot[x] (bit y
    for the pair (x, y)).

    A flat pair adds |C(g) & C(h)|, a popcount of two centralizer masks,
    and the total over |G| is the count: flatness is constant on an
    orbit, since the holonomy's 1-cocycle law on z s = (z s z^-1) z, for
    s fixing rho, gives hol(z rho, z s z^-1) = hol(rho, s), and an orbit
    has |G| / |C(g) & C(h)| members.
    """
    _check_alpha_for(group, alpha)
    n, L, tab, table = group.order, alpha.L, alpha.ints, group.table
    nn = n * n
    cent = [[x for x in range(n) if row[x] == table[x][g]] for g, row in enumerate(table)]
    mask = [sum([1 << x for x in c]) for c in cent]
    hot = [0] * n
    for g in range(1, n):
        # h runs over C(g) above g and z over C(g) & C(h) above h, so the
        # last element of C(g) has no z
        cg, gn = cent[g], g * nn
        for i in range(cg.index(g) + 1, len(cg) - 1):
            h = cg[i]
            mh, hn, gh, hg = mask[h], h * nn, (g * n + h) * n, (h * n + g) * n
            bad = [z for z in cg[i + 1:] if mh >> z & 1
                   and (tab[(z * n + g) * n + h] - tab[(z * n + h) * n + g] + tab[gh + z]
                        - tab[hg + z] - tab[gn + z * n + h] + tab[hn + z * n + g]) % L]
            if bad:
                hot[g] |= 1 << h
                hot[h] |= 1 << g
                for z in bad:
                    hot[g] |= 1 << z
                    hot[h] |= 1 << z
                    hot[z] |= 1 << g | 1 << h
    return sum([(mask[g] & mask[h]).bit_count()
                for g, cg in enumerate(cent) for h in cg if not hot[g] >> h & 1]) // n
