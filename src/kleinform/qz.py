"""Exact circle-group arithmetic.

Phases live in Q/Z written additively: the class of p/q stands for the
unit complex number exp(2*pi*i*p/q), and multiplying phases becomes adding
residues mod 1.  Every value is kept as the reduced representative in
[0, 1), so equality of residues is structural equality and no tolerance
ever enters.

A value is stored as two ints p, q with 0 <= p < q and gcd(p, q) = 1.
Built from two ints, it is reduced by one % and one gcd; the arithmetic
works on these pairs, and a lone int is the zero residue.  Fraction
appears only where a caller hands one in or asks for one: a Fraction,
bool or str argument is read through Fraction (a QZ argument is copied,
and refused with a denominator) and as_fraction() returns one.  The
fractions module is imported in those branches alone, so a process that
only works with ints and QZ values never loads it (nor decimal and
numbers, which it pulls in).  The hash
is Python's documented hash of the rational p/q, p times the inverse of
q modulo sys.hash_info.modulus (or sys.hash_info.inf when the modulus
divides q), so a value hashes as the Fraction(p, q) and int it compares
equal to.
"""

from math import gcd
from sys import hash_info

from .errors import ValidationError

_HASH_MODULUS, _HASH_INF = hash_info.modulus, hash_info.inf


def parse_residue(text):
    """The reduced pair (p, q), 0 <= p < q, of "p/q" or of a bare integer string.

    A bare integer is the zero residue (0, 1).  Raises ValueError on
    malformed text, a zero denominator included.
    """
    text = text.strip()
    num, slash, den = text.partition("/")
    p, q = int(num), int(den) if slash else 1
    if not q:
        raise ValueError("zero denominator in %r" % text)
    if q < 0:
        p, q = -p, -q
    p %= q
    g = gcd(p, q)
    return p // g, q // g


class QZ:
    """A rational residue mod 1, stored as the reduced pair (p, q) with 0 <= p/q < 1."""

    __slots__ = ("_p", "_q")

    def __init__(self, numerator=0, denominator=None):
        if type(numerator) is int:
            if type(denominator) is int:
                if denominator < 0:
                    numerator, denominator = -numerator, -denominator
                elif not denominator:
                    raise ZeroDivisionError("Fraction(%d, 0)" % numerator)
                p = numerator % denominator
                g = gcd(p, denominator)
                self._p, self._q = p // g, denominator // g
                return
            if denominator is None:
                # an integer is the zero residue
                self._p, self._q = 0, 1
                return
        if isinstance(numerator, QZ):
            if denominator is not None:
                # x/q in Q/Z has q answers, so no one of them is returned
                raise ValidationError("QZ takes no denominator with a QZ numerator")
            self._p, self._q = numerator._p, numerator._q
            return
        if isinstance(numerator, float) or isinstance(denominator, float):
            raise ValidationError("QZ takes exact numbers, not a float")
        from fractions import Fraction
        if denominator is None:
            frac = Fraction(numerator) % 1
        else:
            frac = Fraction(numerator, denominator) % 1
        self._p, self._q = frac.numerator, frac.denominator

    @property
    def numerator(self):
        return self._p

    @property
    def denominator(self):
        return self._q

    def as_fraction(self):
        """The canonical representative in [0, 1) as a Fraction."""
        from fractions import Fraction
        return Fraction(self._p, self._q)

    @classmethod
    def from_str(cls, text):
        """Parse "p/q" or a bare integer string (which is always the zero residue).

        Raises ValueError on malformed text, a zero denominator included.
        """
        return cls(*parse_residue(text))

    def __add__(self, other):
        if not isinstance(other, (QZ, int)):
            from fractions import Fraction
            if not isinstance(other, Fraction):
                return NotImplemented
        d = other.denominator
        return QZ(self._p * d + other.numerator * self._q, self._q * d)

    __radd__ = __add__

    def __sub__(self, other):
        if not isinstance(other, (QZ, int)):
            from fractions import Fraction
            if not isinstance(other, Fraction):
                return NotImplemented
        d = other.denominator
        return QZ(self._p * d - other.numerator * self._q, self._q * d)

    def __neg__(self):
        return QZ(-self._p, self._q)

    def __mul__(self, k):
        # scale by an integer; this is the k-fold sum, so only int makes sense
        if isinstance(k, int):
            return QZ(self._p * k, self._q)
        return NotImplemented

    __rmul__ = __mul__

    def halve(self):
        """The canonical half: p/q goes to p/(2q), reduced.

        Doubling the result gives back self, and the convention picks one of
        the two possible halves once and for all.
        """
        return QZ(self._p, 2 * self._q)

    def __bool__(self):
        return self._p != 0

    def __eq__(self, other):
        if isinstance(other, QZ):
            return self._p == other._p and self._q == other._q
        if not isinstance(other, int):
            from fractions import Fraction
            if not isinstance(other, Fraction):
                return NotImplemented
        other %= 1
        return self._p == other.numerator and self._q == other.denominator

    def __hash__(self):
        # Python's hash of the rational p/q for p >= 0, as Fraction(p, q) has it
        if self._q % _HASH_MODULUS:
            return self._p * pow(self._q, -1, _HASH_MODULUS) % _HASH_MODULUS
        return _HASH_INF

    def __str__(self):
        if not self._p:
            return "0"
        return "%d/%d" % (self._p, self._q)

    def __repr__(self):
        return "QZ(%d, %d)" % (self._p, self._q)
