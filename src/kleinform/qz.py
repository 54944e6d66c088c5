"""Exact circle-group arithmetic.

Phases live in Q/Z written additively: the class of p/q stands for the
unit complex number exp(2*pi*i*p/q), and multiplying phases becomes adding
residues mod 1.  Every value is kept as the reduced representative in
[0, 1), so equality of residues is structural equality and no tolerance
ever enters.

A value is stored as two ints p, q with 0 <= p < q and gcd(p, q) = 1.
QZ is a closed type.  QZ(p, q) takes two ints and reduces them by one %
and one gcd, QZ(n) takes one int and is the zero residue, QZ() is zero
and QZ(x) copies a QZ; any other argument (a float, a bool, a str, a
rational of another type, or a QZ with a denominator) is refused with
ValidationError.  Text is read by QZ.from_str and parse_residue alone.
+ and - take a QZ or an int (the zero residue, so sum() works), * takes
an int, and every result is a QZ; an int is a value of type int, so a
bool is refused here as in QZ(...).  A QZ equals only a QZ with the same
pair, and it hashes as that pair.
"""

from math import gcd

from .errors import ValidationError


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
                    raise ZeroDivisionError("QZ(%d, 0)" % numerator)
                p = numerator % denominator
                g = gcd(p, denominator)
                self._p, self._q = p // g, denominator // g
                return
            if denominator is None:
                # an integer is the zero residue
                self._p, self._q = 0, 1
                return
        elif isinstance(numerator, QZ):
            if denominator is None:
                self._p, self._q = numerator._p, numerator._q
                return
            # x/q in Q/Z has q answers, so no one of them is returned
            raise ValidationError("QZ takes no denominator with a QZ numerator")
        bad = denominator if type(numerator) is int else numerator
        raise ValidationError("QZ takes an int, two ints or a QZ, not %r" % (bad,))

    @property
    def numerator(self):
        return self._p

    @property
    def denominator(self):
        return self._q

    @classmethod
    def from_str(cls, text):
        """Parse "p/q" or a bare integer string (which is always the zero residue).

        Raises ValueError on malformed text, a zero denominator included.
        """
        return cls(*parse_residue(text))

    def __add__(self, other):
        if not (isinstance(other, QZ) or type(other) is int):
            return NotImplemented
        d = other.denominator
        return QZ(self._p * d + other.numerator * self._q, self._q * d)

    __radd__ = __add__

    def __sub__(self, other):
        if not (isinstance(other, QZ) or type(other) is int):
            return NotImplemented
        d = other.denominator
        return QZ(self._p * d - other.numerator * self._q, self._q * d)

    def __neg__(self):
        return QZ(-self._p, self._q)

    def __mul__(self, k):
        # scale by an integer; this is the k-fold sum, so only int makes sense
        if type(k) is int:
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
        return NotImplemented

    def __hash__(self):
        return hash((self._p, self._q))

    def __str__(self):
        if not self._p:
            return "0"
        return "%d/%d" % (self._p, self._q)

    def __repr__(self):
        return "QZ(%d, %d)" % (self._p, self._q)
