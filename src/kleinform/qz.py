"""Exact circle-group arithmetic.

Phases live in Q/Z written additively: the class of p/q stands for the
unit complex number exp(2*pi*i*p/q), and multiplying phases becomes adding
residues mod 1.  Every value is kept as the reduced representative in
[0, 1), so equality of residues is structural equality and no tolerance
ever enters.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import ValidationError


class QZ:
    """A rational residue mod 1, stored as the reduced representative in [0, 1)."""

    __slots__ = ("_frac",)

    def __init__(self, numerator=0, denominator=None):
        if isinstance(numerator, QZ):
            frac = numerator._frac
        elif isinstance(numerator, float) or isinstance(denominator, float):
            raise ValidationError("QZ takes exact numbers, not a float")
        elif denominator is None:
            frac = Fraction(numerator)
        else:
            frac = Fraction(numerator, denominator)
        self._frac = frac % 1

    @property
    def numerator(self):
        return self._frac.numerator

    @property
    def denominator(self):
        return self._frac.denominator

    def as_fraction(self):
        """The canonical representative in [0, 1) as a Fraction."""
        return self._frac

    @classmethod
    def from_str(cls, text):
        """Parse "p/q" or a bare integer string (which is always the zero residue).

        Raises ValueError on malformed text, a zero denominator included.
        """
        text = text.strip()
        if "/" in text:
            num, den = text.split("/", 1)
            num, den = int(num), int(den)
            if not den:
                raise ValueError("zero denominator in %r" % text)
            return cls(num, den)
        return cls(int(text))

    def __add__(self, other):
        if isinstance(other, QZ):
            return QZ(self._frac + other._frac)
        if isinstance(other, (int, Fraction)):
            return QZ(self._frac + other)
        return NotImplemented

    __radd__ = __add__

    def __sub__(self, other):
        if isinstance(other, QZ):
            return QZ(self._frac - other._frac)
        if isinstance(other, (int, Fraction)):
            return QZ(self._frac - other)
        return NotImplemented

    def __neg__(self):
        return QZ(-self._frac)

    def __mul__(self, k):
        # scale by an integer; this is the k-fold sum, so only int makes sense
        if isinstance(k, int):
            return QZ(self._frac * k)
        return NotImplemented

    __rmul__ = __mul__

    def halve(self):
        """The canonical half: p/q goes to p/(2q), reduced.

        Doubling the result gives back self, and the convention picks one of
        the two possible halves once and for all.
        """
        return QZ(self._frac.numerator, 2 * self._frac.denominator)

    def __bool__(self):
        return self._frac != 0

    def __eq__(self, other):
        if isinstance(other, QZ):
            return self._frac == other._frac
        if isinstance(other, (int, Fraction)):
            return self._frac == other % 1
        return NotImplemented

    def __hash__(self):
        return hash(self._frac)

    def __str__(self):
        if self._frac == 0:
            return "0"
        return "%d/%d" % (self._frac.numerator, self._frac.denominator)

    def __repr__(self):
        return "QZ(%d, %d)" % (self._frac.numerator, self._frac.denominator)

