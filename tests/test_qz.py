import random
import sys
from fractions import Fraction

import pytest

from kleinform.errors import ValidationError
from kleinform.qz import QZ


def test_canonical_representative():
    assert str(QZ(1, 2)) == "1/2"
    assert str(QZ(3, 2)) == "1/2"
    assert str(QZ(-1, 2)) == "1/2"
    assert str(QZ(-1, 3)) == "2/3"
    assert str(QZ(7)) == "0"
    assert str(QZ(0, 5)) == "0"
    assert str(QZ(Fraction(9, 6))) == "1/2"
    assert QZ(QZ(2, 3)) == QZ(2, 3)
    assert QZ(5, -3) == QZ(1, 3) and QZ(-5, -3) == QZ(2, 3)
    # bool, str and Fraction arguments are read through Fraction
    assert QZ(True) == QZ(0) and QZ(True, 2) == QZ(1, 2) and QZ(1, True) == QZ(0)
    assert QZ("3/4") == QZ(3, 4) and QZ(" -1/6 ") == QZ(5, 6)
    assert QZ(Fraction(7, 3), 2) == QZ(7, 6)


def test_reduced_parts():
    x = QZ(4, 6)
    assert (x.numerator, x.denominator) == (2, 3)
    assert QZ(5).as_fraction() == Fraction(0)
    assert repr(QZ(-1, 4)) == "QZ(3, 4)"


def test_from_str():
    assert QZ.from_str("2/3") == QZ(2, 3)
    assert QZ.from_str("-1/4") == QZ(3, 4)
    assert QZ.from_str("3") == QZ(0)
    assert QZ.from_str(" 5/8 ") == QZ(5, 8)
    with pytest.raises(ValueError):
        QZ.from_str("a/b")
    with pytest.raises(ValueError):
        QZ.from_str("1/0")


def test_arithmetic():
    assert QZ(1, 2) + QZ(2, 3) == QZ(1, 6)
    assert QZ(1, 2) + 1 == QZ(1, 2)
    assert 1 + QZ(1, 2) == QZ(1, 2)
    assert QZ(1, 2) + Fraction(1, 3) == QZ(5, 6)
    assert QZ(1, 3) - QZ(1, 2) == QZ(5, 6)
    assert -QZ(1, 3) == QZ(2, 3)
    assert 5 * QZ(1, 3) == QZ(2, 3)
    assert QZ(1, 3) * (-1) == QZ(2, 3)
    assert QZ(1, 6) * 6 == QZ(0)


def test_int_multiplication_only():
    with pytest.raises(TypeError):
        QZ(1, 2) * QZ(1, 2)
    with pytest.raises(TypeError):
        QZ(1, 2) * 0.5


def test_floats_rejected():
    # a QZ over a denominator is refused too: division in Q/Z has q answers
    for args, message in (((0.1,), "float"), ((0.5, 2), "float"), ((1, 2.0), "float"),
                          ((float("nan"),), "float"),
                          ((QZ(1, 2), 3), "no denominator with a QZ numerator")):
        with pytest.raises(ValidationError, match=message):
            QZ(*args)


def test_zero_denominator_rejected():
    with pytest.raises(ZeroDivisionError, match=r"Fraction\(1, 0\)"):
        QZ(1, 0)
    with pytest.raises(ZeroDivisionError):
        QZ(True, 0)


def test_zero_constant():
    assert QZ(0) == QZ()
    assert QZ(0) + QZ(2, 5) == QZ(2, 5)


def test_halve():
    assert QZ(1, 2).halve() == QZ(1, 4)
    assert QZ(0).halve() == QZ(0)
    assert QZ(2, 3).halve() == QZ(1, 3)
    assert QZ(5, 7).halve() == QZ(5, 14)


def test_halving_then_doubling_recovers():
    rnd = random.Random(0)
    for _ in range(200):
        x = QZ(rnd.randrange(-30, 30), rnd.randrange(1, 30))
        assert 2 * x.halve() == x


def test_equality_and_hash_mod_one():
    assert QZ(0) == 0
    assert QZ(0) == 3
    assert QZ(1, 2) != 0
    assert QZ(1, 2) == Fraction(3, 2)
    assert hash(QZ(5, 10)) == hash(QZ(1, 2))
    assert bool(QZ(1, 7))
    assert not bool(QZ(14, 7))


def test_group_laws_random():
    rnd = random.Random(1)
    for _ in range(300):
        x = QZ(rnd.randrange(-40, 40), rnd.randrange(1, 40))
        y = QZ(rnd.randrange(-40, 40), rnd.randrange(1, 40))
        z = QZ(rnd.randrange(-40, 40), rnd.randrange(1, 40))
        assert x + y == y + x
        assert (x + y) + z == x + (y + z)
        assert x + (-x) == QZ(0)
        assert x - y == x + (-y)
        k = rnd.randrange(-6, 7)
        assert k * x == sum((x for _ in range(abs(k))), QZ(0)) * (1 if k >= 0 else -1)


def test_str_round_trip_random():
    rnd = random.Random(2)
    for _ in range(100):
        x = QZ(rnd.randrange(-50, 50), rnd.randrange(1, 50))
        assert QZ.from_str(str(x)) == x


def _numbers(rnd):
    """A random numerator and nonzero denominator, some of them above 2**64."""
    bound = rnd.choice((10, 1000, 2**70))
    den = 0
    while not den:
        den = rnd.randrange(-bound, bound)
    return rnd.randrange(-3 * bound, 3 * bound), den


def _matches(x, frac):
    """x is the residue of frac: every reading of x agrees with frac % 1."""
    ref = frac % 1
    assert (x.numerator, x.denominator) == (ref.numerator, ref.denominator)
    assert x.as_fraction() == ref and type(x.as_fraction()) is Fraction
    assert x == ref and x == frac and x == ref + 5
    assert bool(x) == bool(ref)
    assert str(x) == ("0" if ref == 0 else "%d/%d" % (ref.numerator, ref.denominator))
    assert QZ.from_str(str(x)) == x
    assert hash(x) == hash(ref)


def test_every_operation_matches_fraction():
    rnd = random.Random(3)
    for _ in range(400):
        (a, b), (c, d) = _numbers(rnd), _numbers(rnd)
        fx, fy = Fraction(a, b), Fraction(c, d)
        x, y = QZ(a, b), QZ(c, d)
        _matches(x, fx)
        # a lone int is the zero residue; bool, str and Fraction still go through Fraction
        _matches(QZ(a), Fraction(a))
        _matches(QZ(b), Fraction(b))
        _matches(QZ(a * b * 2**64), Fraction(0))
        _matches(QZ(a > 0), Fraction(a > 0))
        _matches(QZ(str(a)), Fraction(a))
        _matches(QZ(str(fx)), fx)
        _matches(QZ(fx), fx)
        _matches(QZ(x), fx)
        _matches(QZ(QZ(a, b)), fx)
        _matches(x + y, fx + fy)
        _matches(x - y, fx - fy)
        _matches(x + fy, fx + fy)
        _matches(fy + x, fx + fy)
        _matches(x - fy, fx - fy)
        _matches(x + c, fx + c)
        _matches(c + x, fx + c)
        _matches(x - c, fx - c)
        _matches(-x, -fx)
        k = rnd.randrange(-2**66, 2**66)
        _matches(k * x, k * fx)
        _matches(x * k, k * fx)
        ref = fx % 1
        _matches(x.halve(), Fraction(ref.numerator, 2 * ref.denominator))
        assert (x == y) == (fx % 1 == fy % 1)
        assert (x == c) == (fx % 1 == 0)


def test_hash_is_the_rational_hash():
    """hash(QZ(p, q)) is Python's hash of the rational p/q: p times the
    inverse of q modulo sys.hash_info.modulus, or sys.hash_info.inf where
    the modulus divides q.  It agrees with hash(Fraction(p, q)), q equal
    to the modulus and to twice it included."""
    modulus = sys.hash_info.modulus
    rnd = random.Random(5)
    dens = [1, 2, 3, modulus - 1, modulus, modulus + 1, 2 * modulus, 3 * modulus,
            modulus * modulus, 2**61, 2**64 + 1]
    dens += [rnd.randrange(1, bound) for bound in (10, 1000, 2**70) for _ in range(100)]
    for q in dens:
        for _ in range(5):
            p = rnd.randrange(-3 * q, 3 * q)
            x = QZ(p, q)
            assert hash(x) == hash(Fraction(p, q) % 1) == hash(x.as_fraction())
    for q in (modulus, 2 * modulus):
        assert hash(QZ(1, q)) == hash(Fraction(1, q)) == sys.hash_info.inf
    assert hash(QZ(0)) == hash(0) and hash(QZ(3, 2)) == hash(Fraction(1, 2))
    assert len({QZ(1, 3), Fraction(1, 3), QZ(4, 3)}) == 1
