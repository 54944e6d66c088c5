import random
import sys
from fractions import Fraction

import pytest

from kleinform.cochains import Cochain
from kleinform.errors import ValidationError
from kleinform.groupoid_lines import FiniteGroupoidPresentation, GroupoidCocycle
from kleinform.groups import cyclic
from kleinform.intmat import solve_sparse
from kleinform.qz import QZ


def test_canonical_representative():
    assert str(QZ(1, 2)) == "1/2"
    assert str(QZ(3, 2)) == "1/2"
    assert str(QZ(-1, 2)) == "1/2"
    assert str(QZ(-1, 3)) == "2/3"
    assert str(QZ(7)) == "0"
    assert str(QZ(0, 5)) == "0"
    assert str(QZ(9, 6)) == "1/2"
    assert QZ(QZ(2, 3)) == QZ(2, 3)
    assert QZ(5, -3) == QZ(1, 3) and QZ(-5, -3) == QZ(2, 3)


def test_reduced_parts():
    x = QZ(4, 6)
    assert (x.numerator, x.denominator) == (2, 3)
    assert (QZ(5).numerator, QZ(5).denominator) == (0, 1)
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
    assert sum([QZ(1, 2), QZ(1, 3)]) == QZ(5, 6)
    assert QZ(1, 2) - 3 == QZ(1, 2)
    assert QZ(1, 3) - QZ(1, 2) == QZ(5, 6)
    assert -QZ(1, 3) == QZ(2, 3)
    assert 5 * QZ(1, 3) == QZ(2, 3)
    assert QZ(1, 3) * (-1) == QZ(2, 3)
    assert QZ(1, 6) * 6 == QZ(0)
    for other in (Fraction(1, 3), 0.5, "1/3", True, False):
        for op in (lambda x, y: x + y, lambda x, y: y + x, lambda x, y: x - y):
            with pytest.raises(TypeError):
                op(QZ(1, 2), other)


def test_int_multiplication_only():
    with pytest.raises(TypeError):
        QZ(1, 2) * QZ(1, 2)
    with pytest.raises(TypeError):
        QZ(1, 2) * 0.5
    for k in (True, False):
        with pytest.raises(TypeError):
            QZ(1, 2) * k
        with pytest.raises(TypeError):
            k * QZ(1, 2)


def test_floats_rejected():
    # QZ takes ints or a QZ: a float, bool, str or Fraction is refused in
    # either place (text goes through from_str), and so is a QZ over a
    # denominator, since division in Q/Z has q answers
    for args, bad in (((0.5,), "0.5"), ((0.1,), "0.1"), ((0.5, 2), "0.5"), ((1, 2.0), "2.0"),
                      ((float("nan"),), "nan"), ((True,), "True"), ((False,), "False"),
                      ((True, 2), "True"), ((1, True), "True"), (("1/2",), "'1/2'"),
                      (("3",), "'3'"), ((1, "2"), "'2'"), ((Fraction(1, 2),), r"Fraction\(1, 2\)"),
                      ((Fraction(7, 3), 2), r"Fraction\(7, 3\)"),
                      ((1, Fraction(2)), r"Fraction\(2, 1\)"), ((None,), "None")):
        message = "^QZ takes an int, two ints or a QZ, not %s$" % bad
        with pytest.raises(ValidationError, match=message):
            QZ(*args)
    with pytest.raises(ValidationError, match="no denominator with a QZ numerator"):
        QZ(QZ(1, 2), 3)


def test_every_entry_refuses_what_qz_refuses():
    # each entry that converts its values through QZ refuses a float, a
    # Fraction, a bool and a str with ValidationError
    z2 = cyclic(2)
    pres = FiniteGroupoidPresentation(1, [(0, 0, "e")], {("e", "e"): "e"})
    entries = (
        QZ,
        lambda v: Cochain(z2, 1, [QZ(0), v]),
        lambda v: Cochain.from_function(z2, 1, lambda g: v if g else QZ(0)),
        lambda v: GroupoidCocycle(pres, {"e": v}),
        lambda v: solve_sparse([{0: 1}], 1, [v]),
    )
    for entry in entries:
        for bad in (0.5, Fraction(1, 2), True, "1/2"):
            with pytest.raises(ValidationError):
                entry(bad)


def test_zero_denominator_rejected():
    with pytest.raises(ZeroDivisionError, match=r"^QZ\(1, 0\)$"):
        QZ(1, 0)
    with pytest.raises(ZeroDivisionError, match=r"^QZ\(-3, 0\)$"):
        QZ(-3, 0)


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
    # a QZ equals only a QZ: not the int or Fraction in its class
    assert not QZ(0) and QZ(0) == QZ(3)
    assert QZ(0) != 3
    assert QZ(1, 2) != QZ(0)
    assert QZ(1, 2) == QZ(3, 2)
    assert QZ(1, 2) != Fraction(3, 2)
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
    assert type(x) is QZ
    assert (x.numerator, x.denominator) == (ref.numerator, ref.denominator)
    assert Fraction(x.numerator, x.denominator) == ref
    assert x == QZ(ref.numerator, ref.denominator) == QZ(frac.numerator, frac.denominator)
    assert bool(x) == bool(ref)
    assert str(x) == ("0" if ref == 0 else "%d/%d" % (ref.numerator, ref.denominator))
    assert QZ.from_str(str(x)) == x
    assert hash(x) == hash(QZ(ref.numerator + 5 * ref.denominator, ref.denominator))


def test_every_operation_matches_fraction():
    rnd = random.Random(3)
    for _ in range(400):
        (a, b), (c, d) = _numbers(rnd), _numbers(rnd)
        fx, fy = Fraction(a, b), Fraction(c, d)
        x, y = QZ(a, b), QZ(c, d)
        _matches(x, fx)
        # a lone int is the zero residue; text is read by from_str
        _matches(QZ(a), Fraction(a))
        _matches(QZ(b), Fraction(b))
        _matches(QZ(a * b * 2**64), Fraction(0))
        _matches(QZ.from_str(str(a)), Fraction(a))
        _matches(QZ.from_str(str(fx)), fx)
        _matches(QZ(x), fx)
        _matches(QZ(QZ(a, b)), fx)
        _matches(x + y, fx + fy)
        _matches(x - y, fx - fy)
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
        assert (x == QZ(c)) == (fx % 1 == 0)
        assert x != c and x != fx


def test_equal_values_hash_equal():
    """Wherever two values compare equal their hashes agree, over a grid of
    QZ values, ints and Fractions with denominators at and around
    sys.hash_info.modulus.  A QZ equals no int and no Fraction, not even
    one in its class."""
    modulus = sys.hash_info.modulus
    dens = [1, 2, 3, 6, modulus - 1, modulus, modulus + 1, 2 * modulus, modulus * modulus,
            2**61, 2**64 + 1]
    grid = [0, 1, -1, 5, modulus, modulus + 1]
    for q in dens:
        for p in (0, 1, q - 1, q + 1, 2 * q + 1, -1, modulus):
            grid += [QZ(p, q), Fraction(p, q)]
    for x in grid:
        for y in grid:
            if x == y:
                assert hash(x) == hash(y), (x, y)
    assert QZ(0) != 0
    assert QZ(1, 3) != Fraction(1, 3)
    assert QZ(1, 3) != Fraction(4, 3)
    assert len({QZ(0), 0}) == 2
    assert len({QZ(1, 3), QZ(4, 3), QZ(-2, 3), Fraction(1, 3)}) == 2
    for q in dens:
        assert hash(QZ(1, q)) == hash(QZ(q + 1, q)) == hash((1 % q, q))
