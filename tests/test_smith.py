"""Tests of `kleinform.intmat`: xgcd and the sparse Q/Z solver."""

import random
from fractions import Fraction

import pytest

from kleinform.errors import KleinformError, ValidationError
from kleinform.intmat import solve_sparse, xgcd
from kleinform.qz import QZ


def test_xgcd_literals():
    assert xgcd(12, 18) == (6, -1, 1)
    g, x, y = xgcd(0, 0)
    assert g == 0
    for a, b in [(5, 0), (0, 7), (-4, 6), (21, -14), (-9, -6)]:
        g, x, y = xgcd(a, b)
        assert g >= 0
        assert a % g == 0 and b % g == 0
        assert a * x + b * y == g


def test_xgcd_random():
    rnd = random.Random(3)
    for _ in range(300):
        a = rnd.randrange(-500, 500)
        b = rnd.randrange(-500, 500)
        g, x, y = xgcd(a, b)
        assert a * x + b * y == g
        if a or b:
            assert g > 0
            assert a % g == 0 and b % g == 0


def _dense_solve(rows, rhs):
    """solve_sparse on a dense list of integer rows."""
    ncols = len(rows[0]) if rows else 0
    sparse = [{c: v for c, v in enumerate(row) if v} for row in rows]
    return solve_sparse(sparse, ncols, rhs)


def test_solve_single_coefficient():
    res = _dense_solve([[2]], [QZ(1, 2)])
    assert res.solvable
    assert res.solution == [QZ(1, 4)]


def test_solve_zero_row_certificate():
    res = _dense_solve([[0]], [QZ(1, 2)])
    assert not res.solvable
    assert res.solution is None
    assert res.row == 0
    assert res.residual == QZ(1, 2)


def test_solve_diagonal():
    res = _dense_solve([[2, 0], [0, 3]], [QZ(1, 2), QZ(1, 3)])
    assert res.solvable
    assert res.solution == [QZ(1, 4), QZ(1, 9)]


def test_solve_inconsistent_pair():
    res = _dense_solve([[1, 1], [1, 1]], [QZ(0), QZ(1, 2)])
    assert not res.solvable
    assert res.residual == QZ(1, 2)


def test_solve_dimension_mismatch():
    with pytest.raises(KleinformError):
        _dense_solve([[1, 0], [0, 1]], [QZ(0)])
    with pytest.raises(KleinformError):
        solve_sparse([{0: 1}], 1, [QZ(0), QZ(0)])


def test_sparse_column_out_of_range():
    with pytest.raises(KleinformError):
        solve_sparse([{3: 1}], 2, [QZ(0)])


def test_sparse_empty_rows():
    res = solve_sparse([{}, {0: 1}], 1, [QZ(0), QZ(2, 7)])
    assert res.solvable
    assert res.solution == [QZ(2, 7)]
    res = solve_sparse([{}], 1, [QZ(1, 3)])
    assert not res.solvable


def test_solve_rejects_fraction_coefficient():
    with pytest.raises(ValidationError):
        solve_sparse([{0: Fraction(1, 2)}], 1, [QZ(0)])


def test_solve_rejects_float_coefficient():
    with pytest.raises(ValidationError):
        solve_sparse([{0: 2.7}], 1, [QZ(1, 3)])


def test_solve_rejects_non_int_column():
    with pytest.raises(ValidationError):
        solve_sparse([{"a": 1}], 1, [QZ(0)])


def test_solve_rejects_bool_coefficient_and_column():
    with pytest.raises(ValidationError, match="solver coefficient must be an integer, not True"):
        solve_sparse([{0: True}], 1, [QZ(1, 2)])
    with pytest.raises(ValidationError, match="solver column must be an integer, not False"):
        solve_sparse([{False: 2}], 1, [QZ(1, 2)])


def test_solve_rejects_float_rhs():
    with pytest.raises(ValidationError):
        solve_sparse([{0: 1}], 1, [0.5])


def test_solve_inconsistent_non_unit_combination():
    # 2x + 4y = 1/2 is twice x + 2y = 0, which forces 0
    res = _dense_solve([[2, 4], [1, 2]], [QZ(1, 2), QZ(0)])
    assert not res.solvable
    assert res.row == 0
    assert res.residual == QZ(1, 2)


def test_solve_without_unit_coefficients():
    rows = [[2, 3], [4, 9], [6, 12]]
    assert all(abs(v) != 1 for row in rows for v in row)
    x = [QZ(1, 5), QZ(2, 7)]
    rhs = _substitute(rows, x)
    res = _dense_solve(rows, rhs)
    assert res.solvable
    assert _substitute(rows, res.solution) == rhs


def test_solve_negative_pivot():
    res = _dense_solve([[-3]], [QZ(1, 2)])
    assert res.solvable
    assert res.solution == [QZ(5, 6)]


def test_solve_accepts_mixed_rhs():
    res = _dense_solve([[1, 0], [0, 2]], [QZ(1, 3), 0])
    assert res.solvable
    assert res.solution == [QZ(1, 3), QZ(0)]


def _substitute(rows, solution):
    out = []
    for row in rows:
        acc = Fraction(0)
        for c, v in enumerate(row):
            acc += v * Fraction(solution[c].numerator, solution[c].denominator)
        out.append(QZ(acc.numerator, acc.denominator))
    return out


def test_solve_random_consistent_systems():
    rnd = random.Random(6)
    for _ in range(40):
        m = rnd.randrange(1, 6)
        n = rnd.randrange(1, 6)
        rows = [[rnd.randrange(-5, 6) for _ in range(n)] for _ in range(m)]
        x = [QZ(rnd.randrange(0, 12), rnd.randrange(1, 7)) for _ in range(n)]
        rhs = _substitute(rows, x)
        res = _dense_solve(rows, rhs)
        assert res.solvable
        assert _substitute(rows, res.solution) == rhs


def test_solve_random_duplicated_row_conflict():
    rnd = random.Random(7)
    hits = 0
    for _ in range(30):
        n = rnd.randrange(1, 5)
        base = [rnd.randrange(-4, 5) for _ in range(n)]
        rows = [base, list(base)]
        rhs = [QZ(0), QZ(rnd.randrange(1, 5), 5)]
        res = _dense_solve(rows, rhs)
        assert not res.solvable
        assert res.residual != QZ(0)
        hits += 1
    assert hits == 30
