"""Exact linear solving over Q/Z for sparse integer systems.

The solver answers systems M*x = b where M has integer entries and the
unknowns live in Q/Z.  Because Q/Z is divisible, an equation s*y = c with
s != 0 always has the branch y = c/s; unsolvability can only surface on a
row that elimination empties while its right-hand side stays nonzero.
That emptied row, a row of the reduced form of M, is returned as the
certificate.  Elimination runs in integers only: one Euclid kernel reduces
each pivot column, and the right-hand sides are residues mod the lcm of
their denominators; Fractions appear in back-substitution alone, and the
final check of every row works over one common denominator.
"""

from __future__ import annotations

import heapq
from fractions import Fraction
from math import lcm

from .errors import KleinformError, ValidationError
from .qz import QZ


def xgcd(a, b):
    """Return (g, x, y) with g = gcd(a, b) = a*x + b*y and g >= 0."""
    old_r, r = a, b
    old_x, x = 1, 0
    old_y, y = 0, 1
    while r:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_x, x = x, old_x - q * x
        old_y, y = y, old_y - q * y
    if old_r < 0:
        old_r, old_x, old_y = -old_r, -old_x, -old_y
    return old_r, old_x, old_y


class SolveResult:
    """Outcome of a Q/Z solve: either a solution or a failing-row certificate."""

    __slots__ = ("solution", "row", "residual")

    def __init__(self, solution=None, row=None, residual=None):
        self.solution = solution
        self.row = row
        self.residual = residual

    @property
    def solvable(self):
        return self.solution is not None

    def __repr__(self):
        if self.solvable:
            return "SolveResult(solution=%r)" % (self.solution,)
        return "SolveResult(row=%r, residual=%r)" % (self.row, self.residual)


def solve_sparse(rows, ncols, rhs):
    """Solve M*x = b in Q/Z for M given as sparse rows (dicts col -> int coeff).

    Each pivot column, fewest owning rows first, is reduced by Euclid: the
    owner with the smallest |coefficient| (then the shortest row) takes its
    floor-quotient multiple off every other owner until one owner is left,
    and that row is retired.  Retired rows are solved by back-substitution
    in reverse retirement order, which Q/Z-divisibility always permits.  The
    first row emptied with a nonzero right-hand side is the no-solution
    certificate.  Coefficients and column indices must be int; b may hold
    QZ, Fraction or int values, and anything else (a float included) raises
    ValidationError.
    """
    nrows = len(rows)
    if len(rhs) != nrows:
        raise KleinformError(
            "dimension mismatch: %d rows but %d right-hand sides" % (nrows, len(rhs))
        )
    work = []
    for r in rows:
        for c, v in r.items():
            if not (isinstance(c, int) and isinstance(v, int)):
                raise ValidationError("solver entries must be int, got %r: %r" % (c, v))
            if not (0 <= c < ncols):
                raise KleinformError("column index %r out of range" % (c,))
        work.append({c: v for c, v in r.items() if v})
    for v in rhs:
        if not isinstance(v, (int, Fraction, QZ)):
            raise ValidationError("right-hand sides must be int, Fraction or QZ, got %r" % (v,))
    L = lcm(*(v.denominator for v in rhs))
    b = [v.numerator * (L // v.denominator) % L for v in rhs]
    b0 = b[:]  # elimination rewrites b in place

    for i in range(nrows):
        if not work[i] and b[i]:
            return SolveResult(row=i, residual=QZ(b[i], L))
    owners = {}
    for i, row in enumerate(work):
        for c in row:
            owners.setdefault(c, set()).add(i)

    heap = [(len(own), c) for c, own in owners.items()]
    heapq.heapify(heap)
    retired = []  # (row, pivot column), in retirement order
    while heap:
        _, c = heapq.heappop(heap)
        own = owners[c]
        if not own:
            continue  # emptied by cancellation: free column
        if heap and (len(own), c) > heap[0]:
            heapq.heappush(heap, (len(own), c))
            continue
        while len(own) > 1:
            p = min(own, key=lambda i: (abs(work[i][c]), len(work[i]), i))
            rowp, s, bp = work[p], work[p][c], b[p]
            for j in sorted(own - {p}):
                rowj = work[j]
                q = rowj[c] // s
                for col, v in rowp.items():
                    if col not in rowj:
                        rowj[col] = -q * v
                        owners[col].add(j)
                    elif rowj[col] == q * v:
                        del rowj[col]
                        owners[col].discard(j)
                    else:
                        rowj[col] -= q * v
                b[j] = (b[j] - q * bp) % L
                if not rowj and b[j]:
                    return SolveResult(row=j, residual=QZ(b[j], L))
        p = own.pop()
        retired.append((p, c))
        for col in work[p]:
            owners[col].discard(p)

    x = [Fraction(0)] * ncols
    for p, c in reversed(retired):
        row = work[p]
        s = row[c]
        acc = (Fraction(b[p], L) - sum(v * x[col] for col, v in row.items() if col != c)) % 1
        # principal branch of division by s in Q/Z
        val = Fraction(acc.numerator, acc.denominator * abs(s))
        x[c] = (val if s > 0 else -val) % 1

    solution = [QZ(v) for v in x]
    _verify_sparse(rows, solution, b0, L)
    return SolveResult(solution=solution)


def _verify_sparse(rows, solution, b, L):
    # every row checked again in integers over one common denominator D,
    # against the right-hand sides b over L
    D = lcm(L, *(v.denominator for v in solution))
    xs = [v.numerator * (D // v.denominator) for v in solution]
    for i, row in enumerate(rows):
        lhs = sum(v * xs[c] for c, v in row.items())
        if (lhs - b[i] * (D // L)) % D:
            raise KleinformError("internal error: solver produced a non-solution at row %d" % i)
