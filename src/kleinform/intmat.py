"""Exact linear solving over Q/Z for sparse integer systems.

The solver answers systems M*x = b where M has integer entries and the
unknowns live in Q/Z.  Because Q/Z is divisible, an equation s*y = c with
s != 0 always has the branch y = c/s; unsolvability can only surface on a
row that elimination empties while its right-hand side stays nonzero.
That emptied row, a row of the reduced form of M, is returned as the
certificate.
"""

from __future__ import annotations

import heapq
from fractions import Fraction

from .errors import KleinformError
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


def _as_fraction_mod1(v):
    if isinstance(v, QZ):
        return v.as_fraction()
    return Fraction(v) % 1


def solve_sparse(rows, ncols, rhs):
    """Solve M*x = b in Q/Z for M given as sparse rows (dicts col -> int coeff).

    Unimodular row combinations reduce each worked column to a single
    nonzero coefficient; the owning row is then retired and solved later by
    back-substitution in reverse retirement order, which Q/Z-divisibility
    always permits.  A row emptied with nonzero right-hand side is the
    no-solution certificate.
    """
    nrows = len(rows)
    if len(rhs) != nrows:
        raise KleinformError(
            "dimension mismatch: %d rows but %d right-hand sides" % (nrows, len(rhs))
        )
    work = []
    for r in rows:
        row = {c: int(v) for c, v in r.items() if v}
        for c in row:
            if not (0 <= c < ncols):
                raise KleinformError("column index %r out of range" % (c,))
        work.append(row)
    b = [_as_fraction_mod1(v) for v in rhs]

    colmap = {}
    for i, row in enumerate(work):
        for c in row:
            colmap.setdefault(c, set()).add(i)
    active = set(range(nrows))
    emptied = []
    verdict = None

    for i in range(nrows):
        if not work[i]:
            active.discard(i)
            if b[i] != 0:
                return SolveResult(row=i, residual=QZ(b[i]))

    def combine(i, j, c):
        # one xgcd step on rows i and j at column c; afterwards row j loses c
        ac, bc = work[i][c], work[j][c]
        g, x, y = xgcd(ac, bc)
        u, v = -(bc // g), ac // g
        cols = set(work[i]) | set(work[j])
        new_i, new_j = {}, {}
        for col in cols:
            vi = work[i].get(col, 0)
            vj = work[j].get(col, 0)
            ni = x * vi + y * vj
            nj = u * vi + v * vj
            owners = colmap[col]
            if ni:
                new_i[col] = ni
                owners.add(i)
            else:
                owners.discard(i)
            if nj:
                new_j[col] = nj
                owners.add(j)
            else:
                owners.discard(j)
        work[i], work[j] = new_i, new_j
        b[i], b[j] = (x * b[i] + y * b[j]) % 1, (u * b[i] + v * b[j]) % 1
        if not new_i:
            emptied.append(i)
        if not new_j:
            emptied.append(j)

    def eliminate_with_unit(p, c):
        # pivot coefficient is +-1: every other active row loses column c
        s = work[p][c]
        rowp = work[p]
        for j in list(colmap[c]):
            if j == p or j not in active:
                continue
            q = work[j][c] * s
            rowj = work[j]
            for col, v in rowp.items():
                nv = rowj.get(col, 0) - q * v
                if nv:
                    rowj[col] = nv
                    colmap.setdefault(col, set()).add(j)
                else:
                    rowj.pop(col, None)
                    colmap[col].discard(j)
            b[j] = (b[j] - q * b[p]) % 1
            if not rowj:
                emptied.append(j)

    def drain_empties():
        nonlocal verdict
        for i in emptied:
            if i in active:
                active.discard(i)
                if b[i] != 0 and verdict is None:
                    verdict = (i, b[i])
        emptied.clear()

    def column_key(c):
        owners = colmap[c]
        has_unit = 0 if any(abs(work[i][c]) == 1 for i in owners) else 1
        return (has_unit, len(owners), c)

    heap = [(column_key(c), c) for c in colmap]
    heapq.heapify(heap)
    retired = []  # (row, pivot column, pivot coefficient), in retirement order

    while verdict is None and heap:
        _, c = heapq.heappop(heap)
        owners = colmap.get(c)
        if not owners:
            continue  # emptied by cancellation: free column
        key = column_key(c)
        if heap and key > heap[0][0]:
            heapq.heappush(heap, (key, c))
            continue
        owner_list = sorted(owners)
        while len(owner_list) > 1:
            units = [i for i in owner_list if abs(work[i][c]) == 1]
            if units:
                p = min(units, key=lambda i: (len(work[i]), i))
                eliminate_with_unit(p, c)
            else:
                owner_list.sort(key=lambda i: (abs(work[i][c]), i))
                combine(owner_list[0], owner_list[1], c)
            owner_list = sorted(colmap[c])
        p = owner_list[0]
        retired.append((p, c, work[p][c]))
        active.discard(p)
        for col in work[p]:
            colmap[col].discard(p)
        drain_empties()

    drain_empties()
    if verdict is not None:
        return SolveResult(row=verdict[0], residual=QZ(verdict[1]))

    x = [Fraction(0)] * ncols
    assigned = [False] * ncols
    for p, c, s in reversed(retired):
        acc = b[p]
        for col, v in work[p].items():
            if col != c and assigned[col]:
                acc -= v * x[col]
        acc = acc % 1
        # principal branch of division by s in Q/Z
        val = Fraction(acc.numerator, acc.denominator * abs(s))
        if s < 0:
            val = -val
        x[c] = val % 1
        assigned[c] = True

    solution = [QZ(v) for v in x]
    _verify_sparse(rows, solution, rhs)
    return SolveResult(solution=solution)


def _verify_sparse(rows, solution, rhs):
    for i, row in enumerate(rows):
        acc = Fraction(0)
        for c, v in row.items():
            acc += v * solution[c].as_fraction()
        if acc % 1 != _as_fraction_mod1(rhs[i]):
            raise KleinformError("internal error: solver produced a non-solution at row %d" % i)

