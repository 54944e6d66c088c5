"""Group cochains valued in Q/Z, their differential, and primitive solving.

A k-cochain on a table group G is a dense table over G^k.  The differential
follows one fixed orientation convention throughout the package:

    deg 1:  (dc)(a,b)   = c(a) + c(b) - c(ab)
    deg 2:  (dc)(a,b,c) = c(a,b) + c(ab,c) - c(a,bc) - c(b,c)
    deg 3:  (dc)(a,b,c,d) = c(b,c,d) - c(ab,c,d) + c(a,bc,d) - c(a,b,cd) + c(a,b,c)

d of d is zero degree by degree under this convention (the degree-2 sign
choice flips both of the middle terms at once, which drops out of the
composite), and it is the convention under which the explicit staircase
lifts of three-cocycles in lifts.py satisfy their defining equation.  Do
not mix in cochains built for the opposite convention.

A cochain keeps its values as integers over one common denominator L, and
the differential, the validation checks and every reader in moduli work
on that table; QZ values are built only when asked for.  Closedness and
normalization are computed once and kept on the cochain.
"""

from itertools import chain, product
from math import gcd, lcm

from .errors import KleinformError, ValidationError, exact_int
from .groups import (MAX_ORDER, MAX_TABLE_BITS, FiniteGroup, cyclic, generating_set,
                     parse_group_spec, read_lines)
from .intmat import solve_sparse
from .qz import QZ, parse_residue

MAX_DEGREE = 4


class Cochain:
    """A dense Q/Z-valued function on G^degree (degree between 0 and 4).

    Stored in canonical integer form: L, the least common denominator of
    the values, and ints, the tuple of numerators in 0..L-1 over L in flat
    order (the first argument most significant).  The QZ tuple `values` is
    built on first use; equality and hashing read (group, degree, L, ints).
    """

    __slots__ = ("group", "degree", "L", "ints", "_values", "_hash", "_closed",
                 "_normalized")

    def __init__(self, group, degree, values):
        if not isinstance(group, FiniteGroup):
            raise ValidationError("cochain needs a FiniteGroup")
        degree = _check_degree(degree)
        qz, L, nonzero = [], 1, 0
        for v in values:
            v = v if isinstance(v, QZ) else QZ(v)
            if v:  # L grows value by value, and the table is refused once it is over budget
                nonzero += 1
                L = lcm(L, v.denominator)
                _check_table_bits(nonzero, L)
            qz.append(v)
        if len(qz) != group.order**degree:
            raise ValidationError(
                "value table has length %d, expected %d" % (len(qz), group.order**degree))
        self._set(group, degree, L, tuple(v.numerator * (L // v.denominator) for v in qz))
        self._values = tuple(qz)

    @classmethod
    def _from_ints(cls, group, degree, L, ints):
        """The cochain with values ints[i]/L, each int in 0..L-1, over its least L."""
        g = L  # taken slice by slice up to the first 1, with no set or copy of the table
        for i in range(0, len(ints), 4096):
            if g == 1:
                break
            g = gcd(g, *ints[i:i + 4096])
        self = cls.__new__(cls)
        self._set(group, degree, L // g, tuple([x // g for x in ints] if g > 1 else ints))
        return self

    def _set(self, group, degree, L, ints):
        self.group, self.degree, self.L, self.ints = group, degree, L, ints
        self._values = self._hash = self._closed = self._normalized = None

    @classmethod
    def zero(cls, group, degree):
        degree = _check_degree(degree)
        return cls._from_ints(group, degree, 1, (0,) * group.order**degree)

    @classmethod
    def from_function(cls, group, degree, fn):
        degree = _check_degree(degree)
        return cls(group, degree, [fn(*args) for args in product(group.elements, repeat=degree)])

    @property
    def values(self):
        """The values as a tuple of QZ, one per flat index."""
        if self._values is None:
            L = self.L
            qz = {x: QZ(x, L) for x in set(self.ints)}
            self._values = tuple(map(qz.__getitem__, self.ints))
        return self._values

    def __call__(self, *args):
        if len(args) != self.degree:
            raise KleinformError(
                "cochain of degree %d called with %d arguments" % (self.degree, len(args))
            )
        n = self.group.order
        idx = 0
        for a in args:
            if type(a) is not int or not 0 <= a < n:
                raise KleinformError("cochain argument %r outside 0..%d" % (a, n - 1))
            idx = idx * n + a
        return self.values[idx]

    def __eq__(self, other):
        return (
            isinstance(other, Cochain)
            and self.degree == other.degree
            and self.L == other.L
            and self.ints == other.ints
            and self.group == other.group
        )

    def __hash__(self):
        if self._hash is None:
            self._hash = hash((self.group, self.degree, self.L, self.ints))
        return self._hash

    def __repr__(self):
        return "Cochain(degree=%d, group order %d)" % (self.degree, self.group.order)


def _check_degree(degree):
    """degree as an int in 0..MAX_DEGREE, or ValidationError."""
    degree = exact_int(degree, "cochain degree")
    if not (0 <= degree <= MAX_DEGREE):
        raise ValidationError("cochain degree must lie in 0..%d" % MAX_DEGREE)
    return degree


def _check_table_bits(nonzero, L):
    """Refuse nonzero numerators over L that would take more than MAX_TABLE_BITS bits."""
    if nonzero * L.bit_length() > MAX_TABLE_BITS:
        raise KleinformError(
            "cochain of %d nonzero values over a %d-bit common denominator exceeds the "
            "budget of %d bits" % (nonzero, L.bit_length(), MAX_TABLE_BITS))


def _diff_rows(c, firsts):
    """The integer table of dc over c's L, reduced mod L, in consecutive runs.

    Each run fixes the first two arguments of dc (the first, for degrees 0
    and 1) and lists the rest in flat order.  Only the runs whose first
    argument is in firsts are yielded, in the order of firsts.
    """
    n, k, L, tab = c.group.order, c.degree, c.L, c.ints
    mul, r = c.group.table, range(n)
    if k == 0:
        for _ in firsts:
            yield [0]
    elif k == 1:
        for a in firsts:
            v = tab[a]
            yield [(v + y - tab[e]) % L for y, e in zip(tab, mul[a])]
    elif k == 2:
        for a in firsts:
            row_a = tab[a * n:a * n + n]
            for b in r:
                v, ab = row_a[b], mul[a][b] * n
                yield [(v + y - row_a[e] - z) % L
                       for y, e, z in zip(tab[ab:ab + n], mul[b], tab[b * n:b * n + n])]
    elif k == 3:
        n2 = n * n
        blocks = [tab[i:i + n2] for i in range(0, n * n2, n2)]
        products = [e for row in mul for e in row]  # cc*d at the flat place of (cc, d)
        thirds = [cc for cc in r for _ in r]
        for a in firsts:
            rows_a = [blocks[a][i:i + n] for i in range(0, n2, n)]
            for b in r:
                row_ab = rows_a[b]
                # runs over (cc, d): c(b, cc, d), c(ab, cc, d) and c(a, bc, d)
                yield [(x - y + z - row_ab[e] + row_ab[cc]) % L for x, y, z, e, cc in
                       zip(blocks[b], blocks[mul[a][b]],
                           chain.from_iterable(map(rows_a.__getitem__, mul[b])),
                           products, thirds)]
    else:
        raise KleinformError("differential is undefined above degree 3")


def differential(c):
    """The coboundary dc, one degree up.  Defined for degrees 0 through 3."""
    if c.degree >= MAX_DEGREE:
        raise KleinformError("differential is undefined above degree 3")
    rows = _diff_rows(c, range(c.group.order))
    return Cochain._from_ints(c.group, c.degree + 1, c.L, list(chain.from_iterable(rows)))


class CochainReport:
    """Result of validate_cochain: closedness and normalization flags."""

    __slots__ = ("closed", "normalized")

    def __init__(self, closed, normalized):
        self.closed = closed
        self.normalized = normalized

    def __repr__(self):
        return "CochainReport(closed=%r, normalized=%r)" % (self.closed, self.normalized)


def is_closed(c):
    """True when dc = 0.  Only meaningful for degrees 0..3.

    Only the runs of dc whose first argument is in generating_set(c.group)
    are read (run 0 for the trivial group, whose generating set is empty),
    up to the first run with an entry not divisible by L.  That suffices
    by d of d = 0 in the bar complex (Brown, Cohomology of Groups, GTM 87):

    - beta = dc satisfies d beta = 0 (under the standard differential,
      which differs from this module's at most by a sign).
    - The first two terms of (d beta)(a, x, ...) are beta(x, ...) -
      beta(ax, ...), and every other term has a as its first argument.
    - So if beta vanishes on every run that starts with a, then
      beta(ax, ...) = beta(x, ...) for every x.
    - Hence the set of such a is closed under the group law: with a and b
      in it, beta(ab, ...) = beta(b, ...) = 0.  It contains the
      generating set, and in a finite group a set closed under the law
      that contains a generating set is the whole group.

    differential reads every run and stays the reference in the tests.
    Cochains are immutable and closedness is rechecked on entry to every
    pairing routine, so the result is kept on c.
    """
    if c._closed is None:
        firsts = generating_set(c.group) or (0,)
        c._closed = not any(map(any, _diff_rows(c, firsts)))
    return c._closed


def is_normalized(c):
    """True when c vanishes whenever any argument is the identity.

    Only those entries are read: with argument i (the first is 0) set to
    the identity they form runs of n**(k-1-i) consecutive flat indices,
    one run every n**(k-i), so k*n**(k-1) entries in all.  The result is
    kept on c.
    """
    if c._normalized is None:
        n, k, tab = c.group.order, c.degree, c.ints
        c._normalized = not any(
            any(tab[start:start + run])
            for run in (n**j for j in range(k))
            for start in range(0, n**k, run * n)
        )
    return c._normalized


def validate_cochain(c):
    return CochainReport(closed=is_closed(c), normalized=is_normalized(c))


def alpha_cyclic(n, level):
    """The standard level-N three-cocycle on Z/n.

    With representatives j, k, l drawn from 0..n-1 the value at (j, k, l)
    is N*j/n when k + l >= n and zero otherwise.  Closed and normalized for
    every level; cohomologically trivial exactly when n divides N.
    """
    n, level = exact_int(n, "cyclic group order"), exact_int(level, "level")
    if n < 1:
        raise KleinformError("alpha_cyclic needs n >= 1")
    # N*j/n = (N/g)*j/(n/g) with g = gcd(N, n), so the table is built over its least L
    g = gcd(level, n)
    m, level, r = n // g, level // g, range(n)
    return Cochain._from_ints(
        cyclic(n), 3, m, [level * j % m if k + l >= n else 0 for j in r for k in r for l in r]
    )


def pullback_cochain(c, hom):
    """The pullback of c along hom; hom must land in the group of c."""
    if hom.target != c.group:
        raise KleinformError("pullback needs hom.target equal to the cochain's group")
    m, images, tab = c.group.order, hom.images, c.ints
    flat = [0]
    for _ in range(c.degree):
        flat = [i * m + y for i in flat for y in images]
    return Cochain._from_ints(hom.source, c.degree, c.L, [tab[i] for i in flat])


def coboundary_solve(c):
    """Find b with db = c, or None when the class of c is nontrivial.

    c must be closed and of degree 2 or 3; the primitive is found by the
    exact Q/Z solver on the integer incidence matrix of the differential.
    """
    if c.degree not in (2, 3):
        raise KleinformError("coboundary_solve handles degrees 2 and 3 only")
    if not is_closed(c):
        raise KleinformError("coboundary_solve needs a closed cochain")
    n, k, mul = c.group.order, c.degree, c.group.table
    rhs = [QZ(x, c.L) for x in c.ints]
    # the terms of (db)(args) by the module docstring's formula for d, each as
    # (flat index of the arguments of b, sign)
    if k == 2:
        def terms(a, b):
            return (a, 1), (b, 1), (mul[a][b], -1)
    else:
        def terms(a, b, cc):
            return ((a * n + b, 1), (mul[a][b] * n + cc, 1), (a * n + mul[b][cc], -1),
                    (b * n + cc, -1))
    rows = []
    for args in product(range(n), repeat=k):
        row = {}
        for col, coef in terms(*args):
            row[col] = row.get(col, 0) + coef
        rows.append(row)
    result = solve_sparse(rows, n**(k - 1), rhs)
    if not result.solvable:
        return None
    return Cochain(c.group, k - 1, result.solution)


def parse_cochain_text(text):
    """Parse the cochain file format.

    First line: "group <spec> degree k"; every further line lists the k
    argument indices and a value "p/q".  Omitted argument tuples are zero,
    and no tuple may be listed twice.
    """
    return _cochain_from_lines(read_lines("cochain", text))


def load_cochain_file(path):
    return _cochain_from_lines(read_lines("cochain", path=path))


def _cochain_from_lines(lines):
    if not lines:
        raise KleinformError("empty cochain file")
    head = lines[0].split()
    if len(head) < 4 or head[0] != "group" or head[-2] != "degree":
        raise KleinformError("cochain file must start with 'group <spec> degree k'")
    spec = " ".join(head[1:-2])
    try:
        degree = _check_degree(int(head[-1]))
    except ValueError:
        raise KleinformError("bad degree in cochain header")
    group = parse_group_spec(spec)
    n = group.order
    if n**degree > MAX_ORDER**3:
        raise KleinformError(
            "cochain table of %d entries exceeds the cap %d" % (n**degree, MAX_ORDER**3)
        )
    # (p, q) at each listed flat index and None elsewhere, scaled in place to L below
    ints, L, nonzero = [None] * n**degree, 1, 0
    for ln in lines[1:]:
        parts = ln.split()
        if len(parts) != degree + 1:
            raise KleinformError("cochain line needs %d indices and a value: %r" % (degree, ln))
        try:
            args = [int(p) for p in parts[:-1]]
        except ValueError:
            raise KleinformError("bad index in cochain line %r" % ln)
        idx = 0
        for a in args:
            if not (0 <= a < n):
                raise KleinformError("index %d outside the group in line %r" % (a, ln))
            idx = idx * n + a
        if ints[idx] is not None:
            raise KleinformError("cochain line repeats the arguments of an earlier line: %r" % ln)
        try:
            p, q = parse_residue(parts[-1])
        except ValueError:
            raise KleinformError("bad value in cochain line %r" % ln)
        ints[idx] = p, q
        if p:  # L grows entry by entry, and the table is refused before it is scaled
            nonzero += 1
            L = lcm(L, q)
            _check_table_bits(nonzero, L)
    for idx, pq in enumerate(ints):
        ints[idx] = 0 if pq is None else pq[0] * (L // pq[1])
    return Cochain._from_ints(group, degree, L, ints)
