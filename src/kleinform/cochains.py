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
"""

from __future__ import annotations

from functools import lru_cache
from math import lcm

from .errors import KleinformError, ValidationError
from .groups import FiniteGroup, GroupHom, cyclic
from .intmat import solve_sparse
from .qz import QZ

MAX_DEGREE = 4


class Cochain:
    """A dense Q/Z-valued function on G^degree (degree between 0 and 4)."""

    __slots__ = ("group", "degree", "values", "_hash", "_scaled")

    def __init__(self, group, degree, values):
        if not isinstance(group, FiniteGroup):
            raise ValidationError("cochain needs a FiniteGroup")
        if not (0 <= degree <= MAX_DEGREE):
            raise ValidationError("cochain degree must lie in 0..%d" % MAX_DEGREE)
        values = tuple(v if isinstance(v, QZ) else QZ(v) for v in values)
        if len(values) != group.order**degree:
            raise ValidationError(
                "value table has length %d, expected %d"
                % (len(values), group.order**degree)
            )
        self.group = group
        self.degree = degree
        self.values = values
        self._hash = None
        self._scaled = None

    @classmethod
    def zero(cls, group, degree):
        return cls(group, degree, [QZ(0)] * group.order**degree)

    @classmethod
    def from_function(cls, group, degree, fn):
        n = group.order
        vals = []
        for flat in range(n**degree):
            args = _unflatten(flat, n, degree)
            vals.append(fn(*args))
        return cls(group, degree, vals)

    def __call__(self, *args):
        if len(args) != self.degree:
            raise KleinformError(
                "cochain of degree %d called with %d arguments" % (self.degree, len(args))
            )
        n = self.group.order
        idx = 0
        for a in args:
            idx = idx * n + a
        return self.values[idx]

    def __eq__(self, other):
        return (
            isinstance(other, Cochain)
            and self.degree == other.degree
            and self.group == other.group
            and self.values == other.values
        )

    def __hash__(self):
        if self._hash is None:
            self._hash = hash((self.group, self.degree, self.values))
        return self._hash

    def __repr__(self):
        return "Cochain(degree=%d, group order %d)" % (self.degree, self.group.order)


def _unflatten(flat, n, degree):
    args = []
    for _ in range(degree):
        args.append(flat % n)
        flat //= n
    return tuple(reversed(args))


def _scaled_table(c):
    """Common denominator L and the integer value table of c times L, kept on c."""
    if c._scaled is None:
        denom = 1
        for v in c.values:
            denom = lcm(denom, v.denominator)
        c._scaled = denom, tuple(v.numerator * (denom // v.denominator) for v in c.values)
    return c._scaled


def _diff_int_table(c):
    """Integer table (scaled by L) of the differential of c, plus L itself."""
    n = c.group.order
    mul = [list(row) for row in c.group.table]
    L, tab = _scaled_table(c)
    k = c.degree
    out = []
    if k == 0:
        out = [0] * n
    elif k == 1:
        for a in range(n):
            ma = mul[a]
            ta = tab[a]
            for b in range(n):
                out.append(ta + tab[b] - tab[ma[b]])
    elif k == 2:
        for a in range(n):
            ma = mul[a]
            an = a * n
            for b in range(n):
                ab = ma[b]
                mb = mul[b]
                v_ab = tab[an + b]
                abn = ab * n
                bn = b * n
                for cc in range(n):
                    out.append(v_ab + tab[abn + cc] - tab[an + mb[cc]] - tab[bn + cc])
    elif k == 3:
        n2 = n * n
        for a in range(n):
            ma = mul[a]
            an2 = a * n2
            for b in range(n):
                ab = ma[b]
                mb = mul[b]
                bn2 = b * n2
                abn2 = ab * n2
                abase = an2 + b * n
                for cc in range(n):
                    bc = mb[cc]
                    mc = mul[cc]
                    v_bcd_base = bn2 + cc * n
                    v_abcd_base = abn2 + cc * n
                    v_a_bc_base = an2 + bc * n
                    v_abc = tab[abase + cc]
                    for d in range(n):
                        out.append(
                            tab[v_bcd_base + d]
                            - tab[v_abcd_base + d]
                            + tab[v_a_bc_base + d]
                            - tab[abase + mc[d]]
                            + v_abc
                        )
    else:
        raise KleinformError("differential is undefined above degree 3")
    return L, out


def differential(c):
    """The coboundary dc, one degree up.  Defined for degrees 0 through 3."""
    if c.degree >= MAX_DEGREE:
        raise KleinformError("differential is undefined above degree 3")
    L, out = _diff_int_table(c)
    return Cochain(c.group, c.degree + 1, [QZ(v, L) for v in out])


class CochainReport:
    """Result of validate_cochain: closedness and normalization flags."""

    __slots__ = ("closed", "normalized")

    def __init__(self, closed, normalized):
        self.closed = closed
        self.normalized = normalized

    def __repr__(self):
        return "CochainReport(closed=%r, normalized=%r)" % (self.closed, self.normalized)


# Cochains are immutable, and closedness is rechecked on entry to every
# pairing routine, so both predicates cache on the cochain itself.
@lru_cache(maxsize=1024)
def is_closed(c):
    """True when dc = 0.  Only meaningful for degrees 0..3."""
    L, out = _diff_int_table(c)
    return all(v % L == 0 for v in out)


@lru_cache(maxsize=1024)
def is_normalized(c):
    """True when c vanishes whenever any argument is the identity."""
    n = c.group.order
    k = c.degree
    if k == 0:
        return True
    for flat, v in enumerate(c.values):
        if v and 0 in _unflatten(flat, n, k):
            return False
    return True


def validate_cochain(c):
    return CochainReport(closed=is_closed(c), normalized=is_normalized(c))


def alpha_cyclic(n, level):
    """The standard level-N three-cocycle on Z/n.

    With representatives j, k, l drawn from 0..n-1 the value at (j, k, l)
    is N*j/n when k + l >= n and zero otherwise.  Closed and normalized for
    every level; cohomologically trivial exactly when n divides N.
    """
    if n < 1:
        raise KleinformError("alpha_cyclic needs n >= 1")
    g = cyclic(n)
    vals = []
    for j in range(n):
        for k in range(n):
            for l in range(n):
                if k + l >= n:
                    vals.append(QZ(level * j, n))
                else:
                    vals.append(QZ(0))
    return Cochain(g, 3, vals)


def pullback_cochain(c, hom):
    """The pullback of c along hom; hom must land in the group of c."""
    if hom.target != c.group:
        raise KleinformError("pullback needs hom.target equal to the cochain's group")
    src = hom.source
    k = c.degree
    return Cochain.from_function(
        src, k, lambda *args: c(*(hom(a) for a in args))
    )


def coboundary_solve(c):
    """Find b with db = c, or None when the class of c is nontrivial.

    c must be closed and of degree 2 or 3; the primitive is found by the
    exact Q/Z solver on the integer incidence matrix of the differential.
    """
    if c.degree not in (2, 3):
        raise KleinformError("coboundary_solve handles degrees 2 and 3 only")
    if not is_closed(c):
        raise KleinformError("coboundary_solve needs a closed cochain")
    n = c.group.order
    mul = c.group.table
    k = c.degree
    rows = []
    rhs = list(c.values)
    if k == 2:
        for a in range(n):
            for b in range(n):
                row = {}
                for col, coef in ((a, 1), (b, 1), (mul[a][b], -1)):
                    row[col] = row.get(col, 0) + coef
                rows.append(row)
        ncols = n
    else:
        for a in range(n):
            for b in range(n):
                ab = mul[a][b]
                for cc in range(n):
                    bc = mul[b][cc]
                    row = {}
                    for col, coef in (
                        (a * n + b, 1),
                        (ab * n + cc, 1),
                        (a * n + bc, -1),
                        (b * n + cc, -1),
                    ):
                        row[col] = row.get(col, 0) + coef
                    rows.append(row)
        ncols = n * n
    result = solve_sparse(rows, ncols, rhs)
    if not result.solvable:
        return None
    return Cochain(c.group, k - 1, result.solution)


def parse_cochain_text(text):
    """Parse the cochain file format.

    First line: "group <spec> degree k"; every further line lists the k
    argument indices and a value "p/q".  Omitted argument tuples are zero.
    """
    from .groups import parse_group_spec

    lines = [ln.strip() for ln in text.splitlines()]
    lines = [ln for ln in lines if ln and not ln.startswith("#")]
    if not lines:
        raise KleinformError("empty cochain file")
    head = lines[0].split()
    if len(head) < 4 or head[0] != "group" or head[-2] != "degree":
        raise KleinformError("cochain file must start with 'group <spec> degree k'")
    spec = " ".join(head[1:-2])
    try:
        degree = int(head[-1])
    except ValueError:
        raise KleinformError("bad degree in cochain header")
    if not (0 <= degree <= MAX_DEGREE):
        raise KleinformError("cochain degree must lie in 0..%d" % MAX_DEGREE)
    group = parse_group_spec(spec)
    n = group.order
    vals = [QZ(0)] * (n**degree)
    for ln in lines[1:]:
        parts = ln.split()
        if len(parts) != degree + 1:
            raise KleinformError("cochain line needs %d indices and a value: %r" % (degree, ln))
        try:
            args = [int(p) for p in parts[:-1]]
        except ValueError:
            raise KleinformError("bad index in cochain line %r" % ln)
        for a in args:
            if not (0 <= a < n):
                raise KleinformError("index %d outside the group in line %r" % (a, ln))
        idx = 0
        for a in args:
            idx = idx * n + a
        try:
            vals[idx] = QZ.from_str(parts[-1])
        except ValueError:
            raise KleinformError("bad value in cochain line %r" % ln)
    return Cochain(group, degree, vals)


def load_cochain_file(path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise KleinformError("cannot read cochain file %s: %s" % (path, exc))
    return parse_cochain_text(text)
