"""Finite groups presented as full multiplication tables.

Elements are the indices 0..n-1 and index 0 is always the identity.  The
constructor checks the whole contract (Latin square, associativity,
identity, inverses) so that everything downstream may trust the table
blindly.  Sizes stay at desk scale; nothing here tries to be clever.
"""

from itertools import permutations, product
from operator import itemgetter

from .errors import KleinformError, ValidationError, exact_int, exact_ints

# Largest order a group spec or group file may name: a degree-3 cochain
# has order**3 entries and its closedness check reads order**3 differential
# values per generator; verify-alpha on cyclic:48 takes about 0.06 s.
MAX_ORDER = 48


def _check_order(n):
    if n > MAX_ORDER:
        raise KleinformError("group order %d exceeds the cap %d" % (n, MAX_ORDER))


class FiniteGroup:
    """A finite group given by its multiplication table.

    table[i][j] is the index of the product (element i) * (element j);
    rows index the left factor.
    """

    __slots__ = ("order", "table", "_inv", "_orders")

    def __init__(self, table):
        table = tuple(exact_ints(row, "multiplication table entry") for row in table)
        n = len(table)
        if n == 0:
            raise ValidationError("empty multiplication table")
        # one pass per row or column; the scans for the first bad entry run
        # only on failure, so the messages and their order are the per-entry ones
        for row in table:
            if len(row) != n:
                raise ValidationError("multiplication table is not square")
            if min(row) < 0 or max(row) >= n:
                v = next(v for v in row if not 0 <= v < n)
                raise ValidationError("table entry %d outside 0..%d" % (v, n - 1))
        cols = tuple(zip(*table))
        for i in range(n):
            if len(set(table[i])) != n:
                raise ValidationError("row %d is not a permutation" % i)
            if len(set(cols[i])) != n:
                raise ValidationError("column %d is not a permutation" % i)
        ids = tuple(range(n))
        if table[0] != ids or cols[0] != ids:
            raise ValidationError("index 0 does not act as identity")
        # (ab)c = a(bc) for every c at once: gather[b](ta) is the row of a(bc).
        # itemgetter of one index returns a bare item, and order 1 has no pair to check.
        gather = [itemgetter(*row) for row in table] if n > 1 else ()
        for a, ta in enumerate(table):
            for b, row_of_a_bc in enumerate(gather):
                if table[ta[b]] != row_of_a_bc(ta):
                    tb = table[b]
                    c = next(c for c in ids if table[ta[b]][c] != ta[tb[c]])
                    raise ValidationError("associativity fails at (%d, %d, %d)" % (a, b, c))
        # Latin rows give each i a right inverse j; identity and associativity make it two-sided
        inv = [row.index(0) for row in table]
        self.order = n
        self.table = table
        self._inv = tuple(inv)
        self._orders = None

    @property
    def identity(self):
        return 0

    @property
    def elements(self):
        return range(self.order)

    def mul(self, a, b):
        return self.table[a][b]

    @property
    def inverses(self):
        """The tuple of inverses: inverses[a] is a^-1."""
        return self._inv

    def inv(self, a):
        return self._inv[a]

    def power(self, a, e):
        """a raised to an integer exponent (negative exponents via the inverse)."""
        if e < 0:
            a, e = self._inv[a], -e
        out = 0
        while e:
            if e & 1:
                out = self.table[out][a]
            a = self.table[a][a]
            e >>= 1
        return out

    def conj(self, z, a):
        """z * a * z^-1."""
        return self.table[self.table[z][a]][self._inv[z]]

    def commutator(self, a, b):
        """a * b * a^-1 * b^-1."""
        t = self.table
        return t[t[t[a][b]][self._inv[a]]][self._inv[b]]

    @property
    def orders(self):
        """The tuple of element orders, computed on first use: orders[a] is the order of a."""
        if self._orders is None:
            orders = []
            for x in range(self.order):
                k, y = 1, x
                while y != 0:
                    y = self.table[y][x]
                    k += 1
                orders.append(k)
            self._orders = tuple(orders)
        return self._orders

    def order_of(self, a):
        return self.orders[a]

    def commutes(self, a, b):
        return self.table[a][b] == self.table[b][a]

    def __eq__(self, other):
        return other is self or isinstance(other, FiniteGroup) and self.table == other.table

    def __hash__(self):
        return hash(self.table)

    def __repr__(self):
        return "FiniteGroup(order=%d)" % self.order


def cyclic(n):
    """The cyclic group Z/n with i + j mod n as the operation."""
    n = exact_int(n, "cyclic group order")
    if n < 1:
        raise KleinformError("cyclic group needs order >= 1")
    return FiniteGroup([[(i + j) % n for j in range(n)] for i in range(n)])


def direct_product(g, h):
    """The direct product; pair (i, j) becomes index i*|h| + j."""
    n, m = g.order, h.order
    table = []
    for i1 in range(n):
        for j1 in range(m):
            row = []
            for i2 in range(n):
                for j2 in range(m):
                    row.append(g.table[i1][i2] * m + h.table[j1][j2])
            table.append(row)
    return FiniteGroup(table)


def _permutation_group(n, even_only):
    """The permutations of range(n) in lexicographic order, all or the even ones.

    The identity comes first, and products compose left factor after right
    factor.
    """
    perms = [p for p in permutations(range(n)) if not even_only
             or sum(x > y for i, x in enumerate(p) for y in p[i + 1:]) % 2 == 0]
    index = {p: i for i, p in enumerate(perms)}
    return FiniteGroup([[index[tuple(map(p.__getitem__, q))] for q in perms] for p in perms])


def symmetric3():
    """The symmetric group on three letters.

    Elements are the permutations of (0, 1, 2) in lexicographic order, so
    the identity sits at index 0, indices 1, 2, 5 are the transpositions
    and indices 3, 4 are the three-cycles.  Products compose left factor
    after right factor.
    """
    return _permutation_group(3, False)


def klein4():
    """The Klein four-group as Z/2 x Z/2."""
    return direct_product(cyclic(2), cyclic(2))


def _metacyclic(m, shift):
    """The group of order 2m with a^m = 1, b a b^-1 = a^-1 and b^2 = a^shift.

    shift is 0 or m/2, the values for which b^2 commutes with b.  Element
    a^i b^j sits at index 2*i + j, so index 0 is the identity.
    """
    def mul(i1, j1, i2, j2):
        i = i1 + (-i2 if j1 else i2) + (shift if j1 and j2 else 0)
        return 2 * (i % m) + (j1 + j2) % 2

    return FiniteGroup([[mul(a // 2, a % 2, b // 2, b % 2) for b in range(2 * m)]
                        for a in range(2 * m)])


def dihedral(n):
    """The dihedral group of order 2n: rotations r^i and reflections r^i s.

    Element r^i s^j sits at index 2*i + j, so index 0 is the identity.
    The defining relation s r = r^-1 s drives the table.
    """
    n = exact_int(n, "dihedral group n")
    if n < 1:
        raise KleinformError("dihedral group needs n >= 1")
    return _metacyclic(n, 0)


def dicyclic(n):
    """The dicyclic group of order 4n: a^(2n) = 1, b^2 = a^n, b a b^-1 = a^-1.

    Element a^i b^j sits at index 2*i + j; dicyclic(2) is the quaternion
    group.
    """
    n = exact_int(n, "dicyclic group n")
    if n < 1:
        raise KleinformError("dicyclic group needs n >= 1")
    return _metacyclic(2 * n, n)


def alternating4():
    """The alternating group on four letters: the even permutations in
    lexicographic order, identity first."""
    return _permutation_group(4, True)


def closure(group, gens):
    """Subgroup generated by gens, returned as a sorted tuple of indices."""
    # right multiplication by g alone suffices: g has some finite order k, so
    # x g^-1 = x g^(k-1) is reached by k - 1 steps of it
    seen = {0}
    frontier = [0]
    gens = list(gens)
    while frontier:
        row = group.table[frontier.pop()]
        for g in gens:
            y = row[g]
            if y not in seen:
                seen.add(y)
                frontier.append(y)
    return tuple(sorted(seen))


def cyclic_generator(group, subgroup):
    """Smallest index generating the given subgroup, or None if it is not cyclic."""
    size = len(subgroup)
    for k in subgroup:
        if group.order_of(k) == size:
            return k
    return None


def generating_set(group):
    """A small generating set, chosen greedily by index."""
    gens = []
    span = {0}
    for x in group.elements:
        if x not in span:
            gens.append(x)
            span = set(closure(group, gens))
            if len(span) == group.order:
                break
    return tuple(gens)


class GroupHom:
    """A homomorphism between table groups, stored as the full image list."""

    __slots__ = ("source", "target", "images")

    def __init__(self, source, target, images):
        images = exact_ints(images, "homomorphism image")
        if len(images) != source.order:
            raise ValidationError("image list has wrong length")
        if min(images) < 0 or max(images) >= target.order:
            v = next(v for v in images if not 0 <= v < target.order)
            raise ValidationError("image %d outside the target group" % v)
        # images[ab] = images[a] images[b] for every b at once; with one element
        # both sides are bare items
        at_images = itemgetter(*images)
        for a, row in enumerate(source.table):
            target_row = target.table[images[a]]
            if itemgetter(*row)(images) != at_images(target_row):
                b = next(b for b in source.elements if images[row[b]] != target_row[images[b]])
                raise ValidationError("not a homomorphism at the pair (%d, %d)" % (a, b))
        self.source = source
        self.target = target
        self.images = images

    def __call__(self, x):
        return self.images[x]

    def __eq__(self, other):
        return (
            isinstance(other, GroupHom)
            and self.source == other.source
            and self.target == other.target
            and self.images == other.images
        )

    def __hash__(self):
        return hash((self.source, self.target, self.images))

    def __repr__(self):
        return "GroupHom(images=%r)" % (self.images,)


def all_homs(source, target):
    """Every homomorphism source -> target, by brute force on generator images.

    A homomorphism is fixed by its images of generating_set(source), so each
    tuple of images, taken from the elements whose order divides that of the
    generator, is filled in over a spanning tree of right multiplications by
    the generators and kept when GroupHom accepts it.  No map comes twice,
    since distinct tuples differ on a generator, and the list is in
    lexicographic order of the generator images.  A trivial source has no
    generators and one empty tuple, whose map sends 0 to 0.  Fine for the
    desk-scale orders this package works at.
    """
    gens = generating_set(source)
    # breadth first: reached grows while the loop reads it, and tree holds
    # (y, x, k) with y = x * gens[k] for each y but 0, x reached before y
    tree, reached = [], [0]
    for x in reached:
        for k, g in enumerate(gens):
            y = source.table[x][g]
            if y not in reached:
                reached.append(y)
                tree.append((y, x, k))
    candidates = [[h for h in target.elements if source.order_of(g) % target.order_of(h) == 0]
                  for g in gens]
    out = []
    for assignment in product(*candidates):
        images = [0] * source.order
        for y, x, k in tree:
            images[y] = target.table[images[x]][assignment[k]]
        try:
            out.append(GroupHom(source, target, images))
        except ValidationError:
            pass
    return out


def read_lines(kind, text=None, path=None):
    """The lines of a kleinform input that carry data, as a list.

    The input is text, or the UTF-8 file at path when text is None.  Each
    line is cut at its first "#" and stripped, and blank results are
    dropped.  A file that cannot be opened or decoded raises
    KleinformError("cannot read <kind> file ...").
    """
    if text is None:
        try:
            with open(path, encoding="utf-8") as fh:
                text = fh.read()
        except (OSError, UnicodeDecodeError) as exc:
            raise KleinformError("cannot read %s file %s: %s" % (kind, path, exc))
    lines = (raw.split("#", 1)[0].strip() for raw in text.splitlines())
    return [ln for ln in lines if ln]


def parse_group_text(text):
    """Parse the group file format: a line "order n", then n table rows."""
    return _group_from_lines(read_lines("group", text))


def load_group_file(path):
    return _group_from_lines(read_lines("group", path=path))


def _group_from_lines(lines):
    head = lines[0].split() if lines else [None]
    if head[0] != "order":
        raise KleinformError("group file must start with an 'order n' line")
    try:
        (n,) = map(int, head[1:])
    except ValueError:
        raise KleinformError("malformed order line: %r" % lines[0])
    _check_order(n)
    if len(lines) - 1 != n:
        raise KleinformError("expected %d table rows, found %d" % (n, len(lines) - 1))
    table = []
    for ln in lines[1:]:
        try:
            row = [int(v) for v in ln.split()]
        except ValueError:
            raise KleinformError("malformed table row: %r" % ln)
        table.append(row)
    return FiniteGroup(table)


def parse_group_spec(spec):
    """Resolve a textual group spec: cyclic:n, klein4, s3 or file:<path>."""
    spec = spec.strip()
    if spec.startswith("cyclic:"):
        try:
            n = int(spec.split(":", 1)[1])
        except ValueError:
            raise KleinformError("bad cyclic order in spec %r" % spec)
        _check_order(n)
        return cyclic(n)
    if spec == "klein4":
        return klein4()
    if spec == "s3":
        return symmetric3()
    if spec.startswith("file:"):
        return load_group_file(spec.split(":", 1)[1])
    raise KleinformError("unknown group spec %r" % spec)
