"""Raw group tables and cochain tables, built without the package under test.

Index conventions match the package's constructors (cyclic groups add mod
n, a direct product puts (i, j) at i*|H| + j, the dihedral group puts
r^i s^j at 2*i + j, S3 lists permutations of (0, 1, 2) in lexicographic
order), so a table written here and a group built by the package can be
compared entry by entry, and a table file written here names the same
group on the command line.
"""

from fractions import Fraction
from itertools import permutations


def cyclic_table(n):
    return [[(i + j) % n for j in range(n)] for i in range(n)]


def product_table(t1, t2):
    n, m = len(t1), len(t2)
    return [[t1[a // m][b // m] * m + t2[a % m][b % m] for b in range(n * m)]
            for a in range(n * m)]


def dihedral_table(n):
    def mul(a, b):
        i1, j1, i2, j2 = a // 2, a % 2, b // 2, b % 2
        return 2 * ((i1 + (i2 if j1 == 0 else -i2)) % n) + (j1 + j2) % 2
    return [[mul(a, b) for b in range(2 * n)] for a in range(2 * n)]


def s3_table():
    perms = sorted(permutations(range(3)))
    index = {p: i for i, p in enumerate(perms)}
    return [[index[tuple(p[q[x]] for x in range(3))] for q in perms] for p in perms]


def group_table(spec):
    """The raw table for a group spec dict, as used in workload specs."""
    kind = spec["kind"]
    if kind == "cyclic":
        return cyclic_table(spec["n"])
    if kind == "product":
        t1, t2 = (cyclic_table(k) for k in spec["factors"])
        return product_table(t1, t2)
    if kind == "dihedral":
        return dihedral_table(spec["n"])
    if kind == "s3":
        return s3_table()
    raise ValueError("unknown group kind %r" % kind)


def power(table, g, e):
    out = 0
    for _ in range(e):
        out = table[out][g]
    return out


def order_of(table, g):
    k, y = 1, g
    while y != 0:
        y = table[y][g]
        k += 1
    return k


def inverse(table, g):
    return table[g].index(0)


def conj(table, z, a):
    return table[table[z][a]][inverse(table, z)]


def commutes(table, a, b):
    return table[a][b] == table[b][a]


def span(table, gens):
    seen = {0}
    frontier = [0]
    while frontier:
        x = frontier.pop()
        for g in gens:
            y = table[x][g]
            if y not in seen:
                seen.add(y)
                frontier.append(y)
    return seen


def is_cyclic_pair(table, g, h):
    sub = span(table, [g, h])
    return any(order_of(table, k) == len(sub) for k in sub)


def alpha_cyclic_table(n, level):
    """The level-N table on Z/n: N*j/n when k + l >= n, else 0."""
    return [Fraction(level * j, n) % 1 if k + l >= n else Fraction(0)
            for j in range(n) for k in range(n) for l in range(n)]


def pullback_table(base, m, images):
    """alpha(chi x, chi y, chi z) for the table base on Z/m and chi given by images."""
    n = len(images)
    return [base[(images[x] * m + images[y]) * m + images[z]]
            for x in range(n) for y in range(n) for z in range(n)]


def zero_table(n):
    return [Fraction(0)] * (n ** 3)


def parse_cochain(text, order):
    """Dense degree-3 table from the cochain file format (header line skipped)."""
    vals = [Fraction(0)] * (order ** 3)
    lines = [ln.split() for ln in text.splitlines()
             if ln.strip() and not ln.startswith("#")]
    for parts in lines[1:]:
        i, j, l = (int(p) for p in parts[:3])
        vals[(i * order + j) * order + l] = Fraction(parts[3]) % 1
    return vals


def group_file_text(table):
    lines = ["order %d" % len(table)]
    lines += [" ".join(str(v) for v in row) for row in table]
    return "\n".join(lines) + "\n"


def cochain_file_text(group_spec, vals, order):
    lines = ["group %s degree 3" % group_spec]
    for flat, v in enumerate(vals):
        if v:
            i, rem = divmod(flat, order * order)
            j, l = divmod(rem, order)
            lines.append("%d %d %d %d/%d" % (i, j, l, v.numerator, v.denominator))
    return "\n".join(lines) + "\n"


def character_images(spec, coeffs, m):
    """A homomorphism G -> Z/m given on generators by coeffs.

    klein4, Z4xZ2 and Z3xZ3: (i, j) -> c0*i + c1*j (c1 scaled by m/|H| so
    it is a homomorphism); dihedral: r^i s^j -> c0*i + c1*j, which needs m
    = 2 and n even.  The result is checked to be a homomorphism.
    """
    table = group_table(spec)
    n = len(table)
    if spec["kind"] == "product":
        f1, f2 = spec["factors"]
        imgs = [(coeffs[0] * (m // f1) * (x // f2) + coeffs[1] * (m // f2) * (x % f2)) % m
                for x in range(n)]
    elif spec["kind"] == "dihedral":
        imgs = [(coeffs[0] * (x // 2) + coeffs[1] * (x % 2)) % m for x in range(n)]
    else:
        raise ValueError("no character family for %r" % spec)
    for a in range(n):
        for b in range(n):
            if imgs[table[a][b]] != (imgs[a] + imgs[b]) % m:
                raise ValueError("character images are not a homomorphism")
    return imgs


# -- groupoid presentations for the groupoid-check command ---------------

def flip_groupoid_text():
    """One object with an involution whose value is one half."""
    return ("# one object with an involution, holonomy one half\n"
            "objects 1\nmor 0 0 e\nmor 0 0 t\n"
            "comp e e e\ncomp e t t\ncomp t e t\ncomp t t e\nval t 1/2\n")


def action_groupoid_text(n, shift, slope):
    """The translation groupoid of Z/n acting on itself by `shift` steps.

    Objects are 0..n-1 and m<x>_<k> runs from x to x + shift*k; composites
    add the k.  Every morphism m<x>_<k> carries the value slope*k/n, which
    is additive, so the file always holds a valid cocycle.
    """
    lines = ["# translation groupoid of Z/%d, step %d" % (n, shift), "objects %d" % n]
    for x in range(n):
        for k in range(n):
            lines.append("mor %d %d m%d_%d" % (x, (x + shift * k) % n, x, k))
    for x in range(n):
        for k1 in range(n):
            y = (x + shift * k1) % n
            for k2 in range(n):
                lines.append("comp m%d_%d m%d_%d m%d_%d" % (y, k2, x, k1, x, (k1 + k2) % n))
    for x in range(n):
        for k in range(n):
            v = Fraction(slope * k, n) % 1
            if v:
                lines.append("val m%d_%d %d/%d" % (x, k, v.numerator, v.denominator))
    return "\n".join(lines) + "\n"
