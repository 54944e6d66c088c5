"""Independent answer oracles: raw table loops and closed formulas.

Nothing here imports the package under test.  Every function takes raw
multiplication tables (lists of rows) and dense degree-3 value tables
(lists of Fractions, alpha(x, y, z) at (x*n + y)*n + z) and returns the
expected answer as a Fraction in [0, 1) or a plain Python value.
"""

from fractions import Fraction

from tables import commutes, conj, inverse, order_of, power


def qz(text):
    """A printed Q/Z value ("0" or "p/q") as a Fraction in [0, 1)."""
    return Fraction(text.strip()) % 1


def gamma1_value(n, level, b):
    """The Klein form on Gamma1(n): N*b/n^2."""
    return Fraction(level * b, n * n) % 1


def cyclic_value(p, q, m, level, matrix):
    """r_diff of the rep (p, q) in Z/m under alpha_cyclic(m, N), any matrix.

    gamma(u, v) = N*L(u)*(L(v) mod m)/m^2, with L(x, y) = p*x + q*y, is a
    primitive of the pulled-back cocycle.  Any two primitives differ by an
    exact cochain plus mu*(x1*y2), so the normalized lift's pairing is
    asym(p1, p2) + asym(e1, e2) for any primitive, with asym(u, v) =
    gamma(u, v) - gamma(v, u), p1 = (b, d) and p2 = (a, c).
    """
    a, b, c, d = matrix
    l1 = p * b + q * d
    l2 = p * a + q * c
    s = l1 * (l2 % m) - l2 * (l1 % m) + p * (q % m) - q * (p % m)
    return Fraction(level * s, m * m) % 1


def dehn_value(table, alpha, g):
    """The sum of alpha(g, g^j, g) over j from 0 to ord(g) - 1."""
    n = len(table)
    acc = Fraction(0)
    for j in range(order_of(table, g)):
        acc += alpha[(g * n + power(table, g, j)) * n + g]
    return acc % 1


def signed_power(table, g, e):
    if e < 0:
        return power(table, inverse(table, g), -e)
    return power(table, g, e)


def act(table, g, h, matrix):
    """The right SL2(Z) action (g, h) -> (g^a h^c, g^b h^d)."""
    a, b, c, d = matrix
    return (table[signed_power(table, g, a)][signed_power(table, h, c)],
            table[signed_power(table, g, b)][signed_power(table, h, d)])


def matmul(m1, m2):
    a, b, c, d = m1
    e, f, g, h = m2
    return (a * e + b * g, a * f + b * h, c * e + d * g, c * f + d * h)


def cocycle_law_holds(r_a, r_ab, r_b_moved):
    """r(rho, AB) = r(rho, A) + r(rho.A, B)."""
    return (r_a + r_b_moved - r_ab) % 1 == 0


def closed_and_normalized(table, alpha):
    """Raw degree-3 differential and identity checks."""
    n = len(table)

    def al(x, y, z):
        return alpha[(x * n + y) * n + z]

    closed = all(
        (al(b, c, d) - al(table[a][b], c, d) + al(a, table[b][c], d)
         - al(a, b, table[c][d]) + al(a, b, c)) % 1 == 0
        for a in range(n) for b in range(n) for c in range(n) for d in range(n))
    normalized = all(
        not al(x, y, z)
        for x in range(n) for y in range(n) for z in range(n)
        if 0 in (x, y, z))
    return closed, normalized


def holonomy(table, alpha, g, h, z):
    """The conjugation character at (g, h), written out as raw alpha sums."""
    n = len(table)

    def al(x, y, w):
        return alpha[(x * n + y) * n + w]

    cg, ch = conj(table, z, g), conj(table, z, h)
    return ((al(z, g, h) - al(z, h, g)) + (al(cg, ch, z) - al(ch, cg, z))
            - (al(cg, z, h) - al(ch, z, g))) % 1


def sections_value(table, alpha):
    """Orbits of commuting pairs whose stabilizer character vanishes."""
    n = len(table)
    seen = set()
    count = 0
    for g in range(n):
        for h in range(n):
            if not commutes(table, g, h) or (g, h) in seen:
                continue
            seen |= {(conj(table, z, g), conj(table, z, h)) for z in range(n)}
            stab = [z for z in range(n)
                    if (conj(table, z, g), conj(table, z, h)) == (g, h)]
            if all(holonomy(table, alpha, g, h, z) == 0 for z in stab):
                count += 1
    return count


def commutator(table, a, b):
    return table[table[table[a][b]][inverse(table, a)]][inverse(table, b)]


def enumerate_lines(table, genus):
    """Commuting 2g-tuples with trivial commutator product, lexicographic."""
    n = len(table)
    out = []

    def rec(prefix, acc):
        if len(prefix) == 2 * genus:
            if acc == 0:
                out.append(prefix)
            return
        if len(prefix) % 2 == 1:
            g = prefix[-1]
            for h in range(n):
                rec(prefix + (h,), table[acc][commutator(table, g, h)])
        else:
            for g in range(n):
                rec(prefix + (g,), acc)

    rec((), 0)
    return [" ".join(str(v) for v in t) for t in out]


def orbit_lines(table):
    """"rep g h orbit k stab ..." for each genus-one conjugation orbit."""
    n = len(table)
    rows = set()
    for g in range(n):
        for h in range(n):
            if not commutes(table, g, h):
                continue
            orbit = {(conj(table, z, g), conj(table, z, h)) for z in range(n)}
            stab = tuple(z for z in range(n)
                         if (conj(table, z, g), conj(table, z, h)) == (g, h))
            least = min(orbit)
            if (g, h) == least:
                rows.add((least, len(orbit), stab))
    return ["rep %d %d orbit %d stab %s" % (lt[0], lt[1], k, " ".join(map(str, st)))
            for lt, k, st in sorted(rows)]


def groupoid_value(text):
    """(valid, dim) for a groupoid cocycle file, by brute force."""
    src, dst, vals, comp = {}, {}, {}, []
    for raw in text.splitlines():
        tok = raw.split("#", 1)[0].split()
        if not tok:
            continue
        if tok[0] == "mor":
            src[tok[3]], dst[tok[3]] = int(tok[1]), int(tok[2])
        elif tok[0] == "comp":
            comp.append(tuple(tok[1:]))
        elif tok[0] == "val":
            vals[tok[1]] = Fraction(tok[2]) % 1
        elif tok[0] == "objects":
            n_obj = int(tok[1])
    value = {label: vals.get(label, Fraction(0)) for label in src}
    valid = all((value[f] + value[g] - value[h]) % 1 == 0 for f, g, h in comp)
    identities = {f for f, g, h in comp if f == g == h}
    valid = valid and all(value[e] == 0 for e in identities)
    parent = list(range(n_obj))

    def find(x):
        while parent[x] != x:
            x = parent[x]
        return x

    for label in src:
        parent[find(src[label])] = find(dst[label])
    bad = {find(src[label]) for label in src
           if src[label] == dst[label] and value[label]}
    dim = len({find(x) for x in range(n_obj)} - bad)
    return valid, dim
