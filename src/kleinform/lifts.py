"""Lifts of pulled-back three-cocycles to two-cochains on Z^2.

A commuting pair (g, h) in a finite group G is a homomorphism rho from
Z^2, and a closed normalized 3-cochain alpha on G pulls back along rho to
a coboundary on Z^2 (the plane has no degree-three cohomology).  This
module produces explicit primitives gamma with

    gamma(a, b) + gamma(a+b, c) - gamma(a, b+c) - gamma(b, c)
        = alpha(rho a, rho b, rho c),

normalized so that gamma vanishes when an argument is the origin and takes
equal values on (e1, e2) and (e2, e1).  Two construction routes exist: a
staircase closed formula when the image of rho is cyclic, and an exact
linear solve over a finite window of the plane otherwise or on request.
Closed lifts rest on their staircase's one certificate, which covers all
of Z^2 (see _Staircase); window lifts and conjugates re-verify their
defining equation on all window triples.  A failure is a CertificateError
and means a bug, never bad input.  Alpha is read only from its integer
table (alpha.L and alpha.ints), and lift values are QZ residues.
No other module computes with these lifts: moduli reads every character
from alpha, and the tests use this module as the reference route.  The
one cache, of certified staircases, is unbounded; only the tests fill it.
"""

from itertools import accumulate, product
from math import gcd, lcm

from .errors import CertificateError, KleinformError, WindowError, exact_int
from .groups import closure, cyclic_generator
from .intmat import solve_sparse
from .moduli import TorusRep, _check_alpha_for
from .qz import QZ

E1 = (1, 0)
E2 = (0, 1)
DEFAULT_WINDOW = 2


class _Staircase:
    """Prefix-sum data for the closed-formula lift over a cyclic image.

    With k a generator of the image, of order nk, F(m, z) sums
    alpha(k, k^j, k^z) for j from 0 to m-1 (negated partial sums for
    negative m); res holds alpha(k^i, k^j, k^l) at i*nk^2 + j*nk + l as
    integers over L.  Construction checks, mod L, that pref[0] vanishes and

        F(m1, m2) + F(m1+m2, m3) - F(m1, m2+m3) - F(m2, m3) = res[m1 % nk, m2, m3]

    for m1 in 0..nk and m2, m3 in 0..nk-1.  The left side is unmoved when
    m2 or m3 moves by nk, and moves by period[m2] + period[m3] -
    period[m2+m3] when m1 does, which the checks at m1 = 0 and nk make 0.
    So the identity holds on Z^3; lam(x, y) = p*x + q*y is linear with
    rho(a) = k^lam(a) and the bilinear twist is a cocycle, so every closed
    lift satisfies its defining equation on all of Z^2, and F(0, z) = 0 and
    pref[0] make it vanish at the origin.  lift_gamma checks the symmetry.
    """

    __slots__ = ("nk", "L", "pref", "period")

    def __init__(self, nk, L, res):
        self.nk, self.L = nk, L
        start = (1 % nk) * nk * nk  # k itself; reduces to the identity when nk = 1
        k_slice = res[start:start + nk * nk]  # alpha(k, k^j, k^z) at j*nk + z
        self.pref = [list(accumulate(k_slice[z::nk], initial=0)) for z in range(nk)]
        self.period = [col[-1] for col in self.pref]
        F = self.F
        if any(x % L for x in self.pref[0]):
            raise CertificateError("staircase does not vanish at the identity")
        for m1, m2, m3 in product(range(nk + 1), range(nk), range(nk)):
            if (F(m1, m2) + F(m1 + m2, m3) - F(m1, m2 + m3) - F(m2, m3)
                    - res[((m1 % nk) * nk + m2) * nk + m3]) % L:
                raise CertificateError("staircase identity fails at %r" % ((m1, m2, m3),))

    def F(self, m, z):
        z %= self.nk
        return (m // self.nk) * self.period[z] + self.pref[z][m % self.nk]

    def gamma0(self, p, q):
        """The untwisted lift F(lam a, lam b) at g = k^p and h = k^q."""
        F, L = self.F, self.L
        return lambda a, b: QZ(F(p * a[0] + q * a[1], p * b[0] + q * b[1]), L)


_STAIR_CACHE = {}  # (nk, L, restricted alpha) -> certified _Staircase


def _twisted(base, lam0):
    """base plus the antisymmetric bilinear form lam0 * (x1*y2 - y1*x2); base if lam0 is 0."""
    if not lam0:
        return base

    def fn(a, b):
        return base(a, b) + lam0 * (a[0] * b[1] - a[1] * b[0])

    return fn


class GammaLift:
    """A verified lift of a pulled-back three-cocycle.

    mode is "closed" (staircase formula, valid on all of Z^2 x Z^2) or
    "window" (table over [-W, W]^2 pairs; evaluating outside raises
    WindowError).  A closed lift's window is the box _certify checks when
    the lift is built directly or conjugated; lift_gamma gives it 2.
    """

    __slots__ = ("rep", "alpha", "window", "mode", "_fn")

    def __init__(self, rep, alpha, window, mode, fn, _certified=False):
        if window < 1:
            raise KleinformError("lift window must be at least 1")
        self.rep = rep
        self.alpha = alpha
        self.window = window
        self.mode = mode
        self._fn = fn
        if not _certified:
            _certify(self)

    def evaluate(self, a, b):
        """The lift value at a pair of plane points, as a QZ residue."""
        a = (exact_int(a[0], "plane point"), exact_int(a[1], "plane point"))
        b = (exact_int(b[0], "plane point"), exact_int(b[1], "plane point"))
        if self.mode == "window":
            w = self.window
            for pt in (a, b):
                if abs(pt[0]) > w or abs(pt[1]) > w:
                    raise WindowError(
                        "point %r is outside the solved window %d" % (pt, w)
                    )
        return self._fn(a, b)

    def __repr__(self):
        return "GammaLift(mode=%s, window=%d)" % (self.mode, self.window)


def _window_points(w):
    return list(product(range(-w, w + 1), repeat=2))


def _equations(rep, w):
    """The defining equations of a lift over the window [-w, w]^2.

    There is one per triple of window points a, b, c with a+b and b+c in
    the window.  Each yields five integers: the places of the pairs
    (a, b), (a+b, c), (a, b+c) and (b, c) in product(pts, pts), where
    pts = _window_points(w), and the flat index of alpha(rho a, rho b,
    rho c) in alpha.ints.  The four lift values enter with signs +, +, -, -.
    """
    side = 2 * w + 1
    npts = side * side
    n = rep.group.order
    rho = [rep.image(x, y) for x, y in _window_points(w)]
    # coordinates shifted by w into 0..2w, so point (x, y) sits at x*side + y
    r = range(side)
    triples = [(x1, x2, x3) for x1 in r for x2 in r for x3 in r
               if 0 <= x1 + x2 - w < side and 0 <= x2 + x3 - w < side]
    for x1, x2, x3 in triples:
        xa, xb, xc = x1 * side, x2 * side, x3 * side
        xab, xbc = (x1 + x2 - w) * side - w, (x2 + x3 - w) * side - w
        for y1, y2, y3 in triples:
            a, b, c = xa + y1, xb + y2, xc + y3
            ab, bc = xab + y1 + y2, xbc + y2 + y3
            yield (a * npts + b, ab * npts + c, a * npts + bc, b * npts + c,
                   (rho[a] * n + rho[b]) * n + rho[c])


def _certify(lift):
    """Re-verify the defining equation of a lift over its whole window.

    Checks, exactly and with no tolerance: the coboundary identity on all
    window triples and vanishing at the origin.  Raises CertificateError on
    any mismatch; such a failure indicates an internal bug.
    """
    alpha, pts = lift.alpha, _window_points(lift.window)
    npts = len(pts)
    vals = [lift._fn(a, b) for a, b in product(pts, repeat=2)]
    denom = lcm(alpha.L, *{v.denominator for v in vals})
    iv = [v.numerator * (denom // v.denominator) for v in vals]
    ia = [x * (denom // alpha.L) for x in alpha.ints]

    origin = npts // 2
    for i, pt in enumerate(pts):
        if iv[origin * npts + i] % denom or iv[i * npts + origin] % denom:
            raise CertificateError("lift does not vanish against the origin at %r" % (pt,))

    for ab, ab_c, a_bc, bc, flat in _equations(lift.rep, lift.window):
        if (iv[ab] + iv[ab_c] - iv[a_bc] - iv[bc] - ia[flat]) % denom:
            raise CertificateError(
                "coboundary identity fails at %r, %r, %r"
                % (pts[ab // npts], pts[ab % npts], pts[ab_c % npts])
            )


def has_cyclic_image(rep):
    """True when the image of the rep is a cyclic subgroup."""
    grp = rep.group
    return cyclic_generator(grp, closure(grp, [rep.g, rep.h])) is not None


def _staircase_for(rep, alpha):
    """(staircase, p, q) with g = k^p and h = k^q, or None if the image is not cyclic.

    Staircases are keyed on the cyclic order and the restricted alpha over
    its least common denominator, so reps with the same image and
    restriction, in any group, share one staircase and its one certificate.
    """
    grp = rep.group
    sub = closure(grp, [rep.g, rep.h])
    k = cyclic_generator(grp, sub)
    if k is None:
        return None
    powers = [grp.power(k, i) for i in range(len(sub))]
    n, tab = grp.order, alpha.ints
    res = [tab[(i * n + j) * n + l] for i in powers for j in powers for l in powers]
    g = gcd(alpha.L, *res)
    key = (len(sub), alpha.L // g, tuple([x // g for x in res]))
    stair = _STAIR_CACHE.get(key)
    if stair is None:
        stair = _STAIR_CACHE[key] = _Staircase(*key)
    return stair, powers.index(rep.g), powers.index(rep.h)


def _solve_window(rep, alpha, w):
    """Table lift over [-w, w]^2 by the exact Q/Z solver, keyed by pairs of points."""
    pairs = list(product(_window_points(w), repeat=2))
    origin = (0, 0)
    # pairs touching the origin are pinned to zero, not unknowns
    free = (i for i, pair in enumerate(pairs) if origin not in pair)
    cols = {i: col for col, i in enumerate(free)}
    rows, rhs = [], []
    for *four, flat in _equations(rep, w):
        row = {}
        for i, coef in zip(four, (1, 1, -1, -1)):
            if i in cols:
                row[cols[i]] = row.get(cols[i], 0) + coef
        rows.append(row)
        rhs.append(QZ(alpha.ints[flat], alpha.L))
    result = solve_sparse(rows, len(cols), rhs)
    if not result.solvable:
        raise WindowError(
            "window solve infeasible at reduced row %d with residual %s; "
            "the system is solvable for every closed alpha, so this is a bug"
            % (result.row, result.residual)
        )
    table = dict.fromkeys(pairs, QZ(0))
    for i, col in cols.items():
        table[pairs[i]] = result.solution[col]
    return table


def lift_gamma(rep, alpha, window=None):
    """Build the normalized lift of alpha pulled back along rep.

    With no window the lift is closed (the staircase formula, evaluable
    anywhere) when the image of rep is cyclic, and a window-2 solve
    otherwise; an explicit window forces the solve over [-window, window]^2,
    outside which the lift cannot be evaluated.  Both routes are checked
    symmetric at (e1, e2); window lifts are certified on every
    construction, closed ones by their staircase.
    """
    _check_alpha_for(rep.group, alpha)
    found = _staircase_for(rep, alpha) if window is None else None
    if found is None:
        w = DEFAULT_WINDOW if window is None else exact_int(window, "lift window")
        if w < 1:
            raise KleinformError("window must be at least 1")
        table = _solve_window(rep, alpha, w)
        base = lambda a, b: table[(a, b)]
    else:
        stair, p, q = found
        base = stair.gamma0(p, q)
    fn = _twisted(base, (base(E2, E1) - base(E1, E2)).halve())
    if fn(E1, E2) != fn(E2, E1):
        raise CertificateError("lift is not symmetric at (e1, e2)")
    if found is None:
        return GammaLift(rep, alpha, w, "window", fn)
    return GammaLift(rep, alpha, DEFAULT_WINDOW, "closed", fn, _certified=True)


def conjugate_lift(lift, z):
    """The lift carried along conjugation of its rep by the group element z.

    The result lifts the same alpha over the conjugated rep; its value is
    the original lift plus the correction

        beta(a, b) = alpha(z, rho a, rho b)
                   + alpha(z rho(a) z^-1, z rho(b) z^-1, z)
                   - alpha(z rho(a) z^-1, z, rho b).

    This sign of the correction is the one whose coboundary equals
    (z rho z^-1)*alpha - rho*alpha under the degree-2 differential used
    throughout, so the sum certifies as a genuine lift for the new rep.
    Conjugates are not renormalized: their asymmetry at (e1, e2) is the
    conjugation holonomy, which moduli.holonomy_cocycle_R reads off alpha
    directly; this route stays as the tests' reference for it.
    """
    rep = lift.rep
    grp = rep.group
    z = exact_int(z, "conjugating element")
    if not (0 <= z < grp.order):
        raise KleinformError("conjugating element outside the group")
    rep2 = TorusRep(grp, grp.conj(z, rep.g), grp.conj(z, rep.h))
    n, L, tab = grp.order, lift.alpha.L, lift.alpha.ints
    base = lift._fn

    def fn(a, b):
        # rho is defined on all of Z^2, so one formula serves both modes
        u = rep.image(a[0], a[1])
        v = rep.image(b[0], b[1])
        cu = grp.conj(z, u)
        cv = grp.conj(z, v)
        corr = tab[(z * n + u) * n + v] + tab[(cu * n + cv) * n + z] - tab[(cu * n + z) * n + v]
        return base(a, b) + QZ(corr, L)

    return GammaLift(rep2, lift.alpha, lift.window, lift.mode, fn)
