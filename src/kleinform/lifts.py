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
linear solve over a finite window of the plane otherwise.  Every lift,
however built, re-verifies its defining equation on all window triples
before it is handed out; a failure there is a CertificateError and means a
bug, never bad input.  Alpha is read only from its integer table (alpha.L
and alpha.ints), and lift values are Fractions in [0, 1).  No other module
computes with these lifts: moduli reads every character from alpha, and
the tests use this module as the reference route.  Its two caches, of
lifts and of staircases with the window their certificate covers, are
unbounded; only the tests fill them.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import accumulate, product
from math import gcd, lcm

from .errors import CertificateError, KleinformError, WindowError
from .groups import closure, cyclic_generator
from .intmat import solve_sparse
from .moduli import TorusRep, _check_alpha_for
from .qz import QZ

E1 = (1, 0)
E2 = (0, 1)
DEFAULT_WINDOW = 2


class _Staircase:
    """Prefix-sum data for the closed-formula lift over a cyclic image.

    With k a generator of the image, g = k^p, h = k^q and lam(x, y) =
    p*x + q*y, the base lift is gamma0(a, b) = F(lam a, lam b) where
    F(m, z) sums alpha(k, k^j, k^z) for j from 0 to m-1 (negated partial
    sums for negative m).  F is periodic up to the full-period sum, so two
    small tables cover every integer argument.  F sums integers over L,
    the common denominator of alpha restricted to the image.
    """

    __slots__ = ("nk", "p", "q", "L", "pref", "period")

    def __init__(self, nk, p, q, L, res):
        # res: numerators over L, alpha(k^i, k^j, k^l) at i*nk^2 + j*nk + l
        self.nk, self.p, self.q, self.L = nk, p, q, L
        start = (1 % nk) * nk * nk  # k itself; reduces to the identity when nk = 1
        k_slice = res[start:start + nk * nk]  # alpha(k, k^j, k^z) at j*nk + z
        self.pref = [list(accumulate(k_slice[z::nk], initial=0)) for z in range(nk)]
        self.period = [col[-1] for col in self.pref]

    def F(self, m, z):
        z %= self.nk
        return (m // self.nk) * self.period[z] + self.pref[z][m % self.nk]

    def gamma0(self, a, b):
        p, q = self.p, self.q
        return Fraction(self.F(p * a[0] + q * a[1], p * b[0] + q * b[1]) % self.L, self.L)


_STAIR_CACHE = {}  # staircase key -> [staircase, lam0, largest window certified]
_LIFT_CACHE = {}


def _twisted(base, lam0):
    """base plus the antisymmetric bilinear form lam0 * (x1*y2 - y1*x2); base if lam0 is 0."""
    if not lam0:
        return base

    def fn(a, b):
        return (base(a, b) + lam0 * (a[0] * b[1] - a[1] * b[0])) % 1

    return fn


class GammaLift:
    """A verified lift of a pulled-back three-cocycle.

    mode is "closed" (staircase formula, valid on all of Z^2 x Z^2) or
    "window" (table over [-W, W]^2 pairs; evaluating outside raises
    WindowError).  normalized marks lifts built by lift_gamma, which in
    addition take equal values at (e1, e2) and (e2, e1); conjugates and
    twists drop that flag since their asymmetry there is the payload.
    """

    __slots__ = ("rep", "alpha", "window", "mode", "normalized", "_fn")

    def __init__(self, rep, alpha, window, mode, fn, normalized, _certified=False):
        if window < 1:
            raise KleinformError("lift window must be at least 1")
        self.rep = rep
        self.alpha = alpha
        self.window = window
        self.mode = mode
        self.normalized = normalized
        self._fn = fn
        if not _certified:
            _certify(self)

    def evaluate(self, a, b):
        """The lift value at a pair of plane points, as a QZ residue."""
        a = (int(a[0]), int(a[1]))
        b = (int(b[0]), int(b[1]))
        if self.mode == "window":
            w = self.window
            for pt in (a, b):
                if abs(pt[0]) > w or abs(pt[1]) > w:
                    raise WindowError(
                        "point %r is outside the solved window %d" % (pt, w)
                    )
        return QZ(self._fn(a, b))

    def shift_by(self, eta):
        """The lift shifted by the exact cochain d eta.

        eta maps plane points to QZ (or any exact number QZ accepts); the
        shift adds eta(a) + eta(b) - eta(a+b), which never moves the
        underlying cohomology data.  eta must vanish at the origin or the
        certificate will reject the result.
        """

        def ev(pt):
            return QZ(eta(pt)).as_fraction()

        base = self._fn

        def fn(a, b):
            s = (a[0] + b[0], a[1] + b[1])
            return (base(a, b) + ev(a) + ev(b) - ev(s)) % 1

        return GammaLift(self.rep, self.alpha, self.window, self.mode, fn,
                         self.normalized)

    def twist(self, lam0):
        """Add the antisymmetric bilinear form lam0 * (x1*y2 - y1*x2).

        This walks through the classes of lifts over the same cocycle
        without touching the defining equation.
        """
        return GammaLift(self.rep, self.alpha, self.window, self.mode,
                         _twisted(self._fn, QZ(lam0).as_fraction()), normalized=False)

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
    window triples, vanishing at the origin, and (for normalized lifts)
    equality at (e1, e2) and (e2, e1).  Raises CertificateError on any
    mismatch; such a failure indicates an internal bug.
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

    e1, e2 = pts.index(E1), pts.index(E2)
    if lift.normalized and (iv[e1 * npts + e2] - iv[e2 * npts + e1]) % denom:
        raise CertificateError("lift is not symmetric at (e1, e2)")

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
    """The cache entry [staircase, lam0, certified window] of a rep, or None.

    None means the image of the rep is not cyclic.  Entries are keyed on
    the mathematical content (cyclic order, discrete logs, the restricted
    alpha over its least common denominator), so reps in different groups
    with matching restrictions share everything, including certification:
    the defining equation only ever sees alpha through its restriction to
    the image.
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
    key = (len(sub), powers.index(rep.g), powers.index(rep.h), alpha.L // g,
           tuple([x // g for x in res]))
    entry = _STAIR_CACHE.get(key)
    if entry is None:
        stair = _Staircase(*key)
        L, p, q = stair.L, stair.p, stair.q
        # lam0 is QZ.halve of F(q, p) - F(p, q): its residue in 0..L-1, over 2L
        lam0 = Fraction((stair.F(q, p) - stair.F(p, q)) % L, 2 * L)
        entry = _STAIR_CACHE[key] = [stair, lam0, 0]
    return entry


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
        rhs.append(Fraction(alpha.ints[flat], alpha.L))
    result = solve_sparse(rows, len(cols), rhs)
    if not result.solvable:
        raise WindowError(
            "window solve infeasible at reduced row %d with residual %s; "
            "the system is solvable for every closed alpha, so this is a bug"
            % (result.row, result.residual)
        )
    table = dict.fromkeys(pairs, Fraction(0))
    for i, col in cols.items():
        table[pairs[i]] = result.solution[col].as_fraction()
    return table


def lift_gamma(rep, alpha, window=None, method="auto"):
    """Build the normalized lift of alpha pulled back along rep.

    method "auto" prefers the staircase closed formula (available exactly
    when the image of rep is cyclic) and falls back to the window solve;
    "closed" and "window" force a route.  The default window is 2; window
    lifts can only be evaluated inside their window, closed lifts anywhere.
    The certificate re-verification runs on every construction.
    """
    _check_alpha_for(rep.group, alpha)
    w = DEFAULT_WINDOW if window is None else int(window)
    if w < 1:
        raise KleinformError("window must be at least 1")
    if method not in ("auto", "closed", "window"):
        raise KleinformError("method must be auto, closed or window")

    cache_key = (rep, alpha, w, method)
    hit = _LIFT_CACHE.get(cache_key)
    if hit is not None:
        return hit

    entry = None if method == "window" else _staircase_for(rep, alpha)
    if entry is not None:
        stair, lam0, done = entry
        # identical staircase data has an identical certificate, so a
        # window already covered for this key need not be re-verified
        lift = GammaLift(rep, alpha, w, "closed", _twisted(stair.gamma0, lam0),
                         normalized=True, _certified=done >= w)
        entry[2] = max(done, w)
    elif method == "closed":
        raise KleinformError("closed-form lift needs a cyclic image")
    else:
        table = _solve_window(rep, alpha, w)
        lam0 = QZ(table[(E2, E1)] - table[(E1, E2)]).halve().as_fraction()
        lift = GammaLift(rep, alpha, w, "window",
                         _twisted(lambda a, b: table[(a, b)], lam0), normalized=True)

    _LIFT_CACHE[cache_key] = lift
    return lift


def sigma_diff(first, second):
    """Compare two lifts of the same rep and cocycle at the fundamental class.

    Returns (first - second)(e1, e2) - (first - second)(e2, e1); exact
    shifts cancel out of this, so it detects precisely the twist between
    the two lifts.
    """
    if first.rep != second.rep:
        raise KleinformError("sigma_diff needs lifts of the same rep")
    if first.alpha != second.alpha:
        raise KleinformError("sigma_diff needs lifts of the same cocycle")
    d12 = first._fn(E1, E2) - second._fn(E1, E2)
    d21 = first._fn(E2, E1) - second._fn(E2, E1)
    return QZ(d12 - d21)


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
    z = int(z)
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
        return (base(a, b) + Fraction(corr, L)) % 1

    return GammaLift(rep2, lift.alpha, lift.window, lift.mode, fn, normalized=False)
