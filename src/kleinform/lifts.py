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
bug, never bad input.  No other module computes with these lifts: moduli
reads every character from alpha, and the tests use this module as the
reference route.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm

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
    small tables cover every integer argument.
    """

    __slots__ = ("nk", "p", "q", "pref", "period")

    def __init__(self, nk, p, q, alpha_res):
        # alpha_res: flat tuple of Fractions, alpha(k^i, k^j, k^l) at i*nk^2 + j*nk + l
        self.nk = nk
        self.p = p
        self.q = q
        nk2 = nk * nk
        k_slot = (1 % nk) * nk2  # k itself; reduces to the identity when nk = 1
        pref = []
        period = []
        for z in range(nk):
            col = [Fraction(0)]
            acc = Fraction(0)
            for j in range(nk):
                acc += alpha_res[k_slot + j * nk + z]  # alpha(k, k^j, k^z)
                col.append(acc)
            pref.append(col)
            period.append(acc)
        self.pref = pref
        self.period = period

    def F(self, m, z):
        z %= self.nk
        return (m // self.nk) * self.period[z] + self.pref[z][m % self.nk]

    def lam(self, pt):
        return self.p * pt[0] + self.q * pt[1]

    def gamma0(self, a, b):
        return self.F(self.lam(a), self.lam(b))


_STAIR_CACHE = {}
_STAIR_CERTIFIED = {}  # staircase key -> largest window the certificate has covered
_LIFT_CACHE = {}


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

        eta maps plane points to QZ (or Fraction); the shift adds
        eta(a) + eta(b) - eta(a+b), which never moves the underlying
        cohomology data.  eta must vanish at the origin or the certificate
        will reject the result.
        """

        def ev(pt):
            v = eta(pt)
            return v.as_fraction() if isinstance(v, QZ) else Fraction(v)

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
        lam0 = lam0.as_fraction() if isinstance(lam0, QZ) else Fraction(lam0)
        base = self._fn

        def fn(a, b):
            return (base(a, b) + lam0 * (a[0] * b[1] - a[1] * b[0])) % 1

        return GammaLift(self.rep, self.alpha, self.window, self.mode, fn,
                         normalized=False)

    def __repr__(self):
        return "GammaLift(mode=%s, window=%d)" % (self.mode, self.window)


def _window_points(w):
    return [(x, y) for x in range(-w, w + 1) for y in range(-w, w + 1)]


def _coord_triples(w):
    out = []
    for x1 in range(-w, w + 1):
        for x2 in range(-w, w + 1):
            if abs(x1 + x2) > w:
                continue
            for x3 in range(-w, w + 1):
                if abs(x2 + x3) <= w:
                    out.append((x1, x2, x3))
    return out


def _certify(lift):
    """Re-verify the defining equation of a lift over its whole window.

    Checks, exactly and with no tolerance: the coboundary identity on all
    window triples, vanishing at the origin, and (for normalized lifts)
    equality at (e1, e2) and (e2, e1).  Raises CertificateError on any
    mismatch; such a failure indicates an internal bug.
    """
    rep, alpha, w = lift.rep, lift.alpha, lift.window
    pts = _window_points(w)
    fn = lift._fn
    vals = {}
    for a in pts:
        for b in pts:
            vals[(a, b)] = fn(a, b)

    denom = alpha.L
    for v in vals.values():
        denom = lcm(denom, v.denominator)
    iv = {k: v.numerator * (denom // v.denominator) for k, v in vals.items()}
    ia = [x * (denom // alpha.L) for x in alpha.ints]

    n = rep.group.order
    rho = {pt: rep.image(pt[0], pt[1]) for pt in pts}

    origin = (0, 0)
    for pt in pts:
        if iv[(origin, pt)] % denom or iv[(pt, origin)] % denom:
            raise CertificateError("lift does not vanish against the origin at %r" % (pt,))

    if lift.normalized and (iv[(E1, E2)] - iv[(E2, E1)]) % denom:
        raise CertificateError("lift is not symmetric at (e1, e2)")

    triples = _coord_triples(w)
    for xs in triples:
        x1, x2, x3 = xs
        for ys in triples:
            a = (x1, ys[0])
            b = (x2, ys[1])
            c = (x3, ys[2])
            ab = (x1 + x2, ys[0] + ys[1])
            bc = (x2 + x3, ys[1] + ys[2])
            lhs = iv[(a, b)] + iv[(ab, c)] - iv[(a, bc)] - iv[(b, c)]
            rhs = ia[(rho[a] * n + rho[b]) * n + rho[c]]
            if (lhs - rhs) % denom:
                raise CertificateError(
                    "coboundary identity fails at %r, %r, %r" % (a, b, c)
                )


def has_cyclic_image(rep):
    """True when the image of the rep is a cyclic subgroup."""
    grp = rep.group
    return cyclic_generator(grp, closure(grp, [rep.g, rep.h])) is not None


def _staircase_for(rep, alpha):
    """Staircase data and normalization for a cyclic-image rep, or None.

    Results are cached on the mathematical content (cyclic order, discrete
    logs, restricted alpha), so reps in different groups with matching
    restrictions share everything, including certification: the defining
    equation only ever sees alpha through its restriction to the image.
    """
    grp = rep.group
    sub = closure(grp, [rep.g, rep.h])
    k = cyclic_generator(grp, sub)
    if k is None:
        return None
    nk = len(sub)
    powers = [grp.power(k, i) for i in range(nk)]
    dlog = {x: i for i, x in enumerate(powers)}
    p, q = dlog[rep.g], dlog[rep.h]
    res = []
    for i in range(nk):
        for j in range(nk):
            for l in range(nk):
                res.append(alpha(powers[i], powers[j], powers[l]).as_fraction())
    key = (nk, p, q, tuple(res))
    hit = _STAIR_CACHE.get(key)
    if hit is not None:
        return key, hit[0], hit[1]
    stair = _Staircase(nk, p, q, res)
    lam0 = QZ(stair.F(q, p) - stair.F(p, q)).halve().as_fraction()
    _STAIR_CACHE[key] = (stair, lam0)
    return key, stair, lam0


def _solve_window(rep, alpha, w):
    """Table lift over [-w, w]^2 by the exact Q/Z solver."""
    pts = _window_points(w)
    origin = (0, 0)
    unknowns = {}
    for a in pts:
        for b in pts:
            if a != origin and b != origin:
                unknowns[(a, b)] = len(unknowns)

    def col(pair):
        # pairs touching the origin are pinned to zero, not unknowns
        return unknowns.get(pair)

    n = rep.group.order
    rho = {pt: rep.image(pt[0], pt[1]) for pt in pts}
    rows = []
    rhs = []
    triples = _coord_triples(w)
    for xs in triples:
        x1, x2, x3 = xs
        for ys in triples:
            a = (x1, ys[0])
            b = (x2, ys[1])
            c = (x3, ys[2])
            ab = (x1 + x2, ys[0] + ys[1])
            bc = (x2 + x3, ys[1] + ys[2])
            row = {}
            for pair, coef in (((a, b), 1), ((ab, c), 1), ((a, bc), -1), ((b, c), -1)):
                idx = col(pair)
                if idx is not None:
                    row[idx] = row.get(idx, 0) + coef
            rows.append(row)
            rhs.append(alpha(rho[a], rho[b], rho[c]))
    result = solve_sparse(rows, len(unknowns), rhs)
    if not result.solvable:
        raise WindowError(
            "window solve infeasible at reduced row %d with residual %s; "
            "the system is solvable for every closed alpha, so this is a bug"
            % (result.row, result.residual)
        )
    table = {}
    for pair, idx in unknowns.items():
        table[pair] = result.solution[idx].as_fraction()
    for a in pts:
        table[(origin, a)] = Fraction(0)
        table[(a, origin)] = Fraction(0)
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

    lift = None
    if method in ("auto", "closed"):
        data = _staircase_for(rep, alpha)
        if data is None:
            if method == "closed":
                raise KleinformError("closed-form lift needs a cyclic image")
        else:
            key, stair, lam0 = data

            def fn(a, b, stair=stair, lam0=lam0):
                val = stair.gamma0(a, b)
                if lam0:
                    val += lam0 * (a[0] * b[1] - a[1] * b[0])
                return val % 1

            # identical staircase data has an identical certificate, so a
            # window already covered for this key need not be re-verified
            done = _STAIR_CERTIFIED.get(key, 0)
            lift = GammaLift(rep, alpha, w, "closed", fn, normalized=True,
                             _certified=done >= w)
            if done < w:
                _STAIR_CERTIFIED[key] = w
    if lift is None:
        table = _solve_window(rep, alpha, w)
        lam0 = QZ(table[(E2, E1)] - table[(E1, E2)]).halve().as_fraction()

        def fn(a, b, table=table, lam0=lam0):
            val = table[(a, b)]
            if lam0:
                val += lam0 * (a[0] * b[1] - a[1] * b[0])
            return val % 1

        lift = GammaLift(rep, alpha, w, "window", fn, normalized=True)

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
    alpha = lift.alpha
    base = lift._fn

    def fn(a, b):
        # rho is defined on all of Z^2, so one formula serves both modes
        u = rep.image(a[0], a[1])
        v = rep.image(b[0], b[1])
        cu = grp.conj(z, u)
        cv = grp.conj(z, v)
        corr = (
            alpha(z, u, v).as_fraction()
            + alpha(cu, cv, z).as_fraction()
            - alpha(cu, z, v).as_fraction()
        )
        return (base(a, b) + corr) % 1

    return GammaLift(rep2, alpha, lift.window, lift.mode, fn, normalized=False)
