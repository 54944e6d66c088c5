import random
from itertools import product

import pytest

from kleinform.cochains import (
    Cochain,
    alpha_cyclic,
    coboundary_solve,
    differential,
    pullback_cochain,
)
from kleinform.errors import (
    CertificateError,
    KleinformError,
    ValidationError,
    WindowError,
)
from kleinform import lifts
from kleinform.groups import GroupHom, cyclic, klein4, symmetric3
from kleinform.lifts import (
    E1,
    E2,
    GammaLift,
    TorusRep,
    _Staircase,
    conjugate_lift,
    has_cyclic_image,
    lift_gamma,
)
from kleinform.qz import QZ


def test_torus_rep_validation():
    s3 = symmetric3()
    rep = TorusRep(s3, 3, 4)
    assert (rep.g, rep.h) == (3, 4)
    with pytest.raises(ValidationError):
        TorusRep(s3, 1, 2)
    with pytest.raises(ValidationError):
        TorusRep(s3, 0, 6)


def test_torus_rep_image():
    z3 = cyclic(3)
    rep = TorusRep(z3, 1, 0)
    assert rep.image(3, 0) == 0
    assert rep.image(-1, 5) == 2
    mixed = TorusRep(cyclic(6), 2, 3)
    assert mixed.image(1, 1) == 5
    assert mixed.image(2, -1) == 1


def test_has_cyclic_image():
    assert has_cyclic_image(TorusRep(cyclic(4), 1, 2))
    assert has_cyclic_image(TorusRep(symmetric3(), 3, 4))
    assert not has_cyclic_image(TorusRep(klein4(), 1, 2))


def test_lift_value_on_cyclic_three():
    z3 = cyclic(3)
    alpha = alpha_cyclic(3, 1)
    rep = TorusRep(z3, 1, 0)
    lift = lift_gamma(rep, alpha)
    # the one-generator formula: the value at ((3,0),(1,0)) is the partial sum
    # alpha(g, 1, g) + alpha(g, g, g) + alpha(g, g^2, g)
    oracle = alpha(1, 0, 1) + alpha(1, 1, 1) + alpha(1, 2, 1)
    assert oracle == QZ(1, 3)
    assert lift.evaluate((3, 0), (1, 0)) == QZ(1, 3)


def test_lift_negative_prefix():
    z3 = cyclic(3)
    alpha = alpha_cyclic(3, 1)
    lift = lift_gamma(TorusRep(z3, 1, 0), alpha)
    # for m <= 0 the formula flips to minus the sum of alpha(g, g^-j, g^z)
    oracle = -alpha(1, 2, 1)
    assert lift.evaluate((-1, 0), (1, 0)) == oracle
    assert lift.evaluate((-1, 0), (1, 0)) == QZ(2, 3)


def test_lift_vanishes_against_origin():
    alpha = alpha_cyclic(4, 3)
    lift = lift_gamma(TorusRep(cyclic(4), 1, 2), alpha)
    rnd = random.Random(15)
    for _ in range(20):
        pt = (rnd.randrange(-6, 7), rnd.randrange(-6, 7))
        assert lift.evaluate((0, 0), pt) == QZ(0)
        assert lift.evaluate(pt, (0, 0)) == QZ(0)


def test_lift_diagonal_rep_on_z2():
    alpha = alpha_cyclic(2, 1)
    lift = lift_gamma(TorusRep(cyclic(2), 1, 1), alpha)
    assert lift.evaluate(E1, E2) == QZ(0)
    assert lift.evaluate(E2, E1) == QZ(0)


def test_lift_symmetry_at_fundamental_class():
    cases = [
        (cyclic(5), alpha_cyclic(5, 2), (1, 3)),
        (cyclic(6), alpha_cyclic(6, 1), (2, 3)),
        (cyclic(4), alpha_cyclic(4, 3), (1, 1)),
    ]
    for group, alpha, (g, h) in cases:
        lift = lift_gamma(TorusRep(group, g, h), alpha)
        assert (lift.mode, lift.window) == ("closed", 2)
        assert lift.evaluate(E1, E2) == lift.evaluate(E2, E1)


def test_lift_input_validation():
    z3 = cyclic(3)
    alpha = alpha_cyclic(3, 1)
    rep = TorusRep(z3, 1, 0)
    with pytest.raises(KleinformError):
        lift_gamma(rep, alpha_cyclic(4, 1))
    with pytest.raises(KleinformError):
        lift_gamma(rep, Cochain.zero(z3, 2))
    with pytest.raises(KleinformError):
        lift_gamma(rep, alpha, window=0)
    not_closed = Cochain.from_function(
        z3, 3, lambda a, b, c: QZ(1, 3) if (a, b, c) == (1, 1, 2) else QZ(0)
    )
    with pytest.raises(KleinformError):
        lift_gamma(rep, not_closed)


def test_one_window_check_for_lift_gamma_and_gamma_lift(monkeypatch):
    # a window below 1 is refused with one message: by lift_gamma before the
    # solve runs, and by a GammaLift built directly
    rep = TorusRep(klein4(), 1, 2)
    alpha = Cochain.zero(klein4(), 3)
    solves = []
    monkeypatch.setattr(lifts, "_solve_window", lambda *args: solves.append(args))
    for window in (0, -1, -10**30):
        with pytest.raises(KleinformError, match="^lift window must be at least 1$"):
            lift_gamma(rep, alpha, window=window)
    assert solves == []
    for window in (0, -1):
        with pytest.raises(KleinformError, match="^lift window must be at least 1$"):
            GammaLift(rep, alpha, window, "window", lambda a, b: QZ(0), _certified=True)


def test_lift_gamma_refuses_a_float_window():
    rep = TorusRep(klein4(), 1, 2)
    alpha = Cochain.zero(klein4(), 3)
    with pytest.raises(ValidationError, match="lift window must be an integer, not 1.9"):
        lift_gamma(rep, alpha, window=1.9)


def test_evaluate_refuses_float_points():
    lift = lift_gamma(TorusRep(klein4(), 1, 2), Cochain.zero(klein4(), 3), window=1)
    assert lift.evaluate((1, 0), (0, 1)) == QZ(0)
    for a, b in (((1.7, 0), (0.2, 1)), ((1, 0), (0, 1.0))):
        with pytest.raises(ValidationError, match="plane point must be an integer"):
            lift.evaluate(a, b)


def test_window_mode_bounds():
    rep = TorusRep(klein4(), 1, 2)
    alpha = Cochain.zero(klein4(), 3)
    lift = lift_gamma(rep, alpha, window=2)
    assert lift.mode == "window"
    assert lift.evaluate((2, 2), (-2, 0)) == QZ(0)
    with pytest.raises(WindowError):
        lift.evaluate((3, 0), E1)


def test_closed_mode_has_no_bounds():
    lift = lift_gamma(TorusRep(cyclic(3), 1, 0), alpha_cyclic(3, 1))
    assert lift.mode == "closed"
    assert lift.evaluate((9, 0), (40, 0)) == QZ(0)


def _asymmetry(lift, p1, p2):
    return lift.evaluate(p1, p2) - lift.evaluate(p2, p1)


BOX = list(product(range(-2, 3), repeat=2))


def test_fast_and_window_routes_agree():
    alpha = alpha_cyclic(4, 1)
    rep = TorusRep(cyclic(4), 1, 2)
    fast = lift_gamma(rep, alpha)
    # an explicit window forces the solve even on a cyclic image
    slow = lift_gamma(rep, alpha, window=2)
    assert (fast.mode, fast.window) == ("closed", 2)
    assert (slow.mode, slow.window) == ("window", 2)
    for p1 in BOX:
        for p2 in BOX:
            assert _asymmetry(fast, p1, p2) == _asymmetry(slow, p1, p2)


def test_lifts_read_alpha_from_its_integer_table():
    # fresh cochains that no other test lifts, so every route runs here; none
    # of them may build alpha's QZ values
    closed_alpha = alpha_cyclic(7, 3)
    closed = lift_gamma(TorusRep(cyclic(7), 2, 3), closed_alpha)
    v4 = klein4()
    window_alpha = pullback_cochain(alpha_cyclic(2, 1), GroupHom(v4, cyclic(2), [0, 0, 1, 1]))
    window = lift_gamma(TorusRep(v4, 1, 3), window_alpha, window=1)
    assert (closed.mode, window.mode) == ("closed", "window")
    for lift in (closed, window):
        for z in (1, 2):
            conjugate_lift(lift, z)
    exact = differential(Cochain.from_function(cyclic(4), 2, lambda a, b: QZ(a * b, 4)))
    assert differential(coboundary_solve(exact)) == exact
    built = [alpha._values is not None for alpha in (closed_alpha, window_alpha, exact)]
    assert built == [False, False, False]


def test_shift_must_fix_origin():
    # adding the coboundary of the constant 1/4 keeps the defining equation
    # but moves the value against the origin
    lift = lift_gamma(TorusRep(cyclic(3), 1, 0), alpha_cyclic(3, 1))

    def shifted(a, b):
        return lift._fn(a, b) + QZ(1, 4)

    with pytest.raises(CertificateError, match="origin"):
        GammaLift(lift.rep, lift.alpha, 2, "closed", shifted)


def test_conjugate_by_identity():
    lift = lift_gamma(TorusRep(cyclic(3), 1, 0), alpha_cyclic(3, 1))
    conj = conjugate_lift(lift, 0)
    for a in ((1, 0), (1, 1), (0, 1), (-1, 2)):
        for b in ((1, 0), (2, 1)):
            assert conj.evaluate(a, b) == lift.evaluate(a, b)


def test_conjugate_on_one_sided_rep():
    z5 = cyclic(5)
    alpha = alpha_cyclic(5, 3)
    lift = lift_gamma(TorusRep(z5, 1, 0), alpha)
    for z in z5.elements:
        conj = conjugate_lift(lift, z)
        assert conj.evaluate(E1, E2) == lift.evaluate(E1, E2)
        assert conj.evaluate(E2, E1) == lift.evaluate(E2, E1)


def test_conjugate_diagonal_rep_on_z2():
    alpha = alpha_cyclic(2, 1)
    lift = lift_gamma(TorusRep(cyclic(2), 1, 1), alpha)
    conj = conjugate_lift(lift, 1)
    # the correction at the fundamental class is alpha(g, g, g) = 1/2 both ways
    assert conj.evaluate(E1, E2) - lift.evaluate(E1, E2) == QZ(1, 2)
    assert conj.evaluate(E2, E1) - lift.evaluate(E2, E1) == QZ(1, 2)


def test_conjugate_matches_correction_formula():
    # window-mode rep on the Klein group, alpha pulled back from Z/2
    v4 = klein4()
    z2 = cyclic(2)
    h = GroupHom(v4, z2, [0, 1, 0, 1])
    alpha = pullback_cochain(alpha_cyclic(2, 1), h)
    rep = TorusRep(v4, 1, 2)
    lift = lift_gamma(rep, alpha, window=2)
    for z in v4.elements:
        conj = conjugate_lift(lift, z)
        for a in ((1, 0), (0, 1), (1, 1), (-1, 1)):
            for b in ((1, 0), (0, 1), (1, -1)):
                u = rep.image(a[0], a[1])
                w = rep.image(b[0], b[1])
                cu = v4.conj(z, u)
                cw = v4.conj(z, w)
                beta = alpha(z, u, w) + alpha(cu, cw, z) - alpha(cu, z, w)
                assert conj.evaluate(a, b) == lift.evaluate(a, b) + beta


def test_conjugate_there_and_back():
    s3 = symmetric3()
    z2 = cyclic(2)
    sign = GroupHom(s3, z2, [0, 1, 1, 0, 0, 1])
    alpha = pullback_cochain(alpha_cyclic(2, 1), sign)
    lift = lift_gamma(TorusRep(s3, 3, 0), alpha)
    for z in (1, 3):
        there = conjugate_lift(lift, z)
        back = conjugate_lift(there, s3.inv(z))
        assert back.rep == lift.rep
        # there and back differs from the lift by an exact, hence symmetric, cochain
        for p1 in BOX:
            for p2 in BOX:
                assert _asymmetry(back, p1, p2) == _asymmetry(lift, p1, p2)


def test_conjugate_rejects_outside_element():
    lift = lift_gamma(TorusRep(cyclic(3), 1, 0), alpha_cyclic(3, 1))
    with pytest.raises(KleinformError):
        conjugate_lift(lift, 7)


def test_conjugate_refuses_a_float_element():
    lift = lift_gamma(TorusRep(cyclic(3), 1, 0), alpha_cyclic(3, 1))
    with pytest.raises(ValidationError, match="conjugating element must be an integer"):
        conjugate_lift(lift, 1.0)


def test_staircase_certificate_rejects_a_corrupted_table():
    # with k = 1 in Z/3, the restricted table of alpha is its whole table
    alpha = alpha_cyclic(3, 1)
    _Staircase(3, alpha.L, list(alpha.ints))
    for (i, j, l), fault in (((2, 2, 2), "identity fails"), ((1, 1, 0), "vanish")):
        bad = list(alpha.ints)
        bad[(i * 3 + j) * 3 + l] += 1
        with pytest.raises(CertificateError, match=fault):
            _Staircase(3, alpha.L, bad)


def test_staircases_are_keyed_on_the_restricted_table(monkeypatch):
    # every commuting pair of Z/6 at one level: one staircase per subgroup,
    # whatever the discrete logs of g and h
    monkeypatch.setattr(lifts, "_STAIR_CACHE", {})
    z6, alpha = cyclic(6), alpha_cyclic(6, 1)
    for g in z6.elements:
        for h in z6.elements:
            assert lift_gamma(TorusRep(z6, g, h), alpha).mode == "closed"
    assert sorted(key[0] for key in lifts._STAIR_CACHE) == [1, 2, 3, 6]


def test_gamma_lift_direct_construction_certifies():
    rep = TorusRep(cyclic(2), 1, 0)
    alpha = alpha_cyclic(2, 1)

    def bogus(a, b):
        return QZ(1, 3)

    with pytest.raises(CertificateError):
        GammaLift(rep, alpha, 2, "window", bogus)
