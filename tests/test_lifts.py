import random

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
from kleinform.groups import GroupHom, cyclic, klein4, symmetric3
from kleinform.lifts import (
    E1,
    E2,
    GammaLift,
    TorusRep,
    conjugate_lift,
    has_cyclic_image,
    lift_gamma,
    sigma_diff,
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
        assert lift.normalized
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
    with pytest.raises(KleinformError):
        lift_gamma(rep, alpha, method="guess")
    not_closed = Cochain.from_function(
        z3, 3, lambda a, b, c: QZ(1, 3) if (a, b, c) == (1, 1, 2) else QZ(0)
    )
    with pytest.raises(KleinformError):
        lift_gamma(rep, not_closed)


def test_window_mode_bounds():
    rep = TorusRep(klein4(), 1, 2)
    alpha = Cochain.zero(klein4(), 3)
    lift = lift_gamma(rep, alpha, window=2)
    assert lift.mode == "window"
    assert lift.evaluate((2, 2), (-2, 0)) == QZ(0)
    with pytest.raises(WindowError):
        lift.evaluate((3, 0), E1)
    with pytest.raises(KleinformError):
        lift_gamma(rep, alpha, method="closed")


def test_closed_mode_has_no_bounds():
    lift = lift_gamma(TorusRep(cyclic(3), 1, 0), alpha_cyclic(3, 1))
    assert lift.mode == "closed"
    assert lift.evaluate((9, 0), (40, 0)) == QZ(0)


def test_sigma_diff_same_lift():
    lift = lift_gamma(TorusRep(cyclic(3), 1, 0), alpha_cyclic(3, 1))
    assert sigma_diff(lift, lift) == QZ(0)


def test_sigma_diff_ignores_exact_shifts():
    lift = lift_gamma(TorusRep(cyclic(4), 1, 0), alpha_cyclic(4, 1))
    shifted = lift.shift_by(lambda pt: QZ(pt[0], 4))
    assert sigma_diff(shifted, lift) == QZ(0)
    # a nonlinear eta has a visible coboundary, but sigma still cancels it
    quad = lift.shift_by(lambda pt: QZ(pt[0] * pt[0] + pt[1], 4))
    assert sigma_diff(quad, lift) == QZ(0)
    a, b = (1, 0), (1, 0)
    delta = QZ(1, 4) + QZ(1, 4) - QZ(4, 4)
    assert delta != QZ(0)
    assert quad.evaluate(a, b) == lift.evaluate(a, b) + delta


def test_sigma_diff_sees_twists():
    lift = lift_gamma(TorusRep(cyclic(3), 1, 0), alpha_cyclic(3, 1))
    twisted = lift.twist(QZ(1, 3))
    assert not twisted.normalized
    assert sigma_diff(twisted, lift) == QZ(2, 3)
    assert sigma_diff(lift.twist(QZ(1, 2)), lift) == QZ(0)


def test_sigma_diff_mismatch_errors():
    alpha = alpha_cyclic(3, 1)
    l1 = lift_gamma(TorusRep(cyclic(3), 1, 0), alpha)
    l2 = lift_gamma(TorusRep(cyclic(3), 2, 0), alpha)
    with pytest.raises(KleinformError):
        sigma_diff(l1, l2)
    l3 = lift_gamma(TorusRep(cyclic(3), 1, 0), alpha_cyclic(3, 2))
    with pytest.raises(KleinformError):
        sigma_diff(l1, l3)


def test_fast_and_window_routes_agree():
    alpha = alpha_cyclic(4, 1)
    rep = TorusRep(cyclic(4), 1, 2)
    fast = lift_gamma(rep, alpha, method="closed")
    slow = lift_gamma(rep, alpha, window=2, method="window")
    assert fast.mode == "closed" and slow.mode == "window"
    assert sigma_diff(fast, slow) == QZ(0)


def test_shift_and_twist_refuse_floats():
    lift = lift_gamma(TorusRep(cyclic(3), 1, 0), alpha_cyclic(3, 1))
    with pytest.raises(ValidationError):
        lift.twist(0.5)
    with pytest.raises(ValidationError):
        lift.shift_by(lambda pt: 0.0)


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
    lift = lift_gamma(TorusRep(cyclic(3), 1, 0), alpha_cyclic(3, 1))
    with pytest.raises(CertificateError):
        lift.shift_by(lambda pt: QZ(1, 4))


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
        assert sigma_diff(back, lift) == QZ(0)


def test_conjugate_rejects_outside_element():
    lift = lift_gamma(TorusRep(cyclic(3), 1, 0), alpha_cyclic(3, 1))
    with pytest.raises(KleinformError):
        conjugate_lift(lift, 7)


def test_lift_cache_returns_same_object():
    rep = TorusRep(cyclic(3), 1, 0)
    alpha = alpha_cyclic(3, 1)
    assert lift_gamma(rep, alpha) is lift_gamma(rep, alpha)


def test_gamma_lift_direct_construction_certifies():
    rep = TorusRep(cyclic(2), 1, 0)
    alpha = alpha_cyclic(2, 1)

    def bogus(a, b):
        return QZ(1, 3).as_fraction()

    with pytest.raises(CertificateError):
        GammaLift(rep, alpha, 2, "window", bogus, normalized=False)
