import time

import pytest

from kleinform.errors import KleinformError, ValidationError
from kleinform.groups import symmetric3
from kleinform.groupoid_lines import (
    FiniteGroupoidPresentation,
    GroupoidCocycle,
    flat_components,
    parse_groupoid_text,
    validate_groupoid_cocycle,
)
from kleinform.qz import QZ


def z2_point():
    """One object with a flip: the quotient of a point by Z/2."""
    mors = [(0, 0, "e"), (0, 0, "t")]
    comp = {("e", "e"): "e", ("e", "t"): "t", ("t", "e"): "t", ("t", "t"): "e"}
    return FiniteGroupoidPresentation(1, mors, comp)


def pair_groupoid():
    mors = [(0, 0, "id0"), (1, 1, "id1"), (0, 1, "f"), (1, 0, "g")]
    comp = {
        ("id0", "id0"): "id0",
        ("id1", "id1"): "id1",
        ("f", "id0"): "f",
        ("id1", "f"): "f",
        ("g", "id1"): "g",
        ("id0", "g"): "g",
        ("g", "f"): "id0",
        ("f", "g"): "id1",
    }
    return FiniteGroupoidPresentation(2, mors, comp)


def test_point_groupoid():
    p = FiniteGroupoidPresentation(1, [(0, 0, "e")], {("e", "e"): "e"})
    assert p.identities == {0: "e"}
    assert p.comp == {("e", "e"): "e"}
    assert p.components() == ((0,),)


def test_pair_groupoid_structure():
    p = pair_groupoid()
    assert (0, 1, "f") in p.morphisms
    assert p.comp[("g", "f")] == "id0"
    assert ("f", "f") not in p.comp
    assert p.identities == {0: "id0", 1: "id1"}
    assert p.components() == ((0, 1),)


def test_components_with_isolated_object():
    mors = [(0, 0, "a"), (1, 1, "b"), (2, 2, "c")]
    comp = {("a", "a"): "a", ("b", "b"): "b", ("c", "c"): "c"}
    p = FiniteGroupoidPresentation(3, mors, comp)
    assert p.components() == ((0,), (1,), (2,))


def test_structure_validation_errors():
    with pytest.raises(ValidationError):
        FiniteGroupoidPresentation(1, [(0, 0)], {})
    with pytest.raises(ValidationError):
        FiniteGroupoidPresentation(1, [(0, 2, "f")], {})
    with pytest.raises(ValidationError):
        FiniteGroupoidPresentation(1, [(0, 0, "e"), (0, 0, "e")], {})
    with pytest.raises(ValidationError):
        FiniteGroupoidPresentation(
            1, [(0, 0, "e")], {("e", "e"): "e", ("e", "x"): "e"}
        )
    # (f, f) is not composable in the pair groupoid
    with pytest.raises(ValidationError):
        FiniteGroupoidPresentation(
            2,
            [(0, 0, "id0"), (1, 1, "id1"), (0, 1, "f"), (1, 0, "g")],
            {("f", "f"): "id0"},
        )
    # composable, but the claimed composite has the wrong endpoints
    with pytest.raises(ValidationError):
        FiniteGroupoidPresentation(
            2,
            [(0, 0, "id0"), (1, 1, "id1"), (0, 1, "f"), (1, 0, "g")],
            {("f", "g"): "f"},
        )


def test_bool_object_counts_and_endpoints_are_refused():
    with pytest.raises(ValidationError, match="object count must be a non-negative integer"):
        FiniteGroupoidPresentation(True, [(0, 0, "e")], {("e", "e"): "e"})
    with pytest.raises(ValidationError, match="'e' has source outside the object set"):
        FiniteGroupoidPresentation(1, [(False, 0, "e")], {("e", "e"): "e"})
    with pytest.raises(ValidationError, match="'e' has target outside the object set"):
        FiniteGroupoidPresentation(1, [(0, False, "e")], {("e", "e"): "e"})


def test_missing_composition_total_mode():
    mors = [(0, 0, "e"), (0, 0, "t")]
    comp = {("e", "e"): "e", ("e", "t"): "t", ("t", "e"): "t"}
    with pytest.raises(ValidationError) as exc:
        FiniteGroupoidPresentation(1, mors, comp)
    assert "missing composition" in str(exc.value)


def test_no_identity_error():
    mors = [(0, 0, "a"), (0, 0, "b")]
    comp = {
        ("a", "a"): "a",
        ("a", "b"): "a",
        ("b", "a"): "a",
        ("b", "b"): "a",
    }
    with pytest.raises(ValidationError) as exc:
        FiniteGroupoidPresentation(1, mors, comp)
    assert "identity" in str(exc.value)


def test_associativity_error():
    # the order-5 nonassociative loop of test_groups, as a one-object
    # presentation: total, with identity "0" and every inverse, so only
    # associativity can fail
    table = [
        [0, 1, 2, 3, 4],
        [1, 0, 3, 4, 2],
        [2, 3, 4, 0, 1],
        [3, 4, 1, 2, 0],
        [4, 2, 0, 1, 3],
    ]
    mors = [(0, 0, str(a)) for a in range(5)]
    comp = {(str(a), str(b)): str(table[a][b]) for a in range(5) for b in range(5)}
    with pytest.raises(ValidationError) as exc:
        FiniteGroupoidPresentation(1, mors, comp)
    assert str(exc.value) == "associativity fails at '1', '1', '2'"


def test_missing_inverse_error():
    mors = [(0, 0, "e"), (0, 0, "t")]
    comp = {("e", "e"): "e", ("e", "t"): "t", ("t", "e"): "t", ("t", "t"): "t"}
    with pytest.raises(ValidationError) as exc:
        FiniteGroupoidPresentation(1, mors, comp)
    assert "inverse" in str(exc.value)


def test_errors_name_the_first_offender_in_morphism_order():
    # two objects, so the source and target indexes matter: each error
    # names the first label in morphism order that fails
    mors = [(0, 0, "id0"), (1, 1, "id1"), (0, 1, "f"), (1, 0, "g")]
    comp = dict(pair_groupoid().comp)
    del comp[("f", "g")], comp[("g", "f")], comp[("g", "id1")]
    with pytest.raises(ValidationError) as exc:
        FiniteGroupoidPresentation(2, mors, comp)
    assert str(exc.value) == "missing composition for 'f' after 'g'"

    mors = [(0, 0, "e0"), (1, 1, "a"), (1, 1, "b")]
    comp = {("e0", "e0"): "e0", ("a", "a"): "a", ("a", "b"): "a",
            ("b", "a"): "a", ("b", "b"): "a"}
    with pytest.raises(ValidationError) as exc:
        FiniteGroupoidPresentation(2, mors, comp)
    assert str(exc.value) == "object 1 has no identity morphism"

    # two idempotent monoids {e, t}, t t = t, listed object 1 first
    mors = [(1, 1, "e1"), (1, 1, "t1"), (0, 0, "e0"), (0, 0, "t0")]
    comp = {}
    for e, t in (("e0", "t0"), ("e1", "t1")):
        comp.update({(e, e): e, (e, t): t, (t, e): t, (t, t): t})
    with pytest.raises(ValidationError) as exc:
        FiniteGroupoidPresentation(2, mors, comp)
    assert str(exc.value) == "morphism 't1' has no inverse"


def test_discrete_groupoid_validates_in_linear_time():
    n = 20_000
    mors = [(i, i, "e%d" % i) for i in range(n)]
    comp = {("e%d" % i, "e%d" % i): "e%d" % i for i in range(n)}
    start = time.perf_counter()
    pres = FiniteGroupoidPresentation(n, mors, comp)
    cocycle = GroupoidCocycle(pres, {})
    assert validate_groupoid_cocycle(cocycle).valid
    assert flat_components(cocycle) == n
    assert time.perf_counter() - start < 2


def test_cocycle_values_default_to_zero():
    p = z2_point()
    c = GroupoidCocycle(p, {"t": QZ(1, 2)})
    assert c("t") == QZ(1, 2)
    assert c("e") == QZ(0)
    with pytest.raises(ValidationError):
        GroupoidCocycle(p, {"nope": QZ(0)})


def test_validate_flip_cocycle():
    p = z2_point()
    good = GroupoidCocycle(p, {"t": QZ(1, 2)})
    report = validate_groupoid_cocycle(good)
    assert report.valid
    assert bool(report)

    bad = GroupoidCocycle(p, {"t": QZ(1, 3)})
    report = validate_groupoid_cocycle(bad)
    assert not report.valid
    assert any("additivity" in v for v in report.violations)

    worse = GroupoidCocycle(p, {"e": QZ(1, 2)})
    report = validate_groupoid_cocycle(worse)
    assert any("identity" in v for v in report.violations)

    zero = GroupoidCocycle(p, {})
    assert validate_groupoid_cocycle(zero).valid


def test_sections_dim_examples():
    p = z2_point()
    assert flat_components(GroupoidCocycle(p, {"t": QZ(1, 2)})) == 0
    assert flat_components(GroupoidCocycle(p, {})) == 1


def test_sections_dim_disjoint_union():
    mors = [(0, 0, "e0"), (0, 0, "t0"), (1, 1, "e1"), (1, 1, "t1")]
    comp = {}
    for i in ("0", "1"):
        e, t = "e" + i, "t" + i
        comp.update({(e, e): e, (e, t): t, (t, e): t, (t, t): e})
    p = FiniteGroupoidPresentation(2, mors, comp)
    c = GroupoidCocycle(p, {"t0": QZ(1, 2)})
    assert flat_components(c) == 1


def _conjugation_groupoid(group):
    """Action groupoid of a group acting on itself by conjugation.

    The morphism (g, i) runs from i to g i g^-1, and the composite of
    (g1, g2 i g2^-1) after (g2, i) is (g1 g2, i).
    """
    mors = []
    comp = {}
    for i in group.elements:
        for g2 in group.elements:
            j = group.conj(g2, i)
            mors.append((i, j, (g2, i)))
            for g1 in group.elements:
                comp[((g1, j), (g2, i))] = (group.mul(g1, g2), i)
    return FiniteGroupoidPresentation(group.order, mors, comp)


def test_action_groupoid_of_conjugation():
    s3 = symmetric3()
    p = _conjugation_groupoid(s3)
    assert p.n_objects == 6
    assert len(p.morphisms) == 36
    assert set(p.components()) == {(0,), (1, 2, 5), (3, 4)}
    # morphism (g, i) runs from i to the conjugate of i
    assert (3, 4, (1, 3)) in p.morphisms
    assert p.comp[((1, s3.conj(1, 3)), (1, 3))] == (s3.mul(1, 1), 3)


def test_parse_groupoid_text():
    text = """
# a single flip
objects 1
mor 0 0 e
mor 0 0 t
comp e e e
comp e t t
comp t e t
comp t t e
val t 1/2
"""
    p, vals = parse_groupoid_text(text)
    assert p.n_objects == 1
    assert vals == {"t": QZ(1, 2)}
    c = GroupoidCocycle(p, vals)
    assert validate_groupoid_cocycle(c).valid


def test_parse_groupoid_text_errors():
    with pytest.raises(KleinformError):
        parse_groupoid_text("mor 0 0 e\n")
    with pytest.raises(KleinformError):
        parse_groupoid_text("objects 1\nobjects 2\n")
    with pytest.raises(KleinformError):
        parse_groupoid_text("objects x\n")
    with pytest.raises(KleinformError):
        parse_groupoid_text("objects 1\nmor 0 0\n")
    with pytest.raises(KleinformError):
        parse_groupoid_text("objects 1\nmor 0 0 e\ncomp e e\n")
    with pytest.raises(KleinformError):
        parse_groupoid_text("objects 1\nmor 0 0 e\ncomp e e e\nval e\n")
    with pytest.raises(KleinformError):
        parse_groupoid_text("objects 1\nwat 1 2\n")

