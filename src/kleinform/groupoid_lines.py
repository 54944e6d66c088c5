"""Cocycles on finite groupoid presentations and the lines they cut out.

A presentation is stored with an explicit morphism list and composition
table so every law (associativity, identities, invertibility, cocycle
additivity) can be checked exhaustively.  Morphisms are triples
(src, dst, label) with unique labels; ``comp[(f, g)] = h`` records the
composite f after g, so f runs second and the matching condition is
src(f) == dst(g).
"""

from .errors import KleinformError, ValidationError
from .groups import read_lines
from .qz import QZ


class FiniteGroupoidPresentation:
    """A finite groupoid with explicit composition, validated on construction."""

    __slots__ = ("n_objects", "morphisms", "comp", "identities", "_src")

    def __init__(self, n_objects, morphisms, composition):
        if not isinstance(n_objects, int) or n_objects < 0:
            raise ValidationError("object count must be a non-negative integer")
        self.n_objects = n_objects
        mors = []
        src = {}
        dst = {}
        for triple in morphisms:
            if len(triple) != 3:
                raise ValidationError("morphism %r is not a (src, dst, label) triple" % (triple,))
            s, d, label = triple
            if not (isinstance(s, int) and 0 <= s < n_objects):
                raise ValidationError("morphism %r has source outside the object set" % (label,))
            if not (isinstance(d, int) and 0 <= d < n_objects):
                raise ValidationError("morphism %r has target outside the object set" % (label,))
            if label in src:
                raise ValidationError("duplicate morphism label %r" % (label,))
            src[label] = s
            dst[label] = d
            mors.append((s, d, label))
        self.morphisms = tuple(mors)
        self._src = src
        comp = {}
        for key, h in dict(composition).items():
            f, g = key
            if f not in src or g not in src:
                raise ValidationError("composition entry %r refers to an unknown label" % (key,))
            if src[f] != dst[g]:
                raise ValidationError("pair (%r, %r) is not composable" % (f, g))
            if h not in src:
                raise ValidationError("composite label %r is unknown" % (h,))
            if src[h] != src[g] or dst[h] != dst[f]:
                raise ValidationError("composite of %r after %r has mismatched endpoints" % (f, g))
            comp[(f, g)] = h
        self.comp = comp
        # labels by target and by source object, in morphism order, so each
        # check names the first offender that a scan of every label would
        into, out = {}, {}
        for s, d, label in mors:
            into.setdefault(d, []).append(label)
            out.setdefault(s, []).append(label)
        for f in src:
            for g in into.get(src[f], ()):
                if (f, g) not in comp:
                    raise ValidationError("missing composition for %r after %r" % (f, g))
        self.identities = self._find_identities(into, out)
        self._check_associativity(into)
        self._check_inverses(into)

    def _find_identities(self, into, out):
        comp, src = self.comp, self._src
        identities = {}
        for x in range(self.n_objects):
            ins, outs = into.get(x, ()), out.get(x, ())
            # two identities e1, e2 at x would give e1 = e1 after e2 = e2
            winner = next((e for e in ins if src[e] == x and comp[(e, e)] == e
                           and all(comp[(e, f)] == f for f in ins)
                           and all(comp[(f, e)] == f for f in outs)), None)
            if winner is None:
                raise ValidationError("object %d has no identity morphism" % x)
            identities[x] = winner
        return identities

    def _check_associativity(self, into):
        comp = self.comp
        for (f, g), fg in comp.items():
            for h in into.get(self._src[g], ()):
                if comp[(fg, h)] != comp[(f, comp[(g, h)])]:
                    raise ValidationError(
                        "associativity fails at %r, %r, %r" % (f, g, h))

    def _check_inverses(self, into):
        comp, ids, src = self.comp, self.identities, self._src
        for s, d, f in self.morphisms:
            if not any(src[g] == d and comp[(f, g)] == ids[d] and comp[(g, f)] == ids[s]
                       for g in into.get(s, ())):
                raise ValidationError("morphism %r has no inverse" % (f,))

    def components(self):
        """Connected components of the object set, as sorted tuples."""
        parent = list(range(self.n_objects))

        def find(a):
            while parent[a] != a:
                parent[a] = parent[parent[a]]
                a = parent[a]
            return a

        for s, d, _ in self.morphisms:
            ra, rb = find(s), find(d)
            if ra != rb:
                parent[ra] = rb
        buckets = {}
        for x in range(self.n_objects):
            buckets.setdefault(find(x), []).append(x)
        return tuple(tuple(sorted(b)) for _, b in sorted(buckets.items()))


class GroupoidCocycle:
    """QZ-valued function on the morphisms of a presentation.

    Labels missing from the value map are taken to be 0; unknown labels
    are rejected.
    """

    __slots__ = ("presentation", "values")

    def __init__(self, presentation, values):
        self.presentation = presentation
        vals = {}
        for label, v in dict(values).items():
            if label not in presentation._src:
                raise ValidationError("value given for unknown morphism %r" % (label,))
            vals[label] = QZ(v)
        for _, _, label in presentation.morphisms:
            vals.setdefault(label, QZ(0))
        self.values = vals

    def __call__(self, label):
        return self.values[label]


class GroupoidReport:
    """Outcome of an exhaustive cocycle check."""

    __slots__ = ("valid", "violations")

    def __init__(self, violations):
        self.violations = tuple(violations)
        self.valid = not self.violations

    def __bool__(self):
        return self.valid


def validate_groupoid_cocycle(cocycle):
    """Check normalization and additivity exhaustively; list every violation."""
    pres = cocycle.presentation
    violations = []
    for x, e in sorted(pres.identities.items()):
        if cocycle(e):
            violations.append("identity at object %d has value %s" % (x, cocycle(e)))
    for (f, g), h in sorted(pres.comp.items(), key=repr):
        lhs = cocycle(f) + cocycle(g)
        if lhs != cocycle(h):
            violations.append(
                "additivity fails for %r after %r: %s + %s != %s"
                % (f, g, cocycle(f), cocycle(g), cocycle(h)))
    return GroupoidReport(violations)


def flat_components(cocycle):
    """Count connected components on which every loop value vanishes.

    The cocycle must already have passed validate_groupoid_cocycle; the
    count means nothing for a map that fails the cocycle law.
    """
    pres = cocycle.presentation
    bad = set()
    for s, d, label in pres.morphisms:
        if s == d and cocycle(label):
            bad.add(s)
    count = 0
    for comp in pres.components():
        if not any(x in bad for x in comp):
            count += 1
    return count


def parse_groupoid_text(text):
    """Parse the groupoid file format.

    Lines: ``objects n``, then ``mor src dst label`` per morphism, then
    ``comp f g h`` meaning f after g equals h, optionally ``val label p/q``
    attaching cocycle values.  Blank lines and # comments are skipped, and
    a pair or a label may not be given a second comp or val line.
    Returns (presentation, values) where values is a dict over labels.
    """
    return _groupoid_from_lines(read_lines("groupoid", text))


def load_groupoid_file(path):
    return _groupoid_from_lines(read_lines("groupoid", path=path))


def _groupoid_from_lines(lines):
    sizes = {"objects": 2, "mor": 4, "comp": 4, "val": 3}
    n = None
    mors = []
    comp = {}
    vals = {}
    for line in lines:
        tokens = line.split()
        head = tokens[0]
        if head not in sizes:
            raise KleinformError("unrecognized groupoid line: %r" % line)
        if len(tokens) != sizes[head] or (head == "objects" and n is not None):
            raise KleinformError("malformed %s line: %r" % (head, line))
        try:
            if head == "objects":
                n = int(tokens[1])
            elif head == "mor":
                mors.append((int(tokens[1]), int(tokens[2]), tokens[3]))
            elif head == "comp":
                if (tokens[1], tokens[2]) in comp:
                    raise KleinformError("second comp line for one pair: %r" % line)
                comp[(tokens[1], tokens[2])] = tokens[3]
            else:
                if tokens[1] in vals:
                    raise KleinformError("second val line for one label: %r" % line)
                vals[tokens[1]] = QZ.from_str(tokens[2])
        except ValueError:
            raise KleinformError("malformed groupoid line: %r" % line)
    if n is None:
        raise KleinformError("groupoid text has no objects line")
    return FiniteGroupoidPresentation(n, mors, comp), vals

