"""Cocycles on finite groupoid presentations and the lines they cut out.

A presentation is stored with an explicit morphism list and composition
table so every law (associativity, identities, invertibility, cocycle
additivity) can be checked exhaustively.  Morphisms are triples
(src, dst, label) with unique labels; ``comp[(f, g)] = h`` records the
composite f after g, so f runs second and the matching condition is
src(f) == dst(g).

Truncated fragments of infinite symmetry groups (words in fixed letters
up to a length bound) give presentations whose composition is only
partially defined; ``partial=True`` relaxes the totality and
invertibility requirements while keeping every defined composite subject
to the same checks.
"""

from .errors import KleinformError, ValidationError
from .groups import read_lines
from .moduli import SL2Z
from .qz import QZ


class FiniteGroupoidPresentation:
    """A finite groupoid with explicit composition, validated on construction."""

    __slots__ = ("n_objects", "morphisms", "comp", "identities", "partial",
                 "_src", "_dst")

    def __init__(self, n_objects, morphisms, composition, partial=False):
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
        self._dst = dst
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
        self.partial = bool(partial)
        if not self.partial:
            for f in src:
                for g in src:
                    if src[f] == dst[g] and (f, g) not in comp:
                        raise ValidationError("missing composition for %r after %r" % (f, g))
        self.identities = self._find_identities()
        self._check_associativity()
        if not self.partial:
            self._check_inverses()

    def source(self, label):
        return self._src[label]

    def target(self, label):
        return self._dst[label]

    def compose(self, f, g):
        """Composite of f after g, or None when outside the table."""
        return self.comp.get((f, g))

    def _find_identities(self):
        loops = {}
        for s, d, label in self.morphisms:
            if s == d:
                loops.setdefault(s, []).append(label)
        identities = {}
        for x in range(self.n_objects):
            winners = []
            for e in loops.get(x, ()):
                if self.comp.get((e, e)) != e:
                    continue
                neutral = True
                for s, d, f in self.morphisms:
                    if d == x and self.comp.get((e, f)) != f:
                        neutral = False
                        break
                    if s == x and self.comp.get((f, e)) != f:
                        neutral = False
                        break
                if neutral:
                    winners.append(e)
            if not winners:
                raise ValidationError("object %d has no identity morphism" % x)
            if len(winners) > 1:
                raise ValidationError("object %d has more than one identity morphism" % x)
            identities[x] = winners[0]
        return identities

    def _check_associativity(self):
        # both-sides-defined form: (f.g).h == f.(g.h) whenever every composite
        # appearing on a side is in the table
        comp = self.comp
        by_target = {}
        for s, d, label in self.morphisms:
            by_target.setdefault(d, []).append(label)
        for (f, g), fg in comp.items():
            sg = self._src[g]
            for h in by_target.get(sg, ()):
                left = comp.get((fg, h))
                gh = comp.get((g, h))
                right = None if gh is None else comp.get((f, gh))
                if left is not None and right is not None and left != right:
                    raise ValidationError(
                        "associativity fails at %r, %r, %r" % (f, g, h))

    def _check_inverses(self):
        for s, d, f in self.morphisms:
            ok = False
            for s2, d2, g in self.morphisms:
                if s2 != d or d2 != s:
                    continue
                if (self.comp.get((f, g)) == self.identities[d]
                        and self.comp.get((g, f)) == self.identities[s]):
                    ok = True
                    break
            if not ok:
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


def sections_dim_groupoid(cocycle):
    """Count connected components on which every loop value vanishes."""
    report = validate_groupoid_cocycle(cocycle)
    if not report.valid:
        raise KleinformError("invalid cocycle: %s" % report.violations[0])
    return _flat_components(cocycle)


def _flat_components(cocycle):
    """sections_dim_groupoid of a cocycle already validated."""
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


def shift_cocycle(cocycle, tau):
    """Replace R by R + d(tau) for an object function tau.

    The coboundary of tau assigns tau(src) - tau(dst) to each morphism,
    which keeps additivity and every loop value intact.
    """
    pres = cocycle.presentation
    tau = {x: QZ(tau[x]) for x in range(pres.n_objects)}
    vals = {}
    for s, d, label in pres.morphisms:
        vals[label] = cocycle(label) + tau[s] - tau[d]
    return GroupoidCocycle(pres, vals)


def cocycle_from_section(presentation, tau, transport):
    """Extract the cocycle of a trivialized line from transport data.

    transport maps morphism labels to QZ and must be functorial:
    additive over every tabled composite.  tau assigns a unit phase to
    each object; the result is R(f) = transport(f) + tau(src) - tau(dst).
    """
    t = GroupoidCocycle(presentation, {label: transport[label]
                                       for _, _, label in presentation.morphisms
                                       if label in transport})
    for (f, g), h in presentation.comp.items():
        if t(f) + t(g) != t(h):
            raise ValidationError("transport is not functorial at %r after %r" % (f, g))
    return shift_cocycle(t, tau)


class GammaAction:
    """Finite fragment of a symmetry group acting on a presentation.

    elements is the fragment; compose(g1, g2) returns the fragment
    member representing the product or None when the product falls
    outside.  act_object and act_morphism give the right action on the
    presentation; for each g the object map must be a bijection.
    """

    __slots__ = ("elements", "identity", "compose", "act_object", "act_morphism")

    def __init__(self, elements, identity, compose, act_object, act_morphism):
        self.elements = tuple(elements)
        if identity not in self.elements:
            raise ValidationError("identity is not in the fragment")
        self.identity = identity
        self.compose = compose
        self.act_object = act_object
        self.act_morphism = act_morphism


def equivariant_assemble(cocycle, r_gamma, action):
    """Assemble a cocycle on the quotient by a symmetry fragment.

    Quotient morphisms are pairs (f, g) with f a base morphism landing
    on the g-translate of the quotient target; the assembled value is
    r_gamma(target, g) + R(f).  The pair composes as
    ((f1 acted by g2) after f2, g1 g2) when the product stays in the
    fragment.  The assembled data is validated as a cocycle and rejected
    with the first violation otherwise.
    """
    pres = cocycle.presentation
    n = pres.n_objects
    # per-element object permutation and its inverse
    inv_obj = {}
    for g in action.elements:
        images = [action.act_object(x, g) for x in range(n)]
        if sorted(images) != list(range(n)):
            raise ValidationError("object action of %r is not a bijection" % (g,))
        inv_obj[g] = {images[x]: x for x in range(n)}
        if g == action.identity and images != list(range(n)):
            raise ValidationError("identity element must act trivially on objects")
    for _, _, f in pres.morphisms:
        for g in action.elements:
            fg = action.act_morphism(f, g)
            if fg not in pres._src:
                raise ValidationError("morphism action of %r leaves the presentation" % (g,))
            if (pres.source(fg) != action.act_object(pres.source(f), g)
                    or pres.target(fg) != action.act_object(pres.target(f), g)):
                raise ValidationError(
                    "morphism action of %r breaks endpoints at %r" % (g, f))

    mors = []
    for g in action.elements:
        back = inv_obj[g]
        for s, d, f in pres.morphisms:
            x = back[d]
            mors.append((s, x, (f, g)))
    comp = {}
    for s1, d1, lab1 in mors:
        f1, g1 = lab1
        for s2, d2, lab2 in mors:
            if s1 != d2:
                continue
            f2, g2 = lab2
            gg = action.compose(g1, g2)
            if gg is None:
                continue
            base = pres.compose(action.act_morphism(f1, g2), f2)
            if base is None:
                continue
            comp[(lab1, lab2)] = (base, gg)
    assembled = FiniteGroupoidPresentation(n, mors, comp, partial=True)
    vals = {}
    for s, x, (f, g) in mors:
        vals[(f, g)] = r_gamma(x, g) + cocycle(f)
    result = GroupoidCocycle(assembled, vals)
    report = validate_groupoid_cocycle(result)
    if not report.valid:
        raise KleinformError(
            "assembled map fails the cocycle law: %s" % report.violations[0])
    return result


def group_action_groupoid(group, objects, act):
    """Action groupoid of a finite group on a finite object list.

    objects is indexed 0..m-1; act(i, g) gives the image index and must
    be a left action, act(i, g1 g2) == act(act(i, g2), g1).  The
    morphism (g, i) runs from i to act(i, g) and the composite of
    (g1, act(i, g2)) after (g2, i) is (g1 g2, i).
    """
    m = len(objects)
    mors = []
    for i in range(m):
        for g in group.elements:
            mors.append((i, act(i, g), (g, i)))
    comp = {}
    for i in range(m):
        for g2 in group.elements:
            j = act(i, g2)
            for g1 in group.elements:
                comp[((g1, j), (g2, i))] = (group.mul(g1, g2), i)
    return FiniteGroupoidPresentation(m, mors, comp)


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


def sl2z_word_fragment(letters, max_length=6):
    """Products of the letters with word length at most max_length.

    No inverses are adjoined; distinct words with equal matrix entries
    collapse to a single element.  Returns (elements, compose): elements
    is ordered breadth-first by word length and then by entries, and
    compose(a, b) yields the fragment member with the entries of a @ b,
    or None when that product escapes the fragment.
    """
    if max_length < 0:
        raise KleinformError("word length bound must be non-negative")
    canon = {}
    order = []
    ident = SL2Z.identity()
    canon[ident.entries()] = ident
    order.append(ident)
    frontier = [ident]
    for _ in range(max_length):
        new = []
        for w in frontier:
            for letter in letters:
                m = w @ letter
                key = m.entries()
                if key not in canon:
                    canon[key] = m
                    new.append(m)
        new.sort(key=lambda m: m.entries())
        order.extend(new)
        frontier = new

    def compose(a, b):
        return canon.get((a @ b).entries())

    return tuple(order), compose
