"""Spans and counters around the public entry points of each module.

install() wraps, from outside the package, the functions and classes that
mark each layer boundary, so the package itself carries no tracing code.
Spans stay in memory as [id, parent id, name, start, end] and are written
out once at the end; self time is a span's duration minus its children's.
"""

import json
import sys
import time
from collections import Counter, defaultdict

CLI_COMMANDS = ("verify-alpha", "enumerate", "orbits", "character", "klein",
                "dehn", "dim", "groupoid-check")


class Tracer:
    def __init__(self):
        self.spans = []  # [id, parent, name, start, end]
        self.stack = []
        self.counts = Counter()
        self.window_max = 0
        self._returned = {}  # id -> lift, kept alive so ids stay unique

    def wrap(self, name, fn, on_call=None, on_return=None):
        spans, stack, clock = self.spans, self.stack, time.perf_counter

        def traced(*args, **kwargs):
            if on_call is not None:
                on_call(*args, **kwargs)
            span = [len(spans), stack[-1][0] if stack else None, name, clock(), None]
            spans.append(span)
            stack.append(span)
            try:
                out = fn(*args, **kwargs)
            finally:
                span[4] = clock()
                stack.pop()
            if on_return is not None:
                on_return(out)
            return out

        traced.__wrapped__ = fn
        return traced

    def parent_name(self):
        return self.stack[-1][2] if self.stack else None

    def aggregate(self):
        total = defaultdict(float)
        calls = Counter()
        child = defaultdict(float)
        for sid, parent, name, start, end in self.spans:
            total[name] += end - start
            calls[name] += 1
            if parent is not None:
                child[parent] += end - start
        self_s = defaultdict(float)
        for sid, parent, name, start, end in self.spans:
            self_s[name] += (end - start) - child[sid]
        return calls, total, self_s

    def metrics(self):
        calls, total, self_s = self.aggregate()
        c = self.counts
        out = {}
        for name in ("intmat.solve_sparse", "lifts.lift_gamma", "lifts.conjugate_lift",
                     "moduli.r_diff", "moduli.holonomy_cocycle_R",
                     "moduli.sections_dimension", "cochains.is_closed",
                     "groupoid_lines.validate_groupoid_cocycle"):
            out[name + ".calls"] = calls[name]
            out[name + ".self_s"] = self_s[name]
        out["intmat.solve_sparse.unknowns"] = c["solve_unknowns"]
        out["intmat.solve_sparse.rows"] = c["solve_rows"]
        out["lifts.lift_gamma.hits"] = c["lift_hits"]
        out["lifts.certificates"] = calls["lifts.certify"]
        out["lifts.certify_s"] = total["lifts.certify"]
        out["lifts.window_max"] = self.window_max
        out["moduli.r_diff.lift_calls"] = c["r_diff_lift_calls"]
        out["groups.FiniteGroup.calls"] = calls["groups.FiniteGroup"]
        out["groups.FiniteGroup.self_s"] = self_s["groups.FiniteGroup"]
        out["qz.QZ.new"] = c["qz_new"]
        return out

    def dump(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


def _replace(orig, new):
    """Point every kleinform module attribute bound to orig at new."""
    for mod in list(sys.modules.values()):
        if not getattr(mod, "__name__", "").startswith("kleinform"):
            continue
        for key, val in list(vars(mod).items()):
            if val is orig:
                setattr(mod, key, new)


def install():
    """Wrap the layer boundaries of an imported kleinform; return the Tracer."""
    from kleinform import cochains, groupoid_lines, groups, intmat, lifts, moduli, qz

    tr = Tracer()
    counts = tr.counts

    def solve_call(rows, ncols, rhs):
        counts["solve_unknowns"] += ncols
        counts["solve_rows"] += len(rows)

    def lift_call(*args, **kwargs):
        if tr.parent_name() == "moduli.r_diff":
            counts["r_diff_lift_calls"] += 1

    def lift_return(lift):
        if id(lift) in tr._returned:
            counts["lift_hits"] += 1
        tr._returned[id(lift)] = lift
        tr.window_max = max(tr.window_max, lift.window)

    plain = [
        (intmat.solve_sparse, "intmat.solve_sparse", solve_call, None),
        (lifts.lift_gamma, "lifts.lift_gamma", lift_call, lift_return),
        (lifts.conjugate_lift, "lifts.conjugate_lift", None, None),
        (lifts._certify, "lifts.certify", None, None),
        (moduli.r_diff, "moduli.r_diff", None, None),
        (moduli.holonomy_cocycle_R, "moduli.holonomy_cocycle_R", None, None),
        (moduli.sections_dimension, "moduli.sections_dimension", None, None),
        (cochains.is_closed, "cochains.is_closed", None, None),
        (groupoid_lines.validate_groupoid_cocycle,
         "groupoid_lines.validate_groupoid_cocycle", None, None),
    ]
    for fn, name, on_call, on_return in plain:
        _replace(fn, tr.wrap(name, fn, on_call, on_return))

    group_init = groups.FiniteGroup.__init__
    groups.FiniteGroup.__init__ = tr.wrap("groups.FiniteGroup", group_init)

    qz_init = qz.QZ.__init__

    def counted_init(self, *args, **kwargs):
        counts["qz_new"] += 1
        qz_init(self, *args, **kwargs)

    qz.QZ.__init__ = counted_init
    return tr
