"""One round of a library workload in a fresh interpreter.

    python3 bench/worker.py SPEC.json [--setup-only] [--trace SPANS.jsonl]

Set-up imports kleinform from the checkout's src/, then builds and
validates every group and cochain the spec names (for the cli workload,
every --group and --level its commands name; that spec is set-up only).
The query phase answers the spec's queries in order, timing each one,
with the reference loop timed just before and just after.  The last
stdout line is a JSON report.
"""

import time

START = time.perf_counter()

import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
SRC_DIR = os.path.join(os.path.dirname(BENCH_DIR), "src")


def import_kleinform():
    """Import the package from the checkout, refusing any other copy."""
    sys.path.insert(0, SRC_DIR)
    t = time.perf_counter()
    import kleinform.cli  # noqa: F401  (imports every module)
    elapsed = time.perf_counter() - t
    if not os.path.abspath(kleinform.__file__).startswith(SRC_DIR + os.sep):
        raise SystemExit("kleinform was not imported from %s" % SRC_DIR)
    return elapsed


def build_cli(commands):
    """Every group and level the cli commands name, built as the cli builds them."""
    from kleinform.cli import _resolve_level
    from kleinform.cochains import validate_cochain
    from kleinform.groups import parse_group_spec

    built = []
    for argv in commands:
        if "--group" not in argv:
            continue
        group = parse_group_spec(argv[argv.index("--group") + 1])
        built.append(group)
        if "--level" in argv:
            alpha = _resolve_level(group, argv[argv.index("--level") + 1])
            report = validate_cochain(alpha)
            if not (report.closed and report.normalized):
                raise SystemExit("level of %r failed validation" % (argv,))
            built.append(alpha)
    return built


def build(spec):
    """Groups and validated cochains named by a library spec."""
    from kleinform.cochains import (Cochain, alpha_cyclic, load_cochain_file,
                                    pullback_cochain, validate_cochain)
    from kleinform.groups import GroupHom, cyclic, dihedral, direct_product, symmetric3

    groups = {}
    for name, g in spec["groups"].items():
        if g["kind"] == "cyclic":
            groups[name] = cyclic(g["n"])
        elif g["kind"] == "product":
            groups[name] = direct_product(*(cyclic(k) for k in g["factors"]))
        elif g["kind"] == "dihedral":
            groups[name] = dihedral(g["n"])
        else:
            groups[name] = symmetric3()
    cochains = {}
    for name, c in spec["cochains"].items():
        group = groups[c["group"]]
        if c["kind"] == "alpha":
            alpha = alpha_cyclic(c["n"], c["level"])
        elif c["kind"] == "pullback":
            hom = GroupHom(group, cyclic(c["m"]), c["images"])
            alpha = pullback_cochain(alpha_cyclic(c["m"], c["level"]), hom)
        elif c["kind"] == "zero":
            alpha = Cochain.zero(group, 3)
        else:
            alpha = load_cochain_file(os.path.join(BENCH_DIR, c["path"]))
        report = validate_cochain(alpha)
        if not (report.closed and report.normalized) or alpha.group != group:
            raise SystemExit("cochain %s failed validation" % name)
        cochains[name] = alpha
    return groups, cochains


def answer(queries, groups, cochains):
    """Answer every query in order; a query that raises gives None."""
    from kleinform.errors import KleinformError
    from kleinform.lifts import TorusRep
    from kleinform.moduli import SL2Z, r_diff, sections_dimension

    answers, latencies = [], []
    clock = time.perf_counter
    for q in queries:
        alpha = cochains[q["cochain"]]
        t = clock()
        try:
            if q["op"] == "r_diff":
                value = r_diff(TorusRep(alpha.group, *q["rep"]), alpha, SL2Z(*q["matrix"]))
            else:
                value = sections_dimension(alpha.group, alpha)
            answers.append(str(value))
        except KleinformError:
            answers.append(None)
        latencies.append(clock() - t)
    return answers, latencies


def main(argv):
    sys.path.insert(0, BENCH_DIR)
    from reference import reference_seconds
    import tables

    with open(argv[1], encoding="utf-8") as fh:
        spec = json.load(fh)
    trace_path = argv[argv.index("--trace") + 1] if "--trace" in argv else None
    import_s = import_kleinform()
    tracer = None
    if trace_path:
        import tracing
        tracer = tracing.install()
    if "commands" in spec:
        build_cli(spec["commands"])
        spec = {"groups": {}}
    else:
        groups, cochains = build(spec)
    report = {"setup_s": time.perf_counter() - START, "import_s": import_s}
    if "--setup-only" not in argv:
        samples = spec.get("ref_samples", 5)
        ref_before = reference_seconds(samples)
        t = time.perf_counter()
        answers, latencies = answer(spec["queries"], groups, cochains)
        wall = time.perf_counter() - t
        ref_after = reference_seconds(samples)
        report.update(wall_s=wall, ref_s=[ref_before, ref_after], answers=answers,
                      latencies=latencies)
    report["rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    for name, g in spec["groups"].items():
        if [list(row) for row in groups[name].table] != tables.group_table(g):
            raise SystemExit("group %s does not match its raw table" % name)
    if tracer is not None:
        report["layers"] = tracer.metrics()
        tracer.dump(trace_path)
    print(json.dumps(report))


if __name__ == "__main__":
    main(sys.argv)
