"""Command-line front end.

Exit codes: 0 on success, 1 on a domain error (reported as ``error: ...``
on stderr) or a failed verification, 2 on a usage error (argparse).
All output is deterministic: identical argv gives byte-identical stdout.
"""

import argparse
import csv
import sys

from .cochains import Cochain, alpha_cyclic, load_cochain_file, validate_cochain
from .errors import KleinformError
from .groupoid_lines import GroupoidCocycle, load_groupoid_file, sections_dim_groupoid, validate_groupoid_cocycle
from .groups import cyclic, parse_group_spec
from .moduli import SL2Z, TorusRep, dehn_character, enumerate_bundles, klein_character, r_diff, sections_dimension, torus_orbits
from .qz import QZ


def _parse_matrix(text):
    parts = text.split(",")
    if len(parts) != 4:
        raise argparse.ArgumentTypeError("expected four comma-separated integers")
    try:
        a, b, c, d = (int(p) for p in parts)
    except ValueError:
        raise argparse.ArgumentTypeError("expected four comma-separated integers")
    return (a, b, c, d)


def _parse_rep(text):
    parts = text.split(",")
    if len(parts) != 2:
        raise argparse.ArgumentTypeError("expected two comma-separated element indices")
    try:
        g, h = (int(p) for p in parts)
    except ValueError:
        raise argparse.ArgumentTypeError("expected two comma-separated element indices")
    return (g, h)


def build_parser():
    parser = argparse.ArgumentParser(
        prog="kleinform",
        description="exact cocycle, lift, and character computations for finite groups")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_format(p):
        p.add_argument("--format", choices=("plain", "csv"), default="plain",
                       help="output format (default plain)")

    p = sub.add_parser("verify-alpha", help="check a degree-3 cochain is closed and normalized")
    p.add_argument("--group", required=True)
    p.add_argument("--level", required=True)
    add_format(p)

    p = sub.add_parser("enumerate", help="list commuting tuples for a surface genus")
    p.add_argument("--group", required=True)
    p.add_argument("--genus", type=int, required=True)
    add_format(p)

    p = sub.add_parser("orbits", help="genus-1 conjugation orbits with stabilizers")
    p.add_argument("--group", required=True)
    add_format(p)

    p = sub.add_parser("character", help="character value of a commuting pair at an SL2(Z) matrix")
    p.add_argument("--group", required=True)
    p.add_argument("--level", required=True)
    p.add_argument("--rep", type=_parse_rep, required=True)
    p.add_argument("--matrix", type=_parse_matrix, required=True)
    add_format(p)

    p = sub.add_parser("klein", help="closed-form character on Gamma1(n) for a cyclic group")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--level", type=int, required=True)
    p.add_argument("--matrix", type=_parse_matrix, required=True)
    add_format(p)

    p = sub.add_parser("dehn", help="power-sum character of a group element")
    p.add_argument("--group", required=True)
    p.add_argument("--level", required=True)
    p.add_argument("--elt", type=int, required=True)
    add_format(p)

    p = sub.add_parser("dim", help="count orbits with vanishing stabilizer character")
    p.add_argument("--group", required=True)
    p.add_argument("--level", required=True)
    add_format(p)

    p = sub.add_parser("groupoid-check", help="validate a groupoid cocycle file")
    p.add_argument("--file", required=True)
    add_format(p)

    return parser


def _resolve_level(group, spec):
    """Turn a --level value into a degree-3 cochain on the group.

    Accepts an integer N (0 gives the zero cochain on any group, nonzero
    needs the standard cyclic table) or file:<path> for a stored cochain.
    """
    if spec.startswith("file:"):
        cochain = load_cochain_file(spec[len("file:"):])
        if cochain.group != group:
            raise KleinformError("cochain file group does not match --group")
        if cochain.degree != 3:
            raise KleinformError("cochain file must have degree 3")
        return cochain
    try:
        level = int(spec)
    except ValueError:
        raise KleinformError("level must be an integer or file:<path>, got %r" % spec)
    if level == 0:
        return Cochain.zero(group, 3)
    if group != cyclic(group.order):
        raise KleinformError("a nonzero integer level needs the group cyclic:n")
    return alpha_cyclic(group.order, level)


def _csv_writer():
    return csv.writer(sys.stdout, lineterminator="\n")


def _emit_scalar(fmt, value):
    if fmt == "csv":
        w = _csv_writer()
        w.writerow(["value"])
        w.writerow([str(value)])
    else:
        print(value)


def _cmd_verify_alpha(args):
    group = parse_group_spec(args.group)
    alpha = _resolve_level(group, args.level)
    report = validate_cochain(alpha)
    yes = {True: "yes", False: "no"}
    if args.format == "csv":
        w = _csv_writer()
        w.writerow(["closed", "normalized"])
        w.writerow([yes[report.closed], yes[report.normalized]])
    else:
        print("closed: %s" % yes[report.closed])
        print("normalized: %s" % yes[report.normalized])
    return 0 if (report.closed and report.normalized) else 1


def _cmd_enumerate(args):
    group = parse_group_spec(args.group)
    reps = enumerate_bundles(group, args.genus)
    if args.format == "csv":
        w = _csv_writer()
        if args.genus == 1:
            w.writerow(["e1", "e2"])
        else:
            header = []
            for i in range(args.genus):
                header.extend(["a%d" % (i + 1), "b%d" % (i + 1)])
            w.writerow(header)
        for rep in reps:
            w.writerow([str(x) for x in rep.images])
    else:
        for rep in reps:
            print(" ".join(str(x) for x in rep.images))
    return 0


def _cmd_orbits(args):
    rows = torus_orbits(parse_group_spec(args.group))
    if args.format == "csv":
        w = _csv_writer()
        w.writerow(["rep", "orbit", "stab"])
        for least, size, stab in rows:
            w.writerow(["%d %d" % least, str(size), " ".join(str(z) for z in stab)])
    else:
        for least, size, stab in rows:
            print("rep %d %d orbit %d stab %s"
                  % (least[0], least[1], size, " ".join(str(z) for z in stab)))
    return 0


def _cmd_character(args):
    group = parse_group_spec(args.group)
    alpha = _resolve_level(group, args.level)
    rep = TorusRep(group, args.rep[0], args.rep[1])
    matrix = SL2Z(*args.matrix)
    value = r_diff(rep, alpha, matrix)
    _emit_scalar(args.format, value)
    return 0


def _cmd_klein(args):
    value = klein_character(args.n, args.level, SL2Z(*args.matrix))
    _emit_scalar(args.format, value)
    return 0


def _cmd_dehn(args):
    group = parse_group_spec(args.group)
    alpha = _resolve_level(group, args.level)
    value = dehn_character(group, args.elt, alpha)
    _emit_scalar(args.format, value)
    return 0


def _cmd_dim(args):
    group = parse_group_spec(args.group)
    alpha = _resolve_level(group, args.level)
    _emit_scalar(args.format, sections_dimension(group, alpha))
    return 0


def _cmd_groupoid_check(args):
    presentation, values = load_groupoid_file(args.file)
    cocycle = GroupoidCocycle(presentation, values)
    report = validate_groupoid_cocycle(cocycle)
    if args.format == "csv":
        w = _csv_writer()
        w.writerow(["valid", "dim"])
        if report.valid:
            w.writerow(["yes", str(sections_dim_groupoid(cocycle))])
        else:
            w.writerow(["no", ""])
    else:
        print("valid: %s" % ("yes" if report.valid else "no"))
        if report.valid:
            print("dim: %d" % sections_dim_groupoid(cocycle))
        else:
            for violation in report.violations:
                print("violation: %s" % violation)
    return 0 if report.valid else 1


_COMMANDS = {
    "verify-alpha": _cmd_verify_alpha,
    "enumerate": _cmd_enumerate,
    "orbits": _cmd_orbits,
    "character": _cmd_character,
    "klein": _cmd_klein,
    "dehn": _cmd_dehn,
    "dim": _cmd_dim,
    "groupoid-check": _cmd_groupoid_check,
}


def _bind_negative_values(argv):
    """Write "--matrix -11,12,-1,1" as "--matrix=-11,12,-1,1", and so for --rep.

    argparse takes a separate value that starts with "-" and is not a
    plain number for an option, so a matrix or rep with a negative first
    entry would otherwise be refused.
    """
    out = []
    for arg in argv:
        if out and out[-1] in ("--matrix", "--rep") and arg[:1] == "-" and arg[1:2].isdigit():
            out[-1] += "=" + arg
        else:
            out.append(arg)
    return out


def main(argv=None):
    argv = sys.argv[1:] if argv is None else list(argv)
    args = build_parser().parse_args(_bind_negative_values(argv))
    try:
        return _COMMANDS[args.command](args)
    except KleinformError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
