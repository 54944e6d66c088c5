"""Command-line front end.

Exit codes: 0 on success, 1 on a domain error (reported as ``error: ...``
on stderr) or a failed verification, 2 on a usage error (argparse).
All output is deterministic: identical argv gives byte-identical stdout.

A command in its plain form (the command name, then each option once as
``--name value`` or ``--name=value``) is read straight from the command
table; argparse is imported only for help and for usage errors, and stays
the one writer of help and usage text.
"""

import sys
from types import SimpleNamespace

from .cochains import Cochain, alpha_cyclic, load_cochain_file, validate_cochain
from .errors import KleinformError
from .groupoid_lines import (GroupoidCocycle, flat_components, load_groupoid_file,
                             validate_groupoid_cocycle)
from .groups import parse_group_spec
from .moduli import (SL2Z, TorusRep, dehn_character, enumerate_bundles, klein_character,
                     r_diff, sections_dimension, torus_orbits)


def _int_tuple(count, message):
    """An argparse type: count comma-separated integers, else message."""
    def parse(text):
        parts = text.split(",")
        try:
            if len(parts) == count:
                return tuple(int(p) for p in parts)
        except ValueError:
            pass
        import argparse  # loaded only when a value is refused
        raise argparse.ArgumentTypeError(message)
    return parse


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
    alpha = alpha_cyclic(group.order, level)
    if alpha.group != group:
        raise KleinformError("a nonzero integer level needs the group cyclic:n")
    return alpha


_BARE, _LABELLED, _RECORD = "bare", "labelled", "record"
_YES = {True: "yes", False: "no"}


def _emit(fmt, header, rows, plain):
    """Write a result to stdout: csv rows under header, or plain text.

    rows is an iterable of lists of strings, read once.
    The plain layouts, one or more lines per row: _BARE joins a row's
    values with spaces; _LABELLED puts each value after its header name,
    on one line; _RECORD writes "name: value" for each nonempty value.
    """
    if fmt == "csv":
        import csv
        writer = csv.writer(sys.stdout, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)
        return
    for row in rows:
        if plain == _BARE:
            print(" ".join(row))
        elif plain == _LABELLED:
            print(" ".join("%s %s" % pair for pair in zip(header, row)))
        else:
            for name, value in zip(header, row):
                if value:
                    print("%s: %s" % (name, value))


# Each command maps the parsed arguments, with --group and --level already
# resolved, to (exit code, header, rows, plain layout).

def _scalar(value):
    return 0, ["value"], [[str(value)]], _BARE


def _verify_alpha(args):
    report = validate_cochain(args.level)
    row = [_YES[report.closed], _YES[report.normalized]]
    return 0 if report.closed and report.normalized else 1, ["closed", "normalized"], [row], _RECORD


def _enumerate(args):
    images = enumerate_bundles(args.group, args.genus)  # each datum is written as it is found
    if args.genus == 1:
        header = ["e1", "e2"]
    else:
        header = [x + str(i + 1) for i in range(args.genus) for x in "ab"]
    return 0, header, (list(map(str, row)) for row in images), _BARE


def _orbits(args):
    rows = [["%d %d" % least, str(size), " ".join(str(z) for z in stab)]
            for least, size, stab in torus_orbits(args.group)]
    return 0, ["rep", "orbit", "stab"], rows, _LABELLED


def _groupoid_check(args):
    cocycle = GroupoidCocycle(*load_groupoid_file(args.file))
    report = validate_groupoid_cocycle(cocycle)
    header = ["valid", "dim"]
    row = [_YES[report.valid], str(flat_components(cocycle)) if report.valid else ""]
    if args.format == "plain":  # violations are listed in plain text only
        header += ["violation"] * len(report.violations)
        row += report.violations
    return 0 if report.valid else 1, header, [row], _RECORD


_GROUP, _LEVEL = ("group", None), ("level", None)
_REP = ("rep", _int_tuple(2, "expected two comma-separated element indices"))
_MATRIX = ("matrix", _int_tuple(4, "expected four comma-separated integers"))

# name: (help, required options as (name, argparse type), command)
_COMMANDS = {
    "verify-alpha": ("check a degree-3 cochain is closed and normalized",
                     [_GROUP, _LEVEL], _verify_alpha),
    "enumerate": ("list commuting tuples for a surface genus",
                  [_GROUP, ("genus", int)], _enumerate),
    "orbits": ("genus-1 conjugation orbits with stabilizers", [_GROUP], _orbits),
    "character": ("character value of a commuting pair at an SL2(Z) matrix",
                  [_GROUP, _LEVEL, _REP, _MATRIX],
                  lambda a: _scalar(r_diff(TorusRep(a.group, *a.rep), a.level, SL2Z(*a.matrix)))),
    "klein": ("closed-form character on Gamma1(n) for a cyclic group",
              [("n", int), ("level", int), _MATRIX],
              lambda a: _scalar(klein_character(a.n, a.level, SL2Z(*a.matrix)))),
    "dehn": ("power-sum character of a group element", [_GROUP, _LEVEL, ("elt", int)],
             lambda a: _scalar(dehn_character(a.group, a.elt, a.level))),
    "dim": ("count orbits with vanishing stabilizer character", [_GROUP, _LEVEL],
            lambda a: _scalar(sections_dimension(a.group, a.level))),
    "groupoid-check": ("validate a groupoid cocycle file", [("file", None)], _groupoid_check),
}


def build_parser():
    import argparse
    parser = argparse.ArgumentParser(
        prog="kleinform",
        description="exact cocycle, lift, and character computations for finite groups")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, options, _) in _COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        for option, kind in options:
            p.add_argument("--" + option, type=kind, required=True)
        p.add_argument("--format", choices=("plain", "csv"), default="plain",
                       help="output format (default plain)")
    return parser


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


def _read_plain(argv):
    """The arguments of a command in its plain form as a dict, else None.

    The plain form is a command name, then --name value or --name=value
    tokens: each name one of the command's options or --format, none
    repeated, no separate value starting with "-", every value accepted by
    its type and every option of the command present.  The dict is then
    the one vars(build_parser().parse_args(argv)) gives.  Anything else
    (help, an abbreviation, a repeat, a stray token, a bad value) is left
    to argparse, which reads it again and writes the usage text.
    """
    if not argv or argv[0] not in _COMMANDS:
        return None
    kinds = dict(_COMMANDS[argv[0]][1], format=None)
    values, i = {}, 1
    while i < len(argv):
        name, eq, value = argv[i].partition("=")
        if not eq:
            if i + 1 == len(argv) or argv[i + 1][:1] == "-":
                return None
            i += 1
            value = argv[i]
        i += 1
        option = name[2:]
        if name[:2] != "--" or option not in kinds or option in values:
            return None
        kind = kinds[option]
        if kind is not None:
            try:
                value = kind(value)
            except Exception:  # argparse calls kind again and reports or raises
                return None
        values[option] = value
    values.setdefault("format", "plain")
    if len(values) != len(kinds) or values["format"] not in ("plain", "csv"):
        return None
    values["command"] = argv[0]
    return values


def main(argv=None):
    argv = _bind_negative_values(sys.argv[1:] if argv is None else argv)
    values = _read_plain(argv)
    if values is None:
        values = vars(build_parser().parse_args(argv))
    args = SimpleNamespace(**values)
    try:
        if "group" in values:  # each command's group and level are parsed once, here
            args.group = parse_group_spec(args.group)
            if "level" in values:
                args.level = _resolve_level(args.group, args.level)
        code, header, rows, plain = _COMMANDS[args.command][2](args)
    except KleinformError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 1
    _emit(args.format, header, rows, plain)
    return code


if __name__ == "__main__":
    sys.exit(main())
