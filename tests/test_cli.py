import os
import random
import subprocess
import sys
import time
import tracemalloc

import pytest

from kleinform import cli, groupoid_lines
from kleinform.cli import main

DATA = os.path.join(os.path.dirname(__file__), "data")
SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


def run(capsys, argv):
    rc = main(argv)
    out = capsys.readouterr()
    return rc, out.out, out.err


def test_klein_basic(capsys):
    rc, out, err = run(capsys, ["klein", "--n", "3", "--level", "1",
                                "--matrix", "1,3,0,1"])
    assert rc == 0
    assert out == "1/3\n"
    assert err == ""


def test_klein_rejects_matrix_outside_gamma1(capsys):
    rc, out, err = run(capsys, ["klein", "--n", "2", "--level", "1",
                                "--matrix", "1,1,0,1"])
    assert rc == 1
    assert out == ""
    assert err == "error: matrix not in Gamma1(2)\n"


def test_klein_csv(capsys):
    rc, out, err = run(capsys, ["klein", "--n", "2", "--level", "1",
                                "--matrix", "1,2,2,5", "--format", "csv"])
    assert rc == 0
    assert out == "value\n1/2\n"


def test_klein_negative_first_matrix_entry(capsys):
    # a matrix value starting with "-" is the matrix, not an option
    argv = ["klein", "--n", "4", "--level", "3"]
    rc, out, err = run(capsys, argv + ["--matrix", "-11,12,-1,1"])
    assert (rc, out, err) == (0, "1/4\n", "")
    assert run(capsys, argv + ["--matrix=-11,12,-1,1"]) == (rc, out, err)
    for bad in ("-11,12,-1", "-11,12,-1,x"):
        with pytest.raises(SystemExit) as exc:
            main(argv + ["--matrix", bad])
        assert exc.value.code == 2


def test_character_negative_first_matrix_entry(capsys):
    argv = ["character", "--group", "cyclic:3", "--level", "1", "--rep", "1,0"]
    rc, out, err = run(capsys, argv + ["--matrix", "-1,3,0,-1"])
    assert (rc, out, err) == (0, "2/3\n", "")
    assert run(capsys, argv + ["--matrix=-1,3,0,-1"]) == (rc, out, err)


def test_character_negative_first_rep_entry(capsys):
    argv = ["character", "--group", "cyclic:3", "--level", "1"]
    tail = ["--matrix", "1,0,0,1"]
    rc, out, err = run(capsys, argv + ["--rep", "-1,0"] + tail)
    assert (rc, out, err) == (1, "", "error: rep images outside the group\n")
    assert run(capsys, argv + ["--rep=-1,0"] + tail) == (rc, out, err)


def test_usage_error_exits_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["klein", "--n", "3"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["character", "--group", "cyclic:3", "--level", "1", "--rep", "1,0",
              "--matrix", "1,3,0,1", "--window", "4"])
    assert exc.value.code == 2


def test_unknown_command_exits_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2


def test_verify_alpha_plain(capsys):
    rc, out, err = run(capsys, ["verify-alpha", "--group", "cyclic:4",
                                "--level", "2"])
    assert rc == 0
    assert out == "closed: yes\nnormalized: yes\n"


def test_verify_alpha_csv(capsys):
    rc, out, err = run(capsys, ["verify-alpha", "--group", "cyclic:4",
                                "--level", "2", "--format", "csv"])
    assert rc == 0
    assert out == "closed,normalized\nyes,yes\n"


def test_verify_alpha_largest_group(capsys):
    # the largest table a spec may name: 48**3 entries, 48**4 differential values
    rc, out, err = run(capsys, ["verify-alpha", "--group", "cyclic:48", "--level", "5"])
    assert (rc, out, err) == (0, "closed: yes\nnormalized: yes\n", "")


def test_verify_alpha_rejects_open_cochain(tmp_path, capsys):
    path = tmp_path / "open.cochain"
    path.write_text("group cyclic:3 degree 3\n1 1 2 1/3\n")
    rc, out, err = run(capsys, ["verify-alpha", "--group", "cyclic:3",
                                "--level", "file:%s" % path])
    assert rc == 1
    assert out.startswith("closed: no")


def test_group_order_cap_fails_fast(tmp_path, capsys):
    # cyclic:300 asks for a 27M-entry table, degree 4 on cyclic:100 for 10^8
    path = tmp_path / "big.cochain"
    path.write_text("group cyclic:100 degree 4\n")
    for argv in (["verify-alpha", "--group", "cyclic:300", "--level", "1"],
                 ["verify-alpha", "--group", "cyclic:4", "--level", "file:%s" % path]):
        start = time.perf_counter()
        rc, out, err = run(capsys, argv)
        assert time.perf_counter() - start < 1
        assert (rc, out) == (1, "")
        assert err.startswith("error:")
    rc, out, err = run(capsys, ["verify-alpha", "--group", "cyclic:40", "--level", "1"])
    assert (rc, out, err) == (0, "closed: yes\nnormalized: yes\n", "")


def test_cochain_table_cap_fails_fast(tmp_path, capsys):
    # 48**4 entries are refused before any table is built
    path = tmp_path / "wide.cochain"
    path.write_text("group cyclic:48 degree 4\n")
    start = time.perf_counter()
    rc, out, err = run(capsys, ["verify-alpha", "--group", "cyclic:48",
                                "--level", "file:%s" % path])
    assert time.perf_counter() - start < 1
    assert (rc, out) == (1, "")
    assert err.startswith("error:") and "exceeds the cap" in err


def test_character_plain_and_csv(capsys):
    argv = ["character", "--group", "cyclic:2", "--level", "1",
            "--rep", "1,0", "--matrix", "1,2,0,1"]
    rc, out, err = run(capsys, argv)
    assert rc == 0
    assert out == "1/2\n"
    rc, out, err = run(capsys, argv + ["--format", "csv"])
    assert out == "value\n1/2\n"


def test_character_cyclic_without_window(capsys):
    rc, out, err = run(capsys, ["character", "--group", "cyclic:3",
                                "--level", "1", "--rep", "1,0",
                                "--matrix", "1,3,0,1"])
    assert rc == 0
    assert out == "1/3\n"


def test_character_noncyclic_large_entries(capsys):
    # entries beyond window 2 on a non-cyclic rep, answered through S/T steps
    argv = ["character", "--group", "klein4", "--level", "0", "--rep", "1,2"]
    for matrix in ("1,4,0,1", "2,5,1,3"):
        assert run(capsys, argv + ["--matrix", matrix]) == (0, "0\n", "")


def test_dehn_from_file(capsys):
    path = os.path.join(DATA, "s3_cubetwist.cochain")
    rc, out, err = run(capsys, ["dehn", "--group", "s3",
                                "--level", "file:%s" % path, "--elt", "3"])
    assert rc == 0
    assert out == "1/3\n"


def test_dehn_cyclic(capsys):
    rc, out, err = run(capsys, ["dehn", "--group", "cyclic:2", "--level", "1",
                                "--elt", "1"])
    assert rc == 0
    assert out == "1/2\n"


def test_dehn_elt_out_of_range(capsys):
    rc, out, err = run(capsys, ["dehn", "--group", "cyclic:2", "--level", "1",
                                "--elt", "5"])
    assert rc == 1
    assert err.startswith("error:")


def test_enumerate_plain(capsys):
    rc, out, err = run(capsys, ["enumerate", "--group", "cyclic:2",
                                "--genus", "1"])
    assert rc == 0
    assert out == "0 0\n0 1\n1 0\n1 1\n"


def test_enumerate_csv_genus1(capsys):
    rc, out, err = run(capsys, ["enumerate", "--group", "cyclic:2",
                                "--genus", "1", "--format", "csv"])
    assert rc == 0
    lines = out.splitlines()
    assert lines[0] == "e1,e2"
    assert lines[1:] == ["0,0", "0,1", "1,0", "1,1"]


def test_enumerate_csv_genus2_header(capsys):
    rc, out, err = run(capsys, ["enumerate", "--group", "cyclic:2",
                                "--genus", "2", "--format", "csv"])
    assert rc == 0
    lines = out.splitlines()
    assert lines[0] == "a1,b1,a2,b2"
    assert len(lines) == 17


def test_enumerate_streams_each_datum(monkeypatch):
    # 20,736 data at genus 2: each is written as it is found, none is held
    with open(os.devnull, "w") as null:
        monkeypatch.setattr(sys, "stdout", null)
        tracemalloc.start()
        try:
            rc = main(["enumerate", "--group", "cyclic:12", "--genus", "2"])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert rc == 0
    assert peak < 1_000_000


def test_enumerate_refuses_huge_genus_fast(capsys):
    # 2g images per datum exceed the cap even where the count of data does not,
    # and a count of 2**20000 is refused without being written out in digits
    for spec, genus in (("cyclic:3", "30000000"), ("cyclic:1", "30000000"), ("cyclic:2", "10000")):
        start = time.perf_counter()
        rc, out, err = run(capsys, ["enumerate", "--group", spec, "--genus", genus])
        assert time.perf_counter() - start < 1
        assert (rc, out) == (1, "")
        assert err.startswith("error:") and "cap" in err


def test_orbits_plain(capsys):
    rc, out, err = run(capsys, ["orbits", "--group", "s3"])
    assert rc == 0
    assert out == (
        "rep 0 0 orbit 1 stab 0 1 2 3 4 5\n"
        "rep 0 1 orbit 3 stab 0 1\n"
        "rep 0 3 orbit 2 stab 0 3 4\n"
        "rep 1 0 orbit 3 stab 0 1\n"
        "rep 1 1 orbit 3 stab 0 1\n"
        "rep 3 0 orbit 2 stab 0 3 4\n"
        "rep 3 3 orbit 2 stab 0 3 4\n"
        "rep 3 4 orbit 2 stab 0 3 4\n"
    )


def test_orbits_csv(capsys):
    rc, out, err = run(capsys, ["orbits", "--group", "s3", "--format", "csv"])
    assert rc == 0
    lines = out.splitlines()
    assert lines[0] == "rep,orbit,stab"
    assert lines[1] == "0 0,1,0 1 2 3 4 5"
    assert lines[-1] == "3 4,2,0 3 4"
    assert len(lines) == 9


def test_dim_zero_level(capsys):
    rc, out, err = run(capsys, ["dim", "--group", "cyclic:2", "--level", "0"])
    assert rc == 0
    assert out == "4\n"


def test_dim_cyclic_level(capsys):
    rc, out, err = run(capsys, ["dim", "--group", "cyclic:3", "--level", "1",
                                "--format", "csv"])
    assert rc == 0
    assert out == "value\n9\n"


def test_dim_largest_group(capsys):
    # every commuting pair of Z/48 is flat at level 5, so the count is 48**2
    rc, out, err = run(capsys, ["dim", "--group", "cyclic:48", "--level", "5"])
    assert (rc, out, err) == (0, "2304\n", "")


def test_groupoid_check_valid(capsys):
    path = os.path.join(DATA, "flip.groupoid")
    rc, out, err = run(capsys, ["groupoid-check", "--file", path])
    assert rc == 0
    assert out == "valid: yes\ndim: 0\n"


def test_groupoid_check_validates_once(capsys, monkeypatch):
    calls = []
    original = groupoid_lines.validate_groupoid_cocycle

    def counted(cocycle):
        calls.append(cocycle)
        return original(cocycle)

    monkeypatch.setattr(cli, "validate_groupoid_cocycle", counted)
    monkeypatch.setattr(groupoid_lines, "validate_groupoid_cocycle", counted)
    rc, out, err = run(capsys, ["groupoid-check", "--file", os.path.join(DATA, "flip.groupoid")])
    assert (rc, out) == (0, "valid: yes\ndim: 0\n")
    assert len(calls) == 1


def test_groupoid_check_csv(capsys):
    path = os.path.join(DATA, "flip.groupoid")
    rc, out, err = run(capsys, ["groupoid-check", "--file", path,
                                "--format", "csv"])
    assert rc == 0
    assert out == "valid,dim\nyes,0\n"


def test_groupoid_check_invalid(tmp_path, capsys):
    path = tmp_path / "bad.groupoid"
    path.write_text(
        "objects 1\n"
        "mor 0 0 e\n"
        "mor 0 0 t\n"
        "comp e e e\n"
        "comp e t t\n"
        "comp t e t\n"
        "comp t t e\n"
        "val t 1/3\n"
    )
    rc, out, err = run(capsys, ["groupoid-check", "--file", str(path)])
    assert rc == 1
    lines = out.splitlines()
    assert lines[0] == "valid: no"
    assert len(lines) > 1


def test_verify_alpha_zero_denominator(tmp_path, capsys):
    path = tmp_path / "zero.cochain"
    path.write_text("group s3 degree 3\n1 1 2 1/0\n")
    rc, out, err = run(capsys, ["verify-alpha", "--group", "s3",
                                "--level", "file:%s" % path])
    assert (rc, out) == (1, "")
    assert err.startswith("error:")


def test_groupoid_check_zero_denominator(tmp_path, capsys):
    with open(os.path.join(DATA, "flip.groupoid"), encoding="utf-8") as fh:
        text = fh.read()
    assert "val t 1/2" in text
    path = tmp_path / "zero.groupoid"
    path.write_text(text.replace("val t 1/2", "val t 1/0"))
    rc, out, err = run(capsys, ["groupoid-check", "--file", str(path)])
    assert (rc, out) == (1, "")
    assert err.startswith("error:")


def test_groupoid_check_missing_file(capsys):
    rc, out, err = run(capsys, ["groupoid-check", "--file", "/no/such/file"])
    assert rc == 1
    assert err.startswith("error:")


def test_level_errors(tmp_path, capsys):
    rc, out, err = run(capsys, ["dim", "--group", "klein4", "--level", "1"])
    assert rc == 1
    assert "cyclic:n" in err

    path = tmp_path / "z3.cochain"
    path.write_text("group cyclic:3\ndegree 3\n")
    rc, out, err = run(capsys, ["dim", "--group", "cyclic:4",
                                "--level", "file:%s" % path])
    assert rc == 1
    assert err.startswith("error:")

    rc, out, err = run(capsys, ["dim", "--group", "cyclic:2",
                                "--level", "banana"])
    assert rc == 1
    assert err.startswith("error:")


def test_group_file_argument(tmp_path, capsys):
    from kleinform.groups import klein4

    v4 = klein4()
    rows = "\n".join(" ".join(str(v4.mul(a, b)) for b in range(4))
                     for a in range(4))
    path = tmp_path / "v4.group"
    path.write_text("order 4\n%s\n" % rows)
    rc, out, err = run(capsys, ["dim", "--group", "file:%s" % path,
                                "--level", "0"])
    assert rc == 0
    assert out == "16\n"


def test_determinism(capsys):
    argv = ["orbits", "--group", "s3", "--format", "csv"]
    rc1, out1, err1 = run(capsys, argv)
    rc2, out2, err2 = run(capsys, argv)
    assert (rc1, out1, err1) == (rc2, out2, err2)


def test_unreadable_files_fail_with_error_line(tmp_path, capsys):
    # \xff\xfe starts no UTF-8 text; each loader reports it as an error line
    for name, argv in (
            ("g.group", ["dim", "--group", "file:%s", "--level", "0"]),
            ("c.cochain", ["dim", "--group", "s3", "--level", "file:%s"]),
            ("f.groupoid", ["groupoid-check", "--file", "%s"])):
        path = tmp_path / name
        path.write_bytes(b"\xff\xfe" + "order 1\n0\n".encode("utf-16-le"))
        argv = [arg.replace("%s", str(path)) for arg in argv]
        rc, out, err = run(capsys, argv)
        kind = name.split(".")[1]
        assert (rc, out) == (1, "")
        assert err.startswith("error: cannot read %s file %s: " % (kind, path))
        assert err.count("\n") == 1 and "Traceback" not in err


def test_order_line_needs_the_word_order(tmp_path, capsys):
    path = tmp_path / "z2.group"
    path.write_text("orderly 2\n0 1\n1 0\n")
    rc, out, err = run(capsys, ["dim", "--group", "file:%s" % path, "--level", "0"])
    assert (rc, out, err) == (1, "", "error: group file must start with an 'order n' line\n")


def test_cochain_file_rejects_repeated_arguments(tmp_path, capsys):
    # the second line for (1, 1, 1) used to overwrite the first
    path = tmp_path / "twice.cochain"
    path.write_text("group cyclic:2 degree 3\n1 1 1 1/2\n1 1 1 0\n")
    rc, out, err = run(capsys, ["verify-alpha", "--group", "cyclic:2",
                                "--level", "file:%s" % path])
    assert (rc, out) == (1, "")
    assert err == ("error: cochain line repeats the arguments of an earlier line: "
                   "'1 1 1 0'\n")


def test_groupoid_file_rejects_repeated_comp_and_val(tmp_path, capsys):
    with open(os.path.join(DATA, "flip.groupoid"), encoding="utf-8") as fh:
        text = fh.read()
    for extra, message in (("comp t t e\n", "second comp line for one pair: 'comp t t e'"),
                           ("val t 1/2\n", "second val line for one label: 'val t 1/2'")):
        path = tmp_path / "twice.groupoid"
        path.write_text(text + extra)
        rc, out, err = run(capsys, ["groupoid-check", "--file", str(path)])
        assert (rc, out, err) == (1, "", "error: %s\n" % message)


# every command line in README, as main receives it
README_ARGV = (
    ["klein", "--n", "5", "--level", "2", "--matrix", "1,5,1,6"],
    ["verify-alpha", "--group", "cyclic:6", "--level", "4"],
    ["enumerate", "--group", "cyclic:2", "--genus", "1", "--format", "csv"],
    ["orbits", "--group", "s3"],
    ["character", "--group", "s3", "--level", "file:tests/data/s3_cubetwist.cochain",
     "--rep", "3,0", "--matrix", "1,3,0,1"],
    ["dehn", "--group", "s3", "--level", "file:tests/data/s3_cubetwist.cochain", "--elt", "3"],
    ["dim", "--group", "cyclic:3", "--level", "1"],
    ["groupoid-check", "--file", "tests/data/flip.groupoid"],
)

_SAMPLE_VALUES = {"group": "cyclic:3", "level": "1", "rep": "1,0", "matrix": "-1,3,0,-1",
                  "genus": "2", "n": "5", "elt": "1", "file": "tests/data/flip.groupoid"}


def _argv(command, pairs, rnd):
    """command, then each (option, value) pair as --option=value or --option value."""
    argv = [command]
    for option, value in pairs:
        if rnd.random() < 0.5:
            argv.append("--%s=%s" % (option, value))
        else:
            argv += ["--" + option, value]
    return argv


def _reader_corpus(rnd):
    """(well formed, argv): each command in shuffled plain forms, and mutations of them."""
    for argv in README_ARGV:
        yield True, argv
    for command, (_, options, _) in cli._COMMANDS.items():
        names = [option for option, _ in options]
        for fmt in (None, "plain", "csv"):
            pairs = [(option, _SAMPLE_VALUES[option]) for option in names]
            pairs += [("format", fmt)] if fmt else []
            for _ in range(4):
                rnd.shuffle(pairs)
                yield True, _argv(command, pairs, rnd)
            first = names[0]
            yield True, [command] + ["--%s=%s" % pair for pair in pairs]
            yield True, [command] + [t for option, value in pairs for t in ("--" + option, value)]
            for mutated in (
                    pairs + pairs[:1],                                  # a repeated option
                    [pair for pair in pairs if pair[0] != first],       # a missing option
                    pairs + [("window", "4")],                          # an unknown option
                    # an abbreviation (for --n, an unknown name) and bad ints
                    [(first[:-1] or first + "x", value) if option == first else (option, value)
                     for option, value in pairs],
                    pairs + [("genus", "x"), ("n", "1.5"), ("elt", "")],
                    [(option, "x") for option, _ in pairs],             # bad values
                    [(option, "1,2,3") for option, _ in pairs],
                    pairs + [("format", "xml")],
                    [(option, "") for option, _ in pairs],              # empty values
            ):
                yield False, _argv(command, mutated, rnd)
            plain = [t for option, value in pairs for t in ("--" + option, value)]
            for argv in (plain + ["-h"], ["-h"] + plain, plain + ["extra"],
                         ["extra"] + plain, plain + ["--level", "-3"],
                         plain[:1] + ["-3"] + plain[1:], plain[:1] + ["-x"] + plain[1:],
                         plain[:-1] + ["-x"], ["++" + plain[0][2:]] + plain[1:],
                         plain[:1], plain + ["--"], plain + ["--format"]):
                yield False, [command] + argv
            yield False, ["frobnicate"] + plain
    yield False, []
    yield False, ["--help"]
    yield False, ["-h", "dim", "--group", "cyclic:3", "--level", "1"]


def test_plain_reader_agrees_with_argparse(capsys):
    # argparse is the oracle: the reader answers None or exactly what
    # parse_args gives, and None wherever argparse exits.  Both read argv
    # after _bind_negative_values, as main does.
    parser = cli.build_parser()
    answered = 0
    for well_formed, argv in _reader_corpus(random.Random(7)):
        argv = cli._bind_negative_values(argv)
        try:
            expected = vars(parser.parse_args(argv))
        except SystemExit:
            expected = None
        capsys.readouterr()
        got = cli._read_plain(argv)
        assert got is None or got == expected, argv
        if well_formed:
            assert got is not None and got == expected, argv
        answered += got is not None
    assert answered > 8 * 3 * 6
    # a repeated option is left to argparse even where its last value would do
    for argv in (["dim", "--group", "cyclic:3", "--level", "1", "--level", "1"],
                 ["dim", "--format", "csv", "--group", "cyclic:3", "--level", "1",
                  "--format=plain"]):
        assert cli._read_plain(argv) is None and vars(parser.parse_args(argv))


def test_plain_form_output_matches_argparse_route(capsys, monkeypatch):
    # each README command answers the same with the reader turned off
    outputs = [run(capsys, argv) for argv in README_ARGV]
    monkeypatch.setattr(cli, "_read_plain", lambda argv: None)
    assert [run(capsys, argv) for argv in README_ARGV] == outputs
    assert outputs[6] == (0, "9\n", "")


def _primes(count):
    limit = 20 * count
    sieve = bytearray([1]) * limit
    for i in range(2, int(limit**0.5) + 1):
        if sieve[i]:
            sieve[i * i::i] = bytearray(len(range(i * i, limit, i)))
    return [i for i in range(2, limit) if sieve[i]][:count]


def test_coprime_denominators_fail_fast_in_bounded_memory(tmp_path):
    # each of the 32,768 entries of cyclic:32 over its own prime: scaling the
    # table to the lcm of its denominators would take about 2.4 GB
    resource = pytest.importorskip("resource")
    primes = iter(_primes(32**3))
    path = tmp_path / "coprime.cochain"
    path.write_text("group cyclic:32 degree 3\n" + "".join(
        "%d %d %d 1/%d\n" % (a, b, c, next(primes))
        for a in range(32) for b in range(32) for c in range(32)))
    limit = 512 * 2**20

    def cap():
        resource.setrlimit(resource.RLIMIT_AS, (limit, limit))

    proc = subprocess.run(
        [sys.executable, "-m", "kleinform", "verify-alpha", "--group", "cyclic:32",
         "--level", "file:%s" % path],
        capture_output=True, text=True, timeout=60, preexec_fn=cap,
        env=dict(os.environ, PYTHONPATH=SRC))
    assert (proc.returncode, proc.stdout) == (1, "")
    assert proc.stderr.startswith("error: cochain of ") and "exceeds the budget" in proc.stderr
    assert proc.stderr.count("\n") == 1
