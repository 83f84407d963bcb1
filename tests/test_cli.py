import argparse
import json
import re
import subprocess
import sys
import time
from pathlib import Path

import pytest

import preproj.algebra
import preproj.cli
import preproj.koszul
from preproj.cli import build_parser, main
from preproj.field import FieldSpec
from preproj.series import from_json_obj

A0 = "vertices: 1\narrow l: 1 -> 1\n"
A2 = "vertices: 1 2\narrow a: 1 -> 2\n"
A2T = ("vertices: 1 2 3\narrow a: 1 -> 2\narrow b: 2 -> 3\n"
       "arrow c: 3 -> 1\n")
D4T = ("vertices: 0 1 2 3 4\n" +
       "".join("arrow a%d: %d -> 0\n" % (k, k) for k in range(1, 5)))
STAR1 = "vertices: 1 2\narrow a1: 2 -> 1\nwhite: 2\n"
ALLWHITE = "vertices: 1 2\narrow a: 1 -> 2\nwhite: 1 2\n"
TWOLOOP = "vertices: 1\narrow x: 1 -> 1\narrow y: 1 -> 1\n"
ISOLATED = "vertices: 1 2\narrow l: 1 -> 1\n"
NOARROW = "vertices: a\n"
GAMMA2 = ("vertices: 1 2\narrow a: 2 -> 1\nwhite: 2\n"
          "gamma a = 2\ngamma a* = 1\n")


def run(tmp_path, capsys, text, argv_head, *extra):
    f = tmp_path / "q.quiver"
    f.write_text(text, encoding="utf-8")
    code = main([argv_head, str(f), *extra])
    out, err = capsys.readouterr()
    return code, out, err


def test_classify_dynkin(tmp_path, capsys):
    code, out, _ = run(tmp_path, capsys, A2, "classify")
    assert code == 0
    assert out == "connected, Dynkin (A_2)\n"


def test_classify_extended(tmp_path, capsys):
    code, out, _ = run(tmp_path, capsys, A2T, "classify")
    assert code == 0
    assert out == "connected, extended Dynkin (A~_2)\n"


def test_classify_other_names_a_contained_cycle(tmp_path, capsys):
    code, out, _ = run(tmp_path, capsys, TWOLOOP, "classify")
    assert code == 0
    assert out == "connected, other (contains A~_0)\n"


def test_classify_disconnected(tmp_path, capsys):
    code, out, _ = run(tmp_path, capsys, ISOLATED, "classify")
    assert code == 0
    assert out == "disconnected\n"


def test_classify_json(tmp_path, capsys):
    code, out, _ = run(tmp_path, capsys, TWOLOOP, "classify",
                       "--format", "json")
    assert code == 0
    obj = json.loads(out)
    assert obj["command"] == "classify"
    assert obj["connected"] is True
    assert obj["verdict"] == "OtherNonDynkin"
    assert obj["contains"] == "A~_0"


def test_hilbert_one_loop_counts(tmp_path, capsys):
    code, out, _ = run(tmp_path, capsys, A0, "hilbert", "--degree", "3")
    assert code == 0
    assert out == "0\t1\n1\t2\n2\t3\n3\t4\n"


def test_hilbert_single_arm_star(tmp_path, capsys):
    code, out, _ = run(tmp_path, capsys, STAR1, "hilbert", "--degree", "2")
    assert code == 0
    assert out.splitlines() == ["0\t1\t0\t0\t1", "1\t0\t1\t1\t0",
                                "2\t0\t0\t0\t1"]


def test_hilbert_json_round_trip(tmp_path, capsys):
    code, out, _ = run(tmp_path, capsys, A2T, "hilbert", "--degree", "4",
                       "--format", "json")
    assert code == 0
    obj = json.loads(out)
    assert obj["vertices"] == ["1", "2", "3"]
    assert obj["field"] == "q"
    s = from_json_obj(obj["series"])
    assert s.truncation == 4
    assert s[0] == [[1, 0, 0], [0, 1, 0], [0, 0, 1]]


def test_hilbert_prime_field(tmp_path, capsys):
    code, out, _ = run(tmp_path, capsys, A2T, "hilbert", "--degree", "3",
                       "--field", "f5", "--format", "json")
    assert code == 0
    assert json.loads(out)["field"] == "f5"


def test_closed_form_dynkin_goes_negative(tmp_path, capsys):
    code, out, _ = run(tmp_path, capsys, A2, "closed-form", "--degree", "4")
    assert code == 0
    assert out.splitlines()[3] == "3\t0\t-1\t-1\t0"


def test_verify_extended_dynkin(tmp_path, capsys):
    code, out, _ = run(tmp_path, capsys, D4T, "verify", "--degree", "8")
    assert code == 0
    assert out == "verified: series equals the closed form through degree 8\n"


def test_verify_mismatch_witness(tmp_path, capsys):
    code, out, _ = run(tmp_path, capsys, A2, "verify")
    assert code == 1
    assert out == ("mismatch at degree 3 entry (1, 2): "
                   "computed 0, closed form -1\n")


def test_verify_json_witness(tmp_path, capsys):
    code, out, _ = run(tmp_path, capsys, A2, "verify", "--format", "json")
    assert code == 1
    obj = json.loads(out)
    assert obj["equal"] is False
    assert obj["witness"] == {"degree": 3, "row": "1", "col": "2",
                              "computed": 0, "closed_form": -1}


def test_koszul_extended_dynkin(tmp_path, capsys):
    code, out, _ = run(tmp_path, capsys, A2T, "koszul")
    assert code == 0
    assert out.splitlines() == [
        "Koszul up to (3, 8)",
        "series equals the closed form through degree 10"]


def test_koszul_path_algebra(tmp_path, capsys):
    code, out, _ = run(tmp_path, capsys, ALLWHITE, "koszul")
    assert code == 0


def test_koszul_dynkin_fails_with_series_witness(tmp_path, capsys):
    code, out, _ = run(tmp_path, capsys, A2, "koszul")
    assert code == 1
    lines = out.splitlines()
    assert lines[0] == "not Koszul up to (3, 8)"
    assert ("series differs from the closed form at degree 3 entry (1, 2)"
            in lines)


def test_koszul_json(tmp_path, capsys):
    code, out, _ = run(tmp_path, capsys, A2, "koszul", "--format", "json")
    assert code == 1
    obj = json.loads(out)
    assert obj["koszul"] is False
    assert obj["complete"] is True
    assert {"kind": "series", "degree": 3, "row": "1",
            "col": "2"} in obj["witnesses"]
    assert all(set(e) == {"i", "degree", "matrix"} for e in obj["tor"])


def test_torsion_clean(tmp_path, capsys):
    code, out, _ = run(tmp_path, capsys, A2T, "torsion", "--degree", "6")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "degree\trow\tcol\tdivisors"
    assert lines[-1] == "no torsion"
    assert lines[1] == "2\t1\t1\t1"


def test_torsion_json(tmp_path, capsys):
    code, out, _ = run(tmp_path, capsys, D4T, "torsion", "--degree", "5",
                       "--format", "json")
    assert code == 0
    obj = json.loads(out)
    assert obj["torsion_found"] is False
    assert obj["witnesses"] == []
    assert obj["primes"] == [2, 3]
    assert all(set(e["divisors"]) <= {0, 1} for e in obj["entries"])


def test_torsion_non_unit_gamma_is_input_error(tmp_path, capsys):
    code, out, err = run(tmp_path, capsys, GAMMA2, "torsion")
    assert code == 2
    assert err.startswith("error:")
    assert out == ""


def test_gamma_vanishing_mod_p(tmp_path, capsys):
    code, _, err = run(tmp_path, capsys, GAMMA2, "hilbert", "--field", "f2")
    assert code == 2
    assert err.startswith("error:")
    # over the rationals the same file is fine
    code, _, _ = run(tmp_path, capsys, GAMMA2, "hilbert", "--degree", "4")
    assert code == 0


def test_seed_echo_tsv_and_json(tmp_path, capsys):
    code, out, _ = run(tmp_path, capsys, A0, "hilbert", "--degree", "2",
                       "--seed", "42")
    assert code == 0
    assert out.splitlines()[0] == "seed\t42"
    code, out, _ = run(tmp_path, capsys, A0, "hilbert", "--degree", "2",
                       "--seed", "42", "--format", "json")
    assert json.loads(out)["seed"] == 42


def test_missing_file(tmp_path, capsys):
    code = main(["classify", str(tmp_path / "absent.quiver")])
    _, err = capsys.readouterr()
    assert code == 2
    assert err.startswith("error:")


def test_malformed_quiver(tmp_path, capsys):
    code, _, err = run(tmp_path, capsys, "vertices: 1\narrow a: 1 - 1\n",
                       "classify")
    assert code == 2
    assert "error:" in err


def test_unknown_white_vertex(tmp_path, capsys):
    code, _, err = run(tmp_path, capsys,
                       "vertices: 1 2\narrow a: 1 -> 2\nwhite: 3\n",
                       "classify")
    assert code == 2
    assert "error:" in err


def test_bad_field_spec(tmp_path, capsys):
    code, _, err = run(tmp_path, capsys, A0, "hilbert", "--field", "f9")
    assert code == 2
    assert "error:" in err


def test_field_above_primality_bound_is_input_error(tmp_path, capsys):
    code, out, err = run(tmp_path, capsys, A0, "hilbert",
                         "--field", "f%d" % (10 ** 25 + 13))
    assert code == 2 and out == ""
    assert err.startswith("error:") and err.count("\n") == 1


@pytest.mark.parametrize("field", ["f\u00b2", "f\u0663"])
def test_unicode_digit_field_is_input_error(tmp_path, capsys, field):
    # a superscript two and an Arabic-Indic three are not field sizes
    code, out, err = run(tmp_path, capsys, A0, "hilbert", "--field", field)
    assert code == 2 and out == ""
    assert err.startswith("error:") and err.count("\n") == 1


def _usage_error(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    out, err = capsys.readouterr()
    assert exc.value.code == 2 and out == ""
    assert err.startswith("error:") and err.count("\n") == 1
    return err


@pytest.mark.parametrize("flag", ["--degree", "--imax", "--dmax", "--seed"])
def test_unicode_digit_integer_flag_rejected(tmp_path, capsys, flag):
    # int() reads an Arabic-Indic three as 3; a flag must not
    f = tmp_path / "q.quiver"
    f.write_text(A0, encoding="utf-8")
    for command in ("hilbert", "koszul"):
        if command == "hilbert" and flag in ("--imax", "--dmax"):
            continue  # only koszul takes these
        for value in ("\u0663", "\u0664\u0662"):
            err = _usage_error(capsys, [command, str(f), flag, value])
            assert "invalid int value" in err, (command, err)


@pytest.mark.parametrize("argv", [["torsion", "--field", "f5"],
                                  ["classify", "--degree", "3"],
                                  ["closed-form", "--field", "f5"],
                                  ["hilbert", "--imax", "2"]],
                         ids=lambda argv: argv[0])
def test_flag_the_command_does_not_read_is_usage_error(tmp_path, capsys,
                                                       argv):
    # torsion works over Z and closed-form is an integer series: a field
    # there, or a bound a command never reads, is refused, not ignored
    f = tmp_path / "q.quiver"
    f.write_text(A2T, encoding="utf-8")
    err = _usage_error(capsys, [argv[0], str(f)] + argv[1:])
    assert err == "error: unrecognized arguments: %s\n" % " ".join(argv[1:])


def test_unicode_digit_gamma_is_input_error(tmp_path, capsys):
    code, out, err = run(tmp_path, capsys, GAMMA2.replace("= 2", "= \u0663"),
                         "hilbert", "--degree", "2")
    assert code == 2 and out == ""
    assert err.startswith("error:") and err.count("\n") == 1


@pytest.mark.parametrize("value", ["1_0", "1e3"])
@pytest.mark.parametrize("command", ["classify", "torsion"])
def test_gamma_outside_grammar_is_input_error(tmp_path, capsys, value,
                                              command):
    # Fraction() reads these as 10 and 1000: classify exited 0 and torsion
    # saw a non-unit gamma
    code, out, err = run(tmp_path, capsys,
                         A0 + "gamma l = %s\n" % value, command)
    assert code == 2 and out == ""
    assert err == "error: line 3: bad gamma value %r\n" % value


@pytest.mark.parametrize("command", ["hilbert", "koszul", "torsion"])
def test_candidate_bound_is_undetermined(tmp_path, capsys, monkeypatch,
                                         command):
    # degree 3 of the two-loop double has 4 * 15 = 60 candidates; over a
    # bound of 59 every command stops with exit 1 (undetermined), not 2
    monkeypatch.setattr(preproj.algebra, "CANDIDATE_BOUND", 59)
    dmax = ["--dmax", "4"] if command == "koszul" else []
    code, out, err = run(tmp_path, capsys, TWOLOOP, command,
                         "--degree", "4", *dmax)
    assert code == 1 and out == ""
    assert err == ("error: degree 3 has 60 candidate paths, above the bound"
                   " of 59\n")


def test_tor_column_cap_is_named(tmp_path, capsys, monkeypatch):
    # a bounded verdict names its bound: with the cap at 5 columns the
    # A~2 stage-3 cells are skipped and the line says which cap did it
    monkeypatch.setattr(preproj.koszul, "TOR_COLUMN_CAP", 5)
    code, out, _ = run(tmp_path, capsys, A2T, "koszul")
    assert code == 1
    assert out.splitlines() == [
        "not Koszul up to (3, 8)",
        "undetermined: Tor cells skipped by the column cap of 5 columns:"
        " (3, 3), (3, 4), (3, 5), (3, 6), (3, 7), (3, 8)"]


def test_tor_column_cap_is_named_in_json(tmp_path, capsys, monkeypatch):
    # the JSON verdict names the skipped cells and the cap, as the TSV does
    monkeypatch.setattr(preproj.koszul, "TOR_COLUMN_CAP", 5)
    code, out, _ = run(tmp_path, capsys, A2T, "koszul", "--format", "json")
    assert code == 1
    obj = json.loads(out)
    assert obj["complete"] is False and obj["witnesses"] == []
    assert obj["partial"] == [[3, d] for d in range(3, 9)]
    assert obj["column_cap"] == 5


STAR222_W3 = ("vertices: c v1 v2 v3\n"
              + "".join("arrow a%d_%d: v%d -> c\n" % (i, k, i)
                        for i in (1, 2, 3) for k in (1, 2))
              + "white: c v3\n")


def test_candidate_bound_refuses_from_the_closed_form(tmp_path, capsys):
    # the series equals the closed form here, so C . cf_12 is degree 13's
    # exact candidate count: every command that builds degrees refuses
    # before degrees 2-12 are built
    for command in ("hilbert", "koszul", "torsion"):
        t0 = time.perf_counter()
        code, out, err = run(tmp_path, capsys, STAR222_W3, command,
                             "--degree", "13")
        elapsed = time.perf_counter() - t0
        assert code == 1 and out == "", command
        assert err == ("error: degree 13 has 26375732 candidate paths, above"
                       " the bound of 16000000\n"), command
        assert elapsed < 1.0, (command, elapsed)


def test_negative_degree_rejected(tmp_path, capsys):
    f = tmp_path / "q.quiver"
    f.write_text(A0, encoding="utf-8")
    _usage_error(capsys, ["hilbert", str(f), "--degree", "-1"])


def test_malformed_flag_value_rejected(tmp_path, capsys):
    f = tmp_path / "q.quiver"
    f.write_text(A0, encoding="utf-8")
    _usage_error(capsys, ["hilbert", str(f), "--degree", "abc"])
    _usage_error(capsys, ["koszul", str(f), "--format", "xml"])
    _usage_error(capsys, ["hilbert"])


def test_unknown_command_rejected(capsys):
    _usage_error(capsys, ["frobnicate", "x"])


def test_one_black_vertex_without_arrows_splits_the_closed_forms(
        tmp_path, capsys):
    # closed-form and verify use the paper's D_J, which counts the black
    # vertex; koszul compares with the relation span's dims, and the
    # relation at a vertex with no arrow is zero, so its D has a 0 there
    code, out, _ = run(tmp_path, capsys, NOARROW, "verify")
    assert code == 1
    assert out == ("mismatch at degree 2 entry (a, a): "
                   "computed 0, closed form -1\n")
    code, out, _ = run(tmp_path, capsys, NOARROW, "koszul")
    assert code == 0
    assert out == ("Koszul up to (3, 8)\n"
                   "series equals the closed form through degree 10\n")


def test_repeated_main_calls_build_one_parser(tmp_path, capsys):
    build_parser.cache_clear()
    for argv in (["classify"], ["hilbert", "--degree", "2"],
                 ["koszul", "--degree", "2"]):
        assert run(tmp_path, capsys, A0, *argv)[0] == 0
    info = build_parser.cache_info()
    assert (info.misses, info.hits) == (1, 2)


def _in_process(capsys, argv):
    try:
        code = main(argv)
    except SystemExit as e:
        code = e.code
    out, err = capsys.readouterr()
    return out, err, code


def _alone(argv):
    proc = subprocess.run(
        [sys.executable, "-m", "preproj.cli", *argv], capture_output=True,
        text=True, timeout=120,
        env={"PYTHONPATH": str(Path(preproj.__file__).parent.parent)})
    return proc.stdout, proc.stderr, proc.returncode


def test_shared_parser_carries_nothing_between_calls(tmp_path, capsys):
    # a failed parse, then non-default flags, then all defaults: each call
    # prints what it prints in an interpreter of its own
    f = tmp_path / "q.quiver"
    f.write_text(A0, encoding="utf-8")
    calls = [["hilbert", str(f), "--degree", "3", "--format", "xml"],
             ["hilbert", str(f), "--degree", "3", "--seed", "7",
              "--format", "json"],
             ["hilbert", str(f)]]
    in_one_process = [_in_process(capsys, argv) for argv in calls]
    assert [code for _, _, code in in_one_process] == [2, 0, 0]
    assert in_one_process == [_alone(argv) for argv in calls]


def test_help_lists_every_command(capsys):
    helps = {
        "classify": "connectivity and Dynkin / extended Dynkin / other",
        "hilbert": "Hilbert series of the doubled presentation to degree N",
        "closed-form": "the series 1/(1 - Ct + D_J t^2) to degree N",
        "verify": "compare the computed series with the closed form",
        "koszul": "series equality plus Tor concentration",
        "torsion": "Smith normal forms of the integer relation matrices",
    }
    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    out, err = capsys.readouterr()
    assert exc.value.code == 0 and err == ""
    words = " ".join(out.split())  # the wrapping follows the terminal width
    assert "{%s}" % ",".join(helps) in words
    for name, text in helps.items():
        assert "%s %s" % (name, text) in words, name
    # each subcommand lists the file, --format, --seed and its own flags
    own = {"classify": [], "hilbert": ["--field", "--degree"],
           "closed-form": ["--degree"], "verify": ["--field", "--degree"],
           "koszul": ["--field", "--degree", "--imax", "--dmax"],
           "torsion": ["--degree"]}
    for name, flags in own.items():
        with pytest.raises(SystemExit) as exc:
            main([name, "--help"])
        out, err = capsys.readouterr()
        assert exc.value.code == 0 and err == "" and " file" in out, name
        listed = set(re.findall(r"--[a-z]+", out))
        assert listed == {"--help", "--format", "--seed", *flags}, name


@pytest.mark.parametrize("name", list(preproj.cli._COMMANDS))
def test_every_command_reads_every_flag_it_takes(tmp_path, capsys, name):
    # a flag the command never reads would be ignored without a word; run
    # the command on a namespace that records each attribute read
    f = tmp_path / "q.quiver"
    f.write_text(A2, encoding="utf-8")
    args = build_parser().parse_args([name, str(f)])
    declared = set(vars(args)) - {"command"}
    read = set()

    class Recording(argparse.Namespace):
        def __getattribute__(self, attr):
            read.add(attr)
            return super().__getattribute__(attr)

    rec = Recording(**vars(args))
    if "field" in declared:
        rec.field = FieldSpec.parse(rec.field)
    read.clear()
    preproj.cli._COMMANDS[name][0](rec)
    assert declared - read == set(), "%s never reads %s" % (
        name, sorted(declared - read))
