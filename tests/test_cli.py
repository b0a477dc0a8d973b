import ast
import concurrent.futures
import hashlib
import json
import os
import random
import shlex
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import pytest

from helpers import filiform_square, random_unimodular, truncated_witt
import liemult
from liemult import algebra, algfile, catalog, cli, homology, linalg, words
from liemult.algebra import LieAlgebra, build
from liemult.bounds import BoundReport, VIOLATED
from liemult.catalog import filiform_q, standard_filiform
from liemult.cli import (
    EXIT_INPUT,
    EXIT_OK,
    EXIT_RESOURCE,
    EXIT_VIOLATION,
    _dicts_to_reports_exit,
    main,
)
from liemult.fields import QQ, PrimeField

BAD_JACOBI = (
    "lie-algebra v1\nfield Q\ndim 3\n"
    "bracket 1 2 3 1\nbracket 1 3 3 1\nbracket 2 3 1 1\n"
)


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_multiplier_by_name(capsys):
    code, out, _ = run(capsys, ["multiplier", "--name", "L(3,4,1,4)"])
    assert code == EXIT_OK
    assert out.strip() == "2"


def test_multiplier_machine_format(capsys):
    code, out, _ = run(capsys, ["multiplier", "--name", "L(7,5,1,7)", "--format", "machine"])
    assert code == EXIT_OK
    doc = json.loads(out)
    assert doc["dim_multiplier"] == 3
    assert doc["format"] == "liemult-report-v1"


def test_series_command(capsys):
    code, out, _ = run(capsys, ["series", "--name", "filiform-6"])
    assert code == EXIT_OK
    assert out.split() == ["6", "4", "3", "2", "1", "0"]


def test_check_file(tmp_path, capsys):
    path = tmp_path / "good.alg"
    path.write_text("lie-algebra v1\nfield Q\ndim 4\nbracket 1 2 3 1\nbracket 1 3 4 1\n")
    code, out, _ = run(capsys, ["check", "--file", str(path)])
    assert code == EXIT_OK
    assert "nilpotent of class 3" in out


def test_check_jacobi_violation_exits_1(tmp_path, capsys):
    path = tmp_path / "bad.alg"
    path.write_text(BAD_JACOBI)
    code, _, err = run(capsys, ["check", "--file", str(path)])
    assert code == EXIT_INPUT
    assert "(1, 2, 3)" in err


@pytest.mark.parametrize("field,coeff,shown", [("Q", "1/2", "[1/2, 0, 0]"),
                                               ("GF(7)", "4", "[4, 0, 0]")])
def test_check_prints_the_jacobi_defect_in_field_notation(tmp_path, capsys, field, coeff, shown):
    # The cyclic defect of (e1, e2, e3) is [[e3, e1], e2] = [e2, e3] = coeff e1.
    path = tmp_path / "bad.alg"
    path.write_text(f"lie-algebra v1\nfield {field}\ndim 3\n"
                    f"bracket 1 2 3 1\nbracket 1 3 3 1\nbracket 2 3 1 {coeff}\n")
    code, _, err = run(capsys, ["check", "--file", str(path)])
    assert code == EXIT_INPUT
    assert err == f"error: Jacobi identity fails on basis triple (1, 2, 3); defect vector {shown}\n"


def test_check_duplicate_bracket_exits_1(tmp_path, capsys):
    path = tmp_path / "dup.alg"
    path.write_text("lie-algebra v1\nfield Q\ndim 3\nbracket 1 2 3 1\nbracket 1 2 3 1\n")
    code, _, err = run(capsys, ["check", "--file", str(path)])
    assert code == EXIT_INPUT
    assert "duplicate" in err


def test_check_duplicate_label_exits_1(tmp_path, capsys):
    path = tmp_path / "labels.alg"
    path.write_text("lie-algebra v1\nfield Q\ndim 3\nlabel 1 a\nlabel 1 b\nbracket 1 2 3 1\n")
    code, out, err = run(capsys, ["check", "--file", str(path)])
    assert (code, out) == (EXIT_INPUT, "")
    assert err == "error: line 5: duplicate label directive for index 1 (first seen on line 4)\n"


@pytest.mark.parametrize("spec", ["Q", "GF(2147483647)"])
def test_check_counts_brackets_without_the_field_scalar_table(tmp_path, capsys, monkeypatch,
                                                              spec):
    field = QQ if spec == "Q" else PrimeField(2147483647)
    dense = standard_filiform(13, field=field).change_basis(
        random_unimodular(random.Random(13), 13, field))
    path = tmp_path / "dense-13.alg"
    path.write_text(algfile.serialize_algebra(dense))
    loaded = []
    load = cli._load_algebra
    monkeypatch.setattr(cli, "_load_algebra", lambda args: loaded.append(load(args)) or loaded[0])
    code, out, _ = run(capsys, ["check", "--file", str(path), "--format", "machine"])
    assert code == EXIT_OK
    L = loaded[0][0]
    assert "_table" not in L.__dict__
    # The document as the count by ``structure_constants()`` gave it.
    assert json.loads(out) == {
        "algebra": str(path), "brackets": 1014, "class": 12, "command": "check", "field": spec,
        "format": "liemult-report-v1", "n": 13, "nilpotent": True,
        "series_dims": [13, 11, 10, 9, 8, 7, 6, 5, 4, 3, 2, 1, 0]}
    assert len(L.structure_constants()) == 1014


@pytest.mark.parametrize("line,shown", [
    ("dim ²", "line 3: dim directive takes one nonnegative integer"),
    ("dim 2\nlabel ² a", "line 4: label directive is: label INDEX NAME"),
])
def test_check_superscript_digit_is_an_input_error(tmp_path, capsys, line, shown):
    path = tmp_path / "sup.alg"
    path.write_text(f"lie-algebra v1\nfield Q\n{line}\n", encoding="utf-8")
    code, out, err = run(capsys, ["check", "--file", str(path)])
    assert (code, out) == (EXIT_INPUT, "")
    assert err == f"error: {shown}\n"


def test_check_file_that_is_not_utf8_is_an_input_error(tmp_path, capsys):
    path = tmp_path / "latin1.alg"
    path.write_bytes(b"lie-algebra v1\nfield Q\ndim 2\nlabel 1 \xff\n")
    code, out, err = run(capsys, ["check", "--file", str(path)])
    assert (code, out) == (EXIT_INPUT, "")
    assert err.startswith("error: ") and str(path) in err and "UTF-8" in err
    assert "Traceback" not in err and err.count("\n") == 1


def test_check_char_two_without_override_exits_1(tmp_path, capsys):
    path = tmp_path / "char2.alg"
    path.write_text("lie-algebra v1\nfield GF(2)\ndim 2\n")
    code, _, err = run(capsys, ["check", "--file", str(path)])
    assert code == EXIT_INPUT
    assert "unsafe-char-2" in err
    code, _, _ = run(capsys, ["check", "--file", str(path), "--unsafe-char-2"])
    assert code == EXIT_OK


def test_unknown_name_exits_1(capsys):
    code, _, err = run(capsys, ["multiplier", "--name", "no-such-algebra"])
    assert code == EXIT_INPUT
    assert "unknown catalog name" in err


def test_missing_input_exits_1(capsys):
    code, _, err = run(capsys, ["multiplier"])
    assert code == EXIT_INPUT


def test_usage_error_exits_1(capsys):
    code, _, _ = run(capsys, ["psi", "--name", "L(3,4,1,4)"])  # --i required
    assert code == EXIT_INPUT


def test_verify_bound_sweep(capsys):
    code, out, _ = run(capsys, ["verify-bound", "--family", "filiform", "--max-dim", "12"])
    assert code == EXIT_OK
    assert "violated" not in out


def test_verify_bound_single(capsys):
    code, out, _ = run(capsys, ["verify-bound", "--name", "L(3,4,1,4)"])
    assert code == EXIT_OK
    assert "attained" in out


def test_verify_thm13(capsys):
    code, out, _ = run(capsys, ["verify-thm13", "--name", "heisenberg-3"])
    assert code == EXIT_OK
    assert "equality" in out


def test_psi_command(capsys):
    code, out, _ = run(capsys, ["psi", "--name", "L(3,4,1,4)", "--i", "3"])
    assert code == EXIT_OK
    assert "= 1" in out


def test_lemma_test_command(capsys):
    code, out, err = run(capsys, ["lemma-test"])
    assert (code, err) == (EXIT_OK, "")
    assert out == ("ok: the defect is 0 in the free associative ring over Z at degrees "
                   "[3, 4, 5, 6], so the identity holds in every Lie algebra\n")
    code, out, _ = run(capsys, ["lemma-test", "--i", "15", "--format", "machine"])
    assert code == EXIT_OK
    assert json.loads(out) == {"format": "liemult-report-v1", "command": "lemma-test",
                               "holds": True, "degrees": [15],
                               "ring": "free associative ring over Z"}
    code, out, err = run(capsys, ["lemma-test", "--i", "2"])
    assert (code, out) == (EXIT_INPUT, "")
    assert err == "error: the identity needs degree i >= 3 (4 arguments), got i = 2\n"


def test_lemma_test_fails_on_a_mutated_schedule(capsys, monkeypatch):
    # Term 2's left word reversed: the expansion no longer cancels.
    original = words.term_schedule

    def mutant(i):
        terms = original(i)
        right, left, outer = terms[1]
        return [terms[0], (right, left[::-1], outer), *terms[2:]]

    monkeypatch.setattr(words, "term_schedule", mutant)
    code, out, _ = run(capsys, ["lemma-test", "--i", "5", "--format", "machine"])
    assert code == EXIT_VIOLATION
    doc = json.loads(out)
    assert (doc["holds"], doc["i"]) == (False, 5)
    assert doc["nonzero_monomials"] == len(words.free_defect(5)) > 0
    assert sorted(doc["monomial"]) == list(range(6)) and doc["coefficient"] != 0
    code, out, _ = run(capsys, ["lemma-test"])
    assert code == EXIT_VIOLATION and out.startswith("FAIL: the defect at degree 3 has ")


@pytest.mark.parametrize("argv", [["--tuples", "25"], ["--seed", "1"], ["--name", "heisenberg-3"],
                                  ["--file", "x.alg"], ["--field", "GF(7)"], ["--unsafe-char-2"]],
                         ids=["tuples", "seed", "name", "file", "field", "unsafe-char-2"])
def test_lemma_test_takes_no_sample_or_algebra_options(capsys, argv):
    code, out, err = run(capsys, ["lemma-test", *argv])
    assert (code, out) == (EXIT_INPUT, "")
    assert "unrecognized arguments" in err


def test_catalog_listing(capsys):
    code, out, _ = run(capsys, ["catalog"])
    assert code == EXIT_OK
    assert "L(3,4,1,4)" in out and "heisenberg-3" in out


# Pinned on the code that built every entry over Q at import time.
@pytest.mark.parametrize("argv,digest", [
    ([], "b3da0fc810f78da9c049970cf3c57dacf2e675449b1a65ea9f393dc2dd51085c"),
    (["--format", "machine"], "5f6d2c1d025c59da40cdc1f21882fa584431745e146536b150eb7c29b7e9dcba"),
], ids=["human", "machine"])
def test_catalog_listing_matches_its_pin(capsys, argv, digest):
    code, out, _ = run(capsys, ["catalog", *argv])
    assert code == EXIT_OK
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_importing_the_cli_builds_no_algebra():
    # A catalog entry is built when a command reads it, not at import.
    src = str(Path(cli.__file__).resolve().parents[1])
    probe = ("import sys\n"
             "sys.path.insert(0, sys.argv[1])\n"
             "calls = []\n"
             "def count(frame, event, arg):\n"
             "    if event == 'call' and frame.f_code.co_name == '_construct':\n"
             "        calls.append(frame.f_code.co_filename)\n"
             "sys.setprofile(count)\n"
             "import liemult.cli\n"
             "sys.setprofile(None)\n"
             "print(len(calls))\n")
    done = subprocess.run([sys.executable, "-I", "-S", "-c", probe, src],
                          capture_output=True, text=True, check=True)
    assert done.stdout.strip() == "0"


def test_report_over_char_two_prints_no_margin_for_an_out_of_scope_bound(capsys):
    # The parity bound is out of scope over GF(2): its value bounds nothing,
    # so no row reads as a margin of 0 that is not attained.
    argv = ["report", "--family", "filiform", "--max-dim", "6", "--field", "GF(2)",
            "--unsafe-char-2"]
    code, out, _ = run(capsys, [*argv, "--format", "machine"])
    assert code == EXIT_OK
    doc = json.loads(out)
    assert [r["bounds"]["main_theorem"]["verdict"] for r in doc["reports"]] == ["out-of-scope"] * 4
    assert doc["rows"] == [[3, 2, 2, False, None], [4, 2, 2, False, None],
                           [5, 3, 3, False, None], [6, 3, 3, False, None]]
    code, out, _ = run(capsys, argv)
    assert code == EXIT_OK
    assert [line.split()[-1] for line in out.splitlines()[2:]] == ["-"] * 4


def test_report_deterministic_machine_output(tmp_path, capsys):
    outputs = []
    for name in ("a.json", "b.json"):
        path = tmp_path / name
        code = main(["report", "--family", "filiform", "--max-dim", "6",
                     "--format", "machine", "--out", str(path)])
        assert code == EXIT_OK
        outputs.append(path.read_bytes())
    capsys.readouterr()
    assert outputs[0] == outputs[1]
    doc = json.loads(outputs[0])
    assert doc["columns"][0] == "n"
    assert [row[0] for row in doc["rows"]] == [3, 4, 5, 6]


REPORT_6_HUMAN = """\
n  dim_multiplier  main_theorem_bound  attained  margin
-  --------------  ------------------  --------  ------
3  2               2                   yes       0
4  2               2                   yes       0
5  3               3                   yes       0
6  3               3                   yes       0
"""


def test_report_outputs_are_pinned(capsys):
    # Both renderings of the table come from the same rows; the machine
    # document's hash pins every byte of it, per-degree psi records included.
    code, human, _ = run(capsys, ["report", "--family", "filiform", "--max-dim", "6"])
    assert code == EXIT_OK
    assert human == REPORT_6_HUMAN
    code, machine, _ = run(capsys, ["report", "--family", "filiform", "--max-dim", "6",
                                    "--format", "machine"])
    assert code == EXIT_OK
    doc = json.loads(machine)
    assert doc["field"] == "Q" and doc["family"] == "filiform"
    assert doc["rows"] == [[3, 2, 2, True, 0], [4, 2, 2, True, 0],
                           [5, 3, 3, True, 0], [6, 3, 3, True, 0]]
    assert hashlib.sha256(machine.encode()).hexdigest() == (
        "8d2e7194fb4bb0bd3a4f38b66458b4c13307e81e7ba212dde112ee93f3a54ed0")


@pytest.mark.parametrize("spec,digest", [
    ("Q", "f0834813ad19fcfad3373a4c5a30ab97d73df92ce74d0351d6a6e2ddb385e042"),
    ("GF(2147483647)", "31437a77ea25984953ddbdefeb2e8aca05103ca681ef0f354497fbb401c4a6df"),
], ids=["Q", "GFp"])
def test_filiform_sweep_to_14_is_pinned(capsys, spec, digest):
    # The bound-sweep benchmark pins the same two digests.
    code, machine, _ = run(capsys, ["report", "--family", "filiform", "--max-dim", "14",
                                    "--format", "machine", "--jobs", "1", "--field", spec])
    assert code == EXIT_OK
    assert hashlib.sha256(machine.encode()).hexdigest() == digest


VERIFY_BOUND_6_HUMAN = """\
algebra     n  dim M  parity bound  n-2             derived       quadratic
----------  -  -----  ------------  --------------  ------------  ----------
filiform-3  3  2      2 (attained)  not-applicable  2 (attained)  3 (holds)
filiform-4  4  2      2 (attained)  2 (attained)    3 (holds)     6 (holds)
filiform-5  5  3      3 (attained)  3 (attained)    4 (holds)     10 (holds)
filiform-6  6  3      3 (attained)  4 (holds)       5 (holds)     15 (holds)
"""

VERIFY_BOUND_L3414_HUMAN = """\
algebra     n  dim M  parity bound  n-2           derived    quadratic
----------  -  -----  ------------  ------------  ---------  ---------
L(3,4,1,4)  4  2      2 (attained)  2 (attained)  3 (holds)  6 (holds)
"""


def test_verify_bound_tables_are_pinned(capsys):
    # The sweep and the single-algebra branch render the same table.
    code, out, _ = run(capsys, ["verify-bound", "--family", "filiform", "--max-dim", "6"])
    assert (code, out) == (EXIT_OK, VERIFY_BOUND_6_HUMAN)
    code, out, _ = run(capsys, ["verify-bound", "--name", "L(3,4,1,4)"])
    assert (code, out) == (EXIT_OK, VERIFY_BOUND_L3414_HUMAN)


def test_verify_bound_pinching_is_exact_past_n20(capsys):
    code, out, _ = run(capsys, ["verify-bound", "--family", "filiform", "--min-dim", "21",
                                "--max-dim", "22", "--format", "machine"])
    assert code == EXIT_OK
    reports = json.loads(out)["reports"]
    assert [r["n"] for r in reports] == [21, 22]
    for r in reports:
        assert r["pinching"]["all_exact"] is True
        assert all(p["exact"] and p["mode"] == "exact" for p in r["pinching"]["per_degree"])


def test_psi_machine_document_for_q6(tmp_path, capsys):
    # Q_6 saturates its 2-dimensional codomain at i = 5 on the 22nd tuple.
    path = tmp_path / "q6.alg"
    path.write_text(algfile.serialize_algebra(filiform_q(6)))
    code, out, _ = run(capsys, ["psi", "--file", str(path), "--i", "5", "--format", "machine"])
    assert code == EXIT_OK
    assert out == (
        "{\n"
        f'  "algebra": {json.dumps(str(path))},\n'
        '  "command": "psi",\n'
        '  "dim": 2,\n'
        '  "exact": true,\n'
        '  "format": "liemult-report-v1",\n'
        '  "i": 5,\n'
        '  "mode": "exact",\n'
        '  "tuples_examined": 22\n'
        "}\n"
    )


def test_report_round_trips_as_json(capsys):
    code, out, _ = run(capsys, ["report", "--family", "filiform", "--max-dim", "5",
                                "--format", "machine"])
    assert code == EXIT_OK
    doc = json.loads(out)
    assert json.loads(json.dumps(doc)) == doc


def test_resource_guard_exits_3(tmp_path, capsys):
    lines = ["lie-algebra v1", "field Q", "dim 65"]
    path = tmp_path / "huge.alg"
    path.write_text("\n".join(lines) + "\n")
    code, _, err = run(capsys, ["multiplier", "--file", str(path)])
    assert code == EXIT_RESOURCE
    assert "guard" in err


def test_resource_guard_answers_before_the_nilpotency_test(tmp_path, capsys):
    # [x1, x2] = x2 makes the algebra non-nilpotent; the guard still decides.
    path = tmp_path / "huge.alg"
    path.write_text("lie-algebra v1\nfield Q\ndim 65\nbracket 1 2 2 1\n")
    code, out, err = run(capsys, ["multiplier", "--file", str(path)])
    assert code == EXIT_RESOURCE and out == ""
    assert err == "resource guard: dimension 65 exceeds the homology guard (64)\n"


@pytest.mark.parametrize("field,row", [
    (QQ, ["7", "3", "4", "(holds)", "5", "(holds)"]),
    (PrimeField(7), ["7", "4", "4", "(attained)", "5", "(holds)"]),
    (PrimeField(5), ["7", "3", "not-applicable", "not-applicable", "6", "(holds)"]),
], ids=["Q", "GF7", "GF5"])
def test_witt_bound_table(tmp_path, capsys, field, row):
    # W7 is of maximal class over Q and GF(7), but its multiplier grows by one
    # over GF(7), where it attains the main bound; over GF(5) it is not of
    # maximal class, so neither maximal-class bound applies.
    path = tmp_path / "witt-7.alg"
    path.write_text(algfile.serialize_algebra(truncated_witt(7, field)))
    code, out, _ = run(capsys, ["verify-bound", "--file", str(path)])
    assert code == EXIT_OK
    assert out.splitlines()[2].split()[1:7] == row


def test_large_prime_field_answers_at_once(capsys):
    # p = 2^61 - 1 is proven prime without dividing up to its square root.
    code, out, _ = run(capsys, ["multiplier", "--name", "filiform-7",
                                "--field", "GF(2305843009213693951)"])
    assert code == EXIT_OK
    assert out.strip() == "4"


@pytest.mark.parametrize("spec", ["--field", "--file"])
def test_modulus_past_the_proven_primality_bound_exits_3(tmp_path, capsys, spec):
    # ψ₁₃ passes the strong test to all 13 bases, yet is composite.
    field = "GF(3317044064679887385961981)"
    if spec == "--field":
        argv = ["multiplier", "--name", "filiform-7", "--field", field]
    else:
        path = tmp_path / "psi13.alg"
        path.write_text(f"lie-algebra v1\nfield {field}\ndim 3\nbracket 1 2 3 1\n")
        argv = ["check", "--file", str(path)]
    code, out, err = run(capsys, argv)
    assert code == EXIT_RESOURCE
    assert out == "" and err.startswith("resource guard:")


# Decimal tokens one digit past the 4,300 that int() converts by default.
LONG_ONES, LONG_SEVENS = "1" * 4301, "7" * 4301


@pytest.mark.parametrize("text,argv,code,message", [
    (f"field Q\ndim 3\nbracket 1 2 3 {LONG_ONES}\n", None, EXIT_RESOURCE,
     "resource guard: line 4: literal of 4301 characters"),
    (f"field Q\ndim 3\nbracket 1 2 3 1/{LONG_ONES}\n", None, EXIT_RESOURCE,
     "resource guard: line 4: literal of 4303 characters"),
    (f"field GF(7)\ndim 3\nbracket 1 2 3 {LONG_ONES}\n", None, EXIT_RESOURCE,
     "resource guard: line 4: literal of 4301 characters"),
    (f"field Q\ndim 3\nlabel {LONG_ONES} a\n", None, EXIT_INPUT,
     "error: line 4: label index of 4301 digits out of range [1, 3]"),
    (f"field GF({LONG_SEVENS})\ndim 3\n", None, EXIT_RESOURCE,
     "resource guard: line 2: modulus of 4301 characters"),
    (None, ["multiplier", "--name", "filiform-5", "--field", f"GF({LONG_SEVENS})"],
     EXIT_RESOURCE, "resource guard: modulus of 4301 characters"),
], ids=["Q-coefficient", "Q-denominator", "GF7-coefficient", "label", "field-line",
        "field-option"])
def test_oversized_decimal_tokens_are_refused_without_a_traceback(
        tmp_path, capsys, text, argv, code, message):
    if argv is None:
        path = tmp_path / "long.alg"
        path.write_text("lie-algebra v1\n" + text)
        argv = ["check", "--file", str(path)]
    got, out, err = run(capsys, argv)
    assert got == code and out == ""
    assert err.startswith(message) and "Traceback" not in err


def test_fabricated_violation_drives_exit_2():
    # The exit-code contract is tested against a forged report: a fake
    # multiplier dimension larger than the quadratic bound.
    forged = BoundReport(
        algebra_id="forged",
        field_desc="Q",
        n=4,
        dim_derived=2,
        nilpotency_class=3,
        is_maximal_class=True,
        dim_multiplier=99,
        series_dims=(4, 2, 1, 0),
        bounds={"moneyhun": (6, VIOLATED)},
    )
    assert forged.has_violation
    assert _dicts_to_reports_exit([forged.to_dict()]) == EXIT_VIOLATION


def test_sweep_and_sparse_multiplier_make_no_basis_change(tmp_path, capsys, monkeypatch):
    # The filiform sweep parses no file, and it and the multiplier of
    # catalog filiform-24 read every algebra in a basis adapted to its
    # series: the basis-change kernel and its inverse never run on them.
    # A dense input, the control, does run them.
    calls = {"parse_algebra": [], "_table_in_basis": [], "inverse_rows": []}

    def counted(name, function):
        def wrapper(*args, **kwargs):
            calls[name].append(args[0].n if name == "_table_in_basis" else None)
            return function(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(algfile, "parse_algebra", counted("parse_algebra", algfile.parse_algebra))
    monkeypatch.setattr(LieAlgebra, "_table_in_basis",
                        counted("_table_in_basis", LieAlgebra._table_in_basis))
    inverse = counted("inverse_rows", linalg.inverse_rows)
    monkeypatch.setattr(linalg, "inverse_rows", inverse)
    monkeypatch.setattr(algebra, "inverse_rows", inverse)
    for spec, field in (("Q", QQ), ("GF(2147483647)", PrimeField(2147483647))):
        argv = ["report", "--family", "filiform", "--max-dim", "14", "--format", "machine",
                "--jobs", "1", "--field", spec]
        assert run(capsys, argv)[0] == EXIT_OK
        assert calls == {"parse_algebra": [], "_table_in_basis": [], "inverse_rows": []}
        path = tmp_path / f"filiform-24-{field.tag}.alg"
        path.write_text(algfile.serialize_algebra(standard_filiform(24, field=field)))
        code, out, _ = run(capsys, ["multiplier", "--file", str(path), "--format", "machine"])
        assert (code, json.loads(out)["dim_multiplier"]) == (EXIT_OK, 12)
        assert len(calls["parse_algebra"]) == 1
        assert calls["_table_in_basis"] == calls["inverse_rows"] == []
        calls["parse_algebra"].clear()
    dense = standard_filiform(6).change_basis(random_unimodular(random.Random(6), 6))
    path = tmp_path / "dense-6.alg"
    path.write_text(algfile.serialize_algebra(dense))
    for seen in calls.values():
        seen.clear()
    assert run(capsys, ["multiplier", "--file", str(path)])[0] == EXIT_OK
    assert calls["parse_algebra"] == [None] and calls["_table_in_basis"] == [6]
    assert calls["inverse_rows"]


@pytest.mark.parametrize("command", ["check", "multiplier"])
def test_declared_dim_is_refused_before_anything_is_sized_by_it(command, tmp_path, capsys):
    path = tmp_path / "huge.alg"
    path.write_text("lie-algebra v1\nfield Q\ndim 1000000000\n")
    tracemalloc.start()
    try:
        code, out, err = run(capsys, [command, "--file", str(path)])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (code, out) == (EXIT_RESOURCE, "")
    assert err == ("resource guard: line 3: dim 1000000000 exceeds the construction guard "
                   "(1024)\n")
    assert peak < 1 << 20, peak


def test_out_file_writing(tmp_path, capsys):
    path = tmp_path / "mult.txt"
    code = main(["multiplier", "--name", "L(3,4,1,4)", "--out", str(path)])
    capsys.readouterr()
    assert code == EXIT_OK
    assert path.read_text().strip() == "2"


def test_family_sweep_with_jobs(capsys):
    code, out, _ = run(capsys, ["verify-bound", "--family", "filiform",
                                "--max-dim", "6", "--jobs", "2"])
    assert code == EXIT_OK
    assert "filiform-6" in out


def test_report_over_gf7_is_the_same_with_one_or_two_jobs(monkeypatch, capsys):
    # Two CPUs as seen by the sweep, so --jobs 2 sends the field to workers.
    monkeypatch.setattr(cli.os, "cpu_count", lambda: 2)
    outputs = []
    for jobs in ("1", "2"):
        code, out, _ = run(capsys, ["report", "--field", "GF(7)", "--max-dim", "7",
                                    "--format", "machine", "--jobs", jobs])
        assert code == EXIT_OK
        outputs.append(out)
    assert outputs[0] == outputs[1]
    assert json.loads(outputs[0])["field"] == "GF(7)"


@pytest.mark.parametrize("jobs,max_dim,cpus,workers", [
    (8, 5, 16, 3),     # clamped to the 3 dimensions 3..5
    (8, 8, 2, 2),      # clamped to the CPU count
    (2, 8, 16, 2),     # as asked
    (1, 8, 16, None),  # serial: no pool
])
def test_sweep_jobs_are_clamped(monkeypatch, capsys, jobs, max_dim, cpus, workers):
    created = []

    class RecordingPool:
        def __init__(self, max_workers):
            created.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            return map(fn, items)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
    monkeypatch.setattr(cli.os, "cpu_count", lambda: cpus)
    code, out, _ = run(capsys, ["verify-bound", "--family", "filiform",
                                "--max-dim", str(max_dim), "--jobs", str(jobs)])
    assert code == EXIT_OK
    assert f"filiform-{max_dim}" in out
    assert created == ([] if workers is None else [workers])


def test_importing_the_cli_leaves_the_process_pool_unloaded():
    src = str(Path(cli.__file__).resolve().parents[1])
    probe = ("import sys, liemult.cli; "
             "print(sorted({'concurrent', 'multiprocessing'} & set(sys.modules)))")
    done = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": src}, check=True)
    assert done.stdout.strip() == "[]"


def test_importing_the_cli_loads_no_dataclasses_inspect_or_difflib():
    # -I -S: no site, no PYTHONPATH, so nothing preloads what liemult does not import.
    src = str(Path(cli.__file__).resolve().parents[1])
    probe = ("import sys; sys.path.insert(0, sys.argv[1]); import liemult.cli; "
             "print(sorted({'dataclasses', 'inspect', 'difflib'} & set(sys.modules)))")
    done = subprocess.run([sys.executable, "-I", "-S", "-c", probe, src],
                          capture_output=True, text=True, check=True)
    assert done.stdout.strip() == "[]"


def test_the_package_exports_only_what_a_command_or_the_benchmark_reads():
    assert liemult.__all__ == [
        "LieAlgebra", "QuotientPresentation", "SeriesChain", "Subspace", "build",
        "BoundReport", "bound_report", "derived_subalgebra_bound", "main_theorem_bound",
        "moneyhun_bound", "verify_central_quotient_bound", "verify_main_theorem",
        "CatalogEntry", "abelian", "entries", "get", "names",
        "standard_filiform", "LieError", "QQ", "PrimeField", "parse_field_spec",
        "BoundaryPair", "boundary_matrices", "multiplier_dim", "Matrix",
        "RowSpan", "PsiImage", "free_defect", "normed_bracket", "psi_image_dim",
        "psi_image_dims", "__version__",
    ]
    assert all(hasattr(liemult, name) for name in liemult.__all__)


def test_matrix_keeps_only_what_a_caller_reads():
    # Echelon forms, kernels and membership are read off a RowSpan.
    m = linalg.Matrix(QQ, [[1, 2]])
    assert sorted(name for name in dir(m) if not name.startswith("_")) == [
        "field", "ncols", "nrows", "rank", "row", "rows", "shape",
    ]


README = Path(__file__).resolve().parents[1] / "README.md"


def _readme_block(heading: str, fence: str) -> list[str]:
    """The lines of the first ``fence`` code block after ``heading`` in README.md."""
    text = README.read_text(encoding="utf-8")
    start = text.index(fence + "\n", text.index(heading)) + len(fence) + 1
    return text[start:text.index("\n```", start)].splitlines()


def test_readme_library_snippet_runs_as_written():
    namespace, checked = {}, 0
    for line in _readme_block("## Library surface", "```python"):
        code, _, comment = line.partition("# ")
        try:
            expression = compile(code.strip(), "README.md", "eval")
        except SyntaxError:
            exec(code, namespace)
            continue
        assert eval(expression, namespace) == ast.literal_eval(comment.strip()), line
        checked += 1
    assert checked == 2


def test_readme_command_lines_print_what_they_say(capsys):
    lines = [line for line in _readme_block("## Command line", "```") if "# -> " in line]
    assert len(lines) == 2
    for line in lines:
        command, _, expected = line.partition("# -> ")
        argv = shlex.split(command)
        assert argv[0] == "liemult", line
        assert run(capsys, argv[1:]) == (EXIT_OK, expected.strip() + "\n", ""), line


@pytest.mark.parametrize("degree", ["1000000000", "400", "16"], ids=["1e9", "400", "16"])
def test_lemma_test_refuses_costly_degrees_before_building_a_tuple(capsys, monkeypatch, degree):
    # Degree 16 expands 17·2^16 monomials, past the limit of 2^20; 2^(10⁹)
    # alone would be a 125 MB integer.  Nothing may be expanded.
    monkeypatch.setattr(words, "_inner_word", lambda *a: pytest.fail("expansion entered"))
    tracemalloc.start()
    try:
        start = time.perf_counter()
        code, out, err = run(capsys, ["lemma-test", "--i", degree])
        elapsed = time.perf_counter() - start
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (code, out) == (EXIT_RESOURCE, "")
    assert err == (f"resource guard: the free expansion at degree {degree} needs (i + 1)·2^i "
                   "monomials, over the limit of 1048576 (degrees up to 15)\n")
    assert elapsed < 1 and peak < 1 << 20, (elapsed, peak)


@pytest.mark.parametrize("argv", [
    ["report", "--family", "filiform", "--max-dim", "0"],
    ["verify-bound", "--family", "abelian", "--min-dim", "5", "--max-dim", "4"],
], ids=["report", "verify-bound"])
def test_family_range_without_an_algebra_is_a_usage_error(capsys, argv):
    code, out, err = run(capsys, argv)
    assert code == EXIT_INPUT
    assert out == "" and "select no" in err


def test_jobs_below_one_is_a_usage_error(capsys):
    code, out, err = run(capsys, ["report", "--max-dim", "5", "--jobs", "-3"])
    assert code == EXIT_INPUT
    assert out == "" and "--jobs: must be at least 1" in err


@pytest.mark.parametrize("argv,reason", [
    (["report", "--name", "heisenberg-3", "--max-dim", "4"], "unrecognized arguments"),
    (["report", "--file", "{file}", "--max-dim", "4"], "unrecognized arguments"),
    (["report", "--family", "filiform", "--name", "filiform-6"], "unrecognized arguments"),
    (["verify-bound", "--family", "filiform", "--name", "filiform-6"], "not allowed with"),
    (["verify-bound", "--family", "filiform", "--file", "{file}"], "not allowed with"),
    (["verify-bound", "--name", "filiform-6", "--family", "abelian"], "not allowed with"),
    (["verify-bound", "--file", "{file}", "--name", "filiform-6"], "not allowed with"),
    *[([command, "--file", "{file}", "--name", "filiform-6", *extra], "not allowed with")
      for command, extra in (("check", []), ("series", []), ("multiplier", []),
                             ("psi", ["--i", "2"]), ("verify-thm13", []))],
])
def test_more_than_one_input_source_is_a_usage_error(capsys, tmp_path, argv, reason):
    # The file exists and holds a valid algebra, so only the combination is at fault.
    path = tmp_path / "filiform-5.alg"
    path.write_text(algfile.serialize_algebra(standard_filiform(5)))
    code, out, err = run(capsys, [str(path) if a == "{file}" else a for a in argv])
    assert (code, out) == (EXIT_INPUT, "")
    assert reason in err


@pytest.mark.parametrize("argv,option,source", [
    *[([command, "--file", "{file}", "--field", "GF(7)", *extra], "--field", "--file")
      for command, extra in (("check", []), ("series", []), ("multiplier", []),
                             ("psi", ["--i", "2"]), ("verify-bound", []), ("verify-thm13", []))],
    *[(["verify-bound", source, value, option, number], option, source)
      for source, value in (("--file", "{file}"), ("--name", "filiform-6"))
      for option, number in (("--min-dim", "4"), ("--max-dim", "9"), ("--jobs", "2"))],
    (["verify-bound", "--name", "filiform-6", "--min-dim", "9", "--max-dim", "3"],
     "--min-dim", "--name"),
    # Without --field, only a file names a field that --unsafe-char-2 could
    # admit GF(2) for; report is always a family sweep.
    *[([command, "--name", "filiform-7", "--unsafe-char-2", *extra], "--unsafe-char-2", "--name")
      for command, extra in (("check", []), ("series", []), ("multiplier", []),
                             ("psi", ["--i", "2"]), ("verify-bound", []), ("verify-thm13", []))],
    (["verify-bound", "--family", "abelian", "--unsafe-char-2"], "--unsafe-char-2", "--family"),
    (["report", "--unsafe-char-2"], "--unsafe-char-2", "--family"),
    (["report", "--family", "filiform", "--max-dim", "5", "--unsafe-char-2"],
     "--unsafe-char-2", "--family"),
])
def test_an_option_the_input_source_does_not_read_is_a_usage_error(capsys, tmp_path, argv,
                                                                    option, source):
    # The file exists and holds a valid algebra, so only the option is at fault.
    path = tmp_path / "filiform-5.alg"
    path.write_text(algfile.serialize_algebra(standard_filiform(5)))
    code, out, err = run(capsys, [str(path) if a == "{file}" else a for a in argv])
    assert (code, out) == (EXIT_INPUT, "")
    assert err.splitlines()[-1].endswith(f"argument {option}: not allowed with argument {source}")


def test_unsafe_char_2_is_read_with_field_and_name(capsys):
    argv = ["multiplier", "--name", "filiform-7", "--field", "GF(2)"]
    assert run(capsys, [*argv, "--unsafe-char-2"])[:2] == (EXIT_OK, "4\n")
    code, out, err = run(capsys, argv)
    assert (code, out) == (EXIT_INPUT, "") and "unsafe-char-2" in err


@pytest.mark.parametrize("jobs", ["1", "2"])
@pytest.mark.parametrize("family", ["filiform", "abelian"])
@pytest.mark.parametrize("command", ["report", "verify-bound"])
def test_a_sweep_past_the_homology_guard_is_refused_before_any_dimension(
        monkeypatch, capsys, command, family, jobs):
    monkeypatch.setattr(homology, "MAX_HOMOLOGY_DIM", 12)
    monkeypatch.setattr(cli.bounds, "bound_report",
                        lambda *a, **k: pytest.fail("a dimension was computed"))
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor",
                        lambda *a, **k: pytest.fail("a worker pool was started"))
    monkeypatch.setattr(cli.os, "cpu_count", lambda: 2)
    code, out, err = run(capsys, [command, "--family", family, "--max-dim", "13", "--jobs", jobs])
    assert (code, out) == (EXIT_RESOURCE, "")
    assert err == "resource guard: dimension 13 exceeds the homology guard (12)\n"


@pytest.mark.parametrize("jobs", ["1", "2"])
def test_a_report_past_the_central_ideal_guard_is_refused_before_any_dimension(
        monkeypatch, capsys, jobs):
    # abelian-17 is its own 17-dimensional center; the sweep would otherwise
    # compute every report below it before central_ideals refused it.
    monkeypatch.setattr(cli.bounds, "bound_report",
                        lambda *a, **k: pytest.fail("a dimension was computed"))
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor",
                        lambda *a, **k: pytest.fail("a worker pool was started"))
    monkeypatch.setattr(cli.os, "cpu_count", lambda: 2)
    code, out, err = run(capsys, ["report", "--family", "abelian", "--max-dim", "17", "--jobs", jobs])
    assert (code, out) == (EXIT_RESOURCE, "")
    assert err == ("resource guard: the center is 17-dimensional; "
                   "enumerating 2^17 central ideals is refused\n")


PINNED_COMMANDS = ("check", "series", "multiplier", "verify-bound", "verify-thm13")


def _pinned_digest(capsys, source, path=None) -> str:
    """sha256 over the exit code and machine output of each pinned command
    on one input, with the input file's path written as {file}."""
    digest = hashlib.sha256()
    for command in PINNED_COMMANDS:
        code, out, _ = run(capsys, [command, *source, "--format", "machine"])
        if path is not None:
            out = out.replace(str(path), "{file}")
        digest.update(f"{command} {code}\n{out}".encode())
    return digest.hexdigest()


# Pinned on the code that still built the center on a dense field-scalar
# matrix and rebuilt --name algebras through field scalars.
DENSE_PINS = {
    ("filiform-4+filiform-4", "Q"): "14b8d0397bf97837fd6c2d29f9a127739b0834eca8f86ab3390df2b7cc053982",
    ("filiform-4+filiform-4", "GF7"): "0c342899c8dd1cfadc54cf2fd8ebb8a27c68a354a52419cc0c6425d6ddebdda7",
    ("heisenberg+abelian-2", "Q"): "570473b4a62d1db9653944f10c9d56e95068a39be74d425162e2e85688f23b7c",
    ("heisenberg+abelian-2", "GF7"): "0dd31518d1cd6e01961d9e31e7ac7c90b3431905e5d6ea6c41d006086434c00f",
}
NAME_PINS = {
    ("heisenberg-3", "GF(7)"): "a2a47ec4d4fd37c7ed110e5033df656c4dfecfdfabe3ef0ab37dd0753f8f89b6",
    ("heisenberg-3", "GF(2147483647)"): "52220c98d0570465ccd2503afcf60d8611d6c2c60e5ad4ddad898f79d4f03fcc",
    ("L(3,4,1,4)", "GF(7)"): "9ba4f7d029b0a8522d05efb47e55fa9a73c06f12db45e8e3f00ce4cc6b25feb5",
    ("L(3,4,1,4)", "GF(2147483647)"): "4416be9ead8efa0a11151478659a1ad9b5428476638b807a26b1a3599f768d41",
    ("L(7,5,1,7)", "GF(7)"): "1baa6b91e79ad091f0bd2809aa7e5fa03a19e5e303d9619f21a4d022ae390017",
    ("L(7,5,1,7)", "GF(2147483647)"): "a5c2f3def046e2aea5f09837188a7eb524400776664a7ffcc8a8a8f742591c3f",
    ("filiform-6", "GF(7)"): "c9aae08aa6c28b4d144fcf507ae6a8a0843802d9c5d497242308e14aec8c7c86",
    ("filiform-6", "GF(2147483647)"): "2375a490ca316f9ae4a44bb98499cc263d0410a4d59d5b45af6cf7fb32bfb585",
    ("filiform-7", "GF(7)"): "57dd785f6920c5e1ed4f7c8132b5c22abcd3195ef87300e3e815c3cc576f6efd",
    ("filiform-7", "GF(2147483647)"): "036faef182ff7a26f27e88acd9102e9ee225c53a6f14a7e916540573062d723a",
    ("abelian-2", "GF(7)"): "d8674aae214f122d6907864db6a4a8c24fe533a88246727510e9c4b3d692fcd0",
    ("abelian-2", "GF(2147483647)"): "e0a7e9e465252c3b33c5e5f324b32594f902f5f511615c53f7b9c4fb93ff0238",
    ("abelian-3", "GF(7)"): "c952bb84ede129d9d6c000ed166383f18c429f2d978e59095c66eeaa1b646288",
    ("abelian-3", "GF(2147483647)"): "f2c159d32732de04b35331638c39eea0189ffcba3753cc899916d983709bb184",
}


@pytest.mark.parametrize("field,tag", [(QQ, "Q"), (PrimeField(7), "GF7")], ids=["Q", "GF7"])
@pytest.mark.parametrize("kind", ["filiform-4+filiform-4", "heisenberg+abelian-2"])
def test_commands_on_dense_input_below_maximal_class_match_their_pins(capsys, tmp_path, kind,
                                                                       field, tag):
    # Class below n - 1, so the center is computed as a kernel, in a seeded dense basis.
    if kind.startswith("filiform"):
        L = filiform_square(4, field)
    else:
        L = build(5, [(1, 2, 3, 1)], field=field)
    L = L.change_basis(random_unimodular(random.Random(L.n), L.n, field))
    path = tmp_path / "dense.alg"
    path.write_text(algfile.serialize_algebra(L))
    assert _pinned_digest(capsys, ["--file", str(path)], path) == DENSE_PINS[(kind, tag)]


@pytest.mark.parametrize("field", ["GF(7)", "GF(2147483647)"])
@pytest.mark.parametrize("name", catalog.names())
def test_commands_on_a_catalog_name_over_a_prime_field_match_their_pins(capsys, name, field):
    assert _pinned_digest(capsys, ["--name", name, "--field", field]) == NAME_PINS[(name, field)]


def test_gf_field_flag(capsys):
    code, out, _ = run(capsys, ["multiplier", "--name", "L(3,4,1,4)", "--field", "GF(3)"])
    assert code == EXIT_OK
    assert out.strip() == "2"
