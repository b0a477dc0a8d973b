import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import entry_algebra, field_scalars_held, parse_algebra_oracle, random_unimodular
from liemult.algebra import build
from liemult.algfile import MAX_FILE_DIM, parse_algebra, serialize_algebra
from liemult.catalog import entries, standard_filiform
from liemult.errors import (
    AlgebraFileError,
    BadLabel,
    DuplicateBracket,
    FieldSpecError,
    JacobiViolation,
    LieError,
    ResourceLimit,
)
from liemult.fields import QQ, PrimeField, parse_field_spec
from liemult.linalg import Matrix

EXAMPLE_N4 = """\
lie-algebra v1
field Q
dim 4
bracket 1 2 3 1
bracket 1 3 4 1
"""


def test_parse_the_n4_filiform_file():
    L = parse_algebra(EXAMPLE_N4)
    assert L.structure_constants() == standard_filiform(4).structure_constants()


def test_parse_with_comments_blank_lines_and_labels():
    text = """
# a comment
lie-algebra v1

field Q          # trailing comment
dim 3
label 3 z
bracket 1 2 3 1/2
"""
    L = parse_algebra(text)
    assert L.labels == ("x1", "x2", "z")
    (i, j, k, c) = L.structure_constants()[0]
    assert (i, j, k) == (1, 2, 3) and c.numerator == 1 and c.denominator == 2


def test_round_trip_catalog():
    for entry in entries():
        L = entry_algebra(entry)
        text = serialize_algebra(L)
        again = parse_algebra(text)
        assert again.structure_constants() == L.structure_constants()
        assert again.n == L.n and again.field == L.field


def test_serialize_deterministic():
    L = standard_filiform(6)
    assert serialize_algebra(L) == serialize_algebra(standard_filiform(6))


def test_round_trip_over_prime_field():
    L = standard_filiform(4, field=PrimeField(7))
    again = parse_algebra(serialize_algebra(L))
    assert again.field == PrimeField(7)
    assert again.structure_constants() == L.structure_constants()


# Each of these once serialized to a file that its parser misread: "c#d"
# came back as "c", the whitespace ones and "" failed with "label directive
# is: label INDEX NAME", and the int came back as a str.
BAD_LABELS = ["c#d", "#", "b c", "b\tc", "b\nc", "b\u2028c", "", " ", 3, None]


@pytest.mark.parametrize("label", BAD_LABELS, ids=repr)
def test_a_label_the_file_format_cannot_carry_is_refused(label):
    with pytest.raises(BadLabel, match="^label 2 is ") as exc:
        build(3, [(1, 2, 3, 1)], labels=["a", label, "c"])
    assert isinstance(exc.value, LieError)
    with pytest.raises(BadLabel, match="^label 3 is "):
        build(3, [(1, 2, 3, 1)], labels=["a", "b", label])


GOOD_LABELS = ["a", "x_1", "x1", "x4", "e[1,2]", "α₁", "-1", "1/2", "label", "bracket",
               "lie-algebra", "x" * 200]


def test_every_accepted_label_survives_the_round_trip():
    for field in (QQ, PrimeField(7)):
        for window in range(len(GOOD_LABELS) - 2):
            labels = GOOD_LABELS[window:window + 3]
            L = build(3, [(1, 2, 3, 1)], field=field, labels=labels)
            again = parse_algebra(serialize_algebra(L))
            assert again.labels == L.labels == tuple(labels)
            assert again == L


DENSE_13_FIELDS = [QQ, PrimeField(2**31 - 1)]


def _dense_filiform_13(field, scaled):
    p = random_unimodular(random.Random(13), 13, field)
    if scaled:
        # The rows scaled as in ``test_change_basis_and_rewrite_match_their_pins``:
        # over Q the table has denominators, so its scale must be canonical.
        scales = [field.element(2), field.one / field.element(3), -field.one, field.element(5)]
        p = Matrix(field, [[scales[i % 4] * x for x in row] for i, row in enumerate(p.rows())])
    return standard_filiform(13, field=field).change_basis(p)


def _no_field_scalar_table(L):
    assert L._adapted is not None
    return not field_scalars_held(L)


@pytest.mark.parametrize("scaled", [False, True], ids=["unimodular", "scaled"])
@pytest.mark.parametrize("field", DENSE_13_FIELDS, ids=["Q", "GF(2^31-1)"])
def test_dense_construction_builds_no_field_scalar(field, scaled):
    L = _dense_filiform_13(field, scaled)
    assert _no_field_scalar_table(L)
    text = serialize_algebra(L)
    assert _no_field_scalar_table(L)
    parsed = parse_algebra(text)
    assert _no_field_scalar_table(parsed)
    assert parsed == L and parsed._scale == L._scale
    assert field.characteristic or (L._scale > 1) == scaled
    built = build(13, L.structure_constants(), field=field)
    assert _no_field_scalar_table(built)
    assert built == L and built._scale == L._scale
    assert serialize_algebra(built) == serialize_algebra(parsed) == text


def _text_from_field_scalars(L) -> str:
    """The file of L written from ``structure_constants()``, each constant
    as ``str`` writes its field scalar."""
    lines = ["lie-algebra v1", f"field {L.field}", f"dim {L.n}"]
    lines += [f"label {idx} {name}" for idx, name in enumerate(L.labels, start=1)
              if name != f"x{idx}"]
    lines += [f"bracket {i} {j} {k} {c}" for i, j, k, c in L.structure_constants()]
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("field", [QQ, PrimeField(7), PrimeField(2**31 - 1)],
                         ids=["Q", "GF7", "GF(2^31-1)"])
def test_serializer_writes_each_constant_as_its_field_scalar(field):
    # Rational rows with both signs and denominators that share factors with
    # the scale, and over GF(p) residues that the integer rows hold as is.
    rng = random.Random(17)
    for scaled in (False, True):
        L = _dense_filiform_13(field, scaled)
        q = L.quotient(L.center()).quotient
        for algebra in (L, q, build(3, [(1, 2, 3, field.one / field.element(6))], field=field,
                                    labels=["a", "x2", "x1"])):
            assert serialize_algebra(algebra) == _text_from_field_scalars(algebra)
    if field == QQ:
        values = [Fraction(rng.randint(-40, 40), rng.choice((1, 2, 4, 6, 9, 12)))
                  for _ in range(3)]
        L = build(4, [(1, 2, 3, values[0]), (1, 2, 4, values[1]), (1, 3, 4, values[2])])
        assert serialize_algebra(L) == _text_from_field_scalars(L)


def test_missing_header():
    with pytest.raises(AlgebraFileError):
        parse_algebra("field Q\ndim 2\n")


def test_unsupported_version():
    with pytest.raises(AlgebraFileError) as exc:
        parse_algebra("lie-algebra v9\nfield Q\ndim 2\n")
    assert "version" in str(exc.value)


def test_rational_literal_in_prime_field():
    text = "lie-algebra v1\nfield GF(7)\ndim 3\nbracket 1 2 3 1/2\n"
    with pytest.raises(AlgebraFileError) as exc:
        parse_algebra(text)
    assert "line 4" in str(exc.value)
    assert "rational literal" in str(exc.value)


def test_duplicate_bracket_key():
    text = "lie-algebra v1\nfield Q\ndim 3\nbracket 1 2 3 1\nbracket 1 2 3 2\n"
    with pytest.raises(DuplicateBracket) as exc:
        parse_algebra(text)
    assert "(1, 2, 3)" in str(exc.value)


def test_char_two_field_needs_override():
    text = "lie-algebra v1\nfield GF(2)\ndim 2\n"
    with pytest.raises(FieldSpecError):
        parse_algebra(text)
    L = parse_algebra(text, allow_char_two=True)
    assert L.field.characteristic == 2


def test_composite_modulus_rejected():
    with pytest.raises(FieldSpecError):
        parse_algebra("lie-algebra v1\nfield GF(9)\ndim 2\n")


def test_bad_indices_carry_line_numbers():
    with pytest.raises(AlgebraFileError) as exc:
        parse_algebra("lie-algebra v1\nfield Q\ndim 3\nbracket 2 1 3 1\n")
    assert "line 4" in str(exc.value)
    with pytest.raises(AlgebraFileError):
        parse_algebra("lie-algebra v1\nfield Q\ndim 3\nbracket 1 2 9 1\n")


def test_unknown_directive():
    with pytest.raises(AlgebraFileError):
        parse_algebra("lie-algebra v1\nfield Q\ndim 2\nfrobnicate 1\n")


def test_missing_field_or_dim():
    with pytest.raises(AlgebraFileError):
        parse_algebra("lie-algebra v1\ndim 2\n")
    with pytest.raises(AlgebraFileError):
        parse_algebra("lie-algebra v1\nfield Q\n")
    with pytest.raises(AlgebraFileError):
        parse_algebra("lie-algebra v1\nfield Q\nbracket 1 2 3 1\ndim 3\n")


def test_jacobi_violation_propagates():
    text = (
        "lie-algebra v1\nfield Q\ndim 3\n"
        "bracket 1 2 3 1\nbracket 1 3 3 1\nbracket 2 3 1 1\n"
    )
    with pytest.raises(JacobiViolation) as exc:
        parse_algebra(text)
    assert exc.value.triple == (1, 2, 3)


def test_zero_coefficients_normalized_away():
    text = "lie-algebra v1\nfield Q\ndim 3\nbracket 1 2 3 0\n"
    L = parse_algebra(text)
    assert not L._integer_table
    assert serialize_algebra(L) == "lie-algebra v1\nfield Q\ndim 3\n"


H = "lie-algebra v1\n"
# Bracket lines out of key order.  The Jacobi check walks the keys in file
# order, so this file names (2, 3, 4), where its sorted form names (1, 2, 3).
UNSORTED_JACOBI = H + "field Q\ndim 4\nbracket 3 4 2 2\nbracket 1 3 4 2\nbracket 2 4 1 2\n"
# (text, exception type, full message, its ``line`` attribute) for every
# malformed-file case: parse errors must keep their wording and line numbers.
MALFORMED = {
    "missing-header": (
        "field Q\ndim 2\n", AlgebraFileError,
        "line 1: missing header line 'lie-algebra v1'", 1),
    "unsupported-version": (
        "lie-algebra v9\nfield Q\ndim 2\n", AlgebraFileError,
        "line 1: unsupported format version 'lie-algebra v9' (expected 'lie-algebra v1')", 1),
    "empty-file": (
        "# only a comment\n\n", AlgebraFileError,
        "empty file; expected header 'lie-algebra v1'", None),
    "missing-field": (
        H + "dim 2\n", AlgebraFileError, "missing field directive", None),
    "missing-dim": (
        H + "field Q\n", AlgebraFileError, "missing dim directive", None),
    "duplicate-field": (
        H + "field Q\nfield Q\ndim 2\n", AlgebraFileError,
        "line 3: duplicate field directive", 3),
    "field-arity": (
        H + "field Q GF(7)\ndim 2\n", AlgebraFileError,
        "line 2: field directive takes exactly one argument", 2),
    "unknown-field": (
        H + "field R\ndim 2\n", FieldSpecError,
        "line 2: unrecognized field spec 'R' (use Q or GF(p))", None),
    "char-two": (
        H + "field GF(2)\ndim 2\n", FieldSpecError,
        "line 2: characteristic 2 requires the explicit unsafe-char-2 override", None),
    "composite-modulus": (
        H + "field GF(9)\ndim 2\n", FieldSpecError, "line 2: modulus 9 is not prime", None),
    "duplicate-dim": (
        H + "field Q\ndim 2\ndim 3\n", AlgebraFileError, "line 4: duplicate dim directive", 4),
    "negative-dim": (
        H + "field Q\ndim -1\n", AlgebraFileError,
        "line 3: dim directive takes one nonnegative integer", 3),
    "superscript-dim": (
        H + "field Q\ndim ²\n", AlgebraFileError,
        "line 3: dim directive takes one nonnegative integer", 3),
    "label-before-dim": (
        H + "field Q\nlabel 1 a\ndim 2\n", AlgebraFileError,
        "line 3: label before dim directive", 3),
    "label-arity": (
        H + "field Q\ndim 2\nlabel 1\n", AlgebraFileError,
        "line 4: label directive is: label INDEX NAME", 4),
    "superscript-label": (
        H + "field Q\ndim 2\nlabel ² a\n", AlgebraFileError,
        "line 4: label directive is: label INDEX NAME", 4),
    "duplicate-label": (
        H + "field Q\ndim 3\nlabel 1 a\n# a\nlabel 01 b\n", AlgebraFileError,
        "line 6: duplicate label directive for index 1 (first seen on line 4)", 6),
    "label-out-of-range": (
        H + "field Q\ndim 2\nlabel 3 c\n", AlgebraFileError,
        "line 4: label index 3 out of range [1, 2]", 4),
    "bracket-before-dim": (
        H + "field Q\nbracket 1 2 3 1\ndim 3\n", AlgebraFileError,
        "line 3: bracket before field/dim directives", 3),
    "bracket-arity": (
        H + "field Q\ndim 3\nbracket 1 2 3\n", AlgebraFileError,
        "line 4: bracket directive is: bracket I J K COEFF", 4),
    "non-integer-index": (
        H + "field Q\ndim 3\nbracket 1 b 3 1\n", AlgebraFileError,
        "line 4: bracket indices must be integers", 4),
    "unordered-pair": (
        H + "field Q\ndim 3\nbracket 2 1 3 1\n", AlgebraFileError,
        "line 4: bracket indices (2, 1) must satisfy 1 <= i < j <= 3", 4),
    "equal-pair": (
        H + "field Q\ndim 3\nbracket 2 2 3 1\n", AlgebraFileError,
        "line 4: bracket indices (2, 2) must satisfy 1 <= i < j <= 3", 4),
    "pair-out-of-range": (
        H + "field Q\ndim 3\nbracket 1 4 3 1\n", AlgebraFileError,
        "line 4: bracket indices (1, 4) must satisfy 1 <= i < j <= 3", 4),
    "component-out-of-range": (
        H + "field Q\ndim 3\nbracket 1 2 9 1\n", AlgebraFileError,
        "line 4: component index 9 out of range [1, 3]", 4),
    "component-zero": (
        H + "field Q\ndim 3\nbracket 1 2 0 1\n", AlgebraFileError,
        "line 4: component index 0 out of range [1, 3]", 4),
    "duplicate-key": (
        H + "field Q\ndim 3\nbracket 1 2 3 1\n\nbracket 1 2 3 2\n", DuplicateBracket,
        "line 6: duplicate bracket key (1, 2, 3) (first seen on line 4)", None),
    "duplicate-zero-key": (
        H + "field Q\ndim 3\nbracket 1 2 3 0\nbracket 1 2 3 0\n", DuplicateBracket,
        "line 5: duplicate bracket key (1, 2, 3) (first seen on line 4)", None),
    "zero-denominator": (
        H + "field Q\ndim 3\nbracket 1 2 3 1/0\n", AlgebraFileError,
        "line 4: '1/0' has a zero denominator", 4),
    "decimal-literal": (
        H + "field Q\ndim 3\nbracket 1 2 3 1.5\n", AlgebraFileError,
        "line 4: '1.5' is not a rational literal (use p/q or an integer)", 4),
    "rational-over-gf7": (
        H + "field GF(7)\ndim 3\nbracket 1 2 3 1/2\n", AlgebraFileError,
        "line 4: rational literal '1/2' is not allowed over GF(7)", 4),
    "non-integer-over-gf7": (
        H + "field GF(7)\ndim 3\nbracket 1 2 3 x\n", AlgebraFileError,
        "line 4: 'x' is not an integer literal", 4),
    "unknown-directive": (
        H + "field Q\ndim 2\nfrobnicate 1\n", AlgebraFileError,
        "line 4: unknown directive 'frobnicate'", 4),
    "underscore-index": (
        H + "field Q\ndim 20\nbracket 1_0 2_0 3 1\n", AlgebraFileError,
        "line 4: bracket indices must be integers", 4),
    "signed-index": (
        H + "field Q\ndim 3\nbracket +1 2 3 1\n", AlgebraFileError,
        "line 4: bracket indices must be integers", 4),
    "negative-zero-component": (
        H + "field Q\ndim 3\nbracket 1 2 -0 1\n", AlgebraFileError,
        "line 4: bracket indices must be integers", 4),
    "underscore-coefficient": (
        H + "field Q\ndim 3\nbracket 1 2 3 1_0\n", AlgebraFileError,
        "line 4: '1_0' is not a rational literal (use p/q or an integer)", 4),
    "dim-over-guard": (
        H + "field Q\ndim 1000000000\n", ResourceLimit,
        "line 3: dim 1000000000 exceeds the construction guard (1024)", None),
    "duplicate-key-after-zero": (
        H + "field Q\ndim 3\nbracket 1 2 3 0\n# x\nbracket 1 2 3 5\n", DuplicateBracket,
        "line 6: duplicate bracket key (1, 2, 3) (first seen on line 4)", None),
    "duplicate-key-spelled-twice": (
        H + "field Q\ndim 3\nbracket 1 2 3 1\nbracket 01 2 ٣ 2\n", DuplicateBracket,
        "line 5: duplicate bracket key (1, 2, 3) (first seen on line 4)", None),
    "jacobi": (
        H + "field Q\ndim 3\nbracket 1 2 3 1\nbracket 1 3 3 1\nbracket 2 3 1 1\n",
        JacobiViolation,
        "Jacobi identity fails on basis triple (1, 2, 3); defect vector [1, 0, 0]", None),
    "jacobi-unsorted": (
        UNSORTED_JACOBI, JacobiViolation,
        "Jacobi identity fails on basis triple (2, 3, 4); defect vector [0, 0, 0, -4]", None),
}


@pytest.mark.parametrize("case", sorted(MALFORMED))
def test_malformed_file_errors_are_pinned(case):
    text, kind, message, line = MALFORMED[case]
    with pytest.raises(LieError) as exc:
        parse_algebra(text)
    assert type(exc.value) is kind
    assert str(exc.value) == message
    assert getattr(exc.value, "line", None) == line


def test_rational_literals_keep_their_value():
    text = H + "field Q\ndim 3\nbracket 1 2 3 -6/4\nbracket 1 3 3 +7\n"
    consts = parse_algebra(text).structure_constants()
    assert [c for *_, c in consts] == [Fraction(-3, 2), Fraction(7)]


def test_jacobi_report_of_sorted_lines_names_another_triple():
    head, body = UNSORTED_JACOBI.splitlines()[:3], UNSORTED_JACOBI.splitlines()[3:]
    with pytest.raises(JacobiViolation) as exc:
        parse_algebra("\n".join(head + sorted(body)) + "\n")
    assert str(exc.value) == (
        "Jacobi identity fails on basis triple (1, 2, 3); defect vector [4, 0, 0, 0]")


# (field, literals, the constants build is given for them, the scale D).
LITERAL_CASES = [
    ("Q", ["+5", "007", "-0", "0/5", "2/4", "-6/3", "1/3", "-5/10", "12"],
     [5, 7, 0, 0, Fraction(1, 2), -2, Fraction(1, 3), Fraction(-1, 2), 12], 6),
    ("Q", ["3", "-0/4", "+8/2", "007"], [3, 0, 4, 7], 1),
    ("GF(7)", ["+5", "007", "-0", "9", "-3", "14", "-15", "123456789"],
     [5, 7, 0, 9, -3, 14, -15, 123456789], 1),
]


@pytest.mark.parametrize("spec,literals,values,scale", LITERAL_CASES)
def test_literals_parse_to_the_constants_build_gives(spec, literals, values, scale):
    # x1, …, x4 bracket into the center <x5, x6>, so any constants satisfy Jacobi.
    field = parse_field_spec(spec)
    slots = [(i, j, k) for i, j in itertools.combinations(range(1, 5), 2) for k in (5, 6)]
    lines = "".join(f"bracket {i} {j} {k} {c}\n" for (i, j, k), c in zip(slots, literals))
    parsed = parse_algebra(H + f"field {spec}\ndim 6\n" + lines)
    built = build(6, [(i, j, k, v) for (i, j, k), v in zip(slots, values)], field=field)
    assert parsed.structure_constants() == built.structure_constants()
    assert parsed._scale == built._scale == scale
    assert serialize_algebra(parsed) == serialize_algebra(built)
    assert parsed == built and list(parsed._integer_table) == list(built._integer_table)


def test_decimal_index_spellings_name_the_same_basis_vectors():
    # Any token that passes str.isdecimal is an index, as for dim and label.
    spelled = parse_algebra(H + "field Q\ndim ٣\nlabel ٣ z\nbracket ١ 02 ٣ 1\n")
    plain = parse_algebra(H + "field Q\ndim 3\nlabel 3 z\nbracket 1 2 3 1\n")
    assert spelled == plain and spelled.labels == plain.labels == ("x1", "x2", "z")


def test_dim_guard_admits_its_bound_and_reads_leading_zeros():
    assert parse_algebra(H + f"field Q\ndim {MAX_FILE_DIM}\n").n == MAX_FILE_DIM
    assert parse_algebra(H + "field Q\ndim 0000000000000004\n").n == 4
    with pytest.raises(ResourceLimit, match=r"^line 3: dim 1025 exceeds"):
        parse_algebra(H + "field Q\ndim 1025\n")
    # More digits than int() converts by default: refused by its length.
    with pytest.raises(ResourceLimit, match=r"exceeds the construction guard \(1024\)$"):
        parse_algebra(H + "field Q\ndim " + "9" * 5000 + "\n")


def _dense_file(spec: str, seed: int) -> str:
    """Seeded dense filiform-6 as a file, with a label and a comment."""
    field = parse_field_spec(spec)
    L = standard_filiform(6, field=field).change_basis(random_unimodular(random.Random(seed), 6, field))
    lines = serialize_algebra(L).splitlines()
    return "\n".join(lines[:3] + ["label 2 y  # the second generator"] + lines[3:]) + "\n"


PARITY_BASES = [_dense_file(spec, seed) for spec in ("Q", "GF(7)") for seed in (1, 2)]
# Tokens a mutation writes in place of another: index and literal spellings
# that int() and the literal grammar read differently, and plain ones.
PARITY_TOKENS = ["1_0", "+1", "٣", "-0", "0", "007", "7", "x", "1/2", "2/0", "-3", "٢", ""]


@st.composite
def mutated_dense_files(draw):
    lines = draw(st.sampled_from(PARITY_BASES)).splitlines()
    for _ in range(draw(st.integers(0, 4))):
        op = draw(st.sampled_from(["token", "comment", "duplicate", "zero", "tabs", "blank", "drop"]))
        i = draw(st.integers(0, len(lines) - 1))
        tokens = lines[i].split("#", 1)[0].split()
        if op == "token" and tokens:
            tokens[draw(st.integers(0, len(tokens) - 1))] = draw(st.sampled_from(PARITY_TOKENS))
            lines[i] = " ".join(tokens)
        elif op == "comment":
            lines[i] += draw(st.sampled_from([" # note", "#", "\t# bracket 1 2 3 4"]))
        elif op == "duplicate":
            lines.insert(draw(st.integers(i + 1, len(lines))), lines[i])
        elif op == "zero" and tokens[:1] == ["bracket"] and len(tokens) == 5:
            zero = " ".join(tokens[:4] + [draw(st.sampled_from(["0", "-0", "0/3"]))])
            lines.insert(draw(st.integers(0, len(lines))), zero)
            lines.insert(draw(st.integers(0, len(lines))), zero)
        elif op == "tabs":
            lines[i] = "\t".join(tokens) + draw(st.sampled_from(["", " ", "\t"]))
        elif op == "blank":
            lines.insert(i, draw(st.sampled_from(["", "   ", "# a comment"])))
        elif op == "drop":
            del lines[i]
    newline = draw(st.sampled_from(["\n", "\r\n"]))
    return newline.join(lines) + newline


def _index_rule(text: str) -> str:
    """The file with every bracket index token that is not decimal digits
    replaced by "x": where int() and str.isdecimal disagree on an index
    ("+1", "-0", "1_0"), the index rule reads it as "x" is read by both."""
    out = []
    for raw in text.splitlines():
        tokens = raw.split("#", 1)[0].split()
        if len(tokens) == 5 and tokens[0] == "bracket":
            indices = [t if t.isdecimal() else "x" for t in tokens[1:4]]
            if indices != tokens[1:4]:
                raw = " ".join(["bracket", *indices, tokens[4]])
        out.append(raw)
    return "\n".join(out)


def _outcome(parse, text: str):
    try:
        L = parse(text)
    except LieError as exc:
        return type(exc), str(exc), getattr(exc, "line", None)
    return L.n, L.field, L._scale, L.labels, list(L._integer_table.items())


@settings(max_examples=200, deadline=None)
@given(mutated_dense_files())
def test_parser_matches_the_plain_parser_on_mutated_dense_files(text):
    assert _outcome(parse_algebra, text) == _outcome(parse_algebra_oracle, _index_rule(text))


@pytest.mark.parametrize("text", PARITY_BASES)
def test_parser_matches_the_plain_parser_on_the_unmutated_files(text):
    got = _outcome(parse_algebra, text)
    assert got == _outcome(parse_algebra_oracle, text) and got[0] == 6 and got[3][1] == "y"
