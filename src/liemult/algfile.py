"""Plain-text algebra definition files, format version 1.

Grammar (one directive per line, ``#`` starts a comment, blank lines are
ignored; the header must be the first directive)::

    lie-algebra v1
    field Q             # or: field GF(p)
    dim N
    label I NAME        # optional, 1-based basis index
    bracket I J K COEFF # [e_I, e_J] has coefficient COEFF on e_K

Requirements: 1 <= I < J <= N (antisymmetry is implied, never written),
1 <= K <= N, COEFF an integer or NUM/DEN rational literal over Q and an
integer literal over GF(p).  Duplicate (I, J, K) keys are rejected.  The
serializer emits brackets sorted by (I, J, K), so output is byte-stable and
``parse(serialize(L))`` reproduces the same sparse table.

A file is validated in one pass: every check above runs as its line is read
and reports the line number.  Each literal goes straight to integers, a
residue over GF(p) and a numerator and denominator in lowest terms over Q
(``parse_integers``), with no field scalar made per constant.  The parser
builds the 0-based table as integer rows over the common scale D, the lcm of
the denominators, keys in file order, and constructs ``LieAlgebra`` from
those rows directly, which then checks Jacobi.
"""

from __future__ import annotations

from math import lcm

from .algebra import LieAlgebra
from .errors import AlgebraFileError, BadScalarLiteral, DuplicateBracket, FieldSpecError
from .fields import parse_field_spec

HEADER = "lie-algebra v1"


def parse_algebra(text: str, allow_char_two: bool = False) -> LieAlgebra:
    """Parse and validate an algebra definition; errors carry line numbers."""
    field = None
    dim = None
    labels: dict[int, str] = {}
    # rows[(i, j)][k] = the constant's numerator, or its residue over GF(p),
    # and the (row, k, denominator) of every constant whose denominator is
    # not 1, so the rows can be brought to the common scale D at the end.
    rows: dict[tuple[int, int], dict[int, int]] = {}
    fractions: list[tuple[dict[int, int], int, int]] = []
    seen_keys: dict[tuple[int, int, int], int] = {}
    header_seen = False

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if not header_seen:
            if line != HEADER:
                if line.startswith("lie-algebra"):
                    raise AlgebraFileError(
                        f"unsupported format version {line!r} (expected {HEADER!r})", lineno
                    )
                raise AlgebraFileError(f"missing header line {HEADER!r}", lineno)
            header_seen = True
            continue
        tokens = line.split()
        directive = tokens[0]
        if directive == "bracket":
            if field is None or dim is None:
                raise AlgebraFileError("bracket before field/dim directives", lineno)
            if len(tokens) != 5:
                raise AlgebraFileError("bracket directive is: bracket I J K COEFF", lineno)
            try:
                i, j, k = int(tokens[1]), int(tokens[2]), int(tokens[3])
            except ValueError:
                raise AlgebraFileError("bracket indices must be integers", lineno) from None
            if not 1 <= i < j <= dim:
                raise AlgebraFileError(
                    f"bracket indices ({i}, {j}) must satisfy 1 <= i < j <= {dim}", lineno
                )
            if not 1 <= k <= dim:
                raise AlgebraFileError(f"component index {k} out of range [1, {dim}]", lineno)
            first = seen_keys.setdefault((i, j, k), lineno)
            if first != lineno:
                raise DuplicateBracket(
                    f"line {lineno}: duplicate bracket key ({i}, {j}, {k}) "
                    f"(first seen on line {first})"
                )
            try:
                num, den = field.parse_integers(tokens[4])
            except BadScalarLiteral as exc:
                raise AlgebraFileError(str(exc), lineno) from exc
            if num:
                row = rows.setdefault((i - 1, j - 1), {})
                row[k - 1] = num
                if den != 1:
                    fractions.append((row, k - 1, den))
        elif directive == "field":
            if field is not None:
                raise AlgebraFileError("duplicate field directive", lineno)
            if len(tokens) != 2:
                raise AlgebraFileError("field directive takes exactly one argument", lineno)
            try:
                field = parse_field_spec(tokens[1], allow_char_two=allow_char_two)
            except FieldSpecError as exc:
                raise FieldSpecError(f"line {lineno}: {exc}") from exc
        elif directive == "dim":
            if dim is not None:
                raise AlgebraFileError("duplicate dim directive", lineno)
            # isdecimal, not isdigit: int() rejects digits such as "²".
            if len(tokens) != 2 or not tokens[1].isdecimal():
                raise AlgebraFileError("dim directive takes one nonnegative integer", lineno)
            dim = int(tokens[1])
        elif directive == "label":
            if dim is None:
                raise AlgebraFileError("label before dim directive", lineno)
            if len(tokens) != 3 or not tokens[1].isdecimal():
                raise AlgebraFileError("label directive is: label INDEX NAME", lineno)
            idx = int(tokens[1])
            if not 1 <= idx <= dim:
                raise AlgebraFileError(f"label index {idx} out of range [1, {dim}]", lineno)
            labels[idx] = tokens[2]
        else:
            raise AlgebraFileError(f"unknown directive {directive!r}", lineno)

    if not header_seen:
        raise AlgebraFileError(f"empty file; expected header {HEADER!r}")
    if field is None:
        raise AlgebraFileError("missing field directive")
    if dim is None:
        raise AlgebraFileError("missing dim directive")

    # The common scale D is the lcm of the reduced denominators (1 over
    # GF(p)); each constant num/den becomes num * D / den.
    scale = lcm(*(den for _, _, den in fractions))
    if scale > 1:
        for row in rows.values():
            for k in row:
                row[k] *= scale
        for row, k, den in fractions:
            row[k] //= den
    label_list = None
    if labels:
        label_list = [labels.get(i + 1, f"x{i + 1}") for i in range(dim)]
    return LieAlgebra._from_integer_rows(dim, rows, scale, field, labels=label_list)


def serialize_algebra(L: LieAlgebra) -> str:
    """Canonical text form; stable byte-for-byte for equal algebras."""
    lines = [HEADER, f"field {L.field}", f"dim {L.n}"]
    default_labels = tuple(f"x{i + 1}" for i in range(L.n))
    if L.labels != default_labels:
        for idx, name in enumerate(L.labels, start=1):
            if name != f"x{idx}":
                lines.append(f"label {idx} {name}")
    for i, j, k, c in L.structure_constants():
        lines.append(f"bracket {i} {j} {k} {c}")
    return "\n".join(lines) + "\n"
