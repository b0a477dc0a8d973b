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
integer literal over GF(p).  N and every index are decimal digits only
(``str.isdecimal``), so ``+1``, ``-0`` and ``1_0`` are not indices.
Duplicate (I, J, K) keys are rejected, and so is a second ``label`` line
for the same index.  The serializer emits brackets
sorted by (I, J, K), so output is byte-stable and ``parse(serialize(L))``
reproduces the same sparse table.

A file is validated in one pass: every check above runs as its line is read
and reports the line number.  A declared N above ``MAX_FILE_DIM`` is refused
at its ``dim`` line with ``ResourceLimit``, before anything is sized by it.
Each line is split once, and a comment is cut only when the line has a
``#``.  The index tokens "1" … "N" are looked up in one dict made at the
``dim`` line; any other token takes the checked route, which raises the
error for it or accepts another decimal spelling.  Each literal goes
straight to integers, a residue over GF(p) and a numerator and denominator
in lowest terms over Q (``parse_integers``), with no field scalar made per
constant.  A literal or modulus longer than int() converts raises
``ResourceLimit`` at its line, and a ``label`` index that long is out of
range.  A duplicate key is found in the rows themselves, or, for a zero
constant, in a set of zero keys; the line of its first occurrence is looked
up again only to report the error.  The parser builds the 0-based table as
integer rows over the common scale D, the lcm of the denominators, keys in
file order, and constructs ``LieAlgebra`` from those rows directly, which
then checks Jacobi.

The serializer reads the same integer rows, sorted by (I, J, K), and
writes each constant x / D as ``str`` writes its field scalar, so it makes
no field scalar either.  Construction refuses a label that a ``label``
line could not carry (``BadLabel``), so every algebra survives the round
trip with its labels.
"""

from __future__ import annotations

from itertools import islice
from math import gcd

from .algebra import LieAlgebra, _scale_fractions
from .errors import (
    AlgebraFileError,
    BadScalarLiteral,
    DuplicateBracket,
    FieldSpecError,
    ResourceLimit,
)
from .fields import parse_field_spec

HEADER = "lie-algebra v1"

# The largest dimension a file may declare.  Construction sizes per-index
# tables and labels by it, and the abelian algebra of dimension N, a 3-line
# file, costs time and memory quadratic in N: ``check`` on it took 0.36 s
# and 34 MB of peak RSS at N = 1024, and 5.1 s and 276 MB at N = 4096
# (Python 3.11, 2 vCPUs).
MAX_FILE_DIM = 1024


def parse_algebra(text: str, allow_char_two: bool = False) -> LieAlgebra:
    """Parse and validate an algebra definition; errors carry line numbers."""
    lines = text.splitlines()
    body = _after_header(lines)
    field = None
    dim = None
    index: dict[str, int] = {}  # "1" … "N" to the 0-based index
    labels: dict[int, tuple[str, int]] = {}  # index -> (name, line)
    # rows[(i, j)][k] = the constant's numerator, or its residue over GF(p),
    # and the (row, k, denominator) of every constant whose denominator is
    # not 1, so the rows can be brought to the common scale D at the end.
    # ``zeros`` holds the keys of zero constants, which make no row entry.
    rows: dict[tuple[int, int], dict[int, int]] = {}
    fractions: list[tuple[dict[int, int], int, int]] = []
    zeros: set[tuple[int, int, int]] = set()

    for lineno, raw in enumerate(islice(lines, body - 1, None), start=body):
        if "#" in raw:
            raw = raw.split("#", 1)[0]
        tokens = raw.split()
        if not tokens:
            continue
        directive = tokens[0]
        if directive == "bracket":
            if field is None or dim is None:
                raise AlgebraFileError("bracket before field/dim directives", lineno)
            if len(tokens) != 5:
                raise AlgebraFileError("bracket directive is: bracket I J K COEFF", lineno)
            _, ti, tj, tk, literal = tokens
            i, j, k = index.get(ti), index.get(tj), index.get(tk)
            if i is None or j is None or k is None or i >= j:
                i, j, k = _bracket_indices(ti, tj, tk, dim, lineno)
            row = rows.get((i, j))
            if (row is not None and k in row) or (zeros and (i, j, k) in zeros):
                raise DuplicateBracket(
                    f"line {lineno}: duplicate bracket key ({i + 1}, {j + 1}, {k + 1}) "
                    f"(first seen on line {_first_line(lines, (i, j, k))})"
                )
            try:
                num, den = field.parse_integers(literal)
            except BadScalarLiteral as exc:
                raise AlgebraFileError(str(exc), lineno) from exc
            except ResourceLimit as exc:
                raise ResourceLimit(f"line {lineno}: {exc}") from None
            if not num:
                zeros.add((i, j, k))
                continue
            if row is None:
                row = rows[(i, j)] = {}
            row[k] = num
            if den != 1:
                fractions.append((row, k, den))
        elif directive == "field":
            if field is not None:
                raise AlgebraFileError("duplicate field directive", lineno)
            if len(tokens) != 2:
                raise AlgebraFileError("field directive takes exactly one argument", lineno)
            try:
                field = parse_field_spec(tokens[1], allow_char_two=allow_char_two)
            except FieldSpecError as exc:
                raise FieldSpecError(f"line {lineno}: {exc}") from exc
            except ResourceLimit as exc:
                raise ResourceLimit(f"line {lineno}: {exc}") from None
        elif directive == "dim":
            if dim is not None:
                raise AlgebraFileError("duplicate dim directive", lineno)
            # isdecimal, not isdigit: int() rejects digits such as "²".
            if len(tokens) != 2 or not tokens[1].isdecimal():
                raise AlgebraFileError("dim directive takes one nonnegative integer", lineno)
            dim = _declared_dim(tokens[1], lineno)
            index = {str(x + 1): x for x in range(dim)}
        elif directive == "label":
            if dim is None:
                raise AlgebraFileError("label before dim directive", lineno)
            if len(tokens) != 3 or not tokens[1].isdecimal():
                raise AlgebraFileError("label directive is: label INDEX NAME", lineno)
            try:
                idx = int(tokens[1])
            except ValueError:  # int()'s refusal of a token with too many digits
                raise AlgebraFileError(f"label index of {len(tokens[1])} digits out of "
                                       f"range [1, {dim}]", lineno) from None
            if not 1 <= idx <= dim:
                raise AlgebraFileError(f"label index {idx} out of range [1, {dim}]", lineno)
            if idx in labels:
                raise AlgebraFileError(f"duplicate label directive for index {idx} "
                                       f"(first seen on line {labels[idx][1]})", lineno)
            labels[idx] = tokens[2], lineno
        else:
            raise AlgebraFileError(f"unknown directive {directive!r}", lineno)

    if field is None:
        raise AlgebraFileError("missing field directive")
    if dim is None:
        raise AlgebraFileError("missing dim directive")

    scale = _scale_fractions(rows, fractions)
    label_list = [labels[i][0] if i in labels else f"x{i}" for i in range(1, dim + 1)]
    return LieAlgebra._from_integer_rows(dim, rows, scale, field, labels=label_list)


def _after_header(lines: list[str]) -> int:
    """The 1-based number of the line after the header, which must be the
    first line that is neither blank nor a comment."""
    for lineno, raw in enumerate(lines, start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line == HEADER:
            return lineno + 1
        if line.startswith("lie-algebra"):
            raise AlgebraFileError(
                f"unsupported format version {line!r} (expected {HEADER!r})", lineno
            )
        raise AlgebraFileError(f"missing header line {HEADER!r}", lineno)
    raise AlgebraFileError(f"empty file; expected header {HEADER!r}")


def _declared_dim(token: str, lineno: int) -> int:
    """The decimal ``dim`` token as an int, refused above ``MAX_FILE_DIM``.
    A token with more significant digits than the bound is refused unread,
    so int() never converts a huge one."""
    if len(token.lstrip("0")) > len(str(MAX_FILE_DIM)) or int(token) > MAX_FILE_DIM:
        raise ResourceLimit(
            f"line {lineno}: dim {token} exceeds the construction guard ({MAX_FILE_DIM})"
        )
    return int(token)


def _bracket_indices(ti: str, tj: str, tk: str, dim: int, lineno: int) -> tuple[int, int, int]:
    """The checked route for index tokens that are not all "1" … "N" in
    order: the 0-based (i, j, k), or the error for the first failed check."""
    try:
        if not (ti.isdecimal() and tj.isdecimal() and tk.isdecimal()):
            raise ValueError
        i, j, k = int(ti), int(tj), int(tk)
    except ValueError:  # also int()'s refusal of a token with too many digits
        raise AlgebraFileError("bracket indices must be integers", lineno) from None
    if not 1 <= i < j <= dim:
        raise AlgebraFileError(
            f"bracket indices ({i}, {j}) must satisfy 1 <= i < j <= {dim}", lineno
        )
    if not 1 <= k <= dim:
        raise AlgebraFileError(f"component index {k} out of range [1, {dim}]", lineno)
    return i - 1, j - 1, k - 1


def _first_line(lines: list[str], key: tuple[int, int, int]) -> int:
    """The number of the first bracket line with the 0-based ``key``, for
    the duplicate-key error.  Every bracket line before the duplicate has
    passed its checks, so its index tokens convert."""
    for lineno, raw in enumerate(lines, start=1):
        tokens = raw.split("#", 1)[0].split()
        if len(tokens) == 5 and tokens[0] == "bracket":
            if (int(tokens[1]) - 1, int(tokens[2]) - 1, int(tokens[3]) - 1) == key:
                return lineno
    raise AssertionError(f"no bracket line with key {key}")


def serialize_algebra(L: LieAlgebra) -> str:
    """Canonical text form; stable byte-for-byte for equal algebras.  Each
    constant x / D of the integer rows is written as ``str`` writes its
    field scalar: the residue over GF(p), where D = 1, and over Q the
    reduced num/den, or num when den = 1."""
    lines = [HEADER, f"field {L.field}", f"dim {L.n}"]
    default_labels = tuple(f"x{i + 1}" for i in range(L.n))
    if L.labels != default_labels:
        for idx, name in enumerate(L.labels, start=1):
            if name != f"x{idx}":
                lines.append(f"label {idx} {name}")
    scale, rows = L._scale, L._integer_table
    for i, j in sorted(rows):
        prefix = f"bracket {i + 1} {j + 1} "
        row = rows[(i, j)]
        for k in sorted(row):
            x = row[k]
            if scale > 1:
                h = gcd(x, scale)
                x = x // h if h == scale else f"{x // h}/{scale // h}"
            lines.append(f"{prefix}{k + 1} {x}")
    return "\n".join(lines) + "\n"
