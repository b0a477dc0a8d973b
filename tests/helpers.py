"""Shared independent oracles and random generators for the test suite.

Everything here is deliberately written the dumb, obviously-correct way
(textbook division-based elimination, full brute-force enumeration) so that
the production code paths are checked against a second route.
"""

from __future__ import annotations

import itertools
import random
import re
from fractions import Fraction
from math import gcd, lcm

from typing import NamedTuple

from liemult.algebra import LieAlgebra, SeriesChain, Subspace, build
from liemult.catalog import FAMILIES, CatalogEntry, standard_filiform
from liemult.errors import (
    AlgebraFileError,
    BadScalarLiteral,
    DimensionMismatch,
    DuplicateBracket,
    FieldSpecError,
    IndexOutOfRange,
    LieError,
    NonNilpotent,
    WordTooShort,
)
from liemult.fields import QQ, parse_field_spec
from liemult.homology import multiplier_dim
from liemult.linalg import Matrix, RowSpan, integer_row
from liemult.words import _inner_word, term_schedule


# Maximal class over GF(2) in a graded basis x1, x2, x3, ..., x8 with x_k of
# degree k - 1.  The elements s of L/γ₂ with [x_k, s] = 0 form the lines
# <x2> (k = 3, 4, 6), <x1> (k = 5) and <x1 + x2> (k = 7): every s ∉ γ₂
# kills some layer, so no generator chain exists.
NO_CHAIN_GF2 = [(1, 2, 3, 1), (1, 3, 4, -1), (1, 4, 5, -1), (2, 5, 6, -1), (3, 4, 6, 1),
                (1, 6, 7, -1), (3, 5, 7, 1), (1, 7, 8, -1), (2, 7, 8, -1), (3, 6, 8, 1),
                (4, 5, 8, 1)]


def entry_algebra(entry: CatalogEntry, field=QQ) -> LieAlgebra:
    """A catalog entry over ``field``: its family's builder at params[0]."""
    return FAMILIES[entry.family].builder(entry.params[0], field=field)


def identity(field, n: int) -> Matrix:
    return Matrix(field, [[field.one if i == j else field.zero for j in range(n)]
                          for i in range(n)])


def is_zero(m: Matrix) -> bool:
    return not any(x for r in m.rows() for x in r)


def row_span(m: Matrix) -> RowSpan:
    """A ``RowSpan`` with m's rows added in order, as ``Matrix.rank`` adds
    them: ``row_span(m).matrix()`` is m's canonical reduced echelon form and
    ``row_span(m).annihilator()`` its right null space."""
    span = RowSpan(m.field, m.ncols)
    for r in m.rows():
        span.add(r)
    return span


def leading_columns(rows) -> list[int]:
    """The column of each row's first nonzero entry: its pivot, for echelon rows."""
    return [next(j for j, x in enumerate(r) if x) for r in rows]


def naive_rref(rows, field=QQ) -> list[list]:
    """Textbook Gauss-Jordan elimination over ``field``, no fraction-free tricks."""
    work = [[field.element(e) for e in r] for r in rows]
    m = len(work)
    ncols = len(work[0]) if m else 0
    r = 0
    for c in range(ncols):
        pivot = next((i for i in range(r, m) if work[i][c]), None)
        if pivot is None:
            continue
        work[r], work[pivot] = work[pivot], work[r]
        piv = work[r][c]
        work[r] = [e / piv for e in work[r]]
        for i in range(m):
            if i != r and work[i][c]:
                f = work[i][c]
                work[i] = [a - f * b for a, b in zip(work[i], work[r])]
        r += 1
        if r == m:
            break
    return [row for row in work if any(row)]


def bracket_span_oracle(L: LieAlgebra, us, vs) -> list[list]:
    """Canonical basis of the span of the dense brackets [u, v], by naive_rref."""
    return naive_rref([L.bracket(u, v) for u in us for v in vs], L.field)


def series_oracle(L: LieAlgebra) -> tuple[list[list[list]], bool]:
    """The lower central series as canonical bases of γ₁, γ₂, …, each the
    naive_rref of the dense brackets of the previous term with every basis
    vector, and whether it reached 0 (it stops when the dimension does)."""
    basis = [L.basis_vector(j) for j in range(L.n)]
    terms = [naive_rref(basis, L.field)]
    while terms[-1]:
        nxt = bracket_span_oracle(L, terms[-1], basis)
        if len(nxt) == len(terms[-1]):
            return terms, False
        terms.append(nxt)
    return terms, True


def naive_kernel(rows, ncols: int, field=QQ) -> list[list]:
    """Canonical basis of the right null space of ``rows`` (ncols columns):
    one vector per free column f of their naive_rref, 1 at f and minus
    column f of the rref at the pivots, put through naive_rref."""
    rref = naive_rref(rows, field)
    pivots = [next(c for c in range(ncols) if row[c]) for row in rref]
    kernel = []
    for f in (c for c in range(ncols) if c not in pivots):
        v = [field.zero] * ncols
        v[f] = field.one
        for row, c in zip(rref, pivots):
            v[c] = -row[f]
        kernel.append(v)
    return naive_rref(kernel, field)


def center_oracle(L: LieAlgebra) -> list[list]:
    """Canonical basis of the center: the kernel of the dense linear map
    x -> ([x, e_j])_j, read off its n^2 x n matrix, whose row (j, k) holds
    [e_i, e_j]_k at column i."""
    n = L.n
    brackets = [[L.bracket(L.basis_vector(i), L.basis_vector(j)) for i in range(n)]
                for j in range(n)]
    return naive_kernel([[brackets[j][i][k] for i in range(n)] for j in range(n) for k in range(n)],
                        n, L.field)


def change_basis_oracle(L: LieAlgebra, p: Matrix) -> tuple:
    """The structure constants of L in the basis f_i = sum_j p[i][j] e_j, in
    the form ``structure_constants()`` gives them: [f_i, f_j] is the dense
    ``bracket`` of two rows of p, and its coordinates c solve c p = [f_i, f_j]
    by naive_rref on the augmented system [p^T | w] (p must be invertible)."""
    n, rows = L.n, p.rows()
    out = []
    for i, j in itertools.combinations(range(n), 2):
        w = L.bracket(rows[i], rows[j])
        solved = naive_rref([[rows[k][m] for k in range(n)] + [w[m]] for m in range(n)], L.field)
        out.extend((i + 1, j + 1, k + 1, solved[k][n]) for k in range(n) if solved[k][n])
    return tuple(out)


def scalar_table(field, table) -> dict:
    """A table as ``LieAlgebra._table_in_basis`` returns it, integer rows
    over a common scale D, back in field scalars: c[(i, j)][k] =
    rows[(i, j)][k] / D."""
    rows, scale = table
    d = field.element(scale)
    return {key: {k: field.element(x) / d for k, x in row.items()} for key, row in rows.items()}


def matmul_oracle(a: Matrix, b: Matrix) -> list[list]:
    """The product of two matrices entry by entry in field scalars, sum over
    k of a[i][k] b[k][j] as ``Fraction``s over Q and as residues mod p over
    GF(p)."""
    field, p = a.field, a.field.characteristic
    rows = a.rows()
    cols = [[r[j] for r in b.rows()] for j in range(b.ncols)]
    if p:
        return [[field.element(sum(x.v * y.v for x, y in zip(r, c)) % p) for c in cols]
                for r in rows]
    return [[sum((x * y for x, y in zip(r, c)), Fraction(0)) for c in cols] for r in rows]


def chain_basis_series_oracle(A: LieAlgebra) -> SeriesChain | None:
    """The lower central series of A computed term by term (``_own_series``)
    when it has class n - 1 and only unit-vector rows, else None: the rule
    that once decided whether a generator-chain rewrite is adapted to its
    series, kept as the reference for the one-scan decision."""
    series = A._own_series()
    unit_rows = all(len(row) == 1 for term in series.terms for row in term._rows.values())
    return series if series.nilpotency_class == A.n - 1 and unit_rows else None


def quotient_oracle(L: LieAlgebra, ideal: Subspace) -> LieAlgebra:
    """L/K by the field-scalar route: basis the images of the unit vectors
    at K's non-pivot columns, [e_f, e_g] = ``bracket_basis`` reduced by
    ``subspace_reduce`` and read at those columns, through ``LieAlgebra(q,
    table)``."""
    pivots = set(leading_columns(ideal.basis.rows()))
    free = [c for c in range(L.n) if c not in pivots]
    table = {}
    for a, b in itertools.combinations(range(len(free)), 2):
        w = subspace_reduce(ideal, L.bracket_basis(free[a], free[b]))
        comps = {k: w[f] for k, f in enumerate(free) if f in w}
        if comps:
            table[(a, b)] = comps
    return LieAlgebra(len(free), table, field=L.field, labels=[L.labels[f] for f in free])


def naive_rank(rows, field=QQ) -> int:
    return len(naive_rref(rows, field))


def multiplier_oracle(L: LieAlgebra) -> int:
    """dim M(L) = C(n,2) - rank d2 - rank d3 from the dense exterior complex
    of ``boundary_oracle``, ranked by naive_rank, in L's own basis."""
    d2, d3 = boundary_oracle(L)
    return len(d2) - naive_rank(d2, L.field) - naive_rank(d3, L.field)


def boundary_oracle(L: LieAlgebra) -> tuple[list[list], list[list]]:
    """The rows of d2 and d3, each written out from ``L.bracket`` of basis
    vectors in field scalars.  The wedge e_a ∧ e_b (a < b) is the column of
    (a, b) among the pairs in lexicographic order, and the rows of d3 follow
    the triples in lexicographic order."""
    n, zero = L.n, L.field.zero
    pairs = list(itertools.combinations(range(n), 2))
    column = {pair: pos for pos, pair in enumerate(pairs)}
    e = [L.basis_vector(i) for i in range(n)]
    d2 = [L.bracket(e[i], e[j]) for i, j in pairs]
    d3 = []
    for i, j, k in itertools.combinations(range(n), 3):
        row = [zero] * len(pairs)
        # d3(e_i ∧ e_j ∧ e_k) = [e_i,e_j] ∧ e_k - [e_i,e_k] ∧ e_j + [e_j,e_k] ∧ e_i
        for (a, b), partner, sign in (((i, j), k, 1), ((i, k), j, -1), ((j, k), i, 1)):
            for m, c in enumerate(d2[column[(a, b)]]):
                if c and m != partner:
                    # e_m ∧ e_partner = -(e_partner ∧ e_m)
                    flip = 1 if m < partner else -1
                    row[column[(min(m, partner), max(m, partner))]] += sign * flip * c
        d3.append(row)
    return d2, d3


def has_generator_chain_oracle(L: LieAlgebra) -> bool:
    """Whether L, of maximal class over GF(p), has a generator chain: an s
    outside γ₂ with s₂ = [s₁, s], s₃ = [s₂, s], … and each sₖ outside γₖ₊₁
    up to k = c.  Whether s has one depends only on its line in L/γ₂, so this
    tries all p + 1 lines <v>, <u + t v> (t in GF(p)), for u, v the unit
    vectors at the free columns of γ₂'s naive_rref, with the dense
    ``bracket`` and the terms of ``series_oracle``."""
    terms, _ = series_oracle(L)  # terms[k - 1] = γₖ
    pivots = {next(c for c, x in enumerate(row) if x) for row in terms[1]}
    u, v = (L.basis_vector(c) for c in range(L.n) if c not in pivots)
    p = L.field.characteristic
    lines = [(v, u)] + [([a + L.field.element(t) * b for a, b in zip(u, v)], v)
                        for t in range(p)]
    for s, cur in lines:
        for k in range(2, len(terms)):
            cur = L.bracket(cur, s)
            if len(naive_rref(terms[k] + [cur], L.field)) == len(terms[k]):
                break  # sₖ lies in γₖ₊₁
        else:
            return True
    return False


def chain_rows_as_vectors(L: LieAlgebra, rows) -> list[tuple]:
    """Generator-chain rows on L's integer ad table as field vectors: the row
    of sₖ, k >= 2, is D^(k-1) sₖ for the integer table's scale D, and the
    rows of s and s₁ are s and s₁."""
    F, out = L.field, []
    for k, row in enumerate(rows):
        d = F.element(L._scale ** max(k - 1, 0))
        out.append(tuple(F.element(row.get(j, 0)) / d for j in range(L.n)))
    return out


def random_rational_matrix(rng: random.Random, nrows: int, ncols: int) -> list[list[Fraction]]:
    return [
        [Fraction(rng.randint(-9, 9), rng.randint(1, 5)) for _ in range(ncols)]
        for _ in range(nrows)
    ]


def random_rational_vector(rng: random.Random, n: int) -> list[Fraction]:
    return [Fraction(rng.randint(-6, 6), rng.randint(1, 4)) for _ in range(n)]


def random_unimodular(rng: random.Random, n: int, field=QQ) -> Matrix:
    """Product of unit triangular integer matrices: determinant exactly 1."""
    lower = [[field.element(1 if i == j else (rng.randint(-3, 3) if i > j else 0))
              for j in range(n)] for i in range(n)]
    upper = [[field.element(1 if i == j else (rng.randint(-3, 3) if i < j else 0))
              for j in range(n)] for i in range(n)]
    return Matrix(field, lower) @ Matrix(field, upper)


def brute_psi_image_dim(L: LieAlgebra, i: int) -> int:
    """Exhaustive enumeration over every basis-vector tuple, no pruning."""
    ev = PsiEvaluator(L, i)
    if ev.codomain_dim == 0:
        return 0
    seen_rows: list[list] = []
    basis = [L.basis_vector(j) for j in range(L.n)]
    for tup in itertools.product(basis, repeat=i + 1):
        val = ev.value(tup)
        if not val.is_zero:
            seen_rows.append(list(val.coords))
    if not seen_rows:
        return 0
    return Matrix(L.field, seen_rows).rank()


def odd_witness_oracle(L: LieAlgebra, i: int) -> tuple | None:
    """The first tuple of (s, s1) from ``generator_chain``, in product order,
    whose degree-i ψ value is nonzero, with that value; None when all
    2^(i+1) of them give zero."""
    chain = generator_chain(L)
    ev = PsiEvaluator(L, i)
    for tup in itertools.product((chain.s, chain.s1), repeat=i + 1):
        value = ev.value(tup)
        if not value.is_zero:
            return tup, value
    return None


def quotient_coords_oracle(sup: Subspace, sub: Subspace, v) -> list:
    """Coordinates of v in sup/sub by solving v = sum c_i * adapted_i with
    naive_rref, where adapted is sub's basis followed by the rows of sup's
    basis whose pivot column is not a pivot of sub."""
    sub_pivots = set(leading_columns(sub.basis.rows()))
    sup_rows = sup.basis.rows()
    complement = [row for row, p in zip(sup_rows, leading_columns(sup_rows)) if p not in sub_pivots]
    adapted = sub.basis.rows() + complement
    k = len(adapted)
    system = [[a[j] for a in adapted] + [v[j]] for j in range(sup.ambient)]
    solved = naive_rref(system, sup.field)
    # adapted is linearly independent, so a consistent system reduces to
    # [I_k | c] and any further nonzero row is 0 = 1.
    if len(solved) > k:
        raise NotInSubspace("vector lies outside the larger subspace")
    return [solved[i][k] for i in range(sub.dim, k)]


def truncated_witt(n: int, field=QQ) -> LieAlgebra:
    """The truncated Witt algebra Wₙ: basis e_1, …, e_n with
    [e_i, e_j] = (j - i) e_{i+j} for i + j ≤ n and 0 otherwise.  Its
    constants vanish where p divides j - i, so over GF(p) it can lose the
    maximal class that it has over Q."""
    brackets = [(i, j, i + j, j - i)
                for i in range(1, n + 1) for j in range(i + 1, n + 1 - i)]
    return build(n, brackets, field=field)


def filiform_square(n: int, field=QQ) -> LieAlgebra:
    """filiform-n ⊕ filiform-n, the second summand on x(n+1)..x(2n)."""
    fn = standard_filiform(n, field=field).structure_constants()
    return build(2 * n, [(i + a, j + a, k + a, c) for a in (0, n) for i, j, k, c in fn],
                 field=field)


def free_class_two(rank: int, field=QQ) -> LieAlgebra:
    """The free nilpotent Lie algebra of class 2 on x1..x_rank: [x_a, x_b]
    is the basis vector y_ab for a < b, so n = rank + C(rank, 2)."""
    pairs = itertools.combinations(range(1, rank + 1), 2)
    return build(rank + rank * (rank - 1) // 2,
                 [(a, b, rank + k, 1) for k, (a, b) in enumerate(pairs, 1)], field=field)


def graded_oracle(L: LieAlgebra) -> tuple[list[list], list[int], dict]:
    """gr L = ⊕ γₖ/γₖ₊₁ in field scalars, as (basis, grades, table).

    The basis of grₖ is the rows of γₖ's naive_rref (``series_oracle``)
    whose pivot column is not a pivot of γₖ₊₁'s, in pivot order, grade by
    grade, so that grades never decrease along the basis.  table[(a, b)],
    a < b, is {m: c} for the dense [basis[a], basis[b]], read in
    γ_w/γ_{w+1}, w = grades[a] + grades[b], by the ``QuotientMap`` of the
    two terms spanned by the oracle's rows; the coordinates belong to the
    basis vectors of grade w.  L must be nilpotent."""
    terms, nilpotent = series_oracle(L)
    assert nilpotent
    spaces = [Subspace.from_vectors(L.field, L.n, t) for t in terms]
    lead = [[next(c for c, x in enumerate(row) if x) for row in t] for t in terms]
    basis, grades = [], []
    for k in range(1, len(terms)):
        for row, c in zip(terms[k - 1], lead[k - 1]):
            if c not in lead[k]:
                basis.append(row)
                grades.append(k)
    table = {}
    for a, b in itertools.combinations(range(len(basis)), 2):
        w = grades[a] + grades[b]
        if w >= len(terms):
            continue  # γ_w = 0
        coords = QuotientMap(spaces[w - 1], spaces[w]).coords(L.bracket(basis[a], basis[b]))
        at = [m for m, g in enumerate(grades) if g == w]
        comps = {at[t]: x for t, x in enumerate(coords) if x}
        if comps:
            table[(a, b)] = comps
    return basis, grades, table


_RATIONAL_LITERAL = re.compile(r"^[+-]?\d+(?:/\d+)?$")
_INTEGER_LITERAL = re.compile(r"^[+-]?\d+$")


def parse_literal_oracle(field, text: str) -> tuple[int, int]:
    """``field.parse_integers`` as two regexes decide it: (numerator,
    denominator) in lowest terms over Q, (residue, 1) over GF(p)."""
    text = text.strip()
    p = field.characteristic
    if p:
        if not _INTEGER_LITERAL.match(text):
            if _RATIONAL_LITERAL.match(text):
                raise BadScalarLiteral(f"rational literal {text!r} is not allowed over GF({p})")
            raise BadScalarLiteral(f"{text!r} is not an integer literal")
        return int(text) % p, 1
    if not _RATIONAL_LITERAL.match(text):
        raise BadScalarLiteral(f"{text!r} is not a rational literal (use p/q or an integer)")
    num, _, den = text.partition("/")
    if not den:
        return int(num), 1
    num, den = int(num), int(den)
    if den == 0:
        raise BadScalarLiteral(f"{text!r} has a zero denominator")
    g = gcd(num, den)
    return num // g, den // g


def parse_algebra_oracle(text: str, allow_char_two: bool = False) -> LieAlgebra:
    """The ``.alg`` parser written plainly: one (i, j, k) -> line dict for
    every constant, bare int() for the bracket indices, and no size guard
    on ``dim``.  It differs from ``algfile.parse_algebra`` only where that
    parser reads an index token that is not decimal digits (such as "+1",
    "-0" or "1_0") as "bracket indices must be integers" and where it
    refuses a large ``dim``."""
    header = "lie-algebra v1"
    field = None
    dim = None
    labels: dict[int, str] = {}
    label_lines: dict[int, int] = {}
    rows: dict[tuple[int, int], dict[int, int]] = {}
    fractions: list[tuple[dict[int, int], int, int]] = []
    seen_keys: dict[tuple[int, int, int], int] = {}
    header_seen = False
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if not header_seen:
            if line != header:
                if line.startswith("lie-algebra"):
                    raise AlgebraFileError(
                        f"unsupported format version {line!r} (expected {header!r})", lineno
                    )
                raise AlgebraFileError(f"missing header line {header!r}", lineno)
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
                num, den = parse_literal_oracle(field, tokens[4])
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
            if idx in labels:
                raise AlgebraFileError(f"duplicate label directive for index {idx} "
                                       f"(first seen on line {label_lines[idx]})", lineno)
            labels[idx], label_lines[idx] = tokens[2], lineno
        else:
            raise AlgebraFileError(f"unknown directive {directive!r}", lineno)
    if not header_seen:
        raise AlgebraFileError(f"empty file; expected header {header!r}")
    if field is None:
        raise AlgebraFileError("missing field directive")
    if dim is None:
        raise AlgebraFileError("missing dim directive")
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


# -- single-tuple references ---------------------------------------------------
#
# No command reads these; the tests compare the library against them.  Each
# works in field scalars on dense vectors, one tuple or one algebra at a time.


class NotInSubspace(LieError):
    """A vector expected inside a subspace is not contained in it."""


class NotMaximalClass(LieError):
    pass


class GeneratorSearchFailed(LieError):
    """No line of L/γ₂ has a full descending chain, as can happen over a small field."""


def subspace_reduce(subspace: Subspace, v) -> dict:
    """v modulo the subspace as a sparse ``{index: scalar}`` dict, for v
    a sequence or such a dict: v minus (v_c / lead_c) row_c over the
    pivots c, which clears every pivot column, since each row is zero at
    the other pivots."""
    iv, scale = integer_row(subspace.field, v, subspace.ambient)
    w, d = subspace._reduce_integers(iv)
    p, element = subspace.field.characteristic, subspace.field.element
    unit = subspace.field.one / element(scale * d)
    return {j: element(x) * unit for j, x in w.items() if (x % p if p else x)}


class QuotientMap:
    """Coordinates in U/W for nested subspaces W ⊆ U.

    The basis of U/W is the image of those canonical rows of U whose pivot
    column is not a pivot of W.  A vector of U reduced modulo W is the
    combination of exactly those rows, with its own entries at their pivot
    columns as the coefficients, so coordinates are read off directly.
    """

    def __init__(self, sup: Subspace, sub: Subspace):
        if not sup.contains_subspace(sub):
            raise NotInSubspace("the second subspace is not contained in the first")
        self.sup = sup
        self.sub = sub
        self._pivots = [p for p in sup._rows if p not in sub._rows]
        self.dim = len(self._pivots)

    def coords(self, v) -> list:
        """Coordinates of v (a sequence or a sparse dict; it must lie in U) in the U/W basis."""
        if not self.sup.contains_vector(v):
            raise NotInSubspace("vector lies outside the larger subspace")
        w = subspace_reduce(self.sub, v)
        zero = self.sup.field.zero
        return [w.get(p, zero) for p in self._pivots]


def defect_terms(L: LieAlgebra, xs) -> list[list]:
    """The individual outer-bracket terms of the vanishing identity."""
    xs = list(xs)
    i = len(xs) - 1
    if i < 3:
        raise WordTooShort(f"the identity needs at least 4 arguments, got {len(xs)}")
    out = []
    for right, left, outer in term_schedule(i):
        inner = _inner_word(L, xs, right, left)
        out.append(L.bracket(inner, xs[outer]))
    return out


def lemma_defect(L: LieAlgebra, xs) -> list:
    """Sum of the schedule terms; the zero vector for every Lie algebra."""
    terms = defect_terms(L, xs)
    total = L.zero_vector()
    for t in terms:
        total = [a + b for a, b in zip(total, t)]
    return total


class TensorElement(NamedTuple):
    """An element of γᵢ/γᵢ₊₁ ⊗ L/γ₂ in flat coordinates (left index major)."""

    left_dim: int
    right_dim: int
    coords: tuple

    @property
    def is_zero(self) -> bool:
        return not any(self.coords)


class PsiEvaluator:
    """Evaluates the degree-i tensor map on single tuples, in field scalars;
    builds the quotient coordinate maps once."""

    def __init__(self, L: LieAlgebra, i: int):
        series = L.lower_central_series()
        if not series.nilpotent:
            raise NonNilpotent("the tensor maps require a nilpotent algebra")
        c = series.nilpotency_class
        if not 2 <= i <= c:
            raise IndexOutOfRange(f"degree i={i} outside [2, {c}] for this algebra")
        self.L = L
        self.i = i
        self.left_map = QuotientMap(series.gamma(i), series.gamma(i + 1))
        self.right_map = QuotientMap(series.gamma(1), series.gamma(2))
        self.schedule = term_schedule(i)

    @property
    def codomain_dim(self) -> int:
        return self.left_map.dim * self.right_map.dim

    def value(self, xs) -> TensorElement:
        xs = list(xs)
        if len(xs) != self.i + 1:
            raise DimensionMismatch(f"expected {self.i + 1} arguments, got {len(xs)}")
        ld, rd = self.left_map.dim, self.right_map.dim
        coords = [self.L.field.zero] * (ld * rd)
        for right, left, outer in self.schedule:
            inner = _inner_word(self.L, xs, right, left)
            if not any(inner):
                continue
            lc = self.left_map.coords(inner)
            if not any(lc):
                continue
            rc = self.right_map.coords(xs[outer])
            for a, la in enumerate(lc):
                if la:
                    for b, rb in enumerate(rc):
                        if rb:
                            coords[a * rd + b] = coords[a * rd + b] + la * rb
        return TensorElement(ld, rd, tuple(coords))


def psi(L: LieAlgebra, i: int, xs) -> TensorElement:
    """Single evaluation of the degree-i tensor map."""
    return PsiEvaluator(L, i).value(xs)


class GeneratorChain(NamedTuple):
    """Generators s, s1 outside γ₂ and the chain s_i = [s_{i-1}, s] with
    s_i in γᵢ \\ γᵢ₊₁ for 2 <= i <= c."""

    s: tuple
    s1: tuple
    tail: tuple  # (s_2, ..., s_c)


def generator_chain(L: LieAlgebra) -> GeneratorChain:
    """The generator pair and descending chain of a maximal-class algebra,
    read from the chain search that construction runs (``L._chain_rows``):
    s along e_a, e_b, then e_a + t e_b, for a < b the free columns of γ₂.
    That search finds a chain whenever one exists (``_chain_rows`` gives the
    argument); its row of sₖ is D^(k-1) sₖ for the integer table's scale D.
    """
    ok, _ = L.is_maximal_class()
    if not ok:
        raise NotMaximalClass("generator chains exist only for maximal-class algebras")
    rows = L._chain_rows()
    if rows is None:
        raise GeneratorSearchFailed("no line of L/γ₂ has a full descending chain")
    field, vectors = L.field, []
    for k, row in enumerate(rows):
        d = field.element(L._scale ** max(k - 1, 0))
        vectors.append(tuple(field.element(row.get(j, 0)) / d for j in range(L.n)))
    return GeneratorChain(vectors[0], vectors[1], tuple(vectors[2:]))


class OddCaseRecord(NamedTuple):
    """Odd-n reduction through the center: dim M(L) <= dim M(L/Z) + 1 with
    L/Z maximal class of even dimension n-1."""

    n: int
    dim_m: int
    center_dim: int
    quotient_dim: int
    quotient_is_maximal_class: bool
    dim_m_quotient: int
    chained_bound: int
    holds: bool

    @property
    def equality(self) -> bool:
        return self.dim_m == self.chained_bound

    def to_dict(self) -> dict:
        return {
            "n": self.n,
            "dim_multiplier": self.dim_m,
            "center_dim": self.center_dim,
            "quotient_dim": self.quotient_dim,
            "quotient_is_maximal_class": self.quotient_is_maximal_class,
            "dim_multiplier_quotient": self.dim_m_quotient,
            "chained_bound": self.chained_bound,
            "holds": self.holds,
        }


def verify_odd_case_reduction(L: LieAlgebra) -> OddCaseRecord:
    if L.n % 2 == 0:
        raise IndexOutOfRange(f"the odd-case reduction needs odd n, got n={L.n}")
    ok, _ = L.is_maximal_class()
    if not ok:
        raise NotMaximalClass("the odd-case reduction needs a maximal-class algebra")
    z = L.center()
    pres = L.quotient(z)
    q = pres.quotient
    q_max = q.n >= 3 and q.nilpotency_class() == q.n - 1
    dim_m = multiplier_dim(L)
    dim_m_q = multiplier_dim(q)
    chained = (L.n - 1) // 2 + 1
    holds = (
        z.dim == 1
        and q_max
        and q.n == L.n - 1
        and q.n % 2 == 0
        and dim_m <= dim_m_q + 1
        and dim_m <= chained
    )
    return OddCaseRecord(
        n=L.n,
        dim_m=dim_m,
        center_dim=z.dim,
        quotient_dim=q.n,
        quotient_is_maximal_class=q_max,
        dim_m_quotient=dim_m_q,
        chained_bound=chained,
        holds=holds,
    )
