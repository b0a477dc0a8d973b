import random
from fractions import Fraction
from math import lcm

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    identity,
    is_zero,
    matmul_oracle,
    naive_kernel,
    naive_rank,
    naive_rref,
    random_rational_matrix,
    random_unimodular,
    row_span,
)
from liemult.errors import DimensionMismatch, FieldMismatch, SingularMatrix
from liemult.fields import QQ, PrimeField
from liemult.linalg import Matrix, RowSpan, integer_row, inverse_rows


def _inverse(m: Matrix) -> Matrix:
    """The inverse of a square Matrix, from ``inverse_rows`` of its integer rows."""
    field, n = m.field, m.nrows
    rows, den = inverse_rows(field, [integer_row(field, r, n) for r in m.rows()])
    d = field.element(den)
    return Matrix(field, [[field.element(r.get(j, 0)) / d for j in range(n)] for r in rows], ncols=n)


def _zeros(field, nrows: int, ncols: int) -> Matrix:
    return Matrix(field, [[field.zero] * ncols for _ in range(nrows)], ncols=ncols)


def _annihilates(m: Matrix, z: dict[int, int]) -> bool:
    """Whether m times the integer row z, as a column, is zero."""
    return is_zero(m @ Matrix(m.field, [[z.get(j, 0)] for j in range(m.ncols)], ncols=1))


def _contains(span: RowSpan, vec) -> bool:
    return span.contains_integers(integer_row(span.field, vec, span.ncols)[0])


def test_rank_identity():
    assert identity(QQ, 3).rank() == 3


def test_rank_zero_matrix():
    assert _zeros(QQ, 4, 6).rank() == 0


def test_kernel_of_identity_is_empty():
    assert row_span(identity(QQ, 4)).annihilator() == []


def test_kernel_of_zero_matrix_is_unit_rows():
    assert row_span(_zeros(QQ, 2, 5)).annihilator() == [{j: 1} for j in range(5)]


def test_kernel_vectors_annihilated():
    rng = random.Random(11)
    for _ in range(20):
        m = Matrix(QQ, random_rational_matrix(rng, rng.randint(1, 7), rng.randint(1, 7)))
        ker = row_span(m).annihilator()
        assert len(ker) == m.ncols - m.rank()  # rank-nullity
        for z in ker:
            assert _annihilates(m, z)


def test_sparse_kernel_agrees_with_naive_elimination():
    # 100 random matrices up to 12x12 per field: the RowSpan kernel (integer
    # rows over Q, raw residues over GF(p)) vs textbook Gauss-Jordan.  GF(7)
    # makes rank drops against Q common.
    rng = random.Random(7)
    for field in (QQ, PrimeField(7), PrimeField(2147483647)):
        for _ in range(100):
            rows = random_rational_matrix(rng, rng.randint(1, 12), rng.randint(1, 12))
            if field != QQ:
                rows = [[e.numerator for e in r] for r in rows]
            m = Matrix(field, rows)
            oracle = naive_rref(rows, field)
            assert m.rank() == len(oracle)
            assert row_span(m).matrix().rows() == oracle


def test_sparse_kernel_on_rows_with_large_content_and_negative_leads():
    # Rows that are big rational multiples of small integer rows, about half
    # with a negative leading entry: the kernel divides each row's content
    # out and fixes the sign, so the result must not depend on the scaling.
    rng = random.Random(19)
    for _ in range(30):
        nr, nc = rng.randint(1, 8), rng.randint(1, 8)
        base = [[rng.randint(-3, 3) for _ in range(nc)] for _ in range(nr)]
        rows = []
        for r in base:
            scale = Fraction(rng.choice([-1, 1]) * rng.randint(1, 10**30), rng.choice([1, 7, 10**12]))
            rows.append([scale * e for e in r])
        m = Matrix(QQ, rows)
        assert m.rank() == naive_rank(base)
        assert row_span(m).matrix().rows() == naive_rref(rows)
        assert row_span(m).matrix() == row_span(Matrix(QQ, base)).matrix()


def test_rank_invariant_under_unimodular_row_operations():
    rng = random.Random(23)
    for _ in range(25):
        nr, nc = rng.randint(1, 8), rng.randint(1, 8)
        m = Matrix(QQ, random_rational_matrix(rng, nr, nc))
        u = random_unimodular(rng, nr)
        assert (u @ m).rank() == m.rank()


def test_echelonization_idempotent():
    rng = random.Random(5)
    for _ in range(20):
        m = Matrix(QQ, random_rational_matrix(rng, rng.randint(1, 6), rng.randint(1, 6)))
        r = row_span(m).matrix()
        assert row_span(r).matrix() == r


def test_stacked_echelon_form_sums_unit_rows():
    e1, e2 = [1, 0, 0], [0, 1, 0]
    assert row_span(Matrix(QQ, [e1, e2])).matrix() == Matrix(QQ, [[1, 0, 0], [0, 1, 0]])


def test_stacked_echelon_form_with_itself_is_the_echelon_form():
    b = Matrix(QQ, [[2, 4, 0], [0, 0, 3]])
    assert row_span(Matrix(QQ, b.rows() + b.rows())).matrix() == row_span(b).matrix()


def test_matrix_takes_rows_from_a_generator():
    consumed = []

    def rows():
        for i in range(3):
            consumed.append(i)
            yield (i, i + 1)

    m = Matrix(QQ, rows(), ncols=2)
    assert consumed == [0, 1, 2]
    assert m.rows() == [[0, 1], [1, 2], [2, 3]]
    assert Matrix(QQ, iter([]), ncols=4).shape == (0, 4)


def test_matrix_rejects_ragged_rows_and_a_wrong_width():
    with pytest.raises(DimensionMismatch, match="ragged rows"):
        Matrix(QQ, iter([[1, 0], [1, 0], [1]]))
    with pytest.raises(DimensionMismatch, match="expected 3 columns, rows have 2"):
        Matrix(QQ, [[1, 0]], ncols=3)


def test_matmul_refuses_mismatched_shapes():
    with pytest.raises(DimensionMismatch, match=r"\(1, 2\) @ \(1, 2\)"):
        Matrix(QQ, [[1, 0]]) @ Matrix(QQ, [[1, 0]])


def test_mixed_field_rejected():
    q = Matrix(QQ, [[1, 0]])
    g = Matrix(PrimeField(5), [[1, 0]])
    with pytest.raises(FieldMismatch):
        q @ g


def test_gf_rank_matches_rational_rank_for_generic_entries():
    # Entries small relative to a large prime: ranks must agree.
    rng = random.Random(3)
    F = PrimeField(10007)
    for _ in range(20):
        nr, nc = rng.randint(1, 6), rng.randint(1, 6)
        rows = [[rng.randint(-4, 4) for _ in range(nc)] for _ in range(nr)]
        mq = Matrix(QQ, rows)
        mf = Matrix(F, rows)
        assert mq.rank() == mf.rank()


def test_gf_rank_drop_mod_p():
    # [2, 4, 1] is 2*[1, 2, 3] mod 5 (6 = 1), so the rank drops to 1.
    F = PrimeField(5)
    assert Matrix(F, [[1, 2, 3], [2, 4, 1]]).rank() == 1
    assert Matrix(QQ, [[1, 2, 3], [2, 4, 1]]).rank() == 2


def test_gf_kernel_and_rref():
    F = PrimeField(5)
    m = Matrix(F, [[1, 2, 3], [0, 1, 4]])
    assert m.rank() == 2
    ker = row_span(m).annihilator()
    assert len(ker) == 1
    for z in ker:
        assert _annihilates(m, z)


def _product_matches_the_oracle(a: Matrix, b: Matrix):
    got = a @ b
    assert got.shape == (a.nrows, b.ncols)
    assert got.rows() == matmul_oracle(a, b)
    # Every cell is a canonical scalar of the field, as ``Matrix`` stores it.
    assert got == Matrix(a.field, matmul_oracle(a, b), ncols=b.ncols)


def test_product_over_q_with_denominators_matches_the_oracle():
    rng = random.Random(41)
    for shape in [(3, 4, 2), (5, 5, 5), (1, 6, 3)]:
        m, k, n = shape
        a = Matrix(QQ, random_rational_matrix(rng, m, k))
        b = Matrix(QQ, random_rational_matrix(rng, k, n))
        assert any(x.denominator > 1 for r in (a @ b).rows() for x in r)
        _product_matches_the_oracle(a, b)
    # Denominators that cancel in the product: (1/2)(2/3) + (1/6)(2) = 2/3.
    a = Matrix(QQ, [[Fraction(1, 2), Fraction(1, 6)]])
    b = Matrix(QQ, [[Fraction(2, 3)], [Fraction(2)]])
    assert (a @ b).rows() == [[Fraction(2, 3)]]


@pytest.mark.parametrize("p", [7, 2**61 - 1], ids=["GF7", "GF(2^61-1)"])
def test_product_over_gf_p_matches_the_oracle(p):
    # Over GF(2^61-1) every entry is a residue above p/2, so the integer
    # dot products run far past p before the one reduction per cell.
    field, rng = PrimeField(p), random.Random(p % 1009)
    low = p // 2 if p > 7 else 0
    for m, k, n in [(3, 4, 2), (6, 6, 6), (1, 5, 4)]:
        a = Matrix(field, [[rng.randrange(low, p) for _ in range(k)] for _ in range(m)])
        b = Matrix(field, [[rng.randrange(low, p) for _ in range(n)] for _ in range(k)])
        _product_matches_the_oracle(a, b)


@pytest.mark.parametrize("field", [QQ, PrimeField(7)], ids=["Q", "GF7"])
def test_product_with_zero_rows_and_zero_columns_matches_the_oracle(field):
    e = field.element
    a = Matrix(field, [[e(0), e(0), e(0)], [e(1), e(0), e(2)], [e(0), e(0), e(0)]])
    b = Matrix(field, [[e(3), e(0)], [e(5), e(0)], [e(0), e(0)]])
    _product_matches_the_oracle(a, b)
    assert (a @ b).row(0) == [field.zero, field.zero]
    assert [r[1] for r in (a @ b).rows()] == [field.zero] * 3
    _product_matches_the_oracle(_zeros(field, 2, 3), b)
    # Empty shapes: no rows, and an inner dimension of 0.
    _product_matches_the_oracle(Matrix(field, [], ncols=3), b)
    product = Matrix(field, [[], []], ncols=0) @ Matrix(field, [], ncols=4)
    assert product == _zeros(field, 2, 4)


def test_inverse_round_trip():
    rng = random.Random(9)
    for field in (QQ, PrimeField(2147483647)):
        for _ in range(10):
            n = rng.randint(1, 6)
            u = random_unimodular(rng, n, field)
            assert u @ _inverse(u) == identity(field, n)


def test_inverse_of_singular_matrix():
    with pytest.raises(SingularMatrix):
        _inverse(Matrix(QQ, [[1, 2], [2, 4]]))
    # det = 1 - 6 = -5: singular over GF(5) only.
    rows = [[1, 2], [3, 1]]
    with pytest.raises(SingularMatrix):
        _inverse(Matrix(PrimeField(5), rows))
    m = Matrix(QQ, rows)
    assert m @ _inverse(m) == identity(QQ, 2)
    assert _inverse(m) == Matrix(QQ, [[Fraction(-1, 5), Fraction(2, 5)], [Fraction(3, 5), Fraction(-1, 5)]])


@pytest.mark.parametrize("field", [QQ, PrimeField(7)], ids=["Q", "GF7"])
def test_inverse_rows_matches_the_naive_inverse(field):
    # Rational entries give rows with scales above 1 over Q.
    rng = random.Random(5)
    checked = 0
    while checked < 12:
        n = rng.randint(1, 6)
        m = Matrix(field, [[field.element(x.numerator) / field.element(x.denominator)
                            for x in row] for row in random_rational_matrix(rng, n, n)])
        reduced = naive_rref([r + [field.one if i == j else field.zero for j in range(n)]
                              for i, r in enumerate(m.rows())], field)
        if [r[:n] for r in reduced] != identity(field, n).rows():
            with pytest.raises(SingularMatrix):
                inverse_rows(field, [integer_row(field, r, n) for r in m.rows()])
            continue
        assert _inverse(m).rows() == [r[n:] for r in reduced]
        _, den = inverse_rows(field, [integer_row(field, r, n) for r in m.rows()])
        assert den == 1 or not field.characteristic
        checked += 1


@pytest.mark.parametrize("field", [QQ, PrimeField(7), PrimeField(2147483647)],
                         ids=["Q", "GF7", "GFp"])
def test_inverse_past_a_unimodular_head_matches_the_naive_inverse(field):
    # Chain-shaped rows: the first two lie on columns a < b with a 2 x 2
    # block of determinant ±1 there, as the generator-chain rows of the
    # rewrite do (e_a, e_b; e_b, e_a; e_a + t e_b, e_b).  (R, den) must be
    # exact: R / den = P^-1 with den the least common denominator.
    rng = random.Random(11)
    heads = [lambda a, b, t: ({a: 1}, {b: 1}), lambda a, b, t: ({b: 1}, {a: 1}),
             lambda a, b, t: ({a: 1, b: t}, {b: 1}), lambda a, b, t: ({a: t, b: 1}, {a: 1})]
    singular = checked = 0
    for case in range(60):
        n = rng.randint(3, 7)
        a, b = sorted(rng.sample(range(n), 2))
        t = rng.randint(1, 5)
        rows = list(heads[case % 4](a, b, t))
        for _ in range(n - 2):
            row = {c: rng.randint(-4, 4) for c in range(n) if rng.random() < 0.8}
            rows.append({c: x % field.characteristic if field.characteristic else x
                         for c, x in row.items() if x})
        dense = [[field.element(r.get(c, 0)) for c in range(n)] for r in rows]
        reduced = naive_rref([r + [field.one if i == j else field.zero for j in range(n)]
                              for i, r in enumerate(dense)], field)
        if [r[:n] for r in reduced] != identity(field, n).rows():
            with pytest.raises(SingularMatrix):
                inverse_rows(field, [(r, 1) for r in rows])
            singular += 1
            continue
        inv, den = inverse_rows(field, [(r, 1) for r in rows])
        want = [r[n:] for r in reduced]
        if field.characteristic:
            assert den == 1
            assert inv == [{c: x.v for c, x in enumerate(r) if x} for r in want]
        else:
            assert den == lcm(*(x.denominator for r in want for x in r))
            assert inv == [{c: int(x * den) for c, x in enumerate(r) if x} for r in want]
        checked += 1
    assert checked >= 40 and singular >= 1


@settings(max_examples=50)
@given(
    st.lists(
        st.lists(st.fractions(min_value=-5, max_value=5, max_denominator=6), min_size=3, max_size=3),
        min_size=1,
        max_size=5,
    )
)
def test_rank_nullity_property(rows):
    m = Matrix(QQ, rows)
    assert m.rank() + len(row_span(m).annihilator()) == m.ncols


def test_row_span_accumulator_matches_matrix_rref():
    rng = random.Random(17)
    for field in (QQ, PrimeField(7), PrimeField(2147483647)):
        for _ in range(15):
            rows = random_rational_matrix(rng, rng.randint(1, 6), 5)
            if field != QQ:
                rows = [[field.element(e.numerator) for e in r] for r in rows]
            span = RowSpan(field, 5)
            grew = [span.add(r) for r in rows]
            assert span.matrix().rows() == naive_rref(rows, field)
            assert span.dim == Matrix(field, rows).rank() == sum(grew)
            assert all(_contains(span, r) for r in rows)


@pytest.mark.parametrize("field", [QQ, PrimeField(3), PrimeField(2147483647)],
                         ids=["Q", "GF3", "GFp"])
def test_annihilator_matches_the_naive_kernel(field):
    # Random spans up to 8x8 (GF(3) makes rank drops common), and the 0-row,
    # zero, full-rank and 0-column spans.
    rng = random.Random(31)
    cases = [([], 4), ([[0] * 5, [0] * 5], 5), ([], 0),
             ([[1 if i == j else rng.randint(-3, 3) * (i < j) for j in range(6)]
               for i in range(6)], 6)]
    for _ in range(60):
        ncols = rng.randint(1, 8)
        cases.append((random_rational_matrix(rng, rng.randint(1, 8), ncols), ncols))
    for rows, ncols in cases:
        if field != QQ:
            rows = [[Fraction(e).numerator for e in r] for r in rows]
        span = RowSpan(field, ncols)
        for r in rows:
            span.add(r)
        ann = span.annihilator()
        # One row per free column, nonzero there and at no other free column.
        free = [c for c in range(ncols) if c not in span.pivots]
        assert [sorted(set(z) - set(span.pivots)) for z in ann] == [[f] for f in free]
        if field.characteristic:
            assert all(0 < x < field.characteristic for z in ann for x in z.values())
        dense = [[field.element(z.get(j, 0)) for j in range(ncols)] for z in ann]
        assert naive_rref(dense, field) == naive_kernel(rows, ncols, field)
        assert row_span(Matrix(field, dense, ncols=ncols)).matrix().rows() == naive_kernel(
            rows, ncols, field)


def test_raw_multiples_of_p_are_zero_entries_over_gf_p():
    # Integers that are multiples of p are 0 in GF(p), not stored residues 0.
    F = PrimeField(7)
    assert integer_row(F, [7, 1, -14], 3) == ({1: 1}, 1)
    span = RowSpan(F, 2)
    assert span.add([7, 1]) and span.canonical_rows() == {1: {1: 1}}
    assert _contains(RowSpan(F, 2), [7, 0]) and not span.add([0, 14])


def test_row_span_contains():
    span = RowSpan(QQ, 3)
    span.add([Fraction(1), Fraction(2), Fraction(0)])
    assert _contains(span, [Fraction(2), Fraction(4), Fraction(0)])
    assert not _contains(span, [Fraction(0), Fraction(0), Fraction(1)])
