import functools
import hashlib
import json
import random
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from helpers import (
    NO_CHAIN_GF2,
    NotInSubspace,
    QuotientMap,
    assert_matches_oracles,
    bracket_span_oracle,
    center_oracle,
    chain_basis_series_oracle,
    change_basis_oracle,
    field_scalars_held,
    identity,
    jacobiator,
    leading_columns,
    naive_rref,
    nilpotent_corpus,
    quotient_coords_oracle,
    quotient_oracle,
    random_rational_vector,
    random_unimodular,
    row_span,
    scalar_table,
    series_oracle,
    subspace_reduce,
    table_of,
    unvalidated,
)
from liemult import algebra as algebra_module
from liemult import algfile, cli
from liemult.algebra import LieAlgebra, Subspace, build
from liemult.catalog import abelian, filiform_m2, filiform_q, standard_filiform
from liemult.errors import (
    BadScalarLiteral,
    DimensionMismatch,
    DimensionTooSmall,
    DuplicateBracket,
    FieldMismatch,
    IndexOutOfRange,
    JacobiViolation,
    LieError,
    NotAnIdeal,
    SingularMatrix,
)
from liemult.fields import QQ, PrimeField
from liemult.homology import multiplier_dim
from liemult.linalg import Matrix, RowSpan, integer_row
from liemult.words import free_defect, psi_image_dim

FILIFORM_4 = [(1, 2, 3, 1), (1, 3, 4, 1)]


def test_build_accepts_the_n4_filiform_relations():
    L = build(4, FILIFORM_4)
    assert L.bracket(L.basis_vector(0), L.basis_vector(1)) == L.basis_vector(2)
    assert L.bracket(L.basis_vector(0), L.basis_vector(2)) == L.basis_vector(3)


def test_build_accepts_abelian():
    L = build(3, [])
    assert not L._integer_table


def test_build_rejects_jacobi_violation_with_triple():
    # [[e1,e2],e3] + [[e2,e3],e1] + [[e3,e1],e2] = 0 + 0 + [e2,e3] = e1 here.
    with pytest.raises(JacobiViolation) as exc:
        build(3, [(1, 2, 3, 1), (1, 3, 3, 1), (2, 3, 1, 1)])
    assert exc.value.triple == (1, 2, 3)
    assert any(exc.value.defect)


def test_jacobi_defect_divisible_by_p_is_accepted_over_gf_p():
    # The cyclic defect of (e1, e2, e3) is 2e1 + 0 + 5e1 = 7e1: zero in
    # GF(7), a violation over Q.
    table = [(1, 2, 2, 2), (1, 3, 3, 5), (2, 3, 1, 1)]
    assert build(3, table, field=PrimeField(7)).n == 3
    with pytest.raises(JacobiViolation) as exc:
        build(3, table)
    assert exc.value.triple == (1, 2, 3)
    assert exc.value.defect == [7, 0, 0]


@pytest.mark.parametrize("field", [QQ, PrimeField(7)], ids=["Q", "GF7"])
def test_jacobi_violation_reports_the_defect_in_field_units(field):
    # Denominators 2, 3, 5 over Q, so the integer table is scaled by 30; the
    # reported defect is the field's own, e1/15 over Q.
    third = field.one / field.element(3)
    table = [(1, 2, 3, field.one / field.element(2)), (1, 3, 3, third),
             (2, 3, 1, field.one / field.element(5))]
    with pytest.raises(JacobiViolation) as exc:
        build(3, table, field=field)
    raw = unvalidated(3, {(i - 1, j - 1): {k - 1: c} for i, j, k, c in table}, field)
    e = [raw.basis_vector(t) for t in range(3)]
    assert exc.value.triple == (1, 2, 3)
    assert exc.value.defect == jacobiator(raw, *e)
    assert exc.value.defect[0] == field.one / field.element(15)


def _perturbed_dense_table(field, perturbation, n=9, seed=9):
    """Standard filiform-n with (i, j, k, c) added to its table, written in a
    seeded unimodular basis, with no validation on the way.  The catalog
    perturbations below land in γ₂ = <x3, ..., xn>, so dim γ₂ stays n - 2
    and construction still searches for a chain."""
    table: dict = {}
    for i, j, k, c in standard_filiform(n, field=field).structure_constants():
        table.setdefault((i - 1, j - 1), {})[k - 1] = c
    i, j, k, c = perturbation
    entry = table.setdefault((i - 1, j - 1), {})
    entry[k - 1] = entry.get(k - 1, field.zero) + field.element(c)
    raw = unvalidated(n, table, field)
    p = random_unimodular(random.Random(seed), n, field)
    return scalar_table(field, raw._table_in_basis([integer_row(field, r, n) for r in p.rows()]))


PERTURBATIONS = [(2, 3, 5, 1), (2, 4, 6, 1), (3, 4, 7, 2), (2, 3, 6, 1), (3, 5, 8, 1),
                 (2, 5, 7, 1)]


def _violation(make):
    with pytest.raises(JacobiViolation) as exc:
        make()
    return exc.value


@pytest.mark.parametrize("field", [QQ, PrimeField(7), PrimeField(2147483647)],
                         ids=["Q", "GF7", "GFp"])
@pytest.mark.parametrize("perturbation", PERTURBATIONS)
def test_route_taking_violation_names_the_input_basis_triple(field, perturbation):
    table = _perturbed_dense_table(field, perturbation)
    raw = unvalidated(9, table, field)
    assert raw._adapted is not None
    direct = _violation(raw._validate_jacobi)
    got = _violation(lambda: LieAlgebra(9, table, field=field))
    assert (got.triple, got.defect, str(got)) == (direct.triple, direct.defect, str(direct))


def test_route_taking_table_valid_over_gf7_only():
    # 7 x5 added to [x2, x3]: zero mod 7, and P is unimodular, so the
    # constants are integers that reduce to filiform-9 in the basis P.
    table = _perturbed_dense_table(QQ, (2, 3, 5, 7))
    assert all(c.denominator == 1 for comps in table.values() for c in comps.values())
    residues = {key: {k: c.numerator for k, c in comps.items()} for key, comps in table.items()}
    L7 = LieAlgebra(9, residues, field=PrimeField(7))
    assert L7._adapted is not None and L7.is_maximal_class()[0]
    raw = unvalidated(9, table)
    assert raw._adapted is not None
    direct = _violation(raw._validate_jacobi)
    got = _violation(lambda: LieAlgebra(9, table))
    assert (got.triple, got.defect) == (direct.triple, direct.defect)
    assert any(got.defect) and all(x.numerator % 7 == 0 for x in got.defect)


def test_violation_only_in_the_chain_basis_is_an_internal_error(monkeypatch):
    # Jacobi cannot fail in one basis and hold in another; a rewrite that
    # says so is a bug, and construction must not accept the input silently.
    L = standard_filiform(7).change_basis(random_unimodular(random.Random(7), 7))
    table: dict = {}
    for i, j, k, c in L.structure_constants():
        table.setdefault((i - 1, j - 1), {})[k - 1] = c
    original = LieAlgebra._table_in_basis

    def corrupted(self, p):
        rows, scale = original(self, p)
        entry = rows.setdefault((1, 2), {})
        entry[3] = entry.get(3, 0) + scale  # [f1, f2] += f3, and [f3, f0] = f4
        return rows, scale

    monkeypatch.setattr(LieAlgebra, "_table_in_basis", corrupted)
    with pytest.raises(RuntimeError, match="internal error"):
        LieAlgebra(7, table)


def test_cyclic_looking_table_actually_satisfies_jacobi():
    # Each cyclic term vanishes or cancels; this is a disguised simple algebra,
    # not a violation.
    L = build(3, [(1, 2, 1, 1), (1, 3, 2, 1), (2, 3, 3, 1)])
    assert not L.is_nilpotent()


def test_build_index_errors():
    with pytest.raises(IndexOutOfRange):
        build(3, [(2, 1, 3, 1)])  # i >= j
    with pytest.raises(IndexOutOfRange):
        build(3, [(1, 4, 3, 1)])  # j out of range
    with pytest.raises(IndexOutOfRange):
        build(3, [(1, 2, 5, 1)])  # k out of range
    with pytest.raises(DuplicateBracket):
        build(3, [(1, 2, 3, 1), (1, 2, 3, 2)])


@pytest.mark.parametrize("i,j,k", [(1.0, 2, 3), (1, 2.0, 3), (1, 2, 3.0)])
def test_construction_refuses_a_non_integer_index_or_dimension(i, j, k):
    # A float index or dimension passes the range checks, so it must be
    # refused by type, not left to a bare TypeError in ``_setup``.
    with pytest.raises(IndexOutOfRange, match="must be integers"):
        build(3, [(i, j, k, 1)])
    with pytest.raises(IndexOutOfRange, match="must be integers"):
        LieAlgebra(3, {(i - 1, j - 1): {k - 1: 1}})
    for n in (3.0, "3"):
        with pytest.raises(DimensionMismatch, match="nonnegative integer"):
            build(n, [(1, 2, 3, 1)])
        with pytest.raises(DimensionMismatch, match="nonnegative integer"):
            LieAlgebra(n, {(0, 1): {2: 1}})


@pytest.mark.parametrize("call,error", [
    (lambda: psi_image_dim(standard_filiform(6), 2.5), IndexOutOfRange),
    (lambda: free_defect(3.5), IndexOutOfRange),
    (lambda: standard_filiform(4.0), DimensionMismatch),
    (lambda: filiform_m2(6.0), DimensionMismatch),
    (lambda: filiform_q(6.0), DimensionMismatch),
    (lambda: abelian(2.0), DimensionMismatch),
    (lambda: LieAlgebra(3, {("0", 1): {2: 1}}), IndexOutOfRange),
    (lambda: LieAlgebra(3, {(0, 1): {"2": 1}}), IndexOutOfRange),
], ids=["psi_image_dim", "free_defect", "standard_filiform", "filiform_m2", "filiform_q",
        "abelian", "LieAlgebra-key", "LieAlgebra-component"])
def test_a_non_integer_degree_dimension_or_key_raises_a_toolkit_error(call, error):
    # Each is refused by type, not left to a bare TypeError in range() or in
    # the shift of a 0-based key.
    with pytest.raises(error):
        call()


@pytest.mark.parametrize("field", [QQ, PrimeField(7)], ids=["Q", "GF7"])
def test_construction_reads_constants_as_integers_with_the_field_errors(field):
    # Every spelling of a constant that ``field.element`` takes gives the
    # same algebra, and the one-pass conversion keeps the field's errors.
    third = Fraction(1, 3) if field == QQ else field.one / field.element(3)
    for c in (third, str(third) if field == QQ else "5", -2, "-2", field.element(-2)):
        want = build(3, [(1, 2, 3, field.element(c))], field=field)
        assert build(3, [(1, 2, 3, c)], field=field) == want
        assert LieAlgebra(3, {(0, 1): {2: c}}, field=field) == want
    zeros = LieAlgebra(3, {(0, 1): {2: 0, 1: "0"}, (0, 2): {1: field.zero}}, field=field)
    assert zeros._integer_table == {}
    other = QQ.element(Fraction(1, 2)) if field != QQ else PrimeField(5).one
    for bad, error in ((other, FieldMismatch), (1.5, FieldMismatch), ("1/0", BadScalarLiteral),
                       ("x", BadScalarLiteral)):
        with pytest.raises(error):
            build(3, [(1, 2, 3, bad)], field=field)
        with pytest.raises(error):
            LieAlgebra(3, {(0, 1): {2: bad}}, field=field)
    with pytest.raises(IndexOutOfRange):
        LieAlgebra(3, {(1, 0): {2: 1}}, field=field)
    with pytest.raises(IndexOutOfRange):
        LieAlgebra(3, {(0, 1): {3: 1}}, field=field)


def test_construction_keeps_no_table_of_the_caller():
    table = {(0, 1): {2: Fraction(1, 2)}, (0, 2): {3: Fraction(2, 3)}}
    L = LieAlgebra(4, table)
    assert not field_scalars_held(L) and L._scale == 6
    table[(0, 1)][2] = Fraction(5)
    table[(1, 2)] = {3: Fraction(1)}
    assert L.structure_constants() == ((1, 2, 3, Fraction(1, 2)), (1, 3, 4, Fraction(2, 3)))


def test_hash_reads_the_integer_rows():
    # The same algebra by build, by LieAlgebra(n, table) and by the parser,
    # with its keys in three different orders.
    constants = [(1, 3, 4, Fraction(2, 3)), (1, 2, 3, Fraction(1, 2)), (2, 3, 4, 0)]
    by_build = build(4, constants)
    by_table = LieAlgebra(4, {(0, 1): {2: Fraction(1, 2)}, (0, 2): {3: Fraction(2, 3)}})
    by_parser = algfile.parse_algebra(
        "lie-algebra v1\nfield Q\ndim 4\nbracket 1 2 3 1/2\nbracket 1 3 4 2/3\n")
    assert list(by_build._integer_table) != list(by_table._integer_table)
    algebras = [by_build, by_table, by_parser]
    assert len({hash(L) for L in algebras}) == 1
    assert all(L == by_build for L in algebras)
    assert not field_scalars_held(algebras)
    assert hash(by_build) != hash(build(4, constants[:1]))
    dense = standard_filiform(9).change_basis(random_unimodular(random.Random(9), 9))
    assert hash(dense) == hash(algfile.parse_algebra(algfile.serialize_algebra(dense)))
    assert not field_scalars_held(dense)


def test_bracket_antisymmetry_on_random_vectors():
    L = standard_filiform(5)
    rng = random.Random(2)
    for _ in range(50):
        x = random_rational_vector(rng, 5)
        assert not any(L.bracket(x, x))
        y = random_rational_vector(rng, 5)
        assert L.bracket(x, y) == [-e for e in L.bracket(y, x)]


def test_bracket_bilinearity():
    L = standard_filiform(6)
    rng = random.Random(8)
    for _ in range(25):
        x, y, z = (random_rational_vector(rng, 6) for _ in range(3))
        a, b = Fraction(rng.randint(-5, 5), 3), Fraction(rng.randint(-5, 5), 2)
        lhs = L.bracket([a * xi + b * yi for xi, yi in zip(x, y)], z)
        rhs = [a * p + b * q for p, q in zip(L.bracket(x, z), L.bracket(y, z))]
        assert lhs == rhs


def test_bracket_matches_table_in_n5_filiform():
    L = standard_filiform(5)
    assert L.bracket(L.basis_vector(0), L.basis_vector(3)) == L.basis_vector(4)


def test_jacobi_on_500_random_triples():
    rng = random.Random(4)
    for L in (standard_filiform(4), standard_filiform(6), standard_filiform(3)):
        for _ in range(500):
            x, y, z = (random_rational_vector(rng, L.n) for _ in range(3))
            assert not any(jacobiator(L, x, y, z))


def test_bracket_span_with_zero_and_abelian():
    L = standard_filiform(4)
    zero = Subspace.zero_space(QQ, 4)
    assert L._bracket_span(Subspace.full_space(QQ, 4)._rows.values(), zero._rows.values()).dim == 0
    A = abelian(3)
    full3 = Subspace.full_space(QQ, 3)._rows.values()
    assert A._bracket_span(full3, full3).dim == 0


@pytest.mark.parametrize(
    "algebra,expected",
    [
        (standard_filiform(4), (4, 2, 1, 0)),
        (abelian(5), (5, 0)),
        (standard_filiform(5), (5, 3, 2, 1, 0)),
    ],
)
def test_series_dims(algebra, expected):
    assert algebra.lower_central_series().dims() == expected


def test_series_monotone_and_recomputes():
    L = standard_filiform(6)
    series = L.lower_central_series()
    full = Subspace.full_space(QQ, 6)
    for a, b in zip(series.terms, series.terms[1:]):
        assert a.contains_subspace(b)
        assert bracket_span_oracle(L, a.basis.rows(), full.basis.rows()) == b.basis.rows()


def test_non_nilpotent_series_stabilizes():
    L = build(2, [(1, 2, 2, 1)])  # [e1, e2] = e2
    series = L.lower_central_series()
    assert not series.nilpotent
    assert series.dims() == (2, 1)
    assert L.nilpotency_class() is None


def _sl2_plus_line(field) -> LieAlgebra:
    """sl2 ⊕ (1-dim abelian) with h, e, f, z and [e, f] = h/2, so the
    rational table has a denominator."""
    half = field.one / field.element(2)
    return build(4, [(1, 2, 2, 2), (1, 3, 3, -2), (2, 3, 1, half)], field=field)


def _rationally_changed_filiform_6(field) -> LieAlgebra:
    """filiform-6 in a basis with denominators 2, 3 and 5, so the rational
    table has mixed denominators."""
    scale = Matrix(field, [[field.one / field.element(d) if i == j else field.zero
                            for j in range(6)] for i, d in enumerate((1, 2, 3, 5, 2, 1))])
    return standard_filiform(6, field=field).change_basis(
        scale @ random_unimodular(random.Random(6), 6, field))


SERIES_CASES = (
    [(f"basis-changed-filiform-{n}",
      lambda fld, n=n: standard_filiform(n, field=fld).change_basis(
          random_unimodular(random.Random(n), n, fld)))
     for n in range(6, 10)]
    + [
        ("rationally-changed-filiform-6", _rationally_changed_filiform_6),
        ("abelian-4", lambda fld: abelian(4, field=fld)),
        ("heisenberg", lambda fld: standard_filiform(3, field=fld)),
        ("e1e2=e2", lambda fld: build(2, [(1, 2, 2, 1)], field=fld)),
        ("sl2+line", _sl2_plus_line),
    ]
    + [(f"m2-{n}", lambda fld, n=n: filiform_m2(n, field=fld)) for n in (5, 8)]
    + [(f"Q-{n}", lambda fld, n=n: filiform_q(n, field=fld)) for n in (6, 8)]
)


@pytest.mark.parametrize("field", [QQ, PrimeField(7), PrimeField(2147483647)],
                         ids=["Q", "GF7", "GFp"])
@pytest.mark.parametrize("make", [m for _, m in SERIES_CASES],
                         ids=[name for name, _ in SERIES_CASES])
def test_series_matches_dense_bracket_oracle(make, field):
    L = make(field)
    oracle, nilpotent = series_oracle(L)
    series = L.lower_central_series()
    assert series.nilpotent == nilpotent
    assert [t.basis.rows() for t in series.terms] == oracle
    g2, g3 = series.gamma(2), series.gamma(3)
    product = Subspace(L.n, L._bracket_span(g2._rows.values(), g3._rows.values()))
    assert product.basis.rows() == bracket_span_oracle(L, g2.basis.rows(), g3.basis.rows())


@pytest.mark.parametrize("field", [QQ, PrimeField(7)], ids=["Q", "GF7"])
def test_sl2_plus_line_is_not_nilpotent(field):
    # [γ₂, L/γ₂ representatives] is 0 here, so a series that brackets only
    # against those would wrongly stop at 0.
    series = _sl2_plus_line(field).lower_central_series()
    assert not series.nilpotent
    assert series.dims() == (4, 3)


def test_center_examples():
    L4 = standard_filiform(4)
    assert L4.center() == Subspace.from_vectors(QQ, 4, [L4.basis_vector(3)])
    A = abelian(4)
    assert A.center() == Subspace.full_space(QQ, 4)
    L5 = standard_filiform(5)
    assert L5.center() == Subspace.from_vectors(QQ, 5, [L5.basis_vector(4)])


def test_center_commutes_with_everything():
    for L in (standard_filiform(6), standard_filiform(3)):
        for z in L.center().basis.rows():
            for j in range(L.n):
                assert not any(L.bracket(z, L.basis_vector(j)))


def test_is_maximal_class():
    ok, dims = standard_filiform(4).is_maximal_class()
    assert ok and dims == (4, 2, 1, 0)
    ok, _ = abelian(4).is_maximal_class()
    assert not ok
    ok, dims = standard_filiform(3).is_maximal_class()
    assert ok and dims == (3, 1, 0)
    with pytest.raises(DimensionTooSmall):
        abelian(2).is_maximal_class()


def test_maximal_class_characterization_agrees():
    # class == n-1  iff  dim L2 == n-2 with one-dimensional steps.
    for L in (standard_filiform(4), standard_filiform(7), abelian(4), standard_filiform(3)):
        ok, dims = L.is_maximal_class()
        series = L.lower_central_series()
        alt = (
            series.nilpotent
            and series.gamma(2).dim == L.n - 2
            and all(a - b == 1 for a, b in zip(dims[1:], dims[2:]))
        )
        assert ok == alt


def test_quotient_by_center_of_n4_filiform():
    L = standard_filiform(4)
    pres = L.quotient(L.center())
    q = pres.quotient
    assert q.n == 3
    assert q.structure_constants() == standard_filiform(3).structure_constants()


def test_quotient_by_whole_algebra_is_zero():
    L = standard_filiform(4)
    pres = L.quotient(Subspace.full_space(QQ, 4))
    assert pres.quotient.n == 0
    assert multiplier_dim(pres.quotient) == 0


def test_quotient_of_n5_filiform_by_center_is_n4_filiform():
    L = standard_filiform(5)
    pres = L.quotient(L.center())
    assert pres.quotient.structure_constants() == standard_filiform(4).structure_constants()


def _first_escaping_bracket(L, subspace):
    """(u, j, [u, e_j]) for the first basis row u and index j whose dense
    bracket leaves the subspace, tested by the rank of naive_rref."""
    rows = subspace.basis.rows()
    for u in rows:
        for j in range(L.n):
            w = L.bracket(u, L.basis_vector(j))
            if len(naive_rref(rows + [w], L.field)) > len(rows):
                return u, j, w
    return None


def test_quotient_rejects_non_ideal():
    L = standard_filiform(4)
    not_ideal = Subspace.from_vectors(QQ, 4, [L.basis_vector(2)])  # [x1, x3] = x4 escapes
    with pytest.raises(NotAnIdeal) as info:
        L.quotient(not_ideal)
    assert str(info.value) == "bracket of an ideal vector with x1 escapes the subspace"
    assert info.value.witness == (L.basis_vector(2), 0, [0, 0, 0, -1])


@pytest.mark.parametrize("field", [QQ, PrimeField(7), PrimeField(2147483647)],
                         ids=["Q", "GF7", "GFp"])
def test_quotient_ideal_check_matches_dense_oracle(field):
    # The check runs on the integer ad table; the witness must be the first
    # escaping (u, j) in basis-row order, with w the dense field vector.
    rng = random.Random(17)
    for L in (standard_filiform(6, field=field).change_basis(random_unimodular(rng, 6, field)),
              _rationally_changed_filiform_6(field)):
        series = L.lower_central_series()
        subspaces = [series.gamma(i) for i in range(1, len(series.terms))] + [L.center()]
        subspaces += [series.gamma(3).sum(Subspace.from_vectors(field, 6, [L.basis_vector(j)]))
                      for j in range(6)]
        subspaces.append(Subspace.from_vectors(
            field, 6, [[field.element(rng.randint(-3, 3)) for _ in range(6)] for _ in range(2)]))
        rejected = 0
        for s in subspaces:
            expected = _first_escaping_bracket(L, s)
            if expected is None:
                assert L.quotient(s).quotient.n == 6 - s.dim
                continue
            rejected += 1
            with pytest.raises(NotAnIdeal) as info:
                L.quotient(s)
            u, j, w = expected
            assert info.value.witness == (u, j, w)
            assert str(info.value) == (
                f"bracket of an ideal vector with {L.labels[j]} escapes the subspace")
        assert rejected >= 2


def test_quotient_functoriality_series_dims():
    # dims of the series of L/I match dims of (gamma_i + I)/I.
    for L in (standard_filiform(5), standard_filiform(6)):
        ideal = L.center()
        pres = L.quotient(ideal)
        qdims = pres.quotient.lower_central_series().dims()
        expected = []
        for term in L.lower_central_series().terms:
            expected.append(term.sum(ideal).dim - ideal.dim)
        # The quotient series may terminate earlier; compare the common prefix
        # padded with zeros.
        padded = tuple(expected) + (0,) * (len(qdims) - len(expected))
        assert qdims == padded[: len(qdims)]


def test_central_ideals_enumeration():
    L = standard_filiform(4)
    ideals = L.central_ideals()
    assert [i.dim for i in ideals] == [0, 1]
    A = abelian(2)
    assert [i.dim for i in A.central_ideals()] == [0, 1, 1, 2]
    H = standard_filiform(3)
    ideals = H.central_ideals()
    assert [i.dim for i in ideals] == [0, 1]
    assert ideals[1] == Subspace.from_vectors(QQ, 3, [H.basis_vector(2)])


def test_random_basis_change_preserves_structure():
    rng = random.Random(31)
    for L in (standard_filiform(4), standard_filiform(6)):
        base_dims = L.lower_central_series().dims()
        base_mult = multiplier_dim(L)
        for _ in range(5):
            p = random_unimodular(rng, L.n)
            conj = L.change_basis(p)  # construction revalidates Jacobi
            assert conj.lower_central_series().dims() == base_dims
            assert multiplier_dim(conj) == base_mult


def test_quotient_map_coordinates():
    L = standard_filiform(5)
    series = L.lower_central_series()
    qm = QuotientMap(Subspace.full_space(QQ, 5), series.gamma(2))
    assert qm.dim == 2
    assert qm.coords(L.basis_vector(0)) == [Fraction(1), Fraction(0)]
    assert qm.coords(L.basis_vector(1)) == [Fraction(0), Fraction(1)]
    assert qm.coords(L.basis_vector(3)) == [Fraction(0), Fraction(0)]
    inner = QuotientMap(series.gamma(2), series.gamma(3))
    assert inner.dim == 1
    assert inner.coords(L.basis_vector(2)) == [Fraction(1)]
    with pytest.raises(NotInSubspace):
        inner.coords(L.basis_vector(0))


@pytest.mark.parametrize("field", [QQ, PrimeField(7), PrimeField(2147483647)],
                         ids=["Q", "GF7", "GFp"])
def test_quotient_map_matches_independent_solver(field):
    # After a basis change the series terms are not coordinate subspaces, so
    # the pivot-column read-off is checked against solving the linear system.
    rng = random.Random(41)
    L = standard_filiform(6, field=field).change_basis(random_unimodular(rng, 6, field))
    series = L.lower_central_series()
    assert any(sum(1 for e in row if e) > 1 for row in series.gamma(2).basis.rows())
    for i in range(1, len(series.terms) - 1):
        sup, sub = series.gamma(i), series.gamma(i + 1)
        qm = QuotientMap(sup, sub)
        rows = sup.basis.rows()
        for _ in range(5):
            v = L.zero_vector()
            for row in rows:
                c = field.element(rng.randint(-5, 5))
                v = [a + c * b for a, b in zip(v, row)]
            assert qm.coords(v) == quotient_coords_oracle(sup, sub, v)
        outside = next((L.basis_vector(j) for j in range(L.n)
                        if not sup.contains_vector(L.basis_vector(j))), None)
        if outside is not None:
            with pytest.raises(NotInSubspace):
                qm.coords(outside)
            with pytest.raises(NotInSubspace):
                quotient_coords_oracle(sup, sub, outside)


REFUSALS = {
    "basis-vector-n": (lambda: standard_filiform(5).basis_vector(5), IndexOutOfRange),
    "bracket-wrong-length": (lambda: standard_filiform(5).bracket([1, 0, 0, 0], [0] * 5),
                             DimensionMismatch),
    "label-count": (lambda: build(3, FILIFORM_4[:1], labels=["a", "b"]), DimensionMismatch),
    "gamma-0": (lambda: standard_filiform(5).lower_central_series().gamma(0), IndexOutOfRange),
    "subspace-width": (lambda: Subspace(5, RowSpan(QQ, 4)), DimensionMismatch),
    "quotient-other-ambient": (lambda: standard_filiform(5).quotient(Subspace.zero_space(QQ, 4)),
                               DimensionMismatch),
    "quotient-other-field": (
        lambda: standard_filiform(5).quotient(Subspace.zero_space(PrimeField(7), 5)),
        FieldMismatch),
}


@pytest.mark.parametrize("name", REFUSALS)
def test_views_and_quotients_refuse_mismatched_arguments(name):
    call, error = REFUSALS[name]
    with pytest.raises(error):
        call()


def test_wrong_lengths_and_ambients_raise_dimension_mismatch():
    L = standard_filiform(5)
    g2 = L.lower_central_series().gamma(2)
    qm = QuotientMap(Subspace.full_space(QQ, 5), g2)
    for v in ([0, 0, 1], [0, 0, 1, 0, 0, 0, 0], {7: 1}):
        with pytest.raises(DimensionMismatch):
            g2.contains_vector(v)
        with pytest.raises(DimensionMismatch):
            qm.coords(v)
        with pytest.raises(DimensionMismatch):
            subspace_reduce(g2, v)
    for a, b in ((g2, Subspace.full_space(QQ, 3)), (Subspace.full_space(QQ, 3), g2)):
        with pytest.raises(DimensionMismatch):
            a.contains_subspace(b)
    assert issubclass(DimensionMismatch, LieError)
    with pytest.raises(FieldMismatch):
        g2.sum(Subspace.full_space(PrimeField(7), 5))
    with pytest.raises(FieldMismatch):
        g2.contains_subspace(Subspace.zero_space(PrimeField(7), 5))


FIELDS = [QQ, PrimeField(7), PrimeField(2147483647)]
FIELD_IDS = ["Q", "GF7", "GFp"]


def _basis_changed_filiform_6(field, seed=41):
    return standard_filiform(6, field=field).change_basis(
        random_unimodular(random.Random(seed), 6, field))


@pytest.mark.parametrize("field", FIELDS, ids=FIELD_IDS)
def test_equal_subspaces_compare_and_hash_equal_across_routes(field):
    L = _basis_changed_filiform_6(field)
    series = L.lower_central_series()
    g2, g3 = series.gamma(2), series.gamma(3)
    scales = [field.one / field.element(3), field.element(-5), field.element(4) / field.element(5)]

    def rebuilt(s):
        # The same rows reordered, scaled by nonunits, and the last row
        # replaced by its sum with the first, so the input is not echelon.
        rows = [[c * x for x in r] for c, r in zip(scales * 3, reversed(s.basis.rows()))]
        rows[-1] = [a + b for a, b in zip(rows[-1], rows[0])]
        return Subspace.from_vectors(field, 6, rows)

    for s in (g2, g3):
        routes = [rebuilt(s), Subspace(6, row_span(s.basis)), s.sum(g3),
                  rebuilt(s).sum(Subspace.zero_space(field, 6))]
        for other in routes:
            assert other == s and hash(other) == hash(s)
        assert len({s, *routes}) == 1
    half = g2.basis.rows()
    assert Subspace.from_vectors(field, 6, half[:2]).sum(
        Subspace.from_vectors(field, 6, half[2:])) == g2
    assert g2 != g3 and len({g2, g3, rebuilt(g2), rebuilt(g3)}) == 2
    keys = {g2: "g2", g3: "g3"}
    assert keys[rebuilt(g3)] == "g3" and keys[g3.sum(g2)] == "g2"
    coordinate = Subspace.from_vectors(field, 6, [L.basis_vector(j) for j in range(g3.dim)])
    assert coordinate.dim == g3.dim and not g3.contains_subspace(coordinate)
    assert coordinate != g3 and coordinate not in keys
    other_field = PrimeField(11) if field == QQ else QQ
    assert Subspace.full_space(other_field, 6) != series.gamma(1)


def _in_span(rows, v, field) -> bool:
    return len(naive_rref(rows + [v], field)) == len(naive_rref(rows, field))


@pytest.mark.parametrize("field", FIELDS, ids=FIELD_IDS)
def test_subspace_operations_match_naive_rref(field):
    rng = random.Random(43)
    L = _basis_changed_filiform_6(field)
    series = L.lower_central_series()
    ideals = list(series.terms) + [L.center()]
    others = [Subspace.from_vectors(
        field, 6, [[field.element(rng.randint(-3, 3)) for _ in range(6)] for _ in range(k)])
        for k in (1, 2, 3)]
    others += [series.gamma(3).sum(Subspace.from_vectors(field, 6, [L.basis_vector(j)]))
               for j in range(6)]
    zero = field.zero
    for s in ideals + others:
        rows = s.basis.rows()
        assert rows == naive_rref(rows, field)
        pivots = leading_columns(rows)
        vectors = [[field.element(rng.randint(-4, 4)) for _ in range(6)] for _ in range(4)]
        for _ in range(3):
            v = L.zero_vector()
            for row in rows:
                v = [a + field.element(rng.randint(-5, 5)) * b for a, b in zip(v, row)]
            vectors.append(v)
        for v in vectors:
            assert s.contains_vector(v) == _in_span(rows, v, field)
            w = subspace_reduce(s, v)
            dense = [w.get(j, zero) for j in range(6)]
            # The reduction is the unique vector congruent to v that is zero
            # at every pivot column.
            assert all(not dense[p] for p in pivots)
            assert _in_span(rows, [a - b for a, b in zip(v, dense)], field)
            assert subspace_reduce(s, {j: x for j, x in enumerate(v) if x}) == w
        for t in ideals + others:
            both = naive_rref(rows + t.basis.rows(), field)
            assert s.sum(t).basis.rows() == both
            assert s.dim_intersection(t) == s.dim + t.dim - len(both)


def _quotient_corpus(field):
    """Catalog filiform, m₂ and Qₙ, a seeded dense basis of each, and the
    rationally changed filiform-6, whose table has D > 1."""
    base = ([standard_filiform(n, field=field) for n in range(3, 10)]
            + [filiform_m2(n, field=field) for n in range(5, 10)]
            + [filiform_q(n, field=field) for n in (6, 8)])
    dense = [L.change_basis(random_unimodular(random.Random(L.n), L.n, field)) for L in base]
    return base + dense + [_rationally_changed_filiform_6(field)]


@pytest.mark.parametrize("field", FIELDS, ids=FIELD_IDS)
def test_quotient_matches_the_field_scalar_oracle(field):
    # Equality compares the scale and the integer rows, so the quotient's
    # (rows, D) must be the canonical form of the oracle's table.
    scaled = leads = 0
    for L in _quotient_corpus(field):
        ideals = [*L.central_ideals(), *L.lower_central_series().terms]
        for K in ideals:
            got, want = L.quotient(K).quotient, quotient_oracle(L, K)
            assert got == want
            assert got.structure_constants() == want.structure_constants()
            assert got.labels == want.labels
            scaled += got._scale > 1
            leads += any(row[c] > 1 for c, row in K._rows.items())
    assert not field.characteristic or scaled == leads == 0
    assert field.characteristic or (scaled and leads)


def test_central_ideals_guard_on_large_centers():
    from liemult.errors import ResourceLimit

    with pytest.raises(ResourceLimit):
        abelian(17).central_ideals()


def test_zero_dimensional_algebra():
    Z = LieAlgebra(0, {})
    assert Z.lower_central_series().dims() == (0,)
    assert Z.is_nilpotent()


CHANGE_OF_BASIS_CASES = [
    ("filiform-7", lambda fld: standard_filiform(7, field=fld)),
    ("m2-7", lambda fld: filiform_m2(7, field=fld)),
    ("Q-8", lambda fld: filiform_q(8, field=fld)),
    ("heisenberg", lambda fld: standard_filiform(3, field=fld)),
    ("rationally-changed-filiform-6", _rationally_changed_filiform_6),
]


@pytest.mark.parametrize("field", FIELDS, ids=FIELD_IDS)
@pytest.mark.parametrize("make", [m for _, m in CHANGE_OF_BASIS_CASES],
                         ids=[name for name, _ in CHANGE_OF_BASIS_CASES])
@pytest.mark.parametrize("unimodular", [True, False], ids=["unimodular", "scaled"])
def test_change_basis_matches_dense_oracle(field, make, unimodular):
    L = make(field)
    n = L.n
    p = random_unimodular(random.Random(10 * n + unimodular), n, field)
    if not unimodular:
        # Rows scaled by 2, 1/3, -1 and 5 in turn: det != 1, and over Q the
        # inverse has denominators.
        scales = [field.element(2), field.one / field.element(3), -field.one, field.element(5)]
        p = Matrix(field, [[scales[i % 4] * x for x in row] for i, row in enumerate(p.rows())])
    want = change_basis_oracle(L, p)
    got = L.change_basis(p).structure_constants()
    assert got == want
    assert [(i, j, k, str(c)) for i, j, k, c in got] == [(i, j, k, str(c)) for i, j, k, c in want]


@pytest.mark.parametrize("field", FIELDS, ids=FIELD_IDS)
def test_change_basis_puts_the_table_over_the_least_common_scale(field):
    # In the basis f_i = c e_i every constant is c times the old one, and
    # the kernel's rows all carry a factor that only cancels when each row
    # is put in lowest terms: over Q, c = 1/3 gives 3 T over 9.
    L = standard_filiform(7, field=field)
    for c in (field.element(2), field.one / field.element(3), field.element(6)):
        p = Matrix(field, [[c if i == j else field.zero for j in range(7)] for i in range(7)])
        got = L.change_basis(p)
        want = build(7, [(i, j, k, c * x) for i, j, k, x in L.structure_constants()],
                     field=field)
        assert got == want and got._scale == want._scale
        assert algfile.parse_algebra(algfile.serialize_algebra(got)) == got


def test_change_basis_rejects_a_singular_matrix():
    # det = 7: invertible over Q, singular over GF(7).
    rows = [[1, 1, 0], [1, 8, 0], [0, 0, 1]]
    standard_filiform(3, field=QQ).change_basis(Matrix(QQ, rows))
    with pytest.raises(SingularMatrix):
        standard_filiform(3, field=PrimeField(7)).change_basis(Matrix(PrimeField(7), rows))
    with pytest.raises(SingularMatrix):
        standard_filiform(4).change_basis(Matrix(QQ, [[1, 0, 0, 0], [0, 1, 0, 0],
                                                      [0, 1, 0, 0], [0, 0, 0, 1]]))


def test_change_basis_rejects_a_matrix_over_another_field():
    with pytest.raises(FieldMismatch):
        standard_filiform(4).change_basis(identity(PrimeField(7), 4))


def test_change_basis_rejects_a_matrix_of_the_wrong_shape():
    L = standard_filiform(4)
    with pytest.raises(DimensionMismatch):
        L.change_basis(identity(QQ, 5))
    with pytest.raises(DimensionMismatch):
        L.change_basis(Matrix(QQ, [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0]]))


# sha256 of the ``structure_constants()`` listings below, one "i j k c" line
# per constant, pinned from the dense-Matrix implementation of the change of
# basis.  Any change to the basis-change arithmetic must reproduce them.
PIN_BUILDERS = {"filiform": standard_filiform, "m2": filiform_m2, "Q": filiform_q}
REWRITE_PINS = {
    ("filiform", "Q"): ("d9ba6f5463ff120df7e651c352a963406ae373a6b2e3a4c7c990f846061b748a",
                        "23b79541790ddb98863f37e602ec430f0da8996ab583aa42ee9b708f4428ec7a"),
    ("m2", "Q"): ("4666430d4264b4da6bee00e913376599b34bef55aea9bb43e83697aaa1c193ee",
                  "0709e2cbc5999101305650cf888f1500024728dcca0b3beeaa2030b9852a575d"),
    ("Q", "Q"): ("2cfca938b96f470c056298522d6ea5269b02c4e9304243fbd0a568d320d379ca",
                 "3fde055c60fb2e72067508025fc72d004110535051371242c0e82c8a1081b1ad"),
    ("filiform", "GF7"): ("84338b372911d7d3de01af4c644ec1349a725550f8914d11e626c1058a36b85a",
                          "f58867220ac4081a2eae617bb26360080f85dc46eb6c9d9caba17fe2bb9f9972"),
    ("m2", "GF7"): ("0447de3485594167f75a1253dea8af8e1bd7eb2f27c702a7d223b9b9ca72efaf",
                    "6d2a60fb8fd65817fe4abbd582b9d850ff641d8b519b3dcdadae968aae593011"),
    ("Q", "GF7"): ("4144741c7b92b81c4af9c4dffd3b7f97a5b3bd35d599f8ab98b688c987795396",
                   "d106eb13aaf697c10c39062a49898d9d1316118edfdcecdd3a29873a8df985df"),
    ("filiform", "GFp"): ("687b57a4ffca19ed586aba31bdbf820069c91f2e438c31421024917d84321e9d",
                          "861ad188a515eb91d5790395eacd38f781ecc95c1bf317783279476367ab9c6b"),
    ("m2", "GFp"): ("83bc73e3659808f40463cacbf7bc7a8fe53291e8eaaca9c3c7ce64a85d82fd2f",
                    "a959127a344c61f3154b8fb1fa837cd7822c54edb213544e1848bd60280848b2"),
    ("Q", "GFp"): ("ea87c440760361efc14be1823522ab82fddf0b160b11a411c65f0389ee3a70fa",
                   "b1bbb7957ba00bf6a54533090efa61276e9da2775206c6aefca05e70d4d0d377"),
}
# Rows scaled by 2, 1/3, -1 and 5 in turn, so over Q the rows of P have
# scales 1 and 3 and the table has denominators; the rewrite of that table
# (second digest) then runs with D > 1.
SCALED_PINS = {
    ("filiform", "Q"): ("8dca6771c8643c4fa51ed7d054296f8aa89717b3afab6e7750f20cba6637939e",
                        "b6710cb4ea52f1e2bf70de1e0c3487ef74b9794ffb5a86ed208755a072d13464"),
    ("m2", "Q"): ("9845ef1b1d95abdb6a94f6909673c62483505daaa04291083fdc285e41704720",
                  "cb00cb01add077d84a24618945f27478524af6fa606a4e56793c615662da170f"),
    ("Q", "Q"): ("04b7a6a0adcf89c481625a2ca387d03e457384afea90b50a89485bb0b5b8fd3b",
                 "1317fff7f2103602baa21f016135c4f017050f437ba22b6de3f9524e8079d26b"),
    ("filiform", "GF7"): ("5d002a44090a907d7378a9977a15490d508a271c5d1f434b851876f02e3c5f87",
                          "e8acee1ce3fcda327c103da6b453f842a603c654df6b6be274dcb715b3adc1ff"),
    ("m2", "GF7"): ("3534d15bf3f3d55437e1d3b2398e1b0e9243aa28e56788dded549f373c9ba1c7",
                    "80a629b1bae88b6033cb62747342d2e0d0689f4146b451781b037e9eec15bd33"),
    ("Q", "GF7"): ("bf034d2c76012ad3e3d4219e57572186a8eb288b1c991f5eabef1be8568abfd6",
                   "d6dd24374368d0203d95acbca7eaa1a665f70b4487f017f6387c68e75a06a359"),
    ("filiform", "GFp"): ("35775cc688bcac7fb9b69bcebd30a8b6c27780ac3581d627bd214c6431981ddf",
                          "7d9293f02aafba04cfa12bc216e7add1b2048604e2e01aa7c2db7f0c4134a622"),
    ("m2", "GFp"): ("24a646364f815f5bb1eae1349ebdd29b87033fda637cc65667c489ab465aa413",
                    "536863fdffd32e909c0468bc54f073ec7e0365e8723b2dc4a63de57227aec36f"),
    ("Q", "GFp"): ("0806d7dc4e1f6cd7ddd3fbd224d2797f487b97a9a62850635f801d7dd3c517cc",
                   "737a43f2a08d8281bae83a47d96d69ebb8bbbfb3a9bee6957833064482814d4b"),
}
# P of determinant 7: the Q table is pinned, and over GF(7) P is singular.
DET7_PINS = {
    "filiform": "2a8f6701376dbb693d3e307c686baf55e97bc372442828081f3189d18a2cdfb5",
    "m2": "2aa631c201cb1c5923ee852ead7b0487680ffe1f37af27710b480d47139fbf48",
    "Q": "680fcb1bdadb61b61dd4e3c0c0fabe3e4b0108509370fc30edf317d583d62caf",
}


def _constants_digest(L: LieAlgebra) -> str:
    text = "".join(f"{i} {j} {k} {c}\n" for i, j, k, c in L.structure_constants())
    return hashlib.sha256(text.encode()).hexdigest()


def _det7_matrix(field, n: int) -> Matrix:
    b = [[field.one if i == j else field.zero for j in range(n)] for i in range(n)]
    b[0][1], b[1][0], b[1][1] = field.one, field.one, field.element(8)
    return Matrix(field, b) @ random_unimodular(random.Random(7 * n), n, field)


@pytest.mark.parametrize("field", FIELDS, ids=FIELD_IDS)
@pytest.mark.parametrize("family", sorted(PIN_BUILDERS))
def test_change_basis_and_rewrite_match_their_pins(family, field):
    fid = FIELD_IDS[FIELDS.index(field)]
    base = PIN_BUILDERS[family](10, field=field)
    dense = base.change_basis(random_unimodular(random.Random(10), 10, field))
    assert dense._adapted is not None
    digests = (_constants_digest(dense), _constants_digest(dense._adapted))
    assert digests == REWRITE_PINS[family, fid]
    p = random_unimodular(random.Random(11), 10, field).rows()
    scales = [field.element(2), field.one / field.element(3), -field.one, field.element(5)]
    scaled = base.change_basis(Matrix(field, [[scales[i % 4] * x for x in row]
                                              for i, row in enumerate(p)]))
    assert scaled._adapted is not None
    digests = (_constants_digest(scaled), _constants_digest(scaled._adapted))
    assert digests == SCALED_PINS[family, fid]


@pytest.mark.parametrize("family", sorted(PIN_BUILDERS))
def test_change_basis_singular_over_gf7_only_matches_its_pin(family):
    build_ = PIN_BUILDERS[family]
    assert _constants_digest(build_(10).change_basis(_det7_matrix(QQ, 10))) == DET7_PINS[family]
    gf7 = PrimeField(7)
    with pytest.raises(SingularMatrix):
        build_(10, field=gf7).change_basis(_det7_matrix(gf7, 10))


# -- the packed basis-change kernel ---------------------------------------------


def _table_constants(table) -> tuple:
    """A field-scalar table listed the way ``structure_constants()`` lists
    constants: 1-based, sorted by (i, j, k)."""
    return tuple(sorted((i + 1, j + 1, k + 1, c)
                        for (i, j), row in table.items() for k, c in row.items()))


@pytest.mark.parametrize("p", [2**31 - 1, 2**61 - 1], ids=["GF(2^31-1)", "GF(2^61-1)"])
def test_basis_change_kernel_matches_the_oracle_on_residues_above_half_p(p):
    # Every entry of P is a residue in [p/2, p), and so is about half of the
    # table of the first change: the packed digits run up to the full width.
    field, rng = PrimeField(p), random.Random(p % 1009)

    def high(n):
        return Matrix(field, [[rng.randrange(p // 2, p) for _ in range(n)] for _ in range(n)])

    for base in (standard_filiform(7, field=field), filiform_q(8, field=field)):
        first = high(base.n)
        L = base.change_basis(first)
        assert L.structure_constants() == change_basis_oracle(base, first)
        assert sum(2 * c.v >= p for *_, c in L.structure_constants()) > 50
        second = high(base.n)
        assert L.change_basis(second).structure_constants() == change_basis_oracle(L, second)


def test_basis_change_kernel_matches_the_oracle_on_rational_rows_with_negative_entries():
    # Rows with denominators 2 to 5 (every s_i > 1) and entries of both
    # signs: the packed digits are negative as often as positive, and the
    # second change runs on a table with D > 1.
    rng = random.Random(23)

    def rational(n):
        rows = [[Fraction(rng.choice((-1, 1)) * rng.randint(1, 9), rng.randint(2, 5))
                 for _ in range(n)] for _ in range(n)]
        assert all(integer_row(QQ, r, n)[1] > 1 for r in rows)
        return Matrix(QQ, rows)

    for base in (standard_filiform(7), filiform_m2(7), filiform_q(8)):
        first = rational(base.n)
        L = base.change_basis(first)
        assert L.structure_constants() == change_basis_oracle(base, first)
        assert L._scale > 1 and any(c < 0 for *_, c in L.structure_constants())
        second = rational(base.n)
        got = L.change_basis(second).structure_constants()
        want = change_basis_oracle(L, second)
        assert [(i, j, k, str(c)) for i, j, k, c in got] == [(i, j, k, str(c)) for i, j, k, c in want]


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_basis_change_kernel_matches_the_oracle_on_unvalidated_tables(data):
    # Tables that need not satisfy Jacobi, in dimensions 3 to 7.
    field = data.draw(st.sampled_from([QQ, PrimeField(7)]), label="field")
    n = data.draw(st.integers(3, 7), label="n")
    if field == QQ:
        scalars = st.fractions(min_value=-9, max_value=9, max_denominator=4)
    else:
        scalars = st.integers(0, 6)
    keys = st.tuples(st.integers(0, n - 2), st.integers(0, n - 1)).filter(lambda t: t[0] < t[1])
    table = data.draw(st.dictionaries(keys, st.dictionaries(st.integers(0, n - 1), scalars)),
                      label="table")
    rows = data.draw(st.lists(st.lists(scalars, min_size=n, max_size=n), min_size=n, max_size=n),
                     label="P")
    p = Matrix(field, rows)
    assume(len(naive_rref(p.rows(), field)) == n)
    L = unvalidated(n, table, field)
    got = L._table_in_basis([integer_row(field, r, n) for r in p.rows()])
    assert _table_constants(scalar_table(field, got)) == change_basis_oracle(L, p)


@pytest.mark.parametrize("bound", [1, 2, 3, 7, 8, 9, 2**31 - 2, 2**122, 3**200])
def test_digits_up_to_the_bound_decode_exactly(bound):
    # The kernel proves every digit at most the bound in absolute value, so
    # the width it takes for the bound must decode both ends of that range.
    width = algebra_module._digit_width(bound)
    digits = [bound, -bound, 0, bound - 1, 1 - bound, -bound, bound]
    packed = algebra_module._pack(dict(enumerate(digits)), width)
    assert algebra_module._unpack(packed, len(digits), width) == digits


# -- the γ₂ span that construction stops at n - 2 ------------------------------


def _cyclic_shift_algebra(field, n=6, seed=1) -> LieAlgebra:
    """e1 acting on the abelian ideal span(e2, …, en) by the cyclic shift
    e2 -> e3 -> … -> en -> e2, after a seeded basis change.  The shift is
    invertible, so γ₂ is that ideal, of dim n - 1, and L is not nilpotent."""
    cyclic = build(n, [(1, j, j + 1, 1) for j in range(2, n)] + [(1, n, 2, 1)], field=field)
    return cyclic.change_basis(random_unimodular(random.Random(seed), n, field))


CYCLIC_SHIFT_OUTPUT = {
    "check": "ok: {path}: dim 6 over {field}, not nilpotent\n",
    "series": "6 5  (stabilized: not nilpotent)\n",
}


@pytest.mark.parametrize("field", [QQ, PrimeField(2147483647)], ids=["Q", "GFp"])
def test_rewrite_made_on_the_partial_span_is_dropped(field, tmp_path, capsys, monkeypatch):
    L = _cyclic_shift_algebra(field)
    n = L.n
    calls = []
    table_in_basis = LieAlgebra._table_in_basis
    monkeypatch.setattr(LieAlgebra, "_table_in_basis",
                        lambda self, rows: calls.append(rows) or table_in_basis(self, rows))
    # The first n - 2 table rows are independent, so the span that the chain
    # search reads stops there, short of γ₂, and the search on that partial
    # span finds a chain ...
    table_rows = list(L._integer_table.values())
    partial = RowSpan(field, n)
    for row in table_rows[:n - 2]:
        partial.add_integers(row)
    assert partial.dim == n - 2 and len(table_rows) > n - 2
    probe = LieAlgebra.__new__(LieAlgebra)
    probe._setup(n, L._integer_table, L._scale, field, None)
    assert probe._chain_rewrite() is None
    rows = probe._chain
    assert rows is not None and any(len(v) > 1 for v in rows[2:])
    assert probe._chain_rows(partial) == rows
    # ... whose tail leaves the partial span, so γ₂ is larger and no basis
    # change is made for a rewrite that construction would drop.
    assert not partial.contains_integers(rows[-1])
    rebuilt = LieAlgebra(n, table_of(L), field=field)
    assert rebuilt == L and rebuilt._adapted is None
    assert L._adapted is None and L._chain == rows
    oracle, nilpotent = series_oracle(L)
    assert not nilpotent
    # The series spans all the table rows itself.
    for algebra in (L, probe):
        series = algebra.lower_central_series()
        assert not series.nilpotent
        assert [t.basis.rows() for t in series.terms] == oracle
    path = tmp_path / "cyclic.alg"
    path.write_text(algfile.serialize_algebra(L))
    for command, expected in CYCLIC_SHIFT_OUTPUT.items():
        assert cli.main([command, "--file", str(path)]) == 0
        assert capsys.readouterr().out == expected.format(path=path, field=field)
        assert cli.main([command, "--file", str(path), "--format", "machine"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert (doc["nilpotent"], doc["class"]) == (False, None)
        assert doc["series_dims" if command == "check" else "dims"] == [6, 5]
        if command == "check":
            assert doc["brackets"] == 90
    assert calls == []


@pytest.mark.parametrize("field", [QQ, PrimeField(2147483647)], ids=["Q", "GFp"])
def test_dense_filiform_13_leaves_gamma2_rows_pending(field, monkeypatch):
    base = standard_filiform(13, field=field)
    change = random_unimodular(random.Random(13), 13, field)
    added = []
    add_integers = RowSpan.add_integers
    monkeypatch.setattr(RowSpan, "add_integers",
                        lambda self, v: added.append(v) or add_integers(self, v))
    L = base.change_basis(change)
    monkeypatch.undo()
    # Construction proved dim γ₂ = 11 from the rewrite and reduced only the
    # first 11 of the 78 table rows into γ₂, never the remaining ones.
    assert L._adapted is not None
    table_rows = list(L._integer_table.values())
    reduced = [row for row in added if any(row is t for t in table_rows)]
    assert len(table_rows) == 78
    assert len(reduced) == 11 and all(r is t for r, t in zip(reduced, table_rows))
    oracle, nilpotent = series_oracle(L)
    series = L.lower_central_series()
    assert nilpotent and series.nilpotent
    assert [t.basis.rows() for t in series.terms] == oracle


@pytest.mark.parametrize("field", [QQ, PrimeField(2147483647)], ids=["Q", "GFp"])
def test_an_algebra_keeps_no_span_of_gamma2(field):
    # The chain search's partial span of γ₂ is dropped after construction:
    # no algebra holds a RowSpan, not L, not its rewrite, not its gr L.
    catalog = standard_filiform(9, field=field)
    dense = catalog.change_basis(random_unimodular(random.Random(9), 9, field))
    assert dense._adapted is not None
    for L in (catalog, dense, _cyclic_shift_algebra(field)):
        algebras = [L, L._adapted]
        if L.is_nilpotent():
            algebras.append(L._graded[0])
        for algebra in filter(None, algebras):
            assert "_derived" not in vars(algebra)
            assert not any(isinstance(v, RowSpan) for v in vars(algebra).values())


# -- the one-scan decision that a chain-basis rewrite is adapted ----------------


def _chain_basis_algebra(L):
    """L rewritten, without validation, in the generator chain that the
    construction-time search found on L's partial γ₂ span (``L._chain``),
    whether or not construction kept that rewrite; None when the search
    found no chain."""
    rows = L._chain
    if rows is None:
        return None
    table = scalar_table(L.field, L._table_in_basis([(r, 1) for r in rows]))
    return unvalidated(L.n, table, L.field)


def _scan_matches_oracle(A) -> bool:
    """Assert that the scan decides as the series rule does and that a
    passing scan gives the rule's terms; return the decision."""
    scanned, oracle = A._chain_basis_series(), chain_basis_series_oracle(A)
    assert (scanned is None) == (oracle is None)
    assert scanned == oracle
    return scanned is not None


SCAN_CASES = ([(standard_filiform, n) for n in range(3, 13)]
              + [(filiform_m2, n) for n in range(5, 13)]
              + [(filiform_q, n) for n in range(6, 13, 2)])


@pytest.mark.parametrize("field", FIELDS, ids=FIELD_IDS)
def test_adaptedness_scan_matches_the_series_rule_on_basis_changes(field):
    adapted = 0
    for family, n in SCAN_CASES:
        base = family(n, field=field)
        _scan_matches_oracle(_chain_basis_algebra(base))
        for seed in (1, 2):
            L = base.change_basis(random_unimodular(random.Random(100 * n + seed), n, field))
            A = L._chain_rewrite()
            if A is None:
                continue
            oracle = chain_basis_series_oracle(A)
            # Construction keeps A as the adapted basis exactly when the rule
            # holds, and then A's series is the rule's, set by the scan.
            assert (L._adapted == A) == (oracle is not None)
            assert A.lower_central_series() == oracle
            adapted += _scan_matches_oracle(A)
    assert adapted == 2 * len(SCAN_CASES)


@pytest.mark.parametrize("field", FIELDS, ids=FIELD_IDS)
def test_adaptedness_scan_on_tables_that_are_not_lie_or_not_nilpotent(field):
    # The one-constant Jacobi-breaking dense filiform-12 of the CI check and
    # the catalog perturbations: a rewrite is made on each.
    for perturbation, n, seed in [((2, 3, 5, 1), 12, 12)] + [(p, 9, 9) for p in PERTURBATIONS]:
        L = unvalidated(n, _perturbed_dense_table(field, perturbation, n, seed), field)
        rewrite = L._chain_rewrite()
        assert rewrite is not None
        # Construction keeps the rewrite exactly when it passes the scan.
        assert (L._adapted is not None) == _scan_matches_oracle(rewrite)
    # A dense basis of the non-nilpotent [x1, x2] = x3, [x1, x3] = x3 has a
    # rewrite that fails the scan and the rule alike, and is not kept.
    L = build(3, [(1, 2, 3, 1), (1, 3, 3, 1)], field=field).change_basis(
        random_unimodular(random.Random(3), 3, field))
    rewrite = L._chain_rewrite()
    assert rewrite is not None and not _scan_matches_oracle(rewrite)
    assert L._adapted is None
    # The cyclic shift: construction makes no rewrite, and the rewrite it
    # skipped fails the scan and the rule alike.
    assert not _scan_matches_oracle(_chain_basis_algebra(_cyclic_shift_algebra(field)))


def test_adaptedness_scan_has_nothing_to_decide_without_a_chain():
    F = PrimeField(2, allow_char_two=True)
    graded = build(8, NO_CHAIN_GF2, field=F)
    dense = graded.change_basis(random_unimodular(random.Random(8), 8, F))
    for L in (graded, dense):
        assert _chain_basis_algebra(L) is None
        assert L._adapted is None


@functools.cache
def _chain_basis_table(family, n, field):
    dense = family(n, field=field).change_basis(random_unimodular(random.Random(n), n, field))
    return table_of(_chain_basis_algebra(dense))


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_adaptedness_scan_matches_the_series_rule_after_one_changed_constant(data):
    field = data.draw(st.sampled_from(FIELDS), label="field")
    family, n = data.draw(st.sampled_from(SCAN_CASES), label="algebra")
    a = data.draw(st.integers(0, n - 2), label="a")
    b = data.draw(st.integers(a + 1, n - 1), label="b")
    # The rows [e_1, e_0], …, [e_{n-2}, e_0] carry the chain; any other
    # constant may change.
    assume(not (a == 0 and b <= n - 2))
    k = data.draw(st.integers(0, n - 1), label="k")
    c = data.draw(st.integers(-3, 3), label="c")
    table = {key: dict(comps) for key, comps in _chain_basis_table(family, n, field).items()}
    table.setdefault((a, b), {})[k] = field.element(c)
    _scan_matches_oracle(unvalidated(n, table, field))


# -- series and center read off the table --------------------------------------


def _direct_sum(L, M):
    """L ⊕ M, M's basis following L's."""
    n = L.n
    shifted = [(i + n, j + n, k + n, c) for i, j, k, c in M.structure_constants()]
    return build(n + M.n, [*L.structure_constants(), *shifted], field=L.field)


def _assert_series_and_center_match_oracles(L):
    oracle, nilpotent = series_oracle(L)
    series = L.lower_central_series()
    assert series.nilpotent == nilpotent
    assert [t.basis.rows() for t in series.terms] == oracle
    assert L.center().basis.rows() == center_oracle(L)


# Dense basis changes stop at dimension 10: the oracles evaluate every dense
# bracket on the full table, which costs seconds per algebra over Q past it.
# They are made of the catalog algebras only: the central quotient of
# filiform-n or Qₙ is filiform-(n - 1), and that of m₂-n is m₂-(n - 1).
ROUTE_FAMILIES = ([(standard_filiform, n) for n in range(3, 17)]
                  + [(filiform_m2, n) for n in range(5, 15)]
                  + [(filiform_q, n) for n in range(6, 15, 2)])
DENSE_ROUTE_MAX_DIM = 10


@pytest.mark.parametrize("field", FIELDS, ids=FIELD_IDS)
def test_series_and_center_match_the_oracles_on_maximal_class_input(field):
    for family, n in ROUTE_FAMILIES:
        L = family(n, field=field)
        Z = L.quotient(L.center()).quotient
        # The catalog filiform, m₂ and Qₙ bases and every central quotient
        # pass the scan (Qₙ/Z is filiform); Qₙ with s = x₁ + x₂.
        assert L._chain_basis_series() is not None
        assert Z.n < 3 or Z._chain_basis_series() is not None
        for M in (L, Z):
            assert M.nilpotency_class() == M.n - 1
            _assert_series_and_center_match_oracles(M)
        if n > DENSE_ROUTE_MAX_DIM:
            continue
        for seed in (1, 2):
            dense = L.change_basis(random_unimodular(random.Random(100 * n + seed), n, field))
            assert n <= 4 or dense._adapted is not None
            _assert_series_and_center_match_oracles(dense)


@pytest.mark.parametrize("field", FIELDS, ids=FIELD_IDS)
def test_series_and_center_match_the_oracles_below_maximal_class(field):
    cases = [abelian(4, field=field),
             _direct_sum(standard_filiform(3, field=field), abelian(2, field=field))]
    cases += [_direct_sum(standard_filiform(k, field=field), standard_filiform(k, field=field))
              for k in (4, 5)]
    for L in cases:
        assert L._chain_basis_series() is None
        variants = [L] + [L.change_basis(random_unimodular(random.Random(seed), L.n, field))
                          for seed in (1, 2)]
        for M in variants:
            _assert_series_and_center_match_oracles(M)
            if M._integer_table:
                _assert_series_and_center_match_oracles(M.quotient(M.center()).quotient)


@pytest.mark.parametrize("field", [QQ, PrimeField(7)], ids=["Q", "GF7"])
@pytest.mark.parametrize("summands", [(4, 4), (3, 2)], ids=["filiform-4+filiform-4",
                                                          "heisenberg+abelian-2"])
def test_center_below_maximal_class_makes_no_field_scalar(field, summands, monkeypatch):
    # Both sums have class below n - 1, so the center is the annihilator of
    # the integer ad table's columns; filiform-3 is the Heisenberg algebra.
    m, k = summands
    L = _direct_sum(standard_filiform(m, field=field),
                    standard_filiform(k, field=field) if k > 2 else abelian(k, field=field))
    L = L.change_basis(random_unimodular(random.Random(L.n), L.n, field))

    def refuse(*args):
        raise AssertionError("the center made field scalars")

    with monkeypatch.context() as patch:
        patch.setattr(LieAlgebra, "_entry_scalar", refuse)
        patch.setattr(Matrix, "__init__", refuse)
        center = L.center()
    assert L.nilpotency_class() < L.n - 1
    assert center.basis.rows() == center_oracle(L)


def _count_calls(monkeypatch, name, owner=LieAlgebra):
    """Record the instance of every call of the method ``name`` of
    ``owner``."""
    seen = []
    method = getattr(owner, name)

    def counted(self):
        seen.append(self)
        return method(self)

    monkeypatch.setattr(owner, name, counted)
    return seen


def test_filiform_report_reads_every_series_and_center_off_the_table(monkeypatch, capsys):
    own = _count_calls(monkeypatch, "_own_series")
    kernels = _count_calls(monkeypatch, "annihilator", RowSpan)
    assert cli.main(["report", "--family", "filiform", "--max-dim", "14",
                     "--format", "machine"]) == 0
    assert len(json.loads(capsys.readouterr().out)["reports"]) == 12
    # The scan needs n >= 3, so the one algebra left to compute its own
    # series is the abelian L/Z of filiform-3.
    assert [(A.n, not A._integer_table) for A in own] == [(2, True)]
    assert kernels == []


@pytest.mark.parametrize("field", FIELDS, ids=FIELD_IDS)
def test_q_series_is_read_off_one_scan_with_the_chain_generator(field, monkeypatch):
    # Qₙ fails the link test with e_0 ([x₁, xₙ₋₁] = 0) and passes it with the
    # generator x₁ + x₂ of the chain that construction finds.
    own = _count_calls(monkeypatch, "_own_series")
    algebras = [filiform_q(n, field=field) for n in range(6, 65, 2)]
    series = [L.lower_central_series() for L in algebras]
    assert own == []
    for L, got in zip(algebras, series):
        assert L._chain[0] == {0: 1, 1: 1} and L._adapted is None
        assert got == L._own_series()
        assert got.dims() == (L.n, *range(L.n - 2, -1, -1))


def _filiform_7_table(field, changes=()):
    """Catalog filiform-7 as a field-scalar table with each 0-based
    ((i, j), row) in ``changes`` set, an empty row deleting the key."""
    table = table_of(standard_filiform(7, field=field))
    for key, row in changes:
        if row:
            table[key] = {k: field.element(c) for k, c in row.items()}
        else:
            del table[key]
    return table


@pytest.mark.parametrize("field", FIELDS, ids=FIELD_IDS)
def test_tables_that_fail_the_scan_compute_their_own_series(field, monkeypatch):
    own = _count_calls(monkeypatch, "_own_series")
    cases = [
        # [x1, x4] = x5 deleted: still a Lie algebra, of class 3, whose table
        # passes the index test but not the link.
        LieAlgebra(7, _filiform_7_table(field, [((0, 3), {})]), field=field),
        abelian(5, field=field),
        abelian(1, field=field),
        abelian(2, field=field),
        build(2, [(1, 2, 2, 1)], field=field),  # not nilpotent
    ]
    for L in cases:
        assert L._chain_basis_series() is None and L._adapted is None
        _assert_series_and_center_match_oracles(L)
    assert own == cases
    assert cases[0].nilpotency_class() == 3


@pytest.mark.parametrize("field", FIELDS, ids=FIELD_IDS)
def test_scan_gives_the_definitional_series_of_a_table_that_breaks_jacobi(field, monkeypatch):
    # filiform-7 with [x2, x3] = x6: the Jacobiator of (x1, x2, x3) is x7.
    L = unvalidated(7, _filiform_7_table(field, [((1, 2), {5: 1})]), field)
    with pytest.raises(JacobiViolation):
        L._validate_jacobi()
    own = _count_calls(monkeypatch, "_own_series")
    kernels = _count_calls(monkeypatch, "annihilator", RowSpan)
    assert L._chain_basis_series() is not None
    _assert_series_and_center_match_oracles(L)
    assert own == [] and kernels == []


# -- a random nilpotent corpus ---------------------------------------------------


@pytest.mark.parametrize("field", [QQ, PrimeField(3), PrimeField(7), PrimeField(2**31 - 1)],
                         ids=["Q", "GF3", "GF7", "GFp"])
def test_random_nilpotent_algebras_agree_with_the_oracles(field):
    # Central extensions of every class, most of them below maximal class,
    # in their own basis and in a dense one: the raw route and the rewrite.
    for L in nilpotent_corpus(field, range(8), 9):
        assert_matches_oracles(L)
