import hashlib
import itertools
import json
import random
import tracemalloc
from math import comb

import pytest

from helpers import (
    NO_CHAIN_GF2,
    GeneratorSearchFailed,
    NotMaximalClass,
    boundary_oracle,
    chain_rows_as_vectors,
    entry_algebra,
    filiform_square,
    free_class_two,
    generator_chain,
    has_generator_chain_oracle,
    is_zero,
    multiplier_oracle,
    random_unimodular,
    row_span,
    series_oracle,
    truncated_witt,
)
from liemult import homology
from liemult.algebra import LieAlgebra, build
from liemult.catalog import (
    abelian,
    entries,
    filiform_m2,
    filiform_q,
    standard_filiform,
)
from liemult.errors import NonNilpotent, ResourceLimit
from liemult.fields import QQ, PrimeField
from liemult.homology import boundary_matrices, multiplier_dim
from liemult.linalg import Matrix


def test_abelian_boundaries_are_zero():
    pair = boundary_matrices(abelian(4))
    assert is_zero(pair.d2) and is_zero(pair.d3)


def _wedge(n, a, b):
    """The column of e_a ∧ e_b, a < b: its lexicographic position."""
    return a * n - a * (a + 1) // 2 + b - a - 1


def test_d3_rows_of_n4_filiform():
    # Hand expansion: d3(x1^x2^x3) = [x1,x2]^x3 - [x1,x3]^x2 + [x2,x3]^x1
    #                              = x3^x3 - x4^x2 + 0 = x2^x4.
    L = standard_filiform(4)
    pair = boundary_matrices(L)
    triples = list(itertools.combinations(range(4), 3))  # d3's rows, in this order
    row = pair.d3.row(triples.index((0, 1, 2)))
    expected = [QQ.zero] * comb(4, 2)
    expected[_wedge(4, 1, 3)] = QQ.one
    assert row == expected
    # d3(x1^x3^x4) = x4^x4 - 0 + 0 = 0.
    assert not any(pair.d3.row(triples.index((0, 2, 3))))


def test_d2_rank_and_kernel_of_n4_filiform():
    # Hand row-reduction: only two nonzero boundary rows (x3 and x4), rank 2.
    pair = boundary_matrices(standard_filiform(4))
    assert pair.d2.rank() == 2
    d2t = Matrix(QQ, zip(*pair.d2.rows()), ncols=pair.d2.nrows)
    cycles = row_span(d2t).annihilator()  # 2-cycles, as integer rows in degree 2
    assert len(cycles) == 6 - 2
    # im d3 is contained in the cycles: the sum adds nothing.
    union = Matrix(QQ, [[z.get(j, 0) for j in range(6)] for z in cycles] + pair.d3.rows())
    assert union.rank() == 4


def test_chain_condition_on_catalog():
    for entry in entries():
        pair = boundary_matrices(entry_algebra(entry))
        assert is_zero(pair.d3 @ pair.d2)


def test_chain_condition_under_random_basis_change():
    rng = random.Random(41)
    L = standard_filiform(5)
    for _ in range(5):
        conj = L.change_basis(random_unimodular(rng, 5))
        pair = boundary_matrices(conj)
        assert is_zero(pair.d3 @ pair.d2)


@pytest.mark.parametrize(
    "algebra,expected",
    [
        (standard_filiform(4), 2),
        (standard_filiform(5), 3),
        (standard_filiform(3), 2),
        (abelian(3), 3),
        (abelian(6), 15),
    ],
)
def test_multiplier_dims(algebra, expected):
    assert multiplier_dim(algebra) == expected


def test_multiplier_dim_abelian_closed_form():
    for n in range(1, 7):
        assert multiplier_dim(abelian(n)) == n * (n - 1) // 2


def test_multiplier_invariant_under_basis_change():
    rng = random.Random(43)
    for L in (standard_filiform(4), standard_filiform(6), standard_filiform(3)):
        want = multiplier_dim(L)
        for _ in range(5):
            assert multiplier_dim(L.change_basis(random_unimodular(rng, L.n))) == want


def test_multiplier_rejects_non_nilpotent():
    L = build(2, [(1, 2, 2, 1)])
    with pytest.raises(NonNilpotent):
        multiplier_dim(L)


GUARD_MESSAGE = "dimension 65 exceeds the homology guard (64)"


def test_dimension_guard():
    with pytest.raises(ResourceLimit) as raised:
        multiplier_dim(abelian(65))
    assert str(raised.value) == GUARD_MESSAGE
    with pytest.raises(ResourceLimit) as raised:
        boundary_matrices(abelian(65))
    assert str(raised.value) == GUARD_MESSAGE


def test_multiplier_over_prime_field():
    from liemult.fields import PrimeField

    F = PrimeField(3)
    assert multiplier_dim(standard_filiform(4, field=F)) == 2
    assert multiplier_dim(standard_filiform(5, field=F)) == 3


def test_boundary_shapes():
    L = standard_filiform(6)
    pair = boundary_matrices(L)
    assert pair.d2.shape == (comb(6, 2), 6)
    assert pair.d3.shape == (comb(6, 3), comb(6, 2))


# -- the generator-chain route of multiplier_dim ---------------------------------

FIELDS = [QQ, PrimeField(7), PrimeField(2147483647)]
FIELD_IDS = ["Q", "GF7", "GFp"]

def _raw_multiplier_dim(L):
    """dim M from the complex of L in L's own basis."""
    pair = boundary_matrices(L)
    return comb(L.n, 2) - pair.d2.rank() - pair.d3.rank()


def _coordinate_series(L):
    return all(len(row) == 1 for term in L.lower_central_series().terms
               for row in term._rows.values())


def _changed(L, seed):
    return L.change_basis(random_unimodular(random.Random(seed), L.n, L.field))


@pytest.mark.parametrize("field", FIELDS, ids=FIELD_IDS)
@pytest.mark.parametrize("family,n", [(standard_filiform, 9), (filiform_m2, 9), (filiform_q, 8)],
                         ids=["filiform-9", "m2-9", "Q-8"])
def test_maximal_class_input_takes_the_generator_chain_basis(field, family, n):
    base = family(n, field=field)
    L = _changed(base, n)
    assert not _coordinate_series(L)
    assert multiplier_dim(L) == _raw_multiplier_dim(L) == multiplier_dim(base)
    adapted = L._adapted
    assert adapted is not None and _coordinate_series(adapted)
    assert len(adapted.structure_constants()) < len(L.structure_constants())
    # A catalog basis is already adapted, so it keeps its own basis.
    assert _coordinate_series(base) and base._adapted is None
    # The quotient by the center, as verify_central_quotient_bound forms it.
    quotient = L.quotient(L.center()).quotient
    assert multiplier_dim(quotient) == _raw_multiplier_dim(quotient)
    assert quotient._adapted is not None


def test_non_maximal_class_input_keeps_its_basis():
    # filiform-5 ⊕ line: dim M = 3 + 0 + dim(L/L²) · 1 = 5.
    L = _changed(build(6, [(1, 2, 3, 1), (1, 3, 4, 1), (1, 4, 5, 1)]), 5)
    assert not _coordinate_series(L)
    assert multiplier_dim(L) == _raw_multiplier_dim(L) == 5
    assert L._adapted is None


def test_input_without_a_generator_chain_keeps_its_basis():
    F = PrimeField(2, allow_char_two=True)
    graded = build(8, NO_CHAIN_GF2, field=F)
    assert graded.is_maximal_class()[0]
    L = _changed(graded, 8)
    assert not _coordinate_series(L)
    for A in (graded, L):  # no line of L/γ₂ has a chain, and the search finds none
        assert not has_generator_chain_oracle(A)
        with pytest.raises(GeneratorSearchFailed):
            generator_chain(A)
    # Every line of L/γ₂ fails the construction-time search too.
    assert L._rewrite is None and L._adapted is None
    oracle, nilpotent = series_oracle(L)
    assert nilpotent and [t.basis.rows() for t in L.lower_central_series().terms] == oracle
    assert multiplier_dim(L) == _raw_multiplier_dim(L) == multiplier_dim(graded)


def _direction(L):
    """The direction of L/γ₂ that the construction-time chain search took as s."""
    s, s1 = L._rewrite[0][:2]
    if len(s) == 2:
        return "e_a + t e_b"
    return "e_a" if min(s) < min(s1) else "e_b"


# (family, n, seed of the basis change, direction the search takes).  Qₙ has
# two-step centralizers through x1 and x2, so a basis whose free columns of γ₂
# point along them needs e_a + t e_b.
ROUTE_CASES = [
    (standard_filiform, 7, 0, "e_a"),
    (standard_filiform, 7, 4, "e_b"),
    (filiform_m2, 9, 0, "e_a"),
    (filiform_m2, 9, 1, "e_b"),
    (filiform_q, 8, 1, "e_a"),
    (filiform_q, 8, 23, "e_b"),
    (filiform_q, 8, 55, "e_a + t e_b"),
    (filiform_q, 6, 54, "e_a + t e_b"),
]


@pytest.mark.parametrize("field", FIELDS, ids=FIELD_IDS)
@pytest.mark.parametrize("family,n,seed,direction", ROUTE_CASES,
                         ids=[f"{f.__name__}-{n}-seed{s}" for f, n, s, _ in ROUTE_CASES])
def test_series_in_the_chain_basis_matches_the_oracle(field, family, n, seed, direction):
    L = _changed(family(n, field=field), seed)
    assert L._rewrite is not None and _direction(L) == direction
    oracle, nilpotent = series_oracle(L)
    series = L.lower_central_series()
    assert series.nilpotent and nilpotent
    assert [t.basis.rows() for t in series.terms] == oracle
    assert L._adapted is L._rewrite[1]
    assert multiplier_dim(L) == _raw_multiplier_dim(L)


@pytest.mark.parametrize("field", FIELDS, ids=FIELD_IDS)
@pytest.mark.parametrize("family,n,seed,direction", ROUTE_CASES,
                         ids=[f"{f.__name__}-{n}-seed{s}" for f, n, s, _ in ROUTE_CASES])
def test_generator_chain_is_the_chain_of_the_rewrite(field, family, n, seed, direction):
    L = _changed(family(n, field=field), seed)
    assert L._rewrite is not None and _direction(L) == direction
    chain = generator_chain(L)
    assert [chain.s, chain.s1, *chain.tail] == chain_rows_as_vectors(L, L._rewrite[0])


@pytest.mark.parametrize("field", FIELDS, ids=FIELD_IDS)
def test_series_in_the_chain_basis_of_a_non_nilpotent_algebra(field):
    # [x1, x2] = x3, [x1, x3] = x3: γ₂ = <x3> = γ₃, and the chain (x1, x2, -x3)
    # is a basis, so a dense basis has a rewrite, but it fails the scan since
    # L is not nilpotent, and L keeps its own table.
    L = _changed(build(3, [(1, 2, 3, 1), (1, 3, 3, 1)], field=field), 3)
    assert L._chain_rewrite() is not None
    assert L._rewrite is None and L._adapted is None
    oracle, nilpotent = series_oracle(L)
    series = L.lower_central_series()
    assert not series.nilpotent and not nilpotent
    assert [t.basis.rows() for t in series.terms] == oracle


@pytest.mark.parametrize("field", FIELDS, ids=FIELD_IDS)
def test_catalog_bases_and_their_central_quotients_store_no_rewrite(field):
    algebras = ([standard_filiform(n, field=field) for n in range(3, 15)]
                + [filiform_m2(n, field=field) for n in range(5, 15)]
                + [filiform_q(n, field=field) for n in range(6, 15, 2)])
    if field == QQ:
        algebras += [entry_algebra(e) for e in entries()]
    for L in algebras:
        ideals = L.central_ideals() if L.n <= 8 else [L.center()]
        for A in [L] + [L.quotient(K).quotient for K in ideals]:
            assert A._rewrite is None and A._adapted is None


# -- memory of the complex -------------------------------------------------------


@pytest.mark.parametrize("field", [QQ, PrimeField(2147483647)], ids=["Q", "GFp"])
def test_boundary_matrices_hold_the_complex_once(field):
    # The rows are generated into the matrices, so the traced peak stays near
    # the pointer bytes of d3 alone; a list of raw rows built beside the
    # matrix, then copied, peaks at about 2.3 times that.
    n = 20
    L = standard_filiform(n, field=field)
    L._table  # built on first use; not part of the complex
    tracemalloc.start()
    try:
        pair = boundary_matrices(L)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert pair.d3.shape == (comb(n, 3), comb(n, 2))
    assert peak < 1.5 * comb(n, 3) * comb(n, 2) * 8


# -- the truncated Witt algebra, whose answer depends on the characteristic -------

WITT_FIELDS = [QQ, PrimeField(5), PrimeField(7), PrimeField(2147483647)]
WITT_FIELD_IDS = ["Q", "GF5", "GF7", "GFp"]


@pytest.mark.parametrize("field", WITT_FIELDS, ids=WITT_FIELD_IDS)
def test_witt_multiplier_matches_the_dense_complex_oracle(field):
    for n in range(2, 15):
        L = truncated_witt(n, field)
        assert multiplier_dim(L) == multiplier_oracle(L), n


@pytest.mark.parametrize("field", WITT_FIELDS, ids=WITT_FIELD_IDS)
@pytest.mark.parametrize("n", [7, 9])
def test_witt_multiplier_in_a_dense_basis_matches_the_oracle(field, n):
    L = _changed(truncated_witt(n, field), n)
    assert multiplier_dim(L) == multiplier_oracle(L) == multiplier_dim(truncated_witt(n, field))


def test_witt_over_q_has_maximal_class():
    for n in range(4, 15):
        L = truncated_witt(n)
        assert L.is_maximal_class()[0], n
        assert multiplier_dim(L) == (2 if n == 4 else 3), n


def test_witt_over_gf7_loses_maximal_class_at_9():
    F = PrimeField(7)
    assert [truncated_witt(n, F).is_maximal_class()[0] for n in range(4, 10)] == [True] * 5 + [False]
    assert multiplier_dim(truncated_witt(7, F)) == 4
    assert multiplier_dim(truncated_witt(7)) == 3


def test_witt_over_gf5_loses_maximal_class_at_7():
    F = PrimeField(5)
    assert [truncated_witt(n, F).is_maximal_class()[0] for n in range(4, 8)] == [True] * 3 + [False]
    assert multiplier_dim(truncated_witt(7, F)) == 3
    with pytest.raises(NotMaximalClass):
        generator_chain(truncated_witt(7, F))


# -- dim M from dim γ₂ and d3: rank d2 = dim [L, L] --------------------------------


def _identity_corpus(field):
    """Inputs for the rank d2 = dim γ₂ identity: maximal class in catalog,
    Witt and dense bases, direct sums with dim L/γ₂ >= 3, and input of class
    at most 2."""
    base = {
        "filiform-8": standard_filiform(8, field=field),
        "m2-8": filiform_m2(8, field=field),
        "Q-8": filiform_q(8, field=field),
        "W-8": truncated_witt(8, field),
        "filiform-4+filiform-4": filiform_square(4, field),
        "free-class-two-3": free_class_two(3, field),
        "abelian-4": abelian(4, field=field),
        "heisenberg+abelian-2": build(5, [(1, 2, 3, 1)], field=field),
    }
    dense = {f"dense {name} (seed {seed})": _changed(base[name], seed)
             for name, seed in (("filiform-8", 81), ("m2-8", 82), ("Q-8", 83),
                                ("filiform-4+filiform-4", 84), ("heisenberg+abelian-2", 85))}
    return {**base, **dense}


@pytest.mark.parametrize("field", FIELDS, ids=FIELD_IDS)
def test_multiplier_dim_is_the_full_complex_with_rank_d2_read_as_dim_gamma2(field):
    for name, L in _identity_corpus(field).items():
        X = L._adapted or L
        assert boundary_matrices(X).d2.rank() == X.derived_subalgebra().dim, name
        assert multiplier_dim(L) == _raw_multiplier_dim(L) == multiplier_oracle(L), name


def _no_d2(L):
    raise AssertionError("d2 was built")


@pytest.mark.parametrize("field", FIELDS, ids=FIELD_IDS)
def test_multiplier_dim_builds_no_d2(field, monkeypatch):
    monkeypatch.setattr(homology, "_d2_rows", _no_d2)
    for L in _identity_corpus(field).values():
        multiplier_dim(L)
    with pytest.raises(AssertionError, match="d2 was built"):
        boundary_matrices(standard_filiform(4, field=field))


@pytest.mark.parametrize("field", FIELDS, ids=FIELD_IDS)
def test_boundary_matrices_match_the_dense_oracle(field):
    # The scaled input has fractional constants over Q (D = 6).
    scaled = standard_filiform(6, field=field).change_basis(
        _diagonal([1, 1, 2, 1, 3, 1], field) @ random_unimodular(random.Random(6), 6, field))
    for name, L in {**_identity_corpus(field), "scaled filiform-6": scaled}.items():
        pair = boundary_matrices(L)
        assert [pair.d2.rows(), pair.d3.rows()] == list(boundary_oracle(L)), name


@pytest.mark.parametrize("field", FIELDS, ids=FIELD_IDS)
def test_the_complex_is_built_from_the_integer_table(field, monkeypatch):
    # The field-scalar table is never read: every cell comes from L._ad.
    corpus = _identity_corpus(field)

    def refuse(self):
        raise AssertionError("the field-scalar table was read")

    with monkeypatch.context() as patch:
        patch.setattr(LieAlgebra, "_table", property(refuse))
        dims = {name: multiplier_dim(L) for name, L in corpus.items()}
        for L in corpus.values():
            boundary_matrices(L)
    assert dims == {name: multiplier_oracle(L) for name, L in corpus.items()}


@pytest.mark.parametrize("field", FIELDS, ids=FIELD_IDS)
def test_multiplier_dim_of_non_nilpotent_input_raises(field, monkeypatch):
    monkeypatch.setattr(homology, "_d2_rows", _no_d2)
    for L in (build(2, [(1, 2, 2, 1)], field=field),
              build(3, [(1, 2, 2, 1), (1, 3, 3, 1)], field=field),
              _changed(build(3, [(1, 2, 2, 1), (1, 3, 3, 1)], field=field), 3)):
        with pytest.raises(NonNilpotent):
            multiplier_dim(L)


# sha256 of the JSON list [d2 rows, d3 rows] of str(entry), fixed before d2
# left multiplier_dim, so the complex that ``boundary_matrices`` returns stays.
BOUNDARY_PINS = {
    "filiform-8/Q": (lambda: standard_filiform(8),
                     "ee3a77f82480fc7ce22949dc8646eeaa7487100b608e85139c5444b8c00e67e6"),
    "dense-filiform-7/Q": (lambda: standard_filiform(7).change_basis(
                               random_unimodular(random.Random(7), 7)),
                           "2ac187ebfd2d45ea393196339eecf30badaefbba89ced0959b57eb1724080eef"),
    "dense-m2-7/GF7": (lambda: filiform_m2(7, field=PrimeField(7)).change_basis(
                           random_unimodular(random.Random(7), 7, PrimeField(7))),
                       "5e7c35d95d20e8bcd0fe90637cd04d06ce3c7113649b70768ee4ca6f39f64d8e"),
    "witt-8/GF7": (lambda: truncated_witt(8, PrimeField(7)),
                   "74b078777dcd26bdda71b6e590dbb2867fbbf94289b81438de134a2246c975b8"),
    "free-class-two-3/GFp": (lambda: free_class_two(3, PrimeField(2147483647)),
                             "e163ca53743a34b9f4b3ffc3c3e0ab6dbf3e72659bad8eec08ec0c0fcf955bff"),
    # Scale D = 6: a basis change of determinant 6, so the cells are fractions.
    "scaled-filiform-6/Q": (lambda: standard_filiform(6).change_basis(
                                _diagonal([1, 1, 2, 1, 3, 1], QQ)
                                @ random_unimodular(random.Random(6), 6)),
                            "051c2b9e06fbef8e848051ed1e7a5dee90fd68f7f3933f89dbf7343b57d4f0b2"),
    # In 24 cells of d3 the bracket terms, as residues, sum to a nonzero multiple of 3.
    "dense-filiform-7/GF3": (lambda: standard_filiform(7, field=PrimeField(3)).change_basis(
                                 random_unimodular(random.Random(3), 7, PrimeField(3))),
                             "70a97027744da7fab69879b58d12f5b0fb63ce2bbf097fb7133764c60617aa21"),
}


def _diagonal(entries, field):
    n = len(entries)
    return Matrix(field, [[entries[i] if i == j else 0 for j in range(n)] for i in range(n)])


@pytest.mark.parametrize("name", BOUNDARY_PINS)
def test_boundary_matrices_are_pinned(name):
    make, digest = BOUNDARY_PINS[name]
    pair = boundary_matrices(make())
    text = json.dumps([[[str(x) for x in row] for row in m.rows()] for m in (pair.d2, pair.d3)])
    assert hashlib.sha256(text.encode()).hexdigest() == digest
