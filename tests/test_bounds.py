import pytest

from helpers import NotMaximalClass, entry_algebra, verify_odd_case_reduction
from liemult import bounds
from liemult.algebra import Subspace, build
from liemult.bounds import (
    ATTAINED,
    HOLDS,
    NOT_APPLICABLE,
    OUT_OF_SCOPE,
    VIOLATED,
    bound_report,
    derived_subalgebra_bound,
    main_theorem_bound,
    moneyhun_bound,
    verify_central_quotient_bound,
)
from liemult.catalog import abelian, entries, standard_filiform
from liemult.errors import (
    AbelianInput,
    DimensionTooSmall,
    IndexOutOfRange,
    NonNilpotent,
    NotCentralIdeal,
)
from liemult.fields import QQ, PrimeField
from liemult.homology import multiplier_dim


@pytest.mark.parametrize("n,expected", [(4, 6), (0, 0), (5, 10), (1, 0)])
def test_moneyhun_bound(n, expected):
    assert moneyhun_bound(n) == expected


def test_moneyhun_bound_refuses_a_negative_dimension():
    with pytest.raises(IndexOutOfRange):
        moneyhun_bound(-1)


@pytest.mark.parametrize("dim_m,bound,verdict", [(5, 4, VIOLATED), (4, 4, ATTAINED), (3, 4, HOLDS)])
def test_verdict_compares_the_multiplier_with_the_bound(dim_m, bound, verdict):
    assert bounds._verdict(dim_m, bound) == verdict


@pytest.mark.parametrize("n,m,expected", [(4, 2, 3), (3, 1, 2), (6, 4, 5)])
def test_derived_subalgebra_bound(n, m, expected):
    assert derived_subalgebra_bound(n, m) == expected


@pytest.mark.parametrize("n", range(4, 15))
def test_derived_bound_at_maximal_class_is_nminus1(n):
    assert derived_subalgebra_bound(n, n - 2) == n - 1


def test_derived_bound_rejects_abelian():
    with pytest.raises(AbelianInput):
        derived_subalgebra_bound(5, 0)
    with pytest.raises(IndexOutOfRange):
        derived_subalgebra_bound(4, 4)


@pytest.mark.parametrize("n,expected", [(4, 2), (5, 3), (6, 3), (7, 4), (3, 2), (14, 7)])
def test_main_theorem_bound(n, expected):
    assert main_theorem_bound(n) == expected


def test_main_theorem_bound_small_n():
    with pytest.raises(DimensionTooSmall):
        main_theorem_bound(2)


def test_verify_attainment_even_case():
    rep = bound_report(standard_filiform(4), "L(3,4,1,4)")
    assert rep.dim_multiplier == 2
    assert rep.bounds["main_theorem"] == (2, ATTAINED)
    assert rep.pinching is not None and rep.pinching.holds


def test_verify_attainment_odd_case():
    rep = bound_report(standard_filiform(5), "L(7,5,1,7)")
    assert rep.dim_multiplier == 3
    assert rep.bounds["main_theorem"] == (3, ATTAINED)


def test_verify_filiform_6_holds():
    rep = bound_report(standard_filiform(6))
    value, verdict = rep.bounds["main_theorem"]
    assert value == 3 and rep.dim_multiplier <= 3
    assert verdict in (HOLDS, ATTAINED)


def test_verify_degrades_for_non_maximal_class():
    rep = bound_report(abelian(4))
    assert rep.bounds["main_theorem"] == (None, NOT_APPLICABLE)
    assert rep.bounds["nminus2"] == (None, NOT_APPLICABLE)
    assert rep.bounds["derived_subalgebra"] == (None, NOT_APPLICABLE)  # abelian
    assert rep.bounds["moneyhun"] == (6, ATTAINED)
    assert rep.pinching is None


def test_char_two_report_degrades_to_out_of_scope():
    F = PrimeField(2, allow_char_two=True)
    rep = bound_report(standard_filiform(4, field=F))
    assert rep.bounds["main_theorem"][1] == OUT_OF_SCOPE
    assert rep.bounds["moneyhun"][1] in (HOLDS, ATTAINED)
    assert rep.pinching is None


def test_verify_rejects_non_nilpotent():
    L = build(2, [(1, 2, 2, 1)])
    with pytest.raises(NonNilpotent):
        bound_report(L)


def test_bound_ordering_for_maximal_class():
    for n in range(4, 15):
        assert main_theorem_bound(n) <= n - 2 <= n - 1 <= moneyhun_bound(n)


def test_no_violations_on_catalog():
    for entry in entries():
        rep = bound_report(entry_algebra(entry), algebra_id=entry.name)
        assert all(v != VIOLATED for _, v in rep.bounds.values())


def test_central_quotient_equality_for_heisenberg():
    H = standard_filiform(3)  # the Heisenberg algebra
    rec = verify_central_quotient_bound(H, H.center())
    assert (rec.lhs, rec.rhs) == (3, 3)
    assert rec.holds and rec.equality
    assert rec.dim_m == 2 and rec.dim_cap == 1
    assert rec.dim_m_quotient == 1 and rec.dim_m_k == 0 and rec.tensor_dim == 2


def test_central_quotient_trivial_ideal():
    L = standard_filiform(5)
    rec = verify_central_quotient_bound(L, Subspace.zero_space(QQ, 5))
    assert rec.lhs == rec.rhs == multiplier_dim(L)


def test_central_quotient_n5_filiform():
    L = standard_filiform(5)
    rec = verify_central_quotient_bound(L, L.center())
    assert rec.holds
    # lhs = 3 + 1; rhs = dim M(n=4 filiform) + 0 + 2 = 4.
    assert rec.lhs == 4 and rec.rhs == 4


def test_central_quotient_rejects_non_central():
    L = standard_filiform(4)
    K = Subspace.from_vectors(QQ, 4, [L.basis_vector(2)])  # x3 is not central
    with pytest.raises(NotCentralIdeal):
        verify_central_quotient_bound(L, K)


def test_central_quotient_sweep_catalog():
    for entry in entries():
        L = entry_algebra(entry)
        for K in L.central_ideals():
            rec = verify_central_quotient_bound(L, K)
            assert rec.holds, (entry.name, K.dim)


def test_odd_case_reduction_n5():
    rec = verify_odd_case_reduction(standard_filiform(5))
    assert rec.holds and rec.equality
    assert rec.dim_m == 3 and rec.dim_m_quotient == 2 and rec.chained_bound == 3
    assert rec.center_dim == 1 and rec.quotient_is_maximal_class


def test_odd_case_reduction_n7():
    rec = verify_odd_case_reduction(standard_filiform(7))
    assert rec.holds
    assert rec.quotient_dim == 6 and rec.quotient_dim % 2 == 0


def test_odd_case_reduction_rejects_even_n():
    with pytest.raises(IndexOutOfRange):
        verify_odd_case_reduction(standard_filiform(6))


def test_odd_case_reduction_rejects_non_maximal():
    with pytest.raises(NotMaximalClass):
        verify_odd_case_reduction(abelian(5))


def test_report_serialization_round_trip_values():
    rep = bound_report(standard_filiform(6), algebra_id="filiform-6")
    doc = rep.to_dict()
    assert doc["n"] == 6
    assert doc["dim_multiplier"] == rep.dim_multiplier
    assert doc["bounds"]["main_theorem"]["value"] == 3
    assert doc["pinching"]["holds"] is True
