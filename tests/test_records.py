"""The result records are immutable NamedTuples: frozen fields, the
``Name(field=value, ...)`` repr, and no shared mutable default."""

import pytest

from helpers import entry_algebra, generator_chain, psi, verify_odd_case_reduction
from liemult import catalog
from liemult.bounds import BoundReport, bound_report, verify_central_quotient_bound
from liemult.homology import boundary_matrices
from liemult.words import PsiImage, psi_image_dim


def _records():
    L = entry_algebra(catalog.get("filiform-7"))
    report = bound_report(L)
    chain = generator_chain(L)
    return {
        "SeriesChain": L.lower_central_series(),
        "QuotientPresentation": L.quotient(L.center()),
        "PinchingRecord": report.pinching,
        "BoundReport": report,
        "CentralQuotientRecord": verify_central_quotient_bound(L, L.center()),
        "OddCaseRecord": verify_odd_case_reduction(L),
        "CatalogEntry": catalog.get("filiform-7"),
        "BoundaryPair": boundary_matrices(L),
        "TensorElement": psi(L, 2, [chain.s, chain.s1, chain.s]),
        "PsiImage": psi_image_dim(L, 2),
        "GeneratorChain": chain,
    }


RECORDS = _records()


@pytest.mark.parametrize("name", sorted(RECORDS))
def test_record_fields_cannot_be_set(name):
    record = RECORDS[name]
    assert type(record).__name__ == name
    with pytest.raises(AttributeError):
        setattr(record, record._fields[0], None)
    with pytest.raises(AttributeError):
        record.extra = None


def test_record_repr_keeps_the_field_format():
    assert repr(PsiImage(2, 1, True, "exact", 5)) == (
        "PsiImage(i=2, dim=1, exact=True, mode='exact', tuples_examined=5)"
    )


def test_bound_report_needs_its_bounds():
    # A default would be one dict shared by every report.
    with pytest.raises(TypeError):
        BoundReport("x", "Q", 4, 2, 3, True, 2, (4, 2, 1, 0))


def test_quotient_records_to_dict_on_filiform_7():
    assert RECORDS["CentralQuotientRecord"].to_dict() == {
        "dim_K": 1, "dim_multiplier": 4, "dim_derived_cap_K": 1,
        "dim_multiplier_quotient": 3, "dim_multiplier_K": 0, "tensor_dim": 2,
        "lhs": 5, "rhs": 5, "holds": True,
    }
    assert RECORDS["OddCaseRecord"].to_dict() == {
        "n": 7, "dim_multiplier": 4, "center_dim": 1, "quotient_dim": 6,
        "quotient_is_maximal_class": True, "dim_multiplier_quotient": 3,
        "chained_bound": 4, "holds": True,
    }
