"""Correctness gate on the benchmark's instances: pinned multiplier and
lower-central-series dimensions of a sparse and a dense input, over Q and
over GF(2^31 - 1).

filiform-24 is the largest sparse input of the benchmark; filiform-11 after
a seeded unimodular basis change is a dense one (d3 about half nonzero).  The
standard family attains the parity bound, so dim M is n/2 for even n and
(n+1)/2 for odd n, and a basis change moves neither dim M nor the series.
"""

import random

import pytest

from helpers import random_unimodular
from liemult.catalog import standard_filiform
from liemult.fields import QQ, PrimeField
from liemult.homology import multiplier_dim

FIELDS = [QQ, PrimeField(2147483647)]


def _filiform_series_dims(n: int) -> tuple[int, ...]:
    return (n,) + tuple(range(n - 2, -1, -1))


@pytest.mark.parametrize("field", FIELDS, ids=["Q", "GFp"])
def test_gate_sparse_filiform_24(field):
    L = standard_filiform(24, field=field)
    assert L.lower_central_series().dims() == _filiform_series_dims(24)
    assert multiplier_dim(L) == 12


@pytest.mark.parametrize("field", FIELDS, ids=["Q", "GFp"])
def test_gate_dense_basis_changed_filiform_11(field):
    p = random_unimodular(random.Random(11), 11, field)
    L = standard_filiform(11, field=field).change_basis(p)
    assert sum(1 for *_, c in L.structure_constants() if c) > 3 * 9  # no longer sparse
    assert L.lower_central_series().dims() == _filiform_series_dims(11)
    assert multiplier_dim(L) == 6
