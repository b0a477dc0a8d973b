"""gr L as one algebra (``LieAlgebra._graded``) and the lemma
dim M(L) <= dim M(gr L) that the ``homology`` module docstring proves."""

import random
from fractions import Fraction
from functools import cached_property
from math import gcd, lcm

import pytest

from helpers import (
    NO_CHAIN_GF2,
    filiform_square,
    free_class_two,
    graded_oracle,
    multiplier_oracle,
    random_unimodular,
    truncated_witt,
)
from liemult.algebra import LieAlgebra, build
from liemult.catalog import filiform_m2, filiform_q, standard_filiform
from liemult.fields import QQ, PrimeField
from liemult.homology import multiplier_dim
from liemult.linalg import Matrix
from liemult.words import psi_image_dims

GF7, GFP = PrimeField(7), PrimeField(2147483647)
GF2 = PrimeField(2, allow_char_two=True)


def _dense(L, seed):
    return L.change_basis(random_unimodular(random.Random(seed), L.n, L.field))


def _scaled(L, seed):
    """L over Q in a diagonal-times-unimodular basis, so that the canonical
    rows of its series have leads > 1."""
    diag = Matrix(QQ, [[Fraction(1, 1 + (i * 7 + seed) % 5) if i == j else 0
                        for j in range(L.n)] for i in range(L.n)])
    return L.change_basis(diag @ random_unimodular(random.Random(seed), L.n))


def _no_chain(field=GF2):
    return build(8, NO_CHAIN_GF2, field=field)


def _filiform5_plus_line(field=QQ):
    return build(6, [(1, 2, 3, 1), (1, 3, 4, 1), (1, 4, 5, 1)], field=field)


# Inputs whose gr L G starts from A's own table and inputs where A is
# rewritten on the rows of its series: its basis is not adapted to the
# series, or it is, but not grade by grade (the direct sum, the line).
GRADED_CASES = {
    **{f"filiform-8-{f}": lambda fld=fld: standard_filiform(8, field=fld)
       for f, fld in (("Q", QQ), ("GF7", GF7), ("GFp", GFP))},
    "m2-9": lambda: filiform_m2(9),
    "Q8": lambda: filiform_q(8),
    "W9": lambda: truncated_witt(9),
    "W9-GF7": lambda: truncated_witt(9, field=GF7),
    "dense-filiform-8-Q": lambda: _dense(standard_filiform(8), 8),
    "dense-m2-8-GF7": lambda: _dense(filiform_m2(8, field=GF7), 3),
    "scaled-m2-7": lambda: _scaled(filiform_m2(7), 1),
    "filiform-4+filiform-4": lambda: filiform_square(4),
    "filiform-5+line-GF7": lambda: _filiform5_plus_line(GF7),
    "dense-filiform-4+filiform-4-Q": lambda: _dense(filiform_square(4), 16),
    "dense-filiform-4+filiform-4-GFp": lambda: _dense(filiform_square(4, GFP), 16),
    "scaled-filiform-5+line": lambda: _scaled(_filiform5_plus_line(), 3),
    "dense-free-class-2-rank-3-GF7": lambda: _dense(free_class_two(3, GF7), 6),
    "scaled-free-class-2-rank-3": lambda: _scaled(free_class_two(3), 2),
    "no-chain-GF2": _no_chain,
    "dense-no-chain-GF2": lambda: _dense(_no_chain(), 8),
}
# The cases above that rewrite A on the rows of its series.
REWRITTEN = {"filiform-4+filiform-4", "filiform-5+line-GF7", "dense-filiform-4+filiform-4-Q",
             "dense-filiform-4+filiform-4-GFp", "scaled-filiform-5+line",
             "dense-free-class-2-rank-3-GF7", "scaled-free-class-2-rank-3", "dense-no-chain-GF2"}


def _scale_of(field, row):
    """λ with λ·row the row the series keeps: over Q the primitive integer
    multiple with a positive lead (row's lead is 1), over GF(p) the row."""
    if field.characteristic:
        return field.one
    d = lcm(*(x.denominator for x in row))
    return Fraction(d, gcd(*(int(x * d) for x in row)))


@pytest.mark.parametrize("case", sorted(GRADED_CASES))
def test_graded_algebra_matches_the_oracle(case):
    L = GRADED_CASES[case]()
    A = L._adapted or L
    G, grades = L._graded
    basis, oracle_grades, table = graded_oracle(A)
    assert list(grades) == oracle_grades and G.n == A.n
    unit_rows = [[int(c == j) for c in range(A.n)] for j in range(A.n)]
    assert (basis != unit_rows) == (case in REWRITTEN)
    # G's basis vectors are the oracle's, in the same order, each times its
    # scale λ.
    lam = [_scale_of(A.field, row) for row in basis]
    expected = [(a + 1, b + 1, m + 1, c * lam[a] * lam[b] / lam[m])
                for (a, b), comps in table.items() for m, c in comps.items()]
    assert list(G.structure_constants()) == sorted(expected, key=lambda t: t[:3])


@pytest.mark.parametrize("case", sorted(GRADED_CASES))
def test_graded_algebra_is_a_lie_algebra_with_the_same_psi(case):
    L = GRADED_CASES[case]()
    G, grades = L._graded
    rows = {key: dict(row) for key, row in G._integer_table.items()}
    assert LieAlgebra._from_integer_rows(G.n, rows, G._scale, G.field) == G  # Jacobi holds
    assert G.nilpotency_class() == L.nilpotency_class() == max(grades)
    images = [(p.i, p.dim, p.tuples_examined) for p in psi_image_dims(L)]
    assert images == [(p.i, p.dim, p.tuples_examined) for p in psi_image_dims(G)]


def test_psi_image_dims_builds_gr_l_once_per_algebra(monkeypatch):
    built = []
    build_graded = LieAlgebra.__dict__["_graded"].func

    def counted(self):
        built.append(self.n)
        return build_graded(self)

    prop = cached_property(counted)
    prop.__set_name__(LieAlgebra, "_graded")
    monkeypatch.setattr(LieAlgebra, "_graded", prop)
    for L in (standard_filiform(12), filiform_q(12), _dense(filiform_square(4), 16)):
        built.clear()
        assert len(psi_image_dims(L)) >= 2
        assert built == [L.n]
        psi_image_dims(L)
        assert built == [L.n]


# The lemma dim M(L) <= dim M(gr L), over Q, GF(7) and GF(2^31 - 1).
FIELDS = {"Q": QQ, "GF7": GF7, "GFp": GFP}
LEMMA_CASES = {
    **{f"filiform-{n}": lambda f, n=n: standard_filiform(n, field=f) for n in (6, 11)},
    **{f"m2-{n}": lambda f, n=n: filiform_m2(n, field=f) for n in (7, 12)},
    **{f"Q{n}": lambda f, n=n: filiform_q(n, field=f) for n in (8, 12)},
    **{f"W{n}": lambda f, n=n: truncated_witt(n, field=f) for n in (8, 13)},
    "dense-filiform-12": lambda f: _dense(standard_filiform(12, field=f), 12),
    "dense-m2-10": lambda f: _dense(filiform_m2(10, field=f), 5),
    "dense-W10": lambda f: _dense(truncated_witt(10, field=f), 10),
    "filiform-5+filiform-5": lambda f: filiform_square(5, f),
    "dense-filiform-5+filiform-5": lambda f: _dense(filiform_square(5, f), 16),
    "free-class-2-rank-3": lambda f: free_class_two(3, f),
    "dense-free-class-2-rank-3": lambda f: _dense(free_class_two(3, f), 6),
}


@pytest.mark.parametrize("field", sorted(FIELDS))
@pytest.mark.parametrize("case", sorted(LEMMA_CASES))
def test_multiplier_of_l_is_at_most_that_of_gr_l(case, field):
    L = LEMMA_CASES[case](FIELDS[field])
    G = L._graded[0]
    assert multiplier_dim(L) <= multiplier_dim(G)
    if L.n <= 8:
        assert multiplier_oracle(G) == multiplier_dim(G)


@pytest.mark.parametrize("n", range(8, 19))
def test_witt_multiplier_is_below_that_of_its_graded_algebra(n):
    L = truncated_witt(n)
    assert (multiplier_dim(L), multiplier_dim(L._graded[0])) == (3, (n + 1) // 2)


# (input, dim M(L), dim M(gr L)) as measured; the first strict, the rest equal.
LEMMA_PINS = {
    "m2-12": (lambda: filiform_m2(12), 3, 6),
    "dense-filiform-12": (lambda: _dense(standard_filiform(12), 12), 6, 6),
    "Q12": (lambda: filiform_q(12), 5, 5),
    "Q10-GF5": (lambda: filiform_q(10, field=PrimeField(5)), 4, 4),
    "no-chain-GF2": (_no_chain, 3, 3),
    "dense-no-chain-GF2": (lambda: _dense(_no_chain(), 8), 3, 3),
}


@pytest.mark.parametrize("case", sorted(LEMMA_PINS))
def test_measured_multipliers_of_l_and_gr_l(case):
    make, dim_l, dim_gr = LEMMA_PINS[case]
    L = make()
    assert (multiplier_dim(L), multiplier_dim(L._graded[0])) == (dim_l, dim_gr)
