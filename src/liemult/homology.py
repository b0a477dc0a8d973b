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

Both boundaries are read straight off the integer ad table ``L._ad``, whose
rows are D [e_a, e_b] (residues over GF(p), where D = 1).  A row of d2 is
D [e_i, e_j]; a row of d3 sums its three bracket terms as integers, reduced
mod p over GF(p).  The degree-2 wedge e_a ∧ e_b, a < b, is column

    a·n − a(a+1)/2 + b − a − 1,

its position in the lexicographic order of ``combinations(range(n), 2)``;
the rows of d3 follow ``combinations(range(n), 3)``.  A field scalar is made
only for a nonzero cell, x / D over Q, and every other cell shares the
field's zero.

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
from .errors import NonNilpotent, ResourceLimit
from .linalg import Matrix

MAX_HOMOLOGY_DIM = 64


class BoundaryPair(NamedTuple):
    """The two boundary matrices; rows are images of basis wedges."""

    d2: Matrix  # C(n,2) rows -> n cols
    d3: Matrix  # C(n,3) rows -> C(n,2) cols, rows in the order of combinations(range(n), 3)


def _check_dimension(n: int) -> None:
    """The homology guard, the one check that both entry points run."""
    if n > MAX_HOMOLOGY_DIM:
        raise ResourceLimit(
            f"dimension {n} exceeds the homology guard ({MAX_HOMOLOGY_DIM})"
        )


def _d2_rows(L: LieAlgebra):
    """The rows of d2, one fresh list per wedge e_i ∧ e_j: the nonzero
    entries of D [e_i, e_j] made field scalars, every other cell zero."""
    n, ad, zero = L.n, L._ad, L.field.zero
    scalar = L._entry_scalar()
    for i, j in itertools.combinations(range(n), 2):
        row = [zero] * n
        for k, x in ad[i].get(j, {}).items():
            row[k] = scalar(x)
        yield row


def _d3(L: LieAlgebra) -> Matrix:
    """d3 of L in L's own basis, one fresh row per wedge e_i ∧ e_j ∧ e_k,
    i < j < k, each copied into the matrix as it is made.

    A row sums its three bracket terms as integers, D times each cell, at
    column base[a] + b of the wedge e_a ∧ e_b, a < b, the closed form of the
    module docstring; only a cell whose sum is nonzero (mod p) is made a
    field scalar."""
    n, ad, p, zero = L.n, L._ad, L.field.characteristic, L.field.zero
    scalar = L._entry_scalar()
    base = [a * n - a * (a + 1) // 2 - a - 1 for a in range(n)]
    ncols = comb(n, 2)

    def rows():
        for i, j, k in itertools.combinations(range(n), 3):
            cells: dict[int, int] = {}
            for vec, partner, sign in ((ad[i].get(j), k, 1), (ad[i].get(k), j, -1),
                                       (ad[j].get(k), i, 1)):
                if vec:
                    for m, x in vec.items():
                        # e_m ∧ e_partner = -(e_partner ∧ e_m) when m > partner.
                        if m < partner:
                            col = base[m] + partner
                            cells[col] = cells.get(col, 0) + sign * x
                        elif m > partner:
                            col = base[partner] + m
                            cells[col] = cells.get(col, 0) - sign * x
            row = [zero] * ncols
            for col, x in cells.items():
                if x % p if p else x:
                    row[col] = scalar(x)
            yield row

    return Matrix(L.field, rows(), ncols=ncols)


def boundary_matrices(L: LieAlgebra) -> BoundaryPair:
    """d2 and d3 of L in L's own basis.

    Each matrix consumes its row generator one row at a time, so the only
    copy of the complex is the one the two matrices hold.
    """
    _check_dimension(L.n)
    return BoundaryPair(
        d2=Matrix(L.field, _d2_rows(L), ncols=L.n),
        d3=_d3(L),
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
    value = comb(L.n, 2) - X.derived_subalgebra().dim - _d3(X).rank()
    L._multiplier_dim = value
    return value
