"""Shared independent oracles and random generators for the test suite.

Everything here is deliberately written the dumb, obviously-correct way
(textbook division-based elimination, full brute-force enumeration) so that
the production code paths are checked against a second route.
"""

from __future__ import annotations

import itertools
import random
from fractions import Fraction

from liemult.algebra import LieAlgebra, SeriesChain, Subspace, build
from liemult.errors import NotInSubspace
from liemult.fields import QQ
from liemult.linalg import Matrix
from liemult.words import PsiEvaluator


# Maximal class over GF(2) in a graded basis x1, x2, x3, ..., x8 with x_k of
# degree k - 1.  The elements s of L/γ₂ with [x_k, s] = 0 form the lines
# <x2> (k = 3, 4, 6), <x1> (k = 5) and <x1 + x2> (k = 7): every s ∉ γ₂
# kills some layer, so no generator chain exists.
NO_CHAIN_GF2 = [(1, 2, 3, 1), (1, 3, 4, -1), (1, 4, 5, -1), (2, 5, 6, -1), (3, 4, 6, 1),
                (1, 6, 7, -1), (3, 5, 7, 1), (1, 7, 8, -1), (2, 7, 8, -1), (3, 6, 8, 1),
                (4, 5, 8, 1)]


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


def center_oracle(L: LieAlgebra) -> list[list]:
    """Canonical basis of the center: the kernel of the dense linear map
    x -> ([x, e_j])_j, read off the naive_rref of its n^2 x n matrix, whose
    row (j, k) holds [e_i, e_j]_k at column i."""
    n, zero, one = L.n, L.field.zero, L.field.one
    brackets = [[L.bracket(L.basis_vector(i), L.basis_vector(j)) for i in range(n)]
                for j in range(n)]
    rref = naive_rref([[brackets[j][i][k] for i in range(n)] for j in range(n) for k in range(n)],
                      L.field)
    pivots = [next(c for c in range(n) if row[c]) for row in rref]
    kernel = []
    for f in (c for c in range(n) if c not in pivots):
        v = [zero] * n
        v[f] = one
        for row, c in zip(rref, pivots):
            v[c] = -row[f]
        kernel.append(v)
    return naive_rref(kernel, L.field)


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


def chain_basis_series_oracle(A: LieAlgebra) -> SeriesChain | None:
    """The lower central series of A computed term by term (``_own_series``)
    when it has class n - 1 and only unit-vector rows, else None: the rule
    that once decided whether a generator-chain rewrite is adapted to its
    series, kept as the reference for the one-scan decision."""
    series = A._own_series()
    unit_rows = all(len(row) == 1 for term in series.terms for row in term._rows.values())
    return series if series.nilpotency_class == A.n - 1 and unit_rows else None


def naive_rank(rows, field=QQ) -> int:
    return len(naive_rref(rows, field))


def multiplier_oracle(L: LieAlgebra) -> int:
    """dim M(L) = C(n,2) - rank d2 - rank d3 from the dense exterior complex,
    each boundary row written out from ``L.bracket`` of basis vectors and
    ranked by naive_rank, in L's own basis.  The wedge e_a ∧ e_b (a < b) is
    the column of (a, b) among the pairs in lexicographic order."""
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
    return len(pairs) - naive_rank(d2, L.field) - naive_rank(d3, L.field)


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


def quotient_coords_oracle(sup: Subspace, sub: Subspace, v) -> list:
    """Coordinates of v in sup/sub by solving v = sum c_i * adapted_i with
    naive_rref, where adapted is sub's basis followed by the rows of sup's
    basis whose pivot column is not a pivot of sub."""
    sub_pivots = set(sub.basis.pivot_columns())
    complement = [
        row
        for row, p in zip(sup.basis.rows(), sup.basis.pivot_columns())
        if p not in sub_pivots
    ]
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
