"""Nested bracket words, the (i+1)-term vanishing identity, and the
multilinear maps into γᵢ/γᵢ₊₁ ⊗ L/γ₂ built from its term schedule.

The schedule is uniform: for 1 <= k <= i+1, term k is

    [[ R_k , L_k ], x_{i+2-k}]     (1-based argument positions)

where R_k = [x_{i+3-k}, ..., x_{i+1}] is right-normed, L_k = [x_1, ...,
x_{i+1-k}] is left-normed, and an empty factor means the inner bracket
degenerates to the other factor (k = 1 has no right word, k = i+1 no left
word).  Summing the terms gives 0 in every Lie algebra.  ``free_defect``
proves that degree by degree: it expands the sum in the free associative
ring over Z, which contains the free Lie ring over Z (Witt; Reutenauer, Free
Lie Algebras, 1993), and no monomial is left.  Substituting elements of any
Lie algebra for the letters maps the free Lie ring into it, so the identity
holds over every field; a wrong schedule leaves a monomial.

The tensor-valued map replaces each outermost bracket [u_k, x_t] by
ū_k ⊗ x̄_t, all signs +, with ū_k taken in γᵢ/γᵢ₊₁ and x̄_t in L/γ₂.
Every inner word multiplies i arguments, so it always lies in γᵢ and the
left projection is well defined.

ψ vanishes as soon as any argument lies in γ₂, whatever element of γ₂ it
is: in the outer slot x̄ = 0 in L/γ₂, and in an inner slot the inner word
has weight at least i+1, so it lies in γᵢ₊₁ and ū = 0.  ψ is multilinear,
so ψ on the tuples of any complement T of γ₂ spans its image.  T is the d =
dim L/γ₂ unit vectors c_a at the free (non-pivot) columns of γ₂'s canonical
rows, and the image dimension is exact.

The image is the span a linear recurrence reaches on gr L = ⊕ γₖ/γₖ₊₁.
[γₐ, γ_b] ⊆ γₐ₊_b (induction on b with Jacobi, which construction
validates), so the class modulo γₐ₊_b₊₁ of a bracket of x ∈ γₐ and y ∈ γ_b
depends only on the classes of x in grₐ and y in gr_b: it is their graded
bracket, and every inner word's class in grᵢ is one.  Read a tuple x_0, ...,
x_i (0-based) left to right.  After s letters the state is (u, φ): u ∈ grₛ
is the left word [x_0, ..., x_{s-1}], and φ: gr_{i+1-s} → grᵢ ⊗ L/γ₂ is the
sum of the terms whose outer argument x_o, o < s, has been read, as a
function of the right-normed word v of the letters still to come,

    φ(v) = Σ_{o<s} π([ad(x_{o+1}) ⋯ ad(x_{s-1}) v, [x_0, ..., x_{o-1}]]) ⊗ x̄_o

(the o = 0 term has no left word: π(ad(x_1) ⋯ ad(x_{s-1}) v) ⊗ x̄_0).  Each
of those terms has i+1-s letters of its right word still to read, which is
why one φ holds them all.  The first letter c_a gives (e_a, v ↦ v ⊗ ē_a); a
later letter c_a steps u ← [u, c_a] and φ ← φ∘ad(c_a) + (v ↦ [v, u] ⊗ ē_a),
the new part being the term whose outer argument it is; the last letter
outputs φ(c_a) + u ⊗ ē_a, the term with no right word included.  The state
is multilinear in the letters read, and a step is linear in the state, so
the states of all prefixes of s+1 letters span what the steps of a basis of
the span at s letters span, and the image is the span of the outputs of a
basis of the last span.  That is forward reachability of a weighted
automaton (Schützenberger 1961; Kiefer, Murawski, Ouaknine, Wachter and
Worrell, LMCS 2013): exact, and polynomial in i and the dims of the grₖ.
gr L is one algebra, built once per algebra (``LieAlgebra._graded``), and
the states are sparse integer rows on gr L's integer table, so the
recurrence does no field arithmetic; ``tests/helpers.PsiEvaluator``
evaluates one tuple in field scalars and stays the independent reference.
Past ``PSI_STATE_LIMIT`` states at one step it raises ``TupleSpaceTooLarge``.
"""

from __future__ import annotations

from functools import cache
from typing import NamedTuple

from .algebra import LieAlgebra, _combine
from .errors import (
    EmptyWord,
    IndexOutOfRange,
    NonNilpotent,
    ResourceLimit,
    TupleSpaceTooLarge,
    WordTooShort,
)
from .linalg import RowSpan

# States that one step of ψ's reachable span may hold.
PSI_STATE_LIMIT = 2000

# Monomials that ``free_defect`` may expand at one degree.  Degree i expands
# (i + 1)·2^i of them, so degrees up to FREE_DEFECT_MAX_DEGREE (15) pass.
FREE_MONOMIAL_LIMIT = 2**20
FREE_DEFECT_MAX_DEGREE = max(i for i in range(FREE_MONOMIAL_LIMIT.bit_length())
                             if (i + 1) << i <= FREE_MONOMIAL_LIMIT)


def normed_bracket(L: LieAlgebra, xs, orientation: str = "left") -> list:
    """Evaluate a nested bracket word.

    left:  [...[[x1,x2],x3],...,xm]       right: [x1,[...[x_{m-1},xm]...]]
    A singleton word evaluates to its argument.
    """
    xs = list(xs)
    if not xs:
        raise EmptyWord("bracket words must have at least one argument")
    if orientation == "left":
        acc = xs[0]
        for x in xs[1:]:
            acc = L.bracket(acc, x)
        return acc
    if orientation == "right":
        acc = xs[-1]
        for x in reversed(xs[:-1]):
            acc = L.bracket(x, acc)
        return acc
    raise IndexOutOfRange(f"orientation must be 'left' or 'right', got {orientation!r}")


def term_schedule(i: int) -> list[tuple[tuple[int, ...], tuple[int, ...], int]]:
    """The (right word, left word, outer argument) index triples, 0-based.

    Term k (1 <= k <= i+1) uses right word positions i+2-k .. i, left word
    positions 0 .. i-k and outer position i+1-k.
    """
    out = []
    for k in range(1, i + 2):
        right = tuple(range(i + 2 - k, i + 1))
        left = tuple(range(0, i + 1 - k))
        outer = i + 1 - k
        out.append((right, left, outer))
    return out


def _inner_word(L: LieAlgebra, xs, right, left) -> list:
    if not right:
        return normed_bracket(L, [xs[t] for t in left], "left")
    if not left:
        return normed_bracket(L, [xs[t] for t in right], "right")
    r = normed_bracket(L, [xs[t] for t in right], "right")
    l = normed_bracket(L, [xs[t] for t in left], "left")
    return L.bracket(r, l)


class _FreeRing:
    """The free associative ring over Z as a stand-in for L in the word
    evaluators: elements are {monomial tuple: coefficient}, [a, b] = ab − ba."""

    @staticmethod
    def bracket(a: dict, b: dict) -> dict:
        # The two factors of each bracket in a term have disjoint letters,
        # so no two products coincide.
        out = {}
        for u, x in a.items():
            for v, y in b.items():
                out[u + v] = x * y
                out[v + u] = -x * y
        return out


def free_defect(i: int) -> dict[tuple[int, ...], int]:
    """The nonzero monomials of the degree-i schedule sum in the free
    associative ring over Z on the letters 0 … i, as {monomial: coefficient}.

    Term k is the bracket of ``_inner_word`` on the schedule's right and
    left words with its outer argument, so it reads ``term_schedule`` as ψ
    does; each term has 2^i monomials, and one term is held at a time.  The
    free Lie ring over Z embeds in the free associative ring, so an empty
    result proves the identity in the free Lie ring, and so in every Lie
    algebra over every field.  Degrees above ``FREE_DEFECT_MAX_DEGREE`` raise
    ``ResourceLimit`` before anything is expanded, and i < 3 raises
    ``WordTooShort``.  A degree that is not an int raises ``IndexOutOfRange``.
    """
    if not isinstance(i, int):
        raise IndexOutOfRange(f"degree i must be an integer, got {i!r}")
    if i < 3:
        raise WordTooShort(f"the identity needs degree i >= 3 (4 arguments), got i = {i}")
    if i > FREE_DEFECT_MAX_DEGREE:
        raise ResourceLimit(
            f"the free expansion at degree {i} needs (i + 1)·2^i monomials, over the "
            f"limit of {FREE_MONOMIAL_LIMIT} (degrees up to {FREE_DEFECT_MAX_DEGREE})"
        )
    letters = [{(t,): 1} for t in range(i + 1)]
    total: dict[tuple[int, ...], int] = {}
    for right, left, outer in term_schedule(i):
        term = _FreeRing.bracket(_inner_word(_FreeRing, letters, right, left), letters[outer])
        for monomial, x in term.items():
            y = total.pop(monomial, 0) + x
            if y:
                total[monomial] = y
    return total


class PsiImage(NamedTuple):
    """Image dimension of a tensor map.  The dimension is always exact:
    ``exact`` is always True and ``mode`` always "exact"; both stay because
    the machine report prints them.  ``tuples_examined`` is a work count:
    the (state, candidate) transitions of the recurrence evaluated, the first
    letters and the outputs included, up to saturation of the codomain.  No
    tuple enumeration stands behind it."""

    i: int
    dim: int
    exact: bool
    mode: str
    tuples_examined: int


def _psi_span(G: LieAlgebra, grades, i: int) -> tuple[int, int]:
    """(dim im ψᵢ, transitions evaluated): the span the recurrence of the
    module docstring reaches on gr L, for G and its grades as
    ``LieAlgebra._graded`` gives them.

    G's basis runs grade by grade, so grₖ's basis is G's basis vectors
    start[k], …, start[k + 1] - 1, and gr₁'s is the candidates.  A graded
    bracket is a row of G's integer ad table, D times the bracket for G's
    scale D, so each state and output of degree i carries D^(i-1): one
    nonzero factor.  A state after s letters is one row: u at columns [0,
    dim grₛ), then φ(b_j), for b_j the j-th basis vector of gr_{i+1-s}, from
    column dim grₛ + j·codim on, in the flat tensor's coordinates (left
    index major).
    """
    dims = [grades.count(k) for k in range(i + 1)]
    start = [sum(dims[:k]) for k in range(i + 2)]
    m, codim = dims[1], dims[i] * dims[1]

    @cache
    def table(r: int, s: int) -> list[dict[int, dict[int, int]]]:
        """[j][t] -> [b_j, b_t] in gr_{r+s}, for b_j the j-th basis vector of grᵣ
        and b_t the t-th of grₛ."""
        low, cols = start[r + s], range(start[s], start[s + 1])
        return [{t: {k - low: x for k, x in ad[c].items()} for t, c in enumerate(cols) if c in ad}
                for ad in (G._ad[b] for b in range(start[r], start[r + 1]))]

    # After the first letter c_a: u = e_a and φ = (v ↦ v ⊗ ē_a).
    states = [{a: 1, **{m + j * codim + j * m + a: 1 for j in range(dims[i])}}
              for a in range(m)]
    count = m  # the first letters
    for s in range(1, i):
        ad_u, ad_phi, br, base = table(1, s), table(1, i - s), table(i - s, s), dims[s + 1]
        span = RowSpan(G.field, base + dims[i - s] * codim)
        for state in states:
            u, phi = _split(state, dims[s], codim)
            vu = [_combine(row, u) for row in br]  # [b_j, u] in grᵢ, for every candidate
            for a in range(m):
                count += 1
                # u ← [u, c_a] = -[c_a, u]
                new = {t: -x for t, x in _combine(ad_u[a], u).items()}
                # φ ← (v ↦ [v, u] ⊗ ē_a) + φ∘ad(c_a)
                for j, w in enumerate(vu):
                    col = base + j * codim + a
                    for k, y in w.items():
                        new[col + k * m] = y
                for j, v in ad_phi[a].items():
                    col = base + j * codim
                    for off, x in _combine(phi, v).items():
                        new[col + off] = new.get(col + off, 0) + x
                if span.add_integers(G._nonzero(new)) and span.dim > PSI_STATE_LIMIT:
                    raise TupleSpaceTooLarge(f"psi reachable span at degree {i} exceeds "
                                             f"{PSI_STATE_LIMIT} states")
        states = list(span._rows.values())
    # The last letter c_a outputs φ(c_a) + u ⊗ ē_a.
    image = RowSpan(G.field, codim)
    for state in states:
        u, phi = _split(state, dims[i], codim)
        for a in range(m):
            count += 1
            out = dict(phi.get(a, {}))
            for t, x in u.items():
                out[t * m + a] = out.get(t * m + a, 0) + x
            if image.add_integers(G._nonzero(out)) and image.dim == codim:
                return codim, count
    return image.dim, count


def _split(state: dict[int, int], du: int, codim: int):
    """(u, φ) of a state row: u as {t: x}, φ as {j: {offset: x}}."""
    u: dict[int, int] = {}
    phi: dict[int, dict[int, int]] = {}
    for col, x in state.items():
        if col < du:
            u[col] = x
        else:
            j, off = divmod(col - du, codim)
            phi.setdefault(j, {})[off] = x
    return u, phi


def psi_image_dim(L: LieAlgebra, i: int, mode: str = "exact") -> PsiImage:
    """Exact dimension of the image span of the degree-i tensor map.

    ψ vanishes on tuples with an argument in γ₂, so ψ over the tuples of a
    basis of gr₁ spans the image.  The recurrence runs on gr L as
    ``L._graded`` gives it: one algebra, built once per algebra from
    ``L._adapted`` when construction rewrote L in its generator-chain basis,
    as ``multiplier_dim`` does, and from L otherwise; the dimension does not
    depend on the basis.  ``mode`` accepts only "exact", and ``i`` only an
    int.  Past ``PSI_STATE_LIMIT`` states at one step it raises
    ``TupleSpaceTooLarge``.
    """
    if mode != "exact":
        raise IndexOutOfRange(f"mode must be 'exact', got {mode!r}")
    if not isinstance(i, int):
        raise IndexOutOfRange(f"degree i must be an integer, got {i!r}")
    series = (L._adapted or L).lower_central_series()
    if not series.nilpotent:
        raise NonNilpotent("image enumeration requires a nilpotent algebra")
    if i < 2:
        raise IndexOutOfRange(f"degree i={i} must be at least 2")
    if i > series.nilpotency_class:
        # Degenerate codomain: gamma_i is 0 past the class.
        return PsiImage(i, 0, True, mode, 0)
    dim, count = _psi_span(*L._graded, i)
    return PsiImage(i, dim, True, mode, count)


def psi_image_dims(L: LieAlgebra) -> list[PsiImage]:
    """Exact image dimensions for every degree 2..c."""
    c = (L._adapted or L).nilpotency_class()
    # Without a class, psi_image_dim raises NonNilpotent at degree 2.
    return [psi_image_dim(L, i) for i in range(2, 3 if c is None else c + 1)]
