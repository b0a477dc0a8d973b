"""Nested bracket words, the (i+1)-term vanishing identity, and the
multilinear maps into γᵢ/γᵢ₊₁ ⊗ L/γ₂ built from its term schedule.

The schedule is uniform: for 1 <= k <= i+1, term k is

    [[ R_k , L_k ], x_{i+2-k}]     (1-based argument positions)

where R_k = [x_{i+3-k}, ..., x_{i+1}] is right-normed, L_k = [x_1, ...,
x_{i+1-k}] is left-normed, and an empty factor means the inner bracket
degenerates to the other factor (k = 1 has no right word, k = i+1 no left
word).  Summing the terms gives the exact zero vector in every Lie algebra;
that contract is what the randomized defect tests enforce, so any wrong
schedule fails immediately.

The tensor-valued map replaces each outermost bracket [u_k, x_t] by
ū_k ⊗ x̄_t, all signs +, with ū_k taken in γᵢ/γᵢ₊₁ and x̄_t in L/γ₂.
Every inner word multiplies i arguments, so it always lies in γᵢ and the
left projection is well defined.

ψ vanishes as soon as any argument lies in γ₂, whatever element of γ₂ it
is: in the outer slot x̄ = 0 in L/γ₂, and in an inner slot the inner word
has weight at least i+1, so it lies in γᵢ₊₁ and ū = 0.  ψ is multilinear,
so ψ on the tuples of any complement T of γ₂ spans its image.  T is the d =
dim L/γ₂ unit vectors at the free (non-pivot) columns of γ₂'s canonical
rows, and the image dimension is exact.  A zero word stays zero however it
is extended (a left word at the end, a right word at the front), so the
nonzero words of each length grow from those one shorter, as trees keyed
by integer codes.  Term k is nonzero only on tuples P + (o,) + S whose left
word L(P), right word R(S) and projected inner word π([R(S), L(P)]) are
all nonzero (x̄_o never is zero), and ψ is 0 on any other tuple.  The
enumeration merges these per-term supports in lexicographic order, so its
cost follows the number of nonzero words rather than d^(i+1), and the count
of tuples examined (up to saturation) is what a full walk would report.
The words are sparse integer rows on the ad table the lower central series
runs on, projected by reducing them with γᵢ₊₁'s canonical integer rows, so
the enumeration does no field arithmetic; ``PsiEvaluator.value`` evaluates
one tuple in field scalars and stays the independent reference.  Each
bracket is charged the product of its operands' support sizes, and past
``PSI_BRACKET_BUDGET`` the enumeration raises ``TupleSpaceTooLarge``.
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass
from math import lcm
from operator import itemgetter

from .algebra import LieAlgebra, QuotientMap, _combine
from .errors import (
    CharTwoField,
    DimensionMismatch,
    EmptyWord,
    GeneratorSearchFailed,
    IndexOutOfRange,
    NonNilpotent,
    NotMaximalClass,
    TupleSpaceTooLarge,
    WordTooShort,
)
from .linalg import RowSpan

# Bracket steps (|x|·|y| per evaluated bracket) one ψ degree may spend.
PSI_BRACKET_BUDGET = 2 * 10**6


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


def defect_terms(L: LieAlgebra, xs) -> list[list]:
    """The individual outer-bracket terms of the vanishing identity."""
    xs = list(xs)
    i = len(xs) - 1
    if i < 3:
        raise WordTooShort(f"the identity needs at least 4 arguments, got {len(xs)}")
    out = []
    for right, left, outer in term_schedule(i):
        inner = _inner_word(L, xs, right, left)
        out.append(L.bracket(inner, xs[outer]))
    return out


def lemma_defect(L: LieAlgebra, xs) -> list:
    """Sum of the schedule terms; the zero vector for every Lie algebra."""
    terms = defect_terms(L, xs)
    total = L.zero_vector()
    for t in terms:
        total = [a + b for a, b in zip(total, t)]
    return total


@dataclass(frozen=True)
class TensorElement:
    """An element of γᵢ/γᵢ₊₁ ⊗ L/γ₂ in flat coordinates (left index major)."""

    left_dim: int
    right_dim: int
    coords: tuple

    @property
    def is_zero(self) -> bool:
        return not any(self.coords)


class PsiEvaluator:
    """Evaluates the degree-i tensor map on single tuples, in field scalars;
    builds the quotient coordinate maps once."""

    def __init__(self, L: LieAlgebra, i: int):
        series = L.lower_central_series()
        if not series.nilpotent:
            raise NonNilpotent("the tensor maps require a nilpotent algebra")
        c = series.nilpotency_class
        if not 2 <= i <= c:
            raise IndexOutOfRange(f"degree i={i} outside [2, {c}] for this algebra")
        self.L = L
        self.i = i
        self.left_map = QuotientMap(series.gamma(i), series.gamma(i + 1))
        self.right_map = QuotientMap(series.gamma(1), series.gamma(2))
        self.schedule = term_schedule(i)

    @property
    def codomain_dim(self) -> int:
        return self.left_map.dim * self.right_map.dim

    def value(self, xs) -> TensorElement:
        xs = list(xs)
        if len(xs) != self.i + 1:
            raise DimensionMismatch(f"expected {self.i + 1} arguments, got {len(xs)}")
        ld, rd = self.left_map.dim, self.right_map.dim
        coords = [self.L.field.zero] * (ld * rd)
        for right, left, outer in self.schedule:
            inner = _inner_word(self.L, xs, right, left)
            if not any(inner):
                continue
            lc = self.left_map.coords(inner)
            if not any(lc):
                continue
            rc = self.right_map.coords(xs[outer])
            for a, la in enumerate(lc):
                if la:
                    for b, rb in enumerate(rc):
                        if rb:
                            coords[a * rd + b] = coords[a * rd + b] + la * rb
        return TensorElement(ld, rd, tuple(coords))


def psi(L: LieAlgebra, i: int, xs) -> TensorElement:
    """Single evaluation of the degree-i tensor map."""
    return PsiEvaluator(L, i).value(xs)


@dataclass(frozen=True)
class PsiImage:
    """Image dimension of a tensor map.  The dimension is always exact:
    ``exact`` is always True and ``mode`` always "exact"; both stay because
    the machine report prints them.  ``tuples_examined`` counts the tuples of
    the free-column candidates up to saturation."""

    i: int
    dim: int
    exact: bool
    mode: str
    tuples_examined: int


class _Words:
    """ψ's words of degree i as integer rows.  Candidate a is the unit row at
    the a-th free column f of γ₂; ``L._ad[f]`` is ad(e_f), ``_combine``
    applies it and ``L._nonzero`` reduces mod p.  Over Q a bracket scales by
    D, and ``inner_coords`` reduces at d, the lcm of the leads of γᵢ₊₁'s
    canonical rows, so every term of the degree carries D^(i-1)·d (1 over
    GF(p)): one nonzero factor, which changes no rank and no zero test."""

    def __init__(self, L: LieAlgebra, series, i: int):
        free = [j for j in range(L.n) if j not in series.gamma(2)._rows]
        self.L, self.i, self.m, self.spent = L, i, len(free), 0
        self.cand = [{f: 1} for f in free]
        self.ad = [L._ad[f] for f in free]
        self.lower = series.gamma(i + 1)
        rows = self.lower._rows
        self.scale = lcm(*(r[c] for c, r in rows.items()))
        # (offset in the flat tensor, pivot) of each basis vector of γᵢ/γᵢ₊₁.
        self.out = [(a * self.m, c)
                    for a, c in enumerate(c for c in series.gamma(i)._rows if c not in rows)]

    def _charge(self, steps: int):
        self.spent += steps
        if self.spent > PSI_BRACKET_BUDGET:
            raise TupleSpaceTooLarge(f"psi enumeration at degree {self.i} exceeds the "
                                     f"budget of {PSI_BRACKET_BUDGET} bracket steps")

    def act(self, a: int, v: dict[int, int]) -> dict[int, int]:
        """[c_a, v], charged |v|."""
        self._charge(len(v))
        return self.L._nonzero(_combine(self.ad[a], v))

    def inner_coords(self, lw, rights):
        """Yield ``(code of S, π([R(S), L(P)]))`` for L(P) = lw over the right
        words R(S) of ``rights``, skipping zeros; π's nonzero coordinates are
        listed as (offset of their row in the flat tensor, value).  One
        ``_ad_rows`` of -lw serves every right word: [R, L] = [-L, R]."""
        ad_lw = None
        for sc, rw in rights:
            if rw is None or lw is None:
                w = lw if rw is None else rw
            else:
                self._charge(len(rw) * len(lw))
                if ad_lw is None:
                    ad_lw = self.L._ad_rows({j: -x for j, x in lw.items()})
                w = self.L._nonzero(_combine(ad_lw, rw))
            if w:
                r = self.lower._reduce_integers(w, self.scale)
                lc = self.L._nonzero({off: r[c] for off, c in self.out if c in r})
                if lc:
                    yield sc, list(lc.items())


def _left_words(words: _Words, length: int, memo: dict):
    """Yield the nonzero left-normed words of ``length`` candidates as
    ``(code, value)`` in increasing code; the empty word is ``(0, None)``.
    A word's code is its index sequence read as a base-m number, so codes of
    one length sort lexicographically.  A word grows at the end, L(P·a) =
    [c_a, -L(P)], and only nonzero prefixes are extended: a depth-first walk
    of the prefix tree, done as far as the caller reads.  ``memo`` keeps each
    prefix's extensions for the other lengths that walk the same tree."""
    if length < 2:
        yield from [(0, None)] if length == 0 else enumerate(words.cand)
        return
    m = words.m
    for code, v in _left_words(words, length - 1, memo):
        ext = memo.get((length, code))
        if ext is None:
            neg = {j: -x for j, x in v.items()}
            ext = memo[length, code] = [
                (code * m + a, w) for a in range(m) if (w := words.act(a, neg))
            ]
        yield from ext


def _right_words(words: _Words, shorter: list, length: int):
    """Yield the nonzero right-normed words of ``length`` candidates as
    ``(code, value)`` in increasing code, from ``shorter``, the complete list
    of those one candidate shorter.  A right word grows at the front,
    R(a·S) = [c_a, R(S)], so a zero R(S) is never extended."""
    step = words.m ** (length - 1)
    for a in range(words.m):
        for code, v in shorter:
            w = words.act(a, v)
            if w:
                yield a * step + code, w


def _term_support(words: _Words, k: int, lefts, rights: list):
    """The tuples P + (o,) + S on which schedule term k is nonzero, in
    increasing tuple code, as ``(code, k, inner coords, o)``; k breaks ties
    between streams, so the coordinates are never compared.  ``lefts`` and
    ``rights`` yield the nonzero left words of |P| and right words of |S|
    candidates.  The term is π([R(S), L(P)]) ⊗ x̄_o, and x̄_o is the o-th
    basis vector of L/γ₂, so it is nonzero exactly when π([R(S), L(P)]) is.
    The inner coordinates for one P are computed as the stream reads them,
    once for all o."""
    m = words.m
    scale = m ** (k - 1)
    for pc, lw in lefts:
        for o, pairs in enumerate(itertools.tee(words.inner_coords(lw, rights), m)):
            base = (pc * m + o) * scale
            for sc, lc in pairs:
                yield base + sc, k, lc, o


def _span_over_tuples(L: LieAlgebra, series, i: int) -> tuple[int, int]:
    """(rank, tuples examined) of the span of ψ over cand^(i+1), for cand the
    unit vectors at the free columns of γ₂.

    Term k evaluates on P + (o,) + S with |P| = i+1-k and |S| = k-1, and is
    nonzero only if L(P), R(S) and π([R(S), L(P)]) are; elsewhere ψ = 0.
    Each term's support streams in increasing tuple code (the tuple's
    lexicographic index); merging the i+1 streams and summing the terms of
    equal codes evaluates ψ on their union in lexicographic order.  ``tuples
    examined`` is the index of the saturating tuple plus 1, or m^(i+1)
    without saturation, exactly as a walk over the whole product would
    count.  Left words are built as far as the merge reads, and so are the
    right words of all i candidates (read only by the term with an empty
    left word), by first candidate; shorter right words are listed in full,
    since every nonzero P pairs with each of them.
    """
    words = _Words(L, series, i)
    rights = [[(0, None)], list(enumerate(words.cand))]
    for length in range(2, i):
        rights.append(list(_right_words(words, rights[-1], length)))
    memo: dict = {}
    streams = [
        _term_support(words, k, _left_words(words, i + 1 - k, memo),
                      rights[k - 1] if k <= i else _right_words(words, rights[i - 1], i))
        for k in range(1, i + 2)
    ]
    codim = len(words.out) * words.m
    span = RowSpan(L.field, codim)
    for code, terms in itertools.groupby(heapq.merge(*streams), key=itemgetter(0)):
        row: dict[int, int] = {}
        for _, _, lc, o in terms:
            for off, x in lc:
                row[off + o] = row.get(off + o, 0) + x
        if span.add_integers(L._nonzero(row)) and span.dim == codim:
            return span.dim, code + 1
    return span.dim, words.m ** (i + 1)


def psi_image_dim(L: LieAlgebra, i: int, mode: str = "exact") -> PsiImage:
    """Exact dimension of the image span of the degree-i tensor map.

    ψ vanishes on tuples with an argument in γ₂, so ψ over the tuples of the
    unit vectors at γ₂'s free columns spans the image.  They are taken in
    ``L._adapted`` when construction rewrote L in its generator-chain basis,
    as ``multiplier_dim`` does, and in L otherwise; the dimension does not
    depend on the basis.  ``mode`` accepts only "exact".  Past
    ``PSI_BRACKET_BUDGET`` the enumeration raises ``TupleSpaceTooLarge``.
    """
    if mode != "exact":
        raise IndexOutOfRange(f"mode must be 'exact', got {mode!r}")
    L = L._adapted or L
    series = L.lower_central_series()
    if not series.nilpotent:
        raise NonNilpotent("image enumeration requires a nilpotent algebra")
    if i < 2:
        raise IndexOutOfRange(f"degree i={i} must be at least 2")
    if i > series.nilpotency_class:
        # Degenerate codomain: gamma_i is 0 past the class.
        return PsiImage(i, 0, True, mode, 0)
    dim, count = _span_over_tuples(L, series, i)
    return PsiImage(i, dim, True, mode, count)


def psi_image_dims(L: LieAlgebra) -> list[PsiImage]:
    """Exact image dimensions for every degree 2..c."""
    series = L.lower_central_series()
    if not series.nilpotent:
        raise NonNilpotent("image enumeration requires a nilpotent algebra")
    return [psi_image_dim(L, i) for i in range(2, series.nilpotency_class + 1)]


@dataclass(frozen=True)
class GeneratorChain:
    """Generators s, s1 outside γ₂ and the chain s_i = [s_{i-1}, s] with
    s_i in γᵢ \\ γᵢ₊₁ for 2 <= i <= c."""

    s: tuple
    s1: tuple
    tail: tuple  # (s_2, ..., s_c)


def generator_chain(L: LieAlgebra) -> GeneratorChain:
    """The generator pair and descending chain of a maximal-class algebra,
    read from the chain search that construction runs (``L._chain_rows``):
    s along e_a, e_b, then e_a + t e_b, for a < b the free columns of γ₂.
    That search finds a chain whenever one exists (``_chain_rows`` gives the
    argument); its row of sₖ is D^(k-1) sₖ for the integer table's scale D.
    """
    ok, _ = L.is_maximal_class()
    if not ok:
        raise NotMaximalClass("generator chains exist only for maximal-class algebras")
    rows = L._chain_rows()
    if rows is None:
        raise GeneratorSearchFailed("no line of L/γ₂ has a full descending chain")
    field, vectors = L.field, []
    for k, row in enumerate(rows):
        d = field.element(L._scale ** max(k - 1, 0))
        vectors.append(tuple(field.element(row.get(j, 0)) / d for j in range(L.n)))
    return GeneratorChain(vectors[0], vectors[1], tuple(vectors[2:]))


@dataclass(frozen=True)
class OddWitness:
    found: bool
    args: tuple | None
    value: TensorElement | None
    tuples_examined: int
    diagnostic: str | None = None


def odd_witness_search(L: LieAlgebra, i: int) -> OddWitness:
    """First generator tuple with a nonzero degree-i tensor value, i odd.

    Exhaustion contradicts the bound's proof for valid maximal-class input
    over characteristic != 2, so it is reported as a diagnostic, never
    silently.
    """
    if L.field.characteristic == 2:
        raise CharTwoField("the odd-degree witness requires characteristic != 2")
    if i % 2 == 0:
        raise IndexOutOfRange(f"witness degree must be odd, got {i}")
    chain = generator_chain(L)
    c = L.nilpotency_class()
    if not 3 <= i <= c:
        raise IndexOutOfRange(f"witness degree i={i} outside [3, {c}]")
    ev = PsiEvaluator(L, i)
    count = 0
    for tup in itertools.product((chain.s, chain.s1), repeat=i + 1):
        count += 1
        val = ev.value(tup)
        if not val.is_zero:
            return OddWitness(True, tup, val, count)
    return OddWitness(
        False,
        None,
        None,
        count,
        f"theorem-contradiction: all {count} generator tuples gave zero at odd "
        f"degree {i}; this should be impossible for a valid maximal-class "
        "algebra over characteristic != 2",
    )
