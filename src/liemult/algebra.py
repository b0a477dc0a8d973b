"""Lie algebras given by structure constants, with exact bracket evaluation.

An algebra is stored as a sparse table of integer rows over 0-based keys
(i, j) with i < j, in input order: D [e_i, e_j] as ``{k: int}``, residues over
GF(p), where D = 1, and over Q the structure constants times the lcm D of
their denominators.  Integer rows are the only construction format.  The
parser, ``change_basis``, the chain rewrite and ``quotient`` make them
directly (``_from_integer_rows``); ``LieAlgebra(n, table)`` and ``build``
read each constant as integers through one loop (``_constant_rows``, over
``field.integers``) and keep no table of the caller's.  No step makes a
field scalar on the way to a validated algebra, and equal algebras have
equal (rows, D), since D is always the least common scale.  The rows are
laid out as the private integer ad table, tab[a][j] = D [e_a, e_j] for
every a != j; antisymmetry is stored there, not in the table.  The
constants are held only as these integers: ``bracket`` writes its
arguments as integer rows, sums on ints over the ad table (``_combine`` of
``_ad_rows``, as the series and the chain search do) and makes one scalar
per output entry, and ``structure_constants`` makes one scalar per
constant as it lists them.  Scaling by
D changes no span and no zero test, so the lower central series,
the Jacobi check, ``quotient`` and gr L run on raw
ints and feed ``RowSpan`` directly, and
``change_basis`` and the chain rewrite share one integer basis-change kernel
(``_table_in_basis``) with the integer inverse R of P (``inverse_rows``).
That kernel packs each integer row into one int of B-bit signed digits,
sum over m of c_m 2^(Bm), so that a linear combination of packed rows is
one big-int sum: it packs T[a][b] R once per call, for T[a][b] = D [e_a,
e_b], and makes one packed sum per basis vector and one per bracket, whose
digits are the coordinates.  Every digit is a sum of at most n³ terms
u_i[a] u_j[b] T[a][b][k] R[k][m], and B is the least width with
n³·max|u|²·max|T|·max|R| < 2^(B-1), so the digits decode exactly.  A
``Subspace`` is the canonical integer rows of a ``RowSpan``, built only from
integer rows; membership, sums, equality and the reduction behind
``quotient`` (``_reduce_integers``) run on those rows, and the dense basis
is built each time it is asked for.  gr L = ⊕ γₖ/γₖ₊₁ is one
algebra, built once per algebra from the series (``_graded``); ψ reads its
table.

Construction also searches the ad table once for a generator chain
(s, s₁, s₂, …, s_c), sₖ₊₁ = [sₖ, s] (``_chain_rows``, the package's only
chain search).  When one is found in a basis whose series is not already
coordinate, L is rewritten as A in the chain basis P, whose table is nearly
a shift (``_chain_rewrite``); the chain is kept as ``_chain`` and A as
``_adapted``.  The search reads γ₂ as the span of the table rows
taken only until it reaches dim n - 2, a span that ``_chain_rewrite`` builds
for the search and drops after it; the algebra keeps no span of γ₂.  A
chain vector outside that partial span proves γ₂ larger, and then no
rewrite is made.  One scan of a table decides whether it is in a chain
basis (``_chain_basis_series``): whether every [e_a, e_b], a < b, lies in
span(e_{b+1}, …) and every [s, e_k], 1 <= k <= n - 2, has a nonzero
e_{k+1} entry, for s the generator of the chain found (e_0 without one).
A table with n >= 3 that passes has class n - 1 and γ_k = span(e_k, …,
e_{n-1}) for k >= 2, and its series is then set without being computed.
Construction (``_construct``) keeps the rewrite only when the scan passes
on A.  Otherwise (no chain, a singular P, a non-nilpotent input or a table
that breaks Jacobi) L keeps only its own table.  The rewrite and gr L are
only laid out (``_setup``), with no chain search.  The Jacobi identity is
validated eagerly after construction, by the package's one Jacobi check
(``_validate_jacobi``, through ``_validate``), so everything downstream
may assume it: on A when there is a rewrite (it holds on A exactly when it
holds on L) and on L's own table otherwise, and a violation is always
reported from L's own table, walking its keys in input order, with a defect
whose scalars ``_entry_scalar`` makes.  The lower central series is read
off L's own table when the scan passes (the catalog filiform, m₂ and Qₙ
bases and their central quotients), is γₖ = span(P's rows k, …, n - 1) when there is a rewrite
(``_tail_series`` serves both), and is computed on L's table otherwise, from
the span of all its rows (``_own_series``, the only reader of all of γ₂).  At
class n - 1 the center is γₙ₋₁, with no kernel to compute; at any other
class it is the annihilator (``RowSpan.annihilator``) of the integer ad
table's columns.  So field scalars are made only by the dense views
(``bracket``, ``structure_constants``, ``Subspace.basis``) when they are
read, and by error payloads; none is cached.
Nothing here raises for the characteristic: over GF(2), which the fields
admit only with the explicit override, every construction and view runs as
over any other field, and the parity bound's exclusion of characteristic 2
is applied in ``bounds`` alone, as an out-of-scope verdict.
Instances are immutable after construction (internal caches only memoize
pure results) and safe to share between workers.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from functools import cached_property
from math import gcd, lcm
from operator import mul
from typing import NamedTuple

from .errors import (
    BadLabel,
    DimensionMismatch,
    DimensionTooSmall,
    DuplicateBracket,
    FieldMismatch,
    IndexOutOfRange,
    JacobiViolation,
    NotAnIdeal,
    ResourceLimit,
    SingularMatrix,
)
from .fields import QQ
from .linalg import Matrix, RowSpan, integer_row, inverse_rows

# ``central_ideals`` enumerates 2^dim Z(L) subspaces; larger centers are refused.
MAX_CENTER_DIM = 16


class Subspace:
    """A subspace of the ambient coordinate space, held as the canonical rows
    of a ``RowSpan`` so equal subspaces compare equal however they were built.
    The constructor takes the ``RowSpan``, which it takes over rather than
    copies; ``basis`` is the dense reduced-echelon basis, built on each
    read."""

    def __init__(self, ambient: int, span: RowSpan):
        if span.ncols != ambient:
            raise DimensionMismatch(f"span has {span.ncols} columns, ambient is {ambient}")
        self.ambient = ambient
        self.field = span.field
        self._span = span
        self._rows = span.canonical_rows()

    @classmethod
    def from_vectors(cls, field, ambient: int, vectors) -> "Subspace":
        span = RowSpan(field, ambient)
        for v in vectors:
            span.add(v)
        return cls(ambient, span)

    @classmethod
    def _spanned(cls, field, ambient: int, rows) -> "Subspace":
        # The span of integer rows given as RowSpan.add_integers takes them.
        span = RowSpan(field, ambient)
        for r in rows:
            span.add_integers(r)
        return cls(ambient, span)

    @classmethod
    def zero_space(cls, field, ambient: int) -> "Subspace":
        return cls(ambient, RowSpan(field, ambient))

    @classmethod
    def full_space(cls, field, ambient: int) -> "Subspace":
        return cls._spanned(field, ambient, ({j: 1} for j in range(ambient)))

    @property
    def dim(self) -> int:
        return len(self._rows)

    @property
    def basis(self) -> Matrix:
        return self._span.matrix()

    def _reduce_integers(self, v: dict[int, int]) -> tuple[dict[int, int], int]:
        """(d·v modulo the subspace, d) for an integer row v, with d the lcm
        of the leads of the rows at v's pivots (1 over GF(p), where every
        lead is 1): d·v minus (d·v_c / lead_c) row_c over those pivots c.
        Entries are not reduced mod p."""
        rows = self._rows
        d = lcm(*(rows[c][c] for c in v if c in rows))
        w = {j: d * x for j, x in v.items()} if d > 1 else dict(v)
        for c, x in v.items():
            row = rows.get(c)
            if row is not None:
                b = x * (d // row[c])
                for j, y in row.items():
                    w[j] = w.get(j, 0) - b * y
        return w, d

    def contains_vector(self, v) -> bool:
        return self._span.contains_integers(integer_row(self.field, v, self.ambient)[0])

    def contains_subspace(self, other: "Subspace") -> bool:
        self._check_same_space(other)
        return all(self._span.contains_integers(r) for r in other._rows.values())

    def sum(self, other: "Subspace") -> "Subspace":
        self._check_same_space(other)
        rows = [*self._rows.values(), *other._rows.values()]
        return Subspace._spanned(self.field, self.ambient, rows)

    def dim_intersection(self, other: "Subspace") -> int:
        return self.dim + other.dim - self.sum(other).dim

    def _check_same_space(self, other: "Subspace"):
        if self.ambient != other.ambient:
            raise DimensionMismatch("subspaces of different ambient spaces")
        if self.field != other.field:
            raise FieldMismatch("subspaces over different fields")

    def __eq__(self, other):
        return (
            isinstance(other, Subspace)
            and self.ambient == other.ambient
            and self.field == other.field
            and self._rows == other._rows
        )

    def __hash__(self):
        rows = tuple((c, frozenset(r.items())) for c, r in self._rows.items())
        return hash((self.ambient, self.field, rows))

    def __repr__(self):
        return f"Subspace(dim {self.dim} of {self.ambient})"


class SeriesChain(NamedTuple):
    """The lower central series γ₁ ⊇ γ₂ ⊇ … computed down to 0 or to
    stabilization (non-nilpotent input)."""

    terms: tuple[Subspace, ...]
    nilpotent: bool

    def dims(self) -> tuple[int, ...]:
        return tuple(t.dim for t in self.terms)

    @property
    def nilpotency_class(self) -> int | None:
        if not self.nilpotent:
            return None
        return len(self.terms) - 1

    def gamma(self, i: int) -> Subspace:
        """γᵢ, 1-based; indices past the computed chain return the last term."""
        if i < 1:
            raise IndexOutOfRange(f"series index {i} < 1")
        if i <= len(self.terms):
            return self.terms[i - 1]
        return self.terms[-1]


class QuotientPresentation(NamedTuple):
    """L/K with its parent L and ideal K.  The quotient's basis is the images
    of the parent's unit vectors at the non-pivot columns of K, in order, with
    their labels."""

    parent: "LieAlgebra"
    ideal: Subspace
    quotient: "LieAlgebra"


class LieAlgebra:
    """A finite-dimensional Lie algebra over an exact field, validated at
    construction.  ``table`` maps 0-based keys (i, j), i < j, to {k: c}, c
    being the constant of e_k in [e_i, e_j] as ``field.element`` takes it."""

    def __init__(self, n: int, table, field=QQ, labels=None):
        # To 1-based; a key that is not an int passes unshifted, for
        # _constant_rows to refuse.
        constants = ((*(x + 1 if isinstance(x, int) else x for x in (i, j, k)), c)
                     for (i, j), row in table.items() for k, c in row.items())
        self._construct(n, *_constant_rows(n, constants, field), field, labels)
        self._validate()

    @classmethod
    def _from_integer_rows(cls, n: int, rows, scale: int, field, labels=None) -> "LieAlgebra":
        """The validated algebra of integer rows as ``_setup`` takes them,
        which it takes over rather than copies."""
        algebra = cls.__new__(cls)
        algebra._construct(n, rows, scale, field, labels)
        algebra._validate()
        return algebra

    def _construct(self, n: int, rows, scale: int, field, labels):
        """Lay out the table and keep the chain rewrite when it passes the
        scan; the Jacobi identity is left to ``_validate``."""
        self._setup(n, rows, scale, field, labels)
        rewrite = self._chain_rewrite()
        if rewrite is not None:
            rewrite._series = rewrite._chain_basis_series()
            if rewrite._series is not None:
                self._adapted = rewrite

    def _setup(self, n: int, rows, scale: int, field, labels):
        """Lay out the integer table: ``rows`` maps each key (i, j), i < j,
        in input order, to the nonzero integer row D [e_i, e_j] (residues in
        [1, p) over GF(p), where D = ``scale`` is 1), with D the least
        scale that makes every row integral.  Labels are checked here, so
        that every algebra can be written to a file and read back.  Only the
        layout and empty caches are made here: no span and no chain search."""
        self.n = n
        self.field = field
        self._integer_table = rows
        self._scale = scale
        p = field.characteristic
        tab: list[dict[int, dict[int, int]]] = [{} for _ in range(n)]
        for (i, j), row in rows.items():
            tab[i][j] = row
            tab[j][i] = {k: p - x for k, x in row.items()} if p else {k: -x for k, x in row.items()}
        self._ad = tab
        if labels is None:
            labels = tuple(f"x{i + 1}" for i in range(n))
        else:
            labels = tuple(labels)
            if len(labels) != n:
                raise DimensionMismatch("label count differs from dimension")
            for idx, name in enumerate(labels, start=1):
                # str.split() splits at every character that ends a line or
                # a token in a file; "#" starts a comment there.
                if not isinstance(name, str) or name.split() != [name] or "#" in name:
                    raise BadLabel(f"label {idx} is {name!r}; a label is a nonempty "
                                   "string with no whitespace and no '#'")
        self.labels = labels
        self._series: SeriesChain | None = None
        self._center: Subspace | None = None
        self._multiplier_dim: int | None = None
        # The generator chain that construction's search found, as
        # ``_chain_rows`` gives it; None when none was found or (gr L, the
        # rewrite itself) no search ran.  With ``_adapted`` set, its rows are
        # the basis P of the rewrite.
        self._chain: list[dict[int, int]] | None = None
        # This algebra A in the basis P, from ``_chain_rewrite``, when A's
        # basis passes the scan; None otherwise.
        self._adapted: LieAlgebra | None = None

    def _entry_scalar(self, scale: int = 1):
        """The map from an integer entry x of D times a row, times ``scale``
        more, to its field scalar: x / (D scale) over Q, the residue of x
        over GF(p), where D and ``scale`` are 1."""
        d = self._scale * scale
        return self.field.element if self.field.characteristic else lambda x: Fraction(x, d)

    # -- bracket evaluation -------------------------------------------------

    def zero_vector(self) -> list:
        return [self.field.zero] * self.n

    def basis_vector(self, i: int) -> list:
        if not 0 <= i < self.n:
            raise IndexOutOfRange(f"basis index {i} out of range")
        v = self.zero_vector()
        v[i] = self.field.one
        return v

    def bracket(self, x, y) -> list:
        """Bilinear extension of the structure constants.  With x = u / s and
        y = v / t as ``integer_row`` writes them, D [u, v] is summed on ints
        over the integer ad table (``_combine`` of v with ``_ad_rows(u)``),
        and each output entry is made a field scalar once, divided by s t D."""
        n = self.n
        if len(x) != n or len(y) != n:
            raise DimensionMismatch("vector length differs from algebra dimension")
        (u, s), (v, t) = integer_row(self.field, x, n), integer_row(self.field, y, n)
        out = _combine(self._ad_rows(u), v)
        element = self._entry_scalar(s * t)
        return [element(out.get(k, 0)) for k in range(n)]

    def _validate(self):
        """Validate Jacobi, on the rewrite when there is one.  The Jacobiator
        is trilinear and P is invertible, so it vanishes on L exactly when it
        vanishes on L written in the basis P, whose table is sparse.  A
        violation is reported from L's own table, with the triple and defect
        that ``_validate_jacobi`` names there."""
        if self._adapted is None:
            self._validate_jacobi()
            return
        try:
            self._adapted._validate_jacobi()
        except JacobiViolation:
            self._validate_jacobi()
            raise RuntimeError(
                "internal error: the Jacobi identity fails in the generator-chain "
                "basis but holds in the input basis"
            )

    def _validate_jacobi(self):
        # A triple can only have a defect if one of its pairs is a table key,
        # so iterate table keys against third indices instead of all triples.
        # The defect is computed on the integer table, so it is D^2 times the
        # field defect over Q and is reduced mod p over GF(p).
        tab, p, n = self._ad, self.field.characteristic, self.n
        seen = set()
        for (i, j) in self._integer_table:  # i < j
            for k in range(n):
                if k == i or k == j:
                    continue
                a, b, c = (k, i, j) if k < i else (i, k, j) if k < j else (i, j, k)
                code = (a * n + b) * n + c
                if code in seen:
                    continue
                seen.add(code)
                defect: dict[int, int] = {}
                for x, y, z in ((a, b, c), (b, c, a), (c, a, b)):
                    xy = tab[x].get(y)
                    if xy:
                        for m, u in xy.items():
                            mz = tab[m].get(z)
                            if mz:
                                for t, w in mz.items():
                                    defect[t] = defect.get(t, 0) + u * w
                if defect and self._nonzero(defect):
                    element = self._entry_scalar(self._scale)
                    raise JacobiViolation((a + 1, b + 1, c + 1),
                                          [element(defect.get(t, 0)) for t in range(n)])

    # -- structure accessors ------------------------------------------------

    def structure_constants(self) -> tuple[tuple[int, int, int, object], ...]:
        """Sorted sparse table as 1-based (i, j, k, coeff) tuples."""
        element = self._entry_scalar()
        items = [(i + 1, j + 1, k + 1, element(x))
                 for (i, j), row in self._integer_table.items() for k, x in row.items()]
        return tuple(sorted(items, key=lambda t: t[:3]))

    # -- series, center, predicates ------------------------------------------

    def _ad_rows(self, u: dict[int, int]) -> dict[int, dict[int, int]]:
        """j -> [u, e_j] for an integer row u, on the integer ad table:
        [u, e_j] = sum over x of u[x] tab[x][j].  Entries are not reduced
        mod p and may cancel to 0."""
        ad_u: dict[int, dict[int, int]] = {}
        for x, ux in u.items():
            for j, row in self._ad[x].items():
                acc = ad_u.setdefault(j, {})
                for k, c in row.items():
                    acc[k] = acc.get(k, 0) + ux * c
        return ad_u

    def _nonzero(self, w: dict[int, int]) -> dict[int, int]:
        """The nonzero entries of an integer row, reduced mod p over GF(p)."""
        p = self.field.characteristic
        if p:
            return {k: c % p for k, c in w.items() if c % p}
        return {k: c for k, c in w.items() if c}

    def _bracket_span(self, us, vs) -> RowSpan:
        """The span of [u, v] over integer rows u in us and v in vs:
        [u, v] = sum over j of v[j] [u, e_j]."""
        span = RowSpan(self.field, self.n)
        for u in us:
            ad_u = self._ad_rows(u)
            for v in vs:
                w = self._nonzero(_combine(ad_u, v))
                if w:
                    span.add_integers(w)
        return span

    def lower_central_series(self) -> SeriesChain:
        """γ₁ = L and γᵢ₊₁ = [γᵢ, L].  Read off the table when one scan shows
        a chain basis (``_chain_basis_series``); otherwise, with a rewrite,
        γₖ is the span of P's rows k, …, n - 1 for k >= 2, since P maps the
        coordinate terms of A's series onto L's; without one it is computed
        here."""
        if self._series is None:
            series = self._chain_basis_series()
            if series is None:
                if self._adapted is not None:
                    series = _tail_series(self.field, self._chain)
                else:
                    series = self._own_series()
            self._series = series
        return self._series

    def _own_series(self) -> SeriesChain:
        # γ₂ is the span of the table rows; each later term brackets γᵢ
        # against every basis vector (brackets against representatives of
        # L/γ₂ alone would only suffice once L is known to be nilpotent).
        full = Subspace.full_space(self.field, self.n)
        terms = [full]
        nilpotent = True
        span = RowSpan(self.field, self.n)
        for row in self._integer_table.values():
            span.add_integers(row)
        while terms[-1].dim > 0:
            if span.dim == terms[-1].dim:
                nilpotent = False
                break
            terms.append(Subspace(self.n, span))
            span = self._bracket_span(terms[-1]._rows.values(), full._rows.values())
        return SeriesChain(tuple(terms), nilpotent)

    @cached_property
    def _graded(self) -> tuple["LieAlgebra", tuple[int, ...]]:
        """(G, grades): gr L = ⊕ γₖ/γₖ₊₁ as one algebra G, unvalidated, and
        the grade k of each basis vector of G, which spans grₖ.

        Let A = ``L._adapted`` or L.  G's basis is the canonical rows of each
        γₖ(A) whose pivot is not a pivot of γₖ₊₁(A), grade by grade in pivot
        order, so grades never decrease along it.  When those rows are A's
        own basis vectors in order (the chain rewrites, the catalog bases and
        their quotients), G starts from A's table; otherwise A is rewritten
        on them (``_table_in_basis``).  Either way each γₖ is spanned by the
        basis vectors of grade >= k and [γₐ, γ_b] ⊆ γₐ₊_b, so the class of
        [e_a, e_b] in gr_{a+b} is its component along the basis vectors of
        grade a + b, and G keeps exactly the constants c_ab^m with
        grade(m) = grade(a) + grade(b).
        Jacobi holds on G because it holds on L: the graded part of a
        Jacobiator of basis vectors is the Jacobiator in G.  L must be
        nilpotent, so that the rows make a basis."""
        A = self._adapted or self
        terms = A.lower_central_series().terms
        basis = [(k, row) for k, (sup, sub) in enumerate(zip(terms, terms[1:]), 1)
                 for c, row in sup._rows.items() if c not in sub._rows]
        grades = tuple(k for k, _ in basis)
        if [row for _, row in basis] == [{c: 1} for c in range(A.n)]:
            table, scale = A._integer_table, A._scale
        else:
            table, scale = A._table_in_basis([(row, 1) for _, row in basis])
        rows = {(a, b): graded for (a, b), row in table.items()
                if (graded := {m: x for m, x in row.items() if grades[m] == grades[a] + grades[b]})}
        G = LieAlgebra.__new__(LieAlgebra)
        G._setup(A.n, rows, _common_scale(rows, dict.fromkeys(rows, scale)), A.field, None)
        return G, grades

    def is_nilpotent(self) -> bool:
        return self.lower_central_series().nilpotent

    def nilpotency_class(self) -> int | None:
        return self.lower_central_series().nilpotency_class

    def derived_subalgebra(self) -> Subspace:
        return self.lower_central_series().gamma(2)

    def center(self) -> Subspace:
        """Z(L) = {z : [z, L] = 0}: γₙ₋₁ when the series has class n - 1,
        otherwise the annihilator of the columns c_jk[a] = tab[a][j][k] of
        the integer ad table, since [z, e_j] = sum over a of z[a] tab[a][j]
        up to the scale D.

        At class n - 1, γₙ₋₁ is central, since [γₙ₋₁, L] = γₙ = 0.  The n - 1
        drops dim γₖ - dim γₖ₊₁ are positive and sum to n, and the first is
        at least 2 (L = <y> + γ₂ would give γ₂ = [L, L] ⊆ [y, γ₂] + [γ₂, L] ⊆
        γ₃), so dim L/γ₂ = 2 and every later drop is 1.  Suppose z is central,
        in γₖ but not in γₖ₊₁, with k <= n - 2.  If k >= 2, then γₖ = <z> +
        γₖ₊₁, so γₖ₊₁ = [γₖ, L] = [γₖ₊₁, L] = γₖ₊₂, which class n - 1 rules
        out.  If k = 1, then L = <z, y> + γ₂, so γ₂ = [L, L] ⊆ [y, γ₂] +
        [γ₂, L] ⊆ γ₃, ruled out as well.  So Z(L) = γₙ₋₁.  The proof uses
        only bilinearity and [x, x] = 0, not the Jacobi identity."""
        if self._center is None:
            series = self.lower_central_series()
            if series.nilpotency_class == self.n - 1:
                self._center = series.gamma(self.n - 1)
            else:
                columns: dict[tuple[int, int], dict[int, int]] = {}
                for a, row in enumerate(self._ad):
                    for j, bracket in row.items():
                        for k, x in bracket.items():
                            columns.setdefault((j, k), {})[a] = x
                span = RowSpan(self.field, self.n)
                for column in columns.values():
                    span.add_integers(column)
                self._center = Subspace._spanned(self.field, self.n, span.annihilator())
        return self._center

    def is_maximal_class(self) -> tuple[bool, tuple[int, ...]]:
        """True iff the nilpotency class equals n - 1.  Needs n >= 3."""
        if self.n < 3:
            raise DimensionTooSmall(f"maximal class is only defined for n >= 3, got n={self.n}")
        series = self.lower_central_series()
        ok = series.nilpotent and series.nilpotency_class == self.n - 1
        return ok, series.dims()

    # -- quotients and ideals -------------------------------------------------

    def quotient(self, ideal: Subspace) -> QuotientPresentation:
        """Quotient by an ideal K, built on the integer table.

        Its basis is the images of e_f at K's free (non-pivot) columns f,
        and [e_f, e_g] mod K is read at those columns off K's reduction of
        the integer row D [e_f, e_g] (``Subspace._reduce_integers``, at d the
        lcm of K's leads at the row's pivots), which is d D [e_f, e_g] mod
        K.  Over Q each row is put in lowest terms over its denominator d D
        and then over the lcm of those denominators (``_common_scale``), the
        (rows, scale) that ``LieAlgebra(q, table)`` makes of the
        field-scalar table."""
        if ideal.ambient != self.n:
            raise DimensionMismatch("ideal of a different ambient space")
        if ideal.field != self.field:
            raise FieldMismatch("ideal over a different field")
        pivots = ideal._rows
        for index, row in enumerate(pivots.values()):
            ad_u = self._ad_rows(row)
            for j in range(self.n):
                if not ideal._span.contains_integers(self._nonzero(ad_u.get(j, {}))):
                    u = ideal.basis.row(index)
                    raise NotAnIdeal(
                        f"bracket of an ideal vector with {self.labels[j]} escapes the subspace",
                        witness=(u, j, self.bracket(u, self.basis_vector(j))),
                    )
        free = [c for c in range(self.n) if c not in pivots]
        rows: dict[tuple[int, int], dict[int, int]] = {}
        dens: dict[tuple[int, int], int] = {}
        for a, f in enumerate(free):
            for b in range(a + 1, len(free)):
                v = self._ad[f].get(free[b])
                if not v:
                    continue
                w, d = ideal._reduce_integers(v)
                row = self._nonzero({k: w[g] for k, g in enumerate(free) if g in w})
                if row:  # over GF(p), d D = 1
                    rows[(a, b)], dens[(a, b)] = row, d * self._scale
        scale = _common_scale(rows, dens)
        quotient = LieAlgebra._from_integer_rows(
            len(free), rows, scale, self.field, [self.labels[f] for f in free]
        )
        return QuotientPresentation(self, ideal, quotient)

    def central_ideals(self) -> list[Subspace]:
        """Subspaces spanned by subsets of the canonical center basis.

        Every subspace of the center is a central ideal; the coordinate
        subsets are the deterministic test family, ordered by size then
        lexicographically.  The family has 2^dim Z(L) members, so centers
        beyond ``MAX_CENTER_DIM`` dimensions are refused.
        """
        rows = list(self.center()._rows.values())
        _check_central_ideals(len(rows))
        out = [Subspace.zero_space(self.field, self.n)]
        for size in range(1, len(rows) + 1):
            for combo in itertools.combinations(range(len(rows)), size):
                out.append(Subspace._spanned(self.field, self.n, [rows[i] for i in combo]))
        return out

    # -- basis changes ---------------------------------------------------------

    def change_basis(self, p: Matrix) -> "LieAlgebra":
        """Rewrite the table in the basis f_i = sum_j p[i][j] e_j, from the
        integer rows of p (``SingularMatrix`` when p has no inverse)."""
        if p.shape != (self.n, self.n):
            raise DimensionMismatch("change of basis must be square of matching size")
        if p.field != self.field:
            raise FieldMismatch("change of basis over a different field")
        rows = [integer_row(self.field, r, self.n) for r in p._rows]
        return LieAlgebra._from_integer_rows(self.n, *self._table_in_basis(rows), self.field)

    def _table_in_basis(
        self, rows: list[tuple[dict[int, int], int]]
    ) -> tuple[dict[tuple[int, int], dict[int, int]], int]:
        """(rows, D'): the table of L in the basis f_i = u_i / s_i as
        integer rows over the common scale D', for ``rows`` the integer pairs
        (u_i, s_i) that ``integer_row`` makes; the one basis-change kernel,
        behind ``change_basis`` and ``_chain_rewrite``.  D' is the lcm of
        the rows' reduced denominators (1 over GF(p), where the rows are
        residues), the least scale that makes every row integral, so (rows,
        D') is what ``_setup`` takes and what ``LieAlgebra(n, table)`` makes
        of the same table in field scalars.

        Let R / den be the integer inverse of P (``inverse_rows``), T[a][b]
        = D [e_a, e_b] the integer table row for a < b, and T[b][a] =
        -T[a][b] (over GF(p) that is the stored residue up to a multiple of
        p).  Then [f_i, f_j] = c / (D s_i s_j den) for the integer row
        c_m = sum over a, b, k of u_i[a] u_j[b] T[a][b][k] R[k][m].  Rows
        are handled packed (``_pack``): TR[a][b] = T[a][b] R once per call,
        Y_i[b] = sum over a of u_i[a] TR[a][b] once per i, and one packed
        sum y = sum over b of u_j[b] Y_i[b] per pair i < j.  y is c packed,
        and the decoding is exact (below), so y = 0 exactly when c = 0: the
        pair then has no entry, and nothing is decoded.  Otherwise
        ``_unpack`` decodes y; over GF(p) the digits are then reduced mod p,
        once.  Over GF(p), y carries the unreduced integer digits, so the skip
        never fires there.  Over Q the row c over D s_i s_j den is then put
        over D' (``_common_scale``).

        Why the decoding is exact: packing is Z-linear, so y is c packed
        whatever the intermediate digits were.  c_m is a sum of at most n³
        terms (a, b and k each range over n indices), each at most
        max|u|²·max|T|·max|R| in absolute value.  So |c_m| <= bound =
        n³·max|u|²·max|T|·max|R| < 2^(B-1) for B = ``_digit_width(bound)``,
        and ``_unpack`` recovers every digit in that range."""
        field, n, p = self.field, self.n, self.field.characteristic
        inv, den = inverse_rows(field, rows)
        us = [[u.get(a, 0) for a in range(n)] for u, _ in rows]
        t_max = _max_abs(row.values() for row in self._integer_table.values())
        u_max, r_max = _max_abs(us), _max_abs(r.values() for r in inv)
        width = _digit_width(n ** 3 * u_max ** 2 * t_max * r_max)
        packed_inv = [_pack(r, width) for r in inv]
        tr = [[0] * n for _ in range(n)]  # tr[b][a] = TR[a][b]
        for (a, b), row in self._integer_table.items():
            x = sum(map(mul, row.values(), map(packed_inv.__getitem__, row)))
            tr[b][a], tr[a][b] = x, -x
        table: dict[tuple[int, int], dict[int, int]] = {}
        dens: dict[tuple[int, int], int] = {}
        for i in range(n - 1):
            y_i = [sum(map(mul, us[i], col)) for col in tr]
            if not any(y_i):
                continue
            si = rows[i][1]
            for j in range(i + 1, n):
                y = sum(map(mul, us[j], y_i))
                if not y:  # c = 0: no digit to decode
                    continue
                coords = _unpack(y, n, width)
                if p:
                    coords = [x % p for x in coords]
                row = {m: x for m, x in enumerate(coords) if x}
                if not row:
                    continue
                # d is always 1 over GF(p).
                table[(i, j)], dens[(i, j)] = row, self._scale * si * rows[j][1] * den
        return table, _common_scale(table, dens)

    # -- the generator-chain basis -------------------------------------------

    def _chain_rewrite(self):
        """A, L in the basis P whose rows are the generator chain (s, s₁,
        s₂, …, s_c) that ``_chain_rows`` finds, kept as ``_chain``, with no
        series set; None without a rewrite.  ``_construct`` keeps A only
        when it passes the scan.

        No rewrite is made when the tail s₂, …, s_c holds unit vectors only:
        then every γᵢ is already a coordinate subspace, as in the catalog
        bases and their quotients (s itself may be e_a + t e_b there, as for
        Qₙ).  The search reads γ₂ as the span of the first table rows,
        added until it reaches dim n - 2, which is built here and dropped
        after the search.  The tail lies in γ₂, so when s_c lies outside that
        partial span, dim γ₂ > n - 2, A cannot pass the scan, and none is
        made.  Input that is not a Lie algebra of maximal class may give a
        singular P, and then there is no rewrite either."""
        derived = RowSpan(self.field, self.n)
        for row in self._integer_table.values():
            if derived.dim >= self.n - 2:
                break
            derived.add_integers(row)
        rows = self._chain = self._chain_rows(derived)
        if rows is None or all(len(v) == 1 for v in rows[2:]):
            return None
        if not derived.contains_integers(rows[-1]):
            return None
        try:
            table, scale = self._table_in_basis([(r, 1) for r in rows])
        except SingularMatrix:
            return None
        rewrite = LieAlgebra.__new__(LieAlgebra)
        rewrite._setup(self.n, table, scale, self.field, None)
        return rewrite

    def _chain_rows(self, derived: RowSpan) -> list[dict[int, int]] | None:
        """A generator chain (s, s₁, s₂, …, s_c), sₖ₊₁ = [sₖ, s], as integer
        rows on the ad table, or None when there is none; the rewrite reads
        it.  Each step multiplies by D,
        so the row of sₖ (k >= 2) is D^(k-1) sₖ (mod p over GF(p)).

        The search needs dim γ₂ = n - 2.  It reads ``derived``, which
        ``_chain_rewrite`` gives as the span of the first table rows stopped
        at dim n - 2.  Whenever dim γ₂ = n - 2 that partial span is all of γ₂,
        so a, b and the chain are those of the full span, and the remaining
        rows are never needed when the rewrite turns out to have class n - 1
        in coordinate form (dim γ₂(A) = dim γ₂(L), since γ₂(A) is the image of
        γ₂(L) under P).  When dim γ₂ > n - 2 the partial span can still reach
        n - 2 and a chain be found here.

        With a < b the two free (non-pivot) columns of γ₂, e_a and e_b are
        independent modulo γ₂, and s runs over e_a (s₁ = e_b), e_b (s₁ =
        e_a), then e_a + t e_b (s₁ = e_b) for t = 1, …, n - 2 (and t < p over
        GF(p)): n = c + 1 distinct directions of L/γ₂.  The first s whose
        n - 2 tail vectors sₖ₊₁ = [sₖ, s] are all nonzero is kept.

        Why this finds a chain whenever one exists: if sₖ lies in γₖ but not
        in γₖ₊₁, then [sₖ, s] mod γₖ₊₂ is linear in s, vanishes on γ₂ and not
        on L, so the s that fail at step k form at most one line of L/γ₂ (a
        two-step centralizer; step 1 only needs s and s₁ independent, which
        every pair tried is), and whether s has a chain depends only on its
        line.  A failure at one step leaves every later vector one term too
        deep, so s_c = 0; a tail that is all nonzero is a basis of γ₂
        adapted to the series.  At most c - 1 lines fail, and over Q or
        GF(p) with p > n - 1 the c + 1 directions tried are distinct lines;
        for smaller p they are all p + 1 lines.  Over GF(2) every line may
        fail (``NO_CHAIN_GF2`` in the tests), and L keeps its basis."""
        n = self.n
        if n < 3 or derived.dim != n - 2:
            return None
        a, b = (c for c in range(n) if c not in derived.pivots)
        p = self.field.characteristic
        tries = [({a: 1}, {b: 1}), ({b: 1}, {a: 1})]
        tries += [({a: 1, b: t}, {b: 1}) for t in range(1, n - 1) if not p or t < p]
        for s, s1 in tries:
            ad_s, chain = self._ad_rows(s), [s, s1]
            while len(chain) < n:
                # [sₖ, s] = -[s, sₖ]; p - x negates a residue, and is -x over Q.
                cur = self._nonzero(_combine(ad_s, chain[-1]))
                if not cur:
                    break
                chain.append({k: p - x for k, x in cur.items()})
            else:
                return chain
        return None

    def _chain_basis_series(self) -> SeriesChain | None:
        """The lower central series of a table in a chain basis, read off one
        scan of the table; None when the scan fails and for n < 3.

        With weights w₀ = w₁ = 1 and w_k = k, and F_j = span(e_j, …, e_{n-1}),
        the scan asks two things of the table and one s ∈ L: the generator
        of the chain that construction found (``_chain``), and e_0 when it
        found none or ran no search.  The index test: every [e_a, e_b] lies
        in F_{max(w_a, w_b) + 1}, that is, for a < b, [e_a, e_b] has no entry
        at an index <= b.  The link test: for 1 <= k <= n - 2, [s, e_k] has a
        nonzero e_{k+1} entry.  The index test gives [L, F_k] ⊆ F_{k+1} for
        k >= 1 by bilinearity, and γ₂ ⊆ F₂, so γ_k ⊆ F_k for k >= 2.  The
        link gives, by induction on k from e_1 ∈ γ_1, e_k ∈ γ_k + F_{k+1}:
        [s, e_k] lies in [s, γ_k] + [s, F_{k+1}] ⊆ γ_{k+1} + F_{k+2} and has
        a nonzero e_{k+1} entry, so e_{k+1} ∈ γ_{k+1} + F_{k+2}.  So F_k =
        γ_k + F_{k+1} for k >= 2, which with F_n = 0 gives F_k ⊆ γ_k.  Then
        γ_k = F_k for k >= 2, and the class is n - 1.  Neither direction
        uses the Jacobi identity, so a table that is not validated gets its
        definitional series.

        A generator-chain rewrite passes the link test with s = e_0 by
        construction, since its e_{k+1} is a nonzero multiple of [e_k, e_0];
        for such a table the converse holds as well (class n - 1 forces dim
        γ_k = n - k, so γ_k = F_k and the index test passes), and the scan
        decides exactly whether its series has class n - 1 with coordinate
        terms.  When e_0 passes, construction's search tries s = e_0 first
        and keeps it, so reading s off the chain loses no table that e_0
        passes.  The catalog filiform and m₂ bases and their central
        quotients pass with s = e_0, and Qₙ, where [x₁, xₙ₋₁] = 0, with the
        s = x₁ + x₂ that the search finds."""
        n, ad, p = self.n, self._ad, self.field.characteristic
        if n < 3 or any(min(row) <= j for (_, j), row in self._integer_table.items()):
            return None
        s = self._chain[0] if self._chain else {0: 1}
        for k in range(1, n - 1):
            link = sum(c * ad[a].get(k, {}).get(k + 1, 0) for a, c in s.items())
            if not (link % p if p else link):
                return None
        return _tail_series(self.field, [{j: 1} for j in range(n)])

    def __eq__(self, other):
        return (
            isinstance(other, LieAlgebra)
            and self.n == other.n
            and self.field == other.field
            and self._scale == other._scale
            and self._integer_table == other._integer_table
        )

    def __hash__(self):
        # What __eq__ compares, with the rows in an order-free form.
        rows = frozenset((key, frozenset(row.items())) for key, row in self._integer_table.items())
        return hash((self.n, self.field, self._scale, rows))

    def __repr__(self):
        return f"LieAlgebra(n={self.n}, field={self.field})"


def _check_central_ideals(center_dim: int) -> None:
    """The central-ideal guard, shared by ``central_ideals`` and the
    ``report`` sweep: 2^dim Z(L) ideals are refused past ``MAX_CENTER_DIM``."""
    if center_dim > MAX_CENTER_DIM:
        raise ResourceLimit(
            f"the center is {center_dim}-dimensional; enumerating "
            f"2^{center_dim} central ideals is refused"
        )


def _constant_rows(n: int, brackets, field) -> tuple[dict[tuple[int, int], dict[int, int]], int]:
    """(rows, D) for 1-based entries (i, j, k, c), c a constant as
    ``field.element`` takes it, in one pass, the reader behind both public
    constructors: n and every index checked to be an int and in range, a
    repeated (i, j, k) refused, every constant read as integers
    (``field.integers``), the zero ones dropped, and rows[(i - 1, j - 1)] =
    D c over the least common scale D (1 over GF(p), where the entries are
    residues)."""
    if not isinstance(n, int) or n < 0:
        raise DimensionMismatch(f"dimension must be a nonnegative integer, got {n!r}")
    rows: dict[tuple[int, int], dict[int, int]] = {}
    fractions: list[tuple[dict[int, int], int, int]] = []
    seen = set()
    for i, j, k, coeff in brackets:
        if not (isinstance(i, int) and isinstance(j, int) and isinstance(k, int)):
            raise IndexOutOfRange(f"bracket indices ({i!r}, {j!r}, {k!r}) must be integers")
        if not (1 <= i < j <= n):
            raise IndexOutOfRange(f"bracket indices ({i}, {j}) must satisfy 1 <= i < j <= {n}")
        if not 1 <= k <= n:
            raise IndexOutOfRange(f"component index {k} must lie in [1, {n}]")
        if (i, j, k) in seen:
            raise DuplicateBracket(f"duplicate bracket entry ({i}, {j}, {k})")
        seen.add((i, j, k))
        num, den = field.integers(coeff)
        if not num:
            continue
        row = rows.setdefault((i - 1, j - 1), {})
        row[k - 1] = num
        if den != 1:
            fractions.append((row, k - 1, den))
    return rows, _scale_fractions(rows, fractions)


def _scale_fractions(rows, fractions) -> int:
    """The common scale D, the lcm of the reduced denominators, of rows of
    numerators, brought to D in place: ``fractions`` lists (row, k, den)
    for each entry num/den of ``rows`` with den != 1, and each entry
    num/den becomes num D / den."""
    scale = lcm(*(den for _, _, den in fractions))
    if scale > 1:
        for row in rows.values():
            for k in row:
                row[k] *= scale
        for row, k, den in fractions:
            row[k] //= den
    return scale


def _common_scale(rows, dens: dict) -> int:
    """The least common scale D of integer rows r over denominators d =
    dens[key], with the rows brought to it in place: each row is put in
    lowest terms, r / h over d / h for h = gcd(d, r), and D is the lcm of
    those denominators."""
    for key, d in dens.items():
        if d > 1:
            h = gcd(d, *rows[key].values())
            if h > 1:
                rows[key] = {k: x // h for k, x in rows[key].items()}
                dens[key] = d // h
    scale = lcm(*dens.values())
    for key, den in dens.items():
        if den != scale:
            rows[key] = {k: x * (scale // den) for k, x in rows[key].items()}
    return scale


def _tail_series(field, rows: list[dict[int, int]]) -> SeriesChain:
    """The series of class n - 1 with γ₁ = L and γₖ = span(rows k, …, n - 1)
    for k >= 2, for n independent integer rows.  The span grows from the
    last row up and is made canonical in place at each term, so every
    back-substitution starts from the previous term's canonical rows."""
    n = len(rows)
    span = RowSpan(field, n)
    terms = [Subspace(n, span.copy())]
    for j in range(n - 1, -1, -1):
        span.add_integers(rows[j])
        if j != 1:
            span.canonical_rows()
            terms.append(Subspace(n, span.copy()))
    return SeriesChain(tuple(reversed(terms)), True)


def _combine(rows: dict[int, dict[int, int]], v: dict[int, int]) -> dict[int, int]:
    """The integer row sum over j of v[j] rows[j] (a missing row is 0).  With
    rows = ``LieAlgebra._ad_rows(u)`` it is [u, v].  Entries are not reduced
    mod p."""
    w: dict[int, int] = {}
    for j, vj in v.items():
        for k, c in rows.get(j, {}).items():
            w[k] = w.get(k, 0) + vj * c
    return w


def _max_abs(rows) -> int:
    """The largest absolute value in ``rows``, iterables of ints (a dict
    row passes its ``values()``), or 0 if there is none."""
    return max((max(map(abs, r)) for r in rows if r), default=0)


def _digit_width(bound: int) -> int:
    """The least B with bound < 2^(B-1): digits of absolute value at most
    bound are B-bit signed digits."""
    return bound.bit_length() + 1


def _pack(row: dict[int, int], width: int) -> int:
    """The integer row as one int, sum over m of row[m] 2^(width m)."""
    return sum(x << (width * m) for m, x in row.items())


def _unpack(y: int, n: int, width: int) -> list[int]:
    """The n digits c_m of y = sum over m of c_m 2^(width m), exact when
    every |c_m| < 2^(width-1): adding 2^(width-1) to each digit makes them
    the base-2^width digits of y + offset."""
    half, mask = 1 << (width - 1), (1 << width) - 1
    z = y + half * (((1 << (width * n)) - 1) // mask)
    return [((z >> (width * m)) & mask) - half for m in range(n)]


def build(n: int, brackets, field=QQ, labels=None) -> LieAlgebra:
    """Construct a validated algebra from 1-based sparse bracket entries.

    ``brackets`` is an iterable of (i, j, k, coeff) with 1 <= i < j <= n and
    1 <= k <= n, meaning [e_i, e_j] has the given coefficient on e_k.  A
    Jacobi failure is reported with the violating triple.
    """
    return LieAlgebra._from_integer_rows(n, *_constant_rows(n, brackets, field), field, labels)
