"""Exact linear algebra over Q and GF(p) on one sparse elimination kernel.

``RowSpan`` is the only elimination code in the package.  It holds an echelon
basis as sparse integer rows ``{column: int}`` keyed by pivot column.  Over
GF(p) the entries are raw residues and every pivot is 1.  Over Q each row is a
primitive integer vector with a positive leading entry: the fraction-free idea
of Bareiss, reduced to cross-multiplying two integer rows and dividing the
content out, so no rational arithmetic runs inside elimination.  One clearing
step, ``RowSpan._clear``, is the only elimination arithmetic and the only
place it differs by field; forward reduction (``add``, ``contains_integers``)
and back-substitution to the canonical reduced basis (``canonical_rows``, the
integer rows a ``Subspace`` keeps; ``matrix`` makes them dense) both use it.
``annihilator`` reads the integer rows orthogonal to the span off the
canonical rows, one per free column; it is the package's only kernel
routine, behind ``LieAlgebra.center``.  ``inverse_rows``, the one inverse
routine, reduces one ``RowSpan`` over integer rows.

``Matrix`` is a dense immutable matrix over one field, kept for what reads
it: the boundary maps of ``homology``, the argument of ``change_basis`` and
``Subspace.basis``.  Its rank feeds its rows into one fresh ``RowSpan``.
Its product multiplies the integer rows and columns (``integer_row``) of
its factors and makes one scalar per cell.
Echelon form here always means the canonical reduced form: leading
entries 1, zeros above and below every pivot, zero rows dropped.  That makes
every basis produced by this module byte-deterministic.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import Iterable, Sequence

from .errors import DimensionMismatch, FieldMismatch, SingularMatrix


class Matrix:
    """Immutable dense matrix over one exact field.

    Rows are stored as lists of field scalars; nothing mutates a constructed
    instance, so sharing across threads is safe.  ``rows`` may be any
    iterable of iterables, a generator included: it is consumed once, one row
    at a time, and each row is copied into the stored list as it arrives, so
    a caller that generates its rows never holds them beside the matrix.
    """

    def __init__(self, field, rows: Iterable[Iterable], ncols: int | None = None):
        element = field.element
        stored = []
        width = None
        for r in rows:
            row = list(map(element, r))
            if width is None:
                width = len(row)
            elif len(row) != width:
                raise DimensionMismatch("ragged rows")
            stored.append(row)
        if width is None:
            width = 0 if ncols is None else ncols
        elif ncols is not None and ncols != width:
            raise DimensionMismatch(f"expected {ncols} columns, rows have {width}")
        self.field = field
        self._rows = stored
        self.nrows = len(stored)
        self.ncols = width

    @property
    def shape(self) -> tuple[int, int]:
        return (self.nrows, self.ncols)

    def row(self, i: int) -> list:
        return list(self._rows[i])

    def rows(self) -> list[list]:
        return [list(r) for r in self._rows]

    def __matmul__(self, other: "Matrix") -> "Matrix":
        if self.field != other.field:
            raise FieldMismatch("matrix product across different fields")
        if self.ncols != other.nrows:
            raise DimensionMismatch(f"{self.shape} @ {other.shape}")
        # Integer rows u / s of self and integer columns v / t of other: the
        # entry is (u . v) / (s t), one scalar per cell (s = t = 1 over GF(p)).
        field = self.field
        us = [integer_row(field, r, self.ncols) for r in self._rows]
        vs = [integer_row(field, [r[j] for r in other._rows], other.nrows)
              for j in range(other.ncols)]
        element = field.element
        out = []
        for u, s in us:
            row = []
            for v, t in vs:
                x = sum([a * v[k] for k, a in u.items() if k in v])
                row.append(element(x) if s * t == 1 else Fraction(x, s * t))
            out.append(row)
        return Matrix(field, out, ncols=other.ncols)

    def rank(self) -> int:
        """The rank: the dimension of the ``RowSpan`` the rows are fed into."""
        span = RowSpan(self.field, self.ncols)
        for r in self._rows:
            span.add(r)
        return span.dim

    def __eq__(self, other):
        return (
            isinstance(other, Matrix)
            and self.field == other.field
            and self.shape == other.shape
            and self._rows == other._rows
        )

    def __repr__(self):
        return f"Matrix({self.field}, {self.nrows}x{self.ncols})"


def inverse_rows(
    field, rows: list[tuple[dict[int, int], int]]
) -> tuple[list[dict[int, int]], int]:
    """(R, den) with R / den the inverse of the square matrix P whose row i is
    u_i / s_i, for ``rows`` the pairs (u_i, s_i) that ``integer_row`` makes.

    One ``RowSpan`` over the integer rows [u_i | s_i e_i], which span the row
    space of [P | I] and so of [I | P^-1]: the canonical row with pivot k is
    its lead times [e_k | row k of P^-1].  R holds those right halves over the
    common denominator den, the least common denominator of P^-1's entries
    (1 over GF(p), where every lead is 1).  Raises ``SingularMatrix`` when
    some pivot lies in the right half.

    The rows enter the reduction last first, which changes no result.  For
    a generator chain (``LieAlgebra._chain_rewrite``) the last k rows span
    the series term γₙ₋ₖ, and over Q the fraction-free entries stay smaller
    that way."""
    n = len(rows)
    span = RowSpan(field, 2 * n)
    for i in reversed(range(n)):
        u, s = rows[i]
        span.add_integers({**u, n + i: s})
    canon = span.canonical_rows()
    if any(c >= n for c in canon):
        raise SingularMatrix("matrix is singular")
    den = lcm(*(r[c] for c, r in canon.items()))
    inv = [{j - n: x * (den // r[c]) for j, x in r.items() if j >= n} for c, r in canon.items()]
    return inv, den


def integer_row(field, vec, ncols: int) -> tuple[dict[int, int], int]:
    """(row, s): the nonzero entries of vec as integers, row = s * vec.  Over
    GF(p) they are residues and s = 1, and an entry that is a multiple of p
    is 0; over Q, s is the lcm of the denominators.  vec is a sequence of
    length ncols or a sparse ``{index: scalar}`` dict with indices in
    range(ncols)."""
    if isinstance(vec, dict):
        if vec and not (min(vec) >= 0 and max(vec) < ncols):
            raise DimensionMismatch(f"vector index out of range for {ncols} columns")
        items = vec.items()
    elif len(vec) != ncols:
        raise DimensionMismatch(f"vector length {len(vec)} vs {ncols} columns")
    else:
        items = enumerate(vec)
    element = field.element
    nz = {j: element(x) for j, x in items if x}
    if field.characteristic:
        return {j: v for j, x in nz.items() if (v := x.v)}, 1
    scale = lcm(*(x.denominator for x in nz.values()))
    return {j: x.numerator * (scale // x.denominator) for j, x in nz.items()}, scale


class RowSpan:
    """Incrementally maintained row space over sparse exact integer rows.

    ``add`` and ``contains_integers`` forward-reduce a vector against the
    pivot rows; ``canonical_rows()`` back-substitutes to the canonical
    reduced basis, ``matrix()`` makes it dense and ``annihilator()`` reads
    its orthogonal complement off it.  Rows may arrive one at a time
    (series, image enumeration); ``Matrix.rank`` feeds its rows here too.
    """

    def __init__(self, field, ncols: int):
        self.field = field
        self.ncols = ncols
        self._p = field.characteristic  # 0 over Q
        self._rows: dict[int, dict[int, int]] = {}

    @property
    def dim(self) -> int:
        return len(self._rows)

    @property
    def pivots(self):
        """The pivot columns (a view, in no particular order)."""
        return self._rows.keys()

    def copy(self) -> "RowSpan":
        # Rows are replaced, never changed in place, so they can be shared.
        out = RowSpan(self.field, self.ncols)
        out._rows = dict(self._rows)
        return out

    def add(self, vec: Sequence) -> bool:
        """Insert a vector; True if the span grew."""
        return self.add_integers(integer_row(self.field, vec, self.ncols)[0])

    def add_integers(self, v: dict[int, int]) -> bool:
        """Insert a vector given as its nonzero integer entries ``{column: int}``:
        residues mod p over GF(p), any nonzero integer multiple of the vector
        over Q.  True if the span grew."""
        v = self._reduce(v)
        if not v:
            return False
        c = min(v)
        self._rows[c] = self._pivot_row(v, c)
        return True

    def contains_integers(self, v: dict[int, int]) -> bool:
        """Membership of a vector given as in ``add_integers``."""
        return not self._reduce(v)

    def canonical_rows(self) -> dict[int, dict[int, int]]:
        """The canonical reduced basis, keyed by pivot in pivot order: each row
        zero at the other pivots, so one row space always has the same rows.
        Back-substitutes in place from the last pivot up, so each row is
        cleared only by finished rows."""
        rows = self._rows
        pivots = sorted(rows)
        for c in reversed(pivots):
            row = rows[c]
            for d in [d for d in row if d != c and d in rows]:
                row = self._clear(row, rows[d], d)
            rows[c] = row
        self._rows = {c: rows[c] for c in pivots}
        return self._rows

    def matrix(self) -> Matrix:
        """The canonical reduced basis as a dense ``Matrix``."""
        rows = self.canonical_rows()
        element, zero = self.field.element, self.field.zero
        dense = []
        for c, row in rows.items():
            lead = row[c]
            r = [zero] * self.ncols
            for j, x in row.items():
                r[j] = element(x) / lead
            dense.append(r)
        return Matrix(self.field, dense, ncols=self.ncols)

    def annihilator(self) -> list[dict[int, int]]:
        """Integer rows z with z · r = 0 for every r in the span, one per
        free (non-pivot) column f, in column order, as ``add_integers``
        takes them: z[f] = d and z[c] = -d r_c[f] / lead_c for each
        canonical row r_c with an entry at f, d the lcm of their leads (over
        GF(p) every lead is 1, d = 1 and z[c] is the residue p - r_c[f]).
        z · r_c = 0 because r_c is zero at every other pivot and z is zero
        at every other free column; the rows are independent because z is
        the only one nonzero at f, and there are ncols - dim of them, so
        they are a basis of the annihilator: the right null space of any
        matrix whose rows span the span."""
        rows, p = self.canonical_rows(), self._p
        out = []
        for f in range(self.ncols):
            if f not in rows:
                column = [(c, row[c], row[f]) for c, row in rows.items() if f in row]
                d = lcm(*(lead for _, lead, _ in column))
                z = {c: p - x if p else -x * (d // lead) for c, lead, x in column}
                z[f] = d
                out.append(z)
        return out

    def _reduce(self, v: dict[int, int]) -> dict[int, int]:
        """Forward-reduce v until its leading column is not a pivot; empty
        when v lies in the span."""
        rows = self._rows
        while v:
            c = min(v)
            row = rows.get(c)
            if row is None:
                break
            v = self._clear(v, row, c)
        return v

    def _clear(self, v: dict[int, int], row: dict[int, int], c: int) -> dict[int, int]:
        """v with column c eliminated by ``row``, whose entry there is a pivot."""
        b = v[c]
        p = self._p
        if p:
            # GF(p): the pivot is 1, so subtract b times the row.
            out = dict(v)
            for j, x in row.items():
                y = (out.get(j, 0) - b * x) % p
                if y:
                    out[j] = y
                else:
                    del out[j]
            return out
        # Q: a*v - b*row with the pair (a, b) reduced by its gcd, then the
        # content divided out, so entries stay as small as the row space allows.
        a = row[c]
        g = gcd(a, b)
        a, b = a // g, b // g
        out = dict(v) if a == 1 else {j: a * x for j, x in v.items()}
        for j, x in row.items():
            y = out.get(j, 0) - b * x
            if y:
                out[j] = y
            else:
                del out[j]
        g = gcd(*out.values())
        return {j: x // g for j, x in out.items()} if g > 1 else out

    def _pivot_row(self, v: dict[int, int], c: int) -> dict[int, int]:
        """Scale a new pivot row: leading entry 1 over GF(p); over Q primitive
        with a positive leading entry."""
        if self._p:
            inv = pow(v[c], -1, self._p)
            return {j: x * inv % self._p for j, x in v.items()}
        g = gcd(*v.values())
        if v[c] < 0:
            g = -g
        return {j: x // g for j, x in v.items()}
