"""Built-in algebra families and named fixtures.

``FAMILIES`` maps each family name to its builder and least dimension; it is
the one route to a family or named algebra.  A registry entry names a family
and its parameter, and no algebra is built until a command reads one, so an
import builds none.  The two classical small filiform algebras carry their
standard classification-table labels; the rest use systematic names
(filiform-n, abelian-n, heisenberg-3, which is filiform-3).  Vergne's other
maximal-class families, m2 and Q_n, have builders but no registry entries.
``difflib`` is loaded only when ``get`` misses, to suggest close names.
"""

from __future__ import annotations

from typing import Callable, NamedTuple

from .algebra import LieAlgebra, build
from .errors import DimensionMismatch, DimensionTooSmall, UnknownName
from .fields import QQ


class CatalogEntry(NamedTuple):
    name: str
    family: str
    params: tuple
    known_multiplier_dim: int | None = None
    provenance: str | None = None
    aliases: tuple[str, ...] = ()


def standard_filiform(n: int, field=QQ) -> LieAlgebra:
    """The maximal-class algebra with [x1, xi] = x_{i+1} for 2 <= i <= n-1."""
    if n < 3:
        raise DimensionTooSmall(f"the filiform family starts at n=3, got n={n}")
    return build(n, [(1, i, i + 1, 1) for i in range(2, n)], field=field)


def filiform_m2(n: int, field=QQ) -> LieAlgebra:
    """Vergne's m2: [x1, xi] = x_{i+1} for 2 <= i <= n-1 and
    [x2, xi] = x_{i+2} for 3 <= i <= n-2.  Maximal class, n >= 5."""
    if n < 5:
        raise DimensionTooSmall(f"the m2 family starts at n=5, got n={n}")
    return build(
        n,
        [(1, i, i + 1, 1) for i in range(2, n)] + [(2, i, i + 2, 1) for i in range(3, n - 1)],
        field=field,
    )


def filiform_q(n: int, field=QQ) -> LieAlgebra:
    """Vergne's Q_n for even n >= 6: [x1, xi] = x_{i+1} for 2 <= i <= n-2 and
    [xi, x_{n+1-i}] = (-1)^i xn for 2 <= i <= n/2.  Maximal class."""
    if n < 6:
        raise DimensionTooSmall(f"the Q_n family starts at n=6, got n={n}")
    if n % 2:
        raise DimensionMismatch(f"Q_n is defined for even n only, got n={n}")
    return build(
        n,
        [(1, i, i + 1, 1) for i in range(2, n - 1)]
        + [(i, n + 1 - i, n, (-1) ** i) for i in range(2, n // 2 + 1)],
        field=field,
    )


def abelian(n: int, field=QQ) -> LieAlgebra:
    if n < 1:
        raise DimensionTooSmall(f"abelian algebras need n >= 1, got n={n}")
    return build(n, [], field=field)


class Family(NamedTuple):
    """A family's builder, called as ``builder(n, field=...)``, and its least n."""

    builder: Callable[..., LieAlgebra]
    least_n: int


FAMILIES = {"filiform": Family(standard_filiform, 3), "abelian": Family(abelian, 1)}

_ENTRIES = (
    CatalogEntry(
        name="heisenberg-3",
        family="filiform",
        params=(3,),
        known_multiplier_dim=2,
        provenance="hand computation: C(3,2)=3, rank d2=1, rank d3=0",
        aliases=("filiform-3",),
    ),
    CatalogEntry(
        name="L(3,4,1,4)",
        family="filiform",
        params=(4,),
        known_multiplier_dim=2,
        provenance="low-dimensional classification tables",
        aliases=("filiform-4",),
    ),
    CatalogEntry(
        name="L(7,5,1,7)",
        family="filiform",
        params=(5,),
        known_multiplier_dim=3,
        provenance="low-dimensional classification tables",
        aliases=("filiform-5",),
    ),
    CatalogEntry(name="filiform-6", family="filiform", params=(6,)),
    CatalogEntry(name="filiform-7", family="filiform", params=(7,)),
    CatalogEntry(
        name="abelian-2",
        family="abelian",
        params=(2,),
        known_multiplier_dim=1,
        provenance="closed form C(n,2) for abelian algebras",
    ),
    CatalogEntry(
        name="abelian-3",
        family="abelian",
        params=(3,),
        known_multiplier_dim=3,
        provenance="closed form C(n,2) for abelian algebras",
    ),
)
_BY_NAME: dict[str, CatalogEntry] = {}
for _e in _ENTRIES:
    _BY_NAME[_e.name] = _e
    for _a in _e.aliases:
        _BY_NAME[_a] = _e


def entries() -> tuple[CatalogEntry, ...]:
    return _ENTRIES


def names(include_aliases: bool = False) -> tuple[str, ...]:
    if include_aliases:
        return tuple(_BY_NAME)
    return tuple(e.name for e in _ENTRIES)


def get(name: str) -> CatalogEntry:
    entry = _BY_NAME.get(name)
    if entry is None:
        import difflib
        suggestions = difflib.get_close_matches(name, list(_BY_NAME), n=3, cutoff=0.4)
        raise UnknownName(name, suggestions)
    return entry
