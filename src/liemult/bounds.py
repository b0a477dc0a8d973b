"""Dimension bounds on the Schur multiplier and their verification.

Four bounds are evaluated: the classical quadratic bound n(n-1)/2, the
derived-subalgebra refinement (n+m-2)(n-m-1)/2 + 1, the maximal-class bound
n-2, and the parity bound (n/2 for even n, (n+1)/2 rounded up otherwise).
Verdicts are per bound: "holds" (strict), "attained" (equality), "violated"
(a hard failure for valid nilpotent input over characteristic != 2),
"not-applicable" and "out-of-scope" (characteristic 2, where the parity
bound's hypotheses fail and only the general bounds are reported).
"""

from __future__ import annotations

from math import comb
from typing import NamedTuple

from .algebra import LieAlgebra, Subspace
from .errors import (
    AbelianInput,
    CharTwoField,
    DimensionTooSmall,
    IndexOutOfRange,
    NonNilpotent,
    NotCentralIdeal,
)
from .homology import multiplier_dim
from .words import PsiImage, psi_image_dims

HOLDS = "holds"
ATTAINED = "attained"
VIOLATED = "violated"
NOT_APPLICABLE = "not-applicable"
OUT_OF_SCOPE = "out-of-scope"


def moneyhun_bound(n: int) -> int:
    if n < 0:
        raise IndexOutOfRange("dimension must be nonnegative")
    return n * (n - 1) // 2


def derived_subalgebra_bound(n: int, m: int) -> int:
    """Bound for non-abelian nilpotent algebras with dim L² = m >= 1."""
    if m == 0:
        raise AbelianInput("the derived-subalgebra bound is stated for non-abelian input")
    if not 1 <= m <= n - 1:
        raise IndexOutOfRange(f"derived dimension m={m} must lie in [1, n-1] for n={n}")
    return (n + m - 2) * (n - m - 1) // 2 + 1


def main_theorem_bound(n: int) -> int:
    """n/2 for even n, otherwise ceil((n+1)/2)."""
    if n < 3:
        raise DimensionTooSmall(f"the parity bound needs n >= 3, got n={n}")
    if n % 2 == 0:
        return n // 2
    return (n + 1) // 2


def _verdict(dim_m: int, bound: int) -> str:
    if dim_m > bound:
        return VIOLATED
    if dim_m == bound:
        return ATTAINED
    return HOLDS


class PinchingRecord(NamedTuple):
    """Sum of tensor-map image dimensions against the (n-1) - dim M budget."""

    per_degree: tuple[PsiImage, ...]
    total: int
    budget: int
    holds: bool
    all_exact: bool


class BoundReport(NamedTuple):
    algebra_id: str
    field_desc: str
    n: int
    dim_derived: int
    nilpotency_class: int
    is_maximal_class: bool
    dim_multiplier: int
    series_dims: tuple[int, ...]
    bounds: dict
    pinching: PinchingRecord | None = None

    @property
    def has_violation(self) -> bool:
        return any(v == VIOLATED for _, v in self.bounds.values())

    def to_dict(self) -> dict:
        doc = {
            "algebra": self.algebra_id,
            "field": self.field_desc,
            "n": self.n,
            "dim_derived": self.dim_derived,
            "class": self.nilpotency_class,
            "maximal_class": self.is_maximal_class,
            "dim_multiplier": self.dim_multiplier,
            "series_dims": list(self.series_dims),
            "bounds": {
                name: {"value": value, "verdict": verdict}
                for name, (value, verdict) in self.bounds.items()
            },
        }
        if self.pinching is not None:
            doc["pinching"] = {
                "per_degree": [
                    {"i": p.i, "dim": p.dim, "exact": p.exact, "mode": p.mode}
                    for p in self.pinching.per_degree
                ],
                "total": self.pinching.total,
                "budget": self.pinching.budget,
                "holds": self.pinching.holds,
                "all_exact": self.pinching.all_exact,
            }
        return doc


def bound_report(L: LieAlgebra, algebra_id: str = "") -> BoundReport:
    """Evaluate every applicable bound; never raises on characteristic 2
    (the parity verdict degrades to out-of-scope there)."""
    series = L.lower_central_series()
    if not series.nilpotent:
        raise NonNilpotent("bound verification requires a nilpotent algebra")
    n = L.n
    dim_m = multiplier_dim(L)
    m = series.gamma(2).dim
    max_class = n >= 3 and series.nilpotency_class == n - 1
    char2 = L.field.characteristic == 2

    bounds: dict[str, tuple[int | None, str]] = {}
    mb = moneyhun_bound(n)
    bounds["moneyhun"] = (mb, _verdict(dim_m, mb))
    if m >= 1:
        db = derived_subalgebra_bound(n, m)
        bounds["derived_subalgebra"] = (db, _verdict(dim_m, db))
    else:
        bounds["derived_subalgebra"] = (None, NOT_APPLICABLE)
    if max_class:
        # The n-2 refinement needs n >= 4: at n=3 the one nonabelian algebra
        # already has a 2-dimensional multiplier.
        if n >= 4:
            bounds["nminus2"] = (n - 2, _verdict(dim_m, n - 2))
        else:
            bounds["nminus2"] = (None, NOT_APPLICABLE)
        tb = main_theorem_bound(n)
        bounds["main_theorem"] = (tb, OUT_OF_SCOPE if char2 else _verdict(dim_m, tb))
    else:
        bounds["nminus2"] = (None, NOT_APPLICABLE)
        bounds["main_theorem"] = (None, NOT_APPLICABLE)

    pinching = None
    if max_class and not char2:
        per = tuple(psi_image_dims(L))
        total = sum(p.dim for p in per)
        budget = (n - 1) - dim_m
        pinching = PinchingRecord(
            per_degree=per,
            total=total,
            budget=budget,
            holds=total <= budget,
            all_exact=all(p.exact for p in per),
        )

    return BoundReport(
        algebra_id=algebra_id or repr(L),
        field_desc=str(L.field),
        n=n,
        dim_derived=m,
        nilpotency_class=series.nilpotency_class,
        is_maximal_class=max_class,
        dim_multiplier=dim_m,
        series_dims=series.dims(),
        bounds=bounds,
        pinching=pinching,
    )


def verify_main_theorem(L: LieAlgebra, algebra_id: str = "") -> BoundReport:
    """Full bound report for the parity bound's own hypotheses.

    Characteristic 2 is rejected outright; non-maximal-class input degrades
    to the general bounds (no parity or n-2 entries).
    """
    if L.field.characteristic == 2:
        raise CharTwoField("the parity bound excludes characteristic 2")
    return bound_report(L, algebra_id=algebra_id)


class CentralQuotientRecord(NamedTuple):
    """The inequality for a central ideal K:
    dim M(L) + dim(L² ∩ K) <= dim M(L/K) + C(dim K, 2) + dim (L/K)ᵃᵇ · dim K."""

    dim_k: int
    dim_m: int
    dim_cap: int
    dim_m_quotient: int
    dim_m_k: int
    tensor_dim: int
    lhs: int
    rhs: int
    holds: bool

    @property
    def equality(self) -> bool:
        return self.lhs == self.rhs

    def to_dict(self) -> dict:
        return {
            "dim_K": self.dim_k,
            "dim_multiplier": self.dim_m,
            "dim_derived_cap_K": self.dim_cap,
            "dim_multiplier_quotient": self.dim_m_quotient,
            "dim_multiplier_K": self.dim_m_k,
            "tensor_dim": self.tensor_dim,
            "lhs": self.lhs,
            "rhs": self.rhs,
            "holds": self.holds,
        }


def verify_central_quotient_bound(L: LieAlgebra, K: Subspace) -> CentralQuotientRecord:
    """Check the central-ideal inequality for one ideal K ⊆ Z(L).

    A central ideal is abelian, so dim M(K) is the closed form C(dim K, 2)
    and the tensor factor is a plain product of dimensions.
    """
    if not L.center().contains_subspace(K):
        raise NotCentralIdeal("K is not contained in the center")
    dim_m = multiplier_dim(L)
    derived = L.derived_subalgebra()
    cap = derived.dim_intersection(K)
    pres = L.quotient(K)
    dim_m_q = multiplier_dim(pres.quotient)
    dim_m_k = comb(K.dim, 2)
    ab_dim = pres.quotient.n - pres.quotient.derived_subalgebra().dim
    tensor = ab_dim * K.dim
    lhs = dim_m + cap
    rhs = dim_m_q + dim_m_k + tensor
    return CentralQuotientRecord(
        dim_k=K.dim,
        dim_m=dim_m,
        dim_cap=cap,
        dim_m_quotient=dim_m_q,
        dim_m_k=dim_m_k,
        tensor_dim=tensor,
        lhs=lhs,
        rhs=rhs,
        holds=lhs <= rhs,
    )
