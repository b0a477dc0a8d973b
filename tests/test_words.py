import hashlib
import random
from fractions import Fraction

import pytest

from helpers import (
    NO_CHAIN_GF2,
    GeneratorSearchFailed,
    NotMaximalClass,
    PsiEvaluator,
    brute_psi_image_dim,
    chain_rows_as_vectors,
    defect_terms,
    filiform_square,
    free_class_two,
    generator_chain,
    has_generator_chain_oracle,
    lemma_defect,
    odd_witness_oracle,
    psi,
    random_rational_vector,
    random_unimodular,
    truncated_witt,
)
from liemult import words
from liemult.algebra import Subspace, build
from liemult.bounds import bound_report
from liemult.catalog import abelian, filiform_m2, filiform_q, standard_filiform
from liemult.errors import (
    EmptyWord,
    IndexOutOfRange,
    NonNilpotent,
    ResourceLimit,
    TupleSpaceTooLarge,
    WordTooShort,
)
from liemult.fields import QQ, PrimeField
from liemult.homology import multiplier_dim
from liemult.linalg import Matrix
from liemult.words import (
    free_defect,
    normed_bracket,
    psi_image_dim,
    psi_image_dims,
    term_schedule,
)


def _neg(v):
    return [-e for e in v]


def _ref_normed(L, xs, orientation):
    # Independent recursive definition of the nested words.
    if len(xs) == 1:
        return list(xs[0])
    if orientation == "left":
        return L.bracket(_ref_normed(L, xs[:-1], "left"), xs[-1])
    return L.bracket(xs[0], _ref_normed(L, xs[1:], "right"))


def test_left_normed_example():
    L = standard_filiform(4)
    x1, x2 = L.basis_vector(0), L.basis_vector(1)
    # [[x1,x2],x1] = [x3,x1] = -x4
    assert normed_bracket(L, [x1, x2, x1], "left") == _neg(L.basis_vector(3))


def test_right_normed_example():
    L = standard_filiform(4)
    x1, x2 = L.basis_vector(0), L.basis_vector(1)
    assert normed_bracket(L, [x2, x1], "right") == _neg(L.basis_vector(2))


def test_repeated_argument_word_vanishes():
    L = standard_filiform(5)
    x = random_rational_vector(random.Random(1), 5)
    for orient in ("left", "right"):
        assert not any(normed_bracket(L, [x] * 4, orient))


def test_singleton_and_pair_words():
    L = standard_filiform(4)
    rng = random.Random(3)
    for _ in range(20):
        x, y = random_rational_vector(rng, 4), random_rational_vector(rng, 4)
        assert normed_bracket(L, [x], "left") == x
        assert normed_bracket(L, [x], "right") == x
        assert normed_bracket(L, [x, y], "left") == normed_bracket(L, [x, y], "right")


def test_normed_bracket_matches_recursive_oracle():
    L = standard_filiform(6)
    rng = random.Random(5)
    for _ in range(20):
        xs = [random_rational_vector(rng, 6) for _ in range(rng.randint(1, 5))]
        for orient in ("left", "right"):
            assert normed_bracket(L, xs, orient) == _ref_normed(L, xs, orient)


def test_empty_word_rejected():
    with pytest.raises(EmptyWord):
        normed_bracket(standard_filiform(4), [], "left")


def test_schedule_endpoints():
    # k=1 carries the full left word; k=i+1 the full right word over x2..x_{i+1}.
    sched = term_schedule(4)
    assert sched[0] == ((), (0, 1, 2, 3), 4)
    assert sched[-1] == ((1, 2, 3, 4), (), 0)
    assert sched[1] == ((4,), (0, 1, 2), 3)


def test_defect_requires_four_arguments():
    L = standard_filiform(4)
    with pytest.raises(WordTooShort):
        lemma_defect(L, [L.basis_vector(0)] * 3)


def test_defect_zero_in_abelian():
    L = abelian(5)
    rng = random.Random(7)
    for _ in range(10):
        xs = [random_rational_vector(rng, 5) for _ in range(5)]
        assert not any(lemma_defect(L, xs))


def test_defect_terms_hand_expansion():
    # Tuple (x1, x2, x1, x2) in the n=4 filiform: every schedule term is
    # individually zero ([ -x4, x2] = 0, [x2,x3] = 0, twice each).
    L = standard_filiform(4)
    x1, x2 = L.basis_vector(0), L.basis_vector(1)
    terms = defect_terms(L, [x1, x2, x1, x2])
    assert len(terms) == 4
    for t in terms:
        assert not any(t)


def test_defect_zero_on_random_tuples_all_degrees():
    rng = random.Random(11)
    for n in (4, 5, 6, 7):
        L = standard_filiform(n)
        c = L.nilpotency_class()
        for i in (3, 4, 5):
            if i > c:
                continue
            for _ in range(60):
                xs = [random_rational_vector(rng, n) for _ in range(i + 1)]
                assert not any(lemma_defect(L, xs))


def test_corrupted_schedule_fails():
    # Mutation check: flipping one term's sign must break the identity.
    L = standard_filiform(5)
    rng = random.Random(13)
    broken = False
    for _ in range(80):
        xs = [random_rational_vector(rng, 5) for _ in range(4)]
        terms = defect_terms(L, xs)
        total = L.zero_vector()
        for idx, t in enumerate(terms):
            signed = _neg(t) if idx == 1 else t
            total = [a + b for a, b in zip(total, signed)]
        if any(total):
            broken = True
            break
    assert broken


def _free_terms(i):
    return defect_terms(words._FreeRing, [{(t,): 1} for t in range(i + 1)])


@pytest.mark.parametrize("i", range(3, 16))
def test_free_defect_is_zero_through_degree_15(i):
    # Each term is a bracket of i + 1 distinct letters: 2^i monomials, none
    # repeated, and the i + 1 terms cancel completely.
    terms = _free_terms(i)
    assert sum(map(len, terms)) == (i + 1) << i
    assert all(sorted(m) == list(range(i + 1)) for t in terms for m in t)
    assert free_defect(i) == {}


def _reversed_left_word(i):
    terms = term_schedule(i)
    right, left, outer = terms[1]
    return [terms[0], (right, left[::-1], outer), *terms[2:]]


def _dropped_term(i):
    terms = term_schedule(i)
    return terms[:1] + terms[2:]


@pytest.mark.parametrize("i", [3, 5, 8, 12])
@pytest.mark.parametrize("mutant", [_reversed_left_word, _dropped_term], ids=["reversed", "dropped"])
def test_free_defect_catches_a_wrong_schedule(monkeypatch, mutant, i):
    monkeypatch.setattr(words, "term_schedule", mutant)
    assert free_defect(i)


@pytest.mark.parametrize("i", [3, 5, 8, 12])
def test_free_expansion_catches_a_sign_flipped_term(i):
    total = {}
    for idx, t in enumerate(_free_terms(i)):
        for m, x in t.items():
            total[m] = total.get(m, 0) + (-x if idx == 1 else x)
    assert any(total.values())


def test_free_defect_admits_exactly_the_degrees_within_the_monomial_limit():
    # (i + 1)·2^i monomials at degree i: 15 is the last within 2^20.
    assert words.FREE_DEFECT_MAX_DEGREE == 15
    assert 16 << 15 <= words.FREE_MONOMIAL_LIMIT < 17 << 16
    with pytest.raises(ResourceLimit):
        free_defect(16)
    for i in (2, -1):
        with pytest.raises(WordTooShort):
            free_defect(i)


def test_psi2_schedule_matches_cyclic_form():
    # psi_2(x,y,z) = [x,y]~ (x) z~ + [z,x]~ (x) y~ + [y,z]~ (x) x~
    H = standard_filiform(3)
    x1, x2 = H.basis_vector(0), H.basis_vector(1)
    assert psi(H, 2, [x1, x2, x1]).is_zero


def test_psi_vanishes_on_repeated_argument():
    L = standard_filiform(5)
    x = L.basis_vector(0)
    assert psi(L, 3, [x, x, x, x]).is_zero


def test_psi_range_errors():
    L = standard_filiform(4)
    xs = [L.basis_vector(0)] * 3
    with pytest.raises(IndexOutOfRange):
        psi(L, 1, xs)
    with pytest.raises(IndexOutOfRange):
        psi(L, 4, xs)  # class is 3


def test_psi_image_dim_refuses_non_nilpotent_input_and_low_degrees():
    # [x1, x2] = x3, [x1, x3] = x3 is solvable and not nilpotent.
    solvable = build(3, [(1, 2, 3, 1), (1, 3, 3, 1)])
    with pytest.raises(NonNilpotent):
        psi_image_dim(solvable, 2)
    for i in (1, 0, -1):
        with pytest.raises(IndexOutOfRange, match=f"degree i={i} must be at least 2"):
            psi_image_dim(standard_filiform(5), i)


def test_normed_bracket_refuses_an_unknown_orientation():
    L = standard_filiform(4)
    with pytest.raises(IndexOutOfRange, match="orientation"):
        normed_bracket(L, [L.basis_vector(0), L.basis_vector(1)], "middle")


def test_psi3_witness_value_in_n4_filiform():
    # Hand expansion at (x1, x2, x1, x2): terms k=1 and k=3 each contribute
    # -(x4 class) tensor (x2 class); total coordinates (0, -2).
    L = standard_filiform(4)
    x1, x2 = L.basis_vector(0), L.basis_vector(1)
    val = psi(L, 3, [x1, x2, x1, x2])
    assert (val.left_dim, val.right_dim) == (1, 2)
    assert val.coords == (Fraction(0), Fraction(-2))


def test_psi_multilinearity_per_slot():
    L = standard_filiform(5)
    ev = PsiEvaluator(L, 3)
    rng = random.Random(17)
    for slot in range(4):
        xs = [random_rational_vector(rng, 5) for _ in range(4)]
        ys = list(xs)
        y = random_rational_vector(rng, 5)
        a, b = Fraction(3, 2), Fraction(-5, 3)
        ys[slot] = [a * p + b * q for p, q in zip(xs[slot], y)]
        zs = list(xs)
        zs[slot] = y
        lhs = ev.value(ys).coords
        rhs = tuple(a * p + b * q for p, q in zip(ev.value(xs).coords, ev.value(zs).coords))
        assert lhs == rhs


def test_psi_unchanged_by_derived_perturbation():
    # Adding any element of gamma_2 to any slot leaves the value unchanged.
    L = standard_filiform(5)
    ev = PsiEvaluator(L, 3)
    gamma2 = L.derived_subalgebra()
    rng = random.Random(19)
    for slot in range(4):
        xs = [random_rational_vector(rng, 5) for _ in range(4)]
        w = L.zero_vector()
        for row in gamma2.basis.rows():
            coef = Fraction(rng.randint(-3, 3), 2)
            w = [a + coef * b for a, b in zip(w, row)]
        ys = list(xs)
        ys[slot] = [a + b for a, b in zip(xs[slot], w)]
        assert ev.value(xs).coords == ev.value(ys).coords


def test_psi_image_dims_n4_match_exhaustive_enumeration():
    L = standard_filiform(4)
    assert psi_image_dim(L, 2, "exact").dim == brute_psi_image_dim(L, 2) == 0
    assert psi_image_dim(L, 3, "exact").dim == brute_psi_image_dim(L, 3) == 1


GFP = PrimeField(2147483647)


def _alternating(n):
    """(i, dim, exact, mode, tuples_examined) of every degree for a
    maximal-class algebra whose images alternate 0, 1 without saturating the
    2-dimensional codomain.  On these inputs the reachable span evaluates
    4·⌊(i+3)/2⌋ transitions of the two free-column candidates at degree i."""
    return [(i, i % 2, True, "exact", 4 * ((i + 3) // 2)) for i in range(2, n)]


def _images(L):
    return [(p.i, p.dim, p.exact, p.mode, p.tuples_examined) for p in psi_image_dims(L)]


def _basis_changed(L, seed):
    return L.change_basis(random_unimodular(random.Random(seed), L.n, L.field))


# Dims from the full walk over candidate^(i+1), which the reachable span
# must reproduce; tuples_examined pins its transition count.  The Q_n family
# saturates its codomain at the top degree.
PSI_PINS = (
    [(f"filiform-{n}-{f}", lambda n=n, fld=fld: standard_filiform(n, field=fld), _alternating(n))
     for n in range(4, 11) for f, fld in (("Q", QQ), ("GF7", PrimeField(7)), ("GFp", GFP))]
    + [(f"m2-{n}", lambda n=n: filiform_m2(n), _alternating(n)) for n in range(5, 9)]
    + [("Q6", lambda: filiform_q(6), _alternating(5) + [(5, 2, True, "exact", 22)]),
       ("Q8", lambda: filiform_q(8), _alternating(7) + [(7, 2, True, "exact", 30)]),
       # Every basis vector lies outside gamma_2 here, but construction
       # rewrites L in its generator-chain basis, where gamma_2 has two free
       # columns, s and s1.
       ("basis-changed-filiform-5", lambda: _basis_changed(standard_filiform(5, field=GFP), 5),
        _alternating(5))]
)


@pytest.mark.parametrize("build_algebra,expected", [c[1:] for c in PSI_PINS],
                         ids=[c[0] for c in PSI_PINS])
def test_psi_image_dim_matches_full_enumeration(build_algebra, expected):
    L = build_algebra()
    assert _images(L) == expected
    # The oracle walks all n^(i+1) basis tuples; keep it to the cheap degrees.
    for i, dim, *_ in expected:
        if L.n ** (i + 1) <= 625:
            assert brute_psi_image_dim(L, i) == dim


def test_psi_exact_mode_through_n18():
    assert _images(standard_filiform(18, field=GFP)) == _alternating(18)


@pytest.mark.parametrize("n", [24, 64])
def test_psi_is_exact_at_every_degree_of_large_filiform(n):
    assert _images(standard_filiform(n, field=GFP)) == _alternating(n)


SEEDED_CASES = [(standard_filiform, 5), (standard_filiform, 12), (filiform_m2, 5),
                (filiform_m2, 10), (filiform_q, 6), (filiform_q, 10)]


@pytest.mark.parametrize("field", [QQ, PrimeField(7), GFP], ids=["Q", "GF7", "GFp"])
@pytest.mark.parametrize("family,n", SEEDED_CASES,
                         ids=[f"{f.__name__}-{n}" for f, n in SEEDED_CASES])
def test_psi_of_basis_changed_input_matches_catalog_basis(field, family, n):
    base = family(n, field=field)
    L = _basis_changed(base, n)
    dims = [(p.i, p.dim, p.exact) for p in psi_image_dims(L)]
    assert dims == [(p.i, p.dim, p.exact) for p in psi_image_dims(base)]
    for i, dim, _ in dims:
        if L.n ** (i + 1) <= 625:
            assert brute_psi_image_dim(L, i) == dim


def _filiform5_plus_line(basis=None, field=GFP):
    """filiform-5 ⊕ line (x6 central), by default over GF(2^31 - 1), where
    the oracle is fastest: not of maximal class, so it keeps its basis; d =
    dim L/γ₂ = 3 and the class is 4.  ``basis`` rows give the basis f_i =
    sum_j basis[i][j] x_j."""
    L = build(6, [(1, 2, 3, 1), (1, 3, 4, 1), (1, 4, 5, 1)], field=field)
    return L if basis is None else L.change_basis(Matrix(field, basis))


def _rationally_scaled(L, seed):
    """L over Q in the basis diag(1 / (1 + (7i + seed) mod 5)) times
    ``random_unimodular(Random(seed))``, whose table has denominators, so its
    integer ad table is scaled by D > 1."""
    n = L.n
    scale = Matrix(QQ, [[Fraction(1, 1 + (i * 7 + seed) % 5) if i == j else 0
                         for j in range(n)] for i in range(n)])
    return L.change_basis(scale @ random_unimodular(random.Random(seed), n))


# f1 = x1, f2 = x1 + x3, f3 = x2, f4..f6 = x4..x6: the first two basis vectors
# outside γ₂ are dependent modulo γ₂, so they are no complement of it.
DEPENDENT_PAIR = [[1, 0, 0, 0, 0, 0], [1, 0, 1, 0, 0, 0], [0, 1, 0, 0, 0, 0],
                  [0, 0, 0, 1, 0, 0], [0, 0, 0, 0, 1, 0], [0, 0, 0, 0, 0, 1]]


@pytest.mark.parametrize("basis", [None, DEPENDENT_PAIR], ids=["catalog", "dependent-pair"])
def test_psi_of_non_maximal_class_input_with_three_generators(basis):
    L = _filiform5_plus_line(basis)
    assert L._adapted is None and L.nilpotency_class() == 4
    gamma2 = L.derived_subalgebra()
    assert L.n - gamma2.dim == 3
    if basis is not None:
        f1, f2 = L.basis_vector(0), L.basis_vector(1)
        assert not gamma2.contains_vector(f1) and not gamma2.contains_vector(f2)
        assert gamma2.contains_vector([b - a for a, b in zip(f1, f2)])
    dims = [p.dim for p in psi_image_dims(L)]
    assert dims == [brute_psi_image_dim(L, i) for i in (2, 3, 4)] == [1, 2, 1]


RATIONAL_CASES = [(standard_filiform, 7), (filiform_m2, 7), (filiform_q, 8)]


@pytest.mark.parametrize("family,n", RATIONAL_CASES,
                         ids=[f"{f.__name__}-{n}" for f, n in RATIONAL_CASES])
def test_psi_of_rationally_scaled_input_matches_catalog_basis(family, n):
    # Adapted route: the chain-basis rewrite ψ runs on has table scale D > 1.
    base = family(n)
    for seed in (1, 2):
        L = _rationally_scaled(base, seed)
        assert L._adapted is not None and L._adapted._scale > 1
        assert _images(L) == _images(base)
        assert brute_psi_image_dim(L, 2) == 0  # n^3 <= 625


# (input in its catalog basis, seed, table scale D after scaling, ψ dims).
RAW_RATIONAL_CASES = {
    "filiform-5+line": (lambda: _filiform5_plus_line(field=QQ), 3, 240, [1, 2, 1]),
    # Here a projection that skipped γᵢ₊₁ would change the dims.
    "filiform-5+filiform-5": (lambda: filiform_square(5), 1, 3600, [4, 6, 4]),
}


@pytest.mark.parametrize("case", sorted(RAW_RATIONAL_CASES))
def test_psi_of_rationally_scaled_non_maximal_class_input(case):
    # Raw route: D > 1, and the canonical rows of γ₂, γ₃ and γ₄ have leads > 1.
    build_base, seed, scale, dims = RAW_RATIONAL_CASES[case]
    base = build_base()
    L = _rationally_scaled(base, seed)
    assert L._adapted is None and L._scale == scale
    terms = L.lower_central_series().terms
    assert all(max(r[c] for c, r in t._rows.items()) > 1 for t in terms[1:4])
    assert _images(L) == _images(base)
    assert [p.dim for p in psi_image_dims(L)] == dims
    if L.n ** 3 <= 625:
        assert brute_psi_image_dim(L, 2) == dims[0]


# Corpora the pins above do not reach: Witt over Q, Qₙ in small odd
# characteristic, a maximal-class input with no generator chain (so no
# ``_adapted``: in a dense basis gr L comes from a series that is no
# coordinate subspace), and one with dim L/γ₂ = 3.
DIFFERENTIAL_CASES = {
    **{f"W{n}": lambda n=n: truncated_witt(n) for n in range(4, 9)},
    **{f"Q{n}-GF{p}": lambda n=n, p=p: filiform_q(n, field=PrimeField(p))
       for n in (6, 8) for p in (3, 5, 7)},
    "no-chain-GF2": lambda: build(8, NO_CHAIN_GF2, field=PrimeField(2, allow_char_two=True)),
    "free-class-2-rank-3": lambda: free_class_two(3),
}


@pytest.mark.parametrize("dense", [False, True], ids=["own-basis", "dense"])
@pytest.mark.parametrize("case", sorted(DIFFERENTIAL_CASES))
def test_psi_matches_exhaustive_enumeration_beyond_the_pins(case, dense):
    L = DIFFERENTIAL_CASES[case]()
    if dense:
        L = _basis_changed(L, L.n)
    checked = [i for i in range(2, L.nilpotency_class() + 1) if L.n ** (i + 1) <= 625]
    assert checked
    for i in checked:
        assert psi_image_dim(L, i).dim == brute_psi_image_dim(L, i), i


@pytest.mark.parametrize("n,p,total", [(12, 5, 5), (14, 3, 6), (16, 7, 7)])
def test_q_n_pinching_total_in_small_characteristic(n, p, total):
    assert bound_report(filiform_q(n, field=PrimeField(p))).pinching.total == total


@pytest.mark.parametrize("family", [filiform_m2, truncated_witt], ids=["m2", "witt"])
def test_psi_of_n24_does_not_depend_on_the_basis(family):
    # No oracle reaches n = 24, so agreement across bases is the check.
    base = family(24)
    dims = [p.dim for p in psi_image_dims(base)]
    assert dims == [p.dim for p in psi_image_dims(_basis_changed(base, 24))]
    assert dims == [i % 2 for i in range(2, 24)]


def test_psi_of_dense_filiform8_squared_agrees_over_q_and_gfp():
    dims = [[p.dim for p in psi_image_dims(filiform_square(8, field).change_basis(
                random_unimodular(random.Random(16), 16, field)))]
            for field in (QQ, GFP)]
    assert dims[0] == dims[1]
    assert dims[0][2:4] == [4, 6]  # degrees 4 and 5, as the CI step pins them


def test_psi_image_dim_abelian_is_zero_any_degree():
    A = abelian(4)
    for i in (2, 3, 5):
        img = psi_image_dim(A, i)
        assert img.dim == 0 and img.exact


def test_psi_image_dim_rejects_unknown_mode():
    # Checked before the early return past the class (abelian(3) has class 1).
    for L, i in ((standard_filiform(6), 99), (abelian(3), 2), (standard_filiform(6), 3)):
        with pytest.raises(IndexOutOfRange):
            psi_image_dim(L, i, "bogus")


def test_psi_image_cap_guard(monkeypatch, capsys):
    import liemult.words as words
    from liemult.cli import EXIT_RESOURCE, main

    monkeypatch.setattr(words, "PSI_STATE_LIMIT", 1)
    with pytest.raises(TupleSpaceTooLarge):
        psi_image_dim(standard_filiform(5), 3)
    # No fallback: the batch helper refuses too.
    with pytest.raises(TupleSpaceTooLarge):
        psi_image_dims(standard_filiform(5))
    assert main(["psi", "--name", "filiform-5", "--i", "3"]) == EXIT_RESOURCE
    assert capsys.readouterr().err.startswith("resource guard:")


def test_psi_budget_answers_catalog_m2_18_at_every_degree():
    # The real state limit, not a patched one: no step holds more than 2 states.
    assert _images(filiform_m2(18)) == _alternating(18)


def test_psi_answers_dense_m2_16_at_every_degree():
    # Bracket words rarely vanish in this basis; the reachable span holds at
    # most 2 states per step.
    L = _basis_changed(filiform_m2(16), 5)
    assert [p.dim for p in psi_image_dims(L)] == [p.dim for p in psi_image_dims(filiform_m2(16))]
    assert bound_report(L).pinching.total == 7


def test_pinching_inequality_small_filiform():
    for n in range(4, 8):
        L = standard_filiform(n)
        total = sum(p.dim for p in psi_image_dims(L))
        assert total <= (n - 1) - multiplier_dim(L)


def test_generator_chain_n4():
    L = standard_filiform(4)
    chain = generator_chain(L)
    assert list(chain.s) == L.basis_vector(0)
    assert list(chain.s1) == L.basis_vector(1)
    series = L.lower_central_series()
    assert len(chain.tail) == 2  # s_2, s_3
    for idx, v in enumerate(chain.tail, start=2):
        assert series.gamma(idx).contains_vector(v)
        assert not series.gamma(idx + 1).contains_vector(v)


def test_generator_chain_n5_ends_at_socle():
    L = standard_filiform(5)
    chain = generator_chain(L)
    assert len(chain.tail) == 3
    last = chain.tail[-1]
    assert Subspace.from_vectors(QQ, 5, [list(last)]) == Subspace.from_vectors(
        QQ, 5, [L.basis_vector(4)]
    )


def test_generator_chain_rejects_non_maximal_class():
    with pytest.raises(NotMaximalClass):
        generator_chain(abelian(4))


def test_generator_chain_fallback_on_swapped_basis():
    # Swap e1 and e2: the first direction s = f1 (old x2) fails the chain at
    # the second step, so the search must go on to s = f2 (old x1).
    L = standard_filiform(4)
    perm = Matrix(QQ, [[0, 1, 0, 0], [1, 0, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]])
    swapped = L.change_basis(perm)
    chain = generator_chain(swapped)
    assert list(chain.s) == swapped.basis_vector(1)
    series = swapped.lower_central_series()
    for idx, v in enumerate(chain.tail, start=2):
        assert series.gamma(idx).contains_vector(v)
        assert not series.gamma(idx + 1).contains_vector(v)


# sha256 of the (s, s1, tail) output, entries in field notation, one line per
# algebra: catalog standard filiform 3..12, m2 5..10, Q 6/8/10, then seeded
# basis changes (seeds 1-3) of filiform-7, filiform-10, m2-8 and Q-8, and over
# Q rational basis changes, whose tables have denominators (the integer ad
# table is scaled by D > 1).  The catalog Q_n take s = e_a + e_b.  Pinned from
# the construction-time search on integer rows (``LieAlgebra._chain_rows``),
# converted to field scalars; the recurrence and series test below checks
# every pinned chain.
CHAIN_PINS = {
    ("Q", "catalog"): "8b845144d38827e2f351cda76e47d745c56b49aeafaed3e4356ea7d3885f983d",
    ("Q", "dense"): "d6be77737c454af990b937c0f5db4377396fd913391d02ca5e1df4d7792ed3c2",
    ("GF7", "catalog"): "92ccd29b0a9e8b89b09c260679ea2f2d482d6c6ad0ad2aa89c1f612c5d9468d9",
    ("GF7", "dense"): "0951c03e7105ea80e979a0e03545e300ef6fbb332b020ed4fb3c301b64fbf72e",
    ("GFp", "catalog"): "19842bde9ba33d0906c6610dddc98a76bf0372aa902b50156d08516198b5f638",
    ("GFp", "dense"): "b2e30f0789113d0caa28328f9e72cf8ac58912c217a9d958b82531e2430fd4d3",
    ("Q", "rational"): "96208e2f1434336e6dc4b42b8bce1488e81055262d1c315a212c14a6f63adef2",
}
CHAIN_FIELDS = {"Q": QQ, "GF7": PrimeField(7), "GFp": PrimeField(2147483647)}


def _chain_corpus(fid, kind):
    F = CHAIN_FIELDS[fid]
    if kind == "catalog":
        return ([standard_filiform(n, F) for n in range(3, 13)]
                + [filiform_m2(n, F) for n in range(5, 11)]
                + [filiform_q(n, F) for n in (6, 8, 10)])
    if kind == "rational":
        algebras = []
        for family, n in ((standard_filiform, 7), (filiform_m2, 7), (filiform_q, 8)):
            for seed in (1, 2):
                L = _rationally_scaled(family(n), seed)
                assert L._scale > 1
                algebras.append(L)
        return algebras
    return [family(n, F).change_basis(random_unimodular(random.Random(seed), n, F))
            for family, n in ((standard_filiform, 7), (standard_filiform, 10),
                              (filiform_m2, 8), (filiform_q, 8))
            for seed in (1, 2, 3)]


@pytest.mark.parametrize("fid,kind", sorted(CHAIN_PINS))
def test_generator_chain_outputs_are_pinned(fid, kind):
    lines = []
    for L in _chain_corpus(fid, kind):
        chain = generator_chain(L)
        lines.append("|".join(",".join(str(x) for x in v)
                              for v in (chain.s, chain.s1, *chain.tail)))
    assert hashlib.sha256("\n".join(lines).encode()).hexdigest() == CHAIN_PINS[fid, kind]


@pytest.mark.parametrize("fid,kind", sorted(CHAIN_PINS))
def test_pinned_chains_follow_the_recurrence_down_the_series(fid, kind):
    # s_k = [s_{k-1}, s] by the field-scalar bracket, and s_k lies in
    # γ_k \ γ_{k+1}, for 2 <= k <= c; s and s1 span L modulo γ₂.
    for L in _chain_corpus(fid, kind):
        chain = generator_chain(L)
        series = L.lower_central_series()
        assert len(chain.tail) == series.nilpotency_class - 1
        gamma2 = series.gamma(2)
        assert gamma2.sum(Subspace.from_vectors(L.field, L.n, [chain.s, chain.s1])).dim == L.n
        prev = chain.s1
        for k, v in enumerate(chain.tail, start=2):
            assert list(v) == L.bracket(list(prev), list(chain.s))
            assert series.gamma(k).contains_vector(v)
            assert not series.gamma(k + 1).contains_vector(v)
            prev = v
        if L._adapted is not None:
            assert chain_rows_as_vectors(L, L._chain) == [chain.s, chain.s1, *chain.tail]


def _chain_found(L):
    try:
        generator_chain(L)
    except GeneratorSearchFailed:
        return False
    return True


@pytest.mark.parametrize("p", [3, 5, 7])
def test_generator_chain_is_found_exactly_when_one_exists(p):
    F = PrimeField(p)
    checked = 0
    for family, sizes in ((standard_filiform, range(4, 10)), (filiform_m2, range(5, 10)),
                          (filiform_q, (6, 8)), (truncated_witt, range(4, 10))):
        for n in sizes:
            for seed in (1, 2):
                L = family(n, F).change_basis(random_unimodular(random.Random(seed), n, F))
                if not L.is_maximal_class()[0]:
                    continue
                assert _chain_found(L) == has_generator_chain_oracle(L), (family, n, seed)
                checked += 1
    assert checked >= 28  # the maximal-class inputs: 28, 32 and 36 for p = 3, 5, 7


def test_odd_witness_found_in_n4_filiform():
    L = standard_filiform(4)
    assert psi_image_dim(L, 3).dim == 1
    _, value = odd_witness_oracle(L, 3)
    assert not value.is_zero


def test_odd_witness_all_odd_degrees_n6():
    L = standard_filiform(6)
    for i in (3, 5):
        assert psi_image_dim(L, i).dim >= 1
        assert odd_witness_oracle(L, i) is not None


def test_odd_witness_over_gf3():
    L = standard_filiform(5, field=PrimeField(3))
    assert psi_image_dim(L, 3).dim >= 1
    assert odd_witness_oracle(L, 3) is not None


def test_odd_witness_value_has_doubled_chain_component():
    # The witness value (PsiEvaluator on the oracle's tuple) must have a
    # nonzero coefficient against the s1 class, the doubling that dies in
    # characteristic 2.
    _, value = odd_witness_oracle(standard_filiform(4), 3)
    rd = value.right_dim
    s1_column = [value.coords[a * rd + 1] for a in range(value.left_dim)]
    assert any(s1_column)
    assert all(c.denominator == 1 and c.numerator % 2 == 0 for c in s1_column)
