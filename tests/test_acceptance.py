"""Acceptance suite: one test per criterion, each printing a PASS line.

All arithmetic is exact, so every comparison is equality or an exact
inequality; the only tolerances are the stated wall-clock budgets.
Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
"""

import random
import time
from math import comb

from helpers import (
    brute_psi_image_dim,
    defect_terms,
    entry_algebra,
    is_zero,
    lemma_defect,
    odd_witness_oracle,
    random_rational_vector,
    random_unimodular,
)
from liemult.algfile import parse_algebra, serialize_algebra
from liemult.bounds import (
    VIOLATED,
    bound_report,
    derived_subalgebra_bound,
    main_theorem_bound,
    moneyhun_bound,
    verify_central_quotient_bound,
)
from liemult.catalog import abelian, entries, get, standard_filiform
from liemult.cli import EXIT_INPUT, main as cli_main
from liemult.errors import DuplicateBracket, FieldSpecError, JacobiViolation
from liemult.fields import QQ, PrimeField
from liemult.homology import boundary_matrices, multiplier_dim
from liemult.words import psi_image_dim, psi_image_dims


def _ok(num, text):
    print(f"ACCEPTANCE {num}: PASS - {text}")


def test_criterion_01_even_attainment():
    t0 = time.perf_counter()
    L = standard_filiform(4)
    dim = multiplier_dim(L)
    bound = main_theorem_bound(4)
    elapsed = time.perf_counter() - t0
    assert dim == 2
    assert bound == 2
    assert dim == bound
    assert elapsed < 1.0
    assert get("L(3,4,1,4)").known_multiplier_dim == dim
    _ok(1, f"dim M(L(3,4,1,4)) = 2 attains the even-case bound ({elapsed:.3f}s)")


def test_criterion_02_odd_attainment():
    t0 = time.perf_counter()
    L = standard_filiform(5)
    dim = multiplier_dim(L)
    elapsed = time.perf_counter() - t0
    assert dim == 3
    assert main_theorem_bound(5) == (5 + 1) // 2 == 3
    assert dim == main_theorem_bound(5)
    assert get("L(7,5,1,7)").known_multiplier_dim == dim
    assert elapsed < 1.0
    _ok(2, f"dim M(L(7,5,1,7)) = 3 attains the odd-case bound ({elapsed:.3f}s)")


def test_criterion_03_bound_sweep():
    t0 = time.perf_counter()
    dims = {}
    for n in range(3, 15):
        L = standard_filiform(n)
        dims[n] = multiplier_dim(L)
        assert dims[n] <= main_theorem_bound(n), n
    elapsed = time.perf_counter() - t0
    assert elapsed < 30.0
    _ok(3, f"filiform sweep n=3..14 has zero bound violations ({elapsed:.1f}s)")


def test_criterion_04_bound_hierarchy():
    for n in range(4, 15):
        assert main_theorem_bound(n) <= n - 2 <= n - 1 <= moneyhun_bound(n)
        assert derived_subalgebra_bound(n, n - 2) == n - 1
        assert multiplier_dim(standard_filiform(n)) <= n - 1
    _ok(4, "bound hierarchy parity <= n-2 <= n-1 <= quadratic on n=4..14")


def test_criterion_05_identity_and_mutation():
    rng = random.Random(20260810)
    checked = 0
    for entry in entries():
        L = entry_algebra(entry)
        c = L.nilpotency_class()
        for i in (3, 4, 5):
            if i > c:
                continue
            for _ in range(1000):
                xs = [random_rational_vector(rng, L.n) for _ in range(i + 1)]
                assert not any(lemma_defect(L, xs)), (entry.name, i)
                checked += 1
    assert checked == 1000 * (1 + 2 + 3 + 3)  # classes 3, 4, 5, 6
    # Mutation check: flipping one term's sign must break the identity.
    L = standard_filiform(5)
    broken = False
    for _ in range(100):
        xs = [random_rational_vector(rng, 5) for _ in range(4)]
        terms = defect_terms(L, xs)
        total = L.zero_vector()
        for idx, t in enumerate(terms):
            signed = [-e for e in t] if idx == 1 else t
            total = [a + b for a, b in zip(total, signed)]
        if any(total):
            broken = True
            break
    assert broken
    _ok(5, f"bracket identity exactly zero on {checked} random tuples; "
           "sign-flipped schedule fails")


def test_criterion_06_chain_condition_and_invariance():
    rng = random.Random(6)
    for entry in entries():
        L = entry_algebra(entry)
        base = multiplier_dim(L)
        pair = boundary_matrices(L)
        assert is_zero(pair.d3 @ pair.d2), entry.name
        for _ in range(20):
            conj = L.change_basis(random_unimodular(rng, L.n))
            cpair = boundary_matrices(conj)
            assert is_zero(cpair.d3 @ cpair.d2), entry.name
            assert multiplier_dim(conj) == base, entry.name
    _ok(6, "d2∘d3 = 0 and multiplier dim invariant over 20 basis changes per entry")


def test_criterion_07_pinching_and_decomposition():
    for n in range(4, 9):
        L = standard_filiform(n)
        images = psi_image_dims(L)
        total = sum(p.dim for p in images)
        assert total <= (n - 1) - multiplier_dim(L), n
    L4 = standard_filiform(4)
    images = {p.i: p for p in psi_image_dims(L4)}
    assert (images[2].dim, images[3].dim) == (0, 1)
    assert images[2].exact and images[3].exact
    # Exhaustive oracle: every basis tuple, no pruning.
    assert brute_psi_image_dim(L4, 2) == 0
    assert brute_psi_image_dim(L4, 3) == 1
    _ok(7, "image-dimension sum within the (n-1) - dim M budget for n=4..8; "
           "n=4 decomposition (0, 1) confirmed by exhaustive enumeration")


def test_criterion_08_odd_witnesses():
    found = 0
    for field in (QQ, PrimeField(3)):
        for entry in entries():
            if entry.family != "filiform":
                continue
            L = entry_algebra(entry, field)
            c = L.nilpotency_class()
            for i in range(3, c + 1, 2):
                assert psi_image_dim(L, i).dim >= 1, (entry.name, i, field)
                # Independent check: a generator tuple with a nonzero value.
                assert odd_witness_oracle(L, i) is not None, (entry.name, i, field)
                found += 1
    assert found > 0
    _ok(8, f"dim im ψᵢ >= 1 at every odd degree in all {found} (algebra, degree) cases "
           "over Q and GF(3), each with a generator-tuple witness")


def test_criterion_09_central_ideal_inequality():
    for entry in entries():
        L = entry_algebra(entry)
        for K in L.central_ideals():
            rec = verify_central_quotient_bound(L, K)
            assert rec.holds, (entry.name, K.dim)
    H = entry_algebra(get("heisenberg-3"))
    rec = verify_central_quotient_bound(H, H.center())
    assert (rec.lhs, rec.rhs) == (3, 3)
    _ok(9, "central-ideal inequality holds for every catalog ideal; "
           "Heisenberg center gives equality 3 = 3")


def test_criterion_10_abelian_baseline():
    for n in range(1, 9):
        assert multiplier_dim(abelian(n)) == comb(n, 2) == moneyhun_bound(n)
    _ok(10, "abelian multiplier dims equal C(n,2), meeting the quadratic bound "
            "with equality for n=1..8")


def test_criterion_11_parser_and_diagnostics(tmp_path, capsys):
    for entry in entries():
        L = entry_algebra(entry)
        text = serialize_algebra(L)
        again = parse_algebra(text)
        assert again.structure_constants() == L.structure_constants()
        assert serialize_algebra(again) == text

    fixtures = {
        "jacobi.alg": (
            "lie-algebra v1\nfield Q\ndim 3\n"
            "bracket 1 2 3 1\nbracket 1 3 3 1\nbracket 2 3 1 1\n",
            JacobiViolation,
            "Jacobi identity fails",
        ),
        "duplicate.alg": (
            "lie-algebra v1\nfield Q\ndim 3\nbracket 1 2 3 1\nbracket 1 2 3 2\n",
            DuplicateBracket,
            "duplicate bracket key",
        ),
        "char2.alg": (
            "lie-algebra v1\nfield GF(2)\ndim 2\n",
            FieldSpecError,
            "unsafe-char-2",
        ),
    }
    for filename, (text, exc_type, needle) in fixtures.items():
        try:
            parse_algebra(text)
            raise AssertionError(f"{filename} unexpectedly parsed")
        except exc_type as exc:
            assert needle in str(exc)
        path = tmp_path / filename
        path.write_text(text)
        code = cli_main(["check", "--file", str(path)])
        captured = capsys.readouterr()
        assert code == EXIT_INPUT, filename
        assert needle in captured.err, filename
    _ok(11, "round-trip identity on the catalog; all three error fixtures "
            "exit 1 with their documented diagnostics")


def test_catalog_reports_have_no_violations():
    # Safety net on top of the numbered criteria: no bound anywhere reports
    # "violated" for valid nilpotent input over characteristic != 2.
    for entry in entries():
        rep = bound_report(entry_algebra(entry), algebra_id=entry.name)
        assert all(v != VIOLATED for _, v in rep.bounds.values()), entry.name
