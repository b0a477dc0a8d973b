from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from helpers import truncated_witt
from liemult.algebra import LieAlgebra, build
from liemult.catalog import standard_filiform
from liemult.errors import BadScalarLiteral, FieldMismatch, FieldSpecError, ResourceLimit
from liemult.fields import QQ, PrimeField, PrimeFieldElement, _is_prime, parse_field_spec


def test_rational_parse_lowest_terms():
    v = QQ.element("6/4")
    assert v == Fraction(3, 2)
    assert v.denominator == 2 and v.numerator == 3


def test_rational_parse_negative_and_integer():
    assert QQ.element("-7") == Fraction(-7)
    assert QQ.element("+3/9") == Fraction(1, 3)


@pytest.mark.parametrize("bad", ["1.5", "1e3", "a/2", "1/2/3", "", "1/0"])
def test_rational_parse_rejects_non_rationals(bad):
    with pytest.raises(BadScalarLiteral):
        QQ.element(bad)


@given(st.integers(-10**6, 10**6), st.integers(1, 10**6))
def test_rational_literal_round_trip(num, den):
    v = QQ.element(f"{num}/{den}")
    assert v == Fraction(num, den)
    assert v.denominator > 0  # positive denominator invariant


def test_gf_basic_arithmetic():
    F = PrimeField(7)
    a, b = F.element(4), F.element(5)
    assert a + b == F.element(2)
    assert a * b == F.element(6)
    assert a - b == F.element(6)
    assert -a == F.element(3)
    assert bool(F.zero) is False and bool(F.one) is True


@given(st.integers(0, 100), st.integers(1, 100))
def test_gf_division_round_trips(x, y):
    F = PrimeField(101)
    a, b = F.element(x), F.element(y)
    assert (a / b) * b == a
    assert 0 <= (a / b).v < 101


def test_gf_equal_to_int_implies_equal_hash():
    # Only the canonical residue compares equal to an int, so set and dict
    # lookups agree with ==: GF(7)(1) == 1, but GF(7)(1) != 8.
    F = PrimeField(7)
    for r in range(7):
        x = F.element(r)
        for k in range(-50, 50):
            if x == k:
                assert hash(x) == hash(k)
            assert (k in {x}) == (x == k) == (k == r)


def test_gf_division_by_zero():
    F = PrimeField(5)
    with pytest.raises(ZeroDivisionError):
        F.one / F.zero


def test_gf_mixed_modulus_is_field_mismatch():
    with pytest.raises(FieldMismatch):
        PrimeFieldElement(5, 1) + PrimeFieldElement(7, 1)


def test_gf_int_on_the_left_of_subtraction_and_division():
    x = PrimeField(7).element(2)
    assert 3 - x == PrimeFieldElement(7, 1)
    assert 3 / x == PrimeFieldElement(7, 5) and (3 / x) * x == 3


def test_gf_refuses_a_scalar_of_another_prime_field():
    F, other = PrimeField(7), PrimeFieldElement(5, 1)
    with pytest.raises(FieldMismatch, match=r"GF\(5\) element given to GF\(7\)"):
        F.element(other)
    with pytest.raises(FieldMismatch):
        F.integers(other)


def test_gf_element_rejects_fraction_operands():
    with pytest.raises(TypeError):
        PrimeField(5).one + Fraction(1, 2)


def test_gf_reads_an_integral_fraction_as_an_int():
    # Q's structure constants are Fractions, so a Q table reduces mod p as it is.
    F = PrimeField(7)
    for value in (Fraction(10), Fraction(-1), Fraction(14, 2)):
        assert F.integers(value) == F.integers(int(value))
        assert F.element(value) == F.element(int(value))
    for value in (Fraction(1, 2), Fraction(-7, 3)):
        with pytest.raises(FieldMismatch):
            F.integers(value)
        with pytest.raises(FieldMismatch):
            F.element(value)
    q = standard_filiform(5).structure_constants()
    assert build(5, q, field=F) == standard_filiform(5, field=F)
    table = {}
    for i, j, k, c in truncated_witt(6).structure_constants():
        table.setdefault((i - 1, j - 1), {})[k - 1] = c
    assert LieAlgebra(6, table, field=F) == truncated_witt(6, field=F)


def test_char_two_needs_override():
    with pytest.raises(FieldSpecError):
        PrimeField(2)
    assert PrimeField(2, allow_char_two=True).characteristic == 2


@pytest.mark.parametrize("p", [0, 1, 4, 9, 15, 21])
def test_composite_modulus_always_rejected(p):
    with pytest.raises(FieldSpecError):
        PrimeField(p)
    with pytest.raises(FieldSpecError):
        PrimeField(p, allow_char_two=True)


def test_gf_parse_rejects_rational_literal():
    F = PrimeField(7)
    with pytest.raises(BadScalarLiteral):
        F.element("1/2")
    assert F.element("-3") == F.element(4)


def test_parse_field_spec():
    assert parse_field_spec("Q") == QQ
    assert parse_field_spec("GF(11)") == PrimeField(11)
    with pytest.raises(FieldSpecError):
        parse_field_spec("GF(2)")
    assert parse_field_spec("GF(2)", allow_char_two=True).characteristic == 2
    with pytest.raises(FieldSpecError):
        parse_field_spec("R")


def test_field_equality():
    assert PrimeField(7) == PrimeField(7)
    assert PrimeField(7) != PrimeField(11)
    assert QQ != PrimeField(7)


# ψ₁₂ and ψ₁₃: the least strong pseudoprimes to the first 12 and 13 primes.
PSI_12 = 318665857834031151167461
PSI_13 = 3317044064679887385961981


def test_is_prime_matches_a_sieve_below_2e5():
    limit = 200_000
    sieve = bytearray([1]) * limit
    sieve[0] = sieve[1] = 0
    for d in range(2, int(limit**0.5) + 1):
        if sieve[d]:
            sieve[d * d::d] = bytes(len(range(d * d, limit, d)))
    assert [n for n in range(limit) if _is_prime(n)] == [n for n in range(limit) if sieve[n]]


@pytest.mark.parametrize("n", [561, 41041, 3215031751, 3825123056546413051, PSI_12])
def test_carmichael_numbers_and_strong_pseudoprimes_are_rejected(n):
    assert not _is_prime(n)
    with pytest.raises(FieldSpecError):
        PrimeField(n)


def test_mersenne_61_is_accepted():
    assert PrimeField(2**61 - 1).characteristic == 2**61 - 1


def test_modulus_past_the_proven_bound_is_a_resource_limit():
    with pytest.raises(ResourceLimit):
        parse_field_spec(f"GF({PSI_13})")
    # A base that fails still proves a large modulus composite.
    with pytest.raises(FieldSpecError):
        PrimeField(PSI_13 * 43)


def test_parse_integers_gives_lowest_terms_and_residues():
    assert [QQ.parse_integers(t) for t in ("+5", "007", "-0", "0/5", "2/4", "-6/3", "-5/10")] == [
        (5, 1), (7, 1), (0, 1), (0, 1), (1, 2), (-2, 1), (-1, 2)]
    F = PrimeField(7)
    assert [F.parse_integers(t) for t in ("9", "-3", "-0", "14", "+6")] == [
        (2, 1), (4, 1), (0, 1), (0, 1), (6, 1)]
