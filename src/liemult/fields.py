"""Exact scalar fields: arbitrary-precision rationals and odd prime fields.

Rational scalars are plain ``fractions.Fraction`` values (always lowest terms,
positive denominator).  Prime-field scalars are ``PrimeFieldElement`` wrappers
holding a residue in [0, p).  Both kinds support +, -, *, /, unary - and
truthiness, so all linear algebra and bracket code downstream is field
agnostic.  ``integers`` reads a constant as integers instead, a reduced
numerator and denominator over Q and a residue over GF(p), for the
constructions that build integer rows; ``parse_integers`` does the same for
a literal, for the parser.  ``element`` takes its fast paths itself and the
rest, a literal included, from ``integers``.

``PrimeField`` proves its modulus prime with the strong (Miller-Rabin) test
to the first 13 primes, which is exact below ψ₁₃ (``_is_prime``); an
undecided modulus past that bound raises ``ResourceLimit``.

Characteristic 2 is deliberately locked: ``PrimeField(2)`` requires the
``allow_char_two`` override, and the theorem-verification entry points reject
such fields outright.
"""

from __future__ import annotations

import re
import sys
from fractions import Fraction
from math import gcd

from .errors import BadScalarLiteral, FieldMismatch, FieldSpecError, ResourceLimit

_RATIONAL_RE = re.compile(r"^[+-]?\d+(?:/\d+)?$")
_FIELD_SPEC_RE = re.compile(r"^GF\((\d+)\)$")


def _is_integer_literal(text: str) -> bool:
    """Whether a stripped literal is an optional sign and then decimal
    digits, as the regex ^[+-]?\\d+$ decides: ``str.isdecimal`` is true
    exactly on the Unicode category Nd that \\d matches, and int() reads
    those digits."""
    return (text[1:] if text[:1] in ("+", "-") else text).isdecimal()


def _unconvertible(what: str, text: str) -> ResourceLimit:
    # int() converts at most sys.get_int_max_str_digits() digits (4,300 by default).
    return ResourceLimit(f"{what} of {len(text)} characters exceeds the limit of "
                         f"{sys.get_int_max_str_digits()} digits on integer conversion")


# The first 13 primes, and ψ₁₃: the least odd composite that is a strong
# pseudoprime to all of them (Sorenson and Webster, "Strong pseudoprimes to
# twelve prime bases", Math. Comp. 86 (2017)).  A base that fails the strong
# test proves p composite at any size; all 13 passing proves p prime only for
# p < ψ₁₃.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_BOUND = 3_317_044_064_679_887_385_961_981


def _is_prime(p: int) -> bool:
    """Exact primality: division by each base, then the strong test
    (Miller-Rabin) to every base.  A p >= ``_MR_BOUND`` that passes every base
    is undecided and refused with ``ResourceLimit``."""
    if p < 2:
        return False
    for q in _MR_BASES:
        if p % q == 0:
            return p == q
    d, s = p - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in _MR_BASES:
        x = pow(a, d, p)
        if x == 1 or x == p - 1:
            continue
        for _ in range(s - 1):
            x = x * x % p
            if x == p - 1:
                break
        else:
            return False
    if p >= _MR_BOUND:
        raise ResourceLimit(
            f"primality of modulus {p} is not decided: the strong test to the "
            f"first 13 prime bases proves primality only below {_MR_BOUND}"
        )
    return True


class RationalField:
    """The rational numbers.  Use the module singleton ``QQ``."""

    tag = "Q"
    characteristic = 0

    @property
    def zero(self) -> Fraction:
        return Fraction(0)

    @property
    def one(self) -> Fraction:
        return Fraction(1)

    def element(self, value) -> Fraction:
        if isinstance(value, Fraction):
            return value
        if isinstance(value, int):
            return Fraction(value)
        return Fraction(*self.integers(value))

    def integers(self, value) -> tuple[int, int]:
        """(numerator, denominator) of a Fraction, an int or a literal, in
        lowest terms with a positive denominator, and with no scalar made;
        ``FieldMismatch`` for any other value."""
        if isinstance(value, Fraction):
            return value.numerator, value.denominator
        if isinstance(value, int):
            return int(value), 1
        if isinstance(value, str):
            return self.parse_integers(value)
        raise FieldMismatch(f"cannot coerce {value!r} into Q")

    def parse_integers(self, text: str) -> tuple[int, int]:
        """(numerator, denominator) of a literal in lowest terms, with a
        positive denominator."""
        text = text.strip()
        try:  # a validated literal converts unless int() refuses its length
            if _is_integer_literal(text):
                return int(text), 1
            if not _RATIONAL_RE.match(text):
                raise BadScalarLiteral(
                    f"{text!r} is not a rational literal (use p/q or an integer)")
            num, den = map(int, text.split("/"))
        except ValueError:
            raise _unconvertible("literal", text) from None
        if den == 0:
            raise BadScalarLiteral(f"{text!r} has a zero denominator")
        g = gcd(num, den)
        return num // g, den // g

    def __repr__(self):
        return "Q"

    __str__ = __repr__

    def __eq__(self, other):
        return isinstance(other, RationalField)

    def __hash__(self):
        return hash("RationalField")


class PrimeFieldElement:
    """A residue modulo an odd prime (or 2 under the unsafe override)."""

    __slots__ = ("p", "v")

    def __init__(self, p: int, v: int):
        self.p = p
        self.v = v % p

    def _coerce(self, other):
        if isinstance(other, PrimeFieldElement):
            if other.p != self.p:
                raise FieldMismatch(f"GF({self.p}) vs GF({other.p}) operands")
            return other
        if isinstance(other, int):
            return PrimeFieldElement(self.p, other)
        return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return PrimeFieldElement(self.p, self.v + o.v)

    __radd__ = __add__

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return PrimeFieldElement(self.p, self.v - o.v)

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return PrimeFieldElement(self.p, o.v - self.v)

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return PrimeFieldElement(self.p, self.v * o.v)

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        if o.v == 0:
            raise ZeroDivisionError(f"division by zero in GF({self.p})")
        return PrimeFieldElement(self.p, self.v * pow(o.v, -1, self.p))

    def __rtruediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o.__truediv__(self)

    def __neg__(self):
        return PrimeFieldElement(self.p, -self.v)

    def __bool__(self):
        return self.v != 0

    def __eq__(self, other):
        if isinstance(other, PrimeFieldElement):
            return self.p == other.p and self.v == other.v
        if isinstance(other, int):
            # Only the canonical residue compares equal: an int hashes as
            # itself, so equal values then hash equal.
            return self.v == other
        return NotImplemented

    def __hash__(self):
        return hash(self.v)

    def __repr__(self):
        return f"{self.v}"


class PrimeField:
    """GF(p) for an odd prime p; p = 2 only behind ``allow_char_two``."""

    def __init__(self, p: int, allow_char_two: bool = False):
        if not isinstance(p, int) or not _is_prime(p):
            raise FieldSpecError(f"modulus {p} is not prime")
        if p == 2 and not allow_char_two:
            raise FieldSpecError(
                "characteristic 2 requires the explicit unsafe-char-2 override"
            )
        self.p = p

    @property
    def tag(self) -> str:
        return f"GF({self.p})"

    @property
    def characteristic(self) -> int:
        return self.p

    @property
    def zero(self) -> PrimeFieldElement:
        return PrimeFieldElement(self.p, 0)

    @property
    def one(self) -> PrimeFieldElement:
        return PrimeFieldElement(self.p, 1)

    def element(self, value) -> PrimeFieldElement:
        if isinstance(value, PrimeFieldElement) and value.p == self.p:
            return value
        if isinstance(value, int):
            return PrimeFieldElement(self.p, value)
        return PrimeFieldElement(self.p, self.integers(value)[0])

    def integers(self, value) -> tuple[int, int]:
        """(residue in [0, p), 1) of an element of this field, an int or a
        literal, with no scalar made; ``FieldMismatch`` for any other
        value."""
        if isinstance(value, PrimeFieldElement):
            if value.p != self.p:
                raise FieldMismatch(f"GF({value.p}) element given to GF({self.p})")
            return value.v, 1
        if isinstance(value, int):
            return value % self.p, 1
        if isinstance(value, str):
            return self.parse_integers(value)
        raise FieldMismatch(f"cannot coerce {value!r} into GF({self.p})")

    def parse_integers(self, text: str) -> tuple[int, int]:
        """(residue in [0, p), 1) for an integer literal."""
        text = text.strip()
        try:  # a validated literal converts unless int() refuses its length
            if _is_integer_literal(text):
                return int(text) % self.p, 1
        except ValueError:
            raise _unconvertible("literal", text) from None
        if _RATIONAL_RE.match(text):
            raise BadScalarLiteral(f"rational literal {text!r} is not allowed over GF({self.p})")
        raise BadScalarLiteral(f"{text!r} is not an integer literal")

    def __repr__(self):
        return self.tag

    __str__ = __repr__

    def __eq__(self, other):
        return isinstance(other, PrimeField) and other.p == self.p

    def __hash__(self):
        return hash(("PrimeField", self.p))


QQ = RationalField()


def parse_field_spec(text: str, allow_char_two: bool = False):
    """Parse a field descriptor: ``Q`` or ``GF(p)``."""
    text = text.strip()
    if text == "Q":
        return QQ
    m = _FIELD_SPEC_RE.match(text)
    if m:
        try:
            p = int(m.group(1))
        except ValueError:
            raise _unconvertible("modulus", m.group(1)) from None
        return PrimeField(p, allow_char_two=allow_char_two)
    raise FieldSpecError(f"unrecognized field spec {text!r} (use Q or GF(p))")
