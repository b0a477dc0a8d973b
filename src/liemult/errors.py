"""Exception types shared across the toolkit.

Everything raised on purpose derives from LieError so callers (and the CLI)
can distinguish toolkit diagnostics from genuine bugs.  ResourceLimit and its
subclasses mark guards that refuse oversized inputs rather than bad ones.
"""


class LieError(Exception):
    """Base class for all toolkit errors."""


class FieldMismatch(LieError):
    """Operands live over different scalar fields."""


class FieldSpecError(LieError):
    """Bad field description: composite modulus, or characteristic 2 without
    the explicit unsafe override."""


class BadScalarLiteral(LieError):
    """Text is not a valid scalar literal for the target field."""


class DimensionMismatch(LieError):
    """Shape or ambient-dimension disagreement."""


class SingularMatrix(LieError):
    pass


class IndexOutOfRange(LieError):
    """An index or parameter lies outside its documented domain."""


class BadLabel(LieError):
    """A basis label is not a nonempty string free of whitespace and '#',
    so the algebra file format could not carry it."""


class DuplicateBracket(LieError):
    """The same (i, j, k) structure-constant key was given twice."""


class JacobiViolation(LieError):
    """The structure constants fail the Jacobi identity.

    Carries the violating 1-based basis triple and the nonzero defect vector.
    """

    def __init__(self, triple, defect):
        self.triple = triple
        self.defect = defect
        i, j, k = triple
        entries = ", ".join(str(x) for x in defect)
        super().__init__(
            f"Jacobi identity fails on basis triple ({i}, {j}, {k}); "
            f"defect vector [{entries}]"
        )


class NotAnIdeal(LieError):
    """A subspace handed to quotient() is not an ideal.

    Carries a witness bracket that escapes the subspace.
    """

    def __init__(self, message, witness=None):
        self.witness = witness
        super().__init__(message)


class NotCentralIdeal(LieError):
    pass


class DimensionTooSmall(LieError):
    pass


class NonNilpotent(LieError):
    """The operation is only defined for nilpotent algebras."""


class EmptyWord(LieError):
    pass


class WordTooShort(LieError):
    pass


class CharTwoField(LieError):
    """The theorem hypotheses exclude characteristic 2."""


class AbelianInput(LieError):
    """Bound stated only for non-abelian algebras."""


class UnknownName(LieError):
    def __init__(self, name, suggestions=()):
        self.name = name
        self.suggestions = tuple(suggestions)
        msg = f"unknown catalog name {name!r}"
        if self.suggestions:
            msg += "; did you mean " + ", ".join(repr(s) for s in self.suggestions) + "?"
        super().__init__(msg)


class AlgebraFileError(LieError):
    """Algebra definition file is malformed; message carries the line number."""

    def __init__(self, message, line=None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


class ResourceLimit(LieError):
    """A size guard refused the computation."""


class TupleSpaceTooLarge(ResourceLimit):
    """ψ's reachable span held more states at one step than its limit."""
