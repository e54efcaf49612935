"""Exception types shared across the package."""


class NevkitError(Exception):
    """Base class for all errors raised by nevkit."""


class IdenticallyZeroDenominator(NevkitError):
    """Denominator polynomial is identically zero."""


class DegreeNotOne(NevkitError):
    """A degree-one rational function was required."""


class PoleHit(NevkitError):
    """Evaluation was requested exactly at a pole."""


class GapViolated(NevkitError):
    """A spectral-gap precondition fails; carries the offending atoms."""

    def __init__(self, message, atoms=()):
        super().__init__(message)
        self.atoms = tuple(atoms)


class ConstantInput(NevkitError):
    """A nonconstant rational function was required."""


class NotNevanlinna(NevkitError):
    """A rational function failed the exact Herglotz representation check."""


class NotRationalAtoms(NevkitError):
    """Representation data exists but its poles are not rational numbers."""


class ExactSplitUnavailable(NevkitError):
    """A factorization step would need to split a polynomial at an
    irrational real root, which exact rational arithmetic cannot do."""


class NotNevanlinnaTau(NevkitError):
    """The composing degree-one function is not a Herglotz function."""


class NotInterlacing(NevkitError):
    """Zeros and poles were required to be real, simple and interlacing."""


class NotInClass(NevkitError):
    """The plain-pair (kappa = 0 both sides) precondition fails."""


class NotKacMember(NevkitError):
    """The function is not in the required local integrability class."""


class SpectrumHit(NevkitError):
    """Model evaluation was requested on the model spectrum."""


class EvaluationFailure(NevkitError):
    """Numeric sampling repeatedly hit poles or overflow."""


class NonConvergent(NevkitError):
    """Successive inversion levels disagree beyond tolerance."""


class InvariantViolation(NevkitError):
    """An exact identity that the algorithms guarantee failed to hold: a
    defect in nevkit, not in its input."""


class ParseError(NevkitError):
    """Input file could not be parsed."""


class SchemaMismatch(NevkitError):
    """Parsed JSON does not match the expected schema."""


class InvalidInput(NevkitError, ValueError):
    """A value outside the domain of the operation: a negative slope or
    atom weight, a duplicate atom, the zero function where it is excluded,
    a nonpositive factor or a bad numeric setting."""
