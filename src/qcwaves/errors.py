"""Exception types raised across the library.

Everything derives from ``QcError`` so callers can catch the whole family.
Invalid input derives from ``ValidationError`` (the CLI exits 2 on it, and 3
on any other ``QcError``); the material subfamily additionally derives from
``InvalidMaterial``.
"""


class QcError(ValueError):
    """Base class for all qcwaves errors."""


class ValidationError(QcError):
    """Input violates an invariant: a document, a material, or an argument."""


class ParseError(ValidationError):
    """Scenario or material document could not be parsed."""


class InvalidMaterial(ValidationError):
    """Material constants violate the well-posedness conditions."""


class NonPositiveModulus(InvalidMaterial):
    """c44 or K2 is not finite and positive, or R3 is not finite and >= 0."""


class CouplingTooStrong(InvalidMaterial):
    """c44*K2 - R3**2 <= 0: the material matrix is not positive definite."""


class NonPositiveDensity(InvalidMaterial):
    """Mass density is not finite and positive."""


class NonPositiveFrequency(ValidationError):
    """Angular frequency must be > 0; the static case is out of scope."""


class NonUnitNormal(ValidationError):
    """Normal vector is not of unit length."""


class SourceOnBoundary(ValidationError):
    """Half-plane source sits exactly on x2 = 0; the image degenerates."""


class SourceOutsideHalfPlane(ValidationError):
    """Half-plane source has x2 > 0."""


class PointOutsideHalfPlane(ValidationError):
    """Evaluation point has x2 > 0 in a half-plane setting."""


class DomainError(QcError):
    """Special-function argument or wavenumber outside the supported domain."""


class SourceCoincidesWithField(QcError):
    """Field point too close to the source; the kernel is singular."""


class StencilOutOfDomain(QcError):
    """A finite-difference stencil point could not be evaluated."""


class RadiusTooLarge(QcError):
    """Contour radius too large for the small-circle flux check."""


class EvaluationError(QcError):
    """A kernel evaluation failed; the message names the offending point."""
