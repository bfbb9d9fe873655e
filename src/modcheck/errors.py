"""Exception types shared across the package.

Every operation that can refuse its input raises one of these instead of
returning a sentinel, so callers can distinguish "checked and false" from
"could not be checked".
"""


class ModcheckError(Exception):
    """Base class for all package errors."""


class NonPrime(ModcheckError):
    """A field modulus is not a prime number."""


class NotClosed(ModcheckError):
    """A matrix shape is not closed under matrix multiplication."""


class NoUnity(ModcheckError):
    """A matrix shape is missing diagonal entries, so it has no identity."""


class NotAssociative(ModcheckError):
    """Structure constants violate associativity on some basis triple."""


class NotUnital(ModcheckError):
    """The designated unity is not a two-sided identity."""


class ShapeMismatch(ModcheckError):
    """Incompatible dimensions between matrices, modules or homs."""


class AlgebraMismatch(ModcheckError):
    """An operation combined modules over different algebras."""


class ZeroModule(ModcheckError):
    """The property is undefined on the zero module."""


class NotHollowUniform(ModcheckError):
    """A construction requiring a hollow and uniform module got something else."""


class NotEpi(ModcheckError):
    """A map required to be surjective is not."""


class CardinalityVacuous(ModcheckError):
    """The requested branch cannot occur on finite modules.

    A surjection from a proper submodule onto a module of equal finite
    cardinality cannot exist, so the branch is untestable on the finite
    backend; the exact backend exercises it instead.
    """


class WrongBranch(ModcheckError):
    """The input belongs to the other case of a case split."""


class NotWellDefined(ModcheckError):
    """A multiplication map fails the valuation conditions it needs."""


class CertificateFailed(ModcheckError):
    """A well-definedness certificate did not check out."""


class ZeroInput(ModcheckError):
    """Zero is not a valid input (e.g. valuation of zero)."""


class SchemaError(ModcheckError):
    """A JSON input does not match the published schema."""

    def __init__(self, message, path=None):
        super().__init__(message)
        self.path = path or []


class TooLarge(ModcheckError):
    """An enumeration would exceed a configured cap.

    Carries the offending quantity, the cap, and what was being
    enumerated; never silently truncates.
    """

    def __init__(self, what, size, cap):
        super().__init__(f"{what}: size {size} exceeds cap {cap}")
        self.what = what
        self.size = size
        self.cap = cap


class UnresolvedDivision(ModcheckError):
    """An exact solve would need to divide by a non-unit of a localization.

    Raised instead of guessing a verdict; carries the offending equation
    as text so reports can surface it.
    """

    def __init__(self, equation):
        super().__init__(f"unresolved: {equation}")
        self.equation = equation
