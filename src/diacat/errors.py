"""Exception types shared across the package."""


class DiacatError(Exception):
    """Base class for all package-specific errors."""


class DimensionMismatch(DiacatError):
    pass


class FieldMismatch(DiacatError):
    pass


class ParseError(DiacatError):
    """Malformed input document; message carries a location path."""


class InvalidAlgebra(DiacatError):
    """Structure constants violate the axioms of the requested flavor."""

    def __init__(self, message, report=None):
        super().__init__(message)
        self.report = report


class InvalidAction(InvalidAlgebra):
    pass


class InvalidCrossedModule(InvalidAlgebra):
    pass


class InvalidCat1(InvalidAlgebra):
    pass


class InvalidInternalCategory(InvalidAlgebra):
    pass


class NotAnIdeal(DiacatError):
    pass


class LemmaViolation(DiacatError):
    """A consequence that holds for every certified structure failed anyway.

    Seeing this means a constructor or checker upstream has a bug; the
    attached report pinpoints the first failing assertion.
    """

    def __init__(self, message, report=None):
        super().__init__(message)
        self.report = report


class NotClosed(DiacatError):
    """A subspace expected to carry induced structure is not product-closed."""


class NotWellDefined(DiacatError):
    """A map expected to factor through a quotient fails to kill the ideal."""


class SearchSpaceTooLarge(DiacatError):
    """A search tested one candidate more than its cap allows."""

    def __init__(self, cardinality, cap):
        super().__init__(
            f"search stopped at candidate {cardinality} (cap {cap})")
        self.cardinality = cardinality
        self.cap = cap


class ResourceCapExceeded(DiacatError):
    def __init__(self, dim, cap, field_name):
        super().__init__(
            f"ambient dimension {dim} over {field_name} exceeds cap {cap} "
            f"(set DIACAT_MAX_DIM to raise it)")
        self.dim = dim
        self.cap = cap
