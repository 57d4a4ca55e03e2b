"""Exception types raised across the library."""


class ArgyrisError(Exception):
    """Base class for all library errors."""


class DomainError(ArgyrisError):
    """A parametric coordinate lies outside [0, 1]."""


class ValidationError(ArgyrisError):
    """The input is rejected: a configuration, geometry or function the
    library does not accept (the CLI exits 1; other errors exit 2)."""


class InvalidConfigError(ValidationError):
    """A space configuration violates a structural requirement."""


class NotInSpaceError(ValidationError):
    """A function handed to an exact-representation routine is not in the space."""


class TopologyError(ValidationError):
    """Inconsistent patch/edge/vertex connectivity."""


class ConformityError(ValidationError):
    """Adjacent patches do not match along a shared edge."""


class GeometryFormatError(ValidationError):
    """A geometry file is malformed."""


class NotASG1Error(ValidationError):
    """An interface does not admit linear gluing data within tolerance."""

    def __init__(self, message, residual=None):
        super().__init__(message)
        self.residual = residual


class DegenerateGluingError(ArgyrisError):
    """The beta-split system is singular (alpha factors share a root)."""


class NumericalError(ArgyrisError):
    """A linear solve or factorization failed."""
