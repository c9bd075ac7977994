"""Exception types shared across the package."""


class IsoshapeError(Exception):
    """Base class for all package errors."""


class ValidationError(IsoshapeError, ValueError):
    """A precondition or type invariant was violated."""


class OverlapError(IsoshapeError):
    """Bounding-sphere disjointness certificate failed for a configuration."""


class GraphConditionError(ValidationError):
    """A radial perturbation left the working regime 1 + u >= 1/2."""


class CriticalExponentError(ValidationError):
    """gamma <-> mass map requested at the critical exponent p* = d - alpha + 1."""


class DegenerateDeficitError(IsoshapeError):
    """Riesz deficit indistinguishable from its quadrature error bar."""


class ResolutionError(ValidationError):
    """Raster resolution too coarse for the requested shape."""


class DegenerateAnnulusError(IsoshapeError):
    """Zero relative perimeter despite a proper intersection: raster artifact."""


class MassPreconditionError(ValidationError):
    """An inequality check requires unit-bounded masses."""


class OutOfBoundsError(ValidationError):
    """Query region leaves the raster bounding box."""


class ConfigError(IsoshapeError):
    """Malformed run configuration (bad key, bad value, missing file)."""
