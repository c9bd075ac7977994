"""Exception types shared across the package, and the validators with
which every public entry point checks its numeric arguments: ``_real``
(a finite real number in an interval), ``_integer`` (an integer in a
range) and ``_array`` (a finite real array of a given shape).  bool,
None, strings, complex numbers, nan and +-inf raise ValidationError
naming the argument and its domain.  Nothing is coerced: a scalar is
returned unchanged, an array as numpy reads it, in floating point.
"""

import math
import numbers

import numpy as np

# -_MAX <= x <= _MAX rejects nan, +-inf and integers beyond the floats
_MAX = float(np.finfo(float).max)


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


def _interval(lo, hi, open_lo=False, open_hi=False) -> str:
    return (f"{'(' if open_lo or lo == -math.inf else '['}{lo:g}, "
            f"{hi:g}{')' if open_hi or hi == math.inf else ']'}")


def _real(name: str, x, lo=-math.inf, hi=math.inf, *, open_lo=False,
          open_hi=False):
    """x, unchanged, if it is a finite real number, not a bool, in the
    interval from lo to hi (closed at a finite end unless open_lo or
    open_hi); else ValidationError."""
    if not (isinstance(x, numbers.Real) and not isinstance(x, bool)
            and -_MAX <= x <= _MAX
            and (lo < x if open_lo else lo <= x)
            and (x < hi if open_hi else x <= hi)):
        raise ValidationError(f"{name}={x!r}; need a finite real number in "
                              + _interval(lo, hi, open_lo, open_hi))
    return x


def _integer(name: str, x, lo, hi=math.inf):
    """x, unchanged, if it is an integer, not a bool, with
    lo <= x <= hi; else ValidationError."""
    if not (isinstance(x, numbers.Integral) and not isinstance(x, bool)
            and lo <= x <= hi):
        raise ValidationError(f"{name}={x!r}; need an integer in "
                              + _interval(lo, hi))
    return x


def _array(name: str, a, shape: tuple) -> np.ndarray:
    """a as a float array of finite entries, if numpy reads it with an
    integer or floating dtype and the given shape, whose first length
    may be None for any; else ValidationError.  A point set, shape
    (None, d), also takes one point as a 1-d array of d numbers."""
    try:
        a = np.asarray(a)
    except ValueError:          # ragged nested sequences
        a = np.asarray(None)
    if len(shape) == 2 and a.ndim == 1:
        a = a[None, :]
    free = shape[0] is None
    if a.dtype.kind not in "iuf" or a.ndim != len(shape) \
            or a.shape[free:] != shape[free:]:
        raise ValidationError(f"{name} of shape {a.shape} and dtype "
                              f"{a.dtype}; need real numbers of shape {shape}")
    a = a.astype(float, copy=False)
    if not np.isfinite(a).all():
        raise ValidationError(f"{name} has a non-finite entry")
    return a
