"""Exception types shared across the package, the three checks that
every constructor and entry point reads its numbers through, and their
vector twin."""

import operator
import sys

import numpy as np


class StlsbbError(Exception):
    """Base class for all package-specific errors."""


class NonpositiveCurvatureError(StlsbbError):
    """The secant pair has s'y <= 0, so no BB-type steplength is defined."""


class InvalidParameterError(StlsbbError):
    """A parameter is outside its admissible range."""


class MissingStateError(StlsbbError):
    """A steplength policy needs carried state that was not provided."""


class DimensionMismatchError(StlsbbError):
    """Vector shapes do not agree."""


class DimensionTooSmallError(StlsbbError):
    """The requested problem dimension is too small for the chosen recipe."""


class InvalidSettingError(StlsbbError):
    """A spectrum recipe was requested with incompatible parameters."""


class InvalidBracketError(StlsbbError):
    """A scalar search bracket is empty or reversed."""


class DegenerateInputError(StlsbbError):
    """Input is degenerate for the requested computation (e.g. y = 0)."""


class LineSearchStallError(StlsbbError):
    """Backtracking hit its cap; objective and gradient likely disagree."""


class AllFailedOnProblemError(StlsbbError):
    """A performance profile needs at least one finite cost per problem."""


def _shown(value):
    # repr(value), or for an int too long for str() its size
    try:
        return repr(value)
    except ValueError:
        return f"an int of {value.bit_length()} bits"


# True reads as 1 through float() and operator.index, but is no number
_BOOLS = (bool, np.bool_)


def real(value, name):
    """value as float() reads it (so nan and inf pass), but never a bool."""
    try:
        if isinstance(value, _BOOLS):
            raise TypeError("a bool is not a real number")
        return float(value)
    except (TypeError, ValueError, OverflowError) as exc:
        raise InvalidParameterError(
            f"{name} must be a real number, got {_shown(value)}") from exc


def inside(value, name, lo, hi, closed=False):
    """value as a float in (lo, hi), or [lo, hi] when closed; never nan,
    so (0, inf) means positive and finite."""
    v = real(value, name)
    if not (lo <= v <= hi if closed else lo < v < hi):  # false for nan
        ends = "[]" if closed else "()"
        raise InvalidParameterError(
            f"{name} must lie in {ends[0]}{lo:g}, {hi:g}{ends[1]}, got {value!r}")
    return v


def count(value, name, least=1):
    """value as an int >= least (any whole number when least is None):
    ints, numpy integers and digit strings exactly, any other real only
    when integral, so 2.5 is refused, never truncated; and nothing a
    float cannot hold, such as 10**400, nor a bool."""
    try:
        n = int(value) if isinstance(value, str) else operator.index(value)
    except (TypeError, ValueError):
        try:
            v = float(value)
            n = int(v) if v.is_integer() else None  # false for inf and nan
        except (TypeError, ValueError, OverflowError):
            n = None
    if (n is None or isinstance(value, _BOOLS) or abs(n) > sys.float_info.max
            or (least is not None and n < least)):
        floor = "" if least is None else f">= {least} and "
        raise InvalidParameterError(f"{name} must be {floor}whole, got {_shown(value)}")
    return n


def vector(value, name, size=None, finite=False):
    """value as a read-only 1-D float64 copy, flattened from any shape, of
    length size when given and with every entry finite when finite is set.
    An array of bools or complex numbers is refused, as real refuses one
    such number; text that float() cannot read is left to numpy's
    ValueError.  As in RunTrace's float columns, a list that mixes bools
    and floats reads its bools as 1.0 and 0.0, and None reads as nan."""
    arr = np.array(value, copy=True)
    if arr.dtype.kind in "bc":
        raise InvalidParameterError(f"{name} must hold real numbers, not {arr.dtype.name}")
    arr = arr.astype(float, copy=False).reshape(-1)
    if size is not None and arr.size != size:
        raise DimensionMismatchError(f"{name} has length {arr.size}, expected {size}")
    if finite and not np.isfinite(arr).all():
        raise InvalidParameterError(f"{name} must be finite")
    arr.setflags(write=False)
    return arr
