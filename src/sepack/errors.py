"""Exception types shared across the package, and the one rule for numbers.

integer, real, integers and reals read every number that an argument or
a packing file gives, and instance every argument that must be one of
the package's types.  A value of the wrong kind or shape raises
MalformedInputError: a number where a Packing belongs, a string, a bool,
a list that holds a bool among its numbers (numpy reads it as numbers),
a ragged list, a float for an integer, an array that numpy casts to
float64 or int64 only with loss (objects, uint64 to int64).  A number
out of its range raises InvalidValueError.  Both are ValueErrors.  A
numpy timedelta is not an integer, although numpy files it under the
signed integers.  Geometry that bounds no packing (a coordinate that is
not finite, an inverted window) is malformed data.

Every size that an argument sets is counted against its budget before
the work starts, and one over it raises SizeLimitError: the images of an
orbit seed, the probe and the padded window of an orbit window, a
product, a diagonal construction, the dimension of a cube window and
the basis of the diagonal family, the cells of a contact-number
construction, the power inside cd_upper_bound.
"""

import numbers

import numpy as np


class SepackError(Exception):
    """Base class for all package errors."""


class MalformedInputError(SepackError, ValueError):
    """Input data is of the wrong kind or shape (ragged centers, ...)."""


class InvalidPackingError(SepackError):
    """A packing violates the non-overlap condition: ``pair`` (i, j) is the
    lexicographically first overlapping pair, at ``distance``."""

    def __init__(self, message, pair=None, distance=None):
        super().__init__(message)
        self.pair = pair
        self.distance = distance


class InvalidValueError(SepackError, ValueError):
    """A value of the right kind is out of its range (a count below 1, ...)."""


class UnknownCatalogIdError(SepackError):
    """Requested name is not in the catalog."""


class UnsupportedConstructionError(SepackError):
    """Catalog entry has no implemented coordinate construction."""


class UnsupportedDimensionError(SepackError):
    """Operation is only defined for a specific dimension."""


class EnumerationLimitError(SepackError):
    """Exhaustive enumeration requested beyond its configured size limit."""


class SizeLimitError(SepackError):
    """A construction would exceed its configured size budget."""


class NormalizationRequiredError(SepackError):
    """Operation requires packings normalized to contact distance 2."""


class PackingParseError(MalformedInputError):
    """Packing file could not be parsed."""

    def __init__(self, message, offset=None):
        super().__init__(message)
        self.offset = offset


class PackingVersionError(SepackError):
    """Packing file has an unsupported format version."""


class InconsistentVerdictError(SepackError):
    """Two checks of one packing contradict each other (a triangle in the
    contact graph, yet no separability violation)."""


def instance(value, kind: type, name: str):
    """value, if it is a kind, else MalformedInputError naming the argument."""
    if not isinstance(value, kind):
        raise MalformedInputError(f"{name} must be a {kind.__name__}, got {value!r}")
    return value


def integer(value, name: str, least: int | None = None) -> int:
    """value as a Python int, at least ``least`` when that is given."""
    if isinstance(value, (bool, np.timedelta64)) or not isinstance(value, numbers.Integral):
        raise MalformedInputError(f"{name} must be an integer, got {value!r}")
    if least is not None and value < least:
        raise InvalidValueError(f"{name} must be >= {least}, got {value}")
    return int(value)


def real(value, name: str) -> float:
    """One number as a Python float."""
    array = _cast(value, name, np.float64)
    if array.ndim:
        raise MalformedInputError(f"{name} must be one number, got shape {array.shape}")
    return float(array)


def reals(values, name: str) -> np.ndarray:
    """A rectangular array of numbers as float64."""
    return _cast(values, name, np.float64)


def integers(values, name: str) -> np.ndarray:
    """A rectangular array of integers as int64."""
    return _cast(values, name, np.int64)


def _cast(values, name: str, dtype) -> np.ndarray:
    """values as a dtype array, if numpy reads them as an array that it casts
    safely to dtype, or an empty one: a string reads as text, a bool as bool.
    numpy reads a bool beside numbers as a number, so a list or tuple is
    walked for bools; an array's dtype speaks for its values, so a caller
    that has ruled bools out (decode_packing) hands an array."""
    try:
        array = np.asarray(values)
    except (TypeError, ValueError, OverflowError) as exc:
        raise MalformedInputError(f"{name} must be a rectangular array: {exc}") from exc
    if array.size and (array.dtype.kind == "b" or not np.can_cast(array.dtype, dtype)):
        raise MalformedInputError(f"{name} must hold {dtype.__name__} numbers, not {array.dtype}")
    if isinstance(values, (list, tuple)) and holds_bool(values):
        raise MalformedInputError(f"{name} must hold numbers, not bools")
    return array.astype(dtype, copy=False)


def holds_bool(value) -> bool:
    """Whether value is a bool or holds one in its lists, tuples, dicts or arrays."""
    stack = [value]
    while stack:
        value = stack.pop()
        if isinstance(value, (list, tuple, dict)):
            stack.extend(value.values() if isinstance(value, dict) else value)
        elif isinstance(value, bool) or getattr(value, "dtype", None) == np.bool_:
            return True
    return False
