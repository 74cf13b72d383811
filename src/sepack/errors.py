"""Exception types shared across the package.

An integer argument (a count, a dimension, a depth, a cell coordinate)
that is not an integer raises InvalidValueError, as one out of range
does: a float, even 2.0, is not an integer, nor is a bool; a numpy
integer is.

Every size that an argument sets is counted against its budget before
the work starts, and one over it raises SizeLimitError: the images of an
orbit seed, the probe and the padded window of an orbit window, a
product, a diagonal construction, the cells of a contact-number
construction.  The exact power in cd_upper_bound is not yet bounded.
"""

import numbers


class SepackError(Exception):
    """Base class for all package errors."""


class MalformedInputError(SepackError):
    """Input data is structurally invalid (ragged centers, bad shapes, ...)."""


class InvalidPackingError(SepackError):
    """A packing violates the non-overlap condition: ``pair`` (i, j) is the
    lexicographically first overlapping pair, at ``distance``."""

    def __init__(self, message, pair=None, distance=None):
        super().__init__(message)
        self.pair = pair
        self.distance = distance


class InvalidValueError(SepackError, ValueError):
    """An argument or data value is out of range: a count, a depth, a box
    side, a window sequence or a data format version.  It is also a
    ValueError, so callers that catch ValueError still catch it."""


class UndefinedDistanceError(SepackError):
    """Pairwise distance requested on fewer than two centers."""


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


class PackingParseError(SepackError):
    """Packing file could not be parsed."""

    def __init__(self, message, offset=None):
        super().__init__(message)
        self.offset = offset


class PackingVersionError(SepackError):
    """Packing file has an unsupported format version."""


class InconsistentVerdictError(SepackError):
    """Two checks of one packing contradict each other (a triangle in the
    contact graph, yet no separability violation)."""


def integer(value, name: str) -> int:
    """value as a Python int; InvalidValueError when it is not an integer."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise InvalidValueError(f"{name} must be an integer, got {value!r}")
    return int(value)
