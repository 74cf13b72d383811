"""Fundamental packing model: centers, windows, tolerance, pair queries.

All packings are packings of unit spheres: every sphere has radius 1, so
touching spheres have center distance 2 (within TOL), and a closer pair
overlaps.  The radius is a fact of the model, not a field.  Centers are
kept in canonical lexicographic order so that generated files and
reports are reproducible bit for bit.  Values are immutable after
construction and safe to share.

The overlap check has one route: valid_pairs_within, the pair query of
contact.build_contact_graph, raises InvalidPackingError on the first
overlapping pair.  Every pair query runs on the grid index of ``_kdtree``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._kdtree import cKDTree
from .errors import (
    InvalidPackingError,
    MalformedInputError,
    SizeLimitError,
    instance,
    integer,
    real,
    reals,
)


# Float slack for contact detection, the overlap check and the plane
# tests.  The geometry is exact in the reals; this only absorbs the
# rounding of the sqrt(2)/sqrt(3) coordinates of the catalog
# constructions, which cannot hit distance 2 exactly in floating point.
TOL = 1e-9

# Most raw points the padded window of an orbit spec may span (its lattice
# cells times the points per cell), most spheres a product may hold, and
# most cells a contact-number construction may take.  Checked before
# anything that size is allocated.  O103 at L = 9 spans 921,984 raw points
# and keeps 1,536; P1 at L = 1000 spans 1,010,025.
POINT_BUDGET = 2_000_000


@dataclass(frozen=True)
class Window:
    """Axis-aligned box that crops a finite piece out of an infinite packing.

    ``margin`` marks the interior band: centers at distance >= margin from
    every face are "interior" and have all their neighbors inside the
    window, so degree counts there are exact.
    """

    lower: np.ndarray
    upper: np.ndarray
    margin: float = 0.0

    def __post_init__(self):
        lower = np.atleast_1d(reals(self.lower, "window lower"))
        upper = np.atleast_1d(reals(self.upper, "window upper"))
        margin = real(self.margin, "window margin")
        if lower.shape != upper.shape or lower.ndim != 1:
            raise MalformedInputError("window bounds must be d-vectors of equal length")
        if not np.all(np.isfinite(np.concatenate([lower, upper, [margin]]))):
            raise MalformedInputError("window bounds and margin must be finite")
        if not np.all(lower < upper):
            raise MalformedInputError("window requires lower < upper componentwise")
        if margin < 0:
            raise MalformedInputError("window margin must be nonnegative")
        lower.setflags(write=False)
        upper.setflags(write=False)
        object.__setattr__(self, "lower", lower)
        object.__setattr__(self, "upper", upper)
        object.__setattr__(self, "margin", margin)

    @classmethod
    def cube(cls, half_width: float, dimension: int, margin: float = 3.0) -> "Window":
        """Symmetric window [-L, L]^d."""
        d = integer(dimension, "dimension", least=1)
        if d > POINT_BUDGET:
            raise SizeLimitError(f"dimension {d} is over the budget of {POINT_BUDGET}")
        l = np.full(d, real(half_width, "half-width"))
        return cls(-l, l, margin)

    @property
    def dimension(self) -> int:
        return self.lower.shape[0]

    def contains(self, points: np.ndarray) -> np.ndarray:
        """Boolean mask of points inside the closed box, widened by TOL."""
        points = np.atleast_2d(points)
        return np.all((points >= self.lower - TOL) & (points <= self.upper + TOL), axis=1)

    def interior_mask(self, points: np.ndarray) -> np.ndarray:
        """Mask of points at distance >= margin from every face."""
        points = np.atleast_2d(points)
        return np.all(
            (points - self.lower >= self.margin - 1e-12)
            & (self.upper - points >= self.margin - 1e-12),
            axis=1,
        )


def lex_less(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Where x sorts strictly before y, comparing along the last axis first
    coordinate first: the row order of np.lexsort(keys[::-1]) and np.unique."""
    less = np.zeros(x.shape[:-1], dtype=bool)
    for k in reversed(range(x.shape[-1])):
        less = (x[..., k] < y[..., k]) | ((x[..., k] == y[..., k]) & less)
    return less


def _canonical(centers: np.ndarray) -> np.ndarray:
    """A C-contiguous copy of centers in lexicographic order: by first
    coordinate, then second, ...  Rows already in order (generated windows
    are) skip the sort; the sort is stable, so the copy is the same."""
    if np.any(lex_less(centers[1:], centers[:-1])):
        return centers[np.lexsort(centers.T[::-1])]
    return np.array(centers, order="C")


@dataclass(frozen=True, eq=False)
class Packing:
    """A finite window of a packing of unit spheres (radius 1) in R^d.

    Centers are stored as an (n, d) float array in canonical lexicographic
    order.  The non-overlap condition (pairwise distance >= 2) is a
    checked property, not a constructor guarantee: build_contact_graph
    raises InvalidPackingError on an overlap.  The default window is the
    centers' bounding box padded by the radius 1.
    """

    centers: np.ndarray
    window: Window = None
    label: str = ""

    def __post_init__(self):
        centers = reals(self.centers, "centers")
        if centers.size == 0:
            centers = centers.reshape(0, centers.shape[1] if centers.ndim == 2 else 1)
        if centers.ndim != 2:
            raise MalformedInputError(f"centers must be an (n, d) array, got shape {centers.shape}")
        if not np.all(np.isfinite(centers)):
            raise MalformedInputError("centers must be finite")
        if not isinstance(self.label, str):
            raise MalformedInputError(f"label must be a str, got {type(self.label).__name__}")
        centers = _canonical(centers)
        centers.setflags(write=False)
        object.__setattr__(self, "centers", centers)
        if self.window is None:
            lo = centers.min(axis=0) - 1.0 if len(centers) else np.zeros(centers.shape[1])
            hi = centers.max(axis=0) + 1.0 if len(centers) else np.ones(centers.shape[1])
            object.__setattr__(self, "window", Window(lo, hi, 0.0))
        if self.window.dimension != centers.shape[1]:
            raise MalformedInputError(
                f"window dimension {self.window.dimension} != centers dimension "
                f"{centers.shape[1]}"
            )

    @property
    def dimension(self) -> int:
        return self.centers.shape[1]

    @property
    def n_spheres(self) -> int:
        return self.centers.shape[0]


def valid_pairs_within(p: Packing, reach: float):
    """Pairs (i, j), i < j, of centres at distance <= reach, in lexicographic
    order, with their distances: the one pair query, which also validates.

    reach must be at least 2 - TOL, so the pairs hold every overlapping one
    (closer than 2 - TOL); the first raises InvalidPackingError with its
    pair and distance.
    """
    pairs, squares = cKDTree(instance(p, Packing, "packing").centers, reach)
    dists = np.sqrt(squares)
    bad = np.flatnonzero(dists < 2.0 - TOL)
    if len(bad):
        pair, distance = tuple(pairs[bad[0]].tolist()), float(dists[bad[0]])
        message = f"packing is invalid: pair {pair} at distance {distance}"
        raise InvalidPackingError(message, pair, distance)
    return pairs, dists
