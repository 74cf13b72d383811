"""Fundamental packing model: centers, windows, tolerance, pair queries.

All packings are packings of unit spheres: every sphere has radius 1, so
touching spheres have center distance 2 (within TOL), and a closer pair
overlaps.  The radius is a fact of the model, not a field.  Centers are
kept in canonical lexicographic order so that generated files and
reports are reproducible bit for bit.  Values are immutable after
construction and safe to share.

The overlap check has one route: valid_pairs_within, the pair query of
contact.build_contact_graph, raises InvalidPackingError on the first
overlapping pair.  The pair queries use scipy's KD-tree, and scipy loads
on the first tree build (``sepack._kdtree``), so a command that builds no
tree never imports it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._kdtree import cKDTree
from .errors import (
    InvalidPackingError,
    MalformedInputError,
    SizeLimitError,
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
    """Pairs (i, j) of centres at distance <= reach, with their distances,
    from the one KD-tree query that also validates the packing.

    The spheres have radius 1, so a pair closer than 2 - TOL overlaps.
    reach must be at least 2 - TOL, so the query holds every overlapping
    pair; the lexicographically first of them raises InvalidPackingError
    with its pair and distance.
    """
    if p.n_spheres < 2:
        return np.zeros((0, 2), dtype=np.intp), np.zeros(0)
    pairs = cKDTree(p.centers).query_pairs(r=reach, output_type="ndarray")
    dists = np.linalg.norm(p.centers[pairs[:, 0]] - p.centers[pairs[:, 1]], axis=1)
    overlap = _first_overlap(pairs, dists, 2.0 - TOL)
    if overlap is not None:
        pair, distance = overlap
        raise InvalidPackingError(
            f"packing is invalid: pair {pair} at distance {distance}", pair, distance
        )
    return pairs, dists


def _first_overlap(pairs: np.ndarray, dists: np.ndarray, threshold: float):
    """The lexicographically first pair (i, j), i < j, closer than
    threshold, with its distance; None when there is none."""
    bad = dists < threshold
    if not np.any(bad):
        return None
    pairs = np.sort(pairs[bad], axis=1)
    first = np.lexsort((pairs[:, 1], pairs[:, 0]))[0]
    return (int(pairs[first, 0]), int(pairs[first, 1])), float(dists[bad][first])
