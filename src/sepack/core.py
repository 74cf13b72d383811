"""Fundamental packing model: centers, windows, tolerances, validity checks.

All packings are unit-sphere packings normalized so that touching spheres
have center distance exactly 2.  Centers are kept in canonical
lexicographic order so that generated files and reports are reproducible
bit for bit.  Values are immutable after construction and safe to share.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.spatial import cKDTree

from .errors import (
    DegenerateInputError,
    MalformedInputError,
    UndefinedDistanceError,
)


@dataclass(frozen=True)
class Tolerance:
    """Floating-point slack for contact detection, overlap and plane tests.

    All three must be strictly positive and below 1e-3; the geometry here
    is exact in the reals and the tolerances only absorb rounding of the
    sqrt(2)/sqrt(3) coordinates used by the catalog constructions.
    """

    contact: float = 1e-9
    overlap: float = 1e-9
    plane: float = 1e-9

    def __post_init__(self):
        for name in ("contact", "overlap", "plane"):
            value = getattr(self, name)
            if not (0.0 < value < 1e-3):
                raise ValueError(
                    f"tolerance {name}={value!r} must lie strictly in (0, 1e-3)"
                )


DEFAULT_TOL = Tolerance()


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
        lower = np.atleast_1d(np.asarray(self.lower, dtype=float))
        upper = np.atleast_1d(np.asarray(self.upper, dtype=float))
        if lower.shape != upper.shape or lower.ndim != 1:
            raise MalformedInputError("window bounds must be d-vectors of equal length")
        if not np.all(lower < upper):
            raise MalformedInputError("window requires lower < upper componentwise")
        if self.margin < 0:
            raise MalformedInputError("window margin must be nonnegative")
        lower.setflags(write=False)
        upper.setflags(write=False)
        object.__setattr__(self, "lower", lower)
        object.__setattr__(self, "upper", upper)

    @classmethod
    def cube(cls, half_width: float, dimension: int, margin: float = 3.0) -> "Window":
        """Symmetric window [-L, L]^d."""
        l = float(half_width)
        return cls(np.full(dimension, -l), np.full(dimension, l), margin)

    @property
    def dimension(self) -> int:
        return self.lower.shape[0]

    def contains(self, points: np.ndarray, slack: float = 1e-9) -> np.ndarray:
        """Boolean mask of points inside the closed box (with tiny slack)."""
        points = np.atleast_2d(points)
        return np.all(
            (points >= self.lower - slack) & (points <= self.upper + slack), axis=1
        )

    def interior_mask(self, points: np.ndarray) -> np.ndarray:
        """Mask of points at distance >= margin from every face."""
        points = np.atleast_2d(points)
        return np.all(
            (points - self.lower >= self.margin - 1e-12)
            & (self.upper - points >= self.margin - 1e-12),
            axis=1,
        )

    def scaled(self, factor: float) -> "Window":
        return Window(self.lower * factor, self.upper * factor, self.margin * factor)


def _canonical_order(centers: np.ndarray) -> np.ndarray:
    # lexicographic by first coordinate, then second, ...; np.lexsort uses
    # its last key as the primary one.
    if len(centers) == 0:
        return np.arange(0)
    return np.lexsort(centers.T[::-1])


@dataclass(frozen=True, eq=False)
class Packing:
    """A finite window of a unit-sphere packing in R^d.

    Centers are stored as an (n, d) float array in canonical lexicographic
    order.  The non-overlap condition (pairwise distance >= 2*radius) is a
    checked property, not a constructor guarantee; see validate_packing.
    """

    centers: np.ndarray
    window: Window = None
    radius: float = 1.0
    label: str = ""

    def __post_init__(self):
        try:
            centers = np.asarray(self.centers, dtype=float)
        except ValueError as exc:
            raise MalformedInputError(f"centers are not a rectangular array: {exc}")
        if centers.size == 0:
            centers = centers.reshape(0, centers.shape[1] if centers.ndim == 2 else 1)
        if centers.ndim != 2:
            raise MalformedInputError(
                "centers must be an (n, d) array; got mixed-dimension points"
            )
        if not np.all(np.isfinite(centers)):
            raise MalformedInputError("centers must be finite")
        if self.radius <= 0:
            raise MalformedInputError("radius must be positive")
        centers = np.ascontiguousarray(centers[_canonical_order(centers)])
        centers.setflags(write=False)
        object.__setattr__(self, "centers", centers)
        if self.window is None:
            pad = self.radius if len(centers) else 1.0
            lo = centers.min(axis=0) - pad if len(centers) else np.zeros(centers.shape[1])
            hi = centers.max(axis=0) + pad if len(centers) else np.ones(centers.shape[1])
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


@dataclass(frozen=True)
class ValidationResult:
    """Outcome of the pairwise non-overlap check."""

    ok: bool
    pair: tuple | None = None
    distance: float | None = None

    def __bool__(self) -> bool:
        return self.ok


def validate_packing(p: Packing, tol: Tolerance = DEFAULT_TOL) -> ValidationResult:
    """Check the packing condition: every pair at distance >= 2*radius - tol.

    Returns OK, or the lexicographically first violating pair with its
    distance.  Runs in near-linear time via a fixed-radius pair query.
    """
    if p.n_spheres < 2:
        return ValidationResult(True)
    threshold = 2.0 * p.radius - tol.overlap
    tree = cKDTree(p.centers)
    pairs = tree.query_pairs(r=threshold, output_type="ndarray")
    if len(pairs) == 0:
        return ValidationResult(True)
    dists = np.linalg.norm(p.centers[pairs[:, 0]] - p.centers[pairs[:, 1]], axis=1)
    bad = dists < threshold
    if not np.any(bad):
        return ValidationResult(True)
    pairs = np.sort(pairs[bad], axis=1)
    dists = dists[bad]
    order = np.lexsort((pairs[:, 1], pairs[:, 0]))
    first = order[0]
    return ValidationResult(False, (int(pairs[first, 0]), int(pairs[first, 1])), float(dists[first]))


def min_pairwise_distance(p: Packing) -> float:
    """Smallest center-to-center distance over all pairs."""
    if p.n_spheres < 2:
        raise UndefinedDistanceError("min pairwise distance needs at least 2 centers")
    tree = cKDTree(p.centers)
    dists, _ = tree.query(p.centers, k=2)
    return float(dists[:, 1].min())


def rescale_to_contact(p: Packing) -> Packing:
    """Scale the packing so its minimum pairwise distance is exactly 2.

    Idempotent up to the contact tolerance.  The window scales along with
    the centers so that interior semantics are preserved.
    """
    delta = min_pairwise_distance(p)
    if delta == 0.0:
        raise DegenerateInputError("duplicate centers: cannot rescale to contact")
    factor = 2.0 / delta
    return Packing(p.centers * factor, p.window.scaled(factor), 1.0, p.label)


def interior_indices(p: Packing) -> np.ndarray:
    """Indices of centers at distance >= window.margin from every face."""
    if p.n_spheres == 0:
        return np.arange(0)
    return np.flatnonzero(p.window.interior_mask(p.centers))
