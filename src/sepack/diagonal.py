"""Iterative diagonal-cube construction of a (d+1)-regular packing in R^d.

Start from one axis-aligned cube of edge 2 with unit spheres at its
vertices.  Each vertex v of a cube with sign vector s (relative to the
cube centroid) spawns a new cube diagonally outward: the new cube's
nearest vertex sits at v + 2s/sqrt(d), so the spawned sphere touches the
spawning one.  Every sphere then touches its d edge-neighbors within its
own cube plus 1 diagonal partner, giving degree d+1 once the partner
cube exists.

Cube centroids live on the lattice (2 + 2/sqrt(d)) * Z^d and are tracked
as integer vectors.  Spawning changes every integer coordinate by +-1,
so the cubes spawned up to depth t are exactly the integer vectors with
all coordinates of equal parity in the L-infinity ball of radius t; the
growth closes up onto that lattice in every dimension (for d = 2 this is
the truncated square tiling), and spawning back toward a parent merely
reproduces an existing position and is dropped.  No two cubes ever share
a vertex ((2 + 2/sqrt(d)) * k = 2 has no integer solution), so the
sphere count is exactly 2^d per cube.  The construction is this closed
form: diagonal_construction lists the equal-parity ball directly, and
the spawning BFS survives only as the test oracle in tests/conftest.py.

The packing is always (d+1)-regular at saturated spheres and free of
overlaps, but the tangent-plane separability of the family is a plane
phenomenon: for d = 2 every plane clears or exactly grazes the other
spheres, while for d >= 3 some diagonal-contact planes genuinely cut
into sibling-branch spheres, so certification reports those violations.
The diagonal plane at root vertex s has unit normal s/sqrt(d) and offset
sqrt(d) + 1.  A sphere of the depth-1 cube spawned from a sibling vertex
s' with s.s' = d - 2 sits at (2 + 2/sqrt(d)) * s' + tau, and its
distance to that plane is |2(d - 2 - j)/sqrt(d) + (d - 4)/d|, where j
counts the coordinates in which tau differs from s.  Over all depth-1
spheres the least clearance is 1/3 at d = 3, 0 at d = 4 (a sphere
centre lies on the plane) and 1/5 at d = 5, against the radius 1.

PAPER.md holds only the paper's abstract, which promises a family of
regular totally separable packings not based on a convex uniform
d-honeycomb for d >= 3; it does not settle whether this cube-diagonal
recipe is that family.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .contact import ContactGraph, RegularityVerdict, build_contact_graph, is_k_regular
from .core import TOL, Packing, Window, interior_indices
from .errors import InvalidValueError, SizeLimitError, UnsupportedDimensionError

# most spheres a construction may hold; checked before any allocation
SPHERE_BUDGET = 200_000


@dataclass(frozen=True, eq=False)
class DiagonalConstruction:
    """Generated packing plus the cube bookkeeping needed for saturation.

    ``cube_lattice`` holds the cubes in lexicographic order, and
    ``saturated`` is the mask of spheres whose diagonal partner cube has
    been spawned.
    """

    dimension: int
    depth: int
    packing: Packing
    cube_lattice: np.ndarray  # (n_cubes, d) int lattice coordinates
    saturated: np.ndarray  # (n_spheres,) bool

    @property
    def step(self) -> float:
        return 2.0 + 2.0 / math.sqrt(self.dimension)

    @property
    def n_cubes(self) -> int:
        return len(self.cube_lattice)

    def saturated_indices(self) -> np.ndarray:
        return np.flatnonzero(self.saturated)


def cube_count_exact(d: int, depth: int) -> int:
    """Number of distinct cubes after closure: all-even vectors plus
    all-odd vectors in the L-infinity ball of radius depth."""
    even = (2 * (depth // 2) + 1) ** d
    odd = (2 * ((depth + 1) // 2)) ** d
    return even + odd


def _equal_parity_ball(d: int, t: int) -> np.ndarray:
    """Integer vectors with all coordinates of one parity and L-infinity
    norm <= t, in lexicographic order."""
    box = np.indices((2 * t + 1,) * d).reshape(d, -1).T - t
    return box[np.all((box - box[:, :1]) % 2 == 0, axis=1)]


def _cubes_and_corners(centers: np.ndarray, step: float) -> tuple[np.ndarray, np.ndarray]:
    """Cube lattice vector k and corner sign s of each centre step * k + s.

    |s_i| = 1 is below step / 2, so k is the nearest lattice vector.
    """
    cubes = np.rint(centers / step).astype(np.int64)
    return cubes, np.rint(centers - step * cubes).astype(np.int64)


def diagonal_construction(d: int, depth: int) -> DiagonalConstruction:
    """Build the construction at the given spawning depth from its closed
    form.

    Depth 0 is the single root cube (2^d spheres); depth 1 adds one cube
    per root vertex (2^d + 4^d spheres in total).  At depth t the cubes
    are the equal-parity integer vectors k with ||k||_inf <= t, and the
    sphere at corner s of cube k is saturated iff ||k + s||_inf <= t,
    since its diagonal partner is corner -s of cube k + s.
    """
    if d < 2:
        raise UnsupportedDimensionError(f"diagonal construction needs d >= 2, got {d}")
    if depth < 0:
        raise InvalidValueError("depth must be >= 0")
    if cube_count_exact(d, depth) * (2**d) > SPHERE_BUDGET:
        raise SizeLimitError(
            f"depth {depth} in d={d} needs {cube_count_exact(d, depth) * 2**d} "
            f"spheres, over the budget of {SPHERE_BUDGET}"
        )

    lattice = _equal_parity_ball(d, depth)
    signs = np.array(list(itertools.product((-1, 1), repeat=d)), dtype=np.int64)
    step = 2.0 + 2.0 / math.sqrt(d)
    # one sphere per (cube, corner); cubes never share vertices
    centers = step * np.repeat(lattice, len(signs), axis=0) + np.tile(signs, (len(lattice), 1))

    pad = 1.0 + TOL
    window = Window(centers.min(axis=0) - pad, centers.max(axis=0) + pad, 0.0)
    packing = Packing(centers, window, 1.0, f"diagonal d={d} depth={depth}")
    cubes, corners = _cubes_and_corners(packing.centers, step)
    saturated = np.abs(cubes + corners).max(axis=1) <= depth
    return DiagonalConstruction(d, depth, packing, lattice, saturated)


def interior_regularity_check(
    result: DiagonalConstruction, graph: ContactGraph | None = None
) -> RegularityVerdict:
    """Every saturated sphere must touch exactly d+1 others.

    Saturation replaces window margins here because finite depths leave a
    ragged frontier rather than a box-shaped boundary.  ``graph``, when
    given, must be the contact graph of ``result.packing``.
    """
    graph = build_contact_graph(result.packing) if graph is None else graph
    return is_k_regular(graph, result.packing, result.dimension + 1, result.saturated_indices())


def local_fingerprint(p: Packing, radius: float, indices=None) -> list:
    """Multiset of local distance profiles, an isometry-invariant signature.

    For each selected sphere (default: interior spheres of the window),
    the profile is the sorted tuple of distances to every other sphere
    within ``radius``.  Congruent packings restricted to congruent
    complete neighborhoods produce equal profiles.
    """
    if indices is None:
        indices = interior_indices(p)
    indices = np.asarray(indices, dtype=int)
    profiles = []
    for i in indices:
        diff = p.centers - p.centers[i]
        dist = np.linalg.norm(diff, axis=1)
        close = np.sort(dist[(dist > 1e-12) & (dist <= radius)])
        profiles.append(tuple(float(x) for x in close))
    return sorted(profiles)


def profile_complete_indices(result: DiagonalConstruction, radius: float) -> np.ndarray:
    """Saturated spheres whose radius-ball is fully generated.

    The infinite construction holds a cube at every all-same-parity
    integer position; at depth t exactly those within L-infinity norm t
    exist.  A sphere is radius-complete when every same-parity position
    close enough to contribute a sphere within ``radius`` (centroid
    within radius + sqrt(d)) is already spawned.  The sphere at corner s
    of cube k sees cube k + o at distance ||step * o - s||, and o is a
    same-parity offset because k + o must be one.
    """
    step = result.step
    reach = radius + math.sqrt(result.dimension)
    cubes, corners = _cubes_and_corners(result.packing.centers, step)
    complete = result.saturated.copy()
    for offset in _equal_parity_ball(result.dimension, int((reach + 1.0) // step)):
        near = np.linalg.norm(step * offset - corners, axis=1) <= reach
        complete &= ~near | (np.abs(cubes + offset).max(axis=1) <= result.depth)
    return np.flatnonzero(complete)
