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
sphere count is exactly 2^d per cube.

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

from .contact import build_contact_graph
from .core import TOL, Packing, Window, interior_indices
from .errors import SizeLimitError, UnsupportedDimensionError

DEFAULT_SPHERE_BUDGET = 200_000


@dataclass(frozen=True, eq=False)
class DiagonalConstruction:
    """Generated packing plus the cube bookkeeping needed for saturation.

    ``cube_index`` / ``corner_sign`` identify, per sphere, the unique cube
    it belongs to and its sign vector within that cube; ``saturated`` is
    the mask of spheres whose diagonal partner cube has been spawned.
    """

    dimension: int
    depth: int
    packing: Packing
    cube_lattice: np.ndarray  # (n_cubes, d) int lattice coordinates
    cube_index: np.ndarray  # (n_spheres,) int
    corner_sign: np.ndarray  # (n_spheres, d) int in {-1, +1}
    saturated: np.ndarray  # (n_spheres,) bool

    @property
    def step(self) -> float:
        return 2.0 + 2.0 / math.sqrt(self.dimension)

    @property
    def n_cubes(self) -> int:
        return len(self.cube_lattice)

    def saturated_indices(self) -> np.ndarray:
        return np.flatnonzero(self.saturated)


def cube_count_formula(d: int, depth: int) -> int:
    """Merge-free spawn bound 1 + 2^d * sum_{j<depth} (2^d - 1)^j.

    The actual growth closes up, so this is an upper bound, exact only
    for depth <= 1; see cube_count_exact."""
    return 1 + (2**d) * sum((2**d - 1) ** j for j in range(depth))


def cube_count_exact(d: int, depth: int) -> int:
    """Number of distinct cubes after closure: all-even vectors plus
    all-odd vectors in the L-infinity ball of radius depth."""
    even = (2 * (depth // 2) + 1) ** d
    odd = (2 * ((depth + 1) // 2)) ** d
    return even + odd


def is_cube_spawned(position, depth: int) -> bool:
    """Whether an integer lattice position holds a cube at the given depth:
    all coordinates of equal parity and L-infinity norm <= depth."""
    position = [int(c) for c in position]
    parity = position[0] & 1
    if any((c & 1) != parity for c in position):
        return False
    return max(abs(c) for c in position) <= depth


def diagonal_construction(
    d: int, depth: int, sphere_budget: int = DEFAULT_SPHERE_BUDGET
) -> DiagonalConstruction:
    """Run the construction to the given spawning depth.

    Depth 0 is the single root cube (2^d spheres); depth 1 adds one cube
    per root vertex (2^d + 4^d spheres in total); each later generation
    spawns from every vertex of the previous generation's cubes except
    those whose target position already holds a cube.
    """
    if d < 2:
        raise UnsupportedDimensionError(f"diagonal construction needs d >= 2, got {d}")
    if depth < 0:
        raise ValueError("depth must be >= 0")
    if cube_count_exact(d, depth) * (2**d) > sphere_budget:
        raise SizeLimitError(
            f"depth {depth} in d={d} needs {cube_count_exact(d, depth) * 2**d} "
            f"spheres, over the budget of {sphere_budget}"
        )

    signs = np.array(list(itertools.product((-1, 1), repeat=d)), dtype=int)
    cube_set = {tuple([0] * d)}
    cubes = [tuple([0] * d)]
    frontier = [tuple([0] * d)]
    for _ in range(depth):
        new_frontier = []
        for cube in frontier:
            for s in signs:
                cand = tuple(int(c) + int(si) for c, si in zip(cube, s))
                if cand in cube_set:
                    continue  # parent position or a sibling's duplicate spawn
                cube_set.add(cand)
                cubes.append(cand)
                new_frontier.append(cand)
        frontier = new_frontier

    lattice = np.array(cubes, dtype=int).reshape(-1, d)
    step = 2.0 + 2.0 / math.sqrt(d)

    # one sphere per (cube, corner); cubes never share vertices
    n_cubes = len(lattice)
    cube_idx = np.repeat(np.arange(n_cubes), len(signs))
    corner = np.tile(signs, (n_cubes, 1))
    centers = step * lattice[cube_idx] + corner

    # diagonal partner of (k, s) is vertex (k + s, -s); present iff cube
    # k + s was spawned
    partner_cube = lattice[cube_idx] + corner
    saturated = np.array([tuple(row) in cube_set for row in partner_cube])

    order = np.lexsort(centers.T[::-1])
    centers = centers[order]
    cube_idx = cube_idx[order]
    corner = corner[order]
    saturated = saturated[order]

    pad = 1.0 + TOL
    window = Window(centers.min(axis=0) - pad, centers.max(axis=0) + pad, 0.0)
    packing = Packing(centers, window, 1.0, f"diagonal d={d} depth={depth}")
    if not np.array_equal(packing.centers, centers):
        raise AssertionError("canonical order mismatch in diagonal construction")
    return DiagonalConstruction(
        d, depth, packing, lattice, cube_idx, corner, saturated
    )


@dataclass(frozen=True)
class SaturationVerdict:
    """Degree check over saturated spheres (full neighbor sets present)."""

    status: str  # "regular" | "irregular" | "inconclusive"
    expected_degree: int
    saturated_count: int
    vertex: int | None = None
    degree: int | None = None


def interior_regularity_check(result: DiagonalConstruction) -> SaturationVerdict:
    """Every saturated sphere must touch exactly d+1 others.

    Saturation replaces window margins here because finite depths leave a
    ragged frontier rather than a box-shaped boundary.
    """
    d = result.dimension
    sat = result.saturated_indices()
    if len(sat) == 0:
        return SaturationVerdict("inconclusive", d + 1, 0)
    graph = build_contact_graph(result.packing)
    deg = graph.degrees[sat]
    off = np.flatnonzero(deg != d + 1)
    if len(off) == 0:
        return SaturationVerdict("regular", d + 1, len(sat))
    return SaturationVerdict(
        "irregular", d + 1, len(sat), int(sat[off[0]]), int(deg[off[0]])
    )


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
    within radius + sqrt(d)) is already spawned.
    """
    d = result.dimension
    step = result.step
    reach = radius + math.sqrt(d)
    sat = result.saturated_indices()
    keep = []
    for idx in sat:
        x = result.packing.centers[idx]
        lo = np.floor((x - reach) / step).astype(int)
        hi = np.ceil((x + reach) / step).astype(int)
        complete = True
        for m in itertools.product(*(range(a, b + 1) for a, b in zip(lo, hi))):
            parity = m[0] & 1
            if any((c & 1) != parity for c in m):
                continue  # never a cube position
            if np.linalg.norm(step * np.array(m) - x) > reach:
                continue
            if max(abs(c) for c in m) > result.depth:
                complete = False
                break
        if complete:
            keep.append(idx)
    return np.array(keep, dtype=int)
