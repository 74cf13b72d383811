"""The diagonal-cube family: a (d+1)-regular packing of unit spheres in R^d.

The packing is one orbit spec (diagonal_spec): the cube corners
{-1, 1}^d, the signed-permutation orbit of the seed 1, repeated on the
lattice (2 + 2/sqrt(d)) * B_d, whose rows 1, 2e_1, ..., 2e_(d-1) span the
integer vectors with all coordinates of one parity.  So each lattice
vector k carries a cube of edge 2, and the corner s of cube k touches its
d edge neighbours in the cube and the corner -s of cube k + s across the
diagonal, at distance 2: degree d + 1.  No two cubes share a vertex
((2 + 2/sqrt(d)) * k = 2 has no integer solution).  At d = 2 the spec
turned by 45 degrees is the truncated square tiling K6: the same motif,
on K6's lattice times an integer matrix of determinant -1.

diagonal_construction lists the finite pieces grown by spawning: from one
root cube, each vertex s of a cube spawns the cube one diagonal step
outward, and the cubes spawned up to depth t are exactly the equal-parity
integer vectors in the L-infinity ball of radius t (the spawning BFS
survives as the test oracle in tests/conftest.py).  Its centres are the
closed form (2 + 2/sqrt(d)) * k + s, and orbit_generate of the spec over
their bounding box returns the same sphere set within a few ulps, as it
rescales to the closest pair (bit for bit at d = 4, where the step is 3).

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
from .core import POINT_BUDGET, TOL, Packing, Window
from .errors import SizeLimitError, UnsupportedDimensionError, instance, integer
from .generators import OrbitSpec

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
    def n_cubes(self) -> int:
        return len(self.cube_lattice)


def cube_count_exact(d: int, depth: int) -> int:
    """Number of distinct cubes after closure: all-even vectors plus
    all-odd vectors in the L-infinity ball of radius depth."""
    d, depth = integer(d, "d"), integer(depth, "depth")
    even = (2 * (depth // 2) + 1) ** d
    odd = (2 * ((depth + 1) // 2)) ** d
    return even + odd


def _equal_parity_ball(d: int, t: int) -> np.ndarray:
    """Integer vectors with all coordinates of one parity and L-infinity
    norm <= t, in lexicographic order."""
    box = np.indices((2 * t + 1,) * d).reshape(d, -1).T - t
    return box[np.all((box - box[:, :1]) % 2 == 0, axis=1)]


def diagonal_spec(d: int) -> OrbitSpec:
    """The infinite packing: the orbit {-1, 1}^d of the seed 1 on the
    lattice (2 + 2/sqrt(d)) * B_d, B_d with rows 1, 2e_1, ..., 2e_(d-1)."""
    d = integer(d, "d")
    if d < 2:
        raise UnsupportedDimensionError(f"the diagonal family needs d >= 2, got {d}")
    if d * d > POINT_BUDGET:
        raise SizeLimitError(f"a basis of {d} x {d} values is over the budget of {POINT_BUDGET}")
    basis = np.vstack([np.ones(d), 2.0 * np.eye(d)[:-1]])
    return OrbitSpec(np.ones(d), (2.0 + 2.0 / math.sqrt(d)) * basis)


def diagonal_construction(d: int, depth: int) -> DiagonalConstruction:
    """Build the construction at the given spawning depth from its closed
    form.

    Depth 0 is the single root cube (2^d spheres); depth 1 adds one cube
    per root vertex (2^d + 4^d spheres in total).  At depth t the cubes
    are the equal-parity integer vectors k with ||k||_inf <= t, and the
    sphere at corner s of cube k is saturated iff ||k + s||_inf <= t,
    since its diagonal partner is corner -s of cube k + s.
    """
    d, depth = integer(d, "d"), integer(depth, "depth", least=0)
    if d < 2:
        raise UnsupportedDimensionError(f"diagonal construction needs d >= 2, got {d}")
    if cube_count_exact(d, depth) * (2**d) > SPHERE_BUDGET:
        raise SizeLimitError(
            f"depth {depth} in d={d} needs {cube_count_exact(d, depth) * 2**d} "
            f"spheres, over the budget of {SPHERE_BUDGET}"
        )

    lattice = _equal_parity_ball(d, depth)
    signs = np.array(list(itertools.product((-1, 1), repeat=d)), dtype=np.int64)
    # one sphere per (cube, corner); cubes never share vertices
    cubes = np.repeat(lattice, len(signs), axis=0)
    corners = np.tile(signs, (len(lattice), 1))
    centers = (2.0 + 2.0 / math.sqrt(d)) * cubes + corners
    # the stable sort Packing would do, applied to the saturation mask too
    order = np.lexsort(centers.T[::-1])
    saturated = np.abs(cubes + corners).max(axis=1)[order] <= depth

    pad = 1.0 + TOL
    window = Window(centers.min(axis=0) - pad, centers.max(axis=0) + pad, 0.0)
    packing = Packing(centers[order], window, f"diagonal d={d} depth={depth}")
    return DiagonalConstruction(d, depth, packing, lattice, saturated)


def interior_regularity_check(
    result: DiagonalConstruction, graph: ContactGraph | None = None
) -> RegularityVerdict:
    """Every saturated sphere must touch exactly d+1 others.

    Saturation replaces window margins here because finite depths leave a
    ragged frontier rather than a box-shaped boundary.  ``graph``, when
    given, must be ``result.packing``'s (see contact.checked_graph).
    """
    instance(result, DiagonalConstruction, "result")
    graph = build_contact_graph(result.packing) if graph is None else graph
    saturated = np.flatnonzero(result.saturated)
    return is_k_regular(graph, result.packing, result.dimension + 1, saturated)
