"""Contact graphs: touching pairs, degrees, regularity, triangle detection.

An edge joins spheres i and j when their center distance lies in the
closed band [2 - tol, 2 + tol]; a symmetric band is used because the
catalog coordinates involve sqrt(2)/sqrt(3) irrationals that cannot hit
2 exactly in floating point.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import sparse
from scipy.spatial import cKDTree

from .core import DEFAULT_TOL, Packing, Tolerance, interior_indices, validate_packing
from .errors import InvalidPackingError


@dataclass(frozen=True, eq=False)
class ContactGraph:
    """Vertices are sphere indices; edges are touching pairs (i < j)."""

    vertex_count: int
    edges: np.ndarray  # (m, 2) int array, rows sorted, lexicographically ordered

    def __post_init__(self):
        edges = np.asarray(self.edges, dtype=np.intp).reshape(-1, 2)
        edges = np.sort(edges, axis=1)
        edges = edges[np.lexsort((edges[:, 1], edges[:, 0]))]
        edges.setflags(write=False)
        object.__setattr__(self, "edges", edges)

    @property
    def edge_count(self) -> int:
        return len(self.edges)

    @property
    def degrees(self) -> np.ndarray:
        deg = np.zeros(self.vertex_count, dtype=np.intp)
        np.add.at(deg, self.edges.ravel(), 1)
        return deg

    def adjacency_sets(self) -> list[set]:
        adj = [set() for _ in range(self.vertex_count)]
        for i, j in self.edges:
            adj[i].add(int(j))
            adj[j].add(int(i))
        return adj


def build_contact_graph(p: Packing, tol: Tolerance = DEFAULT_TOL) -> ContactGraph:
    """Find all touching pairs of a valid packing."""
    verdict = validate_packing(p, tol)
    if not verdict:
        raise InvalidPackingError(
            f"packing is invalid: pair {verdict.pair} at distance {verdict.distance}",
            verdict,
        )
    if p.n_spheres < 2:
        return ContactGraph(p.n_spheres, np.zeros((0, 2), dtype=np.intp))
    r = 2.0 * p.radius
    tree = cKDTree(p.centers)
    pairs = tree.query_pairs(r=r + tol.contact, output_type="ndarray")
    if len(pairs) == 0:
        return ContactGraph(p.n_spheres, np.zeros((0, 2), dtype=np.intp))
    dists = np.linalg.norm(p.centers[pairs[:, 0]] - p.centers[pairs[:, 1]], axis=1)
    touching = pairs[dists >= r - tol.contact]
    return ContactGraph(p.n_spheres, touching)


def contact_count(g: ContactGraph) -> int:
    """Number of edges of the contact graph, C(P_n)."""
    return g.edge_count


@dataclass(frozen=True)
class RegularityVerdict:
    """Result of the interior k-regularity check.

    ``status`` is "regular", "irregular", or "inconclusive" (empty
    interior); inconclusive is deliberately distinct from irregular.
    """

    status: str
    k: int
    vertex: int | None = None
    degree: int | None = None

    @property
    def is_regular(self) -> bool:
        return self.status == "regular"


def is_k_regular(g: ContactGraph, p: Packing, k: int) -> RegularityVerdict:
    """Check that every interior vertex has degree exactly k.

    Boundary vertices are ignored: the window truncates their neighbor
    sets, so only spheres with all neighbors present are judged.
    """
    interior = interior_indices(p)
    if len(interior) == 0:
        return RegularityVerdict("inconclusive", k)
    deg = g.degrees[interior]
    off = np.flatnonzero(deg != k)
    if len(off) == 0:
        return RegularityVerdict("regular", k)
    first = off[0]
    return RegularityVerdict("irregular", k, int(interior[first]), int(deg[first]))


def contains_triangle(g: ContactGraph) -> tuple | None:
    """Return the lexicographically first triangle (i < j < k), or None.

    With U the sparse upper-triangular adjacency (U[i, j] = 1 for an edge
    i < j), (U @ U)[i, k] counts the paths i < j < k and multiplying by U
    keeps those closed by the edge i-k, so the product has a nonzero in
    row i exactly when i is the least vertex of some triangle.  The
    witness is extracted from the first such row only: its smallest j
    with an upper neighbor k shared with i, and the smallest such k.  Any
    simplex in the contact graph contains a triangle, so this is the
    complete obstruction test for total separability.
    """
    n = g.vertex_count
    if g.edge_count < 3:
        return None
    rows, cols = g.edges[:, 0], g.edges[:, 1]
    upper = sparse.csr_array((np.ones(len(rows), dtype=np.int32), (rows, cols)), shape=(n, n))
    closed = (upper @ upper).multiply(upper).tocsr()
    closed.eliminate_zeros()
    if closed.nnz == 0:
        return None
    i = int(np.flatnonzero(np.diff(closed.indptr))[0])
    above_i = upper.indices[upper.indptr[i] : upper.indptr[i + 1]]
    for j in np.sort(above_i):
        common = np.intersect1d(above_i, upper.indices[upper.indptr[j] : upper.indptr[j + 1]])
        if len(common):
            break
    return (i, int(j), int(common[0]))
