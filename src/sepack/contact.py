"""Contact graphs: touching pairs, degrees, regularity, triangle detection.

An edge joins spheres i and j when their center distance lies in the
closed band [2 - TOL, 2 + TOL]; a symmetric band is used because the
catalog coordinates involve sqrt(2)/sqrt(3) irrationals that cannot hit
2 exactly in floating point.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import sparse
from scipy.spatial import cKDTree  # noqa: F401  (perfbench/tracer.py counts tree builds through this name)

from .core import TOL, Packing, interior_indices, valid_pairs_within


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
        return np.bincount(self.edges.ravel(), minlength=self.vertex_count)

    def adjacency_sets(self) -> list[set]:
        adj = [set() for _ in range(self.vertex_count)]
        for i, j in self.edges:
            adj[i].add(int(j))
            adj[j].add(int(i))
        return adj


def build_contact_graph(p: Packing) -> ContactGraph:
    """Find all touching pairs of a valid packing; one KD-tree query both
    validates the packing and finds the contacts."""
    r = 2.0 * p.radius
    pairs, dists = valid_pairs_within(p, r + TOL)
    return ContactGraph(p.n_spheres, pairs[dists >= r - TOL])


def contact_count(g: ContactGraph) -> int:
    """Number of edges of the contact graph, C(P_n)."""
    return g.edge_count


@dataclass(frozen=True)
class RegularityVerdict:
    """Result of a k-regularity check over a set of judged vertices.

    ``status`` is "regular", "irregular" (``vertex`` is the first judged
    vertex whose ``degree`` is off), or "inconclusive" (nothing to judge),
    which is deliberately distinct from irregular.
    """

    status: str
    k: int | None
    vertex: int | None = None
    degree: int | None = None

    @property
    def is_regular(self) -> bool:
        return self.status == "regular"


def is_k_regular(g: ContactGraph, p: Packing, k: int | None = None, indices=None) -> RegularityVerdict:
    """Check that every judged vertex has degree exactly k (by default the
    degree of the first judged vertex).

    The judged vertices are ``indices``, by default the interior ones: the
    window truncates the neighbor sets of boundary vertices.
    """
    judged = interior_indices(p) if indices is None else np.asarray(indices, dtype=np.intp)
    if len(judged) == 0:
        return RegularityVerdict("inconclusive", k)
    deg = g.degrees[judged]
    k = int(deg[0]) if k is None else k
    off = np.flatnonzero(deg != k)
    if len(off) == 0:
        return RegularityVerdict("regular", k)
    return RegularityVerdict("irregular", k, int(judged[off[0]]), int(deg[off[0]]))


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
