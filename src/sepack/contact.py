"""Contact graphs: touching pairs, degrees, regularity, triangle detection.

An edge joins spheres i and j when their center distance lies in the
closed band [2 - TOL, 2 + TOL]; a symmetric band is used because the
catalog coordinates involve sqrt(2)/sqrt(3) irrationals that cannot hit
2 exactly in floating point.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._kdtree import cKDTree  # noqa: F401  (perfbench/tracer.py counts tree builds through this name)
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


def min_contact_distance(g: ContactGraph, p: Packing) -> float:
    """Least center distance over the contact edges, NaN without one.

    build_contact_graph rejects overlapping pairs, so whenever p has a
    contact this is its minimum pairwise distance, read from the pairs the
    graph already holds.
    """
    lengths = np.linalg.norm(np.subtract(*p.centers[g.edges.T]), axis=1)
    return float(lengths.min()) if len(lengths) else float("nan")


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

    A wedge joins two edges (i, j) and (i, k), j < k, that leave the same
    least vertex i; it is closed, and i < j < k a triangle, exactly when
    (j, k) is an edge too.  The edges are sorted lexicographically, so the
    upper neighbours of each vertex are one run of rows: every edge is
    paired with each later edge of its run, and the candidate keys j * n + k
    are looked up among the sorted edge keys i * n + j by one searchsorted.
    The wedges are generated in lexicographic order of (i, j, k), so the
    first closed one is the witness.  A vertex with u upper neighbours
    opens u (u - 1) / 2 wedges, few in a packing, whose degrees are bounded
    by the kissing number.  Any simplex in the contact graph contains a
    triangle, so this is the complete obstruction test for total
    separability.
    """
    n, edges = g.vertex_count, g.edges
    low, high, rows = edges[:, 0], edges[:, 1], np.arange(len(edges))
    keys = low * n + high
    later = np.cumsum(np.bincount(low, minlength=n))[low] - rows - 1  # rows after it in its run
    first = np.repeat(rows, later)
    # the t-th wedge of row e, counted from 0, pairs it with row e + 1 + t
    second = np.arange(len(first)) + (rows + 1 - np.cumsum(later) + later)[first]
    wedges = high[first] * n + high[second]
    found = np.minimum(np.searchsorted(keys, wedges), len(keys) - 1)
    closed = np.flatnonzero(keys[found] == wedges)
    if not len(closed):
        return None
    w = closed[0]
    return (int(low[first[w]]), int(high[first[w]]), int(high[second[w]]))
