"""Contact graphs: touching pairs, degrees, regularity, triangle detection.

The spheres have radius 1, so an edge joins spheres i and j when their
center distance lies in the closed band [2 - TOL, 2 + TOL]; a symmetric
band is used because the catalog coordinates involve sqrt(2)/sqrt(3)
irrationals that cannot hit 2 exactly in floating point.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._kdtree import cKDTree  # noqa: F401  (perfbench/tracer.py counts tree builds through this name)
from .core import TOL, Packing, valid_pairs_within
from .errors import InvalidValueError, MalformedInputError, integer, integers


@dataclass(frozen=True, eq=False)
class ContactGraph:
    """Vertices are sphere indices; edges are touching pairs (i < j), each once."""

    vertex_count: int
    edges: np.ndarray  # (m, 2) int array, rows sorted, lexicographically ordered

    def __post_init__(self):
        vertex_count = integer(self.vertex_count, "vertex_count", least=0)
        edges = integers(self.edges, "edges")
        if edges.size and edges.shape[1:] != (2,):
            raise MalformedInputError(f"edges must be an (m, 2) array, got shape {edges.shape}")
        edges = edges.reshape(-1, 2)
        if len(edges) and (edges.min() < 0 or edges.max() >= vertex_count):
            raise InvalidValueError(f"edges must join vertices 0 .. {vertex_count - 1}")
        edges = np.sort(edges, axis=1)
        edges = edges[np.lexsort((edges[:, 1], edges[:, 0]))]
        if np.any(edges[:, 0] == edges[:, 1]) or np.any(np.all(edges[1:] == edges[:-1], axis=1)):
            raise InvalidValueError("edges must join two distinct vertices, each pair once")
        edges.setflags(write=False)
        object.__setattr__(self, "edges", edges)

    @property
    def edge_count(self) -> int:
        """Number of contacts, C(P_n)."""
        return len(self.edges)

    @property
    def degrees(self) -> np.ndarray:
        return np.bincount(self.edges.ravel(), minlength=self.vertex_count)


def build_contact_graph(p: Packing) -> ContactGraph:
    """Find all touching pairs of a valid packing; one KD-tree query both
    validates the packing and finds the contacts."""
    pairs, dists = valid_pairs_within(p, 2.0 + TOL)
    return ContactGraph(p.n_spheres, pairs[dists >= 2.0 - TOL])


def checked_graph(g: ContactGraph, p: Packing) -> ContactGraph:
    """g, checked to have one vertex per sphere of p, else InvalidValueError;
    a graph of another packing of p's size passes, and speaks of that one."""
    if g.vertex_count != p.n_spheres:
        raise InvalidValueError(f"{g.vertex_count} graph vertices for {p.n_spheres} spheres")
    return g


def min_contact_distance(g: ContactGraph, p: Packing) -> float:
    """Least center distance over the contact edges, NaN without one.

    build_contact_graph rejects overlapping pairs, so whenever p has a
    contact this is its minimum pairwise distance, read from the pairs the
    graph already holds.  g must be p's graph (see checked_graph).
    """
    g = checked_graph(g, p)
    lengths = np.linalg.norm(np.subtract(*p.centers[g.edges.T]), axis=1)
    return float(lengths.min()) if len(lengths) else float("nan")


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

    The judged vertices are ``indices``, vertex numbers of g, by default the
    interior ones of p: the window truncates the neighbor sets of boundary
    vertices.  g must be p's graph (see checked_graph).
    """
    g = checked_graph(g, p)
    k = None if k is None else integer(k, "k")
    if indices is None:
        indices = np.flatnonzero(p.window.interior_mask(p.centers))
    judged = integers(indices, "indices")
    if judged.ndim != 1:
        raise MalformedInputError(f"indices must be one list of vertices, not {judged.shape}")
    if np.any((judged < 0) | (judged >= g.vertex_count)):
        raise InvalidValueError(f"the judged vertices must be g's, 0 .. {g.vertex_count - 1}")
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
