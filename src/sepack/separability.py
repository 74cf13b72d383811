"""Tangent-hyperplane separability: per-edge clean tests and the sep measure.

A packing is totally separable when the tangent hyperplane at every
contact misses the interior of every sphere.  For a finite window the
verdict is window-scoped: a violation found is a true violation, while a
clean sweep only certifies the generated crop (the hyperplane is
unbounded, so a finite window cannot refute far-away intersections).

The measure sep(P) is the fraction of contacts whose tangent hyperplane
is clean; it is 0 for inseparable packings and 1 for totally separable
ones.  Grazing contact (distance from a center to the plane exactly equal
to the radius) counts as clean: the plane must meet the open interior to
be dirty, and grid tangent lines legitimately graze neighboring spheres.

The certifier exploits that the tangent planes of a periodic packing
share a handful of normal directions (2 for P1, 3 for J1, 6 for K9).
Edges are grouped by direction; per group the centers are projected on
one group normal and sorted once, and each edge only rechecks the
spheres whose projection falls in a slab around its own plane.  The cost
is O(G n log n + m log n + candidates) for G directions instead of the
O(n m) of testing every sphere against every plane.

Supported range: centers with |x|_inf <= 1e5, in any rotation.  There
the verdicts, clean counts and witnesses equal those of the same window
at the origin.  Further out the float rounding of x . u - b approaches
TOL and verdicts drift: a J16 window rotated and shifted by 1e6 reads
238 of its 240 edges clean.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .contact import ContactGraph, build_contact_graph
from .core import TOL, Packing
from .errors import NotAContactError

WINDOW_CERTIFIED = "WindowCertified"
VIOLATION_FOUND = "ViolationFound"
NO_EDGES = "NoEdges"

# absolute float allowance of the slab test
_ROUNDING = 1e-12
# candidate (edge, sphere) pairs rechecked at once: a dirty packing such as
# the triangular lattice has about sqrt(n) candidates per edge, so the work
# arrays are filled in chunks of about this size
_CANDIDATE_BUDGET = 1 << 20


@dataclass(frozen=True, eq=False)
class TangentContact:
    """The tangent hyperplane {x : normal . x = offset} of a touching pair."""

    edge: tuple
    normal: np.ndarray
    offset: float

    @property
    def point(self) -> np.ndarray:
        """A point on the hyperplane (the tangency point)."""
        return self.normal * self.offset


def tangent_hyperplane(p: Packing, edge: tuple) -> TangentContact:
    """The unique hyperplane through the tangency point of a touching pair,
    normal to the line of centers."""
    i, j = int(edge[0]), int(edge[1])
    xi, xj = p.centers[i], p.centers[j]
    diff = xj - xi
    dist = float(np.linalg.norm(diff))
    if abs(dist - 2.0 * p.radius) > TOL:
        raise NotAContactError(
            f"spheres {i} and {j} are at distance {dist}, not touching"
        )
    normal = diff / dist
    offset = float(normal @ ((xi + xj) / 2.0))
    normal.setflags(write=False)
    return TangentContact((i, j), normal, offset)


def plane_hits_interior(h: TangentContact, p: Packing) -> int | None:
    """First sphere whose open interior meets the hyperplane, or None.

    A sphere is hit when its center lies strictly closer than
    radius - TOL to the plane.
    """
    if p.n_spheres == 0:
        return None
    dist = np.abs(p.centers @ h.normal - h.offset)
    hits = np.flatnonzero(dist < p.radius - TOL)
    if len(hits) == 0:
        return None
    return int(hits[0])


@dataclass(frozen=True)
class SeparabilityReport:
    """Per-window separability verdict and the sep ratio.

    ``sep`` is exact (a Fraction); ``violations`` holds (edge, sphere)
    witnesses, one per dirty edge by default or all of them under full
    audit.
    """

    clean_edges: int
    total_edges: int
    sep: Fraction
    violations: tuple
    status: str


def _edge_cleanliness(p: Packing, g: ContactGraph, full_audit: bool) -> tuple[int, list]:
    """Count clean edges and collect violation witnesses.

    Edge e with unit normal u_e and offset b_e is dirty when some center x
    has |x . u_e - b_e| < r' = radius - TOL.  Edges are grouped by
    their sign-canonical normal rounded to 1e-6; group g keeps one normal
    u_g, and every edge of the group is flipped to s_e u_e, s_e = +-1,
    to face the same way.  A center x with |x . s_e u_e - s_e b_e| < r'
    has a projection x . u_g within r' + slack of s_e b_e, where

        slack = max_e |u_g - s_e u_e|_1 * X + 1e-12 + 4 d^2 eps X,
        X = max_x |x|_inf,

    bounds the change of normal within the group; the last two terms
    bound the float rounding of the two d-term dot products and of the
    slab ends.  So one sort of the projections per group and a bisection
    per edge yield every possible offender, and each candidate is then
    rechecked with the edge's own normal and offset: the verdicts do not
    depend on how the rounding grouped the directions.  The slack is
    computed, never a fixed constant: while it stays below TOL (for grid
    normals, X below 7e4 in d = 4) the spheres grazing a plane at exactly
    the radius, a whole neighboring row in a grid, stay out of the slab.

    Witnesses are ordered by edge (ContactGraph order), then by sphere
    index; without full audit each dirty edge keeps its lowest-index
    offender.
    """
    edges = g.edges
    if len(edges) == 0:
        return 0, []
    centers = p.centers
    xi = centers[edges[:, 0]]
    xj = centers[edges[:, 1]]
    diff = xj - xi
    normals = diff / np.linalg.norm(diff, axis=1, keepdims=True)
    offsets = np.einsum("ij,ij->i", normals, (xi + xj) / 2.0)

    # the direction key in units of 1e-6, sign-flipped so that its first
    # nonzero entry is positive
    key = np.rint(normals * 1e6).astype(np.int64)
    signs = np.sign(key[np.arange(len(edges)), np.argmax(key != 0, axis=1)])
    key *= signs[:, None]
    by_group = np.lexsort(key.T[::-1])
    key = key[by_group]
    starts = np.flatnonzero(np.any(key[1:] != key[:-1], axis=1)) + 1

    reach = p.radius - TOL
    extent = float(np.max(np.abs(centers)))
    rounding = _ROUNDING + 4 * p.dimension**2 * np.finfo(float).eps * extent
    hit_edges, hit_spheres = [], []
    for members in np.split(by_group, starts):
        facing = normals[members] * signs[members, None]
        u_g = facing[0]
        spread = float(np.max(np.sum(np.abs(facing - u_g), axis=1)))
        slack = spread * extent + rounding
        proj = centers @ u_g
        order = np.argsort(proj)
        proj = proj[order]
        b = offsets[members] * signs[members]
        lo = np.searchsorted(proj, b - reach - slack, side="left")
        hi = np.searchsorted(proj, b + reach + slack, side="right")
        counts = hi - lo
        ends = np.cumsum(counts)
        cuts = np.searchsorted(ends, np.arange(_CANDIDATE_BUDGET, ends[-1], _CANDIDATE_BUDGET))
        for chunk in np.split(np.arange(len(members)), cuts):
            # flatten the slabs of the chunk's edges into (edge, sphere) pairs
            c = counts[chunk]
            run_start = np.cumsum(c) - c
            e = np.repeat(members[chunk], c)
            sphere = order[np.arange(c.sum()) + np.repeat(lo[chunk] - run_start, c)]
            dist = np.abs(np.einsum("ij,ij->i", centers[sphere], normals[e]) - offsets[e])
            hit = dist < reach
            hit_edges.append(e[hit])
            hit_spheres.append(sphere[hit])

    if not hit_edges:
        return len(edges), []
    e = np.concatenate(hit_edges)
    sphere = np.concatenate(hit_spheres)
    ranked = np.lexsort((sphere, e))
    e, sphere = e[ranked], sphere[ranked]
    first = np.flatnonzero(np.diff(e, prepend=-1))
    clean = len(edges) - len(first)
    # one (i, j) tuple per dirty edge, shared by all of its witnesses
    dirty = np.fromiter(map(tuple, edges[e[first]].tolist()), dtype=object, count=len(first))
    if full_audit:
        dirty = np.repeat(dirty, np.diff(np.append(first, len(e))))
    else:
        sphere = sphere[first]
    return clean, list(zip(dirty.tolist(), sphere.tolist()))


def _report(
    p: Packing, full_audit: bool, empty_status: str, graph: ContactGraph | None = None
) -> SeparabilityReport:
    """The one certifier behind both public names; ``graph`` lets a caller
    that already built the contact graph of ``p`` pass it in."""
    g = build_contact_graph(p) if graph is None else graph
    total = g.edge_count
    if total == 0:
        return SeparabilityReport(0, 0, Fraction(1), (), empty_status)
    clean, violations = _edge_cleanliness(p, g, full_audit)
    sep = Fraction(clean, total)
    status = VIOLATION_FOUND if violations else WINDOW_CERTIFIED
    return SeparabilityReport(clean, total, sep, tuple(violations), status)


def separability_measure(p: Packing, full_audit: bool = False) -> SeparabilityReport:
    """sep(P) = fraction of contacts whose tangent hyperplane misses every
    sphere interior in the window.  Status NoEdges when there is nothing
    to measure."""
    return _report(p, full_audit, NO_EDGES)


def certify_total_separability(p: Packing, full_audit: bool = False) -> SeparabilityReport:
    """Window-scoped certification of total separability.

    WindowCertified means every edge is clean against every sphere in the
    window (vacuously true for an edgeless packing); ViolationFound is a
    genuine counterexample to total separability.  Edges are tested per
    tangent direction: one sorted projection of the centers per direction,
    a bisected slab per edge, and an exact recheck of the slab's spheres
    against the edge's own plane (see ``_edge_cleanliness`` for the slab
    width).
    """
    return _report(p, full_audit, WINDOW_CERTIFIED)


@dataclass(frozen=True)
class SepSequenceReport:
    """sep values over a growing window sequence (limit approximants).

    ``stable_3dp`` flags whether the last two values agree to three
    decimal places; ``monotone`` whether the whole sequence is
    non-increasing or non-decreasing.
    """

    windows: tuple
    values: tuple
    stable_3dp: bool
    monotone: bool


def sep_measure_sequence(family, windows) -> SepSequenceReport:
    """Evaluate sep over concentric windows of increasing half-width.

    ``family`` is either a catalog/reference name (str) or a callable
    mapping a half-width L to a Packing.  The window shape is fixed to
    concentric axis-aligned cubes.
    """
    windows = [float(w) for w in windows]
    if len(windows) < 2 or any(b <= a for a, b in zip(windows, windows[1:])):
        raise ValueError("need at least 2 strictly increasing window half-widths")
    if callable(family):
        make = family
    else:
        from .generators import generate_named

        name = str(family)
        make = lambda l: generate_named(name, l)
    values = []
    for l in windows:
        report = separability_measure(make(l))
        values.append(report.sep)
    floats = [float(v) for v in values]
    stable = round(floats[-1], 3) == round(floats[-2], 3)
    diffs = np.diff(floats)
    monotone = bool(np.all(diffs >= 0) or np.all(diffs <= 0))
    return SepSequenceReport(tuple(windows), tuple(values), stable, monotone)
