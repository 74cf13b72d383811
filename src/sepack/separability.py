"""Tangent-hyperplane separability: one certifier, which also gives sep.

A packing is totally separable when the tangent hyperplane at every
contact misses the interior of every sphere.  certify_total_separability
is the one verdict on that rule.  For a finite window it is
window-scoped: a violation found is a true violation, while a clean
sweep only certifies the generated crop (the hyperplane is unbounded, so
a finite window cannot refute far-away intersections).

The same report carries the measure sep(P), the fraction of contacts
whose tangent hyperplane is clean; it is 0 for inseparable packings and
1 for totally separable ones.  An edgeless window is WindowCertified
with sep 1: no plane can be dirty.  Grazing contact (distance from a center to the plane exactly equal
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

from .contact import ContactGraph, build_contact_graph, checked_graph
from .core import TOL, Packing
from .errors import InvalidValueError, MalformedInputError, reals

WINDOW_CERTIFIED = "WindowCertified"
VIOLATION_FOUND = "ViolationFound"

# absolute float allowance of the slab test
_ROUNDING = 1e-12
# candidate (edge, sphere) pairs rechecked at once: a dirty packing such as
# the triangular lattice has about sqrt(n) candidates per edge, so the work
# arrays are filled in chunks of about this size
_CANDIDATE_BUDGET = 1 << 20


@dataclass(frozen=True, eq=False)
class SeparabilityReport:
    """The certifier's per-window verdict and the sep ratio.

    ``status`` is WindowCertified when no edge is dirty, edgeless windows
    included, and ViolationFound otherwise.  ``sep`` is exact (a
    Fraction), 1 for an edgeless window.  ``violations`` is a read-only (k, 3)
    int64 array of witness rows (i, j, sphere): the tangent plane of edge
    (i, j) enters that sphere.  It holds one row per dirty edge by default
    or every offender under full audit, and has shape (0, 3) when no edge
    is dirty.
    """

    clean_edges: int
    total_edges: int
    sep: Fraction
    violations: np.ndarray
    status: str

    def __eq__(self, other):
        if not isinstance(other, SeparabilityReport):
            return NotImplemented
        return (
            (self.clean_edges, self.total_edges, self.sep, self.status)
            == (other.clean_edges, other.total_edges, other.sep, other.status)
            and np.array_equal(self.violations, other.violations)
        )


def _edge_cleanliness(p: Packing, g: ContactGraph, full_audit: bool) -> tuple[int, np.ndarray]:
    """Count clean edges and collect violation witnesses as (i, j, sphere) rows.

    Edge e with unit normal u_e and offset b_e is dirty when some center x
    has |x . u_e - b_e| < r' = 1 - TOL, the unit radius less TOL.  Edges
    are grouped by their sign-canonical normal rounded to 1e-6; group g
    keeps one normal u_g, and every edge of the group is flipped to
    s_e u_e, s_e = +-1, to face the same way.  A center x with
    |x . s_e u_e - s_e b_e| < r' has a projection x . u_g within r' + slack
    of s_e b_e, where

        slack = max_e |u_g - s_e u_e|_1 * X + 1e-12 + 4 d^2 eps X,
        X = max_x |x|_inf,

    bounds the change of normal within the group; the last two terms
    bound the float rounding of the two d-term dot products and of the
    slab ends.  So one sort of the projections per group and a bisection
    per edge yield every possible offender.  The slack is computed, never
    a fixed constant: while it stays below TOL (for grid normals, X below
    7e4 in d = 4) the spheres grazing a plane at exactly the radius, a
    whole neighboring row in a grid, stay out of the slab.

    The same two-sided bound, |x . u_g - x . s_e u_e| <= spread * X, makes
    the slab's inner band a set of sure hits.  A candidate whose projection
    lies within r' - slack of s_e b_e has |x . s_e u_e - s_e b_e| < r' -
    slack + spread * X = r' - rounding exactly, and ``rounding`` covers the
    float error of the two d-term dot products and of the band ends, so the
    recheck below would find it under r' too.  Only the rim, candidates
    with r' - slack <= |x . u_g - s_e b_e| <= r' + slack, is rechecked with
    the edge's own normal and offset: the verdicts do not depend on how the
    rounding grouped the directions.

    The witness rows form a read-only (k, 3) int64 array, ordered by edge
    (ContactGraph order), then by sphere index: every hit is ranked by the
    one int64 key e * n + sphere, below m * n < 2^63 for any window under
    POINT_BUDGET, in one sort.  Without full audit each dirty edge keeps
    its lowest-index offender, the first of its run of keys.
    """
    edges = g.edges
    if len(edges) == 0:
        witnesses = np.zeros((0, 3), dtype=np.int64)
        witnesses.setflags(write=False)
        return 0, witnesses
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

    reach = 1.0 - TOL
    extent = float(np.max(np.abs(centers)))
    rounding = _ROUNDING + 4 * p.dimension**2 * np.finfo(float).eps * extent
    hit_keys = [np.zeros(0, dtype=np.int64)]
    for members in np.split(by_group, starts):
        facing = normals[members] * signs[members, None]
        u_g = facing[0]
        spread = float(np.max(np.sum(np.abs(facing - u_g), axis=1)))
        slack = spread * extent + rounding
        proj = centers @ u_g
        order = np.argsort(proj)
        proj = proj[order]
        b = offsets[members] * signs[members]
        # sorted positions [lo, hi) form the slab, [inner_lo, inner_hi) its inner band
        lo = np.searchsorted(proj, b - reach - slack, side="left")
        hi = np.searchsorted(proj, b + reach + slack, side="right")
        counts = hi - lo
        ends = np.cumsum(counts)
        if ends[-1] == 0:
            continue
        inner = max(reach - slack, 0.0)
        inner_lo = np.searchsorted(proj, b - inner, side="right")
        inner_hi = np.maximum(np.searchsorted(proj, b + inner, side="left"), inner_lo)
        cuts = np.searchsorted(ends, np.arange(_CANDIDATE_BUDGET, ends[-1], _CANDIDATE_BUDGET))
        for chunk in np.split(np.arange(len(members)), cuts):
            # flatten the slabs of the chunk's edges into (edge, sphere) pairs
            c = counts[chunk]
            run_start = np.cumsum(c) - c
            e = np.repeat(members[chunk], c)
            at = np.arange(c.sum()) + np.repeat(lo[chunk] - run_start, c)
            sphere = order[at]
            hit = (np.repeat(inner_lo[chunk], c) <= at) & (at < np.repeat(inner_hi[chunk], c))
            band = np.flatnonzero(~hit)
            band_e = e[band]
            dist = np.abs(
                np.einsum("ij,ij->i", centers[sphere[band]], normals[band_e]) - offsets[band_e]
            )
            hit[band] = dist < reach
            hit_keys.append(e[hit] * len(centers) + sphere[hit])

    e, sphere = np.divmod(np.sort(np.concatenate(hit_keys)), len(centers))
    first = np.flatnonzero(np.diff(e, prepend=-1))
    if not full_audit:
        e, sphere = e[first], sphere[first]
    witnesses = np.column_stack([edges[e], sphere])
    witnesses.setflags(write=False)
    return len(edges) - len(first), witnesses


def certify_total_separability(
    p: Packing, full_audit: bool = False, graph: ContactGraph | None = None
) -> SeparabilityReport:
    """Window-scoped certification of total separability.

    WindowCertified means every edge is clean against every sphere in the
    window (vacuously true for an edgeless packing, whose sep is 1);
    ViolationFound is a genuine counterexample to total separability, and
    sep is the fraction of clean edges.  Edges are tested per tangent
    direction: one sorted projection of the centers per direction, a
    bisected slab per edge, and an exact recheck of the slab's spheres
    against the edge's own plane (see ``_edge_cleanliness`` for the slab
    width).  ``graph``, when given, must be p's (see contact.checked_graph).
    """
    g = build_contact_graph(p) if graph is None else checked_graph(graph, p)
    total = g.edge_count
    clean, violations = _edge_cleanliness(p, g, full_audit)
    sep = Fraction(clean, total) if total else Fraction(1)
    status = VIOLATION_FOUND if len(violations) else WINDOW_CERTIFIED
    return SeparabilityReport(clean, total, sep, violations, status)


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

    ``family`` maps a half-width L to a Packing, such as a window of a
    named catalog packing.
    """
    windows = reals(windows, "window half-widths")
    if windows.ndim != 1:
        raise MalformedInputError(f"window half-widths must be one sequence, not {windows.shape}")
    windows = windows.tolist()
    if len(windows) < 2 or any(b <= a for a, b in zip(windows, windows[1:])):
        raise InvalidValueError("need at least 2 strictly increasing window half-widths")
    values = [certify_total_separability(family(l)).sep for l in windows]
    floats = [float(v) for v in values]
    stable = round(floats[-1], 3) == round(floats[-2], 3)
    diffs = np.diff(floats)
    monotone = bool(np.all(diffs >= 0) or np.all(diffs <= 0))
    return SepSequenceReport(tuple(windows), tuple(values), stable, monotone)
