"""Shared brute-force oracles and geometry helpers for the tests.

The oracles are deliberately naive O(n^2)/O(n*m) loops, independent of
the library's accelerated paths.
"""

import itertools
import math

import numpy as np
import pytest

from sepack import Packing
from sepack.contact_numbers import _add, _unit_steps


def brute_force_edges(centers, radius=1.0, tol=1e-9):
    """All touching pairs by direct distance comparison."""
    centers = np.asarray(centers, dtype=float)
    edges = set()
    for i in range(len(centers)):
        for j in range(i + 1, len(centers)):
            dist = np.linalg.norm(centers[i] - centers[j])
            if abs(dist - 2.0 * radius) <= tol:
                edges.add((i, j))
    return edges


def brute_force_min_distance(centers):
    centers = np.asarray(centers, dtype=float)
    best = np.inf
    for i in range(len(centers)):
        for j in range(i + 1, len(centers)):
            best = min(best, float(np.linalg.norm(centers[i] - centers[j])))
    return best


def brute_force_clean_edges(centers, radius=1.0, tol=1e-9):
    """(clean, total) edge counts by direct tangent-plane evaluation."""
    centers = np.asarray(centers, dtype=float)
    edges = sorted(brute_force_edges(centers, radius, tol))
    clean = 0
    for i, j in edges:
        u = centers[j] - centers[i]
        u = u / np.linalg.norm(u)
        b = float(u @ ((centers[i] + centers[j]) / 2.0))
        dirty = False
        for x in centers:
            if abs(float(u @ x) - b) < radius - tol:
                dirty = True
                break
        if not dirty:
            clean += 1
    return clean, len(edges)


def brute_force_witnesses(centers, full_audit, radius=1.0, tol=1e-9):
    """(clean, witnesses) by testing every sphere against every tangent
    plane, one plane at a time, with no grouping of the planes.

    Witnesses are ((i, j), s) pairs ordered by edge, then by sphere; without
    full audit each dirty edge keeps only its lowest-index offender.
    """
    centers = np.asarray(centers, dtype=float)
    clean = 0
    witnesses = []
    for i, j in sorted(brute_force_edges(centers, radius, tol)):
        u = centers[j] - centers[i]
        u = u / np.linalg.norm(u)
        b = float(u @ ((centers[i] + centers[j]) / 2.0))
        offenders = np.flatnonzero(np.abs(centers @ u - b) < radius - tol).tolist()
        if not offenders:
            clean += 1
        witnesses.extend(((i, j), s) for s in offenders[: None if full_audit else 1])
    return clean, witnesses


def brute_force_first_triangle(n, edges):
    """Lexicographically smallest triangle (i < j < k) of a graph on n
    vertices, or None, by a triple loop over vertex triples."""
    adjacent = {(int(a), int(b)) for a, b in edges} | {(int(b), int(a)) for a, b in edges}
    for i in range(n):
        for j in range(i + 1, n):
            if (i, j) not in adjacent:
                continue
            for k in range(j + 1, n):
                if (i, k) in adjacent and (j, k) in adjacent:
                    return (i, j, k)
    return None


def brute_force_polyforms(n, d=2):
    """All fixed (translation-distinct) polyominoes/polycubes of n cells.

    Returns {canonical cell tuple: shared-face count}.  Canonical form is
    the translate whose cellwise minimum is the origin, as a sorted
    tuple.  Plain growth-and-dedup: simple enough to trust as an oracle.
    """
    seed = (tuple([0] * d),)
    shapes = {seed: 0}
    for _ in range(n - 1):
        grown = {}
        for shape, shared in shapes.items():
            cellset = set(shape)
            for cell in shape:
                for step in _unit_steps(d):
                    new = _add(cell, step)
                    if new in cellset:
                        continue
                    gained = sum(
                        1 for s in _unit_steps(d) if _add(new, s) in cellset
                    )
                    cells = list(shape) + [new]
                    mins = [min(c[i] for c in cells) for i in range(d)]
                    canon = tuple(
                        sorted(tuple(a - m for a, m in zip(c, mins)) for c in cells)
                    )
                    if canon not in grown:
                        grown[canon] = shared + gained
        shapes = grown
    return shapes


def brute_force_cd_upper_bound(n, d):
    """floor(d(n - n^((d-1)/d))) by scanning t = d*n - m upward to the
    least t with t^d >= d^d * n^(d-1)."""
    power = d**d * n ** (d - 1)
    t = 1
    while t**d < power:
        t += 1
    return d * n - t


def diagonal_plane_clearance(d):
    """Closed-form clearance of the depth-1 diagonal construction's
    diagonal tangent planes, without the certifier.

    Root vertex s in {-1, 1}^d touches its diagonal partner across the
    plane {x : s.x / sqrt(d) = sqrt(d) + 1}.  The depth-1 cube spawned
    from vertex s' is centred at step * s', step = 2 + 2/sqrt(d), with
    spheres at step * s' + tau for corners tau in {-1, 1}^d; such a
    centre projects onto the plane's normal at
    (step * (s.s') + s.tau) / sqrt(d).  Returns the least distance of
    such a centre from such a plane over all s, s' and tau: 1 at d = 2
    (the planes graze), 1/3 at d = 3, 0 at d = 4 and 1/5 at d = 5.
    """
    signs = np.array(list(itertools.product((-1, 1), repeat=d)), dtype=float)
    root = math.sqrt(d)
    step = 2.0 + 2.0 / root
    dots = signs @ signs.T
    # proj[a, b, c]: centre step * s_b + s_c projected on the normal s_a
    proj = (step * dots[:, :, None] + dots[:, None, :]) / root
    return float(np.min(np.abs(proj - (root + 1.0))))


def deepest_witness_clearance(p: Packing, violations):
    """Least distance from a witness sphere's centre to the tangent plane
    of its (edge, sphere) violation witness."""
    centers = p.centers
    best = np.inf
    for (i, j), s in violations:
        normal = centers[j] - centers[i]
        normal = normal / np.linalg.norm(normal)
        midpoint = (centers[i] + centers[j]) / 2.0
        best = min(best, abs(float((centers[s] - midpoint) @ normal)))
    return best


def random_rotation(d, rng):
    """Haar-ish random rotation via QR of a Gaussian matrix."""
    m = rng.standard_normal((d, d))
    q, r = np.linalg.qr(m)
    q *= np.sign(np.diag(r))
    if np.linalg.det(q) < 0:
        q[:, 0] = -q[:, 0]
    return q


def transformed(p: Packing, rotation, translation) -> Packing:
    """Apply an isometry to all centers (window becomes a bounding box)."""
    centers = p.centers @ rotation.T + translation
    return Packing(centers, None, p.radius, p.label)


@pytest.fixture
def rng():
    return np.random.default_rng(20260809)
