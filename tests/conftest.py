"""Shared brute-force oracles and geometry helpers for the tests.

The oracles are deliberately naive O(n^2)/O(n*m) loops, independent of
the library's accelerated paths.
"""

import contextlib
import itertools
import json
import math
import tracemalloc

import numpy as np
import pytest
from scipy.sparse import coo_matrix
from scipy.sparse.csgraph import connected_components
from scipy.spatial import cKDTree

from sepack import Packing
from sepack.core import POINT_BUDGET, TOL
from sepack.errors import SizeLimitError
from sepack.packio import FORMAT_VERSION


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

    Witnesses are [i, j, s] rows ordered by edge, then by sphere; without
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
        witnesses.extend([i, j, s] for s in offenders[: None if full_audit else 1])
    return clean, witnesses


def oracle_dedup(points: np.ndarray) -> tuple[np.ndarray, float]:
    """Merge points closer than TOL / 2, each connected chain of such near
    pairs keeping its lowest point; return them and their closest distance."""
    points = np.unique(points, axis=0)  # bit-identical duplicates first
    tree = cKDTree(points)
    closest = float(tree.query(points, k=2)[0][:, 1].min())
    if closest > TOL / 2:
        return points, closest
    pairs = tree.query_pairs(r=TOL / 2, output_type="ndarray")
    if len(pairs) == 0:  # a distance within one rounding of TOL / 2 compares differently here
        return points, closest
    n = len(points)
    near = coo_matrix((np.ones(len(pairs)), (pairs[:, 0], pairs[:, 1])), shape=(n, n))
    _, labels = connected_components(near, directed=False)
    _, lowest = np.unique(labels, return_index=True)
    return oracle_dedup(points[np.sort(lowest)])


def oracle_lattice_translates(basis, lo, hi, points_per_translate):
    """Integer lattice combinations covering the box [lo, hi], one row each."""
    corners = np.array(list(itertools.product(*zip(lo, hi))))
    frac = corners @ np.linalg.inv(basis)
    n0 = np.floor(frac.min(axis=0)) - 1
    n1 = np.ceil(frac.max(axis=0)) + 1
    count = math.prod(float(n) for n in n1 - n0 + 1) * points_per_translate
    if not count <= POINT_BUDGET:
        raise SizeLimitError(
            f"the window needs {count:.3g} raw points, over the budget of {POINT_BUDGET}"
        )
    ranges = [np.arange(a, b + 1) for a, b in zip(n0.astype(int), n1.astype(int))]
    grids = np.meshgrid(*ranges, indexing="ij")
    coeffs = np.stack([g.ravel() for g in grids], axis=1)
    return coeffs @ basis


def oracle_orbit_generate(spec, window, label=""):
    """An orbit window the direct way: every raw point of the lattice cells
    covering the window padded by one period, those inside the box padded
    once more deduplicated, scaled by their own closest pair and cropped."""
    lattice, centering, motif = spec.lattice, spec.centering, spec.motif()
    d = spec.dimension

    def points_at(translates):
        return (
            translates[:, None, None, :] + centering[None, :, None, :] + motif[None, None, :, :]
        ).reshape(-1, d)

    probe = points_at(np.array(list(itertools.product((-1, 0, 1), repeat=d))) @ lattice)
    scale = 2.0 / oracle_dedup(probe)[1]

    pad = float(np.linalg.norm(lattice, axis=1).max())
    lo = window.lower / scale - pad
    hi = window.upper / scale + pad
    points = points_at(oracle_lattice_translates(lattice, lo, hi, len(centering) * len(motif)))
    inside = np.all((points >= lo - pad) & (points <= hi + pad), axis=1)
    points, closest = oracle_dedup(points[inside])

    centers = points * (2.0 / closest)
    return Packing(centers[window.contains(centers)], window, 1.0, label)


def oracle_encode_packing(p: Packing) -> bytes:
    """A packing file through the standard JSON encoder, one call per token."""
    doc = {
        "format_version": FORMAT_VERSION,
        "dimension": p.dimension,
        "radius": p.radius,
        "label": p.label,
        "window": {
            "lower": p.window.lower.tolist(),
            "upper": p.window.upper.tolist(),
            "margin": p.window.margin,
        },
        "centers": [list(row) for row in p.centers],
    }
    return (json.dumps(doc, indent=1, sort_keys=True) + "\n").encode("utf-8")


def oracle_write_report(report: dict, path) -> None:
    """A verify report through the standard JSON encoder, its (i, j, s)
    witness rows spelled as {"edge": [i, j], "sphere": s} objects."""
    sep = report["separability"]
    witnesses = [{"edge": [i, j], "sphere": s} for i, j, s in sep["violations"].tolist()]
    doc = {**report, "separability": {**sep, "violations": witnesses}}
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)
        fh.write("\n")


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


def unit_steps(d):
    """The 2d unit steps +e_1, -e_1, +e_2, -e_2, ... as tuples."""
    return [tuple(sign * (i == axis) for i in range(d)) for axis in range(d) for sign in (1, -1)]


def add_cells(cell, step):
    return tuple(a + b for a, b in zip(cell, step))


def brute_force_shared_faces(cells, d):
    """Cells of a set of d-tuples whose cell + e_i is also a cell, summed
    over the axes, by set lookup."""
    cells = set(cells)
    count = 0
    for cell in cells:
        for axis in range(d):
            up = list(cell)
            up[axis] += 1
            if tuple(up) in cells:
                count += 1
    return count


def brute_force_perimeter(cells, d):
    """Free facets of a set of d-tuples: cell + step not a cell, over all
    cells and the 2d unit steps."""
    cells = set(cells)
    count = 0
    for cell in cells:
        for step in unit_steps(d):
            if add_cells(cell, step) not in cells:
                count += 1
    return count


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
                for step in unit_steps(d):
                    new = add_cells(cell, step)
                    if new in cellset:
                        continue
                    gained = sum(
                        1 for s in unit_steps(d) if add_cells(new, s) in cellset
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


def spawned_diagonal_cubes(d, depth):
    """Cubes of the diagonal construction by spawning, {cube: generation}
    in spawning order.

    Generation 0 is the root cube 0; every vertex s of a cube k of the
    last generation spawns the cube k + s unless that position already
    holds a cube.  The cubes of the construction at depth t are those of
    generation <= t.
    """
    signs = list(itertools.product((-1, 1), repeat=d))
    cubes = {tuple([0] * d): 0}
    frontier = list(cubes)
    for generation in range(1, depth + 1):
        new_frontier = []
        for cube in frontier:
            for s in signs:
                cand = tuple(c + si for c, si in zip(cube, s))
                if cand in cubes:
                    continue  # parent position or a sibling's duplicate spawn
                cubes[cand] = generation
                new_frontier.append(cand)
        frontier = new_frontier
    return cubes


def is_cube_spawned(position, depth: int) -> bool:
    """Whether an integer lattice position holds a cube at the given depth:
    all coordinates of equal parity and L-infinity norm <= depth."""
    position = [int(c) for c in position]
    parity = position[0] & 1
    if any((c & 1) != parity for c in position):
        return False
    return max(abs(c) for c in position) <= depth


def brute_force_profile_complete(result, radius):
    """Saturated spheres of a diagonal construction whose radius-ball is
    fully generated, by scanning every lattice position in the box around
    each sphere."""
    d = result.dimension
    step = result.step
    reach = radius + math.sqrt(d)
    keep = []
    for idx in result.saturated_indices():
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
            if not is_cube_spawned(m, result.depth):
                complete = False
                break
        if complete:
            keep.append(idx)
    return np.array(keep, dtype=int)


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
    of its (i, j, sphere) violation witness row."""
    centers = p.centers
    best = np.inf
    for i, j, s in violations:
        normal = centers[j] - centers[i]
        normal = normal / np.linalg.norm(normal)
        midpoint = (centers[i] + centers[j]) / 2.0
        best = min(best, abs(float((centers[s] - midpoint) @ normal)))
    return best


@contextlib.contextmanager
def traced_peak():
    """Yield a list that receives the peak bytes tracemalloc saw in the
    block, numpy buffers included."""
    peak = []
    tracemalloc.start()
    try:
        yield peak
    finally:
        peak.append(tracemalloc.get_traced_memory()[1])
        tracemalloc.stop()


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
