"""Shared brute-force oracles and geometry helpers for the tests.

The oracles are deliberately naive O(n^2)/O(n*m) loops, independent of
the library's accelerated paths.
"""

import contextlib
import itertools
import json
import math
import signal
import tracemalloc

import numpy as np
import pytest
from scipy.sparse import coo_matrix
from scipy.sparse.csgraph import connected_components
from scipy.spatial import cKDTree

from sepack import (
    OrbitSpec,
    Packing,
    Window,
    diagonal_construction,
    diagonal_spec,
    load_catalog,
    orbit_generate,
)
from sepack.core import POINT_BUDGET, TOL, lex_less
from sepack.errors import SizeLimitError
from sepack.generators import _at
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


def brute_force_pairs_within(points, r, queries=None):
    """The pairs within r, row by row: (i, j), i < j, of points, or, given
    queries, (query, point), in lexicographic order, with their squared
    sums.  A pair is within r when its squared differences, summed in axis
    order, are at most r * r."""
    points = np.asarray(points, dtype=float)
    rows = [(i, j) for i in range(len(points)) for j in range(i + 1, len(points))]
    if queries is not None:
        queries = np.asarray(queries, dtype=float)
        rows = list(itertools.product(range(len(queries)), range(len(points))))
    found, sums = [], []
    for i, j in rows:
        square = 0.0
        for x, y in zip(points[i] if queries is None else queries[i], points[j]):
            square += (x - y) * (x - y)
        if square <= r * r:
            found.append((i, j))
            sums.append(square)
    return np.array(found, dtype=np.intp).reshape(-1, 2), np.array(sums)


def brute_force_first_overlap(centers, radius=1.0, tol=1e-9):
    """The first pair (i, j), i < j, in loop order closer than 2 * radius -
    tol, with its distance; None when there is none."""
    centers = np.asarray(centers, dtype=float)
    for i in range(len(centers)):
        for j in range(i + 1, len(centers)):
            dist = float(np.linalg.norm(centers[i] - centers[j]))
            if dist < 2.0 * radius - tol:
                return (i, j), dist
    return None


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


def brute_force_signed_permutation_orbit(seed):
    """Images of seed under every coordinate permutation and sign flip,
    all d! * 2^d of them, deduplicated by np.unique."""
    seed = np.asarray(seed, dtype=float)
    d = len(seed)
    images = []
    for perm in itertools.permutations(range(d)):
        permuted = seed[list(perm)]
        for signs in itertools.product((1.0, -1.0), repeat=d):
            images.append(permuted * np.array(signs))
    return np.unique(np.array(images), axis=0)


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


def oracle_pair_types(tables, lattice, radius, dims, reach):
    """The near-duplicate pair types (within TOL / 2) and every pair type
    within reach * (1 + TOL) + TOL, as rows (a, b, delta), from scipy's
    KD-tree over the cell points of every offset that a grid of shape dims
    holds and that can bring two cell points within reach: the per-call
    search that orbit windows made before one search served a window."""
    d = len(lattice)
    own = _at(tables, np.zeros((d, 1)))[0]
    kinds = np.arange(len(own))
    radii = (TOL / 2, reach * (1 + TOL) + TOL)
    span = 2 * radius + radii[1]
    limit = np.minimum(span * np.linalg.norm(np.linalg.inv(lattice), axis=0), np.subtract(dims, 1))
    axes = np.meshgrid(*[np.arange(-n, n + 1) for n in limit.astype(int)], indexing="ij")
    offsets = np.stack([g.ravel() for g in axes], axis=1)
    offsets = offsets[np.linalg.norm(offsets @ lattice, axis=1) <= span]
    tree = cKDTree(_at(tables, (offsets @ lattice).T).reshape(-1, d))
    found = []
    for r in radii:
        hits = tree.query_ball_point(own, r)
        j = np.concatenate(hits).astype(int)
        rows = np.column_stack(
            [np.repeat(kinds, [len(h) for h in hits]), j % len(kinds), offsets[j // len(kinds)]]
        )
        flipped = np.column_stack([rows[:, 1], rows[:, 0], -rows[:, 2:]])
        # a point paired with itself reads the same both ways, and drops out
        rows = np.concatenate([rows[lex_less(rows, flipped)], flipped[lex_less(flipped, rows)]])
        found.append(np.unique(rows, axis=0))
    return tuple(found)


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
    return Packing(centers[window.contains(centers)], window, label)


def bad_packing_files() -> dict:
    """Packing files, by case, that decode_packing must turn away with a
    PackingParseError: a scalar of the wrong JSON type, centers nested
    past the parser's recursion limit, a coordinate no float holds, a
    string where a number belongs (it would re-encode as other bytes),
    bytes that are not UTF-8, and a JSON array."""
    doc = {
        "format_version": FORMAT_VERSION,
        "dimension": 2,
        "radius": 1.0,
        "label": "two",
        "window": {"lower": [-4.0, -4.0], "upper": [4.0, 4.0], "margin": 0.0},
        "centers": [[0.0, 0.0], [2.0, 0.0]],
    }
    cases = {
        "radius-string": {"radius": "1"},
        "margin-string": {"window": {**doc["window"], "margin": "0"}},
        "label-object": {"label": {"name": "two"}},
        "deep-centers": {"centers": "DEEP"},
        "huge-integer": {"centers": [[10**400, 0.0], [2.0, 0.0]]},
        "lower-string": {"window": {**doc["window"], "lower": ["-4", -4.0]}},
        "center-string": {"centers": [["-6.0", 0.0], [2.0, 0.0]]},
    }
    deep = ("[" * 100_000 + "]" * 100_000).encode()
    files = {
        case: json.dumps({**doc, **change}).encode().replace(b'"DEEP"', deep)
        for case, change in cases.items()
    }
    files["not-utf-8"] = json.dumps(doc).encode().replace(b"two", b"tw\xff")
    files["json-array"] = json.dumps([doc]).encode()
    return files


def oracle_encode_packing(p: Packing) -> bytes:
    """A packing file through the standard JSON encoder, one call per token."""
    doc = {
        "format_version": FORMAT_VERSION,
        "dimension": p.dimension,
        "radius": 1.0,
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


def turned_plane_spec_against_k6(spec):
    """A plane orbit spec turned by 45 degrees, against K6's: both motifs
    in lexicographic order, and the matrix U with turned lattice =
    U @ K6's lattice (an integer matrix of determinant +-1 when the two
    lattices are one)."""
    turn = np.array([[1.0, -1.0], [1.0, 1.0]]) * math.sqrt(0.5)
    k6 = load_catalog()["K6"]
    motif = spec.motif() @ turn.T
    k6_motif = OrbitSpec(k6.seeds, k6.lattice, k6.centering).motif()
    u = (spec.lattice @ turn.T) @ np.linalg.inv(k6.lattice)
    return motif[np.lexsort(motif.T[::-1])], k6_motif, u


def spec_window_and_closed_form(d, depth):
    """The centres of diagonal_spec(d) over the bounding box of
    diagonal_construction(d, depth)'s centres, paired row by row with the
    nearest closed-form centre: (window, closed form, the closed-form row
    of each window row)."""
    closed = diagonal_construction(d, depth).packing.centers
    window = orbit_generate(diagonal_spec(d), Window(closed.min(axis=0), closed.max(axis=0)))
    return window.centers, closed, cKDTree(closed).query(window.centers)[1]


def brute_force_choose_box(n, d):
    """choose_box by walking every delta vector in lexicographic order and
    keeping the first box of least volume that holds n cells."""
    k = 1
    while (k + 1) ** d <= n:
        k += 1
    best = None
    for deltas in itertools.product((0, 1), repeat=d):
        sides = tuple(k + dd for dd in deltas)
        vol = math.prod(sides)
        if vol >= n and (best is None or vol < math.prod(best)):
            best = sides
    return best


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


class StillRunning(Exception):
    """A block outlasted within_seconds.  Not an OSError, unlike
    TimeoutError, so the CLI's error handler cannot swallow it."""


@contextlib.contextmanager
def within_seconds(seconds):
    """Fail with StillRunning when the block runs longer than ``seconds``
    (whole seconds, by SIGALRM), so a hang fails instead of stalling."""

    def expire(signum, frame):
        raise StillRunning(f"still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


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
    return Packing(centers, None, p.label)


@pytest.fixture
def rng():
    return np.random.default_rng(20260809)
