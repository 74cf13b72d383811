"""Window generators for the catalogued packings.

Three construction routes cover the whole catalog:

* motif: an explicit point motif repeated over a translation lattice
  (square/cubic lattices, hexagon vertices, the truncated-square diamond,
  the truncated-trihexagonal dodecagon, the bitruncated-cubic permutation
  motif);
* product: Cartesian products of lower-dimensional entries and the
  apeirogon, whose contact graph is the graph Cartesian product of the
  factors;
* orbit: the image of a seed point under the signed-permutation group
  plus a cubic translation lattice, for the honeycombs that are neither
  lattices-with-motif nor products.

Generation always happens in raw coordinates on a window padded by one
lattice period, is deduplicated, rescaled so touching spheres sit at
distance exactly 2, and finally cropped to the requested window, so no
boundary motif point is ever missed.
"""

from __future__ import annotations

import itertools
import math
import warnings
from dataclasses import dataclass

import numpy as np
from scipy.spatial import cKDTree

from .catalog import CATALOG_ONLY, CatalogEntry, constructible_ids, load_catalog
from .core import TOL, Packing, Window, min_pairwise_distance, rescale_to_contact
from .errors import (
    DegenerateSeedWarning,
    MalformedInputError,
    NormalizationRequiredError,
    UnknownCatalogIdError,
    UnsupportedConstructionError,
)

SQRT2 = math.sqrt(2.0)
SQRT3 = math.sqrt(3.0)

# non-catalog reference family: the triangular lattice is the canonical
# inseparable packing (every contact's tangent line meets a third circle)
TRIANGULAR_ID = "TRI"


def _dedup(points: np.ndarray) -> np.ndarray:
    """Merge points closer than TOL / 2 (union-find over near pairs)."""
    points = np.unique(points, axis=0)  # bit-identical duplicates first
    if len(points) < 2:
        return points
    pairs = cKDTree(points).query_pairs(r=TOL / 2, output_type="ndarray")
    if len(pairs) == 0:
        return points
    parent = np.arange(len(points))

    def find(i):
        root = i
        while parent[root] != root:
            root = parent[root]
        while parent[i] != root:
            parent[i], i = root, parent[i]
        return root

    for a, b in pairs:
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[max(ra, rb)] = min(ra, rb)
    keep = np.array([find(i) == i for i in range(len(points))])
    return points[keep]


def _lattice_translates(basis: np.ndarray, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """Integer lattice combinations covering the box [lo, hi]."""
    d = basis.shape[0]
    corners = np.array(list(itertools.product(*zip(lo, hi))))
    frac = corners @ np.linalg.inv(basis)
    n0 = np.floor(frac.min(axis=0)).astype(int) - 1
    n1 = np.ceil(frac.max(axis=0)).astype(int) + 1
    grids = np.meshgrid(*[np.arange(a, b + 1) for a, b in zip(n0, n1)], indexing="ij")
    coeffs = np.stack([g.ravel() for g in grids], axis=1)
    return coeffs @ basis


def _tile(
    basis: np.ndarray, centering: np.ndarray, motif: np.ndarray, window: Window, label: str
) -> Packing:
    """Tile motif over lattice, normalize to contact distance 2, crop."""
    basis = np.asarray(basis, dtype=float)
    centering = np.atleast_2d(np.asarray(centering, dtype=float))
    motif = np.atleast_2d(np.asarray(motif, dtype=float))
    d = basis.shape[0]

    # probe the raw contact distance from one cell plus its neighbors
    probe_shifts = np.array(list(itertools.product((-1, 0, 1), repeat=d))) @ basis
    probe = (
        probe_shifts[:, None, None, :] + centering[None, :, None, :] + motif[None, None, :, :]
    ).reshape(-1, d)
    probe = _dedup(probe)
    tree = cKDTree(probe)
    dists, _ = tree.query(probe, k=2)
    raw_contact = float(dists[:, 1].min())
    scale = 2.0 / raw_contact

    pad = float(np.linalg.norm(basis, axis=1).max())
    lo = window.lower / scale - pad
    hi = window.upper / scale + pad
    translates = _lattice_translates(basis, lo, hi)
    points = (
        translates[:, None, None, :] + centering[None, :, None, :] + motif[None, None, :, :]
    ).reshape(-1, d)
    inside = np.all((points >= lo - pad) & (points <= hi + pad), axis=1)
    points = _dedup(points[inside])

    raw = Packing(points, Window(lo - pad, hi + pad, 0.0), 1.0, label)
    normalized = rescale_to_contact(raw)
    keep = window.contains(normalized.centers)
    return Packing(normalized.centers[keep], window, 1.0, label)


# ---------------------------------------------------------------------------
# motif recipes (raw coordinates; the engine normalizes)

def _motif_square_lattice(d: int):
    return 2.0 * np.eye(d), np.zeros((1, d)), np.zeros((1, d))


def _motif_hexagon_vertices(d: int):
    # honeycomb vertex set: two-point motif on a triangular Bravais lattice,
    # edge length 2
    basis = np.array([[3.0, SQRT3], [3.0, -SQRT3]])
    motif = np.array([[0.0, 0.0], [2.0, 0.0]])
    return basis, np.zeros((1, 2)), motif


def _motif_truncated_square(d: int):
    # diamond of circumradius sqrt(2) (edge 2) per node; period 2+2*sqrt(2)
    # leaves a gap of exactly 2 between neighboring diamonds
    t = 2.0 + 2.0 * SQRT2
    motif = np.array([[SQRT2, 0.0], [-SQRT2, 0.0], [0.0, SQRT2], [0.0, -SQRT2]])
    return t * np.eye(2), np.zeros((1, 2)), motif


def _motif_truncated_trihexagonal(d: int):
    # dodecagon of edge 2 (circumradius sqrt(6)+sqrt(2)) per node of a
    # triangular lattice of period 6+2*sqrt(3); vertices at 15 deg + k*30 deg
    # are sign/coordinate images of (2+sqrt3, 1) and (1+sqrt3, 1+sqrt3)
    t = 6.0 + 2.0 * SQRT3
    basis = np.array([[t, 0.0], [t / 2.0, t * SQRT3 / 2.0]])
    a, b = 2.0 + SQRT3, 1.0 + SQRT3
    motif = []
    for x, y in [(a, 1.0), (b, b), (1.0, a)]:
        motif.extend([(sx * x, sy * y) for sx in (1, -1) for sy in (1, -1)])
    return basis, np.zeros((1, 2)), np.array(sorted(set(motif)))


def _motif_bitruncated_cubic(d: int):
    # all signed permutations of (0, 1, 2) on the body-centered lattice
    # 4Z^3 + {(0,0,0), (2,2,2)}; raw contact distance sqrt(2)
    basis = 4.0 * np.eye(3)
    centering = np.array([[0.0, 0.0, 0.0], [2.0, 2.0, 2.0]])
    return basis, centering, signed_permutation_orbit(np.array([0.0, 1.0, 2.0]))


def _motif_triangular(d: int):
    basis = np.array([[2.0, 0.0], [1.0, SQRT3]])
    return basis, np.zeros((1, 2)), np.zeros((1, 2))


_MOTIFS = {
    "square_lattice": _motif_square_lattice,
    "hexagon_vertices": _motif_hexagon_vertices,
    "truncated_square": _motif_truncated_square,
    "truncated_trihexagonal": _motif_truncated_trihexagonal,
    "bitruncated_cubic": _motif_bitruncated_cubic,
    "triangular": _motif_triangular,
}


# ---------------------------------------------------------------------------
# orbit generation

def signed_permutation_orbit(seed: np.ndarray) -> np.ndarray:
    """Distinct images of seed under coordinate permutations and sign flips."""
    seed = np.asarray(seed, dtype=float)
    d = len(seed)
    images = []
    for perm in itertools.permutations(range(d)):
        permuted = seed[list(perm)]
        for signs in itertools.product((1.0, -1.0), repeat=d):
            images.append(permuted * np.array(signs))
    return np.unique(np.array(images), axis=0)


@dataclass(frozen=True, eq=False)
class OrbitSpec:
    """Seed + signed-permutation point group + translation lattice."""

    dimension: int
    seed: np.ndarray
    lattice: np.ndarray  # (d, d) basis, rows are translation vectors
    centering: np.ndarray = None  # optional extra offsets, origin included

    def __post_init__(self):
        seed = np.asarray(self.seed, dtype=float)
        lattice = np.asarray(self.lattice, dtype=float)
        if seed.shape != (self.dimension,):
            raise MalformedInputError("orbit seed must be a d-vector")
        if not np.any(seed != 0.0):
            raise MalformedInputError("orbit seed must be nonzero")
        if lattice.shape != (self.dimension, self.dimension) or abs(
            np.linalg.det(lattice)
        ) < 1e-12:
            raise MalformedInputError("lattice basis must be d independent d-vectors")
        centering = self.centering
        if centering is None:
            centering = np.zeros((1, self.dimension))
        object.__setattr__(self, "seed", seed)
        object.__setattr__(self, "lattice", lattice)
        object.__setattr__(self, "centering", np.atleast_2d(np.asarray(centering, float)))


def orbit_generate(spec: OrbitSpec, window: Window, label: str = "") -> Packing:
    """Generate {g . seed + t} over the window, normalized to contact 2.

    The caller is responsible for validating regularity/separability of
    the result; a collapsed orbit (seed fixed by reflections) only warns.
    """
    orbit = signed_permutation_orbit(spec.seed)
    full_order = 2**spec.dimension * math.factorial(spec.dimension)
    if len(orbit) < full_order:
        warnings.warn(
            f"orbit of seed {spec.seed.tolist()} collapsed to {len(orbit)} "
            f"of {full_order} group images",
            DegenerateSeedWarning,
            stacklevel=2,
        )
    return _tile(spec.lattice, spec.centering, orbit, window, label)


# ---------------------------------------------------------------------------
# products and the apeirogon

def generate_apeirogon(window, margin: float = 3.0) -> Packing:
    """Evenly spaced centers on a line: the 1-dimensional tiling.

    Centers sit on the even integers inside the window; interior spheres
    touch exactly 2 neighbors.
    """
    window = _as_window(window, 1, margin)
    k0 = math.ceil((window.lower[0] - TOL) / 2.0)
    k1 = math.floor((window.upper[0] + TOL) / 2.0)
    centers = 2.0 * np.arange(k0, k1 + 1, dtype=float)[:, None]
    return Packing(centers, window, 1.0, "A")


def product_packing(p: Packing, q: Packing, label: str = "") -> Packing:
    """Cartesian product packing in R^(a+b).

    Contacts occur exactly when one coordinate block matches and the
    other block is a factor contact, so the contact graph is the graph
    Cartesian product and interior degrees add.
    """
    for factor in (p, q):
        if factor.radius != 1.0:
            raise NormalizationRequiredError("product factors must have radius 1")
        if factor.n_spheres >= 2:
            delta = min_pairwise_distance(factor)
            if abs(delta - 2.0) > TOL:
                raise NormalizationRequiredError(
                    f"product factor has contact distance {delta}, expected 2"
                )
    a, b = p.n_spheres, q.n_spheres
    centers = np.hstack(
        [np.repeat(p.centers, b, axis=0), np.tile(q.centers, (a, 1))]
    )
    window = Window(
        np.concatenate([p.window.lower, q.window.lower]),
        np.concatenate([p.window.upper, q.window.upper]),
        max(p.window.margin, q.window.margin),
    )
    if not label:
        label = f"{p.label or 'P'}x{q.label or 'Q'}"
    return Packing(centers, window, 1.0, label)


# ---------------------------------------------------------------------------
# named generation

def _as_window(window, dimension: int, margin: float) -> Window:
    if isinstance(window, Window):
        if window.dimension != dimension:
            raise MalformedInputError(
                f"window dimension {window.dimension} != packing dimension {dimension}"
            )
        return window
    return Window.cube(float(window), dimension, margin)


def _block_window(window: Window, start: int, dim: int, margin: float) -> Window:
    return Window(
        window.lower[start : start + dim], window.upper[start : start + dim], margin
    )


def generate_triangular(window, margin: float = 3.0) -> Packing:
    """Triangular-lattice window: the reference inseparable packing."""
    window = _as_window(window, 2, margin)
    basis, centering, motif = _motif_triangular(2)
    return _tile(basis, centering, motif, window, TRIANGULAR_ID)


def generate_named(name: str, window, margin: float = 3.0) -> Packing:
    """Build a normalized window of a named packing.

    ``name`` is a catalog id (P1, K6, J16, O39, ...), "A" for the
    apeirogon, or "TRI" for the triangular-lattice reference family.
    ``window`` is a half-width L (giving [-L, L]^d) or an explicit Window.
    """
    if name == TRIANGULAR_ID:
        return generate_triangular(window, margin)
    if name == "A":
        return generate_apeirogon(window, margin)
    entries = load_catalog()
    if name not in entries:
        valid = ", ".join(list(entries) + [TRIANGULAR_ID, "A"])
        raise UnknownCatalogIdError(f"unknown packing name {name!r}; valid names: {valid}")
    entry = entries[name]
    window = _as_window(window, entry.dimension, margin)

    if entry.kind == CATALOG_ONLY:
        raise UnsupportedConstructionError(
            f"{entry.id} ({entry.display_name}) is catalog-only: its regularity "
            f"({entry.regularity}) is recorded, but it has no product structure "
            f"and no validated orbit seed, so vertex generation is unavailable"
        )
    if entry.kind == "motif":
        basis, centering, motif = _MOTIFS[entry.motif_name](entry.dimension)
        return _tile(basis, centering, motif, window, entry.id)
    if entry.kind == "orbit":
        spec = OrbitSpec(
            entry.dimension,
            entry.seed,
            entry.period * np.eye(entry.dimension),
        )
        return orbit_generate(spec, window, entry.id)
    if entry.kind == "product":
        left_id, right_id = entry.factors
        left_dim = 1 if left_id == "A" else load_catalog()[left_id].dimension
        right_dim = entry.dimension - left_dim
        left = generate_named(left_id, _block_window(window, 0, left_dim, margin), margin)
        right = generate_named(
            right_id, _block_window(window, left_dim, right_dim, margin), margin
        )
        return product_packing(left, right, entry.id)
    raise UnsupportedConstructionError(f"unknown construction kind {entry.kind!r}")


# ---------------------------------------------------------------------------
# invariant suite

@dataclass(frozen=True)
class EntryCheck:
    """Result of the full invariant suite for one generated window."""

    entry_id: str
    n_spheres: int
    min_distance: float
    triangle: tuple | None
    separability_status: str
    regularity_status: str
    expected_k: int

    @property
    def ok(self) -> bool:
        return (
            abs(self.min_distance - 2.0) <= TOL
            and self.triangle is None
            and self.separability_status == "WindowCertified"
            and self.regularity_status == "regular"
        )


def check_entry_invariants(p: Packing, entry: CatalogEntry) -> EntryCheck:
    """Run the acceptance-style invariant suite on a generated window:
    contact distance 2, triangle-free, window-certified separable,
    interior degree equal to the catalog regularity.  An overlapping
    window raises InvalidPackingError from the contact-graph build."""
    from .contact import build_contact_graph, contains_triangle, is_k_regular
    from .separability import WINDOW_CERTIFIED, _report

    graph = build_contact_graph(p)
    triangle = contains_triangle(graph)
    sep = _report(p, False, WINDOW_CERTIFIED, graph=graph)
    reg = is_k_regular(graph, p, entry.regularity)
    return EntryCheck(
        entry_id=entry.id,
        n_spheres=p.n_spheres,
        min_distance=min_pairwise_distance(p) if p.n_spheres >= 2 else float("nan"),
        triangle=triangle,
        separability_status=sep.status,
        regularity_status=reg.status,
        expected_k=entry.regularity,
    )
