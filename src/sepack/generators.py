"""Window generators for the catalogued packings.

Two construction routes cover the whole catalog:

* orbit spec: the union of the signed-permutation orbits of one or more
  seed points, repeated at each centering offset of a translation
  lattice.  Every non-product catalog entry is one, stored in the
  catalog as ring coefficients; so are the apeirogon and the triangular
  reference lattice TRI.
* product: Cartesian products of lower-dimensional entries and the
  apeirogon, whose contact graph is the graph Cartesian product of the
  factors.

An orbit spec is generated in one pass: raw coordinates on the window
padded by one lattice period, deduplicated, scaled so the closest pair
sits at distance exactly 2, and cropped to the requested window, so no
boundary motif point is ever missed.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np
from scipy.sparse import coo_matrix
from scipy.sparse.csgraph import connected_components
from scipy.spatial import cKDTree

from .catalog import CATALOG_ONLY, CatalogEntry, load_catalog
from .core import TOL, Packing, Window, min_pairwise_distance
from .errors import (
    MalformedInputError,
    NormalizationRequiredError,
    SizeLimitError,
    UnknownCatalogIdError,
    UnsupportedConstructionError,
)

SQRT3 = math.sqrt(3.0)

# non-catalog reference family: the triangular lattice is the canonical
# inseparable packing (every contact's tangent line meets a third circle)
TRIANGULAR_ID = "TRI"

# Most raw points an orbit window may tile before its crop, and most
# spheres a product may hold.  Checked before anything that size is
# allocated; O103 at L = 9 tiles 921,984 raw points and P1 at L = 1000
# tiles 1,010,025.
POINT_BUDGET = 2_000_000


def _dedup(points: np.ndarray) -> tuple[np.ndarray, float]:
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
    return _dedup(points[np.sort(lowest)])


def _lattice_translates(
    basis: np.ndarray, lo: np.ndarray, hi: np.ndarray, points_per_translate: int
) -> np.ndarray:
    """Integer lattice combinations covering the box [lo, hi].

    The number of raw points, points_per_translate per translate, is
    counted in floats first and raises SizeLimitError over POINT_BUDGET.
    """
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
    """Seeds + signed-permutation point group + centred translation lattice.

    The motif is the union of the seeds' orbits; it sits at every
    centering offset of every lattice vector.  A seed fixed by part of
    the group, such as the origin, has a smaller orbit.
    """

    seeds: np.ndarray  # (k, d) seed points; one d-vector is read as k = 1
    lattice: np.ndarray  # (d, d) basis, rows are translation vectors
    centering: np.ndarray = None  # (m, d) offsets, origin included; default the origin

    def __post_init__(self):
        seeds = np.atleast_2d(np.asarray(self.seeds, dtype=float))
        d = seeds.shape[1]
        lattice = np.asarray(self.lattice, dtype=float)
        centering = np.zeros((1, d)) if self.centering is None else self.centering
        centering = np.atleast_2d(np.asarray(centering, dtype=float))
        if seeds.ndim != 2 or seeds.size == 0 or centering.ndim != 2 or centering.shape[1] != d:
            raise MalformedInputError("orbit seeds and centering must be lists of d-vectors")
        if lattice.shape != (d, d) or abs(np.linalg.det(lattice)) < 1e-12:
            raise MalformedInputError("lattice basis must be d independent d-vectors")
        object.__setattr__(self, "seeds", seeds)
        object.__setattr__(self, "lattice", lattice)
        object.__setattr__(self, "centering", centering)

    @property
    def dimension(self) -> int:
        return self.seeds.shape[1]

    def motif(self) -> np.ndarray:
        """Union of the seeds' signed-permutation orbits."""
        return np.unique(np.vstack([signed_permutation_orbit(s) for s in self.seeds]), axis=0)


def orbit_generate(spec: OrbitSpec, window: Window, label: str = "") -> Packing:
    """Generate {g . seed + c + t} over the window, normalized to contact 2.

    The caller is responsible for validating regularity/separability of
    the result.  Raises SizeLimitError when the padded window holds more
    than POINT_BUDGET raw points.
    """
    lattice, centering, motif = spec.lattice, spec.centering, spec.motif()
    d = spec.dimension

    def points_at(translates):
        return (
            translates[:, None, None, :] + centering[None, :, None, :] + motif[None, None, :, :]
        ).reshape(-1, d)

    # the raw contact distance of one cell plus its neighbors sizes the window
    probe = points_at(np.array(list(itertools.product((-1, 0, 1), repeat=d))) @ lattice)
    scale = 2.0 / _dedup(probe)[1]

    pad = float(np.linalg.norm(lattice, axis=1).max())
    lo = window.lower / scale - pad
    hi = window.upper / scale + pad
    points = points_at(_lattice_translates(lattice, lo, hi, len(centering) * len(motif)))
    inside = np.all((points >= lo - pad) & (points <= hi + pad), axis=1)
    points, closest = _dedup(points[inside])

    # the scale of the final window comes from all its raw points, not the probe
    centers = points * (2.0 / closest)
    return Packing(centers[window.contains(centers)], window, 1.0, label)


# the triangular lattice and the apeirogon, as orbits of the origin
TRIANGULAR = OrbitSpec([0.0, 0.0], [[2.0, 0.0], [1.0, SQRT3]])
APEIROGON = OrbitSpec([0.0], [[2.0]])


# ---------------------------------------------------------------------------
# products and the apeirogon

def generate_apeirogon(window, margin: float = 3.0) -> Packing:
    """Evenly spaced centers on a line: the 1-dimensional tiling.

    Centers sit on the even integers inside the window; interior spheres
    touch exactly 2 neighbors.
    """
    return orbit_generate(APEIROGON, _as_window(window, 1, margin), "A")


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
    return _cartesian(p, q, label or f"{p.label or 'P'}x{q.label or 'Q'}")


def _cartesian(p: Packing, q: Packing, label: str) -> Packing:
    """The product of two factors already normalized to contact 2.

    Generated factors are normalized by construction, and a cropped
    factor window may hold no contact to measure, so nothing is checked
    here but the size.
    """
    a, b = p.n_spheres, q.n_spheres
    if a * b > POINT_BUDGET:
        raise SizeLimitError(
            f"the product needs {a} x {b} spheres, over the budget of {POINT_BUDGET}"
        )
    centers = np.hstack(
        [np.repeat(p.centers, b, axis=0), np.tile(q.centers, (a, 1))]
    )
    window = Window(
        np.concatenate([p.window.lower, q.window.lower]),
        np.concatenate([p.window.upper, q.window.upper]),
        max(p.window.margin, q.window.margin),
    )
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
    return orbit_generate(TRIANGULAR, _as_window(window, 2, margin), TRIANGULAR_ID)


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
    if entry.kind == "orbit":
        spec = OrbitSpec(entry.seeds, entry.lattice, entry.centering)
        return orbit_generate(spec, window, entry.id)
    if entry.kind == "product":
        left_id, right_id = entry.factors
        left_dim = 1 if left_id == "A" else load_catalog()[left_id].dimension
        right_dim = entry.dimension - left_dim
        left = generate_named(left_id, _block_window(window, 0, left_dim, margin), margin)
        right = generate_named(
            right_id, _block_window(window, left_dim, right_dim, margin), margin
        )
        return _cartesian(left, right, entry.id)
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
    contact distance 2 (the least over the contact edges, NaN without
    one), triangle-free, window-certified separable, interior degree equal
    to the catalog regularity.  An overlapping window raises
    InvalidPackingError from the contact-graph build."""
    from .contact import build_contact_graph, contains_triangle, is_k_regular
    from .separability import certify_total_separability

    graph = build_contact_graph(p)
    lengths = np.linalg.norm(np.subtract(*p.centers[graph.edges.T]), axis=1)
    return EntryCheck(
        entry_id=entry.id,
        n_spheres=p.n_spheres,
        min_distance=float(lengths.min()) if len(lengths) else float("nan"),
        triangle=contains_triangle(graph),
        separability_status=certify_total_separability(p, graph=graph).status,
        regularity_status=is_k_regular(graph, p, entry.regularity).status,
        expected_k=entry.regularity,
    )
