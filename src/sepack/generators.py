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

An orbit spec is generated in proportion to its window.  One rule
merges near duplicates (points within TOL / 2): a survivor mask over
(lattice cell, cell point) keeps the lowest point of its component of
near pairs inside the box.  The scale is taken, to the last bit, from the
closest pair of the surviving points of a window padded by lattice
periods all round; a sweep of the contact pair types over the padded
window's cells finds that pair without building the padded window's
points.  Both passes form raw coordinates one at a time, from
coordinate-major tables of the cell points; the sweep computes only the
(cell, pair type) pairs with both ends surviving.  Then only the cells
whose bounding ball meets the window are tiled, and their surviving
points are scaled so the closest pair sits at distance exactly 2, and
cropped.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from ._kdtree import cKDTree
from .catalog import CATALOG_ONLY, load_catalog
from .core import POINT_BUDGET, TOL, Packing, Window, lex_less, min_pairwise_distance
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

# most values one step of the survivor mask or the contact sweep holds in
# one array: the mask tests every raw point of the padded window (at most
# POINT_BUDGET), a coordinate at a time, and the sweep every (cell, pair
# type) pair with both ends alive; only the cells that meet the window are tiled
_SWEEP_CHUNK = 1 << 17


def _lattice_translates(
    basis: np.ndarray, lo: np.ndarray, hi: np.ndarray, points_per_translate: int
) -> np.ndarray:
    """Integer lattice combinations covering the box [lo, hi], as a grid:
    entry [i_1, ..., i_d] is the translate of the i_k-th coefficient on
    each axis k, so a fixed coefficient offset is a fixed index shift.

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
    return (coeffs @ basis).reshape(grids[0].shape + (len(basis),))


def _slabs(dims: tuple, delta) -> tuple:
    """Index slices of the grid cells idx and idx + delta, over every idx
    for which both lie in a grid of shape dims."""
    here = tuple(slice(min(n, max(0, -k)), max(0, n - max(0, k))) for k, n in zip(delta, dims))
    there = tuple(slice(min(n, max(0, k)), max(0, n - max(0, -k))) for k, n in zip(delta, dims))
    return here, there


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
        if not all(np.isfinite(x).all() for x in (seeds, lattice, centering)):
            raise MalformedInputError("orbit seeds, lattice and centering must be finite")
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


def _cell_points(centering: np.ndarray, motif: np.ndarray) -> tuple:
    """Coordinate-major (d, kinds) tables (c, m) of the cell points: cell
    point p is centering offset p // len(motif) plus motif point p % len(motif).
    Coordinate k of cell point p at translate t is (t_k + c[k, p]) + m[k, p]:
    every raw coordinate of an orbit window comes from these tables in that
    order, so the same point always has the same bits."""
    offset, point = np.divmod(np.arange(len(centering) * len(motif)), len(motif))
    return centering[offset].T.copy(), motif[point].T.copy()


def _at(tables: tuple, translates: np.ndarray, kinds=slice(None)) -> np.ndarray:
    """Cell points ``kinds`` at each translate, shape translates.shape[:-1] + (len(kinds), d)."""
    return (translates[..., None, :] + tables[0].T[kinds]) + tables[1].T[kinds]


def _coordinate(tables: tuple, k: int, t: np.ndarray, kinds) -> np.ndarray:
    """(t + c[k, kinds]) + m[k, kinds], in place on t: coordinate k of cell points ``kinds``."""
    t += tables[0][k][kinds]
    t += tables[1][k][kinds]
    return t


def _pair_types(tables: tuple, lattice: np.ndarray, dims: tuple, reach: float) -> tuple:
    """The near-duplicate pair types (within TOL / 2), listed both ways, and
    every pair type within reach, listed one way; reach is widened to
    reach * (1 + TOL) + TOL, beyond the rounding of any coordinate.  The
    near types are among the latter, but _survivors never leaves both ends
    of one alive, so the contact sweep never measures one.

    A pair type is a row (a, b, delta): cell point a of one cell and cell
    point b of the cell delta coefficients away; (b, a, -delta) is the
    same type read the other way.  Every offset that a grid of shape dims
    holds and that can bring two cell points within reach is looked at.
    """
    d = len(lattice)
    own = _at(tables, np.zeros(d))
    kinds = np.arange(len(own))
    radii = (TOL / 2, reach * (1 + TOL) + TOL)
    span = 2 * np.linalg.norm(own, axis=1).max() + radii[1]
    limit = np.minimum(span * np.linalg.norm(np.linalg.inv(lattice), axis=0), np.subtract(dims, 1))
    axes = np.meshgrid(*[np.arange(-n, n + 1) for n in limit.astype(int)], indexing="ij")
    offsets = np.stack([g.ravel() for g in axes], axis=1)
    offsets = offsets[np.linalg.norm(offsets @ lattice, axis=1) <= span]
    tree = cKDTree(_at(tables, offsets @ lattice).reshape(-1, d))
    found = []
    for r in radii:
        hits = tree.query_ball_point(own, r)
        j = np.concatenate(hits).astype(int)
        rows = np.column_stack(
            [np.repeat(kinds, [len(h) for h in hits]), j % len(kinds), offsets[j // len(kinds)]]
        )
        itself = (rows[:, 0] == rows[:, 1]) & ~rows[:, 2:].any(axis=1)
        found.append(np.unique(rows[~itself], axis=0))
    near, within = found
    flipped = np.column_stack([within[:, 1], within[:, 0], -within[:, 2:]])
    return near, within[lex_less(within, flipped)]


def _survivors(grid: np.ndarray, tables: tuple, low, high, near: np.ndarray) -> np.ndarray:
    """The raw points that stand for their near duplicates, as a mask over
    (grid cell, cell point): the one near-duplicate rule of orbit windows.

    A raw point survives when it lies in the box [low, high] and is the
    lowest point of its component of near pairs inside the box: lowest
    lexicographically, ties to the lower (grid cell, cell point) label, as
    one bit-identical copy stands for all.
    """
    dims, d = grid.shape[:-1], grid.shape[-1]
    flat = grid.reshape(-1, d)
    kinds = tables[0].shape[1]
    inside = np.ones((len(flat), kinds), dtype=bool)
    step = max(1, _SWEEP_CHUNK // kinds)
    for first in range(0, len(flat), step):
        block = inside[first : first + step]
        for k in range(d):
            x = (flat[first : first + step, k, None] + tables[0][k]) + tables[1][k]
            block &= (x >= low[k]) & (x <= high[k])
    inside = inside.reshape(dims + (kinds,))
    if not len(near):
        return inside
    labels = np.arange(inside.size).reshape(inside.shape)
    pairs = []
    for delta in np.unique(near[:, 2:], axis=0):
        ends = near[np.all(near[:, 2:] == delta, axis=1), :2]
        here, there = _slabs(dims, delta)
        inside_a, inside_b = inside[here], inside[there]
        step = max(1, _SWEEP_CHUNK // math.prod(inside_a.shape[:-1]))
        for start in range(0, len(ends), step):
            a, b = ends[start : start + step].T
            *cell, end = np.nonzero(inside_a[..., a] & inside_b[..., b])
            pairs.append([labels[here][(*cell, a[end])], labels[there][(*cell, b[end])]])
    nodes, index = np.unique(np.concatenate(pairs, axis=1), return_inverse=True)
    u, v = index.reshape(2, -1)
    cell, kind = np.divmod(nodes, kinds)
    keys = [_coordinate(tables, k, flat[cell, k], kind) for k in reversed(range(d))]
    rank = np.argsort(np.lexsort(keys))  # stable: ties keep the label order
    # spread the least rank over the pairs until nothing moves: the lowest
    # point of a component is the one that keeps its own rank
    least = rank
    while True:
        spread = least.copy()
        np.minimum.at(spread, u, least[v])
        np.minimum.at(spread, v, least[u])
        if np.array_equal(spread, least):
            break
        least = spread
    inside.flat[nodes[least != rank]] = False
    return inside


def _contact_sweep(grid: np.ndarray, tables: tuple, alive: np.ndarray, types: np.ndarray) -> float:
    """Least distance of the pair types over every grid cell where both
    ends are alive, in the float arithmetic of cKDTree's Euclidean kernel:
    squared differences summed coordinate by coordinate, then sqrt.  Each
    step takes the (cell, type) pairs with both ends alive and forms their
    coordinates one at a time from the cell point tables; no step holds
    more than _SWEEP_CHUNK values in one array."""
    dims, d = grid.shape[:-1], grid.shape[-1]
    least = np.inf
    for delta in np.unique(types[:, 2:], axis=0):
        ends = types[np.all(types[:, 2:] == delta, axis=1), :2]
        here, there = _slabs(dims, delta)
        grid_a, grid_b, alive_a, alive_b = grid[here], grid[there], alive[here], alive[there]
        rows = max(1, _SWEEP_CHUNK // (math.prod(grid_a.shape[1:-1]) * d))
        for first in range(0, len(grid_a), rows):
            block = slice(first, first + rows)
            t_a, t_b = grid_a[block].reshape(-1, d), grid_b[block].reshape(-1, d)
            on_a = alive_a[block].reshape(len(t_a), -1)
            on_b = alive_b[block].reshape(len(t_b), -1)
            step = max(1, _SWEEP_CHUNK // len(t_a))
            for start in range(0, len(ends), step):
                a, b = ends[start : start + step].T
                cell, end = np.nonzero(on_a[:, a] & on_b[:, b])
                a, b, squares = a[end], b[end], np.zeros(len(cell))
                for k in range(d):
                    diff = _coordinate(tables, k, t_a[:, k][cell], a)
                    diff -= _coordinate(tables, k, t_b[:, k][cell], b)
                    squares += diff * diff
                least = min(least, float(squares.min(initial=np.inf)))
    return float(np.sqrt(least))  # sqrt is monotone: the root of the least square


def _scale_and_window(lattice: np.ndarray, tables: tuple, window: Window, contact: float) -> tuple:
    """The scale of an orbit window and its raw points: the survivors of
    the cells whose bounding ball meets the window.

    The scale is 2 over the closest pair of the surviving raw points of
    the lattice cells covering the window padded by one lattice period (at
    the probe's scale), inside the box padded once more.  Those points are
    never built: the pair types within the probe's contact distance are
    evaluated at every grid cell where both ends survive.  When the closest
    of them lies further out (a motif wider than the padding leaves few of
    its points in the box), the types out to it are swept too, so no type
    left out can come closer.  The padded box holds the window, so its
    survivors are the window's points too.
    """
    d = len(lattice)
    own = _at(tables, np.zeros(d))
    probe_scale = 2.0 / contact
    pad = float(np.linalg.norm(lattice, axis=1).max())
    lo = window.lower / probe_scale - pad
    hi = window.upper / probe_scale + pad
    grid = _lattice_translates(lattice, lo, hi, len(own))
    dims = grid.shape[:-1]
    near, contacts = _pair_types(tables, lattice, dims, contact)
    alive = _survivors(grid, tables, lo - pad, hi + pad, near)
    closest, reach = _contact_sweep(grid, tables, alive, contacts), contact
    diameter = float(np.linalg.norm(hi - lo)) + 4 * pad  # of the padded box
    while closest > reach * (1 + TOL / 2) + TOL / 2 and reach <= diameter:
        reach = closest if closest < np.inf else 2 * reach
        closest = _contact_sweep(grid, tables, alive, _pair_types(tables, lattice, dims, reach)[1])
    scale = 2.0 / closest

    low, high = (window.lower - TOL) / scale, (window.upper + TOL) / scale
    gap = np.zeros(dims)
    for k in range(d):
        gap += np.maximum(0.0, np.maximum(low[k] - grid[..., k], grid[..., k] - high[k])) ** 2
    # the slack covers the rounding of a point's coordinates and of the crop
    ball = np.linalg.norm(own, axis=1).max() + TOL * (1 + np.abs([low, high]).max())
    cells = gap <= ball**2
    return scale, _at(tables, grid[cells])[alive[cells]]


def orbit_generate(spec: OrbitSpec, window: Window, label: str = "") -> Packing:
    """Generate {g . seed + c + t} over the window, normalized to contact 2.

    The probe (the cells within one lattice step of the origin, each
    point's near duplicates merged by _survivors) sizes a padded window,
    and a sweep of the pair types at the probe's contact distance over
    that window's lattice cells gives the scale, to the last bit of the
    closest pair among its surviving points (see _scale_and_window).  Then
    only the cells whose bounding ball meets the window are tiled; their
    surviving points are scaled and cropped.

    The caller is responsible for validating regularity/separability of
    the result.  Raises SizeLimitError when the padded window's cells hold
    more than POINT_BUDGET raw points.
    """
    lattice = spec.lattice
    d = spec.dimension
    tables = _cell_points(spec.centering, spec.motif())

    # the raw contact distance of one cell plus its neighbors sizes the window
    cells = np.array(list(itertools.product((-1, 0, 1), repeat=d))) @ lattice
    cells = cells.reshape((3,) * d + (d,))
    near = _pair_types(tables, lattice, cells.shape[:-1], 0.0)[0]
    everywhere = np.full(d, np.inf)
    probe = _at(tables, cells)[_survivors(cells, tables, -everywhere, everywhere, near)]
    contact = float(cKDTree(probe).query(probe, k=2)[0][:, 1].min())
    scale, raw = _scale_and_window(lattice, tables, window, contact)
    centers = raw * scale
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


def _block_window(window: Window, start: int, dim: int) -> Window:
    return Window(
        window.lower[start : start + dim], window.upper[start : start + dim], window.margin
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
        left = generate_named(left_id, _block_window(window, 0, left_dim))
        right = generate_named(right_id, _block_window(window, left_dim, right_dim))
        return _cartesian(left, right, entry.id)
    raise UnsupportedConstructionError(f"unknown construction kind {entry.kind!r}")
