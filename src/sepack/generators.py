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
near pairs inside the box.  One rule finds the closest pair of the
survivors, to the last bit: a sweep of the pair types over a grid of
lattice cells, widened until no type left out can come closer, which
never builds the grid's points.  It runs twice, on the types of the
window's one pair-type search: on the probe, the 3^d cells around the
origin, whose contact distance sizes a window padded by lattice periods
all round, and on that padded window, whose closest pair gives the
scale.  Then only the cells whose bounding ball meets the window are
tiled, and their surviving points are scaled so the closest pair sits at
distance exactly 2, and cropped.

The sweep has two kernels, chosen from the spec.  The general one,
_live_pairs, walks the (cell, pair type) pairs with both ends in a mask,
for the survivor rule and for the sweep alike; each pair type is listed
one way.  On a diagonal lattice without near-duplicate types, the
survivors are the box's points and coordinate k depends on the position
along grid axis k alone: _axis_sweep takes each type's least square as
the sum, in axis order, of its least square per axis, the same bits in
far fewer operations, and the survivor mask is the AND of the per-axis
box tests.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import partial

import numpy as np

from ._kdtree import cKDTree
from .catalog import CATALOG_ONLY, load_catalog
from .core import POINT_BUDGET, TOL, Packing, Window, valid_pairs_within
from .errors import (
    InvalidValueError,
    MalformedInputError,
    NormalizationRequiredError,
    SizeLimitError,
    UnknownCatalogIdError,
    UnsupportedConstructionError,
    instance,
    reals,
)

SQRT3 = math.sqrt(3.0)

# non-catalog reference family: the triangular lattice is the canonical
# inseparable packing (every contact's tangent line meets a third circle)
TRIANGULAR_ID = "TRI"

# most values one step of the box test or of a pair kernel holds in one
# array: _survivors' box test takes the raw points of the grid (at most
# POINT_BUDGET) a coordinate at a time, _live_pairs the (cell, pair type)
# pairs of one offset, and _axis_sweep the (axis position, pair type) pairs
# of one step along one axis; only the cells that meet the window are tiled
_SWEEP_CHUNK = 1 << 17


def _lattice_translates(basis: np.ndarray, n0, n1, points_per_translate: int, what: str):
    """The lattice combinations of coefficients n0 .. n1 on each axis, as a
    coordinate-major grid: entry [k, i_1, ..., i_d] is coordinate k of the
    translate of the i_j-th coefficient on each axis j, so a fixed
    coefficient offset is a fixed index shift.

    The number of raw points, points_per_translate per translate, is
    counted in floats first and raises SizeLimitError, naming ``what``,
    over POINT_BUDGET.
    """
    count = math.prod(float(b - a + 1) for a, b in zip(n0, n1)) * points_per_translate
    if not count <= POINT_BUDGET:
        raise SizeLimitError(
            f"the {what} needs {count:.3g} raw points, over the budget of {POINT_BUDGET}"
        )
    ranges = [np.arange(int(a), int(b) + 1) for a, b in zip(n0, n1)]
    coeffs = np.stack([g.ravel() for g in np.meshgrid(*ranges, indexing="ij")], axis=1)
    return (coeffs @ basis).T.reshape((len(basis),) + tuple(map(len, ranges)))


# ---------------------------------------------------------------------------
# orbit generation

def signed_permutation_orbit(seed: np.ndarray) -> np.ndarray:
    """Distinct images of seed under coordinate permutations and sign flips,
    in lexicographic order.

    They are the distinct arrangements of |seed| (a multinomial count) with
    every sign pattern of the nonzero entries, so each zero entry is +0.0;
    over POINT_BUDGET images raises SizeLimitError before any is built.
    """
    seed = reals(seed, "seed")
    if seed.ndim != 1:
        raise MalformedInputError(f"seed must be one d-vector, not {seed.shape}")
    values, counts = np.unique(np.abs(seed), return_counts=True)
    nonzero = np.count_nonzero(seed)
    count = math.factorial(len(seed)) // math.prod(map(math.factorial, counts)) * 2**nonzero
    if count > POINT_BUDGET:
        raise SizeLimitError(f"the seed has {count} images, over the budget of {POINT_BUDGET}")
    # each distinct value in turn takes every choice of the positions still free
    labels = np.full((1, len(seed)), -1)
    for label, repeats in enumerate(counts):
        free = np.nonzero(labels < 0)[1].reshape(len(labels), -1)
        picks = np.array(list(itertools.combinations(range(free.shape[1]), repeats)))
        labels = np.repeat(labels, len(picks), axis=0)
        np.put_along_axis(labels, free[:, picks].reshape(len(labels), -1), label, axis=1)
    signs = np.array(list(itertools.product((1.0, -1.0), repeat=nonzero)))
    images = np.repeat(values[labels], len(signs), axis=0)
    images[np.nonzero(images)] *= np.tile(signs, (len(labels), 1)).ravel()
    return np.unique(images, axis=0)


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
        seeds = np.atleast_2d(reals(self.seeds, "orbit seeds"))
        d = seeds.shape[1]
        lattice = reals(self.lattice, "lattice")
        centering = np.zeros((1, d)) if self.centering is None else self.centering
        centering = np.atleast_2d(reals(centering, "centering"))
        fit = seeds.ndim == 2 and centering.ndim == 2 and centering.shape[1] == d
        if not fit or seeds.size == 0 or centering.size == 0:
            raise MalformedInputError(
                "orbit seeds and centering must be non-empty lists of d-vectors"
            )
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
    Every raw coordinate of an orbit window is formed from these tables by
    _coordinate, in one order, so the same point always has the same bits."""
    offset, point = np.divmod(np.arange(len(centering) * len(motif)), len(motif))
    return centering[offset].T.copy(), motif[point].T.copy()


def _coordinate(tables: tuple, k: int, t: np.ndarray, kinds=slice(None)) -> np.ndarray:
    """(t + c[k, kinds]) + m[k, kinds]: coordinate k of cell points ``kinds``
    at translate coordinates t, the one spelling of a raw coordinate."""
    x = t + tables[0][k][kinds]
    x += tables[1][k][kinds]
    return x


def _at(tables: tuple, translates: np.ndarray) -> np.ndarray:
    """Every cell point at each of the (d, n) translates, shape (n, kinds, d)."""
    return np.stack([_coordinate(tables, k, t[:, None]) for k, t in enumerate(translates)], -1)


def _live_pairs(on: np.ndarray, types: np.ndarray):
    """Every (grid cell, pair type) pair whose two ends are set in the mask
    on, over (grid cell, cell point), exactly once: chunks of flat cell
    indices i, j (cell j lies the type's offset away from cell i) and cell
    points a, b.  Each offset must fit in the grid.  The types are taken an
    offset at a time, over blocks of rows of cells along the first axis; no
    chunk's mask holds more than _SWEEP_CHUNK values, unless one row does."""
    dims = on.shape[:-1]
    cells = np.arange(math.prod(dims)).reshape(dims)
    strides = np.array(cells.strides) // cells.itemsize
    for delta in np.unique(types[:, 2:], axis=0):
        ends = types[np.all(types[:, 2:] == delta, axis=1), :2]
        here = tuple(slice(max(0, -k), n - max(0, k)) for k, n in zip(delta, dims))
        there = tuple(slice(max(0, k), n - max(0, -k)) for k, n in zip(delta, dims))
        slab, on_a, on_b, shift = cells[here], on[here], on[there], int(delta @ strides)
        width = max(1, _SWEEP_CHUNK // slab.size)
        rows = max(1, _SWEEP_CHUNK // (slab[0].size * width))
        for first in range(0, len(slab), rows):
            i = slab[first : first + rows].ravel()
            block_a, block_b = on_a[first : first + rows], on_b[first : first + rows]
            for start in range(0, len(ends), width):
                a, b = ends[start : start + width].T
                cell, end = np.nonzero((block_a[..., a] & block_b[..., b]).reshape(len(i), -1))
                yield i[cell], i[cell] + shift, a[end], b[end]


def _pair_types(tables: tuple, lattice: np.ndarray, radius: float):
    """The pair types of a spec for a grid's shape dims and a reach: the
    near-duplicate types (within TOL / 2) and every type within reach,
    widened to reach * (1 + TOL) + TOL, beyond the rounding of any
    coordinate; _survivors never leaves both ends of a near type alive.
    A type is a row (a, b, delta): cell point a of one cell and cell point b
    of the cell delta coefficients away, listed as it sorts before the same
    type read the other way, (b, a, -delta).  One search, at the first reach
    asked, finds them as int64 keys in row order (mixed radix over a, b and
    delta + limit); a call keeps those within its reach whose offset fits
    the grid, and only a wider reach searches again."""
    d, kinds = len(lattice), tables[0].shape[1]
    own, built = _at(tables, np.zeros((d, 1)))[0], [-np.inf]

    def types(dims, reach):
        if reach > built[0]:  # the search, at the first reach asked or a wider one
            r = reach * (1 + TOL) + TOL
            limit = ((2 * radius + r) * np.linalg.norm(np.linalg.inv(lattice), axis=0)).astype(int)
            offsets = np.indices(2 * limit + 1).reshape(d, -1).T - limit
            offsets = offsets[np.linalg.norm(offsets @ lattice, axis=1) <= 2 * radius + r]
            pairs, squares = cKDTree(own, r, _at(tables, (offsets @ lattice).T).reshape(-1, d))
            a, b, delta = pairs[:, 1], pairs[:, 0] % kinds, offsets[pairs[:, 0] // kinds]
            radix = (kinds, kinds, *(2 * limit + 1))
            key = np.ravel_multi_index((a, b, *(delta + limit).T), radix)
            flipped = np.ravel_multi_index((b, a, *(limit - delta).T), radix)
            keep = key != flipped  # a point paired with itself reads the same both ways
            keys, spread = np.minimum(key, flipped)[keep], np.abs(delta[keep])
            built[:] = reach, keys, squares[keep], spread, radix, np.r_[0, 0, limit]
        _, keys, squares, spread, radix, shift = built
        fits = np.all(spread < dims, axis=1)
        within = (fits & (squares <= r * r) for r in (TOL / 2, reach * (1 + TOL) + TOL))
        return tuple(np.column_stack(np.unravel_index(np.unique(keys[ok]), radix)) - shift
                     for ok in within)

    return types


def _survivors(grid: np.ndarray, tables: tuple, low, high, near: np.ndarray) -> np.ndarray:
    """The raw points that stand for their near duplicates, as a mask over
    (grid cell, cell point): the one near-duplicate rule of orbit windows.

    A raw point survives when it lies in the box [low, high] and is the
    lowest point of its component of near pairs inside the box: lowest
    lexicographically, ties to the lower (grid cell, cell point) label, as
    one bit-identical copy stands for all.
    """
    kinds, columns = tables[0].shape[1], grid.reshape(len(grid), -1)
    inside = np.ones((columns.shape[1], kinds), dtype=bool)
    step = max(1, _SWEEP_CHUNK // kinds)
    for first in range(0, len(inside), step):
        block = inside[first : first + step]
        for k, t in enumerate(columns):
            x = _coordinate(tables, k, t[first : first + step, None])
            block &= (x >= low[k]) & (x <= high[k])
    inside = inside.reshape(grid.shape[1:] + (kinds,))
    if not len(near):
        return inside
    i, j, a, b = map(np.concatenate, zip(*_live_pairs(inside, near)))
    nodes, index = np.unique(np.concatenate([i * kinds + a, j * kinds + b]), return_inverse=True)
    u, v = index.reshape(2, -1)
    cell, kind = np.divmod(nodes, kinds)
    keys = [_coordinate(tables, k, t[cell], kind) for k, t in enumerate(columns)][::-1]
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


def _contact_sweep(grid: np.ndarray, tables: tuple, alive: np.ndarray, types) -> float:
    """Least distance of the pair types over every grid cell where both
    ends are alive, in the arithmetic of the grid index (_kdtree): squared
    differences summed coordinate by coordinate, then sqrt."""
    least, columns = np.inf, grid.reshape(len(grid), -1)
    for i, j, a, b in _live_pairs(alive, types):
        squares = np.zeros(len(i))
        for k, t in enumerate(columns):
            diff = _coordinate(tables, k, t[i], a)
            diff -= _coordinate(tables, k, t[j], b)
            squares += diff * diff
        least = min(least, float(squares.min(initial=np.inf)))
    return float(np.sqrt(least))  # sqrt is monotone: the root of the least square


def _diagonal(lattice: np.ndarray) -> bool:
    """Whether the basis is diagonal, so translate coordinate k varies
    along grid axis k alone: the other rows add exact zeros to it."""
    return not (lattice - np.diag(np.diag(lattice))).any()


def _axis_sweep(coords: list, inside: list, types: np.ndarray) -> float:
    """_contact_sweep's least distance, bit for bit, on a separable grid
    whose survivors are the box's points.  coords[k] and inside[k] hold
    coordinate k of each cell point and its box test, over (position on
    axis k, cell point).  A pair type's live cells are then a product of
    positions, one set per axis, and its square a float sum of one term per
    axis; round-to-nearest addition is monotone, so the least sum is the
    sum, in axis order, of each axis's least term (inf for no position)."""
    squares, a, b = np.zeros(len(types)), types[:, 0], types[:, 1]
    for x, ok, steps in zip(coords, inside, types[:, 2:].T):
        least, width = np.empty(len(types)), max(1, _SWEEP_CHUNK // len(x))
        for step in np.unique(steps):
            here = slice(max(0, -step), len(x) - max(0, step))
            there = slice(max(0, step), len(x) - max(0, -step))
            group = np.nonzero(steps == step)[0]
            for start in range(0, len(group), width):
                sel = group[start : start + width]
                diff = x[here][:, a[sel]] - x[there][:, b[sel]]
                live = ok[here][:, a[sel]] & ok[there][:, b[sel]]
                least[sel] = np.where(live, diff * diff, np.inf).min(axis=0, initial=np.inf)
        squares += least
    return float(np.sqrt(squares.min(initial=np.inf)))


def _closest(grid, tables, lattice, radius, pair_types, low, high, reach) -> tuple:
    """The closest pair of the grid's surviving raw points inside the box
    [low, high], to the last bit (inf for fewer than two), and the survivor
    mask over (grid cell, cell point).  The pair types within reach (> 0),
    from pair_types (see _pair_types), are swept over every grid cell where
    both ends survive; while the closest lies further out, the types out to
    it (out to twice the reach while none is found, up to the grid's span)
    are swept too, so no type left out can come closer.

    A diagonal lattice without near types sweeps axis by axis (_axis_sweep)
    over the translates along each axis, and its mask is the AND of the
    per-axis box tests; any other takes _survivors' mask and _contact_sweep."""
    near, types = pair_types(grid.shape[1:], reach)
    if len(near) or not _diagonal(lattice):
        alive = _survivors(grid, tables, low, high, near)
        sweep = partial(_contact_sweep, grid, tables, alive)
    else:
        d = len(grid)
        lines = [grid[(k,) + (0,) * k + (slice(None),) + (0,) * (d - 1 - k)] for k in range(d)]
        coords = [_coordinate(tables, k, t[:, None]) for k, t in enumerate(lines)]
        inside = [(x >= low[k]) & (x <= high[k]) for k, x in enumerate(coords)]
        sweep = partial(_axis_sweep, coords, inside)
        alive = np.ones(grid.shape[1:] + (tables[0].shape[1],), dtype=bool)
        for k, ok in enumerate(inside):
            alive &= ok[(slice(None),) + (None,) * (d - 1 - k)]
    closest = sweep(types)
    # no pair is further apart than the span of the translates plus a cell's diameter
    span = np.linalg.norm(np.ptp(grid.reshape(len(grid), -1), axis=1)) + 2 * radius
    while closest > reach * (1 + TOL / 2) + TOL / 2 and reach <= span:
        reach = closest if closest < np.inf else 2 * reach
        types = pair_types(grid.shape[1:], reach)[1]
        closest = sweep(types)
    return closest, alive


def orbit_generate(spec: OrbitSpec, window: Window, label: str = "") -> Packing:
    """Generate {g . seed + c + t} over the window, normalized to contact 2.

    Both grids come from _lattice_translates.  The probe (coefficients
    -1 .. 1, the 3^d cells around the origin, none cropped) gives a
    contact distance by _closest, which sizes a window padded by one
    lattice period all round; _closest over the cells that cover it, inside
    the box padded once more, gives the scale, to the last bit, and the
    survivor mask.  The padded box holds the window, so its survivors are
    the window's points: only the cells whose bounding ball meets the
    window are tiled, and their surviving points are scaled and cropped.
    A diagonal lattice without near duplicates is swept axis by axis
    (_axis_sweep), any other spec by (cell, pair type) pair (_live_pairs);
    both give the same bits.

    The caller is responsible for validating regularity/separability of
    the result.  Raises MalformedInputError for a spec that is not an
    OrbitSpec or a window that is not a Window of its dimension;
    SizeLimitError, before building it, when the probe or the padded
    window's cells hold more than POINT_BUDGET raw points, and when the n
    raw points of the probe all lie within n * TOL / 2 of its first, too
    close to scale; InvalidValueError when they lie so far apart that a
    squared distance overflows.
    """
    instance(spec, OrbitSpec, "spec")
    lattice, d, motif = spec.lattice, spec.dimension, spec.motif()
    window, kinds = _fitting(window, d), len(spec.centering) * len(motif)
    probe = _lattice_translates(lattice, [-1] * d, [1] * d, kinds, "probe")
    tables = _cell_points(spec.centering, motif)
    raw = _at(tables, probe.reshape(d, -1)).reshape(-1, d)
    extent = float(np.ptp(raw, axis=0).max())
    if not extent <= math.sqrt(np.finfo(float).max / d):
        raise InvalidValueError(f"the probe's raw points span {extent:.3g}, too far to measure")
    # the cell points lie within radius of their cell's translate
    radius = float(np.linalg.norm(_at(tables, np.zeros((d, 1)))[0], axis=1).max())

    # the probe's sweep starts at the distance from raw point 0 to the nearest
    # raw point outside its near component (one of n points is shorter than n * TOL / 2)
    gaps = np.linalg.norm(raw - raw[0], axis=1)
    gaps = gaps[gaps > len(raw) * TOL / 2]
    if not len(gaps):
        raise SizeLimitError(f"the probe's {len(raw)} raw points lie too close together to scale")
    everywhere, reach = np.full(d, np.inf), float(gaps.min())
    types = _pair_types(tables, lattice, radius)  # one search for both grids
    contact = _closest(probe, tables, lattice, radius, types, -everywhere, everywhere, reach)[0]

    probe_scale, pad = 2.0 / contact, float(np.linalg.norm(lattice, axis=1).max())
    lo = window.lower / probe_scale - pad
    hi = window.upper / probe_scale + pad
    frac = np.array(list(itertools.product(*zip(lo, hi)))) @ np.linalg.inv(lattice)
    n0, n1 = np.floor(frac.min(axis=0)) - 1, np.ceil(frac.max(axis=0)) + 1
    grid = _lattice_translates(lattice, n0, n1, kinds, "window")
    closest, alive = _closest(grid, tables, lattice, radius, types, lo - pad, hi + pad, contact)
    scale = 2.0 / closest

    low, high = (window.lower - TOL) / scale, (window.upper + TOL) / scale
    gap = np.zeros(grid.shape[1:])
    for k in range(d):
        gap += np.maximum(0.0, np.maximum(low[k] - grid[k], grid[k] - high[k])) ** 2
    # the slack covers the rounding of a point's coordinates and of the crop
    ball = radius + TOL * (1 + np.abs([low, high]).max())
    cells = gap <= ball**2
    centers = _at(tables, grid[:, cells])[alive[cells]] * scale
    return Packing(centers[window.contains(centers)], window, label)


# the triangular lattice and the apeirogon (centers on the even integers,
# the 1-dimensional tiling), as orbits of the origin
TRIANGULAR = OrbitSpec([0.0, 0.0], [[2.0, 0.0], [1.0, SQRT3]])
APEIROGON = OrbitSpec([0.0], [[2.0]])


# ---------------------------------------------------------------------------
# products

def product_packing(p: Packing, q: Packing, label: str = "") -> Packing:
    """Cartesian product packing in R^(a+b).

    Contacts occur exactly when one coordinate block matches and the
    other block is a factor contact, so the contact graph is the graph
    Cartesian product and interior degrees add.  The spheres have radius
    1: a factor with an overlapping pair raises InvalidPackingError, and
    one of two or more spheres without a pair at distance 2 (within TOL)
    raises NormalizationRequiredError.
    """
    for factor in (p, q):
        if not len(valid_pairs_within(factor, 2.0 + TOL)[0]) and factor.n_spheres >= 2:
            raise NormalizationRequiredError("product factor has no pair at contact distance 2")
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
    return Packing(centers, window, label)


# ---------------------------------------------------------------------------
# named generation

def _fitting(window: Window, dimension: int) -> Window:
    if instance(window, Window, "window").dimension != dimension:
        raise MalformedInputError(
            f"window dimension {window.dimension} != packing dimension {dimension}"
        )
    return window


def _as_window(window, dimension: int, margin: float) -> Window:
    if isinstance(window, Window):
        return _fitting(window, dimension)
    return Window.cube(window, dimension, margin)


def _block_window(window: Window, start: int, dim: int) -> Window:
    return Window(
        window.lower[start : start + dim], window.upper[start : start + dim], window.margin
    )


def generate_named(name: str, window, margin: float = 3.0) -> Packing:
    """Build a normalized window of a named packing.

    ``name`` is a catalog id (P1, K6, J16, O39, ...), "A" for the
    apeirogon, or "TRI" for the triangular-lattice reference family.
    ``window`` is a half-width L (giving [-L, L]^d) or an explicit Window.
    """
    if name == TRIANGULAR_ID:
        return orbit_generate(TRIANGULAR, _as_window(window, 2, margin), TRIANGULAR_ID)
    if name == "A":
        return orbit_generate(APEIROGON, _as_window(window, 1, margin), "A")
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
    # a product, the one kind left: catalog._parse_entry admits no other
    left_id, right_id = entry.factors
    left_dim = 1 if left_id == "A" else load_catalog()[left_id].dimension
    right_dim = entry.dimension - left_dim
    left = generate_named(left_id, _block_window(window, 0, left_dim))
    right = generate_named(right_id, _block_window(window, left_dim, right_dim))
    return _cartesian(left, right, entry.id)
