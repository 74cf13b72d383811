"""Contact numbers of totally separable packings: formulas, constructions,
and the exhaustive polyomino oracle.

The planar maximum is floor(2(n - sqrt(n))), attained by quasi-square
polyominoes of n cells with unit circles inscribed in the 2x2 cells; in
higher dimensions floor(d(n - n^((d-1)/d))) is an upper bound with
equality at perfect d-th powers, realized by near-cubical boxes.  Both
formulas are evaluated in exact integer arithmetic, with no float step,
so perfect powers never lose a unit to rounding and any n is accepted.

The oracle enumerates every fixed polyform of n cells with Redelmeier's
algorithm (Discrete Math. 36, 1981) and takes the largest shared-face
count; in the plane that maximum is Harary and Harborth's 2n - ceil(2
sqrt(n)) ("Extremal animals", 1976), which the tests check independently
of c2_formula.
"""

from __future__ import annotations

import math
from collections.abc import Iterable
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .core import POINT_BUDGET, TOL, Packing, Window
from .errors import (
    EnumerationLimitError,
    InvalidValueError,
    MalformedInputError,
    SizeLimitError,
    integer,
    integers,
)

# exhaustive enumeration limits: the largest cases are the 36,446 fixed
# polyominoes of n=10 and the 162,913 fixed polycubes of n=8, which
# Redelmeier's algorithm visits in about 0.1 s and 0.3 s
ORACLE_LIMITS = {2: 10, 3: 8}

# most bits of cd_upper_bound's power d^d * n^(d-1), counted before it is
# formed: one call of that size takes up to 0.2 s, and d = 8,000 (122,300
# bits at n = 5) took 8.4 s, seven times the time at d = 4,000
POWER_BITS = 1 << 15


def c2_formula(n: int) -> int:
    """Maximum contact number of a totally separable packing of n unit
    circles: floor(2(n - sqrt(n))), exact at perfect squares."""
    n = integer(n, "n", least=1)
    k = math.isqrt(n)
    if k * k == n:
        return 2 * (n - k)
    # 2*sqrt(n) is irrational here, so ceil(2 sqrt n) = isqrt(4n) + 1
    return 2 * n - (math.isqrt(4 * n) + 1)


def _floor_root(n: int, d: int) -> int:
    """floor(n^(1/d)) for n >= 0, by integer Newton steps.

    The start 2^ceil(bits(n)/d) is above the root.  By the AM-GM
    inequality each step floor(((d-1)x + floor(n / x^(d-1))) / d) stays at
    or above the floor of the root, and it falls strictly while x is above
    that floor, so the first step that does not fall leaves x there.
    """
    if n < 2:
        return n
    x = 1 << -(-n.bit_length() // d)
    while True:
        y = ((d - 1) * x + n // x ** (d - 1)) // d
        if y >= x:
            return x
        x = y


def cd_upper_bound(n: int, d: int) -> int:
    """Upper bound floor(d(n - n^((d-1)/d))) on the contact number of a
    totally separable packing of n unit spheres in R^d; an equality when
    n is a perfect d-th power.  Over POWER_BITS raises SizeLimitError."""
    n, d = integer(n, "n", least=1), integer(d, "d", least=2)
    bits = d * d.bit_length() + (d - 1) * n.bit_length()
    if bits > POWER_BITS:
        raise SizeLimitError(f"d^d n^(d-1) has up to {bits} bits, over the {POWER_BITS} budget")
    # d*n^((d-1)/d) = (d^d * n^(d-1))^(1/d), and d*n is an integer, so
    # the floor is d*n minus the ceiling of that integer d-th root
    power = d**d * n ** (d - 1)
    root = _floor_root(power, d)
    return d * n - (root if root**d == power else root + 1)


def _padded_codes(cells: np.ndarray) -> tuple[np.ndarray, list]:
    """One integer per cell over the cells' bounding box padded by one
    cell on every side, and the code step of each axis.

    Codes grow in the lexicographic order of the cells, and the padding
    keeps every cell +- e_i inside the box, so a step never wraps into
    another row.  A box of 2^63 or more cells has no int64 codes and
    raises InvalidValueError.
    """
    lo = cells.min(axis=0)
    sides = [int(b) - int(a) + 3 for a, b in zip(lo, cells.max(axis=0))]
    if math.prod(sides) > np.iinfo(np.int64).max:
        raise InvalidValueError(
            f"the cells' padded bounding box {sides} holds 2^63 or more cells"
        )
    # the difference fits in int64 once the box does, even where cells - lo wraps
    codes = np.ravel_multi_index(tuple((cells - lo + 1).T), sides)
    return codes, [math.prod(sides[axis + 1 :]) for axis in range(len(sides))]


@dataclass(frozen=True, eq=False)
class Polyomino:
    """Finite set of unit cells over Z^d.

    ``cells`` may be an (n, d) array or any iterable of d-tuples, such as
    a frozenset; it is held as a sorted (n, d) int64 array of distinct
    cells.  Shared faces and perimeter are counted independently from one
    lookup of every cell +- e_i; the facet identity 2d*n = perimeter +
    2*shared_faces ties them together.  The lookup codes each cell as one
    int64 over the cells' bounding box padded by one cell, so a set whose
    padded box holds 2^63 or more cells raises InvalidValueError.
    """

    dimension: int
    cells: np.ndarray

    def __post_init__(self):
        dimension = integer(self.dimension, "dimension", least=1)
        if not isinstance(self.cells, Iterable):
            raise MalformedInputError(f"cells must be a list of d-tuples, got {self.cells!r}")
        cells = self.cells if isinstance(self.cells, np.ndarray) else list(self.cells)
        cells = integers(cells, "cells")
        if cells.size == 0:
            cells = cells.reshape(0, dimension)
        if cells.ndim != 2 or cells.shape[1] != dimension:
            raise MalformedInputError("cell arity does not match dimension")
        if len(cells):
            codes = _padded_codes(cells)[0]
            order = np.argsort(codes, kind="stable")
            codes = codes[order]
            cells = cells[order[np.r_[True, codes[1:] != codes[:-1]]]]
        cells.setflags(write=False)
        object.__setattr__(self, "dimension", dimension)
        object.__setattr__(self, "cells", cells)

    @property
    def area(self) -> int:
        return len(self.cells)

    @cached_property
    def _facet_counts(self) -> tuple[int, int]:
        """(shared faces, free facets): cells whose cell + e_i is a cell,
        summed over the axes, and cells whose cell +- e_i is not one,
        summed over the 2d directions."""
        if not self.area:
            return 0, 0
        codes, steps = _padded_codes(self.cells)
        found = []
        for step in steps + [-s for s in steps]:
            neighbour = codes + step
            at = np.minimum(np.searchsorted(codes, neighbour), len(codes) - 1)
            found.append(int(np.count_nonzero(codes[at] == neighbour)))
        return sum(found[: self.dimension]), 2 * self.dimension * self.area - sum(found)

    @property
    def shared_faces(self) -> int:
        return self._facet_counts[0]

    @property
    def perimeter(self) -> int:
        """Number of free facets (facets not shared with another cell)."""
        return self._facet_counts[1]

    def lift(self, label: str = "") -> Packing:
        """Inscribe a unit sphere in every 2x...x2 cell.

        Cell (c_1, ..., c_d) maps to center (2c_1+1, ..., 2c_d+1), so two
        spheres touch exactly when their cells share a face, and every
        tangent hyperplane is a grid hyperplane.
        """
        cells = self.cells.astype(float)
        centers = 2.0 * cells + 1.0
        lo = 2.0 * cells.min(axis=0)
        hi = 2.0 * (cells.max(axis=0) + 1.0)
        return Packing(centers, Window(lo - TOL, hi + TOL, 0.0), label)


def choose_box(n: int, d: int) -> tuple:
    """Sides of the smallest box of the form (k+delta_i), delta_i in {0,1},
    holding n cells; ties broken toward the lexicographically smallest
    delta.

    With k = floor(n^(1/d)), a box with j sides of k + 1 has volume
    k^(d-j) (k+1)^j, which grows with j, so the smallest box takes the
    least j that holds n, and the smallest delta puts its j ones last.
    """
    n, d = integer(n, "n", least=1), integer(d, "d", least=2)
    k = _floor_root(n, d)
    j = next(j for j in range(d + 1) if k ** (d - j) * (k + 1) ** j >= n)
    return (k,) * (d - j) + (k + 1,) * j


def _check_size(n: int) -> None:
    # cells are int64 arrays: box_packing(2_000_000, 3) and its shared-face
    # count peak at about 208 MB under tracemalloc, some 100 bytes a cell
    if n > POINT_BUDGET:
        raise SizeLimitError(f"{n} cells are over the budget of {POINT_BUDGET}")


def quasi_square_packing(n: int) -> tuple[Polyomino, Packing]:
    """Quasi-square polyomino of n cells and its inscribed circle packing.

    For a in {floor(sqrt n), ceil(sqrt n)} build a columns of full rows
    plus one contiguous remainder row, and keep the variant with more
    shared faces; its contact count is exactly c2_formula(n).
    """
    n = integer(n, "n", least=1)
    _check_size(n)
    k = math.isqrt(n)
    widths = [k] if k * k == n else [k, k + 1]
    best = None
    for a in widths:
        y, x = divmod(np.arange(n), a)
        omino = Polyomino(2, np.column_stack((x, y)))
        if best is None or omino.shared_faces > best.shared_faces:
            best = omino
    return best, best.lift(f"quasi-square n={n}")


def box_packing(n: int, d: int) -> tuple[Polyomino, Packing]:
    """Near-cubical box polyomino of n cells in Z^d and its lifted packing.

    Cells fill the chosen box in lexicographic order, so the remainder
    sits as a contiguous run against a filled face.  The shared-face
    count never exceeds cd_upper_bound(n, d) and attains it when n is a
    perfect d-th power.
    """
    sides = choose_box(n, d)
    _check_size(n)
    omino = Polyomino(d, np.column_stack(np.unravel_index(np.arange(n), sides)))
    return omino, omino.lift(f"box {'x'.join(map(str, sides))} n={n}")


def enumerate_fixed_polyforms(n: int, d: int = 2) -> list:
    """Shared-face counts of all fixed (translation-distinct) n-cell
    polyominoes/polycubes in Z^d, one entry per polyform.

    Redelmeier's algorithm (D. H. Redelmeier, "Counting polyominoes: yet
    another attack", Discrete Math. 36, 1981): every polyform is grown
    from its least cell, taken as the origin, over the half-lattice of
    cells after it (last coordinate first).  A cell leaves the untried
    list once tried, and enters it only if no cell of the shape grown so
    far has it as a neighbour, so each fixed polyform is reached exactly
    once, with no canonical form and no dedup set.  The shared-face count
    grows by the number of a new cell's 2d neighbours already in the
    shape.  len() of the result is OEIS A001168 (d = 2) / A001931 (d = 3).
    """
    n, d = integer(n, "n", least=1), integer(d, "d")
    # cell c is the integer sum((c_i + n) * side**i): no coordinate of a
    # shape cell or its neighbour leaves [-n, n], so the last coordinate is
    # the most significant digit and "after the origin" is "> origin"
    side = 2 * n + 1
    units = [side**axis for axis in range(d)]
    steps = units + [-u for u in units]
    origin = n * sum(units)
    shape = set()
    seen = {origin}  # the shape and every cell it has offered as untried
    counts = []

    def grow(untried, size, shared):
        if size == n - 1:
            counts.extend(shared + sum(c + s in shape for s in steps) for c in untried)
            return
        for i, cell in enumerate(untried):
            gained = sum(cell + s in shape for s in steps)
            fresh = [c for c in (cell + s for s in steps) if c > origin and c not in seen]
            shape.add(cell)
            seen.update(fresh)
            grow(untried[i + 1 :] + fresh, size + 1, shared + gained)
            shape.discard(cell)
            seen.difference_update(fresh)

    grow([origin], 0, 0)
    return counts


def polyomino_oracle(n: int, d: int = 2) -> int:
    """Exhaustive maximum shared-face count over all n-cell polyforms.

    Independent of the closed-form formulas and of the quasi-square/box
    constructions: one enumerate_fixed_polyforms call per oracle, limited
    by ORACLE_LIMITS.
    """
    n, d = integer(n, "n", least=1), integer(d, "d")
    limit = ORACLE_LIMITS.get(d)
    if limit is None:
        raise EnumerationLimitError(
            f"oracle enumeration supports d in {sorted(ORACLE_LIMITS)}, not d={d}"
        )
    if n > limit:
        raise EnumerationLimitError(
            f"oracle enumeration limit for d={d} is n <= {limit}, got n={n}"
        )
    return max(enumerate_fixed_polyforms(n, d))
