import math
from functools import partial

import numpy as np
import pytest

from sepack import (
    Packing,
    Window,
    interior_indices,
    min_pairwise_distance,
    validate_packing,
)
from sepack import catalog
from sepack.contact_numbers import (
    BoxSpec,
    Polyomino,
    c2_formula,
    cd_upper_bound,
    choose_box,
    enumerate_fixed_polyforms,
    polyomino_oracle,
    quasi_square_packing,
)
from sepack.diagonal import diagonal_construction
from sepack.errors import MalformedInputError, SepackError, UndefinedDistanceError
from sepack.generators import generate_named, signed_permutation_orbit
from sepack.separability import sep_measure_sequence

from conftest import brute_force_min_distance, random_rotation, transformed

SQRT2 = math.sqrt(2.0)


class TestWindow:
    def test_cube(self):
        w = Window.cube(12, 2, margin=3)
        assert w.dimension == 2
        assert np.all(w.lower == -12) and np.all(w.upper == 12)

    def test_rejects_inverted_bounds(self):
        with pytest.raises(MalformedInputError):
            Window([0.0, 0.0], [1.0, 0.0])

    def test_rejects_negative_margin(self):
        with pytest.raises(MalformedInputError):
            Window([0.0], [1.0], margin=-1)

    @pytest.mark.parametrize(
        "lower, upper, margin",
        [
            ([-np.inf], [1.0], 0.0),
            ([0.0], [np.inf], 0.0),
            ([0.0, np.nan], [1.0, 1.0], 0.0),
            ([0.0], [1.0], np.inf),
            ([0.0], [1.0], np.nan),
        ],
    )
    def test_rejects_nonfinite(self, lower, upper, margin):
        with pytest.raises(MalformedInputError, match="finite"):
            Window(lower, upper, margin)

    def test_interior_mask(self):
        w = Window([0.0, 0.0], [10.0, 10.0], margin=3)
        assert w.interior_mask(np.array([[5.0, 5.0]]))[0]
        assert not w.interior_mask(np.array([[1.0, 5.0]]))[0]


class TestPacking:
    def test_canonical_sort(self):
        p = Packing([[2.0, 0.0], [0.0, 0.0], [0.0, -1.0]])
        assert np.array_equal(
            p.centers, np.array([[0.0, -1.0], [0.0, 0.0], [2.0, 0.0]])
        )

    def test_rejects_ragged_centers(self):
        with pytest.raises(MalformedInputError):
            Packing([[0.0, 0.0], [1.0, 2.0, 3.0]])

    def test_rejects_nonfinite(self):
        with pytest.raises(MalformedInputError):
            Packing([[0.0, np.inf]])

    def test_centers_immutable(self):
        p = Packing([[0.0, 0.0], [2.0, 0.0]])
        with pytest.raises(ValueError):
            p.centers[0, 0] = 5.0

    def test_sorted_centers_skip_the_sort(self, monkeypatch):
        # equal rows and a signed zero are in order as they stand
        centers = np.array([[-1.0, 3.0], [0.0, -0.0], [0.0, 0.0], [0.0, 2.0], [1.0, -5.0]])
        sorts = []
        lexsort = np.lexsort
        monkeypatch.setattr(np, "lexsort", lambda keys: sorts.append(1) or lexsort(keys))
        p = Packing(centers)
        assert sorts == []
        assert p.centers.tobytes() == centers.tobytes()
        # the packing holds a read-only copy; the caller's array stays writable
        assert p.centers is not centers and centers.flags.writeable
        centers[0, 0] = 7.0
        assert p.centers[0, 0] == -1.0

    def test_shuffled_centers_come_out_canonical(self, rng, monkeypatch):
        grid = np.array([[x, y, z] for x in range(4) for y in range(-2, 2) for z in (0.5, 1.5)])
        shuffled = grid[rng.permutation(len(grid))]
        sorts = []
        lexsort = np.lexsort
        monkeypatch.setattr(np, "lexsort", lambda keys: sorts.append(1) or lexsort(keys))
        p = Packing(shuffled)
        assert sorts == [1]
        assert np.array_equal(p.centers, grid)
        assert p.centers.flags.c_contiguous


class TestValidatePacking:
    def test_exact_tangency_ok(self):
        assert validate_packing(Packing([[0.0, 0.0], [2.0, 0.0]])).ok

    def test_overlap_reports_pair_and_distance(self):
        verdict = validate_packing(Packing([[0.0, 0.0], [1.0, 0.0]]))
        assert not verdict.ok
        assert verdict.pair == (0, 1)
        assert verdict.distance == pytest.approx(1.0)

    def test_empty_and_single_ok(self):
        assert validate_packing(Packing(np.zeros((0, 2)))).ok
        assert validate_packing(Packing([[0.0, 0.0]])).ok

    def test_invariant_under_isometry(self, rng):
        from sepack import generate_named

        p = generate_named("K6", 8)
        assert validate_packing(p).ok
        for _ in range(5):
            q = transformed(p, random_rotation(2, rng), rng.uniform(-9, 9, 2))
            assert validate_packing(q).ok


class TestMinPairwiseDistance:
    def test_collinear(self):
        assert min_pairwise_distance(Packing([[0.0], [2.0], [5.0]])) == 2.0

    def test_unit_square(self):
        p = Packing([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
        assert min_pairwise_distance(p) == pytest.approx(1.0)

    def test_bitruncated_motif_is_sqrt2(self):
        # motif = signed permutations of (0,1,2) with its body-centered
        # lattice neighbors (cells share vertices, so dedup first);
        # oracle = full quadratic scan
        motif = signed_permutation_orbit(np.array([0.0, 1.0, 2.0]))
        shifts = [np.zeros(3), np.array([2.0, 2.0, 2.0]), np.array([4.0, 0.0, 0.0])]
        pts = np.unique(np.vstack([motif + s for s in shifts]), axis=0)
        oracle = brute_force_min_distance(pts)
        assert oracle == pytest.approx(SQRT2, abs=1e-12)
        assert min_pairwise_distance(Packing(pts)) == pytest.approx(oracle, abs=1e-12)

    def test_requires_two_centers(self):
        with pytest.raises(UndefinedDistanceError):
            min_pairwise_distance(Packing([[0.0, 0.0]]))

    def test_matches_brute_force_on_random_points(self, rng):
        pts = rng.uniform(-5, 5, size=(40, 3))
        assert min_pairwise_distance(Packing(pts)) == pytest.approx(
            brute_force_min_distance(pts), abs=1e-12
        )


class TestInteriorIndices:
    def test_margin_band(self):
        w = Window([0.0, 0.0], [10.0, 10.0], margin=3)
        p = Packing([[5.0, 5.0], [1.0, 5.0]], w)
        interior = interior_indices(p)
        inside = p.centers[interior]
        assert [5.0, 5.0] in inside.tolist()
        assert [1.0, 5.0] not in inside.tolist()

    def test_p1_window_interior_is_inner_grid(self):
        from sepack import generate_named

        p = generate_named("P1", 12)
        got = p.centers[interior_indices(p)]
        expected = np.array(
            sorted(
                [x, y]
                for x in range(-12, 13, 2)
                for y in range(-12, 13, 2)
                if abs(x) <= 9 and abs(y) <= 9
            ),
            dtype=float,
        )
        assert np.allclose(got, expected)


class _VersionTwoCatalog:
    """Stands in for ``importlib.resources``: the catalog file of a later format."""

    def files(self, package):
        return self

    def joinpath(self, name):
        return self

    def read_text(self):
        return '{"format_version": 2, "entries": []}'


def _load_later_catalog():
    # the cached load_catalog keeps the packaged catalog; its wrapped
    # function reads the stand-in
    original = catalog.resources
    catalog.resources = _VersionTwoCatalog()
    try:
        catalog.load_catalog.__wrapped__()
    finally:
        catalog.resources = original


@pytest.mark.parametrize(
    "call",
    [
        lambda: c2_formula(0),
        lambda: cd_upper_bound(0, 2),
        lambda: cd_upper_bound(1, 1),
        lambda: Polyomino(2, [(0, 0, 0)]),
        lambda: Polyomino(2, [(0, 0), (2**32, 2**32)]),
        lambda: BoxSpec(2, (0, 2), 0),
        lambda: BoxSpec(2, (1, 2), 3),
        lambda: choose_box(0, 2),
        lambda: quasi_square_packing(0),
        lambda: enumerate_fixed_polyforms(0),
        lambda: polyomino_oracle(0),
        lambda: diagonal_construction(2, -1),
        lambda: sep_measure_sequence(partial(generate_named, "P1"), [10, 6]),
        _load_later_catalog,
    ],
    ids=[
        "c2_formula", "cd_upper_bound-n", "cd_upper_bound-d", "Polyomino", "Polyomino-box",
        "BoxSpec-sides", "BoxSpec-cells", "choose_box", "quasi_square_packing",
        "enumerate_fixed_polyforms", "polyomino_oracle", "diagonal_construction",
        "sep_measure_sequence", "load_catalog",
    ],
)
def test_out_of_range_values_raise_a_typed_value_error(call):
    with pytest.raises(SepackError) as info:
        call()
    assert isinstance(info.value, ValueError)
